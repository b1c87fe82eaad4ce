//! The DPU-side xRPC terminator.
//!
//! "The DPU sits in between the host and the xRPC client as a middle-man.
//! Since the DPU now handles all the xRPC client connections and
//! multiplexes them to the host, it can alleviate the burden of managing
//! multiple xRPC sessions and network connections, often TCP/IP" (§III.A).
//!
//! Threading: the gRPC-like server spawns one thread per xRPC connection;
//! those threads *cannot* touch the single-owner RPC-over-RDMA client
//! (§III.C: one poller per connection). Instead they hand requests to the
//! poller thread over a channel and block on a per-call response slot —
//! the many-to-one-to-one model of §III.C.

use crate::compat::{routed_metadata, HostDirect, MODE_NATIVE, MODE_SERIALIZED};
use crate::offload::OffloadClient;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use pbo_cache::ResponseCache;
use pbo_grpc::{spawn_server, ServerHandle, ServiceRegistry};
use pbo_metrics::{Counter, Gauge, Registry};
use pbo_policy::{PolicyEngine, Route};
use pbo_rpcrdma::{Heartbeat, LeaseConfig, LeaseMonitor, LeaseState, RpcError};
use pbo_sched::{Scheduled, TenantScheduler, STATUS_SHED};
use pbo_simnet::TcpFabric;
use pbo_trace::{stages, Span, SpanSink, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which client-side behaviour the terminator uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardMode {
    /// Deserialize on the DPU (the paper's offload).
    Offload,
    /// Forward serialized bytes (the CPU-deserialization baseline).
    Forward,
}

impl ForwardMode {
    /// Route label for tail-latency attribution; matches
    /// [`pbo_policy::Route::name`] so fixed-mode and adaptive runs
    /// aggregate under the same vocabulary.
    pub fn route_label(self) -> &'static str {
        match self {
            ForwardMode::Offload => "dpu",
            ForwardMode::Forward => "host",
        }
    }
}

/// Static class label for a procedure id, used by the pollers that have
/// no policy engine (and therefore no registered class names) so
/// attribution still gets a bounded class dimension without a per-request
/// allocation on the dispatch path.
fn proc_class(proc_id: u16) -> &'static str {
    const LABELS: [&str; 9] = [
        "proc0", "proc1", "proc2", "proc3", "proc4", "proc5", "proc6", "proc7", "proc8",
    ];
    LABELS.get(proc_id as usize).copied().unwrap_or("procN")
}

/// One request in flight from an xRPC connection thread to the poller.
pub struct ForwardRequest {
    /// Procedure id.
    pub proc_id: u16,
    /// Serialized request bytes from the xRPC client.
    pub wire: Vec<u8>,
    /// Encoded call metadata to forward host-ward (empty = none).
    pub metadata: Vec<u8>,
    /// Tenant the request classified into (from the `tenant` metadata
    /// key; [`pbo_grpc::DEFAULT_TENANT`] for unlabeled traffic).
    pub tenant: String,
    /// Completion slot: `(status, response bytes)`.
    pub resp_tx: Sender<(u16, Vec<u8>)>,
    /// Tracer timestamp taken when the xRPC frame was received (0 when
    /// tracing is off); start of the `terminate` span.
    pub recv_ns: u64,
}

/// Builds the gRPC-side registry whose handlers forward into the poller
/// channel. One handler per service method.
pub fn forwarding_registry(
    bundle: &crate::service::ServiceSchema,
    tx: Sender<ForwardRequest>,
) -> ServiceRegistry {
    forwarding_registry_traced(bundle, tx, &Tracer::disabled())
}

/// [`forwarding_registry`] with a tracer: each forwarded request is
/// stamped with the receive time so the poller can emit a `terminate`
/// span (xRPC frame in → handed to the RDMA datapath).
pub fn forwarding_registry_traced(
    bundle: &crate::service::ServiceSchema,
    tx: Sender<ForwardRequest>,
    tracer: &Tracer,
) -> ServiceRegistry {
    let registry = ServiceRegistry::new();
    for m in &bundle.service().methods {
        let tx = tx.clone();
        let tracer = tracer.is_enabled().then(|| tracer.clone());
        let id = m.id;
        registry.add_raw(
            id,
            Arc::new(move |metadata, wire, out| {
                // The DPU is the gRPC server now: connection-level metadata
                // concerns (auth, deadlines) are handled HERE, off the host
                // (§III.A). A rejected call never touches the RDMA path.
                if metadata.get("authorization") == Some(b"deny" as &[u8]) {
                    return 16; // UNAUTHENTICATED, decided on the DPU
                }
                let recv_ns = tracer.as_ref().map(|t| t.now_ns()).unwrap_or(0);
                let (resp_tx, resp_rx) = bounded(1);
                if tx
                    .send(ForwardRequest {
                        proc_id: id,
                        wire: wire.to_vec(),
                        metadata: if metadata.is_empty() {
                            Vec::new()
                        } else {
                            metadata.encode()
                        },
                        tenant: metadata.tenant().to_string(),
                        resp_tx,
                        recv_ns,
                    })
                    .is_err()
                {
                    return 14; // UNAVAILABLE: poller gone
                }
                match resp_rx.recv() {
                    Ok((status, bytes)) => {
                        out.extend_from_slice(&bytes);
                        status
                    }
                    Err(_) => 14,
                }
            }),
        );
    }
    registry
}

/// The running terminator: the xRPC listener plus the RPC-over-RDMA
/// poller thread.
pub struct XrpcTerminator {
    grpc: ServerHandle,
    poller: Option<std::thread::JoinHandle<Result<(), RpcError>>>,
    stop: Arc<AtomicBool>,
}

impl XrpcTerminator {
    /// Binds the xRPC server at `addr` on `fabric` and starts the poller
    /// thread that owns `client`.
    pub fn spawn(fabric: &TcpFabric, addr: &str, client: OffloadClient, mode: ForwardMode) -> Self {
        Self::spawn_traced(fabric, addr, client, mode, &Tracer::disabled(), addr)
    }

    /// [`XrpcTerminator::spawn`] with tracing wired end to end: attaches
    /// `tracer` to the offload client (transport + deserialize spans) and
    /// emits `terminate` spans for sampled requests on the
    /// `{conn_label}/client` track.
    pub fn spawn_traced(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        mode: ForwardMode,
        tracer: &Tracer,
        conn_label: &str,
    ) -> Self {
        client.set_tracer(tracer, conn_label);
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let registry = forwarding_registry_traced(client.bundle(), tx, tracer);
        let listener = fabric.bind(addr);
        let grpc = spawn_server(listener, registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let trace = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{conn_label}/client")));
        let poller = std::thread::spawn(move || poller_loop_traced(client, rx, mode, stop2, trace));
        Self {
            grpc,
            poller: Some(poller),
            stop,
        }
    }

    /// [`XrpcTerminator::spawn_traced`] with a tenant scheduler in the
    /// path: requests classified by their `tenant` metadata go through
    /// admission control and WDRR dispatch before touching the RDMA
    /// datapath, and the scheduler's fabric-window observer is installed
    /// on the offload client so credit borrowing tracks real block-credit
    /// consumption.
    pub fn spawn_scheduled(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        mode: ForwardMode,
        sched: TenantScheduler<ForwardRequest>,
        tracer: &Tracer,
        conn_label: &str,
    ) -> Self {
        client.set_tracer(tracer, conn_label);
        client.rpc().set_credit_observer(sched.fabric());
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let registry = forwarding_registry_traced(client.bundle(), tx, tracer);
        let listener = fabric.bind(addr);
        let grpc = spawn_server(listener, registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let trace = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{conn_label}/client")));
        let poller = std::thread::spawn(move || {
            poller_loop_scheduled(client, rx, mode, stop2, trace, sched)
        });
        Self {
            grpc,
            poller: Some(poller),
            stop,
        }
    }

    /// [`XrpcTerminator::spawn_scheduled`] with the adaptive per-class
    /// offload policy in the dispatch path: instead of one static
    /// [`ForwardMode`] for the whole run, every request consults
    /// `policy` for its message class and routes DPU-deserialize
    /// ([`MODE_NATIVE`]) or host-deserialize ([`MODE_SERIALIZED`])
    /// accordingly, with the mode byte prefixed to the forwarded
    /// metadata so [`crate::CompatServer::register_degradable_md`]
    /// handlers dispatch per request. DPU-side deserializations feed
    /// their real work-unit counts back into the policy's cost
    /// estimates, and the control loop's telemetry signals are
    /// refreshed every poller iteration.
    ///
    /// The policy's tracer is wired to `{conn_label}/policy` so route
    /// flips land on the same timeline as the datapath spans.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_adaptive(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        sched: TenantScheduler<ForwardRequest>,
        mut policy: PolicyEngine,
        tracer: &Tracer,
        conn_label: &str,
    ) -> Self {
        client.set_tracer(tracer, conn_label);
        client.rpc().set_credit_observer(sched.fabric());
        policy.set_tracer(tracer, conn_label);
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let registry = forwarding_registry_traced(client.bundle(), tx, tracer);
        let listener = fabric.bind(addr);
        let grpc = spawn_server(listener, registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let trace = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{conn_label}/client")));
        let poller = std::thread::spawn(move || {
            poller_loop_adaptive(client, rx, stop2, trace, sched, policy)
        });
        Self {
            grpc,
            poller: Some(poller),
            stop,
        }
    }

    /// [`XrpcTerminator::spawn_scheduled`] with whole-DPU failure
    /// handling: a lease monitor watches the RDMA datapath for both loud
    /// deaths (transport errors classified as device deaths) and silent
    /// wedges (outstanding requests with no completions past the lease
    /// deadline). On death the terminator fails over to a host-only
    /// datapath — in-flight requests are replayed through `host`
    /// ([`HostDirect`], the same business logic the compat server runs),
    /// queued scheduler grants drain into the host path with per-tenant
    /// accounting preserved, and every subsequent request is served
    /// host-direct so the xRPC listener never goes dark.
    ///
    /// Warm rejoin: when a restarted DPU comes back, hand a freshly
    /// established [`OffloadClient`] (new `establish` re-ships the ADT
    /// and re-verifies digests) through `rejoin_rx`. The poller attaches
    /// it to the scheduler's credit window (sub-pools re-sync against
    /// the reset fabric window) and ramps offload back: every
    /// `ha.rejoin_probe_stride`-th grant probes the DPU path, the stride
    /// halving per accepted probe until full offload resumes.
    ///
    /// Recovery events are exported as `terminator_failovers_total`,
    /// `terminator_rejoins_total`, `terminator_replayed_requests_total`,
    /// `terminator_host_served_total`, and the `terminator_lease_state` /
    /// `terminator_lease_time_in_state_ns` gauges, all labeled
    /// `conn={conn_label}`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_ha(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        mode: ForwardMode,
        sched: TenantScheduler<ForwardRequest>,
        host: HostDirect,
        rejoin_rx: Receiver<OffloadClient>,
        ha: HaConfig,
        registry: &Registry,
        tracer: &Tracer,
        conn_label: &str,
    ) -> Self {
        client.set_tracer(tracer, conn_label);
        client.rpc().set_credit_observer(sched.fabric());
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let grpc_registry = forwarding_registry_traced(client.bundle(), tx, tracer);
        let listener = fabric.bind(addr);
        let grpc = spawn_server(listener, grpc_registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let trace = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{conn_label}/client")));
        let counters = HaCounters::bind(registry, conn_label);
        let tracer = tracer.clone();
        let label = conn_label.to_string();
        let poller = std::thread::spawn(move || {
            poller_loop_ha(
                client, rx, mode, stop2, trace, sched, host, rejoin_rx, ha, counters, tracer, label,
            )
        });
        Self {
            grpc,
            poller: Some(poller),
            stop,
        }
    }

    /// [`XrpcTerminator::spawn_scheduled`] with the DPU response cache in
    /// front of the scheduler: every forwarded request of a declared-
    /// cachable class consults `cache` before admission. A hit
    /// short-circuits the entire datapath — no deserialize, no block
    /// build, no credit wait, no DMA, no host dispatch — and synthesizes
    /// the response on the DPU; it still consumes one cheap admission
    /// token (cost 1) from the tenant's bucket so per-tenant rate limits
    /// keep meaning something at the front door (see DESIGN.md §15).
    /// Misses take the normal scheduled path and, when the native route
    /// answers with status 0, populate the cache on completion.
    /// `CACHE_INVALIDATE` control messages from the host are drained
    /// every poller iteration into [`pbo_cache::ResponseCache::invalidate_class`].
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_cached(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        mode: ForwardMode,
        sched: TenantScheduler<ForwardRequest>,
        cache: ResponseCache,
        tracer: &Tracer,
        conn_label: &str,
    ) -> Self {
        client.set_tracer(tracer, conn_label);
        client.rpc().set_credit_observer(sched.fabric());
        let (tx, rx) = bounded::<ForwardRequest>(4096);
        let registry = forwarding_registry_traced(client.bundle(), tx, tracer);
        let listener = fabric.bind(addr);
        let grpc = spawn_server(listener, registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let trace = tracer
            .is_enabled()
            .then(|| tracer.sink(&format!("{conn_label}/client")));
        let tracer = tracer.clone();
        let poller = std::thread::spawn(move || {
            poller_loop_cached(client, rx, mode, stop2, trace, sched, cache, tracer)
        });
        Self {
            grpc,
            poller: Some(poller),
            stop,
        }
    }

    /// xRPC calls served so far.
    pub fn calls_served(&self) -> u64 {
        self.grpc.calls_served()
    }

    /// Stops both halves and joins the poller.
    pub fn shutdown(mut self) -> Result<(), RpcError> {
        self.stop.store(true, Ordering::Release);
        self.grpc.stop();
        match self.poller.take() {
            Some(h) => h.join().expect("poller panicked"),
            None => Ok(()),
        }
    }
}

impl Drop for XrpcTerminator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.grpc.stop();
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
    }
}

/// Longest the poller blocks in one place. While it waits on one side an
/// event on the other goes unseen — an unsolicited completion (control
/// record, NACK) while parked on the hand-off channel, the `stop` flag, a
/// token-bucket refill, the HA lease deadline — so this bounds how late
/// any of those is noticed.
const IDLE_WAIT_BOUND: Duration = Duration::from_millis(1);

/// The poller's end of the xRPC hand-off: the request channel, the stop
/// flag, and the request a blocking receive woke the poller with. That
/// request is handed out first by the next [`Handoff::ready`], so it is
/// classified by the same intake code as one found without blocking.
struct Handoff {
    rx: Receiver<ForwardRequest>,
    stop: Arc<AtomicBool>,
    woken: Option<ForwardRequest>,
}

impl Handoff {
    fn new(rx: Receiver<ForwardRequest>, stop: Arc<AtomicBool>) -> Self {
        Self {
            rx,
            stop,
            woken: None,
        }
    }

    /// Forwarded requests available right now, oldest first.
    fn ready(&mut self) -> impl Iterator<Item = ForwardRequest> + '_ {
        self.woken.take().into_iter().chain(self.rx.try_iter())
    }

    /// The poller's one blocking point: sleeps where the next event will
    /// come from (the `poll()` sleep of §III.C). `drained` says the loop
    /// holds no backlog, queued request or grant of its own. When that is
    /// so and the RDMA side is quiescent — or there is no live client at
    /// all — no completion can be next, so this parks on the hand-off
    /// channel; otherwise it waits on the completion queue. After parking
    /// it still runs a zero-timeout event-loop pass, so whatever reached
    /// the completion queue meanwhile (a `CACHE_INVALIDATE`, say) is
    /// applied before the woken request is classified. Returns `true`
    /// when the poller should exit: stopped, and nothing left anywhere.
    fn wait(
        &mut self,
        mut client: Option<&mut OffloadClient>,
        drained: bool,
    ) -> Result<bool, RpcError> {
        let park = client
            .as_mut()
            .is_none_or(|c| drained && c.rpc().is_quiescent());
        let mut cq_wait = IDLE_WAIT_BOUND;
        if park {
            match self.rx.recv_timeout(IDLE_WAIT_BOUND) {
                Ok(req) => {
                    self.woken = Some(req);
                    cq_wait = Duration::ZERO;
                }
                Err(RecvTimeoutError::Timeout) => cq_wait = Duration::ZERO,
                // Every sender is gone and the receive returns at once:
                // wait out the bound below instead of spinning.
                Err(RecvTimeoutError::Disconnected) => {}
            }
        }
        match client.as_mut() {
            Some(c) => {
                c.event_loop(cq_wait)?;
            }
            // No completion queue either (HA, dead lease), and with the
            // channel disconnected no request can come: sit out the bound.
            None => std::thread::park_timeout(cq_wait),
        }
        Ok(drained
            && self.woken.is_none()
            && self.stop.load(Ordering::Acquire)
            && client.is_none_or(|c| c.rpc().outstanding() == 0)
            && self.rx.is_empty())
    }
}

/// Queues one forwarded request with its tenant, or answers it with the
/// retryable [`STATUS_SHED`] when admission refuses it — the datapath
/// never sees a shed request.
fn offer_or_shed(sched: &mut TenantScheduler<ForwardRequest>, req: ForwardRequest, now_ns: u64) {
    let tenant = req.tenant.clone();
    let cost = req.wire.len() as u32;
    if let Err((req, _reason)) = sched.offer(&tenant, req, cost, now_ns) {
        let _ = req.resp_tx.send((STATUS_SHED, Vec::new()));
    }
}

/// Intake for the loops with nothing in front of the scheduler: admits
/// what the xRPC side has forwarded, up to a 512-deep queue per pass.
fn admit_ready(handoff: &mut Handoff, sched: &mut TenantScheduler<ForwardRequest>, now_ns: u64) {
    for req in handoff.ready() {
        offer_or_shed(sched, req, now_ns);
        if sched.queued() >= 512 {
            break;
        }
    }
}

/// The poller loop: drains forwarded requests into the RPC-over-RDMA
/// client, retries on backpressure (credits / send-buffer), and drives the
/// event loop. Public so measured-mode harnesses can run it on a thread
/// they control.
pub fn poller_loop(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
) -> Result<(), RpcError> {
    poller_loop_traced(client, rx, mode, stop, None)
}

/// [`poller_loop`] with an optional span sink: when a sampled request is
/// accepted by the RDMA client, its `terminate` span (xRPC receive →
/// enqueue into the outgoing block) is recorded here.
pub fn poller_loop_traced(
    mut client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
) -> Result<(), RpcError> {
    let mut handoff = Handoff::new(rx, stop);
    let mut backlog: VecDeque<ForwardRequest> = VecDeque::new();
    loop {
        // Refill the backlog ("the user is responsible for queueing enough
        // requests to fill a block before calling the event loop", §IV).
        for req in handoff.ready() {
            backlog.push_back(req);
            if backlog.len() >= 512 {
                break;
            }
        }
        // Enqueue as much of the backlog as backpressure allows.
        while let Some(req) = backlog.pop_front() {
            let resp_tx = req.resp_tx.clone();
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |payload, status| {
                let _ = resp_tx.send((status, payload.to_vec()));
            });
            let result = match mode {
                ForwardMode::Offload => {
                    client.call_offloaded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
                ForwardMode::Forward => {
                    client.call_forwarded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
            };
            match result {
                Ok(()) => {
                    // Termination span: frame received on the xRPC side →
                    // committed into the outgoing block (which is exactly
                    // where the block_build span picks up).
                    if let (Some(sink), true) = (&trace, req.recv_ns != 0) {
                        if let Some(ctx) = client.rpc().last_trace_ctx() {
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::TERMINATE,
                                start_ns: req.recv_ns,
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.annotate(
                                ctx.trace_id,
                                Some(&req.tenant),
                                Some(proc_class(req.proc_id)),
                                Some(mode.route_label()),
                            );
                        }
                    }
                }
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    backlog.push_front(req);
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    // Poison or unserviceable request: answer the xRPC
                    // client with an error status instead of killing the
                    // poller.
                    let _ = req.resp_tx.send((3, Vec::new()));
                }
                Err(e) => return Err(e),
            }
        }
        if handoff.wait(Some(&mut client), backlog.is_empty())? {
            return Ok(());
        }
    }
}

/// [`poller_loop_traced`] with a tenant scheduler between the xRPC side
/// and the RDMA client (§ multi-tenancy): every forwarded request passes
/// through per-tenant admission control (token bucket + queue-depth
/// shedding, answered with [`pbo_sched::STATUS_SHED`]) and WDRR dispatch
/// gated on the tenant's credit sub-pool. Completions return grants via
/// an in-thread channel fired from the response continuation.
pub fn poller_loop_scheduled(
    mut client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
    mut sched: TenantScheduler<ForwardRequest>,
) -> Result<(), RpcError> {
    let mut handoff = Handoff::new(rx, stop);
    let epoch = Instant::now();
    let (done_tx, done_rx) = unbounded::<usize>();
    // A dispatched request the RDMA client pushed back on (credits / send
    // buffer). Its scheduler grant is already held, so it retries ahead
    // of everything else rather than re-entering the queues.
    let mut pending: Option<Scheduled<ForwardRequest>> = None;
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        // Classify + admit everything the xRPC side has forwarded.
        admit_ready(&mut handoff, &mut sched, now_ns);
        // Return completed grants before asking for new dispatches.
        while let Ok(t) = done_rx.try_recv() {
            sched.complete(t);
        }
        // Dispatch in WDRR order among credit-eligible tenants; the
        // pending slot (grant already held) always goes first.
        loop {
            let out = match pending.take() {
                Some(out) => out,
                None => match sched.next(epoch.elapsed().as_nanos() as u64) {
                    Some(out) => out,
                    None => break,
                },
            };
            let tenant = out.tenant;
            let req = &out.item;
            let resp_tx = req.resp_tx.clone();
            let done = done_tx.clone();
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |payload, status| {
                let _ = resp_tx.send((status, payload.to_vec()));
                let _ = done.send(tenant);
            });
            let result = match mode {
                ForwardMode::Offload => {
                    client.call_offloaded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
                ForwardMode::Forward => {
                    client.call_forwarded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
            };
            match result {
                Ok(()) => {
                    if let (Some(sink), true) = (&trace, req.recv_ns != 0) {
                        if let Some(ctx) = client.rpc().last_trace_ctx() {
                            // Queueing delay inside the scheduler…
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::SCHED_WAIT,
                                start_ns: ctx.begin_ns.saturating_sub(out.wait_ns),
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            // …and the termination span as in the
                            // unscheduled loop.
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::TERMINATE,
                                start_ns: req.recv_ns,
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.annotate(
                                ctx.trace_id,
                                Some(&req.tenant),
                                Some(proc_class(req.proc_id)),
                                Some(mode.route_label()),
                            );
                        }
                    }
                }
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    pending = Some(out);
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    let _ = out.item.resp_tx.send((3, Vec::new()));
                    sched.complete(tenant);
                }
                Err(e) => return Err(e),
            }
        }
        if handoff.wait(Some(&mut client), pending.is_none() && sched.queued() == 0)? {
            return Ok(());
        }
    }
}

/// [`poller_loop_scheduled`] with the DPU response cache consulted at
/// request intake, before admission. Cache hits never enter the
/// scheduler queues or the RDMA datapath: they are answered inline with
/// a `terminate` + `cache_hit` span pair under a synthetic trace id
/// (hits never reach the wire, so there is no protocol trace context to
/// borrow — and the purity of hit traces is exactly what the
/// acceptance tests assert). Hits still pay a cost-1 admission token.
/// Stores happen in the response continuation, guarded by the epoch
/// captured at dispatch so a flush-in-between (breaker, failover)
/// discards them.
#[allow(clippy::too_many_arguments)]
pub fn poller_loop_cached(
    mut client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
    mut sched: TenantScheduler<ForwardRequest>,
    cache: ResponseCache,
    tracer: Tracer,
) -> Result<(), RpcError> {
    let mut handoff = Handoff::new(rx, stop);
    let epoch = Instant::now();
    let (done_tx, done_rx) = unbounded::<usize>();
    let mut pending: Option<Scheduled<ForwardRequest>> = None;
    // Synthetic trace-id source for hit-path spans: the high bit-48 tag
    // keeps them disjoint from protocol-derived ids (FNV over the
    // connection label) for any practical span volume.
    let mut synthetic: u64 = 0;
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        // Host-driven invalidations land before new lookups, so a class
        // invalidated by the previous event-loop pass cannot hit.
        for class in client.rpc().take_cache_invalidations() {
            cache.invalidate_class(class);
        }
        // Classify: cache hits answered inline, misses admitted.
        for req in handoff.ready() {
            // For a traced request, stamp where the lookup starts: that
            // is where `terminate` ends and `cache_hit` begins on a hit.
            let traced = match &trace {
                Some(sink) if req.recv_ns != 0 => Some((sink, tracer.now_ns())),
                _ => None,
            };
            let Some((status, payload)) = cache.lookup(&req.tenant, req.proc_id, &req.wire, now_ns)
            else {
                offer_or_shed(&mut sched, req, now_ns);
                if sched.queued() >= 512 {
                    break;
                }
                continue;
            };
            // Front-door rate limit still applies: a hit is nearly free,
            // so it costs one token, not its byte size.
            if sched.admit(&req.tenant, 1, now_ns).is_err() {
                let _ = req.resp_tx.send((STATUS_SHED, Vec::new()));
                continue;
            }
            let _ = req.resp_tx.send((status, payload));
            if let Some((sink, lookup_ns)) = traced {
                synthetic += 1;
                let tid = (1u64 << 48) | synthetic;
                sink.record(Span {
                    trace_id: tid,
                    stage: stages::TERMINATE,
                    start_ns: req.recv_ns,
                    end_ns: lookup_ns,
                    bytes: req.wire.len() as u64,
                });
                sink.record(Span {
                    trace_id: tid,
                    stage: stages::CACHE_HIT,
                    start_ns: lookup_ns,
                    end_ns: tracer.now_ns(),
                    bytes: req.wire.len() as u64,
                });
                sink.annotate(
                    tid,
                    Some(&req.tenant),
                    Some(proc_class(req.proc_id)),
                    Some(Route::Cached.name()),
                );
            }
        }
        while let Ok(t) = done_rx.try_recv() {
            sched.complete(t);
        }
        loop {
            let out = match pending.take() {
                Some(out) => out,
                None => match sched.next(epoch.elapsed().as_nanos() as u64) {
                    Some(out) => out,
                    None => break,
                },
            };
            let tenant = out.tenant;
            let req = &out.item;
            let resp_tx = req.resp_tx.clone();
            let done = done_tx.clone();
            // Populate-on-miss: only native-path status-0 responses are
            // cached (forwarded/degraded responses came from a host-side
            // deserialize and the never-cache-degraded rule applies);
            // the epoch captured here dies with any intervening flush.
            let store =
                (mode == ForwardMode::Offload && cache.is_cachable(req.proc_id)).then(|| {
                    (
                        cache.clone(),
                        cache.epoch(),
                        req.tenant.clone(),
                        req.proc_id,
                        req.wire.clone(),
                        trace.clone(),
                        tracer.clone(),
                    )
                });
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |payload, status| {
                if status == 0 {
                    if let Some((cache, ep, tenant, proc_id, wire, sink, tracer)) = &store {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if cache.store(tenant, *proc_id, wire, payload, now, *ep)
                            == pbo_cache::StoreOutcome::Stored
                        {
                            if let Some(sink) = sink {
                                let t = tracer.now_ns();
                                sink.record(Span {
                                    trace_id: (1u64 << 49) | now,
                                    stage: stages::CACHE_STORE,
                                    start_ns: t,
                                    end_ns: t,
                                    bytes: payload.len() as u64,
                                });
                            }
                        }
                    }
                }
                let _ = resp_tx.send((status, payload.to_vec()));
                let _ = done.send(tenant);
            });
            let result = match mode {
                ForwardMode::Offload => {
                    client.call_offloaded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
                ForwardMode::Forward => {
                    client.call_forwarded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
            };
            match result {
                Ok(()) => {
                    if let (Some(sink), true) = (&trace, req.recv_ns != 0) {
                        if let Some(ctx) = client.rpc().last_trace_ctx() {
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::SCHED_WAIT,
                                start_ns: ctx.begin_ns.saturating_sub(out.wait_ns),
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::TERMINATE,
                                start_ns: req.recv_ns,
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.annotate(
                                ctx.trace_id,
                                Some(&req.tenant),
                                Some(proc_class(req.proc_id)),
                                Some(mode.route_label()),
                            );
                        }
                    }
                }
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    pending = Some(out);
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    let _ = out.item.resp_tx.send((3, Vec::new()));
                    sched.complete(tenant);
                }
                Err(e) => return Err(e),
            }
        }
        if handoff.wait(Some(&mut client), pending.is_none() && sched.queued() == 0)? {
            return Ok(());
        }
    }
}

/// [`poller_loop_scheduled`] with the adaptive per-class offload policy
/// choosing the route of every dispatched request. The route is decided
/// **once**, when the scheduler first hands the request out — a
/// backpressure retry reuses the held decision, so
/// `policy_route_total{class,route}` counts requests, not attempts.
/// Offloaded deserializations report their [`pbo_protowire::DeserStats`]
/// back into the policy (one observation refreshes both routes' cost
/// estimates — the coefficients price the same work-unit counts on
/// either platform), and `policy.refresh_signals` runs every iteration
/// so pressure reacts at telemetry speed, throttled only by the
/// policy's own `signal_refresh_ns`.
pub fn poller_loop_adaptive(
    mut client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
    mut sched: TenantScheduler<ForwardRequest>,
    mut policy: PolicyEngine,
) -> Result<(), RpcError> {
    let mut handoff = Handoff::new(rx, stop);
    let epoch = Instant::now();
    let (done_tx, done_rx) = unbounded::<usize>();
    // A dispatched request the RDMA client pushed back on, with the
    // route already decided (and counted): it retries verbatim.
    let mut pending: Option<(Scheduled<ForwardRequest>, Route)> = None;
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        policy.refresh_signals(now_ns);
        // Classify + admit everything the xRPC side has forwarded.
        admit_ready(&mut handoff, &mut sched, now_ns);
        while let Ok(t) = done_rx.try_recv() {
            sched.complete(t);
        }
        // Dispatch in WDRR order; the pending slot goes first and keeps
        // its original route decision.
        loop {
            let (out, route) = match pending.take() {
                Some(held) => held,
                None => match sched.next(epoch.elapsed().as_nanos() as u64) {
                    Some(out) => {
                        let choice =
                            policy.route(out.item.proc_id, epoch.elapsed().as_nanos() as u64);
                        (out, choice.route)
                    }
                    None => break,
                },
            };
            let tenant = out.tenant;
            let req = &out.item;
            let resp_tx = req.resp_tx.clone();
            let done = done_tx.clone();
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |payload, status| {
                let _ = resp_tx.send((status, payload.to_vec()));
                let _ = done.send(tenant);
            });
            let result = match route {
                Route::Dpu => client.call_offloaded_md(
                    req.proc_id,
                    &req.wire,
                    &routed_metadata(MODE_NATIVE, &req.metadata),
                    cont,
                ),
                Route::Host => client.call_forwarded_md(
                    req.proc_id,
                    &req.wire,
                    &routed_metadata(MODE_SERIALIZED, &req.metadata),
                    cont,
                ),
                // The control loop never chooses the cached route — it
                // is reported by the cache layer, not dispatched here.
                Route::Cached => unreachable!("policy never routes to Cached"),
            };
            match result {
                Ok(()) => {
                    if route == Route::Dpu {
                        // Feed the real work-unit counts of this DPU-side
                        // deserialization back into the cost estimates.
                        if let Some((stats, used)) = client.take_deser_outcome() {
                            policy.observe_stats(
                                req.proc_id,
                                &stats,
                                req.wire.len() as u64,
                                used,
                                epoch.elapsed().as_nanos() as u64,
                            );
                        }
                    }
                    if let (Some(sink), true) = (&trace, req.recv_ns != 0) {
                        if let Some(ctx) = client.rpc().last_trace_ctx() {
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::SCHED_WAIT,
                                start_ns: ctx.begin_ns.saturating_sub(out.wait_ns),
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::TERMINATE,
                                start_ns: req.recv_ns,
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.annotate(
                                ctx.trace_id,
                                Some(&req.tenant),
                                Some(policy.class_label(req.proc_id).unwrap_or("__unregistered")),
                                Some(route.name()),
                            );
                        }
                    }
                }
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    pending = Some((out, route));
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    let _ = out.item.resp_tx.send((3, Vec::new()));
                    sched.complete(tenant);
                }
                Err(e) => return Err(e),
            }
        }
        if handoff.wait(Some(&mut client), pending.is_none() && sched.queued() == 0)? {
            return Ok(());
        }
    }
}

/// Failure-domain knobs for [`XrpcTerminator::spawn_ha`].
#[derive(Clone, Debug)]
pub struct HaConfig {
    /// Liveness lease on the DPU datapath: renewed every iteration that
    /// makes progress, Suspect past one interval, Dead past
    /// `interval × miss_threshold`.
    pub lease: LeaseConfig,
    /// During rejoin, every Nth scheduler grant probes the DPU path
    /// (stride halves per accepted probe; `<= 1` completes the rejoin).
    pub rejoin_probe_stride: u32,
}

impl Default for HaConfig {
    fn default() -> Self {
        Self {
            lease: LeaseConfig::default(),
            rejoin_probe_stride: 8,
        }
    }
}

/// Recovery metrics for the HA terminator (one set per `conn` label).
struct HaCounters {
    failovers: Counter,
    rejoins: Counter,
    replayed: Counter,
    host_served: Counter,
    lease_state: Gauge,
    lease_time_in_state: Gauge,
}

impl HaCounters {
    fn bind(registry: &Registry, conn: &str) -> Self {
        let l = [("conn", conn)];
        Self {
            failovers: registry.counter(
                "terminator_failovers_total",
                "Whole-DPU failovers to the host-only datapath",
                &l,
            ),
            rejoins: registry.counter(
                "terminator_rejoins_total",
                "Warm rejoins that restored full offload service",
                &l,
            ),
            replayed: registry.counter(
                "terminator_replayed_requests_total",
                "In-flight requests replayed through the host after a DPU death",
                &l,
            ),
            host_served: registry.counter(
                "terminator_host_served_total",
                "Requests served by the host-direct fallback datapath",
                &l,
            ),
            lease_state: registry.gauge(
                "terminator_lease_state",
                "DPU lease state (0=live 1=suspect 2=dead 3=rejoining)",
                &l,
            ),
            lease_time_in_state: registry.gauge(
                "terminator_lease_time_in_state_ns",
                "Nanoseconds the DPU lease has spent in its current state",
                &l,
            ),
        }
    }
}

/// One request committed to the RDMA datapath and not yet completed:
/// enough to replay it through the host if the DPU dies first.
struct HaInflight {
    tenant: usize,
    req: ForwardRequest,
}

/// Serves one request on the host-direct path and returns its scheduler
/// grant. Poison and unknown procedures answer status 3, same as the
/// DPU-path arms.
fn ha_serve_host(
    host: &mut HostDirect,
    sched: &mut TenantScheduler<ForwardRequest>,
    counters: &HaCounters,
    tenant: usize,
    req: &ForwardRequest,
) {
    let mut out = Vec::new();
    let status = host.dispatch(req.proc_id, &req.wire, &mut out).unwrap_or(3);
    let _ = req.resp_tx.send((status, out));
    sched.complete(tenant);
    counters.host_served.inc();
}

/// The whole-DPU failover: declares the lease dead, drops the dead
/// client (its continuations die unfired — each replayed request still
/// answers its xRPC slot exactly once), invalidates the fabric credit
/// window, and drains the held grant plus every in-flight request into
/// the host path in submission order.
#[allow(clippy::too_many_arguments)]
fn ha_failover(
    lease: &mut LeaseMonitor,
    counters: &HaCounters,
    client: &mut Option<OffloadClient>,
    pending: &mut Option<Scheduled<ForwardRequest>>,
    inflight: &mut BTreeMap<u64, HaInflight>,
    sched: &mut TenantScheduler<ForwardRequest>,
    host: &mut HostDirect,
    done_rx: &Receiver<(u64, usize)>,
    trace: &Option<SpanSink>,
    tracer: &Tracer,
    now_ns: u64,
) {
    if lease.state() == LeaseState::Dead && client.is_none() {
        return;
    }
    // A death mid-rejoin falls back to Dead; a live lease is declared
    // dead on the spot.
    if !lease.abort_rejoin(now_ns) {
        lease.declare_dead(now_ns);
    }
    counters.failovers.inc();
    counters.lease_state.set(lease.state().gauge_code() as i64);
    let wall_start = tracer.now_ns();
    // Anything that completed before the death already returned its
    // grant and left the journal; collect those first so they are not
    // replayed.
    while let Ok((seq, tenant)) = done_rx.try_recv() {
        sched.complete(tenant);
        inflight.remove(&seq);
    }
    // Drop the dead client: pending continuations die unfired, so every
    // surviving journal entry owes its xRPC slot exactly one response.
    *client = None;
    // The credit window tracked blocks the dead DPU will never ack.
    sched.fabric().reset();
    if let Some(out) = pending.take() {
        ha_serve_host(host, sched, counters, out.tenant, &out.item);
    }
    let replayed = inflight.len() as u64;
    for (_, entry) in std::mem::take(inflight) {
        ha_serve_host(host, sched, counters, entry.tenant, &entry.req);
        counters.replayed.inc();
    }
    if let Some(sink) = trace {
        sink.record(Span {
            trace_id: 0,
            stage: stages::FAILOVER,
            start_ns: wall_start,
            end_ns: tracer.now_ns(),
            bytes: replayed,
        });
    }
}

/// [`poller_loop_scheduled`] wrapped in the DPU failure domain: lease
/// monitoring, host-only failover, and stride-ramped warm rejoin. See
/// [`XrpcTerminator::spawn_ha`] for the protocol.
#[allow(clippy::too_many_arguments)]
fn poller_loop_ha(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
    mut sched: TenantScheduler<ForwardRequest>,
    mut host: HostDirect,
    rejoin_rx: Receiver<OffloadClient>,
    ha: HaConfig,
    counters: HaCounters,
    tracer: Tracer,
    conn_label: String,
) -> Result<(), RpcError> {
    let mut handoff = Handoff::new(rx, stop);
    let epoch = Instant::now();
    let (done_tx, done_rx) = unbounded::<(u64, usize)>();
    let mut client: Option<OffloadClient> = Some(client);
    let mut lease = LeaseMonitor::new(ha.lease, 0);
    let mut hb_seq: u64 = 0;
    let mut next_seq: u64 = 0;
    // Requests accepted by the RDMA client and awaiting completion,
    // keyed by submission sequence (= replay order after a death).
    let mut inflight: BTreeMap<u64, HaInflight> = BTreeMap::new();
    let mut pending: Option<Scheduled<ForwardRequest>> = None;
    // Rejoin ramp: (current stride, grants seen since rejoin began).
    let mut ramp: Option<(u32, u64)> = None;
    let mut rejoin_started_wall: u64 = 0;
    counters.lease_state.set(lease.state().gauge_code() as i64);
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        // A restarted DPU rejoining: the fresh client arrives fully
        // re-established (ADT re-shipped, digests re-verified) and gets
        // wired to this connection's tracer and credit window.
        if lease.state() == LeaseState::Dead {
            if let Ok(mut fresh) = rejoin_rx.try_recv() {
                fresh.set_tracer(&tracer, &conn_label);
                fresh.rpc().set_credit_observer(sched.fabric());
                client = Some(fresh);
                lease.begin_rejoin(now_ns);
                counters.lease_state.set(lease.state().gauge_code() as i64);
                ramp = Some((ha.rejoin_probe_stride.max(1), 0));
                rejoin_started_wall = tracer.now_ns();
            }
        }
        // Classify + admit everything the xRPC side has forwarded.
        admit_ready(&mut handoff, &mut sched, now_ns);
        let mut completed_this_iter: u64 = 0;
        while let Ok((seq, tenant)) = done_rx.try_recv() {
            sched.complete(tenant);
            inflight.remove(&seq);
            completed_this_iter += 1;
        }
        // Dispatch in WDRR order; the pending slot (grant held) first.
        loop {
            let out = match pending.take() {
                Some(out) => out,
                None => match sched.next(epoch.elapsed().as_nanos() as u64) {
                    Some(out) => out,
                    None => break,
                },
            };
            // Route per lease state: Dead → host, Rejoining → mostly
            // host with every stride-th grant probing the DPU,
            // Live/Suspect → DPU.
            let dpu_path = match lease.state() {
                LeaseState::Dead => false,
                LeaseState::Live | LeaseState::Suspect => true,
                LeaseState::Rejoining => {
                    let (stride, seen) = ramp.get_or_insert((1, 0));
                    *seen += 1;
                    *stride <= 1 || *seen % (*stride as u64) == 0
                }
            };
            if !dpu_path {
                ha_serve_host(&mut host, &mut sched, &counters, out.tenant, &out.item);
                continue;
            }
            let cl = client.as_mut().expect("lease live implies a client");
            let tenant = out.tenant;
            let req = &out.item;
            let seq = next_seq;
            let resp_tx = req.resp_tx.clone();
            let done = done_tx.clone();
            let cont: pbo_rpcrdma::client::Continuation = Box::new(move |payload, status| {
                let _ = resp_tx.send((status, payload.to_vec()));
                let _ = done.send((seq, tenant));
            });
            let result = match mode {
                ForwardMode::Offload => {
                    cl.call_offloaded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
                ForwardMode::Forward => {
                    cl.call_forwarded_md(req.proc_id, &req.wire, &req.metadata, cont)
                }
            };
            match result {
                Ok(()) => {
                    next_seq += 1;
                    if let (Some(sink), true) = (&trace, req.recv_ns != 0) {
                        if let Some(ctx) = cl.rpc().last_trace_ctx() {
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::SCHED_WAIT,
                                start_ns: ctx.begin_ns.saturating_sub(out.wait_ns),
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.record(Span {
                                trace_id: ctx.trace_id,
                                stage: stages::TERMINATE,
                                start_ns: req.recv_ns,
                                end_ns: ctx.begin_ns,
                                bytes: req.wire.len() as u64,
                            });
                            sink.annotate(
                                ctx.trace_id,
                                Some(&req.tenant),
                                Some(proc_class(req.proc_id)),
                                Some(mode.route_label()),
                            );
                        }
                    }
                    inflight.insert(
                        seq,
                        HaInflight {
                            tenant,
                            req: out.item,
                        },
                    );
                    // An accepted probe halves the ramp stride; stride 1
                    // means the DPU is carrying full traffic again.
                    if lease.state() == LeaseState::Rejoining {
                        if let Some((stride, _)) = &mut ramp {
                            *stride /= 2;
                            if *stride <= 1 {
                                lease.complete_rejoin(epoch.elapsed().as_nanos() as u64);
                                counters.lease_state.set(lease.state().gauge_code() as i64);
                                counters.rejoins.inc();
                                ramp = None;
                                hb_seq = 0;
                                if let Some(sink) = &trace {
                                    sink.record(Span {
                                        trace_id: 0,
                                        stage: stages::REJOIN,
                                        start_ns: rejoin_started_wall,
                                        end_ns: tracer.now_ns(),
                                        bytes: 0,
                                    });
                                }
                            }
                        }
                    }
                }
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    pending = Some(out);
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    let _ = out.item.resp_tx.send((3, Vec::new()));
                    sched.complete(tenant);
                }
                Err(e) if e.is_dpu_death() => {
                    // Loud death on submit: fail over, then serve the
                    // request whose grant we hold on the host.
                    ha_failover(
                        &mut lease,
                        &counters,
                        &mut client,
                        &mut pending,
                        &mut inflight,
                        &mut sched,
                        &mut host,
                        &done_rx,
                        &trace,
                        &tracer,
                        epoch.elapsed().as_nanos() as u64,
                    );
                    ramp = None;
                    ha_serve_host(&mut host, &mut sched, &counters, out.tenant, &out.item);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        // A dead lease has no client to poll (failover dropped it): the
        // wait then parks on the hand-off channel, so host-direct service
        // is as prompt as offload; a rejoin client is seen within a bound.
        let drained = pending.is_none() && sched.queued() == 0 && inflight.is_empty();
        let live = client
            .as_mut()
            .filter(|_| lease.state() != LeaseState::Dead);
        let exit = match handoff.wait(live, drained) {
            Ok(exit) => exit,
            Err(e) if e.is_dpu_death() => {
                ha_failover(
                    &mut lease,
                    &counters,
                    &mut client,
                    &mut pending,
                    &mut inflight,
                    &mut sched,
                    &mut host,
                    &done_rx,
                    &trace,
                    &tracer,
                    epoch.elapsed().as_nanos() as u64,
                );
                ramp = None;
                false
            }
            Err(e) => return Err(e),
        };
        while let Ok((seq, tenant)) = done_rx.try_recv() {
            sched.complete(tenant);
            inflight.remove(&seq);
            completed_this_iter += 1;
        }
        // Lease maintenance: an iteration with completions (or nothing
        // outstanding) renews; a silently wedged DPU stops renewing and
        // the deadline machinery takes it to Suspect, then Dead.
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if client.is_some() && matches!(lease.state(), LeaseState::Live | LeaseState::Suspect) {
            if completed_this_iter > 0 || inflight.is_empty() {
                hb_seq += 1;
                lease.on_heartbeat(
                    Heartbeat {
                        seq: hb_seq,
                        queue_depth: sched.queued() as u32,
                        credits_in_use: inflight.len() as u32,
                    },
                    now_ns,
                );
            }
            let prev = lease.state();
            let cur = lease.poll(now_ns);
            if prev != cur {
                counters.lease_state.set(cur.gauge_code() as i64);
            }
            if cur == LeaseState::Dead {
                if let Some(sink) = &trace {
                    sink.record(Span {
                        trace_id: 0,
                        stage: stages::LEASE_WAIT,
                        start_ns: tracer
                            .now_ns()
                            .saturating_sub(now_ns - lease.last_renewal_ns()),
                        end_ns: tracer.now_ns(),
                        bytes: lease.last_heartbeat().queue_depth as u64,
                    });
                }
                ha_failover(
                    &mut lease,
                    &counters,
                    &mut client,
                    &mut pending,
                    &mut inflight,
                    &mut sched,
                    &mut host,
                    &done_rx,
                    &trace,
                    &tracer,
                    now_ns,
                );
                ramp = None;
            }
        }
        counters
            .lease_time_in_state
            .set(lease.time_in_state_ns(now_ns) as i64);
        if exit {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatServer, PayloadMode};
    use crate::service::ServiceSchema;
    use pbo_grpc::GrpcChannel;
    use pbo_metrics::Registry;
    use pbo_protowire::encode_message;
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use pbo_rpcrdma::{establish, Config};
    use pbo_simnet::Fabric;

    /// Full Figure 1 topology: xRPC client → (TCP) → DPU terminator →
    /// (RDMA) → host compat server.
    #[test]
    fn end_to_end_xrpc_through_dpu_to_host() {
        let bundle = ServiceSchema::paper_bench();
        let rdma = Fabric::new();
        let tcp = TcpFabric::new();
        let registry = Registry::new();
        let adt_bytes = bundle.adt_bytes();
        let ep = establish(
            &rdma,
            Config::test_small(),
            Config::test_small(),
            &registry,
            "e2e",
            Some(&adt_bytes),
        );
        let client =
            OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.register_empty_logic(&bundle, 1);
        server.register_empty_logic(&bundle, 2);
        server.register_empty_logic(&bundle, 3);

        // Host poller thread.
        let host_stop = Arc::new(AtomicBool::new(false));
        let hs = host_stop.clone();
        let host = std::thread::spawn(move || {
            while !hs.load(Ordering::Acquire) {
                server.event_loop(Duration::from_millis(1)).unwrap();
            }
            server
        });

        let terminator = XrpcTerminator::spawn(&tcp, "dpu:50051", client, ForwardMode::Offload);

        // Plain xRPC client pointed at the DPU's address (§III.A: only the
        // address changes).
        let schema = paper_schema();
        let wire = encode_message(&gen_small(&schema));
        let mut ch = GrpcChannel::connect(&tcp, "dpu:50051").unwrap();
        for _ in 0..25 {
            let (status, resp) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
            assert!(resp.is_empty());
        }
        assert_eq!(terminator.calls_served(), 25);

        terminator.shutdown().unwrap();
        host_stop.store(true, Ordering::Release);
        let server = host.join().unwrap();
        assert_eq!(server.snapshot().requests, 25);
    }

    /// Whole-DPU failure domain end to end: xRPC traffic flows through
    /// the offload path, the DPU dies loudly mid-run, every call keeps
    /// being answered (host-direct fallback), and a freshly established
    /// client handed through the rejoin channel restores full offload.
    #[test]
    fn ha_terminator_survives_dpu_crash_and_rejoins() {
        use pbo_sched::SchedConfig;
        use pbo_simnet::FaultKind;

        let bundle = ServiceSchema::paper_bench();
        let rdma = Fabric::new();
        let tcp = TcpFabric::new();
        let registry = Registry::new();
        let adt_bytes = bundle.adt_bytes();
        let cfg = Config::test_small();
        let ep = establish(&rdma, cfg, cfg, &registry, "ha", Some(&adt_bytes));
        let client =
            OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.register_empty_logic(&bundle, 1);

        // Host poller for the first incarnation: tolerant of the QP
        // poison the crash leaves behind.
        let host1_stop = Arc::new(AtomicBool::new(false));
        let hs = host1_stop.clone();
        let host1 = std::thread::spawn(move || {
            while !hs.load(Ordering::Acquire) {
                if server.event_loop(Duration::from_millis(1)).is_err() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });

        // Host-direct fallback running the same (empty) business logic.
        let mut host = HostDirect::new();
        host.register(&bundle, 1, Arc::new(|_view, _out| 0));

        let sched: TenantScheduler<ForwardRequest> = TenantScheduler::new(SchedConfig {
            credit_window: cfg.credits,
            inflight_per_credit: 4,
            ..SchedConfig::default()
        });
        let (rejoin_tx, rejoin_rx) = unbounded::<OffloadClient>();
        let ha = HaConfig {
            lease: pbo_rpcrdma::LeaseConfig {
                interval: Duration::from_millis(2),
                miss_threshold: 2,
            },
            rejoin_probe_stride: 4,
        };
        let terminator = XrpcTerminator::spawn_ha(
            &tcp,
            "dpu:50052",
            client,
            ForwardMode::Offload,
            sched,
            host,
            rejoin_rx,
            ha,
            &registry,
            &Tracer::disabled(),
            "ha",
        );

        let schema = paper_schema();
        let wire = encode_message(&gen_small(&schema));
        let mut ch = GrpcChannel::connect(&tcp, "dpu:50052").unwrap();
        let labels = [("conn", "ha")];

        // Healthy offload phase.
        for _ in 0..10 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }
        assert_eq!(
            registry.counter_value("terminator_failovers_total", &labels),
            Some(0)
        );

        // Kill the DPU: the next send-side fabric op dies loudly. Every
        // call must still be answered, now by the host fallback.
        rdma.faults().fail_nth(0, FaultKind::DpuCrash);
        for _ in 0..30 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }
        assert_eq!(
            registry.counter_value("terminator_failovers_total", &labels),
            Some(1)
        );
        assert!(
            registry
                .counter_value("terminator_host_served_total", &labels)
                .unwrap()
                > 0
        );

        // Restarted DPU: a fresh establishment re-ships the ADT and
        // re-verifies digests; the rejoin channel hands it over and the
        // probe ramp restores full offload.
        let ep2 = establish(&rdma, cfg, cfg, &registry, "ha2", Some(&adt_bytes));
        let client2 =
            OffloadClient::new(ep2.client, bundle.clone(), ep2.control_blob.as_deref()).unwrap();
        let mut server2 = CompatServer::new(ep2.server, PayloadMode::Native);
        server2.register_empty_logic(&bundle, 1);
        let host2_stop = Arc::new(AtomicBool::new(false));
        let hs2 = host2_stop.clone();
        let host2 = std::thread::spawn(move || {
            while !hs2.load(Ordering::Acquire) {
                server2.event_loop(Duration::from_millis(1)).unwrap();
            }
            server2
        });
        rejoin_tx.send(client2).unwrap();

        let mut rejoined_after = 0;
        for i in 0..400 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
            if registry.counter_value("terminator_rejoins_total", &labels) == Some(1) {
                rejoined_after = i;
                break;
            }
        }
        assert_eq!(
            registry.counter_value("terminator_rejoins_total", &labels),
            Some(1),
            "rejoin never completed"
        );
        // Post-rejoin traffic rides the offload path again.
        for _ in 0..10 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }
        assert_eq!(
            registry.gauge_value("terminator_lease_state", &labels),
            Some(0),
            "lease should be Live after rejoin (probed after {rejoined_after} calls)"
        );

        terminator.shutdown().unwrap();
        host1_stop.store(true, Ordering::Release);
        host1.join().unwrap();
        host2_stop.store(true, Ordering::Release);
        let server2 = host2.join().unwrap();
        assert!(
            server2.snapshot().requests > 0,
            "second incarnation served offloaded requests"
        );
    }

    #[test]
    fn malformed_xrpc_request_gets_error_status_not_poison() {
        let bundle = ServiceSchema::paper_bench();
        let rdma = Fabric::new();
        let tcp = TcpFabric::new();
        let registry = Registry::new();
        let ep = establish(
            &rdma,
            Config::test_small(),
            Config::test_small(),
            &registry,
            "bad",
            None,
        );
        let client = OffloadClient::new(ep.client, bundle.clone(), None).unwrap();
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.register_empty_logic(&bundle, 3);
        let host_stop = Arc::new(AtomicBool::new(false));
        let hs = host_stop.clone();
        let host = std::thread::spawn(move || {
            while !hs.load(Ordering::Acquire) {
                server.event_loop(Duration::from_millis(1)).unwrap();
            }
        });
        let terminator = XrpcTerminator::spawn(&tcp, "dpu:1", client, ForwardMode::Offload);
        let mut ch = GrpcChannel::connect(&tcp, "dpu:1").unwrap();
        // Invalid UTF-8 string for CharArray (method 3): rejected on the
        // DPU during deserialization.
        let (status, _) = ch.call_raw(3, &[0x0a, 0x02, 0xC0, 0xAF]).unwrap();
        assert_eq!(status, 3);
        // The connection still serves good requests afterwards.
        let schema = paper_schema();
        let mut rng = pbo_protowire::workloads::Mt19937::new(2);
        let good = encode_message(&pbo_protowire::workloads::gen_char_array(
            &schema, &mut rng, 100,
        ));
        let (status, _) = ch.call_raw(3, &good).unwrap();
        assert_eq!(status, 0);
        terminator.shutdown().unwrap();
        host_stop.store(true, Ordering::Release);
        host.join().unwrap();
    }
}
