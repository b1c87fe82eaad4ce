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
//!
//! There is one poll loop (`Poller`). What it does beyond moving
//! requests into the RDMA client is decided by the optional layers of a
//! [`Layers`] value, and an absent layer costs nothing: no scheduler
//! means a plain FIFO backlog, neither scheduler nor failure domain means
//! no completion channel, no failure domain means no journal. Routing
//! between the layers follows [`crate::precedence`].

use crate::compat::{
    routed_metadata, HostDirect, MODE_NATIVE, MODE_SERIALIZED, STATUS_QUARANTINED,
    STATUS_UNAUTHENTICATED, STATUS_UNAVAILABLE,
};
use crate::failover::{FailureDomain, MetricNames};
use crate::offload::OffloadClient;
use crate::precedence::{self, Authority, ReplyStore, Verdict};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use pbo_cache::ResponseCache;
use pbo_grpc::{spawn_server, ServerHandle, ServiceRegistry};
use pbo_metrics::Registry;
use pbo_policy::{PolicyEngine, Route};
use pbo_rpcrdma::client::Continuation;
use pbo_rpcrdma::{LeaseConfig, LeaseState, RpcError};
use pbo_sched::{TenantScheduler, STATUS_SHED};
use pbo_simnet::{QpError, TcpFabric};
use pbo_trace::{stages, Span, SpanSink, Tracer};
use std::collections::VecDeque;
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
    /// Route label for tail-latency attribution: the
    /// [`pbo_policy::Route::name`] of the route this mode fixes, so
    /// fixed-mode and adaptive runs aggregate under the same vocabulary.
    pub fn route_label(self) -> &'static str {
        match self {
            ForwardMode::Offload => Route::Dpu.name(),
            ForwardMode::Forward => Route::Host.name(),
        }
    }
}

/// Static class label for a procedure id, used when no policy engine (and
/// therefore no registered class name) is installed, so attribution still
/// gets a bounded class dimension without a per-request allocation on the
/// dispatch path.
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
/// channel. One handler per service method. With an enabled `tracer` each
/// forwarded request is stamped with the receive time so the poller can
/// emit a `terminate` span (xRPC frame in → handed to the RDMA datapath).
pub fn forwarding_registry(
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
                    return STATUS_UNAUTHENTICATED; // decided on the DPU
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
                    return STATUS_UNAVAILABLE; // poller gone
                }
                match resp_rx.recv() {
                    Ok((status, bytes)) => {
                        out.extend_from_slice(&bytes);
                        status
                    }
                    Err(_) => STATUS_UNAVAILABLE,
                }
            }),
        );
    }
    registry
}

/// Failure-domain knobs of [`HaLayer`].
#[derive(Clone, Debug)]
pub struct HaConfig {
    /// Liveness lease on the DPU datapath: renewed every iteration that
    /// makes progress, Suspect past one interval, Dead past
    /// `interval × miss_threshold`.
    pub lease: LeaseConfig,
    /// During rejoin, every Nth request probes the DPU path (stride
    /// halves per accepted probe; `<= 1` completes the rejoin).
    pub rejoin_probe_stride: u32,
}

/// The whole-DPU failure domain as a terminator layer (DESIGN.md §13):
/// the poller runs the shared failure-domain engine (`failover.rs`) over
/// the requests it has in flight. A loud death (a transport error
/// classified as a device death) or a silent wedge (the engine's deadline
/// rules) fails over to `host`: in-flight requests are replayed there in
/// submission order, held and queued scheduler grants drain into it with
/// per-tenant accounting preserved, and later requests are served
/// host-direct, so the xRPC listener never goes dark.
pub struct HaLayer {
    /// The host-only datapath: the compat server's business logic without
    /// the fabric.
    pub host: HostDirect,
    /// Warm rejoin: a restarted DPU's freshly established client (ADT
    /// re-shipped, digests re-verified) arrives here; the poller wires it
    /// up and ramps offload back.
    pub rejoin_rx: Receiver<OffloadClient>,
    /// Lease and ramp knobs.
    pub config: HaConfig,
    /// Where the `terminator_*` recovery counters, lease gauges and
    /// failover-latency / MTTR histograms are registered, labeled
    /// `conn={conn_label}`.
    pub registry: Arc<Registry>,
}

/// What one terminator is composed of (DESIGN.md §13, "Terminator
/// composition"). `mode` and the tracing pair are always present; every
/// other layer is optional and independent of the rest, so any subset
/// runs on one poller.
pub struct Layers {
    /// The connection's configured route.
    pub mode: ForwardMode,
    /// Per-tenant admission control (shed requests answer [`STATUS_SHED`])
    /// and credit-gated WDRR dispatch, in place of the FIFO backlog.
    pub sched: Option<TenantScheduler<ForwardRequest>>,
    /// Per-class choice between DPU- and host-deserialization, fed by the
    /// work-unit counts of DPU-side deserializations. The route's mode
    /// byte leads the forwarded metadata ([`routed_metadata`]): register
    /// host handlers with [`crate::CompatServer::register_degradable`].
    pub policy: Option<PolicyEngine>,
    /// Declared-cacheable classes are answered at intake (a hit still
    /// pays one cost-1 admission token); native status-0 replies populate
    /// it; the host's `CACHE_INVALIDATE` records are applied first.
    pub cache: Option<ResponseCache>,
    /// DPU failure domain.
    pub ha: Option<HaLayer>,
    /// Span source; disabled = no tracing.
    pub tracer: Tracer,
    /// Connection label: spans land on the `{conn_label}/client` track
    /// (use the label the host side traces under), metrics carry it as
    /// `conn`.
    pub conn_label: String,
}

impl Layers {
    /// The bare terminator: fixed `mode`, FIFO backlog, no tracing.
    pub fn new(mode: ForwardMode) -> Self {
        Self {
            mode,
            sched: None,
            policy: None,
            cache: None,
            ha: None,
            tracer: Tracer::disabled(),
            conn_label: String::new(),
        }
    }
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
    /// thread that owns `client`, composed of `layers`. Wires the layers
    /// to the client first: the tracer (the client's and the policy's
    /// spans under `conn_label`) and the scheduler's fabric-window
    /// observer, so credit borrowing tracks real block-credit consumption.
    pub fn spawn(
        fabric: &TcpFabric,
        addr: &str,
        mut client: OffloadClient,
        mut layers: Layers,
    ) -> Self {
        client.wire(&layers.tracer, &layers.conn_label, layers.sched.as_ref());
        if let Some(policy) = &mut layers.policy {
            policy.set_tracer(&layers.tracer, &layers.conn_label);
        }
        let (tx, rx) = bounded::<ForwardRequest>(HANDOFF_DEPTH);
        let registry = forwarding_registry(client.bundle(), tx, &layers.tracer);
        let grpc = spawn_server(fabric.bind(addr), registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let poller = std::thread::spawn(move || run_poller(client, rx, stop2, layers));
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
        let poller = self.poller.take().expect("joined only here and in drop");
        poller.join().expect("poller panicked")
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

/// Depth of the hand-off channel between the xRPC connection threads and
/// the poller; a full channel blocks the connection threads.
const HANDOFF_DEPTH: usize = 4096;

/// Most requests one intake pass queues ahead of dispatch ("the user is
/// responsible for queueing enough requests to fill a block before
/// calling the event loop", §IV) before the loop goes back to submitting.
const INTAKE_CAP: usize = 512;

/// The poll loop on the caller's thread, for harnesses that own the
/// hand-off channel: drains `rx` through `layers` into `client` until
/// `stop` is set and everything has drained. Unlike
/// [`XrpcTerminator::spawn`] it leaves `client`'s own wiring (tracer,
/// credit observer) to the caller.
pub fn run_poller(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    stop: Arc<AtomicBool>,
    layers: Layers,
) -> Result<(), RpcError> {
    let trace = layers
        .tracer
        .is_enabled()
        .then(|| layers.tracer.sink(&format!("{}/client", layers.conn_label)));
    Poller::new(client, rx, stop, layers, trace).run()
}

/// [`run_poller`] with nothing but the offload client: retries on
/// backpressure (credits / send-buffer) and drives the event loop.
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
/// enqueue into the outgoing block) is recorded there.
pub fn poller_loop_traced(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
) -> Result<(), RpcError> {
    Poller::new(client, rx, stop, Layers::new(mode), trace).run()
}

/// [`poller_loop_traced`] with a tenant scheduler and the DPU response
/// cache (see [`Layers`]); `tracer` is the clock of the spans on `trace`.
#[allow(clippy::too_many_arguments)]
pub fn poller_loop_cached(
    client: OffloadClient,
    rx: Receiver<ForwardRequest>,
    mode: ForwardMode,
    stop: Arc<AtomicBool>,
    trace: Option<SpanSink>,
    sched: TenantScheduler<ForwardRequest>,
    cache: ResponseCache,
    tracer: Tracer,
) -> Result<(), RpcError> {
    let layers = Layers {
        sched: Some(sched),
        cache: Some(cache),
        tracer,
        ..Layers::new(mode)
    };
    Poller::new(client, rx, stop, layers, trace).run()
}

/// A request off the queue: the scheduler grant it holds (a tenant index;
/// unused on the FIFO backlog), how long it queued, and its route —
/// decided **once**, so a backpressure retry reuses it and
/// `policy_route_total{class,route}` and the rejoin ramp count requests,
/// not attempts.
struct Granted {
    req: ForwardRequest,
    tenant: usize,
    wait_ns: u64,
    verdict: Verdict,
}

/// A completion notice from a response continuation back to the loop:
/// `(submission sequence, tenant grant)`.
type Done = (u64, usize);

/// The one poll loop. Each iteration: rejoin intake → drain control
/// records → intake (cache lookup, admission) → return grants → route →
/// submit → lease upkeep → [`Poller::wait`].
struct Poller {
    /// `None` only between an HA failover and the next rejoin.
    client: Option<OffloadClient>,
    /// The xRPC hand-off: the request channel and the stop flag.
    rx: Receiver<ForwardRequest>,
    stop: Arc<AtomicBool>,
    /// The request a blocking receive woke the poller with: first in the
    /// next intake, so it is classified by the same code as one found
    /// without blocking.
    woken: Option<ForwardRequest>,
    mode: ForwardMode,
    /// The queue when there is no scheduler.
    backlog: VecDeque<ForwardRequest>,
    sched: Option<TenantScheduler<ForwardRequest>>,
    policy: Option<PolicyEngine>,
    cache: Option<ResponseCache>,
    /// The HA layer and the failure-domain engine over what this loop has
    /// in flight on the DPU datapath.
    ha: Option<(HaLayer, FailureDomain<Granted>)>,
    trace: Option<SpanSink>,
    tracer: Tracer,
    conn_label: String,
    epoch: Instant,
    /// Present when something must hear about completions: scheduler
    /// grants to return, journal entries to retire.
    done: Option<(Sender<Done>, Receiver<Done>)>,
    /// A request the RDMA client pushed back on (credits / send buffer):
    /// grant and route already held, it retries ahead of everything else.
    pending: Option<Granted>,
    next_seq: u64,
    /// Trace-id source for hit-path spans (hits never reach the wire, so
    /// there is no protocol trace context to borrow); tagged with bit 48,
    /// disjoint from protocol-derived ids (FNV over the connection label).
    synthetic: u64,
}

impl Poller {
    fn new(
        client: OffloadClient,
        rx: Receiver<ForwardRequest>,
        stop: Arc<AtomicBool>,
        layers: Layers,
        trace: Option<SpanSink>,
    ) -> Self {
        let ha = layers.ha.map(|layer| {
            let (lease, stride) = (layer.config.lease, layer.config.rejoin_probe_stride);
            let names = MetricNames::TERMINATOR;
            let fd =
                FailureDomain::new(lease, stride, 0, &layer.registry, names, &layers.conn_label);
            (layer, fd)
        });
        Self {
            client: Some(client),
            rx,
            stop,
            woken: None,
            mode: layers.mode,
            backlog: VecDeque::new(),
            done: (layers.sched.is_some() || ha.is_some()).then(unbounded),
            sched: layers.sched,
            policy: layers.policy,
            cache: layers.cache,
            ha,
            trace,
            tracer: layers.tracer,
            conn_label: layers.conn_label,
            epoch: Instant::now(),
            pending: None,
            next_seq: 0,
            synthetic: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Under the HA layer a device death, whichever end of the connection
    /// saw it: the crash fires on the next post of either side and poisons
    /// the queue pair, so when the host posted first this side reads
    /// `Disconnected`. The poller cannot reconnect, but it can fail over
    /// and wait for a rejoin client. Every other error still ends the loop.
    fn fails_over(&self, e: &RpcError) -> bool {
        let peer_gone = matches!(e, RpcError::Transport(QpError::Disconnected));
        self.ha.is_some() && (e.is_dpu_death() || peer_gone)
    }

    /// Requests waiting for dispatch.
    fn queued(&self) -> usize {
        match &self.sched {
            Some(sched) => sched.queued(),
            None => self.backlog.len(),
        }
    }

    fn lease_state(&self) -> LeaseState {
        self.ha
            .as_ref()
            .map_or(LeaseState::Live, |(_, fd)| fd.state())
    }

    fn run(mut self) -> Result<(), RpcError> {
        // The bare loop never looks at the clock (`done`: scheduler or HA).
        let timed = self.done.is_some() || self.policy.is_some() || self.cache.is_some();
        loop {
            let now_ns = if timed { self.now_ns() } else { 0 };
            self.rejoin_intake(now_ns);
            if let Some(policy) = &mut self.policy {
                // Throttled by the policy's own `signal_refresh_ns`.
                policy.refresh_signals(now_ns);
            }
            self.intake(now_ns);
            let completed = self.return_grants();
            self.dispatch()?;
            self.lease_upkeep(completed);
            if self.wait()? {
                // Quiescent: every grant handed out has come back.
                self.return_grants();
                let held = self.sched.as_ref().map(|s| s.partition().total_in_use());
                debug_assert!(held.is_none_or(|n| n == 0), "poller exits holding grants");
                return Ok(());
            }
        }
    }

    /// A restarted DPU rejoining: wires the fresh client to this
    /// connection's tracer and credit window (the sub-pools re-sync
    /// against the reset fabric window) and starts the ramp.
    fn rejoin_intake(&mut self, now_ns: u64) {
        let Some((layer, fd)) = &mut self.ha else {
            return;
        };
        if fd.state() != LeaseState::Dead {
            return;
        }
        let Ok(mut fresh) = layer.rejoin_rx.try_recv() else {
            return;
        };
        fresh.wire(&self.tracer, &self.conn_label, self.sched.as_ref());
        self.client = Some(fresh);
        fd.begin_rejoin(now_ns);
    }

    /// Classifies what the xRPC side has forwarded: cache hits are
    /// answered inline, everything else is queued — or shed with the
    /// retryable [`STATUS_SHED`]; the datapath never sees a shed request.
    fn intake(&mut self, now_ns: u64) {
        let lookup = precedence::may_lookup(self.lease_state(), false);
        if let (Some(cache), Some(client)) = (&self.cache, &mut self.client) {
            // Host-driven invalidations land before new lookups, so a
            // class invalidated by the previous event-loop pass cannot hit.
            for class in client.rpc().take_cache_invalidations() {
                cache.invalidate_class(class);
            }
        }
        for req in self.woken.take().into_iter().chain(self.rx.try_iter()) {
            if let Some(cache) = self.cache.as_ref().filter(|_| lookup) {
                // For a traced request, stamp where the lookup starts:
                // that is where `terminate` ends and `cache_hit` begins.
                let traced = self.trace.as_ref().filter(|_| req.recv_ns != 0);
                let lookup_ns = traced.map_or(0, |_| self.tracer.now_ns());
                if let Some((status, payload)) =
                    cache.lookup(&req.tenant, req.proc_id, &req.wire, now_ns)
                {
                    // The front-door rate limit still applies: a hit is
                    // nearly free, so it costs one token, not its size.
                    if let Some(sched) = &mut self.sched {
                        if sched.admit(&req.tenant, 1, now_ns).is_err() {
                            let _ = req.resp_tx.send((STATUS_SHED, Vec::new()));
                            continue;
                        }
                    }
                    let _ = req.resp_tx.send((status, payload));
                    if let Some(policy) = &mut self.policy {
                        policy.note_cached(req.proc_id, now_ns);
                    }
                    if let Some(sink) = traced {
                        self.synthetic += 1;
                        record_terminate(
                            sink,
                            (1u64 << 48) | self.synthetic,
                            &req,
                            lookup_ns,
                            Some((stages::CACHE_HIT, lookup_ns, self.tracer.now_ns())),
                            proc_class(req.proc_id),
                            Route::Cached.name(),
                        );
                    }
                    continue;
                }
            }
            match &mut self.sched {
                Some(sched) => {
                    let tenant = req.tenant.clone();
                    let cost = req.wire.len() as u32;
                    if let Err((req, _reason)) = sched.offer(&tenant, req, cost, now_ns) {
                        let _ = req.resp_tx.send((STATUS_SHED, Vec::new()));
                    }
                }
                None => self.backlog.push_back(req),
            }
            if self.queued() >= INTAKE_CAP {
                break;
            }
        }
    }

    /// Returns completed grants before asking for new dispatches and
    /// retires their journal entries; returns how many completed.
    fn return_grants(&mut self) -> u64 {
        let mut completed = 0;
        for (seq, tenant) in self.done.iter().flat_map(|(_, rx)| rx.try_iter()) {
            if let Some(sched) = &mut self.sched {
                sched.complete(tenant);
            }
            if let Some((_, fd)) = &mut self.ha {
                fd.retire(seq);
            }
            completed += 1;
        }
        completed
    }

    /// The held request first, then WDRR order among credit-eligible
    /// tenants (FIFO without a scheduler), routed as it leaves the queue
    /// (the terminator has no breaker: that authority is never asked).
    fn take_next(&mut self) -> Option<Granted> {
        if let Some(held) = self.pending.take() {
            return Some(held);
        }
        let (req, tenant, wait_ns) = match &mut self.sched {
            Some(sched) => {
                let out = sched.next(self.epoch.elapsed().as_nanos() as u64)?;
                (out.item, out.tenant, out.wait_ns)
            }
            None => (self.backlog.pop_front()?, 0, 0),
        };
        let lease = self.lease_state();
        let (policy, epoch) = (&mut self.policy, self.epoch);
        let fd = self.ha.as_mut().map(|(_, fd)| fd);
        let ramp_probe = || fd.is_some_and(FailureDomain::ramp_probe);
        let policy = || {
            let policy = policy.as_mut()?;
            let now_ns = epoch.elapsed().as_nanos() as u64;
            Some(policy.route(req.proc_id, now_ns).route)
        };
        let verdict = precedence::route(lease, false, self.mode, ramp_probe, || true, policy);
        Some(Granted {
            req,
            tenant,
            wait_ns,
            verdict,
        })
    }

    /// Moves as much of the queue into the datapath as backpressure
    /// allows.
    fn dispatch(&mut self) -> Result<(), RpcError> {
        while let Some(g) = self.take_next() {
            let Some(fabric) = g.verdict.fabric else {
                self.serve_host(&g);
                continue;
            };
            match self.submit(&g, fabric) {
                Ok(()) => self.submitted(g, fabric),
                Err(RpcError::NoCredits)
                | Err(RpcError::SendBufferFull)
                | Err(RpcError::TooManyOutstanding) => {
                    self.pending = Some(g);
                    break;
                }
                Err(RpcError::Quarantined(_))
                | Err(RpcError::PayloadWriter(_))
                | Err(RpcError::NoSuchProcedure(_)) => {
                    // Poison or unserviceable request: answer the xRPC
                    // client with an error status instead of killing the
                    // poller.
                    let _ = g.req.resp_tx.send((STATUS_QUARANTINED, Vec::new()));
                    if let Some(sched) = &mut self.sched {
                        sched.complete(g.tenant);
                    }
                }
                Err(e) if self.fails_over(&e) => {
                    // Loud death on submit: fail over, then serve the
                    // request whose grant we hold on the host.
                    self.failover();
                    self.serve_host(&g);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Hands one request to the RDMA client. The continuation answers the
    /// xRPC slot and, for the layers that need it, stores the reply and
    /// reports the completion.
    fn submit(&mut self, g: &Granted, fabric: ForwardMode) -> Result<(), RpcError> {
        let client = self
            .client
            .as_mut()
            .expect("a lease that is not Dead has a client");
        let req = &g.req;
        let resp_tx = req.resp_tx.clone();
        let done = self
            .done
            .as_ref()
            .map(|(tx, _)| (tx.clone(), self.next_seq, g.tenant));
        let store = self.cache.as_ref().filter(|_| g.verdict.may_store());
        let store = store
            .and_then(|cache| ReplyStore::arm(cache, &req.tenant, req.proc_id, &req.wire))
            .map(|store| {
                let trace = self.trace.clone().map(|sink| (self.tracer.clone(), sink));
                store.traced(trace, (1u64 << 49) | self.next_seq)
            });
        let epoch = self.epoch;
        let cont: Continuation = match (done, store) {
            // No layer needs to hear about the reply: the bare
            // continuation, kept small — one is boxed per request.
            (None, None) => Box::new(move |payload, status| {
                let _ = resp_tx.send((status, payload.to_vec()));
            }),
            (done, store) => Box::new(move |payload, status| {
                if let Some(store) = &store {
                    store.on_reply(status, payload, epoch.elapsed().as_nanos() as u64);
                }
                let _ = resp_tx.send((status, payload.to_vec()));
                if let Some((done_tx, seq, tenant)) = &done {
                    let _ = done_tx.send((*seq, *tenant));
                }
            }),
        };
        // Per-request routing needs the host to dispatch per request: the
        // route's mode byte leads the forwarded metadata.
        let routed = self.policy.as_ref().map(|_| match fabric {
            ForwardMode::Offload => routed_metadata(MODE_NATIVE, &req.metadata),
            ForwardMode::Forward => routed_metadata(MODE_SERIALIZED, &req.metadata),
        });
        let metadata = routed.as_deref().unwrap_or(&req.metadata);
        match fabric {
            ForwardMode::Offload => {
                client.call_offloaded_md(req.proc_id, &req.wire, metadata, cont)
            }
            ForwardMode::Forward => {
                client.call_forwarded_md(req.proc_id, &req.wire, metadata, cont)
            }
        }
    }

    /// Bookkeeping for a request the RDMA client accepted: policy
    /// feedback, spans, journal, rejoin ramp.
    fn submitted(&mut self, g: Granted, fabric: ForwardMode) {
        let client = self.client.as_mut().expect("submit just used it");
        let req = &g.req;
        if let (Some(policy), ForwardMode::Offload) = (&mut self.policy, fabric) {
            // Feed the real work-unit counts of this DPU-side
            // deserialization back into the cost estimates (one
            // observation refreshes both routes' estimates).
            if let Some((stats, used)) = client.take_deser_outcome() {
                let now_ns = self.epoch.elapsed().as_nanos() as u64;
                policy.observe_stats(req.proc_id, &stats, req.wire.len() as u64, used, now_ns);
            }
        }
        if let (Some(sink), true) = (&self.trace, req.recv_ns != 0) {
            if let Some(ctx) = client.rpc().last_trace_ctx() {
                // Termination span: frame received on the xRPC side →
                // committed into the outgoing block (exactly where the
                // block_build span picks up); with a scheduler, the
                // queueing delay inside it as well.
                let sched_wait = self.sched.as_ref().map(|_| {
                    let start_ns = ctx.begin_ns.saturating_sub(g.wait_ns);
                    (stages::SCHED_WAIT, start_ns, ctx.begin_ns)
                });
                let class = match &self.policy {
                    Some(p) => p.class_label(req.proc_id).unwrap_or("__unregistered"),
                    None => proc_class(req.proc_id),
                };
                let route = fabric.route_label();
                record_terminate(
                    sink,
                    ctx.trace_id,
                    req,
                    ctx.begin_ns,
                    sched_wait,
                    class,
                    route,
                );
            }
        }
        self.next_seq += 1;
        let Some((_, fd)) = &mut self.ha else { return };
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let probe = g.verdict.by == Authority::Ramp;
        fd.record(self.next_seq - 1, now_ns, g);
        // An accepted probe halves the ramp stride; the last one means the
        // DPU is carrying full traffic again.
        if let Some(took_ns) = probe.then(|| fd.probe_accepted(now_ns)).flatten() {
            let began_ns = self.tracer.now_ns().saturating_sub(took_ns);
            self.event_span(stages::REJOIN, began_ns, 0);
        }
    }

    /// Serves one request on the host-direct path and returns its
    /// scheduler grant. Poison and unknown procedures answer
    /// [`STATUS_QUARANTINED`], same as the DPU path.
    fn serve_host(&mut self, g: &Granted) {
        let (layer, fd) = self
            .ha
            .as_mut()
            .expect("host-direct routes exist only under the HA layer");
        let mut out = Vec::new();
        let status = layer
            .host
            .dispatch(g.req.proc_id, &g.req.wire, &mut out)
            .unwrap_or(STATUS_QUARANTINED);
        let _ = g.req.resp_tx.send((status, out));
        if let Some(sched) = &mut self.sched {
            sched.complete(g.tenant);
        }
        fd.host_served(self.epoch.elapsed().as_nanos() as u64);
    }

    /// The whole-DPU failover, this loop's share of it (the engine counts
    /// the death and hands back what was in flight): the cache is flushed,
    /// the dead client dropped (its continuations die unfired, so each
    /// replayed request answers its xRPC slot exactly once), the fabric
    /// credit window invalidated, and the held request plus every
    /// in-flight one drained into the host path in order.
    fn failover(&mut self) {
        // Anything that completed before the death already returned its
        // grant and left the journal: collect those first so they are not
        // replayed.
        self.return_grants();
        let now_ns = self.now_ns();
        let wall_start = self.tracer.now_ns();
        let (_, fd) = self.ha.as_mut().expect("failover needs the HA layer");
        let Some(in_flight) = fd.declare_dead(now_ns) else {
            return;
        };
        precedence::flush_on_fault(self.cache.as_ref());
        self.client = None;
        if let Some(sched) = &self.sched {
            // The credit window tracked blocks the dead DPU will never ack.
            sched.fabric().reset();
        }
        let held = self.pending.take();
        for g in held.iter().chain(in_flight.iter().map(|(_, g)| g)) {
            self.serve_host(g);
        }
        self.event_span(stages::FAILOVER, wall_start, in_flight.len() as u64);
    }

    /// Lease maintenance: an iteration with completions (or nothing
    /// outstanding) renews the lease; the engine's deadline rules turn a
    /// silently wedged DPU — mid-ramp included — into a failover that
    /// replays what was in flight.
    fn lease_upkeep(&mut self, completed: u64) {
        let Some((_, fd)) = &mut self.ha else { return };
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        if completed > 0 || fd.in_flight() == 0 {
            fd.renew(now_ns, self.sched.as_ref().map_or(0, |s| s.queued()) as u32);
        }
        if let Some(silent_ns) = fd.poll(now_ns) {
            // Detection latency: last sign of life → declaration.
            let depth = fd.lease().last_heartbeat().queue_depth as u64;
            let since = self.tracer.now_ns().saturating_sub(silent_ns);
            self.event_span(stages::LEASE_WAIT, since, depth);
            self.failover();
        }
    }

    /// Records a connection-level event (trace id 0) from `start_ns` to now.
    fn event_span(&self, stage: &'static str, start_ns: u64, bytes: u64) {
        if let Some(sink) = &self.trace {
            sink.record(Span {
                trace_id: 0,
                stage,
                start_ns,
                end_ns: self.tracer.now_ns(),
                bytes,
            });
        }
    }

    /// The poller's one blocking point: sleeps where the next event will
    /// come from (the `poll()` sleep of §III.C). When the loop holds no
    /// backlog, queued request or grant of its own and the RDMA side is
    /// quiescent — or there is no client at all, after a failover — no
    /// completion can be next, so this parks on the hand-off channel (host-
    /// direct service is as prompt as offload); otherwise it waits on the
    /// completion queue. After parking it still runs a zero-timeout event-
    /// loop pass, so whatever reached the completion queue meanwhile (a
    /// `CACHE_INVALIDATE`, say) is applied before the woken request is
    /// classified. Returns `true` when the poller should exit: stopped,
    /// and nothing left anywhere.
    fn wait(&mut self) -> Result<bool, RpcError> {
        let drained = self.pending.is_none()
            && self.queued() == 0
            && self.ha.as_ref().is_none_or(|(_, fd)| fd.in_flight() == 0);
        let client = &mut self.client;
        let park = client
            .as_mut()
            .is_none_or(|c| drained && c.rpc().is_quiescent());
        let mut cq_wait = IDLE_WAIT_BOUND;
        if park {
            let woken = self.rx.recv_timeout(IDLE_WAIT_BOUND);
            // With every sender gone the receive returns at once: wait out
            // the bound below instead of spinning.
            if !matches!(woken, Err(RecvTimeoutError::Disconnected)) {
                cq_wait = Duration::ZERO;
            }
            self.woken = woken.ok();
        }
        match client.as_mut().map(|c| c.event_loop(cq_wait)) {
            Some(Err(e)) if self.fails_over(&e) => {
                self.failover();
                return Ok(false);
            }
            Some(polled) => drop(polled?),
            // No completion queue either (dead lease), and with the
            // channel disconnected no request can come: sit out the bound.
            None => std::thread::park_timeout(cq_wait),
        }
        let idle = |c: &mut OffloadClient| c.rpc().outstanding() == 0;
        Ok(drained
            && self.woken.is_none()
            && self.stop.load(Ordering::Acquire)
            && self.client.as_mut().is_none_or(idle)
            && self.rx.is_empty())
    }
}

/// Records what a traced request gets at the terminator: `terminate`
/// (xRPC receive → `end_ns`), the stage that came with it (`also`:
/// `sched_wait` before a submit, `cache_hit` on a hit) and its labels.
fn record_terminate(
    sink: &SpanSink,
    trace_id: u64,
    req: &ForwardRequest,
    end_ns: u64,
    also: Option<(&'static str, u64, u64)>,
    class: &str,
    route: &str,
) {
    let bytes = req.wire.len() as u64;
    if let Some((stage, start_ns, end_ns)) = also {
        sink.record(Span {
            trace_id,
            stage,
            start_ns,
            end_ns,
            bytes,
        });
    }
    sink.record(Span {
        trace_id,
        stage: stages::TERMINATE,
        start_ns: req.recv_ns,
        end_ns,
        bytes,
    });
    sink.annotate(trace_id, Some(&req.tenant), Some(class), Some(route));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatServer, PayloadMode};
    use crate::service::ServiceSchema;
    use pbo_grpc::GrpcChannel;
    use pbo_protowire::encode_message;
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use pbo_rpcrdma::{establish, Config};
    use pbo_sched::SchedConfig;
    use pbo_simnet::{Fabric, FaultKind};

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

        let layers = Layers::new(ForwardMode::Offload);
        let terminator = XrpcTerminator::spawn(&tcp, "dpu:50051", client, layers);

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

    /// One DPU incarnation for the HA tests: an offload client plus its
    /// host-side server (procedure 1, empty logic), not yet polled.
    fn incarnation(
        rdma: &Fabric,
        registry: &Registry,
        label: &str,
    ) -> (OffloadClient, CompatServer) {
        let bundle = ServiceSchema::paper_bench();
        let cfg = Config::test_small();
        let ep = establish(rdma, cfg, cfg, registry, label, Some(&bundle.adt_bytes()));
        let client =
            OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref()).unwrap();
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.register_empty_logic(&bundle, 1);
        (client, server)
    }

    /// Polls `server` until told to stop. `crashes` marks the incarnation
    /// a test kills: only that one may see event-loop errors (the QP
    /// poison a DPU crash leaves behind); a healthy one must see none.
    fn host_thread(
        mut server: CompatServer,
        crashes: bool,
    ) -> (Arc<AtomicBool>, std::thread::JoinHandle<CompatServer>) {
        let stop = Arc::new(AtomicBool::new(false));
        let hs = stop.clone();
        let host = std::thread::spawn(move || {
            while !hs.load(Ordering::Acquire) {
                match server.event_loop(Duration::from_millis(1)) {
                    Err(_) if crashes => std::thread::sleep(Duration::from_millis(1)),
                    polled => drop(polled.unwrap()),
                }
            }
            server
        });
        (stop, host)
    }

    /// A scheduled HA terminator at `addr` (2 ms × 2 lease, ramp stride 4,
    /// metrics under `conn="ha"`) over `client`, and the sender that hands
    /// it a restarted DPU's client.
    fn ha_terminator(
        tcp: &TcpFabric,
        addr: &str,
        client: OffloadClient,
        registry: &Arc<Registry>,
    ) -> (XrpcTerminator, Sender<OffloadClient>) {
        // Host-direct fallback running the same (empty) business logic.
        let mut host = HostDirect::new();
        host.register(&ServiceSchema::paper_bench(), 1, Arc::new(|_view, _out| 0));
        let (rejoin_tx, rejoin_rx) = unbounded::<OffloadClient>();
        let layers = Layers {
            sched: Some(TenantScheduler::new(SchedConfig {
                credit_window: Config::test_small().credits,
                inflight_per_credit: 4,
                ..SchedConfig::default()
            })),
            ha: Some(HaLayer {
                host,
                rejoin_rx,
                config: HaConfig {
                    lease: LeaseConfig {
                        interval: Duration::from_millis(2),
                        miss_threshold: 2,
                    },
                    rejoin_probe_stride: 4,
                },
                registry: registry.clone(),
            }),
            conn_label: "ha".to_string(),
            ..Layers::new(ForwardMode::Offload)
        };
        (XrpcTerminator::spawn(tcp, addr, client, layers), rejoin_tx)
    }

    const HA: [(&str, &str); 1] = [("conn", "ha")];

    /// Whole-DPU failure domain end to end: xRPC traffic flows through
    /// the offload path, the DPU dies loudly mid-run, every call keeps
    /// being answered (host-direct fallback), and a freshly established
    /// client handed through the rejoin channel restores full offload.
    #[test]
    fn ha_layer_survives_dpu_crash_and_rejoins() {
        let rdma = Fabric::new();
        let tcp = TcpFabric::new();
        let registry = Arc::new(Registry::new());
        let (client, server) = incarnation(&rdma, &registry, "ha");
        let (host1_stop, host1) = host_thread(server, true);
        let (terminator, rejoin_tx) = ha_terminator(&tcp, "dpu:50052", client, &registry);

        let wire = encode_message(&gen_small(&paper_schema()));
        let mut ch = GrpcChannel::connect(&tcp, "dpu:50052").unwrap();

        // Healthy offload phase.
        for _ in 0..10 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }

        // Kill the DPU: the next send-side fabric op dies loudly. Every
        // call must still be answered, now by the host fallback.
        rdma.faults().fail_nth(0, FaultKind::DpuCrash);
        for _ in 0..30 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }
        assert_eq!(
            registry.counter_value("terminator_failovers_total", &HA),
            Some(1)
        );
        assert!(
            registry
                .counter_value("terminator_host_served_total", &HA)
                .unwrap()
                > 0
        );

        // Restarted DPU: a fresh establishment re-ships the ADT and
        // re-verifies digests; the rejoin channel hands it over and the
        // probe ramp restores full offload.
        let (client2, server2) = incarnation(&rdma, &registry, "ha2");
        let (host2_stop, host2) = host_thread(server2, false);
        rejoin_tx.send(client2).unwrap();

        let mut rejoined_after = 0;
        for i in 0..400 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
            if registry.counter_value("terminator_rejoins_total", &HA) == Some(1) {
                rejoined_after = i;
                break;
            }
        }
        assert_eq!(
            registry.counter_value("terminator_rejoins_total", &HA),
            Some(1),
            "rejoin never completed"
        );
        // Post-rejoin traffic rides the offload path again.
        for _ in 0..10 {
            let (status, _) = ch.call_raw(1, &wire).unwrap();
            assert_eq!(status, 0);
        }
        assert_eq!(
            registry.gauge_value("terminator_lease_state", &HA),
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

    /// A restarted DPU that wedges silently *during* the rejoin ramp (its
    /// host side never polls, no transport error is ever raised) must not
    /// strand the ramp's probes: the probe outstanding past the lease
    /// deadline aborts the rejoin, is replayed host-side, and the poller
    /// still joins. (What the abort counts as is the engine's to assert:
    /// `failover::tests::probe_outstanding_past_the_deadline_aborts_the_rejoin`.)
    #[test]
    fn ha_layer_survives_wedge_mid_rejoin() {
        let rdma = Fabric::new();
        let tcp = TcpFabric::new();
        let registry = Arc::new(Registry::new());
        let (client, server) = incarnation(&rdma, &registry, "ha");
        let (host1_stop, host1) = host_thread(server, true);
        let (terminator, rejoin_tx) = ha_terminator(&tcp, "dpu:50053", client, &registry);

        let wire = encode_message(&gen_small(&paper_schema()));
        let mut ch = GrpcChannel::connect(&tcp, "dpu:50053").unwrap();
        for _ in 0..10 {
            assert_eq!(ch.call_raw(1, &wire).unwrap().0, 0);
        }
        rdma.faults().fail_nth(0, FaultKind::DpuCrash);
        for _ in 0..10 {
            assert_eq!(ch.call_raw(1, &wire).unwrap().0, 0);
        }
        assert_eq!(registry.gauge_value("terminator_lease_state", &HA), Some(2));

        // The second incarnation is handed over but its server is never
        // polled: every probe the ramp sends it goes unanswered.
        let (client2, _wedged_server) = incarnation(&rdma, &registry, "ha2");
        rejoin_tx.send(client2).unwrap();
        let (done_tx, done_rx) = bounded(1);
        let caller = std::thread::spawn(move || {
            for _ in 0..20 {
                assert_eq!(ch.call_raw(1, &wire).unwrap().0, 0);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a call after the hand-over never returned");
        caller.join().unwrap();
        assert_eq!(
            registry.gauge_value("terminator_lease_state", &HA),
            Some(2),
            "the wedged rejoin must fall back to Dead"
        );

        terminator.shutdown().unwrap();
        host1_stop.store(true, Ordering::Release);
        host1.join().unwrap();
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
        let layers = Layers::new(ForwardMode::Offload);
        let terminator = XrpcTerminator::spawn(&tcp, "dpu:1", client, layers);
        let mut ch = GrpcChannel::connect(&tcp, "dpu:1").unwrap();
        // Invalid UTF-8 string for CharArray (method 3): rejected on the
        // DPU during deserialization.
        let (status, _) = ch.call_raw(3, &[0x0a, 0x02, 0xC0, 0xAF]).unwrap();
        assert_eq!(status, STATUS_QUARANTINED);
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
