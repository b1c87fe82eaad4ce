//! The fault-tolerant session layer: connection supervision with
//! in-flight replay, and offload→host graceful degradation.
//!
//! The substrate layers already classify every failure
//! ([`pbo_rpcrdma::RetryClass`]) and absorb the transient ones with
//! bounded backoff inside the event loops. This module owns the other two
//! rungs of the recovery ladder:
//!
//! * **Reconnect** — a [`ResilientSession`] supervises one connection.
//!   On a reconnect-class failure (connection kill, lost completion,
//!   completion-queue overflow, stall) it tears the endpoints down,
//!   re-runs [`pbo_rpcrdma::try_establish`] — re-shipping the ADT control
//!   blob and re-verifying binary compatibility, exactly like first
//!   contact — re-registers every handler, and **replays** the
//!   unacknowledged in-flight requests in original order. A per-request
//!   continuation slot guarantees each caller sees its response *exactly
//!   once*, even when the server re-executes a handler whose response was
//!   lost (DESIGN.md §13, "Failure-domain engine").
//! * **Degrade** — a [`CircuitBreaker`] watches DPU-side deserialization.
//!   After `breaker_threshold` consecutive offload failures it opens and
//!   routes requests over the *degraded* path: serialized bytes forwarded
//!   to the host, which deserializes them itself
//!   ([`CompatServer::register_degradable`], [`MODE_SERIALIZED`]) — the
//!   system keeps serving, merely losing the offload win. While open,
//!   every `breaker_probe_every`-th request probes the native path; the
//!   first success closes the breaker and restores offloading.
//!
//! Whole-DPU deaths — the lease, the in-flight journal, the host-side
//! replay order and the warm-rejoin ramp — are the shared failure-domain
//! engine's (`failover.rs`); this module supplies what a death means for
//! a session: answering the drained requests through [`HostDirect`] into
//! their continuation slots.
//!
//! Every recovery event is counted in the [`Registry`] (same `conn`
//! label across reconnects, so series continue) and, when a tracer is
//! attached, `reconnect` and `degraded` spans land in the trace stream.

use crate::compat::{
    CompatServer, HostDirect, NativeHandler, NativeMdHandler, PayloadMode, MODE_NATIVE,
    MODE_SERIALIZED, STATUS_QUARANTINED, STATUS_UNIMPLEMENTED,
};
use crate::failover::{FailureDomain, MetricNames};
use crate::offload::OffloadClient;
use crate::precedence::{self, Authority, ReplyStore, Verdict};
use crate::service::ServiceSchema;
use crate::terminator::ForwardMode;
use parking_lot::Mutex;
use pbo_cache::ResponseCache;
use pbo_metrics::{Counter, Gauge, Registry};
use pbo_policy::PolicyEngine;
use pbo_rpcrdma::client::Continuation;
use pbo_rpcrdma::{
    try_establish, Config, LeaseConfig, LeaseState, RetryClass, RetryPolicy, RpcError,
};
use pbo_sched::{TenantScheduler, STATUS_SHED};
use pbo_simnet::Fabric;
use pbo_trace::{stages, triggers, Clock, Span, SpanSink, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Supervision knobs. The defaults suit the simulated fabric; scale the
/// durations up for real hardware.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Transient-failure retry policy installed on both endpoints'
    /// event loops.
    pub retry: RetryPolicy,
    /// Re-establishment attempts before a reconnect gives up.
    pub reconnect_max_attempts: u32,
    /// Base pause between re-establishment attempts (grows linearly).
    pub reconnect_backoff: Duration,
    /// Consecutive offload failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// While open, every Nth request probes the native path.
    pub breaker_probe_every: u32,
    /// Oldest-unacknowledged-request age that triggers a reconnect (a
    /// response or completion was lost without any other symptom). `None`
    /// disables the deadline.
    pub request_deadline: Option<Duration>,
    /// Lease failure detector for whole-DPU liveness: heartbeat interval
    /// and consecutive-miss threshold (deadline = interval × threshold).
    pub lease: LeaseConfig,
    /// Rejoin traffic ramp: during a warm rejoin every Nth call probes
    /// the rebuilt DPU datapath, and each successful probe halves the
    /// stride; full offload resumes when the stride reaches 1.
    pub rejoin_probe_stride: u32,
    /// When true (the default), [`ResilientSession::tick`] automatically
    /// starts a warm rejoin as soon as the lease is Dead and the device
    /// is available again. Disable for externally scripted recovery
    /// (e.g. the crash-schedule explorer driving phases by hand).
    pub auto_rejoin: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            reconnect_max_attempts: 8,
            reconnect_backoff: Duration::from_micros(200),
            breaker_threshold: 3,
            breaker_probe_every: 8,
            request_deadline: None,
            lease: LeaseConfig::default(),
            rejoin_probe_stride: 8,
            auto_rejoin: true,
        }
    }
}

/// Offload circuit breaker: Closed (native path) → Open (degraded path,
/// with periodic native probes) → Closed again on the first probe
/// success.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    probe_every: u32,
    consecutive_failures: u32,
    open: bool,
    calls_while_open: u32,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// and probes every `probe_every`-th call while open.
    pub fn new(threshold: u32, probe_every: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            probe_every: probe_every.max(1),
            consecutive_failures: 0,
            open: false,
            calls_while_open: 0,
        }
    }

    /// True while the breaker is open (degraded routing in force).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Routing decision for the next call: `true` = native (offload)
    /// path. While open, every `probe_every`-th call probes natively.
    pub fn route_native(&mut self) -> bool {
        if !self.open {
            return true;
        }
        self.calls_while_open += 1;
        self.calls_while_open.is_multiple_of(self.probe_every)
    }

    /// Records a native-path failure; returns `true` when this one
    /// tripped the breaker open.
    pub fn on_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        if !self.open && self.consecutive_failures >= self.threshold {
            self.open = true;
            self.calls_while_open = 0;
            return true;
        }
        false
    }

    /// Records a native-path success; returns `true` when it closed an
    /// open breaker (offload restored).
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.open {
            self.open = false;
            return true;
        }
        false
    }
}

/// The caller's continuation, shared between the original enqueue and any
/// replays: whichever response arrives first takes it; later duplicates
/// find the slot empty and are dropped.
type SharedCont = Arc<Mutex<Option<Continuation>>>;
type SharedAcks = Arc<Mutex<Vec<u64>>>;

/// One request in flight on the DPU datapath — the failure-domain
/// engine's journal entry: everything needed to enqueue it again, or to
/// answer it on the host.
struct InFlight {
    proc_id: u16,
    wire: Vec<u8>,
    /// Native (offloaded) route, as opposed to serialized-forward.
    native: bool,
    slot: SharedCont,
}

impl InFlight {
    /// (Re-)enqueues onto `client`. The continuation wrapped around the
    /// slot fires the caller's at most once and reports `seq` answered.
    fn enqueue(
        &self,
        client: &mut OffloadClient,
        acks: &SharedAcks,
        seq: u64,
    ) -> Result<(), RpcError> {
        let (slot, acks) = (self.slot.clone(), acks.clone());
        let cont: Continuation = Box::new(move |payload, status| {
            if let Some(cont) = slot.lock().take() {
                acks.lock().push(seq);
                cont(payload, status);
            }
        });
        if self.native {
            client.call_offloaded_md(self.proc_id, &self.wire, &[MODE_NATIVE], cont)
        } else {
            client.call_forwarded_md(self.proc_id, &self.wire, &[MODE_SERIALIZED], cont)
        }
    }

    /// The caller's continuation, unless a reply already took it.
    fn take_cont(&self) -> Option<Continuation> {
        self.slot.lock().take()
    }
}

/// The session's own counters; the failover / rejoin / lease family is
/// bound by the failure-domain engine under the same `session_` prefix.
struct SessionCounters {
    reconnects: Counter,
    breaker_trips: Counter,
    breaker_restores: Counter,
    breaker_probes: Counter,
    degraded_calls: Counter,
    quarantined: Counter,
    breaker_open: Gauge,
    journal_depth: Gauge,
    journal_depth_peak: Gauge,
}

impl SessionCounters {
    fn bind(registry: &Registry, conn: &str) -> Self {
        let l = [("conn", conn)];
        let counter = |name, help| registry.counter(name, help, &l);
        let gauge = |name, help| registry.gauge(name, help, &l);
        Self {
            reconnects: counter(
                "session_reconnects_total",
                "Connection re-establishments performed by the supervisor",
            ),
            breaker_trips: counter(
                "session_breaker_trips_total",
                "Offload circuit-breaker open transitions",
            ),
            breaker_restores: counter(
                "session_breaker_restores_total",
                "Offload circuit-breaker close transitions (offload restored)",
            ),
            breaker_probes: counter(
                "session_breaker_probes_total",
                "Native-path probes issued while the breaker was open",
            ),
            degraded_calls: counter(
                "session_degraded_calls_total",
                "Requests routed over the degraded host-deserialization path",
            ),
            quarantined: registry.counter(
                "quarantined_requests_total",
                "Malformed (poison) requests failed individually with an error response",
                &[("conn", conn), ("side", "dpu")],
            ),
            breaker_open: gauge(
                "session_breaker_open",
                "1 while the offload circuit breaker is open",
            ),
            journal_depth: gauge(
                "session_journal_depth",
                "Unacknowledged requests held for replay",
            ),
            journal_depth_peak: gauge(
                "session_journal_depth_peak",
                "High-water mark of unacknowledged requests held for replay",
            ),
        }
    }
}

/// The optional layers of one session, fixed at construction
/// ([`ResilientSession::with_layers`]); the default is none of them on a
/// wall clock. Its own small struct rather than the terminator's
/// [`crate::terminator::Layers`]: the session schedules admission-only
/// (`TenantScheduler<()>` — it queues in its journal, not in the
/// scheduler), brings its own [`HostDirect`] and lease configuration
/// ([`SessionConfig`]) instead of an HA layer, and needs a [`Clock`].
pub struct SessionLayers {
    /// The session's one clock: lease and request deadlines, cache TTLs,
    /// policy dwell and token buckets all read it. Wall by default (ns
    /// since creation); a [`pbo_trace::VirtualClock`]-backed clock makes
    /// every time-driven decision deterministic.
    pub clock: Clock,
    /// Span source (disabled = none): both endpoints get the usual
    /// per-stage spans, the session emits `reconnect` / `degraded` /
    /// `failover` / `rejoin` spans on its own `{conn_label}/session` track
    /// and the policy its flips; a flight recorder riding the tracer gets
    /// the anomaly marks whether or not spans are sampled.
    pub tracer: Tracer,
    /// Tenant admission control for [`ResilientSession::call_tenant`]:
    /// per-tenant token buckets shed overload with [`STATUS_SHED`] *before*
    /// the request touches the breaker or the datapath. Its fabric-window
    /// observer is attached to every client the session runs on.
    pub sched: Option<TenantScheduler<()>>,
    /// Adaptive per-class offload policy. While the breaker is closed,
    /// each call's route comes from the policy (per procedure id) and
    /// successful offloaded deserializations feed their work-unit counts
    /// back; [`ResilientSession::tick`] drives the control loop. While the
    /// breaker is *open* the policy is neither consulted nor fed —
    /// breaker-forced degrades are not policy decisions — and when it
    /// closes again routing returns to the policy's verdict.
    pub policy: Option<PolicyEngine>,
    /// DPU response cache: declared-cachable classes are looked up before
    /// a call touches the breaker, policy, journal or the wire, and
    /// native-path status-0 responses populate it. Flushed on every
    /// breaker trip and failover — the epoch bump those flushes carry
    /// keeps replays and in-flight responses from repopulating it.
    pub cache: Option<ResponseCache>,
}

impl Default for SessionLayers {
    fn default() -> Self {
        Self {
            clock: Clock::wall(),
            tracer: Tracer::disabled(),
            sched: None,
            policy: None,
            cache: None,
        }
    }
}

/// What it takes to build the connection's two endpoints, first contact
/// and every reconnect or rejoin alike.
struct Link {
    fabric: Fabric,
    bundle: ServiceSchema,
    adt_bytes: Vec<u8>,
    client_cfg: Config,
    server_cfg: Config,
    registry: Arc<Registry>,
    conn_label: String,
    retry: RetryPolicy,
    tracer: Tracer,
    handlers: Vec<(u16, NativeHandler)>,
}

impl Link {
    /// Fresh endpoints: the ADT control blob shipped and verified for
    /// binary compatibility, retry policy, metrics (same `conn` label, so
    /// series continue), tracer and credit observer wired, every handler
    /// registered.
    fn establish(
        &self,
        sched: Option<&TenantScheduler<()>>,
    ) -> Result<(OffloadClient, CompatServer), RpcError> {
        let (registry, conn) = (&self.registry, self.conn_label.as_str());
        let ep = try_establish(
            &self.fabric,
            self.client_cfg,
            self.server_cfg,
            registry,
            conn,
            Some(&self.adt_bytes),
        )?;
        let mut client =
            OffloadClient::new(ep.client, self.bundle.clone(), ep.control_blob.as_deref())
                .map_err(|e| RpcError::Desync(e.to_string()))?;
        client.rpc().set_retry_policy(self.retry);
        client.bind_metrics(registry, conn);
        client.wire(&self.tracer, conn, sched);
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.rpc().set_retry_policy(self.retry);
        server.bind_metrics(registry, conn);
        server.set_tracer(&self.tracer, conn);
        for (proc_id, handler) in &self.handlers {
            server.register_degradable(&self.bundle, *proc_id, degradable(handler));
        }
        Ok((client, server))
    }
}

/// The session's handlers take no call metadata (it sends none).
fn degradable(handler: &NativeHandler) -> NativeMdHandler {
    let handler = handler.clone();
    Arc::new(move |_metadata, view, out| handler(view, out))
}

/// One supervised connection: an [`OffloadClient`], its [`CompatServer`],
/// and everything needed to rebuild both from scratch and carry the
/// in-flight work across.
pub struct ResilientSession {
    link: Link,
    cfg: SessionConfig,

    client: OffloadClient,
    server: CompatServer,

    breaker: CircuitBreaker,
    /// The DPU failure domain over the requests in flight: lease, journal,
    /// rejoin ramp and their metrics.
    fd: FailureDomain<InFlight>,
    acks: SharedAcks,
    next_seq: u64,

    counters: SessionCounters,
    trace: Option<(Tracer, SpanSink)>,
    sched: Option<TenantScheduler<()>>,
    policy: Option<PolicyEngine>,
    cache: Option<ResponseCache>,

    /// The host-only datapath (whole-DPU failover target); registered in
    /// lockstep with the server's degradable handlers.
    host: HostDirect,
    clock: Clock,
    /// Simulation switch for the device itself: `false` models a wedged
    /// or rebooting DPU (heartbeats stop, the device-side event loop
    /// makes no progress) without any transport error.
    dpu_available: bool,
}

impl ResilientSession {
    /// [`ResilientSession::with_layers`] with none of the optional layers,
    /// on a wall clock.
    pub fn new(
        fabric: Fabric,
        bundle: ServiceSchema,
        client_cfg: Config,
        server_cfg: Config,
        registry: Arc<Registry>,
        conn_label: &str,
        cfg: SessionConfig,
    ) -> Result<Self, RpcError> {
        let layers = SessionLayers::default();
        Self::with_layers(
            fabric, bundle, client_cfg, server_cfg, registry, conn_label, cfg, layers,
        )
    }

    /// Establishes the connection and wires the supervision machinery and
    /// `layers` to it. The ADT control blob ships during establishment
    /// (and again on every reconnect) and is verified for binary
    /// compatibility. Policy and cache metrics bind to `registry`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_layers(
        fabric: Fabric,
        bundle: ServiceSchema,
        client_cfg: Config,
        server_cfg: Config,
        registry: Arc<Registry>,
        conn_label: &str,
        cfg: SessionConfig,
        layers: SessionLayers,
    ) -> Result<Self, RpcError> {
        let SessionLayers {
            clock,
            tracer,
            sched,
            mut policy,
            cache,
        } = layers;
        if let Some(policy) = &mut policy {
            policy.bind_metrics(&registry);
            policy.set_tracer(&tracer, conn_label);
            if let Some(flight) = tracer.flight() {
                policy.bind_flight(&flight);
            }
        }
        if let Some(cache) = &cache {
            cache.bind_metrics(&registry);
        }
        let link = Link {
            adt_bytes: bundle.adt_bytes(),
            fabric,
            bundle,
            client_cfg,
            server_cfg,
            registry,
            conn_label: conn_label.to_string(),
            retry: cfg.retry,
            tracer,
            handlers: Vec::new(),
        };
        let (client, server) = link.establish(sched.as_ref())?;
        let (registry, stride) = (&link.registry, cfg.rejoin_probe_stride);
        let now_ns = clock.now_ns();
        let names = MetricNames::SESSION;
        let fd = FailureDomain::new(cfg.lease, stride, now_ns, registry, names, conn_label);
        let trace = link.tracer.is_enabled().then(|| {
            let sink = link.tracer.sink(&format!("{conn_label}/session"));
            (link.tracer.clone(), sink)
        });
        Ok(Self {
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_probe_every),
            counters: SessionCounters::bind(&link.registry, conn_label),
            link,
            cfg,
            client,
            server,
            fd,
            acks: Arc::new(Mutex::new(Vec::new())),
            next_seq: 0,
            trace,
            sched,
            policy,
            cache,
            host: HostDirect::new(),
            clock,
            dpu_available: true,
        })
    }

    /// The tracer's clock when tracing is on: the start of a span to be.
    fn trace_now(&self) -> Option<u64> {
        self.trace.as_ref().map(|(t, _)| t.now_ns())
    }

    /// Records a span on the `{conn_label}/session` track.
    fn span(&self, trace_id: u64, stage: &'static str, start_ns: u64, end_ns: u64, bytes: u64) {
        if let Some((_, sink)) = &self.trace {
            sink.record(Span {
                trace_id,
                stage,
                start_ns,
                end_ns,
                bytes,
            });
        }
    }

    /// [`Self::span`] from an earlier [`Self::trace_now`] to now.
    fn span_since(&self, trace_id: u64, stage: &'static str, start_ns: Option<u64>, bytes: u64) {
        if let (Some(start_ns), Some(end_ns)) = (start_ns, self.trace_now()) {
            self.span(trace_id, stage, start_ns, end_ns, bytes);
        }
    }

    /// Marks an anomaly in the flight recorder riding the tracer and raises
    /// its trigger — independently of span sampling, so anomaly dumps work
    /// in production-shaped runs.
    fn mark(&self, id: u64, trigger: &'static str, bytes: u64) {
        if let Some(flight) = self.link.tracer.flight() {
            let now = self.link.tracer.now_ns();
            flight.record_mark(id, trigger, now, bytes);
            flight.trigger(trigger, now);
        }
    }

    /// Answers a call that never enters the datapath.
    fn answer(&mut self, cont: Continuation, payload: &[u8], status: u16) -> Result<u64, RpcError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        cont(payload, status);
        Ok(seq)
    }

    /// Read access to the installed policy engine.
    pub fn policy(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    /// Mutable access to the installed policy engine (signal injection,
    /// class registration with priors).
    pub fn policy_mut(&mut self) -> Option<&mut PolicyEngine> {
        self.policy.as_mut()
    }

    /// Read access to the installed response cache.
    pub fn cache(&self) -> Option<&ResponseCache> {
        self.cache.as_ref()
    }

    /// Registers a degradable handler (see
    /// [`CompatServer::register_degradable`]); kept for re-registration
    /// on every reconnect.
    pub fn register(&mut self, proc_id: u16, handler: NativeHandler) {
        let bundle = &self.link.bundle;
        self.server
            .register_degradable(bundle, proc_id, degradable(&handler));
        // The same business logic backs the host-only failover datapath,
        // so a dead DPU never takes a procedure out of service.
        self.host.register(bundle, proc_id, handler.clone());
        self.link.handlers.push((proc_id, handler));
    }

    /// The shared fabric (fault injection, PCIe counters).
    pub fn fabric(&self) -> &Fabric {
        &self.link.fabric
    }

    /// The current DPU-side engine (chaos knobs, metrics). Replaced
    /// wholesale on reconnect.
    pub fn client_mut(&mut self) -> &mut OffloadClient {
        &mut self.client
    }

    /// The current host-side server. Replaced wholesale on reconnect.
    pub fn server_mut(&mut self) -> &mut CompatServer {
        &mut self.server
    }

    /// Requests accepted but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.fd.in_flight()
    }

    /// True while the offload circuit breaker is open.
    pub fn breaker_is_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// The DPU lease state as of the last poll/event.
    pub fn lease_state(&self) -> LeaseState {
        self.fd.state()
    }

    /// Whether the simulated device is up (see
    /// [`ResilientSession::crash_dpu`]).
    pub fn dpu_is_available(&self) -> bool {
        self.dpu_available
    }

    /// Silently wedges the DPU: heartbeats stop and the device-side event
    /// loop makes no further progress, but no transport error is raised —
    /// exactly the failure only the lease deadline can detect. In-flight
    /// requests are recovered by the failover's host-side journal replay
    /// once the lease expires.
    pub fn crash_dpu(&mut self) {
        self.dpu_available = false;
    }

    /// The wedged/crashed device finishes rebooting with its state wiped
    /// (ADT, credit window, scheduler sub-pools — everything). The lease
    /// stays Dead until a warm rejoin re-ships and re-verifies that
    /// state; with `auto_rejoin` set, the next [`ResilientSession::tick`]
    /// starts one.
    pub fn restart_dpu(&mut self) {
        self.dpu_available = true;
    }

    /// Declares the DPU dead immediately (operator override or hard
    /// external evidence) and fails the connection over to the host-only
    /// datapath, replaying the journal exactly-once. A death declared
    /// *during* a rejoin aborts the rejoin back to host-only; a no-op
    /// while already dead.
    pub fn declare_dpu_dead(&mut self) {
        self.fail_over();
    }

    /// [`ResilientSession::call`] with tenant admission control in front:
    /// when a scheduler is installed ([`SessionLayers::sched`]) the
    /// tenant's token bucket runs first; on overload the continuation
    /// fires immediately with [`STATUS_SHED`] (retryable, like quarantine:
    /// the breaker never sees it and `Ok(seq)` is returned — the *request*
    /// was answered, just not served). Admitted requests proceed exactly
    /// as [`ResilientSession::call`].
    pub fn call_tenant(
        &mut self,
        tenant: &str,
        proc_id: u16,
        wire: &[u8],
        cont: Continuation,
    ) -> Result<u64, RpcError> {
        if let Some(sched) = &mut self.sched {
            let now_ns = self.clock.now_ns();
            if sched.admit(tenant, wire.len() as u32, now_ns).is_err() {
                // Shed: answer this caller with the retryable status and
                // leave the breaker and the datapath untouched.
                return self.answer(cont, &[], STATUS_SHED);
            }
        }
        self.call_inner(tenant, proc_id, wire, cont)
    }

    /// Issues one call. Returns the session sequence number; the
    /// continuation fires exactly once with the response (even across
    /// reconnects and replays). Transient backpressure
    /// ([`RpcError::NoCredits`] and friends) surfaces as `Err` with the
    /// continuation unused — retry the call after a [`Self::tick`].
    pub fn call(&mut self, proc_id: u16, wire: &[u8], cont: Continuation) -> Result<u64, RpcError> {
        self.call_inner(pbo_grpc::DEFAULT_TENANT, proc_id, wire, cont)
    }

    /// The shared body of [`ResilientSession::call`] and
    /// [`ResilientSession::call_tenant`]: `tenant` partitions the
    /// response cache (untenanted calls share the default partition).
    fn call_inner(
        &mut self,
        tenant: &str,
        proc_id: u16,
        wire: &[u8],
        cont: Continuation,
    ) -> Result<u64, RpcError> {
        // Routing precedence (`crate::precedence`, DESIGN.md §13): lease,
        // then breaker and cache, then policy. A dead device makes breaker
        // and policy state moot — there is no offload path to degrade or
        // steer.
        self.poll_lease();
        let lease = self.fd.state();
        let breaker_open = self.breaker.is_open();
        let now_ns = self.clock.now_ns();
        // A hit answers without touching the breaker, the policy's cost
        // estimates, the journal, or the wire — exactly the stages it
        // exists to skip — and is attributed to the cached route.
        if let Some(cache) = self
            .cache
            .as_ref()
            .filter(|_| precedence::may_lookup(lease, breaker_open))
        {
            if let Some((status, payload)) = cache.lookup(tenant, proc_id, wire, now_ns) {
                if let Some(policy) = &mut self.policy {
                    policy.note_cached(proc_id, now_ns);
                }
                let (seq, bytes) = (self.next_seq, wire.len() as u64);
                self.span_since(seq, stages::CACHE_HIT, self.trace_now(), bytes);
                return self.answer(cont, &payload, status);
            }
        }
        let (fd, breaker, policy) = (&mut self.fd, &mut self.breaker, &mut self.policy);
        let mut verdict = precedence::route(
            lease,
            breaker_open,
            ForwardMode::Offload,
            || fd.ramp_probe(),
            || breaker.route_native(),
            || Some(policy.as_mut()?.route(proc_id, now_ns).route),
        );
        // Breaker-forced host routing is a *fault* response, distinct
        // from the policy's *cost* decision: only the former counts as
        // degraded and only the latter touches the policy metrics.
        match verdict.by {
            Authority::Lease => return self.call_host_direct(proc_id, wire, cont),
            Authority::BreakerProbe => self.counters.breaker_probes.inc(),
            Authority::Breaker => self.counters.degraded_calls.inc(),
            // A ramp probe rides the native path like any other call; its
            // results feed the breaker so that state is consistent when
            // Live resumes.
            Authority::Ramp | Authority::Policy | Authority::Mode => {}
        }
        // Populate-on-miss wrapper, for routes whose reply may be stored;
        // armed only once the call has committed to that route (an
        // after-the-fact degrade disarms it, see `store_armed` below).
        let store_armed = Arc::new(AtomicBool::new(false));
        let store = self.cache.as_ref().filter(|_| verdict.may_store());
        let store = store.and_then(|cache| ReplyStore::arm(cache, tenant, proc_id, wire));
        let cont: Continuation = match store {
            Some(store) => {
                let store = store.traced(self.trace.clone(), self.next_seq);
                let (armed, clock) = (store_armed.clone(), self.clock.clone());
                Box::new(move |payload, status| {
                    if armed.load(Ordering::Relaxed) {
                        store.on_reply(status, payload, clock.now_ns());
                    }
                    cont(payload, status);
                })
            }
            None => cont,
        };
        let (seq, bytes) = (self.next_seq, wire.len() as u64);
        let start_ns = self.trace_now();
        // The journal entry to be; the slot holds the caller's continuation
        // until a reply — DPU or host — takes it.
        let mut entry = InFlight {
            proc_id,
            wire: wire.to_vec(),
            native: verdict.fabric == Some(ForwardMode::Offload),
            slot: Arc::new(Mutex::new(Some(cont))),
        };
        let mut result = entry.enqueue(&mut self.client, &self.acks, seq);
        if entry.native {
            match &result {
                Ok(()) => {
                    if self.breaker.on_success() {
                        self.counters.breaker_restores.inc();
                        self.counters.breaker_open.set(0);
                    }
                    // Feed the real work-unit counts back into the
                    // policy's per-class cost estimate.
                    let outcome = self.client.take_deser_outcome();
                    if let (Some(policy), Some((stats, used))) = (&mut self.policy, outcome) {
                        let now_ns = self.clock.now_ns();
                        policy.observe_stats(proc_id, &stats, wire.len() as u64, used, now_ns);
                    }
                }
                Err(RpcError::Quarantined(_)) => {
                    // The *message* is poison, not the path: fail exactly
                    // this request with an error response and leave the
                    // breaker alone — a flood of malformed requests must
                    // not push healthy traffic off the offload path.
                    self.counters.quarantined.inc();
                    self.mark(seq, triggers::QUARANTINE, bytes);
                    self.span_since(seq, stages::QUARANTINE, start_ns, bytes);
                    let cont = entry.take_cont().expect("continuation unused on Err");
                    return self.answer(cont, &[], STATUS_QUARANTINED);
                }
                Err(RpcError::PayloadWriter(_)) => {
                    // DPU-side deserialization failed: count it against
                    // the breaker and serve this request over the
                    // degraded path anyway.
                    if self.breaker.on_failure() {
                        self.counters.breaker_trips.inc();
                        self.counters.breaker_open.set(1);
                        // A tripping breaker means the native path is
                        // misbehaving: drop every cached response it
                        // produced and invalidate in-flight stores.
                        precedence::flush_on_fault(self.cache.as_ref());
                        self.mark(seq, triggers::BREAKER_OPEN, bytes);
                    }
                    if verdict.by == Authority::Ramp {
                        // A failed probe is served host-side and leaves the
                        // ramp where it is.
                        return self.serve_refused(entry);
                    }
                    verdict = Verdict::DEGRADED;
                    entry.native = false;
                    self.counters.degraded_calls.inc();
                    result = entry.enqueue(&mut self.client, &self.acks, seq);
                }
                Err(_) => {}
            }
        }
        if let Err(e) = result {
            if e.is_dpu_death() {
                // Whole-device death observed on the enqueue itself: fail
                // over and serve this request host-side right now. The
                // slot still holds the caller's continuation (the failed
                // enqueue never fired it).
                self.fail_over();
                return self.serve_refused(entry);
            }
            // A reconnect-class failure during enqueue: recover the
            // connection and try this request once more (it is not yet
            // journaled, so the replay does not cover it). Mid-ramp, a
            // rebuilt connection that wedges fails the rejoin instead.
            if e.retry_class() != RetryClass::Reconnect {
                return Err(e);
            }
            if verdict.by == Authority::Ramp {
                self.fail_over();
            } else {
                self.reconnect()?;
            }
            if matches!(self.fd.state(), LeaseState::Dead | LeaseState::Rejoining) {
                // The reconnect collapsed into a failover (device gone).
                return self.serve_refused(entry);
            }
            entry.enqueue(&mut self.client, &self.acks, seq)?;
        }
        if verdict.by == Authority::Breaker {
            // Only breaker-forced host routing is "degraded"; a class
            // the policy routed to host is operating as intended and
            // gets policy metrics/spans instead.
            self.span_since(seq, stages::DEGRADED, start_ns, bytes);
        }
        // Commit the cachability decision: breaker-degraded and
        // policy-routed (host-deserialize) responses never populate.
        store_armed.store(verdict.may_store(), Ordering::Relaxed);
        let now_ns = self.clock.now_ns();
        self.fd.record(seq, now_ns, entry);
        self.next_seq += 1;
        let depth = self.fd.in_flight() as i64;
        self.counters.journal_depth.set(depth);
        self.counters.journal_depth_peak.set_max(depth);
        // An accepted probe is real forward progress on the rebuilt
        // datapath: it halves the ramp stride, and the last one restores
        // full offload service.
        if verdict.by == Authority::Ramp {
            if let Some(took_ns) = self.fd.probe_accepted(now_ns) {
                let rejoins = self.fd.lease().rejoins();
                self.mark(rejoins, triggers::REJOIN, 0);
                self.span(rejoins, stages::REJOIN, now_ns - took_ns, now_ns, 0);
            }
        }
        Ok(seq)
    }

    /// Drives both event loops once, absorbing transient failures,
    /// reconnecting on reconnect-class ones, and enforcing the
    /// per-request deadline. Returns responses delivered to this side.
    pub fn tick(&mut self, timeout: Duration) -> Result<usize, RpcError> {
        // Lease renewal: while the device is up it heartbeats with its
        // queue depth. (The simulation generates the renewals here; a real
        // deployment receives them on the control channel.) A wedged
        // device stops renewing — that silence is the only symptom, and
        // the deadline below converts it to a failover.
        if self.dpu_available {
            let depth = self.fd.in_flight() as u32;
            self.fd.renew(self.clock.now_ns(), depth);
        }
        self.poll_lease();
        if self.fd.state() == LeaseState::Dead {
            // Host-only service: no endpoints to drive (the old pair died
            // with the device). Start a warm rejoin as soon as the device
            // is back.
            self.drain_acks();
            if self.dpu_available && self.cfg.auto_rejoin {
                self.rejoin_dpu()?;
            }
            return Ok(0);
        }
        if let Err(e) = self.server.event_loop(timeout) {
            self.absorb(e)?;
        }
        let mut delivered = 0;
        if self.dpu_available && self.fd.state() != LeaseState::Dead {
            match self.client.event_loop(Duration::ZERO) {
                Ok(n) => delivered = n,
                Err(e) => self.absorb(e)?,
            }
        }
        self.drain_acks();
        if self.fd.state() == LeaseState::Dead {
            // An event loop just observed the device death; the failover
            // already replayed and answered everything outstanding.
            return Ok(delivered);
        }
        let now_ns = self.clock.now_ns();
        if let Some(policy) = &mut self.policy {
            // Drive the control loop: scrape pressure signals (throttled
            // internally) and re-evaluate routes.
            policy.refresh_signals(now_ns);
        }
        if let Some(deadline) = self.cfg.request_deadline {
            let oldest_ns = self.fd.oldest_age_ns(now_ns);
            if oldest_ns.is_some_and(|age_ns| age_ns > deadline.as_nanos() as u64) {
                // The response (or its completion) was lost without any
                // other symptom — recover through the reconnect ladder.
                self.absorb(RpcError::Stalled {
                    waited_ms: deadline.as_millis() as u64,
                })?;
            }
        }
        Ok(delivered)
    }

    fn absorb(&mut self, e: RpcError) -> Result<(), RpcError> {
        if e.is_dpu_death() {
            // Not a connection problem — the device itself died. Fail the
            // whole connection over instead of reconnecting into a void.
            self.fail_over();
            return Ok(());
        }
        match e.retry_class() {
            RetryClass::Transient => Ok(()),
            RetryClass::Reconnect => self.reconnect(),
            RetryClass::Fatal => Err(e),
        }
    }

    /// The engine's deadline rules; a crossing fails over.
    fn poll_lease(&mut self) {
        if self.fd.poll(self.clock.now_ns()).is_some() {
            self.fail_over();
        }
    }

    /// The whole-connection failover, the session's share of it (the
    /// engine makes the death transition — also from mid-rejoin — counts
    /// it and hands back what was in flight): flip to host-only service
    /// and answer every in-flight request through [`HostDirect`], oldest
    /// first. No-op while already dead.
    fn fail_over(&mut self) {
        // Replies that beat the death retire their entries first.
        self.drain_acks();
        let now_ns = self.clock.now_ns();
        let Some(in_flight) = self.fd.declare_dead(now_ns) else {
            return;
        };
        // Flush before the replay below: the epoch bump makes every store
        // wrapper issued before this failover stale, so replayed
        // (host-served) responses can never repopulate the cache — the
        // no-double-populate rule.
        precedence::flush_on_fault(self.cache.as_ref());
        let deaths = self.fd.lease().deaths();
        self.mark(deaths, triggers::DPU_DEAD, 0);
        // Detection latency: last accepted renewal → declaration.
        let renewed_ns = self.fd.lease().last_renewal_ns();
        self.span(deaths, stages::LEASE_WAIT, renewed_ns, now_ns, 0);
        // Invalidate the DPU credit window: blocks posted to a dead
        // device will never be acknowledged.
        if let Some(sched) = &self.sched {
            sched.fabric().reset();
        }
        for (_, entry) in &in_flight {
            if let Some(cont) = entry.take_cont() {
                self.dispatch_host(entry.proc_id, &entry.wire, cont);
            }
        }
        self.counters.journal_depth.set(0);
        let (ended_ns, replayed) = (self.clock.now_ns(), in_flight.len() as u64);
        self.span(deaths, stages::FAILOVER, now_ns, ended_ns, replayed);
    }

    /// Runs one request on the host-only datapath and fires `cont`
    /// exactly once. Quarantine keeps its per-request semantics.
    fn dispatch_host(&mut self, proc_id: u16, wire: &[u8], cont: Continuation) {
        let mut out = Vec::new();
        match self.host.dispatch(proc_id, wire, &mut out) {
            Ok(status) => cont(&out, status),
            Err(RpcError::Quarantined(_)) => {
                self.counters.quarantined.inc();
                cont(&[], STATUS_QUARANTINED);
            }
            Err(e) => {
                // Unregistered procedure on the failover path: the
                // request cannot be served anywhere. Surface that rather
                // than losing the continuation.
                debug_assert!(matches!(e, RpcError::NoSuchProcedure(_)));
                cont(&[], STATUS_UNIMPLEMENTED);
            }
        }
        self.fd.host_served(self.clock.now_ns());
    }

    /// One call served entirely host-side (lease Dead, the non-probe share
    /// of a rejoin ramp, or a probe that failed). Answered synchronously:
    /// no journal entry, no slot — exactly-once is trivial.
    fn call_host_direct(
        &mut self,
        proc_id: u16,
        wire: &[u8],
        cont: Continuation,
    ) -> Result<u64, RpcError> {
        if !self.host.has(proc_id) {
            return Err(RpcError::NoSuchProcedure(proc_id));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.dispatch_host(proc_id, wire, cont);
        Ok(seq)
    }

    /// A request the DPU datapath refused, served host-side instead. Its
    /// slot still holds the caller's continuation: a failed enqueue never
    /// fires it.
    fn serve_refused(&mut self, entry: InFlight) -> Result<u64, RpcError> {
        let cont = entry.take_cont().expect("continuation unused on Err");
        self.call_host_direct(entry.proc_id, &entry.wire, cont)
    }

    /// Starts a warm rejoin: re-establishes the connection (the ADT
    /// control blob is re-shipped and its layout digests re-verified,
    /// exactly like first contact), re-syncs the credit window and
    /// scheduler observer, and begins the traffic ramp. No-op unless the
    /// lease is Dead. With `auto_rejoin` (the default) this runs from
    /// [`ResilientSession::tick`] as soon as the device is back.
    pub fn rejoin_dpu(&mut self) -> Result<(), RpcError> {
        if self.fd.state() != LeaseState::Dead {
            return Ok(());
        }
        let now_ns = self.clock.now_ns();
        match self.rebuild() {
            Ok(()) => {
                self.fd.begin_rejoin(now_ns);
                Ok(())
            }
            Err(e) if e.retry_class() == RetryClass::Fatal => Err(e),
            // The handshake failed (often: the device died again while the
            // ADT was being re-shipped). The lease never left Dead, the
            // host keeps serving, and the next tick retries.
            Err(_) => Ok(()),
        }
    }

    fn drain_acks(&mut self) {
        for seq in std::mem::take(&mut *self.acks.lock()) {
            self.fd.retire(seq);
        }
        self.counters.journal_depth.set(self.fd.in_flight() as i64);
    }

    /// Tears the connection down, re-establishes it (bounded attempts,
    /// linear backoff), and replays every unacknowledged request in
    /// original order. Public so operators can force a failover.
    pub fn reconnect(&mut self) -> Result<(), RpcError> {
        if !self.dpu_available {
            // There is no device to re-establish against: what looked
            // like a connection failure is a whole-DPU death. Fail over
            // instead (journal replayed host-side, exactly-once).
            self.fail_over();
            return Ok(());
        }
        self.drain_acks();
        self.counters.reconnects.inc();
        let nth = self.counters.reconnects.get();
        self.mark(nth, triggers::RECONNECT, 0);
        let start_ns = self.trace_now();
        let mut last = RpcError::Stalled { waited_ms: 0 };
        for attempt in 1..=self.cfg.reconnect_max_attempts.max(1) {
            match self.rebuild() {
                Ok(()) => {
                    self.span_since(nth, stages::RECONNECT, start_ns, 0);
                    return Ok(());
                }
                Err(e) => {
                    if e.retry_class() == RetryClass::Fatal {
                        return Err(e);
                    }
                    last = e;
                    std::thread::sleep(self.cfg.reconnect_backoff * attempt);
                }
            }
        }
        Err(last)
    }

    /// One re-establishment attempt: fresh endpoints ([`Link::establish`]),
    /// then the journal re-enqueued onto them in place — the engine keeps
    /// the entries; replayed work gets a fresh deadline.
    fn rebuild(&mut self) -> Result<(), RpcError> {
        let (mut client, server) = self.link.establish(self.sched.as_ref())?;
        // Chaos knobs survive the rebuild: forced offload failures that
        // have not fired yet move to the fresh client, so deterministic
        // test schedules cannot be wiped by a surprise reconnect.
        let forced = self.client.pending_forced_failures();
        if forced > 0 {
            client.inject_offload_failures(forced);
        }
        self.client = client;
        self.server = server;

        // Replay unacknowledged requests, oldest first. The server may
        // re-execute a handler whose response was lost in the old
        // connection, but each caller's continuation slot fires exactly
        // once.
        for (seq, entry) in self.fd.entries() {
            let mut pumps = 0u32;
            while let Err(e) = entry.enqueue(&mut self.client, &self.acks, seq) {
                if e.retry_class() != RetryClass::Transient {
                    return Err(e);
                }
                // Backpressure: the journal can hold more than one
                // connection's worth of credits. Drive both loops so
                // responses recycle blocks, then retry.
                pumps += 1;
                if pumps > 10_000 {
                    return Err(e);
                }
                self.server.event_loop(Duration::ZERO)?;
                self.client.event_loop(Duration::ZERO)?;
            }
        }
        self.fd.restamp(self.clock.now_ns());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_protowire::encode_message;
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn breaker_trips_probes_and_restores() {
        let mut b = CircuitBreaker::new(3, 4);
        assert!(b.route_native());
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.on_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        // While open: three degraded calls, then a probe.
        assert!(!b.route_native());
        assert!(!b.route_native());
        assert!(!b.route_native());
        assert!(b.route_native(), "every 4th call probes");
        assert!(b.on_success(), "probe success restores");
        assert!(!b.is_open());
        assert!(!b.on_success(), "already closed");
    }

    fn session(label: &str) -> (ResilientSession, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let cfg = SessionConfig {
            breaker_threshold: 2,
            breaker_probe_every: 3,
            ..Default::default()
        };
        let mut session = ResilientSession::new(
            Fabric::new(),
            ServiceSchema::paper_bench(),
            Config::test_small(),
            Config::test_small(),
            registry.clone(),
            label,
            cfg,
        )
        .unwrap();
        session.register(
            1,
            Arc::new(|view, out| {
                out.extend_from_slice(&view.get_u32(1).unwrap().to_le_bytes());
                0
            }),
        );
        (session, registry)
    }

    fn drive(session: &mut ResilientSession, done: &Arc<AtomicU64>, target: u64, wire: &[u8]) {
        let mut issued = done.load(Ordering::Relaxed);
        while done.load(Ordering::Relaxed) < target {
            while issued < target && issued - done.load(Ordering::Relaxed) < 8 {
                let d = done.clone();
                match session.call(
                    1,
                    wire,
                    Box::new(move |payload, status| {
                        assert_eq!(status, 0);
                        assert_eq!(payload, 300u32.to_le_bytes());
                        d.fetch_add(1, Ordering::Relaxed);
                    }),
                ) {
                    Ok(_) => issued += 1,
                    Err(e) if e.retry_class() == RetryClass::Transient => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            session.tick(Duration::ZERO).unwrap();
        }
    }

    #[test]
    fn plain_calls_roundtrip_with_correct_payloads() {
        let (mut session, _registry) = session("s0");
        let wire = encode_message(&gen_small(&paper_schema()));
        let done = Arc::new(AtomicU64::new(0));
        drive(&mut session, &done, 100, &wire);
        assert_eq!(done.load(Ordering::Relaxed), 100);
        assert_eq!(session.outstanding(), 0);
    }

    #[test]
    fn forced_offload_failures_degrade_then_restore() {
        let (mut session, registry) = session("s1");
        let wire = encode_message(&gen_small(&paper_schema()));
        let done = Arc::new(AtomicU64::new(0));
        drive(&mut session, &done, 20, &wire);
        // Two consecutive failures trip the threshold-2 breaker; the
        // requests are still served (degraded). The next probe restores.
        session.client_mut().inject_offload_failures(2);
        drive(&mut session, &done, 60, &wire);
        assert_eq!(done.load(Ordering::Relaxed), 60, "no request lost");
        assert!(!session.breaker_is_open(), "probe restored offloading");
        let labels = [("conn", "s1")];
        assert_eq!(
            registry.counter_value("session_breaker_trips_total", &labels),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("session_breaker_restores_total", &labels),
            Some(1)
        );
        assert!(
            registry
                .counter_value("session_degraded_calls_total", &labels)
                .unwrap()
                >= 2
        );
        assert_eq!(
            registry.gauge_value("session_breaker_open", &labels),
            Some(0)
        );
    }

    #[test]
    fn forced_reconnect_replays_in_flight_requests() {
        let (mut session, registry) = session("s2");
        let wire = encode_message(&gen_small(&paper_schema()));
        let done = Arc::new(AtomicU64::new(0));
        // Accept a batch without draining, then kill the connection: the
        // undelivered requests must survive via journal replay.
        let mut accepted = 0;
        while accepted < 8 {
            let d = done.clone();
            match session.call(
                1,
                &wire,
                Box::new(move |_p, s| {
                    assert_eq!(s, 0);
                    d.fetch_add(1, Ordering::Relaxed);
                }),
            ) {
                Ok(_) => accepted += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        session.reconnect().unwrap();
        while done.load(Ordering::Relaxed) < 8 {
            session.tick(Duration::ZERO).unwrap();
        }
        assert_eq!(
            done.load(Ordering::Relaxed),
            8,
            "each response exactly once"
        );
        let labels = [("conn", "s2")];
        assert_eq!(
            registry.counter_value("session_reconnects_total", &labels),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("session_replayed_requests_total", &labels),
            Some(8)
        );
    }
}
