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
//!   unacknowledged in-flight requests from its [`ReplayJournal`] in
//!   original order. A per-request continuation slot guarantees each
//!   caller sees its response *exactly once*, even when the server
//!   re-executes a handler whose response was lost (at-least-once
//!   server-side, exactly-once client-side).
//! * **Degrade** — a [`CircuitBreaker`] watches DPU-side deserialization.
//!   After `breaker_threshold` consecutive offload failures it opens and
//!   routes requests over the *degraded* path: serialized bytes forwarded
//!   to the host, which deserializes them itself
//!   ([`CompatServer::register_degradable`], [`MODE_SERIALIZED`]) — the
//!   system keeps serving, merely losing the offload win. While open,
//!   every `breaker_probe_every`-th request probes the native path; the
//!   first success closes the breaker and restores offloading.
//!
//! Every recovery event is counted in the [`Registry`] (same `conn`
//! label across reconnects, so series continue) and, when a tracer is
//! attached, `reconnect` and `degraded` spans land in the trace stream.

use crate::compat::{
    CompatServer, HostDirect, NativeHandler, PayloadMode, MODE_NATIVE, MODE_SERIALIZED,
};
use crate::offload::OffloadClient;
use crate::precedence::{self, Authority, ReplyStore, Verdict};
use crate::service::ServiceSchema;
use crate::terminator::ForwardMode;
use parking_lot::Mutex;
use pbo_cache::ResponseCache;
use pbo_metrics::{Counter, Gauge, Histogram, Registry};
use pbo_policy::PolicyEngine;
use pbo_rpcrdma::client::Continuation;
use pbo_rpcrdma::{
    try_establish, Config, Heartbeat, JournalEntry, LeaseConfig, LeaseMonitor, LeaseState,
    ReplayJournal, RetryClass, RetryPolicy, RpcError,
};
use pbo_sched::{TenantScheduler, STATUS_SHED};
use pbo_simnet::Fabric;
use pbo_trace::{stages, triggers, Clock, FlightRecorder, Span, SpanSink, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Traffic ramp for a warm rejoin: every `stride`-th call probes the
/// rebuilt DPU datapath; each successful probe halves the stride, so
/// confidence compounds geometrically and full offload resumes after
/// ⌈log₂ stride⌉ successes. Probe failures keep the stride where it is —
/// the host keeps carrying the rest of the traffic either way.
#[derive(Debug)]
pub(crate) struct RejoinRamp {
    stride: u32,
    since_probe: u32,
}

impl RejoinRamp {
    pub(crate) fn new(stride: u32) -> Self {
        Self {
            stride: stride.max(1),
            since_probe: 0,
        }
    }

    /// Whether the next call should probe the DPU datapath.
    pub(crate) fn probe(&mut self) -> bool {
        if self.stride <= 1 {
            return true;
        }
        self.since_probe += 1;
        if self.since_probe >= self.stride {
            self.since_probe = 0;
            true
        } else {
            false
        }
    }

    /// Records a successful probe; returns `true` when the ramp is done
    /// (every call offloads again).
    pub(crate) fn on_probe_success(&mut self) -> bool {
        self.stride /= 2;
        self.stride <= 1
    }
}

/// The caller's continuation, shared between the original enqueue and any
/// replays: whichever response arrives first takes it; later duplicates
/// find the slot empty and are dropped.
type SharedCont = Arc<Mutex<Option<Continuation>>>;
type SharedAcks = Arc<Mutex<Vec<u64>>>;

/// Wraps the slot for one (re)enqueue: fires the caller's continuation at
/// most once and reports the session sequence as acknowledged.
fn make_continuation(acks: &SharedAcks, seq: u64, slot: &SharedCont) -> Continuation {
    let slot = slot.clone();
    let acks = acks.clone();
    Box::new(move |payload, status| {
        if let Some(cont) = slot.lock().take() {
            acks.lock().push(seq);
            cont(payload, status);
        }
    })
}

/// Status code delivered to the continuation of a quarantined (poison)
/// request — gRPC `INVALID_ARGUMENT`.
pub const STATUS_QUARANTINED: u16 = 3;

struct SessionCounters {
    reconnects: Counter,
    replays: Counter,
    breaker_trips: Counter,
    breaker_restores: Counter,
    breaker_probes: Counter,
    degraded_calls: Counter,
    quarantined: Counter,
    breaker_open: Gauge,
    journal_depth: Gauge,
    journal_depth_peak: Gauge,
    failovers: Counter,
    rejoins: Counter,
    host_only: Counter,
    lease_state: Gauge,
    lease_time_in_state: Gauge,
    failover_latency: Histogram,
    mttr: Histogram,
}

/// Nanosecond-scale latency buckets shared by the failover and MTTR
/// histograms: 10 µs … 10 s, roughly half-decade steps.
const RECOVERY_NS_BOUNDS: &[f64] = &[1e4, 1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9, 1e10];

impl SessionCounters {
    fn bind(registry: &Registry, conn: &str) -> Self {
        let l = [("conn", conn)];
        Self {
            reconnects: registry.counter(
                "session_reconnects_total",
                "Connection re-establishments performed by the supervisor",
                &l,
            ),
            replays: registry.counter(
                "session_replayed_requests_total",
                "In-flight requests replayed after a reconnect",
                &l,
            ),
            breaker_trips: registry.counter(
                "session_breaker_trips_total",
                "Offload circuit-breaker open transitions",
                &l,
            ),
            breaker_restores: registry.counter(
                "session_breaker_restores_total",
                "Offload circuit-breaker close transitions (offload restored)",
                &l,
            ),
            breaker_probes: registry.counter(
                "session_breaker_probes_total",
                "Native-path probes issued while the breaker was open",
                &l,
            ),
            degraded_calls: registry.counter(
                "session_degraded_calls_total",
                "Requests routed over the degraded host-deserialization path",
                &l,
            ),
            quarantined: registry.counter(
                "quarantined_requests_total",
                "Malformed (poison) requests failed individually with an error response",
                &[("conn", conn), ("side", "dpu")],
            ),
            breaker_open: registry.gauge(
                "session_breaker_open",
                "1 while the offload circuit breaker is open",
                &l,
            ),
            journal_depth: registry.gauge(
                "session_journal_depth",
                "Unacknowledged requests held for replay",
                &l,
            ),
            journal_depth_peak: registry.gauge(
                "session_journal_depth_peak",
                "High-water mark of unacknowledged requests held for replay",
                &l,
            ),
            failovers: registry.counter(
                "session_failovers_total",
                "Whole-connection failovers to the host-only datapath (DPU declared dead)",
                &l,
            ),
            rejoins: registry.counter(
                "session_rejoins_total",
                "Completed warm rejoins (full offload service restored)",
                &l,
            ),
            host_only: registry.counter(
                "session_host_only_calls_total",
                "Requests served entirely by the host-direct datapath during failover",
                &l,
            ),
            lease_state: registry.gauge(
                "session_lease_state",
                "DPU lease state: 0=live 1=suspect 2=dead 3=rejoining",
                &l,
            ),
            lease_time_in_state: registry.gauge(
                "session_lease_time_in_state_ns",
                "Nanoseconds the lease has spent in its current state",
                &l,
            ),
            failover_latency: registry.histogram(
                "session_failover_latency_ns",
                "DPU-death declaration to first host-served response, nanoseconds",
                &l,
                RECOVERY_NS_BOUNDS,
            ),
            mttr: registry.histogram(
                "session_mttr_ns",
                "DPU-death declaration to completed warm rejoin (full offload restored), nanoseconds",
                &l,
                RECOVERY_NS_BOUNDS,
            ),
        }
    }
}

/// One supervised connection: an [`OffloadClient`], its [`CompatServer`],
/// and everything needed to rebuild both from scratch and carry the
/// in-flight work across.
pub struct ResilientSession {
    fabric: Fabric,
    bundle: ServiceSchema,
    adt_bytes: Vec<u8>,
    client_cfg: Config,
    server_cfg: Config,
    registry: Arc<Registry>,
    conn_label: String,
    cfg: SessionConfig,

    client: OffloadClient,
    server: CompatServer,
    handlers: Vec<(u16, NativeHandler)>,

    breaker: CircuitBreaker,
    journal: ReplayJournal,
    slots: BTreeMap<u64, SharedCont>,
    issued_at: BTreeMap<u64, Instant>,
    acks: SharedAcks,
    next_seq: u64,
    reconnect_seq: u64,

    counters: SessionCounters,
    trace: Option<(Tracer, SpanSink)>,
    /// Flight-recorder handle plus the clock that stamps its marks; set
    /// whenever the attached tracer carries a recorder — independently of
    /// span sampling, so anomaly dumps work in production-shaped runs.
    flight: Option<(Tracer, FlightRecorder)>,
    /// Tenant admission control for [`ResilientSession::call_tenant`]
    /// (admission-only — this path does its own queueing via the journal).
    sched: Option<TenantScheduler<()>>,
    sched_epoch: Instant,
    /// Adaptive per-class offload policy. Consulted only while the
    /// breaker is closed — the breaker is a fault response and always
    /// takes precedence; its degrades are not policy decisions.
    policy: Option<PolicyEngine>,
    /// DPU response cache. Consulted only while the lease is
    /// Live/Suspect and the breaker is closed; flushed on breaker trips
    /// and failovers (the epoch bump discards in-flight stores, so
    /// journal replays cannot repopulate it).
    cache: Option<ResponseCache>,

    /// The host-only datapath (whole-DPU failover target); registered in
    /// lockstep with the server's degradable handlers.
    host: HostDirect,
    /// Whole-DPU failure detector, running on `clock`.
    lease: LeaseMonitor,
    /// The clock lease decisions run on — wall by default, a virtual
    /// clock under deterministic crash schedules.
    clock: Clock,
    /// Heartbeat sequence of the current DPU incarnation.
    hb_seq: u64,
    /// Simulation switch for the device itself: `false` models a wedged
    /// or rebooting DPU (heartbeats stop, the device-side event loop
    /// makes no progress) without any transport error.
    dpu_available: bool,
    /// Active rejoin traffic ramp, present only while Rejoining.
    ramp: Option<RejoinRamp>,
    /// Virtual timestamp of the current outage's death declaration, until
    /// the rejoin completes (feeds the MTTR histogram).
    death_at_ns: Option<u64>,
    /// True between a death declaration and the first host-served
    /// response (feeds the failover-latency histogram).
    awaiting_first_host_response: bool,
    /// Virtual timestamp the active rejoin started at (feeds the rejoin
    /// span).
    rejoin_started_ns: Option<u64>,
}

impl ResilientSession {
    /// Establishes the connection and wires the supervision machinery.
    /// The ADT control blob ships during establishment (and again on
    /// every reconnect) and is verified for binary compatibility.
    pub fn new(
        fabric: Fabric,
        bundle: ServiceSchema,
        client_cfg: Config,
        server_cfg: Config,
        registry: Arc<Registry>,
        conn_label: &str,
        cfg: SessionConfig,
    ) -> Result<Self, RpcError> {
        let adt_bytes = bundle.adt_bytes();
        let ep = try_establish(
            &fabric,
            client_cfg,
            server_cfg,
            &registry,
            conn_label,
            Some(&adt_bytes),
        )?;
        let mut client = OffloadClient::new(ep.client, bundle.clone(), ep.control_blob.as_deref())
            .map_err(|e| RpcError::Desync(e.to_string()))?;
        client.rpc().set_retry_policy(cfg.retry);
        client.bind_metrics(&registry, conn_label);
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.rpc().set_retry_policy(cfg.retry);
        server.bind_metrics(&registry, conn_label);
        let counters = SessionCounters::bind(&registry, conn_label);
        let clock = Clock::wall();
        let lease = LeaseMonitor::new(cfg.lease, clock.now_ns());
        Ok(Self {
            fabric,
            bundle,
            adt_bytes,
            client_cfg,
            server_cfg,
            registry,
            conn_label: conn_label.to_string(),
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_probe_every),
            cfg,
            client,
            server,
            handlers: Vec::new(),
            journal: ReplayJournal::new(),
            slots: BTreeMap::new(),
            issued_at: BTreeMap::new(),
            acks: Arc::new(Mutex::new(Vec::new())),
            next_seq: 0,
            reconnect_seq: 0,
            counters,
            trace: None,
            flight: None,
            sched: None,
            sched_epoch: Instant::now(),
            policy: None,
            cache: None,
            host: HostDirect::new(),
            lease,
            clock,
            hb_seq: 0,
            dpu_available: true,
            ramp: None,
            death_at_ns: None,
            awaiting_first_host_response: false,
            rejoin_started_ns: None,
        })
    }

    /// Replaces the clock the lease failure detector runs on and
    /// re-grants the lease at the new clock's current time. Install a
    /// [`pbo_trace::VirtualClock`]-backed clock before any traffic to
    /// make lease expiry schedules fully deterministic.
    pub fn set_clock(&mut self, clock: Clock) {
        self.lease = LeaseMonitor::new(self.cfg.lease, clock.now_ns());
        self.clock = clock;
    }

    /// Installs the adaptive per-class offload policy. While the breaker
    /// is closed, each call's route comes from the policy (per
    /// procedure id); successful offloaded deserializations feed their
    /// work-unit counts back as cost observations, and
    /// [`ResilientSession::tick`] drives the control loop. While the
    /// breaker is *open* the policy is neither consulted nor fed —
    /// breaker-forced degrades are not policy decisions — and when the
    /// breaker closes again routing returns to the policy's verdict
    /// rather than unconditionally restoring offload.
    pub fn set_policy(&mut self, mut policy: PolicyEngine) {
        policy.bind_metrics(&self.registry);
        if let Some((t, _)) = &self.trace {
            policy.set_tracer(t, &self.conn_label);
        }
        if let Some((_, f)) = &self.flight {
            policy.bind_flight(f);
        }
        self.policy = Some(policy);
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

    /// Installs a tenant scheduler for [`ResilientSession::call_tenant`]:
    /// per-tenant token buckets shed overload with [`STATUS_SHED`]
    /// *before* the request touches the breaker or the datapath, and the
    /// scheduler's fabric-window observer is attached to the offload
    /// client (and re-attached on every reconnect).
    pub fn set_scheduler(&mut self, sched: TenantScheduler<()>) {
        self.client.rpc().set_credit_observer(sched.fabric());
        self.sched = Some(sched);
    }

    /// Read access to the installed tenant scheduler.
    pub fn scheduler(&self) -> Option<&TenantScheduler<()>> {
        self.sched.as_ref()
    }

    /// Installs the DPU response cache: declared-cachable classes are
    /// looked up before each call touches the breaker, policy, journal,
    /// or the wire, and native-path status-0 responses populate it on
    /// completion. The session flushes it on every breaker trip and
    /// lease failover — the epoch bump those flushes carry is what keeps
    /// journal replays and in-flight responses from repopulating state
    /// the transition meant to drop. Metrics bind to the session's
    /// registry.
    pub fn set_cache(&mut self, cache: ResponseCache) {
        cache.bind_metrics(&self.registry);
        self.cache = Some(cache);
    }

    /// Read access to the installed response cache.
    pub fn cache(&self) -> Option<&ResponseCache> {
        self.cache.as_ref()
    }

    /// Attaches a tracer: both endpoints get the usual per-stage spans,
    /// and the session emits `reconnect` / `degraded` spans on its own
    /// `{conn_label}/session` track.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.client.set_tracer(tracer, &self.conn_label);
        self.server.set_tracer(tracer, &self.conn_label);
        self.trace = if tracer.is_enabled() {
            Some((
                tracer.clone(),
                tracer.sink(&format!("{}/session", self.conn_label)),
            ))
        } else {
            None
        };
        self.flight = tracer.flight().map(|f| (tracer.clone(), f));
    }

    /// Registers a degradable handler (see
    /// [`CompatServer::register_degradable`]); kept for re-registration
    /// on every reconnect.
    pub fn register(&mut self, proc_id: u16, handler: NativeHandler) {
        self.server
            .register_degradable(&self.bundle, proc_id, handler.clone());
        // The same business logic backs the host-only failover datapath,
        // so a dead DPU never takes a procedure out of service.
        self.host.register(&self.bundle, proc_id, handler.clone());
        self.handlers.push((proc_id, handler));
    }

    /// The shared fabric (fault injection, PCIe counters).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
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
        self.slots.len()
    }

    /// True while the offload circuit breaker is open.
    pub fn breaker_is_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// The DPU lease state as of the last poll/event.
    pub fn lease_state(&self) -> LeaseState {
        self.lease.state()
    }

    /// Read access to the lease failure detector.
    pub fn lease(&self) -> &LeaseMonitor {
        &self.lease
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
    /// datapath, replaying the journal exactly-once. Idempotent while
    /// already dead or rejoining.
    pub fn declare_dpu_dead(&mut self) {
        self.enter_dead();
    }

    /// [`ResilientSession::call`] with tenant admission control in front:
    /// when a scheduler is installed ([`ResilientSession::set_scheduler`])
    /// the tenant's token bucket runs first; on overload the continuation
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
            let now_ns = self.sched_epoch.elapsed().as_nanos() as u64;
            if sched.admit(tenant, wire.len() as u32, now_ns).is_err() {
                // Shed: answer this caller with the retryable status and
                // leave the breaker and the datapath untouched.
                let seq = self.next_seq;
                self.next_seq += 1;
                cont(&[], STATUS_SHED);
                return Ok(seq);
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
        let lease = self.lease.state();
        let breaker_open = self.breaker.is_open();
        let now_ns = self.sched_epoch.elapsed().as_nanos() as u64;
        // A hit answers without touching the breaker, the policy's cost
        // estimates, the journal, or the wire — exactly the stages it
        // exists to skip — and is attributed to the cached route.
        if let Some(cache) = self
            .cache
            .as_ref()
            .filter(|_| precedence::may_lookup(lease, breaker_open))
        {
            if let Some((status, payload)) = cache.lookup(tenant, proc_id, wire, now_ns) {
                let seq = self.next_seq;
                self.next_seq += 1;
                if let Some(policy) = &mut self.policy {
                    policy.note_cached(proc_id, now_ns);
                }
                if let Some((t, sink)) = &self.trace {
                    let t_ns = t.now_ns();
                    sink.record(Span {
                        trace_id: seq,
                        stage: stages::CACHE_HIT,
                        start_ns: t_ns,
                        end_ns: t_ns,
                        bytes: wire.len() as u64,
                    });
                }
                cont(&payload, status);
                return Ok(seq);
            }
        }
        let (ramp, breaker, policy) = (&mut self.ramp, &mut self.breaker, &mut self.policy);
        let mut verdict = precedence::route(
            lease,
            breaker_open,
            ForwardMode::Offload,
            || ramp.as_mut().is_some_and(|r| r.probe()),
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
                let (armed, epoch) = (store_armed.clone(), self.sched_epoch);
                Box::new(move |payload, status| {
                    if armed.load(Ordering::Relaxed) {
                        store.on_reply(status, payload, epoch.elapsed().as_nanos() as u64);
                    }
                    cont(payload, status);
                })
            }
            None => cont,
        };
        let seq = self.next_seq;
        let slot: SharedCont = Arc::new(Mutex::new(Some(cont)));
        let start_ns = self.trace.as_ref().map(|(t, _)| t.now_ns());
        let mut native = verdict.fabric == Some(ForwardMode::Offload);
        let mut result = self.enqueue_once(native, proc_id, wire, seq, &slot);
        if native {
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
                        let now_ns = self.sched_epoch.elapsed().as_nanos() as u64;
                        policy.observe_stats(proc_id, &stats, wire.len() as u64, used, now_ns);
                    }
                }
                Err(RpcError::Quarantined(_)) => {
                    // The *message* is poison, not the path: fail exactly
                    // this request with an error response and leave the
                    // breaker alone — a flood of malformed requests must
                    // not push healthy traffic off the offload path.
                    self.counters.quarantined.inc();
                    if let Some((t, f)) = &self.flight {
                        let now = t.now_ns();
                        f.record_mark(seq, triggers::QUARANTINE, now, wire.len() as u64);
                        f.trigger(triggers::QUARANTINE, now);
                    }
                    if let (Some((t, sink)), Some(start_ns)) = (&self.trace, start_ns) {
                        sink.record(Span {
                            trace_id: seq,
                            stage: stages::QUARANTINE,
                            start_ns,
                            end_ns: t.now_ns(),
                            bytes: wire.len() as u64,
                        });
                    }
                    if let Some(cont) = slot.lock().take() {
                        cont(&[], STATUS_QUARANTINED);
                    }
                    self.next_seq += 1;
                    return Ok(seq);
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
                        if let Some((t, f)) = &self.flight {
                            let now = t.now_ns();
                            f.record_mark(seq, triggers::BREAKER_OPEN, now, wire.len() as u64);
                            f.trigger(triggers::BREAKER_OPEN, now);
                        }
                    }
                    if verdict.by == Authority::Ramp {
                        // A failed probe is served host-side and leaves the
                        // ramp where it is.
                        let cont = slot.lock().take().expect("continuation unused on Err");
                        return self.call_host_direct(proc_id, wire, cont);
                    }
                    verdict = Verdict::DEGRADED;
                    native = false;
                    self.counters.degraded_calls.inc();
                    result = self.enqueue_once(false, proc_id, wire, seq, &slot);
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
                self.enter_dead();
                let cont = slot.lock().take().expect("continuation unused on Err");
                return self.call_host_direct(proc_id, wire, cont);
            }
            // A reconnect-class failure during enqueue: recover the
            // connection and try this request once more (it is not yet
            // journaled, so the replay does not cover it). Mid-ramp, a
            // rebuilt connection that wedges fails the rejoin instead.
            if e.retry_class() != RetryClass::Reconnect {
                return Err(e);
            }
            if verdict.by == Authority::Ramp {
                self.enter_dead();
            } else {
                self.reconnect()?;
            }
            if matches!(self.lease.state(), LeaseState::Dead | LeaseState::Rejoining) {
                // The reconnect collapsed into a failover (device gone).
                let cont = slot.lock().take().expect("continuation unused on Err");
                return self.call_host_direct(proc_id, wire, cont);
            }
            self.enqueue_once(native, proc_id, wire, seq, &slot)?;
        }
        if verdict.by == Authority::Breaker {
            // Only breaker-forced host routing is "degraded"; a class
            // the policy routed to host is operating as intended and
            // gets policy metrics/spans instead.
            if let (Some((t, sink)), Some(start_ns)) = (&self.trace, start_ns) {
                sink.record(Span {
                    trace_id: seq,
                    stage: stages::DEGRADED,
                    start_ns,
                    end_ns: t.now_ns(),
                    bytes: wire.len() as u64,
                });
            }
        }
        // Commit the cachability decision: breaker-degraded and
        // policy-routed (host-deserialize) responses never populate.
        store_armed.store(verdict.may_store(), Ordering::Relaxed);
        self.journal.record(JournalEntry {
            seq,
            proc_id,
            payload: wire.to_vec(),
            metadata: vec![if native { MODE_NATIVE } else { MODE_SERIALIZED }],
        });
        self.slots.insert(seq, slot);
        self.issued_at.insert(seq, Instant::now());
        self.next_seq += 1;
        let depth = self.journal.len() as i64;
        self.counters.journal_depth.set(depth);
        self.counters.journal_depth_peak.set_max(depth);
        // An accepted probe is real forward progress on the rebuilt
        // datapath: it halves the ramp stride.
        if verdict.by == Authority::Ramp && self.ramp.as_mut().is_some_and(|r| r.on_probe_success())
        {
            self.complete_rejoin();
        }
        Ok(seq)
    }

    fn enqueue_once(
        &mut self,
        native: bool,
        proc_id: u16,
        wire: &[u8],
        seq: u64,
        slot: &SharedCont,
    ) -> Result<(), RpcError> {
        let cont = make_continuation(&self.acks, seq, slot);
        if native {
            self.client
                .call_offloaded_md(proc_id, wire, &[MODE_NATIVE], cont)
        } else {
            self.client
                .call_forwarded_md(proc_id, wire, &[MODE_SERIALIZED], cont)
        }
    }

    /// Drives both event loops once, absorbing transient failures,
    /// reconnecting on reconnect-class ones, and enforcing the
    /// per-request deadline. Returns responses delivered to this side.
    pub fn tick(&mut self, timeout: Duration) -> Result<usize, RpcError> {
        // Lease renewal: while the device is up it heartbeats with its
        // queue depth and credit occupancy. (The simulation generates the
        // renewals here; a real deployment receives them on the control
        // channel.) A wedged device stops renewing — that silence is the
        // only symptom, and the deadline below converts it to a failover.
        let now_ns = self.clock.now_ns();
        if self.dpu_available
            && matches!(self.lease.state(), LeaseState::Live | LeaseState::Suspect)
        {
            self.hb_seq += 1;
            let hb = Heartbeat {
                seq: self.hb_seq,
                queue_depth: self.slots.len() as u32,
                credits_in_use: self.client.rpc().outstanding() as u32,
            };
            self.lease.on_heartbeat(hb, now_ns);
        }
        self.poll_lease();
        self.counters
            .lease_time_in_state
            .set(self.lease.time_in_state_ns(self.clock.now_ns()) as i64);
        if self.lease.state() == LeaseState::Dead {
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
        if self.dpu_available && self.lease.state() != LeaseState::Dead {
            match self.client.event_loop(Duration::ZERO) {
                Ok(n) => delivered = n,
                Err(e) => self.absorb(e)?,
            }
        }
        self.drain_acks();
        if self.lease.state() == LeaseState::Dead {
            // An event loop just observed the device death; the failover
            // already replayed and answered everything outstanding.
            return Ok(delivered);
        }
        if let Some(policy) = &mut self.policy {
            // Drive the control loop: scrape pressure signals (throttled
            // internally) and re-evaluate routes.
            let now_ns = self.sched_epoch.elapsed().as_nanos() as u64;
            policy.refresh_signals(now_ns);
        }
        if let Some(deadline) = self.cfg.request_deadline {
            let oldest_expired = self
                .issued_at
                .values()
                .next()
                .is_some_and(|t| t.elapsed() > deadline);
            if oldest_expired {
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
            self.enter_dead();
            return Ok(());
        }
        match e.retry_class() {
            RetryClass::Transient => Ok(()),
            RetryClass::Reconnect => self.reconnect(),
            RetryClass::Fatal => Err(e),
        }
    }

    /// Time-driven lease transitions; a deadline crossing fails over.
    fn poll_lease(&mut self) {
        let now_ns = self.clock.now_ns();
        let prev = self.lease.state();
        let cur = self.lease.poll(now_ns);
        if cur == prev {
            return;
        }
        self.counters.lease_state.set(cur.gauge_code() as i64);
        if cur == LeaseState::Dead {
            self.fail_over(now_ns);
        }
    }

    /// Declares death (from error-path evidence) and fails over.
    /// Idempotent while already dead or rejoining — except that a death
    /// observed *during* a rejoin aborts the rejoin back to host-only.
    fn enter_dead(&mut self) {
        let now_ns = self.clock.now_ns();
        match self.lease.state() {
            LeaseState::Dead => return,
            LeaseState::Rejoining => {
                // Second crash mid-rejoin: back to host-only service. The
                // failover below recovers whatever the ramp had in flight.
                self.lease.abort_rejoin(now_ns);
                self.ramp = None;
                self.rejoin_started_ns = None;
            }
            LeaseState::Live | LeaseState::Suspect => {
                self.lease.declare_dead(now_ns);
            }
        }
        self.counters
            .lease_state
            .set(LeaseState::Dead.gauge_code() as i64);
        self.fail_over(now_ns);
    }

    /// The whole-connection failover: flip to host-only service and
    /// recover every in-flight request exactly-once.
    fn fail_over(&mut self, now_ns: u64) {
        self.counters.failovers.inc();
        // Flush before the journal replay below: the epoch bump makes
        // every store wrapper issued before this failover stale, so
        // replayed (host-served) responses can never repopulate the
        // cache — the no-double-populate rule.
        precedence::flush_on_fault(self.cache.as_ref());
        if self.death_at_ns.is_none() {
            // First death of this outage (a crash mid-rejoin keeps the
            // original death time so MTTR spans the whole outage).
            self.death_at_ns = Some(now_ns);
        }
        self.awaiting_first_host_response = true;
        if let Some((t, f)) = &self.flight {
            let tnow = t.now_ns();
            f.record_mark(self.lease.deaths(), triggers::DPU_DEAD, tnow, 0);
            f.trigger(triggers::DPU_DEAD, tnow);
        }
        if let Some((_, sink)) = &self.trace {
            // Detection latency: last accepted renewal → declaration.
            sink.record(Span {
                trace_id: self.lease.deaths(),
                stage: stages::LEASE_WAIT,
                start_ns: self.lease.last_renewal_ns(),
                end_ns: now_ns,
                bytes: 0,
            });
        }
        // Invalidate the DPU credit window: blocks posted to a dead
        // device will never be acknowledged.
        if let Some(sched) = &self.sched {
            sched.fabric().reset();
        }
        // Replay the journal through the host-only datapath, oldest
        // first. Continuation slots make this exactly-once client-side
        // even when the dead DPU's host already executed the handler
        // (at-least-once server-side, as everywhere else).
        self.drain_acks();
        let entries: Vec<JournalEntry> = self.journal.live().cloned().collect();
        let mut replayed = 0u64;
        for entry in &entries {
            let Some(slot) = self.slots.get(&entry.seq).cloned() else {
                continue;
            };
            let cont = make_continuation(&self.acks, entry.seq, &slot);
            self.dispatch_host(entry.proc_id, &entry.payload, cont);
            replayed += 1;
        }
        self.counters.replays.inc_by(replayed);
        self.drain_acks();
        if let Some((_, sink)) = &self.trace {
            sink.record(Span {
                trace_id: self.lease.deaths(),
                stage: stages::FAILOVER,
                start_ns: now_ns,
                end_ns: self.clock.now_ns(),
                bytes: replayed,
            });
        }
    }

    /// Runs one request on the host-only datapath and fires `cont`
    /// exactly once. Quarantine keeps its per-request semantics.
    fn dispatch_host(&mut self, proc_id: u16, wire: &[u8], cont: Continuation) {
        self.counters.host_only.inc();
        let mut out = Vec::new();
        match self.host.dispatch(proc_id, wire, &mut out) {
            Ok(status) => {
                cont(&out, status);
                self.note_host_response();
            }
            Err(RpcError::Quarantined(_)) => {
                self.counters.quarantined.inc();
                cont(&[], STATUS_QUARANTINED);
                self.note_host_response();
            }
            Err(e) => {
                // Unregistered procedure on the failover path: the
                // request cannot be served anywhere. Surface it as the
                // gRPC UNIMPLEMENTED status rather than losing the
                // continuation.
                debug_assert!(matches!(e, RpcError::NoSuchProcedure(_)));
                cont(&[], 12);
            }
        }
    }

    /// Records the first host-served response after a death declaration
    /// (the failover-latency histogram's sample).
    fn note_host_response(&mut self) {
        if !self.awaiting_first_host_response {
            return;
        }
        self.awaiting_first_host_response = false;
        if let Some(death) = self.death_at_ns {
            self.counters
                .failover_latency
                .observe(self.clock.now_ns().saturating_sub(death) as f64);
        }
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

    /// Starts a warm rejoin: re-establishes the connection (the ADT
    /// control blob is re-shipped and its layout digests re-verified,
    /// exactly like first contact), re-syncs the credit window and
    /// scheduler observer, and begins the traffic ramp. No-op unless the
    /// lease is Dead. With `auto_rejoin` (the default) this runs from
    /// [`ResilientSession::tick`] as soon as the device is back.
    pub fn rejoin_dpu(&mut self) -> Result<(), RpcError> {
        let now_ns = self.clock.now_ns();
        if !self.lease.begin_rejoin(now_ns) {
            return Ok(());
        }
        self.counters
            .lease_state
            .set(LeaseState::Rejoining.gauge_code() as i64);
        self.rejoin_started_ns = Some(now_ns);
        match self.rebuild() {
            Ok(replayed) => {
                self.counters.replays.inc_by(replayed);
                self.ramp = Some(RejoinRamp::new(self.cfg.rejoin_probe_stride));
                Ok(())
            }
            Err(e) => {
                // Handshake failed (often: the device died again while
                // the ADT was being re-shipped). Back to host-only; the
                // next tick retries.
                self.lease.abort_rejoin(self.clock.now_ns());
                self.counters
                    .lease_state
                    .set(LeaseState::Dead.gauge_code() as i64);
                self.rejoin_started_ns = None;
                if e.retry_class() == RetryClass::Fatal {
                    Err(e)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The ramp finished: full offload service is restored.
    fn complete_rejoin(&mut self) {
        let now_ns = self.clock.now_ns();
        self.lease.complete_rejoin(now_ns);
        self.ramp = None;
        self.hb_seq = 0; // new device incarnation restarts its sequence
        self.counters.rejoins.inc();
        self.counters
            .lease_state
            .set(LeaseState::Live.gauge_code() as i64);
        if let Some(death) = self.death_at_ns.take() {
            self.counters
                .mttr
                .observe(now_ns.saturating_sub(death) as f64);
        }
        self.awaiting_first_host_response = false;
        if let Some((t, f)) = &self.flight {
            let tnow = t.now_ns();
            f.record_mark(self.lease.rejoins(), triggers::REJOIN, tnow, 0);
            f.trigger(triggers::REJOIN, tnow);
        }
        if let (Some((_, sink)), Some(start_ns)) = (&self.trace, self.rejoin_started_ns.take()) {
            sink.record(Span {
                trace_id: self.lease.rejoins(),
                stage: stages::REJOIN,
                start_ns,
                end_ns: now_ns,
                bytes: 0,
            });
        }
    }

    fn drain_acks(&mut self) {
        let acked: Vec<u64> = std::mem::take(&mut *self.acks.lock());
        for seq in acked {
            self.journal.acknowledge(seq);
            self.slots.remove(&seq);
            self.issued_at.remove(&seq);
        }
        self.counters.journal_depth.set(self.journal.len() as i64);
    }

    /// Tears the connection down, re-establishes it (bounded attempts,
    /// linear backoff), and replays every unacknowledged request in
    /// original order. Public so operators can force a failover.
    pub fn reconnect(&mut self) -> Result<(), RpcError> {
        if !self.dpu_available {
            // There is no device to re-establish against: what looked
            // like a connection failure is a whole-DPU death. Fail over
            // instead (journal replayed host-side, exactly-once).
            self.enter_dead();
            return Ok(());
        }
        self.drain_acks();
        self.counters.reconnects.inc();
        self.reconnect_seq += 1;
        if let Some((t, f)) = &self.flight {
            let now = t.now_ns();
            f.record_mark(self.reconnect_seq, triggers::RECONNECT, now, 0);
            f.trigger(triggers::RECONNECT, now);
        }
        let start_ns = self.trace.as_ref().map(|(t, _)| t.now_ns());
        let mut last = RpcError::Stalled { waited_ms: 0 };
        for attempt in 1..=self.cfg.reconnect_max_attempts.max(1) {
            match self.rebuild() {
                Ok(replayed) => {
                    self.counters.replays.inc_by(replayed);
                    if let (Some((t, sink)), Some(start_ns)) = (&self.trace, start_ns) {
                        sink.record(Span {
                            trace_id: self.reconnect_seq,
                            stage: stages::RECONNECT,
                            start_ns,
                            end_ns: t.now_ns(),
                            bytes: 0,
                        });
                    }
                    // Replayed work gets a fresh deadline.
                    let now = Instant::now();
                    for t in self.issued_at.values_mut() {
                        *t = now;
                    }
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

    /// One re-establishment attempt: fresh endpoints (ADT re-shipped and
    /// re-verified), handlers re-registered, journal replayed.
    fn rebuild(&mut self) -> Result<u64, RpcError> {
        let ep = try_establish(
            &self.fabric,
            self.client_cfg,
            self.server_cfg,
            &self.registry,
            &self.conn_label,
            Some(&self.adt_bytes),
        )?;
        let mut client =
            OffloadClient::new(ep.client, self.bundle.clone(), ep.control_blob.as_deref())
                .map_err(|e| RpcError::Desync(e.to_string()))?;
        client.rpc().set_retry_policy(self.cfg.retry);
        client.bind_metrics(&self.registry, &self.conn_label);
        // Chaos knobs survive the rebuild: forced offload failures that
        // have not fired yet move to the fresh client, so deterministic
        // test schedules cannot be wiped by a surprise reconnect.
        let forced = self.client.pending_forced_failures();
        if forced > 0 {
            client.inject_offload_failures(forced);
        }
        let mut server = CompatServer::new(ep.server, PayloadMode::Native);
        server.rpc().set_retry_policy(self.cfg.retry);
        server.bind_metrics(&self.registry, &self.conn_label);
        if let Some((t, _)) = &self.trace {
            client.set_tracer(t, &self.conn_label);
            server.set_tracer(t, &self.conn_label);
        }
        for (proc_id, handler) in &self.handlers {
            server.register_degradable(&self.bundle, *proc_id, handler.clone());
        }
        self.client = client;
        self.server = server;
        if let Some(sched) = &self.sched {
            // The fresh client knows nothing of the scheduler: re-attach
            // the fabric-window observer so borrowing keeps tracking real
            // credit consumption across reconnects.
            self.client.rpc().set_credit_observer(sched.fabric());
        }

        // Replay unacknowledged requests, oldest first. The server may
        // re-execute a handler whose response was lost in the old
        // connection — at-least-once server-side — but each caller's
        // continuation slot fires exactly once.
        let entries: Vec<JournalEntry> = self.journal.live().cloned().collect();
        let mut replayed = 0u64;
        for entry in &entries {
            let Some(slot) = self.slots.get(&entry.seq).cloned() else {
                continue;
            };
            let native = entry.metadata.first().copied() != Some(MODE_SERIALIZED);
            let mut pumps = 0u32;
            loop {
                let cont = make_continuation(&self.acks, entry.seq, &slot);
                let res = if native {
                    self.client.call_offloaded_md(
                        entry.proc_id,
                        &entry.payload,
                        &entry.metadata,
                        cont,
                    )
                } else {
                    self.client.call_forwarded_md(
                        entry.proc_id,
                        &entry.payload,
                        &entry.metadata,
                        cont,
                    )
                };
                match res {
                    Ok(()) => {
                        replayed += 1;
                        break;
                    }
                    Err(e) if e.retry_class() == RetryClass::Transient => {
                        // Backpressure: the journal can hold more than one
                        // connection's worth of credits. Drive both loops
                        // so responses recycle blocks, then retry.
                        pumps += 1;
                        if pumps > 10_000 {
                            return Err(e);
                        }
                        self.server.event_loop(Duration::ZERO)?;
                        self.client.event_loop(Duration::ZERO)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(replayed)
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
