//! Deterministic crash-schedule explorer for the DPU failure domain.
//!
//! The explorer enumerates a crash at every datapath stage a request can
//! be occupying when the DPU dies — from xRPC termination all the way to
//! response delivery — crossed with every recovery phase the connection
//! can be in (steady offload, mid-rejoin, after a completed recovery),
//! and checks the recovery invariants on each schedule:
//!
//! 1. **Exactly-once**: every accepted request's continuation fires
//!    exactly once, across failover replay and warm rejoin (server-side
//!    business logic stays at-least-once, as documented on
//!    [`crate::ResilientSession`]).
//! 2. **Bounded failover latency**: the lease declares the device Dead
//!    within its deadline (`interval × miss_threshold`) plus one
//!    explorer step of *virtual* time, in every phase — loud deaths are
//!    immediate, silent wedges are caught by the deadline machinery.
//! 3. **Full recovery**: after the device restarts, the warm rejoin
//!    returns the lease to Live and traffic to the offload path.
//!
//! Everything runs on a [`VirtualClock`], so schedules are fully
//! deterministic: the same `(stage, phase)` always exercises the same
//! interleaving, with no dependence on wall-clock scheduling.
//!
//! ## Stage windows
//!
//! The simulation's datapath stages map onto crash *windows* — the point
//! in a victim request's lifecycle at which the device dies:
//!
//! | stage | window |
//! |---|---|
//! | `terminate` | device wedges before the request enters the datapath |
//! | `deserialize` | loud death armed before enqueue: fires at the first fabric op after in-place deserialization |
//! | `block_build` | device wedges with the request built into an unsent block |
//! | `credit_wait` | device wedges while requests are backed up on the credit window |
//! | `rdma_write` | loud death on the block's RDMA write |
//! | `dma` | device wedges after the write completes, before host placement |
//! | `host_dispatch` | loud death on the response send — business logic ran, response lost |
//! | `response` | device wedges with the response delivered but undrained |

use crate::service::ServiceSchema;
use crate::session::{ResilientSession, SessionConfig, SessionLayers};
use pbo_metrics::Registry;
use pbo_protowire::encode_message;
use pbo_protowire::workloads::{gen_char_array, gen_small, paper_schema, Mt19937};
use pbo_rpcrdma::{Config, LeaseConfig, LeaseState, RpcError};
use pbo_simnet::{Fabric, FaultKind};
use pbo_trace::{Clock, VirtualClock};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The datapath stage a scheduled crash lands in (§ stage windows above).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashStage {
    /// Before the victim request enters the datapath.
    Terminate,
    /// During/just after DPU-side in-place deserialization.
    Deserialize,
    /// With the victim built into a not-yet-shipped block.
    BlockBuild,
    /// While requests are queued behind the credit window.
    CreditWait,
    /// On the block's RDMA write itself.
    RdmaWrite,
    /// After the write, before host-side placement/dispatch.
    Dma,
    /// After host dispatch, on the response send.
    HostDispatch,
    /// With the response delivered into the recv queue but undrained.
    Response,
}

impl CrashStage {
    /// Every stage, in datapath order.
    pub const ALL: [CrashStage; 8] = [
        CrashStage::Terminate,
        CrashStage::Deserialize,
        CrashStage::BlockBuild,
        CrashStage::CreditWait,
        CrashStage::RdmaWrite,
        CrashStage::Dma,
        CrashStage::HostDispatch,
        CrashStage::Response,
    ];

    /// Stable label (matches the trace-stage vocabulary where one exists).
    pub fn name(self) -> &'static str {
        match self {
            CrashStage::Terminate => "terminate",
            CrashStage::Deserialize => "deserialize",
            CrashStage::BlockBuild => "block_build",
            CrashStage::CreditWait => "credit_wait",
            CrashStage::RdmaWrite => "rdma_write",
            CrashStage::Dma => "dma",
            CrashStage::HostDispatch => "host_dispatch",
            CrashStage::Response => "response",
        }
    }
}

/// The recovery phase the connection is in when the crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Healthy steady-state offload.
    Steady,
    /// Mid-rejoin: a previous outage's warm rejoin is still ramping
    /// (the crash-during-recovery case).
    Rejoining,
    /// After a full crash → failover → rejoin cycle has completed (the
    /// repeated-outage case).
    PostRecovery,
}

impl RecoveryPhase {
    /// Every phase.
    pub const ALL: [RecoveryPhase; 3] = [
        RecoveryPhase::Steady,
        RecoveryPhase::Rejoining,
        RecoveryPhase::PostRecovery,
    ];

    /// Stable label.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Steady => "steady",
            RecoveryPhase::Rejoining => "rejoining",
            RecoveryPhase::PostRecovery => "post_recovery",
        }
    }
}

/// The verdict of one schedule.
#[derive(Debug)]
pub struct CrashOutcome {
    /// The stage the crash was scheduled into.
    pub stage: CrashStage,
    /// The recovery phase the crash fired in.
    pub phase: RecoveryPhase,
    /// Requests accepted by the session over the whole schedule.
    pub issued: u64,
    /// Accepted requests whose continuation never fired (must be empty).
    pub lost: Vec<u64>,
    /// Accepted requests whose continuation fired more than once (must
    /// be empty).
    pub duplicated: Vec<u64>,
    /// Virtual nanoseconds from the crash to the lease declaring Dead.
    pub detect_latency_ns: u64,
    /// The stated bound on `detect_latency_ns` for this schedule.
    pub latency_bound_ns: u64,
    /// Whether the lease returned to Live with all traffic settled.
    pub recovered: bool,
    /// `session_failovers_total` at the end of the schedule.
    pub failovers: u64,
    /// `session_rejoins_total` at the end of the schedule.
    pub rejoins: u64,
    /// Non-fatal observations (e.g. backpressure never surfaced for the
    /// credit-wait window under this config).
    pub notes: Vec<String>,
}

impl CrashOutcome {
    /// Panics unless every recovery invariant held.
    pub fn verify(&self) {
        let tag = format!("[{}/{}]", self.stage.name(), self.phase.name());
        assert!(
            self.lost.is_empty(),
            "{tag} lost requests {:?} (of {} issued)",
            self.lost,
            self.issued
        );
        assert!(
            self.duplicated.is_empty(),
            "{tag} duplicated responses {:?}",
            self.duplicated
        );
        assert!(
            self.detect_latency_ns <= self.latency_bound_ns,
            "{tag} failover detection took {}ns, bound {}ns",
            self.detect_latency_ns,
            self.latency_bound_ns
        );
        assert!(self.recovered, "{tag} never recovered to Live");
        assert!(self.failovers >= 1, "{tag} no failover recorded");
        assert!(self.rejoins >= 1, "{tag} no rejoin recorded");
    }
}

/// The explorer: owns the schedule parameters (all virtual time).
#[derive(Clone, Debug)]
pub struct CrashLab {
    /// Lease the sessions run under (virtual-time durations).
    pub lease: LeaseConfig,
    /// Virtual nanoseconds the driver advances per tick.
    pub step_ns: u64,
}

impl Default for CrashLab {
    fn default() -> Self {
        Self {
            lease: LeaseConfig {
                interval: Duration::from_millis(1),
                miss_threshold: 2,
            },
            step_ns: 1_000_000,
        }
    }
}

impl CrashLab {
    /// The full crash matrix: every stage × every phase.
    pub fn schedules() -> Vec<(CrashStage, RecoveryPhase)> {
        let mut v = Vec::new();
        for phase in RecoveryPhase::ALL {
            for stage in CrashStage::ALL {
                v.push((stage, phase));
            }
        }
        v
    }

    /// The lease deadline in virtual nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.lease.deadline().as_nanos() as u64
    }

    /// The stated detection-latency bound, the same in every phase: one
    /// lease deadline plus one driver step. Mid-rejoin the renewal silence
    /// is not observable (the lease is not being renewed to begin with),
    /// but the stranded probe's age is, by ticks alone.
    pub fn latency_bound_ns(&self) -> u64 {
        self.deadline_ns() + self.step_ns
    }

    /// Runs every schedule and returns the outcomes (does not panic;
    /// call [`CrashOutcome::verify`] per outcome to assert).
    pub fn explore_all(&self) -> Vec<CrashOutcome> {
        Self::schedules()
            .into_iter()
            .map(|(stage, phase)| self.run(stage, phase))
            .collect()
    }

    /// Runs one schedule on a fresh fabric/session pair.
    pub fn run(&self, stage: CrashStage, phase: RecoveryPhase) -> CrashOutcome {
        let mut run = Run::new(self);
        run.warmup();
        match phase {
            RecoveryPhase::Steady => {}
            RecoveryPhase::Rejoining => run.enter_rejoining(),
            RecoveryPhase::PostRecovery => {
                run.enter_rejoining();
                run.recover();
                run.settle();
            }
        }
        let crash_ns = run.inject(stage, phase);
        let detect_ns = run.await_death();
        run.recover();
        run.settle();
        // Post-recovery service check: fresh traffic completes on a Live
        // lease.
        for _ in 0..4 {
            run.feed_small();
        }
        run.settle();
        run.outcome(
            stage,
            phase,
            detect_ns.saturating_sub(crash_ns),
            self.latency_bound_ns(),
        )
    }
}

/// One schedule's driver state.
struct Run {
    session: ResilientSession,
    registry: Arc<Registry>,
    vc: VirtualClock,
    now_ns: u64,
    step_ns: u64,
    counts: Arc<Mutex<BTreeMap<u64, u32>>>,
    next_id: u64,
    issued: u64,
    small: Vec<u8>,
    big: Vec<u8>,
    notes: Vec<String>,
}

/// Label every lab session binds its metrics under.
const CONN: &str = "lab";

impl Run {
    fn new(lab: &CrashLab) -> Self {
        let bundle = ServiceSchema::paper_bench();
        let fabric = Fabric::new();
        let registry = Arc::new(Registry::new());
        let cfg = SessionConfig {
            lease: lab.lease,
            rejoin_probe_stride: 2,
            auto_rejoin: true,
            ..SessionConfig::default()
        };
        let vc = VirtualClock::new();
        let layers = SessionLayers {
            clock: Clock::virtual_from(&vc),
            ..SessionLayers::default()
        };
        let mut session = ResilientSession::with_layers(
            fabric,
            bundle,
            Config::test_small(),
            Config::test_small(),
            registry.clone(),
            CONN,
            cfg,
            layers,
        )
        .expect("establishment on a fresh fabric");
        session.register(1, Arc::new(|_view, _out| 0));
        session.register(3, Arc::new(|_view, _out| 0));
        let schema = paper_schema();
        let mut rng = Mt19937::new(7);
        Self {
            session,
            registry,
            vc,
            now_ns: 0,
            step_ns: lab.step_ns,
            counts: Arc::new(Mutex::new(BTreeMap::new())),
            next_id: 0,
            issued: 0,
            small: encode_message(&gen_small(&schema)),
            big: encode_message(&gen_char_array(&schema, &mut rng, 300)),
            notes: Vec::new(),
        }
    }

    fn advance(&mut self) {
        self.now_ns += self.step_ns;
        self.vc.set_ns(self.now_ns);
    }

    fn tick(&mut self) {
        self.session
            .tick(Duration::from_millis(1))
            .expect("lab schedules never exhaust the reconnect budget");
    }

    /// Issues one request; `Ok` means accepted (its continuation must
    /// fire exactly once, ever).
    fn try_issue(&mut self, proc_id: u16, big: bool) -> Result<u64, RpcError> {
        let id = self.next_id;
        let counts = self.counts.clone();
        let wire = if big {
            self.big.clone()
        } else {
            self.small.clone()
        };
        let cont: pbo_rpcrdma::client::Continuation = Box::new(move |_payload, _status| {
            *counts.lock().unwrap().entry(id).or_insert(0) += 1;
        });
        self.session.call(proc_id, &wire, cont)?;
        self.next_id += 1;
        self.issued += 1;
        Ok(id)
    }

    /// Issues one small request, absorbing transient backpressure with
    /// driver steps.
    fn feed_small(&mut self) {
        for _ in 0..16 {
            match self.try_issue(1, false) {
                Ok(_) => return,
                Err(
                    RpcError::NoCredits | RpcError::SendBufferFull | RpcError::TooManyOutstanding,
                ) => {
                    self.advance();
                    self.tick();
                }
                Err(e) => panic!("lab feeder call failed: {e}"),
            }
        }
        panic!("backpressure never cleared for a lab feeder call");
    }

    /// Steady-state warmup: a few offloaded round trips.
    fn warmup(&mut self) {
        for _ in 0..4 {
            self.feed_small();
        }
        self.settle();
        assert_eq!(self.session.lease_state(), LeaseState::Live);
    }

    /// Drives the session until nothing is outstanding (bounded).
    fn settle(&mut self) {
        for _ in 0..256 {
            if self.session.outstanding() == 0 {
                return;
            }
            self.advance();
            self.tick();
        }
        self.notes.push("settle budget exhausted".into());
    }

    /// Brings the session into a mid-rejoin handshake: wedge → lease
    /// death → device restart → rejoin begun but not yet completed.
    fn enter_rejoining(&mut self) {
        self.tick();
        self.session.crash_dpu();
        self.await_death();
        self.session.restart_dpu();
        self.advance();
        self.tick();
        assert_eq!(self.session.lease_state(), LeaseState::Rejoining);
        // One host-direct call so the ramp's *next* call is the probe
        // that rides the DPU path — stage windows then land on a probe.
        self.feed_small();
    }

    /// Schedules the crash for `stage` and returns the virtual time it
    /// fired at.
    fn inject(&mut self, stage: CrashStage, phase: RecoveryPhase) -> u64 {
        // Renew the lease at the crash instant so detection latency is
        // measured against a fresh renewal, the worst case.
        self.tick();
        match stage {
            CrashStage::Terminate => {
                self.session.crash_dpu();
                let _ = self.try_issue(1, false);
            }
            CrashStage::Deserialize => {
                self.session
                    .fabric()
                    .faults()
                    .fail_nth(0, FaultKind::DpuCrash);
                let _ = self.try_issue(1, false);
            }
            CrashStage::BlockBuild => {
                let _ = self.try_issue(1, false);
                self.session.crash_dpu();
            }
            CrashStage::CreditWait => {
                let mut backpressured = false;
                for _ in 0..32 {
                    match self.try_issue(3, true) {
                        Ok(_) => {}
                        Err(
                            RpcError::NoCredits
                            | RpcError::SendBufferFull
                            | RpcError::TooManyOutstanding,
                        ) => {
                            backpressured = true;
                            break;
                        }
                        Err(e) => panic!("credit_wait victim failed: {e}"),
                    }
                }
                if !backpressured {
                    self.notes
                        .push("credit_wait: window never exhausted under this config".into());
                }
                self.session.crash_dpu();
            }
            CrashStage::RdmaWrite => {
                let _ = self.try_issue(1, false);
                self.session
                    .fabric()
                    .faults()
                    .fail_nth(0, FaultKind::DpuCrash);
            }
            CrashStage::Dma => {
                let _ = self.try_issue(1, false);
                let _ = self
                    .session
                    .client_mut()
                    .event_loop(Duration::from_millis(1));
                self.session.crash_dpu();
            }
            CrashStage::HostDispatch => {
                let _ = self.try_issue(1, false);
                let _ = self
                    .session
                    .client_mut()
                    .event_loop(Duration::from_millis(1));
                self.session
                    .fabric()
                    .faults()
                    .fail_nth(0, FaultKind::DpuCrash);
                let served = self
                    .session
                    .server_mut()
                    .event_loop(Duration::from_millis(1));
                match served {
                    Err(e) if e.is_dpu_death() => self.session.declare_dpu_dead(),
                    Ok(_) => {
                        // The armed fault missed the response send (e.g.
                        // the victim rode the host path mid-rejoin);
                        // declare on external evidence, as an operator
                        // would.
                        self.notes.push(format!(
                            "host_dispatch/{}: fault not consumed by the response send",
                            phase.name()
                        ));
                        self.session.declare_dpu_dead();
                    }
                    Err(e) => panic!("host_dispatch server loop failed oddly: {e}"),
                }
            }
            CrashStage::Response => {
                let _ = self.try_issue(1, false);
                let _ = self
                    .session
                    .client_mut()
                    .event_loop(Duration::from_millis(1));
                let _ = self
                    .session
                    .server_mut()
                    .event_loop(Duration::from_millis(1));
                self.session.crash_dpu();
            }
        }
        self.now_ns
    }

    /// Advances virtual time until the lease is Dead (loud deaths are
    /// already there; wedges need the deadline to pass, on the renewal
    /// silence or — mid-rejoin — on the stranded probe's age). Returns the
    /// detection time.
    fn await_death(&mut self) -> u64 {
        for _ in 0..64 {
            if self.session.lease_state() == LeaseState::Dead {
                return self.now_ns;
            }
            self.advance();
            self.tick();
        }
        self.notes.push("death never detected".into());
        self.now_ns
    }

    /// Restarts the device and drives the warm rejoin to completion.
    fn recover(&mut self) {
        self.session.restart_dpu();
        for _ in 0..256 {
            if self.session.lease_state() == LeaseState::Live {
                return;
            }
            self.advance();
            self.tick();
            // Ramp feeder: rejoin probes ride real traffic.
            if matches!(
                self.session.lease_state(),
                LeaseState::Rejoining | LeaseState::Dead
            ) {
                let _ = self.try_issue(1, false);
            }
        }
        self.notes.push("recovery budget exhausted".into());
    }

    fn outcome(
        self,
        stage: CrashStage,
        phase: RecoveryPhase,
        detect_latency_ns: u64,
        latency_bound_ns: u64,
    ) -> CrashOutcome {
        let counts = self.counts.lock().unwrap();
        let mut lost = Vec::new();
        let mut duplicated = Vec::new();
        for id in 0..self.next_id {
            match counts.get(&id).copied().unwrap_or(0) {
                0 => lost.push(id),
                1 => {}
                _ => duplicated.push(id),
            }
        }
        let labels = [("conn", CONN)];
        CrashOutcome {
            stage,
            phase,
            issued: self.issued,
            lost,
            duplicated,
            detect_latency_ns,
            latency_bound_ns,
            recovered: self.session.lease_state() == LeaseState::Live
                && self.session.outstanding() == 0,
            failovers: self
                .registry
                .counter_value("session_failovers_total", &labels)
                .unwrap_or(0),
            rejoins: self
                .registry
                .counter_value("session_rejoins_total", &labels)
                .unwrap_or(0),
            notes: self.notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_stage_and_phase() {
        let schedules = CrashLab::schedules();
        assert_eq!(
            schedules.len(),
            CrashStage::ALL.len() * RecoveryPhase::ALL.len()
        );
        for stage in CrashStage::ALL {
            assert!(schedules.iter().filter(|(s, _)| *s == stage).count() == 3);
        }
    }

    #[test]
    fn steady_wedge_at_block_build_recovers_exactly_once() {
        let lab = CrashLab::default();
        let out = lab.run(CrashStage::BlockBuild, RecoveryPhase::Steady);
        out.verify();
        assert!(out.issued >= 8);
    }

    #[test]
    fn steady_loud_death_on_rdma_write_is_detected_immediately() {
        let lab = CrashLab::default();
        let out = lab.run(CrashStage::RdmaWrite, RecoveryPhase::Steady);
        out.verify();
        // Loud deaths short-circuit the deadline: detection within one
        // driver step.
        assert!(out.detect_latency_ns <= lab.step_ns);
    }
}
