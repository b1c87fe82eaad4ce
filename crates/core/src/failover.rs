//! The DPU failure domain: when the DPU is dead, what happens to what was
//! in flight, and when it is trusted again (DESIGN.md §13, "Failure-domain
//! engine"). One state machine, used by both connections that put the DPU
//! in their datapath — [`crate::ResilientSession`] and the terminator's
//! poll loop under its HA layer.
//!
//! A [`FailureDomain`] owns the [`LeaseMonitor`], the heartbeat sequence,
//! the rejoin ramp, the journal of in-flight entries and the outage
//! bookkeeping, and binds the recovery metrics once under the caller's
//! prefix. What an entry *is* (`T`), how it is answered on the host, and
//! everything else a death implies for the caller (cache flush, credit
//! window reset, dropping the dead client, reconnecting) stay with the
//! caller.
//!
//! The two detection rules ([`FailureDomain::poll`]) and the replay
//! semantics of a drain — at-least-once host-side, exactly-once
//! caller-side — are stated once, in DESIGN.md §13.

use pbo_metrics::{Counter, Gauge, Histogram, Registry};
use pbo_rpcrdma::{Heartbeat, LeaseConfig, LeaseMonitor, LeaseState};
use std::collections::BTreeMap;

/// Traffic ramp for a warm rejoin: every `stride`-th request probes the
/// rebuilt DPU datapath; each accepted probe halves the stride (rounding
/// up), so confidence compounds geometrically and full offload resumes
/// after ⌈log₂ stride⌉ accepted probes (at least one). A probe that fails
/// leaves the stride where it is — the host carries the rest of the
/// traffic either way.
#[derive(Debug)]
struct RejoinRamp {
    stride: u32,
    since_probe: u32,
}

impl RejoinRamp {
    fn new(stride: u32) -> Self {
        Self {
            stride: stride.max(1),
            since_probe: 0,
        }
    }

    /// Whether the next request should probe the DPU datapath.
    fn probe(&mut self) -> bool {
        self.since_probe += 1;
        if self.since_probe >= self.stride {
            self.since_probe = 0;
            true
        } else {
            false
        }
    }

    /// Records an accepted probe; `true` when the ramp is done.
    fn on_probe_success(&mut self) -> bool {
        self.stride = self.stride.div_ceil(2);
        self.stride <= 1
    }
}

/// The metric family a caller's engine binds. The names predate the
/// engine and are kept: everything but the host-served counter is
/// `{prefix}_…`.
#[derive(Clone, Copy)]
pub(crate) struct MetricNames {
    prefix: &'static str,
    host_served: &'static str,
}

impl MetricNames {
    /// [`crate::ResilientSession`]'s family.
    pub(crate) const SESSION: Self = Self {
        prefix: "session",
        host_served: "session_host_only_calls_total",
    };
    /// The terminator HA layer's family.
    pub(crate) const TERMINATOR: Self = Self {
        prefix: "terminator",
        host_served: "terminator_host_served_total",
    };
}

/// Nanosecond-scale latency buckets shared by the failover and MTTR
/// histograms: 10 µs … 10 s, roughly half-decade steps.
const RECOVERY_NS_BOUNDS: &[f64] = &[1e4, 1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9, 1e10];

struct Metrics {
    failovers: Counter,
    rejoins: Counter,
    replayed: Counter,
    host_served: Counter,
    lease_state: Gauge,
    lease_time_in_state: Gauge,
    failover_latency: Histogram,
    mttr: Histogram,
}

impl Metrics {
    fn bind(registry: &Registry, names: MetricNames, conn: &str) -> Self {
        let l = [("conn", conn)];
        let name = |suffix: &str| format!("{}_{suffix}", names.prefix);
        Self {
            failovers: registry.counter(
                &name("failovers_total"),
                "Whole-connection failovers to the host-only datapath (DPU declared dead)",
                &l,
            ),
            rejoins: registry.counter(
                &name("rejoins_total"),
                "Completed warm rejoins (full offload service restored)",
                &l,
            ),
            replayed: registry.counter(
                &name("replayed_requests_total"),
                "In-flight requests replayed after a DPU death or a reconnect",
                &l,
            ),
            host_served: registry.counter(
                names.host_served,
                "Requests served entirely by the host-direct datapath",
                &l,
            ),
            lease_state: registry.gauge(
                &name("lease_state"),
                "DPU lease state: 0=live 1=suspect 2=dead 3=rejoining",
                &l,
            ),
            lease_time_in_state: registry.gauge(
                &name("lease_time_in_state_ns"),
                "Nanoseconds the lease has spent in its current state",
                &l,
            ),
            failover_latency: registry.histogram(
                &name("failover_latency_ns"),
                "DPU-death declaration to first host-served response, nanoseconds",
                &l,
                RECOVERY_NS_BOUNDS,
            ),
            mttr: registry.histogram(
                &name("mttr_ns"),
                "DPU-death declaration to completed warm rejoin (full offload restored), nanoseconds",
                &l,
                RECOVERY_NS_BOUNDS,
            ),
        }
    }
}

/// One connection's DPU failure domain over in-flight entries of type `T`.
/// Every method that takes `now_ns` reads it off the caller's one clock
/// (virtual under deterministic schedules) and republishes the lease
/// gauges.
pub(crate) struct FailureDomain<T> {
    lease: LeaseMonitor,
    /// Heartbeat sequence of the current DPU incarnation.
    hb_seq: u64,
    /// Starting stride of each rejoin's ramp.
    stride: u32,
    /// Present only while Rejoining.
    ramp: Option<RejoinRamp>,
    /// In flight on the DPU datapath: submission sequence → (submission
    /// time, entry). Sequence order is replay order.
    journal: BTreeMap<u64, (u64, T)>,
    /// `poll` saw the renewal deadline pass and `declare_dead` has not
    /// drained for that death yet.
    undeclared: bool,
    /// Declaration time of the current outage's *first* death, until a
    /// rejoin completes (a crash mid-rejoin keeps it, so MTTR spans the
    /// whole outage).
    death_at_ns: Option<u64>,
    /// True between a death and the first host-served response.
    awaiting_host: bool,
    rejoin_started_ns: u64,
    metrics: Metrics,
}

impl<T> FailureDomain<T> {
    /// Grants the initial lease at `now_ns`: Live, nothing in flight.
    pub(crate) fn new(
        lease: LeaseConfig,
        rejoin_probe_stride: u32,
        now_ns: u64,
        registry: &Registry,
        names: MetricNames,
        conn: &str,
    ) -> Self {
        Self {
            lease: LeaseMonitor::new(lease, now_ns),
            hb_seq: 0,
            stride: rejoin_probe_stride,
            ramp: None,
            journal: BTreeMap::new(),
            undeclared: false,
            death_at_ns: None,
            awaiting_host: false,
            rejoin_started_ns: 0,
            // The gauges start at 0: Live, no time in state.
            metrics: Metrics::bind(registry, names, conn),
        }
    }

    /// The lease state as of the last call.
    pub(crate) fn state(&self) -> LeaseState {
        self.lease.state()
    }

    /// Read access to the lease monitor (lifetime counts, last load report).
    pub(crate) fn lease(&self) -> &LeaseMonitor {
        &self.lease
    }

    /// Entries in flight on the DPU datapath.
    pub(crate) fn in_flight(&self) -> usize {
        self.journal.len()
    }

    /// The in-flight entries in submission order, for a caller that
    /// re-enqueues them onto a fresh connection without draining.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &T)> {
        self.journal.iter().map(|(seq, (_, e))| (*seq, e))
    }

    /// Age of the oldest in-flight entry.
    pub(crate) fn oldest_age_ns(&self, now_ns: u64) -> Option<u64> {
        let (submitted_ns, _) = self.journal.values().next()?;
        Some(now_ns.saturating_sub(*submitted_ns))
    }

    /// The DPU datapath accepted `entry` as submission `seq`.
    pub(crate) fn record(&mut self, seq: u64, now_ns: u64, entry: T) {
        self.journal.insert(seq, (now_ns, entry));
    }

    /// The reply to submission `seq` arrived.
    pub(crate) fn retire(&mut self, seq: u64) {
        self.journal.remove(&seq);
    }

    /// The caller re-enqueued every in-flight entry onto a fresh
    /// connection: they count as replayed and their ages restart.
    pub(crate) fn restamp(&mut self, now_ns: u64) {
        self.metrics.replayed.inc_by(self.journal.len() as u64);
        for (submitted_ns, _) in self.journal.values_mut() {
            *submitted_ns = now_ns;
        }
    }

    /// A lease renewal from the live DPU, with its queue depth. Ignored
    /// unless Live/Suspect: a dead or rejoining lease is restored by the
    /// rejoin handshake, never by a heartbeat.
    pub(crate) fn renew(&mut self, now_ns: u64, queue_depth: u32) {
        if matches!(self.state(), LeaseState::Live | LeaseState::Suspect) {
            self.hb_seq += 1;
            let hb = Heartbeat {
                seq: self.hb_seq,
                queue_depth,
                credits_in_use: self.journal.len() as u32,
            };
            self.lease.on_heartbeat(hb, now_ns);
        }
    }

    fn publish(&self, now_ns: u64) {
        let m = &self.metrics;
        m.lease_state.set(self.lease.state().gauge_code() as i64);
        m.lease_time_in_state
            .set(self.lease.time_in_state_ns(now_ns) as i64);
    }

    /// The two deadline rules: while Live/Suspect, renewal silence past
    /// [`LeaseConfig::deadline`]; while Rejoining — which the monitor never
    /// leaves by time alone — the oldest in-flight entry (a ramp probe)
    /// outstanding that long. `Some(silent_ns)` — how long the DPU had
    /// shown no sign of life — when one fired: the caller fails over
    /// through [`FailureDomain::declare_dead`].
    pub(crate) fn poll(&mut self, now_ns: u64) -> Option<u64> {
        let silent_ns = match self.state() {
            LeaseState::Live | LeaseState::Suspect => {
                let died = self.lease.poll(now_ns) == LeaseState::Dead;
                self.undeclared |= died;
                died.then(|| now_ns.saturating_sub(self.lease.last_renewal_ns()))
            }
            LeaseState::Rejoining => {
                let deadline_ns = self.lease.config().deadline().as_nanos() as u64;
                self.oldest_age_ns(now_ns).filter(|&age| age >= deadline_ns)
            }
            LeaseState::Dead => None,
        };
        self.publish(now_ns);
        silent_ns
    }

    /// The death transition, from any state: a Live/Suspect lease is
    /// declared dead, a rejoin is aborted, a death [`FailureDomain::poll`]
    /// just detected is taken up. Drops the ramp, counts the failover and
    /// returns everything that was in flight, in submission order, for
    /// the caller to answer on the host. `None` when the lease was already
    /// Dead and drained — nothing died.
    pub(crate) fn declare_dead(&mut self, now_ns: u64) -> Option<Vec<(u64, T)>> {
        match self.state() {
            LeaseState::Dead if !std::mem::take(&mut self.undeclared) => return None,
            LeaseState::Dead => {}
            LeaseState::Rejoining => {
                self.lease.abort_rejoin(now_ns);
            }
            LeaseState::Live | LeaseState::Suspect => self.lease.declare_dead(now_ns),
        }
        self.ramp = None;
        self.death_at_ns.get_or_insert(now_ns);
        self.awaiting_host = true;
        let journal = std::mem::take(&mut self.journal);
        self.metrics.failovers.inc();
        self.metrics.replayed.inc_by(journal.len() as u64);
        self.publish(now_ns);
        Some(journal.into_iter().map(|(seq, (_, e))| (seq, e)).collect())
    }

    /// A restarted DPU finished its handshake (connection re-established,
    /// ADT re-shipped and re-verified): Dead → Rejoining, and the ramp
    /// starts. `false` (and nothing changes) unless the lease is Dead.
    pub(crate) fn begin_rejoin(&mut self, now_ns: u64) -> bool {
        let begun = self.lease.begin_rejoin(now_ns);
        if begun {
            self.ramp = Some(RejoinRamp::new(self.stride));
            self.rejoin_started_ns = now_ns;
            self.publish(now_ns);
        }
        begun
    }

    /// While Rejoining: whether the next request probes the DPU datapath.
    pub(crate) fn ramp_probe(&mut self) -> bool {
        self.ramp.as_mut().is_some_and(RejoinRamp::probe)
    }

    /// The DPU datapath accepted a ramp probe. `Some(ns since
    /// begin_rejoin)` when that completed the rejoin: the lease is Live,
    /// the new incarnation's heartbeat sequence restarts, and the outage's
    /// MTTR is sampled.
    pub(crate) fn probe_accepted(&mut self, now_ns: u64) -> Option<u64> {
        if !self.ramp.as_mut()?.on_probe_success() {
            return None;
        }
        self.ramp = None;
        self.lease.complete_rejoin(now_ns);
        self.hb_seq = 0;
        self.metrics.rejoins.inc();
        if let Some(death_ns) = self.death_at_ns.take() {
            let outage_ns = now_ns.saturating_sub(death_ns);
            self.metrics.mttr.observe(outage_ns as f64);
        }
        self.awaiting_host = false;
        self.publish(now_ns);
        Some(now_ns.saturating_sub(self.rejoin_started_ns))
    }

    /// The host-direct datapath answered a request; the first answer after
    /// a death samples the failover latency.
    pub(crate) fn host_served(&mut self, now_ns: u64) {
        self.metrics.host_served.inc();
        if let (true, Some(death_ns)) = (std::mem::take(&mut self.awaiting_host), self.death_at_ns)
        {
            let latency_ns = now_ns.saturating_sub(death_ns);
            self.metrics.failover_latency.observe(latency_ns as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceSchema;
    use crate::session::{ResilientSession, SessionConfig, SessionLayers};
    use pbo_protowire::encode_message;
    use pbo_protowire::workloads::{gen_small, paper_schema};
    use pbo_rpcrdma::Config;
    use pbo_simnet::Fabric;
    use pbo_trace::{Clock, VirtualClock};
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const MS: u64 = 1_000_000;
    const CONN: [(&str, &str); 1] = [("conn", "fd")];

    fn lease(interval_ms: u64, miss_threshold: u32) -> LeaseConfig {
        LeaseConfig {
            interval: Duration::from_millis(interval_ms),
            miss_threshold,
        }
    }

    fn engine(registry: &Registry, cfg: LeaseConfig, stride: u32) -> FailureDomain<u32> {
        FailureDomain::new(cfg, stride, 0, registry, MetricNames::TERMINATOR, "fd")
    }

    fn counter(registry: &Registry, name: &str) -> u64 {
        registry.counter_value(name, &CONN).unwrap()
    }

    fn histogram(registry: &Registry, name: &str) -> Histogram {
        registry.histogram(name, "", &CONN, RECOVERY_NS_BOUNDS)
    }

    #[test]
    fn starts_live_with_nothing_counted_under_the_callers_names() {
        let registry = Registry::new();
        let fd = engine(&registry, lease(2, 2), 4);
        assert_eq!(fd.state(), LeaseState::Live);
        assert_eq!(fd.in_flight(), 0);
        for name in [
            "terminator_failovers_total",
            "terminator_rejoins_total",
            "terminator_replayed_requests_total",
            "terminator_host_served_total",
        ] {
            assert_eq!(counter(&registry, name), 0, "{name}");
        }
        assert_eq!(
            registry.gauge_value("terminator_lease_state", &CONN),
            Some(0)
        );
        let session = Registry::new();
        let _fd: FailureDomain<u32> =
            FailureDomain::new(lease(2, 2), 4, 0, &session, MetricNames::SESSION, "fd");
        assert_eq!(counter(&session, "session_host_only_calls_total"), 0);
        assert_eq!(counter(&session, "session_failovers_total"), 0);
    }

    /// Silence while Live/Suspect: Suspect after one interval, dead at the
    /// deadline; the drain hands back what was in flight, in order, once.
    #[test]
    fn renewal_silence_past_the_deadline_drains_in_submission_order() {
        let registry = Registry::new();
        let mut fd = engine(&registry, lease(2, 2), 4);
        for seq in [7, 3, 5] {
            fd.record(seq, MS, seq as u32 * 10);
        }
        fd.retire(5);
        fd.renew(MS, 0);
        assert_eq!(fd.poll(3 * MS), None);
        assert_eq!(fd.state(), LeaseState::Suspect);
        assert_eq!(fd.poll(5 * MS), Some(4 * MS), "silent since the renewal");
        assert_eq!(fd.state(), LeaseState::Dead);
        assert_eq!(fd.declare_dead(5 * MS), Some(vec![(3, 30), (7, 70)]));
        assert_eq!(fd.in_flight(), 0);
        assert_eq!(fd.declare_dead(6 * MS), None, "already dead and drained");
        assert_eq!(counter(&registry, "terminator_failovers_total"), 1);
        assert_eq!(counter(&registry, "terminator_replayed_requests_total"), 2);
        assert_eq!(
            registry.gauge_value("terminator_lease_state", &CONN),
            Some(2)
        );
    }

    /// A restarted DPU that wedges mid-ramp: the monitor never leaves
    /// Rejoining by itself, the probe outstanding past the deadline does.
    /// The aborted rejoin is a failover, not a rejoin, and the outage's
    /// MTTR runs from its *first* death.
    #[test]
    fn probe_outstanding_past_the_deadline_aborts_the_rejoin() {
        let registry = Registry::new();
        let mut fd = engine(&registry, lease(2, 2), 4);
        assert_eq!(fd.declare_dead(10 * MS), Some(vec![]));
        fd.host_served(11 * MS);
        assert!(fd.begin_rejoin(20 * MS));
        assert!(!fd.begin_rejoin(20 * MS), "only from Dead");
        let probes: Vec<bool> = (0..4).map(|_| fd.ramp_probe()).collect();
        assert_eq!(probes, [false, false, false, true], "every 4th request");
        fd.record(0, 21 * MS, 0);
        assert_eq!(fd.probe_accepted(21 * MS), None, "stride 4 → 2");
        assert_eq!(fd.poll(24 * MS), None);
        assert_eq!(fd.poll(25 * MS), Some(4 * MS), "the probe's age");
        assert_eq!(fd.state(), LeaseState::Rejoining, "until declared");
        assert_eq!(fd.declare_dead(25 * MS), Some(vec![(0, 0)]));
        assert_eq!(fd.state(), LeaseState::Dead);
        assert!((0..8).all(|_| !fd.ramp_probe()), "the ramp died with it");
        assert_eq!(counter(&registry, "terminator_failovers_total"), 2);
        assert_eq!(counter(&registry, "terminator_rejoins_total"), 0);

        // Second rejoin completes: stride 4 → 2 → 1.
        assert!(fd.begin_rejoin(30 * MS));
        for now in [31, 32] {
            while !fd.ramp_probe() {}
            fd.record(now, now * MS, 0);
            fd.retire(now);
            let done = fd.probe_accepted(now * MS);
            assert_eq!(done.is_some(), now == 32);
        }
        assert_eq!(fd.state(), LeaseState::Live);
        let mttr = histogram(&registry, "terminator_mttr_ns");
        assert_eq!((mttr.count(), mttr.sum()), (1, (22 * MS) as f64));
        let latency = histogram(&registry, "terminator_failover_latency_ns");
        assert_eq!((latency.count(), latency.sum()), (1, MS as f64));
    }

    /// One step of an arbitrary schedule, decoded from `(op, arg)`.
    fn legal(from: LeaseState, to: LeaseState) -> bool {
        use LeaseState::*;
        from == to
            || matches!(
                (from, to),
                (Live, Suspect)
                    | (Suspect, Live)
                    | (Live | Suspect | Rejoining, Dead)
                    | (Dead, Rejoining)
                    | (Rejoining, Live)
            )
    }

    proptest! {
        /// Arbitrary interleavings of everything a caller can do, at
        /// arbitrary lease tunings and strides, against a model that
        /// tracks only what the caller itself knows.
        #[test]
        fn engine_invariants_hold_on_arbitrary_schedules(
            interval_ms in 1u64..=10,
            miss in 1u32..=5,
            stride in 0u32..=20,
            steps in proptest::collection::vec((0u8..10, 0u64..64), 1..300),
        ) {
            let registry = Registry::new();
            let cfg = lease(interval_ms, miss);
            let deadline_ns = cfg.deadline().as_nanos() as u64;
            let mut fd = engine(&registry, cfg, stride);
            let mttr = histogram(&registry, "terminator_mttr_ns");
            let latency = histogram(&registry, "terminator_failover_latency_ns");

            let mut now = 0u64;
            let mut next_seq = 0u64;
            // Model: submission time of every entry still in flight, how
            // often each entry left, and the outage bookkeeping.
            let mut live: BTreeMap<u64, u64> = BTreeMap::new();
            let mut left: BTreeMap<u64, u32> = BTreeMap::new();
            let (mut aborted, mut replayed) = (0u64, 0u64);
            let mut first_death: Option<u64> = None;
            let (mut mttr_sum, mut latency_samples, mut awaiting) = (0u64, 0u64, false);
            let mut probes_this_ramp = 0u32;
            let want_probes = stride.max(2).next_power_of_two().trailing_zeros();

            // What every caller does with a death.
            macro_rules! die {
                () => {{
                    let before = fd.state();
                    if let Some(drained) = fd.declare_dead(now) {
                        let seqs: Vec<u64> = drained.iter().map(|(seq, _)| *seq).collect();
                        let want: Vec<u64> = live.keys().copied().collect();
                        prop_assert_eq!(&seqs, &want, "drain = in flight, in order");
                        for seq in seqs {
                            *left.entry(seq).or_insert(0) += 1;
                        }
                        replayed += live.len() as u64;
                        live.clear();
                        aborted += (before == LeaseState::Rejoining) as u64;
                        first_death.get_or_insert(now);
                        awaiting = true;
                        prop_assert_eq!(fd.in_flight(), 0);
                        prop_assert_eq!(fd.state(), LeaseState::Dead);
                    } else {
                        prop_assert_eq!(before, LeaseState::Dead);
                    }
                }};
            }

            for (op, arg) in steps {
                let before = fd.state();
                match op {
                    // A request: on the DPU datapath when the lease allows
                    // it, as a ramp probe while Rejoining, else on the host.
                    0 | 1 => {
                        let probe = before == LeaseState::Rejoining && fd.ramp_probe();
                        if probe || matches!(before, LeaseState::Live | LeaseState::Suspect) {
                            fd.record(next_seq, now, 0);
                            live.insert(next_seq, now);
                            next_seq += 1;
                        } else {
                            fd.host_served(now);
                            latency_samples += std::mem::take(&mut awaiting) as u64;
                        }
                        if probe {
                            probes_this_ramp += 1;
                            if fd.probe_accepted(now).is_some() {
                                prop_assert_eq!(probes_this_ramp, want_probes);
                                prop_assert_eq!(fd.state(), LeaseState::Live);
                                mttr_sum += now - first_death.take().expect("an outage");
                                awaiting = false;
                            }
                        }
                    }
                    2 => {
                        let nth = live.keys().nth(arg as usize % live.len().max(1)).copied();
                        if let Some(seq) = nth {
                            fd.retire(seq);
                            live.remove(&seq);
                            *left.entry(seq).or_insert(0) += 1;
                        }
                    }
                    3 => fd.renew(now, live.len() as u32),
                    4 | 5 => now += (arg + 1) * MS / 2,
                    6 => die!(),
                    7 => {
                        if fd.begin_rejoin(now) {
                            prop_assert_eq!(before, LeaseState::Dead);
                            probes_this_ramp = 0;
                        }
                    }
                    8 => {
                        let detected = fd.poll(now);
                        if before == LeaseState::Rejoining {
                            let oldest = live.values().next().map(|t| now - t);
                            prop_assert_eq!(detected, oldest.filter(|&age| age >= deadline_ns));
                        }
                        if detected.is_some() {
                            die!();
                        }
                    }
                    _ => {
                        fd.restamp(now);
                        replayed += live.len() as u64;
                        live.values_mut().for_each(|t| *t = now);
                    }
                }
                prop_assert!(legal(before, fd.state()), "{:?} -> {:?}", before, fd.state());
                // There is a ramp to ask only while Rejoining.
                prop_assert!(fd.state() == LeaseState::Rejoining || !fd.ramp_probe());
                prop_assert_eq!(fd.in_flight(), live.len());
                prop_assert_eq!(fd.oldest_age_ns(now), live.values().next().map(|t| now - t));
            }

            // Every entry left exactly once or is still in flight.
            let in_flight: Vec<u64> = fd.entries().map(|(seq, _)| seq).collect();
            prop_assert_eq!(&in_flight, &live.keys().copied().collect::<Vec<_>>());
            for seq in 0..next_seq {
                let want = !live.contains_key(&seq) as u32;
                prop_assert_eq!(left.get(&seq).copied().unwrap_or(0), want, "entry {}", seq);
            }
            let failovers = counter(&registry, "terminator_failovers_total");
            prop_assert_eq!(failovers, fd.lease().deaths() + aborted);
            prop_assert_eq!(counter(&registry, "terminator_replayed_requests_total"), replayed);
            let rejoins = counter(&registry, "terminator_rejoins_total");
            prop_assert_eq!(rejoins, fd.lease().rejoins());
            prop_assert_eq!((mttr.count(), mttr.sum()), (rejoins, mttr_sum as f64));
            prop_assert_eq!(latency.count(), latency_samples);
            prop_assert!(latency.count() <= failovers);
        }
    }

    /// The bug the shared engine fixes in the session: Rejoining with one
    /// ramp probe in flight, the DPU wedges, and *no further call arrives*.
    /// Ticks alone must notice within the lease deadline plus one step,
    /// and the probe is answered by the host, once.
    #[test]
    fn session_wedge_mid_rejoin_without_traffic_fails_over() {
        const STEP_NS: u64 = MS;
        let vc = VirtualClock::new();
        let registry = Arc::new(Registry::new());
        let cfg = SessionConfig {
            rejoin_probe_stride: 4,
            ..SessionConfig::default()
        };
        let layers = SessionLayers {
            clock: Clock::virtual_from(&vc),
            ..SessionLayers::default()
        };
        let mut session = ResilientSession::with_layers(
            Fabric::new(),
            ServiceSchema::paper_bench(),
            Config::test_small(),
            Config::test_small(),
            registry.clone(),
            "fd",
            cfg,
            layers,
        )
        .unwrap();
        session.register(
            1,
            Arc::new(|view, out| {
                out.extend_from_slice(&view.get_u32(1).unwrap().to_le_bytes());
                0
            }),
        );
        let step = |session: &mut ResilientSession| {
            vc.set_ns(vc.now_ns() + STEP_NS);
            session.tick(Duration::ZERO).unwrap();
        };

        // Dead, then back: auto-rejoin begins on the next tick.
        session.declare_dpu_dead();
        step(&mut session);
        assert_eq!(session.lease_state(), LeaseState::Rejoining);

        // Calls until exactly one ramp probe is outstanding (the others
        // are answered host-side, synchronously).
        let wire = encode_message(&gen_small(&paper_schema()));
        type Answer = (u64, Vec<u8>, u16);
        let answers: Arc<Mutex<Vec<Answer>>> = Arc::default();
        let mut issued = 0u64;
        while session.outstanding() == 0 {
            let (answers, id) = (answers.clone(), issued);
            let cont = move |payload: &[u8], status| {
                answers.lock().unwrap().push((id, payload.to_vec(), status));
            };
            session.call(1, &wire, Box::new(cont)).unwrap();
            issued += 1;
        }
        let probe = issued - 1;
        assert_eq!(session.lease_state(), LeaseState::Rejoining);
        assert_eq!(answers.lock().unwrap().len() as u64, probe);

        // The wedge, then nothing but ticks.
        session.crash_dpu();
        let crashed_ns = vc.now_ns();
        let bound_ns = cfg.lease.deadline().as_nanos() as u64 + STEP_NS;
        while session.lease_state() != LeaseState::Dead && vc.now_ns() < crashed_ns + bound_ns {
            step(&mut session);
        }
        assert_eq!(session.lease_state(), LeaseState::Dead, "still rejoining");
        assert_eq!(session.outstanding(), 0);
        let answers = answers.lock().unwrap();
        let of_probe: Vec<_> = answers.iter().filter(|(id, ..)| *id == probe).collect();
        assert_eq!(of_probe, [&(probe, 300u32.to_le_bytes().to_vec(), 0)]);
        assert_eq!(counter(&registry, "session_failovers_total"), 2);
    }
}
