//! The load generator and the two measured phases.
//!
//! One thread plays every xRPC caller. `sat` is a closed loop — a fixed
//! number of callers that each wait for their reply before sending again —
//! and yields throughput, host busy time and PCIe bytes per request.
//! `paced` is an open loop at the workload's fixed rate with every request
//! timed from the instant it was *due*, so a stall is charged to all the
//! requests it delays; it yields the latency percentiles, which at low
//! load are dominated by waits (the poller asleep in its 1 ms event loop
//! while a request sits in the hand-off channel) that `sat` cannot see.
//! The generator only ever blocks (on the oldest reply slot, or asleep
//! until the next due time); a spinning generator would steal one of the
//! box's two cores from the poller/host pair.

use crate::check::{reply_matches, Verifier};
use crate::stack::{Counters, Stack};
use crate::stats::{percentile, Summary, Windows};
use crate::workload::Inputs;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use pbo_sched::STATUS_SHED;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Callers in the closed loop: the paper's Table I concurrency. With few
/// callers (32 was tried) every caller's reply arrives in one burst, the
/// poller finds its hand-off channel empty before the generator has woken,
/// and sleeps out its 1 ms event-loop timeout: throughput then reads
/// ~32 per ms for every message shape and no longer depends on what a
/// request costs. With 1024 there is always work queued behind the block
/// in flight, so `sat` measures the pipeline's capacity; the poller-sleep
/// effect is what `paced` is for.
pub const SAT_OUTSTANDING: usize = 1024;
/// Replies arrive almost in order, so `reap` stops looking after this many
/// consecutive requests still pending (a reply that overtook further back
/// is collected a little later, which only delays that caller's next send).
const REAP_LOOKAHEAD: usize = 64;
/// Windows per phase; every reported rate or percentile is the median of
/// this many per-window values.
pub const WINDOWS: usize = 8;
/// A reply slower than this is a failure and ends the phase.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// How `--seconds` is spent: warm-up, `sat`, settle, `paced`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warm: Duration,
    pub settle: Duration,
    pub phase: Duration,
}

impl Plan {
    /// 20 s -> 2 s warm-up, 8 s sat, 1 s settle, 8 s paced (1 s windows),
    /// the last second left for draining and tear-down; other lengths keep
    /// the proportions. Throughput still climbs a few percent during the
    /// first second after set-up, hence the long warm-up.
    pub fn for_seconds(seconds: f64) -> Self {
        let unit = seconds / 20.0;
        Self {
            warm: Duration::from_secs_f64(unit * 2.0),
            settle: Duration::from_secs_f64(unit),
            phase: Duration::from_secs_f64(unit * 8.0),
        }
    }

    fn window_ns(&self) -> u64 {
        (self.phase.as_nanos() as u64 / WINDOWS as u64).max(1)
    }
}

/// Why requests failed; any non-zero field fails the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    pub bad_status: u64,
    pub shed: u64,
    pub timeout: u64,
    pub wrong_object: u64,
    pub dropped: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.bad_status + self.shed + self.timeout + self.wrong_object + self.dropped
    }
}

/// Raw tallies of one phase between two quiescent points.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub completed: u64,
    pub failures: Failures,
}

struct Pending {
    rx: Receiver<(u16, Vec<u8>)>,
    item: u32,
    /// Send time (`sat`) or due time (`paced`).
    t_ref: Instant,
}

/// The single-threaded generator: a cursor into the seeded schedule and
/// the reply slots of the requests in flight, oldest first.
pub struct Generator<'a> {
    stack: &'a Stack,
    inputs: &'a Inputs,
    cursor: usize,
    outstanding: VecDeque<Pending>,
    tally: Tally,
    wedged: bool,
}

impl<'a> Generator<'a> {
    pub fn new(stack: &'a Stack, inputs: &'a Inputs) -> Self {
        Self {
            stack,
            inputs,
            cursor: 0,
            outstanding: VecDeque::new(),
            tally: Tally::default(),
            wedged: false,
        }
    }

    fn send_next(&mut self, t_ref: Instant) {
        let item = self.inputs.schedule[self.cursor % self.inputs.schedule.len()];
        self.cursor += 1;
        let it = &self.inputs.items[item as usize];
        let rx = self.stack.submit(it.proc_id, &it.wire, it.tenant);
        self.tally.sent += 1;
        self.outstanding.push_back(Pending { rx, item, t_ref });
    }

    /// Scores one reply; returns true when it counts as completed.
    fn score(&mut self, item: u32, status: u16, payload: &[u8]) -> bool {
        let f = &mut self.tally.failures;
        if status == STATUS_SHED {
            f.shed += 1;
        } else if status != 0 {
            f.bad_status += 1;
        } else if !reply_matches(payload, &self.inputs.items[item as usize].expect) {
            f.wrong_object += 1;
        } else {
            self.tally.completed += 1;
            return true;
        }
        false
    }

    /// Blocks on the oldest reply for at most `wait`, then collects every
    /// reply that is ready (replies can overtake: a cache hit is answered
    /// at intake). `on_done(t_ref, now)` sees each completed request.
    /// Returns false when the oldest reply did not arrive within `wait`.
    fn reap(&mut self, wait: Duration, mut on_done: impl FnMut(Instant, Instant)) -> bool {
        let Some(front) = self.outstanding.front() else {
            return true;
        };
        let first = match front.rx.recv_timeout(wait) {
            Ok(reply) => Some(reply),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                self.tally.failures.dropped += 1;
                self.outstanding.pop_front();
                return true;
            }
        };
        let in_time = first.is_some();
        let now = Instant::now();
        if let Some((status, payload)) = first {
            let p = self.outstanding.pop_front().expect("front exists");
            if self.score(p.item, status, &payload) {
                on_done(p.t_ref, now);
            }
        }
        let (mut i, mut pending_run) = (0, 0);
        while i < self.outstanding.len() && pending_run < REAP_LOOKAHEAD {
            match self.outstanding[i].rx.try_recv() {
                Ok((status, payload)) => {
                    pending_run = 0;
                    let p = self.outstanding.remove(i).expect("index in range");
                    if self.score(p.item, status, &payload) {
                        on_done(p.t_ref, now);
                    }
                }
                Err(TryRecvError::Empty) => {
                    pending_run += 1;
                    i += 1;
                }
                Err(TryRecvError::Disconnected) => {
                    self.tally.failures.dropped += 1;
                    self.outstanding.remove(i);
                }
            }
        }
        in_time
    }

    /// Waits for every request in flight. A reply that takes longer than
    /// [`REPLY_TIMEOUT`] fails everything still outstanding.
    fn drain(&mut self, mut on_done: impl FnMut(Instant, Instant)) {
        while !self.outstanding.is_empty() {
            if !self.reap(REPLY_TIMEOUT, &mut on_done) {
                self.tally.failures.timeout += self.outstanding.len() as u64;
                self.outstanding.clear();
                self.wedged = true;
            }
        }
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    /// Closed loop for `dur`, results discarded, ending quiescent.
    pub fn warm_up(&mut self, dur: Duration) -> Tally {
        self.closed_loop(dur, |_, _| {});
        self.take_tally()
    }

    fn closed_loop(&mut self, dur: Duration, mut on_done: impl FnMut(Instant, Instant)) {
        let end = Instant::now() + dur;
        while !self.wedged {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while self.outstanding.len() < SAT_OUTSTANDING {
                self.send_next(now);
            }
            if !self.reap(REPLY_TIMEOUT, &mut on_done) {
                self.tally.failures.timeout += self.outstanding.len() as u64;
                self.outstanding.clear();
                self.wedged = true;
            }
        }
        self.drain(&mut on_done);
    }
}

/// What the `sat` phase yields.
#[derive(Clone, Debug)]
pub struct SatResult {
    pub tally: Tally,
    pub window_rates: Vec<f64>,
    pub req_per_s: Summary,
    pub host_busy_ns_per_req: f64,
    pub pcie_to_host_per_req: f64,
    pub pcie_to_device_per_req: f64,
    /// Handler invocations during the phase.
    pub handled: u64,
    /// Program counters accrued during the phase.
    pub counters: Counters,
}

impl SatResult {
    pub fn pcie_bytes_per_req(&self) -> f64 {
        self.pcie_to_host_per_req + self.pcie_to_device_per_req
    }
}

fn counters_delta(a: &Counters, b: &Counters) -> Counters {
    Counters {
        requests_enqueued: b.requests_enqueued - a.requests_enqueued,
        blocks_sent: b.blocks_sent - a.blocks_sent,
        credit_stalls: b.credit_stalls - a.credit_stalls,
        retransmits: b.retransmits - a.retransmits,
        sched_shed: b.sched_shed - a.sched_shed,
        sched_queued_peak: b.sched_queued_peak,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_evictions: b.cache_evictions - a.cache_evictions,
        spans_dropped: b.spans_dropped - a.spans_dropped,
    }
}

/// Closed loop with [`SAT_OUTSTANDING`] callers for `plan.phase`, from a
/// quiescent stack to a quiescent stack, so the byte and busy-time deltas
/// belong to exactly the requests counted.
pub fn run_sat(gen: &mut Generator<'_>, verifier: &Verifier, plan: &Plan) -> SatResult {
    let stack = gen.stack;
    let (pcie0, busy0, handled0, counters0) = (
        stack.pcie(),
        stack.host_busy_ns(),
        verifier.invocations(),
        stack.counters(),
    );
    let mut windows = Windows::new(WINDOWS, plan.window_ns());
    let t0 = Instant::now();
    gen.closed_loop(plan.phase, |_sent, now| {
        windows.push((now - t0).as_nanos() as u64, 0.0);
    });
    // The host loop publishes busy time after the event-loop pass that
    // served the last request; the reply can beat that store by a moment.
    std::thread::sleep(Duration::from_millis(2));
    let (pcie1, busy1) = (stack.pcie(), stack.host_busy_ns());
    let tally = gen.take_tally();
    let done = tally.completed.max(1) as f64;
    let window_rates = windows.rates();
    SatResult {
        tally,
        req_per_s: Summary::of(&window_rates),
        window_rates,
        host_busy_ns_per_req: (busy1 - busy0) as f64 / done,
        pcie_to_host_per_req: (pcie1.bytes_to_host - pcie0.bytes_to_host) as f64 / done,
        pcie_to_device_per_req: (pcie1.bytes_to_device - pcie0.bytes_to_device) as f64 / done,
        handled: verifier.invocations() - handled0,
        counters: counters_delta(&counters0, &stack.counters()),
    }
}

/// What the `paced` phase yields.
#[derive(Clone, Debug)]
pub struct PacedResult {
    pub tally: Tally,
    pub rate_per_s: f64,
    pub window_counts: Vec<usize>,
    pub window_p50_us: Vec<f64>,
    pub window_p99_us: Vec<f64>,
    pub lat_p50_us: Summary,
    pub lat_p99_us: Summary,
    /// How late the generator sent, relative to each request's due time.
    pub late_p99_us: f64,
    pub late_max_us: f64,
    /// Share of sends more than one period late; above 1 % the phase is
    /// reported invalid.
    pub late_share: f64,
    pub handled: u64,
    pub cache_hits: u64,
}

impl PacedResult {
    pub fn valid(&self) -> bool {
        self.late_share <= 0.01
    }
}

/// Open loop at `rate_per_s` for `plan.phase`; request `i` is due at
/// `t0 + i / rate` and timed from then.
pub fn run_paced(
    gen: &mut Generator<'_>,
    verifier: &Verifier,
    plan: &Plan,
    rate_per_s: f64,
) -> PacedResult {
    let stack = gen.stack;
    let (handled0, hits0) = (verifier.invocations(), stack.counters().cache_hits);
    let period = Duration::from_secs_f64(1.0 / rate_per_s);
    let total = (plan.phase.as_secs_f64() * rate_per_s) as u64;
    let mut lat = Windows::new(WINDOWS, plan.window_ns());
    let mut late_us: Vec<f64> = Vec::with_capacity(total as usize);
    let t0 = Instant::now();
    let mut record = |due: Instant, now: Instant| {
        lat.push(
            (due - t0).as_nanos() as u64,
            (now - due).as_nanos() as f64 / 1e3,
        );
    };
    let mut i: u64 = 0;
    while i < total && !gen.wedged {
        let due = t0 + period.mul_f64(i as f64);
        let now = Instant::now();
        if now >= due {
            gen.send_next(due);
            late_us.push((now - due).as_nanos() as f64 / 1e3);
            i += 1;
        } else if gen.outstanding.is_empty() {
            std::thread::sleep(due - now);
        } else {
            gen.reap(due - now, &mut record);
        }
    }
    gen.drain(&mut record);
    let tally = gen.take_tally();
    let period_us = period.as_nanos() as f64 / 1e3;
    let late_share =
        late_us.iter().filter(|&&l| l > period_us).count() as f64 / late_us.len().max(1) as f64;
    let late_max_us = late_us.iter().copied().fold(0.0, f64::max);
    let late_p99_us = if late_us.is_empty() {
        0.0
    } else {
        percentile(&mut late_us, 0.99)
    };
    let window_p50_us = lat.percentiles(0.50);
    let window_p99_us = lat.percentiles(0.99);
    PacedResult {
        tally,
        rate_per_s,
        window_counts: lat.counts(),
        lat_p50_us: Summary::of(&window_p50_us),
        lat_p99_us: Summary::of(&window_p99_us),
        window_p50_us,
        window_p99_us,
        late_p99_us,
        late_max_us,
        late_share,
        handled: verifier.invocations() - handled0,
        cache_hits: stack.counters().cache_hits - hits0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_splits_twenty_seconds_as_documented() {
        let p = Plan::for_seconds(20.0);
        assert_eq!(p.warm, Duration::from_secs(2));
        assert_eq!(p.settle, Duration::from_secs(1));
        assert_eq!(p.phase, Duration::from_secs(8));
        assert_eq!(p.window_ns(), 1_000_000_000);
        let q = Plan::for_seconds(10.0);
        assert_eq!(q.phase, Duration::from_secs(4));
    }

    #[test]
    fn failures_add_up() {
        let f = Failures {
            bad_status: 1,
            shed: 2,
            timeout: 3,
            wrong_object: 4,
            dropped: 5,
        };
        assert_eq!(f.total(), 15);
    }
}
