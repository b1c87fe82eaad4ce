//! The monitoring process: instant rate of increase and stability waiting.
//!
//! The paper (§VI, "RPC Datapath") describes a monitoring process that
//! scrapes the Prometheus metrics, computes the per-second increase rate
//! from "the last two data points of each metric" (the *instant rate of
//! increase*, `irate` in PromQL), and "will wait until the RPS rate is
//! stable (within 1%), which takes around 20 seconds, before collecting the
//! final results".
//!
//! [`Monitor`] reproduces this estimator over an injectable clock so that
//! both wall-clock runs and discrete-event-simulated runs can use it.

use crate::Counter;

/// One (time, value) observation of a counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSample {
    /// Sample timestamp in nanoseconds (wall or virtual).
    pub t_ns: u64,
    /// Counter value at that time.
    pub value: u64,
}

/// Configuration for stability detection.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Relative tolerance between consecutive instant rates to count as
    /// stable. The paper uses 1%.
    pub tolerance: f64,
    /// Number of consecutive in-tolerance rates required.
    pub required_stable: usize,
    /// Maximum samples before giving up and reporting the latest rate.
    pub max_samples: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.01,
            required_stable: 3,
            max_samples: 1000,
        }
    }
}

/// Result of a stability wait.
#[derive(Clone, Copy, Debug)]
pub struct StabilityReport {
    /// Final instant rate (units per second).
    pub rate_per_sec: f64,
    /// Whether the tolerance condition was met (vs. hitting `max_samples`).
    pub stable: bool,
    /// Number of samples consumed.
    pub samples: usize,
}

/// Computes instant rates from successive counter samples and detects
/// stability.
#[derive(Debug)]
pub struct Monitor {
    cfg: MonitorConfig,
    last: Option<RateSample>,
    last_rate: Option<f64>,
    stable_run: usize,
    samples: usize,
    resets: usize,
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            cfg,
            last: None,
            last_rate: None,
            stable_run: 0,
            samples: 0,
            resets: 0,
        }
    }

    /// Feeds one sample; returns the instant rate once two samples exist.
    ///
    /// The instant rate of increase uses only the last two data points:
    /// `(vᵢ - vᵢ₋₁) / (tᵢ - tᵢ₋₁)`, scaled to per-second.
    ///
    /// A *decrease* in value is a counter reset (a reconnect replaced the
    /// per-connection counter, or a warmup discard zeroed it), not a
    /// negative rate: the sample re-anchors the estimator — no rate is
    /// produced, the stability run restarts, and the previous rate is
    /// forgotten so the next genuine rate is not compared against a
    /// pre-reset one.
    pub fn push(&mut self, sample: RateSample) -> Option<f64> {
        self.samples += 1;
        if let Some(prev) = self.last {
            if sample.value < prev.value {
                self.resets += 1;
                self.stable_run = 0;
                self.last_rate = None;
                self.last = Some(sample);
                return None;
            }
        }
        let rate = match self.last {
            Some(prev) if sample.t_ns > prev.t_ns => {
                let dv = (sample.value - prev.value) as f64;
                let dt = (sample.t_ns - prev.t_ns) as f64 / 1e9;
                Some(dv / dt)
            }
            _ => None,
        };
        if let (Some(r), Some(prev_r)) = (rate, self.last_rate) {
            let denom = prev_r.abs().max(f64::MIN_POSITIVE);
            if (r - prev_r).abs() / denom <= self.cfg.tolerance {
                self.stable_run += 1;
            } else {
                self.stable_run = 0;
            }
        }
        self.last = Some(sample);
        if let Some(r) = rate {
            self.last_rate = Some(r);
        }
        rate
    }

    /// Whether the stability condition has been met.
    pub fn is_stable(&self) -> bool {
        self.stable_run >= self.cfg.required_stable
    }

    /// Counter resets (value decreases) absorbed so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Whether sampling should stop (stable, or budget exhausted).
    pub fn done(&self) -> bool {
        self.is_stable() || self.samples >= self.cfg.max_samples
    }

    /// Final report.
    pub fn report(&self) -> StabilityReport {
        StabilityReport {
            rate_per_sec: self.last_rate.unwrap_or(0.0),
            stable: self.is_stable(),
            samples: self.samples,
        }
    }

    /// Convenience driver: samples `counter` via `clock` (a closure
    /// returning now-ns) every `interval_ns` of *closure-advanced* time,
    /// invoking `wait` to advance time, until stable.
    pub fn run_until_stable<C, W>(
        counter: &Counter,
        cfg: MonitorConfig,
        mut clock: C,
        mut wait: W,
        interval_ns: u64,
    ) -> StabilityReport
    where
        C: FnMut() -> u64,
        W: FnMut(u64),
    {
        let mut mon = Monitor::new(cfg);
        while !mon.done() {
            wait(interval_ns);
            mon.push(RateSample {
                t_ns: clock(),
                value: counter.get(),
            });
        }
        mon.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: u64, v: u64) -> RateSample {
        RateSample {
            t_ns: t_ms * 1_000_000,
            value: v,
        }
    }

    #[test]
    fn instant_rate_uses_last_two_points() {
        let mut m = Monitor::new(MonitorConfig::default());
        assert_eq!(m.push(sample(0, 0)), None);
        let r = m.push(sample(1000, 5000)).unwrap();
        assert!((r - 5000.0).abs() < 1e-9);
        // A burst only affects the latest window.
        let r2 = m.push(sample(2000, 15000)).unwrap();
        assert!((r2 - 10000.0).abs() < 1e-9);
    }

    #[test]
    fn detects_stability_within_tolerance() {
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 3,
            max_samples: 100,
        });
        // Ramp up, then plateau at 1000/s.
        let mut v = 0;
        for (i, rate) in [100u64, 500, 900, 1000, 1000, 1001, 999, 1000]
            .iter()
            .enumerate()
        {
            v += rate;
            m.push(sample((i as u64 + 1) * 1000, v));
        }
        assert!(m.is_stable());
        let rep = m.report();
        assert!(rep.stable);
        assert!((rep.rate_per_sec - 1000.0).abs() / 1000.0 < 0.02);
    }

    #[test]
    fn gives_up_after_max_samples() {
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.0001,
            required_stable: 5,
            max_samples: 4,
        });
        let mut v = 0;
        let mut i = 0;
        while !m.done() {
            i += 1;
            v += i * 100; // always accelerating, never stable
            m.push(sample(i * 1000, v));
        }
        let rep = m.report();
        assert!(!rep.stable);
        assert_eq!(rep.samples, 4);
    }

    #[test]
    fn run_until_stable_with_virtual_clock() {
        let c = Counter::new();
        let now = std::cell::Cell::new(0u64);
        let rep = Monitor::run_until_stable(
            &c,
            MonitorConfig::default(),
            || now.get(),
            |dt| {
                now.set(now.get() + dt);
                // Simulated workload: 2 requests per microsecond.
                c.inc_by(dt / 500);
            },
            1_000_000,
        );
        assert!(rep.stable);
        assert!((rep.rate_per_sec - 2_000_000.0).abs() / 2e6 < 0.02);
    }

    #[test]
    fn counter_reset_yields_no_rate_not_underflow() {
        // A counter reset (reconnect replay, warmup discard) must not
        // wrap the rate negative/huge, and must not masquerade as a real
        // 0/s measurement: the sample re-anchors and produces no rate.
        let mut m = Monitor::new(MonitorConfig::default());
        m.push(sample(0, 10_000));
        assert_eq!(m.push(sample(1000, 50)), None);
        assert_eq!(m.resets(), 1);
        // The next sample rates against the post-reset anchor.
        let r = m.push(sample(2000, 1050)).unwrap();
        assert!((r - 1000.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn counter_reset_mid_run_does_not_fake_stability() {
        // Steady 1000/s, then the connection reconnects and its counter
        // restarts from zero mid-run. Without reset detection the
        // saturating delta reads 0/s and — compared against another 0/s
        // from a second reset — could count toward the stability run. The
        // verdict right after a reset must NOT be "stable".
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 2,
            max_samples: 100,
        });
        m.push(sample(0, 0));
        m.push(sample(1000, 1000)); // 1000/s
        m.push(sample(2000, 2000)); // 1000/s -> stable_run = 1
        m.push(sample(3000, 5)); // reset: counter restarted
        assert!(!m.is_stable(), "reset must clear the stability run");
        // One in-tolerance pair after the reset is not enough either:
        // the first post-reset rate has no valid predecessor.
        m.push(sample(4000, 1005)); // 1000/s, compared against nothing
        assert!(!m.is_stable());
        m.push(sample(5000, 2005)); // 1000/s
        m.push(sample(6000, 3005)); // 1000/s -> stable_run = 2
        assert!(m.is_stable(), "post-reset rates re-converge");
        assert_eq!(m.resets(), 1);
    }

    #[test]
    fn repeated_resets_never_report_stable() {
        // A counter that resets every window (pathological reconnect
        // churn) produces no two comparable rates at all — the monitor
        // must run to its sample budget rather than return a bogus
        // "stable at 0/s" verdict.
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 2,
            max_samples: 10,
        });
        let mut i = 0u64;
        while !m.done() {
            i += 1;
            // Sawtooth: climbs within the window, resets below the
            // previous sample every time.
            m.push(sample(i * 1000, 10 + (i % 2) * 5));
        }
        let rep = m.report();
        assert!(!rep.stable, "{rep:?}");
        assert_eq!(rep.samples, 10);
        assert!(m.resets() >= 4);
    }

    #[test]
    fn zero_elapsed_time_yields_none_and_preserves_state() {
        // Two scrapes landing on the same timestamp would divide by zero;
        // the sample must be absorbed without producing a rate, and the
        // next well-spaced sample must compute against the *latest* point,
        // not the stale one.
        let mut m = Monitor::new(MonitorConfig::default());
        m.push(sample(1000, 1000));
        assert_eq!(m.push(sample(1000, 2000)), None);
        // 1 s later, +1000 over the zero-elapsed sample's value.
        let r = m.push(sample(2000, 3000)).unwrap();
        assert!((r - 1000.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn never_moving_counter_converges_to_stable_zero_rate() {
        // A dead counter produces a 0/s instant rate every window; equal
        // zero rates are within any tolerance (the comparison guards the
        // zero denominator), so the monitor converges instead of spinning
        // until max_samples.
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 3,
            max_samples: 100,
        });
        for i in 0..6 {
            m.push(sample((i + 1) * 1000, 42));
        }
        let rep = m.report();
        assert!(rep.stable, "{rep:?}");
        assert_eq!(rep.rate_per_sec, 0.0);
        assert!(rep.samples < 100);
    }

    #[test]
    fn tolerance_boundary_counts_as_stable() {
        // Consecutive rates differing by *exactly* the tolerance are
        // stable (<=, not <): 1000/s then 1010/s at 1% tolerance.
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 1,
            max_samples: 100,
        });
        m.push(sample(0, 0));
        m.push(sample(1000, 1000)); // 1000/s
        m.push(sample(2000, 2010)); // 1010/s: drift / prev = exactly 0.01
        assert!(m.is_stable());
        // One part in a million past the boundary is not stable.
        let mut m = Monitor::new(MonitorConfig {
            tolerance: 0.01,
            required_stable: 1,
            max_samples: 100,
        });
        m.push(sample(0, 0));
        m.push(sample(1_000_000, 1_000_000)); // 1000/s over 1000 s
        m.push(sample(2_000_000, 2_010_001)); // 1010.001/s: drift 0.010001
        assert!(!m.is_stable());
    }

    #[test]
    fn non_monotonic_time_is_ignored() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.push(sample(10, 100));
        assert_eq!(m.push(sample(10, 200)), None);
        assert_eq!(m.push(sample(5, 300)), None);
    }
}
