//! Tail-biased sampling: keep full traces for every request above a
//! moving tail-quantile threshold, sample the bulk at 1-in-N.
//!
//! # Threshold dynamics
//!
//! End-to-end latencies feed a 64-bucket power-of-two histogram whose
//! counts halve every `decay_window` observations, so the threshold
//! tracks the *recent* distribution (an exponential moving window with
//! O(1) memory). The keep threshold linearly interpolates the configured
//! quantile's rank within its power-of-two bucket (Prometheus-style), so
//! the error is at most one octave in either direction; the per-epoch
//! tail budget below caps any over-admission that error causes.
//!
//! # Bounded overhead (the proof sketch)
//!
//! Three mechanisms bound the sampler's cost regardless of traffic:
//!
//! 1. **State is O(1):** 64 atomic counters plus a handful of scalars;
//!    `observe` is a few atomic ops and, once per decide, a 64-element
//!    scan. No allocation on any path.
//! 2. **Tail keeps are rate-limited:** rounding the threshold down can
//!    over-admit when a bucket is wide, so each decay window carries a
//!    hard budget of `window × (1 − q) × slack` tail keeps (minimum 8).
//!    Keeps beyond the budget are demoted to the bulk rule and counted
//!    (`suppressed`), so the *retention* rate — the expensive part,
//!    because kept traces copy their spans — is provably at most
//!    `slack × (1 − q) + 1/bulk_every` of requests in steady state.
//! 3. **Bulk keeps are exactly 1-in-N** by the deterministic id rule, the
//!    same discipline head sampling uses.
//!
//! Tail-biased sampling by definition instruments every request, so the
//! cost of generating spans at full rate is the *visibility* baseline;
//! the perf ledger's traced run reports it as `trace.overhead_pct`. The
//! unit tests in `tests/attribution.rs` pin the memory bound and the
//! keep-rate bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why (or whether) a finalized trace was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailDecision {
    /// Above the moving tail threshold: full trace kept.
    Tail,
    /// Part of the 1-in-N bulk sample.
    Bulk,
    /// Not retained.
    Drop,
}

/// Tail sampler policy.
#[derive(Clone, Copy, Debug)]
pub struct TailConfig {
    /// Quantile the keep threshold tracks (e.g. 0.99).
    pub quantile: f64,
    /// Keep one in this many below-threshold requests (0 disables bulk
    /// sampling entirely).
    pub bulk_every: u64,
    /// Observations per decay epoch; counts halve at each epoch edge.
    pub decay_window: u64,
    /// Before this many observations the threshold is infinite (nothing
    /// is a "tail" until the distribution has taken shape).
    pub min_samples: u64,
    /// Over-admission slack multiplier on the per-epoch tail budget.
    pub slack: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            quantile: 0.99,
            bulk_every: 64,
            decay_window: 8192,
            min_samples: 256,
            slack: 4,
        }
    }
}

/// Point-in-time sampler state for reports.
#[derive(Clone, Copy, Debug)]
pub struct TailStats {
    /// Current keep threshold (ns); `u64::MAX` while warming up.
    pub threshold_ns: u64,
    /// Total latencies observed.
    pub seen: u64,
    /// Traces kept as tail outliers.
    pub kept_tail: u64,
    /// Traces kept by the bulk 1-in-N rule.
    pub kept_bulk: u64,
    /// Above-threshold traces demoted because the epoch tail budget was
    /// exhausted.
    pub suppressed: u64,
    /// The quantile the threshold tracks.
    pub quantile: f64,
    /// The bulk sampling divisor.
    pub bulk_every: u64,
}

struct SamplerInner {
    cfg: TailConfig,
    /// Power-of-two latency buckets: bucket i counts values with
    /// `bit_length(ns) == i` (0 → 0ns..1ns, 63 → huge).
    buckets: [AtomicU64; 64],
    epoch_obs: AtomicU64,
    seen: AtomicU64,
    kept_tail: AtomicU64,
    kept_bulk: AtomicU64,
    suppressed: AtomicU64,
    epoch_tail_keeps: AtomicU64,
}

/// Moving-quantile tail sampler. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct TailSampler {
    inner: Arc<SamplerInner>,
}

fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

impl TailSampler {
    /// Creates a sampler with the given policy.
    pub fn new(cfg: TailConfig) -> Self {
        let cfg = TailConfig {
            quantile: cfg.quantile.clamp(0.5, 0.9999),
            decay_window: cfg.decay_window.max(64),
            min_samples: cfg.min_samples.max(1),
            slack: cfg.slack.max(1),
            ..cfg
        };
        Self {
            inner: Arc::new(SamplerInner {
                cfg,
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                epoch_obs: AtomicU64::new(0),
                seen: AtomicU64::new(0),
                kept_tail: AtomicU64::new(0),
                kept_bulk: AtomicU64::new(0),
                suppressed: AtomicU64::new(0),
                epoch_tail_keeps: AtomicU64::new(0),
            }),
        }
    }

    /// The sampler's policy.
    pub fn config(&self) -> TailConfig {
        self.inner.cfg
    }

    /// Whether `trace_id` belongs to the deterministic 1-in-N bulk
    /// sample.
    pub fn bulk_sampled(&self, trace_id: u64) -> bool {
        let n = self.inner.cfg.bulk_every;
        n != 0 && trace_id % n == 0
    }

    /// Records one end-to-end latency into the moving distribution.
    pub fn observe(&self, e2e_ns: u64) {
        self.inner.buckets[bucket_of(e2e_ns)].fetch_add(1, Ordering::Relaxed);
        self.inner.seen.fetch_add(1, Ordering::Relaxed);
        let in_epoch = self.inner.epoch_obs.fetch_add(1, Ordering::Relaxed) + 1;
        if in_epoch >= self.inner.cfg.decay_window {
            // Epoch edge: halve every bucket and reset the tail budget.
            // Approximate under concurrency (a racing observe may land
            // before or after the halving); the threshold only needs to
            // track the distribution, not count it exactly.
            self.inner.epoch_obs.store(0, Ordering::Relaxed);
            self.inner.epoch_tail_keeps.store(0, Ordering::Relaxed);
            for b in &self.inner.buckets {
                let v = b.load(Ordering::Relaxed);
                if v > 0 {
                    b.fetch_sub(v - v / 2, Ordering::Relaxed);
                }
            }
        }
    }

    /// Current keep threshold: the configured quantile's rank, linearly
    /// interpolated within its power-of-two bucket (`u64::MAX` while
    /// warming up).
    pub fn threshold_ns(&self) -> u64 {
        if self.inner.seen.load(Ordering::Relaxed) < self.inner.cfg.min_samples {
            return u64::MAX;
        }
        // Stack copy: threshold_ns runs once per finalized request, so it
        // must not allocate.
        let mut counts = [0u64; 64];
        for (c, b) in counts.iter_mut().zip(self.inner.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return u64::MAX;
        }
        let rank = (self.inner.cfg.quantile * total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            let next = cum + n;
            if next >= rank && n > 0 {
                // Bucket i holds values with bit-length i, i.e. the
                // half-open range [2^(i-1), 2^i).
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 1u64 } else { 1u64 << i };
                let frac = (rank - cum) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * frac.clamp(0.0, 1.0)) as u64;
            }
            cum = next;
        }
        u64::MAX
    }

    /// Per-epoch budget of tail keeps (mechanism 2 of the overhead
    /// bound).
    pub fn epoch_tail_budget(&self) -> u64 {
        let cfg = &self.inner.cfg;
        let expected = (cfg.decay_window as f64 * (1.0 - cfg.quantile)).ceil() as u64;
        (expected * cfg.slack).max(8)
    }

    /// Observes `e2e_ns` and decides retention for this trace.
    pub fn decide(&self, trace_id: u64, e2e_ns: u64) -> TailDecision {
        self.observe(e2e_ns);
        let threshold = self.threshold_ns();
        if e2e_ns >= threshold {
            let keeps = self.inner.epoch_tail_keeps.fetch_add(1, Ordering::Relaxed) + 1;
            if keeps <= self.epoch_tail_budget() {
                self.inner.kept_tail.fetch_add(1, Ordering::Relaxed);
                return TailDecision::Tail;
            }
            self.inner.suppressed.fetch_add(1, Ordering::Relaxed);
        }
        if self.bulk_sampled(trace_id) {
            self.inner.kept_bulk.fetch_add(1, Ordering::Relaxed);
            TailDecision::Bulk
        } else {
            TailDecision::Drop
        }
    }

    /// Current sampler state.
    pub fn stats(&self) -> TailStats {
        TailStats {
            threshold_ns: self.threshold_ns(),
            seen: self.inner.seen.load(Ordering::Relaxed),
            kept_tail: self.inner.kept_tail.load(Ordering::Relaxed),
            kept_bulk: self.inner.kept_bulk.load(Ordering::Relaxed),
            suppressed: self.inner.suppressed.load(Ordering::Relaxed),
            quantile: self.inner.cfg.quantile,
            bulk_every: self.inner.cfg.bulk_every,
        }
    }
}

impl Default for TailSampler {
    fn default() -> Self {
        Self::new(TailConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_keeps_nothing_as_tail() {
        let s = TailSampler::new(TailConfig {
            min_samples: 100,
            ..TailConfig::default()
        });
        for id in 0..50u64 {
            let d = s.decide(id, 1_000_000_000);
            assert_ne!(d, TailDecision::Tail, "threshold must be inf in warmup");
        }
        assert_eq!(s.threshold_ns(), u64::MAX);
    }

    #[test]
    fn threshold_lands_between_bulk_and_tail_modes() {
        let s = TailSampler::new(TailConfig {
            min_samples: 100,
            decay_window: 100_000,
            ..TailConfig::default()
        });
        // 98% of mass at ~1µs, 2% at ~1ms.
        for i in 0..10_000u64 {
            let v = if i % 50 == 0 { 1_000_000 } else { 1_000 };
            s.observe(v);
        }
        let t = s.threshold_ns();
        assert!(t > 1_000, "threshold {t} must exceed the bulk mode");
        assert!(t <= 1_000_000, "threshold {t} must catch the tail mode");
    }

    #[test]
    fn tail_values_kept_bulk_sampled_one_in_n() {
        let s = TailSampler::new(TailConfig {
            min_samples: 64,
            bulk_every: 10,
            decay_window: 1_000_000,
            ..TailConfig::default()
        });
        for i in 0..1000u64 {
            s.observe(if i % 100 == 0 { 500_000 } else { 500 });
        }
        let mut tail = 0;
        let mut bulk = 0;
        for id in 0..1000u64 {
            match s.decide(id, if id % 100 == 7 { 600_000 } else { 400 }) {
                TailDecision::Tail => tail += 1,
                TailDecision::Bulk => bulk += 1,
                TailDecision::Drop => {}
            }
        }
        assert_eq!(tail, 10, "every above-threshold request kept");
        assert_eq!(bulk, 100, "exact 1-in-10 bulk sample");
    }

    #[test]
    fn epoch_budget_bounds_tail_keeps() {
        let cfg = TailConfig {
            quantile: 0.99,
            decay_window: 1000,
            min_samples: 1,
            slack: 2,
            bulk_every: 0,
        };
        let s = TailSampler::new(cfg);
        // Warm with small values, then flood with "outliers": the epoch
        // budget (window × (1−q) × slack) caps retention.
        for _ in 0..200 {
            s.observe(100);
        }
        let budget = s.epoch_tail_budget();
        assert!(budget <= 22, "sanity: {budget}");
        let mut kept = 0u64;
        for id in 0..500u64 {
            if s.decide(id, u64::MAX / 2) == TailDecision::Tail {
                kept += 1;
            }
        }
        assert!(
            kept <= budget,
            "epoch tail budget exceeded: {kept} > {budget}"
        );
        assert!(s.stats().suppressed > 0);
    }

    #[test]
    fn decayed_distribution_tracks_recent_traffic() {
        let s = TailSampler::new(TailConfig {
            decay_window: 256,
            min_samples: 1,
            ..TailConfig::default()
        });
        // Old regime: everything around 1µs.
        for _ in 0..1000 {
            s.observe(1_000);
        }
        let t_old = s.threshold_ns();
        // New regime: everything around 16ms. After a few decay windows
        // the threshold must have moved up past the old regime entirely.
        for _ in 0..4000 {
            s.observe(16_000_000);
        }
        let t_new = s.threshold_ns();
        assert!(
            t_new > t_old,
            "threshold must follow the distribution: {t_old} -> {t_new}"
        );
        assert!(t_new > 1_000_000);
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut prev = 0;
        for shift in 0..63 {
            let b = bucket_of(1u64 << shift);
            assert!(b >= prev);
            prev = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), 63);
    }
}
