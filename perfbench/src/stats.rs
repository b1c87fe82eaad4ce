//! Order statistics used by every figure the benchmark reports.
//!
//! A rate or percentile is never a mean over the whole run: each phase is
//! cut into fixed windows, the statistic is taken per window, and the
//! figure reported is the median of the per-window values — one descheduled
//! window (this box has two cores for three busy threads) moves a mean but
//! not a median of eight.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it. `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns the nearest-rank percentile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// Median with the conventional midpoint for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median (unscaled).
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Median and MAD of one repeated measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    /// All zeros (and `n` = 0) for an empty sample.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                median: 0.0,
                mad: 0.0,
                n: 0,
            };
        }
        Self {
            median: median(values),
            mad: mad(values),
            n: values.len(),
        }
    }
}

/// Per-window sample collector for one phase: `windows` equal slices of
/// `window_ns` starting at phase time 0. A sample landing past the last
/// window (the drain after the phase) is counted in `late` and in no window.
pub struct Windows {
    window_ns: u64,
    samples: Vec<Vec<f64>>,
    pub late: u64,
}

impl Windows {
    pub fn new(windows: usize, window_ns: u64) -> Self {
        assert!(windows > 0 && window_ns > 0);
        Self {
            window_ns,
            samples: vec![Vec::new(); windows],
            late: 0,
        }
    }

    /// Files `value` under the window containing phase time `at_ns`.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        match self.samples.get_mut((at_ns / self.window_ns) as usize) {
            Some(w) => w.push(value),
            None => self.late += 1,
        }
    }

    /// Samples per window.
    pub fn counts(&self) -> Vec<usize> {
        self.samples.iter().map(Vec::len).collect()
    }

    /// Completions per second, per window.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.window_ns as f64 / 1e9;
        self.samples.iter().map(|w| w.len() as f64 / secs).collect()
    }

    /// The `q` percentile of each non-empty window.
    pub fn percentiles(&mut self, q: f64) -> Vec<f64> {
        self.samples
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        let mut unsorted = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut unsorted, 0.5), 3.0);
    }

    #[test]
    fn median_and_mad_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Deviations from 2: {1, 1, 0, 0, 2, 4, 7} -> median 1.
        assert_eq!(mad(&[1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]), 1.0);
        let s = Summary::of(&[10.0, 12.0, 11.0, 50.0, 9.0]);
        assert_eq!((s.median, s.mad, s.n), (11.0, 1.0, 5));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut w = Windows::new(3, 1_000);
        for t in 0..10 {
            w.push(t * 100, 1.0); // window 0: 10 samples
        }
        w.push(1_500, 2.0); // window 1: 1 sample (the stalled one)
        for t in 0..10 {
            w.push(2_000 + t * 100, 3.0); // window 2: 10 samples
        }
        w.push(3_000, 9.0); // past the phase
        assert_eq!(w.counts(), vec![10, 1, 10]);
        assert_eq!(w.late, 1);
        let secs = 1_000.0 / 1e9;
        assert_eq!(median(&w.rates()), 10.0 / secs);
        assert_eq!(w.percentiles(0.5), vec![1.0, 2.0, 3.0]);
    }
}
