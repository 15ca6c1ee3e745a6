//! Seeded inputs, the percentile rule, sample buffers and slice figures.

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Candidate tail percentiles in permille, highest first. p99.9 is left
/// out on purpose: it swings too much between identical runs to gate on.
pub const TAIL_LADDER_PM: [u32; 4] = [990, 900, 750, 500];

/// The fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank position (1-based) of the `pm`-permille percentile of `n`
/// samples.
pub fn rank(n: u64, pm: u32) -> u64 {
    (u64::from(pm) * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `pm`-permille percentile of `n` samples.
pub fn beyond(n: u64, pm: u32) -> u64 {
    n - rank(n, pm).min(n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_pm(n: u64) -> Option<u32> {
    TAIL_LADDER_PM
        .iter()
        .copied()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// The `pm`-permille nearest-rank percentile of `v` (reordered in place;
/// never allocates).
pub fn percentile(v: &mut [u64], pm: u32) -> u64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let ix = (rank(v.len() as u64, pm) - 1) as usize;
    *v.select_nth_unstable(ix).1
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median_f64(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of integers, as a float.
pub fn median_u64(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median_f64(&f)
}

/// Least-squares line through `(x, y)` points: `(intercept, slope)`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (my - slope * mx, slope)
}

/// A timing summary: median, the tail percentile the sample supports, and
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// Tail percentile in permille (`None`: too few samples for any).
    pub tail_pm: Option<u32>,
    pub tail: f64,
    pub n: u64,
}

impl Summary {
    /// Summarises pooled samples by the percentile rule.
    pub fn of(v: &mut [u64]) -> Option<Summary> {
        if v.is_empty() {
            return None;
        }
        let n = v.len() as u64;
        let pm = tail_pm(n);
        Some(Summary {
            p50: percentile(v, 500) as f64,
            tail_pm: pm,
            tail: pm.map_or(f64::NAN, |pm| percentile(v, pm) as f64),
            n,
        })
    }
}

/// A sample buffer with a fixed capacity, allocated and touched once so
/// recording never allocates or page-faults; samples beyond the capacity
/// are dropped (a slice records far fewer). One buffer serves every pass
/// of a run.
#[derive(Debug)]
pub struct Samples {
    v: Vec<u64>,
}

impl Samples {
    pub fn new(capacity: usize) -> Samples {
        let mut v = Vec::with_capacity(capacity);
        v.resize(capacity, 1);
        v.clear();
        Samples { v }
    }

    #[inline]
    pub fn push(&mut self, x: u64) {
        if self.v.len() < self.v.capacity() {
            self.v.push(x);
        }
    }

    /// Summarises the samples by the percentile rule and empties the
    /// buffer for the next pass.
    pub fn take_summary(&mut self) -> Option<Summary> {
        let s = Summary::of(&mut self.v);
        self.v.clear();
        s
    }
}

/// The best of per-slice values: the lowest (`low`) or the highest,
/// ignoring NaN entries (NaN when there are none).
pub fn best(v: &[f64], low: bool) -> f64 {
    let it = v.iter().copied().filter(|x| !x.is_nan());
    let b = if low {
        it.fold(f64::INFINITY, f64::min)
    } else {
        it.fold(f64::NEG_INFINITY, f64::max)
    };
    if b.is_finite() {
        b
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: rank(p99) = 990, exactly 10 beyond.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(tail_pm(1000), Some(990));
        // 999 samples: rank(p99) = ceil(989.01) = 990, 9 beyond → p90.
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_pm(999), Some(900));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(tail_pm(100), Some(900));
        assert_eq!(tail_pm(99), Some(750));
        assert_eq!(tail_pm(40), Some(750));
        assert_eq!(tail_pm(39), Some(500));
        assert_eq!(tail_pm(20), Some(500));
        assert_eq!(tail_pm(19), None);
        assert_eq!(tail_pm(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 500), 500);
        assert_eq!(percentile(&mut v, 990), 990);
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 990), 7);
        let s = Summary::of(&mut (1..=100).collect::<Vec<u64>>()).unwrap();
        assert_eq!(
            (s.p50, s.tail_pm, s.tail, s.n),
            (50.0, Some(900), 90.0, 100)
        );
    }

    #[test]
    fn best_slice_ignores_missing_figures() {
        let v = [4.0, f64::NAN, 2.0, 9.0];
        assert_eq!(best(&v, true), 2.0);
        assert_eq!(best(&v, false), 9.0);
        assert!(best(&[f64::NAN], true).is_nan());
        assert!(best(&[], false).is_nan());
    }

    #[test]
    fn samples_keep_their_capacity() {
        let mut s = Samples::new(3);
        for x in [5, 1, 9, 7] {
            s.push(x);
        }
        let sum = s.take_summary().unwrap();
        assert_eq!((sum.p50, sum.n, sum.tail_pm), (5.0, 3, None));
        assert!(s.take_summary().is_none());
    }

    #[test]
    fn line_fit_recovers_slope_and_intercept() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 30.0 + 5.0 * x))
            .collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 30.0).abs() < 1e-9 && (b - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
