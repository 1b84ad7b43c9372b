//! Statistics: running moments, histograms, normal fits, goodness of fit.

use crate::dist::Distribution;

/// Numerically stable running mean/variance (Welford's algorithm) with
/// min/max tracking.
///
/// # Example
///
/// ```
/// use etherm_uq::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.sample_std() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (ddof = 1; 0 with fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (ddof = 1).
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum seen (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum seen (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Monte Carlo standard error `σ/√M` of the mean estimate (paper Eq. 6).
    pub fn mc_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fits a normal distribution by moment matching: returns
/// `(mean, sample_std)` (ddof = 1) — exactly what the paper does with its 12
/// measured elongations to obtain `N(0.17, 0.048)`.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn fit_normal(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "fit_normal needs at least 2 samples");
    let mut s = RunningStats::new();
    for &x in samples {
        s.push(x);
    }
    (s.mean(), s.sample_std())
}

/// A uniform-bin histogram with probability-density normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    n_total: usize,
    n_outside: usize,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi ≤ lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            n_total: 0,
            n_outside: 0,
        }
    }

    /// Histogram spanning the sample range with the given bin count.
    ///
    /// # Panics
    ///
    /// Panics on empty input or degenerate range.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "histogram from empty samples");
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pad = ((hi - lo) * 1e-9).max(1e-12);
        let mut h = Histogram::new(lo, hi + pad, bins);
        for &x in samples {
            h.add(x);
        }
        h
    }

    /// Adds a sample (values outside the range are counted separately).
    pub fn add(&mut self, x: f64) {
        self.n_total += 1;
        if x < self.lo || x >= self.hi {
            self.n_outside += 1;
            return;
        }
        let f = (x - self.lo) / (self.hi - self.lo);
        let b = ((f * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[b] += 1;
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.counts.len()
    }

    /// Total samples added (including out-of-range ones).
    pub fn n_total(&self) -> usize {
        self.n_total
    }

    /// Samples that fell outside the range.
    pub fn n_outside(&self) -> usize {
        self.n_outside
    }

    /// Raw count of bin `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn count(&self, b: usize) -> usize {
        self.counts[b]
    }

    /// Center coordinate of bin `b`.
    pub fn bin_center(&self, b: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (b as f64 + 0.5) * w
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Probability-density value of bin `b` (so the histogram integrates to
    /// the in-range fraction).
    pub fn density(&self, b: usize) -> f64 {
        if self.n_total == 0 {
            return 0.0;
        }
        self.counts[b] as f64 / (self.n_total as f64 * self.bin_width())
    }

    /// All `(center, density)` pairs.
    pub fn densities(&self) -> Vec<(f64, f64)> {
        (0..self.n_bins())
            .map(|b| (self.bin_center(b), self.density(b)))
            .collect()
    }
}

/// Kolmogorov–Smirnov statistic `D = sup |F_n(x) − F(x)|` of samples against
/// a reference distribution.
///
/// # Panics
///
/// Panics on empty input.
pub fn ks_statistic<D: Distribution + ?Sized>(samples: &[f64], dist: &D) -> f64 {
    assert!(!samples.is_empty(), "ks_statistic on empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let fn_hi = (i + 1) as f64 / n;
        let fn_lo = i as f64 / n;
        d = d.max((fn_hi - f).abs()).max((f - fn_lo).abs());
    }
    d
}

/// Asymptotic Kolmogorov p-value `P(D > d)` via the Kolmogorov distribution
/// `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}` with the small-sample Stephens
/// correction.
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if d <= 0.0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut p = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64 * lambda).powi(2)).exp();
        p += if k % 2 == 1 { 2.0 * term } else { -2.0 * term };
        if term < 1e-16 {
            break;
        }
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Normal, Uniform};

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 100);
        assert!(s.min() <= s.max());
    }

    #[test]
    fn empty_and_single_sample() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.mc_error(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(5.0);
        assert_eq!(s1.mean(), 5.0);
        assert_eq!(s1.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 3.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        // Merging empty is a no-op.
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn mc_error_scaling() {
        // error = σ/√M.
        let mut s = RunningStats::new();
        for i in 0..400 {
            s.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let sigma = s.sample_std();
        assert!((s.mc_error() - sigma / 20.0).abs() < 1e-12);
    }

    #[test]
    fn fit_normal_recovers_parameters() {
        let n = Normal::new(0.17, 0.048).unwrap();
        // Deterministic stratified "samples" via quantiles.
        let samples: Vec<f64> = (0..500)
            .map(|i| n.quantile((i as f64 + 0.5) / 500.0))
            .collect();
        let (mu, sigma) = fit_normal(&samples);
        assert!((mu - 0.17).abs() < 1e-3);
        assert!((sigma - 0.048).abs() < 1e-3);
    }

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for &x in &[0.1, 0.3, 0.35, 0.8, -0.5, 1.5] {
            h.add(x);
        }
        assert_eq!(h.n_total(), 6);
        assert_eq!(h.n_outside(), 2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.bin_width(), 0.25);
        assert_eq!(h.bin_center(0), 0.125);
        // Density integrates to in-range fraction 4/6.
        let integral: f64 = (0..4).map(|b| h.density(b) * h.bin_width()).sum();
        assert!((integral - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_from_samples_covers_range() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let h = Histogram::from_samples(&xs, 3);
        assert_eq!(h.n_outside(), 0);
        assert_eq!(h.n_total(), 4);
        let pairs = h.densities();
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn ks_accepts_correct_distribution() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let samples: Vec<f64> = (0..200)
            .map(|i| n.quantile((i as f64 + 0.5) / 200.0))
            .collect();
        let d = ks_statistic(&samples, &n);
        assert!(d < 0.01, "D = {d}");
        assert!(ks_p_value(d, 200) > 0.9);
    }

    #[test]
    fn ks_rejects_wrong_distribution() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        let n = Normal::new(0.0, 1.0).unwrap();
        let samples: Vec<f64> = (0..200)
            .map(|i| u.quantile((i as f64 + 0.5) / 200.0))
            .collect();
        let d = ks_statistic(&samples, &n);
        assert!(d > 0.3, "D = {d}");
        assert!(ks_p_value(d, 200) < 1e-6);
    }

    #[test]
    fn ks_p_value_edge_cases() {
        assert_eq!(ks_p_value(0.0, 10), 1.0);
        assert!(ks_p_value(0.9, 100) < 1e-10);
    }
}
