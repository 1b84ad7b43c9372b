//! Order statistics for reported timings.
//!
//! A timing is reported as a median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, together with the sample
//! count, so a tail figure is never read off a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank index of percentile `p` (in %) among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps e.g. 99.9 % of 10,000 at rank 9,990 despite
    // rounding in the product.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest of [`TAIL_PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The tail of `values`: the [`supported_percentile`], or the maximum
/// (p100, nothing beyond it) when there are too few samples for any.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(values: &[f64]) -> Percentile {
    percentile(values, supported_percentile(values.len()).unwrap_or(100.0))
}

/// A percentile read off a sample, with the counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Percentile (%).
    pub p: f64,
    /// Value at the nearest rank.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in %) of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    Percentile {
        p,
        value: v[rank(n, p)],
        n,
        beyond: beyond(n, p),
    }
}
