//! Property-based tests locking the degradation crossing analysis: first
//! crossings (including edge cases: crossing at the first sample, touching
//! without exceeding, multiple crossings) and the Arrhenius damage model.

use etherm_bondwire::degradation::{
    assess_series, first_crossing, ArrheniusDamage, K_BOLTZMANN_EV,
};
use proptest::prelude::*;

/// Reference implementation: scan every interval, return the earliest
/// interpolated crossing — the specification `first_crossing` must match.
fn reference_first_crossing(times: &[f64], temps: &[f64], threshold: f64) -> Option<f64> {
    if temps[0] >= threshold {
        return Some(times[0]);
    }
    let mut best: Option<f64> = None;
    for i in 1..temps.len() {
        if temps[i - 1] < threshold && temps[i] >= threshold {
            let f = (threshold - temps[i - 1]) / (temps[i] - temps[i - 1]);
            let t = times[i - 1] + f * (times[i] - times[i - 1]);
            best = Some(match best {
                None => t,
                Some(b) => b.min(t),
            });
        }
    }
    best
}

/// Builds a strictly increasing time grid from positive interval widths.
fn cumsum(dts: &[f64]) -> Vec<f64> {
    let mut times = Vec::with_capacity(dts.len() + 1);
    let mut t = 0.0;
    times.push(t);
    for &dt in dts {
        t += dt;
        times.push(t);
    }
    times
}

proptest! {
    #[test]
    fn crossing_matches_reference_and_interpolates_exactly(
        dts in proptest::collection::vec(0.05f64..2.0, 1..24),
        temps in proptest::collection::vec(300.0f64..600.0, 2..25),
        threshold in 320.0f64..580.0,
    ) {
        let n = dts.len().min(temps.len() - 1);
        let times = cumsum(&dts[..n]);
        let temps = &temps[..n + 1];
        let got = first_crossing(&times, temps, threshold);
        let want = reference_first_crossing(&times, temps, threshold);
        prop_assert_eq!(got, want);
        if let Some(t) = got {
            // Crossing lies inside the sampled window...
            prop_assert!(t >= times[0] && t <= *times.last().unwrap());
            // ...and the piecewise-linear interpolant evaluates to the
            // threshold there (unless the crossing is the first sample,
            // which may be strictly above it).
            let k = times.partition_point(|&x| x < t).max(1).min(times.len() - 1);
            let f = (t - times[k - 1]) / (times[k] - times[k - 1]);
            let interp = temps[k - 1] + f * (temps[k] - temps[k - 1]);
            if temps[0] < threshold {
                prop_assert!((interp - threshold).abs() < 1e-9,
                    "interpolant {} at crossing {} vs threshold {}", interp, t, threshold);
            } else {
                prop_assert_eq!(t, times[0]);
                prop_assert!(interp >= threshold - 1e-9);
            }
        }
    }

    #[test]
    fn passes_iff_peak_below_threshold(
        dts in proptest::collection::vec(0.05f64..2.0, 1..24),
        temps in proptest::collection::vec(300.0f64..600.0, 2..25),
        threshold in 320.0f64..580.0,
    ) {
        let n = dts.len().min(temps.len() - 1);
        let times = cumsum(&dts[..n]);
        let temps = &temps[..n + 1];
        let a = assess_series(&times, temps, threshold);
        let peak = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(a.peak_temperature, peak);
        prop_assert_eq!(a.margin, threshold - peak);
        // Reaching the threshold counts as failure: passes ⇔ peak < threshold.
        prop_assert_eq!(a.passes(), peak < threshold);
        prop_assert_eq!(a.first_crossing.is_some(), peak >= threshold);
    }

    #[test]
    fn touch_without_exceeding_is_detected_at_the_touch(
        dts in proptest::collection::vec(0.1f64..2.0, 2..12),
        below in proptest::collection::vec(300.0f64..500.0, 3..13),
        threshold in 510.0f64..600.0,
        touch_at in 1usize..12,
    ) {
        // Series strictly below the threshold except one sample placed
        // exactly on it.
        let n = dts.len().min(below.len() - 1);
        let times = cumsum(&dts[..n]);
        let mut temps = below[..n + 1].to_vec();
        let k = 1 + touch_at % n.max(1);
        temps[k] = threshold;
        let a = assess_series(&times, &temps, threshold);
        prop_assert_eq!(a.first_crossing, Some(times[k]));
        prop_assert!(!a.passes());
        prop_assert_eq!(a.margin, 0.0);
    }

    #[test]
    fn crossing_at_the_first_sample_returns_time_zero(
        dts in proptest::collection::vec(0.1f64..2.0, 1..12),
        temps in proptest::collection::vec(300.0f64..600.0, 2..13),
        threshold in 320.0f64..580.0,
        start in 0.0f64..80.0,
    ) {
        let n = dts.len().min(temps.len() - 1);
        let times = cumsum(&dts[..n]);
        let mut temps = temps[..n + 1].to_vec();
        temps[0] = threshold + start; // at or above the threshold from t = 0
        let a = assess_series(&times, &temps, threshold);
        prop_assert_eq!(a.first_crossing, Some(times[0]));
        prop_assert!(!a.passes());
    }

    #[test]
    fn arrhenius_failure_time_is_consistent_with_accumulate(
        base in 430.0f64..520.0,
        amplitude in 0.0f64..60.0,
        n in 20usize..120,
    ) {
        let d = ArrheniusDamage::default();
        // Scale the horizon so the total damage is exactly 1.8: failure
        // strictly inside the series. (Damage is linear in a uniform time
        // dilation at fixed per-sample temperatures.)
        let mean_rate = d.rate(base + 0.5 * amplitude);
        let horizon = 1.8 / mean_rate;
        let mut times: Vec<f64> = (0..=n).map(|i| horizon * i as f64 / n as f64).collect();
        let temps: Vec<f64> = times
            .iter()
            .map(|&t| base + amplitude * (3.0 * t / horizon).sin().abs())
            .collect();
        let raw = d.accumulate(&times, &temps);
        let dilation = 1.8 / raw;
        for t in times.iter_mut() {
            *t *= dilation;
        }
        let t_end = *times.last().unwrap();
        let total = d.accumulate(&times, &temps);
        prop_assert!((total - 1.8).abs() < 1e-9);
        let tf = d.failure_time(&times, &temps).unwrap();
        prop_assert!(tf > 0.0 && tf < t_end);
        // Damage strictly before the violating interval is < 1, and through
        // the end of it is ≥ 1.
        let k = times.partition_point(|&t| t < tf);
        prop_assert!(d.accumulate(&times[..k], &temps[..k]) < 1.0 + 1e-12);
        prop_assert!(d.accumulate(&times[..=k], &temps[..=k]) >= 1.0 - 1e-12);
        // Monotonicity: a uniformly hotter profile fails earlier.
        let hotter: Vec<f64> = temps.iter().map(|&x| x + 10.0).collect();
        let tf_hot = d.failure_time(&times, &hotter).unwrap();
        prop_assert!(tf_hot < tf);
    }

    #[test]
    fn arrhenius_rate_follows_the_closed_form(t in 250.0f64..900.0) {
        let d = ArrheniusDamage::default();
        let want = d.prefactor * (-d.activation_energy_ev / (K_BOLTZMANN_EV * t)).exp();
        prop_assert!((d.rate(t) - want).abs() <= 1e-15 * want.abs());
    }
}
