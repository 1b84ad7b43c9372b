//! Synthetic X-ray metrology of the bonding wires (substitutes the paper's
//! Fig. 3 photographs; see README, "Reproduction choices").
//!
//! Per wire the measured length decomposes as `L = d + Δs + Δh` (paper
//! Fig. 4): the direct distance `d` from the layout, a misplacement
//! elongation `Δs` (bond landed further along the pad than planned) and a
//! bending elongation `Δh` (wire loop height). The paper's camera could
//! determine `Δh` for only 6 of the 12 wires; the remaining wires take the
//! average of the 6 observed values — this quirk is reproduced faithfully
//! because it shrinks the fitted spread exactly as in the original data
//! pipeline.

use crate::geometry::PackageGeometry;
use etherm_uq::dist::Distribution;
use etherm_uq::{fit_normal, Normal, TruncatedNormal, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One wire's synthetic measurement record.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMeasurement {
    /// Wire id (0..12).
    pub wire_id: usize,
    /// Direct distance `d` (m).
    pub direct: f64,
    /// Misplacement elongation `Δs` (m).
    pub delta_s: f64,
    /// True bending elongation `Δh` (m).
    pub delta_h_true: f64,
    /// Observed `Δh` — `None` when hidden by the camera angle.
    pub delta_h_observed: Option<f64>,
    /// Effective `Δh` entering the length (observed or imputed average).
    pub delta_h_used: f64,
    /// Resulting total length `L = d + Δs + Δh_used` (m).
    pub length: f64,
    /// Relative elongation `δ = (L − d)/L`.
    pub delta_rel: f64,
}

/// The synthetic metrology model.
///
/// Defaults are calibrated so that the fitted normal lands near the paper's
/// `N(µ = 0.17, σ = 0.048)` (Fig. 5); exact sample values depend on the
/// seed, as they would on the physical chip at hand.
#[derive(Debug, Clone, PartialEq)]
pub struct XrayMetrology {
    /// Maximum misplacement elongation `Δs ~ U(0, s_max)` (m).
    pub s_max: f64,
    /// Mean of the bending elongation `Δh` (m).
    pub dh_mean: f64,
    /// Standard deviation of the bending elongation (m).
    pub dh_std: f64,
    /// Number of wires whose `Δh` the camera can see (paper: 6 of 12).
    pub visible_dh: usize,
    /// RNG seed (one physical chip = one seed).
    pub seed: u64,
}

impl Default for XrayMetrology {
    fn default() -> Self {
        XrayMetrology {
            s_max: 0.16e-3,
            dh_mean: 0.20e-3,
            dh_std: 0.075e-3,
            visible_dh: 6,
            seed: 2016,
        }
    }
}

impl XrayMetrology {
    /// "Measures" the 12 wires of the given package.
    ///
    /// # Panics
    ///
    /// Panics if the metrology parameters are non-physical (negative
    /// spreads) — they are developer inputs, not runtime data.
    pub fn measure(&self, geometry: &PackageGeometry) -> Vec<WireMeasurement> {
        assert!(self.s_max >= 0.0 && self.dh_std > 0.0 && self.dh_mean >= 0.0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ds_dist = Uniform::new(0.0, self.s_max.max(1e-12)).expect("valid ds range");
        let dh_dist = TruncatedNormal::new(self.dh_mean, self.dh_std, 0.0, self.dh_mean * 6.0)
            .expect("valid dh distribution");
        let plan = geometry.wire_plan();

        // First pass: true geometry per wire.
        struct Raw {
            wire_id: usize,
            d: f64,
            ds: f64,
            dh: f64,
        }
        let raws: Vec<Raw> = plan
            .iter()
            .map(|w| Raw {
                wire_id: w.wire_id,
                d: w.direct_distance,
                ds: ds_dist.quantile(rng.gen::<f64>()),
                dh: dh_dist.quantile(rng.gen::<f64>()),
            })
            .collect();

        // Camera quirk: only the first `visible_dh` wires expose Δh.
        let visible = self.visible_dh.min(raws.len());
        let mean_dh_observed = if visible > 0 {
            raws[..visible].iter().map(|r| r.dh).sum::<f64>() / visible as f64
        } else {
            self.dh_mean
        };

        raws.into_iter()
            .enumerate()
            .map(|(i, r)| {
                let observed = if i < visible { Some(r.dh) } else { None };
                let dh_used = observed.unwrap_or(mean_dh_observed);
                let length = r.d + r.ds + dh_used;
                WireMeasurement {
                    wire_id: r.wire_id,
                    direct: r.d,
                    delta_s: r.ds,
                    delta_h_true: r.dh,
                    delta_h_observed: observed,
                    delta_h_used: dh_used,
                    length,
                    delta_rel: (length - r.d) / length,
                }
            })
            .collect()
    }

    /// The relative elongations `δ` of a measurement set.
    pub fn elongations(measurements: &[WireMeasurement]) -> Vec<f64> {
        measurements.iter().map(|m| m.delta_rel).collect()
    }

    /// Fits the normal distribution of `δ` exactly as the paper does
    /// (moment matching on the 12 samples).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two measurements or a degenerate fit.
    pub fn fit(measurements: &[WireMeasurement]) -> Normal {
        let deltas = Self::elongations(measurements);
        let (mu, sigma) = fit_normal(&deltas);
        Normal::new(mu, sigma).expect("non-degenerate elongation sample")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure_paper() -> Vec<WireMeasurement> {
        XrayMetrology::default().measure(&PackageGeometry::paper())
    }

    #[test]
    fn twelve_measurements_with_camera_quirk() {
        let ms = measure_paper();
        assert_eq!(ms.len(), 12);
        let observed = ms.iter().filter(|m| m.delta_h_observed.is_some()).count();
        assert_eq!(observed, 6);
        // Hidden wires all use the same imputed value.
        let imputed: Vec<f64> = ms
            .iter()
            .filter(|m| m.delta_h_observed.is_none())
            .map(|m| m.delta_h_used)
            .collect();
        assert_eq!(imputed.len(), 6);
        assert!(imputed.windows(2).all(|w| w[0] == w[1]));
        // Imputed value equals the mean of the observed ones.
        let mean_obs: f64 = ms
            .iter()
            .filter_map(|m| m.delta_h_observed)
            .sum::<f64>()
            / 6.0;
        assert!((imputed[0] - mean_obs).abs() < 1e-15);
    }

    #[test]
    fn lengths_decompose_consistently() {
        for m in measure_paper() {
            assert!((m.length - (m.direct + m.delta_s + m.delta_h_used)).abs() < 1e-15);
            assert!(m.delta_rel > 0.0 && m.delta_rel < 1.0);
            assert!((m.delta_rel - (m.length - m.direct) / m.length).abs() < 1e-15);
            assert!(m.delta_s >= 0.0 && m.delta_h_true >= 0.0);
        }
    }

    #[test]
    fn fit_lands_near_paper_values() {
        let ms = measure_paper();
        let fit = XrayMetrology::fit(&ms);
        // One 12-sample chip: generous but meaningful bounds around the
        // paper's N(0.17, 0.048).
        assert!(
            (0.10..=0.24).contains(&fit.mu()),
            "fitted mu = {}",
            fit.mu()
        );
        assert!(
            (0.015..=0.095).contains(&fit.sigma()),
            "fitted sigma = {}",
            fit.sigma()
        );
    }

    #[test]
    fn fit_is_seed_reproducible() {
        let g = PackageGeometry::paper();
        let a = XrayMetrology::default().measure(&g);
        let b = XrayMetrology::default().measure(&g);
        assert_eq!(a, b);
        let c = XrayMetrology {
            seed: 99,
            ..Default::default()
        }
        .measure(&g);
        assert_ne!(a, c);
    }

    #[test]
    fn ensemble_average_matches_paper_closely() {
        // Averaging the fit over many virtual chips must match the
        // calibration target much tighter than a single chip.
        let g = PackageGeometry::paper();
        let mut mus = Vec::new();
        let mut sigmas = Vec::new();
        for seed in 0..50 {
            let ms = XrayMetrology {
                seed,
                ..Default::default()
            }
            .measure(&g);
            let fit = XrayMetrology::fit(&ms);
            mus.push(fit.mu());
            sigmas.push(fit.sigma());
        }
        let mu_bar: f64 = mus.iter().sum::<f64>() / mus.len() as f64;
        let sigma_bar: f64 = sigmas.iter().sum::<f64>() / sigmas.len() as f64;
        assert!((mu_bar - 0.17).abs() < 0.02, "ensemble mu {mu_bar}");
        assert!((sigma_bar - 0.048).abs() < 0.02, "ensemble sigma {sigma_bar}");
    }

    #[test]
    fn elongations_accessor() {
        let ms = measure_paper();
        let ds = XrayMetrology::elongations(&ms);
        assert_eq!(ds.len(), 12);
        assert_eq!(ds[3], ms[3].delta_rel);
    }
}
