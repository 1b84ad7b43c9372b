//! Paper-exact parameter sets (Tables I and II).

use etherm_uq::Normal;

/// The elongation distribution the paper identifies from its 12 X-ray
/// measurements (Fig. 5): `δ ~ N(µ = 0.17, σ = 0.048)`.
///
/// The Fig. 7/8 experiments use this distribution verbatim (not a re-fit of
/// the synthetic metrology) so that the headline reproduction is anchored
/// to the paper's numbers.
pub fn paper_elongation_distribution() -> Normal {
    Normal::new(0.17, 0.048).expect("paper parameters are valid")
}

/// Table II of the paper: simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperParameters {
    /// Bonding wire voltage `V_bw` per pair (V).
    pub wire_voltage: f64,
    /// End time of the transient (s).
    pub end_time: f64,
    /// Number of time points (51 → 50 implicit-Euler steps).
    pub n_time_points: usize,
    /// Monte Carlo samples `M`.
    pub n_mc_samples: usize,
    /// Wire diameter (m).
    pub wire_diameter: f64,
    /// Average wire length `L̄` (m).
    pub mean_wire_length: f64,
    /// Ambient temperature (K).
    pub ambient: f64,
    /// Heat transfer coefficient (W/m²/K).
    pub heat_transfer_coefficient: f64,
    /// Emissivity.
    pub emissivity: f64,
    /// Critical temperature (K), §V-D.
    pub critical_temperature: f64,
    /// Elongation mean `µ_BW`.
    pub elongation_mean: f64,
    /// Elongation standard deviation `σ_BW`.
    pub elongation_std: f64,
}

impl Default for PaperParameters {
    fn default() -> Self {
        PaperParameters {
            wire_voltage: 40e-3,
            end_time: 50.0,
            n_time_points: 51,
            n_mc_samples: 1000,
            wire_diameter: 25.4e-6,
            mean_wire_length: 1.55e-3,
            ambient: 300.0,
            heat_transfer_coefficient: 25.0,
            emissivity: 0.2475,
            critical_temperature: 523.0,
            elongation_mean: 0.17,
            elongation_std: 0.048,
        }
    }
}

impl PaperParameters {
    /// Number of implicit-Euler steps (`n_time_points − 1`).
    pub fn n_steps(&self) -> usize {
        self.n_time_points - 1
    }

    /// The per-contact DC potential `±V_dc = ±V_bw/2`.
    pub fn v_dc(&self) -> f64 {
        0.5 * self.wire_voltage
    }

    /// The reference MC results reported in §V-D, which the Fig. 7
    /// environment fit is checked against (see README, "Reproduction
    /// choices"): `(σ_MC, error_MC, crossing time)`.
    pub fn reported_results(&self) -> (f64, f64, f64) {
        (4.65, 0.147, 26.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etherm_uq::dist::Distribution;

    #[test]
    fn distribution_matches_figure_5() {
        let d = paper_elongation_distribution();
        assert_eq!(d.mean(), 0.17);
        assert_eq!(d.std_dev(), 0.048);
    }

    #[test]
    fn table_ii_values() {
        let p = PaperParameters::default();
        assert_eq!(p.wire_voltage, 40e-3);
        assert_eq!(p.v_dc(), 20e-3);
        assert_eq!(p.end_time, 50.0);
        assert_eq!(p.n_steps(), 50);
        assert_eq!(p.n_mc_samples, 1000);
        assert_eq!(p.wire_diameter, 25.4e-6);
        assert_eq!(p.mean_wire_length, 1.55e-3);
        assert_eq!(p.ambient, 300.0);
        assert_eq!(p.heat_transfer_coefficient, 25.0);
        assert_eq!(p.emissivity, 0.2475);
        assert_eq!(p.critical_temperature, 523.0);
        let (sigma_mc, err_mc, t_cross) = p.reported_results();
        assert_eq!(sigma_mc, 4.65);
        assert_eq!(err_mc, 0.147);
        assert_eq!(t_cross, 26.0);
        // Consistency: error_MC ≈ σ_MC/√M.
        assert!((sigma_mc / (p.n_mc_samples as f64).sqrt() - err_mc).abs() < 1e-2);
    }
}
