//! Convective and radiative thermal boundary conditions.
//!
//! The paper models heat exchange with the environment through boundary dual
//! facets (§II-B):
//!
//! * convection: `q_conv = h (T_bnd − T∞)` per unit area,
//! * radiation: `q_rad = ε σ_SB (T_bnd⁴ − T∞⁴)` per unit area.
//!
//! Convection is linear and stamps `h·Ã` onto the diagonal plus `h·Ã·T∞`
//! onto the RHS (a Robin condition). Radiation is nonlinear; we use the
//! exact factorization `T⁴ − T∞⁴ = (T² + T∞²)(T + T∞)(T − T∞)` and lag the
//! first two factors at the previous Picard iterate, which yields a
//! Robin-type stamp with the effective coefficient
//! `h_rad(T*) = ε σ_SB (T*² + T∞²)(T* + T∞)` — unconditionally positive, so
//! the system stays SPD.

use crate::dofmap::Assembler;
use etherm_grid::{Face, Grid3};
use etherm_materials::STEFAN_BOLTZMANN;

/// Thermal boundary condition applied on a set of outer faces.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalBoundary {
    /// Heat transfer coefficient `h` in W/(m²·K); 0 disables convection.
    pub heat_transfer_coefficient: f64,
    /// Emissivity `ε ∈ [0, 1]`; 0 disables radiation.
    pub emissivity: f64,
    /// Ambient temperature `T∞` (K).
    pub ambient: f64,
    /// Faces the condition applies to (all six in the paper).
    pub faces: Vec<Face>,
    /// Effective cooled-area fraction ∈ (0, 1]. Mounting fixtures, sockets
    /// and neighboring boards shade part of the surface; the paper does not
    /// publish its thermal environment, so this single scale factor is the
    /// calibration factor of the reproduction (see README, "Reproduction
    /// choices"). Default 1.
    pub area_scale: f64,
}

impl ThermalBoundary {
    /// The paper's configuration: convection with `h = 25 W/(m²K)` and
    /// radiation with `ε = 0.2475` on all faces, `T∞ = 300 K`.
    pub fn paper_default() -> Self {
        ThermalBoundary {
            heat_transfer_coefficient: 25.0,
            emissivity: 0.2475,
            ambient: 300.0,
            faces: Face::ALL.to_vec(),
            area_scale: 1.0,
        }
    }

    /// Adiabatic boundary (no heat exchange).
    pub fn adiabatic() -> Self {
        ThermalBoundary {
            heat_transfer_coefficient: 0.0,
            emissivity: 0.0,
            ambient: 300.0,
            faces: Face::ALL.to_vec(),
            area_scale: 1.0,
        }
    }

    /// Convection only (no radiation).
    pub fn convective(h: f64, ambient: f64) -> Self {
        ThermalBoundary {
            heat_transfer_coefficient: h,
            emissivity: 0.0,
            ambient,
            faces: Face::ALL.to_vec(),
            area_scale: 1.0,
        }
    }

    /// Whether this boundary exchanges any heat.
    pub fn is_active(&self) -> bool {
        (self.heat_transfer_coefficient > 0.0 || self.emissivity > 0.0)
            && !self.faces.is_empty()
    }

    /// Effective radiative Robin coefficient `ε σ_SB (T*²+T∞²)(T*+T∞)` at
    /// the lagged boundary temperature `t_star`.
    pub fn radiation_coefficient(&self, t_star: f64) -> f64 {
        if self.emissivity == 0.0 {
            return 0.0;
        }
        let t = t_star.max(0.0);
        let ta = self.ambient;
        self.emissivity * STEFAN_BOLTZMANN * (t * t + ta * ta) * (t + ta)
    }

    /// Stamps the linearized boundary operator into the thermal system.
    ///
    /// `t_star` is the previous Picard iterate of the *full* temperature
    /// vector (used only for the radiation linearization; pass the ambient
    /// temperature vector on the first iteration).
    ///
    /// # Panics
    ///
    /// Panics if `t_star.len() != grid.n_nodes()` or the assembler's DoF map
    /// does not cover the grid nodes.
    pub fn stamp<A: Assembler>(&self, grid: &Grid3, t_star: &[f64], stamper: &mut A) {
        assert_eq!(t_star.len(), grid.n_nodes(), "ThermalBoundary::stamp: t_star");
        if !self.is_active() {
            return;
        }
        let h = self.heat_transfer_coefficient;
        let ta = self.ambient;
        for n in 0..grid.n_nodes() {
            if !grid.is_boundary_node(n) {
                continue;
            }
            let mut area = 0.0;
            for &face in &self.faces {
                area += grid.boundary_area(n, face);
            }
            area *= self.area_scale;
            if area == 0.0 {
                continue;
            }
            let coeff = (h + self.radiation_coefficient(t_star[n])) * area;
            stamper.add_diag(n, coeff);
            stamper.add_rhs(n, coeff * ta);
        }
    }

    /// Total outgoing boundary heat flow (W) for a given temperature field —
    /// the *exact* nonlinear expression, used for energy-balance checks and
    /// reporting.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != grid.n_nodes()`.
    pub fn outgoing_power(&self, grid: &Grid3, t: &[f64]) -> f64 {
        assert_eq!(t.len(), grid.n_nodes(), "outgoing_power: length");
        let mut total = 0.0;
        for n in 0..grid.n_nodes() {
            if !grid.is_boundary_node(n) {
                continue;
            }
            let mut area = 0.0;
            for &face in &self.faces {
                area += grid.boundary_area(n, face);
            }
            area *= self.area_scale;
            if area == 0.0 {
                continue;
            }
            let conv = self.heat_transfer_coefficient * (t[n] - self.ambient);
            let rad = self.emissivity
                * STEFAN_BOLTZMANN
                * (t[n].powi(4) - self.ambient.powi(4));
            total += area * (conv + rad);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dofmap::{DofMap, Stamper};
    use etherm_grid::Axis;

    fn grid() -> Grid3 {
        Grid3::new(
            Axis::uniform(0.0, 1.0, 2).unwrap(),
            Axis::uniform(0.0, 1.0, 2).unwrap(),
            Axis::uniform(0.0, 1.0, 2).unwrap(),
        )
    }

    #[test]
    fn paper_default_matches_table_ii() {
        let b = ThermalBoundary::paper_default();
        assert_eq!(b.heat_transfer_coefficient, 25.0);
        assert_eq!(b.emissivity, 0.2475);
        assert_eq!(b.ambient, 300.0);
        assert_eq!(b.faces.len(), 6);
        assert!(b.is_active());
    }

    #[test]
    fn adiabatic_is_inactive() {
        let b = ThermalBoundary::adiabatic();
        assert!(!b.is_active());
        let g = grid();
        let map = DofMap::unconstrained(g.n_nodes());
        let mut st = Stamper::new(&map);
        b.stamp(&g, &vec![300.0; g.n_nodes()], &mut st);
        let (a, rhs) = st.finish();
        assert!(a.diag().iter().all(|&d| d == 0.0));
        assert!(rhs.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn convection_stamp_balances_at_ambient() {
        // At T = T∞ everywhere, the stamped system satisfies A·T∞ = rhs on
        // boundary nodes: coeff·T∞ == coeff·T∞.
        let g = grid();
        let b = ThermalBoundary::convective(25.0, 300.0);
        let map = DofMap::unconstrained(g.n_nodes());
        let mut st = Stamper::new(&map);
        let t = vec![300.0; g.n_nodes()];
        b.stamp(&g, &t, &mut st);
        let (a, rhs) = st.finish();
        let at = a.matvec(&t);
        for i in 0..t.len() {
            assert!((at[i] - rhs[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn convection_coefficients_sum_to_h_times_surface() {
        let g = grid();
        let b = ThermalBoundary::convective(25.0, 300.0);
        let map = DofMap::unconstrained(g.n_nodes());
        let mut st = Stamper::new(&map);
        b.stamp(&g, &vec![300.0; g.n_nodes()], &mut st);
        let (a, _) = st.finish();
        let total: f64 = a.diag().iter().sum();
        assert!((total - 25.0 * 6.0).abs() < 1e-9); // unit cube surface = 6
    }

    #[test]
    fn radiation_coefficient_is_positive_and_monotone() {
        let b = ThermalBoundary::paper_default();
        let c300 = b.radiation_coefficient(300.0);
        let c500 = b.radiation_coefficient(500.0);
        assert!(c300 > 0.0);
        assert!(c500 > c300);
        // Exact linearization identity: h_rad(T)·(T − T∞) = εσ(T⁴ − T∞⁴).
        let t = 450.0;
        let lhs = b.radiation_coefficient(t) * (t - b.ambient);
        let rhs = b.emissivity * STEFAN_BOLTZMANN * (t.powi(4) - b.ambient.powi(4));
        assert!((lhs - rhs).abs() < 1e-9 * rhs.abs());
    }

    #[test]
    fn outgoing_power_zero_at_ambient() {
        let g = grid();
        let b = ThermalBoundary::paper_default();
        let t = vec![300.0; g.n_nodes()];
        assert_eq!(b.outgoing_power(&g, &t), 0.0);
        let hot = vec![400.0; g.n_nodes()];
        assert!(b.outgoing_power(&g, &hot) > 0.0);
        // Cooler than ambient → net incoming (negative outgoing).
        let cold = vec![250.0; g.n_nodes()];
        assert!(b.outgoing_power(&g, &cold) < 0.0);
    }

    #[test]
    fn face_restriction_limits_area() {
        let g = grid();
        let all = ThermalBoundary::convective(1.0, 300.0);
        let one = ThermalBoundary {
            faces: vec![Face::ZMax],
            ..ThermalBoundary::convective(1.0, 300.0)
        };
        let hot = vec![400.0; g.n_nodes()];
        let p_all = all.outgoing_power(&g, &hot);
        let p_one = one.outgoing_power(&g, &hot);
        assert!((p_all - 6.0 * p_one).abs() < 1e-9);
    }
}
