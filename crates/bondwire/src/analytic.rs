//! Closed-form 1D bonding-wire temperature baseline.
//!
//! The "bonding wire calculator" literature the paper cites (refs. \[3\], \[6\])
//! evaluates wire temperatures from the steady 1D fin equation along the
//! wire axis:
//!
//! ```text
//! λ A T''(x) + q̇ A = h P (T(x) − T∞),   T(0) = T_a, T(L) = T_b,
//! ```
//!
//! with volumetric Joule heating `q̇ = (I/A)²/σ`, cross-section `A = πd²/4`
//! and perimeter `P = πd`. For `h = 0` (wire embedded in poorly conducting
//! mold) the solution is the parabola
//! `T(x) = T_a + (T_b − T_a)x/L + q̇/(2λ)·x(L − x)`; for `h > 0` it is the
//! classical cosh/sinh fin profile. This module provides both, a
//! self-consistent property iteration, a finite-difference cross-check, the
//! allowable-current search, and the Preece fusing-current rule of thumb.

use crate::wire::BondWire;
use etherm_numerics::solvers::solve_tridiagonal;

/// Steady-state 1D fin model of a single bonding wire.
///
/// # Example
///
/// ```
/// use etherm_bondwire::analytic::FinModel;
/// use etherm_bondwire::BondWire;
/// use etherm_materials::library;
///
/// let wire = BondWire::new("w", 1.55e-3, 25.4e-6, library::copper()).unwrap();
/// let fin = FinModel::new(wire, 300.0, 300.0, 300.0, 0.0, 0.5);
/// let (x_max, t_max) = fin.max_temperature();
/// // Symmetric boundary temperatures → hot spot at mid-span.
/// assert!((x_max / fin.wire().length() - 0.5).abs() < 1e-9);
/// assert!(t_max > 300.0);
/// ```
#[derive(Debug, Clone)]
pub struct FinModel {
    wire: BondWire,
    t_a: f64,
    t_b: f64,
    t_inf: f64,
    /// Lateral heat transfer coefficient (W/m²/K); 0 = insulated mantle.
    h: f64,
    /// Driven current (A).
    current: f64,
    /// Temperature at which σ and λ are evaluated.
    eval_temp: f64,
}

impl FinModel {
    /// Creates a fin model with properties evaluated at the mean boundary
    /// temperature.
    pub fn new(wire: BondWire, t_a: f64, t_b: f64, t_inf: f64, h: f64, current: f64) -> Self {
        let eval = 0.5 * (t_a + t_b);
        FinModel {
            wire,
            t_a,
            t_b,
            t_inf,
            h,
            current,
            eval_temp: eval,
        }
    }

    /// The modeled wire.
    pub fn wire(&self) -> &BondWire {
        &self.wire
    }

    /// Volumetric Joule heating `q̇ = (I/A)²/σ(T_eval)` (W/m³).
    pub fn volumetric_heating(&self) -> f64 {
        let a = self.wire.cross_section();
        let j = self.current / a;
        j * j / self.wire.material().sigma(self.eval_temp)
    }

    /// Temperature at axial position `x ∈ [0, L]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, L]` (with a small tolerance).
    pub fn temperature_at(&self, x: f64) -> f64 {
        let l = self.wire.length();
        assert!(
            (-1e-12..=l * (1.0 + 1e-12)).contains(&x),
            "x = {x} outside wire [0, {l}]"
        );
        let lam = self.wire.material().lambda(self.eval_temp);
        let qdot = self.volumetric_heating();
        if self.h == 0.0 {
            // Insulated mantle: parabolic superposition.
            self.t_a + (self.t_b - self.t_a) * x / l + qdot / (2.0 * lam) * x * (l - x)
        } else {
            // Fin: θ'' = m²θ with θ = T − T∞ − q̇A/(hP).
            let a = self.wire.cross_section();
            let p = std::f64::consts::PI * self.wire.diameter();
            let m = (self.h * p / (lam * a)).sqrt();
            let shift = self.t_inf + qdot * a / (self.h * p);
            let theta_a = self.t_a - shift;
            let theta_b = self.t_b - shift;
            let denom = (m * l).sinh();
            let c1 = theta_a;
            let c2 = (theta_b - theta_a * (m * l).cosh()) / denom;
            shift + c1 * (m * x).cosh() + c2 * (m * x).sinh()
        }
    }

    /// Samples `n + 1` equidistant points of the profile as `(x, T)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn profile(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n > 0, "profile needs at least one interval");
        let l = self.wire.length();
        (0..=n)
            .map(|i| {
                let x = l * i as f64 / n as f64;
                (x, self.temperature_at(x))
            })
            .collect()
    }

    /// Location and value of the maximum wire temperature.
    pub fn max_temperature(&self) -> (f64, f64) {
        let l = self.wire.length();
        if self.h == 0.0 {
            let lam = self.wire.material().lambda(self.eval_temp);
            let qdot = self.volumetric_heating();
            if qdot == 0.0 {
                // Pure conduction: extremum at an endpoint.
                return if self.t_a >= self.t_b {
                    (0.0, self.t_a)
                } else {
                    (l, self.t_b)
                };
            }
            // dT/dx = (T_b−T_a)/L + q̇/(2λ)(L − 2x) = 0.
            let x_star = (0.5 * l + lam * (self.t_b - self.t_a) / (qdot * l)).clamp(0.0, l);
            (x_star, self.temperature_at(x_star))
        } else {
            // Scan (profile is smooth; 1000 samples suffice for reporting).
            let mut best = (0.0, self.temperature_at(0.0));
            for i in 1..=1000 {
                let x = l * i as f64 / 1000.0;
                let t = self.temperature_at(x);
                if t > best.1 {
                    best = (x, t);
                }
            }
            best
        }
    }

    /// Iterates the property-evaluation temperature to the resulting maximum
    /// temperature until self-consistency (fixed point), returning the
    /// converged `(x_max, T_max)`.
    pub fn solve_self_consistent(&mut self, tol: f64, max_iter: usize) -> (f64, f64) {
        let mut result = self.max_temperature();
        for _ in 0..max_iter {
            self.eval_temp = result.1;
            let next = self.max_temperature();
            let done = (next.1 - result.1).abs() <= tol;
            result = next;
            if done {
                break;
            }
        }
        result
    }

    /// Finite-difference (tridiagonal) solution with `n` intervals — the
    /// numerical cross-check for the closed forms.
    ///
    /// Returns the nodal temperatures at `n + 1` equidistant points.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the discretization becomes singular.
    pub fn solve_fd(&self, n: usize) -> Vec<f64> {
        assert!(n >= 2, "need at least 2 intervals");
        let l = self.wire.length();
        let dx = l / n as f64;
        let lam = self.wire.material().lambda(self.eval_temp);
        let a = self.wire.cross_section();
        let p = std::f64::consts::PI * self.wire.diameter();
        let qdot = self.volumetric_heating();
        // Interior unknowns 1..n-1: λA/dx² (T_{i-1} −2T_i + T_{i+1}) + q̇A
        //   = hP(T_i − T∞).
        let m = n - 1;
        let diag_val = 2.0 * lam * a / (dx * dx) + self.h * p;
        let off = -lam * a / (dx * dx);
        let diag = vec![diag_val; m];
        let lower = vec![off; m - 1];
        let upper = vec![off; m - 1];
        let mut rhs = vec![qdot * a + self.h * p * self.t_inf; m];
        rhs[0] -= off * self.t_a;
        rhs[m - 1] -= off * self.t_b;
        let inner = solve_tridiagonal(&lower, &diag, &upper, &rhs)
            .expect("fin FD system is SPD tridiagonal");
        let mut t = Vec::with_capacity(n + 1);
        t.push(self.t_a);
        t.extend(inner);
        t.push(self.t_b);
        t
    }
}

/// Largest current (A) keeping the self-consistent maximum wire temperature
/// below `t_crit`, found by bisection on `[0, i_upper]`.
///
/// Returns 0 if even an infinitesimal current exceeds the limit (i.e. the
/// boundary temperatures already violate it).
///
/// # Panics
///
/// Panics if `i_upper` is not positive.
pub fn allowable_current(
    wire: &BondWire,
    t_pads: f64,
    t_inf: f64,
    h: f64,
    t_crit: f64,
    i_upper: f64,
) -> f64 {
    assert!(i_upper > 0.0, "upper current bracket must be positive");
    let max_temp = |i: f64| -> f64 {
        let mut fin = FinModel::new(wire.clone(), t_pads, t_pads, t_inf, h, i);
        fin.solve_self_consistent(1e-6, 100).1
    };
    if max_temp(0.0) >= t_crit {
        return 0.0;
    }
    if max_temp(i_upper) < t_crit {
        return i_upper;
    }
    let (mut lo, mut hi) = (0.0f64, i_upper);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if max_temp(mid) < t_crit {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-12 * i_upper {
            break;
        }
    }
    lo
}

/// Preece fusing-current rule of thumb `I_fuse = k·d^{3/2}` with the copper
/// constant `k = 80 A/mm^{3/2}` (`d` in mm). A sanity bound, not a design
/// value — the lumped/fin models above are the actual calculators.
pub fn preece_fusing_current(diameter_m: f64) -> f64 {
    let d_mm = diameter_m * 1e3;
    80.0 * d_mm.powf(1.5)
}

/// Onderdonk adiabatic fusing time for a copper conductor: the time (s) a
/// current `i` (A) takes to heat a cross-section `area_m2` (m²) from
/// `t_ambient` (K) to the copper melting point, neglecting all heat loss:
///
/// ```text
/// t = 33 · (A_cmil · I⁻¹)² · log₁₀( (T_melt − T_a)/(234 + T_a) + 1 ),
/// ```
///
/// with `A_cmil` the area in circular mils and temperatures in °C (the
/// classical engineering form). Valid for events ≲ 1 s where conduction to
/// the pads can be ignored — the complement of the steady-state
/// [`allowable_current`] limit. Returns `f64::INFINITY` for `i == 0`.
///
/// # Panics
///
/// Panics if `area_m2` is not positive, `i` is negative, or `t_ambient` is
/// not below the copper melting point (1 356 K).
pub fn onderdonk_fusing_time(area_m2: f64, i: f64, t_ambient: f64) -> f64 {
    const T_MELT_C: f64 = 1_083.0;
    assert!(area_m2 > 0.0, "onderdonk: area must be positive");
    assert!(i >= 0.0, "onderdonk: current must be non-negative");
    let t_a_c = t_ambient - 273.15;
    assert!(
        t_a_c < T_MELT_C,
        "onderdonk: ambient above the copper melting point"
    );
    if i == 0.0 {
        return f64::INFINITY;
    }
    // 1 circular mil = π/4 · (25.4e-6 m)² = 5.06707e-10 m².
    let a_cmil = area_m2 / 5.067_074_79e-10;
    let ratio = (T_MELT_C - t_a_c) / (234.0 + t_a_c) + 1.0;
    33.0 * (a_cmil / i).powi(2) * ratio.log10()
}

/// Onderdonk adiabatic fusing *current* for a copper conductor: inverts
/// [`onderdonk_fusing_time`] for a given event duration `time_s`.
///
/// # Panics
///
/// Panics under the same conditions as [`onderdonk_fusing_time`], or if
/// `time_s` is not positive.
pub fn onderdonk_fusing_current(area_m2: f64, time_s: f64, t_ambient: f64) -> f64 {
    assert!(time_s > 0.0, "onderdonk: time must be positive");
    // t = 33 (A/I)² log₁₀(r) → I = A √(33 log₁₀(r) / t).
    const T_MELT_C: f64 = 1_083.0;
    assert!(area_m2 > 0.0, "onderdonk: area must be positive");
    let t_a_c = t_ambient - 273.15;
    assert!(
        t_a_c < T_MELT_C,
        "onderdonk: ambient above the copper melting point"
    );
    let a_cmil = area_m2 / 5.067_074_79e-10;
    let ratio = (T_MELT_C - t_a_c) / (234.0 + t_a_c) + 1.0;
    a_cmil * (33.0 * ratio.log10() / time_s).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etherm_materials::library;

    fn wire() -> BondWire {
        BondWire::new("w", 1.55e-3, 25.4e-6, library::copper()).unwrap()
    }

    #[test]
    fn onderdonk_roundtrip_and_scaling() {
        let area = std::f64::consts::PI / 4.0 * (25.4e-6f64).powi(2);
        // Round trip: the current that fuses in t seconds fuses in t seconds.
        let t_fuse = 1e-3;
        let i = onderdonk_fusing_current(area, t_fuse, 300.0);
        let t_back = onderdonk_fusing_time(area, i, 300.0);
        assert!((t_back - t_fuse).abs() / t_fuse < 1e-12);
        // Fusing time scales as 1/I².
        let t1 = onderdonk_fusing_time(area, i, 300.0);
        let t2 = onderdonk_fusing_time(area, 2.0 * i, 300.0);
        assert!((t1 / t2 - 4.0).abs() < 1e-10);
        // Zero current never fuses.
        assert!(onderdonk_fusing_time(area, 0.0, 300.0).is_infinite());
    }

    #[test]
    fn onderdonk_magnitudes_are_physical() {
        // A 25.4 µm (1 mil) wire is ~1.27 cmil ≈ area 5.067e-10·1 m²...
        // 1 mil diameter = 1 cmil by definition.
        let area = std::f64::consts::PI / 4.0 * (25.4e-6f64).powi(2);
        let a_cmil = area / 5.067_074_79e-10;
        assert!((a_cmil - 1.0).abs() < 1e-6, "1 mil wire = 1 cmil, got {a_cmil}");
        // 10 ms fusing current for the paper's wire: order 10 A — far above
        // the ~mA operating currents, consistent with thermal (not fusing)
        // failure being the paper's concern.
        let i10ms = onderdonk_fusing_current(area, 10e-3, 300.0);
        assert!(i10ms > 1.0 && i10ms < 100.0, "I(10 ms) = {i10ms} A");
        // Hotter ambient fuses faster.
        let t_cold = onderdonk_fusing_time(area, 5.0, 300.0);
        let t_hot = onderdonk_fusing_time(area, 5.0, 500.0);
        assert!(t_hot < t_cold);
    }

    #[test]
    fn preece_and_onderdonk_cover_complementary_regimes() {
        // Preece bounds the *steady* fusing current; Onderdonk the *short
        // pulse* (adiabatic) one with I ∝ 1/√t. For any sub-second event
        // the adiabatic limit must allow more current than the steady rule,
        // and the crossover duration (where both coincide) must be far
        // beyond the adiabatic model's validity (≫ 1 s).
        let d = 25.4e-6;
        let area = std::f64::consts::PI / 4.0 * d * d;
        let preece = preece_fusing_current(d);
        for t in [1e-3, 1e-2, 1e-1, 1.0] {
            assert!(onderdonk_fusing_current(area, t, 300.0) > preece, "t = {t}");
        }
        // I ∝ 1/√t ⇒ crossover t* = t·(I(t)/I_preece)².
        let i1 = onderdonk_fusing_current(area, 1.0, 300.0);
        let t_cross = (i1 / preece).powi(2);
        assert!(t_cross > 50.0, "crossover at t* = {t_cross} s");
    }

    #[test]
    fn zero_current_is_linear_profile() {
        let fin = FinModel::new(wire(), 300.0, 400.0, 300.0, 0.0, 0.0);
        for (x, t) in fin.profile(10) {
            let expect = 300.0 + 100.0 * x / 1.55e-3;
            assert!((t - expect).abs() < 1e-9);
        }
        let (x_max, t_max) = fin.max_temperature();
        assert_eq!(t_max, 400.0);
        assert!((x_max - 1.55e-3).abs() < 1e-12);
    }

    #[test]
    fn boundary_conditions_are_met() {
        for h in [0.0, 50.0] {
            let fin = FinModel::new(wire(), 310.0, 350.0, 300.0, h, 0.4);
            assert!((fin.temperature_at(0.0) - 310.0).abs() < 1e-9);
            assert!((fin.temperature_at(1.55e-3) - 350.0).abs() < 1e-9);
        }
    }

    #[test]
    fn heating_raises_midpoint_above_linear() {
        let fin = FinModel::new(wire(), 300.0, 300.0, 300.0, 0.0, 0.5);
        let mid = fin.temperature_at(0.5 * 1.55e-3);
        assert!(mid > 300.0);
        // Quadratic profile: symmetric.
        let q1 = fin.temperature_at(0.25 * 1.55e-3);
        let q3 = fin.temperature_at(0.75 * 1.55e-3);
        assert!((q1 - q3).abs() < 1e-9);
    }

    #[test]
    fn convection_cools_the_wire() {
        let hot = FinModel::new(wire(), 300.0, 300.0, 300.0, 0.0, 0.5);
        let cooled = FinModel::new(wire(), 300.0, 300.0, 300.0, 200.0, 0.5);
        assert!(cooled.max_temperature().1 < hot.max_temperature().1);
    }

    #[test]
    fn closed_form_matches_finite_differences() {
        for h in [0.0, 120.0] {
            let fin = FinModel::new(wire(), 305.0, 335.0, 300.0, h, 0.45);
            let n = 400;
            let fd = fin.solve_fd(n);
            for (i, &t_fd) in fd.iter().enumerate() {
                let x = 1.55e-3 * i as f64 / n as f64;
                let t = fin.temperature_at(x);
                assert!(
                    (t - t_fd).abs() < 0.05,
                    "h={h}, x={x}: analytic {t} vs FD {t_fd}"
                );
            }
        }
    }

    #[test]
    fn self_consistency_raises_temperature() {
        // Hotter wire → lower σ → more heating → hotter: the converged
        // temperature must exceed the cold-property estimate.
        let mut fin = FinModel::new(wire(), 300.0, 300.0, 300.0, 0.0, 0.6);
        let cold = fin.max_temperature().1;
        let (_, warm) = fin.solve_self_consistent(1e-9, 200);
        assert!(warm > cold, "{warm} vs {cold}");
    }

    #[test]
    fn allowable_current_is_monotone_bracketed() {
        let w = wire();
        let i_crit = allowable_current(&w, 300.0, 300.0, 0.0, 523.0, 5.0);
        assert!(i_crit > 0.0 && i_crit < 5.0);
        // At the returned current the temperature stays below the limit...
        let mut fin = FinModel::new(w.clone(), 300.0, 300.0, 300.0, 0.0, i_crit * 0.999);
        assert!(fin.solve_self_consistent(1e-9, 200).1 < 523.0);
        // ...and 10 % more violates it.
        let mut fin = FinModel::new(w, 300.0, 300.0, 300.0, 0.0, i_crit * 1.1);
        assert!(fin.solve_self_consistent(1e-9, 200).1 > 523.0);
    }

    #[test]
    fn allowable_current_zero_when_pads_too_hot() {
        let w = wire();
        assert_eq!(allowable_current(&w, 600.0, 300.0, 0.0, 523.0, 5.0), 0.0);
    }

    #[test]
    fn allowable_current_saturates_at_bracket() {
        // Tiny current bracket that can never heat the wire to 523 K.
        let w = wire();
        let i = allowable_current(&w, 300.0, 300.0, 0.0, 523.0, 1e-6);
        assert_eq!(i, 1e-6);
    }

    #[test]
    fn preece_scaling() {
        let i1 = preece_fusing_current(25.4e-6);
        let i2 = preece_fusing_current(4.0 * 25.4e-6);
        assert!((i2 / i1 - 8.0).abs() < 1e-9); // d^{3/2}: ×4 diameter → ×8 current
        // 25.4 µm copper fuses around 0.3 A by Preece.
        assert!(i1 > 0.2 && i1 < 0.5, "I_fuse = {i1}");
    }

    #[test]
    fn fin_longer_wire_gets_hotter() {
        let w_short = wire();
        let w_long = w_short.with_length(2.0e-3).unwrap();
        let t_short = FinModel::new(w_short, 300.0, 300.0, 300.0, 0.0, 0.4)
            .max_temperature()
            .1;
        let t_long = FinModel::new(w_long, 300.0, 300.0, 300.0, 0.0, 0.4)
            .max_temperature()
            .1;
        assert!(t_long > t_short);
    }
}
