//! Literature material data.
//!
//! Electrical and thermal conductivities at 300 K follow the paper's
//! Table I where the material appears there (copper, epoxy resin); the
//! remaining values are standard literature data. Volumetric heat
//! capacities are not listed in the paper (see README, "Reproduction
//! choices"): copper
//! `ρc = ρ·c_p = 8960·385 ≈ 3.45·10⁶ J/(K·m³)`, epoxy
//! `≈ 1200·1500 = 1.8·10⁶ J/(K·m³)`.

use crate::material::Material;
use crate::model::{PropertyTable, TemperatureModel};
use crate::T_REFERENCE;

/// Copper: Table I gives `λ = 398 W/K/m`, `σ = 5.80·10⁷ S/m` at 300 K.
///
/// The electrical conductivity follows the metal resistivity law with the
/// standard temperature coefficient `α = 3.93·10⁻³ /K`; the thermal
/// conductivity decreases weakly (`−1·10⁻⁴ /K` relative slope).
pub fn copper() -> Material {
    Material::new(
        "copper",
        TemperatureModel::InverseLinear {
            v0: 5.80e7,
            t_ref: T_REFERENCE,
            alpha: 3.93e-3,
        },
        TemperatureModel::Linear {
            v0: 398.0,
            t_ref: T_REFERENCE,
            alpha: -1.0e-4,
        },
        3.45e6,
    )
}

/// Gold: `σ = 4.52·10⁷ S/m`, `λ = 315 W/K/m`, `α = 3.4·10⁻³ /K`,
/// `ρc = 19300·129 ≈ 2.49·10⁶ J/(K·m³)`.
pub fn gold() -> Material {
    Material::new(
        "gold",
        TemperatureModel::InverseLinear {
            v0: 4.52e7,
            t_ref: T_REFERENCE,
            alpha: 3.4e-3,
        },
        TemperatureModel::Linear {
            v0: 315.0,
            t_ref: T_REFERENCE,
            alpha: -6.0e-5,
        },
        2.49e6,
    )
}

/// Aluminium: `σ = 3.77·10⁷ S/m`, `λ = 237 W/K/m`, `α = 3.9·10⁻³ /K`,
/// `ρc = 2700·897 ≈ 2.42·10⁶ J/(K·m³)`.
pub fn aluminum() -> Material {
    Material::new(
        "aluminum",
        TemperatureModel::InverseLinear {
            v0: 3.77e7,
            t_ref: T_REFERENCE,
            alpha: 3.9e-3,
        },
        TemperatureModel::Linear {
            v0: 237.0,
            t_ref: T_REFERENCE,
            alpha: -5.0e-5,
        },
        2.42e6,
    )
}

/// Copper with *tabulated* property curves (annealed OFHC literature data,
/// 300–900 K), the "more sophisticated" material model variant: the
/// electrical conductivity table is sampled from the resistivity
/// measurements underlying the `α = 3.93·10⁻³ /K` first-order law, the
/// thermal conductivity from standard λ(T) tables.
///
/// Use this in place of [`copper`] to quantify the first-order-law error
/// (≲ 1 % below 600 K, growing to a few % near the mold's critical
/// temperature range).
///
/// # Panics
///
/// Never panics — the embedded tables are statically valid.
pub fn copper_tabulated() -> Material {
    let temps = vec![300.0, 350.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0];
    // σ(T) from ρ(T) of annealed copper (1.72, 2.06, 2.40, 3.09, 3.79,
    // 4.51, 5.26, 6.04 µΩ·cm).
    let sigma = vec![
        5.80e7, 4.85e7, 4.17e7, 3.24e7, 2.64e7, 2.22e7, 1.90e7, 1.66e7,
    ];
    // λ(T) tables (W/K/m).
    let lambda = vec![398.0, 394.0, 392.0, 388.0, 383.0, 377.0, 371.0, 364.0];
    Material::new(
        "copper (tabulated)",
        TemperatureModel::Table(
            PropertyTable::new(temps.clone(), sigma, T_REFERENCE).expect("static copper σ table"),
        ),
        TemperatureModel::Table(
            PropertyTable::new(temps, lambda, T_REFERENCE).expect("static copper λ table"),
        ),
        3.45e6,
    )
}

/// Epoxy resin mold compound: Table I gives `λ = 0.87 W/K/m`,
/// `σ = 1·10⁻⁶ S/m` at 300 K; both essentially constant,
/// `ρc ≈ 1.8·10⁶ J/(K·m³)`.
pub fn epoxy_resin() -> Material {
    Material::new(
        "epoxy resin",
        TemperatureModel::Constant(1.0e-6),
        TemperatureModel::Constant(0.87),
        1.8e6,
    )
}

/// Silicon (intrinsic bulk, for die variants): `σ ≈ 4.35·10⁻⁴ S/m` at room
/// temperature, `λ = 148 W/K/m`, `ρc = 2329·700 ≈ 1.63·10⁶ J/(K·m³)`.
pub fn silicon() -> Material {
    Material::new(
        "silicon",
        TemperatureModel::Constant(4.35e-4),
        TemperatureModel::Linear {
            v0: 148.0,
            t_ref: T_REFERENCE,
            alpha: -1.0e-3,
        },
        1.63e6,
    )
}

/// Air (for cavity packages): negligible electrical conductivity,
/// `λ = 0.026 W/K/m`, `ρc = 1.184·1005 ≈ 1190 J/(K·m³)`.
pub fn air() -> Material {
    Material::new(
        "air",
        TemperatureModel::Constant(1.0e-12),
        TemperatureModel::Constant(0.026),
        1.19e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values_at_300k() {
        // Paper Table I.
        let cu = copper();
        assert_eq!(cu.sigma(300.0), 5.80e7);
        assert_eq!(cu.lambda(300.0), 398.0);
        let ep = epoxy_resin();
        assert_eq!(ep.sigma(300.0), 1.0e-6);
        assert_eq!(ep.lambda(300.0), 0.87);
    }

    #[test]
    fn copper_conductivity_drops_with_temperature() {
        let cu = copper();
        assert!(cu.sigma(400.0) < cu.sigma(300.0));
        assert!(cu.sigma(523.0) < cu.sigma(400.0));
        // At the critical temperature 523 K the drop is roughly 1/(1+0.876).
        let expect = 5.80e7 / (1.0 + 3.93e-3 * 223.0);
        assert!((cu.sigma(523.0) - expect).abs() < 1.0);
    }

    #[test]
    fn all_library_materials_are_valid() {
        for m in [copper(), gold(), aluminum(), epoxy_resin(), silicon(), air()] {
            assert!(m.sigma(300.0) > 0.0);
            assert!(m.lambda(300.0) > 0.0);
            assert!(m.rho_c() > 0.0);
            // Still positive far outside the design range.
            assert!(m.sigma(1500.0) > 0.0);
            assert!(m.lambda(1500.0) > 0.0);
        }
    }

    #[test]
    fn tabulated_copper_matches_first_order_law_near_300k() {
        let law = copper();
        let tab = copper_tabulated();
        assert_eq!(tab.sigma(300.0), 5.80e7);
        assert_eq!(tab.lambda(300.0), 398.0);
        // Within the paper's operating range (300–525 K) the two models
        // agree to a few percent.
        for t in [325.0, 400.0, 475.0, 523.0] {
            let rel = (tab.sigma(t) - law.sigma(t)).abs() / law.sigma(t);
            assert!(rel < 0.05, "σ at {t} K: rel {rel}");
            let rel = (tab.lambda(t) - law.lambda(t)).abs() / law.lambda(t);
            assert!(rel < 0.05, "λ at {t} K: rel {rel}");
        }
        assert!(tab.is_nonlinear());
        // Monotone decreasing, as the data demands.
        assert!(tab.sigma(600.0) < tab.sigma(400.0));
        assert!(tab.lambda(800.0) < tab.lambda(400.0));
    }

    #[test]
    fn metals_are_nonlinear_epoxy_is_not() {
        assert!(copper().is_nonlinear());
        assert!(gold().is_nonlinear());
        assert!(!epoxy_resin().is_nonlinear());
        assert!(!air().is_nonlinear());
    }

    #[test]
    fn conductivity_ordering_is_physical() {
        // σ: copper > gold > aluminum ≫ silicon > epoxy > air.
        let s = |m: Material| m.sigma(300.0);
        assert!(s(copper()) > s(gold()));
        assert!(s(gold()) > s(aluminum()));
        assert!(s(aluminum()) > s(silicon()));
        assert!(s(silicon()) > s(epoxy_resin()));
        assert!(s(epoxy_resin()) > s(air()));
    }
}
