//! # etherm — electrothermal bonding-wire simulation under uncertain geometries
//!
//! Facade crate re-exporting the full `etherm` workspace: a reproduction of
//! Casper et al., *"Electrothermal Simulation of Bonding Wire Degradation
//! under Uncertain Geometries"* (DATE 2016).
//!
//! The sub-crates are re-exported under short module names:
//!
//! | module | contents |
//! |--------|----------|
//! | [`numerics`] | sparse/dense linear algebra, CG/PCG/block CG with Jacobi/IC/AMG preconditioners, quadrature, interpolation |
//! | [`grid`] | 3D tensor-product hexahedral primal/dual grid pair (FIT) |
//! | [`materials`] | temperature-dependent σ(T), λ(T), ρc models (laws + tabulated curves) |
//! | [`fit`] | FIT material matrices, Laplacians, boundary operators, Joule heat, electroquasistatics |
//! | [`bondwire`] | lumped electrothermal wires, analytic baselines, fusing bounds, degradation |
//! | [`core`] | coupled transient field–circuit solver and quantities of interest |
//! | [`uq`] | distributions, (quasi-)Monte Carlo, polynomial chaos, Sobol' indices, variance reduction |
//! | [`package`] | the paper's 28-pad/12-wire chip package + synthetic X-ray metrology |
//! | [`reliability`] | rare-event failure probabilities: subset simulation, importance sampling, fusing-current search |
//! | [`report`] | ASCII + SVG charts/tables/heat maps and CSV export |
//! | [`serve`] | multi-tenant serving: compiled-model registry, session pool, NDJSON-over-TCP daemon |

#![forbid(unsafe_code)]

pub use etherm_bondwire as bondwire;
pub use etherm_core as core;
pub use etherm_fit as fit;
pub use etherm_grid as grid;
pub use etherm_materials as materials;
pub use etherm_numerics as numerics;
pub use etherm_package as package;
pub use etherm_reliability as reliability;
pub use etherm_report as report;
pub use etherm_serve as serve;
pub use etherm_uq as uq;
