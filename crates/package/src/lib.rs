//! The paper's exemplary chip package (§IV-A, §V-A) and its synthetic
//! X-ray wire metrology (§IV-B).
//!
//! The real package of the paper is proprietary; only X-ray photographs and
//! a handful of published dimensions exist (28 contact pads of width
//! 0.311 mm, 24 × length 1.01 mm + 4 × 1.261 mm, 12 copper bonding wires of
//! diameter 25.4 µm and average length 1.55 mm, copper chip, epoxy mold).
//! This crate rebuilds a plausible peripheral-pad layout from those numbers
//! (see README, "Reproduction choices", for the substitution argument):
//!
//! * [`geometry`] — parametric package geometry; [`PackageGeometry::paper`]
//!   auto-calibrates the chip size so the nominal wire lengths reproduce
//!   Table II's 1.55 mm average,
//! * [`builder`] — turns the geometry into an
//!   [`etherm_core::ElectrothermalModel`] (conforming mesh, PEC contacts at
//!   ±20 mV on 6 pad pairs, Table I materials, Table II boundary
//!   conditions),
//! * [`xray`] — synthetic metrology reproducing Fig. 4's length
//!   decomposition `L = d + Δs + Δh`, including the paper's camera quirk
//!   (bending elongation observable for only 6 of the 12 wires),
//! * [`paper`] — the paper-exact elongation distribution
//!   `δ ~ N(0.17, 0.048)` and Table II parameter set,
//! * [`scenario`] — the elongation sampling as an ensemble
//!   [`etherm_core::Scenario`]: compile the package once, re-run cheap
//!   solver sessions per Monte Carlo sample,
//! * [`failure`] — the limit-state scenario of the rare-event reliability
//!   engine: elongations + drive scale in, early-exited threshold response
//!   out.

#![forbid(unsafe_code)]

pub mod builder;
pub mod failure;
pub mod geometry;
pub mod paper;
pub mod scenario;
pub mod xray;

pub use builder::{build_model, elongation_length, BuildOptions, BuiltPackage};
pub use failure::FailureScenario;
pub use geometry::{PackageGeometry, Pad, Side, WirePlan};
pub use paper::{paper_elongation_distribution, PaperParameters};
pub use scenario::ElongationScenario;
pub use xray::{WireMeasurement, XrayMetrology};
