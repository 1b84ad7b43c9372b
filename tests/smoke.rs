//! Workspace smoke test: the facade crate alone is enough to build the
//! paper's 28-pad / 12-wire package and advance the coupled electrothermal
//! transient by one implicit-Euler step.
//!
//! This is intentionally the cheapest end-to-end exercise of the whole stack
//! (grid → materials → FIT assembly → bondwire stamping → coupled solve):
//! it uses a coarse mesh and a single step so it stays fast in every profile.

use etherm::core::{Session, SolverOptions};
use etherm::package::paper::PaperParameters;
use etherm::package::{build_model, BuildOptions, PackageGeometry};

#[test]
fn paper_package_one_implicit_euler_step() {
    let geometry = PackageGeometry::paper();
    let mut options = BuildOptions::paper_fig7();
    // Coarse smoke-test mesh; the production MC mesh lives in the examples.
    options.target_spacing_xy = 0.8e-3;
    options.target_spacing_z = 0.4e-3;
    let built = build_model(&geometry, &options).expect("paper package builds");
    assert_eq!(built.model.wires().len(), 12, "paper package has 12 wires");

    let mut session = Session::new(built.compile(SolverOptions::fast()).expect("compile"));
    // One implicit-Euler step of Δt = 1 s.
    let sol = session.run_transient(1.0, 1, &[]).expect("one step converges");

    let ambient = PaperParameters::default().ambient;
    let (hottest, t_end) = sol.hottest_wire().expect("wire QoIs present");
    assert!(hottest < 12);
    assert!(t_end.is_finite(), "wire temperature is finite");
    // One second of 40 mV drive heats the wires, but nowhere near fusing:
    // physically plausible means "warmer than ambient, below the 523 K
    // critical temperature with margin".
    assert!(
        t_end > ambient - 1e-6,
        "wire must not cool below ambient: {t_end} K < {ambient} K"
    );
    assert!(
        t_end < 523.0,
        "one step at 40 mV must stay below the critical temperature: {t_end} K"
    );

    // Every wire series starts at ambient and stays finite.
    for j in 0..12 {
        let series = sol.wire_series(j);
        assert_eq!(series.len(), 2, "t = 0 and t = 1 s");
        assert!((series[0] - ambient).abs() < 1e-9, "starts at ambient");
        assert!(series[1].is_finite());
        assert!(series[1] >= series[0] - 1e-9, "heating, not cooling");
    }
}
