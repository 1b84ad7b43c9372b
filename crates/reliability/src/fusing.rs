//! Fusing-current search: the largest drive the package survives.
//!
//! The classical wire-sizing rules (Preece's steady rule of thumb,
//! Onderdonk's adiabatic limit — `etherm_bondwire::analytic`) bound the
//! *melting* current of an isolated wire. The field-coupled analogue asked
//! by the paper is subtler: at which drive level does the hottest wire of
//! the *package* (with its real pad cooling and mold coupling) first reach
//! the degradation threshold? [`find_critical_load`] answers it on the
//! session's drive scale: doublings from the low end bracket the critical
//! scale, then bisection narrows the bracket, reusing one session across
//! the transients without a reset, so the probes share its cached
//! preconditioners — and every failing probe early-exits at its threshold
//! crossing, so the failing side of the bracket costs a fraction of a full
//! run.

use crate::error::ReliabilityError;
use etherm_core::{Session, ThresholdObserver};
use etherm_uq::Distribution;

/// Controls of [`find_critical_load`].
#[derive(Debug, Clone, PartialEq)]
pub struct FusingSearchOptions {
    /// Transient horizon (s) a probe must survive.
    pub t_end: f64,
    /// Implicit-Euler steps of a probe.
    pub n_steps: usize,
    /// Failure threshold on `maxⱼ T_bw,j` (K) — the paper's
    /// `T_critical = 523 K` for mold degradation.
    pub threshold: f64,
    /// Lower end of the drive-scale bracket (expected safe); the search
    /// doubles the scale from here.
    pub scale_lo: f64,
    /// Upper end of the drive-scale bracket: the doublings stop here, and
    /// a search that finds it safe reports it.
    pub scale_hi: f64,
    /// Relative bracket-width target: bisection stops when
    /// `hi − lo ≤ tol_rel·hi`.
    pub tol_rel: f64,
    /// Iteration cap of the bisection.
    pub max_iter: usize,
}

impl Default for FusingSearchOptions {
    fn default() -> Self {
        FusingSearchOptions {
            t_end: 50.0,
            n_steps: 50,
            threshold: 523.0,
            scale_lo: 1.0,
            scale_hi: 32.0,
            tol_rel: 1e-2,
            max_iter: 40,
        }
    }
}

/// Result of the fusing-current search.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalLoad {
    /// Largest drive scale observed safe (0 when even `scale_lo` fails,
    /// `scale_hi` when nothing in the bracket fails).
    pub scale: f64,
    /// Final `(safe, failing)` bracket; degenerate when the search
    /// saturated at an end.
    pub bracket: (f64, f64),
    /// Transient probes run.
    pub runs: usize,
    /// Probes that early-exited at a threshold crossing.
    pub early_exits: usize,
    /// Crossing time (s) of the last failing probe, if any — how quickly an
    /// overload at the failing end of the bracket kills the package. The
    /// probes run no crossing sub-steps, so this is the linear
    /// interpolation on the violating step (the
    /// `etherm_bondwire::degradation::first_crossing` estimate).
    pub failing_crossing_time: Option<f64>,
}

/// Finds the critical drive scale of the session's model. It probes
/// `scale_lo`, then doubles the scale, clamped to `scale_hi`, up to the
/// first failing probe (from `scale_lo = 0` the first doubling is
/// `scale_hi`), and bisects between that probe and the last safe one. The
/// result does not depend on `scale_hi` once `scale_hi` lies past the first
/// failing doubling. The session's wire lengths (and any other applied
/// parameters) are honored. The search never resets the session, so
/// consecutive probes share its cached preconditioners; they change
/// iteration counts, and a probe's temperatures only within the inner
/// solver tolerance. On return the session's drive
/// scale is left at the reported safe `scale`; on error the entering drive
/// scale is restored instead.
///
/// # Errors
///
/// Returns [`ReliabilityError::InvalidOptions`] for an inconsistent
/// bracket/tolerance; solver failures propagate.
pub fn find_critical_load(
    session: &mut Session,
    options: &FusingSearchOptions,
) -> Result<CriticalLoad, ReliabilityError> {
    let valid = options.t_end > 0.0
        && options.n_steps > 0
        && options.threshold.is_finite()
        && options.scale_lo >= 0.0
        && options.scale_hi > options.scale_lo
        && options.scale_hi.is_finite()
        && options.tol_rel > 0.0
        && options.max_iter > 0;
    if !valid {
        return Err(ReliabilityError::InvalidOptions(format!(
            "inconsistent fusing search options: {options:?}"
        )));
    }
    let original_scale = session.drive_scale();
    let result = search(session, options);
    if result.is_err() {
        // A solver failure mid-bisection must not leave the caller's
        // session at the failing probe's overload (the scale was valid
        // before, so restoring it cannot fail).
        let _ = session.set_drive_scale(original_scale);
    }
    result
}

/// One probe of [`find_critical_load_sampled`]: the realized degradation
/// threshold and the critical load found under it.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCriticalLoad {
    /// Realized threshold (K), `F⁻¹(u)` of the threshold distribution.
    pub threshold: f64,
    /// Critical-load search result at that threshold.
    pub load: CriticalLoad,
}

/// Per-sample fusing-current search under a *random* degradation
/// threshold: the mold's critical temperature is itself scattered (cure
/// state, filler content), so the fusing current is a random variable. For
/// each probe point `u ∈ (0, 1)` the threshold is realized by inversion,
/// `T_crit = F⁻¹(u)`, and the bisection of [`find_critical_load`] runs at
/// that threshold — one session carries its cached preconditioners across
/// the whole sweep, so sample `i+1` starts from the preconditioners of
/// sample `i`'s last probe.
///
/// The probe points are caller-supplied (iid uniforms, Latin Hypercube,
/// or Halton from `etherm_uq::sampling`), which keeps the sweep
/// bit-deterministic for a fixed design. Results are returned in probe
/// order.
///
/// # Errors
///
/// Returns [`ReliabilityError::InvalidOptions`] when a probe point lies
/// outside `(0, 1)` or its realized threshold is not finite, and
/// propagates any [`find_critical_load`] failure (the session's drive
/// scale is restored by the inner search on error).
pub fn find_critical_load_sampled(
    session: &mut Session,
    options: &FusingSearchOptions,
    threshold: &dyn Distribution,
    probes_u: &[f64],
) -> Result<Vec<SampledCriticalLoad>, ReliabilityError> {
    let mut out = Vec::with_capacity(probes_u.len());
    for &u in probes_u {
        if !(u > 0.0 && u < 1.0) {
            return Err(ReliabilityError::InvalidOptions(format!(
                "threshold probe point {u} outside (0, 1)"
            )));
        }
        let t_crit = threshold.quantile(u);
        if !t_crit.is_finite() {
            return Err(ReliabilityError::InvalidOptions(format!(
                "threshold quantile({u}) = {t_crit} is not finite"
            )));
        }
        let sample_options = FusingSearchOptions {
            threshold: t_crit,
            ..options.clone()
        };
        let load = find_critical_load(session, &sample_options)?;
        out.push(SampledCriticalLoad {
            threshold: t_crit,
            load,
        });
    }
    Ok(out)
}

fn search(
    session: &mut Session,
    options: &FusingSearchOptions,
) -> Result<CriticalLoad, ReliabilityError> {
    let mut runs = 0usize;
    let mut early_exits = 0usize;
    let mut failing_crossing_time = None;
    let probe = |session: &mut Session,
                     scale: f64,
                     runs: &mut usize,
                     early_exits: &mut usize,
                     crossing: &mut Option<f64>|
     -> Result<bool, ReliabilityError> {
        session.set_drive_scale(scale)?;
        // The search reads only whether a probe crossed: no sub-steps to
        // refine the crossing time.
        let mut observer = ThresholdObserver::new(options.threshold).with_bisections(0);
        let observed = session.run_transient_observed(
            options.t_end,
            options.n_steps,
            &[],
            &mut observer,
        )?;
        *runs += 1;
        if observed.stopped_early {
            *early_exits += 1;
        }
        if let Some(t) = observed.crossing_time {
            *crossing = Some(t);
        }
        Ok(observed.crossing_time.is_some())
    };

    // Bracket: the low end, then doublings clamped to the high end, up to
    // the first failing probe. A failing probe far past the critical scale
    // costs the most Picard iterates, so the search stays near it.
    if probe(
        session,
        options.scale_lo,
        &mut runs,
        &mut early_exits,
        &mut failing_crossing_time,
    )? {
        // Already failing at the low end: nothing in the bracket is safe.
        session.set_drive_scale(0.0)?;
        return Ok(CriticalLoad {
            scale: 0.0,
            bracket: (0.0, options.scale_lo),
            runs,
            early_exits,
            failing_crossing_time,
        });
    }
    let mut lo = options.scale_lo;
    let mut hi = loop {
        let next = if lo > 0.0 {
            (2.0 * lo).min(options.scale_hi)
        } else {
            options.scale_hi
        };
        if probe(
            session,
            next,
            &mut runs,
            &mut early_exits,
            &mut failing_crossing_time,
        )? {
            break next;
        }
        if next >= options.scale_hi {
            // Safe everywhere in the bracket.
            session.set_drive_scale(options.scale_hi)?;
            return Ok(CriticalLoad {
                scale: options.scale_hi,
                bracket: (options.scale_hi, options.scale_hi),
                runs,
                early_exits,
                failing_crossing_time,
            });
        }
        lo = next;
    };

    for _ in 0..options.max_iter {
        if hi - lo <= options.tol_rel * hi {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if probe(
            session,
            mid,
            &mut runs,
            &mut early_exits,
            &mut failing_crossing_time,
        )? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    session.set_drive_scale(lo)?;
    Ok(CriticalLoad {
        scale: lo,
        bracket: (lo, hi),
        runs,
        early_exits,
        failing_crossing_time,
    })
}
