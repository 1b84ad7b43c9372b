//! The surrogate fast path: training, error-controlled serving with full-
//! solver fallback, and the limit-state adapter that lets the rare-event
//! estimators screen candidates through it.
//!
//! Three pieces:
//!
//! * [`train_surrogates`] — the offline pipeline: draws a seeded
//!   standard-normal design, pushes it through the batched ensemble engine
//!   ([`run_ensemble_batched`]) and fits one error-controlled
//!   [`Surrogate`] per QoI of the scenario,
//! * [`SurrogateWithFallback`] — the serving tier: a
//!   [`QoiEvaluator`] that answers from the surrogates whenever every
//!   per-QoI error estimate is within tolerance (and, optionally, the
//!   prediction is not near a decision threshold), and routes everything
//!   else through a wrapped full-solve evaluator. Fallback results are
//!   logged and can be folded back into the surrogates
//!   ([`SurrogateWithFallback::refine_now`], or automatically every
//!   `auto_refine` points) — active-learning refinement at zero extra
//!   solves,
//! * [`QoiLimitState`] — adapts any [`QoiEvaluator`] to the
//!   [`LimitState`] interface, so subset simulation and the direct-sampling
//!   estimators run their candidate sweeps through the surrogate tier and
//!   pay full transients only where the surrogate cannot certify its
//!   answer.
//!
//! **Bias bound.** A served answer differs from the full solve by at most
//! the error estimate at its germ point, which is `≤ tolerance` by the
//! serving rule; with a near-threshold guard of band `≥ tolerance` on the
//! response QoI, served *indicators* `Y ≥ b` are exact, so the screening
//! bias of an estimate is bounded by the tolerance — and vanishes for the
//! indicator when the guard is on.
//!
//! **Determinism.** Serving decisions depend only on the sample itself,
//! fallback batches preserve sample order, and the ensemble merge is
//! sample-ordered — estimates built on this tier are bit-identical for any
//! worker-thread count.

use crate::error::ReliabilityError;
use crate::limit_state::{substream, LimitState, StdNormal};
use etherm_core::{
    run_ensemble_batched, BatchScenario, CompiledModel, CoreError, EnsembleOptions, QoiEvaluator,
    SolveCounters,
};
use etherm_uq::{Distribution, Surrogate, SurrogateOptions};
use std::sync::Arc;

/// Design of a [`train_surrogates`] campaign.
#[derive(Debug, Clone)]
pub struct SurrogateTrainingPlan {
    /// Training-design size (germ samples drawn and solved).
    pub n_train: usize,
    /// Seed of the deterministic standard-normal design.
    pub seed: u64,
    /// Per-QoI surrogate fit options (degree, holdout split, safety).
    pub surrogate: SurrogateOptions,
}

impl SurrogateTrainingPlan {
    /// `n_train` samples under `seed` with default [`SurrogateOptions`].
    pub fn new(n_train: usize, seed: u64) -> Self {
        SurrogateTrainingPlan {
            n_train,
            seed,
            surrogate: SurrogateOptions::default(),
        }
    }
}

/// Output of [`train_surrogates`]: one fitted surrogate per scenario QoI
/// plus the cost ledger of the training campaign.
#[derive(Debug, Clone)]
pub struct TrainedSurrogate {
    /// One error-controlled surrogate per QoI, in QoI order.
    pub surrogates: Vec<Surrogate>,
    /// Linear-solver counters of the training ensemble.
    pub counters: SolveCounters,
    /// Training samples quarantined by the ensemble (excluded from the fit).
    pub quarantined: usize,
}

/// Fits one [`Surrogate`] per QoI of `scenario` from a seeded
/// standard-normal design of `plan.n_train` germ points: the design is
/// mapped to physical space through `marginals`
/// ([`Distribution::from_std_normal`]), solved by the batched ensemble
/// engine (one matrix traversal advancing a whole panel), and each QoI
/// column is fitted with a deterministic held-out split for the error
/// model. Identical inputs produce bit-identical surrogates for any
/// `options.n_threads`.
///
/// # Errors
///
/// [`ReliabilityError::InvalidOptions`] on an empty plan or marginal set,
/// [`ReliabilityError::Core`] on solver failure,
/// [`ReliabilityError::Evaluation`] when the campaign quarantined
/// everything or QoI lengths are inconsistent, and
/// [`ReliabilityError::Surrogate`] when a QoI design is degenerate or too
/// small for the basis.
pub fn train_surrogates<S: BatchScenario>(
    compiled: &Arc<CompiledModel>,
    scenario: &S,
    marginals: &[Box<dyn Distribution>],
    plan: &SurrogateTrainingPlan,
    options: &EnsembleOptions,
) -> Result<TrainedSurrogate, ReliabilityError> {
    let d = marginals.len();
    if d == 0 || plan.n_train == 0 {
        return Err(ReliabilityError::InvalidOptions(
            "train_surrogates: need ≥ 1 marginal and n_train ≥ 1".into(),
        ));
    }
    let mut draw = StdNormal::new(substream(plan.seed, u64::MAX, 0));
    let germ: Vec<Vec<f64>> = (0..plan.n_train).map(|_| draw.point(d)).collect();
    let physical: Vec<Vec<f64>> = germ
        .iter()
        .map(|u| {
            u.iter()
                .zip(marginals)
                .map(|(&z, m)| m.from_std_normal(z))
                .collect()
        })
        .collect();
    let result = run_ensemble_batched(compiled, scenario, &physical, options)?;

    let mut kept_germ = Vec::with_capacity(plan.n_train);
    let mut kept_qoi: Vec<&Vec<f64>> = Vec::with_capacity(plan.n_train);
    let mut quarantined = 0usize;
    for (u, qoi) in germ.iter().zip(&result.outputs) {
        if qoi.is_empty() {
            quarantined += 1;
        } else {
            kept_germ.push(u.clone());
            kept_qoi.push(qoi);
        }
    }
    let n_qoi = match kept_qoi.first() {
        Some(q) => q.len(),
        None => {
            return Err(ReliabilityError::Evaluation(
                "train_surrogates: every training sample was quarantined".into(),
            ))
        }
    };
    if let Some(bad) = kept_qoi.iter().find(|q| q.len() != n_qoi) {
        return Err(ReliabilityError::Evaluation(format!(
            "train_surrogates: inconsistent QoI lengths ({} vs {n_qoi})",
            bad.len()
        )));
    }

    let mut surrogates = Vec::with_capacity(n_qoi);
    for q in 0..n_qoi {
        let y: Vec<f64> = kept_qoi.iter().map(|qoi| qoi[q]).collect();
        surrogates.push(Surrogate::fit(&kept_germ, &y, d, plan.surrogate.clone())?);
    }
    Ok(TrainedSurrogate {
        surrogates,
        counters: result.counters,
        quarantined,
    })
}

/// The error-controlled serving tier: a [`QoiEvaluator`] that answers a
/// sample from its per-QoI surrogates **iff every error estimate at the
/// sample's germ point is ≤ `tolerance`** (and the optional near-threshold
/// guard holds), and routes the rest through the wrapped fallback
/// evaluator in one order-preserving batch.
///
/// The evaluator's QoI vector is the surrogate-modeled prefix: fallback
/// outputs are truncated to the first `surrogates.len()` entries, so every
/// non-empty answer has the same length whichever path produced it.
///
/// Fallback (germ, QoI) pairs are logged into a refinement buffer; call
/// [`SurrogateWithFallback::refine_now`] (or arm
/// [`SurrogateWithFallback::with_auto_refine`]) to fold them back into the
/// surrogates — already-paid solves become training data.
pub struct SurrogateWithFallback<F: QoiEvaluator> {
    fallback: F,
    surrogates: Vec<Surrogate>,
    marginals: Vec<Box<dyn Distribution>>,
    tolerance: f64,
    guard: Option<(f64, f64)>,
    auto_refine: usize,
    refinement: Vec<(Vec<f64>, Vec<f64>)>,
    served: usize,
    max_served_error: f64,
    refinements: usize,
}

impl<F: QoiEvaluator> SurrogateWithFallback<F> {
    /// Wraps `fallback` with the trained `surrogates` (one per served QoI)
    /// and the germ transform `marginals`; a sample is served only when
    /// every surrogate's error estimate is ≤ `tolerance`.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::InvalidOptions`] on an empty surrogate set, a
    /// non-positive or non-finite tolerance, or any dimension mismatch
    /// between fallback, marginals and surrogates.
    pub fn new(
        fallback: F,
        surrogates: Vec<Surrogate>,
        marginals: Vec<Box<dyn Distribution>>,
        tolerance: f64,
    ) -> Result<Self, ReliabilityError> {
        if surrogates.is_empty() {
            return Err(ReliabilityError::InvalidOptions(
                "SurrogateWithFallback: need ≥ 1 surrogate".into(),
            ));
        }
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(ReliabilityError::InvalidOptions(format!(
                "SurrogateWithFallback: tolerance must be finite and > 0 (got {tolerance})"
            )));
        }
        let d = fallback.dim();
        if marginals.len() != d {
            return Err(ReliabilityError::InvalidOptions(format!(
                "SurrogateWithFallback: {} marginals for fallback dimension {d}",
                marginals.len()
            )));
        }
        if let Some(s) = surrogates.iter().find(|s| s.dim() != d) {
            return Err(ReliabilityError::InvalidOptions(format!(
                "SurrogateWithFallback: surrogate dimension {} vs fallback {d}",
                s.dim()
            )));
        }
        Ok(SurrogateWithFallback {
            fallback,
            surrogates,
            marginals,
            tolerance,
            guard: None,
            auto_refine: 0,
            refinement: Vec::new(),
            served: 0,
            max_served_error: 0.0,
            refinements: 0,
        })
    }

    /// Arms the near-threshold guard on QoI 0: a sample whose predicted
    /// response lies within `band` of `threshold` falls back to the full
    /// solver even when its error estimate is in tolerance. With
    /// `band ≥ tolerance` every served indicator `Y ≥ threshold` is exact
    /// — the screening-bias guarantee of the estimators.
    pub fn with_near_threshold_guard(mut self, threshold: f64, band: f64) -> Self {
        self.guard = Some((threshold, band));
        self
    }

    /// Retrains automatically once `every` fallback points have been
    /// logged (0 = manual refinement only, the default).
    pub fn with_auto_refine(mut self, every: usize) -> Self {
        self.auto_refine = every;
        self
    }

    /// Folds every logged fallback point into the surrogates and drains
    /// the log, returning how many points were absorbed. All-or-nothing:
    /// on error no surrogate is modified and the log is kept.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::Surrogate`] when the extended design is
    /// degenerate.
    pub fn refine_now(&mut self) -> Result<usize, ReliabilityError> {
        if self.refinement.is_empty() {
            return Ok(0);
        }
        let xi: Vec<Vec<f64>> = self.refinement.iter().map(|(u, _)| u.clone()).collect();
        let mut refitted = Vec::with_capacity(self.surrogates.len());
        for (q, s) in self.surrogates.iter().enumerate() {
            let y: Vec<f64> = self.refinement.iter().map(|(_, qoi)| qoi[q]).collect();
            let mut candidate = s.clone();
            candidate.refit_with(&xi, &y)?;
            refitted.push(candidate);
        }
        self.surrogates = refitted;
        self.refinements += 1;
        let absorbed = self.refinement.len();
        self.refinement.clear();
        Ok(absorbed)
    }

    fn germ(&self, sample: &[f64]) -> Vec<f64> {
        sample
            .iter()
            .zip(&self.marginals)
            .map(|(&x, m)| m.to_std_normal(x))
            .collect()
    }

    /// Whether a sample would be served, with its predictions and worst
    /// error estimate.
    fn screen(&self, germ: &[f64]) -> (Vec<f64>, f64, bool) {
        let mut preds = Vec::with_capacity(self.surrogates.len());
        let mut worst = 0.0f64;
        let mut finite = true;
        for s in &self.surrogates {
            let (p, e) = s.predict_with_error(germ);
            finite &= p.is_finite() && e.is_finite();
            worst = worst.max(e);
            preds.push(p);
        }
        let mut serve = finite && worst <= self.tolerance;
        if let Some((threshold, band)) = self.guard {
            serve = serve && (preds[0] - threshold).abs() > band;
        }
        (preds, worst, serve)
    }

    /// The fitted surrogates, in QoI order (refined in place over time).
    pub fn surrogates(&self) -> &[Surrogate] {
        &self.surrogates
    }

    /// The wrapped fallback evaluator.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// The serving tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Largest error estimate among all answers served so far — always
    /// ≤ [`SurrogateWithFallback::tolerance`] by the serving rule, and the
    /// certified bound on `max |served − full solve|`.
    pub fn max_served_error(&self) -> f64 {
        self.max_served_error
    }

    /// Fallback points logged and not yet folded into the surrogates.
    pub fn pending_refinement(&self) -> usize {
        self.refinement.len()
    }

    /// Completed refinement passes.
    pub fn refinements(&self) -> usize {
        self.refinements
    }
}

impl<F: QoiEvaluator> QoiEvaluator for SurrogateWithFallback<F> {
    fn dim(&self) -> usize {
        self.fallback.dim()
    }

    fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        let n_qoi = self.surrogates.len();
        let mut outputs: Vec<Option<Vec<f64>>> = Vec::with_capacity(samples.len());
        let mut fallback_idx = Vec::new();
        let mut fallback_samples = Vec::new();
        let mut fallback_germ = Vec::new();
        let mut served_errors = Vec::new();
        for (i, sample) in samples.iter().enumerate() {
            let germ = self.germ(sample);
            let (preds, worst, serve) = self.screen(&germ);
            if serve {
                served_errors.push(worst);
                outputs.push(Some(preds));
            } else {
                fallback_idx.push(i);
                fallback_samples.push(sample.clone());
                fallback_germ.push(germ);
                outputs.push(None);
            }
        }

        let solved = self.fallback.evaluate(&fallback_samples)?;
        for ((i, germ), qoi) in fallback_idx
            .into_iter()
            .zip(fallback_germ)
            .zip(solved)
        {
            if qoi.is_empty() {
                // Quarantined by the fallback: pass the marker through,
                // nothing to learn from.
                outputs[i] = Some(Vec::new());
            } else if qoi.len() < n_qoi {
                return Err(CoreError::InvalidModel(format!(
                    "SurrogateWithFallback: fallback returned {} QoIs for {n_qoi} surrogates",
                    qoi.len()
                )));
            } else {
                let mut prefix = qoi;
                prefix.truncate(n_qoi);
                self.refinement.push((germ, prefix.clone()));
                outputs[i] = Some(prefix);
            }
        }
        // Commit serving stats only after the fallback batch succeeded, so
        // a solver error leaves the ledger consistent.
        self.served += served_errors.len();
        for e in served_errors {
            self.max_served_error = self.max_served_error.max(e);
        }
        if self.auto_refine > 0 && self.refinement.len() >= self.auto_refine {
            self.refine_now().map_err(|e| {
                CoreError::InvalidModel(format!("surrogate auto-refinement failed: {e}"))
            })?;
        }
        Ok(outputs.into_iter().flatten().collect())
    }

    fn full_solves(&self) -> usize {
        self.fallback.full_solves()
    }

    fn served(&self) -> usize {
        self.served + self.fallback.served()
    }

    fn counters(&self) -> SolveCounters {
        self.fallback.counters()
    }
}

/// Adapts any [`QoiEvaluator`] to the [`LimitState`] interface: each
/// standard-normal point is mapped to physical space through the
/// marginals, the evaluator answers the batch, and **QoI 0 is the
/// limit-state response** — the convention `etherm_package::FailureScenario`
/// implements with its early-exited peak temperature. Quarantined samples
/// (empty QoI vectors) become `NaN` responses, which every estimator counts
/// as "not failed".
///
/// Over a plain `FullSolve` this is the engine-backed limit state: every
/// batch fans out over `run_ensemble` worker sessions and merges in sample
/// order, so estimates are bit-deterministic for any
/// `EnsembleOptions::n_threads`; the solve ledger is
/// `evaluator().counters()`. Wrap a [`SurrogateWithFallback`] instead to
/// surrogate-screen an estimator's candidate sweep.
pub struct QoiLimitState<E: QoiEvaluator> {
    evaluator: E,
    marginals: Vec<Box<dyn Distribution>>,
    threshold: f64,
    quarantined: usize,
}

impl<E: QoiEvaluator> QoiLimitState<E> {
    /// Binds an evaluator, the standard-normal marginal transforms
    /// (`marginals.len()` = evaluator dimension) and the failure threshold
    /// on QoI 0.
    pub fn new(evaluator: E, marginals: Vec<Box<dyn Distribution>>, threshold: f64) -> Self {
        assert_eq!(
            marginals.len(),
            evaluator.dim(),
            "QoiLimitState: marginal count must match evaluator dimension"
        );
        QoiLimitState {
            evaluator,
            marginals,
            threshold,
            quarantined: 0,
        }
    }

    /// The wrapped evaluator (serving/fallback ledger lives there).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Consumes the adapter, returning the evaluator.
    pub fn into_evaluator(self) -> E {
        self.evaluator
    }

    /// Samples quarantined so far (reported as `NaN` responses).
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }
}

impl<E: QoiEvaluator> LimitState for QoiLimitState<E> {
    fn dim(&self) -> usize {
        self.marginals.len()
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn evaluate(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, ReliabilityError> {
        let d = self.marginals.len();
        let samples: Vec<Vec<f64>> = points
            .iter()
            .map(|u| {
                assert_eq!(u.len(), d, "point dimension mismatch");
                u.iter()
                    .zip(&self.marginals)
                    .map(|(&z, m)| m.from_std_normal(z))
                    .collect()
            })
            .collect();
        let outputs = self.evaluator.evaluate(&samples)?;
        if outputs.len() != points.len() {
            return Err(ReliabilityError::Evaluation(format!(
                "QoiLimitState: evaluator returned {} outputs for {} points",
                outputs.len(),
                points.len()
            )));
        }
        Ok(outputs
            .iter()
            .map(|qoi| match qoi.first() {
                Some(&y) => y,
                None => {
                    self.quarantined += 1;
                    f64::NAN
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::MonteCarloEstimator;
    use crate::limit_state::FailureEstimator;
    use etherm_uq::Normal;

    /// Analytic stand-in for the full solver: QoIs
    /// `[x₀ + x₁², x₀·x₁]` plus a cubic wrinkle the degree-2 surrogate
    /// cannot represent.
    struct Analytic {
        evaluated: usize,
    }

    fn truth(x: &[f64]) -> Vec<f64> {
        vec![
            x[0] + x[1] * x[1] + 0.02 * x[0].powi(3),
            x[0] * x[1],
        ]
    }

    impl QoiEvaluator for Analytic {
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
            self.evaluated += samples.len();
            Ok(samples.iter().map(|x| truth(x)).collect())
        }
        fn full_solves(&self) -> usize {
            self.evaluated
        }
        fn served(&self) -> usize {
            0
        }
        fn counters(&self) -> SolveCounters {
            SolveCounters::default()
        }
    }

    fn std_marginals() -> Vec<Box<dyn Distribution>> {
        vec![Box::new(Normal::new(0.0, 1.0).unwrap()), Box::new(Normal::new(0.0, 1.0).unwrap())]
    }

    /// Deterministic design on [-2, 2]² and its QoI responses.
    fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xi: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = ((i * 7 + 3) % 17) as f64 / 16.0;
                let b = ((i * 5 + 1) % 13) as f64 / 12.0;
                vec![4.0 * a - 2.0, 4.0 * b - 2.0]
            })
            .collect();
        let y = xi.iter().map(|x| truth(x)).collect();
        (xi, y)
    }

    fn fitted_surrogates(n: usize) -> Vec<Surrogate> {
        let (xi, y) = training_data(n);
        (0..2)
            .map(|q| {
                let col: Vec<f64> = y.iter().map(|qoi| qoi[q]).collect();
                Surrogate::fit(&xi, &col, 2, SurrogateOptions::default()).expect("fit")
            })
            .collect()
    }

    fn wrapped(tolerance: f64) -> SurrogateWithFallback<Analytic> {
        SurrogateWithFallback::new(
            Analytic { evaluated: 0 },
            fitted_surrogates(36),
            std_marginals(),
            tolerance,
        )
        .expect("wrap")
    }

    #[test]
    fn serves_in_tolerance_and_falls_back_outside() {
        let mut sf = wrapped(0.5);
        // Mixed batch: points inside the design hull (servable) and far
        // outside it (inflated error estimate forces fallback).
        let batch: Vec<Vec<f64>> = vec![
            vec![0.3, -0.4],
            vec![5.0, 5.0],
            vec![-0.8, 0.2],
            vec![-6.0, 1.0],
        ];
        let out = sf.evaluate(&batch).expect("evaluate");
        assert_eq!(out.len(), 4);
        assert!(sf.served() >= 2, "inside-hull points must be served");
        assert!(sf.full_solves() >= 2, "outside points must fall back");
        assert_eq!(sf.served() + sf.full_solves(), 4);
        // Every answer — served or not — is within tolerance of the truth
        // on QoI 0 and 1, because fallback answers are exact and served
        // answers are certified.
        for (x, qoi) in batch.iter().zip(&out) {
            let t = truth(x);
            assert!((qoi[0] - t[0]).abs() <= 0.5, "{} vs {}", qoi[0], t[0]);
            assert!((qoi[1] - t[1]).abs() <= 0.5);
        }
        assert!(sf.max_served_error() <= sf.tolerance());
        assert_eq!(sf.pending_refinement(), sf.full_solves());
    }

    #[test]
    fn near_threshold_guard_forces_full_solves() {
        let x = vec![0.3, -0.4];
        let mut free = wrapped(0.5);
        free.evaluate(std::slice::from_ref(&x)).expect("evaluate");
        assert_eq!(free.served(), 1);
        let pred = free.surrogates()[0].predict(&x);

        // Guard centred on the prediction: the same point now falls back.
        let mut guarded = wrapped(0.5).with_near_threshold_guard(pred, 0.5);
        guarded.evaluate(std::slice::from_ref(&x)).expect("evaluate");
        assert_eq!(guarded.served(), 0);
        assert_eq!(guarded.full_solves(), 1);
    }

    #[test]
    fn refinement_absorbs_fallback_points() {
        let mut sf = wrapped(0.5);
        let far: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![3.0 + 0.25 * i as f64, -3.0 + 0.5 * i as f64])
            .collect();
        sf.evaluate(&far).expect("evaluate");
        let logged = sf.pending_refinement();
        assert!(logged > 0);
        let before = sf.surrogates()[0].n_samples();
        assert_eq!(sf.refine_now().expect("refine"), logged);
        assert_eq!(sf.pending_refinement(), 0);
        assert_eq!(sf.surrogates()[0].n_samples(), before + logged);
        assert_eq!(sf.refinements(), 1);
        assert_eq!(sf.refine_now().expect("no-op"), 0);
    }

    #[test]
    fn auto_refine_triggers_on_logged_points() {
        let mut sf = wrapped(0.5).with_auto_refine(4);
        let far: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![3.0 + 0.25 * i as f64, -3.0 + 0.5 * i as f64])
            .collect();
        sf.evaluate(&far).expect("evaluate");
        assert!(sf.refinements() >= 1, "auto-refine must have fired");
        assert!(sf.pending_refinement() < 4);
    }

    #[test]
    fn invalid_construction_is_rejected() {
        let mk = || Analytic { evaluated: 0 };
        assert!(SurrogateWithFallback::new(mk(), vec![], std_marginals(), 0.5).is_err());
        assert!(
            SurrogateWithFallback::new(mk(), fitted_surrogates(36), std_marginals(), 0.0)
                .is_err()
        );
        assert!(SurrogateWithFallback::new(
            mk(),
            fitted_surrogates(36),
            vec![Box::new(Normal::new(0.0, 1.0).unwrap())],
            0.5
        )
        .is_err());
    }

    #[test]
    fn qoi_limit_state_matches_direct_indicator_counting() {
        // P(x₀ + x₁² + 0.02·x₀³ ≥ b) through the adapter over a plain
        // full-solve-style evaluator must equal hand-counted indicators
        // over the same deterministic sample stream.
        let threshold = 2.0;
        let mut ls = QoiLimitState::new(Analytic { evaluated: 0 }, std_marginals(), threshold);
        assert_eq!(ls.dim(), 2);
        assert_eq!(ls.threshold(), threshold);
        let est = MonteCarloEstimator::new(2000, 11)
            .estimate(&mut ls)
            .expect("estimate");
        let mut draw = StdNormal::new(11);
        let mut failures = 0usize;
        for _ in 0..2000 {
            let u = draw.point(2);
            failures += (truth(&u)[0] >= threshold) as usize;
        }
        assert_eq!(est.probability, failures as f64 / 2000.0);
        assert!(est.probability > 0.0);
        assert_eq!(ls.quarantined(), 0);
        assert_eq!(ls.into_evaluator().full_solves(), 2000);
    }

    /// Drops the first sample's answer: a broken evaluator contract.
    struct ShortAnswer;

    impl QoiEvaluator for ShortAnswer {
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
            Ok(samples[1..].iter().map(|x| truth(x)).collect())
        }
        fn full_solves(&self) -> usize {
            0
        }
        fn served(&self) -> usize {
            0
        }
        fn counters(&self) -> SolveCounters {
            SolveCounters::default()
        }
    }

    #[test]
    fn short_evaluator_output_is_an_evaluation_error() {
        let mut ls = QoiLimitState::new(ShortAnswer, std_marginals(), 2.0);
        let points = vec![vec![0.0, 0.0], vec![1.0, -1.0], vec![0.5, 0.5]];
        match ls.evaluate(&points) {
            Err(ReliabilityError::Evaluation(msg)) => {
                assert!(msg.contains("2 outputs for 3 points"), "{msg}")
            }
            other => panic!("expected an Evaluation error, got {other:?}"),
        }
        assert_eq!(ls.quarantined(), 0);
    }

    #[test]
    fn screened_estimate_stays_within_tolerance_of_reference() {
        // The same MC campaign through the surrogate tier with a
        // near-threshold guard: indicators are exact wherever served, so
        // the estimate is bit-identical to the reference while paying far
        // fewer "solves".
        let threshold = 2.0;
        let tol = 0.4;
        let reference = {
            let mut ls =
                QoiLimitState::new(Analytic { evaluated: 0 }, std_marginals(), threshold);
            MonteCarloEstimator::new(2000, 11).estimate(&mut ls).expect("ref")
        };
        let sf = wrapped(tol).with_near_threshold_guard(threshold, tol);
        let mut ls = QoiLimitState::new(sf, std_marginals(), threshold);
        let screened = MonteCarloEstimator::new(2000, 11).estimate(&mut ls).expect("screened");
        assert_eq!(screened.probability, reference.probability);
        let sf = ls.into_evaluator();
        assert!(sf.served() > 0, "nothing was served");
        assert!(
            sf.full_solves() < 2000,
            "screening saved no solves: {}",
            sf.full_solves()
        );
        assert!(sf.max_served_error() <= tol);
    }
}
