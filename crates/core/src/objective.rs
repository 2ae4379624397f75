//! The live federated tuning objective with noisy evaluation.
//!
//! [`BatchFederatedObjective`] (a [`ConcurrentObjective`]) connects the HPO
//! methods of `fedhpo` to the federated simulator: every evaluation trains
//! (or resumes) the configuration's federated training run up to the
//! requested rounds and scores the current global model as the paper's
//! server does — on the validation clients the evaluation samples, with the
//! configured evaluation noise — and returns the noisy error the scheduler
//! acts on. The true full-validation error is what an experimenter asks
//! for, not what the server sees: an evaluation returns it only where it
//! came free (every client was scored), and a [`CampaignLog`] holds the rest
//! as owed (`None`). The log is read only by paying what it owes
//! ([`CampaignLog::resolve`], or [`BatchFederatedObjective::log`]), once per
//! `(trial, fidelity)`; counting its entries ([`CampaignLog::len`]) pays
//! nothing. A campaign whose log nobody reads pays no full pass.
//!
//! A trial starts through [`BenchmarkContext::start_run`], and all
//! randomness is keyed by the evaluated point (see
//! [`BatchFederatedObjective`]). The objective has no thread knob: inside
//! one evaluation rounds and validation run sequentially, and how many
//! evaluations run at once is the driver's argument.

use crate::concurrent::{ConcurrentEval, ConcurrentObjective, ConcurrentSink, EvalOutput};
use crate::context::BenchmarkContext;
use crate::noise::{noisy_error, NoiseConfig, Validation};
use crate::{invalid, Result};
use feddata::Split;
use fedhpo::{BudgetLedger, TrialRequest};
use fedmath::{SeedStream, SeedTree};
use fedmodels::AnyModel;
use fedsim::evaluation::{evaluate_full, FederatedEvaluation};
use fedsim::TrainingRun;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// One logged evaluation of the objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveLogEntry {
    /// Trial (configuration) identifier assigned by the tuner.
    pub trial_id: usize,
    /// Cumulative rounds this configuration had been trained for.
    pub resource: usize,
    /// The noisy score returned to the tuner.
    pub noisy_score: f64,
    /// The true full-validation error of the model at this point.
    pub true_error: f64,
    /// Total training rounds consumed across all trials after this call.
    pub cumulative_rounds: usize,
    /// Noise replicate index: `0` for ordinary evaluations, `>= 1` for
    /// fresh-noise re-evaluations issued by the re-evaluation mitigation.
    pub noise_rep: u64,
    /// Simulated completion time of the evaluation in virtual seconds, when
    /// the campaign ran under a virtual clock; `0.0` under the barrier clock,
    /// which has no time.
    pub sim_time: f64,
}

/// An [`ObjectiveLogEntry`] as a [`CampaignLog`] holds it: its truth is
/// `None` while owed.
#[derive(Debug, Clone)]
struct Committed {
    trial_id: usize,
    resource: usize,
    noisy_score: f64,
    true_error: Option<f64>,
    cumulative_rounds: usize,
    noise_rep: u64,
    sim_time: f64,
}

impl Committed {
    /// The entry with its truth, or `None` while that is owed.
    fn paid(&self) -> Option<ObjectiveLogEntry> {
        Some(ObjectiveLogEntry {
            trial_id: self.trial_id,
            resource: self.resource,
            noisy_score: self.noisy_score,
            true_error: self.true_error?,
            cumulative_rounds: self.cumulative_rounds,
            noise_rep: self.noise_rep,
            sim_time: self.sim_time,
        })
    }
}

/// Noise-aware selection over an objective log: the true error of the
/// configuration a tuner would pick within `budget` training rounds.
///
/// If the log contains fresh-noise re-evaluations (`noise_rep >= 1`) within
/// the budget, the winner is the re-evaluated trial with the lowest *mean*
/// re-evaluation score and its mean true error is reported — the paper's §5
/// mitigation. Otherwise the winner is the entry with the lowest noisy score
/// (the selection rule the paper shows noise corrupts). Non-finite noisy
/// scores never win.
///
/// Public so store-backed objectives (`fedstore`'s recorder, which also
/// replays) apply the exact same selection rule to their logs.
pub fn selected_true_error(log: &[ObjectiveLogEntry], budget: usize) -> Option<f64> {
    select(log, |e| e.cumulative_rounds <= budget)
}

/// Noise-aware selection under a **simulated wall-clock** budget: the same
/// rule as [`selected_true_error`], but restricted to evaluations whose
/// virtual completion time is within `sim_budget` seconds — what a tuning
/// service that stops at a deadline would actually have seen. Only
/// meaningful for logs produced under a virtual clock (barrier-clock logs
/// stamp every entry at `0.0`, so any positive budget covers them all).
pub fn selected_true_error_within_sim(log: &[ObjectiveLogEntry], sim_budget: f64) -> Option<f64> {
    select(log, |e| e.sim_time <= sim_budget)
}

/// The selection rule of [`selected_true_error`] over the entries `seen`
/// keeps.
fn select(log: &[ObjectiveLogEntry], seen: impl Fn(&ObjectiveLogEntry) -> bool) -> Option<f64> {
    let within = || log.iter().filter(|e| seen(e) && e.noisy_score.is_finite());
    // (trial_id, noisy sum, true sum, count) per re-evaluated trial.
    let mut means: Vec<(usize, f64, f64, usize)> = Vec::new();
    for e in within().filter(|e| e.noise_rep >= 1) {
        match means.iter_mut().find(|(id, _, _, _)| *id == e.trial_id) {
            Some((_, noisy, true_error, count)) => {
                *noisy += e.noisy_score;
                *true_error += e.true_error;
                *count += 1;
            }
            None => means.push((e.trial_id, e.noisy_score, e.true_error, 1)),
        }
    }
    means
        .iter()
        .map(|&(id, noisy, true_error, count)| {
            (id, noisy / count as f64, true_error / count as f64)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(_, _, true_error)| true_error)
        .or_else(|| {
            within()
                .min_by(|a, b| a.noisy_score.total_cmp(&b.noisy_score))
                .map(|e| e.true_error)
        })
}

/// The campaign sink every scheduled objective in the workspace commits to:
/// per-trial state of type `S` parked between that trial's dispatches, and
/// the commit-ordered log with **campaign-side** resource accounting — a
/// configuration is charged by [`BudgetLedger`] only for fidelity above what
/// it has already reached, and an evaluation's logged `resource` is the
/// fidelity actually reached. For a live objective that is exactly what its evaluations
/// trained; for one that can answer without training (the `fedstore`
/// recorder's hits, all of a replay's) it is what the request cost the
/// campaign, so store-backed logs are comparable (and, for replayed
/// campaigns, bit-identical) to live ones.
///
/// An evaluation that returned no true error leaves its entry's truth
/// **owed** (`None`): [`resolve`](Self::resolve) pays it through the
/// evaluation half, and is the only way to read the log.
#[derive(Debug, Clone, Default)]
pub struct CampaignLog<S = ()> {
    log: Vec<Committed>,
    /// Rounds charged in commit order.
    ledger: BudgetLedger,
    states: HashMap<usize, S>,
}

impl<S> CampaignLog<S> {
    /// Logs one observation for `request`, completed at `sim_time` virtual
    /// seconds (`0.0` where there is no virtual clock), with incremental
    /// resource accounting; a `true_error` of `None` is owed until
    /// [`resolve`](Self::resolve).
    pub fn observe_at(
        &mut self,
        request: &TrialRequest,
        noisy_score: f64,
        true_error: Option<f64>,
        sim_time: f64,
    ) {
        self.ledger.charge(request.trial_id, request.resource);
        self.log.push(Committed {
            trial_id: request.trial_id,
            resource: self.ledger.reached(request.trial_id),
            noisy_score,
            true_error,
            cumulative_rounds: self.ledger.cumulative(),
            noise_rep: request.noise_rep,
            sim_time,
        });
    }

    /// Evaluations logged so far, their truths owed or paid; pays nothing.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Total campaign rounds charged so far.
    pub fn cumulative_rounds(&self) -> usize {
        self.ledger.cumulative()
    }
}

impl<S: Send + Default> CampaignLog<S> {
    /// Pays every owed true error through `eval` and returns the log, in
    /// commit order. Each trial's truths are paid in commit order against
    /// its parked state, at the fidelity its entry reached, and distinct
    /// trials — which share nothing — on up to `threads` threads
    /// (`fedmath::par::map_range`), so no bit depends on `threads`. What is
    /// paid stays paid: a failure leaves its entry and that trial's later
    /// ones owed. A log that owes nothing is read without calling `eval`.
    ///
    /// # Errors
    ///
    /// The failing [`ConcurrentEval::true_error`] earliest in commit order.
    pub fn resolve<E>(&mut self, eval: &E, threads: usize) -> Result<Vec<ObjectiveLogEntry>>
    where
        E: ConcurrentEval<State = S> + ?Sized,
    {
        let mut owed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (position, entry) in self.log.iter().enumerate() {
            if entry.true_error.is_none() {
                owed.entry(entry.trial_id).or_default().push(position);
            }
        }
        let trials: Vec<_> = owed
            .into_iter()
            .map(|(trial, owed)| {
                let state = self.states.remove(&trial).unwrap_or_default();
                Mutex::new((trial, state, owed))
            })
            .collect();
        let log = &self.log;
        let paid = fedmath::par::map_range(threads, trials.len(), |i| {
            let mut trial = trials[i].lock().unwrap_or_else(PoisonError::into_inner);
            let (trial, state, owed) = &mut *trial;
            let mut paid = Vec::with_capacity(owed.len());
            for &position in owed.iter() {
                match eval.true_error(state, *trial, log[position].resource) {
                    Ok(true_error) => paid.push(true_error),
                    Err(e) => return (paid, Some(e)),
                }
            }
            (paid, None)
        });
        let mut failures = Vec::new();
        for (trial, (paid, error)) in trials.into_iter().zip(paid) {
            let (trial, state, owed) = trial.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.states.insert(trial, state);
            for (&position, &true_error) in owed.iter().zip(&paid) {
                self.log[position].true_error = Some(true_error);
            }
            if let Some(e) = error {
                failures.push((owed[paid.len()], e));
            }
        }
        if let Some((_, e)) = failures.into_iter().min_by_key(|(position, _)| *position) {
            return Err(e);
        }
        // Every truth is paid.
        Ok(self.log.iter().filter_map(Committed::paid).collect())
    }
}

impl<S: Send + Default> ConcurrentSink for CampaignLog<S> {
    type State = S;

    fn take_state(&mut self, trial_id: usize) -> S {
        self.states.remove(&trial_id).unwrap_or_default()
    }

    fn put_state(&mut self, trial_id: usize, state: S) {
        self.states.insert(trial_id, state);
    }

    fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
        self.observe_at(request, output.noisy_score, output.true_error, sim_time);
    }
}

/// What one evaluated fidelity of a trial holds for its true error.
#[derive(Debug)]
enum Truth {
    /// The full validation pass: free where the noisy score read every
    /// client, else paid by a truth query.
    Paid(FederatedEvaluation),
    /// Owed; the trial's run still holds the evaluated model.
    Live,
    /// Owed; the evaluated model, kept when the run trained past it.
    Snapshot(AnyModel),
}

/// Per-trial mutable state of a live federated objective: the training run
/// plus, for each fidelity it evaluated, what that fidelity's true error
/// needs — the full pass once paid, else the model to pay it from.
///
/// Exactly one evaluation job owns a trial's state at a time; between
/// dispatches the whole state is parked in the campaign sink, so fresh-noise
/// replicates (`noise_rep >= 1`) of an unchanged model share one truth, paid
/// at most once per `(trial, fidelity)` in every lane. A model is copied
/// only when its run trains past a fidelity whose truth is owed. Fresh
/// trials start empty.
#[derive(Debug, Default)]
pub struct FederatedTrialState {
    run: Option<TrainingRun>,
    /// One entry per fidelity evaluated, in evaluation order.
    truths: Vec<(usize, Truth)>,
}

impl FederatedTrialState {
    /// The trained model and its full-validation evaluation at the run's
    /// fidelity, or `None` before the trial's first evaluation or while that
    /// fidelity's truth is owed: what a pool (a noiseless campaign, whose
    /// every score reads every client) keeps of each configuration.
    pub(crate) fn into_trained(self) -> Option<(AnyModel, FederatedEvaluation)> {
        let run = self.run?;
        let fidelity = run.rounds_completed();
        let evaluation = self.truths.into_iter().find_map(|(f, truth)| match truth {
            Truth::Paid(evaluation) if f == fidelity => Some(evaluation),
            _ => None,
        })?;
        Some((run.into_model(), evaluation))
    }
}

/// The order-independent federated objective behind the ask/tell scheduler
/// drivers (`fedtune_core::scheduler`).
///
/// All randomness is derived *positionally* from the evaluated **point**,
/// never from call order or trial numbering: the training run is seeded by
/// the configuration's canonical fingerprint
/// (`SearchSpace::canonical_fingerprint`) and every noise draw by
/// `(fingerprint, resource, noise_rep)` on a per-objective [`SeedTree`].
/// Every request is therefore a pure function of its own coordinates, and
/// everything in flight can evaluate on real threads at once — one job per
/// distinct trial — with results bit-identical to inline execution
/// (asserted by `tests/determinism.rs`). Point-keyed randomness also makes
/// the score a function of `(config, resource, noise_rep)` alone — two
/// trials that happen to sample the same configuration observe identical
/// draws — which is exactly the identity `fedstore`'s content-addressed
/// trial ledger keys records by. And it gives the re-evaluation mitigation
/// its contract: rep `r` of a point yields the same draw no matter when it
/// is scheduled, and distinct reps yield independent draws.
///
/// The objective is split sans-io style into a shared, `Sync` **evaluation
/// core** ([`FederatedEvalCore`]) holding the immutable campaign inputs and a
/// mutable **campaign sink** (a [`CampaignLog`]) parking per-trial state
/// and the log — the [`ConcurrentObjective`] contract, which is all
/// [`drive`](crate::scheduler::drive) asks for: under either clock, inline
/// or on a pool, it runs this same objective with bit-identical results.
pub struct BatchFederatedObjective<'a> {
    /// The thread-shared half: immutable campaign inputs.
    pub eval: FederatedEvalCore<'a>,
    /// The driver-thread half: parked trial states and the campaign's log.
    pub sink: CampaignLog<FederatedTrialState>,
}

/// The shared, thread-safe half of [`BatchFederatedObjective`]: immutable
/// campaign inputs (benchmark context, noise model, seed trees), able to
/// evaluate any request against a per-trial [`FederatedTrialState`].
pub struct FederatedEvalCore<'a> {
    ctx: &'a BenchmarkContext,
    noise: NoiseConfig,
    total_evaluations: usize,
    trial_seeds: SeedTree,
    noise_seeds: SeedTree,
}

impl<'a> BatchFederatedObjective<'a> {
    /// Creates the objective. `total_evaluations` is the number of
    /// evaluations the campaign is expected to perform; it sets the DP
    /// composition length `M` in the Laplace scale `M / (ε |S|)`. How many
    /// real threads evaluate the objective is the driver's argument, not the
    /// objective's.
    ///
    /// # Errors
    ///
    /// Returns an error if the noise configuration is invalid or
    /// `total_evaluations` is zero.
    pub fn new(
        ctx: &'a BenchmarkContext,
        noise: NoiseConfig,
        total_evaluations: usize,
        seed: u64,
    ) -> Result<Self> {
        noise.validate()?;
        if total_evaluations == 0 {
            return Err(crate::CoreError::InvalidConfig {
                message: "total_evaluations must be positive".into(),
            });
        }
        let mut seeds = SeedStream::new(seed);
        let noise_seeds = SeedTree::new(seeds.next_seed());
        let trial_seeds = SeedTree::new(seeds.next_seed());
        Ok(BatchFederatedObjective {
            eval: FederatedEvalCore {
                ctx,
                noise,
                total_evaluations,
                trial_seeds,
                noise_seeds,
            },
            sink: CampaignLog::default(),
        })
    }
}

impl ConcurrentEval for FederatedEvalCore<'_> {
    type State = FederatedTrialState;

    /// Trains (or resumes) and evaluates one request against the state owning
    /// its training run. Pure in `(request, run state)`: all randomness is
    /// derived positionally, so the caller may execute requests for distinct
    /// trials in any order or in parallel.
    ///
    /// The noise draw picks the cohort before anything is scored, and a
    /// uniform draw of fewer than all clients scores its cohort alone: the
    /// output then has no true error (see [`true_error`](Self::true_error)).
    /// A draw that reads every client runs the full pass, and the state
    /// keeps it for the fidelity's replicates and its truth.
    fn evaluate(
        &self,
        state: &mut FederatedTrialState,
        request: &TrialRequest,
    ) -> Result<EvalOutput> {
        // The point identity: all randomness of this evaluation is keyed by
        // the canonical configuration fingerprint, never by trial numbering,
        // so the score is a pure function of `(config, resource, noise_rep)`
        // — the same identity the `fedstore` trial ledger addresses records
        // by.
        let fingerprint = self.ctx.space().canonical_fingerprint(&request.config)?;
        let dataset = self.ctx.dataset();
        let FederatedTrialState { run, truths } = state;
        let run = match run {
            Some(run) => run,
            None => {
                let run_seed = self.trial_seeds.child(fingerprint).seed();
                let started =
                    self.ctx
                        .start_run(&request.config, run_seed, self.noise.weighting)?;
                run.insert(started)
            }
        };
        let rounds = request.resource.saturating_sub(run.rounds_completed());
        if rounds > 0 {
            // The evaluated model is about to change: keep what an owed
            // truth needs.
            for (_, truth) in truths.iter_mut() {
                if let Truth::Live = truth {
                    *truth = Truth::Snapshot(run.model().clone());
                }
            }
            run.run_rounds(dataset, rounds)?;
        }
        let fidelity = run.rounds_completed();
        let at = match truths.iter().position(|(f, _)| *f == fidelity) {
            Some(at) => at,
            None => {
                truths.push((fidelity, Truth::Live));
                truths.len() - 1
            }
        };
        let mut full = None;
        let validation = match &truths[at].1 {
            Truth::Paid(evaluation) => Validation::Full(evaluation),
            _ => Validation::Pool {
                model: run.model(),
                dataset,
                full: &mut full,
            },
        };
        let mut noise_rng = self
            .noise_seeds
            .derive(&[fingerprint, request.resource as u64, request.noise_rep])
            .rng();
        let noisy_score = noisy_error(
            validation,
            &self.noise,
            self.total_evaluations,
            &mut noise_rng,
        )?;
        if let Some(evaluation) = full {
            truths[at].1 = Truth::Paid(evaluation);
        }
        let true_error = match &truths[at].1 {
            Truth::Paid(evaluation) => Some(evaluation.weighted_error()?),
            _ => None,
        };
        Ok(EvalOutput {
            noisy_score,
            true_error,
        })
    }

    /// The full-validation error of the model the state evaluated at
    /// `fidelity`, from the run or the snapshot the state kept of it; the
    /// pass is paid on the first ask and memoised, so each
    /// `(trial, fidelity)` pays at most one.
    fn true_error(
        &self,
        state: &mut FederatedTrialState,
        trial_id: usize,
        fidelity: usize,
    ) -> Result<f64> {
        let FederatedTrialState { run, truths } = state;
        let Some((_, truth)) = truths.iter_mut().find(|(f, _)| *f == fidelity) else {
            return Err(invalid(format!(
                "trial {trial_id} was not evaluated at fidelity {fidelity}"
            )));
        };
        let model = match (&*truth, &*run) {
            (Truth::Paid(evaluation), _) => return Ok(evaluation.weighted_error()?),
            (Truth::Snapshot(model), _) => model,
            (Truth::Live, Some(run)) => run.model(),
            (Truth::Live, None) => return Err(invalid("a live truth without a run")),
        };
        let weighting = self.noise.weighting;
        let evaluation = evaluate_full(model, self.ctx.dataset(), Split::Validation, weighting)?;
        let true_error = evaluation.weighted_error()?;
        *truth = Truth::Paid(evaluation);
        Ok(true_error)
    }
}

impl BatchFederatedObjective<'_> {
    /// The campaign log, every owed true error paid on up to `threads`
    /// threads ([`CampaignLog::resolve`]).
    ///
    /// # Errors
    ///
    /// A failed validation pass.
    pub fn log(&mut self, threads: usize) -> Result<Vec<ObjectiveLogEntry>> {
        self.sink.resolve(&self.eval, threads)
    }
}

impl<'a> ConcurrentObjective for BatchFederatedObjective<'a> {
    type State = FederatedTrialState;
    type Eval = FederatedEvalCore<'a>;
    type Sink = CampaignLog<FederatedTrialState>;

    fn split(&mut self) -> (&FederatedEvalCore<'a>, &mut Self::Sink) {
        (&self.eval, &mut self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tests::Scripted;
    use crate::scale::ExperimentScale;
    use crate::scheduler::{drive, Clock, Drive};
    use crate::PrivacyBudget;
    use feddata::Benchmark;
    use fedhpo::{HpConfig, RandomSearch, SearchSpace};
    use fedmath::rng::rng_for;

    fn ctx() -> BenchmarkContext {
        BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 0).unwrap()
    }

    fn request(
        trial_id: usize,
        config: &HpConfig,
        resource: usize,
        noise_rep: u64,
    ) -> TrialRequest {
        TrialRequest {
            trial_id,
            config: config.clone(),
            resource,
            noise_rep,
        }
    }

    /// The scores of `batches` driven under the barrier clock, one scripted
    /// batch per scheduler cycle, on `threads` real threads.
    fn scores_of(
        objective: &mut BatchFederatedObjective<'_>,
        batches: Vec<Vec<TrialRequest>>,
        threads: usize,
    ) -> Vec<f64> {
        let space = objective.eval.ctx.space();
        let mut scheduler = Scripted::new(batches);
        let config = Drive {
            threads,
            ..Drive::new(Clock::Barrier)
        };
        let run = drive(
            &mut scheduler,
            space,
            objective,
            &mut rng_for(0, 0),
            &config,
        )
        .unwrap();
        run.outcome.records().iter().map(|r| r.score).collect()
    }

    #[test]
    fn selection_within_budget_uses_noisy_scores() {
        let ctx = ctx();
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 4, 2).unwrap();
        let mut scheduler = RandomSearch::new(3, 2).unwrap();
        let mut rng = rng_for(1, 0);
        let config = Drive::new(Clock::Barrier);
        let run = drive(
            &mut scheduler,
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .unwrap();
        assert_eq!(run.outcome.num_evaluations(), 3);
        let log = objective.log(1).unwrap();
        assert_eq!(log.len(), 3);
        let selected = selected_true_error(&log, usize::MAX).unwrap();
        assert!((0.0..=1.0).contains(&selected));
        // Within a budget covering only the first trial, selection must be
        // that trial's true error.
        assert_eq!(selected_true_error(&log, 2).unwrap(), log[0].true_error);
    }

    #[test]
    fn noisy_objective_reports_different_scores_than_truth() {
        let ctx = ctx();
        let noise = NoiseConfig::subsampled(0.1).with_privacy(PrivacyBudget::Finite(1.0));
        let mut objective = BatchFederatedObjective::new(&ctx, noise, 4, 3).unwrap();
        let config = ctx.space().sample(&mut rng_for(2, 0)).unwrap();
        scores_of(&mut objective, vec![vec![request(0, &config, 2, 0)]], 1);
        let entry = &objective.log(1).unwrap()[0];
        assert!(
            (entry.noisy_score - entry.true_error).abs() > 1e-6,
            "with 1 client and eps=1 the noisy score should differ from the truth"
        );
    }

    #[test]
    fn a_cohort_score_is_the_full_passes_and_its_truth_is_paid_once() {
        let ctx = ctx();
        let noise = NoiseConfig::subsampled(0.1).with_privacy(PrivacyBudget::Finite(10.0));
        let objective = BatchFederatedObjective::new(&ctx, noise, 4, 3).unwrap();
        let config = ctx.space().sample(&mut rng_for(2, 0)).unwrap();
        let fingerprint = ctx.space().canonical_fingerprint(&config).unwrap();
        let dataset = ctx.dataset();
        let full_pass = |model: &AnyModel| {
            evaluate_full(model, dataset, Split::Validation, noise.weighting).unwrap()
        };
        let passes = fedtrace::global()
            .registry()
            .counter("sim.validation_passes");
        let mut state = FederatedTrialState::default();
        let at_two = request(0, &config, 2, 0);
        let output = objective.eval.evaluate(&mut state, &at_two).unwrap();
        // A cohort of the pool scored the model; no truth came with it.
        assert_eq!(output.true_error, None);
        let model_at_two = state.run.as_ref().unwrap().model().clone();
        let full = full_pass(&model_at_two);
        let mut rng = objective
            .eval
            .noise_seeds
            .derive(&[fingerprint, 2, 0])
            .rng();
        let expected = noisy_error(&full, &noise, 4, &mut rng).unwrap();
        assert_eq!(output.noisy_score.to_bits(), expected.to_bits());

        // The first ask pays the full pass (other tests share the counter:
        // at least one runs), and a memoised answer is the same bits.
        let truth = full.weighted_error().unwrap();
        let before = passes.value();
        let paid = objective.eval.true_error(&mut state, 0, 2).unwrap();
        assert!(passes.value() > before);
        assert_eq!(paid.to_bits(), truth.to_bits());
        let again = objective.eval.true_error(&mut state, 0, 2).unwrap();
        assert_eq!(again.to_bits(), truth.to_bits());
        // A replicate of a paid fidelity reads its full pass, truth included.
        let replicate = request(0, &config, 2, 1);
        let output = objective.eval.evaluate(&mut state, &replicate).unwrap();
        assert_eq!(output.true_error.map(f64::to_bits), Some(truth.to_bits()));

        // Training past an owed fidelity keeps its model for the truth.
        let at_four = request(0, &config, 4, 0);
        assert_eq!(
            objective
                .eval
                .evaluate(&mut state, &at_four)
                .unwrap()
                .true_error,
            None
        );
        let model_at_four = state.run.as_ref().unwrap().model().clone();
        objective
            .eval
            .evaluate(&mut state, &request(0, &config, 6, 0))
            .unwrap();
        let at_four_truth = objective.eval.true_error(&mut state, 0, 4).unwrap();
        let expected = full_pass(&model_at_four).weighted_error().unwrap();
        assert_eq!(at_four_truth.to_bits(), expected.to_bits());
        // A fidelity the trial never evaluated has no truth to pay.
        assert!(objective.eval.true_error(&mut state, 0, 3).is_err());
    }

    #[test]
    fn batch_objective_trains_logs_and_resumes() {
        let ctx = ctx();
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 4, 1).unwrap();
        let mut rng = rng_for(0, 0);
        let a = ctx.space().sample(&mut rng).unwrap();
        let b = ctx.space().sample(&mut rng).unwrap();
        let scores = scores_of(
            &mut objective,
            vec![vec![request(0, &a, 3, 0), request(1, &b, 3, 0)]],
            1,
        );
        assert_eq!(scores.len(), 2);
        assert_eq!(objective.sink.cumulative_rounds(), 6);
        assert_eq!(objective.sink.len(), 2);
        // Noiseless: noisy score equals the true error.
        for entry in objective.log(1).unwrap() {
            assert!((entry.noisy_score - entry.true_error).abs() < 1e-12);
            assert_eq!(entry.noise_rep, 0);
        }
        // Resuming trial 0 pays only the incremental rounds; a re-evaluation
        // at the reached fidelity pays nothing.
        scores_of(
            &mut objective,
            vec![vec![request(0, &a, 5, 0), request(0, &a, 5, 1)]],
            4,
        );
        assert_eq!(objective.sink.cumulative_rounds(), 8);
        let log = objective.log(1).unwrap();
        assert_eq!(log[3].noise_rep, 1);
        assert!(selected_true_error(&log, usize::MAX).is_some());
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn batch_objective_noise_is_positional_and_rep_indexed() {
        let ctx = ctx();
        let noise = NoiseConfig::subsampled(0.1).with_privacy(PrivacyBudget::Finite(1.0));
        let config = {
            let mut rng = rng_for(1, 0);
            ctx.space().sample(&mut rng).unwrap()
        };
        let run = |requests: Vec<TrialRequest>| {
            let mut objective = BatchFederatedObjective::new(&ctx, noise, 4, 7).unwrap();
            scores_of(&mut objective, vec![requests], 1)
        };
        // The same (trial, resource, rep) coordinate always draws the same
        // noise, regardless of what else is in the batch.
        let alone = run(vec![request(0, &config, 2, 0)]);
        let with_rep = run(vec![request(0, &config, 2, 0), request(0, &config, 2, 1)]);
        assert_eq!(alone[0].to_bits(), with_rep[0].to_bits());
        // Distinct reps draw independent noise.
        assert!((with_rep[0] - with_rep[1]).abs() > 1e-9);
    }

    #[test]
    fn batch_objective_scores_are_a_function_of_the_point_not_the_trial() {
        // Regression: randomness used to be keyed by trial_id, so two trials
        // that sampled the same configuration (possible in fully discrete
        // spaces) produced different scores for one content-addressed ledger
        // key. Point-keyed seeding makes them bit-identical.
        let scale = ExperimentScale::smoke();
        let discrete = SearchSpace::new()
            .with_fixed("server_lr", 1e-3)
            .and_then(|s| s.with_fixed("server_beta1", 0.9))
            .and_then(|s| s.with_fixed("server_beta2", 0.99))
            .and_then(|s| s.with_fixed("server_lr_decay", 0.9999))
            .and_then(|s| s.with_fixed("client_lr", 1e-2))
            .and_then(|s| s.with_fixed("client_momentum", 0.0))
            .and_then(|s| s.with_fixed("client_weight_decay", 5e-5))
            .and_then(|s| s.with_categorical("client_batch_size", vec![32.0, 64.0]))
            .and_then(|s| s.with_fixed("client_epochs", 1.0))
            .unwrap();
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0)
            .unwrap()
            .with_space(discrete);
        let noise = NoiseConfig::subsampled(0.2).with_privacy(PrivacyBudget::Finite(10.0));
        let fixed = [1e-3, 0.9, 0.99, 0.9999, 1e-2, 0.0, 5e-5];
        let mut values = fixed.to_vec();
        values.extend([64.0, 1.0]);
        let config = HpConfig::new(values);
        let mut other_values = fixed.to_vec();
        other_values.extend([32.0, 1.0]);
        let other = HpConfig::new(other_values);
        let mut objective = BatchFederatedObjective::new(&ctx, noise, 4, 3).unwrap();
        let scores = scores_of(
            &mut objective,
            vec![
                vec![request(3, &config, 2, 0), request(7, &config, 2, 0)],
                vec![request(8, &other, 2, 0)],
            ],
            4,
        );
        assert_eq!(scores[0].to_bits(), scores[1].to_bits());
        let log = objective.log(1).unwrap();
        assert_eq!(log[0].true_error.to_bits(), log[1].true_error.to_bits());
        // Distinct points still draw independently.
        assert_ne!(scores[2].to_bits(), scores[0].to_bits());
    }

    #[test]
    fn batch_objective_parallel_matches_sequential_bitwise() {
        let ctx = ctx();
        let noise = NoiseConfig::paper_noisy();
        let requests: Vec<TrialRequest> = {
            let mut rng = rng_for(2, 0);
            (0..6)
                .map(|t| request(t, &ctx.space().sample(&mut rng).unwrap(), 3, 0))
                .collect()
        };
        let run = |threads: usize| {
            let mut objective = BatchFederatedObjective::new(&ctx, noise, 6, 9).unwrap();
            let scores = scores_of(&mut objective, vec![requests.clone()], threads);
            (scores, objective.log(threads).unwrap())
        };
        let (inline, inline_log) = run(1);
        for threads in [2, 4, 8] {
            let (pooled, pooled_log) = run(threads);
            assert_eq!(inline.len(), pooled.len());
            for (s, p) in inline.iter().zip(&pooled) {
                assert_eq!(s.to_bits(), p.to_bits(), "{threads} threads");
            }
            assert_eq!(inline_log, pooled_log, "{threads} threads");
        }
    }

    #[test]
    fn batch_objective_validation() {
        let ctx = ctx();
        assert!(BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 0, 0).is_err());
        assert!(BatchFederatedObjective::new(&ctx, NoiseConfig::subsampled(2.0), 4, 0).is_err());
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 4, 0).unwrap();
        assert_eq!(objective.sink.cumulative_rounds(), 0);
        assert!(objective.sink.is_empty());
        assert!(selected_true_error(&objective.log(1).unwrap(), 10).is_none());
    }

    #[test]
    fn campaign_rounds_saturate_instead_of_wrapping() {
        let config = HpConfig::new(vec![0.5]);
        let mut log = CampaignLog::<()>::default();
        for trial in 0..2 {
            log.observe_at(&request(trial, &config, usize::MAX, 0), 0.1, Some(0.1), 0.0);
        }
        assert_eq!(log.cumulative_rounds(), usize::MAX);
        assert_eq!(log.log[1].cumulative_rounds, usize::MAX);
    }

    /// Owes every truth; pays `trial + resource / 10` except trial 1's at
    /// resource 2, and counts what it paid in the trial's state.
    struct OwedTruth;

    impl ConcurrentEval for OwedTruth {
        type State = usize;

        fn evaluate(&self, _: &mut usize, _: &TrialRequest) -> Result<EvalOutput> {
            Ok(EvalOutput {
                noisy_score: 0.0,
                true_error: None,
            })
        }

        fn true_error(&self, paid: &mut usize, trial_id: usize, fidelity: usize) -> Result<f64> {
            if (trial_id, fidelity) == (1, 2) {
                return Err(invalid("injected truth failure"));
            }
            *paid += 1;
            Ok(trial_id as f64 + fidelity as f64 / 10.0)
        }
    }

    #[test]
    fn resolving_pays_what_it_can_and_keeps_the_rest_owed() {
        let config = HpConfig::new(vec![0.5]);
        for threads in [1, 3] {
            let mut log = CampaignLog::<usize>::default();
            let points = [(0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (0, 2)];
            for (trial, resource) in points {
                log.observe_at(&request(trial, &config, resource, 0), 0.0, None, 0.0);
            }
            // Counting an owing log pays nothing.
            assert_eq!(log.len(), points.len());
            assert!(log.states.is_empty());
            assert!(log.resolve(&OwedTruth, threads).is_err());
            // Trials 0 and 2 are paid, trial 1 up to its failure; the rest
            // stays owed.
            let truths: Vec<Option<u64>> = log
                .log
                .iter()
                .map(|e| e.true_error.map(f64::to_bits))
                .collect();
            for (position, &(trial, resource)) in points.iter().enumerate() {
                let expected = trial as f64 + resource as f64 / 10.0;
                let expected = (![2, 4].contains(&position)).then_some(expected.to_bits());
                assert_eq!(truths[position], expected, "{threads} threads");
            }
            assert_eq!(log.len(), points.len());
            let paid: Vec<usize> = (0..3).map(|trial| log.states[&trial]).collect();
            assert_eq!(paid, vec![2, 1, 1], "{threads} threads");
            // Asked again, it fails at the same entry and pays nothing twice.
            assert!(log.resolve(&OwedTruth, threads).is_err());
            let paid: Vec<usize> = (0..3).map(|trial| log.states[&trial]).collect();
            assert_eq!(paid, vec![2, 1, 1], "{threads} threads");
        }
    }

    #[test]
    fn selected_true_error_prefers_reevaluation_means() {
        let entry = |trial_id, noisy, true_error, noise_rep, cumulative| ObjectiveLogEntry {
            trial_id,
            resource: 5,
            noisy_score: noisy,
            true_error,
            cumulative_rounds: cumulative,
            noise_rep,
            sim_time: 0.0,
        };
        let log = vec![
            entry(0, 0.05, 0.5, 0, 5), // lucky noisy minimum
            entry(1, 0.30, 0.3, 0, 10),
            entry(0, 0.45, 0.5, 1, 10), // fresh draws expose trial 0 ...
            entry(0, 0.55, 0.5, 2, 10),
            entry(1, 0.28, 0.3, 1, 10), // ... and confirm trial 1
            entry(1, 0.32, 0.3, 2, 10),
        ];
        // Plain min-selection would be fooled by trial 0's lucky draw.
        assert_eq!(selected_true_error(&log[..2], 10), Some(0.5));
        // Re-evaluation means select trial 1 and report its true error.
        let selected = selected_true_error(&log, 10).unwrap();
        assert!((selected - 0.3).abs() < 1e-12);
        // NaN noisy scores never win.
        let poisoned = vec![entry(2, f64::NAN, 0.9, 0, 5), entry(3, 0.4, 0.4, 0, 10)];
        assert_eq!(selected_true_error(&poisoned, 10), Some(0.4));
        assert_eq!(selected_true_error(&[], 10), None);
    }

    /// `(x - 0.25)²` observed with uniform noise of half-width 0.5, drawn
    /// from the evaluation's `(trial, rep)` coordinates.
    struct NoisyQuadratic {
        seed: u64,
    }

    impl ConcurrentEval for NoisyQuadratic {
        type State = ();

        fn evaluate(&self, _: &mut (), request: &TrialRequest) -> Result<EvalOutput> {
            use rand::Rng;
            let true_error = (request.config.values()[0] - 0.25).powi(2);
            let stream = (request.trial_id as u64) << 16 | request.noise_rep;
            let noise = rng_for(self.seed, stream).gen_range(-1.0..1.0) * 0.5;
            Ok(EvalOutput {
                noisy_score: true_error + noise,
                true_error: Some(true_error),
            })
        }
    }

    struct QuadraticObjective {
        eval: NoisyQuadratic,
        sink: CampaignLog,
    }

    impl ConcurrentObjective for QuadraticObjective {
        type State = ();
        type Eval = NoisyQuadratic;
        type Sink = CampaignLog;

        fn split(&mut self) -> (&NoisyQuadratic, &mut CampaignLog) {
            (&self.eval, &mut self.sink)
        }
    }

    #[test]
    fn reevaluating_every_config_averages_out_evaluation_noise() {
        // "Resample previously seen configurations" (§5): RS with every
        // configuration re-evaluated (`top_k = num_configs`) selects on the
        // mean of fresh draws, and under heavy evaluation noise that mean
        // should (usually) pick a configuration at least as good as plain
        // RS's single-draw minimum over the same candidates and draws.
        use fedhpo::{ReEvaluation, Scheduler};
        let space = SearchSpace::new().with_uniform("x", -1.0, 1.0).unwrap();
        let selected = |scheduler: &mut dyn Scheduler, seed: u64| {
            let mut objective = QuadraticObjective {
                eval: NoisyQuadratic { seed: 99 + seed },
                sink: CampaignLog::default(),
            };
            let config = Drive::new(Clock::Barrier);
            drive(
                scheduler,
                &space,
                &mut objective,
                &mut rng_for(seed, 0),
                &config,
            )
            .unwrap();
            assert_eq!(objective.sink.cumulative_rounds(), 12);
            let log = objective.sink.resolve(&objective.eval, 1).unwrap();
            selected_true_error(&log, usize::MAX).unwrap()
        };
        let trials = 20;
        let mut wins = 0;
        for seed in 10..10 + trials {
            let mut averaged = ReEvaluation::new(RandomSearch::new(12, 1).unwrap(), 12, 8).unwrap();
            let averaged = selected(&mut averaged, seed);
            let plain = selected(&mut RandomSearch::new(12, 1).unwrap(), seed);
            if averaged <= plain {
                wins += 1;
            }
        }
        assert!(
            wins >= trials / 2,
            "averaged re-evaluations should win at least half the time, won {wins}/{trials}"
        );
    }

    #[test]
    fn works_with_nested_search_space() {
        let scale = ExperimentScale::smoke();
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0)
            .unwrap()
            .with_space(SearchSpace::paper_nested_lr_space(2).unwrap());
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 4, 4).unwrap();
        let config = ctx.space().sample(&mut rng_for(3, 0)).unwrap();
        let scores = scores_of(&mut objective, vec![vec![request(0, &config, 1, 0)]], 1);
        assert!(scores[0].is_finite());
    }
}
