//! The noise-aware **re-evaluation** mitigation (§5 of the paper).
//!
//! Under noisy evaluation, selecting the minimum observed score rewards lucky
//! noise draws: the winner is biased low exactly because it was selected. The
//! paper's mitigation is to *re-evaluate the top-k survivors with fresh noise
//! draws* before committing to a winner, and select on the mean of those
//! fresh draws instead.
//!
//! [`ReEvaluation`] wraps any ask/tell tuning method: it passes the inner
//! schedule through untouched and, once the inner schedule finishes, emits
//! one final batch of `top_k × reps` re-evaluation requests (`noise_rep ≥ 1`)
//! at the survivors' reached fidelity. Re-evaluations cost *no* additional
//! training — the survivors' runs already sit at that fidelity — only fresh
//! evaluations. Selection on the resulting history happens through
//! [`TuningOutcome::selected_within_budget`](crate::TuningOutcome::selected_within_budget),
//! which averages the fresh draws per survivor.

use crate::scheduler::{IntoScheduler, Scheduler, TrialRequest, TrialResult};
use crate::space::{HpConfig, SearchSpace};
use crate::{HpoError, Result};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Wraps an inner tuning method with the top-k fresh-noise re-evaluation
/// mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReEvaluation<C> {
    inner: C,
    top_k: usize,
    reps: usize,
}

impl<C> ReEvaluation<C> {
    /// Wraps `inner`: after its schedule finishes, the `top_k` best
    /// configurations at the highest reached fidelity are each re-evaluated
    /// `reps` times with fresh noise draws.
    pub fn new(inner: C, top_k: usize, reps: usize) -> Self {
        ReEvaluation { inner, top_k, reps }
    }

    /// The wrapped tuning method.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of survivors re-evaluated.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Fresh noise draws per survivor.
    pub fn reps(&self) -> usize {
        self.reps
    }

    fn validate(&self) -> Result<()> {
        if self.top_k == 0 || self.reps == 0 {
            return Err(HpoError::InvalidConfig {
                message: "re-evaluation needs positive top_k and reps".into(),
            });
        }
        Ok(())
    }
}

impl ReEvaluation<crate::Asha> {
    /// Evaluations the campaign performs — the DP composition length `M`:
    /// the ladder's plan plus `reps` fresh draws for each finalist. Finalists
    /// are the best `top_k` of whoever reached the ladder's highest populated
    /// rung, so fewer than `top_k` once the ladder narrows below it.
    pub fn planned_evaluations(&self) -> usize {
        let top_rung = self.inner.rung_sizes().last().copied().unwrap_or(0);
        self.inner.planned_evaluations() + self.top_k.min(top_rung) * self.reps
    }
}

impl<C: IntoScheduler> IntoScheduler for ReEvaluation<C> {
    type Scheduler = ReEvalScheduler<C::Scheduler>;

    fn scheduler(&self) -> Result<ReEvalScheduler<C::Scheduler>> {
        self.validate()?;
        Ok(ReEvalScheduler {
            inner: self.inner.scheduler()?,
            top_k: self.top_k,
            reps: self.reps,
            incumbents: BTreeMap::new(),
            phase: Phase::Inner,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Delegating to the inner schedule.
    Inner,
    /// The re-evaluation batch is out; the `(trial_id, noise_rep)`
    /// coordinates still due.
    ReEvaluating(BTreeSet<(usize, u64)>),
    /// Everything reported.
    Done,
}

/// Ask/tell state of a re-evaluation-wrapped campaign.
#[derive(Debug, Clone)]
pub struct ReEvalScheduler<S> {
    inner: S,
    top_k: usize,
    reps: usize,
    /// Per trial: `(max fidelity reached, last rep-0 score there, config)`.
    incumbents: BTreeMap<usize, (usize, f64, HpConfig)>,
    phase: Phase,
}

impl<S> ReEvalScheduler<S> {
    /// The `top_k` best trials at the overall highest fidelity, ordered by
    /// `(score, trial_id)` — a deterministic function of the inner history.
    fn finalists(&self) -> Vec<(usize, usize, HpConfig)> {
        let max_fidelity = match self.incumbents.values().map(|&(r, _, _)| r).max() {
            Some(max) => max,
            None => return Vec::new(),
        };
        let mut ranked: Vec<(usize, f64, usize, HpConfig)> = self
            .incumbents
            .iter()
            .filter(|(_, &(r, score, _))| r == max_fidelity && score.is_finite())
            .map(|(&id, &(r, score, ref config))| (id, score, r, config.clone()))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(self.top_k)
            .map(|(id, _, resource, config)| (id, resource, config))
            .collect()
    }
}

impl<S: Scheduler> Scheduler for ReEvalScheduler<S> {
    fn name(&self) -> &'static str {
        "re-eval"
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        match &self.phase {
            Phase::Inner => {
                if !self.inner.is_finished() {
                    return self.inner.suggest(space, rng);
                }
                let finalists = self.finalists();
                if finalists.is_empty() {
                    self.phase = Phase::Done;
                    return Ok(Vec::new());
                }
                let mut batch = Vec::with_capacity(finalists.len() * self.reps);
                for (trial_id, resource, config) in finalists {
                    for rep in 1..=self.reps as u64 {
                        batch.push(TrialRequest {
                            trial_id,
                            config: config.clone(),
                            resource,
                            noise_rep: rep,
                        });
                    }
                }
                self.phase =
                    Phase::ReEvaluating(batch.iter().map(|r| (r.trial_id, r.noise_rep)).collect());
                Ok(batch)
            }
            Phase::ReEvaluating(outstanding) => Err(HpoError::InvalidConfig {
                message: format!(
                    "re-eval scheduler asked for a batch with {} results outstanding",
                    outstanding.len()
                ),
            }),
            Phase::Done => Ok(Vec::new()),
        }
    }

    fn report(&mut self, result: &TrialResult) -> Result<()> {
        match &mut self.phase {
            Phase::Inner => {
                self.inner.report(result)?;
                let entry = self
                    .incumbents
                    .entry(result.trial_id)
                    .or_insert_with(|| (result.resource, result.score, result.config.clone()));
                if result.resource >= entry.0 {
                    *entry = (result.resource, result.score, result.config.clone());
                }
                Ok(())
            }
            Phase::ReEvaluating(outstanding) => {
                if !outstanding.remove(&(result.trial_id, result.noise_rep)) {
                    return Err(HpoError::InvalidConfig {
                        message: format!(
                            "re-eval scheduler received an unexpected result for trial {} rep {}",
                            result.trial_id, result.noise_rep
                        ),
                    });
                }
                if outstanding.is_empty() {
                    self.phase = Phase::Done;
                }
                Ok(())
            }
            Phase::Done => Err(HpoError::InvalidConfig {
                message: "re-eval scheduler received a result after completion".into(),
            }),
        }
    }

    fn is_finished(&self) -> bool {
        self.phase == Phase::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use crate::random_search::RandomSearch;
    use crate::scheduler::run_fresh;
    use fedmath::rng::rng_for;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(ReEvaluation::new(RandomSearch::new(4, 1), 0, 3)
            .scheduler()
            .is_err());
        assert!(ReEvaluation::new(RandomSearch::new(4, 1), 2, 0)
            .scheduler()
            .is_err());
        let policy = ReEvaluation::new(RandomSearch::new(4, 1), 2, 3);
        assert_eq!(policy.scheduler().unwrap().name(), "re-eval");
        assert_eq!(policy.top_k(), 2);
        assert_eq!(policy.reps(), 3);
        assert_eq!(policy.inner().num_configs(), 4);
    }

    #[test]
    fn reevaluates_top_k_with_fresh_reps_at_no_training_cost() {
        // A deterministic "noisy" objective: every call adds a different
        // perturbation, so re-evaluations genuinely draw fresh values.
        let mut calls = 0usize;
        let mut objective = FunctionObjective::new(move |config: &HpConfig, _| {
            calls += 1;
            config.values()[0] + 0.01 * (calls as f64 * 7.0).sin()
        });
        let policy = ReEvaluation::new(RandomSearch::new(6, 5), 2, 3);
        let mut rng = rng_for(0, 0);
        let outcome = run_fresh(&policy, &space_1d(), &mut objective, &mut rng).unwrap();
        // 6 schedule evaluations + 2 survivors × 3 reps.
        assert_eq!(outcome.num_evaluations(), 6 + 6);
        let reevals: Vec<_> = outcome
            .records()
            .iter()
            .filter(|r| r.noise_rep >= 1)
            .collect();
        assert_eq!(reevals.len(), 6);
        // Exactly two distinct survivors, each with reps 1..=3.
        let mut survivors: Vec<usize> = reevals.iter().map(|r| r.trial_id).collect();
        survivors.dedup();
        assert_eq!(survivors.len(), 2);
        assert!(reevals.iter().all(|r| (1..=3).contains(&r.noise_rep)));
        // Re-evaluations charge no additional training budget.
        assert_eq!(outcome.total_resource(), 6 * 5);
        // Noise-aware selection picks among the re-evaluated survivors.
        let selected = outcome.selected_within_budget(usize::MAX).unwrap();
        assert!(survivors.contains(&selected.trial_id));
        assert!(selected.noise_rep >= 1);
    }

    #[test]
    fn reevaluation_phase_rejects_duplicate_and_unknown_results() {
        use crate::scheduler::{IntoScheduler, Scheduler, TrialResult};
        let policy = ReEvaluation::new(RandomSearch::new(2, 1), 1, 2);
        let mut scheduler = policy.scheduler().unwrap();
        let space = space_1d();
        let mut rng = rng_for(3, 0);
        let inner_batch = scheduler.suggest(&space, &mut rng).unwrap();
        for request in &inner_batch {
            scheduler.report(&TrialResult::of(request, 0.5)).unwrap();
        }
        let reevals = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(reevals.len(), 2);
        // Asking again with results outstanding is a contract violation.
        assert!(scheduler.suggest(&space, &mut rng).is_err());
        scheduler
            .report(&TrialResult::of(&reevals[0], 0.4))
            .unwrap();
        // A duplicate of an already-reported replicate must not consume the
        // remaining slot and end the campaign early.
        assert!(scheduler
            .report(&TrialResult::of(&reevals[0], 0.4))
            .is_err());
        // Nor may a result the scheduler never asked for.
        let mut bogus = reevals[1].clone();
        bogus.noise_rep = 99;
        assert!(scheduler.report(&TrialResult::of(&bogus, 0.4)).is_err());
        assert!(!scheduler.is_finished());
        scheduler
            .report(&TrialResult::of(&reevals[1], 0.6))
            .unwrap();
        assert!(scheduler.is_finished());
        // After completion, any further result is rejected.
        assert!(scheduler
            .report(&TrialResult::of(&reevals[1], 0.6))
            .is_err());
    }

    #[test]
    fn top_k_clamps_to_available_trials() {
        let mut objective = FunctionObjective::new(|config: &HpConfig, _| config.values()[0]);
        let policy = ReEvaluation::new(RandomSearch::new(2, 1), 10, 2);
        let mut rng = rng_for(1, 0);
        let outcome = run_fresh(&policy, &space_1d(), &mut objective, &mut rng).unwrap();
        // Only 2 trials exist; both get re-evaluated twice.
        assert_eq!(outcome.num_evaluations(), 2 + 4);
    }

    #[test]
    fn reevaluating_every_config_averages_out_evaluation_noise() {
        // "Resample previously seen configurations" (§5): RS with every
        // configuration re-evaluated (`top_k = num_configs`) selects on the
        // mean of fresh draws, and under heavy evaluation noise that mean
        // should (usually) pick a configuration closer to the optimum than
        // plain RS's single-draw minimum over the same candidates.
        use rand::Rng;
        let noisy_quadratic = || {
            let mut noise = rng_for(99, 0);
            FunctionObjective::new(move |config: &HpConfig, _| {
                (config.values()[0] - 0.25).powi(2) + noise.gen_range(-1.0..1.0) * 0.5
            })
        };
        let space = SearchSpace::new().with_uniform("x", -1.0, 1.0).unwrap();
        let trials = 20;
        let mut wins = 0;
        for seed in 0..trials {
            let mut rng = rng_for(10 + seed, 0);
            let averaged = ReEvaluation::new(RandomSearch::new(12, 1), 12, 8);
            let outcome = run_fresh(&averaged, &space, &mut noisy_quadratic(), &mut rng).unwrap();
            assert_eq!(outcome.num_evaluations(), 12 + 12 * 8);
            assert_eq!(outcome.total_resource(), 12);
            let averaged_x = outcome
                .selected_within_budget(usize::MAX)
                .unwrap()
                .config
                .values()[0];

            let mut rng = rng_for(10 + seed, 0);
            let plain = run_fresh(
                &RandomSearch::new(12, 1),
                &space,
                &mut noisy_quadratic(),
                &mut rng,
            )
            .unwrap();
            let plain_x = plain.best().unwrap().config.values()[0];
            if (averaged_x - 0.25).abs() <= (plain_x - 0.25).abs() {
                wins += 1;
            }
        }
        assert!(
            wins >= trials / 2,
            "averaged re-evaluations should win at least half the time, won {wins}/{trials}"
        );
    }

    #[test]
    fn wraps_early_stopping_methods_at_max_fidelity_only() {
        use crate::hyperband::SuccessiveHalving;
        let mut objective = FunctionObjective::new(|config: &HpConfig, resource| {
            config.values()[0] + 1.0 / (resource as f64 + 1.0)
        });
        let policy = ReEvaluation::new(SuccessiveHalving::new(9, 3, 1, 9), 2, 2);
        let mut rng = rng_for(2, 0);
        let outcome = run_fresh(&policy, &space_1d(), &mut objective, &mut rng).unwrap();
        let reevals: Vec<_> = outcome
            .records()
            .iter()
            .filter(|r| r.noise_rep >= 1)
            .collect();
        // Only the single max-fidelity survivor qualifies (the other rungs
        // stopped early), so top_k clamps to 1 trial × 2 reps.
        assert_eq!(reevals.len(), 2);
        assert!(reevals.iter().all(|r| r.resource == 9));
        // Same training budget as the unwrapped bracket.
        let mut plain_obj = FunctionObjective::new(|config: &HpConfig, resource| {
            config.values()[0] + 1.0 / (resource as f64 + 1.0)
        });
        let mut rng = rng_for(2, 0);
        let plain = run_fresh(
            &SuccessiveHalving::new(9, 3, 1, 9),
            &space_1d(),
            &mut plain_obj,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.total_resource(), plain.total_resource());
    }
}
