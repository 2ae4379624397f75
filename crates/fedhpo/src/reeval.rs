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
//! evaluations. Selection on the resulting campaign log happens through
//! `fedtune_core::selected_true_error`, which averages the fresh draws per
//! survivor.

use crate::scheduler::{Scheduler, TrialRequest, TrialResult};
use crate::space::{HpConfig, SearchSpace};
use crate::{HpoError, Result};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Wraps an inner tuning method with the top-k fresh-noise re-evaluation
/// mitigation.
#[derive(Debug, Clone)]
pub struct ReEvaluation<S> {
    inner: S,
    top_k: usize,
    reps: usize,
    /// Per trial: `(max fidelity reached, last rep-0 score there, config)`.
    incumbents: BTreeMap<usize, (usize, f64, HpConfig)>,
    phase: Phase,
}

impl<S: Scheduler> ReEvaluation<S> {
    /// Wraps the fresh scheduler `inner`: after its schedule finishes, the
    /// `top_k` best configurations at the highest reached fidelity are each
    /// re-evaluated `reps` times with fresh noise draws.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] unless `top_k` and `reps` are
    /// positive.
    pub fn new(inner: S, top_k: usize, reps: usize) -> Result<Self> {
        if top_k == 0 || reps == 0 {
            return Err(HpoError::InvalidConfig {
                message: "re-evaluation needs positive top_k and reps".into(),
            });
        }
        Ok(ReEvaluation {
            inner,
            top_k,
            reps,
            incumbents: BTreeMap::new(),
            phase: Phase::Inner,
        })
    }
}

impl ReEvaluation<crate::Asha> {
    /// Evaluations the campaign performs — the DP composition length `M`:
    /// the ladder's plan plus `reps` fresh draws for each finalist. Finalists
    /// are the best `top_k` of whoever reached the ladder's highest populated
    /// rung, so fewer than `top_k` once the ladder narrows below it.
    /// Saturates at `usize::MAX`.
    pub fn planned_evaluations(&self) -> usize {
        let top_rung = self.inner.rung_sizes().last().copied().unwrap_or(0);
        let finals = self.top_k.min(top_rung).saturating_mul(self.reps);
        self.inner.planned_evaluations().saturating_add(finals)
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

impl<S> ReEvaluation<S> {
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

impl<S: Scheduler> Scheduler for ReEvaluation<S> {
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
    use crate::hyperband::Hyperband;
    use crate::random_search::RandomSearch;
    use crate::scheduler::tests::run_fresh;
    use fedmath::rng::rng_for;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    fn rs(num_configs: usize, rounds: usize) -> RandomSearch {
        RandomSearch::new(num_configs, rounds).unwrap()
    }

    #[test]
    fn validation() {
        assert!(ReEvaluation::new(rs(4, 1), 0, 3).is_err());
        assert!(ReEvaluation::new(rs(4, 1), 2, 0).is_err());
        let policy = ReEvaluation::new(rs(4, 1), 2, 3).unwrap();
        assert_eq!(policy.name(), "re-eval");
        assert_eq!((policy.top_k, policy.reps), (2, 3));
    }

    #[test]
    fn reevaluates_top_k_with_fresh_reps_at_no_training_cost() {
        // A deterministic "noisy" objective: every call adds a different
        // perturbation, so re-evaluations genuinely draw fresh values.
        let mut calls = 0usize;
        let noisy = |config: &HpConfig, _| {
            calls += 1;
            config.values()[0] + 0.01 * (calls as f64 * 7.0).sin()
        };
        let policy = ReEvaluation::new(rs(6, 5), 2, 3).unwrap();
        let mut rng = rng_for(0, 0);
        let outcome = run_fresh(policy, &space_1d(), noisy, &mut rng).unwrap();
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
    }

    #[test]
    fn reevaluation_phase_rejects_duplicate_and_unknown_results() {
        let mut scheduler = ReEvaluation::new(rs(2, 1), 1, 2).unwrap();
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
        let policy = ReEvaluation::new(rs(2, 1), 10, 2).unwrap();
        let mut rng = rng_for(1, 0);
        let x = |config: &HpConfig, _| config.values()[0];
        let outcome = run_fresh(policy, &space_1d(), x, &mut rng).unwrap();
        // Only 2 trials exist; both get re-evaluated twice.
        assert_eq!(outcome.num_evaluations(), 2 + 4);
    }

    #[test]
    fn wraps_early_stopping_methods_at_max_fidelity_only() {
        let score =
            |config: &HpConfig, resource| config.values()[0] + 1.0 / (resource as f64 + 1.0);
        // Two brackets: 3 configurations at r=3 of which one reaches r=9,
        // then 2 configurations at r=9.
        let hb = Hyperband::new(9, 3, Some(2)).unwrap();
        let policy = ReEvaluation::new(hb.clone(), 5, 2).unwrap();
        let mut rng = rng_for(2, 0);
        let outcome = run_fresh(policy, &space_1d(), score, &mut rng).unwrap();
        let reevals: Vec<_> = outcome
            .records()
            .iter()
            .filter(|r| r.noise_rep >= 1)
            .collect();
        // Only the three max-fidelity trials qualify (the other two stopped
        // early at r=3), so top_k clamps to 3 trials × 2 reps.
        assert_eq!(reevals.len(), 6);
        assert!(reevals.iter().all(|r| r.resource == 9));
        // Same training budget as the unwrapped ladder.
        let mut rng = rng_for(2, 0);
        let plain = run_fresh(hb, &space_1d(), score, &mut rng).unwrap();
        assert_eq!(outcome.total_resource(), plain.total_resource());
    }

    #[test]
    fn the_plan_saturates_instead_of_overflowing() {
        let huge = crate::Asha::new(usize::MAX, 2, 1, 1 << 20).unwrap();
        let policy = ReEvaluation::new(huge, usize::MAX, 3).unwrap();
        assert_eq!(policy.planned_evaluations(), usize::MAX);
        // The finalists alone overflow: top_k · reps past usize::MAX.
        let small = crate::Asha::new(9, 3, 1, 9).unwrap();
        let policy = ReEvaluation::new(small, usize::MAX, usize::MAX).unwrap();
        assert_eq!(policy.planned_evaluations(), usize::MAX);
    }
}
