//! The evaluation history a tuning run produces: [`EvaluationRecord`] and
//! [`TuningOutcome`], with the selection rules the experiments read off it.

use crate::space::HpConfig;
use serde::{Deserialize, Serialize};

/// One evaluation performed during a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationRecord {
    /// Identifier of the configuration being evaluated (stable across
    /// re-evaluations of the same configuration at higher fidelity).
    pub trial_id: usize,
    /// The configuration.
    pub config: HpConfig,
    /// Cumulative resource (training rounds) this configuration has received
    /// at the time of the evaluation.
    pub resource: usize,
    /// The score reported by the objective (lower is better). This is the
    /// possibly *noisy* signal the tuner acts on.
    pub score: f64,
    /// Total resource spent by the tuner across all configurations up to and
    /// including this evaluation — the x-axis of the paper's online plots.
    pub cumulative_resource: usize,
    /// Noise replicate index: `0` for the schedule's ordinary evaluations,
    /// `>= 1` for fresh-noise re-evaluations issued by the noise-aware
    /// re-evaluation policy (see [`crate::ReEvaluation`]).
    pub noise_rep: u64,
    /// Simulated completion time of this evaluation in virtual seconds —
    /// the x-axis of wall-clock-budget curves. `0.0` for records produced by
    /// synchronous drivers, which have no virtual clock.
    pub sim_time: f64,
}

/// The full history of a tuning run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TuningOutcome {
    records: Vec<EvaluationRecord>,
}

impl TuningOutcome {
    /// Creates an outcome from raw records (mainly for tests).
    pub fn from_records(records: Vec<EvaluationRecord>) -> Self {
        TuningOutcome { records }
    }

    /// All evaluation records in chronological order.
    pub fn records(&self) -> &[EvaluationRecord] {
        &self.records
    }

    /// Number of evaluations performed.
    pub fn num_evaluations(&self) -> usize {
        self.records.len()
    }

    /// Total resource (training rounds) spent by the run.
    pub fn total_resource(&self) -> usize {
        self.records.last().map_or(0, |r| r.cumulative_resource)
    }

    /// The record with the lowest score over the entire run, i.e. the
    /// configuration the tuner would select. Records with non-finite scores
    /// (NaN, ±∞ — e.g. from a diverged training run) are never selected.
    pub fn best(&self) -> Option<&EvaluationRecord> {
        self.records
            .iter()
            .filter(|r| r.score.is_finite())
            .min_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// The best finite-score record among evaluations completed within the
    /// given resource budget — used to draw "performance vs. budget" curves
    /// (Fig. 5, 8, 12).
    pub fn best_within_budget(&self, budget: usize) -> Option<&EvaluationRecord> {
        self.records
            .iter()
            .filter(|r| r.cumulative_resource <= budget && r.score.is_finite())
            .min_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// The best record restricted to evaluations at the highest fidelity seen
    /// so far within the budget. Early-stopping methods evaluate many
    /// configurations at low fidelity; selecting only among the highest
    /// fidelity mirrors how Hyperband reports its incumbent. Non-finite
    /// scores are skipped for selection (but still count towards the maximum
    /// fidelity seen).
    pub fn best_at_max_fidelity_within_budget(&self, budget: usize) -> Option<&EvaluationRecord> {
        let within: Vec<&EvaluationRecord> = self
            .records
            .iter()
            .filter(|r| r.cumulative_resource <= budget)
            .collect();
        let max_fidelity = within.iter().map(|r| r.resource).max()?;
        within
            .into_iter()
            .filter(|r| r.resource == max_fidelity && r.score.is_finite())
            .min_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// Noise-aware selection within the budget: if the run contains
    /// fresh-noise re-evaluations (`noise_rep >= 1`, issued by the
    /// re-evaluation mitigation), the winner is the re-evaluated
    /// configuration with the lowest *mean* re-evaluation score — averaging
    /// fresh draws cancels evaluation noise instead of rewarding it the way a
    /// plain minimum does. Without re-evaluations this falls back to
    /// [`best_within_budget`](Self::best_within_budget). The returned record
    /// is the winner's last re-evaluation within the budget.
    pub fn selected_within_budget(&self, budget: usize) -> Option<&EvaluationRecord> {
        // (trial_id, score sum, count) per re-evaluated trial, insertion order.
        let mut means: Vec<(usize, f64, usize)> = Vec::new();
        for r in self
            .records
            .iter()
            .filter(|r| r.cumulative_resource <= budget && r.noise_rep >= 1 && r.score.is_finite())
        {
            match means.iter_mut().find(|(id, _, _)| *id == r.trial_id) {
                Some((_, sum, count)) => {
                    *sum += r.score;
                    *count += 1;
                }
                None => means.push((r.trial_id, r.score, 1)),
            }
        }
        let winner = match means
            .iter()
            .map(|&(id, sum, count)| (id, sum / count as f64))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        {
            Some((id, _)) => id,
            None => return self.best_within_budget(budget),
        };
        self.records
            .iter()
            .rev()
            .find(|r| r.trial_id == winner && r.noise_rep >= 1 && r.cumulative_resource <= budget)
    }

    /// Appends a record (used by the scheduler drivers).
    pub fn push(&mut self, record: EvaluationRecord) {
        self.records.push(record);
    }

    /// Simulated seconds the run took: the latest completion time on record.
    /// `0.0` for synchronous campaigns, which carry no virtual timestamps.
    pub fn sim_elapsed(&self) -> f64 {
        self.records.iter().map(|r| r.sim_time).fold(0.0, f64::max)
    }

    /// The best finite-score record among evaluations completed within the
    /// given simulated wall-clock budget — the virtual-time counterpart of
    /// [`best_within_budget`](Self::best_within_budget), used to draw
    /// time-to-accuracy curves for event-driven campaigns.
    pub fn best_within_sim_time(&self, sim_budget: f64) -> Option<&EvaluationRecord> {
        self.records
            .iter()
            .filter(|r| r.sim_time <= sim_budget && r.score.is_finite())
            .min_by(|a, b| a.score.total_cmp(&b.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trial: usize, resource: usize, score: f64, cumulative: usize) -> EvaluationRecord {
        EvaluationRecord {
            trial_id: trial,
            config: HpConfig::new(vec![trial as f64]),
            resource,
            score,
            cumulative_resource: cumulative,
            noise_rep: 0,
            sim_time: 0.0,
        }
    }

    fn reeval(trial: usize, resource: usize, score: f64, cumulative: usize) -> EvaluationRecord {
        EvaluationRecord {
            noise_rep: 1,
            ..record(trial, resource, score, cumulative)
        }
    }

    #[test]
    fn outcome_best_and_budget_queries() {
        let outcome = TuningOutcome::from_records(vec![
            record(0, 10, 0.8, 10),
            record(1, 10, 0.5, 20),
            record(2, 10, 0.9, 30),
            record(3, 10, 0.3, 40),
        ]);
        assert_eq!(outcome.num_evaluations(), 4);
        assert_eq!(outcome.total_resource(), 40);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
        assert_eq!(outcome.best_within_budget(25).unwrap().trial_id, 1);
        assert_eq!(outcome.best_within_budget(5), None);
        assert_eq!(outcome.best_within_budget(1000).unwrap().trial_id, 3);
    }

    #[test]
    fn outcome_max_fidelity_selection() {
        // Trial 1 is best at low fidelity but trial 2 is the best among
        // configurations trained to the highest fidelity.
        let outcome = TuningOutcome::from_records(vec![
            record(0, 5, 0.6, 5),
            record(1, 5, 0.1, 10),
            record(2, 15, 0.4, 25),
            record(3, 15, 0.5, 40),
        ]);
        assert_eq!(outcome.best().unwrap().trial_id, 1);
        assert_eq!(
            outcome
                .best_at_max_fidelity_within_budget(40)
                .unwrap()
                .trial_id,
            2
        );
        // Within a smaller budget the max fidelity seen is 5.
        assert_eq!(
            outcome
                .best_at_max_fidelity_within_budget(10)
                .unwrap()
                .trial_id,
            1
        );
        assert!(outcome.best_at_max_fidelity_within_budget(1).is_none());
    }

    #[test]
    fn empty_outcome() {
        let outcome = TuningOutcome::default();
        assert_eq!(outcome.num_evaluations(), 0);
        assert_eq!(outcome.total_resource(), 0);
        assert!(outcome.best().is_none());
        assert!(outcome.best_within_budget(10).is_none());
    }

    #[test]
    fn push_appends() {
        let mut outcome = TuningOutcome::default();
        outcome.push(record(0, 1, 1.0, 1));
        assert_eq!(outcome.num_evaluations(), 1);
    }

    #[test]
    fn nan_scores_never_win_selection() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` used to let a NaN
        // score (a diverged training run) win `min_by` and poison selection.
        let outcome = TuningOutcome::from_records(vec![
            record(0, 10, f64::NAN, 10),
            record(1, 10, 0.5, 20),
            record(2, 10, f64::NEG_INFINITY, 30),
            record(3, 10, 0.3, 40),
        ]);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
        assert_eq!(outcome.best_within_budget(20).unwrap().trial_id, 1);
        assert_eq!(
            outcome
                .best_at_max_fidelity_within_budget(40)
                .unwrap()
                .trial_id,
            3
        );
        // An all-NaN history selects nothing rather than garbage.
        let poisoned = TuningOutcome::from_records(vec![record(0, 5, f64::NAN, 5)]);
        assert!(poisoned.best().is_none());
        assert!(poisoned.best_within_budget(10).is_none());
        assert!(poisoned.best_at_max_fidelity_within_budget(10).is_none());
    }

    #[test]
    fn reevaluated_selection_averages_fresh_draws() {
        // Trial 1 got a lucky noisy minimum at rep 0, but its fresh-noise
        // re-evaluations average worse than trial 2's.
        let mut records = vec![
            record(1, 10, 0.10, 10),
            record(2, 10, 0.35, 20),
            reeval(1, 10, 0.50, 20),
            reeval(1, 10, 0.60, 20),
            reeval(2, 10, 0.30, 20),
        ];
        records.push(EvaluationRecord {
            noise_rep: 2,
            ..record(2, 10, 0.40, 20)
        });
        let outcome = TuningOutcome::from_records(records);
        // Plain min-selection is fooled by the lucky draw ...
        assert_eq!(outcome.best_within_budget(20).unwrap().trial_id, 1);
        // ... mean-of-re-evaluations selection is not (0.55 vs 0.35).
        let selected = outcome.selected_within_budget(20).unwrap();
        assert_eq!(selected.trial_id, 2);
        assert!(selected.noise_rep >= 1);
        // Without re-evaluations in range, fall back to the plain rule.
        assert_eq!(outcome.selected_within_budget(10).unwrap().trial_id, 1);
        assert!(TuningOutcome::default()
            .selected_within_budget(10)
            .is_none());
    }
}
