//! The evaluation history a tuning run produces: [`EvaluationRecord`] and
//! [`TuningOutcome`]. The experiments' noise-aware selection rule reads the
//! campaign log instead (`fedtune_core::selected_true_error`), which also
//! carries each evaluation's true error.

use crate::scheduler::{BudgetLedger, TrialResult};
use crate::space::HpConfig;

/// One evaluation performed during a tuning run.
#[derive(Debug, Clone, PartialEq)]
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

/// The full history of a tuning run, in delivery order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TuningOutcome {
    records: Vec<EvaluationRecord>,
    /// Rounds charged in delivery order.
    ledger: BudgetLedger,
}

impl TuningOutcome {
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
        self.ledger.cumulative()
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

    /// Records a delivered `result`, completed at `sim_time` virtual seconds
    /// (`0.0` where there is no virtual clock), charging its trial the
    /// resource above what earlier deliveries charged it.
    pub fn record(&mut self, result: &TrialResult, sim_time: f64) {
        self.ledger.charge(result.trial_id, result.resource);
        self.records.push(EvaluationRecord {
            trial_id: result.trial_id,
            config: result.config.clone(),
            resource: result.resource,
            score: result.score,
            cumulative_resource: self.ledger.cumulative(),
            noise_rep: result.noise_rep,
            sim_time,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers `(trial, resource, score)` results in order at time zero.
    fn history(results: &[(usize, usize, f64)]) -> TuningOutcome {
        let mut outcome = TuningOutcome::default();
        for &(trial_id, resource, score) in results {
            let result = TrialResult {
                trial_id,
                config: HpConfig::new(vec![trial_id as f64]),
                resource,
                noise_rep: 0,
                score,
            };
            outcome.record(&result, 0.0);
        }
        outcome
    }

    #[test]
    fn outcome_best_and_totals() {
        let outcome = history(&[(0, 10, 0.8), (1, 10, 0.5), (2, 10, 0.9), (3, 10, 0.3)]);
        assert_eq!(outcome.num_evaluations(), 4);
        assert_eq!(outcome.total_resource(), 40);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
    }

    #[test]
    fn empty_outcome() {
        let outcome = TuningOutcome::default();
        assert_eq!(outcome.num_evaluations(), 0);
        assert_eq!(outcome.total_resource(), 0);
        assert!(outcome.best().is_none());
    }

    #[test]
    fn records_charge_in_delivery_order() {
        // Trial 0 delivered at 9 before 3: the later, lower fidelity is free
        // and keeps its own resource on record.
        let outcome = history(&[(0, 9, 0.5), (0, 3, 0.6), (1, 4, 0.7)]);
        let charged: Vec<_> = outcome
            .records()
            .iter()
            .map(|r| (r.resource, r.cumulative_resource))
            .collect();
        assert_eq!(charged, vec![(9, 9), (3, 9), (4, 13)]);
        assert_eq!(outcome.total_resource(), 13);
    }

    #[test]
    fn nan_scores_never_win_selection() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` used to let a NaN
        // score (a diverged training run) win `min_by` and poison selection.
        let outcome = history(&[
            (0, 10, f64::NAN),
            (1, 10, 0.5),
            (2, 10, f64::NEG_INFINITY),
            (3, 10, 0.3),
        ]);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
        // An all-NaN history selects nothing rather than garbage.
        let poisoned = history(&[(0, 5, f64::NAN)]);
        assert!(poisoned.best().is_none());
    }
}
