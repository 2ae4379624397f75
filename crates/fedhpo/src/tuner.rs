//! The evaluation history a tuning run produces: [`EvaluationRecord`] and
//! [`TuningOutcome`]. The experiments' noise-aware selection rule reads the
//! campaign log instead (`fedtune_core::selected_true_error`), which also
//! carries each evaluation's true error.

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

    /// Appends a record (used by the scheduler drivers).
    pub fn push(&mut self, record: EvaluationRecord) {
        self.records.push(record);
    }

    /// Simulated seconds the run took: the latest completion time on record.
    /// `0.0` for synchronous campaigns, which carry no virtual timestamps.
    pub fn sim_elapsed(&self) -> f64 {
        self.records.iter().map(|r| r.sim_time).fold(0.0, f64::max)
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

    fn history(records: Vec<EvaluationRecord>) -> TuningOutcome {
        let mut outcome = TuningOutcome::default();
        for record in records {
            outcome.push(record);
        }
        outcome
    }

    #[test]
    fn outcome_best_and_totals() {
        let outcome = history(vec![
            record(0, 10, 0.8, 10),
            record(1, 10, 0.5, 20),
            record(2, 10, 0.9, 30),
            record(3, 10, 0.3, 40),
        ]);
        assert_eq!(outcome.num_evaluations(), 4);
        assert_eq!(outcome.total_resource(), 40);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
        assert_eq!(outcome.sim_elapsed(), 0.0);
    }

    #[test]
    fn empty_outcome() {
        let outcome = TuningOutcome::default();
        assert_eq!(outcome.num_evaluations(), 0);
        assert_eq!(outcome.total_resource(), 0);
        assert!(outcome.best().is_none());
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
        let outcome = history(vec![
            record(0, 10, f64::NAN, 10),
            record(1, 10, 0.5, 20),
            record(2, 10, f64::NEG_INFINITY, 30),
            record(3, 10, 0.3, 40),
        ]);
        assert_eq!(outcome.best().unwrap().trial_id, 3);
        // An all-NaN history selects nothing rather than garbage.
        let poisoned = history(vec![record(0, 5, f64::NAN, 5)]);
        assert!(poisoned.best().is_none());
    }
}
