//! The tabular surrogate objective: tuning campaigns replayed against a
//! recorded [`TrialStore`] instead of the live federated simulator.
//!
//! Lookup is **exact hit or miss** per request `(config, resource, rep)`:
//!
//! - **Hit** — the key is recorded: the stored noisy score and true error
//!   are returned bit-for-bit. A replayed campaign whose scheduler
//!   re-derives the recorded schedule (same method, same seeds) is therefore
//!   bit-identical to the live run.
//! - **Miss** — anything else, an unrecorded replicate of a recorded point
//!   included: the evaluation fails with a [`StoreError::Miss`], because
//!   silently inventing objective values would corrupt every conclusion
//!   drawn from the sweep.

use crate::key::TrialKey;
use crate::store::TrialStore;
use crate::{Result, StoreError};
use fedhpo::{SearchSpace, TrialRequest};
use fedtune_core::{CampaignLog, ConcurrentEval, ConcurrentObjective, CoreError, EvalOutput};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scheduler-facing objective answering every evaluation from a recorded
/// table: a [`ConcurrentObjective`], so every driver that runs a live
/// campaign replays one.
pub struct TabularObjective<'s> {
    /// The thread-shared half: the table lookup and its tally.
    pub table: Table<'s>,
    /// The driver-thread half: the replay log in commit order — same shape
    /// as the live objective's, true errors from the table, and the
    /// resource accounting a live campaign would have incurred.
    pub campaign: CampaignLog,
}

/// The thread-shared half of a [`TabularObjective`]: the table lookup.
pub struct Table<'s> {
    store: &'s TrialStore,
    space: SearchSpace,
    exact_hits: AtomicUsize,
}

impl<'s> TabularObjective<'s> {
    /// Creates a surrogate over `store`, canonicalizing requests against
    /// `space`.
    pub fn new(store: &'s TrialStore, space: &SearchSpace) -> Self {
        TabularObjective {
            table: Table {
                store,
                space: space.clone(),
                exact_hits: AtomicUsize::new(0),
            },
            campaign: CampaignLog::default(),
        }
    }
}

impl Table<'_> {
    /// Requests answered by their exactly-recorded key.
    pub fn exact_hits(&self) -> usize {
        self.exact_hits.load(Ordering::Relaxed)
    }

    /// Answers one request from the table, returning
    /// `(noisy score, true error)`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Miss`] when the exact key is not recorded.
    fn lookup(&self, request: &TrialRequest) -> Result<(f64, f64)> {
        let key = TrialKey::for_request(&self.space, request)?;
        let record = self.store.get(&key).ok_or_else(|| StoreError::Miss {
            message: format!(
                "no recorded evaluation of config {:?} at resource {}, replicate {}",
                key.config.values(),
                key.resource,
                key.rep,
            ),
        })?;
        self.exact_hits.fetch_add(1, Ordering::Relaxed);
        Ok((record.noisy_score, record.true_error))
    }
}

impl ConcurrentEval for Table<'_> {
    type State = ();

    fn evaluate(&self, _: &mut (), request: &TrialRequest) -> fedtune_core::Result<EvalOutput> {
        let (noisy_score, true_error) = self.lookup(request).map_err(CoreError::from)?;
        // What the request would have cost live is the log's accounting.
        Ok(EvalOutput {
            noisy_score,
            true_error,
        })
    }
}

impl<'s> ConcurrentObjective for TabularObjective<'s> {
    type State = ();
    type Eval = Table<'s>;
    type Sink = CampaignLog;

    fn split(&mut self) -> (&Table<'s>, &mut CampaignLog) {
        (&self.table, &mut self.campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ConfigKey;
    use crate::record::Provenance;
    use crate::recorder::tests::scores_of;
    use crate::TrialRecord;
    use fedhpo::HpConfig;

    fn provenance() -> Provenance {
        Provenance {
            benchmark: "analytic".into(),
            scale: "unit".into(),
            seed: 0,
            noise: "noisy".into(),
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 10.0).unwrap()
    }

    fn table() -> TrialStore {
        let mut store = TrialStore::in_memory();
        for (x, resource, rep, noisy, true_error) in [
            (1.0, 2, 0u64, 0.40, 0.45),
            (1.0, 2, 1, 0.50, 0.45),
            (1.0, 2, 2, 0.44, 0.45),
            (1.0, 4, 0, 0.30, 0.33),
            (3.0, 2, 0, 0.60, 0.58),
        ] {
            store
                .insert(TrialRecord {
                    config: ConfigKey::from_canonical_values(&[x]).unwrap(),
                    resource,
                    rep,
                    noisy_score: noisy,
                    true_error,
                    sim_time: 0.0,
                    provenance: provenance(),
                })
                .unwrap();
        }
        store
    }

    fn request(trial_id: usize, x: f64, resource: usize, noise_rep: u64) -> TrialRequest {
        TrialRequest {
            trial_id,
            config: HpConfig::new(vec![x]),
            resource,
            noise_rep,
        }
    }

    #[test]
    fn exact_hits_return_recorded_bits() {
        let store = table();
        let mut tabular = TabularObjective::new(&store, &space());
        let batch = vec![request(0, 1.0, 2, 0), request(1, 3.0, 2, 0)];
        let scores = scores_of(&mut tabular, &space(), vec![batch], 4).unwrap();
        assert_eq!(scores[0].to_bits(), 0.40f64.to_bits());
        assert_eq!(scores[1].to_bits(), 0.60f64.to_bits());
        assert_eq!(tabular.table.exact_hits(), 2);
        let truths: Vec<f64> = tabular
            .campaign
            .log()
            .iter()
            .map(|e| e.true_error)
            .collect();
        assert_eq!(truths, vec![0.45, 0.58]);
        assert_eq!(tabular.campaign.cumulative_rounds(), 4);
        assert_eq!(tabular.campaign.log().len(), 2);
        assert!(tabular
            .campaign
            .selected_true_error_within(usize::MAX)
            .is_some());
    }

    #[test]
    fn unrecorded_replicates_miss() {
        let store = table();
        let mut tabular = TabularObjective::new(&store, &space());
        // Replicates 0–2 of (1.0, 2) are recorded; replicate 7 is not, and
        // nothing is drawn in its place.
        let scores = scores_of(&mut tabular, &space(), vec![vec![request(0, 1.0, 2, 1)]], 1);
        assert_eq!(scores.unwrap()[0].to_bits(), 0.50f64.to_bits());
        let err =
            scores_of(&mut tabular, &space(), vec![vec![request(1, 1.0, 2, 7)]], 1).unwrap_err();
        assert!(err.to_string().contains("table miss"), "{err}");
        assert!(err.to_string().contains("replicate 7"), "{err}");
        assert_eq!(tabular.table.exact_hits(), 1);
    }

    #[test]
    fn complete_misses_fail_loudly() {
        let store = table();
        let mut tabular = TabularObjective::new(&store, &space());
        let err =
            scores_of(&mut tabular, &space(), vec![vec![request(0, 9.0, 2, 0)]], 1).unwrap_err();
        assert!(err.to_string().contains("no recorded evaluation"), "{err}");
        // An unrecorded fidelity of a recorded config also misses — and
        // nothing dispatched after the miss is logged.
        let batch = vec![request(0, 3.0, 4, 0), request(1, 1.0, 2, 0)];
        assert!(scores_of(&mut tabular, &space(), vec![batch], 1).is_err());
        assert!(tabular.campaign.log().is_empty());
    }

    #[test]
    fn campaign_accounting_matches_live_semantics() {
        let store = table();
        let mut tabular = TabularObjective::new(&store, &space());
        // Promote trial 0 from fidelity 2 to 4: only the delta is charged;
        // a replicate at the reached fidelity is free.
        let batch = vec![
            request(0, 1.0, 2, 0),
            request(0, 1.0, 4, 0),
            request(0, 1.0, 2, 1),
        ];
        scores_of(&mut tabular, &space(), vec![batch], 1).unwrap();
        assert_eq!(tabular.campaign.cumulative_rounds(), 4);
        let log = tabular.campaign.log();
        assert_eq!(log[0].cumulative_rounds, 2);
        assert_eq!(log[1].cumulative_rounds, 4);
        assert_eq!(log[2].cumulative_rounds, 4);
        // The replicate's logged fidelity is the reached one, like live.
        assert_eq!(log[2].resource, 4);
    }
}
