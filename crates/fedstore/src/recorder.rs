//! The recording wrapper that captures a live campaign into the ledger —
//! and, symmetrically, serves already-recorded requests *from* the ledger.
//!
//! [`RecordingObjective`] wraps any [`ConcurrentEval`] and is itself a
//! [`ConcurrentObjective`], so every driver — barrier, event-driven, the
//! `fedserve` daemon — records and replays through this one implementation:
//!
//! - the **evaluation half** ([`RecordingEval`]) carries a snapshot of the
//!   keys the ledger held when the wrapper was built. A request whose key is
//!   in it is a **hit**: the recorded bits come back and the inner objective
//!   is never called. Anything else is a **miss** and evaluates live. (A
//!   point evaluated twice *within* one campaign is two misses — the
//!   snapshot does not grow — and, evaluations being pure in the point,
//!   records once.)
//! - the **sink half** ([`RecordingSink`]) stages every commit in the ledger
//!   in dispatch order (re-staging a recorded hit is an idempotent no-op)
//!   and makes the staged records durable with **one** group commit per
//!   driver turn, in [`end_turn`](ConcurrentSink::end_turn). Its campaign
//!   log charges rounds campaign-side — what the request's fidelity costs
//!   the *campaign*, not what this process happened to recompute — so a
//!   served prefix costs what the live run paid.
//!
//! The hit path is what makes *resume* fall out for free: re-driving an
//! interrupted campaign with the same seeds re-suggests its prefix verbatim,
//! every prefix request hits the ledger, and the campaign continues exactly
//! where it stopped — bit-identically to an uninterrupted run, because every
//! served score is the recorded bit pattern and all live randomness is
//! positional.
//!
//! It is also *replay*: over [`LedgerOnly`], the inner evaluation with
//! nothing live, every request is its recorded bits or a
//! [`StoreError::Miss`] — no dataset, no training, and nothing invented.
//! A replay that hits throughout appends and syncs nothing; a hit recorded
//! under another [`Provenance`] fails its re-staging with
//! [`StoreError::Conflict`].

use crate::key::TrialKey;
use crate::record::Provenance;
use crate::store::TrialStore;
use crate::{StoreError, TrialRecord};
use fedhpo::{SearchSpace, TrialRequest};
use fedtune_core::{
    CampaignLog, ConcurrentEval, ConcurrentObjective, ConcurrentSink, CoreError, EvalOutput,
};
use std::borrow::BorrowMut;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`ConcurrentObjective`] that records the misses of an inner evaluation
/// into a [`TrialStore`] — owned, or borrowed as `&mut TrialStore` — and
/// serves hits from it.
pub struct RecordingObjective<E: ConcurrentEval, T = TrialStore> {
    /// The thread-shared half: replay hits, live misses, and their tally.
    pub eval: RecordingEval<E>,
    /// The driver-thread half: the ledger and the campaign's log.
    pub sink: RecordingSink<E::State, T>,
}

/// The thread-shared half of a [`RecordingObjective`]; see the module docs.
pub struct RecordingEval<E> {
    inner: E,
    space: SearchSpace,
    /// `(noisy_score, true_error)` of every key the ledger held at
    /// construction. Keys share the store's allocations.
    recorded: HashMap<TrialKey, (f64, f64)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The driver-thread half of a [`RecordingObjective`]; see the module docs.
pub struct RecordingSink<S, T> {
    store: T,
    space: SearchSpace,
    provenance: Provenance,
    /// Parked trial states and the campaign's log, in commit order. Hits
    /// and misses are logged identically, so an interrupted-and-resumed
    /// campaign's log matches the uninterrupted one.
    pub campaign: CampaignLog<S>,
    /// First failure to stage a commit, kept because
    /// [`ConcurrentSink::commit`] cannot return it; the turn end does, and
    /// nothing after it is staged or logged.
    failure: Option<StoreError>,
}

impl<E, T> RecordingObjective<E, T>
where
    E: ConcurrentEval,
    E::State: Default,
    T: BorrowMut<TrialStore>,
{
    /// Wraps `inner`, keying records against `space` and stamping them with
    /// `provenance`. Every record already in `store` becomes a replay hit.
    pub fn new(inner: E, space: &SearchSpace, provenance: Provenance, store: T) -> Self {
        let recorded = store
            .borrow()
            .records()
            .iter()
            .map(|record| (record.key(), (record.noisy_score, record.true_error)))
            .collect();
        RecordingObjective {
            eval: RecordingEval {
                inner,
                space: space.clone(),
                recorded,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            },
            sink: RecordingSink {
                store,
                space: space.clone(),
                provenance,
                campaign: CampaignLog::default(),
                failure: None,
            },
        }
    }
}

impl<E> RecordingEval<E> {
    /// Requests served from the ledger snapshot, without touching the inner
    /// objective, so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests evaluated live (and recorded) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<E: ConcurrentEval> ConcurrentEval for RecordingEval<E> {
    type State = E::State;

    fn evaluate(
        &self,
        state: &mut E::State,
        request: &TrialRequest,
    ) -> fedtune_core::Result<EvalOutput> {
        let key = TrialKey::for_request(&self.space, request).map_err(CoreError::from)?;
        let Some(&(noisy_score, true_error)) = self.recorded.get(&key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut output = self.inner.evaluate(state, request)?;
            // A record carries its truth: a live miss pays for it here, on
            // the worker that holds the trial's state.
            if output.true_error.is_none() {
                let truth = self
                    .inner
                    .true_error(state, request.trial_id, request.resource)?;
                output.true_error = Some(truth);
            }
            return Ok(output);
        };
        // Recorded bits; the inner objective (and its state) is untouched.
        // What the request costs the campaign is the sink's accounting.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(EvalOutput {
            noisy_score,
            true_error: Some(true_error),
        })
    }
}

/// The inner evaluation of a replay: nothing is live, so every request
/// that reaches it — one the ledger does not hold under its exact key, an
/// unrecorded replicate of a recorded point included — fails with
/// [`StoreError::Miss`] rather than invent objective values.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerOnly;

impl ConcurrentEval for LedgerOnly {
    type State = ();

    fn evaluate(&self, _: &mut (), request: &TrialRequest) -> fedtune_core::Result<EvalOutput> {
        Err(StoreError::Miss {
            message: format!(
                "no recorded evaluation of config {:?} at resource {}, replicate {}",
                request.config.values(),
                request.resource,
                request.noise_rep,
            ),
        }
        .into())
    }
}

impl<S, T: BorrowMut<TrialStore>> RecordingSink<S, T> {
    /// The ledger being appended to.
    pub fn store(&self) -> &TrialStore {
        self.store.borrow()
    }

    /// Consumes the sink, returning its ledger (or the borrow of it).
    pub fn into_store(self) -> T {
        self.store
    }

    /// Ends a driver turn: every commit staged since the previous call
    /// becomes durable with one group commit (under the default
    /// per-insert durability: one `sync_data`; none when nothing new was
    /// staged). Until this returns `Ok` the turn's results should reach no
    /// status reply.
    ///
    /// # Errors
    ///
    /// The first failure to stage a commit this turn, else the sync's own.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        match self.failure.take() {
            Some(e) => Err(e),
            None => self.store.borrow_mut().group_commit(),
        }
    }

    fn stage(
        &mut self,
        request: &TrialRequest,
        output: &EvalOutput,
        sim_time: f64,
    ) -> Result<(), StoreError> {
        let key = TrialKey::for_request(&self.space, request)?;
        // `RecordingEval` returns every output with its truth.
        let true_error = output.true_error.ok_or_else(|| StoreError::InvalidRecord {
            message: format!("trial {} has no true error to record", request.trial_id),
        })?;
        self.store.borrow_mut().insert_unsynced(TrialRecord {
            config: key.config,
            resource: key.resource,
            rep: key.rep,
            noisy_score: output.noisy_score,
            true_error,
            sim_time,
            provenance: self.provenance.clone(),
        })?;
        self.campaign
            .observe_at(request, output.noisy_score, Some(true_error), sim_time);
        Ok(())
    }
}

impl<S: Send + Default, T: BorrowMut<TrialStore>> ConcurrentSink for RecordingSink<S, T> {
    type State = S;

    fn take_state(&mut self, trial_id: usize) -> S {
        self.campaign.take_state(trial_id)
    }

    fn put_state(&mut self, trial_id: usize, state: S) {
        self.campaign.put_state(trial_id, state);
    }

    fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
        if self.failure.is_none() {
            self.failure = self.stage(request, output, sim_time).err();
        }
    }

    fn end_turn(&mut self) -> fedtune_core::Result<()> {
        self.sync().map_err(CoreError::from)
    }
}

impl<E, T> ConcurrentObjective for RecordingObjective<E, T>
where
    E: ConcurrentEval,
    E::State: Default,
    T: BorrowMut<TrialStore>,
{
    type State = E::State;
    type Eval = RecordingEval<E>;
    type Sink = RecordingSink<E::State, T>;

    fn split(&mut self) -> (&Self::Eval, &mut Self::Sink) {
        (&self.eval, &mut self.sink)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fedhpo::{HpConfig, RandomSearch, Scheduler, TrialResult};
    use fedmath::rng::rng_for;
    use fedtune_core::{drive, selected_true_error, Clock, Drive};
    use rand::rngs::StdRng;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;

    /// A deterministic analytic evaluation that counts its calls.
    #[derive(Default)]
    struct CountingEval {
        calls: AtomicUsize,
    }

    impl ConcurrentEval for CountingEval {
        type State = usize;

        fn evaluate(
            &self,
            trained: &mut usize,
            request: &TrialRequest,
        ) -> fedtune_core::Result<EvalOutput> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            *trained = (*trained).max(request.resource);
            let score = request.config.values()[0] + request.resource as f64;
            Ok(EvalOutput {
                noisy_score: score,
                true_error: Some(score),
            })
        }
    }

    /// A scheduler that suggests the given batches, one per cycle, and
    /// counts the results it is told.
    pub(crate) struct Scripted {
        batches: VecDeque<Vec<TrialRequest>>,
        pub(crate) reports: usize,
    }

    impl Scripted {
        pub(crate) fn new(batches: Vec<Vec<TrialRequest>>) -> Self {
            Scripted {
                batches: batches.into(),
                reports: 0,
            }
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn suggest(
            &mut self,
            _space: &SearchSpace,
            _rng: &mut StdRng,
        ) -> fedhpo::Result<Vec<TrialRequest>> {
            Ok(self.batches.pop_front().unwrap_or_default())
        }

        fn report(&mut self, _result: &TrialResult) -> fedhpo::Result<()> {
            self.reports += 1;
            Ok(())
        }

        fn is_finished(&self) -> bool {
            self.batches.is_empty()
        }
    }

    /// Batch by batch on `threads` real threads.
    fn barrier(threads: usize) -> Drive<'static> {
        Drive {
            threads,
            ..Drive::new(Clock::Barrier)
        }
    }

    /// The scores of `batches` driven batch by batch.
    pub(crate) fn scores_of<O: ConcurrentObjective>(
        objective: &mut O,
        space: &SearchSpace,
        batches: Vec<Vec<TrialRequest>>,
        threads: usize,
    ) -> fedtune_core::Result<Vec<f64>> {
        let mut scheduler = Scripted::new(batches);
        let run = drive(
            &mut scheduler,
            space,
            objective,
            &mut rng_for(0, 0),
            &barrier(threads),
        )?;
        Ok(run.outcome.records().iter().map(|r| r.score).collect())
    }

    fn space() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 10.0).unwrap()
    }

    fn provenance() -> Provenance {
        Provenance {
            benchmark: "analytic".into(),
            scale: "unit".into(),
            seed: 0,
            noise: "noiseless".into(),
        }
    }

    fn request(trial_id: usize, x: f64, resource: usize) -> TrialRequest {
        replicate(trial_id, x, resource, 0)
    }

    fn replicate(trial_id: usize, x: f64, resource: usize, noise_rep: u64) -> TrialRequest {
        TrialRequest {
            trial_id,
            config: HpConfig::new(vec![x]),
            resource,
            noise_rep,
        }
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn misses_are_recorded_and_hits_skip_the_inner_objective() {
        let space = space();
        let mut store = TrialStore::in_memory();
        let inner = CountingEval::default();
        let batch = vec![request(0, 1.0, 2), request(1, 3.0, 2)];
        let mut recording = RecordingObjective::new(&inner, &space, provenance(), &mut store);
        let first = scores_of(&mut recording, &space, vec![batch.clone()], 1).unwrap();
        assert_eq!((recording.eval.misses(), recording.eval.hits()), (2, 0));
        let recorded_log = recording.sink.campaign.resolve(&recording.eval, 1).unwrap();
        assert_eq!(recorded_log.len(), 2);
        assert_eq!(store.len(), 2);
        // The same points over the recorded ledger, on a pool this time: all
        // hits, inner untouched, same bits, nothing appended.
        let mut replaying = RecordingObjective::new(&inner, &space, provenance(), &mut store);
        let second = scores_of(&mut replaying, &space, vec![batch.clone()], 4).unwrap();
        assert_eq!((replaying.eval.misses(), replaying.eval.hits()), (0, 2));
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(inner.calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.len(), 2);
        // And with nothing live behind the ledger: the same hits, and the
        // log — true errors and rounds included — is the recorded one.
        let mut replay = RecordingObjective::new(LedgerOnly, &space, provenance(), &mut store);
        let third = scores_of(&mut replay, &space, vec![batch], 4).unwrap();
        assert_eq!((replay.eval.misses(), replay.eval.hits()), (0, 2));
        assert_eq!(bits(&first), bits(&third));
        assert_eq!(replay.sink.campaign.cumulative_rounds(), 4);
        let replayed_log = replay.sink.campaign.resolve(&replay.eval, 1).unwrap();
        assert!(selected_true_error(&replayed_log, usize::MAX).is_some());
        assert_eq!(replayed_log, recorded_log);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn ledger_only_serves_exact_keys_and_misses_everything_else() {
        let space = space();
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
                    config: crate::ConfigKey::from_canonical_values(&[x]).unwrap(),
                    resource,
                    rep,
                    noisy_score: noisy,
                    true_error,
                    sim_time: 0.0,
                    provenance: provenance(),
                })
                .unwrap();
        }
        let mut replay = RecordingObjective::new(LedgerOnly, &space, provenance(), &mut store);
        // Replicates 0–2 of (1.0, 2) are recorded; replicate 7 is not, and
        // nothing is drawn in its place.
        let scores = scores_of(&mut replay, &space, vec![vec![replicate(0, 1.0, 2, 1)]], 1);
        assert_eq!(scores.unwrap()[0].to_bits(), 0.50f64.to_bits());
        let batch = vec![vec![replicate(1, 1.0, 2, 7)]];
        let err = scores_of(&mut replay, &space, batch, 1).unwrap_err();
        assert!(err.to_string().contains("table miss"), "{err}");
        assert!(err.to_string().contains("replicate 7"), "{err}");
        assert_eq!((replay.eval.hits(), replay.eval.misses()), (1, 1));
        // An unrecorded configuration misses ...
        let mut replay = RecordingObjective::new(LedgerOnly, &space, provenance(), &mut store);
        let err = scores_of(&mut replay, &space, vec![vec![request(0, 9.0, 2)]], 1).unwrap_err();
        assert!(err.to_string().contains("no recorded evaluation"), "{err}");
        // ... and so does an unrecorded fidelity of a recorded one, with
        // nothing dispatched after the miss logged.
        let batch = vec![request(0, 3.0, 4), request(1, 1.0, 2)];
        assert!(scores_of(&mut replay, &space, vec![batch], 1).is_err());
        assert!(replay.sink.campaign.is_empty());
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn log_accounts_campaign_resource_incrementally() {
        let space = space();
        let inner = CountingEval::default();
        let mut recording =
            RecordingObjective::new(&inner, &space, provenance(), TrialStore::in_memory());
        // Trial 0's promotion from 2 to 5 is charged its delta; a replicate
        // at a fidelity it has reached is free.
        let batches = vec![
            vec![
                request(0, 1.0, 2),
                request(0, 1.0, 5),
                replicate(0, 1.0, 2, 1),
            ],
            vec![request(1, 2.0, 3)],
        ];
        scores_of(&mut recording, &space, batches.clone(), 1).unwrap();
        let recorded_log = recording.sink.campaign.resolve(&recording.eval, 1).unwrap();
        assert_eq!(recorded_log.len(), 4);
        assert_eq!(recorded_log[0].cumulative_rounds, 2);
        assert_eq!(recorded_log[1].cumulative_rounds, 5);
        assert_eq!(recorded_log[2].cumulative_rounds, 5);
        // The replicate's logged fidelity is the one reached.
        assert_eq!(recorded_log[2].resource, 5);
        assert_eq!(recorded_log[3].cumulative_rounds, 8);
        // A replay accounts the same, though it trains nothing.
        let mut replay = RecordingObjective::new(
            LedgerOnly,
            &space,
            provenance(),
            recording.sink.into_store(),
        );
        scores_of(&mut replay, &space, batches, 1).unwrap();
        let replayed_log = replay.sink.campaign.resolve(&replay.eval, 1).unwrap();
        assert_eq!(replayed_log, recorded_log);
    }

    #[test]
    fn resume_serves_the_recorded_prefix() {
        let space = space();
        let mut store = TrialStore::in_memory();
        let prefix = vec![request(0, 1.0, 2), request(1, 3.0, 2)];
        // First process: evaluates two points, then "crashes".
        {
            let inner = CountingEval::default();
            let mut recording = RecordingObjective::new(&inner, &space, provenance(), &mut store);
            scores_of(&mut recording, &space, vec![prefix.clone()], 1).unwrap();
        }
        // Second process re-drives the same schedule plus new work: the
        // prefix hits, only the new point is evaluated.
        let inner = CountingEval::default();
        let mut recording = RecordingObjective::new(&inner, &space, provenance(), &mut store);
        let batches = vec![prefix, vec![request(2, 5.0, 2), request(0, 1.0, 6)]];
        scores_of(&mut recording, &space, batches, 1).unwrap();
        assert_eq!((recording.eval.hits(), recording.eval.misses()), (2, 2));
        // The campaign log still accounts the prefix as paid-for work: trial
        // 0's promotion is charged 6 − 2 rounds although this process
        // evaluated it from scratch.
        let log = recording.sink.campaign.resolve(&recording.eval, 1).unwrap();
        assert_eq!(log.last().unwrap().cumulative_rounds, 10);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn a_failed_sync_fails_the_batch_before_the_scheduler_hears_of_it() {
        // The barrier driver's turn boundary: a batch is on disk before its
        // first `report`.
        let dir = std::env::temp_dir().join(format!("fedstore_turn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let space = space();
        let mut store = TrialStore::open_segments(&dir).unwrap();
        let inner = CountingEval::default();
        let batches = vec![
            vec![request(0, 1.0, 2), request(1, 3.0, 2)],
            vec![request(2, 5.0, 2)],
        ];
        for threads in [1usize, 4] {
            store.fail_next_sync();
            let mut recording = RecordingObjective::new(&inner, &space, provenance(), &mut store);
            let mut scheduler = Scripted::new(batches.clone());
            let err = drive(
                &mut scheduler,
                &space,
                &mut recording,
                &mut rng_for(0, 0),
                &barrier(threads),
            )
            .unwrap_err();
            assert!(err.to_string().contains("injected sync failure"), "{err}");
            assert_eq!(scheduler.reports, 0, "threads = {threads}");
        }
        // Both records were staged, neither made durable.
        assert_eq!((store.len(), store.unsynced()), (2, 2));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaying_a_reopened_segment_ledger_leaves_it_untouched() {
        let dir = std::env::temp_dir().join(format!("fedstore_replay_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let space = space();
        let batches = vec![
            vec![request(0, 1.0, 2), request(1, 3.0, 2)],
            vec![request(0, 1.0, 6), replicate(1, 3.0, 2, 1)],
        ];
        {
            let inner = CountingEval::default();
            let store = TrialStore::open_segments(&dir).unwrap();
            let mut recording = RecordingObjective::new(&inner, &space, provenance(), store);
            scores_of(&mut recording, &space, batches.clone(), 1).unwrap();
        }
        let bytes = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    (path.clone(), std::fs::read(path).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let mut store = TrialStore::open_segments(&dir).unwrap();
        let before = bytes();
        let mut replay = RecordingObjective::new(LedgerOnly, &space, provenance(), &mut store);
        scores_of(&mut replay, &space, batches, 4).unwrap();
        assert_eq!((replay.eval.hits(), replay.eval.misses()), (4, 0));
        assert_eq!((store.len(), store.unsynced()), (4, 0));
        assert_eq!(bytes(), before);
        drop(store);
        assert_eq!(bytes(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_point_sampled_twice_in_one_campaign_records_once_and_replays_to_the_same_bits() {
        // Every dimension fixed: all four trial ids sample one configuration.
        let space = SearchSpace::new().with_fixed("x", 2.5).unwrap();
        let run = |store: &mut TrialStore, threads: usize| {
            let inner = CountingEval::default();
            let mut recording = RecordingObjective::new(&inner, &space, provenance(), store);
            let mut scheduler = RandomSearch::new(4, 3).unwrap();
            let outcome = drive(
                &mut scheduler,
                &space,
                &mut recording,
                &mut rng_for(1, 0),
                &barrier(threads),
            )
            .unwrap()
            .outcome;
            let tally = (recording.eval.hits(), recording.eval.misses());
            assert_eq!(tally.0 + tally.1, outcome.num_evaluations() as u64);
            let log = recording.sink.campaign.resolve(&recording.eval, 1).unwrap();
            (outcome, log, tally)
        };
        let mut store = TrialStore::in_memory();
        // Snapshot semantics: the ledger was empty when the campaign began,
        // so all four evaluations of the one point are live.
        let (live, live_log, tally) = run(&mut store, 1);
        assert_eq!(tally, (0, 4));
        assert_eq!(store.len(), 1, "one point, one record");
        let (replayed, replayed_log, tally) = run(&mut store, 4);
        assert_eq!(tally, (4, 0));
        assert_eq!(store.len(), 1);
        assert_eq!(live, replayed);
        assert_eq!(live_log, replayed_log);
        for (a, b) in live.records().iter().zip(replayed.records()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}
