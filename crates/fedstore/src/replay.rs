//! Record/replay counterparts of the method comparison.
//!
//! [`record_method_comparison`] is a drop-in replacement for
//! `fedtune_core::experiments::methods::run_method_comparison` that
//! additionally persists every evaluation into a [`TrialStore`]; it walks the
//! same campaign grid with the same positional seeds (`methods::comparison`),
//! so its result is bit-identical to the live comparison — and, when the
//! store already holds a previous (possibly interrupted) recording of the
//! same campaign, recorded evaluations are served from the ledger instead of
//! recomputed.
//!
//! [`replay_method_comparison`] then re-runs the whole comparison against the
//! table alone: the same recorder over [`LedgerOnly`], so no dataset is
//! generated and no model is trained, and method sweeps (fig08/fig15-16
//! style) cost tuner time instead of simulation time while reproducing the
//! live selection bit-for-bit.

use crate::record::Provenance;
use crate::recorder::{LedgerOnly, RecordingObjective};
use crate::store::TrialStore;
use feddata::Benchmark;
use fedhpo::SearchSpace;
use fedtune_core::experiments::methods::{comparison, Campaign, MethodComparison, TuningMethod};
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, ConcurrentEval, Drive,
    ExperimentScale, NoiseConfig, TrialRunner,
};

/// The provenance stamp for one campaign cell.
pub fn campaign_provenance(
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
    noise_label: &str,
) -> Provenance {
    Provenance {
        benchmark: benchmark.name().into(),
        scale: format!("{:?}", scale.data_scale).to_lowercase().into(),
        seed,
        noise: noise_label.into(),
    }
}

/// Runs the method comparison live while recording every evaluation into
/// `store`. Bit-identical to `run_method_comparison` with the same arguments
/// (asserted in `tests/record_replay.rs`); campaigns whose evaluations are
/// already in the store are served from it instead of retrained, which is
/// how an interrupted recording resumes.
///
/// # Errors
///
/// Propagates training, evaluation, and ledger failures.
pub fn record_method_comparison(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
    store: &mut TrialStore,
) -> fedtune_core::Result<MethodComparison> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let config = Drive {
        threads: runner.policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };
    let grid = (benchmark, scale, methods, noise_settings, seed);
    recorded_comparison(grid, ctx.space(), &config, store, |cell| {
        let planned = cell.method.planned_evaluations(scale);
        // Only the evaluation half is wrapped: the recording sink parks the
        // trial states and keeps the campaign's log.
        Ok(BatchFederatedObjective::new(&ctx, *cell.noise, planned, cell.objective_seed)?.eval)
    })
}

/// Replays the method comparison against `store` alone — no dataset
/// generation, no training. The schedulers re-derive the recorded
/// campaigns from the same positional seeds, every request hits the ledger
/// exactly, and the produced [`MethodComparison`] (logs, selection, budget
/// grid) is bit-identical to the live run that recorded the table. A replay
/// that hits on every request appends nothing to `store` and syncs nothing.
///
/// The replay assumes the recording used the paper's default search space
/// (which every benchmark context builds); campaigns recorded under a custom
/// space need a [`RecordingObjective`] over [`LedgerOnly`] driven directly.
///
/// # Errors
///
/// Propagates scheduler failures, table misses (e.g. replaying a campaign
/// that was never recorded, or at a different seed) and ledger conflicts (a
/// recorded point stamped with another provenance, e.g. under another noise
/// label).
pub fn replay_method_comparison(
    store: &mut TrialStore,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
) -> fedtune_core::Result<MethodComparison> {
    let grid = (benchmark, scale, methods, noise_settings, seed);
    // Lookups are too cheap to be worth a thread hand-off each.
    let config = Drive::new(Clock::Barrier);
    recorded_comparison(grid, &SearchSpace::paper_default(), &config, store, |_| {
        Ok(LedgerOnly)
    })
}

/// The comparison's arguments that pick its campaign grid and seeds.
type Grid<'a> = (
    Benchmark,
    &'a ExperimentScale,
    &'a [TuningMethod],
    &'a [(String, NoiseConfig)],
    u64,
);

/// Drives every campaign of `grid` through a [`RecordingObjective`] over the
/// evaluation `inner` builds for its cell.
fn recorded_comparison<E>(
    (benchmark, scale, methods, noise_settings, seed): Grid<'_>,
    space: &SearchSpace,
    config: &Drive<'_>,
    store: &mut TrialStore,
    mut inner: impl FnMut(&Campaign<'_>) -> fedtune_core::Result<E>,
) -> fedtune_core::Result<MethodComparison>
where
    E: ConcurrentEval,
    E::State: Default,
{
    comparison(
        benchmark,
        scale,
        methods,
        noise_settings,
        seed,
        |cell, scheduler, rng| {
            let mut recording = RecordingObjective::new(
                inner(cell)?,
                space,
                campaign_provenance(benchmark, scale, seed, cell.noise_label),
                &mut *store,
            );
            drive(scheduler, space, &mut recording, rng, config)?;
            // Every record carries its truth: reading the log pays nothing.
            recording.sink.campaign.resolve(&recording.eval, 1)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtune_core::experiments::methods::paper_noise_settings;

    #[test]
    fn record_then_replay_round_trips_one_method() {
        let scale = ExperimentScale::smoke();
        let methods = [TuningMethod::RandomSearch];
        let settings = paper_noise_settings();
        let mut store = TrialStore::in_memory();
        let recorded = record_method_comparison(
            &TrialRunner::sequential(),
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &settings,
            3,
            &mut store,
        )
        .unwrap();
        assert_eq!(recorded.runs.len(), 2 * scale.method_trials);
        assert!(!store.is_empty());
        let len = store.len();
        let replay = |store: &mut TrialStore, settings: &[(String, NoiseConfig)], seed| {
            replay_method_comparison(
                store,
                Benchmark::Cifar10Like,
                &scale,
                &methods,
                settings,
                seed,
            )
        };
        assert_eq!(recorded, replay(&mut store, &settings, 3).unwrap());
        // Replaying at a seed that was never recorded misses the table.
        let err = replay(&mut store, &settings, 4).unwrap_err();
        assert!(err.to_string().contains("table miss"), "{err}");
        // The recorded points under relabelled noise settings are not hits:
        // the first one's re-staging conflicts with its recorded provenance.
        let relabelled: Vec<_> = settings
            .iter()
            .map(|(label, noise)| (format!("{label}-relabelled"), *noise))
            .collect();
        let err = replay(&mut store, &relabelled, 3).unwrap_err();
        assert!(err.to_string().contains("ledger conflict"), "{err}");
        assert!(err.to_string().contains("a different provenance"), "{err}");
        assert!(!err.to_string().contains("scores"), "{err}");
        assert_eq!(store.len(), len);
    }

    #[test]
    fn provenance_labels_campaign_cells() {
        let p = campaign_provenance(
            Benchmark::Cifar10Like,
            &ExperimentScale::smoke(),
            9,
            "noisy",
        );
        assert_eq!(&*p.benchmark, "cifar10-like");
        assert_eq!(&*p.scale, "smoke");
        assert_eq!(p.seed, 9);
        assert_eq!(&*p.noise, "noisy");
    }
}
