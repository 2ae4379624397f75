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
//! table alone: no datasets are generated and no model is trained, so method
//! sweeps (fig08/fig15-16 style) cost tuner time instead of simulation time
//! while reproducing the live selection bit-for-bit.

use crate::record::Provenance;
use crate::recorder::RecordingObjective;
use crate::store::TrialStore;
use crate::tabular::TabularObjective;
use feddata::Benchmark;
use fedhpo::SearchSpace;
use fedtune_core::experiments::methods::{comparison, MethodComparison, TuningMethod};
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    TrialRunner,
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
    comparison(
        benchmark,
        scale,
        methods,
        noise_settings,
        seed,
        |cell, scheduler, rng| {
            let planned = cell.method.planned_evaluations(scale);
            let objective =
                BatchFederatedObjective::new(&ctx, *cell.noise, planned, cell.objective_seed)?;
            // Only the evaluation half is wrapped: the recording sink parks
            // the trial states and keeps the campaign's log.
            let mut recording = RecordingObjective::new(
                &objective.eval,
                ctx.space(),
                campaign_provenance(benchmark, scale, seed, cell.noise_label),
                &mut *store,
            );
            drive(scheduler, ctx.space(), &mut recording, rng, &config)?;
            Ok(recording.sink.campaign.into_log())
        },
    )
}

/// Replays the method comparison against `store` alone — no dataset
/// generation, no training. The schedulers re-derive the recorded
/// campaigns from the same positional seeds, every lookup hits the table
/// exactly, and the produced [`MethodComparison`] (logs, selection, budget
/// grid) is bit-identical to the live run that recorded the table.
///
/// The replay assumes the recording used the paper's default search space
/// (which every benchmark context builds); campaigns recorded under a custom
/// space need a matching [`TabularObjective`] driven directly.
///
/// # Errors
///
/// Propagates scheduler failures and table misses (e.g. replaying a campaign
/// that was never recorded, or at a different seed).
pub fn replay_method_comparison(
    store: &TrialStore,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
) -> fedtune_core::Result<MethodComparison> {
    let space = SearchSpace::paper_default();
    comparison(
        benchmark,
        scale,
        methods,
        noise_settings,
        seed,
        |_, scheduler, rng| {
            let mut tabular = TabularObjective::new(store, &space);
            // Lookups are too cheap to be worth a thread hand-off each.
            drive(
                scheduler,
                &space,
                &mut tabular,
                rng,
                &Drive::new(Clock::Barrier),
            )?;
            Ok(tabular.campaign.into_log())
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
        let replayed = replay_method_comparison(
            &store,
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &settings,
            3,
        )
        .unwrap();
        assert_eq!(recorded, replayed);
        // Replaying at a seed that was never recorded misses the table.
        assert!(replay_method_comparison(
            &store,
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &settings,
            4,
        )
        .is_err());
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
