//! Record/replay counterparts of the scheduled method comparison.
//!
//! [`record_method_comparison`] is a drop-in replacement for
//! `fedtune_core::experiments::methods::run_method_comparison_scheduled` that
//! additionally persists every evaluation into a [`TrialStore`]; it derives
//! campaign seeds from the unit's grid position exactly like the live driver,
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
use fedmath::SeedTree;
use fedtune_core::experiments::methods::{MethodComparison, MethodRun, TuningMethod};
use fedtune_core::{
    run_scheduled, BatchFederatedObjective, BenchmarkContext, ExecutionPolicy, ExperimentScale,
    NoiseConfig, TrialRunner,
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

/// The campaign grid of the scheduled method comparison, in the live
/// driver's enumeration order: method-major, then noise setting, then trial.
fn campaign_units<'a>(
    methods: &'a [TuningMethod],
    noise_settings: &'a [(String, NoiseConfig)],
    scale: &ExperimentScale,
) -> Vec<(TuningMethod, &'a str, &'a NoiseConfig, usize)> {
    methods
        .iter()
        .flat_map(|&method| {
            noise_settings.iter().flat_map(move |(label, noise)| {
                (0..scale.method_trials).map(move |trial| (method, label.as_str(), noise, trial))
            })
        })
        .collect()
}

/// The budget grid the live comparison reports online curves over.
fn budget_grid(scale: &ExperimentScale) -> Vec<usize> {
    let grid_steps = scale.num_configs.max(4);
    (1..=grid_steps)
        .map(|i| i * scale.total_budget / grid_steps)
        .collect()
}

/// Runs the scheduled method comparison live while recording every
/// evaluation into `store`. Bit-identical to
/// `run_method_comparison_scheduled` with the same arguments (asserted in
/// `tests/record_replay.rs`); campaigns whose evaluations are already in the
/// store are served from it instead of retrained, which is how an
/// interrupted recording resumes.
///
/// # Errors
///
/// Propagates training, evaluation, and ledger failures.
pub fn record_method_comparison(
    batch_policy: ExecutionPolicy,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
    store: &mut TrialStore,
) -> fedtune_core::Result<MethodComparison> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let units = campaign_units(methods, noise_settings, scale);
    // Unit seeds replicate the live driver: the engine roots its fan-out at
    // `derive_seed(seed, 7)` and gives trial `i` the subtree at child `i`.
    let tree = SeedTree::new(fedmath::rng::derive_seed(seed, 7));
    let mut runs = Vec::with_capacity(units.len());
    for (index, (method, noise_label, noise, trial)) in units.into_iter().enumerate() {
        let unit = tree.child(index as u64);
        let mut scheduler = method.scheduler(scale)?;
        let planned = method.planned_evaluations(scale);
        let mut objective =
            BatchFederatedObjective::new(&ctx, *noise, planned, unit.child(0).seed())?
                .with_batch_runner(TrialRunner::new(batch_policy));
        let mut recording = RecordingObjective::new(
            &mut objective,
            ctx.space(),
            campaign_provenance(benchmark, scale, seed, noise_label),
            store,
        );
        let mut rng = unit.child(1).rng();
        run_scheduled(scheduler.as_mut(), ctx.space(), &mut recording, &mut rng)?;
        runs.push(MethodRun {
            method: method.name().to_string(),
            noise_label: noise_label.to_string(),
            trial,
            log: recording.into_log(),
        });
    }
    Ok(MethodComparison {
        benchmark: benchmark.name().to_string(),
        runs,
        budget_grid: budget_grid(scale),
    })
}

/// Replays the scheduled method comparison against `store` alone — no
/// dataset generation, no training. The schedulers re-derive the recorded
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
    let units = campaign_units(methods, noise_settings, scale);
    let tree = SeedTree::new(fedmath::rng::derive_seed(seed, 7));
    let mut runs = Vec::with_capacity(units.len());
    for (index, (method, noise_label, _noise, trial)) in units.into_iter().enumerate() {
        let unit = tree.child(index as u64);
        let mut scheduler = method.scheduler(scale)?;
        let mut tabular = TabularObjective::new(store, &space);
        let mut rng = unit.child(1).rng();
        run_scheduled(scheduler.as_mut(), &space, &mut tabular, &mut rng)?;
        runs.push(MethodRun {
            method: method.name().to_string(),
            noise_label: noise_label.to_string(),
            trial,
            log: tabular.into_log(),
        });
    }
    Ok(MethodComparison {
        benchmark: benchmark.name().to_string(),
        runs,
        budget_grid: budget_grid(scale),
    })
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
            ExecutionPolicy::Sequential,
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
