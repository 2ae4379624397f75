//! Cross-crate integration tests: full pipelines from dataset generation
//! through federated training, noisy evaluation, and hyperparameter tuning.

use feddata::{Benchmark, Split};
use fedhpo::{Hyperband, RandomSearch, Scheduler, Tpe};
use fedtune::fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune::fedtune_core::experiments::subsampling::run_subsampling_sweep;
use fedtune::fedtune_core::experiments::table1::DatasetTable;
use fedtune::fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, ConfigPool, Drive, ExperimentReport,
    ExperimentScale, NoiseConfig, TrainedBenchmark, TrialRunner,
};

fn smoke() -> ExperimentScale {
    ExperimentScale::smoke()
}

#[test]
fn dataset_table_covers_every_benchmark() {
    let table = DatasetTable::generate(&smoke(), 0).unwrap();
    assert_eq!(table.rows.len(), 4);
    for row in &table.rows {
        assert!(row.examples.total > 0);
        assert!(row.examples.min <= row.examples.max);
    }
}

#[test]
fn full_tuning_pipeline_with_each_tuner() {
    let scale = smoke();
    let ctx = BenchmarkContext::new(Benchmark::FemnistLike, &scale, 1).unwrap();

    let config = Drive {
        threads: TrialRunner::from_env().policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };
    let tuners: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("rs", Box::new(RandomSearch::new(3, 4).unwrap())),
        ("tpe", Box::new(Tpe::new(3, 4).unwrap())),
        ("hb", Box::new(Hyperband::new(4, 3, Some(2)).unwrap())),
    ];
    for (name, mut tuner) in tuners {
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::subsampled(0.3), 8, 2).unwrap();
        let mut rng = fedmath::rng::rng_for(3, 0);
        let outcome = drive(
            tuner.as_mut(),
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .unwrap()
        .outcome;
        assert!(
            outcome.num_evaluations() > 0,
            "{name} produced no evaluations"
        );
        let log = objective.log(config.threads).unwrap();
        assert!(!log.is_empty());
        // Every logged evaluation must carry a valid true error.
        for entry in log {
            assert!((0.0..=1.0).contains(&entry.true_error));
        }
        // The tuner's own budget accounting must match the objective's.
        assert_eq!(outcome.total_resource(), objective.sink.cumulative_rounds());
    }
}

#[test]
fn pool_based_and_live_objectives_agree_on_the_noiseless_truth() {
    // The pooled analysis and a live objective both report full-validation
    // error; for the same configuration and seed they must agree exactly.
    let scale = smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 4).unwrap();
    let pool = ConfigPool::train(&TrialRunner::from_env(), &ctx, 2, 99).unwrap();
    for entry in pool.entries() {
        let recheck = fedsim::evaluation::evaluate_full(
            &entry.model,
            ctx.dataset(),
            Split::Validation,
            fedsim::WeightingScheme::ByExamples,
        )
        .unwrap()
        .weighted_error()
        .unwrap();
        assert!((recheck - entry.full_error).abs() < 1e-12);
    }
}

#[test]
fn subsampling_sweep_runs_for_text_benchmark() {
    let runner = TrialRunner::from_env();
    let trained = TrainedBenchmark::train(&runner, Benchmark::RedditLike, &smoke(), 5).unwrap();
    let mut report = ExperimentReport::default();
    run_subsampling_sweep(&runner, &trained, &mut report).unwrap();
    let sweep = &report.groups[0];
    assert!(!sweep.points.is_empty());
    // Error percentages stay in range.
    for p in &sweep.points {
        assert!(p.summary.median >= 0.0 && p.summary.median <= 100.0);
    }
}

#[test]
fn method_comparison_produces_bars_for_all_methods() {
    let scale = smoke();
    let comparison = run_method_comparison(
        &TrialRunner::from_env(),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::ALL,
        &paper_noise_settings(),
        6,
    )
    .unwrap();
    let bars = comparison.bars_at(scale.total_budget).unwrap();
    let names: Vec<&str> = bars.iter().map(|b| b.name.as_str()).collect();
    for method in ["RS", "TPE", "HB", "BOHB"] {
        assert!(
            names.iter().any(|n| n.starts_with(method)),
            "missing bars for {method}: {names:?}"
        );
    }
}
