//! Determinism guarantees: every stochastic component of the stack is keyed
//! by explicit seeds, so identical seeds must give identical results across
//! the whole pipeline.

use feddata::{Benchmark, DatasetSpec, Scale};
use fedhpo::{IntoScheduler, RandomSearch};
use fedtune::fedtune_core::{
    run_scheduled, BatchFederatedObjective, BenchmarkContext, ConfigPool, ExperimentScale,
    NoiseConfig, TrainedBenchmark, TrialRunner,
};

#[test]
fn dataset_generation_is_deterministic() {
    for &benchmark in &Benchmark::ALL {
        let spec = DatasetSpec::benchmark(benchmark, Scale::Smoke);
        assert_eq!(spec.generate(123).unwrap(), spec.generate(123).unwrap());
    }
}

#[test]
fn pool_training_is_deterministic_and_seed_sensitive() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
    let runner = TrialRunner::from_env();
    let a = ConfigPool::train(&runner, &ctx, 3, 5).unwrap();
    let b = ConfigPool::train(&runner, &ctx, 3, 5).unwrap();
    assert_eq!(a.true_errors(), b.true_errors());
    let c = ConfigPool::train(&runner, &ctx, 3, 6).unwrap();
    assert_ne!(a.true_errors(), c.true_errors());
}

#[test]
fn noisy_tuning_runs_are_deterministic() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::FemnistLike, &scale, 1).unwrap();
    let threads = TrialRunner::from_env().policy().pool_threads();
    let run = |seed: u64| {
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::paper_noisy(), 4, seed).unwrap();
        let mut rng = fedmath::rng::rng_for(seed, 0);
        run_scheduled(
            &mut RandomSearch::new(4, 3).scheduler().unwrap(),
            ctx.space(),
            &mut objective,
            &mut rng,
            threads,
        )
        .unwrap();
        objective.into_log()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn experiment_reports_are_deterministic() {
    use fedtune::fedtune_core::experiments::subsampling::run_subsampling_sweep;
    let scale = ExperimentScale::smoke();
    let runner = TrialRunner::from_env();
    // Pool training and the bootstrap over it, end to end, twice.
    let sweep = || {
        let trained = TrainedBenchmark::train(&runner, Benchmark::Cifar10Like, &scale, 2).unwrap();
        run_subsampling_sweep(&runner, &trained).unwrap()
    };
    assert_eq!(sweep(), sweep());
}
