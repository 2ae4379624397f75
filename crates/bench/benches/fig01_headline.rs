//! Regenerates Fig. 1: headline comparison of tuning methods under noise vs. proxy RS.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_headline, run_method_comparison, MethodComparison, TuningMethod,
};
use fedtune_core::{ExperimentScale, TrainedBenchmark, TrialRunner};

/// What the headline is drawn from: the Fig. 8 comparison on CIFAR10-like
/// and the trained pool set.
fn inputs(
    runner: &TrialRunner,
    scale: &ExperimentScale,
) -> (MethodComparison, Vec<TrainedBenchmark>) {
    let comparison = run_method_comparison(
        runner,
        Benchmark::Cifar10Like,
        scale,
        &TuningMethod::ALL,
        &paper_noise_settings(),
        0,
    )
    .expect("method comparison");
    let trained = TrainedBenchmark::train_all(runner, scale, 0).expect("pool training");
    (comparison, trained)
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    let (comparison, trained) = inputs(&runner, &fedbench::report_scale());
    let headline = run_headline(&runner, &comparison, &trained).expect("headline experiment");
    fedbench::print_report(&headline.to_report());

    let (comparison, trained) = inputs(&runner, &fedbench::measurement_scale());
    let mut group = c.benchmark_group("fig01_headline");
    group.sample_size(10);
    group.bench_function("headline_cifar10_like", |b| {
        b.iter(|| run_headline(&runner, &comparison, &trained).expect("headline experiment"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
