//! Regenerates Fig. 4: data heterogeneity (iid fraction p) under subsampling.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::heterogeneity::{data_heterogeneity_report, run_data_heterogeneity};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn regenerate(runner: &TrialRunner) {
    let trained =
        TrainedBenchmark::train_all(runner, &fedbench::report_scale(), 0).expect("pool training");
    let sweeps: Vec<_> = trained
        .iter()
        .map(|t| run_data_heterogeneity(runner, t).expect("data heterogeneity sweep"))
        .collect();
    fedbench::print_report(&data_heterogeneity_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    // The pool is trained once, outside the loop: the figure is the analysis.
    let scale = fedbench::measurement_scale();
    let trained = TrainedBenchmark::train(&runner, feddata::Benchmark::Cifar10Like, &scale, 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig04_data_heterogeneity");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| run_data_heterogeneity(&runner, &trained).expect("data heterogeneity sweep"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
