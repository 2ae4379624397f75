//! Regenerates Fig. 5: RS performance vs. training budget at several subsampling rates.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::subsampling::{budget_report, run_budget_curves};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn regenerate(runner: &TrialRunner) {
    let trained =
        TrainedBenchmark::train_all(runner, &fedbench::report_scale(), 0).expect("pool training");
    let sweeps: Vec<_> = trained
        .iter()
        .map(|t| run_budget_curves(runner, t).expect("budget curves"))
        .collect();
    fedbench::print_report(&budget_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    // The pool is trained once, outside the loop: the figure is the analysis.
    let scale = fedbench::measurement_scale();
    let trained = TrainedBenchmark::train(&runner, feddata::Benchmark::Cifar10Like, &scale, 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig05_budget");
    group.sample_size(10);
    group.bench_function("cifar10_like_curves", |b| {
        b.iter(|| run_budget_curves(&runner, &trained).expect("budget curves"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
