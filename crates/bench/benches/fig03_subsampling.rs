//! Regenerates Fig. 3: random search vs. evaluation-client subsampling on all four benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::subsampling::{run_subsampling_sweep, subsampling_report};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn regenerate(runner: &TrialRunner) {
    let trained =
        TrainedBenchmark::train_all(runner, &fedbench::report_scale(), 0).expect("pool training");
    let sweeps: Vec<_> = trained
        .iter()
        .map(|t| run_subsampling_sweep(runner, t).expect("subsampling sweep"))
        .collect();
    fedbench::print_report(&subsampling_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    // The pool is trained once, outside the loop: the figure is the analysis.
    let scale = fedbench::measurement_scale();
    let trained = TrainedBenchmark::train(&runner, feddata::Benchmark::Cifar10Like, &scale, 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig03_subsampling");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| run_subsampling_sweep(&runner, &trained).expect("subsampling sweep"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
