//! Regenerates Fig. 9: random search under differentially-private evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::privacy::{privacy_report, run_privacy_sweep};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn regenerate(runner: &TrialRunner) {
    let trained =
        TrainedBenchmark::train_all(runner, &fedbench::report_scale(), 0).expect("pool training");
    let sweeps: Vec<_> = trained
        .iter()
        .map(|t| run_privacy_sweep(runner, t).expect("privacy sweep"))
        .collect();
    fedbench::print_report(&privacy_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    // The pool is trained once, outside the loop: the figure is the analysis.
    let scale = fedbench::measurement_scale();
    let trained = TrainedBenchmark::train(&runner, feddata::Benchmark::Cifar10Like, &scale, 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig09_privacy");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| run_privacy_sweep(&runner, &trained).expect("privacy sweep"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
