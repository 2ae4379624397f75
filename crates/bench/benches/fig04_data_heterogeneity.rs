//! Regenerates Fig. 4: data heterogeneity (iid fraction p) under subsampling.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::heterogeneity::{data_heterogeneity_report, run_data_heterogeneity};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        sweeps
            .push(run_data_heterogeneity(runner, b, &scale, 0).expect("data heterogeneity sweep"));
    }
    fedbench::print_report(&data_heterogeneity_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig04_data_heterogeneity");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| {
            run_data_heterogeneity(&runner, Benchmark::Cifar10Like, &scale, 0)
                .expect("data heterogeneity sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
