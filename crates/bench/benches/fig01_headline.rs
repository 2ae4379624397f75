//! Regenerates Fig. 1: headline comparison of tuning methods under noise vs. proxy RS.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::methods::run_headline;
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let headline = run_headline(runner, &scale, 0).expect("headline experiment");
    fedbench::print_report(&headline.to_report());
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig01_headline");
    group.sample_size(10);
    group.bench_function("headline_cifar10_like", |b| {
        b.iter(|| run_headline(&runner, &scale, 0).expect("headline experiment"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
