//! Regenerates Fig. 7: global error vs. minimum client error per configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::heterogeneity::{min_client_report, run_min_client_scatter};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut scatters = Vec::new();
    for &b in &Benchmark::ALL {
        scatters.push(run_min_client_scatter(runner, b, &scale, 0).expect("min client scatter"));
    }
    fedbench::print_report(&min_client_report(&scatters));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig07_min_client_scatter");
    group.sample_size(10);
    group.bench_function("cifar10_like_scatter", |b| {
        b.iter(|| {
            run_min_client_scatter(&runner, Benchmark::Cifar10Like, &scale, 0)
                .expect("min client scatter")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
