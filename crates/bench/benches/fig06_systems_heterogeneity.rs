//! Regenerates Fig. 6: systems heterogeneity (accuracy-biased client sampling).

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::heterogeneity::{
    run_systems_heterogeneity, systems_heterogeneity_report,
};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        sweeps.push(
            run_systems_heterogeneity(runner, b, &scale, 0).expect("systems heterogeneity sweep"),
        );
    }
    fedbench::print_report(&systems_heterogeneity_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig06_systems_heterogeneity");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| {
            run_systems_heterogeneity(&runner, Benchmark::Cifar10Like, &scale, 0)
                .expect("systems heterogeneity sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
