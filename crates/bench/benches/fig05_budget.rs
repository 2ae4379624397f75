//! Regenerates Fig. 5: RS performance vs. training budget at several subsampling rates.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::subsampling::{budget_report, run_budget_curves};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut curves = Vec::new();
    for &b in &Benchmark::ALL {
        curves.push(run_budget_curves(runner, b, &scale, 0).expect("budget curves"));
    }
    fedbench::print_report(&budget_report(&curves));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig05_budget");
    group.sample_size(10);
    group.bench_function("cifar10_like_curves", |b| {
        b.iter(|| {
            run_budget_curves(&runner, Benchmark::Cifar10Like, &scale, 0).expect("budget curves")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
