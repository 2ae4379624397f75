//! Regenerates Fig. 12: noisy-evaluation RS vs. one-shot proxy tuning over the budget.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::proxy::run_proxy_vs_noisy;
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    for &b in &Benchmark::ALL {
        let result = run_proxy_vs_noisy(runner, b, &scale, 0).expect("proxy vs noisy");
        fedbench::print_report(&result.to_report());
    }
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig12_proxy_vs_noisy");
    group.sample_size(10);
    group.bench_function("cifar10_like", |b| {
        b.iter(|| {
            run_proxy_vs_noisy(&runner, Benchmark::Cifar10Like, &scale, 0).expect("proxy vs noisy")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
