//! Regenerates Fig. 13: search-space size under noisy evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::space_ablation::run_space_ablation;
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    for &b in &[Benchmark::Cifar10Like, Benchmark::FemnistLike] {
        let ablation = run_space_ablation(runner, b, &scale, 0).expect("space ablation");
        fedbench::print_report(&ablation.to_report());
    }
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig13_space_ablation");
    group.sample_size(10);
    group.bench_function("cifar10_like", |b| {
        b.iter(|| {
            run_space_ablation(&runner, Benchmark::Cifar10Like, &scale, 0).expect("space ablation")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
