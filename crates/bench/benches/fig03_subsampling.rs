//! Regenerates Fig. 3: random search vs. evaluation-client subsampling on all four benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::subsampling::{run_subsampling_sweep, subsampling_report};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        sweeps.push(run_subsampling_sweep(runner, b, &scale, 0).expect("subsampling sweep"));
    }
    fedbench::print_report(&subsampling_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig03_subsampling");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| {
            run_subsampling_sweep(&runner, Benchmark::Cifar10Like, &scale, 0)
                .expect("subsampling sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
