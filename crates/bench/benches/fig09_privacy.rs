//! Regenerates Fig. 9: random search under differentially-private evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::privacy::{privacy_report, run_privacy_sweep};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        sweeps.push(run_privacy_sweep(runner, b, &scale, 0).expect("privacy sweep"));
    }
    fedbench::print_report(&privacy_report(&sweeps));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig09_privacy");
    group.sample_size(10);
    group.bench_function("cifar10_like_sweep", |b| {
        b.iter(|| {
            run_privacy_sweep(&runner, Benchmark::Cifar10Like, &scale, 0).expect("privacy sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
