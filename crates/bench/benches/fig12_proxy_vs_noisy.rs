//! Regenerates Fig. 12: noisy-evaluation RS vs. one-shot proxy tuning over the budget.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::proxy::run_proxy_vs_noisy;
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    let trained =
        TrainedBenchmark::train_all(&runner, &fedbench::report_scale(), 0).expect("pool training");
    for client in &trained {
        let result = run_proxy_vs_noisy(&runner, client, &trained).expect("proxy vs noisy");
        fedbench::print_report(&result.to_report());
    }

    let trained = TrainedBenchmark::train_all(&runner, &fedbench::measurement_scale(), 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig12_proxy_vs_noisy");
    group.sample_size(10);
    group.bench_function("cifar10_like", |b| {
        b.iter(|| run_proxy_vs_noisy(&runner, &trained[0], &trained).expect("proxy vs noisy"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
