//! Regenerates Fig. 11: one-shot proxy RS for every (proxy, client) dataset pair.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::proxy::run_proxy_matrix;
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    let trained =
        TrainedBenchmark::train_all(&runner, &fedbench::report_scale(), 0).expect("pool training");
    let matrix = run_proxy_matrix(&runner, &trained).expect("proxy matrix");
    fedbench::print_report(&matrix.to_report());

    let trained = TrainedBenchmark::train_all(&runner, &fedbench::measurement_scale(), 0)
        .expect("pool training");
    let mut group = c.benchmark_group("fig11_proxy_matrix");
    group.sample_size(10);
    group.bench_function("full_matrix", |b| {
        b.iter(|| run_proxy_matrix(&runner, &trained).expect("proxy matrix"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
