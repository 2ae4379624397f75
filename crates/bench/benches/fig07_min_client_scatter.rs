//! Regenerates Fig. 7: global error vs. minimum client error per configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::heterogeneity::{min_client_report, run_min_client_scatter};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    let trained =
        TrainedBenchmark::train_all(&runner, &fedbench::report_scale(), 0).expect("pool training");
    let scatters: Vec<_> = trained.iter().map(run_min_client_scatter).collect();
    fedbench::print_report(&min_client_report(&scatters));

    // The scatter only reads a trained pool, so what it costs is the pool.
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig07_min_client_scatter");
    group.sample_size(10);
    group.bench_function("cifar10_like_scatter", |b| {
        b.iter(|| {
            let trained =
                TrainedBenchmark::train(&runner, feddata::Benchmark::Cifar10Like, &scale, 0)
                    .expect("pool training");
            run_min_client_scatter(&trained)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
