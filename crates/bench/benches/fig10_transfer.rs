//! Regenerates Fig. 10/14: hyperparameter transfer between dataset pairs.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::experiments::proxy::{run_transfer_pairs, transfer_report};
use fedtune_core::{TrainedBenchmark, TrialRunner};

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    let trained =
        TrainedBenchmark::train_all(&runner, &fedbench::report_scale(), 0).expect("pool training");
    let analyses = run_transfer_pairs(&trained).expect("transfer analysis");
    fedbench::print_report(&transfer_report(&analyses));

    // The scatters only zip trained pools, so what they cost is the pool set.
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig10_transfer");
    group.sample_size(10);
    group.bench_function("all_pairs", |b| {
        b.iter(|| {
            let trained = TrainedBenchmark::train_all(&runner, &scale, 0).expect("pool training");
            run_transfer_pairs(&trained).expect("transfer analysis")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
