//! Ablation: uniform vs. example-weighted evaluation aggregation
//! (footnote 1 of §2.2).
//!
//! The paper evaluates with the example-weighted objective by default and
//! switches to uniform weighting under differential privacy. This ablation
//! measures how much the two objectives disagree on the *ranking* of
//! configurations, which bounds how much the switch itself (rather than the
//! DP noise) can change tuning outcomes.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedsim::WeightingScheme;
use fedtune_core::{BenchmarkContext, ConfigPool, TrialRunner};

fn pool() -> (BenchmarkContext, ConfigPool) {
    let scale = fedbench::measurement_scale();
    let ctx = BenchmarkContext::new(Benchmark::RedditLike, &scale, 0).expect("context");
    let pool = ConfigPool::train(&TrialRunner::from_env(), &ctx, scale.pool_size, 1).expect("pool");
    (ctx, pool)
}

fn regenerate() {
    let (_ctx, pool) = pool();
    let weighted: Vec<f64> = pool.true_errors();
    let uniform: Vec<f64> = pool
        .entries()
        .iter()
        .map(|e| {
            let errors: Vec<f64> = e
                .evaluation
                .per_client()
                .iter()
                .map(|c| c.error_rate)
                .collect();
            fedmath::stats::mean(&errors)
        })
        .collect();
    let spearman = fedmath::stats::spearman_correlation(&weighted, &uniform).ok();
    println!("\n== ablation: evaluation weighting (reddit-like, long-tailed clients) ==");
    for (i, (w, u)) in weighted.iter().zip(uniform.iter()).enumerate() {
        println!(
            "config {i:>3}: weighted = {:>6.2}%  uniform = {:>6.2}%",
            w * 100.0,
            u * 100.0
        );
    }
    println!("rank correlation between the two objectives: {spearman:?}");
    let _ = WeightingScheme::Uniform;
}

fn bench(c: &mut Criterion) {
    regenerate();
    let (_ctx, pool) = pool();
    let mut group = c.benchmark_group("abl_weighting");
    group.sample_size(10);
    group.bench_function("uniform_reaggregation", |b| {
        b.iter(|| {
            pool.entries()
                .iter()
                .map(|e| {
                    let errors: Vec<f64> = e
                        .evaluation
                        .per_client()
                        .iter()
                        .map(|c| c.error_rate)
                        .collect();
                    fedmath::stats::mean(&errors)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
