//! Regenerates Fig. 15/16: method comparison bars at one-third and full
//! budget, with the ASHA and re-evaluation extensions alongside the paper's
//! four methods.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune_core::TrialRunner;

fn regenerate() {
    let scale = fedbench::report_scale();
    let mut summary = fedbench::BenchSummary::new("fig15_16_method_bars");
    let campaigns = (TuningMethod::EXTENDED.len() * 2 * scale.method_trials) as u64;
    let comparison = summary.time("scheduled_extended_parallel", campaigns, || {
        run_method_comparison(
            &TrialRunner::from_env(),
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &paper_noise_settings(),
            0,
        )
        .expect("scheduled method comparison")
    });
    summary.write_if_enabled();
    let third = (scale.total_budget / 3).max(1);
    fedbench::print_report(
        &comparison
            .to_bars_report("fig15", third)
            .expect("fig15 bars"),
    );
    fedbench::print_report(
        &comparison
            .to_bars_report("fig16", scale.total_budget)
            .expect("fig16 bars"),
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig15_16_method_bars");
    group.sample_size(10);
    group.bench_function("cifar10_like_bars", |b| {
        b.iter(|| {
            let comparison = run_method_comparison(
                &TrialRunner::from_env(),
                Benchmark::Cifar10Like,
                &scale,
                &TuningMethod::EXTENDED,
                &paper_noise_settings(),
                0,
            )
            .expect("scheduled method comparison");
            comparison
                .to_bars_report("fig16", scale.total_budget)
                .expect("fig16 bars")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
