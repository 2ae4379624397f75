//! Regenerates Fig. 8: online performance of the tuning methods, noiseless
//! vs. noisy, including the ASHA and re-evaluation extensions.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune_core::TrialRunner;

fn regenerate(runner: &TrialRunner) {
    let scale = fedbench::report_scale();
    let mut summary = fedbench::BenchSummary::new("fig08_methods");
    let campaigns = (TuningMethod::EXTENDED.len() * 2 * scale.method_trials) as u64;
    // Batches fan out across the runner's threads. Time the sequential
    // policy too so the JSON tracks the speedup.
    let comparison = summary.time("scheduled_extended_parallel", campaigns, || {
        run_method_comparison(
            runner,
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &paper_noise_settings(),
            0,
        )
        .expect("scheduled method comparison")
    });
    summary.time("scheduled_extended_sequential", campaigns, || {
        run_method_comparison(
            &TrialRunner::sequential(),
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &paper_noise_settings(),
            0,
        )
        .expect("scheduled method comparison")
    });
    summary.write_if_enabled();
    fedbench::print_report(&comparison.to_online_report().expect("online report"));
}

fn bench(c: &mut Criterion) {
    let runner = TrialRunner::from_env();
    regenerate(&runner);
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("fig08_methods");
    group.sample_size(10);
    group.bench_function("cifar10_like_scheduled_extended", |b| {
        b.iter(|| {
            run_method_comparison(
                &runner,
                Benchmark::Cifar10Like,
                &scale,
                &TuningMethod::EXTENDED,
                &paper_noise_settings(),
                0,
            )
            .expect("scheduled method comparison")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
