//! Time-to-accuracy under the event-driven virtual-time executor: the same
//! ASHA ladder run rung-synchronously (SHA) vs asynchronously
//! (promote-on-completion) under heavy-tailed client runtimes, at 10/50/100
//! virtual workers. Asserts that async ASHA's **simulated throughput**
//! (trials per simulated hour) never falls below sync SHA's at any worker
//! count — the CI smoke gate for the straggler scenario.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedtune_core::experiments::stragglers::{run_straggler_comparison, StragglerRun};
use fedtune_core::TrialRunner;

const WORKER_GRID: [usize; 3] = [10, 50, 100];

/// The scale for one worker count: the ASHA ladder is widened to about twice
/// the virtual worker pool, so workers are always scarce and the comparison
/// measures scheduling, not idle hardware. (With more workers than ladder
/// slots both drivers trivially run everything in parallel and the barrier
/// costs nothing.)
fn scale_for(workers: usize) -> fedtune_core::ExperimentScale {
    let mut scale = fedbench::report_scale().unwrap_or_else(|e| panic!("{e}"));
    let ladder_width = scale.num_configs * scale.eta;
    if ladder_width < 2 * workers {
        scale.num_configs = (2 * workers).div_ceil(scale.eta.max(1));
    }
    scale
}

fn regenerate() {
    // FEDTUNE_THREADS governs the real-compute fan-out; virtual timelines
    // are independent of it by construction.
    let runner = TrialRunner::from_env();
    let mut summary = fedbench::BenchSummary::new("time_to_accuracy");
    let mut total_evaluations = 0u64;
    let mut total_sim = 0.0f64;
    let mut last_report = None;
    for &workers in &WORKER_GRID {
        let scale = scale_for(workers);
        let comparison = summary.time(&format!("straggler_{workers}_workers"), 2, || {
            run_straggler_comparison(&runner, Benchmark::Cifar10Like, &scale, &[workers], 0)
                .expect("straggler comparison")
        });
        for run in &comparison.runs {
            summary.push(
                &format!("{}_{}workers_sim", run.method, run.workers),
                run.sim_elapsed,
                run.evaluations as u64,
            );
            total_evaluations += run.evaluations as u64;
            total_sim += run.sim_elapsed;
        }
        let throughput = |method: &str| {
            comparison
                .runs
                .iter()
                .find(|r| r.method == method && r.workers == workers)
                .map(StragglerRun::trials_per_sim_hour)
                .expect("run present")
        };
        let sync = throughput("ASHA");
        let asynchronous = throughput("ASHA-ASYNC");
        assert!(
            asynchronous >= sync,
            "{workers} workers: async ASHA simulated throughput \
             ({asynchronous:.1}/sim-h) fell below sync SHA ({sync:.1}/sim-h)"
        );
        println!(
            "{workers:>3} workers (ladder {:>3}): sync SHA {sync:>8.1} trials/sim-h, \
             async ASHA {asynchronous:>8.1} trials/sim-h ({:.2}x)",
            scale.num_configs * scale.eta,
            asynchronous / sync.max(f64::MIN_POSITIVE)
        );
        last_report = Some(comparison.to_report().expect("straggler report"));
    }
    summary.headline("sim_elapsed", total_sim);
    summary.headline(
        "trials_per_sim_hour",
        total_evaluations as f64 / (total_sim / 3600.0),
    );
    summary.write_if_enabled();
    if let Some(report) = last_report {
        fedbench::print_report(&report);
    }
}

fn bench(c: &mut Criterion) {
    regenerate();
    let scale = fedbench::measurement_scale();
    let mut group = c.benchmark_group("time_to_accuracy");
    group.sample_size(10);
    group.bench_function("straggler_comparison_10_workers", |b| {
        b.iter(|| {
            run_straggler_comparison(
                &TrialRunner::from_env(),
                Benchmark::Cifar10Like,
                &scale,
                &[10],
                0,
            )
            .expect("straggler comparison")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
