//! Reproduces the shape of Fig. 3 and Fig. 9 on one benchmark: how client
//! subsampling and differential privacy degrade random search.
//!
//! ```text
//! cargo run --release --example noisy_evaluation_sweep
//! ```
//!
//! With `FEDTUNE_BENCH_JSON=1` the run writes
//! `BENCH_noisy_evaluation_sweep.json` so the perf trajectory of the two
//! sweeps is tracked alongside the bench harness.

use feddata::Benchmark;
use fedtune::fedtune_core::experiments::privacy::{privacy_report, run_privacy_sweep};
use fedtune::fedtune_core::experiments::subsampling::{run_subsampling_sweep, subsampling_report};
use fedtune::fedtune_core::{ExperimentScale, TrainedBenchmark, TrialRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The smoke scale finishes in seconds; `ExperimentScale::default_scale()`
    // gives the numbers `examples/full_report` prints.
    let scale = ExperimentScale::smoke();
    let mut summary = fedbench::BenchSummary::new("noisy_evaluation_sweep");

    // FEDTUNE_THREADS overrides the trial fan-out; results are identical.
    let runner = TrialRunner::from_env();
    // Both figures are analyses over the one pool trained here.
    let trained = summary.time("pool_training", scale.pool_size as u64, || {
        TrainedBenchmark::train(&runner, Benchmark::Cifar10Like, &scale, 0)
    })?;

    println!("== Client subsampling (Fig. 3 shape) ==");
    let sweep = summary.time("subsampling_sweep", scale.bootstrap_trials as u64, || {
        run_subsampling_sweep(&runner, &trained)
    })?;
    println!("{}", subsampling_report(&[sweep]).to_table());

    println!("== Differential privacy (Fig. 9 shape) ==");
    let privacy = summary.time("privacy_sweep", scale.bootstrap_trials as u64, || {
        run_privacy_sweep(&runner, &trained)
    })?;
    println!("{}", privacy_report(&[privacy]).to_table());

    println!("Reading the tables: medians rise as the subsample shrinks and as epsilon decreases.");
    summary.write_if_enabled();
    Ok(())
}
