//! Compares RS, TPE, Hyperband, and BOHB under noiseless vs. noisy federated
//! evaluation (the shape of Fig. 8 / Fig. 15 / Fig. 16).
//!
//! ```text
//! cargo run --release --example method_comparison
//! ```
//!
//! With `FEDTUNE_BENCH_JSON=1` the run writes `BENCH_method_comparison.json`
//! so the campaign's wall-clock is tracked alongside the bench harness.

use feddata::Benchmark;
use fedtune::fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune::fedtune_core::{ExperimentScale, TrialRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Smoke scale keeps this example under a minute; use
    // `ExperimentScale::default_scale()` for the rows `examples/full_report` prints.
    let scale = ExperimentScale::smoke();
    let mut summary = fedbench::BenchSummary::new("method_comparison");
    let campaigns = (TuningMethod::ALL.len() * 2 * scale.method_trials) as u64;
    // FEDTUNE_THREADS overrides each batch's fan-out (1 = sequential, N = N
    // threads, 0/unset = all cores); results are bit-identical either way.
    let runner = TrialRunner::from_env();
    let comparison = summary.time("live_method_comparison", campaigns, || {
        run_method_comparison(
            &runner,
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::ALL,
            &paper_noise_settings(),
            5,
        )
    })?;

    println!("{}", comparison.to_online_report()?.to_table());
    let one_third = scale.total_budget / 3;
    println!(
        "{}",
        comparison
            .to_bars_report("fig15", one_third.max(1))?
            .to_table()
    );
    println!(
        "{}",
        comparison
            .to_bars_report("fig16", scale.total_budget)?
            .to_table()
    );
    println!("Under noise, the early-stopping methods (HB, BOHB) typically lose their edge");
    println!("over plain random search — the paper's Observation 6.");
    summary.write_if_enabled();
    Ok(())
}
