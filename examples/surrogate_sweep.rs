//! Record once, sweep methods against the table: builds a trial ledger from
//! one live recorded campaign, then re-runs every extended tuning method
//! against the tabular surrogate and reports the live-vs-replay wall-clock
//! speedup.
//!
//! ```text
//! cargo run --release --example surrogate_sweep
//! ```

use fedtune::feddata::Benchmark;
use fedtune::fedstore::{record_method_comparison, replay_method_comparison, TrialStore};
use fedtune::fedtune_core::experiments::methods::{paper_noise_settings, TuningMethod};
use fedtune::fedtune_core::{ExperimentScale, TrialRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Smoke scale keeps the recording under a minute; the replay side is
    // effectively free at any scale.
    let scale = ExperimentScale::smoke();
    let settings = paper_noise_settings();
    let methods = TuningMethod::EXTENDED;
    let mut summary = fedbench::BenchSummary::new("surrogate_sweep");
    let campaigns = (methods.len() * settings.len() * scale.method_trials) as u64;

    let mut store = TrialStore::in_memory();
    let live = summary.time("record_live_campaigns", campaigns, || {
        record_method_comparison(
            &TrialRunner::from_env(),
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &settings,
            0,
            &mut store,
        )
    })?;
    let live_seconds = summary.entries[0].wall_seconds;
    println!(
        "recorded {} evaluations from {} live campaigns in {:.2}s",
        store.len(),
        live.runs.len(),
        live_seconds
    );

    let replayed = summary.time("replay_from_table", campaigns, || {
        replay_method_comparison(
            &store,
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &settings,
            0,
        )
    })?;
    let replay_seconds = summary.entries[1].wall_seconds;

    assert_eq!(
        live, replayed,
        "tabular replay must reproduce the live campaigns bit-for-bit"
    );
    println!("\nper-method selection (true error at full budget), live == replay:");
    let budget = scale.total_budget;
    for method in &methods {
        for (label, _) in &settings {
            let selected = replayed
                .runs
                .iter()
                .filter(|r| r.method == method.name() && &r.noise_label == label)
                .filter_map(|r| r.selected_true_error_within(budget))
                .collect::<Vec<f64>>();
            let mean = selected.iter().sum::<f64>() / selected.len().max(1) as f64;
            println!("  {:8} ({label:9}): {:.2}%", method.name(), mean * 100.0);
        }
    }
    println!(
        "\nlive {live_seconds:.2}s vs replay {replay_seconds:.3}s => {:.0}x speedup",
        live_seconds / replay_seconds.max(1e-9)
    );
    println!("A recorded table turns method sweeps from simulation-bound into tuner-bound.");
    summary.write_if_enabled();
    Ok(())
}
