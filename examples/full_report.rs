//! Regenerates every table and figure of the paper in one run and prints the
//! corresponding rows: one trained pool per benchmark, then every RS figure
//! as an analysis over that set, then the live-training figures.
//!
//! ```text
//! FEDTUNE_SCALE=default cargo run --release --example full_report
//! ```
//!
//! `FEDTUNE_SCALE` may be `smoke` (seconds), `default` (under a minute), or
//! `paper` (the paper's raw budgets; hours).

use feddata::Benchmark;
use fedtune::fedtune_core::experiments::heterogeneity::{
    data_heterogeneity_report, min_client_report, run_data_heterogeneity, run_min_client_scatter,
    run_systems_heterogeneity, systems_heterogeneity_report,
};
use fedtune::fedtune_core::experiments::methods::{
    paper_noise_settings, run_headline, run_method_comparison, TuningMethod,
};
use fedtune::fedtune_core::experiments::privacy::{privacy_report, run_privacy_sweep};
use fedtune::fedtune_core::experiments::proxy::{
    run_proxy_matrix, run_proxy_vs_noisy, run_transfer_pairs, transfer_report,
};
use fedtune::fedtune_core::experiments::space_ablation::run_space_ablation;
use fedtune::fedtune_core::experiments::subsampling::{
    budget_report, run_budget_curves, run_subsampling_sweep, subsampling_report,
};
use fedtune::fedtune_core::experiments::table1::DatasetTable;
use fedtune::fedtune_core::{ExperimentScale, TrainedBenchmark, TrialRunner};

fn scale_from_env() -> ExperimentScale {
    match std::env::var("FEDTUNE_SCALE").as_deref() {
        Ok("paper") => ExperimentScale::paper(),
        Ok("smoke") => ExperimentScale::smoke(),
        _ => ExperimentScale::default_scale(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_env();
    // FEDTUNE_THREADS overrides the trial fan-out (1 = sequential, N = N
    // threads, 0/unset = all cores); results are bit-identical either way.
    let runner = TrialRunner::from_env();
    let seed = 2026;
    println!("fedtune full report — scale: {scale:?}\n");

    println!("---- Table 1/2 ----");
    let table = DatasetTable::generate(&scale, seed)?;
    println!("{}", table.to_text());

    eprintln!(
        "[pools] training {} configurations per benchmark",
        scale.pool_size
    );
    let trained = TrainedBenchmark::train_all(&runner, &scale, seed)?;

    println!("---- Fig. 3: client subsampling ----");
    let sweeps = trained
        .iter()
        .map(|t| run_subsampling_sweep(&runner, t))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", subsampling_report(&sweeps).to_table());

    println!("---- Fig. 5: budget curves ----");
    let curves = trained
        .iter()
        .map(|t| run_budget_curves(&runner, t))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", budget_report(&curves).to_table());

    println!("---- Fig. 4: data heterogeneity ----");
    let het = trained
        .iter()
        .map(|t| run_data_heterogeneity(&runner, t))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", data_heterogeneity_report(&het).to_table());

    println!("---- Fig. 6: systems heterogeneity ----");
    let sys = trained
        .iter()
        .map(|t| run_systems_heterogeneity(&runner, t))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", systems_heterogeneity_report(&sys).to_table());

    println!("---- Fig. 7: min client error scatter ----");
    let scatters: Vec<_> = trained.iter().map(run_min_client_scatter).collect();
    // The scatter has one row per configuration; print only the notes to keep
    // the report readable.
    for note in &min_client_report(&scatters).notes {
        println!("note: {note}");
    }
    println!();

    println!("---- Fig. 9: privacy ----");
    let priv_sweeps = trained
        .iter()
        .map(|t| run_privacy_sweep(&runner, t))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", privacy_report(&priv_sweeps).to_table());

    println!("---- Fig. 8 / 15 / 16: method comparison (cifar10-like) ----");
    eprintln!("[fig8] cifar10-like");
    let comparison = run_method_comparison(
        &runner,
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::ALL,
        &paper_noise_settings(),
        seed,
    )?;
    println!("{}", comparison.to_online_report()?.to_table());
    let third = (scale.total_budget / 3).max(1);
    println!("{}", comparison.to_bars_report("fig15", third)?.to_table());
    println!(
        "{}",
        comparison
            .to_bars_report("fig16", scale.total_budget)?
            .to_table()
    );

    println!("---- Fig. 1: headline ----");
    let headline = run_headline(&runner, &comparison, &trained)?;
    println!("{}", headline.to_report().to_table());

    println!("---- Fig. 10/14: HP transfer ----");
    for note in &transfer_report(&run_transfer_pairs(&trained)?).notes {
        println!("note: {note}");
    }
    println!();

    println!("---- Fig. 11: proxy matrix ----");
    let matrix = run_proxy_matrix(&runner, &trained)?;
    println!("{}", matrix.to_report().to_table());

    println!("---- Fig. 12: proxy vs noisy evaluation ----");
    for client in &trained {
        let result = run_proxy_vs_noisy(&runner, client, &trained)?;
        println!("{}", result.to_report().to_table());
    }

    println!("---- Fig. 13: search-space ablation (cifar10-like) ----");
    eprintln!("[fig13]");
    let ablation = run_space_ablation(&runner, Benchmark::Cifar10Like, &scale, seed)?;
    println!("{}", ablation.to_report().to_table());

    println!("full report complete");
    Ok(())
}
