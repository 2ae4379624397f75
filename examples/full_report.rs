//! Regenerates every table and figure of the paper in one run and prints the
//! corresponding rows. Used to produce the numbers recorded in
//! `EXPERIMENTS.md`.
//!
//! ```text
//! FEDTUNE_SCALE=default cargo run --release --example full_report
//! ```
//!
//! `FEDTUNE_SCALE` may be `smoke` (seconds), `default` (minutes, the numbers
//! in EXPERIMENTS.md), or `paper` (the paper's raw budgets; hours).

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
use fedtune::fedtune_core::{ExperimentScale, TrialRunner};

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

    println!("---- Fig. 3: client subsampling ----");
    let mut sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig3] {b}");
        sweeps.push(run_subsampling_sweep(&runner, b, &scale, seed)?);
    }
    println!("{}", subsampling_report(&sweeps).to_table());

    println!("---- Fig. 5: budget curves ----");
    let mut curves = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig5] {b}");
        curves.push(run_budget_curves(&runner, b, &scale, seed)?);
    }
    println!("{}", budget_report(&curves).to_table());

    println!("---- Fig. 4: data heterogeneity ----");
    let mut het = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig4] {b}");
        het.push(run_data_heterogeneity(&runner, b, &scale, seed)?);
    }
    println!("{}", data_heterogeneity_report(&het).to_table());

    println!("---- Fig. 6: systems heterogeneity ----");
    let mut sys = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig6] {b}");
        sys.push(run_systems_heterogeneity(&runner, b, &scale, seed)?);
    }
    println!("{}", systems_heterogeneity_report(&sys).to_table());

    println!("---- Fig. 7: min client error scatter ----");
    let mut scatters = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig7] {b}");
        scatters.push(run_min_client_scatter(&runner, b, &scale, seed)?);
    }
    let fig7 = min_client_report(&scatters);
    // The scatter has one row per configuration; print only the notes to keep
    // the report readable, plus the counts.
    for note in &fig7.notes {
        println!("note: {note}");
    }
    println!();

    println!("---- Fig. 9: privacy ----");
    let mut priv_sweeps = Vec::new();
    for &b in &Benchmark::ALL {
        eprintln!("[fig9] {b}");
        priv_sweeps.push(run_privacy_sweep(&runner, b, &scale, seed)?);
    }
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
    eprintln!("[fig1]");
    let headline = run_headline(&runner, &scale, seed)?;
    println!("{}", headline.to_report().to_table());

    println!("---- Fig. 10/14: HP transfer ----");
    eprintln!("[fig10]");
    let analyses = run_transfer_pairs(&scale, seed)?;
    let fig10 = transfer_report(&analyses);
    for note in &fig10.notes {
        println!("note: {note}");
    }
    println!();

    println!("---- Fig. 11: proxy matrix ----");
    eprintln!("[fig11]");
    let matrix = run_proxy_matrix(&scale, seed)?;
    println!("{}", matrix.to_report().to_table());

    println!("---- Fig. 12: proxy vs noisy evaluation ----");
    for &b in &Benchmark::ALL {
        eprintln!("[fig12] {b}");
        let result = run_proxy_vs_noisy(&runner, b, &scale, seed)?;
        println!("{}", result.to_report().to_table());
    }

    println!("---- Fig. 13: search-space ablation (cifar10-like) ----");
    eprintln!("[fig13]");
    let ablation = run_space_ablation(&runner, Benchmark::Cifar10Like, &scale, seed)?;
    println!("{}", ablation.to_report().to_table());

    println!("full report complete");
    Ok(())
}
