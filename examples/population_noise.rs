//! The population-scale subsampling-noise experiment: evaluation-noise
//! variance and Spearman rank fidelity as functions of the evaluation
//! cohort size `K`, over lazily-materialized populations.
//!
//! ```text
//! cargo run --release --example population_noise
//! ```
//!
//! Defaults to the CI smoke scale (`N = 100 000`); set
//! `FEDPOP_SCALE=paper` for the full `N ∈ {1e3, 1e5, 1e6}` story or
//! `FEDPOP_SCALE=smoke` for the tiny unit-test scale. The run **asserts**
//! that noise variance decreases and rank correlation increases
//! monotonically with the cohort size — the paper's §3.1 claim — and exits
//! non-zero otherwise. With `FEDTUNE_BENCH_JSON=1` it writes
//! `BENCH_population_noise.json` including cache accounting.

use fedtune::feddata::Benchmark;
use fedtune::fedtune_core::experiments::population::{
    run_population_noise_with, PopulationExperimentScale,
};
use fedtune::fedtune_core::TrialRunner;

fn scale_from_env() -> PopulationExperimentScale {
    match std::env::var("FEDPOP_SCALE").as_deref() {
        Ok("paper") => PopulationExperimentScale::paper_story(),
        Ok("smoke") => PopulationExperimentScale::smoke(),
        _ => PopulationExperimentScale::ci_smoke(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_env();
    // FEDTUNE_THREADS overrides the trial fan-out; results are identical.
    let runner = TrialRunner::from_env();
    let mut summary = fedbench::BenchSummary::new("population_noise");
    println!(
        "population noise sweep: N in {:?}, K in {:?}, {} configs x {} repeats",
        scale.populations, scale.cohort_sizes, scale.num_configs, scale.repeats
    );
    let cells: u64 =
        (scale.populations.len() * scale.cohort_sizes.len() * scale.num_configs * scale.repeats)
            as u64;
    let result = summary.time("population_noise_sweep", cells, || {
        run_population_noise_with(&runner, Benchmark::Cifar10Like, &scale, 0)
    })?;
    println!("{}", result.to_report().to_table());

    let mut peak_resident = 0u64;
    let mut hit_rate = 0.0f64;
    for sweep in &result.sweeps {
        peak_resident = peak_resident.max(sweep.cache_peak_resident as u64);
        hit_rate = hit_rate.max(sweep.cache_hit_rate);
    }
    summary.headline("peak_resident_clients", peak_resident as f64);
    summary.headline("cache_hit_rate", hit_rate);
    summary.write_if_enabled();

    // The CI gate: more evaluation clients => strictly less noise and
    // strictly better rank fidelity, within every population size.
    assert!(
        result.is_monotone(1e-9),
        "noise curves are not monotone in the cohort size: {result:#?}"
    );
    for sweep in &result.sweeps {
        let first = sweep.points.first().expect("non-empty grid");
        let last = sweep.points.last().expect("non-empty grid");
        assert!(
            last.noise_variance < first.noise_variance,
            "N={}: variance did not shrink ({} -> {})",
            sweep.population,
            first.noise_variance,
            last.noise_variance
        );
        assert!(
            last.spearman > first.spearman,
            "N={}: rank correlation did not improve ({} -> {})",
            sweep.population,
            first.spearman,
            last.spearman
        );
        println!(
            "N={}: variance {:.3e} -> {:.3e}, spearman {:.3} -> {:.3}  OK",
            sweep.population,
            first.noise_variance,
            last.noise_variance,
            first.spearman,
            last.spearman
        );
    }
    println!("monotone noise/rank curves verified");
    Ok(())
}
