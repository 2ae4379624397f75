//! Train the pool once: the whole pooled figure set (3, 4, 5, 6, 7, 9,
//! 10 / 14, 11, 12 and the Fig. 1 proxy bar) costs exactly one trained pool
//! per benchmark, the paper's §3 protocol.
//!
//! This file holds a single test on purpose: it reads a delta of the
//! process-global `sim.training_rounds` counter, which tests sharing a
//! binary (and therefore a process) would perturb.

use feddata::Benchmark;
use fedtune_core::experiments::heterogeneity::{
    run_data_heterogeneity, run_min_client_scatter, run_systems_heterogeneity,
};
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_headline, run_method_comparison, TuningMethod,
};
use fedtune_core::experiments::privacy::run_privacy_sweep;
use fedtune_core::experiments::proxy::{run_proxy_matrix, run_proxy_vs_noisy, run_transfer_pairs};
use fedtune_core::experiments::subsampling::{run_budget_curves, run_subsampling_sweep};
use fedtune_core::{ExperimentScale, TrainedBenchmark, TrialRunner};

#[test]
fn every_pooled_figure_costs_one_pool_per_benchmark() {
    let (scale, seed) = (ExperimentScale::smoke(), 11);
    let runner = TrialRunner::from_env();
    // The headline's method bars are live training its caller has already
    // paid for (Fig. 8); only what follows is counted.
    let comparison = run_method_comparison(
        &runner,
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::ALL,
        &paper_noise_settings(),
        seed,
    )
    .unwrap();

    let rounds = fedtrace::global().registry().counter("sim.training_rounds");
    let before = rounds.value();

    let trained = TrainedBenchmark::train_all(&runner, &scale, seed).unwrap();
    for t in &trained {
        run_subsampling_sweep(&runner, t).unwrap();
        run_data_heterogeneity(&runner, t).unwrap();
        run_budget_curves(&runner, t).unwrap();
        run_systems_heterogeneity(&runner, t).unwrap();
        run_min_client_scatter(t);
        run_privacy_sweep(&runner, t).unwrap();
    }
    assert_eq!(
        run_transfer_pairs(&trained).unwrap()[0].points.len(),
        scale.pool_size
    );
    let matrix = run_proxy_matrix(&runner, &trained).unwrap();
    let mut draws: Vec<usize> = matrix.cells.iter().map(|c| c.client_error.count).collect();
    for client in &trained {
        let fig12 = run_proxy_vs_noisy(&runner, client, &trained).unwrap();
        draws.extend(fig12.proxy_references.iter().map(|(_, r)| r.count));
    }
    let headline = run_headline(&runner, &comparison, &trained).unwrap();
    draws.push(headline.proxy_rs.count);

    assert_eq!(
        rounds.value() - before,
        (Benchmark::ALL.len() * scale.pool_size * scale.rounds_per_config) as u64,
        "pooled figures must train nothing beyond one pool per benchmark"
    );
    // Every proxy number is a bootstrap summary, not a single draw.
    assert_eq!(draws.len(), 16 + 16 + 1);
    assert!(draws.iter().all(|&count| count == scale.bootstrap_trials));
}
