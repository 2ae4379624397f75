//! Behavioural tests for the paper's qualitative observations: the *shape*
//! of the results must hold at test scale even if absolute numbers differ
//! from the paper.

use feddata::Benchmark;
use feddp::PrivacyBudget;
use fedtune::fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune::fedtune_core::experiments::{simulated_rs_trials, subsample_rate_grid};
use fedtune::fedtune_core::{
    BenchmarkContext, ConfigPool, ExperimentScale, NoiseConfig, TrialRunner,
};
use std::sync::OnceLock;

/// A slightly larger pool than the smoke scale so selection effects are
/// visible above sampling noise, while staying fast enough for CI — trained
/// once for the whole file: every analysis over it is read-only.
fn pool_and_ctx() -> (TrialRunner, &'static BenchmarkContext, &'static ConfigPool) {
    static TRAINED: OnceLock<(BenchmarkContext, ConfigPool)> = OnceLock::new();
    let runner = TrialRunner::from_env();
    let (ctx, pool) = TRAINED.get_or_init(|| {
        let mut scale = ExperimentScale::smoke();
        scale.pool_size = 24;
        scale.rounds_per_config = 12;
        scale.total_budget = scale.pool_size * scale.rounds_per_config;
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
        let pool = ConfigPool::train(&runner, &ctx, scale.pool_size, 1).unwrap();
        (ctx, pool)
    });
    (runner, ctx, pool)
}

#[test]
fn observation1_subsampling_hurts_selection() {
    let (runner, _ctx, pool) = pool_and_ctx();
    let trials = 200;
    let single = simulated_rs_trials(
        &runner,
        pool,
        &NoiseConfig::subsampled(0.1),
        8,
        8,
        trials,
        3,
    )
    .unwrap();
    let full =
        simulated_rs_trials(&runner, pool, &NoiseConfig::noiseless(), 8, 8, trials, 3).unwrap();
    let mean_single = fedmath::stats::mean(&single);
    let mean_full = fedmath::stats::mean(&full);
    assert!(
        mean_single >= mean_full - 1e-9,
        "single-client selection ({mean_single}) should not beat full evaluation ({mean_full})"
    );
}

#[test]
fn observation5_stricter_privacy_degrades_selection() {
    let (runner, ctx, pool) = pool_and_ctx();
    let rate = 3.0 / ctx.dataset().num_val_clients() as f64;
    let trials = 200;
    let strict = simulated_rs_trials(
        &runner,
        pool,
        &NoiseConfig::subsampled(rate).with_privacy(PrivacyBudget::Finite(0.1)),
        8,
        8,
        trials,
        4,
    )
    .unwrap();
    let non_private = simulated_rs_trials(
        &runner,
        pool,
        &NoiseConfig::subsampled(rate).with_privacy(PrivacyBudget::Infinite),
        8,
        8,
        trials,
        4,
    )
    .unwrap();
    let mean_strict = fedmath::stats::mean(&strict);
    let mean_free = fedmath::stats::mean(&non_private);
    assert!(
        mean_strict > mean_free,
        "epsilon = 0.1 selection ({mean_strict}) should be worse than non-private ({mean_free})"
    );
    // Strict privacy with a tiny sample should be close to random selection,
    // whose expected error is the pool's mean error.
    let pool_mean = fedmath::stats::mean(&pool.true_errors());
    assert!(
        (mean_strict - pool_mean).abs() < 0.15,
        "strict-DP selection ({mean_strict}) should approach random choice ({pool_mean})"
    );
}

#[test]
fn more_clients_recover_selection_quality() {
    // Observation 1, second half: sampling enough clients recovers most of
    // the loss. Median selected error must be non-increasing (within a small
    // tolerance) as the subsample rate grows.
    let (runner, ctx, pool) = pool_and_ctx();
    let population = ctx.dataset().num_val_clients();
    let mut medians = Vec::new();
    for rate in subsample_rate_grid(population) {
        let errors =
            simulated_rs_trials(&runner, pool, &NoiseConfig::subsampled(rate), 8, 8, 150, 5)
                .unwrap();
        medians.push(fedmath::stats::median(&errors).unwrap());
    }
    let first = medians[0];
    let last = *medians.last().unwrap();
    assert!(
        last <= first + 1e-9,
        "full evaluation ({last}) should select no worse than a single client ({first})"
    );
}

#[test]
fn systems_bias_with_heterogeneity_is_harmful_or_neutral() {
    let (runner, ctx, pool) = pool_and_ctx();
    let rate = 1.0 / ctx.dataset().num_val_clients() as f64;
    let trials = 200;
    let unbiased = simulated_rs_trials(
        &runner,
        pool,
        &NoiseConfig::subsampled(rate),
        8,
        8,
        trials,
        6,
    )
    .unwrap();
    let biased = simulated_rs_trials(
        &runner,
        pool,
        &NoiseConfig::subsampled(rate).with_systems_bias(3.0),
        8,
        8,
        trials,
        6,
    )
    .unwrap();
    let mean_unbiased = fedmath::stats::mean(&unbiased);
    let mean_biased = fedmath::stats::mean(&biased);
    assert!(
        mean_biased >= mean_unbiased - 0.05,
        "biased sampling ({mean_biased}) should not improve selection vs unbiased ({mean_unbiased})"
    );
}

#[test]
fn noisy_evaluation_degrades_every_tuning_method() {
    // Fig. 8 / 15 / 16, the claim every method bar rests on: under the
    // paper's noisy evaluation (1% clients + ε = 100) each of RS / TPE / HB /
    // BOHB selects a worse configuration than under noiseless evaluation.
    // Asserted on the mean over 8 dataset seeds × the scale's trials, each
    // method's own gap — not on an ordering between methods, which smoke
    // scale cannot resolve.
    let scale = ExperimentScale::smoke();
    let runner = TrialRunner::sequential();
    let mut errors = vec![[Vec::new(), Vec::new()]; TuningMethod::ALL.len()];
    for seed in 0..8u64 {
        let comparison = run_method_comparison(
            &runner,
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::ALL,
            &paper_noise_settings(),
            seed,
        )
        .unwrap();
        for run in &comparison.runs {
            let method = TuningMethod::ALL
                .iter()
                .position(|m| m.name() == run.method)
                .unwrap();
            let noisy = usize::from(run.noise_label == "noisy");
            errors[method][noisy].push(run.selected_true_error_within(scale.total_budget).unwrap());
        }
    }
    for (method, [noiseless, noisy]) in TuningMethod::ALL.iter().zip(&errors) {
        let gap = fedmath::stats::mean(noisy) - fedmath::stats::mean(noiseless);
        assert!(
            gap >= 0.02,
            "{method}: noisy evaluation should cost at least 2 points of true error, gap {gap:+.3}"
        );
    }
}
