//! One experiment runner per table/figure of the paper's evaluation.
//!
//! | module | paper content |
//! |---|---|
//! | [`table1`] | Tables 1–2: dataset statistics |
//! | [`subsampling`] | Fig. 3 (RS vs subsample rate) and Fig. 5 (error vs budget) |
//! | [`heterogeneity`] | Fig. 4 (data heterogeneity), Fig. 6 (systems heterogeneity), Fig. 7 (min-client-error scatter) |
//! | [`privacy`] | Fig. 9 (privacy budget sweep) |
//! | [`methods`] | Fig. 1, Fig. 8, Fig. 15/16 (RS vs TPE vs Hyperband vs BOHB, noiseless vs noisy) |
//! | [`proxy`] | Fig. 10/14 (HP transfer), Fig. 11 (proxy matrix), Fig. 12 (proxy vs noisy evaluation) |
//! | [`space_ablation`] | Fig. 13 (search-space size under noise) |
//! | [`stragglers`] | Straggler scenario: sync SHA vs async ASHA in simulated wall-clock under heavy-tailed client runtimes |
//! | [`population`] | Population-scale subsampling noise: variance and rank fidelity vs cohort size at N up to 1e6 lazy clients |
//!
//! Every runner takes a [`crate::ExperimentScale`] and a seed, returns a
//! serialisable result struct, and can render an [`crate::ExperimentReport`].
//! A runner that fans trials out (pool training, bootstrap replays, tuner
//! campaigns) takes the [`TrialRunner`] to do it on as its first argument —
//! none of them reads `FEDTUNE_THREADS`; seeds are positional, so the result
//! is the same bits under every runner and the caller decides the threads.

pub mod heterogeneity;
pub mod methods;
pub mod population;
pub mod privacy;
pub mod proxy;
pub mod space_ablation;
pub mod stragglers;
pub mod subsampling;
pub mod table1;

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::noise::NoiseConfig;
use crate::pool::ConfigPool;
use crate::report::{rate_label, ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::Result;

/// The subsample-rate grid used on the x-axes of Figures 3, 4, 6, and 9:
/// client counts `1, 3, 9, 27, …` (powers of the paper's η = 3) up to the
/// full population, expressed as fractions of the population.
pub fn subsample_rate_grid(population: usize) -> Vec<f64> {
    let mut counts = Vec::new();
    let mut c = 1usize;
    while c < population {
        counts.push(c);
        c *= 3;
    }
    counts.push(population);
    counts
        .into_iter()
        .map(|c| c as f64 / population as f64)
        .collect()
}

/// Number of objective evaluations a Hyperband/BOHB run with the given
/// schedule performs — the DP composition length `M` for those methods.
pub fn hyperband_planned_evaluations(
    max_resource: usize,
    eta: usize,
    num_brackets: usize,
) -> usize {
    let hb = fedhpo::Hyperband::new(max_resource, eta, Some(num_brackets));
    let mut evaluations = 0usize;
    for s in (0..hb.num_brackets()).rev() {
        let (mut n, mut r) = hb.bracket_plan(s);
        loop {
            evaluations += n;
            if n < hb.eta() || r >= hb.max_resource() {
                break;
            }
            n = (n / hb.eta()).max(1);
            r = (r * hb.eta()).min(hb.max_resource());
        }
    }
    evaluations
}

/// Simulates one random-search trial over a pre-trained pool: draw `k`
/// distinct configurations, observe each through the noise model, select the
/// lowest noisy score, and return the *true* full-validation error of the
/// selected configuration (§3, "Evaluation").
///
/// # Errors
///
/// Propagates noisy-evaluation failures; fails if `k` exceeds the pool size.
pub fn simulated_rs_trial(
    pool: &ConfigPool,
    noise: &NoiseConfig,
    k: usize,
    total_evaluations: usize,
    rng: &mut rand::rngs::StdRng,
) -> Result<f64> {
    let subset = fedmath::rng::sample_without_replacement(rng, pool.len(), k.min(pool.len()))?;
    let mut best_noisy = f64::INFINITY;
    let mut best_true = f64::NAN;
    for idx in subset {
        let entry = &pool.entries()[idx];
        let noisy = crate::noise::noisy_error(&entry.evaluation, noise, total_evaluations, rng)?;
        if noisy < best_noisy {
            best_noisy = noisy;
            best_true = entry.full_error;
        }
    }
    Ok(best_true)
}

/// Runs [`simulated_rs_trial`] `trials` times through `runner` and returns
/// the selected true errors. Trial `i` draws its randomness from the seed
/// derived at `(seed, i)`, so sequential and parallel runners return
/// bit-identical error vectors.
///
/// # Errors
///
/// Propagates trial failures.
pub fn simulated_rs_trials(
    runner: &TrialRunner,
    pool: &ConfigPool,
    noise: &NoiseConfig,
    k: usize,
    total_evaluations: usize,
    trials: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    runner.run_trials(seed, trials, |trial| {
        let mut rng = trial.rng(0);
        simulated_rs_trial(pool, noise, k, total_evaluations, &mut rng)
    })
}

/// The rate sweep on the x-axis of Figures 3, 4, 6 and 9: at every rate of
/// [`subsample_rate_grid`] over `ctx`'s validation clients, bootstrap
/// `scale.bootstrap_trials` RS selections of `scale.num_configs`
/// configurations over `pool` under `noise_at(rate)` and summarise the
/// selected true errors as one point. `seed_at(i)` is the bootstrap seed of
/// the grid's `i`-th rate; it is called once per rate, in grid order, so a
/// figure may derive it positionally or draw it from a stream.
pub(crate) fn rate_sweep(
    runner: &TrialRunner,
    ctx: &BenchmarkContext,
    pool: &ConfigPool,
    scale: &ExperimentScale,
    noise_at: impl Fn(f64) -> NoiseConfig,
    mut seed_at: impl FnMut(usize) -> u64,
) -> Result<Vec<SeriesPoint>> {
    let population = ctx.dataset().num_val_clients();
    subsample_rate_grid(population)
        .into_iter()
        .enumerate()
        .map(|(rate_idx, rate)| {
            let errors = simulated_rs_trials(
                runner,
                pool,
                &noise_at(rate),
                scale.num_configs,
                scale.num_configs,
                scale.bootstrap_trials,
                seed_at(rate_idx),
            )?;
            SeriesPoint::from_error_rates(rate, rate_label(rate, population), &errors)
        })
        .collect()
}

/// The report shape Figures 4, 6 and 9 share: every sweep's series, each
/// group named `"<benchmark> <series>"`.
pub(crate) fn series_report<'a>(
    id: &str,
    title: &str,
    sweeps: impl IntoIterator<Item = (&'a str, &'a [SeriesGroup])>,
) -> ExperimentReport {
    let mut report = ExperimentReport::new(id, title);
    for (benchmark, series) in sweeps {
        for group in series {
            report.push_group(SeriesGroup {
                name: format!("{benchmark} {}", group.name),
                points: group.points.clone(),
            });
        }
    }
    report
}

/// Runs [`simulated_rs_trajectory`] `trials` times through a [`TrialRunner`]
/// and returns one incumbent trajectory per trial, in trial order.
///
/// # Errors
///
/// Propagates trial failures.
pub fn simulated_rs_trajectories(
    runner: &TrialRunner,
    pool: &ConfigPool,
    noise: &NoiseConfig,
    k: usize,
    total_evaluations: usize,
    trials: usize,
    seed: u64,
) -> Result<Vec<Vec<f64>>> {
    runner.run_trials(seed, trials, |trial| {
        let mut rng = trial.rng(0);
        simulated_rs_trajectory(pool, noise, k, total_evaluations, &mut rng)
    })
}

/// Simulates the *online* trajectory of one random-search trial: the true
/// error of the incumbent after each configuration finishes training
/// (`rounds_per_config` budget units per configuration). Returns a vector of
/// length `k`: entry `j` is the incumbent's true error after `j + 1`
/// configurations.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn simulated_rs_trajectory(
    pool: &ConfigPool,
    noise: &NoiseConfig,
    k: usize,
    total_evaluations: usize,
    rng: &mut rand::rngs::StdRng,
) -> Result<Vec<f64>> {
    let subset = fedmath::rng::sample_without_replacement(rng, pool.len(), k.min(pool.len()))?;
    let mut best_noisy = f64::INFINITY;
    let mut best_true = f64::NAN;
    let mut trajectory = Vec::with_capacity(subset.len());
    for idx in subset {
        let entry = &pool.entries()[idx];
        let noisy = crate::noise::noisy_error(&entry.evaluation, noise, total_evaluations, rng)?;
        if noisy < best_noisy {
            best_noisy = noisy;
            best_true = entry.full_error;
        }
        trajectory.push(best_true);
    }
    Ok(trajectory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::Benchmark;
    use fedmath::rng::rng_for;

    #[test]
    fn rate_grid_covers_one_client_to_everyone() {
        let grid = subsample_rate_grid(100);
        assert!((grid[0] - 0.01).abs() < 1e-12);
        assert_eq!(*grid.last().unwrap(), 1.0);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        // 1, 3, 9, 27, 81, 100 -> six points.
        assert_eq!(grid.len(), 6);
        let tiny = subsample_rate_grid(2);
        assert_eq!(tiny, vec![0.5, 1.0]);
    }

    #[test]
    fn hyperband_evaluation_count_matches_manual_count() {
        // R = 9, eta = 3, 3 brackets:
        // s=2: n=9,r=1 -> 9 + 3 + 1 evaluations
        // s=1: n=5,r=3 -> 5 + 1
        // s=0: n=3,r=9 -> 3
        assert_eq!(
            hyperband_planned_evaluations(9, 3, 3),
            9 + 3 + 1 + 5 + 1 + 3
        );
    }

    #[test]
    fn simulated_rs_behaviour() {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 0).unwrap();
        let runner = TrialRunner::from_env();
        let pool = ConfigPool::train(&runner, &ctx, ctx.scale().pool_size, 1).unwrap();
        // Noiseless selection over the whole pool always returns the best error.
        let mut rng = rng_for(0, 0);
        let chosen =
            simulated_rs_trial(&pool, &NoiseConfig::noiseless(), pool.len(), 16, &mut rng).unwrap();
        assert_eq!(chosen, pool.best_full_error().unwrap());

        let errors =
            simulated_rs_trials(&runner, &pool, &NoiseConfig::subsampled(0.2), 4, 16, 10, 3)
                .unwrap();
        assert_eq!(errors.len(), 10);
        assert!(errors.iter().all(|e| (0.0..=1.0).contains(e)));

        let mut rng = rng_for(1, 0);
        let trajectory =
            simulated_rs_trajectory(&pool, &NoiseConfig::noiseless(), 5, 16, &mut rng).unwrap();
        assert_eq!(trajectory.len(), 5);
        // The noiseless incumbent error never increases.
        assert!(trajectory.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }
}
