//! One experiment runner per table/figure of the paper's evaluation, and
//! [`figures::FIGURES`], the index that says which artefact is drawn by which
//! runner from which inputs.
//!
//! | module | paper content |
//! |---|---|
//! | [`figures`] | the index: one [`figures::Figure`] per artefact, drawn from one [`figures::FigureInputs`] |
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
//! The RS figures (3–7, 9–12, 14 and the Fig. 1 proxy bar) are analyses over
//! **one trained pool per benchmark**, the paper's §3 protocol: the caller
//! trains [`crate::TrainedBenchmark::train_all`] once and hands the set to every
//! figure, which only bootstraps over the stored per-client evaluations (its
//! seed taken from the pool's seed on the figure's [`SeedChannel`]). The
//! live-training figures (1 / 8 / 15 / 16, 13, stragglers, population) take a
//! [`crate::ExperimentScale`] and a seed. Every runner returns a serialisable
//! result struct; [`figures`] renders them as [`crate::ExperimentReport`]s and
//! is the one place that builds the pool set and the comparison for
//! reporting. A runner that fans trials out (pool training, bootstrap replays,
//! tuner campaigns) takes the [`TrialRunner`] to do it on as its first
//! argument — none of them reads `FEDTUNE_THREADS`; seeds are positional, so
//! the result is the same bits under every runner and the caller decides the
//! threads.

pub mod figures;
pub mod heterogeneity;
pub mod methods;
pub mod population;
pub mod privacy;
pub mod proxy;
pub mod space_ablation;
pub mod stragglers;
pub mod subsampling;
pub mod table1;

use crate::engine::TrialRunner;
use crate::noise::{noisy_error, NoiseConfig};
use crate::pool::ConfigPool;
use crate::report::{rate_label, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::{CoreError, Result};

/// The named children of an experiment seed: every figure derives its
/// randomness from `derive_seed(seed, channel)`, so two figures sharing a
/// seed never share a stream. Discriminants are the channel numbers (the
/// compiler rejects a duplicate); `Methods`, `StragglerCampaigns`,
/// `StragglerCostModel` and `SpaceAblation` feed golden-pinned or gated
/// results and must keep theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedChannel {
    /// Fig. 3 bootstrap.
    Subsampling = 1,
    /// Fig. 5 bootstrap.
    Budget = 2,
    /// Fig. 4 repartitioning and bootstrap.
    DataHeterogeneity = 3,
    /// Fig. 6 bootstrap.
    SystemsHeterogeneity = 4,
    /// Configuration sampling and training of a [`crate::TrainedBenchmark`].
    Pool = 5,
    /// Fig. 9 bootstrap.
    Privacy = 6,
    /// The method-comparison campaign grid (Fig. 1 / 8 / 15 / 16).
    Methods = 7,
    /// One-shot proxy RS bootstrap (Fig. 11, the Fig. 12 references, the
    /// Fig. 1 bar).
    ProxyRs = 8,
    /// The straggler scenario's campaign grid.
    StragglerCampaigns = 9,
    /// Fig. 12 noisy-RS curves.
    ProxyVsNoisy = 10,
    /// The straggler scenario's client-runtime model.
    StragglerCostModel = 11,
    /// Fig. 13 pools and bootstrap.
    SpaceAblation = 12,
}

impl SeedChannel {
    /// The seed of this channel under the experiment seed `seed`.
    pub fn seed(self, seed: u64) -> u64 {
        fedmath::rng::derive_seed(seed, self as u64)
    }
}

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

/// What a simulated random search observes of each pooled configuration
/// before it selects.
#[derive(Debug, Clone, Copy)]
pub enum Scores<'a> {
    /// A noisy evaluation on the pool's own validation clients;
    /// `total_evaluations` is the DP composition length `M`.
    Noisy {
        /// The evaluation-noise model.
        noise: &'a NoiseConfig,
        /// Evaluations the simulated tuning run performs in total.
        total_evaluations: usize,
    },
    /// One fixed score per pooled configuration, in pool order, consuming no
    /// randomness — a proxy pool's full-validation errors
    /// ([`crate::TrainedBenchmark::proxy_scores`]).
    Proxy(&'a [f64]),
}

/// The selection rule of a random search that sees `scores` in order: entry
/// `j` is the index of its incumbent after `j + 1` scores — the lowest so
/// far, the earliest on ties. The last entry is what the search selects.
fn incumbents(scores: &[f64]) -> Vec<usize> {
    let mut best = 0;
    (0..scores.len())
        .map(|j| {
            if scores[j] < scores[best] {
                best = j;
            }
            best
        })
        .collect()
}

/// Simulates the *online* trajectory of one random-search trial over a
/// pre-trained pool — the one bootstrap kernel behind every RS figure: draw
/// `k` distinct configurations, observe each through `scores`, and after each
/// one report the *true* full-validation error of the incumbent (the lowest
/// score so far, the private `incumbents` rule). Entry `j` of the returned vector
/// is the incumbent's true error after `j + 1` configurations
/// (`rounds_per_config` budget units each); the last entry is what the trial
/// selects (§3, "Evaluation").
///
/// # Errors
///
/// Propagates noisy-evaluation failures; fails if `k` is zero or a proxy
/// column does not cover the pool.
pub fn simulated_rs_trajectory(
    pool: &ConfigPool,
    scores: &Scores<'_>,
    k: usize,
    rng: &mut rand::rngs::StdRng,
) -> Result<Vec<f64>> {
    if let Scores::Proxy(column) = scores {
        if column.len() != pool.len() {
            return Err(CoreError::InvalidConfig {
                message: format!("{} proxy scores for a pool of {}", column.len(), pool.len()),
            });
        }
    }
    let subset: Vec<usize> =
        fedmath::rng::sample_without_replacement(rng, pool.len() as u64, k.min(pool.len()))?
            .into_iter()
            .map(|idx| idx as usize)
            .collect();
    let entries = pool.entries();
    let observed = subset
        .iter()
        .map(|&idx| match *scores {
            Scores::Noisy {
                noise,
                total_evaluations,
            } => noisy_error(&entries[idx].evaluation, noise, total_evaluations, rng),
            Scores::Proxy(column) => Ok(column[idx]),
        })
        .collect::<Result<Vec<f64>>>()?;
    Ok(incumbents(&observed)
        .into_iter()
        .map(|j| entries[subset[j]].full_error)
        .collect())
}

/// Runs [`simulated_rs_trajectory`] `trials` times through `runner` and
/// returns one incumbent trajectory per trial, in trial order. Trial `i`
/// draws its randomness from the seed derived at `(seed, i)`, so sequential
/// and parallel runners return bit-identical trajectories.
///
/// # Errors
///
/// Propagates trial failures.
pub fn simulated_rs_trajectories(
    runner: &TrialRunner,
    pool: &ConfigPool,
    scores: &Scores<'_>,
    k: usize,
    trials: usize,
    seed: u64,
) -> Result<Vec<Vec<f64>>> {
    runner.run_trials(seed, trials, |trial| {
        simulated_rs_trajectory(pool, scores, k, &mut trial.rng(0))
    })
}

/// What each bootstrap trial selected: the last entry of every trajectory
/// (never empty — a draw of zero configurations is rejected).
pub(crate) fn selections(trajectories: Vec<Vec<f64>>) -> Vec<f64> {
    trajectories
        .iter()
        .filter_map(|trajectory| trajectory.last().copied())
        .collect()
}

/// The true errors `trials` simulated RS runs select under `noise`: the
/// last entry of each of [`simulated_rs_trajectories`].
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
    let scores = Scores::Noisy {
        noise,
        total_evaluations,
    };
    simulated_rs_trajectories(runner, pool, &scores, k, trials, seed).map(selections)
}

/// The rate sweep on the x-axis of Figures 3, 4, 6 and 9: at every rate of
/// [`subsample_rate_grid`] over `pool`'s validation clients, bootstrap
/// `scale.bootstrap_trials` RS selections of `scale.num_configs`
/// configurations under `noise_at(rate)` and summarise the selected true
/// errors as one point. `seed_at(i)` is the bootstrap seed of the grid's
/// `i`-th rate; it is called once per rate, in grid order, so a figure may
/// derive it positionally or draw it from a stream.
pub(crate) fn rate_sweep(
    runner: &TrialRunner,
    pool: &ConfigPool,
    scale: &ExperimentScale,
    noise_at: impl Fn(f64) -> NoiseConfig,
    mut seed_at: impl FnMut(usize) -> u64,
) -> Result<Vec<SeriesPoint>> {
    let population = pool.num_val_clients();
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

/// The error-vs-budget curve of Figures 5 and 12: bootstrap
/// `scale.bootstrap_trials` RS incumbent trajectories of `scale.num_configs`
/// configurations under `noise` and summarise, per configuration finished,
/// the incumbent's true error over trials (x = cumulative training rounds).
pub(crate) fn budget_curve(
    runner: &TrialRunner,
    pool: &ConfigPool,
    scale: &ExperimentScale,
    name: String,
    noise: &NoiseConfig,
    seed: u64,
) -> Result<SeriesGroup> {
    let scores = Scores::Noisy {
        noise,
        total_evaluations: scale.num_configs,
    };
    let trajectories = simulated_rs_trajectories(
        runner,
        pool,
        &scores,
        scale.num_configs,
        scale.bootstrap_trials,
        seed,
    )?;
    let steps = trajectories.first().map_or(0, Vec::len);
    let points = (0..steps)
        .map(|step| {
            let errors: Vec<f64> = trajectories.iter().map(|t| t[step]).collect();
            let rounds = (step + 1) * scale.rounds_per_config;
            SeriesPoint::from_error_rates(rounds as f64, format!("{rounds} rounds"), &errors)
        })
        .collect::<Result<_>>()?;
    Ok(SeriesGroup { name, points })
}

/// A runner and the smoke-scale pool of `benchmark` it trained from `seed`.
#[cfg(test)]
pub(crate) fn smoke_trained(
    benchmark: feddata::Benchmark,
    seed: u64,
) -> (TrialRunner, crate::TrainedBenchmark) {
    let runner = TrialRunner::from_env();
    let trained =
        crate::TrainedBenchmark::train(&runner, benchmark, &ExperimentScale::smoke(), seed)
            .unwrap();
    (runner, trained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::Benchmark;
    use fedmath::rng::rng_for;

    #[test]
    fn pinned_seed_channels_keep_their_numbers() {
        // Golden selections, the lane matrix and `train_asha`'s digest sit on
        // these four; the rest are free (and unique by construction: a
        // repeated enum discriminant does not compile).
        assert_eq!(SeedChannel::Methods as u64, 7);
        assert_eq!(SeedChannel::StragglerCampaigns as u64, 9);
        assert_eq!(SeedChannel::StragglerCostModel as u64, 11);
        assert_eq!(SeedChannel::SpaceAblation as u64, 12);
        assert_eq!(
            SeedChannel::Methods.seed(3),
            fedmath::rng::derive_seed(3, 7)
        );
    }

    #[test]
    fn incumbents_track_the_lowest_score_so_far() {
        assert_eq!(incumbents(&[0.5, 0.7, 0.2, 0.2, 0.1]), [0, 0, 2, 2, 4]);
        assert!(incumbents(&[]).is_empty());
    }

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
    fn simulated_rs_behaviour() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 0);
        let pool = trained.pool();
        let noiseless = NoiseConfig::noiseless();
        let exact = Scores::Noisy {
            noise: &noiseless,
            total_evaluations: 16,
        };
        // Noiseless selection over the whole pool always returns the best error.
        let whole = simulated_rs_trajectory(pool, &exact, pool.len(), &mut rng_for(0, 0)).unwrap();
        assert_eq!(*whole.last().unwrap(), pool.best_full_error().unwrap());

        let errors =
            simulated_rs_trials(&runner, pool, &NoiseConfig::subsampled(0.2), 4, 16, 10, 3)
                .unwrap();
        assert_eq!(errors.len(), 10);
        assert!(errors.iter().all(|e| (0.0..=1.0).contains(e)));

        let trajectory = simulated_rs_trajectory(pool, &exact, 5, &mut rng_for(1, 0)).unwrap();
        assert_eq!(trajectory.len(), 5);
        // The noiseless incumbent error never increases.
        assert!(trajectory.windows(2).all(|w| w[1] <= w[0] + 1e-12));

        // Selecting by the pool's own errors as a proxy column is noiseless
        // selection; a column of the wrong length is rejected, not indexed.
        let own = pool.true_errors();
        let by_proxy =
            simulated_rs_trajectory(pool, &Scores::Proxy(&own), 5, &mut rng_for(1, 0)).unwrap();
        assert_eq!(by_proxy, trajectory);
        assert!(
            simulated_rs_trajectory(pool, &Scores::Proxy(&own[..1]), 5, &mut rng_for(1, 0))
                .is_err()
        );
    }
}
