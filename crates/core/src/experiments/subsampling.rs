//! Fig. 3 (random search vs. evaluation-client subsampling) and
//! Fig. 5 (error vs. training budget at several subsampling rates).

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::{rate_sweep, simulated_rs_trajectories};
use crate::noise::NoiseConfig;
use crate::pool::ConfigPool;
use crate::report::{rate_label, ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::Result;
use feddata::Benchmark;
use fedmath::SeedStream;
use serde::{Deserialize, Serialize};

/// The result of the Fig. 3 sweep for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsamplingSweep {
    /// Benchmark the sweep was run on.
    pub benchmark: String,
    /// Points of the sweep: one per subsampling rate.
    pub points: Vec<SeriesPoint>,
    /// The "Best HPs" reference: the lowest full-validation error in the
    /// trained pool, in percent.
    pub best_hps_percent: f64,
}

/// Runs the Fig. 3 experiment for one benchmark: train a configuration pool,
/// then for each subsampling rate simulate `bootstrap_trials` RS runs of
/// `num_configs` configurations and record the full-validation error of the
/// selected configuration. Sequential and parallel runners produce
/// bit-identical sweeps.
///
/// # Errors
///
/// Propagates pool-training and noisy-evaluation failures.
pub fn run_subsampling_sweep(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<SubsamplingSweep> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let mut seeds = SeedStream::new(fedmath::rng::derive_seed(seed, 1));
    let pool = ConfigPool::train(runner, &ctx, scale.pool_size, seeds.next_seed())?;
    subsampling_sweep_from_pool(runner, &ctx, &pool, scale, seeds.next_seed())
}

/// The Fig. 3 sweep given an already-trained pool (so several figures can
/// share one pool). Each rate's bootstrap trials fan out through the runner,
/// seeded by the rate's position in the grid — so the sweep is a pure
/// function of `(pool, scale, seed)` under every execution policy.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn subsampling_sweep_from_pool(
    runner: &TrialRunner,
    ctx: &BenchmarkContext,
    pool: &ConfigPool,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<SubsamplingSweep> {
    let rate_seeds = fedmath::SeedTree::new(seed);
    let points = rate_sweep(
        runner,
        ctx,
        pool,
        scale,
        NoiseConfig::subsampled,
        |rate_idx| rate_seeds.child(rate_idx as u64).seed(),
    )?;
    Ok(SubsamplingSweep {
        benchmark: ctx.benchmark().name().to_string(),
        points,
        best_hps_percent: pool.best_full_error()? * 100.0,
    })
}

/// Renders Fig. 3 sweeps (one per benchmark) as a report.
pub fn subsampling_report(sweeps: &[SubsamplingSweep]) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig3",
        "Random search under evaluation-client subsampling (Fig. 3)",
    );
    for sweep in sweeps {
        report.push_group(SeriesGroup {
            name: sweep.benchmark.clone(),
            points: sweep.points.clone(),
        });
        report.push_note(format!(
            "{}: best HPs (full evaluation) = {:.2}%",
            sweep.benchmark, sweep.best_hps_percent
        ));
    }
    report
}

/// The result of the Fig. 5 experiment for one benchmark: one error-vs-budget
/// curve per subsampling rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetCurves {
    /// Benchmark the curves were computed on.
    pub benchmark: String,
    /// One curve per subsampling rate (the group name is the rate label).
    pub curves: Vec<SeriesGroup>,
}

/// Runs the Fig. 5 experiment: the online performance of RS (true error of
/// the incumbent) as its round budget is consumed, at a single-client rate,
/// an intermediate rate, and full evaluation. Sequential and parallel
/// runners produce bit-identical curves.
///
/// # Errors
///
/// Propagates pool-training and noisy-evaluation failures.
pub fn run_budget_curves(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<BudgetCurves> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let mut seeds = SeedStream::new(fedmath::rng::derive_seed(seed, 2));
    let pool = ConfigPool::train(runner, &ctx, scale.pool_size, seeds.next_seed())?;
    budget_curves_from_pool(runner, &ctx, &pool, scale, seeds.next_seed())
}

/// The Fig. 5 curves given an already-trained pool; the bootstrap
/// trajectories of each rate fan out through the runner.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn budget_curves_from_pool(
    runner: &TrialRunner,
    ctx: &BenchmarkContext,
    pool: &ConfigPool,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<BudgetCurves> {
    let population = ctx.dataset().num_val_clients();
    // The paper plots a single client, a small percentage, and 100%.
    let single = 1.0 / population as f64;
    let small = (3.0 / population as f64).min(1.0);
    let rates = [single, small, 1.0];
    let rate_seeds = fedmath::SeedTree::new(seed);
    let mut curves = Vec::new();
    for (rate_idx, &rate) in rates.iter().enumerate() {
        let noise = NoiseConfig::subsampled(rate);
        // Collect incumbent trajectories over bootstrap trials.
        let trajectories = simulated_rs_trajectories(
            runner,
            pool,
            &noise,
            scale.num_configs,
            scale.num_configs,
            scale.bootstrap_trials,
            rate_seeds.child(rate_idx as u64).seed(),
        )?;
        let mut per_step: Vec<Vec<f64>> = vec![Vec::new(); scale.num_configs];
        for trajectory in trajectories {
            for (step, err) in trajectory.into_iter().enumerate() {
                per_step[step].push(err);
            }
        }
        let mut points = Vec::new();
        for (step, errors) in per_step.iter().enumerate() {
            let rounds = (step + 1) * scale.rounds_per_config;
            points.push(SeriesPoint::from_error_rates(
                rounds as f64,
                format!("{rounds} rounds"),
                errors,
            )?);
        }
        curves.push(SeriesGroup {
            name: rate_label(rate, population),
            points,
        });
    }
    Ok(BudgetCurves {
        benchmark: ctx.benchmark().name().to_string(),
        curves,
    })
}

/// Renders Fig. 5 curves as a report.
pub fn budget_report(all: &[BudgetCurves]) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig5",
        "RS performance vs. training budget under subsampling (Fig. 5)",
    );
    for curves in all {
        for curve in &curves.curves {
            report.push_group(SeriesGroup {
                name: format!("{} @ {}", curves.benchmark, curve.name),
                points: curve.points.clone(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsampling_sweep_shape_and_monotone_trend() {
        let scale = ExperimentScale::smoke();
        let sweep =
            run_subsampling_sweep(&TrialRunner::from_env(), Benchmark::Cifar10Like, &scale, 0)
                .unwrap();
        assert_eq!(sweep.benchmark, "cifar10-like");
        // One point per rate in the grid for a 10-client validation pool:
        // counts 1, 3, 9, 10.
        assert_eq!(sweep.points.len(), 4);
        // Full evaluation selects at least as good a configuration (in the
        // median) as single-client evaluation.
        let single = sweep.points.first().unwrap().summary.median;
        let full = sweep.points.last().unwrap().summary.median;
        assert!(
            full <= single + 1e-9,
            "full eval ({full}) should not be worse than 1 client ({single})"
        );
        // Best HPs is a lower bound on every median.
        for p in &sweep.points {
            assert!(p.summary.median + 1e-9 >= sweep.best_hps_percent);
        }
        let report = subsampling_report(&[sweep]);
        assert!(report.to_table().contains("fig3"));
    }

    #[test]
    fn budget_curves_shape() {
        let scale = ExperimentScale::smoke();
        let curves =
            run_budget_curves(&TrialRunner::from_env(), Benchmark::FemnistLike, &scale, 1).unwrap();
        assert_eq!(curves.curves.len(), 3);
        for curve in &curves.curves {
            assert_eq!(curve.points.len(), scale.num_configs);
            // x is the cumulative number of rounds.
            assert!((curve.points[0].x - scale.rounds_per_config as f64).abs() < 1e-9);
            // Within a curve, the median incumbent error never increases with
            // budget in the noiseless (full evaluation) case.
        }
        let full_curve = curves.curves.last().unwrap();
        let medians: Vec<f64> = full_curve.points.iter().map(|p| p.summary.median).collect();
        assert!(medians.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        let report = budget_report(&[curves]);
        assert!(report.to_table().contains("fig5"));
    }
}
