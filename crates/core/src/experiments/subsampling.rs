//! Fig. 3 (random search vs. evaluation-client subsampling) and
//! Fig. 5 (error vs. training budget at several subsampling rates).

use crate::engine::TrialRunner;
use crate::experiments::{budget_curve, rate_sweep, SeedChannel};
use crate::noise::NoiseConfig;
use crate::pool::TrainedBenchmark;
use crate::report::{rate_label, BenchmarkSeries, SeriesPoint};
use crate::Result;
use fedmath::SeedTree;
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

/// Runs the Fig. 3 experiment over one trained benchmark: for each
/// subsampling rate simulate `bootstrap_trials` RS runs of `num_configs`
/// configurations and record the full-validation error of the selected
/// configuration. Each rate's bootstrap trials fan out through the runner,
/// seeded by the rate's position in the grid — so the sweep is a pure
/// function of the trained pool under every execution policy.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn run_subsampling_sweep(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
) -> Result<SubsamplingSweep> {
    let rate_seeds = SeedTree::new(trained.seed(SeedChannel::Subsampling));
    let points = rate_sweep(
        runner,
        trained.pool(),
        trained.scale(),
        NoiseConfig::subsampled,
        |rate_idx| rate_seeds.child(rate_idx as u64).seed(),
    )?;
    Ok(SubsamplingSweep {
        benchmark: trained.name().to_string(),
        points,
        best_hps_percent: trained.pool().best_full_error()? * 100.0,
    })
}

/// Runs the Fig. 5 experiment over one trained benchmark: the online
/// performance of RS (true error of the incumbent) as its round budget is
/// consumed — one curve per subsampling rate, named by the rate's label: a
/// single client, an intermediate rate, and full evaluation. Sequential and
/// parallel runners produce bit-identical curves.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn run_budget_curves(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
) -> Result<BenchmarkSeries> {
    let population = trained.pool().num_val_clients();
    // The paper plots a single client, a small percentage, and 100%.
    let rates = [
        1.0 / population as f64,
        (3.0 / population as f64).min(1.0),
        1.0,
    ];
    let rate_seeds = SeedTree::new(trained.seed(SeedChannel::Budget));
    let series = rates
        .iter()
        .enumerate()
        .map(|(rate_idx, &rate)| {
            budget_curve(
                runner,
                trained.pool(),
                trained.scale(),
                rate_label(rate, population),
                &NoiseConfig::subsampled(rate),
                rate_seeds.child(rate_idx as u64).seed(),
            )
        })
        .collect::<Result<_>>()?;
    Ok(BenchmarkSeries {
        benchmark: trained.name().to_string(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_trained;
    use feddata::Benchmark;

    #[test]
    fn subsampling_sweep_shape_and_monotone_trend() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 0);
        let sweep = run_subsampling_sweep(&runner, &trained).unwrap();
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
    }

    #[test]
    fn budget_curves_shape() {
        let (runner, trained) = smoke_trained(Benchmark::FemnistLike, 1);
        let scale = *trained.scale();
        let curves = run_budget_curves(&runner, &trained).unwrap();
        assert_eq!(curves.series.len(), 3);
        for curve in &curves.series {
            assert_eq!(curve.points.len(), scale.num_configs);
            // x is the cumulative number of rounds.
            assert!((curve.points[0].x - scale.rounds_per_config as f64).abs() < 1e-9);
            // Within a curve, the median incumbent error never increases with
            // budget in the noiseless (full evaluation) case.
        }
        let full_curve = curves.series.last().unwrap();
        let medians: Vec<f64> = full_curve.points.iter().map(|p| p.summary.median).collect();
        assert!(medians.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }
}
