//! Fig. 4 (data heterogeneity), Fig. 6 (systems heterogeneity), and
//! Fig. 7 (global error vs. minimum client error).

use crate::engine::TrialRunner;
use crate::experiments::{rate_sweep, SeedChannel};
use crate::noise::NoiseConfig;
use crate::pool::{validation_pool_with_iid_fraction, TrainedBenchmark};
use crate::report::{BenchmarkSeries, SeriesGroup};
use crate::Result;
use fedmath::{SeedStream, SeedTree};
use serde::{Deserialize, Serialize};

/// Runs Fig. 4 over one trained benchmark: the validation pool is
/// repartitioned towards iid-ness with fraction `p ∈ {0, 0.5, 1}` (training
/// data untouched, §3.2), the trained configurations are re-evaluated on each
/// partition, and the RS bootstrap is repeated across subsampling rates — one
/// series per `p`.
///
/// # Errors
///
/// Propagates repartitioning and evaluation failures.
pub fn run_data_heterogeneity(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
) -> Result<BenchmarkSeries> {
    let mut seeds = SeedStream::new(trained.seed(SeedChannel::DataHeterogeneity));
    let mut series = Vec::new();
    for &p in &[0.0, 0.5, 1.0] {
        let mut partition_rng = seeds.next_rng();
        let val_clients = validation_pool_with_iid_fraction(trained.ctx(), p, &mut partition_rng)?;
        let reevaluated = trained.pool().reevaluate_on(runner, &val_clients)?;
        series.push(SeriesGroup {
            name: format!("p={p}"),
            points: rate_sweep(
                runner,
                &reevaluated,
                trained.scale(),
                NoiseConfig::subsampled,
                |_| seeds.next_seed(),
            )?,
        });
    }
    Ok(BenchmarkSeries {
        benchmark: trained.name().to_string(),
        series,
    })
}

/// Runs Fig. 6 over one trained benchmark: evaluation-client sampling is
/// biased towards clients on which the evaluated model performs well, with
/// weight `(a + δ)^b` — one series per bias exponent `b = 0, 1, 1.5, 3`.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn run_systems_heterogeneity(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
) -> Result<BenchmarkSeries> {
    // Common random numbers across bias series: each rate's trial seed is
    // derived from the rate's position only, so every `b` replays the same
    // bootstrap draws. This reduces cross-series variance and makes the
    // series *exactly* coincide at full evaluation, where bias cannot matter.
    let rate_seeds = SeedTree::new(trained.seed(SeedChannel::SystemsHeterogeneity));
    let mut series = Vec::new();
    for &bias in &[0.0, 1.0, 1.5, 3.0] {
        series.push(SeriesGroup {
            name: format!("b={bias}"),
            points: rate_sweep(
                runner,
                trained.pool(),
                trained.scale(),
                |rate| NoiseConfig::subsampled(rate).with_systems_bias(bias),
                |rate_idx| rate_seeds.child(rate_idx as u64).seed(),
            )?,
        });
    }
    Ok(BenchmarkSeries {
        benchmark: trained.name().to_string(),
        series,
    })
}

/// One point of the Fig. 7 scatter: a configuration's global (full
/// validation) error against its minimum per-client error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinClientPoint {
    /// Full-validation error, in percent.
    pub global_error_percent: f64,
    /// Minimum per-client error, in percent.
    pub min_client_error_percent: f64,
}

/// Fig. 7 for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinClientScatter {
    /// Benchmark the scatter was computed on.
    pub benchmark: String,
    /// One point per pooled configuration.
    pub points: Vec<MinClientPoint>,
}

impl MinClientScatter {
    /// Fraction of configurations with poor global performance (error above
    /// `global_threshold`) but excellent performance on at least one client
    /// (minimum client error below `client_threshold`) — the lower-right
    /// corner of Fig. 7 that makes biased sampling catastrophic.
    pub fn deceptive_fraction(&self, global_threshold: f64, client_threshold: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let count = self
            .points
            .iter()
            .filter(|p| {
                p.global_error_percent > global_threshold
                    && p.min_client_error_percent < client_threshold
            })
            .count();
        count as f64 / self.points.len() as f64
    }
}

/// Fig. 7 over one trained benchmark: every pooled configuration at
/// (global error, minimum client error). Reads the pool; trains and draws
/// nothing.
pub fn run_min_client_scatter(trained: &TrainedBenchmark) -> MinClientScatter {
    let points = trained
        .pool()
        .entries()
        .iter()
        .map(|e| MinClientPoint {
            global_error_percent: e.full_error * 100.0,
            min_client_error_percent: e.evaluation.min_client_error() * 100.0,
        })
        .collect();
    MinClientScatter {
        benchmark: trained.name().to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{smoke_trained, subsample_rate_grid};
    use feddata::Benchmark;

    #[test]
    fn data_heterogeneity_sweep_shape() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 0);
        let sweep = run_data_heterogeneity(&runner, &trained).unwrap();
        assert_eq!(sweep.series.len(), 3);
        let grid = subsample_rate_grid(10).len();
        for s in &sweep.series {
            assert_eq!(s.points.len(), grid);
        }
        // At full evaluation, heterogeneity has (almost) no effect: the
        // medians across p values must be close to each other.
        let full_medians: Vec<f64> = sweep
            .series
            .iter()
            .map(|s| s.points.last().unwrap().summary.median)
            .collect();
        let spread = fedmath::stats::max(&full_medians).unwrap()
            - fedmath::stats::min(&full_medians).unwrap();
        assert!(
            spread < 25.0,
            "full-evaluation medians should not diverge wildly, spread {spread}"
        );
        assert_eq!(sweep.series[0].name, "p=0");
    }

    #[test]
    fn systems_heterogeneity_sweep_shape() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 1);
        let sweep = run_systems_heterogeneity(&runner, &trained).unwrap();
        assert_eq!(sweep.series.len(), 4);
        assert_eq!(sweep.series[0].name, "b=0");
        assert_eq!(sweep.series[3].name, "b=3");
        // At full evaluation, bias has no effect (all clients are used), so
        // the b=0 and b=3 medians coincide there.
        let full_b0 = sweep.series[0].points.last().unwrap().summary.median;
        let full_b3 = sweep.series[3].points.last().unwrap().summary.median;
        assert!((full_b0 - full_b3).abs() < 10.0);
        assert_eq!(sweep.series[2].name, "b=1.5");
    }

    #[test]
    fn min_client_scatter_shape() {
        let (_, trained) = smoke_trained(Benchmark::Cifar10Like, 2);
        let scatter = run_min_client_scatter(&trained);
        assert_eq!(scatter.points.len(), trained.scale().pool_size);
        for p in &scatter.points {
            // The minimum client error can never exceed the global error by
            // definition of a minimum over clients... it CAN be lower, and it
            // can also be higher than the weighted mean only if weighting
            // differs; sanity-check ranges instead.
            assert!((0.0..=100.0).contains(&p.global_error_percent));
            assert!((0.0..=100.0).contains(&p.min_client_error_percent));
            assert!(p.min_client_error_percent <= p.global_error_percent + 50.0);
        }
        let frac = scatter.deceptive_fraction(0.0, 100.0);
        assert!((0.0..=1.0).contains(&frac));
    }
}
