//! Fig. 4 (data heterogeneity), Fig. 6 (systems heterogeneity), and
//! Fig. 7 (global error vs. minimum client error).

use crate::engine::TrialRunner;
use crate::experiments::{rate_sweep, single, SeedChannel};
use crate::noise::NoiseConfig;
use crate::pool::{validation_pool_with_iid_fraction, ConfigPool, TrainedBenchmark};
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::Result;
use fedmath::{SeedStream, SeedTree};

/// Runs Fig. 4 over one trained benchmark: the validation pool is
/// repartitioned towards iid-ness with fraction `p ∈ {0, 0.5, 1}` (training
/// data untouched, §3.2), the trained configurations are re-evaluated on each
/// partition, and the RS bootstrap is repeated across subsampling rates — one
/// series per `p`, named `"<benchmark> p=<p>"`.
///
/// # Errors
///
/// Propagates repartitioning and evaluation failures.
pub fn run_data_heterogeneity(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
    report: &mut ExperimentReport,
) -> Result<()> {
    let mut seeds = SeedStream::new(trained.seed(SeedChannel::DataHeterogeneity));
    for &p in &[0.0, 0.5, 1.0] {
        let mut partition_rng = seeds.next_rng();
        let val_clients = validation_pool_with_iid_fraction(trained.ctx(), p, &mut partition_rng)?;
        let reevaluated = trained.pool().reevaluate_on(runner, &val_clients)?;
        report.push_group(SeriesGroup {
            name: format!("{} p={p}", trained.name()),
            points: rate_sweep(
                runner,
                &reevaluated,
                trained.scale(),
                NoiseConfig::subsampled,
                |_| seeds.next_seed(),
            )?,
        });
    }
    Ok(())
}

/// Runs Fig. 6 over one trained benchmark: evaluation-client sampling is
/// biased towards clients on which the evaluated model performs well, with
/// weight `(a + δ)^b` — one series per bias exponent `b = 0, 1, 1.5, 3`,
/// named `"<benchmark> b=<b>"`.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn run_systems_heterogeneity(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
    report: &mut ExperimentReport,
) -> Result<()> {
    // Common random numbers across bias series: each rate's trial seed is
    // derived from the rate's position only, so every `b` replays the same
    // bootstrap draws. This reduces cross-series variance and makes the
    // series *exactly* coincide at full evaluation, where bias cannot matter.
    let rate_seeds = SeedTree::new(trained.seed(SeedChannel::SystemsHeterogeneity));
    for &bias in &[0.0, 1.0, 1.5, 3.0] {
        report.push_group(SeriesGroup {
            name: format!("{} b={bias}", trained.name()),
            points: rate_sweep(
                runner,
                trained.pool(),
                trained.scale(),
                |rate| NoiseConfig::subsampled(rate).with_systems_bias(bias),
                |rate_idx| rate_seeds.child(rate_idx as u64).seed(),
            )?,
        });
    }
    Ok(())
}

/// Fraction of `pool`'s configurations with poor global performance
/// (full-validation error above `global_threshold` percent) but excellent
/// performance on at least one client (minimum client error below
/// `client_threshold` percent) — the lower-right corner of Fig. 7 that makes
/// biased sampling catastrophic.
pub fn deceptive_fraction(pool: &ConfigPool, global_threshold: f64, client_threshold: f64) -> f64 {
    let entries = pool.entries();
    if entries.is_empty() {
        return 0.0;
    }
    let count = entries
        .iter()
        .filter(|e| {
            e.full_error * 100.0 > global_threshold
                && e.evaluation.min_client_error() * 100.0 < client_threshold
        })
        .count();
    count as f64 / entries.len() as f64
}

/// Fig. 7 over one trained benchmark: the percentage of
/// [`deceptive_fraction`] configurations (poor above 60 %, a client below
/// 20 %) as a one-point series `"<benchmark> deceptive"`, then one point per
/// pooled configuration at (global error, minimum client error), in
/// percent, as the series `"<benchmark>"`. Reads the pool; trains and draws
/// nothing.
pub fn run_min_client_scatter(trained: &TrainedBenchmark, report: &mut ExperimentReport) {
    report.push_group(single(
        format!("{} deceptive", trained.name()),
        60.0,
        "% poor (>60%) with a client <20%",
        deceptive_fraction(trained.pool(), 60.0, 20.0) * 100.0,
    ));
    let points = trained.pool().entries().iter().map(|e| {
        let global = e.full_error * 100.0;
        SeriesPoint::single(
            global,
            format!("{global:.1}% global"),
            e.evaluation.min_client_error() * 100.0,
        )
    });
    report.push_group(SeriesGroup {
        name: trained.name().to_string(),
        points: points.collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{subsample_rate_grid, tests::smoke_trained};
    use feddata::Benchmark;

    #[test]
    fn data_heterogeneity_sweep_shape() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 0);
        let mut sweep = ExperimentReport::default();
        run_data_heterogeneity(&runner, &trained, &mut sweep).unwrap();
        assert_eq!(sweep.groups.len(), 3);
        let grid = subsample_rate_grid(10).len();
        for s in &sweep.groups {
            assert_eq!(s.points.len(), grid);
        }
        // At full evaluation, heterogeneity has (almost) no effect: the
        // medians across p values must be close to each other.
        let full_medians: Vec<f64> = sweep
            .groups
            .iter()
            .map(|s| s.points.last().unwrap().summary.median)
            .collect();
        let spread = fedmath::stats::max(&full_medians).unwrap()
            - fedmath::stats::min(&full_medians).unwrap();
        assert!(
            spread < 25.0,
            "full-evaluation medians should not diverge wildly, spread {spread}"
        );
        assert_eq!(sweep.groups[0].name, "cifar10-like p=0");
    }

    #[test]
    fn systems_heterogeneity_sweep_shape() {
        let (runner, trained) = smoke_trained(Benchmark::Cifar10Like, 1);
        let mut sweep = ExperimentReport::default();
        run_systems_heterogeneity(&runner, &trained, &mut sweep).unwrap();
        assert_eq!(sweep.groups.len(), 4);
        assert_eq!(sweep.groups[0].name, "cifar10-like b=0");
        assert_eq!(sweep.groups[3].name, "cifar10-like b=3");
        // At full evaluation, bias has no effect (all clients are used), so
        // the b=0 and b=3 medians coincide there.
        let full_b0 = sweep.groups[0].points.last().unwrap().summary.median;
        let full_b3 = sweep.groups[3].points.last().unwrap().summary.median;
        assert!((full_b0 - full_b3).abs() < 10.0);
        assert_eq!(sweep.groups[2].name, "cifar10-like b=1.5");
    }

    #[test]
    fn min_client_scatter_shape() {
        let (_, trained) = smoke_trained(Benchmark::Cifar10Like, 2);
        let mut report = ExperimentReport::default();
        run_min_client_scatter(&trained, &mut report);
        let [deceptive, scatter] = &report.groups[..] else {
            panic!("a deceptive fraction and a scatter: {report:?}")
        };
        assert_eq!(deceptive.name, "cifar10-like deceptive");
        assert_eq!(scatter.points.len(), trained.scale().pool_size);
        for p in &scatter.points {
            // The minimum client error can never exceed the global error by
            // definition of a minimum over clients... it CAN be lower, and it
            // can also be higher than the weighted mean only if weighting
            // differs; sanity-check ranges instead.
            let (global, min_client) = (p.x, p.summary.median);
            assert!((0.0..=100.0).contains(&global));
            assert!((0.0..=100.0).contains(&min_client));
            assert!(min_client <= global + 50.0);
        }
        let frac = deceptive_fraction(trained.pool(), 0.0, 100.0);
        assert!((0.0..=1.0).contains(&frac));
        assert_eq!(
            deceptive.points[0].summary.median,
            deceptive_fraction(trained.pool(), 60.0, 20.0) * 100.0
        );
    }
}
