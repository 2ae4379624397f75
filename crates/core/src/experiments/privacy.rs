//! Fig. 9: the effect of the differential-privacy budget ε on random search,
//! across evaluation-client subsampling rates.

use crate::engine::TrialRunner;
use crate::experiments::{rate_sweep, SeedChannel};
use crate::noise::NoiseConfig;
use crate::pool::TrainedBenchmark;
use crate::report::{ExperimentReport, SeriesGroup};
use crate::{PrivacyBudget, Result};
use fedmath::SeedStream;

/// The ε grid of Fig. 9.
pub const PRIVACY_GRID: [PrivacyBudget; 5] = [
    PrivacyBudget::Finite(0.1),
    PrivacyBudget::Finite(1.0),
    PrivacyBudget::Finite(10.0),
    PrivacyBudget::Finite(100.0),
    PrivacyBudget::Infinite,
];

/// Runs Fig. 9 over one trained benchmark: random search where every
/// evaluation is an ε-DP release of the subsampled validation accuracy
/// (uniform weighting, Laplace noise of scale `M / (ε |S|)` with `M = K`
/// evaluations per tuning run) — one series per ε of [`PRIVACY_GRID`],
/// named `"<benchmark> eps=<value>"` or `"<benchmark> eps=inf"`.
///
/// # Errors
///
/// Propagates noisy-evaluation failures.
pub fn run_privacy_sweep(
    runner: &TrialRunner,
    trained: &TrainedBenchmark,
    report: &mut ExperimentReport,
) -> Result<()> {
    let mut seeds = SeedStream::new(trained.seed(SeedChannel::Privacy));
    for budget in PRIVACY_GRID {
        report.push_group(SeriesGroup {
            name: format!("{} eps={}", trained.name(), budget.label()),
            points: rate_sweep(
                runner,
                trained.pool(),
                trained.scale(),
                |rate| NoiseConfig::subsampled(rate).with_privacy(budget),
                |_| seeds.next_seed(),
            )?,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{subsample_rate_grid, tests::smoke_trained};

    #[test]
    fn privacy_sweep_shape_and_ordering() {
        let (runner, trained) = smoke_trained(feddata::Benchmark::Cifar10Like, 0);
        let mut report = ExperimentReport::default();
        run_privacy_sweep(&runner, &trained, &mut report).unwrap();
        let sweep = &report.groups;
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0].name, "cifar10-like eps=0.1");
        assert_eq!(sweep[4].name, "cifar10-like eps=inf");
        let grid_len = subsample_rate_grid(10).len();
        for s in sweep {
            assert_eq!(s.points.len(), grid_len);
        }
        // Strict privacy with a single client should be no better than
        // non-private evaluation with a single client (medians compared).
        let strict_single = sweep[0].points[0].summary.median;
        let nonprivate_single = sweep[4].points[0].summary.median;
        assert!(strict_single + 1e-9 >= nonprivate_single - 20.0);
        // At ε = 0.1 with one client, selection should be close to random:
        // its median error is far above the non-private full-evaluation one.
        let strict = sweep[0].points[0].summary.median;
        let nonprivate_full = sweep[4].points.last().unwrap().summary.median;
        assert!(
            strict >= nonprivate_full - 1e-9,
            "strict DP ({strict}) should not beat non-private full evaluation ({nonprivate_full})"
        );
    }
}
