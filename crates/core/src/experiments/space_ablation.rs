//! Fig. 13 (Appendix C): the interaction between search-space size and noisy
//! evaluation. Enlarging the server-learning-rate range helps in the
//! noiseless setting but can hurt when evaluation is noisy.

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::{simulated_rs_trials, SeedChannel};
use crate::noise::NoiseConfig;
use crate::pool::ConfigPool;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::{PrivacyBudget, Result};
use feddata::Benchmark;
use fedhpo::SearchSpace;
use fedmath::SeedStream;

/// Runs Fig. 13: for each nested server-lr interval width `w ∈ {1, 2, 3, 4}`,
/// train a pool of configurations sampled from that space and compare RS
/// selection over the *whole* pool (the paper's `K = 128`) under noiseless
/// evaluation against selection under single-client, ε = 10 evaluation.
/// The report has one series per setting, `"<benchmark> noiseless"` and
/// `"<benchmark> noisy"`, one point per width.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_space_ablation(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<ExperimentReport> {
    let mut seeds = SeedStream::new(SeedChannel::SpaceAblation.seed(seed));
    let mut noiseless_points = Vec::new();
    let mut noisy_points = Vec::new();
    let base = BenchmarkContext::new(benchmark, scale, seed)?;
    for width in 1u32..=4 {
        let space = SearchSpace::paper_nested_lr_space(width)?;
        let ctx = base.clone().with_space(space);
        let pool = ConfigPool::train(runner, &ctx, scale.pool_size, seeds.next_seed())?;
        let k = pool.len();

        // Noiseless evaluation over the whole pool always selects the best
        // configuration; sampling noise comes only from the pool itself.
        let noiseless_errors = simulated_rs_trials(
            runner,
            &pool,
            &NoiseConfig::noiseless(),
            k,
            k,
            scale.bootstrap_trials,
            seeds.next_seed(),
        )?;
        noiseless_points.push(SeriesPoint::from_error_rates(
            width as f64,
            format!("width {width}"),
            &noiseless_errors,
        )?);

        // Noisy evaluation: a single validation client and ε = 10.
        let single_client = 1.0 / ctx.dataset().num_val_clients() as f64;
        let noise =
            NoiseConfig::subsampled(single_client).with_privacy(PrivacyBudget::Finite(10.0));
        let noisy_errors = simulated_rs_trials(
            runner,
            &pool,
            &noise,
            k,
            k,
            scale.bootstrap_trials,
            seeds.next_seed(),
        )?;
        noisy_points.push(SeriesPoint::from_error_rates(
            width as f64,
            format!("width {width}"),
            &noisy_errors,
        )?);
    }
    let mut report = ExperimentReport::new(
        "fig13",
        format!(
            "Search-space size under noisy evaluation on {} (Fig. 13)",
            benchmark.name()
        ),
    );
    report.push_group(SeriesGroup {
        name: format!("{} noiseless", benchmark.name()),
        points: noiseless_points,
    });
    report.push_group(SeriesGroup {
        name: format!("{} noisy", benchmark.name()),
        points: noisy_points,
    });
    report.push_note("x = log10(eta_max / eta_min) of the server learning-rate interval");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_ablation_smoke() {
        let scale = ExperimentScale::smoke();
        let report =
            run_space_ablation(&TrialRunner::from_env(), Benchmark::Cifar10Like, &scale, 0)
                .unwrap();
        let [noiseless, noisy] = &report.groups[..] else {
            panic!("a noiseless and a noisy series: {report:?}")
        };
        assert_eq!(noiseless.points.len(), 4);
        assert_eq!(noisy.points.len(), 4);
        for (clean, noisy) in noiseless.points.iter().zip(noisy.points.iter()) {
            // Noisy selection can never beat noiseless selection in the median
            // (both select from the same pool; noiseless always picks the best).
            assert!(noisy.summary.median + 1e-9 >= clean.summary.median);
        }
        assert!(report.to_table().contains("width 4"));
        assert!(report.to_table().contains("noisy"));
    }
}
