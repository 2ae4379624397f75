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
use crate::Result;
use feddata::Benchmark;
use feddp::PrivacyBudget;
use fedhpo::SearchSpace;
use fedmath::SeedStream;
use serde::{Deserialize, Serialize};

/// Fig. 13 for one benchmark: noiseless vs. noisy selection error as a
/// function of the (log-) width of the server-learning-rate search interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceAblation {
    /// Benchmark the ablation was run on.
    pub benchmark: String,
    /// Selection error under noiseless evaluation, one point per width.
    pub noiseless: Vec<SeriesPoint>,
    /// Selection error under noisy evaluation (single-client subsample,
    /// ε = 10), one point per width.
    pub noisy: Vec<SeriesPoint>,
}

impl SpaceAblation {
    /// Renders Fig. 13 for this benchmark.
    pub fn to_report(&self) -> ExperimentReport {
        let mut report = ExperimentReport::new(
            "fig13",
            format!(
                "Search-space size under noisy evaluation on {} (Fig. 13)",
                self.benchmark
            ),
        );
        report.push_group(SeriesGroup {
            name: format!("{} noiseless", self.benchmark),
            points: self.noiseless.clone(),
        });
        report.push_group(SeriesGroup {
            name: format!("{} noisy", self.benchmark),
            points: self.noisy.clone(),
        });
        report.push_note("x = log10(eta_max / eta_min) of the server learning-rate interval");
        report
    }
}

/// Runs Fig. 13: for each nested server-lr interval width `w ∈ {1, 2, 3, 4}`,
/// train a pool of configurations sampled from that space and compare RS
/// selection over the *whole* pool (the paper's `K = 128`) under noiseless
/// evaluation against selection under single-client, ε = 10 evaluation.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_space_ablation(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<SpaceAblation> {
    let mut seeds = SeedStream::new(SeedChannel::SpaceAblation.seed(seed));
    let mut noiseless_points = Vec::new();
    let mut noisy_points = Vec::new();
    for width in 1u32..=4 {
        let space = SearchSpace::paper_nested_lr_space(width)?;
        let ctx = BenchmarkContext::new(benchmark, scale, seed)?.with_space(space);
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
    Ok(SpaceAblation {
        benchmark: benchmark.name().to_string(),
        noiseless: noiseless_points,
        noisy: noisy_points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_ablation_smoke() {
        let scale = ExperimentScale::smoke();
        let ablation =
            run_space_ablation(&TrialRunner::from_env(), Benchmark::Cifar10Like, &scale, 0)
                .unwrap();
        assert_eq!(ablation.noiseless.len(), 4);
        assert_eq!(ablation.noisy.len(), 4);
        for (clean, noisy) in ablation.noiseless.iter().zip(ablation.noisy.iter()) {
            // Noisy selection can never beat noiseless selection in the median
            // (both select from the same pool; noiseless always picks the best).
            assert!(noisy.summary.median + 1e-9 >= clean.summary.median);
        }
        let report = ablation.to_report();
        assert!(report.to_table().contains("width 4"));
        assert!(report.to_table().contains("noisy"));
    }
}
