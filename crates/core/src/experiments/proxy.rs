//! Fig. 10/14 (HP transfer between dataset pairs), Fig. 11 (one-shot proxy
//! RS matrix), and Fig. 12 (proxy tuning vs. noisy evaluation over budget) —
//! all read off the one trained pool per benchmark: the pools hold the same
//! configurations, so a transfer scatter is two pools' error columns side by
//! side and one-shot proxy RS is the RS bootstrap selecting by the *proxy*
//! pool's errors and reporting the *client* pool's.

use crate::engine::TrialRunner;
use crate::experiments::{
    budget_curve, selections, simulated_rs_trajectories, Scores, SeedChannel,
};
use crate::noise::NoiseConfig;
use crate::pool::TrainedBenchmark;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::{CoreError, PrivacyBudget, Result};
use feddata::Benchmark;
use fedmath::stats::QuartileSummary;
use fedmath::SeedTree;
use serde::{Deserialize, Serialize};

/// The dataset pairs of Fig. 10 (same task family) and Fig. 14 (cross
/// family), in the paper's order.
pub const TRANSFER_PAIRS: [(Benchmark, Benchmark); 4] = [
    (Benchmark::Cifar10Like, Benchmark::FemnistLike),
    (Benchmark::StackOverflowLike, Benchmark::RedditLike),
    (Benchmark::Cifar10Like, Benchmark::RedditLike),
    (Benchmark::FemnistLike, Benchmark::StackOverflowLike),
];

/// One configuration evaluated on two datasets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPoint {
    /// Index of the configuration in the evaluated batch.
    pub config_index: usize,
    /// Full-validation error on the first dataset.
    pub error_a: f64,
    /// Full-validation error on the second dataset.
    pub error_b: f64,
}

/// The scatter of Fig. 10/14 plus summary correlations: how well does a
/// configuration's quality on one dataset predict its quality on another?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferAnalysis {
    /// Name of the first dataset.
    pub dataset_a: String,
    /// Name of the second dataset.
    pub dataset_b: String,
    /// Per-configuration error pairs.
    pub points: Vec<TransferPoint>,
    /// Pearson correlation between the two error columns (`None` if either
    /// column is constant).
    pub pearson: Option<f64>,
    /// Spearman rank correlation between the two error columns.
    pub spearman: Option<f64>,
}

impl TransferAnalysis {
    /// Errors on the first dataset, in configuration order.
    pub fn errors_a(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.error_a).collect()
    }

    /// Errors on the second dataset, in configuration order.
    pub fn errors_b(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.error_b).collect()
    }
}

/// The transfer scatter of Fig. 10/14 from the full-validation errors the
/// *same* configurations reached on two datasets (`errors_a[i]` and
/// `errors_b[i]` belong to configuration `i`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the columns are empty or differ
/// in length.
pub fn transfer_analysis(
    dataset_a: &str,
    errors_a: &[f64],
    dataset_b: &str,
    errors_b: &[f64],
) -> Result<TransferAnalysis> {
    if errors_a.is_empty() || errors_a.len() != errors_b.len() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "transfer analysis needs one error per configuration on both datasets, got {} and {}",
                errors_a.len(),
                errors_b.len()
            ),
        });
    }
    let points = errors_a
        .iter()
        .zip(errors_b)
        .enumerate()
        .map(|(config_index, (&error_a, &error_b))| TransferPoint {
            config_index,
            error_a,
            error_b,
        })
        .collect();
    Ok(TransferAnalysis {
        dataset_a: dataset_a.to_string(),
        dataset_b: dataset_b.to_string(),
        points,
        pearson: fedmath::stats::pearson_correlation(errors_a, errors_b).ok(),
        spearman: fedmath::stats::spearman_correlation(errors_a, errors_b).ok(),
    })
}

/// The HP-transfer analysis of Fig. 10/14 over a trained pool set: every
/// pooled configuration (the paper's 128) at its full-validation error on
/// both datasets of every pair.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if `trained` lacks a benchmark of a
/// pair or two pools hold different configurations.
pub fn run_transfer_pairs(trained: &[TrainedBenchmark]) -> Result<Vec<TransferAnalysis>> {
    TRANSFER_PAIRS
        .iter()
        .map(|&(a, b)| {
            let b = TrainedBenchmark::find(trained, b)?;
            let errors_a = b.proxy_scores(TrainedBenchmark::find(trained, a)?)?;
            transfer_analysis(a.name(), &errors_a, b.name(), &b.pool().true_errors())
        })
        .collect()
}

/// One-shot proxy RS over a trained pair (§4): bootstrap
/// `bootstrap_trials` searches of `num_configs` configurations that select
/// by `proxy`'s full-validation error, and summarise the error the selected
/// configuration reached on `client`, in percent. Proxy scores carry no
/// noise, so every (proxy, client) pair replays the same draws and differs
/// only in what the proxy ranks first.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the pools hold different
/// configurations.
pub fn proxy_rs(
    runner: &TrialRunner,
    proxy: &TrainedBenchmark,
    client: &TrainedBenchmark,
) -> Result<QuartileSummary> {
    let scale = client.scale();
    let scores = client.proxy_scores(proxy)?;
    let percents: Vec<f64> = selections(simulated_rs_trajectories(
        runner,
        client.pool(),
        &Scores::Proxy(&scores),
        scale.num_configs,
        scale.bootstrap_trials,
        client.seed(SeedChannel::ProxyRs),
    )?)
    .iter()
    .map(|error| error * 100.0)
    .collect();
    QuartileSummary::from_values(&percents).map_err(CoreError::from)
}

/// One cell of the Fig. 11 matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyMatrixCell {
    /// Proxy dataset used for the search.
    pub proxy: String,
    /// Client dataset the selected configuration was deployed on.
    pub client: String,
    /// Full-validation error on the client dataset over the bootstrap
    /// trials, in percent.
    pub client_error: QuartileSummary,
}

/// The Fig. 11 matrix: one-shot proxy RS for every (proxy, client) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyMatrix {
    /// All cells, grouped by client dataset then proxy dataset.
    pub cells: Vec<ProxyMatrixCell>,
}

impl ProxyMatrix {
    /// Renders the matrix as a report (one series per client dataset, one
    /// point per proxy).
    pub fn to_report(&self) -> ExperimentReport {
        let mut report =
            ExperimentReport::new("fig11", "One-shot proxy RS across dataset pairs (Fig. 11)");
        for row in self.cells.chunk_by(|a, b| a.client == b.client) {
            let points = row
                .iter()
                .enumerate()
                .map(|(i, cell)| SeriesPoint {
                    x: i as f64,
                    x_label: format!("proxy={}", cell.proxy),
                    summary: cell.client_error,
                })
                .collect();
            report.push_group(SeriesGroup {
                name: format!("client={}", row[0].client),
                points,
            });
        }
        report
    }
}

/// Runs the Fig. 11 experiment over a trained pool set: [`proxy_rs`] for
/// every (proxy, client) pair of it.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if two pools hold different
/// configurations.
pub fn run_proxy_matrix(runner: &TrialRunner, trained: &[TrainedBenchmark]) -> Result<ProxyMatrix> {
    let mut cells = Vec::new();
    for client in trained {
        for proxy in trained {
            cells.push(ProxyMatrixCell {
                proxy: proxy.name().to_string(),
                client: client.name().to_string(),
                client_error: proxy_rs(runner, proxy, client)?,
            });
        }
    }
    Ok(ProxyMatrix { cells })
}

/// Fig. 12 for one client benchmark: noisy-RS budget curves at several
/// privacy levels, plus the (budget-independent) one-shot proxy baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyVsNoisy {
    /// The client benchmark.
    pub benchmark: String,
    /// One curve per privacy budget (`eps=1`, `eps=10`, `eps=inf`), each at a
    /// 1% client subsample.
    pub noisy_curves: Vec<SeriesGroup>,
    /// One horizontal reference per proxy dataset: the client error of the
    /// configuration chosen by one-shot proxy RS over the bootstrap trials,
    /// in percent.
    pub proxy_references: Vec<(String, QuartileSummary)>,
}

impl ProxyVsNoisy {
    /// Renders Fig. 12 for this benchmark.
    pub fn to_report(&self) -> ExperimentReport {
        let mut report = ExperimentReport::new(
            "fig12",
            format!(
                "Noisy-evaluation RS vs. one-shot proxy tuning on {} (Fig. 12)",
                self.benchmark
            ),
        );
        for curve in &self.noisy_curves {
            report.push_group(curve.clone());
        }
        for (proxy, error) in &self.proxy_references {
            report.push_note(format!(
                "proxy {proxy}: {:.2}% [{:.2}, {:.2}] client error over {} trials (budget-independent)",
                error.median, error.lower, error.upper, error.count
            ));
        }
        report
    }
}

/// Runs Fig. 12 for one trained client benchmark: RS budget curves under 1%
/// subsampling at ε ∈ {1, 10, ∞} over the client's pool, and the [`proxy_rs`]
/// reference from each of `proxies` (the paper includes the client itself,
/// the "perfect" proxy).
///
/// # Errors
///
/// Propagates noisy-evaluation failures; returns
/// [`CoreError::InvalidConfig`] if a proxy pool holds different
/// configurations.
pub fn run_proxy_vs_noisy(
    runner: &TrialRunner,
    client: &TrainedBenchmark,
    proxies: &[TrainedBenchmark],
) -> Result<ProxyVsNoisy> {
    let subsample = 0.01f64.max(1.0 / client.pool().num_val_clients() as f64);
    let budgets = [
        PrivacyBudget::Finite(1.0),
        PrivacyBudget::Finite(10.0),
        PrivacyBudget::Infinite,
    ];
    let curve_seeds = SeedTree::new(client.seed(SeedChannel::ProxyVsNoisy));
    let noisy_curves = budgets
        .iter()
        .enumerate()
        .map(|(i, &privacy)| {
            budget_curve(
                runner,
                client.pool(),
                client.scale(),
                format!("eps={}", privacy.label()),
                &NoiseConfig::subsampled(subsample).with_privacy(privacy),
                curve_seeds.child(i as u64).seed(),
            )
        })
        .collect::<Result<_>>()?;
    let proxy_references = proxies
        .iter()
        .map(|proxy| Ok((proxy.name().to_string(), proxy_rs(runner, proxy, client)?)))
        .collect::<Result<_>>()?;
    Ok(ProxyVsNoisy {
        benchmark: client.name().to_string(),
        noisy_curves,
        proxy_references,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::BenchmarkContext;
    use crate::scale::ExperimentScale;
    use feddata::Split;
    use fedhpo::HpConfig;
    use fedsim::evaluation::evaluate_full;
    use fedsim::WeightingScheme;

    fn smoke_set(seed: u64) -> (TrialRunner, Vec<TrainedBenchmark>) {
        let runner = TrialRunner::from_env();
        let set = TrainedBenchmark::train_all(&runner, &ExperimentScale::smoke(), seed).unwrap();
        (runner, set)
    }

    #[test]
    fn proxy_matrix_smoke() {
        let (runner, trained) = smoke_set(0);
        let scale = ExperimentScale::smoke();
        let matrix = run_proxy_matrix(&runner, &trained).unwrap();
        assert_eq!(matrix.cells.len(), 16);
        for cell in &matrix.cells {
            assert!((0.0..=100.0).contains(&cell.client_error.median));
            assert_eq!(cell.client_error.count, scale.bootstrap_trials);
        }
        // Trial for trial, no proxy can beat selecting by the client's own
        // errors: the diagonal is each row's floor.
        for client in &trained {
            let row = || matrix.cells.iter().filter(|c| c.client == client.name());
            let own = row().find(|c| c.proxy == client.name()).unwrap();
            assert!(row().all(|c| own.client_error.median <= c.client_error.median));
        }
        let report = matrix.to_report();
        assert_eq!(report.groups.len(), 4);
        assert!(report.groups.iter().all(|g| g.points.len() == 4));
        assert!(report.to_table().contains("proxy="));
    }

    #[test]
    fn transfer_within_the_same_task_family_is_positive() {
        // CIFAR10-like and FEMNIST-like are both dense-classification tasks;
        // the paper finds HPs transfer well within a family. With a handful
        // of very different configurations the rank correlation should be
        // positive.
        let configs = [
            HpConfig::new(vec![1e-6, 0.0, 0.0, 0.9999, 1e-6, 0.0, 5e-5, 128.0, 1.0]),
            HpConfig::new(vec![1e-5, 0.3, 0.5, 0.9999, 1e-4, 0.3, 5e-5, 64.0, 1.0]),
            HpConfig::new(vec![1e-3, 0.6, 0.9, 0.9999, 1e-2, 0.5, 5e-5, 32.0, 1.0]),
            HpConfig::new(vec![3e-2, 0.9, 0.99, 0.9999, 5e-2, 0.7, 5e-5, 32.0, 1.0]),
        ];
        let errors_on = |benchmark: Benchmark| -> Vec<f64> {
            let ctx = BenchmarkContext::new(benchmark, &ExperimentScale::smoke(), 0).unwrap();
            let weighting = WeightingScheme::ByExamples;
            configs
                .iter()
                .enumerate()
                .map(|(i, config)| {
                    let mut run = ctx.start_run(config, i as u64, weighting).unwrap();
                    run.run_rounds(ctx.dataset(), 15).unwrap();
                    evaluate_full(run.model(), ctx.dataset(), Split::Validation, weighting)
                        .unwrap()
                        .weighted_error()
                        .unwrap()
                })
                .collect()
        };
        let cifar = errors_on(Benchmark::Cifar10Like);
        let femnist = errors_on(Benchmark::FemnistLike);
        let analysis = transfer_analysis("cifar10-like", &cifar, "femnist-like", &femnist).unwrap();
        assert_eq!(analysis.points.len(), 4);
        assert_eq!(analysis.errors_a(), cifar);
        assert_eq!(analysis.errors_b(), femnist);
        if let Some(s) = analysis.spearman {
            assert!(s > 0.0, "expected positive rank correlation, got {s}");
        }
    }

    #[test]
    fn empty_or_ragged_columns_are_rejected() {
        assert!(transfer_analysis("a", &[], "b", &[]).is_err());
        assert!(transfer_analysis("a", &[0.1, 0.2], "b", &[0.1]).is_err());
    }

    #[test]
    fn constant_columns_have_no_correlation() {
        let analysis = transfer_analysis("a", &[0.5, 0.5, 0.5], "b", &[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(analysis.pearson, None);
        assert_eq!(analysis.points[2].config_index, 2);
    }

    #[test]
    fn transfer_pairs_smoke() {
        let (_, trained) = smoke_set(1);
        let analyses = run_transfer_pairs(&trained).unwrap();
        assert_eq!(analyses.len(), 4);
        assert_eq!(analyses[0].dataset_a, "cifar10-like");
        assert_eq!(analyses[0].dataset_b, "femnist-like");
        for a in &analyses {
            // One point per pooled configuration, not per searched one.
            assert_eq!(a.points.len(), ExperimentScale::smoke().pool_size);
        }
        assert_eq!(analyses[0].errors_a(), trained[0].pool().true_errors());
        assert_eq!(analyses[1].dataset_a, "stackoverflow-like");
        assert_eq!(analyses[1].dataset_b, "reddit-like");
    }

    #[test]
    fn pools_with_different_configurations_are_rejected_not_zipped() {
        let (runner, mut trained) = smoke_set(1);
        trained[1] = TrainedBenchmark::train(
            &runner,
            Benchmark::FemnistLike,
            &ExperimentScale::smoke(),
            2,
        )
        .unwrap();
        let invalid = |e: CoreError| matches!(e, CoreError::InvalidConfig { .. });
        assert!(invalid(run_transfer_pairs(&trained).unwrap_err()));
        assert!(invalid(run_proxy_matrix(&runner, &trained).unwrap_err()));
        assert!(invalid(
            run_proxy_vs_noisy(&runner, &trained[0], &trained).unwrap_err()
        ));
        // A set missing a benchmark of a pair is an error too.
        assert!(invalid(run_transfer_pairs(&trained[..1]).unwrap_err()));
    }

    #[test]
    fn proxy_vs_noisy_smoke() {
        let (runner, trained) = smoke_set(2);
        let scale = ExperimentScale::smoke();
        let result = run_proxy_vs_noisy(&runner, &trained[0], &trained).unwrap();
        assert_eq!(result.benchmark, "cifar10-like");
        assert_eq!(result.noisy_curves.len(), 3);
        assert_eq!(result.proxy_references.len(), 4);
        for curve in &result.noisy_curves {
            assert_eq!(curve.points.len(), scale.num_configs);
        }
        // The self-proxy (tuning on the client dataset itself without noise)
        // is among the proxies reported, every reference over every trial.
        assert_eq!(result.proxy_references[0].0, "cifar10-like");
        for (_, reference) in &result.proxy_references {
            assert_eq!(reference.count, scale.bootstrap_trials);
        }
        let report = result.to_report();
        assert!(report.to_table().contains("eps=inf"));
        assert!(report.to_table().contains("proxy"));
    }
}
