//! Fig. 10/14 (HP transfer between dataset pairs), Fig. 11 (one-shot proxy
//! RS matrix), and Fig. 12 (proxy tuning vs. noisy evaluation over budget).

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::simulated_rs_trajectory;
use crate::noise::NoiseConfig;
use crate::pool::ConfigPool;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::Result;
use feddata::Benchmark;
use feddp::PrivacyBudget;
use fedmath::stats::QuartileSummary;
use fedmath::SeedStream;
use fedproxy::{transfer_analysis, OneShotProxy, TransferAnalysis};
use serde::{Deserialize, Serialize};

/// The dataset pairs of Fig. 10 (same task family) and Fig. 14 (cross
/// family), in the paper's order.
pub const TRANSFER_PAIRS: [(Benchmark, Benchmark); 4] = [
    (Benchmark::Cifar10Like, Benchmark::FemnistLike),
    (Benchmark::StackOverflowLike, Benchmark::RedditLike),
    (Benchmark::Cifar10Like, Benchmark::RedditLike),
    (Benchmark::FemnistLike, Benchmark::StackOverflowLike),
];

/// Runs the HP-transfer analysis of Fig. 10/14: the same configurations are
/// trained and evaluated independently on both datasets of every pair.
///
/// The number of configurations per pair follows `scale.num_configs` (the
/// paper uses 128; use [`ExperimentScale::paper`] to match).
///
/// # Errors
///
/// Propagates training failures.
pub fn run_transfer_pairs(scale: &ExperimentScale, seed: u64) -> Result<Vec<TransferAnalysis>> {
    let mut seeds = SeedStream::new(fedmath::rng::derive_seed(seed, 9));
    let mut analyses = Vec::new();
    for &(a, b) in &TRANSFER_PAIRS {
        let ctx_a = BenchmarkContext::new(a, scale, seed)?;
        let ctx_b = BenchmarkContext::new(b, scale, seed)?;
        let mut sample_rng = seeds.next_rng();
        let configs = ctx_a
            .space()
            .sample_many(scale.num_configs, &mut sample_rng)?;
        let analysis = transfer_analysis(
            ctx_a.dataset(),
            &ctx_a.config_runner(),
            ctx_b.dataset(),
            &ctx_b.config_runner(),
            &configs,
            seeds.next_seed(),
        )?;
        analyses.push(analysis);
    }
    Ok(analyses)
}

/// Renders the transfer scatters as a report (one row per configuration, plus
/// correlation notes).
pub fn transfer_report(analyses: &[TransferAnalysis]) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig10",
        "Hyperparameter transfer between dataset pairs (Fig. 10 and Fig. 14)",
    );
    for analysis in analyses {
        let points = analysis
            .points
            .iter()
            .map(|p| SeriesPoint {
                x: p.error_a * 100.0,
                x_label: format!("{:.1}% on {}", p.error_a * 100.0, analysis.dataset_a),
                summary: QuartileSummary {
                    lower: p.error_b * 100.0,
                    median: p.error_b * 100.0,
                    upper: p.error_b * 100.0,
                    count: 1,
                },
            })
            .collect();
        report.push_group(SeriesGroup {
            name: format!("{} vs {}", analysis.dataset_a, analysis.dataset_b),
            points,
        });
        report.push_note(format!(
            "{} vs {}: pearson = {:?}, spearman = {:?}",
            analysis.dataset_a, analysis.dataset_b, analysis.pearson, analysis.spearman
        ));
    }
    report
}

/// One cell of the Fig. 11 matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyMatrixCell {
    /// Proxy dataset used for the search.
    pub proxy: String,
    /// Client dataset the selected configuration was deployed on.
    pub client: String,
    /// Full-validation error on the client dataset, in percent.
    pub client_error_percent: f64,
    /// Full-validation error on the proxy dataset, in percent.
    pub proxy_error_percent: f64,
}

/// The Fig. 11 matrix: one-shot proxy RS for every (proxy, client) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyMatrix {
    /// All cells, grouped by client dataset then proxy dataset.
    pub cells: Vec<ProxyMatrixCell>,
}

impl ProxyMatrix {
    /// The best proxy for a given client dataset (lowest client error).
    pub fn best_proxy_for(&self, client: &str) -> Option<&ProxyMatrixCell> {
        self.cells
            .iter()
            .filter(|c| c.client == client)
            .min_by(|a, b| {
                a.client_error_percent
                    .partial_cmp(&b.client_error_percent)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Renders the matrix as a report (one series per client dataset, one
    /// point per proxy).
    pub fn to_report(&self) -> ExperimentReport {
        let mut report =
            ExperimentReport::new("fig11", "One-shot proxy RS across dataset pairs (Fig. 11)");
        let clients: Vec<String> = {
            let mut seen = Vec::new();
            for c in &self.cells {
                if !seen.contains(&c.client) {
                    seen.push(c.client.clone());
                }
            }
            seen
        };
        for client in clients {
            let points = self
                .cells
                .iter()
                .filter(|c| c.client == client)
                .enumerate()
                .map(|(i, c)| SeriesPoint {
                    x: i as f64,
                    x_label: format!("proxy={}", c.proxy),
                    summary: QuartileSummary {
                        lower: c.client_error_percent,
                        median: c.client_error_percent,
                        upper: c.client_error_percent,
                        count: 1,
                    },
                })
                .collect();
            report.push_group(SeriesGroup {
                name: format!("client={client}"),
                points,
            });
        }
        report
    }
}

/// Runs the Fig. 11 experiment: for every (proxy, client) pair of the four
/// benchmarks, run one-shot proxy RS (`K` configurations searched on the
/// proxy, a single configuration deployed on the client).
///
/// # Errors
///
/// Propagates training failures.
pub fn run_proxy_matrix(scale: &ExperimentScale, seed: u64) -> Result<ProxyMatrix> {
    let mut seeds = SeedStream::new(fedmath::rng::derive_seed(seed, 10));
    let contexts: Vec<BenchmarkContext> = Benchmark::ALL
        .iter()
        .map(|&b| BenchmarkContext::new(b, scale, seed))
        .collect::<Result<_>>()?;
    let pipeline = OneShotProxy::new(scale.num_configs);
    let mut cells = Vec::new();
    for client_ctx in &contexts {
        for proxy_ctx in &contexts {
            let outcome = pipeline.run(
                proxy_ctx.dataset(),
                &proxy_ctx.config_runner(),
                client_ctx.dataset(),
                &client_ctx.config_runner(),
                seeds.next_seed(),
            )?;
            cells.push(ProxyMatrixCell {
                proxy: proxy_ctx.benchmark().name().to_string(),
                client: client_ctx.benchmark().name().to_string(),
                client_error_percent: outcome.client_error * 100.0,
                proxy_error_percent: outcome.proxy_error * 100.0,
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
    /// configuration chosen by one-shot proxy RS, in percent.
    pub proxy_references: Vec<(String, f64)>,
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
                "proxy {proxy}: {error:.2}% client error (budget-independent)"
            ));
        }
        report
    }
}

/// Runs Fig. 12 for one client benchmark. The noisy curves reuse a
/// configuration pool trained on `runner` (RS trajectories under 1%
/// subsampling and the given ε, replayed in seed-stream order);
/// the proxy references run one-shot proxy RS from each of the other three
/// benchmarks (and the benchmark itself, matching the paper's inclusion of
/// the "perfect" proxy).
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_proxy_vs_noisy(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<ProxyVsNoisy> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let mut seeds = SeedStream::new(fedmath::rng::derive_seed(seed, 11));
    let pool = ConfigPool::train(runner, &ctx, scale.pool_size, seeds.next_seed())?;

    // Noisy RS curves at 1% subsample for eps in {1, 10, inf}.
    let subsample = 0.01f64.max(1.0 / ctx.dataset().num_val_clients() as f64);
    let budgets: [(&str, PrivacyBudget); 3] = [
        ("eps=1", PrivacyBudget::Finite(1.0)),
        ("eps=10", PrivacyBudget::Finite(10.0)),
        ("eps=inf", PrivacyBudget::Infinite),
    ];
    let mut noisy_curves = Vec::new();
    for (label, privacy) in budgets {
        let noise = NoiseConfig::subsampled(subsample).with_privacy(privacy);
        let mut per_step: Vec<Vec<f64>> = vec![Vec::new(); scale.num_configs];
        for _ in 0..scale.bootstrap_trials {
            let mut rng = seeds.next_rng();
            let trajectory = simulated_rs_trajectory(
                &pool,
                &noise,
                scale.num_configs,
                scale.num_configs,
                &mut rng,
            )?;
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
        noisy_curves.push(SeriesGroup {
            name: label.to_string(),
            points,
        });
    }

    // Proxy references from every benchmark (including the client itself).
    let pipeline = OneShotProxy::new(scale.num_configs);
    let mut proxy_references = Vec::new();
    for &proxy in &Benchmark::ALL {
        let proxy_ctx = BenchmarkContext::new(proxy, scale, seed)?;
        let outcome = pipeline.run(
            proxy_ctx.dataset(),
            &proxy_ctx.config_runner(),
            ctx.dataset(),
            &ctx.config_runner(),
            seeds.next_seed(),
        )?;
        proxy_references.push((proxy.name().to_string(), outcome.client_error * 100.0));
    }

    Ok(ProxyVsNoisy {
        benchmark: benchmark.name().to_string(),
        noisy_curves,
        proxy_references,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_matrix_smoke() {
        let scale = ExperimentScale::smoke();
        let matrix = run_proxy_matrix(&scale, 0).unwrap();
        assert_eq!(matrix.cells.len(), 16);
        for cell in &matrix.cells {
            assert!((0.0..=100.0).contains(&cell.client_error_percent));
            assert!((0.0..=100.0).contains(&cell.proxy_error_percent));
        }
        let best = matrix.best_proxy_for("cifar10-like").unwrap();
        assert_eq!(best.client, "cifar10-like");
        let report = matrix.to_report();
        assert_eq!(report.groups.len(), 4);
        assert!(report.to_table().contains("proxy="));
    }

    #[test]
    fn transfer_pairs_smoke() {
        let mut scale = ExperimentScale::smoke();
        scale.num_configs = 3;
        let analyses = run_transfer_pairs(&scale, 1).unwrap();
        assert_eq!(analyses.len(), 4);
        assert_eq!(analyses[0].dataset_a, "cifar10-like");
        assert_eq!(analyses[0].dataset_b, "femnist-like");
        for a in &analyses {
            assert_eq!(a.points.len(), 3);
        }
        let report = transfer_report(&analyses);
        assert!(report
            .to_table()
            .contains("stackoverflow-like vs reddit-like"));
    }

    #[test]
    fn proxy_vs_noisy_smoke() {
        let scale = ExperimentScale::smoke();
        let result =
            run_proxy_vs_noisy(&TrialRunner::from_env(), Benchmark::Cifar10Like, &scale, 2)
                .unwrap();
        assert_eq!(result.noisy_curves.len(), 3);
        assert_eq!(result.proxy_references.len(), 4);
        for curve in &result.noisy_curves {
            assert_eq!(curve.points.len(), scale.num_configs);
        }
        // The self-proxy (tuning on the client dataset itself without noise)
        // should be among the proxies reported.
        assert!(result
            .proxy_references
            .iter()
            .any(|(name, _)| name == "cifar10-like"));
        let report = result.to_report();
        assert!(report.to_table().contains("eps=inf"));
        assert!(report.to_table().contains("proxy"));
    }
}
