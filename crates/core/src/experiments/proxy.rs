//! Fig. 10/14 (HP transfer between dataset pairs), Fig. 11 (one-shot proxy
//! RS matrix), and Fig. 12 (proxy tuning vs. noisy evaluation over budget) —
//! all read off the one trained pool per benchmark: the pools hold the same
//! configurations, so a transfer scatter is two pools' error columns side by
//! side and one-shot proxy RS is the RS bootstrap selecting by the *proxy*
//! pool's errors and reporting the *client* pool's.

use crate::engine::TrialRunner;
use crate::experiments::figures::headed;
use crate::experiments::{
    budget_curve, selections, simulated_rs_trajectories, single, Scores, SeedChannel,
};
use crate::noise::NoiseConfig;
use crate::pool::TrainedBenchmark;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::{CoreError, PrivacyBudget, Result};
use feddata::Benchmark;
use fedmath::stats::QuartileSummary;
use fedmath::SeedTree;

/// The dataset pairs of Fig. 10 (same task family) and Fig. 14 (cross
/// family), in the paper's order.
pub const TRANSFER_PAIRS: [(Benchmark, Benchmark); 4] = [
    (Benchmark::Cifar10Like, Benchmark::FemnistLike),
    (Benchmark::StackOverflowLike, Benchmark::RedditLike),
    (Benchmark::Cifar10Like, Benchmark::RedditLike),
    (Benchmark::FemnistLike, Benchmark::StackOverflowLike),
];

/// The transfer scatter of Fig. 10/14 from the full-validation errors the
/// *same* configurations reached on two datasets (`errors_a[i]` and
/// `errors_b[i]` belong to configuration `i`): pushes the series
/// `"<a> vs <b>"`, one point per configuration at its two errors in percent,
/// then each correlation between the columns that exists (a constant column
/// has none) as a one-point series `"<a> vs <b> pearson"` / `"… spearman"`.
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
    report: &mut ExperimentReport,
) -> Result<()> {
    if errors_a.is_empty() || errors_a.len() != errors_b.len() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "transfer analysis needs one error per configuration on both datasets, got {} and {}",
                errors_a.len(),
                errors_b.len()
            ),
        });
    }
    let points = errors_a.iter().zip(errors_b).map(|(&error_a, &error_b)| {
        SeriesPoint::single(
            error_a * 100.0,
            format!("{:.1}% on {dataset_a}", error_a * 100.0),
            error_b * 100.0,
        )
    });
    report.push_group(SeriesGroup {
        name: format!("{dataset_a} vs {dataset_b}"),
        points: points.collect(),
    });
    for (name, value) in [
        (
            "pearson",
            fedmath::stats::pearson_correlation(errors_a, errors_b),
        ),
        (
            "spearman",
            fedmath::stats::spearman_correlation(errors_a, errors_b),
        ),
    ] {
        if let Ok(value) = value {
            report.push_group(single(
                format!("{dataset_a} vs {dataset_b} {name}"),
                0.0,
                "correlation",
                value,
            ));
        }
    }
    Ok(())
}

/// The HP-transfer analysis of Fig. 10/14 over a trained pool set: every
/// pooled configuration (the paper's 128) at its full-validation error on
/// both datasets of every pair of [`TRANSFER_PAIRS`], in order.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if `trained` lacks a benchmark of a
/// pair or two pools hold different configurations.
pub fn run_transfer_pairs(
    trained: &[TrainedBenchmark],
    report: &mut ExperimentReport,
) -> Result<()> {
    for &(a, b) in &TRANSFER_PAIRS {
        let b = TrainedBenchmark::find(trained, b)?;
        let errors_a = b.proxy_scores(TrainedBenchmark::find(trained, a)?)?;
        transfer_analysis(
            a.name(),
            &errors_a,
            b.name(),
            &b.pool().true_errors(),
            report,
        )?;
    }
    Ok(())
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

/// Runs the Fig. 11 experiment over a trained pool set: [`proxy_rs`] for
/// every (proxy, client) pair of it — one series `"client=<name>"` per client
/// benchmark, one point `"proxy=<name>"` per proxy, in set order.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if two pools hold different
/// configurations.
pub fn run_proxy_matrix(
    runner: &TrialRunner,
    trained: &[TrainedBenchmark],
) -> Result<ExperimentReport> {
    let mut report = headed("fig11");
    for client in trained {
        let points = trained.iter().enumerate().map(|(i, proxy)| {
            Ok(SeriesPoint {
                x: i as f64,
                x_label: format!("proxy={}", proxy.name()),
                summary: proxy_rs(runner, proxy, client)?,
            })
        });
        report.push_group(SeriesGroup {
            name: format!("client={}", client.name()),
            points: points.collect::<Result<_>>()?,
        });
    }
    Ok(report)
}

/// Runs Fig. 12 for one trained client benchmark: RS budget curves under 1%
/// subsampling at ε ∈ {1, 10, ∞} over the client's pool (series `"eps=1"`,
/// `"eps=10"`, `"eps=inf"`), and the budget-independent [`proxy_rs`]
/// reference from each of `proxies` as a one-point series `"proxy <name>"`
/// (the paper includes the client itself, the "perfect" proxy).
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
) -> Result<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig12",
        format!(
            "Noisy-evaluation RS vs. one-shot proxy tuning on {} (Fig. 12)",
            client.name()
        ),
    );
    let subsample = 0.01f64.max(1.0 / client.pool().num_val_clients() as f64);
    let budgets = [
        PrivacyBudget::Finite(1.0),
        PrivacyBudget::Finite(10.0),
        PrivacyBudget::Infinite,
    ];
    let curve_seeds = SeedTree::new(client.seed(SeedChannel::ProxyVsNoisy));
    for (i, &privacy) in budgets.iter().enumerate() {
        report.push_group(budget_curve(
            runner,
            client.pool(),
            client.scale(),
            format!("eps={}", privacy.label()),
            &NoiseConfig::subsampled(subsample).with_privacy(privacy),
            curve_seeds.child(i as u64).seed(),
        )?);
    }
    for proxy in proxies {
        report.push_group(SeriesGroup {
            name: format!("proxy {}", proxy.name()),
            points: vec![SeriesPoint {
                x: 0.0,
                x_label: "any budget".into(),
                summary: proxy_rs(runner, proxy, client)?,
            }],
        });
    }
    Ok(report)
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
        let report = run_proxy_matrix(&runner, &trained).unwrap();
        assert_eq!(report.groups.len(), 4);
        assert!(report.groups.iter().all(|g| g.points.len() == 4));
        for cell in report.groups.iter().flat_map(|g| &g.points) {
            assert!((0.0..=100.0).contains(&cell.summary.median));
            assert_eq!(cell.summary.count, scale.bootstrap_trials);
        }
        // Trial for trial, no proxy can beat selecting by the client's own
        // errors: the diagonal is each row's floor.
        for client in &trained {
            let row = report
                .groups
                .iter()
                .find(|g| g.name == format!("client={}", client.name()))
                .unwrap();
            let own = row
                .points
                .iter()
                .find(|p| p.x_label == format!("proxy={}", client.name()))
                .unwrap();
            assert!(row
                .points
                .iter()
                .all(|p| own.summary.median <= p.summary.median));
        }
        assert!(report.to_table().contains("proxy="));
    }

    /// The report `transfer_analysis` pushes for two columns, or its error.
    fn transfer(errors_a: &[f64], errors_b: &[f64]) -> Result<ExperimentReport> {
        let mut report = ExperimentReport::default();
        transfer_analysis("a", errors_a, "b", errors_b, &mut report)?;
        Ok(report)
    }

    /// The one-point series `name` of `report`, if it has one.
    fn statistic(report: &ExperimentReport, name: &str) -> Option<f64> {
        let group = report.groups.iter().find(|g| g.name == name)?;
        Some(group.points[0].summary.median)
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
        let mut report = ExperimentReport::default();
        transfer_analysis(
            "cifar10-like",
            &cifar,
            "femnist-like",
            &femnist,
            &mut report,
        )
        .unwrap();
        let scatter = &report.groups[0];
        assert_eq!(scatter.name, "cifar10-like vs femnist-like");
        assert_eq!(scatter.points.len(), 4);
        let percent = |errors: &[f64]| errors.iter().map(|e| e * 100.0).collect::<Vec<_>>();
        let xs: Vec<f64> = scatter.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = scatter.points.iter().map(|p| p.summary.median).collect();
        assert_eq!(xs, percent(&cifar));
        assert_eq!(ys, percent(&femnist));
        if let Some(s) = statistic(&report, "cifar10-like vs femnist-like spearman") {
            assert!(s > 0.0, "expected positive rank correlation, got {s}");
        }
    }

    #[test]
    fn empty_or_ragged_columns_are_rejected() {
        assert!(transfer(&[], &[]).is_err());
        assert!(transfer(&[0.1, 0.2], &[0.1]).is_err());
    }

    #[test]
    fn constant_columns_have_no_correlation() {
        let report = transfer(&[0.5, 0.5, 0.5], &[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(statistic(&report, "a vs b pearson"), None);
        assert_eq!(report.groups[0].points[2].summary.median, 0.3 * 100.0);
    }

    #[test]
    fn transfer_pairs_smoke() {
        let (_, trained) = smoke_set(1);
        let mut report = ExperimentReport::default();
        run_transfer_pairs(&trained, &mut report).unwrap();
        let scatters: Vec<_> = report
            .groups
            .iter()
            .filter(|g| !g.name.ends_with("pearson") && !g.name.ends_with("spearman"))
            .collect();
        assert_eq!(scatters.len(), 4);
        assert_eq!(scatters[0].name, "cifar10-like vs femnist-like");
        for scatter in &scatters {
            // One point per pooled configuration, not per searched one.
            assert_eq!(scatter.points.len(), ExperimentScale::smoke().pool_size);
        }
        let xs: Vec<f64> = scatters[0].points.iter().map(|p| p.x).collect();
        let own: Vec<f64> = trained[0].pool().true_errors();
        assert_eq!(xs, own.iter().map(|e| e * 100.0).collect::<Vec<_>>());
        assert_eq!(scatters[1].name, "stackoverflow-like vs reddit-like");
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
        let transfer_pairs =
            |set: &[TrainedBenchmark]| run_transfer_pairs(set, &mut ExperimentReport::default());
        assert!(invalid(transfer_pairs(&trained).unwrap_err()));
        assert!(invalid(run_proxy_matrix(&runner, &trained).unwrap_err()));
        assert!(invalid(
            run_proxy_vs_noisy(&runner, &trained[0], &trained).unwrap_err()
        ));
        // A set missing a benchmark of a pair is an error too.
        assert!(invalid(transfer_pairs(&trained[..1]).unwrap_err()));
    }

    #[test]
    fn proxy_vs_noisy_smoke() {
        let (runner, trained) = smoke_set(2);
        let scale = ExperimentScale::smoke();
        let report = run_proxy_vs_noisy(&runner, &trained[0], &trained).unwrap();
        assert!(report.title.contains("on cifar10-like"), "{}", report.title);
        let (curves, references) = report.groups.split_at(3);
        assert_eq!(references.len(), 4);
        for curve in curves {
            assert!(curve.name.starts_with("eps="), "{}", curve.name);
            assert_eq!(curve.points.len(), scale.num_configs);
        }
        // The self-proxy (tuning on the client dataset itself without noise)
        // is among the proxies reported, every reference over every trial.
        assert_eq!(references[0].name, "proxy cifar10-like");
        for reference in references {
            assert_eq!(reference.points.len(), 1);
            assert_eq!(reference.points[0].summary.count, scale.bootstrap_trials);
        }
        assert!(report.to_table().contains("eps=inf"));
        assert!(report.to_table().contains("proxy"));
    }
}
