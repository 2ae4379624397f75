//! The experiment index as a table: [`FIGURES`] has one [`Figure`] per
//! artefact of the paper, and [`FigureInputs`] is the one place that builds
//! what they are drawn from for reporting — the trained pool set
//! ([`TrainedBenchmark::train_all`]) and the CIFAR10-like method comparison
//! ([`run_method_comparison`] over [`TuningMethod::EXTENDED`]), each built the
//! first time a figure asks for it and at most once. A caller loops over the
//! table (or [`find`]s entries by id) and never needs to know which figure
//! reads which input.
//!
//! | id | drawn by | from |
//! |---|---|---|
//! | `table1` | [`DatasetTable::generate`] | scale, seed |
//! | `fig01` | [`run_headline`] | comparison (the paper's four methods) + pools |
//! | `fig03`, `fig05` | [`run_subsampling_sweep`], [`run_budget_curves`] per benchmark | pools |
//! | `fig04`, `fig06`, `fig07` | [`run_data_heterogeneity`], [`run_systems_heterogeneity`], [`run_min_client_scatter`] per benchmark | pools |
//! | `fig08`, `fig15`, `fig16` | [`MethodComparison`]'s online curves and bars | comparison |
//! | `fig09` | [`run_privacy_sweep`] per benchmark, then each pool's mean | pools |
//! | `fig10` (also Fig. 14), `fig11`, `fig12` | [`run_transfer_pairs`], [`run_proxy_matrix`], [`run_proxy_vs_noisy`] (a report per client benchmark) | pools |
//! | `fig13` | [`run_space_ablation`] | scale, seed (trains its own four pools) |
//! | `pop` | [`run_population_noise_with`] (§3.1, N up to 1e6) | scale, seed (trains its own grid) |
//! | `weighting` | example-weighted vs. uniform error rank correlation | pools |
//!
//! A report the table assembles across benchmarks (Figs. 3–7, 9, 10) is
//! headed by its entry's title, and its runner pushes one benchmark's (or,
//! for Fig. 10, every pair's) named series into it. A runner whose report
//! carries the entry's own title (Figs. 1, 11, and the tables) heads it with
//! `headed` too; one that names the benchmark or budget it was computed at
//! (Figs. 8, 12, 13, 15, 16) writes its own header.

use crate::engine::TrialRunner;
use crate::experiments::heterogeneity::{
    run_data_heterogeneity, run_min_client_scatter, run_systems_heterogeneity,
};
use crate::experiments::methods::{
    one_third_budget, paper_noise_settings, run_headline, run_method_comparison, MethodComparison,
    TuningMethod,
};
use crate::experiments::population::{run_population_noise_with, PopulationExperimentScale};
use crate::experiments::privacy::run_privacy_sweep;
use crate::experiments::proxy::{run_proxy_matrix, run_proxy_vs_noisy, run_transfer_pairs};
use crate::experiments::single;
use crate::experiments::space_ablation::run_space_ablation;
use crate::experiments::subsampling::{run_budget_curves, run_subsampling_sweep};
use crate::experiments::table1::DatasetTable;
use crate::pool::TrainedBenchmark;
use crate::report::ExperimentReport;
use crate::scale::ExperimentScale;
use crate::Result;
use feddata::Benchmark;
use std::cell::OnceCell;

/// One artefact of the paper: its id (what `full_report` takes on its
/// command line), its title, and how to draw it.
pub struct Figure {
    /// `table1`, `fig01`, `fig03` … `fig16`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Draws the artefact's reports (one, or one per benchmark for Fig. 12)
    /// from `inputs`, which trains or runs what the figure needs unless an
    /// earlier figure already did.
    pub draw: fn(&FigureInputs<'_>) -> Result<Vec<ExperimentReport>>,
}

/// Every table and figure of the paper's evaluation: the dataset tables, then
/// the figures by number.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "table1",
        title: "Dataset statistics (Tables 1-2)",
        draw: |inputs| {
            Ok(vec![
                DatasetTable::generate(inputs.scale, inputs.seed)?.to_report()
            ])
        },
    },
    Figure {
        id: "fig01",
        title: "Headline: tuning methods under noise vs. proxy RS on CIFAR10-like (Fig. 1)",
        draw: |inputs| {
            let paper_methods = inputs.comparison()?.only(&TuningMethod::ALL);
            Ok(vec![run_headline(
                inputs.runner,
                &paper_methods,
                inputs.pools()?,
            )?])
        },
    },
    Figure {
        id: "fig03",
        title: "Random search under evaluation-client subsampling (Fig. 3)",
        draw: |inputs| per_benchmark(inputs, "fig03", run_subsampling_sweep),
    },
    Figure {
        id: "fig04",
        title:
            "Data heterogeneity: RS under subsampling on repartitioned validation pools (Fig. 4)",
        draw: |inputs| per_benchmark(inputs, "fig04", run_data_heterogeneity),
    },
    Figure {
        id: "fig05",
        title: "RS performance vs. training budget under subsampling (Fig. 5)",
        draw: |inputs| per_benchmark(inputs, "fig05", run_budget_curves),
    },
    Figure {
        id: "fig06",
        title: "Systems heterogeneity: accuracy-biased client sampling (Fig. 6)",
        draw: |inputs| per_benchmark(inputs, "fig06", run_systems_heterogeneity),
    },
    Figure {
        id: "fig07",
        title: "Global error vs. minimum client error per configuration (Fig. 7)",
        draw: |inputs| {
            per_benchmark(inputs, "fig07", |_, trained, report| {
                run_min_client_scatter(trained, report);
                Ok(())
            })
        },
    },
    Figure {
        id: "fig08",
        title: "Online performance of the tuning methods on CIFAR10-like (Fig. 8)",
        draw: |inputs| Ok(vec![inputs.comparison()?.to_online_report()?]),
    },
    Figure {
        id: "fig09",
        title: "Differential privacy: RS under Laplace-perturbed evaluation (Fig. 9)",
        draw: fig09,
    },
    Figure {
        id: "fig10",
        title: "Hyperparameter transfer between dataset pairs (Fig. 10 and Fig. 14)",
        draw: |inputs| {
            let mut report = headed("fig10");
            run_transfer_pairs(inputs.pools()?, &mut report)?;
            Ok(vec![report])
        },
    },
    Figure {
        id: "fig11",
        title: "One-shot proxy RS across dataset pairs (Fig. 11)",
        draw: |inputs| Ok(vec![run_proxy_matrix(inputs.runner, inputs.pools()?)?]),
    },
    Figure {
        id: "fig12",
        title: "Noisy-evaluation RS vs. one-shot proxy tuning, per benchmark (Fig. 12)",
        draw: |inputs| {
            let pools = inputs.pools()?;
            pools
                .iter()
                .map(|client| run_proxy_vs_noisy(inputs.runner, client, pools))
                .collect()
        },
    },
    Figure {
        id: "fig13",
        title: "Search-space size under noisy evaluation on CIFAR10-like (Fig. 13)",
        draw: |inputs| {
            Ok(vec![run_space_ablation(
                inputs.runner,
                Benchmark::Cifar10Like,
                inputs.scale,
                inputs.seed,
            )?])
        },
    },
    Figure {
        id: "fig15",
        title: "Method comparison at one third of the budget on CIFAR10-like (Fig. 15)",
        draw: |inputs| {
            let third = one_third_budget(inputs.scale);
            Ok(vec![inputs.comparison()?.to_bars_report("fig15", third)?])
        },
    },
    Figure {
        id: "fig16",
        title: "Method comparison at the full budget on CIFAR10-like (Fig. 16)",
        draw: |inputs| {
            let budget = inputs.scale.total_budget;
            Ok(vec![inputs
                .comparison()?
                .to_bars_report("fig16", budget)?])
        },
    },
    Figure {
        id: "pop",
        title: "Subsampling noise vs. cohort size at population scale (§3.1)",
        draw: |inputs| {
            let scale = if inputs.scale.data_scale == feddata::Scale::Smoke {
                PopulationExperimentScale::smoke()
            } else {
                PopulationExperimentScale::paper_story()
            };
            let result = run_population_noise_with(
                inputs.runner,
                Benchmark::Cifar10Like,
                &scale,
                inputs.seed,
            )?;
            Ok(result.to_reports())
        },
    },
    Figure {
        id: "weighting",
        title: "Example-weighted vs. uniform evaluation: rank agreement over each pool",
        draw: weighting,
    },
];

/// The entry of [`FIGURES`] with this id.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|figure| figure.id == id)
}

/// What the figures of one report are drawn from: a runner, a scale and a
/// seed, plus the two expensive inputs derived from them, built on first
/// request and then shared by every later figure.
pub struct FigureInputs<'a> {
    runner: &'a TrialRunner,
    scale: &'a ExperimentScale,
    seed: u64,
    pools: OnceCell<Vec<TrainedBenchmark>>,
    comparison: OnceCell<MethodComparison>,
}

impl<'a> FigureInputs<'a> {
    /// Inputs that have trained and run nothing yet.
    pub fn new(runner: &'a TrialRunner, scale: &'a ExperimentScale, seed: u64) -> Self {
        FigureInputs {
            runner,
            scale,
            seed,
            pools: OnceCell::new(),
            comparison: OnceCell::new(),
        }
    }

    /// The one trained pool per benchmark behind every RS figure.
    fn pools(&self) -> Result<&[TrainedBenchmark]> {
        once(&self.pools, || {
            TrainedBenchmark::train_all(self.runner, self.scale, self.seed)
        })
        .map(Vec::as_slice)
    }

    /// The one live comparison behind Figs. 1 / 8 / 15 / 16: every extended
    /// method on CIFAR10-like, noiseless vs. the paper's noisy setting.
    fn comparison(&self) -> Result<&MethodComparison> {
        once(&self.comparison, || {
            run_method_comparison(
                self.runner,
                Benchmark::Cifar10Like,
                self.scale,
                &TuningMethod::EXTENDED,
                &paper_noise_settings(),
                self.seed,
            )
        })
    }
}

/// The cell's value, built by `build` if nothing has yet; a failed build
/// leaves the cell empty.
fn once<T>(cell: &OnceCell<T>, build: impl FnOnce() -> Result<T>) -> Result<&T> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = build()?;
    Ok(cell.get_or_init(|| value))
}

/// An empty report under `id`'s table entry. The header keeps the paper's
/// own numbering (`fig3` for entry `fig03`), which is what these reports
/// have always printed.
pub(crate) fn headed(id: &str) -> ExperimentReport {
    let title = find(id).map_or("", |figure| figure.title);
    ExperimentReport::new(id.replacen("fig0", "fig", 1), title)
}

/// The shape Figs. 3–7 and 9 share: `id`'s report, into which `run` pushes
/// every trained benchmark's series in turn.
fn per_benchmark(
    inputs: &FigureInputs<'_>,
    id: &str,
    run: fn(&TrialRunner, &TrainedBenchmark, &mut ExperimentReport) -> Result<()>,
) -> Result<Vec<ExperimentReport>> {
    let mut report = headed(id);
    for trained in inputs.pools()? {
        run(inputs.runner, trained, &mut report)?;
    }
    Ok(vec![report])
}

/// Fig. 9, plus each benchmark's random-choice reference: the pool's mean
/// true error, what a selection that ignores its scores expects.
fn fig09(inputs: &FigureInputs<'_>) -> Result<Vec<ExperimentReport>> {
    let mut reports = per_benchmark(inputs, "fig09", run_privacy_sweep)?;
    for trained in inputs.pools()? {
        let pool_mean = fedmath::stats::mean(&trained.pool().true_errors()) * 100.0;
        reports[0].push_group(single(
            format!("{} random choice", trained.name()),
            0.0,
            "pool mean",
            pool_mean,
        ));
    }
    Ok(reports)
}

/// The weighting ablation over the trained pools: the Spearman correlation
/// between each configuration's example-weighted error (the default
/// objective) and its uniformly weighted one (the objective under DP). A
/// benchmark whose errors admit no ranking draws no series.
fn weighting(inputs: &FigureInputs<'_>) -> Result<Vec<ExperimentReport>> {
    let mut report = headed("weighting");
    for trained in inputs.pools()? {
        let pool = trained.pool();
        let uniform: Vec<f64> = pool
            .entries()
            .iter()
            .map(|entry| {
                let per_client = entry.evaluation.per_client();
                fedmath::stats::mean(&per_client.iter().map(|c| c.error_rate).collect::<Vec<_>>())
            })
            .collect();
        if let Ok(rho) = fedmath::stats::spearman_correlation(&pool.true_errors(), &uniform) {
            report.push_group(single(
                format!("{} spearman", trained.name()),
                0.0,
                "weighted vs uniform",
                rho,
            ));
        }
    }
    Ok(vec![report])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembled_reports_are_headed_by_their_entry() {
        let runner = TrialRunner::from_env();
        let scale = ExperimentScale::smoke();
        let inputs = FigureInputs::new(&runner, &scale, 0);
        for (id, header, series, count) in [
            (
                "table1",
                "== table1 — Dataset statistics (Tables 1-2) ==\n",
                &["femnist-like"][..],
                1,
            ),
            (
                "fig03",
                "== fig3 — Random search under",
                &["cifar10-like"],
                1,
            ),
            (
                "fig04",
                "== fig4 — Data heterogeneity",
                &["reddit-like p=0.5"],
                1,
            ),
            (
                "fig05",
                "== fig5 — RS performance",
                &["femnist-like @ 100%"],
                1,
            ),
            (
                "fig06",
                "== fig6 — Systems heterogeneity",
                &["cifar10-like b=1.5"],
                1,
            ),
            (
                "fig07",
                "== fig7 — Global error",
                &["% global", "femnist-like deceptive"],
                1,
            ),
            (
                "fig09",
                "== fig9 — Differential privacy",
                &["cifar10-like eps=inf", "reddit-like random choice"],
                1,
            ),
            (
                "fig10",
                "== fig10 — Hyperparameter transfer",
                &[
                    "stackoverflow-like vs reddit-like",
                    "cifar10-like vs femnist-like pearson",
                    "cifar10-like vs femnist-like spearman",
                ],
                1,
            ),
            (
                "fig11",
                "== fig11 — One-shot proxy RS across dataset pairs (Fig. 11) ==\n",
                &["client=reddit-like"],
                1,
            ),
            (
                "fig12",
                "== fig12 — Noisy-evaluation RS vs. one-shot proxy tuning on cifar10-like",
                &["eps=1", "proxy cifar10-like", "proxy reddit-like"],
                4,
            ),
            (
                "pop",
                "== pop — Subsampling noise",
                &["spearman", "noise variance"],
                1,
            ),
            (
                "weighting",
                "== weighting — Example-weighted",
                &["cifar10-like spearman"],
                1,
            ),
        ] {
            let reports = (find(id).unwrap().draw)(&inputs).unwrap();
            assert_eq!(reports.len(), count, "{id}");
            let table = reports[0].to_table();
            assert!(table.starts_with(header), "{id}: {table}");
            for series in series {
                assert!(table.contains(series), "{id} lacks {series}: {table}");
            }
        }
        assert!(find("fig02").is_none());
    }

    #[test]
    fn figs_1_and_15_read_their_bars_at_one_budget() {
        // Two configurations of 6 rounds: a third of the 12-round budget is
        // 4 rounds, less than one configuration, so both read theirs at 6.
        let scale = ExperimentScale {
            num_configs: 2,
            total_budget: 12,
            ..ExperimentScale::smoke()
        };
        scale.validate().unwrap();
        assert_eq!(one_third_budget(&scale), scale.rounds_per_config);
        let runner = TrialRunner::from_env();
        let inputs = FigureInputs::new(&runner, &scale, 0);
        for id in ["fig01", "fig15"] {
            let reports = (find(id).unwrap().draw)(&inputs).unwrap();
            let points = reports[0].groups.iter().flat_map(|g| &g.points);
            let labels: Vec<&str> = points.map(|p| p.x_label.as_str()).collect();
            assert!(!labels.is_empty(), "{id}");
            assert!(labels.iter().all(|&l| l == "6 rounds"), "{id}: {labels:?}");
        }
    }
}
