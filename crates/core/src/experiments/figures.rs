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
//! | `fig03`, `fig05` | [`run_subsampling_sweep`], [`run_budget_curves`] | pools |
//! | `fig04`, `fig06`, `fig07` | [`run_data_heterogeneity`], [`run_systems_heterogeneity`], [`run_min_client_scatter`] | pools |
//! | `fig08`, `fig15`, `fig16` | [`MethodComparison`]'s online curves and bars | comparison |
//! | `fig09` | [`run_privacy_sweep`] | pools |
//! | `fig10` (also Fig. 14), `fig11`, `fig12` | [`run_transfer_pairs`], [`run_proxy_matrix`], [`run_proxy_vs_noisy`] | pools |
//! | `fig13` | [`run_space_ablation`] | scale, seed (trains its own four pools) |
//!
//! A report the table assembles across benchmarks (Figs. 3–7, 9, 10) is
//! headed by its entry's title; a typed result that renders itself names the
//! benchmark or budget it was computed at in its own header.

use crate::engine::TrialRunner;
use crate::experiments::heterogeneity::{
    run_data_heterogeneity, run_min_client_scatter, run_systems_heterogeneity,
};
use crate::experiments::methods::{
    paper_noise_settings, run_headline, run_method_comparison, MethodComparison, TuningMethod,
};
use crate::experiments::privacy::run_privacy_sweep;
use crate::experiments::proxy::{run_proxy_matrix, run_proxy_vs_noisy, run_transfer_pairs};
use crate::experiments::space_ablation::run_space_ablation;
use crate::experiments::subsampling::{run_budget_curves, run_subsampling_sweep};
use crate::experiments::table1::DatasetTable;
use crate::pool::TrainedBenchmark;
use crate::report::{BenchmarkSeries, ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::Result;
use feddata::Benchmark;
use fedmath::stats::QuartileSummary;
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
            let headline = run_headline(inputs.runner, &paper_methods, inputs.pools()?)?;
            Ok(vec![headline.to_report()])
        },
    },
    Figure {
        id: "fig03",
        title: "Random search under evaluation-client subsampling (Fig. 3)",
        draw: fig03,
    },
    Figure {
        id: "fig04",
        title:
            "Data heterogeneity: RS under subsampling on repartitioned validation pools (Fig. 4)",
        draw: |inputs| series_figure(inputs, "fig04", " ", run_data_heterogeneity),
    },
    Figure {
        id: "fig05",
        title: "RS performance vs. training budget under subsampling (Fig. 5)",
        draw: |inputs| series_figure(inputs, "fig05", " @ ", run_budget_curves),
    },
    Figure {
        id: "fig06",
        title: "Systems heterogeneity: accuracy-biased client sampling (Fig. 6)",
        draw: |inputs| series_figure(inputs, "fig06", " ", run_systems_heterogeneity),
    },
    Figure {
        id: "fig07",
        title: "Global error vs. minimum client error per configuration (Fig. 7)",
        draw: fig07,
    },
    Figure {
        id: "fig08",
        title: "Online performance of the tuning methods on CIFAR10-like (Fig. 8)",
        draw: |inputs| Ok(vec![inputs.comparison()?.to_online_report()?]),
    },
    Figure {
        id: "fig09",
        title: "Differential privacy: RS under Laplace-perturbed evaluation (Fig. 9)",
        draw: |inputs| series_figure(inputs, "fig09", " ", run_privacy_sweep),
    },
    Figure {
        id: "fig10",
        title: "Hyperparameter transfer between dataset pairs (Fig. 10 and Fig. 14)",
        draw: fig10,
    },
    Figure {
        id: "fig11",
        title: "One-shot proxy RS across dataset pairs (Fig. 11)",
        draw: |inputs| {
            Ok(vec![
                run_proxy_matrix(inputs.runner, inputs.pools()?)?.to_report()
            ])
        },
    },
    Figure {
        id: "fig12",
        title: "Noisy-evaluation RS vs. one-shot proxy tuning, per benchmark (Fig. 12)",
        draw: |inputs| {
            let pools = inputs.pools()?;
            pools
                .iter()
                .map(|client| Ok(run_proxy_vs_noisy(inputs.runner, client, pools)?.to_report()))
                .collect()
        },
    },
    Figure {
        id: "fig13",
        title: "Search-space size under noisy evaluation on CIFAR10-like (Fig. 13)",
        draw: |inputs| {
            let ablation = run_space_ablation(
                inputs.runner,
                Benchmark::Cifar10Like,
                inputs.scale,
                inputs.seed,
            )?;
            Ok(vec![ablation.to_report()])
        },
    },
    Figure {
        id: "fig15",
        title: "Method comparison at one third of the budget on CIFAR10-like (Fig. 15)",
        draw: |inputs| {
            let third = (inputs.scale.total_budget / 3).max(1);
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
fn headed(id: &str) -> ExperimentReport {
    let title = find(id).map_or("", |figure| figure.title);
    ExperimentReport::new(id.replacen("fig0", "fig", 1), title)
}

/// A scatter row: `y` at `x`, a single observation.
fn scatter_point(x: f64, x_label: String, y: f64) -> SeriesPoint {
    SeriesPoint {
        x,
        x_label,
        summary: QuartileSummary {
            lower: y,
            median: y,
            upper: y,
            count: 1,
        },
    }
}

/// The shape Figs. 4, 5, 6 and 9 share: `run` over every trained benchmark,
/// each series named `"<benchmark><sep><series>"`.
fn series_figure(
    inputs: &FigureInputs<'_>,
    id: &str,
    sep: &str,
    run: fn(&TrialRunner, &TrainedBenchmark) -> Result<BenchmarkSeries>,
) -> Result<Vec<ExperimentReport>> {
    let mut report = headed(id);
    for trained in inputs.pools()? {
        let BenchmarkSeries { benchmark, series } = run(inputs.runner, trained)?;
        for group in series {
            report.push_group(SeriesGroup {
                name: format!("{benchmark}{sep}{}", group.name),
                points: group.points,
            });
        }
    }
    Ok(vec![report])
}

fn fig03(inputs: &FigureInputs<'_>) -> Result<Vec<ExperimentReport>> {
    let mut report = headed("fig03");
    for trained in inputs.pools()? {
        let sweep = run_subsampling_sweep(inputs.runner, trained)?;
        report.push_note(format!(
            "{}: best HPs (full evaluation) = {:.2}%",
            sweep.benchmark, sweep.best_hps_percent
        ));
        report.push_group(SeriesGroup {
            name: sweep.benchmark,
            points: sweep.points,
        });
    }
    Ok(vec![report])
}

/// Fig. 7: each pooled configuration becomes one row.
fn fig07(inputs: &FigureInputs<'_>) -> Result<Vec<ExperimentReport>> {
    let mut report = headed("fig07");
    for trained in inputs.pools()? {
        let scatter = run_min_client_scatter(trained);
        report.push_note(format!(
            "{}: {:.0}% of configurations are globally poor (>60% error) yet have a client below 20% error",
            scatter.benchmark,
            scatter.deceptive_fraction(60.0, 20.0) * 100.0
        ));
        let points = scatter.points.iter().map(|p| {
            scatter_point(
                p.global_error_percent,
                format!("{:.1}% global", p.global_error_percent),
                p.min_client_error_percent,
            )
        });
        let points = points.collect();
        report.push_group(SeriesGroup {
            name: scatter.benchmark,
            points,
        });
    }
    Ok(vec![report])
}

/// Fig. 10 / 14: one row per configuration and pair, plus correlation notes.
fn fig10(inputs: &FigureInputs<'_>) -> Result<Vec<ExperimentReport>> {
    let mut report = headed("fig10");
    for analysis in run_transfer_pairs(inputs.pools()?)? {
        let (a, b) = (&analysis.dataset_a, &analysis.dataset_b);
        let points = analysis.points.iter().map(|p| {
            scatter_point(
                p.error_a * 100.0,
                format!("{:.1}% on {a}", p.error_a * 100.0),
                p.error_b * 100.0,
            )
        });
        report.push_group(SeriesGroup {
            name: format!("{a} vs {b}"),
            points: points.collect(),
        });
        report.push_note(format!(
            "{a} vs {b}: pearson = {:?}, spearman = {:?}",
            analysis.pearson, analysis.spearman
        ));
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
        for (id, header, series) in [
            ("fig03", "== fig3 — Random search under", "cifar10-like"),
            ("fig04", "== fig4 — Data heterogeneity", "reddit-like p=0.5"),
            ("fig05", "== fig5 — RS performance", "femnist-like @ 100%"),
            (
                "fig06",
                "== fig6 — Systems heterogeneity",
                "cifar10-like b=1.5",
            ),
            ("fig07", "== fig7 — Global error", "% global"),
            (
                "fig09",
                "== fig9 — Differential privacy",
                "cifar10-like eps=inf",
            ),
            (
                "fig10",
                "== fig10 — Hyperparameter transfer",
                "stackoverflow-like vs reddit-like",
            ),
        ] {
            let reports = (find(id).unwrap().draw)(&inputs).unwrap();
            assert_eq!(reports.len(), 1, "{id}");
            let table = reports[0].to_table();
            assert!(table.starts_with(header), "{id}: {table}");
            assert!(table.contains(series), "{id}: {table}");
        }
        assert!(find("fig02").is_none());
    }
}
