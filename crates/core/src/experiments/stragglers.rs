//! The **straggler scenario**: synchronous SHA vs asynchronous ASHA under
//! heavy-tailed client runtimes.
//!
//! The paper's systems-heterogeneity story (§3.2) is about *bias* — slow
//! clients drop out of evaluation. This scenario models the other half of
//! systems noise: slow clients make *training rounds* slow, and a
//! rung-synchronous ladder stalls every worker at the barrier until the
//! slowest trial of the rung finishes. The virtual clock
//! ([`Clock::Virtual`]) makes that cost measurable in simulated
//! wall-clock and lets asynchronous ASHA demonstrate its point: promote on
//! completion, keep every worker busy, and reach a given accuracy sooner.
//!
//! Both ladders are identical ([`TuningMethod::Asha`] vs
//! [`TuningMethod::AsyncAsha`]); only the driver/scheduler handshake differs,
//! so any throughput gap is attributable to the barrier.

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::methods::TuningMethod;
use crate::experiments::SeedChannel;
use crate::noise::NoiseConfig;
use crate::objective::{
    selected_true_error_within_sim, BatchFederatedObjective, ObjectiveLogEntry,
};
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::scheduler::{drive, Clock, Drive, VirtualExecution};
use crate::Result;
use feddata::Benchmark;
use fedsim::clock::{ClientRuntimeModel, CostModel};
use serde::{Deserialize, Serialize};

/// The heavy-tailed client-runtime model the scenario runs under: a
/// population ten times the per-round cohort with Pareto `α = 1.1` speeds,
/// so a few clients are dramatic stragglers. Shared by every method in one
/// comparison (same `seed` ⇒ same clients), which is what makes the sync vs
/// async gap attributable to the rung barrier alone.
pub fn straggler_cost_model(scale: &ExperimentScale, seed: u64) -> CostModel {
    CostModel::HeterogeneousClients(ClientRuntimeModel::heavy_tailed(
        scale.clients_per_round * 10,
        scale.clients_per_round,
        SeedChannel::StragglerCostModel.seed(seed),
    ))
}

/// One event-driven campaign of the straggler comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StragglerRun {
    /// Method name (`"ASHA"` or `"ASHA-ASYNC"`).
    pub method: String,
    /// Virtual workers of the simulated tuning service.
    pub workers: usize,
    /// The objective log in evaluation order, entries stamped with their
    /// simulated completion times.
    pub log: Vec<ObjectiveLogEntry>,
    /// Simulated wall-clock the campaign took.
    pub sim_elapsed: f64,
    /// Evaluations performed.
    pub evaluations: usize,
    /// Whether the schedule ran to completion.
    pub finished: bool,
    /// The virtual-time execution timeline (one span per dispatched
    /// evaluation, in dispatch order) — exportable as a Chrome trace via
    /// [`fedtrace::virtual_timeline_json`].
    pub timeline: Vec<fedtrace::TrialSpan>,
}

impl StragglerRun {
    /// Simulated throughput: evaluations per simulated hour.
    pub fn trials_per_sim_hour(&self) -> f64 {
        if self.sim_elapsed > 0.0 {
            self.evaluations as f64 / (self.sim_elapsed / 3600.0)
        } else {
            0.0
        }
    }

    /// The selected configuration's true error given everything that had
    /// completed within `sim_budget` virtual seconds; see
    /// [`selected_true_error_within_sim`].
    pub fn selected_true_error_within_sim(&self, sim_budget: f64) -> Option<f64> {
        selected_true_error_within_sim(&self.log, sim_budget)
    }
}

/// The full straggler comparison: sync SHA vs async ASHA across a grid of
/// virtual worker counts on one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StragglerComparison {
    /// Benchmark the comparison ran on.
    pub benchmark: String,
    /// All runs (method × worker count).
    pub runs: Vec<StragglerRun>,
    /// The simulated-seconds grid time-to-accuracy curves are drawn over.
    pub time_grid: Vec<f64>,
}

impl StragglerComparison {
    /// Time-to-accuracy curves: per (method, workers) series of the selected
    /// configuration's true error over simulated wall-clock. Grid points
    /// before a run's first completion are skipped.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn time_to_accuracy_curves(&self) -> Result<Vec<SeriesGroup>> {
        let mut groups = Vec::new();
        for run in &self.runs {
            let mut points = Vec::new();
            for &t in &self.time_grid {
                let Some(error) = run.selected_true_error_within_sim(t) else {
                    continue;
                };
                points.push(SeriesPoint::from_error_rates(
                    t,
                    format!("{t:.0}s"),
                    &[error],
                )?);
            }
            groups.push(SeriesGroup {
                name: format!("{} ({} workers)", run.method, run.workers),
                points,
            });
        }
        Ok(groups)
    }

    /// Renders the scenario report: time-to-accuracy curves plus a
    /// throughput note per run.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn to_report(&self) -> Result<ExperimentReport> {
        let mut report = ExperimentReport::new(
            "stragglers",
            format!(
                "Sync SHA vs async ASHA under heavy-tailed client runtimes on {}",
                self.benchmark
            ),
        );
        for group in self.time_to_accuracy_curves()? {
            report.push_group(group);
        }
        for run in &self.runs {
            report.push_note(format!(
                "{} @ {} workers: {} evaluations in {:.1} sim-s ({:.0} trials/sim-h)",
                run.method,
                run.workers,
                run.evaluations,
                run.sim_elapsed,
                run.trials_per_sim_hour()
            ));
        }
        Ok(report)
    }
}

/// Runs the straggler scenario on one benchmark: the sync and async variants
/// of the same ASHA ladder, each at every worker count in `workers_grid`,
/// under the shared heavy-tailed [`straggler_cost_model`] and the paper's
/// noisy evaluation. Campaign seeds are positional in the (method, workers)
/// grid, and `runner`'s policy only governs how the real compute fans out —
/// the comparison (including every virtual timeline) is bit-identical under
/// any policy and thread count.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_straggler_comparison(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    workers_grid: &[usize],
    seed: u64,
) -> Result<StragglerComparison> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let cost = straggler_cost_model(scale, seed);
    let methods = [TuningMethod::Asha, TuningMethod::AsyncAsha];
    let units: Vec<(TuningMethod, usize)> = methods
        .iter()
        .flat_map(|&method| workers_grid.iter().map(move |&workers| (method, workers)))
        .collect();
    let root = SeedChannel::StragglerCampaigns.seed(seed);
    // Campaigns run one after another (the parallelism is each campaign's
    // in-flight trials), with engine-style positional unit seeds.
    let runs = TrialRunner::sequential().run_trials(root, units.len(), |unit| {
        let (method, workers) = units[unit.index()];
        let mut scheduler = method.scheduler(scale)?;
        let planned = method.planned_evaluations(scale);
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::paper_noisy(), planned, unit.seed(0))?;
        let mut rng = unit.rng(1);
        let config = Drive {
            threads: runner.policy().pool_threads(),
            ..Drive::new(Clock::Virtual(VirtualExecution::new(workers, cost)))
        };
        let event = drive(
            scheduler.as_mut(),
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )?;
        Ok(StragglerRun {
            method: method.name().to_string(),
            workers,
            log: objective.log(config.threads)?,
            sim_elapsed: event.sim_elapsed,
            evaluations: event.outcome.num_evaluations(),
            finished: event.finished,
            timeline: event.timeline,
        })
    })?;
    let horizon = runs.iter().map(|r| r.sim_elapsed).fold(0.0, f64::max);
    let grid_steps = 8usize;
    let time_grid: Vec<f64> = (1..=grid_steps)
        .map(|i| i as f64 * horizon / grid_steps as f64)
        .collect();
    Ok(StragglerComparison {
        benchmark: benchmark.name().to_string(),
        runs,
        time_grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_comparison_smoke_run() {
        let scale = ExperimentScale::smoke();
        let comparison = run_straggler_comparison(
            &TrialRunner::new(crate::ExecutionPolicy::parallel()),
            Benchmark::Cifar10Like,
            &scale,
            &[2, 8],
            0,
        )
        .unwrap();
        assert_eq!(comparison.benchmark, "cifar10-like");
        // 2 methods × 2 worker counts.
        assert_eq!(comparison.runs.len(), 4);
        assert_eq!(comparison.time_grid.len(), 8);
        for run in &comparison.runs {
            assert!(run.finished, "{} @ {}", run.method, run.workers);
            assert!(run.evaluations > 0);
            assert!(run.sim_elapsed > 0.0);
            assert!(run.trials_per_sim_hour() > 0.0);
            assert_eq!(run.log.len(), run.evaluations);
            // The log carries a real virtual timeline.
            assert!(run.log.iter().all(|e| e.sim_time > 0.0));
            assert!(run
                .selected_true_error_within_sim(run.sim_elapsed)
                .is_some_and(|e| (0.0..=1.5).contains(&e)));
        }
        // Async ASHA never has lower simulated throughput than sync SHA on
        // the same virtual hardware — the headline of the scenario.
        for &workers in &[2usize, 8] {
            let throughput = |name: &str| {
                comparison
                    .runs
                    .iter()
                    .find(|r| r.method == name && r.workers == workers)
                    .map(StragglerRun::trials_per_sim_hour)
                    .unwrap()
            };
            assert!(
                throughput("ASHA-ASYNC") >= throughput("ASHA"),
                "{workers} workers: async {} < sync {}",
                throughput("ASHA-ASYNC"),
                throughput("ASHA")
            );
        }
        let curves = comparison.time_to_accuracy_curves().unwrap();
        assert_eq!(curves.len(), 4);
        let table = comparison.to_report().unwrap().to_table();
        assert!(table.contains("ASHA-ASYNC (8 workers)"), "{table}");
        assert!(table.contains("trials/sim-h"), "{table}");
    }

    #[test]
    fn cost_model_is_shared_and_heavy_tailed() {
        let scale = ExperimentScale::smoke();
        let a = straggler_cost_model(&scale, 3);
        let b = straggler_cost_model(&scale, 3);
        assert_eq!(a, b);
        assert_ne!(a, straggler_cost_model(&scale, 4));
        assert!(a.validate().is_ok());
        let CostModel::HeterogeneousClients(model) = a else {
            panic!("straggler scenario must model client heterogeneity");
        };
        assert_eq!(model.clients_per_round, scale.clients_per_round);
        assert!(model.num_clients > scale.clients_per_round);
        assert!(model.tail_alpha < 2.0, "the tail must be heavy");
    }
}
