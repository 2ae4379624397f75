//! Population-scale subsampling noise: the paper's §3.1 story — evaluating a
//! configuration on a cohort of `K` clients drawn from a population of `N`
//! is a *noisy* observation of its true score — reproduced where it actually
//! lives: `N` up to a million virtual clients, materialized lazily through
//! `fedpop`.
//!
//! For each population size the runner trains a small grid of
//! configurations with population-backed training (sample cohort ids →
//! materialize → train → drop), computes each configuration's **true** score
//! on a deterministic reference probe, and then measures two noise curves as
//! functions of the evaluation-cohort size `K`:
//!
//! - **evaluation-noise variance** — the variance of the noisy cohort score
//!   across repeats, averaged over configurations (Fig. 2's spread, at
//!   population scale);
//! - **Spearman rank correlation** between the noisy ranking of the
//!   configurations and their true ranking (how often subsampling noise
//!   reorders the leaderboard — the mechanism behind Fig. 3's selection
//!   regressions).
//!
//! Everything fans out through the [`TrialRunner`], so parallel and
//! sequential execution produce bit-identical curves (asserted in
//! `tests/determinism.rs`).

use crate::engine::TrialRunner;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::{CoreError, Result};
use feddata::{Benchmark, ClientData};
use fedmodels::{AnyModel, Model, ModelSpec};
use fedpop::{
    train_on_population, CachedPopulation, ClientCache, CohortSampler, Population, PopulationSpec,
    SyntheticPopulation,
};
use fedsim::clock::VirtualClock;
use fedsim::hyperparams::FederatedHyperparams;
use fedsim::{FederatedTrainer, TrainerConfig, WeightingScheme};
use serde::{Deserialize, Serialize};

/// Scale knobs of the population-noise experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationExperimentScale {
    /// Population sizes `N` to sweep (the paper story uses 1e3/1e5/1e6).
    pub populations: Vec<u64>,
    /// Evaluation cohort sizes `K` (x-axis of both noise curves).
    pub cohort_sizes: Vec<usize>,
    /// Number of configurations to train and rank.
    pub num_configs: usize,
    /// Clients sampled per training round.
    pub train_cohort: usize,
    /// Training rounds per configuration.
    pub train_rounds: usize,
    /// Noisy evaluations per `(configuration, K)` cell.
    pub repeats: usize,
    /// Clients in the deterministic reference probe that defines the "true"
    /// score (capped at `N`).
    pub reference_probe: usize,
    /// Capacity of the client cache shared by a population's campaign.
    pub cache_capacity: usize,
}

impl PopulationExperimentScale {
    /// Tiny configuration for unit tests.
    pub fn smoke() -> Self {
        PopulationExperimentScale {
            populations: vec![1_000],
            cohort_sizes: vec![1, 8, 64],
            num_configs: 5,
            train_cohort: 8,
            train_rounds: 5,
            repeats: 10,
            reference_probe: 192,
            cache_capacity: 64,
        }
    }

    /// The reduced-scale smoke sweep used by CI: `N = 100 000`, three
    /// spread-out cohort sizes, enough repeats for stable monotone curves.
    pub fn ci_smoke() -> Self {
        PopulationExperimentScale {
            populations: vec![100_000],
            cohort_sizes: vec![2, 16, 128],
            num_configs: 6,
            train_cohort: 10,
            train_rounds: 8,
            repeats: 16,
            reference_probe: 512,
            cache_capacity: 256,
        }
    }

    /// The full paper-story sweep: `N ∈ {1e3, 1e5, 1e6}` with cohort sizes
    /// spanning one client to a thousand.
    pub fn paper_story() -> Self {
        PopulationExperimentScale {
            populations: vec![1_000, 100_000, 1_000_000],
            cohort_sizes: vec![1, 9, 81, 729],
            num_configs: 8,
            train_cohort: 10,
            train_rounds: 10,
            repeats: 24,
            reference_probe: 2_048,
            cache_capacity: 1_024,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for empty grids or zero counts.
    pub fn validate(&self) -> Result<()> {
        let ok = !self.populations.is_empty()
            && !self.populations.contains(&0)
            && !self.cohort_sizes.is_empty()
            && !self.cohort_sizes.contains(&0)
            && self.num_configs >= 2
            && self.train_cohort >= 1
            && self.train_rounds >= 1
            && self.repeats >= 2
            && self.reference_probe >= 1;
        if !ok {
            return Err(CoreError::InvalidConfig {
                message: format!("invalid population experiment scale: {self:?}"),
            });
        }
        Ok(())
    }
}

/// One `(N, K)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationNoisePoint {
    /// Population size the cohort was drawn from.
    pub population: u64,
    /// Evaluation cohort size.
    pub cohort_size: usize,
    /// Variance of the noisy cohort score across repeats, averaged over
    /// configurations.
    pub noise_variance: f64,
    /// Mean Spearman rank correlation between noisy and true configuration
    /// rankings, over the repeats where the correlation is defined (0 when
    /// every repeat was degenerate).
    pub spearman: f64,
    /// Per-repeat Spearman values (for spread reporting). Repeats whose
    /// noisy scores were all tied — possible at tiny cohorts, where the
    /// rank correlation is undefined — are excluded rather than coerced to
    /// a fabricated value; see [`degenerate_repeats`](Self::degenerate_repeats).
    pub spearman_per_repeat: Vec<f64>,
    /// Repeats excluded from the Spearman statistics because their noisy
    /// scores admitted no ranking (all configurations tied).
    pub degenerate_repeats: usize,
}

/// The noise curves of one population size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSweep {
    /// Population size `N`.
    pub population: u64,
    /// True (reference-probe) error of every configuration, in config order.
    pub true_errors: Vec<f64>,
    /// One point per cohort size, in grid order.
    pub points: Vec<PopulationNoisePoint>,
    /// Client-cache hit rate over the population's whole campaign.
    pub cache_hit_rate: f64,
    /// Peak clients resident in the cache during the campaign.
    pub cache_peak_resident: usize,
    /// Total clients materialized (cache misses) during the campaign.
    pub clients_materialized: u64,
}

/// The full population-noise experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationNoiseResult {
    /// Benchmark family the populations were synthesized from.
    pub benchmark: String,
    /// One sweep per population size, in grid order.
    pub sweeps: Vec<PopulationSweep>,
}

impl PopulationNoiseResult {
    /// `true` iff, within every population sweep, the noise variance is
    /// non-increasing and the rank correlation non-decreasing in the cohort
    /// size, with strict improvement from the smallest to the largest
    /// cohort. `tolerance` absorbs float noise in the comparisons.
    pub fn is_monotone(&self, tolerance: f64) -> bool {
        self.sweeps.iter().all(|sweep| {
            let ok_steps = sweep.points.windows(2).all(|w| {
                w[1].noise_variance <= w[0].noise_variance + tolerance
                    && w[1].spearman >= w[0].spearman - tolerance
            });
            let (Some(first), Some(last)) = (sweep.points.first(), sweep.points.last()) else {
                return false;
            };
            ok_steps
                && last.noise_variance < first.noise_variance + tolerance
                && last.spearman > first.spearman - tolerance
        })
    }

    /// Renders the sweep as a report: one Spearman curve and one
    /// noise-standard-deviation curve per population size.
    pub fn to_report(&self) -> ExperimentReport {
        let mut report = ExperimentReport::new(
            "population",
            "Subsampling noise vs cohort size at population scale",
        );
        for sweep in &self.sweeps {
            report.push_group(SeriesGroup {
                name: format!("N={} spearman", sweep.population),
                points: sweep
                    .points
                    .iter()
                    .filter_map(|p| {
                        SeriesPoint::from_error_rates(
                            p.cohort_size as f64,
                            format!("K={}", p.cohort_size),
                            &p.spearman_per_repeat,
                        )
                        .ok()
                    })
                    .collect(),
            });
            report.push_note(format!(
                "N={}: true errors span [{:.4}, {:.4}], cache hit rate {:.1}%, {} clients materialized (peak resident {})",
                sweep.population,
                sweep
                    .true_errors
                    .iter()
                    .fold(f64::INFINITY, |a, &b| a.min(b)),
                sweep
                    .true_errors
                    .iter()
                    .fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
                sweep.cache_hit_rate * 100.0,
                sweep.clients_materialized,
                sweep.cache_peak_resident,
            ));
            for p in &sweep.points {
                let degenerate = if p.degenerate_repeats > 0 {
                    format!(" ({} degenerate repeats excluded)", p.degenerate_repeats)
                } else {
                    String::new()
                };
                report.push_note(format!(
                    "N={} K={}: noise variance {:.3e}, spearman {:.3}{degenerate}",
                    p.population, p.cohort_size, p.noise_variance, p.spearman
                ));
            }
        }
        report
    }
}

/// The configuration grid: `num_configs` FedAdam settings spaced so that
/// neighbouring configurations are close enough in quality for small-cohort
/// noise to scramble their ranking (the regime the paper studies).
pub fn config_grid(num_configs: usize) -> Vec<FederatedHyperparams> {
    (0..num_configs)
        .map(|i| {
            let t = i as f64 / (num_configs.max(2) - 1) as f64;
            let mut hp = FederatedHyperparams::default();
            // Client LR log-spaced over [0.01, 1.0]: quality degrades
            // smoothly from the middle outward.
            hp.client.learning_rate = 0.01 * 100f64.powf(t);
            hp.server.learning_rate = 0.03 + 0.04 * t;
            hp
        })
        .collect()
}

/// Example-weighted error of `model` over an already-materialized cohort,
/// folded in cohort order.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the cohort has no examples, and
/// propagates model-evaluation failures.
/// The cohort streams through one client at a time (materialize → score →
/// drop), so the caller never needs to hold more than a single client
/// resident — the property the population memory bound rests on.
pub fn cohort_error<C: std::borrow::Borrow<ClientData>>(
    model: &AnyModel,
    cohort: impl IntoIterator<Item = Result<C>>,
) -> Result<f64> {
    let weighting = WeightingScheme::ByExamples;
    let mut num = 0.0;
    let mut den = 0.0;
    for client in cohort {
        let client = client?;
        let client = client.borrow();
        if client.is_empty() {
            continue;
        }
        let weight = weighting.weight(client.examples().len());
        num += model.error_rate(client.examples())? * weight;
        den += weight;
    }
    if den <= 0.0 {
        return Err(CoreError::InvalidConfig {
            message: "evaluation cohort had no examples".into(),
        });
    }
    Ok(num / den)
}

/// Deterministic reference-probe ids: an even stride across the population.
pub fn reference_ids(population: u64, probe: usize) -> Vec<u64> {
    fedpop::summary::stride_probe_ids(population, probe)
}

/// Runs the experiment on `runner`; sequential and parallel runners produce
/// bit-identical results — the cache in front of each population only
/// changes how often shards are regenerated, never their bits.
///
/// Unlike every other experiment entry point this one carries a `_with`
/// suffix: the frozen `benchmark/` package imports it under this name.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_population_noise_with(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &PopulationExperimentScale,
    seed: u64,
) -> Result<PopulationNoiseResult> {
    scale.validate()?;
    let grid = config_grid(scale.num_configs);
    let mut sweeps = Vec::with_capacity(scale.populations.len());
    for (p_idx, &population_size) in scale.populations.iter().enumerate() {
        let spec = PopulationSpec::benchmark(benchmark, population_size);
        let model_spec = ModelSpec::for_task(spec.task_kind());
        let population =
            SyntheticPopulation::new(spec, fedmath::rng::derive_seed(seed, p_idx as u64))?;
        let cache = ClientCache::new(scale.cache_capacity);
        let source = CachedPopulation::new(&population, &cache);
        let sweep_seeds = fedmath::SeedTree::new(seed).derive(&[1, p_idx as u64]);

        // 1. Train the configuration grid against the population: cohort ids
        //    are sampled per round, materialized, trained, and dropped.
        let models: Vec<AnyModel> =
            runner.run_trials(sweep_seeds.child(0).seed(), grid.len(), |trial| {
                let config = TrainerConfig {
                    clients_per_round: scale.train_cohort,
                    hyperparams: grid[trial.index()],
                    weighting: WeightingScheme::ByExamples,
                };
                let mut run = FederatedTrainer::new(config)?.start_with_dims(
                    population.input_dim(),
                    population.num_classes(),
                    model_spec,
                    trial.seed(0),
                )?;
                let mut clock = VirtualClock::new();
                train_on_population(
                    &mut run,
                    &source,
                    CohortSampler::Uniform,
                    scale.train_cohort,
                    scale.train_rounds,
                    60.0,
                    &mut clock,
                )?;
                Ok(run.into_model())
            })?;

        // 2. True scores on the deterministic reference probe, streamed one
        //    client at a time (materialize → score all configs → drop).
        let ref_ids = reference_ids(population_size, scale.reference_probe);
        let per_client: Vec<Vec<(f64, f64)>> =
            runner.run_trials(sweep_seeds.child(1).seed(), ref_ids.len(), |trial| {
                let client = population.materialize(ref_ids[trial.index()])?;
                models
                    .iter()
                    .map(|model| {
                        let weight = WeightingScheme::ByExamples.weight(client.examples().len());
                        Ok((model.error_rate(client.examples())? * weight, weight))
                    })
                    .collect()
            })?;
        let mut true_errors = vec![0.0f64; grid.len()];
        for (config_idx, error) in true_errors.iter_mut().enumerate() {
            let (num, den) = per_client.iter().fold((0.0, 0.0), |(n, d), client_row| {
                (n + client_row[config_idx].0, d + client_row[config_idx].1)
            });
            *error = num / den;
        }

        // 3. The noise sweep: every (K, repeat, config) cell draws its own
        //    evaluation cohort — the independent-subsample regime of the
        //    paper's random-search analysis.
        let mut points = Vec::with_capacity(scale.cohort_sizes.len());
        for (k_idx, &cohort_size) in scale.cohort_sizes.iter().enumerate() {
            let cells = scale.repeats * grid.len();
            let scores: Vec<f64> = runner.run_trials(
                sweep_seeds.derive(&[2, k_idx as u64]).seed(),
                cells,
                |trial| {
                    let config_idx = trial.index() % grid.len();
                    let mut rng = trial.rng(0);
                    let cohort =
                        CohortSampler::Uniform.sample(&population, &mut rng, cohort_size, 0.0)?;
                    // Stream the cohort: each concurrent cell holds at most
                    // one client resident beyond the shared cache.
                    cohort_error(
                        &models[config_idx],
                        cohort.iter().map(|&id| {
                            fedsim::training::CohortSource::materialize(&source, id)
                                .map_err(CoreError::from)
                        }),
                    )
                },
            )?;
            // scores are laid out repeat-major: cell = repeat * configs + config.
            let score_at = |rep: usize, config: usize| scores[rep * grid.len() + config];
            let mut per_config_variance = Vec::with_capacity(grid.len());
            for config_idx in 0..grid.len() {
                let series: Vec<f64> = (0..scale.repeats)
                    .map(|rep| score_at(rep, config_idx))
                    .collect();
                per_config_variance.push(fedmath::stats::variance(&series));
            }
            // A repeat where every config drew an identical score (possible
            // at tiny cohorts) has no defined rank correlation; exclude it
            // instead of fabricating a 0, which would deflate the small-K
            // end of the curve.
            let spearman_per_repeat: Vec<f64> = (0..scale.repeats)
                .filter_map(|rep| {
                    let noisy: Vec<f64> = (0..grid.len()).map(|c| score_at(rep, c)).collect();
                    fedmath::stats::spearman_correlation(&noisy, &true_errors).ok()
                })
                .collect();
            let degenerate_repeats = scale.repeats - spearman_per_repeat.len();
            points.push(PopulationNoisePoint {
                population: population_size,
                cohort_size,
                noise_variance: fedmath::stats::mean(&per_config_variance),
                spearman: fedmath::stats::mean(&spearman_per_repeat),
                spearman_per_repeat,
                degenerate_repeats,
            });
        }

        let stats = cache.stats();
        sweeps.push(PopulationSweep {
            population: population_size,
            true_errors,
            points,
            cache_hit_rate: stats.hit_rate(),
            cache_peak_resident: stats.peak_resident,
            clients_materialized: stats.misses,
        });
    }
    Ok(PopulationNoiseResult {
        benchmark: benchmark.name().to_string(),
        sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_validation() {
        assert!(PopulationExperimentScale::smoke().validate().is_ok());
        assert!(PopulationExperimentScale::ci_smoke().validate().is_ok());
        assert!(PopulationExperimentScale::paper_story().validate().is_ok());
        let mut bad = PopulationExperimentScale::smoke();
        bad.populations.clear();
        assert!(bad.validate().is_err());
        let mut bad = PopulationExperimentScale::smoke();
        bad.cohort_sizes = vec![0];
        assert!(bad.validate().is_err());
        let mut bad = PopulationExperimentScale::smoke();
        bad.num_configs = 1;
        assert!(bad.validate().is_err());
        let mut bad = PopulationExperimentScale::smoke();
        bad.repeats = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn config_grid_spans_distinct_learning_rates() {
        let grid = config_grid(5);
        assert_eq!(grid.len(), 5);
        assert!(grid[0].client.learning_rate < grid[4].client.learning_rate);
        for hp in &grid {
            assert!(hp.validate().is_ok());
        }
    }

    #[test]
    fn reference_ids_are_strided_and_capped() {
        let ids = reference_ids(1_000_000, 4);
        assert_eq!(ids, vec![0, 250_000, 500_000, 750_000]);
        let ids = reference_ids(3, 10);
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn smoke_sweep_shows_the_noise_story() {
        let scale = PopulationExperimentScale::smoke();
        let result =
            run_population_noise_with(&TrialRunner::from_env(), Benchmark::Cifar10Like, &scale, 0)
                .unwrap();
        assert_eq!(result.benchmark, "cifar10-like");
        assert_eq!(result.sweeps.len(), 1);
        let sweep = &result.sweeps[0];
        assert_eq!(sweep.population, 1_000);
        assert_eq!(sweep.true_errors.len(), scale.num_configs);
        assert!(sweep.true_errors.iter().all(|e| (0.0..=1.0).contains(e)));
        assert_eq!(sweep.points.len(), scale.cohort_sizes.len());
        // The headline: more evaluation clients, less noise, better ranks.
        assert!(
            result.is_monotone(1e-9),
            "noise curves not monotone: {:#?}",
            sweep.points
        );
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        assert!(last.noise_variance < first.noise_variance);
        assert!(last.spearman > first.spearman);
        assert!(last.spearman > 0.5, "full-ish cohorts should rank well");
        // Repeated cohort sampling over a small population hits the cache.
        assert!(sweep.cache_hit_rate > 0.0);
        assert!(sweep.cache_peak_resident <= scale.cache_capacity);
        let report = result.to_report();
        let table = report.to_table();
        assert!(table.contains("population"));
        assert!(table.contains("spearman"));
    }
}
