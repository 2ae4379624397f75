//! Population-backed training: sample → materialize → train → drop.
//!
//! [`train_on_population`] drives `fedsim`'s
//! [`TrainingRun::run_cohort_round`](fedsim::TrainingRun::run_cohort_round)
//! over a lazy population: each round derives its cohort from the run's own
//! positional seed tree (so the whole campaign is a pure function of the
//! training seed), materializes the cohort through a bounded
//! [`ClientCache`](crate::ClientCache), trains it on the calling thread, and
//! drops it. Trials that share one cached population may train on different
//! threads; the cache never changes a bit of what they train.
//! A `fedsim::clock::VirtualClock` advances per round so diurnal
//! availability windows sweep across the population as the campaign runs.

use crate::{CachedPopulation, CohortSampler, PopError, Population, Result};
use fedsim::clock::VirtualClock;
use fedsim::TrainingRun;

/// What one population-backed training campaign did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationTrainingReport {
    /// Rounds executed (including no-op rounds with an empty cohort).
    pub rounds: usize,
    /// Rounds whose cohort came back empty (availability gap).
    pub empty_rounds: usize,
    /// Total client participations across all rounds.
    pub total_participants: usize,
    /// The largest single-round cohort that was resident at once.
    pub max_cohort: usize,
    /// Simulated seconds the campaign advanced the clock by.
    pub sim_elapsed: f64,
}

impl PopulationTrainingReport {
    /// The peak number of clients resident at any instant of the campaign:
    /// the largest in-flight cohort plus whatever the cache retained. This
    /// is the quantity the population examples assert against
    /// `cohort_size + cache_capacity`.
    pub fn peak_resident_clients(&self, cache_peak: usize) -> usize {
        self.max_cohort + cache_peak
    }
}

/// Trains `run` for `rounds` rounds against `source`, sampling a cohort of
/// up to `cohort_size` ids per round with `sampler` and advancing `clock` by
/// `round_seconds` after each round.
///
/// The cohort RNG is the run's own per-round sampling channel, so two
/// campaigns with the same `(run seed, population, sampler, cohort size,
/// clock schedule)` are bit-identical — whatever thread runs them and
/// whatever the cache holds (asserted in `tests/determinism.rs`).
///
/// # Errors
///
/// Propagates sampling, materialization, and training errors.
pub fn train_on_population<P: Population + ?Sized>(
    run: &mut TrainingRun,
    source: &CachedPopulation<'_, P>,
    sampler: CohortSampler,
    cohort_size: usize,
    rounds: usize,
    round_seconds: f64,
    clock: &mut VirtualClock,
) -> Result<PopulationTrainingReport> {
    if cohort_size == 0 {
        return Err(PopError::InvalidSpec {
            message: "cohort size must be positive".into(),
        });
    }
    if !round_seconds.is_finite() || round_seconds < 0.0 {
        return Err(PopError::InvalidSpec {
            message: format!("round duration must be non-negative, got {round_seconds}"),
        });
    }
    let start = clock.now();
    let mut report = PopulationTrainingReport {
        rounds: 0,
        empty_rounds: 0,
        total_participants: 0,
        max_cohort: 0,
        sim_elapsed: 0.0,
    };
    for _ in 0..rounds {
        let now = clock.now();
        let population = source.population();
        let mut cohort_len = 0usize;
        run.run_cohort_round(source, |rng| {
            let cohort = sampler
                .sample(population, rng, cohort_size, now)
                .map_err(fedsim::SimError::from)?;
            cohort_len = cohort.len();
            Ok(cohort)
        })
        .map_err(PopError::Sim)?;
        report.rounds += 1;
        report.total_participants += cohort_len;
        report.max_cohort = report.max_cohort.max(cohort_len);
        if cohort_len == 0 {
            report.empty_rounds += 1;
        }
        clock
            .advance_to(now + round_seconds)
            .map_err(|e| PopError::InvalidSpec {
                message: e.to_string(),
            })?;
    }
    report.sim_elapsed = clock.now() - start;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AvailabilityModel, ClientCache, PopulationSpec, SyntheticPopulation};
    use feddata::Benchmark;
    use fedmodels::ModelSpec;
    use fedsim::{FederatedTrainer, TrainerConfig};

    fn start_run(population: &SyntheticPopulation, seed: u64) -> TrainingRun {
        FederatedTrainer::new(TrainerConfig::default())
            .unwrap()
            .start_with_dims(
                population.input_dim(),
                population.num_classes(),
                ModelSpec::Mlp { hidden_dim: 8 },
                seed,
            )
            .unwrap()
    }

    #[test]
    fn campaign_trains_and_reports_residency() {
        let population =
            SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::Cifar10Like, 50_000), 7)
                .unwrap();
        let cache = ClientCache::new(16);
        let source = CachedPopulation::new(&population, &cache);
        let mut run = start_run(&population, 11);
        let mut clock = VirtualClock::new();
        let report = train_on_population(
            &mut run,
            &source,
            CohortSampler::Uniform,
            12,
            5,
            60.0,
            &mut clock,
        )
        .unwrap();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.empty_rounds, 0);
        assert_eq!(report.total_participants, 60);
        assert_eq!(report.max_cohort, 12);
        assert_eq!(report.sim_elapsed, 300.0);
        assert_eq!(run.rounds_completed(), 5);
        assert_eq!(clock.now(), 300.0);
        // The memory bound: at most the cohort plus the cache is resident.
        let stats = cache.stats();
        assert!(stats.peak_resident <= cache.capacity());
        assert!(report.peak_resident_clients(stats.peak_resident) <= 12 + 16);
    }

    #[test]
    fn same_seed_same_campaign_bits() {
        let population =
            SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::FemnistLike, 5_000), 3)
                .unwrap();
        let run_campaign = |cache_capacity: usize| {
            let cache = ClientCache::new(cache_capacity);
            let source = CachedPopulation::new(&population, &cache);
            let mut run = start_run(&population, 21);
            let mut clock = VirtualClock::new();
            train_on_population(
                &mut run,
                &source,
                CohortSampler::SizeWeighted,
                8,
                4,
                30.0,
                &mut clock,
            )
            .unwrap();
            fedmodels::Model::params(run.model())
        };
        // Cache policy (none / small / large) never changes a result bit.
        let none = run_campaign(0);
        let small = run_campaign(2);
        let large = run_campaign(64);
        assert_eq!(none, small);
        assert_eq!(none, large);
    }

    #[test]
    fn diurnal_campaign_tolerates_empty_rounds() {
        // A razor-thin availability window: some rounds find nobody, and the
        // campaign keeps going as no-op rounds.
        let spec = PopulationSpec::benchmark(Benchmark::Cifar10Like, 64)
            .with_availability(AvailabilityModel::diurnal(0.02));
        let population = SyntheticPopulation::new(spec, 5).unwrap();
        let cache = ClientCache::new(4);
        let source = CachedPopulation::new(&population, &cache);
        let mut run = start_run(&population, 1);
        let mut clock = VirtualClock::new();
        let report = train_on_population(
            &mut run,
            &source,
            CohortSampler::Available,
            8,
            6,
            3_600.0,
            &mut clock,
        )
        .unwrap();
        assert_eq!(report.rounds, 6);
        assert_eq!(run.rounds_completed(), 6);
        assert!(report.max_cohort <= 8);
    }

    #[test]
    fn driver_validation() {
        let population =
            SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::Cifar10Like, 16), 0)
                .unwrap();
        let cache = ClientCache::new(4);
        let source = CachedPopulation::new(&population, &cache);
        let mut run = start_run(&population, 0);
        let mut clock = VirtualClock::new();
        assert!(train_on_population(
            &mut run,
            &source,
            CohortSampler::Uniform,
            0,
            1,
            1.0,
            &mut clock
        )
        .is_err());
        assert!(train_on_population(
            &mut run,
            &source,
            CohortSampler::Uniform,
            4,
            1,
            -1.0,
            &mut clock
        )
        .is_err());
    }
}
