//! Deterministic cohort samplers over lazy populations.
//!
//! A cohort sampler picks the round's participating client ids from a
//! population of up to millions of clients **without enumerating it**:
//! uniform sampling uses Floyd's O(cohort) algorithm, while size-weighted
//! and availability-gated sampling use rejection sampling against O(1)
//! per-client metadata (the positional size draw and the diurnal phase).
//! Every sampler is a deterministic function of its RNG, the population
//! identity, and — for availability — the simulated time, so cohorts
//! reproduce bit-for-bit across runs and thread counts.

use crate::{PopError, Population, Result};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// How a round's cohort is drawn from the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortSampler {
    /// Uniform without replacement over all `N` clients (Floyd's algorithm,
    /// O(cohort) time and memory).
    Uniform,
    /// Without replacement, with probability proportional to each client's
    /// example count — the participation bias of production systems where
    /// data-rich devices contribute more. Implemented by rejection sampling
    /// against the population's O(1) size bound.
    SizeWeighted,
    /// Uniform among the clients inside their diurnal availability window at
    /// the round's simulated time (see
    /// [`AvailabilityModel`](crate::AvailabilityModel)). Rounds scheduled
    /// when few clients are reachable legitimately get smaller cohorts.
    Available,
}

impl CohortSampler {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CohortSampler::Uniform => "uniform",
            CohortSampler::SizeWeighted => "size-weighted",
            CohortSampler::Available => "available",
        }
    }

    /// Draws a cohort of up to `count` distinct client ids at simulated time
    /// `sim_time`.
    ///
    /// [`Uniform`](Self::Uniform) and [`SizeWeighted`](Self::SizeWeighted)
    /// always return exactly `min(count, N)` ids. [`Available`](Self::Available)
    /// returns at most that many — possibly fewer (even zero) when the
    /// availability window leaves too few clients reachable; the caller
    /// decides whether an undersized cohort trains or skips the round.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::Sampling`] if `count == 0`, if the population is
    /// empty, or if size-weighted rejection sampling exhausts its attempt
    /// budget (pathologically skewed size bounds).
    pub fn sample<P: Population + ?Sized>(
        &self,
        population: &P,
        rng: &mut StdRng,
        count: usize,
        sim_time: f64,
    ) -> Result<Vec<u64>> {
        let n = population.num_clients();
        if count == 0 {
            return Err(PopError::Sampling {
                message: "cannot sample an empty cohort".into(),
            });
        }
        if n == 0 {
            return Err(PopError::Sampling {
                message: "population is empty".into(),
            });
        }
        let count = count.min(usize::try_from(n).unwrap_or(usize::MAX));
        match self {
            CohortSampler::Uniform => {
                Ok(fedmath::rng::sample_ids_without_replacement(rng, n, count)?)
            }
            CohortSampler::SizeWeighted => {
                // Sampling the whole population is weighted sampling of
                // everyone: short-circuit instead of paying the rejection
                // loop its worst case (accepting the final size-1 client
                // takes ~n·bound expected draws).
                if count as u64 == n {
                    return Ok((0..n).collect());
                }
                let bound = population.max_client_size().max(1) as f64;
                let mut chosen = HashSet::with_capacity(count);
                let mut cohort = Vec::with_capacity(count);
                // Rejection sampling: accept id with probability size/bound.
                // The attempt budget covers bound/mean ratios up to ~10⁴
                // before giving up with a diagnosable error.
                let mut attempts: u64 = 0;
                let max_attempts = (count as u64).saturating_mul(20_000).max(100_000);
                while cohort.len() < count {
                    attempts += 1;
                    if attempts > max_attempts {
                        return Err(PopError::Sampling {
                            message: format!(
                                "size-weighted sampling exhausted {max_attempts} attempts \
                                 drawing {count} of {n} clients (size bound {bound})"
                            ),
                        });
                    }
                    let id = rng.gen_range(0..n);
                    if chosen.contains(&id) {
                        continue;
                    }
                    let size = population.client_size(id)? as f64;
                    if rng.gen::<f64>() < size / bound {
                        chosen.insert(id);
                        cohort.push(id);
                    }
                }
                Ok(cohort)
            }
            CohortSampler::Available => {
                let mut chosen = HashSet::with_capacity(count);
                let mut cohort = Vec::with_capacity(count);
                // Bounded search: windows cover an expected fraction of the
                // population, so a fixed per-slot budget finds reachable
                // clients when they exist and degrades to a smaller cohort
                // when they don't.
                let max_attempts = (count as u64).saturating_mul(256).max(4_096);
                for _ in 0..max_attempts {
                    if cohort.len() == count {
                        break;
                    }
                    let id = rng.gen_range(0..n);
                    if chosen.contains(&id) {
                        continue;
                    }
                    if population.available(id, sim_time) {
                        chosen.insert(id);
                        cohort.push(id);
                    }
                }
                Ok(cohort)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AvailabilityModel, PopulationSpec, SyntheticPopulation};
    use feddata::Benchmark;
    use fedmath::rng::rng_for;
    use std::collections::HashSet;

    fn population(n: u64) -> SyntheticPopulation {
        SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::RedditLike, n), 5).unwrap()
    }

    #[test]
    fn uniform_cohorts_are_distinct_and_in_range() {
        let population = population(1_000_000);
        let mut rng = rng_for(0, 0);
        let cohort = CohortSampler::Uniform
            .sample(&population, &mut rng, 100, 0.0)
            .unwrap();
        assert_eq!(cohort.len(), 100);
        let unique: HashSet<u64> = cohort.iter().copied().collect();
        assert_eq!(unique.len(), 100);
        assert!(cohort.iter().all(|&id| id < 1_000_000));
        assert_eq!(CohortSampler::Uniform.name(), "uniform");
    }

    #[test]
    fn cohorts_are_deterministic_in_the_rng() {
        let population = population(10_000);
        for sampler in [
            CohortSampler::Uniform,
            CohortSampler::SizeWeighted,
            CohortSampler::Available,
        ] {
            let a = sampler
                .sample(&population, &mut rng_for(7, 0), 32, 500.0)
                .unwrap();
            let b = sampler
                .sample(&population, &mut rng_for(7, 0), 32, 500.0)
                .unwrap();
            assert_eq!(a, b, "{} sampler not deterministic", sampler.name());
        }
    }

    #[test]
    fn size_weighted_prefers_large_clients() {
        let population = population(5_000);
        let mut uniform_rng = rng_for(1, 0);
        let mut weighted_rng = rng_for(1, 1);
        let mean_size = |ids: &[u64]| {
            let total: usize = ids
                .iter()
                .map(|&id| population.client_size(id).unwrap())
                .sum();
            total as f64 / ids.len() as f64
        };
        let mut uniform_sizes = Vec::new();
        let mut weighted_sizes = Vec::new();
        for _ in 0..20 {
            uniform_sizes.push(mean_size(
                &CohortSampler::Uniform
                    .sample(&population, &mut uniform_rng, 50, 0.0)
                    .unwrap(),
            ));
            weighted_sizes.push(mean_size(
                &CohortSampler::SizeWeighted
                    .sample(&population, &mut weighted_rng, 50, 0.0)
                    .unwrap(),
            ));
        }
        let uniform_mean = uniform_sizes.iter().sum::<f64>() / 20.0;
        let weighted_mean = weighted_sizes.iter().sum::<f64>() / 20.0;
        assert!(
            weighted_mean > 1.5 * uniform_mean,
            "size weighting should inflate cohort sizes: uniform {uniform_mean}, weighted {weighted_mean}"
        );
        assert_eq!(CohortSampler::SizeWeighted.name(), "size-weighted");
    }

    #[test]
    fn available_sampler_respects_the_window() {
        let spec = PopulationSpec {
            availability: AvailabilityModel::diurnal(0.4),
            ..PopulationSpec::benchmark(Benchmark::Cifar10Like, 5_000)
        };
        let population = SyntheticPopulation::new(spec, 2).unwrap();
        let mut rng = rng_for(2, 0);
        let sim_time = 30_000.0;
        let cohort = CohortSampler::Available
            .sample(&population, &mut rng, 64, sim_time)
            .unwrap();
        assert!(!cohort.is_empty());
        assert!(cohort.len() <= 64);
        assert!(cohort.iter().all(|&id| population.available(id, sim_time)));
        let unique: HashSet<u64> = cohort.iter().copied().collect();
        assert_eq!(unique.len(), cohort.len());
        assert_eq!(CohortSampler::Available.name(), "available");
    }

    #[test]
    fn always_available_population_fills_the_cohort() {
        let population = population(200);
        let mut rng = rng_for(3, 0);
        let cohort = CohortSampler::Available
            .sample(&population, &mut rng, 64, 12_345.0)
            .unwrap();
        assert_eq!(cohort.len(), 64);
    }

    #[test]
    fn cohort_size_is_capped_by_the_population() {
        let population = population(10);
        let mut rng = rng_for(4, 0);
        for sampler in [CohortSampler::Uniform, CohortSampler::SizeWeighted] {
            let cohort = sampler.sample(&population, &mut rng, 64, 0.0).unwrap();
            assert_eq!(cohort.len(), 10, "{}", sampler.name());
        }
    }

    #[test]
    fn sampler_validation() {
        let population = population(10);
        let mut rng = rng_for(5, 0);
        assert!(CohortSampler::Uniform
            .sample(&population, &mut rng, 0, 0.0)
            .is_err());
    }
}
