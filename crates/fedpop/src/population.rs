//! The [`Population`] trait and its synthetic implementation.

use crate::{PopError, PopulationSpec, Result};
use feddata::generators::{ClassificationWorld, LanguageWorld};
use feddata::spec::TaskConfig;
use feddata::{ClientData, Task};
use fedmath::SeedTree;
use fedsim::ClientFrame;

/// Seed-tree channel of the shared world structure (prototypes / topics).
const CHANNEL_WORLD: u64 = 0;
/// Seed-tree channel of per-client example counts.
const CHANNEL_SIZES: u64 = 1;
/// Seed-tree channel of per-client shard generation.
const CHANNEL_CLIENTS: u64 = 2;
/// Seed-tree channel of per-client availability phases.
const CHANNEL_AVAILABILITY: u64 = 3;

/// A virtual population of clients, addressed by id. Its size and O(1)
/// per-client metadata (example count, availability) are its
/// [`ClientFrame`], which is what a cohort draw reads.
///
/// Implementations must treat every per-client query as a **pure function of
/// the population identity and the id**: `materialize(i)` returns the same
/// bits no matter which other ids were materialized before it, in what
/// order, or on which thread. That order-invariance (checked by a property
/// test in this crate) is what makes parallel cohort training bit-identical
/// to sequential training, and what lets caches of any policy sit in front
/// of a population without changing results.
pub trait Population: ClientFrame + Sync {
    /// Task family of the population's data.
    fn task(&self) -> Task;

    /// Number of output classes (vocabulary size for next-token prediction).
    fn num_classes(&self) -> usize;

    /// Input dimensionality (dense feature dim, or vocabulary size).
    fn input_dim(&self) -> usize;

    /// Overwrites `storage` with the full shard of client `id`, reusing its
    /// buffers. The result must not depend on what `storage` held: it is
    /// exactly [`materialize`](Self::materialize)`(id)`, which is this on
    /// empty storage.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::ClientOutOfRange`] for ids past the population
    /// and propagates generation failures.
    fn materialize_into(&self, id: u64, storage: &mut ClientData) -> Result<()>;

    /// Materializes the full shard of client `id`.
    ///
    /// # Errors
    ///
    /// As [`materialize_into`](Self::materialize_into).
    fn materialize(&self, id: u64) -> Result<ClientData> {
        let mut client = ClientData::new(id as usize, Vec::new());
        self.materialize_into(id, &mut client)?;
        Ok(client)
    }
}

/// The world structure shared by every client of a synthetic population.
#[derive(Debug, Clone)]
enum World {
    Classification(ClassificationWorld),
    Language(LanguageWorld),
}

/// A lazy synthetic population: a [`PopulationSpec`] plus a root seed.
///
/// Construction is O(world) — the class prototypes or topic tables — never
/// O(N). Every per-client draw derives positionally from a dedicated
/// seed-tree channel:
///
/// | channel | derivation |
/// |---|---|
/// | world | shared prototypes / bigram topics |
/// | sizes | client `i`'s example count at `sizes.child(i)` |
/// | clients | client `i`'s shard at `clients.child(i)` |
/// | availability | client `i`'s diurnal phase at `availability.child(i)` |
#[derive(Debug, Clone)]
pub struct SyntheticPopulation {
    spec: PopulationSpec,
    world: World,
    /// The spec's size distribution, validated and precompiled once:
    /// [`ClientFrame::client_size`] sits in the size-weighted sampler's
    /// rejection loop, so per-query validation would dominate.
    size_sampler: feddata::spec::SizeSampler,
    sizes: SeedTree,
    clients: SeedTree,
    availability: SeedTree,
}

impl SyntheticPopulation {
    /// Builds the population's shared world from `(spec, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::InvalidSpec`] if the spec is invalid.
    pub fn new(spec: PopulationSpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        let root = SeedTree::new(seed);
        let mut world_rng = root.child(CHANNEL_WORLD).rng();
        let world = match &spec.task {
            TaskConfig::Classification(cfg) => {
                World::Classification(ClassificationWorld::generate(&mut world_rng, cfg.clone())?)
            }
            TaskConfig::Language(cfg) => {
                World::Language(LanguageWorld::generate(&mut world_rng, cfg.clone())?)
            }
        };
        Ok(SyntheticPopulation {
            world,
            size_sampler: spec.client_sizes.compile()?,
            sizes: root.child(CHANNEL_SIZES),
            clients: root.child(CHANNEL_CLIENTS),
            availability: root.child(CHANNEL_AVAILABILITY),
            spec,
        })
    }

    /// The population's spec.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    fn check_id(&self, id: u64) -> Result<()> {
        if id >= self.spec.num_clients {
            return Err(PopError::ClientOutOfRange {
                id,
                population: self.spec.num_clients,
            });
        }
        Ok(())
    }
}

impl ClientFrame for SyntheticPopulation {
    fn num_clients(&self) -> u64 {
        self.spec.num_clients
    }

    fn client_size(&self, id: u64) -> fedsim::Result<usize> {
        self.check_id(id)?;
        Ok(self.size_sampler.size_at(&self.sizes, id))
    }

    fn max_client_size(&self) -> usize {
        self.spec.client_sizes.max_size()
    }

    fn available(&self, id: u64, sim_time: f64) -> bool {
        id < self.spec.num_clients
            && self
                .spec
                .availability
                .available(&self.availability, id, sim_time)
    }
}

impl Population for SyntheticPopulation {
    fn task(&self) -> Task {
        self.spec.task_kind()
    }

    fn num_classes(&self) -> usize {
        self.spec.num_classes()
    }

    fn input_dim(&self) -> usize {
        self.spec.input_dim()
    }

    fn materialize_into(&self, id: u64, storage: &mut ClientData) -> Result<()> {
        self.check_id(id)?;
        let size = self.size_sampler.size_at(&self.sizes, id);
        match &self.world {
            World::Classification(world) => world.client_into(&self.clients, id, size, storage)?,
            World::Language(world) => world.client_into(&self.clients, id, size, storage)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CohortSampler;
    use feddata::Benchmark;

    fn small_population(n: u64) -> SyntheticPopulation {
        SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::Cifar10Like, n), 3).unwrap()
    }

    #[test]
    fn construction_is_o_world_not_o_population() {
        // A million-client population builds instantly: only the world is
        // generated up front.
        let population = small_population(1_000_000);
        assert_eq!(population.num_clients(), 1_000_000);
        assert_eq!(population.task(), Task::DenseClassification);
        assert_eq!(population.num_classes(), 10);
        assert_eq!(population.input_dim(), 16);
        assert!(population.spec().validate().is_ok());
    }

    #[test]
    fn materialization_is_pure_in_the_id() {
        let population = small_population(10_000);
        let a = population.materialize(9_876).unwrap();
        let _ = population.materialize(0).unwrap();
        let _ = population.materialize(5_555).unwrap();
        let b = population.materialize(9_876).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.id(), 9_876);
        assert_eq!(a.num_examples(), population.client_size(9_876).unwrap());
        assert!(a.num_examples() >= 1);
    }

    #[test]
    fn two_instances_with_same_seed_agree() {
        let spec = PopulationSpec::benchmark(Benchmark::StackOverflowLike, 500);
        let p1 = SyntheticPopulation::new(spec.clone(), 9).unwrap();
        let p2 = SyntheticPopulation::new(spec.clone(), 9).unwrap();
        for id in [0u64, 17, 499] {
            assert_eq!(p1.materialize(id).unwrap(), p2.materialize(id).unwrap());
            assert_eq!(p1.client_size(id).unwrap(), p2.client_size(id).unwrap());
        }
        // A different seed gives a different population.
        let p3 = SyntheticPopulation::new(spec, 10).unwrap();
        assert_ne!(p1.materialize(17).unwrap(), p3.materialize(17).unwrap());
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let population = small_population(10);
        assert!(matches!(
            population.materialize(10),
            Err(PopError::ClientOutOfRange {
                id: 10,
                population: 10
            })
        ));
        assert!(population.client_size(11).is_err());
        assert!(!population.available(10, 0.0));
        assert!(population.available(9, 0.0));
    }

    /// A population is a frame every draw but the biased one can read: it
    /// knows sizes and availability, not accuracies.
    #[test]
    fn a_population_frame_draws_every_variant_but_biased() {
        let population = small_population(5_000);
        for sampler in [
            CohortSampler::Uniform,
            CohortSampler::SizeWeighted,
            CohortSampler::Available,
        ] {
            let cohort = sampler
                .sample(&population, &mut fedmath::rng::rng_for(1, 0), 64, 0.0)
                .unwrap();
            assert_eq!(cohort.len(), 64, "{sampler:?}");
            assert!(cohort.iter().all(|&id| id < 5_000));
        }
        let biased = CohortSampler::Biased { bias: 1.0 };
        let error = biased.sample(&population, &mut fedmath::rng::rng_for(1, 1), 64, 0.0);
        assert!(matches!(error, Err(fedsim::SimError::Sampling { .. })));
    }

    #[test]
    fn sizes_respect_the_declared_bound() {
        let population =
            SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::RedditLike, 2_000), 1)
                .unwrap();
        let bound = population.max_client_size();
        for id in (0..2_000u64).step_by(97) {
            let size = population.client_size(id).unwrap();
            assert!(size >= 1);
            assert!(size <= bound, "size {size} exceeds bound {bound}");
        }
    }

    /// `materialize_into` over storage left by a larger, a smaller and an
    /// equal-size client is `materialize`, for both task families.
    #[test]
    fn materialize_into_recycled_storage_is_materialize() {
        for benchmark in [Benchmark::Cifar10Like, Benchmark::RedditLike] {
            let population =
                SyntheticPopulation::new(PopulationSpec::benchmark(benchmark, 5_000), 8).unwrap();
            let target = 2_500;
            let size = population.client_size(target).unwrap();
            let donor = |keep: fn(usize, usize) -> bool| {
                (0..5_000)
                    .filter(|&id| id != target)
                    .find(|&id| keep(population.client_size(id).unwrap(), size))
                    .expect("a donor of that size")
            };
            let expected = population.materialize(target).unwrap();
            for id in [
                donor(|d, s| d > s),
                donor(|d, s| d < s),
                donor(|d, s| d == s),
            ] {
                let mut storage = population.materialize(id).unwrap();
                population.materialize_into(target, &mut storage).unwrap();
                assert_eq!(storage, expected, "{benchmark:?}, donor {id}");
            }
        }
    }

    #[test]
    fn language_populations_materialize_token_shards() {
        let population =
            SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::RedditLike, 100), 4)
                .unwrap();
        let client = population.materialize(42).unwrap();
        for e in client.examples() {
            assert!(matches!(e.input, feddata::Input::Token(context) if context < 48));
            assert!(e.label < 48);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use feddata::Benchmark;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole contract: materialize(i) is order-invariant and
        /// independent of which other ids were materialized.
        #[test]
        fn prop_materialization_is_order_invariant(
            seed in any::<u64>(),
            ids in proptest::collection::vec(0u64..5_000, 2..12),
        ) {
            let spec = PopulationSpec::benchmark(Benchmark::FemnistLike, 5_000);
            let population = SyntheticPopulation::new(spec, seed).unwrap();
            // Materialize forward, backward, and individually on a fresh
            // instance: every path must agree bit for bit.
            let forward: Vec<_> = ids.iter().map(|&i| population.materialize(i).unwrap()).collect();
            let backward: Vec<_> = ids.iter().rev().map(|&i| population.materialize(i).unwrap()).collect();
            for (f, b) in forward.iter().zip(backward.iter().rev()) {
                prop_assert_eq!(f, b);
            }
            let fresh = SyntheticPopulation::new(
                PopulationSpec::benchmark(Benchmark::FemnistLike, 5_000), seed).unwrap();
            let solo = fresh.materialize(ids[0]).unwrap();
            prop_assert_eq!(&solo, &forward[0]);
            // Sizes agree with the materialized shard.
            for (&i, client) in ids.iter().zip(forward.iter()) {
                prop_assert_eq!(client.num_examples(), population.client_size(i).unwrap());
            }
        }
    }
}
