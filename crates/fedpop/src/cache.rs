//! A bounded client cache with hit/miss accounting.
//!
//! Repeated cohort sampling re-visits clients — heavy clients under
//! size-weighted sampling, everyone under small populations — so a bounded
//! cache in front of a [`Population`] trades memory for
//! regeneration work. Because materialization is a pure function of the
//! client id, the cache can use **any** eviction policy without affecting a
//! single result bit: hits and misses are accounting, never semantics. The
//! accounting itself (hit rate, evictions, peak residency) feeds the
//! `BENCH_*.json` summaries and the in-process memory-bound assertions of
//! the population examples.
//!
//! Recycling is accounting too. A miss at capacity (the misses still
//! generating count as resident) evicts the FIFO head before it generates,
//! and when the cache held the evicted client's only `Arc`, the new client
//! is generated into that client's buffers
//! ([`Population::materialize_into`]) instead of fresh ones, so a warm cache
//! stops allocating and freeing shards. Generation overwrites every element,
//! so a recycled client is bit-identical to a fresh one; the
//! [`CacheStats::recycled`] count says only how many allocations were saved.

use crate::{Population, Result};
use feddata::ClientData;
use fedsim::training::CohortSource;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Point-in-time counters of a [`ClientCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to materialize the client.
    pub misses: u64,
    /// Clients evicted to respect the capacity bound.
    pub evictions: u64,
    /// Misses generated into the storage of an evicted client the cache
    /// held alone; at most `evictions`.
    pub recycled: u64,
    /// Clients currently resident.
    pub resident: usize,
    /// The largest number of clients ever resident at once — bounded by the
    /// cache capacity by construction.
    pub peak_resident: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Publishes this snapshot as gauges on a [`fedtrace`] registry, one per
    /// field plus the hit rate, named `<prefix>.hits`, `<prefix>.misses`,
    /// `<prefix>.evictions`, `<prefix>.recycled`, `<prefix>.resident`,
    /// `<prefix>.peak_resident`, and `<prefix>.hit_rate`. Folding the
    /// cache's existing accounting into the shared registry this way keeps
    /// one export path for every subsystem's statistics.
    pub fn publish(&self, registry: &fedtrace::Registry, prefix: &str) {
        registry
            .gauge(&format!("{prefix}.hits"))
            .set(self.hits as f64);
        registry
            .gauge(&format!("{prefix}.misses"))
            .set(self.misses as f64);
        registry
            .gauge(&format!("{prefix}.evictions"))
            .set(self.evictions as f64);
        registry
            .gauge(&format!("{prefix}.recycled"))
            .set(self.recycled as f64);
        registry
            .gauge(&format!("{prefix}.resident"))
            .set(self.resident as f64);
        registry
            .gauge(&format!("{prefix}.peak_resident"))
            .set(self.peak_resident as f64);
        registry
            .gauge(&format!("{prefix}.hit_rate"))
            .set(self.hit_rate());
    }
}

struct CacheInner {
    map: HashMap<u64, Arc<ClientData>>,
    fifo: VecDeque<u64>,
    stats: CacheStats,
    /// Misses generating outside the lock, each holding the slot it will
    /// insert into. Counting them lets a miss evict, and so recycle, while
    /// other misses are in flight, instead of all of them inserting into a
    /// cache that then overflows. A `generate` that panics never returns
    /// its slot, which only shrinks the cache by one client.
    generating: usize,
}

impl CacheInner {
    /// Evicts the oldest resident client and returns the cache's reference
    /// to it, or `None` when nothing is resident.
    fn evict_head(&mut self) -> Option<Arc<ClientData>> {
        let id = self.fifo.pop_front()?;
        let evicted = self.map.remove(&id);
        self.stats.evictions += 1;
        self.stats.resident = self.map.len();
        evicted
    }
}

/// A bounded FIFO cache of materialized clients, safe to share across the
/// execution engine's worker threads.
///
/// Capacity 0 disables retention entirely (every lookup is a miss and
/// nothing is ever resident) — useful to measure the cost of pure on-demand
/// materialization.
pub struct ClientCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ClientCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ClientCache {
    /// Creates a cache retaining at most `capacity` clients.
    pub fn new(capacity: usize) -> Self {
        ClientCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                fifo: VecDeque::new(),
                stats: CacheStats::default(),
                generating: 0,
            }),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// The cache state, poisoned or not: `generate` runs outside the lock,
    /// and every step taken inside it leaves the map, the FIFO and the
    /// counters consistent, so a panicking holder cannot leave work half
    /// done.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `id` up, materializing it with `generate` on a miss.
    ///
    /// `generate` must overwrite the storage it is given with client `id`
    /// whatever the storage held before: an empty client, or, when the
    /// resident clients and the misses still generating fill the capacity,
    /// the client this miss evicted if nothing outside the cache still holds
    /// it. Generation runs **outside** the lock so parallel cohorts
    /// materialize concurrently; if two threads race on the same id the
    /// first insert wins and the loser's (bit-identical) shard is dropped.
    ///
    /// # Errors
    ///
    /// Propagates `generate` failures.
    pub fn get_or_materialize(
        &self,
        id: u64,
        generate: impl FnOnce(&mut ClientData) -> Result<()>,
    ) -> Result<Arc<ClientData>> {
        let recycled = {
            let mut inner = self.lock();
            if let Some(found) = inner.map.get(&id).cloned() {
                inner.stats.hits += 1;
                return Ok(found);
            }
            inner.stats.misses += 1;
            if self.capacity == 0 {
                None
            } else {
                let evicted = if inner.map.len() + inner.generating >= self.capacity {
                    inner.evict_head()
                } else {
                    None
                };
                inner.generating += 1;
                let recycled = evicted.and_then(|client| Arc::try_unwrap(client).ok());
                inner.stats.recycled += u64::from(recycled.is_some());
                recycled
            }
        };
        let mut client = recycled.unwrap_or_else(|| ClientData::new(id as usize, Vec::new()));
        let generated = generate(&mut client);
        if self.capacity == 0 {
            return generated.map(|()| Arc::new(client));
        }
        let mut inner = self.lock();
        inner.generating -= 1;
        generated?;
        let stored = match inner.map.get(&id) {
            // Another thread inserted the same pure-function result first.
            Some(existing) => existing.clone(),
            None => {
                let client = Arc::new(client);
                inner.map.insert(id, client.clone());
                inner.fifo.push_back(id);
                // More misses in flight than the capacity find nothing left
                // to evict and overfill the cache.
                while inner.map.len() > self.capacity && inner.evict_head().is_some() {}
                client
            }
        };
        inner.stats.resident = inner.map.len();
        inner.stats.peak_resident = inner.stats.peak_resident.max(inner.map.len());
        Ok(stored)
    }

    /// Drops every resident client, keeping the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.fifo.clear();
        inner.stats.resident = 0;
    }
}

/// A [`Population`] fronted by a [`ClientCache`], usable as the
/// `fedsim::CohortSource` behind population-backed training rounds.
#[derive(Debug, Clone, Copy)]
pub struct CachedPopulation<'a, P: Population + ?Sized> {
    population: &'a P,
    cache: &'a ClientCache,
}

impl<'a, P: Population + ?Sized> CachedPopulation<'a, P> {
    /// Pairs a population with a cache.
    pub fn new(population: &'a P, cache: &'a ClientCache) -> Self {
        CachedPopulation { population, cache }
    }

    /// The underlying population.
    pub fn population(&self) -> &'a P {
        self.population
    }

    /// The cache in front of it.
    pub fn cache(&self) -> &'a ClientCache {
        self.cache
    }
}

impl<P: Population + ?Sized> CohortSource for CachedPopulation<'_, P> {
    fn population(&self) -> u64 {
        self.population.num_clients()
    }

    fn materialize(&self, id: u64) -> fedsim::Result<Arc<ClientData>> {
        self.cache
            .get_or_materialize(id, |storage| self.population.materialize_into(id, storage))
            .map_err(fedsim::SimError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientFrame, PopulationSpec, SyntheticPopulation};
    use feddata::Benchmark;

    fn population() -> SyntheticPopulation {
        SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::Cifar10Like, 1_000), 5)
            .unwrap()
    }

    #[test]
    fn hits_misses_and_peak_residency_are_accounted() {
        let population = population();
        let cache = ClientCache::new(3);
        assert_eq!(cache.capacity(), 3);
        for &id in &[1u64, 2, 3, 1, 2, 3, 1] {
            cache
                .get_or_materialize(id, |storage| population.materialize_into(id, storage))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident, 3);
        assert_eq!(stats.peak_resident, 3);
        assert!((stats.hit_rate() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_residency_via_fifo_eviction() {
        let population = population();
        let cache = ClientCache::new(2);
        for id in 0..10u64 {
            cache
                .get_or_materialize(id, |storage| population.materialize_into(id, storage))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.evictions, 8);
        // Nothing outside the cache held an evicted client.
        assert_eq!(stats.recycled, 8);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.peak_resident, 2);
        // The two newest survive; re-fetching them hits.
        cache
            .get_or_materialize(9, |storage| population.materialize_into(9, storage))
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_client_held_outside_the_cache_is_never_recycled() {
        let population = population();
        let cache = ClientCache::new(2);
        let fetch = |id: u64| {
            cache
                .get_or_materialize(id, |storage| population.materialize_into(id, storage))
                .unwrap()
        };
        let held = fetch(0);
        fetch(1);
        // Evicts 0, which `held` still shares, then 1, which nothing does.
        assert_eq!(*fetch(2), population.materialize(2).unwrap());
        assert_eq!(*fetch(3), population.materialize(3).unwrap());
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.recycled), (2, 1));
        assert_eq!(*held, population.materialize(0).unwrap());
    }

    #[test]
    fn a_miss_evicts_for_the_misses_still_generating() {
        // Full cache [0, 1]. While one thread generates client 2 into 0's
        // storage, a miss on 3 must count that slot as taken and recycle 1,
        // rather than generate into fresh storage and overfill the cache.
        let population = population();
        let cache = ClientCache::new(2);
        let fetch = |id: u64| {
            cache
                .get_or_materialize(id, |storage| population.materialize_into(id, storage))
                .unwrap()
        };
        fetch(0);
        fetch(1);
        let (started, wait_started) = std::sync::mpsc::channel();
        let (go, wait_go) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // Owned here, so a panic below drops it and frees the thread.
            let go = go;
            let (cache, population) = (&cache, &population);
            let slow = scope.spawn(move || {
                cache
                    .get_or_materialize(2, |storage| {
                        started.send(()).unwrap();
                        wait_go.recv().unwrap();
                        population.materialize_into(2, storage)
                    })
                    .unwrap()
            });
            wait_started.recv().unwrap();
            assert_eq!(*fetch(3), population.materialize(3).unwrap());
            go.send(()).unwrap();
            assert_eq!(*slow.join().unwrap(), population.materialize(2).unwrap());
        });
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.recycled), (2, 2));
        assert_eq!((stats.resident, stats.peak_resident), (2, 2));
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let population = population();
        let cache = ClientCache::new(0);
        for _ in 0..3 {
            cache
                .get_or_materialize(7, |storage| population.materialize_into(7, storage))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.resident, 0);
        assert_eq!(stats.peak_resident, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        // Empty-cache hit rate is defined as 0.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn cached_values_are_bit_identical_to_direct_materialization() {
        let population = population();
        let cache = ClientCache::new(8);
        let direct = population.materialize(123).unwrap();
        let via_cache = cache
            .get_or_materialize(123, |storage| population.materialize_into(123, storage))
            .unwrap();
        assert_eq!(*via_cache, direct);
        // A hit returns the same shard again.
        let hit = cache
            .get_or_materialize(123, |storage| population.materialize_into(123, storage))
            .unwrap();
        assert_eq!(*hit, direct);
    }

    #[test]
    fn clear_drops_residents_but_keeps_counters() {
        let population = population();
        let cache = ClientCache::new(4);
        for id in 0..4u64 {
            cache
                .get_or_materialize(id, |storage| population.materialize_into(id, storage))
                .unwrap();
        }
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.resident, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.peak_resident, 4);
        // Post-clear lookups miss again.
        cache
            .get_or_materialize(0, |storage| population.materialize_into(0, storage))
            .unwrap();
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn a_poisoned_lock_still_serves_and_counts() {
        let population = population();
        let cache = ClientCache::new(2);
        let fetch = |id: u64| {
            let client =
                cache.get_or_materialize(id, |storage| population.materialize_into(id, storage));
            assert_eq!(*client.unwrap(), population.materialize(id).unwrap());
        };
        fetch(1);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = cache.inner.lock().unwrap();
                panic!("poisoning the cache lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.inner.is_poisoned());
        fetch(1);
        fetch(2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (1, 2, 2));
        cache.clear();
        assert_eq!((cache.stats().resident, cache.stats().misses), (0, 2));
    }

    #[test]
    fn stats_publish_as_gauges() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            recycled: 1,
            resident: 5,
            peak_resident: 7,
        };
        let trace = fedtrace::Trace::new();
        stats.publish(trace.registry(), "pop.cache");
        let snap = trace.snapshot();
        assert_eq!(snap.gauge("pop.cache.hits").unwrap().value, 3.0);
        assert_eq!(snap.gauge("pop.cache.misses").unwrap().value, 1.0);
        assert_eq!(snap.gauge("pop.cache.evictions").unwrap().value, 2.0);
        assert_eq!(snap.gauge("pop.cache.recycled").unwrap().value, 1.0);
        assert_eq!(snap.gauge("pop.cache.resident").unwrap().value, 5.0);
        assert_eq!(snap.gauge("pop.cache.peak_resident").unwrap().value, 7.0);
        assert_eq!(snap.gauge("pop.cache.hit_rate").unwrap().value, 0.75);
    }

    #[test]
    fn cached_population_implements_cohort_source() {
        let population = population();
        let cache = ClientCache::new(4);
        let source = CachedPopulation::new(&population, &cache);
        assert_eq!(CohortSource::population(&source), 1_000);
        let client = CohortSource::materialize(&source, 77).unwrap();
        assert_eq!(*client, population.materialize(77).unwrap());
        assert!(CohortSource::materialize(&source, 1_000).is_err());
        assert_eq!(source.population().num_clients(), 1_000);
        assert_eq!(source.cache().stats().misses, 2);
    }
}
