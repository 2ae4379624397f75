//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! log-scale histograms with a lock-free hot path.
//!
//! # Determinism
//!
//! Counter and histogram updates land in per-thread **shards** (a
//! thread-local slot index into a fixed array of cache-line-padded atomics)
//! and reads merge the shards **in slot order**. Because `u64` addition is
//! commutative and associative, the merged value is a pure function of the
//! multiset of updates — independent of which thread performed which update
//! and of any interleaving. The same argument covers histogram buckets
//! (per-bucket sums), `count`/`sum`, and `min`/`max` (idempotent lattice
//! joins). Gauges are last-write-wins and deterministic whenever the writer
//! is (all in-tree writers publish from single-threaded summary code).
//!
//! Registration (name → handle) takes a mutex; updates through a handle
//! never do.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of counter/histogram shards. A power of two so the thread-slot
/// assignment wraps cheaply; more shards than typical worker counts keeps
/// contention negligible without bloating snapshots.
pub const SHARDS: usize = 16;

/// One cache-line-padded atomic cell, so shards on different threads never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

fn shard_slots() -> [PaddedU64; SHARDS] {
    std::array::from_fn(|_| PaddedU64::default())
}

/// The calling thread's shard slot: assigned round-robin on first use and
/// cached in a thread-local, so the hot path is one `Cell` read.
fn thread_shard() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|slot| {
        let mut index = slot.get();
        if index == usize::MAX {
            index = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(index);
        }
        index
    })
}

/// A monotonic counter. Cloning shares storage; increments are one relaxed
/// atomic add into the calling thread's shard.
#[derive(Debug, Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// A standalone counter (not registered anywhere).
    pub fn new() -> Self {
        Counter {
            shards: Arc::new(shard_slots()),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.add_in_shard(thread_shard(), n);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` directly into shard `slot % SHARDS`. The merge-determinism
    /// test surface: any assignment of updates to shards must read back the
    /// same total.
    pub fn add_in_shard(&self, slot: usize, n: u64) {
        self.shards[slot % SHARDS].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value: shard sums merged in slot order.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    /// Current value as `f64` bits.
    value: AtomicU64,
    /// Peak value as `f64` bits (monotone under `set`).
    peak: AtomicU64,
}

/// A last-write-wins gauge over non-negative `f64` values, with a monotone
/// peak. Cloning shares storage.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// A standalone gauge (not registered anywhere), reading 0 until set.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge, raising the peak if `value` exceeds it. Negative or
    /// non-finite values are clamped to 0 — gauges model sizes and rates.
    pub fn set(&self, value: f64) {
        let value = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        self.inner.value.store(value.to_bits(), Ordering::Relaxed);
        let mut seen = self.inner.peak.load(Ordering::Relaxed);
        while value > f64::from_bits(seen) {
            match self.inner.peak.compare_exchange_weak(
                seen,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.inner.value.load(Ordering::Relaxed))
    }

    /// The largest value ever set.
    pub fn peak(&self) -> f64 {
        f64::from_bits(self.inner.peak.load(Ordering::Relaxed))
    }
}

/// Histogram buckets: index 0 holds the value 0; index `k >= 1` holds
/// values in `[2^(k-1), 2^k)`. 65 buckets cover the whole `u64` range.
const BUCKETS: usize = 65;

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index`.
fn bucket_le(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket log2-scale histogram of `u64` observations. All updates
/// are commutative relaxed atomics, so the merged snapshot is deterministic
/// regardless of thread interleaving. Cloning shares storage.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A standalone histogram (not registered anywhere).
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    fn snapshot_into(&self, name: &str) -> HistogramSnapshot {
        let inner = &self.inner;
        let count = inner.count.load(Ordering::Relaxed);
        let buckets = inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| HistogramBucket {
                    le: bucket_le(i),
                    count: c,
                })
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                inner.min.load(Ordering::Relaxed)
            },
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Merged shard total.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
    /// Largest value ever set.
    pub peak: f64,
}

/// One non-empty log2 bucket of a histogram snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket's value range.
    pub le: u64,
    /// Observations that landed in the bucket.
    pub count: u64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by `le`.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A deterministic point-in-time export of a whole [`Registry`], sorted by
/// metric name in every section. Serializes through the vendored serde, so
/// it can ride inside `BENCH_*.json` summaries and stand alone as
/// `metrics-*.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// The value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Merges `other` into this snapshot, metric by metric, keeping every
    /// section sorted by name: counter values add, gauges join as
    /// last-write-wins on `value` with a max-merged `peak`, and histograms
    /// merge per bucket with lattice-joined `min`/`max`. The service daemon
    /// uses this to aggregate per-campaign registries into one service-level
    /// view; like every fedtrace read, it is accounting, never semantics.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for counter in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == counter.name) {
                Some(mine) => mine.value = mine.value.wrapping_add(counter.value),
                None => self.counters.push(counter.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for gauge in &other.gauges {
            match self.gauges.iter_mut().find(|g| g.name == gauge.name) {
                Some(mine) => {
                    mine.value = gauge.value;
                    mine.peak = mine.peak.max(gauge.peak);
                }
                None => self.gauges.push(gauge.clone()),
            }
        }
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for histogram in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|h| h.name == histogram.name)
            {
                Some(mine) => {
                    let both_nonempty = mine.count > 0 && histogram.count > 0;
                    mine.min = if both_nonempty {
                        mine.min.min(histogram.min)
                    } else {
                        mine.min.max(histogram.min)
                    };
                    mine.max = mine.max.max(histogram.max);
                    mine.count = mine.count.wrapping_add(histogram.count);
                    mine.sum = mine.sum.wrapping_add(histogram.sum);
                    for bucket in &histogram.buckets {
                        match mine.buckets.iter_mut().find(|b| b.le == bucket.le) {
                            Some(b) => b.count = b.count.wrapping_add(bucket.count),
                            None => mine.buckets.push(bucket.clone()),
                        }
                    }
                    mine.buckets.sort_by_key(|b| b.le);
                }
                None => self.histograms.push(histogram.clone()),
            }
        }
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. Registration is get-or-create by name
/// (mutex-guarded, intended for setup paths); the returned handles update
/// lock-free. Snapshots list metrics in name order — a deterministic export.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The name table, poisoned or not: a thread that panicked while holding
    /// the lock left at most one entry half-inserted into a map, which is
    /// still a valid map.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| CounterSnapshot {
                    name: name.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| GaugeSnapshot {
                    name: name.clone(),
                    value: g.value(),
                    peak: g.peak(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| h.snapshot_into(name))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_aggregates_registries() {
        let a = Registry::new();
        a.counter("serve.commits").add(5);
        a.gauge("depth").set(2.0);
        a.gauge("depth").set(1.0); // peak 2.0, value 1.0
        a.histogram("latency").observe(3);
        let b = Registry::new();
        b.counter("serve.commits").add(7);
        b.counter("serve.only_b").add(1);
        b.gauge("depth").set(1.5);
        b.histogram("latency").observe(300);
        b.histogram("only_b").observe(1);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("serve.commits"), Some(12));
        assert_eq!(merged.counter("serve.only_b"), Some(1));
        let depth = merged.gauge("depth").unwrap();
        assert_eq!(depth.value, 1.5);
        assert_eq!(depth.peak, 2.0);
        let latency = merged.histogram("latency").unwrap();
        assert_eq!(latency.count, 2);
        assert_eq!(latency.sum, 303);
        assert_eq!(latency.min, 3);
        assert_eq!(latency.max, 300);
        assert!(latency.buckets.windows(2).all(|w| w[0].le < w[1].le));
        assert_eq!(merged.histogram("only_b").unwrap().count, 1);
        // Sections stay name-sorted so merged exports remain deterministic.
        assert!(merged.counters.windows(2).all(|w| w[0].name <= w[1].name));
        // Merging an empty snapshot is the identity.
        let before = merged.clone();
        merged.merge(&MetricsSnapshot::empty());
        assert_eq!(before, merged);
    }

    #[test]
    fn counter_merges_shards_in_slot_order() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        for slot in 0..(2 * SHARDS) {
            c.add_in_shard(slot, 2);
        }
        assert_eq!(c.value(), 4 + 2 * 2 * SHARDS as u64);
        // Clones share storage.
        let clone = c.clone();
        clone.add(1);
        assert_eq!(c.value(), clone.value());
    }

    #[test]
    fn counter_is_thread_safe_and_exact() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::new();
        assert_eq!(g.value(), 0.0);
        g.set(2.5);
        g.set(9.0);
        g.set(4.0);
        assert_eq!(g.value(), 4.0);
        assert_eq!(g.peak(), 9.0);
        // Negative and non-finite inputs clamp to zero without poisoning
        // the peak.
        g.set(-3.0);
        assert_eq!(g.value(), 0.0);
        g.set(f64::NAN);
        assert_eq!(g.value(), 0.0);
        assert_eq!(g.peak(), 9.0);
    }

    #[test]
    fn histogram_buckets_are_log2_with_exact_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(64), u64::MAX);
        // Every value falls in the bucket whose bound brackets it.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v}");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn histogram_snapshot_summarises() {
        let h = Histogram::new();
        let snap_empty = h.snapshot_into("h");
        assert_eq!(snap_empty.count, 0);
        assert_eq!(snap_empty.min, 0);
        assert_eq!(snap_empty.mean(), 0.0);
        for v in [0u64, 1, 5, 5, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        let snap = h.snapshot_into("h");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 911);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 900);
        assert_eq!(snap.mean(), 911.0 / 5.0);
        // Buckets: 0 → le 0; 1 → le 1; 5,5 → le 7; 900 → le 1023.
        let les: Vec<(u64, u64)> = snap.buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!(les, vec![(0, 1), (1, 1), (7, 2), (1023, 1)]);
    }

    #[test]
    fn registry_get_or_creates_and_snapshots_sorted() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.counter("a.first").add(3); // same handle storage
        r.gauge("m.gauge").set(1.5);
        r.histogram("h.hist").observe(4);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        assert_eq!(snap.counter("a.first"), Some(5));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("m.gauge").unwrap().value, 1.5);
        assert_eq!(snap.histogram("h.hist").unwrap().count, 1);
        assert!(MetricsSnapshot::empty().counters.is_empty());
    }

    #[test]
    fn a_poisoned_registry_still_registers_and_snapshots() {
        let r = Registry::new();
        r.counter("before").add(1);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = r.inner.lock().unwrap();
                panic!("poisoning the registry lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(r.inner.is_poisoned());
        r.counter("before").add(2);
        r.counter("after").add(4);
        r.gauge("g").set(0.5);
        r.histogram("h").observe(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("before"), Some(3));
        assert_eq!(snap.counter("after"), Some(4));
        assert_eq!(snap.gauge("g").unwrap().value, 0.5);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(0.25);
        let h = r.histogram("h");
        h.observe(3);
        h.observe(300);
        let snap = r.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn identical_update_multisets_snapshot_identically() {
        // The registry-level determinism statement: two registries receiving
        // the same multiset of updates from different thread interleavings
        // produce byte-identical snapshots.
        let build = |threads: usize| {
            let r = Registry::new();
            let c = r.counter("c");
            let h = r.histogram("h");
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let c = c.clone();
                    let h = h.clone();
                    scope.spawn(move || {
                        for i in 0..1000u64 {
                            if i % threads as u64 == t as u64 {
                                c.add(i);
                                h.observe(i);
                            }
                        }
                    });
                }
            });
            serde_json::to_string(&r.snapshot()).unwrap()
        };
        let reference = build(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(reference, build(threads), "{threads} threads");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The satellite contract: merging per-thread shards in slot order
        /// makes the counter value a pure function of the update multiset —
        /// any assignment of the same updates to shards, in any order, reads
        /// back the same total.
        #[test]
        fn prop_shard_merge_is_insertion_order_invariant(
            raw in proptest::collection::vec(0u64..100_000, 0..64),
        ) {
            // Decode each draw into (shard slot, increment).
            let updates: Vec<(usize, u64)> = raw
                .iter()
                .map(|&v| ((v % SHARDS as u64) as usize, v / SHARDS as u64 + 1))
                .collect();
            let forward = Counter::new();
            for &(slot, n) in &updates {
                forward.add_in_shard(slot, n);
            }
            // Reversed insertion order, and every update displaced to a
            // different shard.
            let scrambled = Counter::new();
            for &(slot, n) in updates.iter().rev() {
                scrambled.add_in_shard(slot + 7, n);
            }
            let expected: u64 = updates.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(forward.value(), expected);
            prop_assert_eq!(scrambled.value(), expected);
        }

        /// Histogram state is likewise insertion-order-invariant.
        #[test]
        fn prop_histogram_is_order_invariant(
            values in proptest::collection::vec(0u64..100_000, 0..64),
        ) {
            let forward = Histogram::new();
            for &v in &values {
                forward.observe(v);
            }
            let reversed = Histogram::new();
            for &v in values.iter().rev() {
                reversed.observe(v);
            }
            prop_assert_eq!(
                forward.snapshot_into("h"),
                reversed.snapshot_into("h")
            );
        }
    }
}
