//! Ledger accounting on the global [`fedtrace`] registry.
//!
//! Every counter here is write-only from the store's point of view — no
//! persistence or recovery decision ever reads one back, so tracing cannot
//! change what lands on disk (the accounting-never-semantics contract). The
//! sync-latency histogram is **wall-domain**: it measures real `sync_data`
//! time and is for performance work only.

use std::sync::OnceLock;

pub(crate) struct StoreMetrics {
    /// Records appended to segment writers (`store.records_appended`).
    pub records_appended: fedtrace::Counter,
    /// Bytes written to segment files, headers included
    /// (`store.bytes_written`).
    pub bytes_written: fedtrace::Counter,
    /// Batch boundaries marked via group commit (`store.group_commits`).
    pub group_commits: fedtrace::Counter,
    /// Unconditional flush+sync calls that hit an open segment
    /// (`store.syncs`).
    pub syncs: fedtrace::Counter,
    /// Wall-clock microseconds per flush+sync (`store.sync_micros`).
    pub sync_micros: fedtrace::Histogram,
    /// Records made durable per flush+sync (`store.sync_batch`): with
    /// `store.sync_micros` it answers "is the ledger fsync-bound" — a mean
    /// near 1 is one `sync_data` per record, a large one is group commit.
    pub sync_batch: fedtrace::Histogram,
    /// Bytes discarded by crash recovery (`store.recovery_truncated_bytes`).
    pub recovery_truncated_bytes: fedtrace::Counter,
    /// Segment files deleted by crash recovery
    /// (`store.recovery_dropped_segments`).
    pub recovery_dropped_segments: fedtrace::Counter,
    /// Completed compaction snapshot swaps (`store.compaction_swaps`).
    pub compaction_swaps: fedtrace::Counter,
    /// Records streamed by the read-only replay scan
    /// (`store.records_replayed`).
    pub records_replayed: fedtrace::Counter,
}

pub(crate) fn metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        StoreMetrics {
            records_appended: registry.counter("store.records_appended"),
            bytes_written: registry.counter("store.bytes_written"),
            group_commits: registry.counter("store.group_commits"),
            syncs: registry.counter("store.syncs"),
            sync_micros: registry.histogram("store.sync_micros"),
            sync_batch: registry.histogram("store.sync_batch"),
            recovery_truncated_bytes: registry.counter("store.recovery_truncated_bytes"),
            recovery_dropped_segments: registry.counter("store.recovery_dropped_segments"),
            compaction_swaps: registry.counter("store.compaction_swaps"),
            records_replayed: registry.counter("store.records_replayed"),
        }
    })
}
