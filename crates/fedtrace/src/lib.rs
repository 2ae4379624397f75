//! Deterministic observability for the tuning stack: a metrics registry and
//! Chrome `trace_event` exporters over the virtual-time executor timeline
//! and the wall-clock phase profile.
//!
//! # The contract: accounting, never semantics
//!
//! Every handle in this crate is **write-only from the instrumented code's
//! point of view**: nothing in the tuning stack ever branches on a counter,
//! gauge, histogram, or profile slice. Turning tracing on or off, swapping
//! exporters, or changing the real thread count must not move a single
//! result bit — the same contract `fedpop`'s `ClientCache` established for
//! caching, enforced end to end in `tests/determinism.rs`.
//!
//! # Two exporters, two clocks
//!
//! - [`virtual_timeline_json`] reads **sim** time from the event-driven
//!   executor's `VirtualClock`. The [`TrialSpan`] timeline is
//!   bit-deterministic and replay-identical: a recorded campaign and its
//!   ledger replay export byte-identical Chrome traces.
//! - [`WallProfile`] reads **wall** time from [`std::time::Instant`]. Its
//!   slices, like the sync-latency histograms, are for performance work
//!   only and are **never observed by any semantic path**.
//!
//! # Hot-path cost
//!
//! Counter increments are a thread-local shard lookup plus one relaxed
//! atomic add — no locks, no allocation. Handles are registered once (a
//! mutex-guarded name lookup) and then cloned freely; clones share storage.
//! A lock poisoned by a panicking thread is recovered, never re-raised:
//! metrics hold no invariant a half-finished update could break.
//!
//! # Export formats
//!
//! - [`MetricsSnapshot`] — typed, serde-round-trippable JSON of every
//!   registered metric, sorted by name (deterministic output).
//! - [`chrome::virtual_timeline_json`] / [`WallProfile::to_chrome_json`] —
//!   Chrome `trace_event` JSON (the `traceEvents` array format), loadable in
//!   Perfetto or `chrome://tracing`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod metrics;
pub mod span;

pub use chrome::{virtual_timeline_json, TimelineTrack, WallProfile};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket, HistogramSnapshot,
    MetricsSnapshot, Registry,
};
pub use span::TrialSpan;

use std::sync::OnceLock;

/// One observability scope: a metrics [`Registry`] plus a wall-clock
/// [`WallProfile`]. Instrumented drivers take an `Option<&Trace>`; `None`
/// means fully untraced (and must be bit-identical to `Some` — the
/// determinism contract).
#[derive(Debug, Default)]
pub struct Trace {
    registry: Registry,
    wall: WallProfile,
}

impl Trace {
    /// A fresh trace with an empty registry and an empty profile.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The metrics registry of this scope.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The wall-clock phase profile of this scope: real-time slices (driver
    /// time in suggest vs evaluate vs deliver, and similar) recorded by
    /// instrumented code. Wall-domain accounting only — nothing semantic may
    /// ever read it back.
    pub fn wall_profile(&self) -> &WallProfile {
        &self.wall
    }

    /// Snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// The process-global trace: the accounting spine shared by subsystems that
/// have no campaign-scoped trace to hand (kernel FLOP counters, ledger sync
/// accounting, cache statistics, engine progress).
pub fn global() -> &'static Trace {
    static GLOBAL: OnceLock<Trace> = OnceLock::new();
    GLOBAL.get_or_init(Trace::new)
}

/// Whether `FEDTUNE_TRACE=1` was set when first queried (cached for the
/// process lifetime).
pub fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("FEDTUNE_TRACE").as_deref() == Ok("1"))
}

/// The [`global`] trace when `FEDTUNE_TRACE=1`, else `None`. Drivers use
/// this as their default trace argument so one environment variable turns
/// tracing on across a whole example or bench run — without moving a bit.
pub fn global_if_enabled() -> Option<&'static Trace> {
    env_enabled().then(global)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_scopes_its_registry() {
        let trace = Trace::new();
        trace.registry().counter("a").add(2);
        trace.registry().counter("a").add(3);
        let snap = trace.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[0].value, 5);
        // A second trace is fully independent.
        let other = Trace::default();
        assert!(other.snapshot().counters.is_empty());
    }

    #[test]
    fn global_trace_is_a_singleton() {
        let a = global();
        let b = global();
        assert!(std::ptr::eq(a, b));
        a.registry().counter("lib_test.global").add(1);
        assert!(b
            .snapshot()
            .counters
            .iter()
            .any(|c| c.name == "lib_test.global"));
    }

    #[test]
    fn env_gate_is_consistent() {
        // Whatever the environment says, the two accessors agree.
        assert_eq!(global_if_enabled().is_some(), env_enabled());
    }
}
