//! A persistent, content-addressed **trial ledger** plus the tabular
//! surrogate objectives built on top of it.
//!
//! Every live federated tuning campaign pays full simulation cost for every
//! `(configuration, resource, replicate)` evaluation, so large
//! method-comparison sweeps are bounded by training cost rather than tuner
//! cost. This crate removes that bound with a *record → replay → resume*
//! lifecycle:
//!
//! - [`key`] — [`ConfigKey`]/[`TrialKey`]: bit-level canonical identities for
//!   evaluated points, built on `fedhpo::SearchSpace::canonical_bits`
//!   (`-0.0` normalisation, non-finite rejection, discrete snapping).
//! - [`record`] — [`TrialRecord`]: one evaluation (noisy observation *and*
//!   ground-truth error) with [`Provenance`] (benchmark, scale, seed, noise
//!   source); its JSON-line form (with a non-finite score guard) is the
//!   write-only text view the `ledger_dump` binary prints.
//! - [`segment`] — the one on-disk format: CRC32C-framed binary segments
//!   with group commit, torn-tail recovery and (in [`compaction`]) a
//!   crash-safe snapshot swap.
//! - [`store`] — [`TrialStore`]: an in-memory index over a segment ledger.
//!   Opening an existing ledger recovers and re-indexes it; inserts are
//!   durable immediately unless the [`Durability`] policy batches them.
//! - [`recorder`] — [`RecordingObjective`]: wraps any
//!   [`fedtune_core::ConcurrentEval`] (the live federated evaluation core,
//!   the `fedserve` daemon's analytic one), stages every commit in the
//!   store with one group commit per driver turn, and serves
//!   already-recorded requests *from* the store — which is exactly resume:
//!   re-driving an interrupted campaign skips its recorded prefix and
//!   continues bit-identically. Every driver records through it.
//! - [`tabular`] — [`TabularObjective`]: the scheduler-facing surrogate.
//!   Campaigns replay against the table with exact-hit semantics — a
//!   request gets its recorded bits or fails with [`StoreError::Miss`] —
//!   orders of magnitude faster than live simulation.
//! - [`replay`] — drop-in record/replay counterparts of
//!   `fedtune_core::experiments::methods::run_method_comparison`.
//!
//! # Example
//!
//! ```
//! use feddata::Benchmark;
//! use fedstore::{record_method_comparison, replay_method_comparison, TrialStore};
//! use fedtune_core::experiments::methods::{paper_noise_settings, TuningMethod};
//! use fedtune_core::{ExperimentScale, TrialRunner};
//!
//! let scale = ExperimentScale::smoke();
//! let methods = [TuningMethod::RandomSearch];
//! let settings = paper_noise_settings();
//! let mut store = TrialStore::in_memory();
//! // Record once (live federated training) ...
//! let live = record_method_comparison(
//!     &TrialRunner::sequential(),
//!     Benchmark::Cifar10Like,
//!     &scale,
//!     &methods,
//!     &settings,
//!     0,
//!     &mut store,
//! )
//! .unwrap();
//! // ... then sweep methods against the table, bit-identically.
//! let replayed =
//!     replay_method_comparison(&store, Benchmark::Cifar10Like, &scale, &methods, &settings, 0)
//!         .unwrap();
//! assert_eq!(live, replayed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compaction;
pub mod framing;
pub mod key;
pub mod lock;
mod metrics;
pub mod record;
pub mod recorder;
pub mod replay;
pub mod segment;
pub mod store;
pub mod tabular;

pub use compaction::CompactionReport;
pub use key::{ConfigKey, TrialKey};
pub use lock::LedgerLock;
pub use record::{Provenance, TrialRecord};
pub use recorder::{RecordingEval, RecordingObjective, RecordingSink};
pub use replay::{campaign_provenance, record_method_comparison, replay_method_comparison};
pub use segment::{Durability, ScanReport, SegmentConfig, SegmentWriter};
pub use store::TrialStore;
pub use tabular::TabularObjective;

use std::fmt;

/// Errors produced by the trial-ledger subsystem.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation on the ledger backend failed.
    Io {
        /// The ledger path.
        path: String,
        /// The underlying failure.
        message: String,
    },
    /// An insert collided with an existing record under the same key but a
    /// different payload.
    Conflict {
        /// Description of the colliding key.
        message: String,
    },
    /// A replay lookup found no record under a request's exact key.
    Miss {
        /// Description of the missing point.
        message: String,
    },
    /// A record failed validation (non-finite configuration values, …).
    InvalidRecord {
        /// Description of the violation.
        message: String,
    },
    /// A binary segment failed verification: CRC mismatch, torn frame, bad
    /// header, or an unhonourable compaction manifest.
    Corrupt {
        /// The damaged file.
        path: String,
        /// What failed to verify.
        message: String,
    },
    /// An underlying search-space operation failed.
    Hpo(fedhpo::HpoError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "ledger io error ({path}): {message}"),
            StoreError::Conflict { message } => write!(f, "ledger conflict: {message}"),
            StoreError::Miss { message } => write!(f, "table miss: {message}"),
            StoreError::InvalidRecord { message } => write!(f, "invalid record: {message}"),
            StoreError::Corrupt { path, message } => {
                write!(f, "ledger corruption ({path}): {message}")
            }
            StoreError::Hpo(e) => write!(f, "hpo error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Hpo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedhpo::HpoError> for StoreError {
    fn from(e: fedhpo::HpoError) -> Self {
        StoreError::Hpo(e)
    }
}

impl From<StoreError> for fedtune_core::CoreError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Hpo(inner) => fedtune_core::CoreError::Hpo(inner),
            other => fedtune_core::CoreError::Hpo(fedhpo::HpoError::Objective {
                message: other.to_string(),
            }),
        }
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_conversions() {
        let e = StoreError::Miss {
            message: "no record".into(),
        };
        assert!(e.to_string().contains("no record"));
        assert!(e.source().is_none());
        let e: StoreError = fedhpo::HpoError::InvalidConfig {
            message: "bad".into(),
        }
        .into();
        assert!(e.source().is_some());
        let core: fedtune_core::CoreError = e.into();
        assert!(core.to_string().contains("bad"));
        let core: fedtune_core::CoreError = StoreError::Conflict {
            message: "key".into(),
        }
        .into();
        assert!(core.to_string().contains("conflict"));
        for e in [
            StoreError::Io {
                path: "p".into(),
                message: "m".into(),
            },
            StoreError::InvalidRecord {
                message: "m".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
