//! # fedtune
//!
//! Facade crate for the Rust reproduction of *"On Noisy Evaluation in
//! Federated Hyperparameter Tuning"* (Kuo et al., MLSys 2023).
//!
//! The workspace is organised as a stack of substrates (re-exported here):
//!
//! - [`fedmath`] — numerical primitives (matrices, statistics, seeded RNG).
//! - [`feddata`] — synthetic federated datasets and partitioning.
//! - [`fedmodels`] — models with hand-written gradients and local SGD.
//! - [`fedsim`] — the cross-device federated-learning simulator.
//! - [`fedhpo`] — hyperparameter-optimization methods (RS, TPE, Hyperband,
//!   BOHB, ASHA, the re-evaluation mitigation) behind the batched ask/tell
//!   scheduler interface.
//! - [`fedpop`] — lazy virtual client populations: O(cohort)
//!   materialization of million-client federations, cohort sampling, and
//!   availability windows.
//! - [`fedtune_core`] — noise-aware evaluation pipeline (client subsampling,
//!   systems bias, Laplace differential privacy) and the per-figure
//!   experiment runners (the paper's primary contribution as a library).
//! - [`fedstore`] — the persistent trial ledger and the recorder over it:
//!   record live campaigns once, then replay method sweeps from the ledger
//!   alone and resume interrupted campaigns bit-identically.
//! - [`fedtrace`] — deterministic observability: the sharded metrics
//!   registry and the Chrome `trace_event` exporters over the virtual-time
//!   executor timeline and the wall-clock phase profile. Accounting, never
//!   semantics: tracing on/off cannot move a result bit.
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! benchmark harness that regenerates every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use feddata;
pub use fedhpo;
pub use fedmath;
pub use fedmodels;
pub use fedpop;
pub use fedsim;
pub use fedstore;
pub use fedtrace;
pub use fedtune_core;

/// Workspace version string (matches every member crate).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
