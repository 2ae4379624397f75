//! Cross-device federated learning simulator.
//!
//! This crate implements the training and evaluation workflow of §2.1 of the
//! paper (Algorithm 2 in Appendix D):
//!
//! - [`training::FederatedTrainer`] runs federated training rounds: sample a
//!   subset of training clients, run local SGD (`ClientOPT`) on each, average
//!   the client updates, and apply a server optimizer (`ServerOPT`) —
//!   [`server::FedAvg`], [`server::FedSgd`], or [`server::FedAdam`] (the
//!   paper's choice, Reddi et al. 2020).
//! - [`evaluation`] implements the federated validation objective of Eq. 2:
//!   per-client error rates combined by a uniform or example-weighted
//!   average, over either the full validation pool or a subsample.
//! - [`sampling`] provides the client-selection strategies: uniform
//!   sampling without replacement (the default protocol) and the
//!   accuracy-biased sampling `(a + δ)^b` used to model systems heterogeneity
//!   in §3.2.
//! - [`exec`] is the deterministic execution engine: an
//!   [`exec::ExecutionPolicy`] (`Sequential` or `Parallel`) governs how the
//!   independent trials of an experiment fan out over threads
//!   ([`exec::map_range`] behind `fedtune_core::TrialRunner`), with
//!   bit-identical results under every policy, and the one worker pool type
//!   campaign drivers run their evaluations on, [`ThreadPool`]: scoped
//!   ([`with_thread_pool`]) or owned ([`SharedPool`]), with one panic
//!   policy (a panicking job is contained and counted, its worker lives
//!   on). That is the only level of parallelism: a round and a validation
//!   pass run on the thread that owns their trial.
//!   [`ExecutionPolicy::from_env`] is the only reader of `FEDTUNE_THREADS`,
//!   and it is for the edge of a process: nothing in this crate calls it.
//! - [`clock`] is the virtual-time layer for discrete-event campaign
//!   simulation: a monotone [`clock::VirtualClock`], a completion queue with
//!   total deterministic `(sim_time, key)` ordering, a virtual
//!   [`clock::WorkerPool`], and the [`clock::CostModel`] deriving simulated
//!   per-trial runtimes (including heavy-tailed client stragglers) as a pure
//!   function of the evaluated point.
//!
//! # Example
//!
//! ```
//! use feddata::{Benchmark, DatasetSpec, Scale};
//! use fedmodels::ModelSpec;
//! use fedsim::training::{FederatedTrainer, TrainerConfig};
//!
//! let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
//!     .generate(0)
//!     .unwrap();
//! let trainer = FederatedTrainer::new(TrainerConfig::default()).unwrap();
//! let run = trainer.train(&dataset, ModelSpec::Softmax, 3, 7).unwrap();
//! assert!(run.rounds_completed() == 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod evaluation;
pub mod exec;
pub mod hyperparams;
pub mod sampling;
pub mod server;
pub mod training;

pub use clock::{ClientRuntimeModel, CostModel, EventKey, EventQueue, VirtualClock, WorkerPool};
pub use evaluation::{ClientEvaluation, FederatedEvaluation, WeightingScheme};
pub use exec::{with_thread_pool, ExecutionPolicy, SharedPool, ThreadPool};
pub use hyperparams::{FedAdamConfig, FederatedHyperparams};
pub use sampling::{BiasedSampler, ClientSampler, UniformSampler};
pub use server::{FedAdam, FedAvg, FedSgd, ServerOptimizer};
pub use training::{CohortSource, FederatedTrainer, TrainerConfig, TrainingRun};

use std::fmt;

/// Errors produced by the federated simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration value was invalid.
    InvalidConfig {
        /// Description of the violation.
        message: String,
    },
    /// A client-selection request could not be satisfied
    /// (e.g. more clients requested than exist).
    Sampling {
        /// Description of the problem.
        message: String,
    },
    /// An underlying model operation failed.
    Model(fedmodels::ModelError),
    /// An underlying dataset operation failed.
    Data(feddata::DataError),
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            SimError::Sampling { message } => write!(f, "sampling error: {message}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Data(e) => write!(f, "data error: {e}"),
            SimError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            SimError::Data(e) => Some(e),
            SimError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedmodels::ModelError> for SimError {
    fn from(e: fedmodels::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<feddata::DataError> for SimError {
    fn from(e: feddata::DataError) -> Self {
        SimError::Data(e)
    }
}

impl From<fedmath::MathError> for SimError {
    fn from(e: fedmath::MathError) -> Self {
        SimError::Math(e)
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_sources() {
        let e = SimError::InvalidConfig {
            message: "zero rounds".into(),
        };
        assert!(e.to_string().contains("zero rounds"));
        assert!(e.source().is_none());

        let e = SimError::Sampling {
            message: "too many".into(),
        };
        assert!(e.to_string().contains("too many"));

        let e: SimError = fedmodels::ModelError::EmptyBatch.into();
        assert!(e.source().is_some());
        let e: SimError = feddata::DataError::InvalidSpec {
            message: "x".into(),
        }
        .into();
        assert!(e.source().is_some());
        let e: SimError = fedmath::MathError::EmptyInput { what: "mean" }.into();
        assert!(e.source().is_some());
    }
}
