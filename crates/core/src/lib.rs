//! Noise-aware federated hyperparameter tuning — the primary contribution of
//! *"On Noisy Evaluation in Federated Hyperparameter Tuning"* (MLSys 2023) as
//! a reusable library, plus one experiment runner per table/figure of the
//! paper's evaluation.
//!
//! # Layout
//!
//! - [`engine`] — the unified trial execution engine: [`TrialRunner`] fans
//!   independent trials out under an execution policy with per-trial derived
//!   seeds and results that are bit-identical between sequential and
//!   parallel execution. It is an argument of every experiment that fans
//!   out; the library never builds one from the environment.
//! - [`scale`] — experiment scale presets (paper-scale, CPU default, smoke).
//! - [`context`] — a benchmark dataset bundled with its search space and
//!   model architecture.
//! - [`noise`] — the [`NoiseConfig`] describing every evaluation-noise source
//!   studied in the paper (client subsampling, systems-heterogeneity bias,
//!   differential privacy, weighting scheme), the noisy-evaluation kernel,
//!   and the Laplace calibration and one-shot top-k release behind its
//!   [`PrivacyBudget`].
//! - [`pool`] — the pre-trained configuration pool behind the paper's
//!   RS-only analyses: [`TrainedBenchmark`] trains 128 configurations per
//!   benchmark once, and every RS figure simulates many noisy tuning runs
//!   over it cheaply.
//! - [`objective`] — [`BatchFederatedObjective`], the live objective that
//!   trains configurations on demand with noisy evaluation: point-keyed,
//!   order-independent, and the one every scheduler driver (and so every
//!   RS/TPE/Hyperband/BOHB comparison) evaluates.
//! - [`concurrent`] — the objective contract ([`ConcurrentObjective`]) and
//!   the one [`Pump`] that drives it, inline, on a scoped pool, or for the
//!   `fedserve` daemon.
//! - [`scheduler`] — the sans-io [`ExecutorCore`] with its two [`Clock`]s
//!   (virtual time, or batch by batch) and [`drive`], the one driver of
//!   `fedhpo`'s ask/tell [`fedhpo::Scheduler`] methods over that pump, with
//!   bit-identical results at every thread count.
//! - [`experiments`] — one runner per paper table/figure, the RS figures as
//!   analyses over the one trained pool per benchmark; see `DESIGN.md` for
//!   the experiment index.
//!
//! # Example
//!
//! ```
//! use fedtune_core::{BenchmarkContext, ExperimentScale, NoiseConfig};
//! use feddata::Benchmark;
//!
//! let scale = ExperimentScale::smoke();
//! let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
//! assert_eq!(ctx.dataset().num_val_clients(), 10);
//! let noise = NoiseConfig::paper_noisy();
//! assert!(noise.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concurrent;
pub mod context;
pub mod engine;
pub mod experiments;
pub mod noise;
pub mod objective;
pub mod pool;
pub mod report;
pub mod scale;
pub mod scheduler;

pub use concurrent::{
    Admission, ConcurrentEval, ConcurrentObjective, ConcurrentSink, EvalJob, EvalOutput, Host,
    Pump, Ungated,
};
pub use context::{hyperparams_from_config, BenchmarkContext};
pub use engine::{TrialContext, TrialRunner};
pub use fedsim::clock::{ClientRuntimeModel, CostModel};
pub use fedsim::ExecutionPolicy;
pub use noise::{noisy_error, NoiseConfig, PrivacyBudget, Validation};
pub use objective::{
    selected_true_error, selected_true_error_within_sim, BatchFederatedObjective, CampaignLog,
    ObjectiveLogEntry,
};
pub use pool::{ConfigPool, PooledConfig, TrainedBenchmark};
pub use report::{BenchmarkSeries, ExperimentReport, SeriesGroup, SeriesPoint};
pub use scale::ExperimentScale;
pub use scheduler::{
    drive, Budget, Cap, Clock, DispatchedTrial, Drive, EventDrivenOutcome, ExecutorCore,
    ExecutorStep, VirtualExecution,
};
#[doc(hidden)]
pub use scheduler::{run_event_driven_concurrent_traced, run_event_driven_traced};

use std::fmt;

/// Errors produced by the experiment layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An experiment or noise configuration was invalid.
    InvalidConfig {
        /// Description of the violation.
        message: String,
    },
    /// An underlying dataset operation failed.
    Data(feddata::DataError),
    /// An underlying simulation operation failed.
    Sim(fedsim::SimError),
    /// An underlying model operation failed.
    Model(fedmodels::ModelError),
    /// An underlying HPO operation failed.
    Hpo(fedhpo::HpoError),
    /// An underlying population operation failed.
    Pop(fedpop::PopError),
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
    /// An evaluation job panicked before reporting to its driver.
    EvalPanicked,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Hpo(e) => write!(f, "hpo error: {e}"),
            CoreError::Pop(e) => write!(f, "population error: {e}"),
            CoreError::Math(e) => write!(f, "math error: {e}"),
            CoreError::EvalPanicked => write!(f, "an evaluation task panicked"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::InvalidConfig { .. } | CoreError::EvalPanicked => None,
            CoreError::Data(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Hpo(e) => Some(e),
            CoreError::Pop(e) => Some(e),
            CoreError::Math(e) => Some(e),
        }
    }
}

macro_rules! impl_from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CoreError {
            fn from(e: $ty) -> Self {
                CoreError::$variant(e)
            }
        }
    };
}

impl_from_error!(Data, feddata::DataError);
impl_from_error!(Sim, fedsim::SimError);
impl_from_error!(Model, fedmodels::ModelError);
impl_from_error!(Hpo, fedhpo::HpoError);
impl_from_error!(Pop, fedpop::PopError);
impl_from_error!(Math, fedmath::MathError);

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

pub(crate) fn invalid(message: impl Into<String>) -> CoreError {
    CoreError::InvalidConfig {
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_conversions_and_display() {
        let e = CoreError::InvalidConfig {
            message: "bad rate".into(),
        };
        assert!(e.to_string().contains("bad rate"));
        assert!(e.source().is_none());
        let cases: Vec<CoreError> = vec![
            feddata::DataError::InvalidSpec {
                message: "x".into(),
            }
            .into(),
            fedsim::SimError::InvalidConfig {
                message: "x".into(),
            }
            .into(),
            fedmodels::ModelError::EmptyBatch.into(),
            fedhpo::HpoError::InvalidConfig {
                message: "x".into(),
            }
            .into(),
            fedmath::MathError::EmptyInput { what: "x" }.into(),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some());
        }
    }
}
