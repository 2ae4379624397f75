//! Hyperparameter-optimization methods with noisy-evaluation support.
//!
//! This crate implements the four HP-tuning methods compared in the paper
//! (§2.3, Appendix A), plus the bootstrap analysis used for the RS-only
//! figures:
//!
//! - [`RandomSearch`] — the simple baseline (Algorithm 1/2).
//! - [`Tpe`] — the Tree-structured Parzen Estimator (Bergstra et al. 2011),
//!   a Bayesian-optimization method based on kernel-density estimates of the
//!   good and bad configuration distributions.
//! - [`SuccessiveHalving`] / [`Hyperband`] — early-stopping methods
//!   (Li et al. 2017).
//! - [`Bohb`] — the hybrid that replaces Hyperband's random sampling with the
//!   TPE acquisition function (Falkner et al. 2018).
//! - [`Asha`] — asynchronous successive halving (Li et al. 2020): per-rung
//!   promotions computed from whatever results have arrived.
//! - [`AsyncAsha`] — the same ladder run genuinely asynchronously: the
//!   scheduler is [`Scheduler::async_capable`], so event-driven drivers
//!   re-poll it on every completion and promotions fire without rung
//!   barriers.
//! - [`ReEvaluation`] — the paper's §5 mitigation as a wrapper policy:
//!   top-k survivors are re-evaluated with fresh noise draws before
//!   selection. Over [`RandomSearch`] with `top_k = num_configs` it is the
//!   "resample previously seen configurations" mitigation.
//!
//! Every method is a batched ask/tell [`Scheduler`] (`suggest` a batch of
//! [`TrialRequest`]s, `report` each [`TrialResult`]) built from its
//! configuration through [`IntoScheduler`]; that is the only tuning
//! interface. Campaigns are driven by `fedtune_core::scheduler::run_scheduled`
//! (or the event-driven executor) against a `ConcurrentObjective`.
//! [`Objective`], [`FunctionObjective`] and [`run_scheduler`] are this crate's
//! sequential reference loop — what `run_scheduled` is pinned against record
//! for record and what the unit tests below the executor run on — not an API
//! to build campaigns on.
//!
//! The crate is deliberately **noise-agnostic**: schedulers minimise whatever
//! score is reported, and the experiment harness in `fedtune-core`
//! decides how noisy that report is (client subsampling, heterogeneity,
//! differential privacy, proxy data). This mirrors how the tuning methods in
//! the paper operate on whatever validation signal the federated system can
//! provide.
//!
//! # Example
//!
//! ```
//! use fedhpo::{run_scheduler, FunctionObjective, IntoScheduler, RandomSearch, SearchSpace};
//!
//! // Minimise a quadratic over a 1-D space with RS.
//! let space = SearchSpace::new().with_uniform("x", -5.0, 5.0).unwrap();
//! let mut objective = FunctionObjective::new(|config, _resource| {
//!     let x = config.values()[0];
//!     (x - 1.0) * (x - 1.0)
//! });
//! let mut scheduler = RandomSearch::new(32, 1).scheduler().unwrap();
//! let mut rng = fedmath::rng::rng_for(0, 0);
//! let outcome = run_scheduler(&mut scheduler, &space, &mut objective, &mut rng).unwrap();
//! let best = outcome.best().unwrap();
//! assert!(best.score < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asha;
pub mod bohb;
pub mod bootstrap;
pub mod hyperband;
pub mod objective;
pub mod random_search;
pub mod reeval;
pub mod scheduler;
pub mod space;
pub mod tpe;
pub mod tuner;

pub use asha::{Asha, AshaScheduler, AsyncAsha};
pub use bohb::Bohb;
pub use bootstrap::{bootstrap_selection, BootstrapOutcome};
pub use hyperband::{BracketScheduler, Hyperband, SuccessiveHalving};
pub use objective::{FunctionObjective, Objective};
pub use random_search::{RandomSearch, RandomSearchScheduler};
pub use reeval::{ReEvalScheduler, ReEvaluation};
pub use scheduler::{
    run_scheduler, BudgetLedger, IntoScheduler, Scheduler, TrialRequest, TrialResult,
};
pub use space::{Dimension, HpConfig, SearchSpace};
pub use tpe::{Tpe, TpeConfig, TpeScheduler};
pub use tuner::{EvaluationRecord, TuningOutcome};

use std::fmt;

/// Errors produced by the HPO library.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HpoError {
    /// A search-space definition or tuner configuration was invalid.
    InvalidConfig {
        /// Description of the violation.
        message: String,
    },
    /// The objective function reported a failure.
    Objective {
        /// Description of the failure.
        message: String,
    },
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
}

impl fmt::Display for HpoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpoError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            HpoError::Objective { message } => write!(f, "objective error: {message}"),
            HpoError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for HpoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HpoError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedmath::MathError> for HpoError {
    fn from(e: fedmath::MathError) -> Self {
        HpoError::Math(e)
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, HpoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_source() {
        let e = HpoError::InvalidConfig {
            message: "k = 0".into(),
        };
        assert!(e.to_string().contains("k = 0"));
        assert!(e.source().is_none());
        let e = HpoError::Objective {
            message: "diverged".into(),
        };
        assert!(e.to_string().contains("diverged"));
        let e: HpoError = fedmath::MathError::EmptyInput { what: "argmin" }.into();
        assert!(e.source().is_some());
    }
}
