//! Hyperparameter-optimization methods with noisy-evaluation support.
//!
//! This crate implements the four HP-tuning methods compared in the paper
//! (§2.3, Appendix A) and the asynchronous and re-evaluating variants built
//! on them (the RS-only figures' pool bootstrap lives in
//! `fedtune_core::experiments`):
//!
//! - [`RandomSearch`] — the simple baseline (Algorithm 1/2).
//! - [`Tpe`] — the Tree-structured Parzen Estimator (Bergstra et al. 2011),
//!   a Bayesian-optimization method based on kernel-density estimates of the
//!   good and bad configuration distributions.
//! - [`Hyperband`] — the early-stopping method (Li et al. 2017): a ladder
//!   of Successive Halving brackets, each a rung-synchronous [`Asha`]
//!   ladder. [`Hyperband::bohb`] builds BOHB on the same ladder, replacing
//!   its random sampling with the TPE acquisition function (Falkner et al.
//!   2018).
//! - [`Asha`] — asynchronous successive halving (Li et al. 2020): per-rung
//!   promotions computed from whatever results have arrived.
//!   [`Asha::asynchronous`] runs the same ladder genuinely asynchronously:
//!   the scheduler is [`Scheduler::async_capable`], so event-driven drivers
//!   re-poll it on every completion and promotions fire without rung
//!   barriers.
//! - [`ReEvaluation`] — the paper's §5 mitigation as a wrapper policy:
//!   top-k survivors are re-evaluated with fresh noise draws before
//!   selection. Over [`RandomSearch`] with `top_k = num_configs` it is the
//!   "resample previously seen configurations" mitigation. Selection itself
//!   reads the campaign log (`fedtune_core::selected_true_error`), which
//!   averages each finalist's fresh draws.
//!
//! Every method is one type: a batched ask/tell [`Scheduler`] (`suggest` a
//! batch of [`TrialRequest`]s, `report` each [`TrialResult`]) whose
//! constructor validates its parameters and returns a fresh campaign; that
//! is the only tuning interface. Campaigns are driven by
//! `fedtune_core::scheduler::drive`, batch by batch or in virtual time,
//! against a `ConcurrentObjective`; it is the one loop that runs a
//! scheduler. [`BudgetLedger`] is the one rule that charges a campaign's
//! rounds, and [`TuningOutcome::record`] applies it in delivery order.
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
//! The contract by hand: suggest a batch, evaluate each request, report each
//! result. Here RS minimises a quadratic over a 1-D space.
//!
//! ```
//! use fedhpo::{RandomSearch, Scheduler, SearchSpace, TrialResult, TuningOutcome};
//!
//! let space = SearchSpace::new().with_uniform("x", -5.0, 5.0).unwrap();
//! let mut scheduler = RandomSearch::new(32, 1).unwrap();
//! let mut rng = fedmath::rng::rng_for(0, 0);
//! let mut outcome = TuningOutcome::default();
//! while !scheduler.is_finished() {
//!     for request in scheduler.suggest(&space, &mut rng).unwrap() {
//!         let x = request.config.values()[0];
//!         let result = TrialResult::of(&request, (x - 1.0) * (x - 1.0));
//!         outcome.record(&result, 0.0);
//!         scheduler.report(&result).unwrap();
//!     }
//! }
//! assert_eq!(outcome.num_evaluations(), 32);
//! assert!(outcome.best().unwrap().score < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asha;
pub mod hyperband;
pub mod random_search;
pub mod reeval;
pub mod scheduler;
pub mod space;
pub mod tpe;
pub mod tuner;

pub use asha::Asha;
pub use hyperband::Hyperband;
pub use random_search::RandomSearch;
pub use reeval::ReEvaluation;
pub use scheduler::{BudgetLedger, Scheduler, TrialRequest, TrialResult};
pub use space::{Dimension, HpConfig, SearchSpace};
pub use tpe::Tpe;
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
