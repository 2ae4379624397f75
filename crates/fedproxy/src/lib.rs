//! Proxy-data hyperparameter tuning and HP-transfer analysis (§4).
//!
//! When federated evaluation is too noisy to be useful, the paper proposes a
//! simple alternative: tune hyperparameters entirely on server-side *proxy
//! data* (a public dataset) and transfer only the single best configuration
//! to the client data. This crate provides:
//!
//! - [`mapping::hyperparams_from_config`] — the translation from a sampled
//!   [`fedhpo::HpConfig`] (the Appendix B search space) into the concrete
//!   [`fedsim::FederatedHyperparams`] used by the simulator.
//! - [`ConfigRunner`] — "train this configuration on this dataset for R
//!   rounds and report its full validation error", the building block behind
//!   every pool, live objective and the proxy pipeline.
//! - [`transfer`] — the HP-transfer scatter (Fig. 10/14) as a pure function
//!   of the error columns the *same* configurations reached on two datasets.
//! - [`OneShotProxy`] — the deployable two-step baseline of §4: random search
//!   on the proxy dataset, then a single training run on the client dataset.
//!   The paper's proxy figures (1, 11, 12) train nothing here: they bootstrap
//!   over one pool per benchmark (`fedtune_core::TrainedBenchmark`) and share
//!   only the selection rule, [`incumbents`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mapping;
pub mod one_shot;
pub mod runner;
pub mod transfer;

pub use mapping::hyperparams_from_config;
pub use one_shot::{incumbents, OneShotProxy, ProxyOutcome};
pub use runner::ConfigRunner;
pub use transfer::{transfer_analysis, TransferAnalysis, TransferPoint};

use std::fmt;

/// Errors produced by the proxy-tuning pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProxyError {
    /// A configuration or argument was invalid.
    InvalidConfig {
        /// Description of the violation.
        message: String,
    },
    /// An underlying HPO operation failed.
    Hpo(fedhpo::HpoError),
    /// An underlying simulation operation failed.
    Sim(fedsim::SimError),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            ProxyError::Hpo(e) => write!(f, "hpo error: {e}"),
            ProxyError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProxyError::Hpo(e) => Some(e),
            ProxyError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedhpo::HpoError> for ProxyError {
    fn from(e: fedhpo::HpoError) -> Self {
        ProxyError::Hpo(e)
    }
}

impl From<fedsim::SimError> for ProxyError {
    fn from(e: fedsim::SimError) -> Self {
        ProxyError::Sim(e)
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ProxyError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_source() {
        let e = ProxyError::InvalidConfig {
            message: "k".into(),
        };
        assert!(e.to_string().contains('k'));
        assert!(e.source().is_none());
        let e: ProxyError = fedhpo::HpoError::InvalidConfig {
            message: "x".into(),
        }
        .into();
        assert!(e.source().is_some());
        let e: ProxyError = fedsim::SimError::InvalidConfig {
            message: "y".into(),
        }
        .into();
        assert!(e.source().is_some());
    }
}
