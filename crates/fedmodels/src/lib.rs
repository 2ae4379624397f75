//! Models with hand-written gradients and the local (client-side) SGD
//! optimizer used by the federated simulation.
//!
//! The paper trains a 2-layer CNN for the image datasets and a 2-layer LSTM
//! for the text datasets. Per the substitution in `DESIGN.md`, this crate
//! provides CPU-sized stand-ins with the same role in the pipeline:
//!
//! - [`SoftmaxRegression`]: multinomial logistic regression on dense features.
//! - [`Mlp`]: a one-hidden-layer ReLU network on dense features (the default
//!   for the image-classification family).
//! - [`BigramLm`]: an embedding + softmax next-token model (the default for
//!   the language-modelling family).
//!
//! All models expose their parameters as a flat `Vec<f64>` so that the server
//! optimizer in `fedsim` (FedAdam) can treat model updates as plain
//! vectors, exactly as `ServerOPT` does in Algorithm 2 of the paper.
//! [`LocalSgd`] implements `ClientOPT`: mini-batch SGD with momentum, weight
//! decay, and a configurable batch size and epoch count — the client
//! hyperparameters tuned in the paper's search space (Appendix B).
//!
//! # Example
//!
//! ```
//! use feddata::Example;
//! use fedmodels::{Model, SoftmaxRegression};
//!
//! let mut rng = fedmath::rng::rng_for(0, 0);
//! let model = SoftmaxRegression::new(4, 3, &mut rng);
//! let examples = vec![Example::dense(vec![1.0, 0.0, 0.0, 0.0], 0)];
//! let error = model.error_rate(&examples).unwrap();
//! assert!((0.0..=1.0).contains(&error));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bigram;
mod eval;
pub mod factory;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod sgd;

pub use bigram::BigramLm;
pub use factory::{AnyModel, ModelSpec};
pub use linear::SoftmaxRegression;
pub use metrics::EvalMetrics;
pub use mlp::Mlp;
pub use model::Model;
pub use sgd::{LocalSgd, LocalSgdConfig, SgdScratch};

use std::fmt;

/// Errors produced by model evaluation and training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// An example's input did not match what the model expects
    /// (wrong feature dimension, token id out of vocabulary, dense vs token).
    IncompatibleInput {
        /// Description of the mismatch.
        message: String,
    },
    /// A label or class index was out of range for the model's output size.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes the model produces.
        num_classes: usize,
    },
    /// A batch or dataset passed to the model was empty.
    EmptyBatch,
    /// A parameter vector had the wrong length.
    ParamLengthMismatch {
        /// Expected number of parameters.
        expected: usize,
        /// Provided number of parameters.
        got: usize,
    },
    /// A hyperparameter was outside its valid range.
    InvalidHyperparameter {
        /// Description of the violation.
        message: String,
    },
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::IncompatibleInput { message } => {
                write!(f, "incompatible input: {message}")
            }
            ModelError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            ModelError::EmptyBatch => write!(f, "empty batch"),
            ModelError::ParamLengthMismatch { expected, got } => {
                write!(
                    f,
                    "parameter vector length {got} does not match expected {expected}"
                )
            }
            ModelError::InvalidHyperparameter { message } => {
                write!(f, "invalid hyperparameter: {message}")
            }
            ModelError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedmath::MathError> for ModelError {
    fn from(e: fedmath::MathError) -> Self {
        ModelError::Math(e)
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = ModelError::LabelOutOfRange {
            label: 9,
            num_classes: 5,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_none());
        let e: ModelError = fedmath::MathError::EmptyInput { what: "softmax" }.into();
        assert!(e.source().is_some());
        assert!(ModelError::EmptyBatch.to_string().contains("empty"));
        let e = ModelError::ParamLengthMismatch {
            expected: 10,
            got: 4,
        };
        assert!(e.to_string().contains("10"));
        let e = ModelError::InvalidHyperparameter {
            message: "lr".into(),
        };
        assert!(e.to_string().contains("lr"));
        let e = ModelError::IncompatibleInput {
            message: "dense".into(),
        };
        assert!(e.to_string().contains("dense"));
    }
}
