//! Synthetic federated datasets and partitioning utilities.
//!
//! The paper evaluates federated hyperparameter tuning on four cross-device
//! benchmarks — CIFAR10, FEMNIST, StackOverflow and Reddit — whose raw data
//! and GPU-scale training are unavailable in this environment. This crate
//! implements the substitution described in `DESIGN.md`: synthetic federated
//! datasets that preserve the properties the paper's study actually depends
//! on:
//!
//! 1. **Scale statistics** (Table 1/2): number of training/validation
//!    clients, per-client example counts (including the long tails of the
//!    text datasets).
//! 2. **Data heterogeneity**: Dirichlet label partitioning (Hsu et al. 2019,
//!    exactly the paper's CIFAR10 protocol) and client-specific feature or
//!    topic shifts for the naturally-partitioned datasets, plus the
//!    iid-refraction knob `p` used in §3.2 to interpolate between non-iid
//!    (`p = 0`) and iid (`p = 1`) validation pools.
//! 3. **Task-family structure**: two image-classification-like datasets and
//!    two next-token-prediction-like datasets so that HP transfer is easy
//!    within a family and hard across families (§4, Fig. 10/11).
//!
//! The main entry point is [`FederatedDataset`], typically built from a
//! [`DatasetSpec`] preset via [`DatasetSpec::generate`].
//!
//! # Example
//!
//! ```
//! use feddata::{Benchmark, DatasetSpec, Scale};
//!
//! let spec = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke);
//! let dataset = spec.generate(42).unwrap();
//! assert!(dataset.num_train_clients() > 0);
//! assert!(dataset.num_val_clients() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod dataset;
pub mod example;
pub mod generators;
pub mod packed;
pub mod partition;
pub mod spec;
pub mod statistics;

pub use client::ClientData;
pub use dataset::{FederatedDataset, Split};
pub use example::{Example, Input, Task};
pub use packed::{PackedRows, PackedSplit};
pub use partition::{dirichlet_label_partition, repartition_iid_fraction};
pub use spec::{Benchmark, DatasetSpec, Scale};
pub use statistics::{ClientSizeSummary, DatasetStatistics};

use std::fmt;

/// Errors produced when constructing or manipulating federated datasets.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataError {
    /// A dataset parameter was invalid (e.g. zero clients or classes).
    InvalidSpec {
        /// Human-readable description of the violation.
        message: String,
    },
    /// An operation referenced a client index that does not exist.
    ClientOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of clients in the referenced pool.
        len: usize,
    },
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidSpec { message } => write!(f, "invalid dataset spec: {message}"),
            DataError::ClientOutOfRange { index, len } => {
                write!(f, "client index {index} out of range for pool of {len}")
            }
            DataError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fedmath::MathError> for DataError {
    fn from(e: fedmath::MathError) -> Self {
        DataError::Math(e)
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DataError::InvalidSpec {
            message: "zero clients".into(),
        };
        assert!(e.to_string().contains("zero clients"));
        let e = DataError::ClientOutOfRange { index: 5, len: 3 };
        assert!(e.to_string().contains('5'));
        let e: DataError = fedmath::MathError::EmptyInput { what: "mean" }.into();
        assert!(e.to_string().contains("mean"));
    }

    #[test]
    fn error_implements_std_error_with_source() {
        use std::error::Error;
        let e: DataError = fedmath::MathError::EmptyInput { what: "x" }.into();
        assert!(e.source().is_some());
        let e = DataError::ClientOutOfRange { index: 0, len: 0 };
        assert!(e.source().is_none());
    }
}
