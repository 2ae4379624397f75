//! Numerical substrate for the `fedtune` workspace.
//!
//! This crate provides the small set of numerical primitives that the rest of
//! the reproduction of *"On Noisy Evaluation in Federated Hyperparameter
//! Tuning"* (MLSys 2023) is built on:
//!
//! - [`Matrix`]: a dense, row-major `f64` matrix, the models' parameter
//!   storage (row and slice access, matmul, matvec).
//! - [`stats`]: descriptive statistics used throughout the experiment
//!   harness (weighted means, medians, quartiles, summaries over trials).
//! - [`rng`]: deterministic, splittable random-number utilities plus the
//!   sampling-without-replacement routines used for client subsampling.
//! - [`ops`]: numerically stable softmax / log-sum-exp / cross-entropy
//!   kernels shared by the models.
//! - [`kernel`]: cache-blocked, batched math kernels (GEMM variants, fused
//!   softmax/cross-entropy backward) and the [`kernel::BufferPool`] scratch
//!   arena used by the training hot path; each kernel documents one fixed
//!   accumulation order.
//! - [`par`]: the workspace's one scoped, chunked fan-out
//!   ([`par::map_range`]), order-preserving at every thread count.
//!
//! # Example
//!
//! ```
//! use fedmath::{Matrix, stats};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.get(1, 0), 3.0);
//! assert_eq!(stats::mean(&[1.0, 2.0, 3.0]), 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use rng::{SeedStream, SeedTree};

use std::fmt;

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Shape of the left operand, `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand, `(rows, cols)`.
        right: (usize, usize),
        /// Operation that was attempted.
        op: &'static str,
    },
    /// A routine received an empty slice where at least one element is required.
    EmptyInput {
        /// Routine that rejected the input.
        what: &'static str,
    },
    /// A parameter was outside its valid range.
    InvalidArgument {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MathError::EmptyInput { what } => write!(f, "empty input to {what}"),
            MathError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, MathError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MathError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "matmul",
        };
        let msg = e.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));

        let e = MathError::EmptyInput { what: "mean" };
        assert!(e.to_string().contains("mean"));

        let e = MathError::InvalidArgument {
            message: "alpha must be positive".into(),
        };
        assert!(e.to_string().contains("alpha"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<MathError>();
    }
}
