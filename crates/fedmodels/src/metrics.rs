//! Evaluation metrics returned by models.

use serde::{Deserialize, Serialize};

/// Loss and error-rate summary for one evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalMetrics {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Fraction of misclassified examples (1 - accuracy), in `[0, 1]`.
    pub error_rate: f64,
    /// Number of examples evaluated.
    pub num_examples: usize,
}

impl EvalMetrics {
    /// Accuracy (`1 - error_rate`).
    pub fn accuracy(&self) -> f64 {
        1.0 - self.error_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy() {
        let m = EvalMetrics {
            loss: 1.0,
            error_rate: 0.25,
            num_examples: 4,
        };
        assert_eq!(m.accuracy(), 0.75);
    }
}
