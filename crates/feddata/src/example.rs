//! Individual training/validation examples and task kinds.

use serde::{Deserialize, Serialize};

/// The two task families studied in the paper.
///
/// CIFAR10 and FEMNIST are image-classification tasks trained with a small
/// CNN; StackOverflow and Reddit are next-token-prediction tasks trained with
/// a small LSTM. In this reproduction the first family maps to dense-feature
/// classification and the second to token-context next-token prediction
/// (see `DESIGN.md` for the substitution argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Classify a dense feature vector into one of `num_classes` classes
    /// (stands in for image classification).
    DenseClassification,
    /// Predict the next token given the current token id (stands in for
    /// next-token prediction with a sequence model).
    NextTokenPrediction,
}

impl Task {
    /// Short human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Task::DenseClassification => "image-classification",
            Task::NextTokenPrediction => "next-token-prediction",
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Model input for a single example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Input {
    /// A dense feature vector (image-classification family).
    Dense(Vec<f64>),
    /// A context token id (next-token-prediction family).
    Token(usize),
}

/// A single supervised example: an input and an integer label.
///
/// For the classification family the label is the class index; for the
/// language-modelling family it is the id of the next token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Model input.
    pub input: Input,
    /// Target class or next-token id.
    pub label: usize,
}

impl Example {
    /// Creates a dense-classification example.
    pub fn dense(features: Vec<f64>, label: usize) -> Self {
        Example {
            input: Input::Dense(features),
            label,
        }
    }

    /// Creates a next-token-prediction example.
    pub fn token(context: usize, target: usize) -> Self {
        Example {
            input: Input::Token(context),
            label: target,
        }
    }

    /// Returns the task family this example belongs to.
    pub fn task(&self) -> Task {
        match self.input {
            Input::Dense(_) => Task::DenseClassification,
            Input::Token(_) => Task::NextTokenPrediction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_example_accessors() {
        let e = Example::dense(vec![1.0, 2.0, 3.0], 4);
        assert_eq!(e.label, 4);
        assert_eq!(e.input, Input::Dense(vec![1.0, 2.0, 3.0]));
        assert_eq!(e.task(), Task::DenseClassification);
    }

    #[test]
    fn token_example_accessors() {
        let e = Example::token(7, 9);
        assert_eq!(e.label, 9);
        assert_eq!(e.input, Input::Token(7));
        assert_eq!(e.task(), Task::NextTokenPrediction);
    }

    #[test]
    fn task_names() {
        assert_eq!(Task::DenseClassification.name(), "image-classification");
        assert_eq!(
            Task::NextTokenPrediction.to_string(),
            "next-token-prediction"
        );
    }
}
