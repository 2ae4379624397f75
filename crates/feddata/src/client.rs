//! Per-client local datasets.

use crate::example::Example;
use serde::{Deserialize, Serialize};

/// The local dataset of one client in the federated network.
///
/// In cross-device FL the client is the unit of participation: training and
/// evaluation rounds sample whole clients, and the federated evaluation
/// objective (Eq. 2 in the paper) is a weighted sum over per-client error
/// rates. A `ClientData` therefore carries a stable id plus its private
/// examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientData {
    id: usize,
    examples: Vec<Example>,
}

impl ClientData {
    /// Creates a client from its id and local examples.
    pub fn new(id: usize, examples: Vec<Example>) -> Self {
        ClientData { id, examples }
    }

    /// Stable client identifier within its pool.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Borrows the client's local examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Mutably borrows the client's local examples.
    pub fn examples_mut(&mut self) -> &mut Vec<Example> {
        &mut self.examples
    }

    /// Number of local examples.
    pub fn num_examples(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` if the client has no local data.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Histogram of labels over the client's examples, with `num_labels` bins.
    ///
    /// Used to measure label heterogeneity across clients.
    pub fn label_histogram(&self, num_labels: usize) -> Vec<usize> {
        let mut hist = vec![0usize; num_labels];
        for e in &self.examples {
            if e.label < num_labels {
                hist[e.label] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_client() -> ClientData {
        ClientData::new(
            3,
            vec![
                Example::dense(vec![0.0], 1),
                Example::dense(vec![1.0], 1),
                Example::dense(vec![2.0], 0),
            ],
        )
    }

    #[test]
    fn accessors() {
        let c = sample_client();
        assert_eq!(c.id(), 3);
        assert_eq!(c.num_examples(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.examples()[2].label, 0);
    }

    #[test]
    fn label_histogram_counts() {
        let c = sample_client();
        assert_eq!(c.label_histogram(3), vec![1, 2, 0]);
        // Labels outside the bin range are ignored rather than panicking.
        assert_eq!(c.label_histogram(1), vec![1]);
    }

    #[test]
    fn examples_mut_allows_editing() {
        let mut c = sample_client();
        c.examples_mut().push(Example::dense(vec![5.0], 2));
        assert_eq!(c.num_examples(), 4);
    }

    #[test]
    fn empty_client() {
        let c = ClientData::new(0, vec![]);
        assert!(c.is_empty());
        assert_eq!(c.label_histogram(4), vec![0, 0, 0, 0]);
    }
}
