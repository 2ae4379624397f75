//! Dataset summary statistics (Tables 1 and 2 of the paper).

use crate::dataset::{FederatedDataset, Split};
use serde::{Deserialize, Serialize};

/// Summary of per-client example counts: mean / min / max / total.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientSizeSummary {
    /// Mean number of examples per client.
    pub mean: f64,
    /// Minimum number of examples on any client.
    pub min: usize,
    /// Maximum number of examples on any client.
    pub max: usize,
    /// Total number of examples across all clients.
    pub total: usize,
}

impl ClientSizeSummary {
    /// Builds the summary from a list of per-client example counts.
    ///
    /// Returns an all-zero summary for an empty list.
    pub fn from_counts(counts: &[usize]) -> Self {
        if counts.is_empty() {
            return ClientSizeSummary {
                mean: 0.0,
                min: 0,
                max: 0,
                total: 0,
            };
        }
        let total: usize = counts.iter().sum();
        ClientSizeSummary {
            mean: total as f64 / counts.len() as f64,
            min: *counts.iter().min().expect("non-empty"),
            max: *counts.iter().max().expect("non-empty"),
            total,
        }
    }
}

/// One row of Table 1/2: dataset name, task, client counts, and example-count
/// summary over *all* clients (train + validation), as reported in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStatistics {
    /// Dataset name.
    pub name: String,
    /// Task family name.
    pub task: String,
    /// Number of training clients.
    pub train_clients: usize,
    /// Number of validation (evaluation) clients.
    pub val_clients: usize,
    /// Per-client example counts summarised over both pools.
    pub examples: ClientSizeSummary,
}

impl DatasetStatistics {
    /// Computes the statistics row for a dataset.
    pub fn from_dataset(dataset: &FederatedDataset) -> Self {
        let mut counts: Vec<usize> = dataset
            .clients(Split::Train)
            .iter()
            .map(|c| c.num_examples())
            .collect();
        counts.extend(
            dataset
                .clients(Split::Validation)
                .iter()
                .map(|c| c.num_examples()),
        );
        DatasetStatistics {
            name: dataset.name().to_string(),
            task: dataset.task().name().to_string(),
            train_clients: dataset.num_train_clients(),
            val_clients: dataset.num_val_clients(),
            examples: ClientSizeSummary::from_counts(&counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientData;
    use crate::example::{Example, Task};

    #[test]
    fn client_size_summary_from_counts() {
        let s = ClientSizeSummary::from_counts(&[2, 4, 6]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert_eq!(s.total, 12);
        let empty = ClientSizeSummary::from_counts(&[]);
        assert_eq!(empty.total, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn dataset_statistics_cover_both_pools() {
        let train = vec![ClientData::new(0, vec![Example::dense(vec![0.0], 0); 5])];
        let val = vec![
            ClientData::new(0, vec![Example::dense(vec![0.0], 1); 1]),
            ClientData::new(1, vec![Example::dense(vec![0.0], 1); 9]),
        ];
        let d = FederatedDataset::new("stats-test", Task::DenseClassification, 2, 1, train, val)
            .unwrap();
        let s = d.statistics();
        assert_eq!(s.train_clients, 1);
        assert_eq!(s.val_clients, 2);
        assert_eq!(s.examples.total, 15);
        assert_eq!(s.examples.min, 1);
        assert_eq!(s.examples.max, 9);
        assert!((s.examples.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.name, "stats-test");
        assert_eq!(s.task, "image-classification");
    }
}
