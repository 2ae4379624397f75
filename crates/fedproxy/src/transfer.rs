//! Hyperparameter transfer between dataset pairs (Fig. 10 and Fig. 14).

use crate::Result;
use serde::{Deserialize, Serialize};

/// One configuration evaluated on two datasets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPoint {
    /// Index of the configuration in the evaluated batch.
    pub config_index: usize,
    /// Full-validation error on the first dataset.
    pub error_a: f64,
    /// Full-validation error on the second dataset.
    pub error_b: f64,
}

/// The scatter of Fig. 10/14 plus summary correlations: how well does a
/// configuration's quality on one dataset predict its quality on another?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferAnalysis {
    /// Name of the first dataset.
    pub dataset_a: String,
    /// Name of the second dataset.
    pub dataset_b: String,
    /// Per-configuration error pairs.
    pub points: Vec<TransferPoint>,
    /// Pearson correlation between the two error columns (`None` if either
    /// column is constant).
    pub pearson: Option<f64>,
    /// Spearman rank correlation between the two error columns.
    pub spearman: Option<f64>,
}

impl TransferAnalysis {
    /// Errors on the first dataset, in configuration order.
    pub fn errors_a(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.error_a).collect()
    }

    /// Errors on the second dataset, in configuration order.
    pub fn errors_b(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.error_b).collect()
    }
}

/// The transfer scatter of Fig. 10/14 from the full-validation errors the
/// *same* configurations reached on two datasets (`errors_a[i]` and
/// `errors_b[i]` belong to configuration `i`). Training is the caller's
/// business — `fedtune_core` reads both columns off pools trained once per
/// benchmark.
///
/// # Errors
///
/// Returns an error if the columns are empty or differ in length.
pub fn transfer_analysis(
    dataset_a: &str,
    errors_a: &[f64],
    dataset_b: &str,
    errors_b: &[f64],
) -> Result<TransferAnalysis> {
    if errors_a.is_empty() || errors_a.len() != errors_b.len() {
        return Err(crate::ProxyError::InvalidConfig {
            message: format!(
                "transfer analysis needs one error per configuration on both datasets, got {} and {}",
                errors_a.len(),
                errors_b.len()
            ),
        });
    }
    let points = errors_a
        .iter()
        .zip(errors_b)
        .enumerate()
        .map(|(config_index, (&error_a, &error_b))| TransferPoint {
            config_index,
            error_a,
            error_b,
        })
        .collect();
    Ok(TransferAnalysis {
        dataset_a: dataset_a.to_string(),
        dataset_b: dataset_b.to_string(),
        points,
        pearson: fedmath::stats::pearson_correlation(errors_a, errors_b).ok(),
        spearman: fedmath::stats::spearman_correlation(errors_a, errors_b).ok(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ConfigRunner;
    use feddata::{Benchmark, DatasetSpec, Scale};
    use fedhpo::{HpConfig, SearchSpace};
    use fedmodels::ModelSpec;

    #[test]
    fn transfer_within_the_same_task_family_is_positive() {
        // CIFAR10-like and FEMNIST-like are both dense-classification tasks;
        // the paper finds HPs transfer well within a family. With a handful
        // of very different configurations the rank correlation should be
        // positive.
        let space = SearchSpace::paper_default();
        let runner = ConfigRunner::new(space, ModelSpec::Mlp { hidden_dim: 8 }, 15);
        // Spread configurations from terrible (tiny lrs) to sensible.
        let configs = [
            HpConfig::new(vec![1e-6, 0.0, 0.0, 0.9999, 1e-6, 0.0, 5e-5, 128.0, 1.0]),
            HpConfig::new(vec![1e-5, 0.3, 0.5, 0.9999, 1e-4, 0.3, 5e-5, 64.0, 1.0]),
            HpConfig::new(vec![1e-3, 0.6, 0.9, 0.9999, 1e-2, 0.5, 5e-5, 32.0, 1.0]),
            HpConfig::new(vec![3e-2, 0.9, 0.99, 0.9999, 5e-2, 0.7, 5e-5, 32.0, 1.0]),
        ];
        let errors_on = |benchmark: Benchmark| -> Vec<f64> {
            let dataset = DatasetSpec::benchmark(benchmark, Scale::Smoke)
                .generate(0)
                .unwrap();
            configs
                .iter()
                .enumerate()
                .map(|(i, config)| runner.run(&dataset, config, i as u64).unwrap().full_error)
                .collect()
        };
        let cifar = errors_on(Benchmark::Cifar10Like);
        let femnist = errors_on(Benchmark::FemnistLike);
        let analysis = transfer_analysis("cifar10-like", &cifar, "femnist-like", &femnist).unwrap();
        assert_eq!(analysis.points.len(), 4);
        assert_eq!(analysis.dataset_a, "cifar10-like");
        assert_eq!(analysis.dataset_b, "femnist-like");
        assert_eq!(analysis.errors_a(), cifar);
        assert_eq!(analysis.errors_b(), femnist);
        if let Some(s) = analysis.spearman {
            assert!(s > 0.0, "expected positive rank correlation, got {s}");
        }
    }

    #[test]
    fn empty_or_ragged_columns_are_rejected() {
        assert!(transfer_analysis("a", &[], "b", &[]).is_err());
        assert!(transfer_analysis("a", &[0.1, 0.2], "b", &[0.1]).is_err());
    }

    #[test]
    fn constant_columns_have_no_correlation() {
        let analysis = transfer_analysis("a", &[0.5, 0.5, 0.5], "b", &[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(analysis.pearson, None);
        assert_eq!(analysis.points[2].config_index, 2);
    }
}
