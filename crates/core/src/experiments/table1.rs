//! Tables 1 and 2: statistics of the four benchmark datasets.

use crate::experiments::figures::headed;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::Result;
use feddata::{Benchmark, DatasetSpec, DatasetStatistics};
use fedmath::stats::QuartileSummary;
use serde::{Deserialize, Serialize};

/// The dataset-statistics table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetTable {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<DatasetStatistics>,
}

impl DatasetTable {
    /// Generates all four benchmarks at the scale's data size and collects
    /// their statistics.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation failures.
    pub fn generate(scale: &ExperimentScale, seed: u64) -> Result<Self> {
        scale.validate()?;
        let mut rows = Vec::with_capacity(Benchmark::ALL.len());
        for (i, &benchmark) in Benchmark::ALL.iter().enumerate() {
            let dataset = DatasetSpec::benchmark(benchmark, scale.data_scale)
                .generate(fedmath::rng::derive_seed(seed, i as u64))?;
            rows.push(dataset.statistics());
        }
        Ok(DatasetTable { rows })
    }

    /// Converts the table into the uniform report format (one series per
    /// dataset; x = train clients, median column = mean examples per client).
    pub fn to_report(&self) -> ExperimentReport {
        let mut report = headed("table1");
        for row in &self.rows {
            let point = SeriesPoint {
                x: row.train_clients as f64,
                x_label: format!(
                    "{} train / {} eval clients",
                    row.train_clients, row.val_clients
                ),
                summary: QuartileSummary {
                    lower: row.examples.min as f64,
                    median: row.examples.mean,
                    upper: row.examples.max as f64,
                    count: row.examples.total,
                },
            };
            report.push_group(SeriesGroup {
                name: row.name.clone(),
                points: vec![point],
            });
        }
        report.push_note(
            "summary column shows min/mean/max examples per client; count = total examples",
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_all_benchmarks_with_paper_ratios() {
        let table = DatasetTable::generate(&ExperimentScale::smoke(), 0).unwrap();
        assert_eq!(table.rows.len(), 4);
        let names: Vec<&str> = table.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "cifar10-like",
                "femnist-like",
                "stackoverflow-like",
                "reddit-like"
            ]
        );
        for row in &table.rows {
            assert!(row.train_clients > 0);
            assert!(row.val_clients > 0);
            assert!(row.examples.total > 0);
        }
        let report = table.to_report();
        assert_eq!(report.groups.len(), 4);
        assert_eq!(report.id, "table1");
    }

    #[test]
    fn default_scale_preserves_relative_ordering_of_client_counts() {
        let table = DatasetTable::generate(&ExperimentScale::default_scale(), 1).unwrap();
        // Reddit-like has the most validation clients, CIFAR10-like the fewest
        // training clients — the ordering of Table 1 must be preserved.
        let by_name = |name: &str| table.rows.iter().find(|r| r.name == name).unwrap();
        assert!(by_name("reddit-like").val_clients > by_name("cifar10-like").val_clients);
        assert!(
            by_name("stackoverflow-like").train_clients > by_name("femnist-like").train_clients
        );
        assert!(by_name("reddit-like").examples.mean < by_name("stackoverflow-like").examples.mean);
    }
}
