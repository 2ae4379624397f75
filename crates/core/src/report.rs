//! Uniform reporting structures shared by every experiment runner.
//!
//! Each experiment produces an [`ExperimentReport`]: a set of named series,
//! each series a list of `(x, quartile-summary)` points. The bench harness
//! prints these as the rows/curves corresponding to the paper's figures, and
//! `examples/full_report` prints all of them in one run.

use fedmath::stats::QuartileSummary;
use serde::{Deserialize, Serialize};

/// One x-position of one series, summarised over trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The x coordinate (subsample rate, training rounds, ε, …).
    pub x: f64,
    /// Human-readable label for the x coordinate (e.g. `"1% (1)"`).
    pub x_label: String,
    /// Median / quartiles of the measured metric over trials, in percent
    /// error (the unit of every figure in the paper).
    pub summary: QuartileSummary,
}

impl SeriesPoint {
    /// Builds a point from raw per-trial error *rates* (`[0, 1]`), converting
    /// to percentages.
    ///
    /// # Errors
    ///
    /// Returns an error if `errors` is empty.
    pub fn from_error_rates(
        x: f64,
        x_label: impl Into<String>,
        errors: &[f64],
    ) -> crate::Result<Self> {
        let percents: Vec<f64> = errors.iter().map(|e| e * 100.0).collect();
        Ok(SeriesPoint {
            x,
            x_label: x_label.into(),
            summary: QuartileSummary::from_values(&percents)?,
        })
    }

    /// A scatter point: `y` at `x`, a single observation.
    pub fn single(x: f64, x_label: impl Into<String>, y: f64) -> Self {
        SeriesPoint {
            x,
            x_label: x_label.into(),
            summary: QuartileSummary {
                lower: y,
                median: y,
                upper: y,
                count: 1,
            },
        }
    }
}

/// One named series (one curve / one bar group member).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesGroup {
    /// Series name (e.g. a dataset, a method, an ε value).
    pub name: String,
    /// Points in x order.
    pub points: Vec<SeriesPoint>,
}

/// One benchmark's share of a figure drawn per benchmark (Figs. 4, 5, 6 and
/// 9): its named series, one per level of what the figure varies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSeries {
    /// Benchmark the series were computed on.
    pub benchmark: String,
    /// One series per level (an iid fraction, a subsampling rate, a bias
    /// exponent, an ε), named after it.
    pub series: Vec<SeriesGroup>,
}

/// A complete experiment result: the experiment id (`"fig3"`, `"table1"`, …),
/// a human-readable title, and its series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Stable experiment identifier matching DESIGN.md and `examples/full_report`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The measured series.
    pub groups: Vec<SeriesGroup>,
    /// Free-form notes (reference lines, scale used, …).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            groups: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_group(&mut self, group: SeriesGroup) {
        self.groups.push(group);
    }

    /// Adds a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as fixed-width text rows (one per point), the
    /// format printed by the bench harness and `examples/full_report`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!(
            "{:<28} {:>14} {:>10} {:>10} {:>10} {:>7}\n",
            "series", "x", "median%", "q25%", "q75%", "trials"
        ));
        for group in &self.groups {
            for p in &group.points {
                out.push_str(&format!(
                    "{:<28} {:>14} {:>10.2} {:>10.2} {:>10.2} {:>7}\n",
                    group.name,
                    p.x_label,
                    p.summary.median,
                    p.summary.lower,
                    p.summary.upper,
                    p.summary.count
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// Formats a subsample rate as the paper's x-axis labels do:
/// `"<percent>% (<raw count>)"`.
pub fn rate_label(rate: f64, population: usize) -> String {
    let count = ((population as f64 * rate).round() as usize).clamp(1, population);
    let percent = rate * 100.0;
    if percent >= 1.0 {
        format!("{percent:.0}% ({count})")
    } else {
        format!("{percent:.2}% ({count})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_point_converts_to_percent() {
        let p = SeriesPoint::from_error_rates(0.5, "50%", &[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(p.summary.median, 20.0);
        assert_eq!(p.summary.count, 3);
        assert!(SeriesPoint::from_error_rates(0.5, "x", &[]).is_err());
    }

    #[test]
    fn report_renders_rows_and_json() {
        let mut report = ExperimentReport::new("fig3", "Client subsampling");
        let point = SeriesPoint::from_error_rates(0.01, "1% (1)", &[0.4, 0.5]).unwrap();
        report.push_group(SeriesGroup {
            name: "cifar10-like".into(),
            points: vec![point],
        });
        report.push_note("smoke scale");
        let table = report.to_table();
        assert!(table.contains("fig3"));
        assert!(table.contains("cifar10-like"));
        assert!(table.contains("1% (1)"));
        assert!(table.contains("note: smoke scale"));
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"id\": \"fig3\""));
    }

    #[test]
    fn rate_labels_match_paper_style() {
        assert_eq!(rate_label(0.01, 100), "1% (1)");
        assert_eq!(rate_label(1.0, 100), "100% (100)");
        assert_eq!(rate_label(0.0027, 360), "0.27% (1)");
        assert_eq!(rate_label(0.27, 360), "27% (97)");
    }
}
