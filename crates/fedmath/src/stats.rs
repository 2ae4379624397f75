//! Descriptive statistics used by the experiment harness.
//!
//! The paper reports the *median* full-validation error over bootstrap trials
//! and fills in the lower/upper *quartiles* (§3, "Evaluation"), evaluates
//! models as a *weighted* average of per-client errors (Eq. 2), and summarises
//! per-client behaviour with minima and spreads (Fig. 7). This module collects
//! those primitives.

use crate::{MathError, Result};
use serde::{Deserialize, Serialize};

/// Arithmetic mean of `values`. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance of `values`. Returns 0.0 for slices with < 2 elements.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Weighted mean `sum(w_k * v_k) / sum(w_k)`.
///
/// This is exactly the federated evaluation objective of Eq. 2 in the paper
/// when `values` are per-client error rates and `weights` are the client
/// weights `p_{val,k}` (all-ones for uniform weighting, local dataset sizes
/// for weighted evaluation).
///
/// # Errors
///
/// Returns [`MathError::ShapeMismatch`] if the slices have different lengths,
/// [`MathError::EmptyInput`] if they are empty, and
/// [`MathError::InvalidArgument`] if any weight is negative or the weights sum
/// to zero.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> Result<f64> {
    if values.len() != weights.len() {
        return Err(MathError::ShapeMismatch {
            left: (values.len(), 1),
            right: (weights.len(), 1),
            op: "weighted_mean",
        });
    }
    if values.is_empty() {
        return Err(MathError::EmptyInput {
            what: "weighted_mean",
        });
    }
    if weights.iter().any(|&w| w < 0.0) {
        return Err(MathError::InvalidArgument {
            message: "weights must be non-negative".into(),
        });
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Err(MathError::InvalidArgument {
            message: "weights must not all be zero".into(),
        });
    }
    Ok(values
        .iter()
        .zip(weights.iter())
        .map(|(v, w)| v * w)
        .sum::<f64>()
        / total)
}

/// Linear-interpolation quantile (same convention as `numpy.quantile`).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice and
/// [`MathError::InvalidArgument`] if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(MathError::EmptyInput { what: "quantile" });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(MathError::InvalidArgument {
            message: format!("quantile {q} outside [0, 1]"),
        });
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(MathError::InvalidArgument {
            message: "quantile input contains NaN".into(),
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let pos = q * (sorted.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    if lower == upper {
        Ok(sorted[lower])
    } else {
        let frac = pos - lower as f64;
        Ok(sorted[lower] * (1.0 - frac) + sorted[upper] * frac)
    }
}

/// Median (0.5 quantile).
///
/// # Errors
///
/// See [`quantile`].
pub fn median(values: &[f64]) -> Result<f64> {
    quantile(values, 0.5)
}

/// Index of the minimum value; ties resolve to the first occurrence.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn argmin(values: &[f64]) -> Result<usize> {
    if values.is_empty() {
        return Err(MathError::EmptyInput { what: "argmin" });
    }
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Index of the maximum value; ties resolve to the first occurrence.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn argmax(values: &[f64]) -> Result<usize> {
    if values.is_empty() {
        return Err(MathError::EmptyInput { what: "argmax" });
    }
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Minimum value of a non-empty slice.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn min(values: &[f64]) -> Result<f64> {
    argmin(values).map(|i| values[i])
}

/// Maximum value of a non-empty slice.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn max(values: &[f64]) -> Result<f64> {
    argmax(values).map(|i| values[i])
}

/// Median / lower-quartile / upper-quartile summary of a set of trial
/// outcomes, as reported in every figure of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuartileSummary {
    /// 25th percentile.
    pub lower: f64,
    /// 50th percentile (median).
    pub median: f64,
    /// 75th percentile.
    pub upper: f64,
    /// Number of observations summarised.
    pub count: usize,
}

impl QuartileSummary {
    /// Summarises `values` into quartiles.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] for an empty slice.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        Ok(QuartileSummary {
            lower: quantile(values, 0.25)?,
            median: quantile(values, 0.5)?,
            upper: quantile(values, 0.75)?,
            count: values.len(),
        })
    }
}

/// Running summary of scalar observations (count / mean / min / max), used by
/// dataset statistics tables.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningSummary {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        RunningSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for RunningSummary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningSummary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningSummary::new();
        s.extend(iter);
        s
    }
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Used to quantify HP transfer between dataset pairs (Fig. 10/14).
///
/// # Errors
///
/// Returns [`MathError::ShapeMismatch`] if lengths differ,
/// [`MathError::EmptyInput`] if fewer than 2 points, and
/// [`MathError::InvalidArgument`] if either slice has zero variance.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(MathError::ShapeMismatch {
            left: (x.len(), 1),
            right: (y.len(), 1),
            op: "pearson_correlation",
        });
    }
    if x.len() < 2 {
        return Err(MathError::EmptyInput {
            what: "pearson_correlation",
        });
    }
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return Err(MathError::InvalidArgument {
            message: "pearson correlation undefined for constant input".into(),
        });
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

/// Spearman rank correlation between two equal-length slices.
///
/// HP tuning only needs the *ranking* of configurations to be preserved, so
/// rank correlation is the natural measure of how much a noise source corrupts
/// evaluation (used by the ablation benches and tests).
///
/// # Errors
///
/// Same conditions as [`pearson_correlation`].
pub fn spearman_correlation(x: &[f64], y: &[f64]) -> Result<f64> {
    let rx = ranks(x);
    let ry = ranks(y);
    pearson_correlation(&rx, &ry)
}

/// Average ranks of `values` (ties receive the mean of the tied ranks).
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // ranks i..=j are tied; assign their average (1-based ranks)
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_matches_eq2() {
        // Eq. 2 with two clients: errors 0.2 and 0.8, weights 3 and 1.
        let v = weighted_mean(&[0.2, 0.8], &[3.0, 1.0]).unwrap();
        assert!((v - 0.35).abs() < 1e-12);
        // Uniform weights reduce to the arithmetic mean.
        let u = weighted_mean(&[0.2, 0.8], &[1.0, 1.0]).unwrap();
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_validation() {
        assert!(weighted_mean(&[], &[]).is_err());
        assert!(weighted_mean(&[1.0], &[1.0, 2.0]).is_err());
        assert!(weighted_mean(&[1.0], &[-1.0]).is_err());
        assert!(weighted_mean(&[1.0, 2.0], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert!((quantile(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }

    #[test]
    fn quantile_validation() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[f64::NAN], 0.5).is_err());
    }

    #[test]
    fn argmin_argmax_min_max() {
        let v = [3.0, 1.0, 2.0, 1.0];
        assert_eq!(argmin(&v).unwrap(), 1);
        assert_eq!(argmax(&v).unwrap(), 0);
        assert_eq!(min(&v).unwrap(), 1.0);
        assert_eq!(max(&v).unwrap(), 3.0);
        assert!(argmin(&[]).is_err());
        assert!(argmax(&[]).is_err());
    }

    #[test]
    fn quartile_summary() {
        let s = QuartileSummary::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.lower, 2.0);
        assert_eq!(s.upper, 4.0);
        assert_eq!(s.count, 5);
        assert!(QuartileSummary::from_values(&[]).is_err());
    }

    #[test]
    fn running_summary_accumulates() {
        let mut s = RunningSummary::new();
        assert_eq!(s.mean(), 0.0);
        s.extend([2.0, 4.0, 6.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert_eq!(s.sum(), 12.0);
        let s2: RunningSummary = [1.0, 5.0].into_iter().collect();
        assert_eq!(s2.count(), 2);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&x, &yneg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_validation() {
        assert!(pearson_correlation(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson_correlation(&[1.0], &[1.0]).is_err());
        assert!(pearson_correlation(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear relationship still has rank correlation 1.
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman_correlation(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }
}
