//! Numerically stable kernels shared by the models in `fedmodels`.
//!
//! These are the standard softmax / log-sum-exp / cross-entropy primitives
//! needed to implement multinomial logistic regression, MLP classifiers, and
//! the bigram language model with hand-written gradients.

use crate::{MathError, Result};

/// Numerically stable log-sum-exp of `values`.
///
/// Returns negative infinity for an empty slice (the sum over an empty set).
pub fn log_sum_exp(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NEG_INFINITY;
    }
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f64 = values.iter().map(|&v| (v - max).exp()).sum();
    max + sum.ln()
}

/// Numerically stable softmax.
///
/// Returns an empty vector for empty input. The output sums to 1.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Softmax applied in place.
pub fn softmax_inplace(logits: &mut [f64]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        total += *v;
    }
    for v in logits.iter_mut() {
        *v /= total;
    }
}

/// Cross-entropy loss `-log p(target)` for a logit vector and integer target.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `target >= logits.len()` or the
/// logits are empty.
pub fn cross_entropy_from_logits(logits: &[f64], target: usize) -> Result<f64> {
    if logits.is_empty() {
        return Err(MathError::EmptyInput {
            what: "cross_entropy_from_logits",
        });
    }
    if target >= logits.len() {
        return Err(MathError::InvalidArgument {
            message: format!(
                "target class {target} out of range for {} logits",
                logits.len()
            ),
        });
    }
    Ok(log_sum_exp(logits) - logits[target])
}

/// Rectified linear unit.
pub fn relu(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of [`relu`] (0 at the kink).
pub fn relu_grad(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Index of the largest logit (prediction). Ties resolve to the first index.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn predict_class(logits: &[f64]) -> Result<usize> {
    crate::stats::argmax(logits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_stability() {
        // Large values must not overflow.
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        // Small values must not underflow to -inf.
        let v = [-1000.0, -1000.0];
        assert!((log_sum_exp(&v) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1e4, 0.0]);
        assert!(p[0] > 0.999);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_inplace_matches_softmax() {
        let logits = vec![0.5, -1.0, 2.0];
        let expected = softmax(&logits);
        let mut inplace = logits.clone();
        softmax_inplace(&mut inplace);
        for (a, b) in expected.iter().zip(inplace.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let mut empty: Vec<f64> = vec![];
        softmax_inplace(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn cross_entropy_matches_direct_computation() {
        let logits = [1.0, 2.0, 3.0];
        let loss = cross_entropy_from_logits(&logits, 2).unwrap();
        let p = softmax(&logits);
        assert!((loss + p[2].ln()).abs() < 1e-12);
        // Uniform logits => loss = ln(num_classes).
        let loss = cross_entropy_from_logits(&[0.0; 4], 1).unwrap();
        assert!((loss - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_validation() {
        assert!(cross_entropy_from_logits(&[], 0).is_err());
        assert!(cross_entropy_from_logits(&[0.0, 1.0], 2).is_err());
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(3.0), 1.0);
    }

    #[test]
    fn predict_class_takes_argmax() {
        assert_eq!(predict_class(&[0.1, 0.9, 0.3]).unwrap(), 1);
        assert!(predict_class(&[]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_softmax_is_probability_vector(
            logits in proptest::collection::vec(-50.0f64..50.0, 1..32),
        ) {
            let p = softmax(&logits);
            prop_assert_eq!(p.len(), logits.len());
            let total: f64 = p.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        #[test]
        fn prop_softmax_invariant_to_shift(
            logits in proptest::collection::vec(-10.0f64..10.0, 2..16),
            shift in -100.0f64..100.0,
        ) {
            let p1 = softmax(&logits);
            let shifted: Vec<f64> = logits.iter().map(|&v| v + shift).collect();
            let p2 = softmax(&shifted);
            for (a, b) in p1.iter().zip(p2.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_cross_entropy_non_negative(
            logits in proptest::collection::vec(-30.0f64..30.0, 1..16),
            target_raw in any::<usize>(),
        ) {
            let target = target_raw % logits.len();
            let loss = cross_entropy_from_logits(&logits, target).unwrap();
            prop_assert!(loss >= -1e-12);
        }

        #[test]
        fn prop_log_sum_exp_at_least_max(
            values in proptest::collection::vec(-100.0f64..100.0, 1..32),
        ) {
            let lse = log_sum_exp(&values);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lse >= max - 1e-12);
            prop_assert!(lse <= max + (values.len() as f64).ln() + 1e-12);
        }
    }
}
