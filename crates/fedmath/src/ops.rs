//! Numerically stable kernels shared by the models in `fedmodels`.
//!
//! These are the standard softmax / log-sum-exp / cross-entropy primitives
//! needed to implement multinomial logistic regression, MLP classifiers, and
//! the bigram language model with hand-written gradients. Every
//! exponential goes through [`exp`], so their bits depend on no libm `exp`.

use crate::{MathError, Result};

/// `e^x` in plain IEEE 754 arithmetic: no libm `exp`, no branches, and the
/// same bits on every target, so a loop over it vectorises and the training
/// softmax does not depend on which `exp` the C library ships.
///
/// Cody–Waite reduction `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2` (`k` rounded
/// to nearest by the `1.5·2⁵²` shift, `r` through a two-part `ln 2` and
/// [`f64::mul_add`]), the degree-13 Taylor polynomial of `e^r` in Horner
/// form (truncation error below 10⁻¹⁷ relative), and the scale `2^k` applied
/// as two exponent-bit factors `2^⌊k/2⌋ · 2^⌈k/2⌉`, each a normal number, so
/// results in the subnormal range take one rounding. The result is within
/// 1 ulp of the C library's `f64::exp` (checked on dense grids over the
/// whole finite range); glibc's differs from it on about 6 % of inputs.
///
/// Edge cases: `exp(±0) = 1` exactly, `exp(x) = 0` for `x` below
/// `ln 2⁻¹⁰⁷⁵` (−∞ included), `+∞` above `ln f64::MAX`, and `NaN` for `NaN`.
#[inline]
pub fn exp(x: f64) -> f64 {
    // 1.5·2⁵²: adding it leaves the integer nearest `x·log₂e` (ties to even)
    // in the low mantissa bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // fdlibm's split of ln 2: the high part has 32 trailing zero bits.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    // ln f64::MAX and ln 2⁻¹⁰⁷⁵ (half the smallest subnormal).
    const OVERFLOW: f64 = 709.782_712_893_384;
    const UNDERFLOW: f64 = -745.133_219_101_941_2;
    // Taylor coefficients 1/n!, highest degree first; every n! ≤ 13! is an
    // exact `f64`, so each is one correctly rounded division.
    const C: [f64; 12] = [
        1.0 / 6_227_020_800.0,
        1.0 / 479_001_600.0,
        1.0 / 39_916_800.0,
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        1.0 / 2.0,
    ];
    // Clamped so that `k` stays within ±1076 and both scale factors are
    // normal; `NaN` passes through.
    let xc = x.clamp(-746.0, 710.0);
    let shifted = xc.mul_add(std::f64::consts::LOG2_E, SHIFT);
    let kf = shifted - SHIFT;
    let k = (shifted.to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64);
    let r = (-kf).mul_add(LN2_HI, xc);
    let r = (-kf).mul_add(LN2_LO, r);
    let mut p = C[0];
    for c in &C[1..] {
        p = p.mul_add(r, *c);
    }
    let p = p.mul_add(r, 1.0).mul_add(r, 1.0);
    let half = k >> 1;
    let scale = |e: i64| f64::from_bits(((e + 1023) as u64) << 52);
    let y = p * scale(half) * scale(k - half);
    let y = if x > OVERFLOW { f64::INFINITY } else { y };
    if x < UNDERFLOW {
        0.0
    } else {
        y
    }
}

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
    let sum: f64 = values.iter().map(|&v| exp(v - max)).sum();
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
    let exps: Vec<f64> = logits.iter().map(|&v| exp(v - max)).collect();
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
        *v = exp(*v - max);
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

    /// `x0, x0 + step, …` up to `x1`: each point an exact multiple of `step`.
    fn grid(x0: f64, x1: f64, step: f64) -> impl Iterator<Item = f64> {
        let n = ((x1 - x0) / step) as i64;
        (0..=n).map(move |i| x0 + i as f64 * step)
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm() {
        // The whole finite range (subnormal results included), then a
        // denser pass over the shifted logits a softmax exponentiates.
        let points = grid(-745.0, 709.0, 1.0 / 1024.0).chain(grid(-50.0, 0.0, 1.0 / 65536.0));
        for x in points {
            let (got, want) = (exp(x), x.exp());
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(
                ulps <= 1,
                "exp({x:e}) = {got:e}, libm {want:e}: {ulps} ulps"
            );
        }
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        for x in [f64::NEG_INFINITY, -1e300, -746.0, -745.134] {
            assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "exp({x:e})");
        }
        assert!(exp(-745.13) > 0.0);
        assert!(exp(709.78).is_finite());
        for x in [709.79, 710.0, 1e300, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "exp({x:e})");
        }
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
    }

    #[test]
    fn exp_is_non_decreasing() {
        for (x0, x1, step) in [(-746.0, 710.0, 1.0 / 1024.0), (-50.0, 0.0, 1.0 / 65536.0)] {
            let mut last = 0.0;
            for x in grid(x0, x1, step) {
                let y = exp(x);
                assert!(y >= last, "exp({x:e}) = {y:e} < {last:e}");
                last = y;
            }
        }
    }

    #[test]
    fn exp_bits_are_pinned() {
        // FNV-1a over the bits of `exp` on a fixed grid that crosses both
        // thresholds. The arithmetic is IEEE 754 throughout (`mul_add` is
        // correctly rounded in hardware or software), so this digest is the
        // same on every target.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for x in grid(-750.0, 715.0, 0.371) {
            for byte in exp(x).to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            hash, 0xd0ee_460c_ae25_97a1,
            "exp digest moved: {hash:#018x}"
        );
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
