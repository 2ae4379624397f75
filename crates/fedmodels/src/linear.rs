//! Multinomial logistic (softmax) regression on dense features.

use crate::eval::{self, BatchedForward};
use crate::model::Model;
use crate::{EvalMetrics, ModelError, Result};
use feddata::{Example, Input, PackedRows};
use fedmath::kernel::{self, BufferPool, Epilogue, Pass};
use fedmath::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Softmax regression: `logits = W x + b` over dense feature vectors.
///
/// This is the simplest member of the image-classification model family and
/// the cheapest model for sanity checks; the experiments default to [`crate::Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxRegression {
    weights: Matrix,
    bias: Vec<f64>,
    feature_dim: usize,
    num_classes: usize,
}

impl SoftmaxRegression {
    /// Creates a model with small random initial weights.
    pub fn new(feature_dim: usize, num_classes: usize, rng: &mut impl Rng) -> Self {
        let scale = 1.0 / (feature_dim.max(1) as f64).sqrt();
        let normal = Normal::new(0.0, scale).expect("valid std");
        let weights = Matrix::from_fn(num_classes, feature_dim, |_, _| normal.sample(rng));
        SoftmaxRegression {
            weights,
            bias: vec![0.0; num_classes],
            feature_dim,
            num_classes,
        }
    }

    /// Creates a model with all-zero parameters (deterministic baseline).
    pub fn zeros(feature_dim: usize, num_classes: usize) -> Self {
        SoftmaxRegression {
            weights: Matrix::zeros(num_classes, feature_dim),
            bias: vec![0.0; num_classes],
            feature_dim,
            num_classes,
        }
    }

    /// Input feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn dense_input<'a>(&self, input: &'a Input) -> Result<&'a [f64]> {
        match input {
            Input::Dense(x) if x.len() == self.feature_dim => Ok(x),
            Input::Dense(x) => Err(ModelError::IncompatibleInput {
                message: format!("expected {} features, got {}", self.feature_dim, x.len()),
            }),
            Input::Token(_) => Err(ModelError::IncompatibleInput {
                message: "softmax regression expects dense inputs, got a token".into(),
            }),
        }
    }

    /// Validated gather of `rows`' features into a pooled
    /// `[rows × feature_dim]` matrix; see [`eval::gather_rows`].
    fn gather<'a>(
        &self,
        rows: impl ExactSizeIterator<Item = &'a Example>,
        pool: &mut BufferPool,
    ) -> Result<Vec<f64>> {
        eval::gather_rows(rows, self.feature_dim, self.num_classes, pool, |input| {
            self.dense_input(input)
        })
    }
}

impl BatchedForward for SoftmaxRegression {
    fn gather_examples(&self, examples: &[Example], pool: &mut BufferPool) -> Result<Vec<f64>> {
        self.gather(examples.iter(), pool)
    }

    fn forward_rows(&self, x: &[f64], batch: usize, pool: &mut BufferPool) -> Vec<f64> {
        let (f, c) = (self.feature_dim, self.num_classes);
        let mut logits = pool.take_unzeroed(batch * c);
        let (w, bias) = (self.weights.as_slice(), Epilogue::Bias(&self.bias));
        kernel::gemm_nt_fused(batch, f, c, x, w, bias, Pass::Evaluation, &mut logits);
        logits
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.num_classes * self.feature_dim + self.num_classes
    }

    fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.params_into(&mut out);
        out
    }

    fn params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_params());
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    fn set_params(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.num_params() {
            return Err(ModelError::ParamLengthMismatch {
                expected: self.num_params(),
                got: params.len(),
            });
        }
        let w_len = self.num_classes * self.feature_dim;
        self.weights
            .copy_from_slice(&params[..w_len])
            .map_err(ModelError::from)?;
        self.bias.copy_from_slice(&params[w_len..]);
        Ok(())
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, input: &Input) -> Result<Vec<f64>> {
        let x = self.dense_input(input)?;
        let mut logits = self.weights.matvec(x).map_err(ModelError::from)?;
        for (l, b) in logits.iter_mut().zip(self.bias.iter()) {
            *l += b;
        }
        Ok(logits)
    }

    fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let mut grad_w = Matrix::zeros(self.num_classes, self.feature_dim);
        let mut grad_b = vec![0.0; self.num_classes];
        for e in examples {
            if e.label >= self.num_classes {
                return Err(ModelError::LabelOutOfRange {
                    label: e.label,
                    num_classes: self.num_classes,
                });
            }
            let x = self.dense_input(&e.input)?;
            let mut probs = self.logits(&e.input)?;
            fedmath::ops::softmax_inplace(&mut probs);
            // Product terms fold in with `mul_add`, mirroring the fused
            // multiply-add chains of the batched `gemm_tn` so both paths
            // stay bit-identical.
            for c in 0..self.num_classes {
                let dlogit = probs[c] - if c == e.label { 1.0 } else { 0.0 };
                grad_b[c] += dlogit;
                let row = grad_w.row_mut(c);
                for (d, &xd) in x.iter().enumerate() {
                    row[d] = dlogit.mul_add(xd, row[d]);
                }
            }
        }
        let inv_n = 1.0 / examples.len() as f64;
        let mut out = grad_w.into_vec();
        out.extend_from_slice(&grad_b);
        for g in &mut out {
            *g *= inv_n;
        }
        Ok(out)
    }

    fn gradient_batch_into(
        &self,
        examples: &[Example],
        order: &[usize],
        pool: &mut BufferPool,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let batch = order.len();
        let f = self.feature_dim;
        let c = self.num_classes;
        let x = self.gather(order.iter().map(|&idx| &examples[idx]), pool)?;
        // Forward: logits = X · Wᵀ + b, sharing `dot`'s accumulation order
        // with the per-example matvec, then the fused softmax/label backward.
        let mut dlogits = pool.take_unzeroed(batch * c);
        let (w, bias) = (self.weights.as_slice(), Epilogue::Bias(&self.bias));
        kernel::gemm_nt_fused(batch, f, c, &x, w, bias, Pass::Training, &mut dlogits);
        kernel::softmax_xent_backward(&mut dlogits, batch, c, |r| examples[order[r]].label);
        out.clear();
        out.resize(self.num_params(), 0.0);
        let w_len = c * f;
        let (gw, gb) = out.split_at_mut(w_len);
        // grad_w = dLogitsᵀ · X folds examples in batch order, exactly like
        // the per-example accumulation loop.
        kernel::gemm_tn(c, batch, f, &dlogits, &x, gw);
        kernel::col_sum_add(batch, c, &dlogits, gb);
        kernel::scale(1.0 / batch as f64, out);
        pool.put(x);
        pool.put(dlogits);
        Ok(())
    }

    fn count_errors(&self, examples: &[Example]) -> Result<usize> {
        eval::count_errors(self, examples)
    }

    fn count_errors_packed(&self, rows: PackedRows<'_>) -> Option<usize> {
        eval::count_errors_packed(self, self.feature_dim, rows)
    }

    fn evaluate(&self, examples: &[Example]) -> Result<EvalMetrics> {
        eval::evaluate(self, examples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use fedmath::rng::rng_for;

    fn toy_examples() -> Vec<Example> {
        vec![
            Example::dense(vec![1.0, 0.0, -0.5], 0),
            Example::dense(vec![0.0, 1.0, 0.5], 1),
            Example::dense(vec![-1.0, -1.0, 1.0], 2),
            Example::dense(vec![0.3, 0.2, 0.1], 1),
        ]
    }

    #[test]
    fn param_round_trip() {
        let mut rng = rng_for(0, 0);
        let mut model = SoftmaxRegression::new(3, 4, &mut rng);
        assert_eq!(model.num_params(), 3 * 4 + 4);
        let p = model.params();
        assert_eq!(p.len(), model.num_params());
        let mut p2 = p.clone();
        p2[0] += 1.0;
        model.set_params(&p2).unwrap();
        assert_eq!(model.params(), p2);
        assert!(model.set_params(&p[..3]).is_err());
    }

    #[test]
    fn logits_shape_and_input_validation() {
        let model = SoftmaxRegression::zeros(3, 5);
        let logits = model.logits(&Input::Dense(vec![1.0, 2.0, 3.0])).unwrap();
        assert_eq!(logits.len(), 5);
        assert!(model.logits(&Input::Dense(vec![1.0])).is_err());
        assert!(model.logits(&Input::Token(0)).is_err());
        assert_eq!(model.feature_dim(), 3);
    }

    #[test]
    fn zero_model_has_uniform_loss() {
        let model = SoftmaxRegression::zeros(3, 4);
        let loss = model.loss(&toy_examples()[..1]).unwrap();
        assert!((loss - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = rng_for(0, 1);
        let model = SoftmaxRegression::new(3, 3, &mut rng);
        let diff = finite_difference_check(&model, &toy_examples(), 1e-5).unwrap();
        assert!(diff < 1e-6, "max gradient error {diff}");
    }

    #[test]
    fn gradient_validation() {
        let model = SoftmaxRegression::zeros(2, 2);
        assert!(matches!(model.gradient(&[]), Err(ModelError::EmptyBatch)));
        let bad_label = vec![Example::dense(vec![0.0, 0.0], 7)];
        assert!(model.gradient(&bad_label).is_err());
        let bad_dim = vec![Example::dense(vec![0.0], 1)];
        assert!(model.gradient(&bad_dim).is_err());
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut rng = rng_for(0, 2);
        let mut model = SoftmaxRegression::new(3, 3, &mut rng);
        let examples = toy_examples();
        let initial = model.loss(&examples).unwrap();
        for _ in 0..200 {
            let grad = model.gradient(&examples).unwrap();
            let mut params = model.params();
            for (p, g) in params.iter_mut().zip(grad.iter()) {
                *p -= 0.5 * g;
            }
            model.set_params(&params).unwrap();
        }
        let final_loss = model.loss(&examples).unwrap();
        assert!(
            final_loss < initial * 0.5,
            "training failed to reduce loss: {initial} -> {final_loss}"
        );
        assert_eq!(model.error_rate(&examples).unwrap(), 0.0);
    }

    #[test]
    fn batched_gradient_is_bitwise_identical_to_per_example() {
        let mut rng = rng_for(0, 3);
        let model = SoftmaxRegression::new(3, 4, &mut rng);
        let examples = toy_examples();
        // Include a non-trivial order (subset, permuted).
        for order in [vec![0, 1, 2, 3], vec![2, 0], vec![3, 1, 0]] {
            let gathered: Vec<Example> = order.iter().map(|&i| examples[i].clone()).collect();
            let reference = model.gradient(&gathered).unwrap();
            let mut pool = fedmath::kernel::BufferPool::new();
            let mut batched = Vec::new();
            model
                .gradient_batch_into(&examples, &order, &mut pool, &mut batched)
                .unwrap();
            assert_eq!(batched.len(), reference.len());
            for (i, (a, b)) in batched.iter().zip(reference.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "param {i}, order {order:?}");
            }
        }
    }

    #[test]
    fn batched_gradient_validation() {
        let model = SoftmaxRegression::zeros(2, 2);
        let mut pool = fedmath::kernel::BufferPool::new();
        let mut out = Vec::new();
        let examples = vec![Example::dense(vec![0.0, 0.0], 7)];
        assert!(matches!(
            model.gradient_batch_into(&examples, &[], &mut pool, &mut out),
            Err(ModelError::EmptyBatch)
        ));
        assert!(model
            .gradient_batch_into(&examples, &[0], &mut pool, &mut out)
            .is_err());
        let bad_dim = vec![Example::dense(vec![0.0], 1)];
        assert!(model
            .gradient_batch_into(&bad_dim, &[0], &mut pool, &mut out)
            .is_err());
    }

    #[test]
    fn batched_evaluation_is_bitwise_identical_to_per_example() {
        use crate::eval::testing::assert_batched_matches_per_example;
        // Ragged dims: 11 % 4 != 0 features, 6 % 8 != 0 classes.
        let mut rng = rng_for(0, 4);
        let model = SoftmaxRegression::new(11, 6, &mut rng);
        let examples: Vec<Example> = (0..203)
            .map(|i| Example::dense((0..11).map(|_| rng.gen::<f64>() - 0.5).collect(), i % 6))
            .collect();
        assert_batched_matches_per_example(&model, &examples, &[1, 3, 4, 203]);
    }

    #[test]
    fn batched_evaluation_keeps_the_per_example_errors() {
        use crate::eval::testing::assert_same_error;
        let model = SoftmaxRegression::zeros(2, 2);
        let good = Example::dense(vec![0.0, 0.0], 1);
        assert_eq!(assert_same_error(&model, &[]), ModelError::EmptyBatch);
        assert!(matches!(
            assert_same_error(&model, &[good.clone(), Example::dense(vec![0.0, 0.0], 7)]),
            ModelError::LabelOutOfRange {
                label: 7,
                num_classes: 2
            }
        ));
        for bad in [Example::dense(vec![0.0], 0), Example::token(1, 0)] {
            assert!(matches!(
                assert_same_error(&model, &[good.clone(), bad]),
                ModelError::IncompatibleInput { .. }
            ));
        }
    }

    #[test]
    fn new_is_reproducible_per_seed() {
        let mut rng1 = rng_for(5, 0);
        let mut rng2 = rng_for(5, 0);
        let m1 = SoftmaxRegression::new(4, 3, &mut rng1);
        let m2 = SoftmaxRegression::new(4, 3, &mut rng2);
        assert_eq!(m1.params(), m2.params());
    }
}
