//! One-hidden-layer ReLU network on dense features.
//!
//! Stands in for the paper's 2-layer CNN on the image-classification family
//! (see `DESIGN.md`): a non-linear model whose trainability depends strongly
//! on the learning-rate and momentum hyperparameters, which is the property
//! the HP-tuning study needs.

use crate::eval::{self, BatchedForward};
use crate::model::Model;
use crate::{EvalMetrics, ModelError, Result};
use feddata::{Example, Input, PackedRows};
use fedmath::kernel::{self, BufferPool, Epilogue, Pass};
use fedmath::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// A multilayer perceptron with one ReLU hidden layer:
/// `logits = W2 * relu(W1 x + b1) + b2`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    feature_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
}

impl Mlp {
    /// Creates an MLP with He-style random initial weights.
    pub fn new(
        feature_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let s1 = (2.0 / feature_dim.max(1) as f64).sqrt();
        let s2 = (2.0 / hidden_dim.max(1) as f64).sqrt();
        let n1 = Normal::new(0.0, s1).expect("valid std");
        let n2 = Normal::new(0.0, s2).expect("valid std");
        Mlp {
            w1: Matrix::from_fn(hidden_dim, feature_dim, |_, _| n1.sample(rng)),
            b1: vec![0.0; hidden_dim],
            w2: Matrix::from_fn(num_classes, hidden_dim, |_, _| n2.sample(rng)),
            b2: vec![0.0; num_classes],
            feature_dim,
            hidden_dim,
            num_classes,
        }
    }

    /// Input feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Hidden-layer width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn dense_input<'a>(&self, input: &'a Input) -> Result<&'a [f64]> {
        match input {
            Input::Dense(x) if x.len() == self.feature_dim => Ok(x),
            Input::Dense(x) => Err(ModelError::IncompatibleInput {
                message: format!("expected {} features, got {}", self.feature_dim, x.len()),
            }),
            Input::Token(_) => Err(ModelError::IncompatibleInput {
                message: "mlp expects dense inputs, got a token".into(),
            }),
        }
    }

    /// Forward pass returning `(pre-activation, hidden activation, logits)`.
    fn forward(&self, x: &[f64]) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>)> {
        let mut pre = self.w1.matvec(x).map_err(ModelError::from)?;
        for (p, b) in pre.iter_mut().zip(self.b1.iter()) {
            *p += b;
        }
        let hidden: Vec<f64> = pre.iter().map(|&v| fedmath::ops::relu(v)).collect();
        let mut logits = self.w2.matvec(&hidden).map_err(ModelError::from)?;
        for (l, b) in logits.iter_mut().zip(self.b2.iter()) {
            *l += b;
        }
        Ok((pre, hidden, logits))
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

impl BatchedForward for Mlp {
    fn gather_examples(&self, examples: &[Example], pool: &mut BufferPool) -> Result<Vec<f64>> {
        self.gather(examples.iter(), pool)
    }

    fn forward_rows(&self, x: &[f64], batch: usize, pool: &mut BufferPool) -> Vec<f64> {
        let (f, h, c) = (self.feature_dim, self.hidden_dim, self.num_classes);
        let mut hidden = pool.take_unzeroed(batch * h);
        let (w1, b1) = (self.w1.as_slice(), Epilogue::BiasRelu(&self.b1));
        kernel::gemm_nt_fused(batch, f, h, x, w1, b1, Pass::Evaluation, &mut hidden);
        let mut logits = pool.take_unzeroed(batch * c);
        let (w2, b2) = (self.w2.as_slice(), Epilogue::Bias(&self.b2));
        kernel::gemm_nt_fused(batch, h, c, &hidden, w2, b2, Pass::Evaluation, &mut logits);
        pool.put(hidden);
        logits
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.hidden_dim * self.feature_dim
            + self.hidden_dim
            + self.num_classes * self.hidden_dim
            + self.num_classes
    }

    fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.params_into(&mut out);
        out
    }

    fn params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_params());
        out.extend_from_slice(self.w1.as_slice());
        out.extend_from_slice(&self.b1);
        out.extend_from_slice(self.w2.as_slice());
        out.extend_from_slice(&self.b2);
    }

    fn set_params(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.num_params() {
            return Err(ModelError::ParamLengthMismatch {
                expected: self.num_params(),
                got: params.len(),
            });
        }
        let mut offset = 0;
        let w1_len = self.hidden_dim * self.feature_dim;
        self.w1
            .copy_from_slice(&params[offset..offset + w1_len])
            .map_err(ModelError::from)?;
        offset += w1_len;
        self.b1
            .copy_from_slice(&params[offset..offset + self.hidden_dim]);
        offset += self.hidden_dim;
        let w2_len = self.num_classes * self.hidden_dim;
        self.w2
            .copy_from_slice(&params[offset..offset + w2_len])
            .map_err(ModelError::from)?;
        offset += w2_len;
        self.b2.copy_from_slice(&params[offset..]);
        Ok(())
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, input: &Input) -> Result<Vec<f64>> {
        let x = self.dense_input(input)?;
        Ok(self.forward(x)?.2)
    }

    fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let mut gw1 = Matrix::zeros(self.hidden_dim, self.feature_dim);
        let mut gb1 = vec![0.0; self.hidden_dim];
        let mut gw2 = Matrix::zeros(self.num_classes, self.hidden_dim);
        let mut gb2 = vec![0.0; self.num_classes];

        for e in examples {
            if e.label >= self.num_classes {
                return Err(ModelError::LabelOutOfRange {
                    label: e.label,
                    num_classes: self.num_classes,
                });
            }
            let x = self.dense_input(&e.input)?;
            let (pre, hidden, logits) = self.forward(x)?;
            let mut dlogits = logits;
            fedmath::ops::softmax_inplace(&mut dlogits);
            dlogits[e.label] -= 1.0;

            // Output layer gradients. Product terms fold in with `mul_add`,
            // mirroring the fused-multiply-add chains of the batched kernels
            // (`gemm_tn` here) so both paths stay bit-identical.
            for c in 0..self.num_classes {
                gb2[c] += dlogits[c];
                let row = gw2.row_mut(c);
                for (h, &hv) in hidden.iter().enumerate() {
                    row[h] = dlogits[c].mul_add(hv, row[h]);
                }
            }
            // Backprop into the hidden layer: ascending-class `mul_add`
            // chain, the exact per-element order of the batched `gemm`.
            for h in 0..self.hidden_dim {
                let mut dh = 0.0f64;
                for (c, &dl) in dlogits.iter().enumerate() {
                    dh = dl.mul_add(self.w2.get(c, h), dh);
                }
                dh *= fedmath::ops::relu_grad(pre[h]);
                gb1[h] += dh;
                let row = gw1.row_mut(h);
                for (d, &xd) in x.iter().enumerate() {
                    row[d] = dh.mul_add(xd, row[d]);
                }
            }
        }

        let inv_n = 1.0 / examples.len() as f64;
        let mut out = gw1.into_vec();
        out.extend_from_slice(&gb1);
        out.extend_from_slice(gw2.as_slice());
        out.extend_from_slice(&gb2);
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
        let h = self.hidden_dim;
        let c = self.num_classes;
        let x = self.gather(order.iter().map(|&idx| &examples[idx]), pool)?;
        // Forward: two GEMMs against Wᵀ, each output element a `dot` of two
        // contiguous rows — the same accumulation order as the per-example
        // matvec forward, so the activations are bit-identical.
        let mut pre = pool.take_unzeroed(batch * h);
        let (w1, b1) = (self.w1.as_slice(), Epilogue::Bias(&self.b1));
        kernel::gemm_nt_fused(batch, f, h, &x, w1, b1, Pass::Training, &mut pre);
        let mut hidden = pool.take_unzeroed(batch * h);
        hidden.copy_from_slice(&pre);
        kernel::relu_rows(&mut hidden);
        let mut dlogits = pool.take_unzeroed(batch * c);
        let (w2, b2) = (self.w2.as_slice(), Epilogue::Bias(&self.b2));
        kernel::gemm_nt_fused(batch, h, c, &hidden, w2, b2, Pass::Training, &mut dlogits);
        // Fused softmax + label subtraction, mirroring softmax_inplace per row.
        kernel::softmax_xent_backward(&mut dlogits, batch, c, |r| examples[order[r]].label);
        out.clear();
        out.resize(self.num_params(), 0.0);
        let w1_len = h * f;
        let w2_len = c * h;
        let (gw1, rest) = out.split_at_mut(w1_len);
        let (gb1, rest) = rest.split_at_mut(h);
        let (gw2, gb2) = rest.split_at_mut(w2_len);
        // Output layer: Aᵀ·B folds examples in batch order, exactly like the
        // per-example accumulation loops.
        kernel::gemm_tn(c, batch, h, &dlogits, &hidden, gw2);
        kernel::col_sum_add(batch, c, &dlogits, gb2);
        // Hidden backprop: dH = dLogits · W2 sums classes in ascending order,
        // matching the per-example sequential fold over classes.
        let mut dh = pool.take(batch * h);
        kernel::gemm(batch, c, h, &dlogits, self.w2.as_slice(), &mut dh);
        kernel::relu_backward_rows(&mut dh, &pre);
        kernel::gemm_tn(h, batch, f, &dh, &x, gw1);
        kernel::col_sum_add(batch, h, &dh, gb1);
        kernel::scale(1.0 / batch as f64, out);
        pool.put(x);
        pool.put(pre);
        pool.put(hidden);
        pool.put(dlogits);
        pool.put(dh);
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
            Example::dense(vec![1.0, -0.3], 0),
            Example::dense(vec![-0.5, 0.8], 1),
            Example::dense(vec![0.2, 0.2], 2),
            Example::dense(vec![-1.0, -1.0], 0),
        ]
    }

    #[test]
    fn param_count_and_round_trip() {
        let mut rng = rng_for(1, 0);
        let mut model = Mlp::new(2, 5, 3, &mut rng);
        assert_eq!(model.num_params(), 5 * 2 + 5 + 3 * 5 + 3);
        assert_eq!(model.feature_dim(), 2);
        assert_eq!(model.hidden_dim(), 5);
        assert_eq!(model.num_classes(), 3);
        let p = model.params();
        assert_eq!(p.len(), model.num_params());
        model.set_params(&p).unwrap();
        assert_eq!(model.params(), p);
        assert!(model.set_params(&p[1..]).is_err());
    }

    #[test]
    fn input_validation() {
        let mut rng = rng_for(1, 1);
        let model = Mlp::new(3, 4, 2, &mut rng);
        assert!(model.logits(&Input::Dense(vec![0.0; 3])).is_ok());
        assert!(model.logits(&Input::Dense(vec![0.0; 2])).is_err());
        assert!(model.logits(&Input::Token(1)).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = rng_for(1, 2);
        let model = Mlp::new(2, 4, 3, &mut rng);
        let diff = finite_difference_check(&model, &toy_examples(), 1e-5).unwrap();
        assert!(diff < 1e-5, "max gradient error {diff}");
    }

    #[test]
    fn gradient_validation() {
        let mut rng = rng_for(1, 3);
        let model = Mlp::new(2, 3, 2, &mut rng);
        assert!(matches!(model.gradient(&[]), Err(ModelError::EmptyBatch)));
        assert!(model
            .gradient(&[Example::dense(vec![0.0, 0.0], 9)])
            .is_err());
    }

    #[test]
    fn gradient_descent_fits_toy_data() {
        let mut rng = rng_for(1, 4);
        let mut model = Mlp::new(2, 16, 3, &mut rng);
        let examples = toy_examples();
        let initial = model.loss(&examples).unwrap();
        for _ in 0..300 {
            let grad = model.gradient(&examples).unwrap();
            let mut params = model.params();
            for (p, g) in params.iter_mut().zip(grad.iter()) {
                *p -= 0.3 * g;
            }
            model.set_params(&params).unwrap();
        }
        let final_loss = model.loss(&examples).unwrap();
        assert!(
            final_loss < initial,
            "loss did not decrease: {initial} -> {final_loss}"
        );
        assert!(model.error_rate(&examples).unwrap() <= 0.25);
    }

    #[test]
    fn batched_gradient_is_bitwise_identical_to_per_example() {
        let mut rng = rng_for(1, 5);
        let model = Mlp::new(2, 7, 3, &mut rng);
        let examples = toy_examples();
        for order in [vec![0, 1, 2, 3], vec![3, 0], vec![1, 1, 2]] {
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

    /// Adapter that routes `gradient` through the batched path so the shared
    /// finite-difference checker exercises `gradient_batch_into`.
    #[derive(Clone)]
    struct BatchedMlp(Mlp);

    impl Model for BatchedMlp {
        fn num_params(&self) -> usize {
            self.0.num_params()
        }
        fn params(&self) -> Vec<f64> {
            self.0.params()
        }
        fn set_params(&mut self, params: &[f64]) -> Result<()> {
            self.0.set_params(params)
        }
        fn num_classes(&self) -> usize {
            self.0.num_classes()
        }
        fn logits(&self, input: &Input) -> Result<Vec<f64>> {
            self.0.logits(input)
        }
        fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
            let order: Vec<usize> = (0..examples.len()).collect();
            let mut pool = fedmath::kernel::BufferPool::new();
            let mut out = Vec::new();
            self.0
                .gradient_batch_into(examples, &order, &mut pool, &mut out)?;
            Ok(out)
        }
    }

    #[test]
    fn batched_gradient_matches_finite_differences() {
        let mut rng = rng_for(1, 6);
        let model = BatchedMlp(Mlp::new(2, 4, 3, &mut rng));
        let diff = finite_difference_check(&model, &toy_examples(), 1e-5).unwrap();
        assert!(diff < 1e-5, "max batched gradient error {diff}");
    }

    #[test]
    fn batched_gradient_validation() {
        let mut rng = rng_for(1, 7);
        let model = Mlp::new(2, 3, 2, &mut rng);
        let mut pool = fedmath::kernel::BufferPool::new();
        let mut out = Vec::new();
        assert!(matches!(
            model.gradient_batch_into(&[], &[], &mut pool, &mut out),
            Err(ModelError::EmptyBatch)
        ));
        let bad_label = vec![Example::dense(vec![0.0, 0.0], 9)];
        assert!(model
            .gradient_batch_into(&bad_label, &[0], &mut pool, &mut out)
            .is_err());
        let bad_dim = vec![Example::dense(vec![0.0], 0)];
        assert!(model
            .gradient_batch_into(&bad_dim, &[0], &mut pool, &mut out)
            .is_err());
        // A rejected batch hands its gather buffer back to the pool.
        assert_eq!((pool.fresh_allocations(), pool.pooled()), (1, 1));
    }

    #[test]
    fn batched_evaluation_is_bitwise_identical_to_per_example() {
        use crate::eval::testing::assert_batched_matches_per_example;
        use rand::Rng;
        // Ragged dims: 7 % 4 != 0 features, 13 % 8 != 0 hidden units, 5
        // classes; sizes 1, 3, 4 and the largest validation client.
        let mut rng = rng_for(1, 8);
        let model = Mlp::new(7, 13, 5, &mut rng);
        let examples: Vec<Example> = (0..203)
            .map(|i| Example::dense((0..7).map(|_| rng.gen::<f64>() - 0.5).collect(), i % 5))
            .collect();
        assert_batched_matches_per_example(&model, &examples, &[1, 3, 4, 203]);
    }

    #[test]
    fn batched_evaluation_keeps_the_per_example_errors() {
        use crate::eval::testing::assert_same_error;
        let mut rng = rng_for(1, 9);
        let model = Mlp::new(2, 3, 2, &mut rng);
        let good = Example::dense(vec![0.0, 0.0], 1);
        assert_eq!(assert_same_error(&model, &[]), ModelError::EmptyBatch);
        assert!(matches!(
            assert_same_error(&model, &[good.clone(), Example::dense(vec![0.0, 0.0], 2)]),
            ModelError::LabelOutOfRange {
                label: 2,
                num_classes: 2
            }
        ));
        for bad in [Example::dense(vec![0.0], 0), Example::token(1, 0)] {
            assert!(matches!(
                assert_same_error(&model, &[good.clone(), bad]),
                ModelError::IncompatibleInput { .. }
            ));
        }
        // A bad label on a bad input reports the label, as per example.
        assert!(matches!(
            assert_same_error(&model, &[Example::dense(vec![0.0], 9)]),
            ModelError::LabelOutOfRange { .. }
        ));
    }

    #[test]
    fn initialization_reproducible() {
        let mut a = rng_for(9, 9);
        let mut b = rng_for(9, 9);
        assert_eq!(
            Mlp::new(3, 4, 2, &mut a).params(),
            Mlp::new(3, 4, 2, &mut b).params()
        );
    }
}
