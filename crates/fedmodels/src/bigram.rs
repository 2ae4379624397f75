//! Embedding + softmax next-token model (the stand-in for the paper's
//! 2-layer LSTM on the StackOverflow/Reddit language-modelling tasks).

use crate::eval::{self, BatchedForward};
use crate::model::Model;
use crate::{EvalMetrics, ModelError, Result};
use feddata::{Example, Input};
use fedmath::kernel::{self, BufferPool, Epilogue, Pass};
use fedmath::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// A factorised bigram language model:
/// `logits = W · embed(context) + b`, with an embedding table
/// `E ∈ R^{vocab × emb}` and output matrix `W ∈ R^{vocab × emb}`.
///
/// Like the paper's LSTM it is trained with cross-entropy on next-token
/// targets; unlike the LSTM it conditions only on the previous token, which
/// matches the synthetic Markov-chain data generated by
/// `feddata::generators::LanguageWorld`.
#[derive(Debug, Clone, PartialEq)]
pub struct BigramLm {
    embedding: Matrix,
    output: Matrix,
    bias: Vec<f64>,
    vocab_size: usize,
    embed_dim: usize,
}

impl BigramLm {
    /// Creates a model with small random initial weights.
    pub fn new(vocab_size: usize, embed_dim: usize, rng: &mut impl Rng) -> Self {
        let s = 1.0 / (embed_dim.max(1) as f64).sqrt();
        let normal = Normal::new(0.0, s).expect("valid std");
        BigramLm {
            embedding: Matrix::from_fn(vocab_size, embed_dim, |_, _| normal.sample(rng)),
            output: Matrix::from_fn(vocab_size, embed_dim, |_, _| normal.sample(rng)),
            bias: vec![0.0; vocab_size],
            vocab_size,
            embed_dim,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn context_token(&self, input: &Input) -> Result<usize> {
        match input {
            Input::Token(t) if *t < self.vocab_size => Ok(*t),
            Input::Token(t) => Err(ModelError::IncompatibleInput {
                message: format!("token {t} out of vocabulary of size {}", self.vocab_size),
            }),
            Input::Dense(_) => Err(ModelError::IncompatibleInput {
                message: "bigram language model expects token inputs, got dense features".into(),
            }),
        }
    }

    /// Validated gather of `rows`' context embeddings into a pooled
    /// `[rows × embed_dim]` matrix; see [`eval::gather_rows`].
    fn gather<'a>(
        &'a self,
        rows: impl ExactSizeIterator<Item = &'a Example>,
        pool: &mut BufferPool,
    ) -> Result<Vec<f64>> {
        eval::gather_rows(rows, self.embed_dim, self.vocab_size, pool, |input| {
            Ok(self.embedding.row(self.context_token(input)?))
        })
    }
}

impl BatchedForward for BigramLm {
    fn gather_examples(&self, examples: &[Example], pool: &mut BufferPool) -> Result<Vec<f64>> {
        self.gather(examples.iter(), pool)
    }

    fn forward_rows(&self, x: &[f64], batch: usize, pool: &mut BufferPool) -> Vec<f64> {
        let (v, d) = (self.vocab_size, self.embed_dim);
        let mut logits = pool.take_unzeroed(batch * v);
        let (w, bias) = (self.output.as_slice(), Epilogue::Bias(&self.bias));
        kernel::gemm_nt_fused(batch, d, v, x, w, bias, Pass::Evaluation, &mut logits);
        logits
    }
}

impl Model for BigramLm {
    fn num_params(&self) -> usize {
        2 * self.vocab_size * self.embed_dim + self.vocab_size
    }

    fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.params_into(&mut out);
        out
    }

    fn params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_params());
        out.extend_from_slice(self.embedding.as_slice());
        out.extend_from_slice(self.output.as_slice());
        out.extend_from_slice(&self.bias);
    }

    fn set_params(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.num_params() {
            return Err(ModelError::ParamLengthMismatch {
                expected: self.num_params(),
                got: params.len(),
            });
        }
        let table_len = self.vocab_size * self.embed_dim;
        self.embedding
            .copy_from_slice(&params[..table_len])
            .map_err(ModelError::from)?;
        self.output
            .copy_from_slice(&params[table_len..2 * table_len])
            .map_err(ModelError::from)?;
        self.bias.copy_from_slice(&params[2 * table_len..]);
        Ok(())
    }

    fn num_classes(&self) -> usize {
        self.vocab_size
    }

    fn logits(&self, input: &Input) -> Result<Vec<f64>> {
        let token = self.context_token(input)?;
        let embed = self.embedding.row(token);
        let mut logits = self.output.matvec(embed).map_err(ModelError::from)?;
        for (l, b) in logits.iter_mut().zip(self.bias.iter()) {
            *l += b;
        }
        Ok(logits)
    }

    fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let mut g_embed = Matrix::zeros(self.vocab_size, self.embed_dim);
        let mut g_output = Matrix::zeros(self.vocab_size, self.embed_dim);
        let mut g_bias = vec![0.0; self.vocab_size];

        for e in examples {
            if e.label >= self.vocab_size {
                return Err(ModelError::LabelOutOfRange {
                    label: e.label,
                    num_classes: self.vocab_size,
                });
            }
            let token = self.context_token(&e.input)?;
            let embed: Vec<f64> = self.embedding.row(token).to_vec();
            let mut dlogits = self.logits(&e.input)?;
            fedmath::ops::softmax_inplace(&mut dlogits);
            dlogits[e.label] -= 1.0;

            // Product terms fold in with `mul_add`, mirroring the fused
            // multiply-add chains of the batched kernels (`gemm_tn`/`gemm`)
            // so both paths stay bit-identical.
            for v in 0..self.vocab_size {
                g_bias[v] += dlogits[v];
                let row = g_output.row_mut(v);
                for (d, &ed) in embed.iter().enumerate() {
                    row[d] = dlogits[v].mul_add(ed, row[d]);
                }
            }
            // Gradient with respect to the context token's embedding row:
            // ascending-vocabulary `mul_add` chain, then one plain add into
            // the scatter row (which `axpy(1.0, ..)` reproduces exactly).
            let embed_grad_row = g_embed.row_mut(token);
            for (d, grad) in embed_grad_row.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for (v, &dl) in dlogits.iter().enumerate() {
                    acc = dl.mul_add(self.output.get(v, d), acc);
                }
                *grad += acc;
            }
        }

        let inv_n = 1.0 / examples.len() as f64;
        let mut out = g_embed.into_vec();
        out.extend_from_slice(g_output.as_slice());
        out.extend_from_slice(&g_bias);
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
        let v = self.vocab_size;
        let d = self.embed_dim;
        let x = self.gather(order.iter().map(|&idx| &examples[idx]), pool)?;
        let mut dlogits = pool.take_unzeroed(batch * v);
        let (w, bias) = (self.output.as_slice(), Epilogue::Bias(&self.bias));
        kernel::gemm_nt_fused(batch, d, v, &x, w, bias, Pass::Training, &mut dlogits);
        kernel::softmax_xent_backward(&mut dlogits, batch, v, |r| examples[order[r]].label);
        out.clear();
        out.resize(self.num_params(), 0.0);
        let table_len = v * d;
        let (g_embed, rest) = out.split_at_mut(table_len);
        let (g_output, g_bias) = rest.split_at_mut(table_len);
        kernel::gemm_tn(v, batch, d, &dlogits, &x, g_output);
        kernel::col_sum_add(batch, v, &dlogits, g_bias);
        // dE = dLogits · W sums the vocabulary in ascending order, matching
        // the per-example sequential fold; the rows then scatter-add into the
        // embedding gradient in batch order (shared tokens fold example-wise
        // exactly as the per-example loop does).
        let mut de = pool.take(batch * d);
        kernel::gemm(batch, v, d, &dlogits, self.output.as_slice(), &mut de);
        for (r, &idx) in order.iter().enumerate() {
            let token = self.context_token(&examples[idx].input)?;
            kernel::axpy(
                1.0,
                &de[r * d..(r + 1) * d],
                &mut g_embed[token * d..(token + 1) * d],
            );
        }
        kernel::scale(1.0 / batch as f64, out);
        pool.put(x);
        pool.put(dlogits);
        pool.put(de);
        Ok(())
    }

    fn count_errors(&self, examples: &[Example]) -> Result<usize> {
        eval::count_errors(self, examples)
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
            Example::token(0, 1),
            Example::token(1, 2),
            Example::token(2, 0),
            Example::token(0, 1),
        ]
    }

    #[test]
    fn param_count_and_round_trip() {
        let mut rng = rng_for(2, 0);
        let mut model = BigramLm::new(5, 3, &mut rng);
        assert_eq!(model.num_params(), 2 * 5 * 3 + 5);
        assert_eq!(model.vocab_size(), 5);
        assert_eq!(model.embed_dim(), 3);
        let p = model.params();
        model.set_params(&p).unwrap();
        assert_eq!(model.params(), p);
        assert!(model.set_params(&p[..4]).is_err());
    }

    #[test]
    fn input_validation() {
        let mut rng = rng_for(2, 1);
        let model = BigramLm::new(4, 2, &mut rng);
        assert!(model.logits(&Input::Token(3)).is_ok());
        assert!(model.logits(&Input::Token(4)).is_err());
        assert!(model.logits(&Input::Dense(vec![0.0])).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = rng_for(2, 2);
        let model = BigramLm::new(3, 2, &mut rng);
        let diff = finite_difference_check(&model, &toy_examples(), 1e-5).unwrap();
        assert!(diff < 1e-6, "max gradient error {diff}");
    }

    #[test]
    fn gradient_validation() {
        let mut rng = rng_for(2, 3);
        let model = BigramLm::new(3, 2, &mut rng);
        assert!(matches!(model.gradient(&[]), Err(ModelError::EmptyBatch)));
        assert!(model.gradient(&[Example::token(0, 9)]).is_err());
        assert!(model.gradient(&[Example::token(9, 0)]).is_err());
    }

    #[test]
    fn training_learns_deterministic_bigram() {
        // Deterministic transitions 0->1, 1->2, 2->0 should be learnable to
        // zero error.
        let mut rng = rng_for(2, 4);
        let mut model = BigramLm::new(3, 4, &mut rng);
        let examples = toy_examples();
        for _ in 0..300 {
            let grad = model.gradient(&examples).unwrap();
            let mut params = model.params();
            for (p, g) in params.iter_mut().zip(grad.iter()) {
                *p -= 0.5 * g;
            }
            model.set_params(&params).unwrap();
        }
        assert_eq!(model.error_rate(&examples).unwrap(), 0.0);
        assert_eq!(model.predict(&Input::Token(0)).unwrap(), 1);
        assert_eq!(model.predict(&Input::Token(1)).unwrap(), 2);
    }

    #[test]
    fn batched_gradient_is_bitwise_identical_to_per_example() {
        let mut rng = rng_for(2, 5);
        let model = BigramLm::new(5, 3, &mut rng);
        let examples = toy_examples();
        // Orders with repeated tokens exercise the scatter-add fold.
        for order in [vec![0, 1, 2, 3], vec![3, 0], vec![0, 3, 0]] {
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
        let mut rng = rng_for(2, 6);
        let model = BigramLm::new(3, 2, &mut rng);
        let mut pool = fedmath::kernel::BufferPool::new();
        let mut out = Vec::new();
        assert!(matches!(
            model.gradient_batch_into(&[], &[], &mut pool, &mut out),
            Err(ModelError::EmptyBatch)
        ));
        let bad_label = vec![Example::token(0, 9)];
        assert!(model
            .gradient_batch_into(&bad_label, &[0], &mut pool, &mut out)
            .is_err());
        let bad_token = vec![Example::token(9, 0)];
        assert!(model
            .gradient_batch_into(&bad_token, &[0], &mut pool, &mut out)
            .is_err());
    }

    #[test]
    fn batched_evaluation_is_bitwise_identical_to_per_example() {
        use crate::eval::testing::assert_batched_matches_per_example;
        // Ragged dims: 5 % 4 != 0 embedding width, 19 % 8 != 0 vocabulary.
        let mut rng = rng_for(2, 7);
        let model = BigramLm::new(19, 5, &mut rng);
        let examples: Vec<Example> = (0..203)
            .map(|i| Example::token((i * 7) % 19, (i * 3 + 1) % 19))
            .collect();
        assert_batched_matches_per_example(&model, &examples, &[1, 3, 4, 203]);
    }

    #[test]
    fn batched_evaluation_keeps_the_per_example_errors() {
        use crate::eval::testing::assert_same_error;
        let mut rng = rng_for(2, 8);
        let model = BigramLm::new(3, 2, &mut rng);
        let good = Example::token(0, 1);
        assert_eq!(assert_same_error(&model, &[]), ModelError::EmptyBatch);
        assert!(matches!(
            assert_same_error(&model, &[good.clone(), Example::token(0, 9)]),
            ModelError::LabelOutOfRange {
                label: 9,
                num_classes: 3
            }
        ));
        for bad in [Example::token(9, 0), Example::dense(vec![0.0], 0)] {
            assert!(matches!(
                assert_same_error(&model, &[good.clone(), bad]),
                ModelError::IncompatibleInput { .. }
            ));
        }
    }

    #[test]
    fn initialization_reproducible() {
        let mut a = rng_for(3, 3);
        let mut b = rng_for(3, 3);
        assert_eq!(
            BigramLm::new(6, 4, &mut a).params(),
            BigramLm::new(6, 4, &mut b).params()
        );
    }
}
