//! The [`Model`] trait: flat-parameter models with hand-written gradients.

use crate::metrics::EvalMetrics;
use crate::{ModelError, Result};
use feddata::{Example, PackedRows};
use fedmath::kernel::BufferPool;

/// A trainable model whose parameters are exposed as a flat vector.
///
/// Exposing parameters as `Vec<f64>` lets the federated server optimizers
/// (`ServerOPT` in Algorithm 2 — FedAvg, FedAdam, …) operate on model deltas
/// as plain vectors without knowing the model architecture, exactly as
/// aggregation servers do in practice.
///
/// Implementations must be deterministic: the same parameters and examples
/// always produce the same loss, gradient, and predictions.
pub trait Model: Clone + Send + Sync {
    /// Number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Copies the parameters into a flat vector of length [`num_params`](Self::num_params).
    fn params(&self) -> Vec<f64>;

    /// Overwrites the parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParamLengthMismatch`] if `params.len()` differs
    /// from [`num_params`](Self::num_params).
    fn set_params(&mut self, params: &[f64]) -> Result<()>;

    /// Number of output classes (vocabulary size for next-token models).
    fn num_classes(&self) -> usize;

    /// Computes the output logits for one example input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IncompatibleInput`] if the input kind or
    /// dimension does not match the model.
    fn logits(&self, input: &feddata::Input) -> Result<Vec<f64>>;

    /// Mean cross-entropy gradient over `examples`, as a flat vector aligned
    /// with [`params`](Self::params).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] for an empty batch and propagates
    /// input/label mismatches.
    fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>>;

    /// Copies the parameters into `out`, reusing its storage (no allocation
    /// once `out` has capacity for [`num_params`](Self::num_params) values).
    ///
    /// The default delegates to [`params`](Self::params); implementations
    /// override it to skip the intermediate vector.
    fn params_into(&self, out: &mut Vec<f64>) {
        let p = self.params();
        out.clear();
        out.extend_from_slice(&p);
    }

    /// Mean cross-entropy gradient over the minibatch
    /// `examples[order[0]], examples[order[1]], …`, written into `out`
    /// (reusing its storage) with scratch buffers drawn from `pool`.
    ///
    /// This is the allocation-free hot-path entry point used by
    /// [`crate::LocalSgd`]: `order` is a chunk of a shuffled index
    /// permutation, so the minibatch is described without cloning examples.
    ///
    /// # Contract
    ///
    /// The result must equal [`gradient`](Self::gradient) of the gathered
    /// minibatch. The built-in models override this with batched GEMM paths
    /// whose accumulation orders mirror the per-example loops, making the
    /// equality **bitwise** (asserted in their tests); the default simply
    /// gathers the minibatch and calls [`gradient`](Self::gradient).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] if `order` is empty and propagates
    /// input/label mismatches.
    ///
    /// # Panics
    ///
    /// May panic if an index in `order` is out of bounds for `examples`.
    fn gradient_batch_into(
        &self,
        examples: &[Example],
        order: &[usize],
        pool: &mut BufferPool,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let _ = pool;
        if order.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let batch: Vec<Example> = order.iter().map(|&i| examples[i].clone()).collect();
        let grad = self.gradient(&batch)?;
        out.clear();
        out.extend_from_slice(&grad);
        Ok(())
    }

    /// Mean cross-entropy loss over `examples`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] for an empty batch and propagates
    /// input/label mismatches.
    fn loss(&self, examples: &[Example]) -> Result<f64> {
        Ok(self.evaluate(examples)?.loss)
    }

    /// Classification error rate (1 - accuracy) over `examples`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] for an empty batch and propagates
    /// input/label mismatches.
    fn error_rate(&self, examples: &[Example]) -> Result<f64> {
        Ok(self.count_errors(examples)? as f64 / examples.len() as f64)
    }

    /// Number of misclassified `examples` — all that federated evaluation
    /// (Eq. 2) needs from a client, without the loss.
    ///
    /// The default walks the examples one at a time through
    /// [`logits`](Self::logits); the built-in models override it with one
    /// batched forward per call whose predictions are bit-identical to it
    /// (asserted in their tests).
    ///
    /// # Errors
    ///
    /// Same conditions, in the same order, as [`evaluate`](Self::evaluate).
    fn count_errors(&self, examples: &[Example]) -> Result<usize> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let mut errors = 0usize;
        for e in examples {
            if e.label >= self.num_classes() {
                return Err(ModelError::LabelOutOfRange {
                    label: e.label,
                    num_classes: self.num_classes(),
                });
            }
            if self.predict(&e.input)? != e.label {
                errors += 1;
            }
        }
        Ok(errors)
    }

    /// [`count_errors`](Self::count_errors) over a client's rows as a
    /// `feddata::PackedSplit` holds them — already validated as dense rows
    /// and laid out row-major, so there is nothing to gather. `None` means
    /// "not from these rows": the default, and the built-in dense models'
    /// answer to rows of another width, to no rows, and to labels beyond
    /// their classes. The caller then counts over the client's examples,
    /// which reports exactly what is wrong with them; `Some(n)` must be the
    /// count that call would return.
    #[doc(hidden)]
    fn count_errors_packed(&self, rows: PackedRows<'_>) -> Option<usize> {
        let _ = rows;
        None
    }

    /// Predicted class (argmax of the logits) for one input.
    ///
    /// # Errors
    ///
    /// Propagates [`logits`](Self::logits) errors.
    fn predict(&self, input: &feddata::Input) -> Result<usize> {
        let logits = self.logits(input)?;
        fedmath::ops::predict_class(&logits).map_err(ModelError::from)
    }

    /// Evaluates loss and error rate over `examples` in one pass.
    ///
    /// The default is the per-example reference; the built-in models
    /// override it on the same batched forward as
    /// [`count_errors`](Self::count_errors), keeping its bits.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] for an empty batch,
    /// [`ModelError::LabelOutOfRange`] for labels outside the output range,
    /// and propagates input mismatches.
    fn evaluate(&self, examples: &[Example]) -> Result<EvalMetrics> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let mut total_loss = 0.0;
        let mut errors = 0usize;
        for e in examples {
            if e.label >= self.num_classes() {
                return Err(ModelError::LabelOutOfRange {
                    label: e.label,
                    num_classes: self.num_classes(),
                });
            }
            let logits = self.logits(&e.input)?;
            total_loss += fedmath::ops::cross_entropy_from_logits(&logits, e.label)?;
            let pred = fedmath::ops::predict_class(&logits)?;
            if pred != e.label {
                errors += 1;
            }
        }
        Ok(EvalMetrics {
            loss: total_loss / examples.len() as f64,
            error_rate: errors as f64 / examples.len() as f64,
            num_examples: examples.len(),
        })
    }
}

/// Verifies an analytic gradient against central finite differences.
///
/// Testing helper shared by the model implementations: returns the maximum
/// absolute difference between the analytic gradient and the numerical
/// estimate over all parameters.
///
/// # Errors
///
/// Propagates model evaluation errors.
pub fn finite_difference_check<M: Model>(
    model: &M,
    examples: &[Example],
    epsilon: f64,
) -> Result<f64> {
    let analytic = model.gradient(examples)?;
    let base_params = model.params();
    let mut max_diff: f64 = 0.0;
    for i in 0..base_params.len() {
        let mut plus = model.clone();
        let mut params_plus = base_params.clone();
        params_plus[i] += epsilon;
        plus.set_params(&params_plus)?;

        let mut minus = model.clone();
        let mut params_minus = base_params.clone();
        params_minus[i] -= epsilon;
        minus.set_params(&params_minus)?;

        let numerical = (plus.loss(examples)? - minus.loss(examples)?) / (2.0 * epsilon);
        max_diff = max_diff.max((numerical - analytic[i]).abs());
    }
    Ok(max_diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::Input;

    /// Minimal hand-rolled model used to test the trait's default methods:
    /// a per-class bias vector (no inputs used).
    #[derive(Debug, Clone)]
    struct BiasOnly {
        biases: Vec<f64>,
    }

    impl Model for BiasOnly {
        fn num_params(&self) -> usize {
            self.biases.len()
        }
        fn params(&self) -> Vec<f64> {
            self.biases.clone()
        }
        fn set_params(&mut self, params: &[f64]) -> Result<()> {
            if params.len() != self.biases.len() {
                return Err(ModelError::ParamLengthMismatch {
                    expected: self.biases.len(),
                    got: params.len(),
                });
            }
            self.biases = params.to_vec();
            Ok(())
        }
        fn num_classes(&self) -> usize {
            self.biases.len()
        }
        fn logits(&self, _input: &Input) -> Result<Vec<f64>> {
            Ok(self.biases.clone())
        }
        fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
            if examples.is_empty() {
                return Err(ModelError::EmptyBatch);
            }
            let mut grad = vec![0.0; self.biases.len()];
            for e in examples {
                let probs = fedmath::ops::softmax(&self.biases);
                for (i, p) in probs.iter().enumerate() {
                    grad[i] += p - if i == e.label { 1.0 } else { 0.0 };
                }
            }
            for g in &mut grad {
                *g /= examples.len() as f64;
            }
            Ok(grad)
        }
    }

    fn examples() -> Vec<Example> {
        vec![
            Example::dense(vec![0.0], 0),
            Example::dense(vec![0.0], 1),
            Example::dense(vec![0.0], 1),
        ]
    }

    #[test]
    fn evaluate_computes_loss_and_error() {
        let model = BiasOnly {
            biases: vec![0.0, 1.0, -1.0],
        };
        let m = model.evaluate(&examples()).unwrap();
        assert_eq!(m.num_examples, 3);
        // Predicted class is always 1 (largest bias), so one of three is wrong.
        assert!((m.error_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(m.loss > 0.0);
    }

    #[test]
    fn evaluate_rejects_empty_and_bad_labels() {
        let model = BiasOnly {
            biases: vec![0.0, 0.0],
        };
        assert!(matches!(model.evaluate(&[]), Err(ModelError::EmptyBatch)));
        let bad = vec![Example::dense(vec![0.0], 5)];
        assert!(matches!(
            model.evaluate(&bad),
            Err(ModelError::LabelOutOfRange {
                label: 5,
                num_classes: 2
            })
        ));
    }

    #[test]
    fn default_count_errors_agrees_with_evaluate() {
        let model = BiasOnly {
            biases: vec![0.0, 1.0, -1.0],
        };
        assert_eq!(model.count_errors(&examples()).unwrap(), 1);
        assert_eq!(
            model.error_rate(&examples()).unwrap(),
            model.evaluate(&examples()).unwrap().error_rate
        );
        assert!(matches!(
            model.count_errors(&[]),
            Err(ModelError::EmptyBatch)
        ));
        assert!(matches!(
            model.count_errors(&[Example::dense(vec![0.0], 5)]),
            Err(ModelError::LabelOutOfRange {
                label: 5,
                num_classes: 3
            })
        ));
    }

    #[test]
    fn default_loss_and_error_delegate_to_evaluate() {
        let model = BiasOnly {
            biases: vec![0.0, 0.0],
        };
        let ex = vec![Example::dense(vec![0.0], 0)];
        assert!((model.loss(&ex).unwrap() - 2.0f64.ln()).abs() < 1e-12);
        assert!(model.error_rate(&ex).unwrap() <= 1.0);
    }

    #[test]
    fn predict_returns_argmax() {
        let model = BiasOnly {
            biases: vec![0.0, 3.0, -1.0],
        };
        assert_eq!(model.predict(&Input::Dense(vec![0.0])).unwrap(), 1);
    }

    #[test]
    fn finite_difference_agrees_for_bias_model() {
        let model = BiasOnly {
            biases: vec![0.3, -0.2, 0.1],
        };
        let diff = finite_difference_check(&model, &examples(), 1e-5).unwrap();
        assert!(diff < 1e-6, "gradient check failed with max diff {diff}");
    }
}
