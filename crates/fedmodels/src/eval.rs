//! The batched evaluation forward shared by the built-in models.
//!
//! Federated evaluation (Eq. 2 of the paper) only needs each client's
//! misclassification count, and it runs once per noisy score over every
//! validation client. The built-in models therefore evaluate a client as one
//! batch: gather its rows into pooled scratch, run the forward pass on the
//! `fedmath::kernel` GEMMs, and read the predictions off the logit rows.
//! `gemm_nt` commits to `dot`'s accumulation order per output element, so the
//! batched logits are bit-identical to per-example [`Model::logits`] — the
//! trait's per-example defaults stay as the reference the model tests compare
//! against.
//!
//! Scratch is one [`BufferPool`] per thread (at most three live buffers: the
//! gathered inputs, the hidden activations, the logits), so a validation pass
//! allocates nothing per example or per client once the thread has seen its
//! largest client.

use crate::metrics::EvalMetrics;
use crate::model::Model;
use crate::{ModelError, Result};
use feddata::Example;
use fedmath::kernel::BufferPool;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// A model with a batched forward pass over a slice of examples.
pub(crate) trait BatchedForward: Model {
    /// Validates `examples` exactly as the per-example path would (empty
    /// batch first, then per example in order: label range, input kind and
    /// dimension) and returns the row-major `[len × num_classes]` logits in a
    /// buffer drawn from `pool`, bit-identical to [`Model::logits`] per row.
    fn logits_batch(&self, examples: &[Example], pool: &mut BufferPool) -> Result<Vec<f64>>;
}

/// Validates `rows` in order (label range, then `row_of`'s input check — the
/// per-example paths' error order, after the empty-batch check) and gathers
/// each example's `width`-wide input row into a pooled `[rows × width]`
/// matrix. Shared by the evaluation forward and `gradient_batch_into`.
pub(crate) fn gather_rows<'a>(
    rows: impl ExactSizeIterator<Item = &'a Example>,
    width: usize,
    num_classes: usize,
    pool: &mut BufferPool,
    row_of: impl Fn(&'a feddata::Input) -> Result<&'a [f64]>,
) -> Result<Vec<f64>> {
    if rows.len() == 0 {
        return Err(ModelError::EmptyBatch);
    }
    // Every row is assigned below, or the buffer goes back unread.
    let mut x = pool.take_unzeroed(rows.len() * width);
    let filled = rows.enumerate().try_for_each(|(r, e)| {
        if e.label >= num_classes {
            return Err(ModelError::LabelOutOfRange {
                label: e.label,
                num_classes,
            });
        }
        x[r * width..(r + 1) * width].copy_from_slice(row_of(&e.input)?);
        Ok(())
    });
    match filled {
        Ok(()) => Ok(x),
        Err(e) => {
            // A rejected batch costs no pooled buffer.
            pool.put(x);
            Err(e)
        }
    }
}

/// Runs `read` over the batched logits of `examples` (one `num_classes`-wide
/// row per example, in order) and returns the buffer to the thread's pool.
fn with_logits<M: BatchedForward, T>(
    model: &M,
    examples: &[Example],
    read: impl FnOnce(&[f64]) -> Result<T>,
) -> Result<T> {
    SCRATCH.with_borrow_mut(|pool| {
        let logits = model.logits_batch(examples, pool)?;
        let out = read(&logits);
        pool.put(logits);
        out
    })
}

/// [`Model::count_errors`] on the batched forward: row-wise argmax only.
pub(crate) fn count_errors<M: BatchedForward>(model: &M, examples: &[Example]) -> Result<usize> {
    let classes = model.num_classes().max(1);
    with_logits(model, examples, |logits| {
        let mut errors = 0;
        for (row, e) in logits.chunks_exact(classes).zip(examples) {
            errors += usize::from(fedmath::ops::predict_class(row)? != e.label);
        }
        Ok(errors)
    })
}

/// [`Model::evaluate`] on the batched forward: per row the same
/// cross-entropy and argmax calls as the per-example default, folded in
/// example order, so loss and error rate keep their bits.
pub(crate) fn evaluate<M: BatchedForward>(model: &M, examples: &[Example]) -> Result<EvalMetrics> {
    let classes = model.num_classes().max(1);
    with_logits(model, examples, |logits| {
        let mut total_loss = 0.0;
        let mut errors = 0usize;
        for (row, e) in logits.chunks_exact(classes).zip(examples) {
            total_loss += fedmath::ops::cross_entropy_from_logits(row, e.label)?;
            errors += usize::from(fedmath::ops::predict_class(row)? != e.label);
        }
        Ok(EvalMetrics {
            loss: total_loss / examples.len() as f64,
            error_rate: errors as f64 / examples.len() as f64,
            num_examples: examples.len(),
        })
    })
}

/// Test support: hides a model's overrides so the trait's per-example
/// defaults run against the same parameters.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Delegates only the required [`Model`] methods, so `evaluate` and
    /// `count_errors` are the trait's per-example reference.
    #[derive(Clone)]
    pub(crate) struct PerExample<M>(pub M);

    impl<M: Model> Model for PerExample<M> {
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
        fn logits(&self, input: &feddata::Input) -> Result<Vec<f64>> {
            self.0.logits(input)
        }
        fn gradient(&self, examples: &[Example]) -> Result<Vec<f64>> {
            self.0.gradient(examples)
        }
    }

    /// Asserts the model's batched `count_errors` / `evaluate` equal the
    /// per-example reference bit for bit on every prefix length in `sizes`.
    pub(crate) fn assert_batched_matches_per_example<M: Model>(
        model: &M,
        examples: &[Example],
        sizes: &[usize],
    ) {
        let reference = PerExample(model.clone());
        for &n in sizes {
            let batch = &examples[..n];
            let want = reference.evaluate(batch).unwrap();
            let got = model.evaluate(batch).unwrap();
            assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "loss, n = {n}");
            assert_eq!(got.error_rate.to_bits(), want.error_rate.to_bits());
            assert_eq!(got.num_examples, n);
            let errors = model.count_errors(batch).unwrap();
            assert_eq!(errors, reference.count_errors(batch).unwrap(), "n = {n}");
            assert_eq!(errors as f64 / n as f64, want.error_rate);
        }
    }

    /// Asserts both batched entry points fail on `examples` with the same
    /// error as the per-example reference.
    pub(crate) fn assert_same_error<M: Model>(model: &M, examples: &[Example]) -> ModelError {
        let reference = PerExample(model.clone());
        let want = reference.evaluate(examples).unwrap_err();
        assert_eq!(model.evaluate(examples).unwrap_err(), want);
        assert_eq!(model.count_errors(examples).unwrap_err(), want);
        assert_eq!(reference.count_errors(examples).unwrap_err(), want);
        want
    }
}
