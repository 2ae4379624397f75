//! The batched evaluation forward shared by the built-in models.
//!
//! Federated evaluation (Eq. 2 of the paper) only needs each client's
//! misclassification count, and it runs once per noisy score over every
//! validation client. The built-in models therefore evaluate a client as one
//! batch: gather its rows into pooled scratch, run the forward pass on the
//! `fedmath::kernel` GEMMs, and count the mispredicted logit rows in one
//! sweep ([`kernel::argmax_errors`]). `gemm_nt` commits to `dot`'s
//! accumulation order per output element, so the batched logits are
//! bit-identical to per-example [`Model::logits`] — the trait's per-example
//! defaults stay as the reference the model tests compare against.
//!
//! The forward is split at the gather ([`BatchedForward`]): rows that are
//! already packed row-major (`feddata::PackedSplit`, the validation pool of a
//! dense dataset) skip it and go straight to the GEMMs.
//!
//! Scratch is one [`BufferPool`] per thread (at most three live buffers: the
//! gathered inputs, the hidden activations, the logits), so a validation pass
//! allocates nothing per example or per client once the thread has seen its
//! largest client.

use crate::metrics::EvalMetrics;
use crate::model::Model;
use crate::{ModelError, Result};
use feddata::{Example, PackedRows};
use fedmath::kernel::{self, BufferPool};
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// A model whose batched forward pass is "gather the input rows, then
/// multiply".
pub(crate) trait BatchedForward: Model {
    /// Validates `examples` exactly as the per-example path would (empty
    /// batch first, then per example in order: label range, input kind and
    /// dimension) and returns their row-major input rows in a buffer drawn
    /// from `pool`.
    fn gather_examples(&self, examples: &[Example], pool: &mut BufferPool) -> Result<Vec<f64>>;

    /// The row-major `[rows × num_classes]` logits of the `rows` row-major
    /// input rows in `x`, in a buffer drawn from `pool`, bit-identical to
    /// [`Model::logits`] per row.
    fn forward_rows(&self, x: &[f64], rows: usize, pool: &mut BufferPool) -> Vec<f64>;
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
        let x = model.gather_examples(examples, pool)?;
        let logits = model.forward_rows(&x, examples.len(), pool);
        pool.put(x);
        let out = read(&logits);
        pool.put(logits);
        out
    })
}

/// [`Model::count_errors`] on the batched forward.
pub(crate) fn count_errors<M: BatchedForward>(model: &M, examples: &[Example]) -> Result<usize> {
    let classes = model.num_classes().max(1);
    with_logits(model, examples, |logits| {
        Ok(kernel::argmax_errors(logits, classes, |r| {
            examples[r].label
        }))
    })
}

/// [`Model::count_errors_packed`] for a model whose input rows are `width`
/// dense features: the forward without the gather. `None` — evaluate the
/// client's examples instead, which reports what is wrong with them — unless
/// the rows are the model's width, there is at least one, and every label is
/// one of its classes.
pub(crate) fn count_errors_packed<M: BatchedForward>(
    model: &M,
    width: usize,
    rows: PackedRows<'_>,
) -> Option<usize> {
    let classes = model.num_classes();
    if rows.width != width || rows.labels.is_empty() || rows.max_label >= classes {
        return None;
    }
    SCRATCH.with_borrow_mut(|pool| {
        let logits = model.forward_rows(rows.features, rows.labels.len(), pool);
        let errors = kernel::argmax_errors(&logits, classes, |r| rows.labels[r]);
        pool.put(logits);
        Some(errors)
    })
}

/// [`Model::evaluate`] on the batched forward: per row the same
/// cross-entropy call as the per-example default, folded in example order,
/// so the loss keeps its bits; the error count is [`count_errors`]'s.
pub(crate) fn evaluate<M: BatchedForward>(model: &M, examples: &[Example]) -> Result<EvalMetrics> {
    let classes = model.num_classes().max(1);
    with_logits(model, examples, |logits| {
        let mut total_loss = 0.0;
        for (row, e) in logits.chunks_exact(classes).zip(examples) {
            total_loss += fedmath::ops::cross_entropy_from_logits(row, e.label)?;
        }
        let errors = kernel::argmax_errors(logits, classes, |r| examples[r].label);
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

#[cfg(test)]
mod tests {
    use crate::{BigramLm, Mlp, Model, SoftmaxRegression};
    use feddata::{ClientData, Example, FederatedDataset, Split, Task};
    use fedmath::rng::rng_for;
    use rand::Rng;

    /// Three validation clients of 7-feature rows over 5 labels: 203 rows, an
    /// empty client, one row.
    fn dense_dataset() -> FederatedDataset {
        let mut rng = rng_for(3, 0);
        let mut client = |id: usize, n: usize| {
            let rows = (0..n)
                .map(|i| Example::dense((0..7).map(|_| rng.gen::<f64>() - 0.5).collect(), i % 5));
            ClientData::new(id, rows.collect())
        };
        let val = vec![client(0, 203), client(1, 0), client(2, 1)];
        FederatedDataset::new(
            "t",
            Task::DenseClassification,
            5,
            7,
            vec![client(0, 1)],
            val,
        )
        .unwrap()
    }

    fn assert_packed_matches_gathered<M: Model>(model: &M, dataset: &FederatedDataset) {
        let pack = dataset.packed(Split::Validation).unwrap();
        for (k, client) in dataset.clients(Split::Validation).iter().enumerate() {
            match model.count_errors_packed(pack.client(k)) {
                Some(errors) => assert_eq!(errors, model.count_errors(client.examples()).unwrap()),
                None => assert!(client.is_empty(), "client {k} deferred"),
            }
        }
    }

    #[test]
    fn packed_rows_count_what_the_gathered_examples_count() {
        let dataset = dense_dataset();
        let mut rng = rng_for(3, 1);
        assert_packed_matches_gathered(&Mlp::new(7, 13, 5, &mut rng), &dataset);
        assert_packed_matches_gathered(&SoftmaxRegression::new(7, 5, &mut rng), &dataset);
        assert_packed_matches_gathered(
            &crate::ModelSpec::Softmax.build(&dataset, &mut rng),
            &dataset,
        );
    }

    #[test]
    fn rows_a_model_cannot_vouch_for_are_deferred() {
        let dataset = dense_dataset();
        let rows = dataset.packed(Split::Validation).unwrap().client(0);
        let mut rng = rng_for(3, 2);
        // Another width, fewer classes than the pool's labels, a token model.
        assert_eq!(Mlp::new(6, 4, 5, &mut rng).count_errors_packed(rows), None);
        assert_eq!(Mlp::new(7, 4, 4, &mut rng).count_errors_packed(rows), None);
        assert_eq!(
            SoftmaxRegression::new(8, 5, &mut rng).count_errors_packed(rows),
            None
        );
        assert_eq!(
            SoftmaxRegression::new(7, 3, &mut rng).count_errors_packed(rows),
            None
        );
        assert_eq!(
            BigramLm::new(5, 7, &mut rng).count_errors_packed(rows),
            None
        );
        assert!(Mlp::new(7, 4, 6, &mut rng)
            .count_errors_packed(rows)
            .is_some());
    }
}
