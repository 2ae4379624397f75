//! Local (client-side) mini-batch SGD — `ClientOPT` in Algorithm 2.
//!
//! The client hyperparameters tuned by the paper (Appendix B) all live here:
//! learning rate, momentum, weight decay, batch size, and the number of local
//! epochs per round.

use crate::model::Model;
use crate::{ModelError, Result};
use feddata::Example;
use fedmath::kernel::BufferPool;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the client-side SGD optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalSgdConfig {
    /// Client learning rate (`10^x` with `x ∈ [-6, 0]` in the paper's space).
    pub learning_rate: f64,
    /// Client momentum (`[0, 0.9]` in the paper's space).
    pub momentum: f64,
    /// L2 weight decay (fixed to `5e-5` in the paper).
    pub weight_decay: f64,
    /// Mini-batch size (`{32, 64, 128}` in the paper's space).
    pub batch_size: usize,
    /// Number of local epochs per round (fixed to 1 in the paper).
    pub epochs: usize,
}

impl Default for LocalSgdConfig {
    fn default() -> Self {
        LocalSgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 5e-5,
            batch_size: 32,
            epochs: 1,
        }
    }
}

impl LocalSgdConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidHyperparameter`] if any value is outside
    /// its valid range (non-positive learning rate or batch size, momentum
    /// outside `[0, 1)`, negative weight decay, or zero epochs).
    pub fn validate(&self) -> Result<()> {
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(ModelError::InvalidHyperparameter {
                message: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(ModelError::InvalidHyperparameter {
                message: format!("momentum must be in [0, 1), got {}", self.momentum),
            });
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(ModelError::InvalidHyperparameter {
                message: format!(
                    "weight decay must be non-negative, got {}",
                    self.weight_decay
                ),
            });
        }
        if self.batch_size == 0 {
            return Err(ModelError::InvalidHyperparameter {
                message: "batch size must be positive".into(),
            });
        }
        if self.epochs == 0 {
            return Err(ModelError::InvalidHyperparameter {
                message: "epochs must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Reusable scratch state for [`LocalSgd::train_into`].
///
/// Holds everything a local training run needs between rounds: a cached
/// clone of the model (reused whenever the parameter count matches), the
/// [`BufferPool`] feeding the batched gradient kernels, and the parameter /
/// velocity / gradient / shuffle-order buffers. After the first round warms
/// these up, subsequent rounds through the same scratch perform zero heap
/// allocations.
#[derive(Debug)]
pub struct SgdScratch<M: Model> {
    local: Option<M>,
    pool: BufferPool,
    params: Vec<f64>,
    velocity: Vec<f64>,
    grad: Vec<f64>,
    order: Vec<usize>,
}

impl<M: Model> SgdScratch<M> {
    /// Creates an empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        SgdScratch {
            local: None,
            pool: BufferPool::new(),
            params: Vec::new(),
            velocity: Vec::new(),
            grad: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Fresh-allocation count of the underlying [`BufferPool`] — stops
    /// growing once training reaches steady state.
    pub fn fresh_allocations(&self) -> usize {
        self.pool.fresh_allocations()
    }
}

impl<M: Model> Default for SgdScratch<M> {
    fn default() -> Self {
        SgdScratch::new()
    }
}

/// The client-side optimizer: runs local mini-batch SGD with momentum and
/// weight decay on one client's examples and returns the updated parameters.
#[derive(Debug, Clone)]
pub struct LocalSgd {
    config: LocalSgdConfig,
}

impl LocalSgd {
    /// Creates a local optimizer with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidHyperparameter`] if the configuration is
    /// invalid (see [`LocalSgdConfig::validate`]).
    pub fn new(config: LocalSgdConfig) -> Result<Self> {
        config.validate()?;
        Ok(LocalSgd { config })
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &LocalSgdConfig {
        &self.config
    }

    /// Runs local training on `examples` starting from `model`'s current
    /// parameters and returns the locally-updated parameter vector
    /// (`w'_{a_i}` in Algorithm 2). The input model is not modified.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] if `examples` is empty and
    /// propagates gradient errors.
    pub fn train<M: Model>(
        &self,
        model: &M,
        examples: &[Example],
        rng: &mut impl Rng,
    ) -> Result<Vec<f64>> {
        let mut scratch = SgdScratch::new();
        let mut out = Vec::new();
        self.train_into(model, examples, rng, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`train`](Self::train): runs the same local
    /// SGD (identical RNG stream, bit-identical result) but draws every
    /// temporary from `scratch` and writes the updated parameters into `out`.
    ///
    /// The simulation layer keeps a pool of scratches and threads one through
    /// each client's local steps, so steady-state rounds allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyBatch`] if `examples` is empty and
    /// propagates gradient errors.
    pub fn train_into<M: Model>(
        &self,
        model: &M,
        examples: &[Example],
        rng: &mut impl Rng,
        scratch: &mut SgdScratch<M>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        if examples.is_empty() {
            return Err(ModelError::EmptyBatch);
        }
        let cfg = &self.config;
        // Reuse the cached model clone when it is shape-compatible; its
        // parameters are overwritten in place before every gradient call.
        let mut local = match scratch.local.take() {
            Some(l) if l.num_params() == model.num_params() => l,
            _ => model.clone(),
        };
        model.params_into(&mut scratch.params);
        scratch.velocity.clear();
        scratch.velocity.resize(scratch.params.len(), 0.0);
        scratch.order.clear();
        scratch.order.extend(0..examples.len());

        for _ in 0..cfg.epochs {
            scratch.order.shuffle(rng);
            let mut start = 0;
            while start < scratch.order.len() {
                let end = (start + cfg.batch_size).min(scratch.order.len());
                local.set_params(&scratch.params)?;
                local.gradient_batch_into(
                    examples,
                    &scratch.order[start..end],
                    &mut scratch.pool,
                    &mut scratch.grad,
                )?;
                // One zipped pass with no bounds checks, so it vectorises;
                // the per-element ops (and so the bits) are the indexed
                // loop's, with no fused multiply-add.
                for ((p, v), &grad) in scratch
                    .params
                    .iter_mut()
                    .zip(scratch.velocity.iter_mut())
                    .zip(&scratch.grad)
                {
                    let g = grad + cfg.weight_decay * *p;
                    *v = cfg.momentum * *v + g;
                    *p -= cfg.learning_rate * *v;
                }
                start = end;
            }
        }
        out.clear();
        out.extend_from_slice(&scratch.params);
        scratch.local = Some(local);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::SoftmaxRegression;
    use fedmath::rng::rng_for;

    fn separable_examples() -> Vec<Example> {
        let mut out = Vec::new();
        for i in 0..20 {
            let x = i as f64 / 10.0;
            out.push(Example::dense(vec![1.0 + x, 0.0], 0));
            out.push(Example::dense(vec![0.0, 1.0 + x], 1));
        }
        out
    }

    #[test]
    fn config_validation() {
        assert!(LocalSgdConfig::default().validate().is_ok());
        let bad = LocalSgdConfig {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LocalSgdConfig {
            momentum: 1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LocalSgdConfig {
            momentum: -0.1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LocalSgdConfig {
            weight_decay: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LocalSgdConfig {
            batch_size: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LocalSgdConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        assert!(LocalSgd::new(bad).is_err());
    }

    #[test]
    fn local_training_reduces_loss() {
        let mut rng = rng_for(0, 0);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let examples = separable_examples();
        let sgd = LocalSgd::new(LocalSgdConfig {
            learning_rate: 0.5,
            momentum: 0.5,
            weight_decay: 5e-5,
            batch_size: 8,
            epochs: 5,
        })
        .unwrap();
        let before = model.loss(&examples).unwrap();
        let new_params = sgd.train(&model, &examples, &mut rng).unwrap();
        let mut trained = model.clone();
        trained.set_params(&new_params).unwrap();
        let after = trained.loss(&examples).unwrap();
        assert!(after < before, "loss did not improve: {before} -> {after}");
        assert!(trained.error_rate(&examples).unwrap() < 0.1);
    }

    #[test]
    fn train_does_not_modify_input_model() {
        let mut rng = rng_for(0, 1);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let before = model.params();
        let sgd = LocalSgd::new(LocalSgdConfig::default()).unwrap();
        let _ = sgd.train(&model, &separable_examples(), &mut rng).unwrap();
        assert_eq!(model.params(), before);
    }

    #[test]
    fn empty_client_is_an_error() {
        let mut rng = rng_for(0, 2);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let sgd = LocalSgd::new(LocalSgdConfig::default()).unwrap();
        assert!(matches!(
            sgd.train(&model, &[], &mut rng),
            Err(ModelError::EmptyBatch)
        ));
    }

    #[test]
    fn huge_learning_rate_diverges_on_overlapping_classes() {
        // The HP response surface must punish absurd learning rates — this is
        // what makes hyperparameter tuning on these models non-trivial. With
        // overlapping classes (identical features, different labels) the
        // optimum is the uniform predictor; an enormous learning rate instead
        // drives the weights to huge magnitudes and the loss far above ln(2).
        let mut rng = rng_for(0, 3);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let mut examples = Vec::new();
        for i in 0..20 {
            let x = vec![0.5 + (i % 3) as f64 * 0.01, 0.5];
            examples.push(Example::dense(x.clone(), 0));
            examples.push(Example::dense(x, 1));
        }
        let sgd = LocalSgd::new(LocalSgdConfig {
            learning_rate: 1e4,
            batch_size: 4,
            epochs: 3,
            ..Default::default()
        })
        .unwrap();
        let params = sgd.train(&model, &examples, &mut rng).unwrap();
        let mut diverged = model.clone();
        diverged.set_params(&params).unwrap();
        let loss = diverged.loss(&examples).unwrap();
        let optimal = 2.0f64.ln();
        assert!(
            loss > 2.0 * optimal || !loss.is_finite(),
            "expected divergence with lr=1e4: optimal {optimal}, got {loss}"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut rng = rng_for(0, 4);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        // Pure decay: tiny gradient influence via lr, huge decay.
        let sgd = LocalSgd::new(LocalSgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 5.0,
            batch_size: 64,
            epochs: 10,
        })
        .unwrap();
        let examples = separable_examples();
        let params = sgd.train(&model, &examples, &mut rng).unwrap();
        let norm_before: f64 = model.params().iter().map(|p| p * p).sum();
        let norm_after: f64 = params.iter().map(|p| p * p).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    fn train_into_is_bitwise_identical_to_train() {
        let mut rng = rng_for(11, 0);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let examples = separable_examples();
        let sgd = LocalSgd::new(LocalSgdConfig {
            learning_rate: 0.2,
            momentum: 0.5,
            weight_decay: 5e-5,
            batch_size: 8,
            epochs: 3,
        })
        .unwrap();
        let mut train_rng1 = rng_for(12, 0);
        let mut train_rng2 = rng_for(12, 0);
        let p1 = sgd.train(&model, &examples, &mut train_rng1).unwrap();
        let mut scratch = SgdScratch::new();
        let mut p2 = Vec::new();
        sgd.train_into(&model, &examples, &mut train_rng2, &mut scratch, &mut p2)
            .unwrap();
        assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.iter().zip(p2.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_changes_nothing_and_stops_allocating() {
        let mut rng = rng_for(13, 0);
        let model = SoftmaxRegression::new(2, 2, &mut rng);
        let examples = separable_examples();
        let sgd = LocalSgd::new(LocalSgdConfig {
            batch_size: 8,
            epochs: 2,
            ..Default::default()
        })
        .unwrap();
        let mut scratch = SgdScratch::new();
        let mut warm = Vec::new();
        let mut seed_rng = rng_for(13, 1);
        sgd.train_into(&model, &examples, &mut seed_rng, &mut scratch, &mut warm)
            .unwrap();
        let allocs_after_warmup = scratch.fresh_allocations();

        // Same seed through the warm scratch: bit-identical result, and the
        // pool is already warm so no new buffers are allocated.
        let mut reused = Vec::new();
        let mut rng2 = rng_for(13, 1);
        sgd.train_into(&model, &examples, &mut rng2, &mut scratch, &mut reused)
            .unwrap();
        for (a, b) in warm.iter().zip(reused.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            scratch.fresh_allocations(),
            allocs_after_warmup,
            "steady-state training must not allocate fresh buffers"
        );
    }

    /// FNV-1a over the bits of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Pins `train_into`'s bits for an MLP with momentum and weight decay at
    /// every batch size of the paper's space, each leaving a ragged last
    /// batch (300 examples). CI also runs this on baseline x86-64, so the
    /// update loop must give the same bits at every vector width.
    #[test]
    fn mlp_local_sgd_bits_are_pinned() {
        use crate::mlp::Mlp;
        use rand_distr::{Distribution, Normal};
        let mut rng = rng_for(21, 0);
        let normal = Normal::new(0.0, 1.0).unwrap();
        let examples: Vec<Example> = (0..300)
            .map(|_| {
                let features = (0..16).map(|_| normal.sample(&mut rng)).collect();
                Example::dense(features, rng.gen_range(0..10))
            })
            .collect();
        let model = Mlp::new(16, 32, 10, &mut rng);
        let mut scratch = SgdScratch::new();
        let mut out = Vec::new();
        let digest = fnv([32usize, 64, 128].into_iter().flat_map(|batch_size| {
            let sgd = LocalSgd::new(LocalSgdConfig {
                learning_rate: 0.05,
                momentum: 0.9,
                weight_decay: 5e-3,
                batch_size,
                epochs: 2,
            })
            .unwrap();
            let mut train_rng = rng_for(22, batch_size as u64);
            sgd.train_into(&model, &examples, &mut train_rng, &mut scratch, &mut out)
                .unwrap();
            out.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        }));
        assert_eq!(digest, 0xdd95_fead_e276_88cb, "digest {digest:#018x}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng1 = rng_for(7, 0);
        let mut rng2 = rng_for(7, 0);
        let model = SoftmaxRegression::new(2, 2, &mut rng1);
        let model2 = SoftmaxRegression::new(2, 2, &mut rng2);
        let sgd = LocalSgd::new(LocalSgdConfig::default()).unwrap();
        let examples = separable_examples();
        let p1 = sgd.train(&model, &examples, &mut rng1).unwrap();
        let p2 = sgd.train(&model2, &examples, &mut rng2).unwrap();
        assert_eq!(p1, p2);
    }
}
