//! Hyperparameter search spaces and sampled configurations.
//!
//! [`SearchSpace::paper_default`] reproduces the search space of Appendix B:
//! three tuned FedAdam server hyperparameters, two tuned client SGD
//! hyperparameters, and the fixed values the paper does not tune.

use crate::{HpoError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One dimension of a search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dimension {
    /// Uniform over `[low, high]`.
    Uniform {
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (inclusive).
        high: f64,
    },
    /// Log-uniform over `[low, high]` (both strictly positive): the base-10
    /// logarithm is sampled uniformly.
    LogUniform {
        /// Lower bound (inclusive, > 0).
        low: f64,
        /// Upper bound (inclusive, > 0).
        high: f64,
    },
    /// A finite set of allowed values (e.g. batch sizes).
    Categorical {
        /// The allowed values.
        choices: Vec<f64>,
    },
    /// A hyperparameter held fixed at the given value.
    Fixed {
        /// The fixed value.
        value: f64,
    },
}

impl Dimension {
    /// Samples one value from this dimension.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        match self {
            Dimension::Uniform { low, high } => {
                if low == high {
                    *low
                } else {
                    rng.gen_range(*low..*high)
                }
            }
            Dimension::LogUniform { low, high } => {
                if low == high {
                    *low
                } else {
                    let (l, h) = (low.log10(), high.log10());
                    10f64.powf(rng.gen_range(l..h))
                }
            }
            Dimension::Categorical { choices } => choices[rng.gen_range(0..choices.len())],
            Dimension::Fixed { value } => *value,
        }
    }

    /// Returns `true` if `value` is attainable by this dimension (used to
    /// validate externally-supplied configurations).
    pub fn contains(&self, value: f64) -> bool {
        match self {
            Dimension::Uniform { low, high } => value >= *low && value <= *high,
            Dimension::LogUniform { low, high } => value >= *low && value <= *high,
            Dimension::Categorical { choices } => {
                choices.iter().any(|&c| (c - value).abs() < 1e-12)
            }
            Dimension::Fixed { value: v } => (v - value).abs() < 1e-12,
        }
    }

    /// The canonical bit-level representative of `value` within this
    /// dimension, or `None` if the value is non-finite or outside the
    /// dimension.
    ///
    /// Canonicalization makes the representative a pure function of the
    /// *point* the value denotes, so `f64::to_bits` of the result is a stable
    /// identity (the foundation of `fedstore`'s trial-ledger keys):
    ///
    /// - `-0.0` normalises to `+0.0` (distinct bits, same point);
    /// - discrete dimensions (categorical choices, fixed values) snap to the
    ///   exact bits of the matching declared value, absorbing the `1e-12`
    ///   tolerance [`contains`](Self::contains) allows;
    /// - continuous in-range values are already canonical.
    pub fn canonical_value(&self, value: f64) -> Option<f64> {
        if !value.is_finite() {
            return None;
        }
        match self {
            Dimension::Uniform { .. } | Dimension::LogUniform { .. } => {
                // `+ 0.0` maps -0.0 to +0.0 and is the identity elsewhere.
                self.contains(value).then_some(value + 0.0)
            }
            Dimension::Categorical { choices } => choices
                .iter()
                .copied()
                .find(|&c| (c - value).abs() < 1e-12)
                .map(|c| c + 0.0),
            Dimension::Fixed { value: declared } => {
                ((declared - value).abs() < 1e-12).then_some(*declared + 0.0)
            }
        }
    }

    fn validate(&self, name: &str) -> Result<()> {
        match self {
            Dimension::Uniform { low, high } => {
                if !(low.is_finite() && high.is_finite()) || low > high {
                    return Err(HpoError::InvalidConfig {
                        message: format!("dimension {name}: invalid uniform range [{low}, {high}]"),
                    });
                }
            }
            Dimension::LogUniform { low, high } => {
                if !(low.is_finite() && high.is_finite()) || *low <= 0.0 || low > high {
                    return Err(HpoError::InvalidConfig {
                        message: format!(
                            "dimension {name}: log-uniform range [{low}, {high}] must be positive and ordered"
                        ),
                    });
                }
            }
            Dimension::Categorical { choices } => {
                // An empty choice set panics at sample time (`gen_range` over
                // `0..0`) and a non-finite choice poisons every downstream
                // consumer (training, selection, trial-ledger keys), so both
                // are rejected here at construction.
                if choices.is_empty() {
                    return Err(HpoError::InvalidConfig {
                        message: format!("dimension {name}: categorical choices must be non-empty"),
                    });
                }
                if let Some(bad) = choices.iter().find(|c| !c.is_finite()) {
                    return Err(HpoError::InvalidConfig {
                        message: format!(
                            "dimension {name}: categorical choice {bad} is not finite"
                        ),
                    });
                }
                // Choices closer together than the 1e-12 equality tolerance
                // of `contains`/`canonical_value` would be indistinguishable
                // (and would collide under canonical snapping).
                for (i, &a) in choices.iter().enumerate() {
                    if choices[i + 1..].iter().any(|&b| (a - b).abs() < 1e-12) {
                        return Err(HpoError::InvalidConfig {
                            message: format!(
                                "dimension {name}: categorical choices within 1e-12 of {a} are indistinguishable"
                            ),
                        });
                    }
                }
            }
            Dimension::Fixed { value } => {
                if !value.is_finite() {
                    return Err(HpoError::InvalidConfig {
                        message: format!("dimension {name}: fixed value must be finite"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Folds canonical configuration bits into a stable 64-bit digest (the
/// shared definition behind [`SearchSpace::canonical_fingerprint`] and the
/// trial-ledger's config keys): a SplitMix64 chain over the length and every
/// bit pattern, so distinct points get independent digests and the value
/// never depends on process, platform, or trial numbering.
pub fn fingerprint_bits(bits: &[u64]) -> u64 {
    bits.iter().fold(
        fedmath::rng::derive_seed(0x5EED_F00D, bits.len() as u64),
        |acc, &b| fedmath::rng::derive_seed(acc, b),
    )
}

/// A sampled hyperparameter configuration: one value per search-space
/// dimension, in the space's dimension order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HpConfig {
    values: Vec<f64>,
}

impl HpConfig {
    /// Creates a configuration from raw values (use
    /// [`SearchSpace::validate_config`] to check it against a space).
    pub fn new(values: Vec<f64>) -> Self {
        HpConfig { values }
    }

    /// The configuration's values, aligned with the space's dimensions.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the configuration has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// An ordered collection of named dimensions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchSpace {
    names: Vec<String>,
    dimensions: Vec<Dimension>,
}

impl SearchSpace {
    /// Names of the hyperparameters in the paper's search space
    /// (Appendix B), in the order used by [`SearchSpace::paper_default`].
    pub const PAPER_DIMENSIONS: [&'static str; 9] = [
        "server_lr",
        "server_beta1",
        "server_beta2",
        "server_lr_decay",
        "client_lr",
        "client_momentum",
        "client_weight_decay",
        "client_batch_size",
        "client_epochs",
    ];

    /// Creates an empty search space.
    pub fn new() -> Self {
        SearchSpace::default()
    }

    /// Adds a dimension.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if the dimension is malformed or
    /// the name is a duplicate.
    pub fn with_dimension(mut self, name: impl Into<String>, dim: Dimension) -> Result<Self> {
        let name = name.into();
        if self.names.iter().any(|n| n == &name) {
            return Err(HpoError::InvalidConfig {
                message: format!("duplicate dimension name {name}"),
            });
        }
        dim.validate(&name)?;
        self.names.push(name);
        self.dimensions.push(dim);
        Ok(self)
    }

    /// Adds a uniform dimension.
    ///
    /// # Errors
    ///
    /// See [`with_dimension`](Self::with_dimension).
    pub fn with_uniform(self, name: impl Into<String>, low: f64, high: f64) -> Result<Self> {
        self.with_dimension(name, Dimension::Uniform { low, high })
    }

    /// Adds a log-uniform dimension.
    ///
    /// # Errors
    ///
    /// See [`with_dimension`](Self::with_dimension).
    pub fn with_log_uniform(self, name: impl Into<String>, low: f64, high: f64) -> Result<Self> {
        self.with_dimension(name, Dimension::LogUniform { low, high })
    }

    /// Adds a categorical dimension.
    ///
    /// # Errors
    ///
    /// See [`with_dimension`](Self::with_dimension).
    pub fn with_categorical(self, name: impl Into<String>, choices: Vec<f64>) -> Result<Self> {
        self.with_dimension(name, Dimension::Categorical { choices })
    }

    /// Adds a fixed dimension.
    ///
    /// # Errors
    ///
    /// See [`with_dimension`](Self::with_dimension).
    pub fn with_fixed(self, name: impl Into<String>, value: f64) -> Result<Self> {
        self.with_dimension(name, Dimension::Fixed { value })
    }

    /// The search space of Appendix B:
    ///
    /// | hyperparameter | range |
    /// |---|---|
    /// | server learning rate | log-uniform `[1e-6, 1e-1]` |
    /// | server β₁ | uniform `[0, 0.9]` |
    /// | server β₂ | uniform `[0, 0.999]` |
    /// | server lr decay | fixed `0.9999` |
    /// | client learning rate | log-uniform `[1e-6, 1]` |
    /// | client momentum | uniform `[0, 0.9]` |
    /// | client weight decay | fixed `5e-5` |
    /// | client batch size | categorical `{32, 64, 128}` |
    /// | client epochs | fixed `1` |
    pub fn paper_default() -> Self {
        Self::paper_with_server_lr_range(1e-6, 1e-1)
    }

    /// The paper's search space with a custom server-learning-rate interval,
    /// used by the search-space ablation of Appendix C (Fig. 13) where nested
    /// ranges centred on `1e-3` are compared.
    pub fn paper_with_server_lr_range(low: f64, high: f64) -> Self {
        SearchSpace::new()
            .with_log_uniform("server_lr", low, high)
            .and_then(|s| s.with_uniform("server_beta1", 0.0, 0.9))
            .and_then(|s| s.with_uniform("server_beta2", 0.0, 0.999))
            .and_then(|s| s.with_fixed("server_lr_decay", 0.9999))
            .and_then(|s| s.with_log_uniform("client_lr", 1e-6, 1.0))
            .and_then(|s| s.with_uniform("client_momentum", 0.0, 0.9))
            .and_then(|s| s.with_fixed("client_weight_decay", 5e-5))
            .and_then(|s| s.with_categorical("client_batch_size", vec![32.0, 64.0, 128.0]))
            .and_then(|s| s.with_fixed("client_epochs", 1.0))
            .expect("paper search space is statically valid")
    }

    /// The nested server-lr interval of width `10^width` centred (in log
    /// space) on `1e-3`, as used by Fig. 13 (`width ∈ {1, 2, 3, 4}`).
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if `width` is not in `1..=4`.
    pub fn paper_nested_lr_space(width: u32) -> Result<Self> {
        if !(1..=4).contains(&width) {
            return Err(HpoError::InvalidConfig {
                message: format!("nested lr width must be in 1..=4, got {width}"),
            });
        }
        let half = width as f64 / 2.0;
        let low = 10f64.powf(-3.0 - half);
        let high = 10f64.powf(-3.0 + half);
        Ok(Self::paper_with_server_lr_range(low, high))
    }

    /// Dimension names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Dimensions, in order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dimensions.len()
    }

    /// Returns `true` if the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dimensions.is_empty()
    }

    /// Index of the dimension with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Value of the named dimension within a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if the name is unknown or the
    /// configuration has the wrong arity.
    pub fn value(&self, config: &HpConfig, name: &str) -> Result<f64> {
        let idx = self.index_of(name).ok_or_else(|| HpoError::InvalidConfig {
            message: format!("unknown dimension {name}"),
        })?;
        config
            .values()
            .get(idx)
            .copied()
            .ok_or_else(|| HpoError::InvalidConfig {
                message: format!(
                    "configuration has {} values but dimension {name} has index {idx}",
                    config.len()
                ),
            })
    }

    /// Samples one configuration uniformly from the space.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if the space is empty.
    pub fn sample(&self, rng: &mut impl Rng) -> Result<HpConfig> {
        if self.is_empty() {
            return Err(HpoError::InvalidConfig {
                message: "cannot sample from an empty search space".into(),
            });
        }
        Ok(HpConfig::new(
            self.dimensions.iter().map(|d| d.sample(rng)).collect(),
        ))
    }

    /// Samples `count` configurations.
    ///
    /// # Errors
    ///
    /// See [`sample`](Self::sample).
    pub fn sample_many(&self, count: usize, rng: &mut impl Rng) -> Result<Vec<HpConfig>> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// The canonical representative of `config`: every value replaced by its
    /// dimension's [`Dimension::canonical_value`]. Two configurations that
    /// denote the same point in the space (e.g. `-0.0` vs `0.0`, or a
    /// categorical value within the equality tolerance of a choice)
    /// canonicalize to bit-identical values, so
    /// [`canonical_bits`](Self::canonical_bits) is a stable identity for
    /// content-addressed storage.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if the configuration has the wrong
    /// arity or any value is non-finite or outside its dimension.
    pub fn canonicalize(&self, config: &HpConfig) -> Result<HpConfig> {
        if config.len() != self.len() {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "configuration has {} values but the space has {} dimensions",
                    config.len(),
                    self.len()
                ),
            });
        }
        let values = self
            .names
            .iter()
            .zip(self.dimensions.iter())
            .zip(config.values())
            .map(|((name, dim), &value)| {
                dim.canonical_value(value)
                    .ok_or_else(|| HpoError::InvalidConfig {
                        message: format!(
                            "value {value} cannot be canonicalized within dimension {name}"
                        ),
                    })
            })
            .collect::<Result<Vec<f64>>>()?;
        Ok(HpConfig::new(values))
    }

    /// The bit patterns of the canonicalized configuration — the
    /// content-addressed identity used to key recorded trials.
    ///
    /// # Errors
    ///
    /// See [`canonicalize`](Self::canonicalize).
    pub fn canonical_bits(&self, config: &HpConfig) -> Result<Vec<u64>> {
        Ok(self
            .canonicalize(config)?
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect())
    }

    /// A stable 64-bit digest of the canonicalized configuration — the
    /// *point* identity used to key positional randomness and
    /// content-addressed storage. Pure function of the canonical bits,
    /// independent of process, platform, or trial numbering.
    ///
    /// # Errors
    ///
    /// See [`canonicalize`](Self::canonicalize).
    pub fn canonical_fingerprint(&self, config: &HpConfig) -> Result<u64> {
        Ok(fingerprint_bits(&self.canonical_bits(config)?))
    }

    /// Checks that a configuration has the right arity and that every value
    /// lies within its dimension.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] describing the first violation.
    pub fn validate_config(&self, config: &HpConfig) -> Result<()> {
        if config.len() != self.len() {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "configuration has {} values but the space has {} dimensions",
                    config.len(),
                    self.len()
                ),
            });
        }
        for ((name, dim), &value) in self
            .names
            .iter()
            .zip(self.dimensions.iter())
            .zip(config.values())
        {
            if !dim.contains(value) {
                return Err(HpoError::InvalidConfig {
                    message: format!("value {value} outside dimension {name}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmath::rng::rng_for;

    #[test]
    fn dimension_sampling_respects_bounds() {
        let mut rng = rng_for(0, 0);
        let u = Dimension::Uniform {
            low: -1.0,
            high: 2.0,
        };
        let l = Dimension::LogUniform {
            low: 1e-6,
            high: 1e-1,
        };
        let c = Dimension::Categorical {
            choices: vec![32.0, 64.0, 128.0],
        };
        let f = Dimension::Fixed { value: 0.5 };
        for _ in 0..200 {
            let uv = u.sample(&mut rng);
            assert!((-1.0..=2.0).contains(&uv));
            assert!(u.contains(uv));
            let lv = l.sample(&mut rng);
            assert!((1e-6..=1e-1).contains(&lv));
            assert!(l.contains(lv));
            let cv = c.sample(&mut rng);
            assert!(c.contains(cv));
            assert_eq!(f.sample(&mut rng), 0.5);
        }
        assert!(!c.contains(33.0));
        assert!(!f.contains(0.4));
        assert!(f.contains(0.5));
    }

    #[test]
    fn log_uniform_spreads_across_decades() {
        let mut rng = rng_for(0, 1);
        let l = Dimension::LogUniform {
            low: 1e-6,
            high: 1.0,
        };
        let samples: Vec<f64> = (0..2000).map(|_| l.sample(&mut rng).log10()).collect();
        // Uniform in log space over [-6, 0]: mean should be near -3.
        let mean = fedmath::stats::mean(&samples);
        assert!(
            (mean + 3.0).abs() < 0.2,
            "log-space mean {mean} not near -3"
        );
    }

    #[test]
    fn space_builder_and_lookup() {
        let space = SearchSpace::new()
            .with_uniform("a", 0.0, 1.0)
            .unwrap()
            .with_fixed("b", 7.0)
            .unwrap();
        assert_eq!(space.len(), 2);
        assert_eq!(space.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(space.index_of("b"), Some(1));
        assert_eq!(space.index_of("zzz"), None);
        let mut rng = rng_for(1, 0);
        let config = space.sample(&mut rng).unwrap();
        assert_eq!(space.value(&config, "b").unwrap(), 7.0);
        assert!(space.value(&config, "zzz").is_err());
        assert!(space.validate_config(&config).is_ok());
        assert!(space.validate_config(&HpConfig::new(vec![0.5])).is_err());
        assert!(space
            .validate_config(&HpConfig::new(vec![0.5, 8.0]))
            .is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(SearchSpace::new().with_uniform("a", 1.0, 0.0).is_err());
        assert!(SearchSpace::new().with_log_uniform("a", 0.0, 1.0).is_err());
        assert!(SearchSpace::new().with_log_uniform("a", -1.0, 1.0).is_err());
        assert!(SearchSpace::new().with_categorical("a", vec![]).is_err());
        assert!(SearchSpace::new().with_fixed("a", f64::NAN).is_err());
        assert!(SearchSpace::new()
            .with_uniform("a", 0.0, 1.0)
            .unwrap()
            .with_uniform("a", 0.0, 1.0)
            .is_err());
        assert!(SearchSpace::new().sample(&mut rng_for(0, 0)).is_err());
    }

    #[test]
    fn degenerate_discrete_dimensions_are_rejected_at_construction() {
        // Regression: empty or non-finite discrete dimensions used to slip
        // through the builder and only blow up at sample time (`gen_range`
        // over an empty range panics; NaN/inf choices sample as poison).
        assert!(SearchSpace::new().with_categorical("bs", vec![]).is_err());
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![f64::NAN])
            .is_err());
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![32.0, f64::INFINITY])
            .is_err());
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![32.0, f64::NEG_INFINITY, 64.0])
            .is_err());
        assert!(SearchSpace::new().with_fixed("wd", f64::INFINITY).is_err());
        // Choices inside the canonical-snap tolerance are indistinguishable.
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![1.0, 1.0 + 5e-13])
            .is_err());
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![1.0, 1.0])
            .is_err());
        // The same rejections apply through the raw dimension entry point.
        assert!(SearchSpace::new()
            .with_dimension("bs", Dimension::Categorical { choices: vec![] })
            .is_err());
        assert!(SearchSpace::new()
            .with_dimension(
                "bs",
                Dimension::Categorical {
                    choices: vec![f64::NAN, 1.0],
                },
            )
            .is_err());
        // Well-formed discrete dimensions still pass.
        assert!(SearchSpace::new()
            .with_categorical("bs", vec![32.0, 64.0])
            .is_ok());
    }

    #[test]
    fn canonicalization_is_bit_stable() {
        let space = SearchSpace::new()
            .with_uniform("u", -1.0, 1.0)
            .unwrap()
            .with_log_uniform("l", 1e-6, 1.0)
            .unwrap()
            .with_categorical("c", vec![32.0, 64.0])
            .unwrap()
            .with_fixed("f", 5e-5)
            .unwrap();
        // -0.0 normalises to +0.0; near-choice values snap to the exact
        // choice bits; near-fixed values snap to the declared value.
        let canon = space
            .canonicalize(&HpConfig::new(vec![-0.0, 1e-3, 64.0 - 1e-13, 5e-5 + 1e-20]))
            .unwrap();
        assert_eq!(canon.values()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(canon.values()[1].to_bits(), 1e-3f64.to_bits());
        assert_eq!(canon.values()[2].to_bits(), 64.0f64.to_bits());
        assert_eq!(canon.values()[3].to_bits(), 5e-5f64.to_bits());
        // Idempotent, and equal points give equal bit keys.
        assert_eq!(space.canonicalize(&canon).unwrap(), canon);
        assert_eq!(
            space.canonical_bits(&HpConfig::new(vec![0.0, 1e-3, 64.0, 5e-5])),
            space.canonical_bits(&HpConfig::new(vec![-0.0, 1e-3, 64.0 - 1e-13, 5e-5]))
        );
        // Non-finite, out-of-range, and wrong-arity configurations fail.
        assert!(space
            .canonicalize(&HpConfig::new(vec![f64::NAN, 1e-3, 64.0, 5e-5]))
            .is_err());
        assert!(space
            .canonicalize(&HpConfig::new(vec![2.0, 1e-3, 64.0, 5e-5]))
            .is_err());
        assert!(space
            .canonicalize(&HpConfig::new(vec![0.0, 1e-3, 48.0, 5e-5]))
            .is_err());
        assert!(space.canonicalize(&HpConfig::new(vec![0.0])).is_err());
        // Fingerprints: equal points agree, distinct points differ, and the
        // free function over the canonical bits is the same definition.
        let a = space
            .canonical_fingerprint(&HpConfig::new(vec![-0.0, 1e-3, 64.0 - 1e-13, 5e-5]))
            .unwrap();
        let b = space
            .canonical_fingerprint(&HpConfig::new(vec![0.0, 1e-3, 64.0, 5e-5]))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            fingerprint_bits(
                &space
                    .canonical_bits(&HpConfig::new(vec![0.0, 1e-3, 64.0, 5e-5]))
                    .unwrap()
            )
        );
        assert_ne!(
            a,
            space
                .canonical_fingerprint(&HpConfig::new(vec![0.5, 1e-3, 64.0, 5e-5]))
                .unwrap()
        );
        assert!(Dimension::Fixed { value: 1.0 }
            .canonical_value(0.9)
            .is_none());
        assert_eq!(
            Dimension::Uniform {
                low: -1.0,
                high: 1.0
            }
            .canonical_value(-0.0)
            .map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
    }

    #[test]
    fn paper_space_samples_canonicalize_to_themselves() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(4, 0);
        for _ in 0..100 {
            let config = space.sample(&mut rng).unwrap();
            let canon = space.canonicalize(&config).unwrap();
            let bits: Vec<u64> = config.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(space.canonical_bits(&config).unwrap(), bits);
            assert_eq!(canon, config);
        }
    }

    #[test]
    fn paper_space_matches_appendix_b() {
        let space = SearchSpace::paper_default();
        assert_eq!(space.len(), 9);
        for name in SearchSpace::PAPER_DIMENSIONS {
            assert!(space.index_of(name).is_some(), "missing dimension {name}");
        }
        let mut rng = rng_for(2, 0);
        for _ in 0..100 {
            let config = space.sample(&mut rng).unwrap();
            let server_lr = space.value(&config, "server_lr").unwrap();
            assert!((1e-6..=1e-1).contains(&server_lr));
            let beta1 = space.value(&config, "server_beta1").unwrap();
            assert!((0.0..=0.9).contains(&beta1));
            let beta2 = space.value(&config, "server_beta2").unwrap();
            assert!((0.0..=0.999).contains(&beta2));
            assert_eq!(space.value(&config, "server_lr_decay").unwrap(), 0.9999);
            let client_lr = space.value(&config, "client_lr").unwrap();
            assert!((1e-6..=1.0).contains(&client_lr));
            assert_eq!(space.value(&config, "client_weight_decay").unwrap(), 5e-5);
            let bs = space.value(&config, "client_batch_size").unwrap();
            assert!([32.0, 64.0, 128.0].contains(&bs));
            assert_eq!(space.value(&config, "client_epochs").unwrap(), 1.0);
        }
    }

    #[test]
    fn nested_lr_spaces_are_nested() {
        let widths: Vec<(f64, f64)> = (1..=4)
            .map(|w| {
                let space = SearchSpace::paper_nested_lr_space(w).unwrap();
                match &space.dimensions()[space.index_of("server_lr").unwrap()] {
                    Dimension::LogUniform { low, high } => (*low, *high),
                    _ => panic!("server_lr should be log-uniform"),
                }
            })
            .collect();
        for i in 1..widths.len() {
            assert!(widths[i].0 < widths[i - 1].0);
            assert!(widths[i].1 > widths[i - 1].1);
        }
        // Width 4 recovers the full paper range.
        assert!((widths[3].0 - 1e-5).abs() < 1e-12 || widths[3].0 < 1e-4);
        assert!(SearchSpace::paper_nested_lr_space(0).is_err());
        assert!(SearchSpace::paper_nested_lr_space(5).is_err());
    }

    #[test]
    fn sample_many_returns_distinct_configs() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(3, 0);
        let configs = space.sample_many(16, &mut rng).unwrap();
        assert_eq!(configs.len(), 16);
        let distinct: std::collections::HashSet<String> = configs
            .iter()
            .map(|c| format!("{:?}", c.values()))
            .collect();
        assert!(distinct.len() > 1);
        assert!(!configs[0].is_empty());
        assert_eq!(configs[0].len(), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_paper_space_samples_are_always_valid(seed in any::<u64>()) {
            let space = SearchSpace::paper_default();
            let mut rng = rng_for(seed, 0);
            let config = space.sample(&mut rng).unwrap();
            prop_assert!(space.validate_config(&config).is_ok());
        }

        #[test]
        fn prop_uniform_dimension_within_bounds(
            seed in any::<u64>(),
            low in -100.0f64..100.0,
            width in 0.0f64..50.0,
        ) {
            let dim = Dimension::Uniform { low, high: low + width };
            let mut rng = rng_for(seed, 1);
            let v = dim.sample(&mut rng);
            prop_assert!(v >= low && v <= low + width);
            prop_assert!(dim.contains(v));
        }
    }
}
