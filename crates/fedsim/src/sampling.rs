//! Client-selection strategies for training and evaluation rounds.
//!
//! The default protocol samples clients uniformly without replacement
//! (Algorithm 2). The systems-heterogeneity experiments of §3.2 instead bias
//! selection towards clients on which the current model performs well: each
//! client receives weight `(a + δ)^b` where `a` is its accuracy, `δ = 1e-4`
//! keeps probabilities positive, and `b` controls the strength of the bias
//! (`b = 0` recovers uniform sampling).

use crate::{Result, SimError};

/// A strategy for choosing which clients participate in a round.
pub trait ClientSampler: Send + Sync {
    /// Samples `count` distinct client indices from `0..population`.
    ///
    /// `scores` carries an optional per-client signal (the paper uses the
    /// current model's per-client accuracy); samplers that do not need it
    /// must ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sampling`] if the request cannot be satisfied
    /// (zero clients requested, or more than the population).
    fn sample(
        &self,
        rng: &mut dyn rand::RngCore,
        population: usize,
        count: usize,
        scores: Option<&[f64]>,
    ) -> Result<Vec<usize>>;

    /// Human-readable sampler name.
    fn name(&self) -> String;
}

/// Uniform sampling without replacement (the standard FL protocol).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

impl UniformSampler {
    /// Creates a uniform sampler.
    pub fn new() -> Self {
        UniformSampler
    }
}

impl ClientSampler for UniformSampler {
    fn sample(
        &self,
        rng: &mut dyn rand::RngCore,
        population: usize,
        count: usize,
        _scores: Option<&[f64]>,
    ) -> Result<Vec<usize>> {
        let mut rng = rng;
        fedmath::rng::sample_without_replacement(&mut rng, population, count).map_err(|e| {
            SimError::Sampling {
                message: e.to_string(),
            }
        })
    }

    fn name(&self) -> String {
        "uniform".into()
    }
}

/// The paper's additive constant `δ`, keeping every selection weight
/// positive.
const DELTA: f64 = 1e-4;

/// Accuracy-biased sampling `(a + δ)^b` modelling systems heterogeneity.
///
/// When no per-client scores are available (e.g. the very first evaluation of
/// a freshly initialised model) the sampler falls back to uniform sampling.
#[derive(Debug, Clone, Copy)]
pub struct BiasedSampler {
    /// Bias exponent `b`; 0 recovers uniform sampling.
    bias: f64,
}

impl BiasedSampler {
    /// Creates a biased sampler with exponent `b` and the paper's `δ = 1e-4`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `bias` is negative or not finite.
    pub fn new(bias: f64) -> Result<Self> {
        if bias < 0.0 || !bias.is_finite() {
            return Err(SimError::InvalidConfig {
                message: format!("bias exponent must be non-negative, got {bias}"),
            });
        }
        Ok(BiasedSampler { bias })
    }

    /// The bias exponent `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Converts per-client accuracies into (unnormalised) selection weights.
    fn weights(&self, accuracies: &[f64]) -> Vec<f64> {
        accuracies
            .iter()
            .map(|&a| (a.clamp(0.0, 1.0) + DELTA).powf(self.bias))
            .collect()
    }
}

impl ClientSampler for BiasedSampler {
    fn sample(
        &self,
        rng: &mut dyn rand::RngCore,
        population: usize,
        count: usize,
        scores: Option<&[f64]>,
    ) -> Result<Vec<usize>> {
        let Some(scores) = scores else {
            return UniformSampler.sample(rng, population, count, None);
        };
        if scores.len() != population {
            return Err(SimError::Sampling {
                message: format!(
                    "got {} scores for a population of {population}",
                    scores.len()
                ),
            });
        }
        if self.bias == 0.0 {
            return UniformSampler.sample(rng, population, count, None);
        }
        let weights = self.weights(scores);
        let mut rng = rng;
        fedmath::rng::weighted_sample_without_replacement(&mut rng, &weights, count).map_err(|e| {
            SimError::Sampling {
                message: e.to_string(),
            }
        })
    }

    fn name(&self) -> String {
        format!("biased(b={})", self.bias)
    }
}

/// Converts a subsampling *rate* in `(0, 1]` into a raw client count,
/// guaranteeing at least one client and at most the full population.
///
/// This mirrors the x-axes of Figures 3, 4, 6, and 9, which sweep the
/// fraction of evaluation clients from a single client up to 100%.
pub fn clients_for_rate(population: usize, rate: f64) -> Result<usize> {
    if population == 0 {
        return Err(SimError::Sampling {
            message: "population is empty".into(),
        });
    }
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(SimError::Sampling {
            message: format!("sampling rate must be in (0, 1], got {rate}"),
        });
    }
    let count = (population as f64 * rate).round() as usize;
    Ok(count.clamp(1, population))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmath::rng::rng_for;
    use std::collections::HashSet;

    #[test]
    fn uniform_sampler_basic() {
        let mut rng = rng_for(0, 0);
        let s = UniformSampler::new();
        let picked = s.sample(&mut rng, 50, 10, None).unwrap();
        assert_eq!(picked.len(), 10);
        let unique: HashSet<usize> = picked.iter().copied().collect();
        assert_eq!(unique.len(), 10);
        assert!(s.sample(&mut rng, 5, 10, None).is_err());
        assert_eq!(s.name(), "uniform");
    }

    #[test]
    fn biased_sampler_validation() {
        assert!(BiasedSampler::new(-1.0).is_err());
        assert!(BiasedSampler::new(f64::NAN).is_err());
        assert!(BiasedSampler::new(1.5).is_ok());
        assert_eq!(BiasedSampler::new(3.0).unwrap().bias(), 3.0);
    }

    #[test]
    fn biased_sampler_prefers_accurate_clients() {
        let mut rng = rng_for(1, 0);
        let sampler = BiasedSampler::new(3.0).unwrap();
        // Client 0 has accuracy 0.9, everyone else 0.1.
        let mut scores = vec![0.1; 20];
        scores[0] = 0.9;
        let mut hits = 0;
        let trials = 500;
        for _ in 0..trials {
            let picked = sampler.sample(&mut rng, 20, 1, Some(&scores)).unwrap();
            if picked[0] == 0 {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        // Weight ratio is (0.9/0.1)^3 = 729, so client 0 dominates.
        assert!(freq > 0.9, "high-accuracy client frequency was only {freq}");
    }

    #[test]
    fn zero_bias_is_uniform() {
        let mut rng = rng_for(1, 1);
        let sampler = BiasedSampler::new(0.0).unwrap();
        let mut scores = vec![0.0; 10];
        scores[0] = 1.0;
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            let picked = sampler.sample(&mut rng, 10, 1, Some(&scores)).unwrap();
            if picked[0] == 0 {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!(
            (freq - 0.1).abs() < 0.05,
            "expected uniform frequency, got {freq}"
        );
    }

    #[test]
    fn biased_sampler_without_scores_falls_back_to_uniform() {
        let mut rng = rng_for(1, 2);
        let sampler = BiasedSampler::new(2.0).unwrap();
        let picked = sampler.sample(&mut rng, 10, 3, None).unwrap();
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn biased_sampler_rejects_score_length_mismatch() {
        let mut rng = rng_for(1, 3);
        let sampler = BiasedSampler::new(2.0).unwrap();
        assert!(sampler.sample(&mut rng, 10, 3, Some(&[0.5; 4])).is_err());
    }

    #[test]
    fn weights_handle_out_of_range_accuracies() {
        let sampler = BiasedSampler::new(1.0).unwrap();
        let w = sampler.weights(&[-0.5, 0.5, 1.5]);
        assert!(w[0] > 0.0);
        assert!(w[2] <= (1.0 + DELTA).powf(1.0) + 1e-12);
        assert!(sampler.name().contains("biased"));
    }

    #[test]
    fn clients_for_rate_bounds() {
        assert_eq!(clients_for_rate(100, 1.0).unwrap(), 100);
        assert_eq!(clients_for_rate(100, 0.01).unwrap(), 1);
        assert_eq!(clients_for_rate(100, 0.005).unwrap(), 1);
        assert_eq!(clients_for_rate(360, 0.27).unwrap(), 97);
        assert!(clients_for_rate(0, 0.5).is_err());
        assert!(clients_for_rate(10, 0.0).is_err());
        assert!(clients_for_rate(10, 1.5).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_clients_for_rate_always_valid(
            population in 1usize..10_000,
            rate in 0.0001f64..1.0,
        ) {
            let c = clients_for_rate(population, rate).unwrap();
            prop_assert!(c >= 1);
            prop_assert!(c <= population);
        }

        #[test]
        fn prop_biased_sampling_returns_distinct_valid_indices(
            seed in any::<u64>(),
            bias in 0.0f64..4.0,
            population in 2usize..50,
        ) {
            let mut rng = rng_for(seed, 0);
            let sampler = BiasedSampler::new(bias).unwrap();
            let scores: Vec<f64> = (0..population).map(|i| i as f64 / population as f64).collect();
            let count = 1 + (seed as usize) % population;
            let picked = sampler.sample(&mut rng, population, count, Some(&scores)).unwrap();
            prop_assert_eq!(picked.len(), count);
            let unique: std::collections::HashSet<usize> = picked.iter().copied().collect();
            prop_assert_eq!(unique.len(), count);
            prop_assert!(picked.iter().all(|&i| i < population));
        }
    }
}
