//! The noisy-evaluation kernel: every evaluation-noise source studied in the
//! paper, applied to a federated evaluation.
//!
//! Differential privacy is part of it (§2.2, §3.3). Every evaluation is an
//! average accuracy over `|S|` sampled clients, so its sensitivity to one
//! client is `1/|S|`; a total budget `ε` split evenly over `M` evaluations
//! by basic composition gives each evaluation `ε/M`, hence
//! `Lap(M / (ε·|S|))` noise ([`evaluation_noise_scale`]). The identities of
//! the best configurations of an elimination round can instead be released
//! with the one-shot Laplace top-k mechanism of Qiao et al. 2021
//! ([`one_shot_top_k`], scale `2·T·k / (ε·|S|)`).

use crate::{invalid, CoreError, Result};
use fedsim::evaluation::FederatedEvaluation;
use fedsim::sampling::clients_for_rate;
use fedsim::{BiasedSampler, ClientSampler, WeightingScheme};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The privacy budget applied to federated evaluation.
///
/// `Finite(ε)` matches the paper's ε ∈ {0.1, 1, 10, 100}; `Infinite`
/// corresponds to `ε = inf`, i.e. non-private evaluation with no added noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PrivacyBudget {
    /// Pure ε-differential privacy with the given total budget.
    Finite(f64),
    /// No privacy (no noise added).
    #[default]
    Infinite,
}

impl PrivacyBudget {
    /// Returns the finite ε, or `None` for the non-private setting.
    pub fn epsilon(&self) -> Option<f64> {
        match self {
            PrivacyBudget::Finite(e) => Some(*e),
            PrivacyBudget::Infinite => None,
        }
    }

    /// Returns `true` for the non-private setting.
    pub fn is_infinite(&self) -> bool {
        matches!(self, PrivacyBudget::Infinite)
    }

    /// Validates the budget (a finite ε must be strictly positive).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive or non-finite
    /// finite ε.
    pub(crate) fn validate(&self) -> Result<()> {
        match self {
            PrivacyBudget::Finite(e) if *e <= 0.0 || !e.is_finite() => Err(invalid(format!(
                "epsilon must be positive and finite, got {e}"
            ))),
            _ => Ok(()),
        }
    }

    /// Human-readable label used in reports (`"0.1"`, `"inf"`, …).
    pub fn label(&self) -> String {
        match self {
            PrivacyBudget::Finite(e) => format!("{e}"),
            PrivacyBudget::Infinite => "inf".into(),
        }
    }
}

/// The evaluation-noise configuration of one experiment cell.
///
/// - `subsample_rate`: the fraction of validation clients whose error is
///   observed (§3.1). `1.0` is full evaluation.
/// - `systems_bias`: the exponent `b` of the accuracy-biased client sampling
///   `(a + δ)^b` modelling systems heterogeneity (§3.2). `0.0` is unbiased.
/// - `privacy`: the ε budget of the Laplace mechanism protecting each
///   evaluation (§3.3); [`PrivacyBudget::Infinite`] disables DP noise.
/// - `weighting`: how per-client errors are aggregated. Following the paper,
///   DP experiments must use uniform weighting so the query sensitivity does
///   not depend on client dataset sizes.
///
/// Data heterogeneity (the iid fraction `p`) is a property of the validation
/// *pool*, not of a single evaluation, and is therefore applied by
/// repartitioning the dataset (see
/// [`feddata::repartition_iid_fraction`]) rather than configured here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Fraction of validation clients sampled per evaluation, in `(0, 1]`.
    pub subsample_rate: f64,
    /// Systems-heterogeneity bias exponent `b` (0 = unbiased sampling).
    pub systems_bias: f64,
    /// Differential-privacy budget for the whole tuning run.
    pub privacy: PrivacyBudget,
    /// Aggregation weighting for per-client errors.
    pub weighting: WeightingScheme,
}

impl NoiseConfig {
    /// Noise-free evaluation: all clients, unbiased, non-private,
    /// example-weighted (the paper's default objective).
    pub fn noiseless() -> Self {
        NoiseConfig {
            subsample_rate: 1.0,
            systems_bias: 0.0,
            privacy: PrivacyBudget::Infinite,
            weighting: WeightingScheme::ByExamples,
        }
    }

    /// Pure client subsampling at the given rate, no other noise.
    pub fn subsampled(rate: f64) -> Self {
        NoiseConfig {
            subsample_rate: rate,
            ..NoiseConfig::noiseless()
        }
    }

    /// The paper's "noisy" headline setting (Fig. 1, 8, 15, 16):
    /// 1% of clients per evaluation and ε = 100 differential privacy
    /// (which forces uniform weighting).
    pub fn paper_noisy() -> Self {
        NoiseConfig {
            subsample_rate: 0.01,
            systems_bias: 0.0,
            privacy: PrivacyBudget::Finite(100.0),
            weighting: WeightingScheme::Uniform,
        }
    }

    /// Adds a differential-privacy budget (and switches to uniform weighting,
    /// as required for bounded sensitivity).
    pub fn with_privacy(mut self, privacy: PrivacyBudget) -> Self {
        self.privacy = privacy;
        if !privacy.is_infinite() {
            self.weighting = WeightingScheme::Uniform;
        }
        self
    }

    /// Adds systems-heterogeneity bias.
    pub fn with_systems_bias(mut self, bias: f64) -> Self {
        self.systems_bias = bias;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the subsample rate is outside
    /// `(0, 1]`, the bias is negative, a finite ε is not positive, or a
    /// finite ε is combined with example weighting.
    pub fn validate(&self) -> Result<()> {
        if !(self.subsample_rate > 0.0 && self.subsample_rate <= 1.0) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "subsample rate must be in (0, 1], got {}",
                    self.subsample_rate
                ),
            });
        }
        if self.systems_bias < 0.0 || !self.systems_bias.is_finite() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "systems bias must be non-negative, got {}",
                    self.systems_bias
                ),
            });
        }
        self.privacy.validate()?;
        if !self.privacy.is_infinite() && self.weighting == WeightingScheme::ByExamples {
            return Err(CoreError::InvalidConfig {
                message: "differential privacy requires uniform evaluation weighting".into(),
            });
        }
        Ok(())
    }

    /// Short label for reports (e.g. `"1% clients, eps=100"`).
    pub fn label(&self) -> String {
        let mut parts = vec![format!("{:.4}% clients", self.subsample_rate * 100.0)];
        if self.systems_bias > 0.0 {
            parts.push(format!("bias b={}", self.systems_bias));
        }
        if let Some(eps) = self.privacy.epsilon() {
            parts.push(format!("eps={eps}"));
        }
        parts.join(", ")
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig::noiseless()
    }
}

/// Applies every configured noise source to a *full* federated evaluation and
/// returns the noisy error estimate the tuner observes.
///
/// The full evaluation carries one entry per validation client; this function
/// (1) subsamples clients uniformly or with accuracy bias, (2) aggregates the
/// sampled errors with the configured weighting, and (3) perturbs the
/// corresponding accuracy with Laplace noise of scale
/// `M / (ε · |S|)` where `M = total_evaluations` (§3.3). The returned value
/// is an error rate and may leave `[0, 1]` when DP noise is large — exactly
/// like the paper's perturbed accuracies.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for invalid noise settings and
/// propagates sampling/aggregation failures.
pub fn noisy_error(
    full_evaluation: &FederatedEvaluation,
    noise: &NoiseConfig,
    total_evaluations: usize,
    rng: &mut StdRng,
) -> Result<f64> {
    noise.validate()?;
    let population = full_evaluation.num_clients();
    let sample_size = clients_for_rate(population, noise.subsample_rate)?;

    // 1. Select which clients report their error. Only a biased selection
    // reads the client accuracies; an unbiased one samples uniformly.
    let selected: Vec<usize> = if sample_size == population {
        (0..population).collect()
    } else {
        let accuracies = (noise.systems_bias > 0.0).then(|| full_evaluation.client_accuracies());
        BiasedSampler::new(noise.systems_bias)?.sample(
            rng,
            population,
            sample_size,
            accuracies.as_deref(),
        )?
    };

    // 2. Aggregate the sampled per-client errors.
    let per_client = full_evaluation.per_client();
    let mut errors = Vec::with_capacity(selected.len());
    let mut weights = Vec::with_capacity(selected.len());
    for &idx in &selected {
        let c = &per_client[idx];
        errors.push(c.error_rate);
        weights.push(noise.weighting.weight(c.num_examples));
    }
    let error = fedmath::stats::weighted_mean(&errors, &weights)?;

    // 3. Perturb the accuracy with Laplace noise calibrated to the sample size.
    // A non-private budget draws nothing from `rng`.
    let scale = evaluation_noise_scale(noise.privacy, total_evaluations, sample_size)?;
    let accuracy = 1.0 - error;
    let noisy_accuracy = if scale == 0.0 {
        accuracy
    } else {
        accuracy + sample_laplace(rng, scale)
    };
    Ok(1.0 - noisy_accuracy)
}

/// The paper's calibration of evaluation noise (§3.3): an evaluation averages
/// client accuracies in `[0, 1]` over `|S| = sample_size` clients, so its
/// sensitivity is `1/|S|`; splitting a total budget `ε` over
/// `total_evaluations = M` queries by basic composition gives per-query
/// budget `ε/M` and therefore noise scale `M / (ε·|S|)`.
///
/// Returns 0.0 (no noise) for [`PrivacyBudget::Infinite`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if `sample_size` or
/// `total_evaluations` is zero, if a finite ε is not positive, or if the
/// scale overflows.
pub fn evaluation_noise_scale(
    budget: PrivacyBudget,
    total_evaluations: usize,
    sample_size: usize,
) -> Result<f64> {
    budget.validate()?;
    if sample_size == 0 || total_evaluations == 0 {
        return Err(invalid(format!(
            "sample size ({sample_size}) and number of evaluations ({total_evaluations}) must be positive"
        )));
    }
    laplace_scale(budget, total_evaluations as f64, sample_size)
}

/// `numerator / (ε·|S|)`, or 0.0 for the non-private budget.
fn laplace_scale(budget: PrivacyBudget, numerator: f64, sample_size: usize) -> Result<f64> {
    let scale = match budget {
        PrivacyBudget::Infinite => 0.0,
        PrivacyBudget::Finite(eps) => numerator / (eps * sample_size as f64),
    };
    if scale.is_finite() {
        Ok(scale)
    } else {
        Err(invalid(format!(
            "laplace scale must be finite, got {scale}"
        )))
    }
}

/// Samples Laplace noise with the given scale parameter `b` (mean 0).
///
/// Uses inverse-transform sampling: `X = -b · sign(u) · ln(1 - 2|u|)` with
/// `u ~ Uniform(-1/2, 1/2)`.
pub fn sample_laplace(rng: &mut impl Rng, scale: f64) -> f64 {
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Noise scale of the one-shot top-k mechanism at one evaluation round:
/// `2·T·k / (ε·|S|)` where `T` is the total number of evaluation rounds, `k`
/// the number of identities released, and `|S|` the number of clients in the
/// evaluation sample. Returns 0.0 for the non-private budget.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if any count is zero, a finite ε is
/// not positive, or the scale overflows.
pub fn one_shot_noise_scale(
    budget: PrivacyBudget,
    total_rounds: usize,
    k: usize,
    sample_size: usize,
) -> Result<f64> {
    budget.validate()?;
    if total_rounds == 0 || k == 0 || sample_size == 0 {
        return Err(invalid(format!(
            "total_rounds ({total_rounds}), k ({k}), and sample_size ({sample_size}) must all be positive"
        )));
    }
    laplace_scale(budget, 2.0 * total_rounds as f64 * k as f64, sample_size)
}

/// Releases the indices of the `k` largest values of `scores` after adding
/// one Laplace perturbation of the given `scale` to every score.
///
/// With `scale = 0` this reduces to exact (non-private) top-k selection.
/// The returned indices are ordered from best to worst noisy score; equal
/// noisy scores keep index order (`+0.0` ranks above `-0.0`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if `scores` is empty or holds a
/// non-finite value, `k` is zero or exceeds `scores.len()`, or `scale` is
/// negative or not finite.
pub fn one_shot_top_k(
    scores: &[f64],
    k: usize,
    scale: f64,
    rng: &mut impl Rng,
) -> Result<Vec<usize>> {
    if k == 0 || k > scores.len() {
        return Err(invalid(format!("k = {k} must be in [1, {}]", scores.len())));
    }
    if let Some(s) = scores.iter().find(|s| !s.is_finite()) {
        return Err(invalid(format!("scores must be finite, got {s}")));
    }
    if scale < 0.0 || !scale.is_finite() {
        return Err(invalid(format!(
            "noise scale must be non-negative and finite, got {scale}"
        )));
    }
    let mut noisy: Vec<(f64, usize)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let perturbed = if scale == 0.0 {
                s
            } else {
                s + sample_laplace(rng, scale)
            };
            (perturbed, i)
        })
        .collect();
    noisy.sort_by(|a, b| b.0.total_cmp(&a.0));
    Ok(noisy.into_iter().take(k).map(|(_, i)| i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmath::rng::rng_for;
    use fedsim::evaluation::ClientEvaluation;

    fn evaluation(errors: &[f64], sizes: &[usize]) -> FederatedEvaluation {
        let per_client: Vec<ClientEvaluation> = errors
            .iter()
            .zip(sizes.iter())
            .enumerate()
            .map(|(i, (&e, &n))| ClientEvaluation {
                client_index: i,
                error_rate: e,
                num_examples: n,
            })
            .collect();
        FederatedEvaluation::new(per_client, WeightingScheme::ByExamples).unwrap()
    }

    #[test]
    fn config_presets_and_validation() {
        assert!(NoiseConfig::noiseless().validate().is_ok());
        assert!(NoiseConfig::paper_noisy().validate().is_ok());
        assert!(NoiseConfig::subsampled(0.01).validate().is_ok());
        assert!(NoiseConfig::subsampled(0.0).validate().is_err());
        assert!(NoiseConfig::subsampled(1.5).validate().is_err());
        let bad_bias = NoiseConfig::noiseless().with_systems_bias(-1.0);
        assert!(bad_bias.validate().is_err());
        // Finite privacy with example weighting is inconsistent.
        let inconsistent = NoiseConfig {
            privacy: PrivacyBudget::Finite(1.0),
            weighting: WeightingScheme::ByExamples,
            ..NoiseConfig::noiseless()
        };
        assert!(inconsistent.validate().is_err());
        // with_privacy fixes the weighting automatically.
        let fixed = NoiseConfig::noiseless().with_privacy(PrivacyBudget::Finite(1.0));
        assert!(fixed.validate().is_ok());
        assert_eq!(fixed.weighting, WeightingScheme::Uniform);
        assert!(NoiseConfig::default().validate().is_ok());
        assert!(NoiseConfig::paper_noisy().label().contains("eps=100"));
        assert!(NoiseConfig::noiseless()
            .with_systems_bias(3.0)
            .label()
            .contains("b=3"));
    }

    #[test]
    fn noiseless_full_evaluation_recovers_weighted_error() {
        let eval = evaluation(&[0.2, 0.4], &[10, 30]);
        let mut rng = rng_for(0, 0);
        let noisy = noisy_error(&eval, &NoiseConfig::noiseless(), 16, &mut rng).unwrap();
        assert!((noisy - 0.35).abs() < 1e-12);
    }

    #[test]
    fn uniform_weighting_changes_the_aggregate() {
        let eval = evaluation(&[0.2, 0.4], &[10, 30]);
        let mut rng = rng_for(0, 1);
        let noise = NoiseConfig {
            weighting: WeightingScheme::Uniform,
            ..NoiseConfig::noiseless()
        };
        let noisy = noisy_error(&eval, &noise, 16, &mut rng).unwrap();
        assert!((noisy - 0.3).abs() < 1e-12);
    }

    #[test]
    fn subsampling_introduces_variance() {
        let errors: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let sizes = vec![10usize; 100];
        let eval = evaluation(&errors, &sizes);
        let noise = NoiseConfig::subsampled(0.01);
        let mut estimates = Vec::new();
        for i in 0..200 {
            let mut rng = rng_for(7, i);
            estimates.push(noisy_error(&eval, &noise, 16, &mut rng).unwrap());
        }
        let spread = fedmath::stats::std_dev(&estimates);
        assert!(
            spread > 0.1,
            "single-client estimates should vary a lot, got {spread}"
        );
        let mean = fedmath::stats::mean(&estimates);
        assert!(
            (mean - 0.495).abs() < 0.08,
            "estimates should be unbiased, mean {mean}"
        );
    }

    #[test]
    fn systems_bias_underestimates_error() {
        // Biased sampling towards accurate clients makes the model look
        // better than it is (overly optimistic evaluation, §3.2).
        let errors: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let sizes = vec![10usize; 50];
        let eval = evaluation(&errors, &sizes);
        let unbiased = NoiseConfig::subsampled(0.1);
        let biased = NoiseConfig::subsampled(0.1).with_systems_bias(3.0);
        let mut unbiased_scores = Vec::new();
        let mut biased_scores = Vec::new();
        for i in 0..200 {
            let mut rng = rng_for(8, i);
            unbiased_scores.push(noisy_error(&eval, &unbiased, 16, &mut rng).unwrap());
            let mut rng = rng_for(9, i);
            biased_scores.push(noisy_error(&eval, &biased, 16, &mut rng).unwrap());
        }
        let mean_unbiased = fedmath::stats::mean(&unbiased_scores);
        let mean_biased = fedmath::stats::mean(&biased_scores);
        assert!(
            mean_biased < mean_unbiased - 0.1,
            "biased sampling should be optimistic: unbiased {mean_unbiased}, biased {mean_biased}"
        );
    }

    #[test]
    fn privacy_noise_scales_with_sample_size() {
        let errors = vec![0.5; 100];
        let sizes = vec![1usize; 100];
        let eval = evaluation(&errors, &sizes);
        // With all clients error is exactly 0.5; any deviation is DP noise.
        let spread_for = |rate: f64| {
            let noise = NoiseConfig::subsampled(rate).with_privacy(PrivacyBudget::Finite(1.0));
            let mut deviations = Vec::new();
            for i in 0..300 {
                let mut rng = rng_for(10, i);
                let e = noisy_error(&eval, &noise, 16, &mut rng).unwrap();
                deviations.push((e - 0.5).abs());
            }
            fedmath::stats::mean(&deviations)
        };
        let few_clients = spread_for(0.01);
        let many_clients = spread_for(1.0);
        assert!(
            few_clients > 10.0 * many_clients,
            "DP noise with 1 client ({few_clients}) should dwarf noise with 100 clients ({many_clients})"
        );
    }

    #[test]
    fn budget_accessors_and_validation() {
        assert_eq!(PrivacyBudget::Finite(1.0).epsilon(), Some(1.0));
        assert_eq!(PrivacyBudget::Infinite.epsilon(), None);
        assert!(PrivacyBudget::Infinite.is_infinite());
        assert!(!PrivacyBudget::Finite(1.0).is_infinite());
        assert_eq!(PrivacyBudget::Finite(0.1).label(), "0.1");
        assert_eq!(PrivacyBudget::Infinite.label(), "inf");
        assert_eq!(PrivacyBudget::default(), PrivacyBudget::Infinite);
        assert!(PrivacyBudget::Finite(1.0).validate().is_ok());
        assert!(PrivacyBudget::Infinite.validate().is_ok());
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = PrivacyBudget::Finite(bad).validate().unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn laplace_noise_has_expected_spread() {
        let mut rng = rng_for(0, 1);
        let scale = 2.0;
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_laplace(&mut rng, scale))
            .collect();
        // Laplace(b) has mean 0, variance 2b² = 8 and mean absolute deviation b.
        let mean = fedmath::stats::mean(&samples);
        let var = fedmath::stats::variance(&samples);
        let mad = fedmath::stats::mean(&samples.iter().map(|s| s.abs()).collect::<Vec<_>>());
        assert!(mean.abs() < 0.1, "empirical mean {mean} too far from 0");
        assert!(
            (var - 8.0).abs() < 1.0,
            "empirical variance {var} too far from 8"
        );
        assert!(
            (mad - scale).abs() < 0.15,
            "empirical MAD {mad} too far from {scale}"
        );
    }

    #[test]
    fn evaluation_noise_scale_matches_paper_formula() {
        // Lap(M / (ε |S|)): M = 16 evaluations, ε = 100, |S| = 1 client.
        let scale = evaluation_noise_scale(PrivacyBudget::Finite(100.0), 16, 1).unwrap();
        assert!((scale - 0.16).abs() < 1e-12);
        // More clients -> less noise; a stricter ε -> more noise.
        let scale_100 = evaluation_noise_scale(PrivacyBudget::Finite(100.0), 16, 100).unwrap();
        assert!((scale_100 - 0.0016).abs() < 1e-12);
        let strict = evaluation_noise_scale(PrivacyBudget::Finite(0.1), 16, 100).unwrap();
        assert!(strict > scale_100 * 100.0);
        assert_eq!(
            evaluation_noise_scale(PrivacyBudget::Infinite, 16, 1).unwrap(),
            0.0
        );
    }

    #[test]
    fn evaluation_noise_scale_validation() {
        assert!(evaluation_noise_scale(PrivacyBudget::Finite(1.0), 0, 10).is_err());
        assert!(evaluation_noise_scale(PrivacyBudget::Finite(1.0), 10, 0).is_err());
        assert!(evaluation_noise_scale(PrivacyBudget::Finite(-1.0), 10, 10).is_err());
        // A positive ε so small the scale overflows is refused, not sampled.
        let tiny = PrivacyBudget::Finite(f64::MIN_POSITIVE);
        assert!(evaluation_noise_scale(tiny, 16, 1).is_err());
        let eval = evaluation(&[0.5], &[1]);
        let noise = NoiseConfig::noiseless().with_privacy(tiny);
        assert!(noisy_error(&eval, &noise, 16, &mut rng_for(0, 0)).is_err());
    }

    #[test]
    fn non_private_evaluation_draws_nothing_from_the_rng() {
        let eval = evaluation(&[0.2, 0.4], &[10, 30]);
        let mut used = rng_for(0, 5);
        noisy_error(&eval, &NoiseConfig::noiseless(), 16, &mut used).unwrap();
        let mut fresh = rng_for(0, 5);
        assert_eq!(used.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn one_shot_noise_scale_formula_and_validation() {
        // 2 * T * k / (eps * |S|) with T = 5, k = 3, eps = 10, |S| = 6.
        let scale = one_shot_noise_scale(PrivacyBudget::Finite(10.0), 5, 3, 6).unwrap();
        assert!((scale - 0.5).abs() < 1e-12);
        assert_eq!(
            one_shot_noise_scale(PrivacyBudget::Infinite, 5, 3, 6).unwrap(),
            0.0
        );
        assert!(one_shot_noise_scale(PrivacyBudget::Finite(1.0), 0, 1, 1).is_err());
        assert!(one_shot_noise_scale(PrivacyBudget::Finite(1.0), 1, 0, 1).is_err());
        assert!(one_shot_noise_scale(PrivacyBudget::Finite(1.0), 1, 1, 0).is_err());
        assert!(one_shot_noise_scale(PrivacyBudget::Finite(0.0), 1, 1, 1).is_err());
    }

    #[test]
    fn zero_scale_top_k_is_exact_selection() {
        let mut rng = rng_for(0, 0);
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(
            one_shot_top_k(&scores, 2, 0.0, &mut rng).unwrap(),
            vec![1, 3]
        );
        assert_eq!(one_shot_top_k(&scores, 1, 0.0, &mut rng).unwrap(), vec![1]);
        assert_eq!(
            one_shot_top_k(&scores, 4, 0.0, &mut rng).unwrap(),
            vec![1, 3, 2, 0]
        );
        // Ties keep index order.
        assert_eq!(
            one_shot_top_k(&[0.5, 0.7, 0.5], 3, 0.0, &mut rng).unwrap(),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn top_k_validation() {
        let mut rng = rng_for(0, 1);
        assert!(one_shot_top_k(&[], 1, 0.0, &mut rng).is_err());
        assert!(one_shot_top_k(&[1.0], 0, 0.0, &mut rng).is_err());
        assert!(one_shot_top_k(&[1.0], 2, 0.0, &mut rng).is_err());
        assert!(one_shot_top_k(&[1.0, 2.0], 1, -1.0, &mut rng).is_err());
        assert!(one_shot_top_k(&[1.0, 2.0], 1, f64::NAN, &mut rng).is_err());
        // A NaN score is refused rather than panicking the sort.
        let nan = f64::from_bits(0xfff8_0000_0000_0000);
        for bad in [nan, f64::NAN, f64::INFINITY] {
            let err = one_shot_top_k(&[0.1, bad, 0.3], 1, 1.0, &mut rng).unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }));
        }
    }

    #[test]
    fn top_k_noise_preserves_a_clear_winner_and_drowns_a_close_one() {
        let hit_rate = |scores: &[f64], winner: usize, scale: f64, stream: u64| {
            let mut rng = rng_for(0, stream);
            let trials = 1000;
            let hits = (0..trials)
                .filter(|_| one_shot_top_k(scores, 1, scale, &mut rng).unwrap()[0] == winner)
                .count();
            hits as f64 / trials as f64
        };
        // Clear winner with a wide margin vs. noise scale 0.01.
        let clear = hit_rate(&[0.1, 0.2, 0.15, 0.12, 0.95], 4, 0.01, 3);
        assert!(
            clear > 0.95,
            "winner selected only {clear} of the time under tiny noise"
        );
        // Differences of ~0.1 drowned by noise of scale 100: chance level, 1/5.
        let drowned = hit_rate(&[0.5, 0.6, 0.55, 0.58, 0.61], 4, 100.0, 4);
        assert!(
            (drowned - 0.2).abs() < 0.08,
            "expected ~chance selection, got {drowned}"
        );
    }

    #[test]
    fn noisy_error_can_leave_unit_interval_under_heavy_dp() {
        let eval = evaluation(&[0.5, 0.5], &[1, 1]);
        let noise = NoiseConfig::subsampled(0.5).with_privacy(PrivacyBudget::Finite(0.1));
        let mut seen_outside = false;
        for i in 0..100 {
            let mut rng = rng_for(11, i);
            let e = noisy_error(&eval, &noise, 16, &mut rng).unwrap();
            if !(0.0..=1.0).contains(&e) {
                seen_outside = true;
            }
        }
        assert!(
            seen_outside,
            "heavy DP noise should push some estimates outside [0, 1]"
        );
    }
}
