//! The noisy-evaluation kernel: every evaluation-noise source studied in the
//! paper, applied to a federated evaluation.
//!
//! Differential privacy is part of it (§2.2, §3.3). Every evaluation is an
//! average accuracy over `|S|` sampled clients, so its sensitivity to one
//! client is `1/|S|`; a total budget `ε` split evenly over `M` evaluations
//! by basic composition gives each evaluation `ε/M`, hence
//! `Lap(M / (ε·|S|))` noise ([`evaluation_noise_scale`]).

use crate::{invalid, CoreError, Result};
use feddata::{FederatedDataset, Split};
use fedmodels::AnyModel;
use fedsim::evaluation::{evaluate_full, FederatedEvaluation, PoolFrame};
use fedsim::sampling::clients_for_rate;
use fedsim::{ClientFrame, CohortSampler, WeightingScheme};
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

/// What a noisy evaluation reads its sampled clients' errors from.
#[derive(Debug)]
pub enum Validation<'a> {
    /// A finished full evaluation: every scorable client's error is known.
    Full(&'a FederatedEvaluation),
    /// A model and its dataset's validation pool, scored on demand: a
    /// uniform draw of fewer than all clients scores its cohort alone. A
    /// draw that reads every client's accuracy (a biased one) or takes the
    /// whole pool runs the full pass and leaves it in `full`, whose
    /// weighted error is then the evaluation's true error, for free.
    Pool {
        /// The model being evaluated.
        model: &'a AnyModel,
        /// The dataset whose validation pool reports.
        dataset: &'a FederatedDataset,
        /// Receives the full pass, when the draw ran one.
        full: &'a mut Option<FederatedEvaluation>,
    },
}

impl<'a> From<&'a FederatedEvaluation> for Validation<'a> {
    fn from(evaluation: &'a FederatedEvaluation) -> Self {
        Validation::Full(evaluation)
    }
}

/// Applies every configured noise source to a federated evaluation and
/// returns the noisy error estimate the tuner observes.
///
/// The clients are the validation pool's scorable ones, by position (the
/// entries of a full evaluation); this function (1) subsamples them
/// uniformly or with accuracy bias, (2) aggregates the sampled errors with
/// the configured weighting, and (3) perturbs the corresponding accuracy
/// with Laplace noise of scale `M / (ε · |S|)` where
/// `M = total_evaluations` (§3.3). The returned value is an error rate and
/// may leave `[0, 1]` when DP noise is large — exactly like the paper's
/// perturbed accuracies. Both kinds of [`Validation`] give the same bits
/// and leave `rng` in the same state.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for invalid noise settings and
/// propagates sampling, evaluation and aggregation failures.
pub fn noisy_error<'a>(
    validation: impl Into<Validation<'a>>,
    noise: &NoiseConfig,
    total_evaluations: usize,
    rng: &mut StdRng,
) -> Result<f64> {
    noise.validate()?;
    let sampler = if noise.systems_bias > 0.0 {
        CohortSampler::Biased {
            bias: noise.systems_bias,
        }
    } else {
        CohortSampler::Uniform
    };

    // 1. Select which clients report their error: `reporting`'s clients at
    // the `drawn` positions, or all of them. Only a biased selection reads
    // the client accuracies, so only it (or the whole pool, which draws
    // nothing) needs every client scored; a uniform one scores its cohort
    // alone, which then reports in draw order.
    let cohort;
    let (reporting, drawn) = match validation.into() {
        Validation::Full(evaluation) => (evaluation, draw(evaluation, sampler, noise, rng)?),
        Validation::Pool {
            model,
            dataset,
            full,
        } => {
            let frame = PoolFrame::new(dataset, Split::Validation);
            let population = frame.num_clients() as usize;
            let sample_size = clients_for_rate(population, noise.subsample_rate)?;
            if sample_size == population || sampler != CohortSampler::Uniform {
                let evaluation = evaluate_full(model, dataset, Split::Validation, noise.weighting)?;
                let evaluation = &*full.insert(evaluation);
                (evaluation, draw(evaluation, sampler, noise, rng)?)
            } else {
                let drawn = sampler.sample(&frame, rng, sample_size, 0.0)?;
                cohort = frame.evaluate(model, &drawn, noise.weighting)?;
                (&cohort, None)
            }
        }
    };

    // 2. Aggregate the sampled per-client errors.
    let per_client = reporting.per_client();
    let sample_size = drawn.as_ref().map_or(per_client.len(), Vec::len);
    let mut errors = Vec::with_capacity(sample_size);
    let mut weights = Vec::with_capacity(sample_size);
    for i in 0..sample_size {
        let c = &per_client[drawn.as_ref().map_or(i, |ids| ids[i] as usize)];
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

/// The positions of a full evaluation's clients that report, in draw
/// order: a cohort drawn by `sampler` at the noise's rate, or `None` for
/// everyone, which draws nothing.
fn draw(
    evaluation: &FederatedEvaluation,
    sampler: CohortSampler,
    noise: &NoiseConfig,
    rng: &mut StdRng,
) -> Result<Option<Vec<u64>>> {
    let population = evaluation.num_clients();
    let sample_size = clients_for_rate(population, noise.subsample_rate)?;
    if sample_size == population {
        return Ok(None);
    }
    Ok(Some(sampler.sample(evaluation, rng, sample_size, 0.0)?))
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
        let spread = fedmath::stats::variance(&estimates).sqrt();
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
    fn a_cohort_only_score_is_the_full_evaluations_bit_for_bit() {
        use feddata::{Benchmark, DatasetSpec, Scale};
        use fedmodels::ModelSpec;

        let mut dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
            .generate(3)
            .unwrap();
        let model = ModelSpec::for_dataset(&dataset).build(&dataset, &mut rng_for(4, 0));
        for emptied in [false, true] {
            if emptied {
                // An empty client is no position of either index space.
                dataset.clients_mut(Split::Validation)[1]
                    .examples_mut()
                    .clear();
            }
            let weighting = WeightingScheme::ByExamples;
            let full = evaluate_full(&model, &dataset, Split::Validation, weighting).unwrap();
            let n = full.num_clients();
            assert_eq!(n, dataset.num_val_clients() - usize::from(emptied));
            for size in [1, 3, n - 1, n] {
                let rate = size as f64 / n as f64;
                let private =
                    NoiseConfig::subsampled(rate).with_privacy(PrivacyBudget::Finite(1.0));
                let biased = NoiseConfig::subsampled(rate).with_systems_bias(3.0);
                for noise in [NoiseConfig::subsampled(rate), private, biased] {
                    for seed in 0..10 {
                        let mut from_full = rng_for(seed, size as u64);
                        let mut on_demand = from_full.clone();
                        let expected = noisy_error(&full, &noise, 16, &mut from_full).unwrap();
                        let mut kept = None;
                        let pool = Validation::Pool {
                            model: &model,
                            dataset: &dataset,
                            full: &mut kept,
                        };
                        let score = noisy_error(pool, &noise, 16, &mut on_demand).unwrap();
                        let case = format!("{size} of {n}, {}, seed {seed}", noise.label());
                        assert_eq!(score.to_bits(), expected.to_bits(), "{case}");
                        assert_eq!(on_demand.gen::<u64>(), from_full.gen::<u64>(), "{case}");
                        // Only a draw that reads every client's accuracy, or
                        // takes them all, scores them all.
                        let reads_all = size == n || noise.systems_bias > 0.0;
                        assert_eq!(kept.is_some(), reads_all, "{case}");
                        if let Some(kept) = kept {
                            assert_eq!(kept.per_client(), full.per_client(), "{case}");
                        }
                    }
                }
            }
        }
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
