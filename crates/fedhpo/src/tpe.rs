//! The Tree-structured Parzen Estimator (Bergstra et al. 2011).
//!
//! TPE models the conditional density of configurations given their score:
//! observations are split at a quantile `y*` of the scores into a "good" set
//! (used to estimate `l(θ)`) and a "bad" set (used to estimate `g(θ)`);
//! maximising expected improvement is equivalent to maximising `l(θ)/g(θ)`,
//! which TPE does by drawing candidates from `l` and ranking them by the
//! density ratio.
//!
//! As discussed in §5 of the paper, TPE's expected-improvement criterion
//! assumes noiseless evaluations — this implementation makes no attempt to
//! model evaluation noise, which is exactly the behaviour the paper studies.

use crate::scheduler::{score_rank, Scheduler, TrialRequest, TrialResult};
use crate::space::{Dimension, HpConfig, SearchSpace};
use crate::{HpoError, Result};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

/// Fraction of observations treated as "good" (the `γ` quantile).
const GAMMA: f64 = 0.25;
/// Candidates drawn from `l(θ)` per proposal.
const NUM_CANDIDATES: usize = 24;
/// Observations needed before the density model replaces uniform sampling.
const NUM_STARTUP: usize = 4;
/// Kernel bandwidth for continuous dimensions, as a fraction of the
/// dimension's range.
const BANDWIDTH: f64 = 0.2;

/// The TPE proposal engine, shared by [`Tpe`] and BOHB: proposes the next
/// configuration to evaluate given the observations `(config, score)`
/// collected so far (lower scores are better). Falls back to uniform random
/// sampling while fewer than `NUM_STARTUP` observations are available.
///
/// # Errors
///
/// Propagates space sampling errors.
pub(crate) fn propose(
    space: &SearchSpace,
    observations: &[(HpConfig, f64)],
    rng: &mut StdRng,
) -> Result<HpConfig> {
    if observations.len() < NUM_STARTUP {
        return space.sample(rng);
    }
    let (good, bad) = split(observations);
    let ratio = |candidate: &HpConfig| {
        log_density(space, &good, candidate) - log_density(space, &bad, candidate)
    };

    // Draw candidates from l(θ) and keep the first one maximising l/g.
    let mut best = sample_from_kde(space, &good, rng)?;
    let mut best_ratio = ratio(&best);
    for _ in 1..NUM_CANDIDATES {
        let candidate = sample_from_kde(space, &good, rng)?;
        let candidate_ratio = ratio(&candidate);
        if candidate_ratio > best_ratio {
            (best, best_ratio) = (candidate, candidate_ratio);
        }
    }
    Ok(best)
}

/// Splits at least two observations into the good set (the lowest `γ`
/// share by score, at least one) and the bad set (the rest, at least
/// one). Non-finite scores rank last; the stable sort keeps arrival order
/// among ties.
fn split(observations: &[(HpConfig, f64)]) -> (Vec<&HpConfig>, Vec<&HpConfig>) {
    let mut sorted: Vec<&(HpConfig, f64)> = observations.iter().collect();
    sorted.sort_by_key(|(_, score)| score_rank(*score));
    let n_good =
        ((observations.len() as f64 * GAMMA).ceil() as usize).clamp(1, observations.len() - 1);
    let good = sorted[..n_good].iter().map(|(c, _)| c).collect();
    let bad = sorted[n_good..].iter().map(|(c, _)| c).collect();
    (good, bad)
}

/// Samples one configuration from the kernel-density mixture centred on
/// the given observations.
fn sample_from_kde(
    space: &SearchSpace,
    observations: &[&HpConfig],
    rng: &mut StdRng,
) -> Result<HpConfig> {
    if observations.is_empty() {
        return space.sample(rng);
    }
    let center = observations[rng.gen_range(0..observations.len())];
    let mut values = Vec::with_capacity(space.len());
    for (i, dim) in space.dimensions().iter().enumerate() {
        let v = center.values()[i];
        let sampled = match dim {
            Dimension::Uniform { low, high } => {
                let sigma = (high - low) * BANDWIDTH;
                sample_truncated_normal(rng, v, sigma, *low, *high)
            }
            Dimension::LogUniform { low, high } => {
                let (ll, lh) = (low.log10(), high.log10());
                let sigma = (lh - ll) * BANDWIDTH;
                10f64.powf(sample_truncated_normal(rng, v.log10(), sigma, ll, lh))
            }
            Dimension::Categorical { choices } => {
                // Keep the centre's value with high probability, otherwise
                // explore a uniformly random choice.
                if rng.gen::<f64>() < 0.8 {
                    v
                } else {
                    choices[rng.gen_range(0..choices.len())]
                }
            }
            Dimension::Fixed { value } => *value,
        };
        values.push(sampled);
    }
    Ok(HpConfig::new(values))
}

/// Log of the mixture kernel density of `config` under the observations.
fn log_density(space: &SearchSpace, observations: &[&HpConfig], config: &HpConfig) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    // Mixture over observations; each component is a product of per-dim
    // kernels. Work with per-component log densities and log-sum-exp.
    let mut component_logs = Vec::with_capacity(observations.len());
    for obs in observations {
        let mut log_p = 0.0;
        for (i, dim) in space.dimensions().iter().enumerate() {
            let x = config.values()[i];
            let mu = obs.values()[i];
            log_p += match dim {
                Dimension::Uniform { low, high } => {
                    let sigma = ((high - low) * BANDWIDTH).max(1e-12);
                    log_normal_pdf(x, mu, sigma)
                }
                Dimension::LogUniform { low, high } => {
                    let (ll, lh) = (low.log10(), high.log10());
                    let sigma = ((lh - ll) * BANDWIDTH).max(1e-12);
                    log_normal_pdf(x.log10(), mu.log10(), sigma)
                }
                Dimension::Categorical { choices } => {
                    // Smoothed categorical kernel: probability mass 0.8 on
                    // the observed value, spread 0.2 over the rest.
                    let k = choices.len() as f64;
                    if (x - mu).abs() < 1e-12 {
                        (0.8 + 0.2 / k).ln()
                    } else {
                        (0.2 / k).max(1e-12).ln()
                    }
                }
                Dimension::Fixed { .. } => 0.0,
            };
        }
        component_logs.push(log_p);
    }
    fedmath::ops::log_sum_exp(&component_logs) - (observations.len() as f64).ln()
}
fn log_normal_pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    let z = (x - mu) / sigma;
    -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

fn sample_truncated_normal(rng: &mut StdRng, mu: f64, sigma: f64, low: f64, high: f64) -> f64 {
    if sigma <= 0.0 || low >= high {
        return mu.clamp(low, high);
    }
    // Rejection sampling with a clamp fallback after a bounded number of tries.
    for _ in 0..32 {
        let z: f64 = StandardNormal.sample(rng);
        let x = mu + sigma * z;
        if x >= low && x <= high {
            return x;
        }
    }
    mu.clamp(low, high)
}

/// The TPE tuner: sequentially proposes and evaluates `num_configs`
/// configurations, each trained for `rounds_per_config` rounds, using the
/// density-ratio acquisition to pick each new configuration.
///
/// The startup proposals are independent uniform samples, so they form one
/// parallel batch; once the density model takes over, every proposal depends
/// on all previous scores and the schedule degrades to batches of one —
/// exactly the sequential structure of the original method.
#[derive(Debug, Clone)]
pub struct Tpe {
    num_configs: usize,
    rounds_per_config: usize,
    observations: Vec<(HpConfig, f64)>,
    suggested: usize,
}

impl Tpe {
    /// A fresh TPE campaign.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] unless both counts are positive.
    pub fn new(num_configs: usize, rounds_per_config: usize) -> Result<Self> {
        if num_configs == 0 || rounds_per_config == 0 {
            return Err(HpoError::InvalidConfig {
                message: "tpe needs positive num_configs and rounds_per_config".into(),
            });
        }
        Ok(Tpe {
            num_configs,
            rounds_per_config,
            observations: Vec::new(),
            suggested: 0,
        })
    }
}

impl Scheduler for Tpe {
    fn name(&self) -> &'static str {
        "tpe"
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        if self.suggested >= self.num_configs {
            return Ok(Vec::new());
        }
        if self.observations.len() < self.suggested {
            return Err(HpoError::InvalidConfig {
                message: "tpe scheduler asked for a batch with results outstanding".into(),
            });
        }
        // The leading proposals fall back to uniform sampling and go out as
        // one batch.
        let batch_end = if self.suggested == 0 {
            NUM_STARTUP.min(self.num_configs)
        } else {
            self.suggested + 1
        };
        let batch: Result<Vec<TrialRequest>> = (self.suggested..batch_end)
            .map(|trial_id| {
                Ok(TrialRequest {
                    trial_id,
                    config: propose(space, &self.observations, rng)?,
                    resource: self.rounds_per_config,
                    noise_rep: 0,
                })
            })
            .collect();
        self.suggested = batch_end;
        batch
    }

    fn report(&mut self, result: &TrialResult) -> Result<()> {
        self.observations
            .push((result.config.clone(), result.score));
        Ok(())
    }

    fn is_finished(&self) -> bool {
        self.suggested >= self.num_configs && self.observations.len() >= self.num_configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_search::RandomSearch;
    use crate::scheduler::run_fresh;
    use fedmath::rng::rng_for;

    fn space_2d() -> SearchSpace {
        SearchSpace::new()
            .with_uniform("x", -5.0, 5.0)
            .unwrap()
            .with_uniform("y", -5.0, 5.0)
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Tpe::new(0, 1).is_err());
        assert!(Tpe::new(1, 0).is_err());
        assert_eq!(Tpe::new(16, 405).unwrap().name(), "tpe");
    }

    #[test]
    fn proposals_stay_within_the_space() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(1, 0);
        // Build synthetic observations from valid samples.
        let mut observations = Vec::new();
        for i in 0..12 {
            let c = space.sample(&mut rng).unwrap();
            observations.push((c, i as f64 / 12.0));
        }
        for _ in 0..30 {
            let proposal = propose(&space, &observations, &mut rng).unwrap();
            assert!(space.validate_config(&proposal).is_ok());
        }
    }

    #[test]
    fn the_split_ranks_non_finite_scores_last_and_keeps_ties_in_order() {
        // 0.0 / 0.0 at run time on x86-64: a NaN with the sign bit set,
        // which `total_cmp` alone ranks before every finite score.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let scores = [negative_nan, 0.4, f64::NEG_INFINITY, 0.2, 0.4, f64::NAN];
        let observations: Vec<(HpConfig, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| (HpConfig::new(vec![i as f64]), score))
            .collect();
        // γ = 0.25 of six: the best two are good, and the tie at 0.4 splits
        // in arrival order.
        let (good, bad) = split(&observations);
        let ids = |set: &[&HpConfig]| -> Vec<f64> { set.iter().map(|c| c.values()[0]).collect() };
        assert_eq!(ids(&good), vec![3.0, 1.0]);
        assert_eq!(ids(&bad), vec![4.0, 0.0, 2.0, 5.0]);
        // Proposing over such a history neither panics nor leaves the space.
        let space = SearchSpace::new().with_uniform("x", 0.0, 5.0).unwrap();
        let mut rng = rng_for(3, 0);
        let proposal = propose(&space, &observations, &mut rng).unwrap();
        assert!(space.validate_config(&proposal).is_ok());
    }

    #[test]
    fn startup_phase_is_random() {
        let space = space_2d();
        let mut rng = rng_for(1, 1);
        // With fewer than NUM_STARTUP observations, proposals are just
        // uniform samples and must still be valid.
        let proposal = propose(&space, &[], &mut rng).unwrap();
        assert!(space.validate_config(&proposal).is_ok());
    }

    #[test]
    fn tpe_beats_random_search_on_a_smooth_function() {
        // On a smooth noiseless quadratic with a small budget, TPE's model
        // should (on average) find a better optimum than random search.
        let space = space_2d();
        let f = |c: &HpConfig| {
            let x = c.values()[0];
            let y = c.values()[1];
            (x - 1.5).powi(2) + (y + 2.0).powi(2)
        };
        let mut tpe_wins = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = rng_for(10, seed);
            let tpe_best = run_fresh(Tpe::new(24, 1).unwrap(), &space, |c, _| f(c), &mut rng)
                .unwrap()
                .best()
                .unwrap()
                .score;

            let mut rng = rng_for(20, seed);
            let rs = RandomSearch::new(24, 1).unwrap();
            let rs_best = run_fresh(rs, &space, |c, _| f(c), &mut rng)
                .unwrap()
                .best()
                .unwrap()
                .score;
            if tpe_best <= rs_best {
                tpe_wins += 1;
            }
        }
        assert!(
            tpe_wins >= 6,
            "TPE should usually beat RS on a smooth function, won {tpe_wins}/{trials}"
        );
    }

    #[test]
    fn scheduler_batches_startup_then_goes_sequential() {
        let space = space_2d();
        let mut scheduler = Tpe::new(8, 2).unwrap();
        let mut rng = rng_for(5, 0);
        // NUM_STARTUP = 4: the first batch holds all uniform startup
        // proposals, every later batch exactly one model-guided proposal.
        let startup = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(startup.len(), 4);
        for request in &startup {
            scheduler.report(&TrialResult::of(request, 1.0)).unwrap();
        }
        let mut next_id = 4;
        while !scheduler.is_finished() {
            let batch = scheduler.suggest(&space, &mut rng).unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].trial_id, next_id);
            next_id += 1;
            scheduler.report(&TrialResult::of(&batch[0], 1.0)).unwrap();
        }
        assert_eq!(next_id, 8);
        assert!(scheduler.suggest(&space, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn budget_accounting() {
        let space = space_2d();
        let mut rng = rng_for(2, 0);
        let outcome = run_fresh(Tpe::new(6, 10).unwrap(), &space, |_, _| 0.5, &mut rng).unwrap();
        assert_eq!(outcome.num_evaluations(), 6);
        assert_eq!(outcome.total_resource(), 60);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = rng_for(3, 0);
        for _ in 0..200 {
            let x = sample_truncated_normal(&mut rng, 0.5, 10.0, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
        // Degenerate sigma falls back to the clamped mean.
        assert_eq!(sample_truncated_normal(&mut rng, 5.0, 0.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn log_density_prefers_nearby_points() {
        let space = space_2d();
        let obs_configs = [
            HpConfig::new(vec![0.0, 0.0]),
            HpConfig::new(vec![0.1, -0.1]),
        ];
        let obs: Vec<&HpConfig> = obs_configs.iter().collect();
        let near = log_density(&space, &obs, &HpConfig::new(vec![0.05, 0.0]));
        let far = log_density(&space, &obs, &HpConfig::new(vec![4.5, 4.5]));
        assert!(near > far);
    }
}
