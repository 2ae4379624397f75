//! Random search with repeated (averaged) noisy evaluations.
//!
//! §5 of the paper notes that in centralized noisy HPO, "simple tricks such
//! as sampling more or resampling previously seen configurations (Hertel et
//! al., 2020) vary in effectiveness". This tuner implements that baseline in
//! the federated setting: each candidate configuration is evaluated
//! `repeats` times (each evaluation drawing an independent client subsample
//! and independent DP noise) and the tuner ranks configurations by the mean
//! of their noisy scores. Evaluations are free in the paper's budget model
//! (only training rounds count), so repetition trades privacy budget and
//! evaluation traffic — not training rounds — for variance reduction.

use crate::objective::Objective;
use crate::space::SearchSpace;
use crate::tuner::{EvaluationRecord, Tuner, TuningOutcome};
use crate::{HpoError, Result};
use rand::rngs::StdRng;

/// Random search where every configuration's score is the average of several
/// independent noisy evaluations at full fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedRandomSearch {
    num_configs: usize,
    rounds_per_config: usize,
    repeats: usize,
}

impl RepeatedRandomSearch {
    /// Creates the tuner. `repeats = 1` reduces to plain random search.
    pub fn new(num_configs: usize, rounds_per_config: usize, repeats: usize) -> Self {
        RepeatedRandomSearch {
            num_configs,
            rounds_per_config,
            repeats,
        }
    }

    /// Number of configurations searched.
    pub fn num_configs(&self) -> usize {
        self.num_configs
    }

    /// Number of independent evaluations averaged per configuration.
    pub fn repeats(&self) -> usize {
        self.repeats
    }

    fn validate(&self) -> Result<()> {
        if self.num_configs == 0 || self.rounds_per_config == 0 || self.repeats == 0 {
            return Err(HpoError::InvalidConfig {
                message: "repeated random search needs positive num_configs, rounds_per_config, and repeats"
                    .into(),
            });
        }
        Ok(())
    }
}

impl Tuner for RepeatedRandomSearch {
    fn tune(
        &self,
        space: &SearchSpace,
        objective: &mut dyn Objective,
        rng: &mut StdRng,
    ) -> Result<TuningOutcome> {
        self.validate()?;
        let mut outcome = TuningOutcome::default();
        let mut cumulative = 0usize;
        for trial_id in 0..self.num_configs {
            let config = space.sample(rng)?;
            let mut scores = Vec::with_capacity(self.repeats);
            for _ in 0..self.repeats {
                scores.push(objective.evaluate(trial_id, &config, self.rounds_per_config)?);
            }
            let mean_score = scores.iter().sum::<f64>() / scores.len() as f64;
            // Training rounds are only paid once per configuration; repeated
            // evaluations are evaluation-round traffic, which the paper's
            // budget model does not charge (§3.1).
            cumulative += self.rounds_per_config;
            outcome.push(EvaluationRecord {
                trial_id,
                config,
                resource: self.rounds_per_config,
                score: mean_score,
                cumulative_resource: cumulative,
                noise_rep: 0,
                sim_time: 0.0,
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use crate::random_search::RandomSearch;
    use crate::HpConfig;
    use fedmath::rng::rng_for;
    use rand::Rng;

    fn noisy_quadratic(noise_std: f64) -> FunctionObjective<impl FnMut(&HpConfig, usize) -> f64> {
        let mut rng = rng_for(99, 0);
        FunctionObjective::new(move |config: &HpConfig, _| {
            let x = config.values()[0];
            let noise: f64 = rng.gen_range(-1.0..1.0) * noise_std;
            (x - 0.25).powi(2) + noise
        })
    }

    #[test]
    fn validation_and_metadata() {
        let space = SearchSpace::new().with_uniform("x", -1.0, 1.0).unwrap();
        let mut obj = FunctionObjective::new(|_: &HpConfig, _| 0.0);
        let mut rng = rng_for(0, 0);
        assert!(RepeatedRandomSearch::new(0, 1, 1)
            .tune(&space, &mut obj, &mut rng)
            .is_err());
        assert!(RepeatedRandomSearch::new(1, 0, 1)
            .tune(&space, &mut obj, &mut rng)
            .is_err());
        assert!(RepeatedRandomSearch::new(1, 1, 0)
            .tune(&space, &mut obj, &mut rng)
            .is_err());
        let tuner = RepeatedRandomSearch::new(4, 2, 3);
        assert_eq!(tuner.num_configs(), 4);
        assert_eq!(tuner.repeats(), 3);
    }

    #[test]
    fn repeats_do_not_change_training_budget() {
        let space = SearchSpace::new().with_uniform("x", -1.0, 1.0).unwrap();
        let mut obj = FunctionObjective::new(|_: &HpConfig, _| 0.5);
        let mut rng = rng_for(1, 0);
        let outcome = RepeatedRandomSearch::new(5, 7, 4)
            .tune(&space, &mut obj, &mut rng)
            .unwrap();
        assert_eq!(outcome.num_evaluations(), 5);
        assert_eq!(outcome.total_resource(), 35);
        // The objective itself was still queried repeats times per config.
        assert_eq!(obj.calls(), 20);
    }

    #[test]
    fn averaging_reduces_the_effect_of_evaluation_noise() {
        // Under heavy evaluation noise, averaging several evaluations should
        // (usually) select a configuration closer to the optimum than plain
        // random search given the same candidate pool size.
        let space = SearchSpace::new().with_uniform("x", -1.0, 1.0).unwrap();
        let mut wins = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut rng = rng_for(10 + seed, 0);
            let mut obj = noisy_quadratic(0.5);
            let repeated = RepeatedRandomSearch::new(12, 1, 8)
                .tune(&space, &mut obj, &mut rng)
                .unwrap();
            let repeated_x = repeated.best().unwrap().config.values()[0];

            let mut rng = rng_for(10 + seed, 0);
            let mut obj = noisy_quadratic(0.5);
            let plain = RandomSearch::new(12, 1)
                .tune(&space, &mut obj, &mut rng)
                .unwrap();
            let plain_x = plain.best().unwrap().config.values()[0];

            if (repeated_x - 0.25).abs() <= (plain_x - 0.25).abs() {
                wins += 1;
            }
        }
        assert!(
            wins >= trials / 2,
            "averaged evaluations should win at least half the time, won {wins}/{trials}"
        );
    }
}
