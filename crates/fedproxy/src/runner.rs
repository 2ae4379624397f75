//! Training one hyperparameter configuration end-to-end on a dataset.

use crate::mapping::hyperparams_from_config;
use crate::Result;
use feddata::{FederatedDataset, Split};
use fedhpo::{HpConfig, SearchSpace};
use fedmodels::{AnyModel, ModelSpec};
use fedsim::evaluation::{evaluate_full, FederatedEvaluation};
use fedsim::{FederatedTrainer, TrainerConfig, TrainingRun, WeightingScheme};

/// Trains individual hyperparameter configurations on a dataset and reports
/// their full-validation error — the basic unit of work behind every
/// experiment in the paper ("train a single model for a given FedAdam HP
/// configuration" in the artifact's `fedtrain_simple`). It is also the one
/// place a configuration becomes a started [`TrainingRun`]
/// ([`start`](Self::start)): `run` and the live tuning objectives of
/// `fedtune_core` all go through it. Rounds and the validation pass run
/// sequentially inside one configuration; callers parallelise *across*
/// configurations (`fedtune_core::TrialRunner`, the scheduler drivers).
#[derive(Debug, Clone)]
pub struct ConfigRunner {
    space: SearchSpace,
    model_spec: ModelSpec,
    clients_per_round: usize,
    weighting: WeightingScheme,
    rounds: usize,
}

/// The result of training one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigRunResult {
    /// The trained global model.
    pub model: AnyModel,
    /// Full-validation evaluation of the trained model.
    pub evaluation: FederatedEvaluation,
    /// Full-validation error rate (Eq. 2 over all validation clients).
    pub full_error: f64,
}

impl ConfigRunner {
    /// Creates a runner for the given dataset-independent settings.
    pub fn new(space: SearchSpace, model_spec: ModelSpec, rounds: usize) -> Self {
        ConfigRunner {
            space,
            model_spec,
            clients_per_round: 10,
            weighting: WeightingScheme::ByExamples,
            rounds,
        }
    }

    /// Overrides the number of clients sampled per training round
    /// (10 in the paper).
    pub fn with_clients_per_round(mut self, clients_per_round: usize) -> Self {
        self.clients_per_round = clients_per_round;
        self
    }

    /// Overrides the evaluation/aggregation weighting scheme.
    pub fn with_weighting(mut self, weighting: WeightingScheme) -> Self {
        self.weighting = weighting;
        self
    }

    /// The search space this runner interprets configurations against.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Training rounds given to every configuration.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Maps `config` onto federated hyperparameters and starts its training
    /// run on `dataset` at round zero, seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Propagates hyperparameter-mapping and trainer-configuration errors.
    pub fn start(
        &self,
        dataset: &FederatedDataset,
        config: &HpConfig,
        seed: u64,
    ) -> Result<TrainingRun> {
        let trainer = FederatedTrainer::new(TrainerConfig {
            clients_per_round: self.clients_per_round,
            hyperparams: hyperparams_from_config(&self.space, config)?,
            weighting: self.weighting,
        })?;
        Ok(trainer.start(dataset, self.model_spec, seed)?)
    }

    /// Trains `config` on `dataset` for the configured number of rounds and
    /// evaluates it on the full validation pool.
    ///
    /// # Errors
    ///
    /// Propagates hyperparameter-mapping, training, and evaluation errors.
    pub fn run(
        &self,
        dataset: &FederatedDataset,
        config: &HpConfig,
        seed: u64,
    ) -> Result<ConfigRunResult> {
        let mut run = self.start(dataset, config, seed)?;
        run.run_rounds(dataset, self.rounds)?;
        let evaluation = evaluate_full(run.model(), dataset, Split::Validation, self.weighting)?;
        let full_error = evaluation.weighted_error()?;
        Ok(ConfigRunResult {
            model: run.into_model(),
            evaluation,
            full_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::{Benchmark, DatasetSpec, Scale};
    use fedmath::rng::rng_for;

    #[test]
    fn runner_trains_and_evaluates_a_config() {
        let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
            .generate(0)
            .unwrap();
        let space = SearchSpace::paper_default();
        let runner = ConfigRunner::new(space.clone(), ModelSpec::Mlp { hidden_dim: 8 }, 5)
            .with_clients_per_round(5)
            .with_weighting(WeightingScheme::Uniform);
        assert_eq!(runner.rounds(), 5);
        assert_eq!(runner.space().len(), 9);
        let mut rng = rng_for(0, 0);
        let config = space.sample(&mut rng).unwrap();
        let result = runner.run(&dataset, &config, 1).unwrap();
        assert!((0.0..=1.0).contains(&result.full_error));
        assert_eq!(result.evaluation.num_clients(), dataset.num_val_clients());
        // The returned model matches the evaluation.
        let recheck = evaluate_full(
            &result.model,
            &dataset,
            Split::Validation,
            WeightingScheme::Uniform,
        )
        .unwrap()
        .weighted_error()
        .unwrap();
        assert!((recheck - result.full_error).abs() < 1e-12);
    }

    #[test]
    fn different_configs_give_different_errors() {
        // The HP response surface must not be flat, otherwise tuning would be
        // meaningless. Compare a sensible configuration against a terrible one.
        let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
            .generate(3)
            .unwrap();
        let space = SearchSpace::paper_default();
        let runner = ConfigRunner::new(space.clone(), ModelSpec::Mlp { hidden_dim: 16 }, 20);

        let good = HpConfig::new(vec![0.03, 0.9, 0.99, 0.9999, 0.05, 0.5, 5e-5, 32.0, 1.0]);
        let bad = HpConfig::new(vec![1e-6, 0.0, 0.0, 0.9999, 1e-6, 0.0, 5e-5, 128.0, 1.0]);
        let good_err = runner.run(&dataset, &good, 7).unwrap().full_error;
        let bad_err = runner.run(&dataset, &bad, 7).unwrap().full_error;
        assert!(
            good_err < bad_err - 0.05,
            "expected good config ({good_err}) to clearly beat bad config ({bad_err})"
        );
    }

    #[test]
    fn runner_is_deterministic_in_the_seed() {
        let dataset = DatasetSpec::benchmark(Benchmark::RedditLike, Scale::Smoke)
            .generate(1)
            .unwrap();
        let space = SearchSpace::paper_default();
        let runner = ConfigRunner::new(space.clone(), ModelSpec::for_dataset(&dataset), 3);
        let mut rng = rng_for(1, 0);
        let config = space.sample(&mut rng).unwrap();
        let a = runner.run(&dataset, &config, 9).unwrap();
        let b = runner.run(&dataset, &config, 9).unwrap();
        assert_eq!(a.full_error, b.full_error);
    }
}
