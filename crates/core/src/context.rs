//! A benchmark dataset bundled with its search space and model architecture.

use crate::scale::ExperimentScale;
use crate::{CoreError, Result};
use feddata::{Benchmark, DatasetSpec, FederatedDataset};
use fedhpo::{HpConfig, SearchSpace};
use fedmodels::{LocalSgdConfig, ModelSpec};
use fedsim::{
    FedAdamConfig, FederatedHyperparams, FederatedTrainer, TrainerConfig, TrainingRun,
    WeightingScheme,
};

/// Everything an experiment needs to evaluate hyperparameters on one of the
/// paper's four benchmarks: the generated federated dataset, the Appendix B
/// search space, and the model architecture for the dataset's task family.
#[derive(Debug, Clone)]
pub struct BenchmarkContext {
    benchmark: Benchmark,
    dataset: FederatedDataset,
    space: SearchSpace,
    model_spec: ModelSpec,
    scale: ExperimentScale,
}

impl BenchmarkContext {
    /// Generates the dataset for `benchmark` at the scale's data size and
    /// bundles it with the paper's search space and the default model.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation failures and scale validation.
    pub fn new(benchmark: Benchmark, scale: &ExperimentScale, seed: u64) -> Result<Self> {
        scale.validate()?;
        let dataset = DatasetSpec::benchmark(benchmark, scale.data_scale).generate(seed)?;
        let model_spec = ModelSpec::for_dataset(&dataset);
        Ok(BenchmarkContext {
            benchmark,
            dataset,
            space: SearchSpace::paper_default(),
            model_spec,
            scale: *scale,
        })
    }

    /// Replaces the search space (used by the search-space ablation, Fig. 13).
    pub fn with_space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self
    }

    /// The benchmark identity.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The generated federated dataset.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The hyperparameter search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The model architecture used for this benchmark.
    pub fn model_spec(&self) -> ModelSpec {
        self.model_spec
    }

    /// The experiment scale this context was built for.
    pub fn scale(&self) -> &ExperimentScale {
        &self.scale
    }

    /// Maps `config` onto federated hyperparameters and starts its training
    /// run on this benchmark's dataset at round zero, seeded by `seed`, with
    /// the scale's clients per round — the one place a configuration becomes
    /// a [`TrainingRun`]. Rounds and the validation pass run on the calling
    /// thread; callers parallelise across configurations.
    ///
    /// # Errors
    ///
    /// Propagates hyperparameter-mapping and trainer-configuration errors.
    pub fn start_run(
        &self,
        config: &HpConfig,
        seed: u64,
        weighting: WeightingScheme,
    ) -> Result<TrainingRun> {
        let trainer = FederatedTrainer::new(TrainerConfig {
            clients_per_round: self.scale.clients_per_round,
            hyperparams: hyperparams_from_config(&self.space, config)?,
            weighting,
        })?;
        Ok(trainer.start(&self.dataset, self.model_spec, seed)?)
    }
}

/// Converts a configuration sampled from the paper's search space
/// ([`SearchSpace::paper_default`] or any space using the same dimension
/// names) into the [`FederatedHyperparams`] consumed by the simulator.
///
/// # Errors
///
/// Returns [`CoreError::Hpo`] if a required dimension is missing and
/// [`CoreError::InvalidConfig`] if the resulting hyperparameters fail
/// validation.
pub fn hyperparams_from_config(
    space: &SearchSpace,
    config: &HpConfig,
) -> Result<FederatedHyperparams> {
    let get = |name: &str| -> Result<f64> { Ok(space.value(config, name)?) };
    let hyperparams = FederatedHyperparams {
        server: FedAdamConfig {
            learning_rate: get("server_lr")?,
            beta1: get("server_beta1")?,
            beta2: get("server_beta2")?,
            lr_decay: get("server_lr_decay")?,
            epsilon: 1e-5,
        },
        client: LocalSgdConfig {
            learning_rate: get("client_lr")?,
            momentum: get("client_momentum")?,
            weight_decay: get("client_weight_decay")?,
            batch_size: get("client_batch_size")?.round().max(1.0) as usize,
            epochs: get("client_epochs")?.round().max(1.0) as usize,
        },
    };
    hyperparams
        .validate()
        .map_err(|e| CoreError::InvalidConfig {
            message: format!("sampled configuration is invalid: {e}"),
        })?;
    Ok(hyperparams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::Split;
    use fedmath::rng::rng_for;
    use fedsim::evaluation::evaluate_full;

    /// `config`'s full-validation error after `rounds` rounds from `seed`.
    fn trained_error(ctx: &BenchmarkContext, config: &HpConfig, rounds: usize, seed: u64) -> f64 {
        let mut run = ctx
            .start_run(config, seed, WeightingScheme::ByExamples)
            .unwrap();
        run.run_rounds(ctx.dataset(), rounds).unwrap();
        evaluate_full(
            run.model(),
            ctx.dataset(),
            Split::Validation,
            WeightingScheme::ByExamples,
        )
        .unwrap()
        .weighted_error()
        .unwrap()
    }

    #[test]
    fn a_sensible_configuration_beats_a_terrible_one() {
        // The HP response surface must not be flat, otherwise tuning would be
        // meaningless.
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 3).unwrap();
        let good = HpConfig::new(vec![0.03, 0.9, 0.99, 0.9999, 0.05, 0.5, 5e-5, 32.0, 1.0]);
        let bad = HpConfig::new(vec![1e-6, 0.0, 0.0, 0.9999, 1e-6, 0.0, 5e-5, 128.0, 1.0]);
        let good_err = trained_error(&ctx, &good, 20, 7);
        let bad_err = trained_error(&ctx, &bad, 20, 7);
        assert!(
            good_err < bad_err - 0.05,
            "expected good config ({good_err}) to clearly beat bad config ({bad_err})"
        );
    }

    #[test]
    fn a_started_run_is_deterministic_in_the_seed() {
        let ctx =
            BenchmarkContext::new(Benchmark::RedditLike, &ExperimentScale::smoke(), 1).unwrap();
        let config = ctx.space().sample(&mut rng_for(1, 0)).unwrap();
        let a = trained_error(&ctx, &config, 3, 9);
        assert_eq!(a.to_bits(), trained_error(&ctx, &config, 3, 9).to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn a_started_run_evaluates_every_validation_client() {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 0).unwrap();
        let config = ctx.space().sample(&mut rng_for(0, 0)).unwrap();
        let mut run = ctx.start_run(&config, 1, WeightingScheme::Uniform).unwrap();
        run.run_rounds(ctx.dataset(), 5).unwrap();
        assert_eq!(run.rounds_completed(), 5);
        let evaluation = evaluate_full(
            run.model(),
            ctx.dataset(),
            Split::Validation,
            WeightingScheme::Uniform,
        )
        .unwrap();
        assert_eq!(evaluation.num_clients(), ctx.dataset().num_val_clients());
        assert!((0.0..=1.0).contains(&evaluation.weighted_error().unwrap()));
    }

    #[test]
    fn every_sample_from_the_paper_space_maps_to_valid_hyperparams() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(0, 0);
        for _ in 0..200 {
            let config = space.sample(&mut rng).unwrap();
            let hp = hyperparams_from_config(&space, &config).unwrap();
            assert!(hp.server.learning_rate >= 1e-6 && hp.server.learning_rate <= 1e-1);
            assert!(hp.client.learning_rate >= 1e-6 && hp.client.learning_rate <= 1.0);
            assert!([32, 64, 128].contains(&hp.client.batch_size));
            assert_eq!(hp.client.epochs, 1);
            assert!((hp.server.lr_decay - 0.9999).abs() < 1e-12);
            assert!((hp.client.weight_decay - 5e-5).abs() < 1e-12);
        }
    }

    #[test]
    fn nested_lr_spaces_also_map() {
        let space = SearchSpace::paper_nested_lr_space(2).unwrap();
        let config = space.sample(&mut rng_for(1, 0)).unwrap();
        let hp = hyperparams_from_config(&space, &config).unwrap();
        assert!(hp.server.learning_rate >= 10f64.powf(-4.0) - 1e-12);
        assert!(hp.server.learning_rate <= 10f64.powf(-2.0) + 1e-12);
    }

    #[test]
    fn missing_dimension_is_an_error() {
        let space = SearchSpace::new()
            .with_uniform("server_lr", 0.001, 0.1)
            .unwrap();
        let config = space.sample(&mut rng_for(2, 0)).unwrap();
        assert!(hyperparams_from_config(&space, &config).is_err());
    }

    #[test]
    fn context_builds_for_every_benchmark() {
        let scale = ExperimentScale::smoke();
        for &b in &Benchmark::ALL {
            let ctx = BenchmarkContext::new(b, &scale, 0).unwrap();
            assert_eq!(ctx.benchmark(), b);
            assert_eq!(ctx.dataset().name(), b.name());
            assert_eq!(ctx.space().len(), 9);
            assert_eq!(ctx.scale(), &scale);
        }
    }

    #[test]
    fn model_spec_matches_task_family() {
        let scale = ExperimentScale::smoke();
        let image = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
        assert!(matches!(image.model_spec(), ModelSpec::Mlp { .. }));
        let text = BenchmarkContext::new(Benchmark::RedditLike, &scale, 0).unwrap();
        assert!(matches!(text.model_spec(), ModelSpec::Bigram { .. }));
    }

    #[test]
    fn with_space_replaces_search_space() {
        let scale = ExperimentScale::smoke();
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
        let nested = SearchSpace::paper_nested_lr_space(1).unwrap();
        let ctx = ctx.with_space(nested.clone());
        assert_eq!(ctx.space(), &nested);
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let mut scale = ExperimentScale::smoke();
        scale.num_configs = 0;
        assert!(BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).is_err());
    }
}
