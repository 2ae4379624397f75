//! The pre-trained configuration pool behind the paper's RS-only analyses.
//!
//! §3 ("Evaluation"): *"we train random 128 HP configs and then bootstrap 100
//! trials i.e. run RS on K = 16 HP configs that are resampled from the set of
//! 128"*. Training the pool **once per benchmark** and replaying noisy
//! selection many times is what makes the subsampling / heterogeneity /
//! privacy / proxy analyses tractable: [`TrainedBenchmark::train`] is the one
//! place an experiment trains a pool, and every RS figure of
//! [`crate::experiments`] is an analysis over the result.
//!
//! A pool is trained as a live campaign is: [`ConfigPool::train`] fans out
//! through [`drive`] on [`BatchFederatedObjective`], not through
//! [`TrialRunner::run_trials`], which only re-evaluation uses.

use crate::concurrent::ConcurrentSink;
use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::SeedChannel;
use crate::noise::NoiseConfig;
use crate::objective::BatchFederatedObjective;
use crate::scale::ExperimentScale;
use crate::scheduler::{drive, Clock, Drive};
use crate::{CoreError, Result};
use feddata::{Benchmark, ClientData, Split};
use fedhpo::{HpConfig, RandomSearch};
use fedmath::SeedStream;
use fedmodels::AnyModel;
use fedsim::evaluation::{evaluate_clients, FederatedEvaluation};
use fedsim::WeightingScheme;
use rand::rngs::StdRng;

/// One pre-trained configuration: the sampled hyperparameters, the trained
/// model, and its full-validation evaluation on the context's validation pool.
#[derive(Debug, Clone)]
pub struct PooledConfig {
    /// Index of the configuration within the pool.
    pub index: usize,
    /// The hyperparameter configuration.
    pub config: HpConfig,
    /// The model trained with this configuration.
    pub model: AnyModel,
    /// Per-client evaluation on the full validation pool.
    pub evaluation: FederatedEvaluation,
    /// Example-weighted full-validation error (Eq. 2 over all clients).
    pub full_error: f64,
}

/// A pool of configurations trained once and reused across noise settings.
#[derive(Debug, Clone)]
pub struct ConfigPool {
    entries: Vec<PooledConfig>,
}

impl ConfigPool {
    /// Samples `pool_size` configurations from the context's search space and
    /// trains each for the scale's per-configuration round budget: one
    /// [`RandomSearch`] campaign of `pool_size` trials at
    /// `rounds_per_config`, driven by [`drive`] under [`Clock::Barrier`] on
    /// `runner.policy().pool_threads()` threads against a noiseless
    /// [`BatchFederatedObjective`]. The campaign samples from the first rng
    /// of `SeedStream::new(seed)` and the objective is seeded by the stream's
    /// next seed. Each entry is the trial state the campaign parked: the
    /// model a live campaign on that objective seed trains for the same
    /// configuration. Every runner produces bit-identical pools.
    ///
    /// # Errors
    ///
    /// Propagates sampling, training, and evaluation failures, and fails on
    /// a zero `pool_size` or round budget.
    pub fn train(
        runner: &TrialRunner,
        ctx: &BenchmarkContext,
        pool_size: usize,
        seed: u64,
    ) -> Result<Self> {
        let mut seeds = SeedStream::new(seed);
        let mut rng = seeds.next_rng();
        let mut campaign = RandomSearch::new(pool_size, ctx.scale().rounds_per_config)?;
        let mut objective = BatchFederatedObjective::new(
            ctx,
            NoiseConfig::noiseless(),
            pool_size,
            seeds.next_seed(),
        )?;
        let config = Drive {
            threads: runner.policy().pool_threads(),
            ..Drive::new(Clock::Barrier)
        };
        let run = drive(
            &mut campaign,
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )?;
        let entries = run
            .outcome
            .records()
            .iter()
            .map(|record| {
                let (model, evaluation) = objective
                    .sink
                    .take_state(record.trial_id)
                    .into_trained()
                    .ok_or_else(|| CoreError::InvalidConfig {
                        message: format!("pool trial {} was never evaluated", record.trial_id),
                    })?;
                Ok(PooledConfig {
                    index: record.trial_id,
                    config: record.config.clone(),
                    model,
                    full_error: evaluation.weighted_error()?,
                    evaluation,
                })
            })
            .collect::<Result<_>>()?;
        Ok(ConfigPool { entries })
    }

    /// The pooled configurations, in sample order.
    pub fn entries(&self) -> &[PooledConfig] {
        &self.entries
    }

    /// Number of configurations in the pool.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of validation clients every pooled evaluation covers.
    pub fn num_val_clients(&self) -> usize {
        self.entries
            .first()
            .map_or(0, |e| e.evaluation.num_clients())
    }

    /// The full-validation errors of every configuration, in pool order —
    /// the "true scores" used when reporting what a tuner actually selected.
    pub fn true_errors(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.full_error).collect()
    }

    /// The best (lowest) full-validation error in the pool — the "Best HPs"
    /// horizontal reference line of Fig. 3.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool is empty.
    pub fn best_full_error(&self) -> Result<f64> {
        fedmath::stats::min(&self.true_errors()).map_err(CoreError::from)
    }

    /// Re-evaluates every pooled model on a replacement validation pool
    /// (used by the data-heterogeneity experiments, which repartition the
    /// evaluation clients while keeping the trained models fixed) and returns
    /// a new pool whose evaluations and full errors refer to that pool.
    /// Evaluation consumes no randomness, so every runner produces identical
    /// pools.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn reevaluate_on(
        &self,
        runner: &TrialRunner,
        val_clients: &[ClientData],
    ) -> Result<ConfigPool> {
        let indices: Vec<usize> = (0..val_clients.len()).collect();
        let entries = runner.run_trials(0, self.entries.len(), |trial| {
            let entry = &self.entries[trial.index()];
            let evaluation = evaluate_clients(
                &entry.model,
                val_clients,
                &indices,
                WeightingScheme::ByExamples,
            )?;
            let full_error = evaluation.weighted_error()?;
            Ok(PooledConfig {
                index: entry.index,
                config: entry.config.clone(),
                model: entry.model.clone(),
                evaluation,
                full_error,
            })
        })?;
        Ok(ConfigPool { entries })
    }
}

/// A benchmark with its configuration pool trained: what every RS figure of
/// the paper is an analysis over. All benchmarks trained at one
/// `(scale, seed)` hold the *same* configurations in the same order (the
/// sampling stream is keyed by the seed alone and the search space is
/// shared), which is what lets two of them be compared configuration by
/// configuration ([`proxy_scores`](Self::proxy_scores)).
#[derive(Debug, Clone)]
pub struct TrainedBenchmark {
    ctx: BenchmarkContext,
    pool: ConfigPool,
    seed: u64,
}

impl TrainedBenchmark {
    /// Generates `benchmark` at `scale` and trains its `scale.pool_size`
    /// configurations on `runner`, both from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation and pool-training failures.
    pub fn train(
        runner: &TrialRunner,
        benchmark: Benchmark,
        scale: &ExperimentScale,
        seed: u64,
    ) -> Result<Self> {
        let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
        let pool = ConfigPool::train(runner, &ctx, scale.pool_size, SeedChannel::Pool.seed(seed))?;
        Ok(TrainedBenchmark { ctx, pool, seed })
    }

    /// [`train`](Self::train) for each of [`Benchmark::ALL`], in that order.
    ///
    /// # Errors
    ///
    /// Propagates the first training failure.
    pub fn train_all(
        runner: &TrialRunner,
        scale: &ExperimentScale,
        seed: u64,
    ) -> Result<Vec<Self>> {
        Benchmark::ALL
            .iter()
            .map(|&benchmark| Self::train(runner, benchmark, scale, seed))
            .collect()
    }

    /// The member of `set` trained on `benchmark`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `set` has none.
    pub fn find(set: &[Self], benchmark: Benchmark) -> Result<&Self> {
        set.iter()
            .find(|trained| trained.ctx.benchmark() == benchmark)
            .ok_or_else(|| CoreError::InvalidConfig {
                message: format!("no trained pool for {benchmark}"),
            })
    }

    /// The benchmark's dataset, search space and model.
    pub fn ctx(&self) -> &BenchmarkContext {
        &self.ctx
    }

    /// The trained pool.
    pub fn pool(&self) -> &ConfigPool {
        &self.pool
    }

    /// The scale the benchmark was generated and trained at.
    pub fn scale(&self) -> &ExperimentScale {
        self.ctx.scale()
    }

    /// The benchmark's display name.
    pub fn name(&self) -> &'static str {
        self.ctx.benchmark().name()
    }

    /// The seed a figure over this pool draws from on its `channel`.
    pub fn seed(&self, channel: SeedChannel) -> u64 {
        channel.seed(self.seed)
    }

    /// The full-validation errors of `proxy`'s pool, as one score per
    /// configuration of *this* pool — what one-shot proxy RS selects by and
    /// the x-axis of the transfer scatters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless both pools hold the same
    /// configurations in the same order (trained at one `(scale, seed)`).
    pub fn proxy_scores(&self, proxy: &TrainedBenchmark) -> Result<Vec<f64>> {
        let (mine, theirs) = (self.pool.entries.iter(), proxy.pool.entries.iter());
        if !mine.map(|e| &e.config).eq(theirs.map(|e| &e.config)) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "the pools of {} and {} hold different configurations",
                    proxy.name(),
                    self.name()
                ),
            });
        }
        Ok(proxy.pool.true_errors())
    }
}

/// Helper shared by the experiment runners: the validation pool of a context,
/// optionally repartitioned towards iid-ness by fraction `p`.
///
/// # Errors
///
/// Propagates repartitioning failures.
pub fn validation_pool_with_iid_fraction(
    ctx: &BenchmarkContext,
    p: f64,
    rng: &mut StdRng,
) -> Result<Vec<ClientData>> {
    let original = ctx.dataset().clients(Split::Validation);
    if p == 0.0 {
        return Ok(original.to_vec());
    }
    feddata::repartition_iid_fraction(rng, original, p).map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmath::rng::rng_for;

    fn smoke_context() -> BenchmarkContext {
        BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 0).unwrap()
    }

    fn train(ctx: &BenchmarkContext, pool_size: usize, seed: u64) -> Result<ConfigPool> {
        ConfigPool::train(&TrialRunner::from_env(), ctx, pool_size, seed)
    }

    #[test]
    fn pool_trains_and_exposes_scores() {
        let ctx = smoke_context();
        let pool = train(&ctx, ctx.scale().pool_size, 1).unwrap();
        assert_eq!(pool.len(), ctx.scale().pool_size);
        assert!(!pool.is_empty());
        assert_eq!(pool.true_errors().len(), pool.len());
        assert!(pool.true_errors().iter().all(|&e| (0.0..=1.0).contains(&e)));
        let best = pool.best_full_error().unwrap();
        assert!(pool.true_errors().iter().all(|&e| e >= best));
        for (i, entry) in pool.entries().iter().enumerate() {
            assert_eq!(entry.index, i);
            assert_eq!(
                entry.evaluation.num_clients(),
                ctx.dataset().num_val_clients()
            );
        }
    }

    #[test]
    fn benchmarks_trained_together_hold_the_same_configurations() {
        let runner = TrialRunner::from_env();
        let scale = ExperimentScale::smoke();
        let set = TrainedBenchmark::train_all(&runner, &scale, 3).unwrap();
        assert_eq!(set.len(), Benchmark::ALL.len());
        let cifar = TrainedBenchmark::find(&set, Benchmark::Cifar10Like).unwrap();
        for trained in &set {
            assert_eq!(trained.pool().len(), scale.pool_size);
            for (a, b) in cifar.pool().entries().iter().zip(trained.pool().entries()) {
                assert_eq!(a.config, b.config, "{}", trained.name());
            }
            assert_eq!(
                trained.proxy_scores(cifar).unwrap(),
                cifar.pool().true_errors()
            );
        }
        // A pool from another seed holds other configurations: its errors
        // are refused as scores for this one, never zipped by position.
        let other = TrainedBenchmark::train(&runner, Benchmark::FemnistLike, &scale, 4).unwrap();
        assert!(matches!(
            cifar.proxy_scores(&other),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(TrainedBenchmark::find(&set[..1], Benchmark::RedditLike).is_err());
    }

    #[test]
    fn a_pooled_configuration_is_the_live_objectives_model() {
        use crate::concurrent::ConcurrentEval;
        use crate::objective::FederatedTrialState;
        use fedhpo::TrialRequest;
        use fedmodels::Model;

        let ctx = smoke_context();
        let (pool_size, seed) = (3, 5);
        let pool = train(&ctx, pool_size, seed).unwrap();
        // The configuration draws did not move: the campaign's rng is the
        // first of the seed's stream, as `sample_many`'s was.
        let mut seeds = SeedStream::new(seed);
        let configs = ctx
            .space()
            .sample_many(pool_size, &mut seeds.next_rng())
            .unwrap();
        let pooled: Vec<&HpConfig> = pool.entries().iter().map(|e| &e.config).collect();
        assert_eq!(pooled, configs.iter().collect::<Vec<_>>());
        // Each entry is bitwise what a noiseless live objective on the same
        // objective seed trains and validates for that configuration.
        let live = BatchFederatedObjective::new(
            &ctx,
            NoiseConfig::noiseless(),
            pool_size,
            seeds.next_seed(),
        )
        .unwrap();
        let bits = |evaluation: &FederatedEvaluation| -> Vec<(usize, u64, usize)> {
            evaluation
                .per_client()
                .iter()
                .map(|c| (c.client_index, c.error_rate.to_bits(), c.num_examples))
                .collect()
        };
        for (entry, config) in pool.entries().iter().zip(&configs) {
            let request = TrialRequest {
                trial_id: 0,
                config: config.clone(),
                resource: ctx.scale().rounds_per_config,
                noise_rep: 0,
            };
            let mut state = FederatedTrialState::default();
            let output = live.eval.evaluate(&mut state, &request).unwrap();
            let (model, evaluation) = state.into_trained().unwrap();
            assert_eq!(
                bits(&entry.evaluation),
                bits(&evaluation),
                "{}",
                entry.index
            );
            // A noiseless score reads every client: its truth comes with it.
            let truth = output.true_error.map(f64::to_bits);
            assert_eq!(truth, Some(entry.full_error.to_bits()));
            let params =
                |m: &AnyModel| -> Vec<u64> { m.params().iter().map(|p| p.to_bits()).collect() };
            assert_eq!(params(&entry.model), params(&model), "{}", entry.index);
        }
    }

    #[test]
    fn pool_rejects_zero_size() {
        let ctx = smoke_context();
        assert!(train(&ctx, 0, 1).is_err());
    }

    #[test]
    fn pool_training_is_deterministic() {
        let ctx = smoke_context();
        let a = train(&ctx, 3, 9).unwrap();
        let b = train(&ctx, 3, 9).unwrap();
        assert_eq!(a.true_errors(), b.true_errors());
    }

    #[test]
    fn reevaluation_on_iid_pool_preserves_entry_count() {
        let ctx = smoke_context();
        let pool = train(&ctx, 3, 3).unwrap();
        let mut rng = rng_for(1, 0);
        let iid_pool = validation_pool_with_iid_fraction(&ctx, 1.0, &mut rng).unwrap();
        assert_eq!(iid_pool.len(), ctx.dataset().num_val_clients());
        let reevaluated = pool
            .reevaluate_on(&TrialRunner::from_env(), &iid_pool)
            .unwrap();
        assert_eq!(reevaluated.len(), pool.len());
        // Full-population error barely changes (same pooled data overall),
        // but the per-client structure does; just sanity-check the range.
        for e in reevaluated.true_errors() {
            assert!((0.0..=1.0).contains(&e));
        }
        // p = 0 returns the original partition.
        let same = validation_pool_with_iid_fraction(&ctx, 0.0, &mut rng).unwrap();
        assert_eq!(same, ctx.dataset().clients(Split::Validation).to_vec());
    }
}
