//! The federated training loop (`Algorithm 2`, training half).

use crate::evaluation::WeightingScheme;
use crate::hyperparams::FederatedHyperparams;
use crate::server::FedAdam;
use crate::{Result, SimError};
use feddata::{ClientData, FederatedDataset, Split};
use fedmath::{SeedStream, SeedTree};
use fedmodels::{AnyModel, LocalSgd, Model, ModelSpec, SgdScratch};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::sync::Arc;

/// A source of clients addressed by population id, materialized on demand.
///
/// This is the seam between the simulator and lazy client populations
/// (`fedpop`): a training round samples a cohort of ids, asks the source to
/// materialize exactly those clients, trains them, and drops them — memory
/// stays O(cohort) no matter how large the population is. Implementations
/// must be pure in the id (`materialize(i)` always returns the same client
/// bits). One source (a population and its cache) is shared by every trial
/// a `TrialRunner` trains against it, on whichever threads those trials
/// run — hence `Sync` — and purity is what keeps that sharing invisible:
/// any trial materializing client `i` gets the same shard.
pub trait CohortSource: Sync {
    /// Number of clients in the population.
    fn population(&self) -> u64;

    /// Materializes (or fetches from a cache) the client with the given id.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is out of range or generation fails.
    fn materialize(&self, id: u64) -> Result<Arc<ClientData>>;
}

/// Seed-tree channel of a round's client-sampling RNG.
const SAMPLE_CHANNEL: u64 = 0;
/// Seed-tree channel under which per-client-slot RNGs are derived.
const CLIENT_CHANNEL: u64 = 1;
/// Width of the fixed slot chunks a round folds its client deltas in.
/// Part of the round's float-op sequence: changing it moves model bits.
const REDUCE_CHUNK: usize = 8;

/// Training-loop accounting on the global [`fedtrace`] registry: federated
/// rounds executed and clients trained. Write-only counters — the loop never
/// reads them back, so tracing cannot move a model bit.
struct TrainingMetrics {
    rounds: fedtrace::Counter,
    clients: fedtrace::Counter,
}

fn training_metrics() -> &'static TrainingMetrics {
    static METRICS: std::sync::OnceLock<TrainingMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        TrainingMetrics {
            rounds: registry.counter("sim.training_rounds"),
            clients: registry.counter("sim.clients_trained"),
        }
    })
}

/// Configuration of the federated training loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of training clients sampled per round (10 in the paper).
    pub clients_per_round: usize,
    /// Hyperparameters of the server and client optimizers.
    pub hyperparams: FederatedHyperparams,
    /// Weighting of client updates during aggregation. The paper sets the
    /// training weights to match the evaluation weighting scheme.
    pub weighting: WeightingScheme,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            clients_per_round: 10,
            hyperparams: FederatedHyperparams::default(),
            weighting: WeightingScheme::ByExamples,
        }
    }
}

impl TrainerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `clients_per_round == 0` or the
    /// hyperparameters are invalid.
    pub fn validate(&self) -> Result<()> {
        if self.clients_per_round == 0 {
            return Err(SimError::InvalidConfig {
                message: "clients_per_round must be positive".into(),
            });
        }
        self.hyperparams.validate()
    }
}

/// Runs federated training: builds a model, then repeatedly samples clients,
/// trains them locally, aggregates their updates, and applies the server
/// optimizer.
#[derive(Debug, Clone)]
pub struct FederatedTrainer {
    config: TrainerConfig,
}

impl FederatedTrainer {
    /// Creates a trainer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: TrainerConfig) -> Result<Self> {
        config.validate()?;
        Ok(FederatedTrainer { config })
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Initialises a training run without executing any rounds, so the caller
    /// can interleave training and evaluation (needed by early-stopping HP
    /// tuning methods such as Hyperband, which resume partially-trained
    /// configurations).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the hyperparameters are invalid.
    pub fn start(
        &self,
        dataset: &FederatedDataset,
        model_spec: ModelSpec,
        seed: u64,
    ) -> Result<TrainingRun> {
        self.start_with_dims(dataset.input_dim(), dataset.num_classes(), model_spec, seed)
    }

    /// [`start`](Self::start) without a materialized dataset: only the model
    /// dimensions are needed to initialise a run, so population-backed
    /// training (whose clients are synthesized on demand) starts here. The
    /// seed schedule is identical to `start` — a run started either way and
    /// fed the same clients produces the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the hyperparameters are invalid.
    pub fn start_with_dims(
        &self,
        input_dim: usize,
        num_classes: usize,
        model_spec: ModelSpec,
        seed: u64,
    ) -> Result<TrainingRun> {
        let mut seeds = SeedStream::new(seed);
        let mut init_rng = seeds.next_rng();
        let round_seeds = SeedTree::new(seeds.next_seed());
        let model = model_spec.build_with_dims(input_dim, num_classes, &mut init_rng);
        let server = FedAdam::new(self.config.hyperparams.server)?;
        let client_opt = LocalSgd::new(self.config.hyperparams.client)?;
        Ok(TrainingRun {
            model,
            server,
            client_opt,
            config: self.config,
            round_seeds,
            rounds_completed: 0,
            scratch: ClientScratch::default(),
            chunk_delta: Vec::new(),
            base_params: Vec::new(),
            aggregate: Vec::new(),
        })
    }

    /// Trains a freshly-initialised model for `rounds` federated rounds.
    ///
    /// # Errors
    ///
    /// Propagates configuration, sampling, and model errors.
    pub fn train(
        &self,
        dataset: &FederatedDataset,
        model_spec: ModelSpec,
        rounds: usize,
        seed: u64,
    ) -> Result<TrainingRun> {
        let mut run = self.start(dataset, model_spec, seed)?;
        run.run_rounds(dataset, rounds)?;
        Ok(run)
    }
}

/// The state of one federated training run: the global model, the server
/// optimizer state, and the round counter. Supports incremental training so
/// early-stopping tuners can resume runs.
///
/// All randomness is derived positionally from a per-run [`SeedTree`]: round
/// `r` samples clients with the RNG at path `[r, SAMPLE_CHANNEL]` and trains
/// the client in slot `s` with the RNG at path `[r, CLIENT_CHANNEL, s]`.
/// Because no RNG state is shared across clients or rounds, a run is a pure
/// function of its seed on whichever thread trains it, and resuming it
/// lands where a fresh run does.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    model: AnyModel,
    server: FedAdam,
    client_opt: LocalSgd,
    config: TrainerConfig,
    round_seeds: SeedTree,
    rounds_completed: usize,
    /// Training scratch reused by every client of every round. Its contents
    /// never influence results (every buffer is overwritten or zero-filled
    /// before use); it only removes steady-state allocations.
    scratch: ClientScratch,
    /// Reused accumulator of one slot chunk's weighted deltas.
    chunk_delta: Vec<f64>,
    /// Reused storage for the round's base parameter snapshot.
    base_params: Vec<f64>,
    /// Reused storage for the round's aggregated delta.
    aggregate: Vec<f64>,
}

/// Reusable training scratch: the SGD scratch (cached model clone, buffer
/// pool, parameter/velocity/gradient buffers) plus the buffer receiving each
/// client's locally-updated parameters.
#[derive(Debug, Default)]
struct ClientScratch {
    sgd: SgdScratch<AnyModel>,
    new_params: Vec<f64>,
}

/// A cloned run starts with empty scratch: there is nothing in it to keep.
impl Clone for ClientScratch {
    fn clone(&self) -> Self {
        ClientScratch::default()
    }
}

impl TrainingRun {
    /// The current global model.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// Number of federated rounds completed so far.
    pub fn rounds_completed(&self) -> usize {
        self.rounds_completed
    }

    /// The trainer configuration used by this run.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Executes one federated round (Algorithm 2's inner loop):
    /// sample clients → local SGD on each → aggregate deltas → server update.
    ///
    /// # Errors
    ///
    /// Propagates sampling and model errors. If the model parameters become
    /// non-finite (divergence under an aggressive learning rate) the round
    /// still succeeds — the diverged model simply evaluates poorly, matching
    /// how a real tuning system would observe it.
    pub fn run_round(&mut self, dataset: &FederatedDataset) -> Result<()> {
        let population = dataset.num_train_clients();
        let count = self.config.clients_per_round.min(population);
        self.round_core(
            |rng| {
                fedmath::rng::sample_without_replacement(rng, population as u64, count).map_err(
                    |e| SimError::Sampling {
                        message: e.to_string(),
                    },
                )
            },
            |id| {
                dataset
                    .client(Split::Train, id as usize)
                    .map_err(SimError::from)
            },
        )
    }

    /// Executes one federated round against a lazy client population: derive
    /// this round's sampling RNG, let `sample` pick the cohort of population
    /// ids (uniform, size-weighted, availability-gated — the caller's
    /// choice), materialize exactly those clients through `source`, train
    /// and aggregate them, and drop them. Peak client residency is bounded
    /// by the cohort (plus whatever cache the source keeps), never by the
    /// population size.
    ///
    /// The cohort's slot order is part of the round's identity: slot `s`
    /// trains with the RNG at path `[round, CLIENT_CHANNEL, s]` exactly like
    /// [`run_round`](Self::run_round), and aggregation folds fixed chunks in
    /// slot order. An empty cohort (e.g. no client inside its availability
    /// window) is a no-op round: the model is unchanged but the round counter
    /// advances.
    ///
    /// # Errors
    ///
    /// Propagates sampling, materialization, and model errors.
    pub fn run_cohort_round<S, F>(&mut self, source: &S, sample: F) -> Result<()>
    where
        S: CohortSource + ?Sized,
        F: FnOnce(&mut StdRng) -> Result<Vec<u64>>,
    {
        self.round_core(sample, |id| source.materialize(id))
    }

    /// The round body shared by the eager-dataset and lazy-population paths:
    /// both run the exact same float-op sequence, differing only in how a
    /// client id becomes a [`ClientData`].
    fn round_core<C, Fs, Ff>(&mut self, sample: Fs, fetch: Ff) -> Result<()>
    where
        C: Borrow<ClientData>,
        Fs: FnOnce(&mut StdRng) -> Result<Vec<u64>>,
        Ff: Fn(u64) -> Result<C>,
    {
        let round = self.round_seeds.child(self.rounds_completed as u64);
        let mut sample_rng = round.child(SAMPLE_CHANNEL).rng();
        let indices = sample(&mut sample_rng)?;

        let mut base_params = std::mem::take(&mut self.base_params);
        self.model.params_into(&mut base_params);
        let dim = base_params.len();
        let mut aggregate = std::mem::take(&mut self.aggregate);
        aggregate.clear();
        aggregate.resize(dim, 0.0);
        let mut total_weight = 0.0;
        // Each fixed REDUCE_CHUNK-sized block of client slots trains its
        // clients in slot order and folds `Σ wᵢ · (w'ᵢ - w)` into the chunk
        // accumulator, which then joins the aggregate: chunks combine left to
        // right. Slot RNGs are derived from position and chunk boundaries
        // depend only on the slot count, so the float-op sequence is a pure
        // function of the cohort.
        for (chunk, ids) in indices.chunks(REDUCE_CHUNK).enumerate() {
            self.chunk_delta.clear();
            self.chunk_delta.resize(dim, 0.0);
            let mut chunk_weight = 0.0;
            for (offset, &id) in ids.iter().enumerate() {
                let client = fetch(id)?;
                let client = client.borrow();
                if client.is_empty() {
                    continue;
                }
                let slot = chunk * REDUCE_CHUNK + offset;
                let mut rng = round.derive(&[CLIENT_CHANNEL, slot as u64]).rng();
                self.client_opt.train_into(
                    &self.model,
                    client.examples(),
                    &mut rng,
                    &mut self.scratch.sgd,
                    &mut self.scratch.new_params,
                )?;
                let weight = self.config.weighting.weight(client.num_examples());
                for ((acc, &new), &old) in self
                    .chunk_delta
                    .iter_mut()
                    .zip(&self.scratch.new_params)
                    .zip(&base_params)
                {
                    *acc += weight * (new - old);
                }
                chunk_weight += weight;
            }
            for (acc, &v) in aggregate.iter_mut().zip(&self.chunk_delta) {
                *acc += v;
            }
            total_weight += chunk_weight;
        }
        if total_weight > 0.0 {
            for a in &mut aggregate {
                *a /= total_weight;
                // Guard against NaN/inf propagating into the server state.
                if !a.is_finite() {
                    *a = 0.0;
                }
            }
            self.server.apply(&mut base_params, &aggregate)?;
            self.model.set_params(&base_params)?;
        }
        self.base_params = base_params;
        self.aggregate = aggregate;
        self.rounds_completed += 1;
        let metrics = training_metrics();
        metrics.rounds.incr();
        metrics.clients.add(indices.len() as u64);
        Ok(())
    }

    /// Executes `rounds` federated rounds.
    ///
    /// # Errors
    ///
    /// Propagates the conditions of [`run_round`](Self::run_round).
    pub fn run_rounds(&mut self, dataset: &FederatedDataset, rounds: usize) -> Result<()> {
        for _ in 0..rounds {
            self.run_round(dataset)?;
        }
        Ok(())
    }

    /// Consumes the run and returns the trained model.
    pub fn into_model(self) -> AnyModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{evaluate_full, WeightingScheme};
    use crate::hyperparams::FedAdamConfig;
    use feddata::{Benchmark, DatasetSpec, Scale};
    use fedmodels::LocalSgdConfig;

    fn smoke_dataset(benchmark: Benchmark) -> FederatedDataset {
        DatasetSpec::benchmark(benchmark, Scale::Smoke)
            .generate(5)
            .unwrap()
    }

    fn trainer_with(hyperparams: FederatedHyperparams) -> FederatedTrainer {
        FederatedTrainer::new(TrainerConfig {
            hyperparams,
            ..Default::default()
        })
        .unwrap()
    }

    fn good_hyperparams() -> FederatedHyperparams {
        FederatedHyperparams {
            server: FedAdamConfig {
                learning_rate: 0.05,
                beta1: 0.9,
                beta2: 0.99,
                lr_decay: 0.9999,
                epsilon: 1e-5,
            },
            client: LocalSgdConfig {
                learning_rate: 0.05,
                momentum: 0.5,
                weight_decay: 5e-5,
                batch_size: 32,
                epochs: 1,
            },
        }
    }

    #[test]
    fn config_validation() {
        assert!(TrainerConfig::default().validate().is_ok());
        let bad = TrainerConfig {
            clients_per_round: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        assert!(FederatedTrainer::new(bad).is_err());
        let mut bad = TrainerConfig::default();
        bad.hyperparams.server.learning_rate = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn training_reduces_full_validation_error() {
        let dataset = smoke_dataset(Benchmark::Cifar10Like);
        let trainer = trainer_with(good_hyperparams());
        let run0 = trainer
            .start(&dataset, ModelSpec::Mlp { hidden_dim: 16 }, 3)
            .unwrap();
        let initial = evaluate_full(
            run0.model(),
            &dataset,
            Split::Validation,
            WeightingScheme::ByExamples,
        )
        .unwrap()
        .weighted_error()
        .unwrap();

        let run = trainer
            .train(&dataset, ModelSpec::Mlp { hidden_dim: 16 }, 30, 3)
            .unwrap();
        assert_eq!(run.rounds_completed(), 30);
        let trained = evaluate_full(
            run.model(),
            &dataset,
            Split::Validation,
            WeightingScheme::ByExamples,
        )
        .unwrap()
        .weighted_error()
        .unwrap();
        assert!(
            trained < initial - 0.05,
            "training did not reduce error: {initial} -> {trained}"
        );
    }

    #[test]
    fn training_works_on_language_datasets() {
        let dataset = smoke_dataset(Benchmark::StackOverflowLike);
        let trainer = trainer_with(good_hyperparams());
        let spec = ModelSpec::for_dataset(&dataset);
        let run = trainer.train(&dataset, spec, 10, 1).unwrap();
        let eval = evaluate_full(
            run.model(),
            &dataset,
            Split::Validation,
            WeightingScheme::ByExamples,
        )
        .unwrap();
        let err = eval.weighted_error().unwrap();
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn incremental_training_matches_one_shot() {
        let dataset = smoke_dataset(Benchmark::FemnistLike);
        let trainer = trainer_with(good_hyperparams());
        let spec = ModelSpec::Mlp { hidden_dim: 8 };

        let one_shot = trainer.train(&dataset, spec, 6, 11).unwrap();

        let mut incremental = trainer.start(&dataset, spec, 11).unwrap();
        incremental.run_rounds(&dataset, 2).unwrap();
        incremental.run_rounds(&dataset, 4).unwrap();

        assert_eq!(incremental.rounds_completed(), 6);
        assert_eq!(one_shot.model().params(), incremental.model().params());
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let dataset = smoke_dataset(Benchmark::Cifar10Like);
        let trainer = trainer_with(good_hyperparams());
        let spec = ModelSpec::Softmax;
        let a = trainer.train(&dataset, spec, 5, 42).unwrap();
        let b = trainer.train(&dataset, spec, 5, 42).unwrap();
        assert_eq!(a.model().params(), b.model().params());
        let c = trainer.train(&dataset, spec, 5, 43).unwrap();
        assert_ne!(a.model().params(), c.model().params());
    }

    #[test]
    fn diverging_hyperparameters_do_not_crash() {
        let dataset = smoke_dataset(Benchmark::Cifar10Like);
        let mut hp = good_hyperparams();
        hp.client.learning_rate = 1e3;
        hp.server.learning_rate = 0.1;
        let trainer = trainer_with(hp);
        let run = trainer
            .train(&dataset, ModelSpec::Mlp { hidden_dim: 8 }, 10, 0)
            .unwrap();
        // The diverged model must still be evaluable (it will just be bad).
        let eval = evaluate_full(
            run.model(),
            &dataset,
            Split::Validation,
            WeightingScheme::ByExamples,
        );
        if let Ok(eval) = eval {
            let err = eval.weighted_error().unwrap();
            assert!((0.0..=1.0).contains(&err));
        }
    }

    #[test]
    fn into_model_returns_trained_model() {
        let dataset = smoke_dataset(Benchmark::Cifar10Like);
        let trainer = trainer_with(good_hyperparams());
        let run = trainer.train(&dataset, ModelSpec::Softmax, 2, 0).unwrap();
        let params_before = run.model().params();
        let model = run.into_model();
        assert_eq!(model.params(), params_before);
    }

    #[test]
    fn clients_per_round_is_capped_by_population() {
        let dataset = smoke_dataset(Benchmark::Cifar10Like);
        let config = TrainerConfig {
            clients_per_round: 10_000,
            hyperparams: good_hyperparams(),
            weighting: WeightingScheme::Uniform,
        };
        let trainer = FederatedTrainer::new(config).unwrap();
        // Should not error even though clients_per_round exceeds the pool.
        let run = trainer.train(&dataset, ModelSpec::Softmax, 2, 0).unwrap();
        assert_eq!(run.rounds_completed(), 2);
        assert_eq!(run.config().clients_per_round, 10_000);
        assert_eq!(trainer.config().clients_per_round, 10_000);
    }
}
