//! Federated evaluation (Eq. 2): per-client error rates combined by a
//! uniform or example-weighted average, over the full validation pool or a
//! subsample of it.

use crate::exec::{self, ExecutionPolicy};
use crate::sampling::ClientSampler;
use crate::{Result, SimError};
use feddata::{ClientData, FederatedDataset, Split};
use fedmodels::Model;
use serde::{Deserialize, Serialize};

/// Evaluation accounting on the global [`fedtrace`] registry: validation
/// passes run (one per [`evaluate_clients_with`] call) and clients scored.
/// Write-only counters — nothing reads them back, so tracing cannot move a
/// score bit.
struct EvaluationMetrics {
    passes: fedtrace::Counter,
    clients: fedtrace::Counter,
}

fn evaluation_metrics() -> &'static EvaluationMetrics {
    static METRICS: std::sync::OnceLock<EvaluationMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        EvaluationMetrics {
            passes: registry.counter("sim.validation_passes"),
            clients: registry.counter("sim.clients_evaluated"),
        }
    })
}

/// How per-client errors are weighted when aggregating (footnote 1 of §2.2).
///
/// The paper uses the example-weighted objective by default and switches to
/// the uniform objective whenever differential privacy is applied, so that
/// the sensitivity of the aggregate does not depend on any client's local
/// dataset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum WeightingScheme {
    /// Every sampled client counts equally (`p_k = 1`).
    Uniform,
    /// Clients are weighted by their number of local examples.
    #[default]
    ByExamples,
}

impl WeightingScheme {
    /// The weight assigned to a client with `num_examples` local examples.
    pub fn weight(&self, num_examples: usize) -> f64 {
        match self {
            WeightingScheme::Uniform => 1.0,
            WeightingScheme::ByExamples => num_examples as f64,
        }
    }
}

/// Evaluation result for a single client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientEvaluation {
    /// Index of the client within its pool.
    pub client_index: usize,
    /// Error rate on the client's local data, in `[0, 1]`.
    pub error_rate: f64,
    /// Number of local examples evaluated.
    pub num_examples: usize,
}

impl ClientEvaluation {
    /// The client's accuracy (`1 - error_rate`).
    pub fn accuracy(&self) -> f64 {
        1.0 - self.error_rate
    }
}

/// The result of one federated evaluation call: per-client metrics plus the
/// weighting scheme used to aggregate them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedEvaluation {
    per_client: Vec<ClientEvaluation>,
    weighting: WeightingScheme,
}

impl FederatedEvaluation {
    /// Creates an evaluation result from per-client metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `per_client` is empty.
    pub fn new(per_client: Vec<ClientEvaluation>, weighting: WeightingScheme) -> Result<Self> {
        if per_client.is_empty() {
            return Err(SimError::InvalidConfig {
                message: "federated evaluation needs at least one client".into(),
            });
        }
        Ok(FederatedEvaluation {
            per_client,
            weighting,
        })
    }

    /// Per-client evaluation results.
    pub fn per_client(&self) -> &[ClientEvaluation] {
        &self.per_client
    }

    /// The weighting scheme used for aggregation.
    pub fn weighting(&self) -> WeightingScheme {
        self.weighting
    }

    /// Number of clients evaluated.
    pub fn num_clients(&self) -> usize {
        self.per_client.len()
    }

    fn weights(&self) -> Vec<f64> {
        self.per_client
            .iter()
            .map(|c| self.weighting.weight(c.num_examples))
            .collect()
    }

    /// The aggregated (weighted) error rate of Eq. 2, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error if all weights are zero (only possible when every
    /// evaluated client has zero examples under example weighting).
    pub fn weighted_error(&self) -> Result<f64> {
        let errors: Vec<f64> = self.per_client.iter().map(|c| c.error_rate).collect();
        fedmath::stats::weighted_mean(&errors, &self.weights()).map_err(SimError::from)
    }

    /// The aggregated accuracy (`1 - weighted_error`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`weighted_error`](Self::weighted_error).
    pub fn weighted_accuracy(&self) -> Result<f64> {
        Ok(1.0 - self.weighted_error()?)
    }

    /// The smallest per-client error (y-axis of Fig. 7).
    pub fn min_client_error(&self) -> f64 {
        self.per_client
            .iter()
            .map(|c| c.error_rate)
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest per-client error.
    pub fn max_client_error(&self) -> f64 {
        self.per_client
            .iter()
            .map(|c| c.error_rate)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Per-client accuracies, indexed like [`per_client`](Self::per_client).
    pub fn client_accuracies(&self) -> Vec<f64> {
        self.per_client.iter().map(|c| c.accuracy()).collect()
    }
}

/// Evaluates `model` on the listed clients (by index into `clients`).
///
/// Clients with no local examples are skipped; if every selected client is
/// empty an error is returned.
///
/// # Errors
///
/// Returns [`SimError::Sampling`] for out-of-range indices,
/// [`SimError::InvalidConfig`] if no non-empty client remains, and propagates
/// model evaluation failures.
pub fn evaluate_clients<M: Model>(
    model: &M,
    clients: &[ClientData],
    indices: &[usize],
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    evaluate_clients_with(
        &ExecutionPolicy::Sequential,
        model,
        clients,
        indices,
        weighting,
    )
}

/// [`evaluate_clients`] with an explicit execution policy: per-client
/// evaluation fans out over threads under [`ExecutionPolicy::Parallel`].
/// Evaluation consumes no randomness, and results are collected in selection
/// order, so the output is identical under every policy.
///
/// # Errors
///
/// Same conditions as [`evaluate_clients`].
pub fn evaluate_clients_with<M: Model>(
    policy: &ExecutionPolicy,
    model: &M,
    clients: &[ClientData],
    indices: &[usize],
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    let evaluated: Vec<Result<Option<ClientEvaluation>>> =
        exec::map_range(policy, indices.len(), |i| {
            let idx = indices[i];
            let client = clients.get(idx).ok_or_else(|| SimError::Sampling {
                message: format!(
                    "client index {idx} out of range for pool of {}",
                    clients.len()
                ),
            })?;
            if client.is_empty() {
                return Ok(None);
            }
            Ok(Some(ClientEvaluation {
                client_index: idx,
                error_rate: model.error_rate(client.examples())?,
                num_examples: client.examples().len(),
            }))
        });
    let mut per_client = Vec::with_capacity(indices.len());
    for evaluation in evaluated {
        if let Some(evaluation) = evaluation? {
            per_client.push(evaluation);
        }
    }
    let metrics = evaluation_metrics();
    metrics.passes.incr();
    metrics.clients.add(per_client.len() as u64);
    FederatedEvaluation::new(per_client, weighting)
}

/// Evaluates `model` on *every* client of the given pool — the "full
/// validation error" reported on the y-axis of every figure in the paper.
///
/// # Errors
///
/// Propagates the conditions of [`evaluate_clients`].
pub fn evaluate_full<M: Model>(
    model: &M,
    dataset: &FederatedDataset,
    split: Split,
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    evaluate_full_with(
        &ExecutionPolicy::Sequential,
        model,
        dataset,
        split,
        weighting,
    )
}

/// [`evaluate_full`] with an explicit execution policy; see
/// [`evaluate_clients_with`] for the execution contract.
///
/// # Errors
///
/// Propagates the conditions of [`evaluate_clients`].
pub fn evaluate_full_with<M: Model>(
    policy: &ExecutionPolicy,
    model: &M,
    dataset: &FederatedDataset,
    split: Split,
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    let indices: Vec<usize> = (0..dataset.num_clients(split)).collect();
    evaluate_clients_with(policy, model, dataset.clients(split), &indices, weighting)
}

/// Evaluates `model` on a subsample of `count` clients selected by `sampler`.
///
/// `scores` is the optional per-client signal passed to the sampler (used by
/// [`crate::sampling::BiasedSampler`] to model systems heterogeneity).
///
/// # Errors
///
/// Propagates sampler errors and the conditions of [`evaluate_clients`].
#[allow(clippy::too_many_arguments)] // mirrors the paper's evaluation signature
pub fn evaluate_subsample<M: Model>(
    model: &M,
    dataset: &FederatedDataset,
    split: Split,
    weighting: WeightingScheme,
    sampler: &dyn ClientSampler,
    count: usize,
    scores: Option<&[f64]>,
    rng: &mut dyn rand::RngCore,
) -> Result<FederatedEvaluation> {
    let population = dataset.num_clients(split);
    let indices = sampler.sample(rng, population, count, scores)?;
    evaluate_clients(model, dataset.clients(split), &indices, weighting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::UniformSampler;
    use feddata::{Benchmark, DatasetSpec, Example, Scale};
    use fedmath::rng::rng_for;
    use fedmodels::{ModelSpec, SoftmaxRegression};

    fn smoke_dataset() -> FederatedDataset {
        DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
            .generate(1)
            .unwrap()
    }

    #[test]
    fn weighting_scheme_weights() {
        assert_eq!(WeightingScheme::Uniform.weight(100), 1.0);
        assert_eq!(WeightingScheme::ByExamples.weight(100), 100.0);
        assert_eq!(WeightingScheme::default(), WeightingScheme::ByExamples);
    }

    #[test]
    fn federated_evaluation_aggregates() {
        let per_client = vec![
            ClientEvaluation {
                client_index: 0,
                error_rate: 0.0,
                num_examples: 1,
            },
            ClientEvaluation {
                client_index: 1,
                error_rate: 1.0,
                num_examples: 3,
            },
        ];
        let eval =
            FederatedEvaluation::new(per_client.clone(), WeightingScheme::ByExamples).unwrap();
        assert_eq!(eval.num_clients(), 2);
        assert!((eval.weighted_error().unwrap() - 0.75).abs() < 1e-12);
        assert!((eval.weighted_accuracy().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(eval.min_client_error(), 0.0);
        assert_eq!(eval.max_client_error(), 1.0);
        assert_eq!(eval.client_accuracies(), vec![1.0, 0.0]);
        assert_eq!(eval.weighting(), WeightingScheme::ByExamples);
        assert_eq!(eval.per_client()[0].accuracy(), 1.0);

        let uniform = FederatedEvaluation::new(per_client, WeightingScheme::Uniform).unwrap();
        assert!((uniform.weighted_error().unwrap() - 0.5).abs() < 1e-12);

        assert!(FederatedEvaluation::new(vec![], WeightingScheme::Uniform).is_err());
    }

    #[test]
    fn evaluate_clients_skips_empty_clients() {
        let clients = vec![
            ClientData::new(0, vec![Example::dense(vec![0.0, 0.0], 0)]),
            ClientData::new(1, vec![]),
        ];
        let model = SoftmaxRegression::zeros(2, 2);
        let eval = evaluate_clients(&model, &clients, &[0, 1], WeightingScheme::Uniform).unwrap();
        assert_eq!(eval.num_clients(), 1);
        // All-empty selection is an error.
        assert!(evaluate_clients(&model, &clients, &[1], WeightingScheme::Uniform).is_err());
        // Out-of-range index is an error.
        assert!(evaluate_clients(&model, &clients, &[5], WeightingScheme::Uniform).is_err());
    }

    #[test]
    fn evaluate_full_covers_every_client() {
        let dataset = smoke_dataset();
        let mut rng = rng_for(0, 0);
        let model = ModelSpec::Softmax.build(&dataset, &mut rng);
        let eval = evaluate_full(
            &model,
            &dataset,
            Split::Validation,
            WeightingScheme::ByExamples,
        )
        .unwrap();
        assert_eq!(eval.num_clients(), dataset.num_val_clients());
        let err = eval.weighted_error().unwrap();
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn evaluate_subsample_uses_requested_count() {
        let dataset = smoke_dataset();
        let mut rng = rng_for(0, 1);
        let model = ModelSpec::Softmax.build(&dataset, &mut rng);
        let eval = evaluate_subsample(
            &model,
            &dataset,
            Split::Validation,
            WeightingScheme::Uniform,
            &UniformSampler::new(),
            3,
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(eval.num_clients(), 3);
    }

    #[test]
    fn subsampled_error_varies_more_than_full_error() {
        // The core premise of the paper: subsampled evaluation is a noisy
        // estimate of the full-population error.
        let dataset = smoke_dataset();
        let mut rng = rng_for(0, 2);
        let model = ModelSpec::Softmax.build(&dataset, &mut rng);
        let full = evaluate_full(
            &model,
            &dataset,
            Split::Validation,
            WeightingScheme::Uniform,
        )
        .unwrap()
        .weighted_error()
        .unwrap();
        let mut estimates = Vec::new();
        for i in 0..50 {
            let mut trial_rng = rng_for(100, i);
            let sub = evaluate_subsample(
                &model,
                &dataset,
                Split::Validation,
                WeightingScheme::Uniform,
                &UniformSampler::new(),
                1,
                None,
                &mut trial_rng,
            )
            .unwrap()
            .weighted_error()
            .unwrap();
            estimates.push(sub);
        }
        let spread = fedmath::stats::std_dev(&estimates);
        assert!(spread > 0.0, "single-client estimates should vary");
        let mean_est = fedmath::stats::mean(&estimates);
        assert!(
            (mean_est - full).abs() < 0.3,
            "estimates should roughly track the full error"
        );
    }
}
