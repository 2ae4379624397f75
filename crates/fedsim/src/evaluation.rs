//! Federated evaluation (Eq. 2): per-client error rates combined by a
//! uniform or example-weighted average, over the full validation pool or a
//! subsample of it.

use crate::exec::ExecutionPolicy;
use crate::sampling::ClientSampler;
use crate::{Result, SimError};
use feddata::{ClientData, FederatedDataset, PackedSplit, Split};
use fedmodels::Model;
use serde::{Deserialize, Serialize};

/// Evaluation accounting on the global [`fedtrace`] registry: validation
/// passes that returned an evaluation, clients scored, and example rows
/// gathered out of their `Example`s (rows a pass read from a dataset's
/// [`PackedSplit`] are not gathered). Write-only counters — nothing reads
/// them back, so tracing cannot move a score bit.
struct EvaluationMetrics {
    passes: fedtrace::Counter,
    clients: fedtrace::Counter,
    rows_gathered: fedtrace::Counter,
}

fn evaluation_metrics() -> &'static EvaluationMetrics {
    static METRICS: std::sync::OnceLock<EvaluationMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        EvaluationMetrics {
            passes: registry.counter("sim.validation_passes"),
            clients: registry.counter("sim.clients_evaluated"),
            rows_gathered: registry.counter("sim.rows_gathered"),
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

    /// The smallest per-client error (y-axis of Fig. 7).
    pub fn min_client_error(&self) -> f64 {
        self.per_client
            .iter()
            .map(|c| c.error_rate)
            .fold(f64::INFINITY, f64::min)
    }

    /// Per-client accuracies, indexed like [`per_client`](Self::per_client).
    pub fn client_accuracies(&self) -> Vec<f64> {
        self.per_client.iter().map(|c| c.accuracy()).collect()
    }
}

/// Evaluates `model` on the listed clients (by index into `clients`), in
/// selection order on the calling thread.
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
    evaluate_selection(model, clients, None, indices, weighting)
}

/// The one evaluation pass. `pack`, if given, is the packed form of
/// `clients` (`dataset.packed(split)` beside `dataset.clients(split)`): a
/// client is counted from its packed rows when the model takes
/// them and from its examples — the gather path, which also reports whatever
/// is wrong with them — when there is no pack or the model defers. Both give
/// the same count, so the pack never shows in the result.
fn evaluate_selection<M: Model>(
    model: &M,
    clients: &[ClientData],
    pack: Option<&PackedSplit>,
    indices: &[usize],
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    let metrics = evaluation_metrics();
    let mut per_client = Vec::with_capacity(indices.len());
    for &idx in indices {
        let client = clients.get(idx).ok_or_else(|| SimError::Sampling {
            message: format!(
                "client index {idx} out of range for pool of {}",
                clients.len()
            ),
        })?;
        if client.is_empty() {
            continue;
        }
        let num_examples = client.examples().len();
        let packed_errors = pack.and_then(|pack| model.count_errors_packed(pack.client(idx)));
        let error_rate = match packed_errors {
            Some(errors) => errors as f64 / num_examples as f64,
            None => {
                metrics.rows_gathered.add(num_examples as u64);
                model.error_rate(client.examples())?
            }
        };
        per_client.push(ClientEvaluation {
            client_index: idx,
            error_rate,
            num_examples,
        });
    }
    let evaluation = FederatedEvaluation::new(per_client, weighting)?;
    metrics.passes.incr();
    metrics.clients.add(evaluation.num_clients() as u64);
    Ok(evaluation)
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
    let indices: Vec<usize> = (0..dataset.num_clients(split)).collect();
    let (clients, pack) = (dataset.clients(split), dataset.packed(split));
    evaluate_selection(model, clients, pack, &indices, weighting)
}

/// [`evaluate_full`] under the name the frozen `benchmark/` package imports
/// (ROADMAP item 4(b)); the policy is ignored — a validation pass runs on
/// the thread that owns the trial.
#[doc(hidden)]
pub fn evaluate_full_with<M: Model>(
    _policy: &ExecutionPolicy,
    model: &M,
    dataset: &FederatedDataset,
    split: Split,
    weighting: WeightingScheme,
) -> Result<FederatedEvaluation> {
    evaluate_full(model, dataset, split, weighting)
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
    let (clients, pack) = (dataset.clients(split), dataset.packed(split));
    evaluate_selection(model, clients, pack, &indices, weighting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::UniformSampler;
    use feddata::{Benchmark, DatasetSpec, Example, Scale};
    use fedmath::rng::rng_for;
    use fedmodels::{AnyModel, ModelSpec, SoftmaxRegression};

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
        assert_eq!(eval.min_client_error(), 0.0);
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
        // Other tests share the process-global counter: a pass that returns
        // an evaluation raises it by at least its own one.
        let passes = &evaluation_metrics().passes;
        let before = passes.value();
        let eval = evaluate_clients(&model, &clients, &[0, 1], WeightingScheme::Uniform).unwrap();
        assert_eq!(eval.num_clients(), 1);
        assert!(passes.value() > before);
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

    /// The reference a packed pass is pinned against: the same clients as a
    /// bare slice, which has no pack and gathers every row.
    fn gathered(
        model: &AnyModel,
        dataset: &FederatedDataset,
        indices: &[usize],
    ) -> Result<FederatedEvaluation> {
        let clients = dataset.clients(Split::Validation);
        evaluate_clients(model, clients, indices, WeightingScheme::ByExamples)
    }

    fn full(model: &AnyModel, dataset: &FederatedDataset) -> Result<FederatedEvaluation> {
        let (split, weighting) = (Split::Validation, WeightingScheme::ByExamples);
        evaluate_full(model, dataset, split, weighting)
    }

    fn assert_full_matches_gathered(model: &AnyModel, dataset: &FederatedDataset) {
        let everyone: Vec<usize> = (0..dataset.num_val_clients()).collect();
        assert_eq!(full(model, dataset), gathered(model, dataset, &everyone));
    }

    #[test]
    fn packed_full_pass_equals_the_gathered_reference() {
        for benchmark in [Benchmark::Cifar10Like, Benchmark::FemnistLike] {
            let mut dataset = DatasetSpec::benchmark(benchmark, Scale::Smoke)
                .generate(2)
                .unwrap();
            // One empty client, skipped alike by both paths.
            dataset.clients_mut(Split::Validation)[1]
                .examples_mut()
                .clear();
            for spec in [ModelSpec::for_dataset(&dataset), ModelSpec::Softmax] {
                let model = spec.build(&dataset, &mut rng_for(5, 0));
                assert_full_matches_gathered(&model, &dataset);
                let evaluation = full(&model, &dataset).unwrap();
                assert_eq!(evaluation.num_clients(), dataset.num_val_clients() - 1);
                assert!(evaluation.per_client().iter().all(|c| c.client_index != 1));
            }
            assert!(dataset.is_packed(Split::Validation));
            assert!(!dataset.is_packed(Split::Train));
        }
    }

    #[test]
    fn packed_subsample_equals_the_gathered_reference_on_the_same_indices() {
        let dataset = smoke_dataset();
        let model = ModelSpec::for_dataset(&dataset).build(&dataset, &mut rng_for(5, 1));
        let sampler = UniformSampler::new();
        for count in [1, 4, dataset.num_val_clients()] {
            let evaluation = evaluate_subsample(
                &model,
                &dataset,
                Split::Validation,
                WeightingScheme::ByExamples,
                &sampler,
                count,
                None,
                &mut rng_for(6, count as u64),
            );
            let indices = sampler
                .sample(
                    &mut rng_for(6, count as u64),
                    dataset.num_val_clients(),
                    count,
                    None,
                )
                .unwrap();
            let reference = gathered(&model, &dataset, &indices);
            assert_eq!(evaluation, reference, "{count} clients");
        }
    }

    #[test]
    fn a_mutated_pool_is_evaluated_as_it_now_is() {
        let mut dataset = smoke_dataset();
        let model = ModelSpec::Softmax.build(&dataset, &mut rng_for(5, 2));
        let before = full(&model, &dataset).unwrap();

        dataset.clients_mut(Split::Validation).pop();
        let popped = full(&model, &dataset).unwrap();
        assert_eq!(popped.num_clients(), before.num_clients() - 1);
        assert_full_matches_gathered(&model, &dataset);

        // Client 0 becomes one example the model gets right, then that
        // example is relabelled through `examples_mut`: each pass sees the
        // pool as it is when it runs.
        let client = &mut dataset.clients_mut(Split::Validation)[0];
        client.examples_mut().truncate(1);
        let predicted = model.predict(&client.examples()[0].input).unwrap();
        client.examples_mut()[0].label = predicted;
        let right = full(&model, &dataset).unwrap();
        assert_eq!(right.per_client()[0].error_rate, 0.0);
        dataset.clients_mut(Split::Validation)[0].examples_mut()[0].label =
            (predicted + 1) % model.num_classes();
        let wrong = full(&model, &dataset).unwrap();
        assert_eq!(wrong.per_client()[0].error_rate, 1.0);
        assert_eq!(wrong.per_client()[1..], right.per_client()[1..]);
        assert_full_matches_gathered(&model, &dataset);
    }

    #[test]
    fn inputs_the_pack_cannot_vouch_for_get_the_gather_path_result() {
        let dataset = smoke_dataset();
        let everyone: Vec<usize> = (0..dataset.num_val_clients()).collect();
        let (dim, classes) = (dataset.input_dim(), dataset.num_classes());
        let mut rng = rng_for(5, 3);
        // A model of another width, and one with fewer classes than the
        // pool's labels: the gather path's error, whatever it is.
        for (spec, dim, classes) in [
            (ModelSpec::Softmax, dim + 1, classes),
            (ModelSpec::Mlp { hidden_dim: 4 }, dim, classes - 1),
        ] {
            let model = spec.build_with_dims(dim, classes, &mut rng);
            let error = full(&model, &dataset).unwrap_err();
            assert!(matches!(error, SimError::Model(_)), "{error}");
            assert_eq!(Err(error), gathered(&model, &dataset, &everyone));
        }
        // A token dataset has no pack and evaluates as it always did.
        let text = DatasetSpec::benchmark(Benchmark::RedditLike, Scale::Smoke)
            .generate(1)
            .unwrap();
        let model = ModelSpec::for_dataset(&text).build(&text, &mut rng);
        assert!(text.packed(Split::Validation).is_none());
        assert_full_matches_gathered(&model, &text);
    }
}
