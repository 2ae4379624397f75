//! One-shot proxy random search (§4 of the paper).
//!
//! 1. Run random search using only the proxy dataset to both train and
//!    evaluate configurations. The proxy data is public and server-side, so
//!    this step involves no client subsampling and no DP noise.
//! 2. Train a single model on the client dataset with the best configuration
//!    found. Because only one configuration touches the client data, the
//!    result is unaffected by evaluation noise.
//!
//! [`OneShotProxy::run`] is the *deployable* pipeline: it trains what it
//! searches. The paper's proxy figures (Fig. 1 bar, 11, 12) do not call it —
//! they bootstrap over pools `fedtune_core` trained once per benchmark,
//! selecting by the proxy pool's errors with the same [`incumbents`] rule.

use crate::runner::ConfigRunner;
use crate::Result;
use feddata::FederatedDataset;
use fedhpo::HpConfig;
use fedmath::SeedStream;
use serde::{Deserialize, Serialize};

/// The selection rule of a random search that sees `scores` in order: entry
/// `j` is the index of its incumbent after `j + 1` scores — the lowest so
/// far, the earliest on ties. The last entry is what the search selects.
pub fn incumbents(scores: &[f64]) -> Vec<usize> {
    let mut best = 0;
    (0..scores.len())
        .map(|j| {
            if scores[j] < scores[best] {
                best = j;
            }
            best
        })
        .collect()
}

/// The one-shot proxy tuning pipeline.
#[derive(Debug, Clone)]
pub struct OneShotProxy {
    num_configs: usize,
}

/// The outcome of one-shot proxy tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyOutcome {
    /// Name of the proxy dataset used for the search.
    pub proxy_dataset: String,
    /// Name of the client dataset the selected configuration was deployed on.
    pub client_dataset: String,
    /// The configuration selected on the proxy data.
    pub selected_config: HpConfig,
    /// Full-validation error of the selected configuration on the *proxy*
    /// dataset (the signal the search actually optimised).
    pub proxy_error: f64,
    /// Full-validation error of the selected configuration after training on
    /// the *client* dataset — the number reported in Fig. 11/12.
    pub client_error: f64,
    /// Proxy errors of every configuration searched, in sample order.
    pub all_proxy_errors: Vec<f64>,
}

impl OneShotProxy {
    /// Creates a one-shot proxy search over `num_configs` random
    /// configurations (`K = 16` in the paper).
    pub fn new(num_configs: usize) -> Self {
        OneShotProxy { num_configs }
    }

    /// The paper's configuration (`K = 16`).
    pub fn paper_default() -> Self {
        OneShotProxy::new(16)
    }

    /// Number of configurations searched on the proxy data.
    pub fn num_configs(&self) -> usize {
        self.num_configs
    }

    /// Runs the two-step pipeline.
    ///
    /// `proxy_runner` and `client_runner` carry the per-dataset model
    /// architectures and round budgets (they may differ when the proxy and
    /// client datasets belong to different task families) but must share the
    /// same search space.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_configs` is zero, the runners' spaces differ,
    /// or any training run fails.
    pub fn run(
        &self,
        proxy_dataset: &FederatedDataset,
        proxy_runner: &ConfigRunner,
        client_dataset: &FederatedDataset,
        client_runner: &ConfigRunner,
        seed: u64,
    ) -> Result<ProxyOutcome> {
        if self.num_configs == 0 {
            return Err(crate::ProxyError::InvalidConfig {
                message: "one-shot proxy search needs at least one configuration".into(),
            });
        }
        if proxy_runner.space() != client_runner.space() {
            return Err(crate::ProxyError::InvalidConfig {
                message: "proxy and client runners must share the same search space".into(),
            });
        }
        let mut seeds = SeedStream::new(seed);
        let mut sample_rng = seeds.next_rng();
        let configs = proxy_runner
            .space()
            .sample_many(self.num_configs, &mut sample_rng)?;

        // Step 1: search on the proxy data (noise-free evaluation).
        let mut proxy_errors = Vec::with_capacity(configs.len());
        for config in &configs {
            let run_seed = seeds.next_seed();
            let result = proxy_runner.run(proxy_dataset, config, run_seed)?;
            proxy_errors.push(result.full_error);
        }
        let best_index = incumbents(&proxy_errors)[self.num_configs - 1];
        let selected_config = configs[best_index].clone();

        // Step 2: a single training run on the client data.
        let client_seed = seeds.next_seed();
        let client_result = client_runner.run(client_dataset, &selected_config, client_seed)?;

        Ok(ProxyOutcome {
            proxy_dataset: proxy_dataset.name().to_string(),
            client_dataset: client_dataset.name().to_string(),
            selected_config,
            proxy_error: proxy_errors[best_index],
            client_error: client_result.full_error,
            all_proxy_errors: proxy_errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::{Benchmark, DatasetSpec, Scale};
    use fedhpo::SearchSpace;
    use fedmodels::ModelSpec;

    fn smoke(benchmark: Benchmark, seed: u64) -> FederatedDataset {
        DatasetSpec::benchmark(benchmark, Scale::Smoke)
            .generate(seed)
            .unwrap()
    }

    #[test]
    fn one_shot_proxy_runs_end_to_end() {
        let proxy = smoke(Benchmark::Cifar10Like, 0);
        let client = smoke(Benchmark::FemnistLike, 1);
        let space = SearchSpace::paper_default();
        let proxy_runner = ConfigRunner::new(space.clone(), ModelSpec::Mlp { hidden_dim: 8 }, 8);
        let client_runner = ConfigRunner::new(space.clone(), ModelSpec::Mlp { hidden_dim: 8 }, 8);
        let pipeline = OneShotProxy::new(4);
        assert_eq!(pipeline.num_configs(), 4);
        let outcome = pipeline
            .run(&proxy, &proxy_runner, &client, &client_runner, 3)
            .unwrap();
        assert_eq!(outcome.proxy_dataset, "cifar10-like");
        assert_eq!(outcome.client_dataset, "femnist-like");
        assert_eq!(outcome.all_proxy_errors.len(), 4);
        assert!((0.0..=1.0).contains(&outcome.proxy_error));
        assert!((0.0..=1.0).contains(&outcome.client_error));
        // The selected configuration achieves the minimum proxy error.
        let min = outcome
            .all_proxy_errors
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.proxy_error, min);
        assert!(space.validate_config(&outcome.selected_config).is_ok());
    }

    #[test]
    fn incumbents_track_the_lowest_score_so_far() {
        assert_eq!(incumbents(&[0.5, 0.7, 0.2, 0.2, 0.1]), [0, 0, 2, 2, 4]);
        assert!(incumbents(&[]).is_empty());
    }

    #[test]
    fn paper_default_searches_sixteen_configs() {
        assert_eq!(OneShotProxy::paper_default().num_configs(), 16);
    }

    #[test]
    fn validation_errors() {
        let proxy = smoke(Benchmark::Cifar10Like, 0);
        let space = SearchSpace::paper_default();
        let runner = ConfigRunner::new(space.clone(), ModelSpec::Softmax, 2);
        let zero = OneShotProxy::new(0);
        assert!(zero.run(&proxy, &runner, &proxy, &runner, 0).is_err());

        let other_space = SearchSpace::paper_nested_lr_space(1).unwrap();
        let other_runner = ConfigRunner::new(other_space, ModelSpec::Softmax, 2);
        let pipeline = OneShotProxy::new(2);
        assert!(pipeline
            .run(&proxy, &runner, &proxy, &other_runner, 0)
            .is_err());
    }

    #[test]
    fn proxy_pipeline_is_deterministic() {
        let proxy = smoke(Benchmark::StackOverflowLike, 2);
        let client = smoke(Benchmark::RedditLike, 3);
        let space = SearchSpace::paper_default();
        let proxy_runner = ConfigRunner::new(space.clone(), ModelSpec::Bigram { embed_dim: 4 }, 3);
        let client_runner = ConfigRunner::new(space.clone(), ModelSpec::Bigram { embed_dim: 4 }, 3);
        let pipeline = OneShotProxy::new(3);
        let a = pipeline
            .run(&proxy, &proxy_runner, &client, &client_runner, 11)
            .unwrap();
        let b = pipeline
            .run(&proxy, &proxy_runner, &client, &client_runner, 11)
            .unwrap();
        assert_eq!(a, b);
        let c = pipeline
            .run(&proxy, &proxy_runner, &client, &client_runner, 12)
            .unwrap();
        assert_ne!(a.selected_config, c.selected_config);
    }
}
