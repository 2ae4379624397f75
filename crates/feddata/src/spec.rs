//! Dataset specifications: benchmark presets at several scales.
//!
//! [`DatasetSpec::benchmark`] reproduces the four datasets of Table 1/2 as
//! synthetic stand-ins (see `DESIGN.md`). [`Scale`] selects how large the
//! generated federation is: `Paper` matches the paper's raw client counts,
//! `Default` is a CPU-friendly reduction that keeps the client-count *ratios*
//! and heterogeneity structure, and `Smoke` is a tiny configuration for unit
//! tests.

use crate::dataset::FederatedDataset;
use crate::example::Task;
use crate::generators::{ClassificationConfig, ClassificationWorld, LanguageConfig, LanguageWorld};
use crate::{DataError, Result};
use fedmath::SeedStream;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four benchmark datasets of the paper, as synthetic stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// CIFAR10 with Dirichlet(0.1) label partition (image classification).
    Cifar10Like,
    /// FEMNIST with its natural writer partition (image classification).
    FemnistLike,
    /// StackOverflow next-token prediction (natural partition, long tail).
    StackOverflowLike,
    /// Reddit next-token prediction (natural partition, many small clients).
    RedditLike,
}

impl Benchmark {
    /// All four benchmarks in the order used by the paper's figures.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Cifar10Like,
        Benchmark::FemnistLike,
        Benchmark::StackOverflowLike,
        Benchmark::RedditLike,
    ];

    /// Short name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Cifar10Like => "cifar10-like",
            Benchmark::FemnistLike => "femnist-like",
            Benchmark::StackOverflowLike => "stackoverflow-like",
            Benchmark::RedditLike => "reddit-like",
        }
    }

    /// The task family of the benchmark.
    pub fn task(&self) -> Task {
        match self {
            Benchmark::Cifar10Like | Benchmark::FemnistLike => Task::DenseClassification,
            Benchmark::StackOverflowLike | Benchmark::RedditLike => Task::NextTokenPrediction,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generation scale: how many clients and examples to synthesise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Client counts and example counts matching Table 2 of the paper.
    /// Intended for full reproductions with generous compute budgets.
    Paper,
    /// CPU-friendly reduction used by the bench harness: the client-count
    /// ratios, heterogeneity structure, and long tails are preserved but raw
    /// counts are roughly an order of magnitude smaller.
    #[default]
    Default,
    /// Tiny federation for unit and integration tests.
    Smoke,
}

/// How per-client example counts are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClientSizes {
    /// Sizes drawn uniformly from `[low, high]` (CIFAR10's tight range).
    Uniform {
        /// Smallest client size.
        low: usize,
        /// Largest client size.
        high: usize,
    },
    /// Long-tailed sizes from a clamped log-normal (FEMNIST / text datasets).
    LogNormal {
        /// Target mean client size.
        mean: f64,
        /// Smallest client size.
        min: usize,
        /// Largest client size.
        max: usize,
        /// Log-space standard deviation (larger ⇒ heavier tail).
        sigma: f64,
    },
}

impl ClientSizes {
    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] for an empty/zero uniform range or
    /// unsatisfiable log-normal constraints.
    pub fn validate(&self) -> Result<()> {
        match *self {
            ClientSizes::Uniform { low, high } => {
                if low == 0 || low > high {
                    return Err(DataError::InvalidSpec {
                        message: format!("invalid uniform size range [{low}, {high}]"),
                    });
                }
                Ok(())
            }
            ClientSizes::LogNormal {
                mean,
                min,
                max,
                sigma,
            } => crate::partition::validate_long_tailed_sizes(mean, min.max(1), max, sigma),
        }
    }

    /// The largest size this distribution can ever produce — an O(1) bound
    /// used by size-weighted cohort sampling over lazy populations.
    pub fn max_size(&self) -> usize {
        match *self {
            ClientSizes::Uniform { high, .. } => high,
            ClientSizes::LogNormal { max, .. } => max.max(1),
        }
    }

    /// Validates once and precompiles the distribution into a [`SizeSampler`]
    /// whose per-client queries are validation-free — the form hot loops
    /// (size-weighted rejection sampling over a lazy population) should hold.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the parameters are inconsistent
    /// (see [`validate`](Self::validate)).
    pub fn compile(&self) -> Result<SizeSampler> {
        self.validate()?;
        Ok(match *self {
            ClientSizes::Uniform { low, high } => SizeSampler::Uniform { low, high },
            ClientSizes::LogNormal {
                mean,
                min,
                max,
                sigma,
            } => SizeSampler::LogNormal(crate::partition::LongTailedSizes::new(
                mean,
                min.max(1),
                max,
                sigma,
            )?),
        })
    }

    /// Draws `num_clients` sizes, positionally below a root derived from
    /// `rng`: size `i` is [`SizeSampler::size_at`] at id `i`, so it never
    /// depends on any other client's draw.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `num_clients == 0` or the
    /// parameters are inconsistent (see [`validate`](Self::validate)).
    pub fn sample(&self, rng: &mut impl Rng, num_clients: usize) -> Result<Vec<usize>> {
        if num_clients == 0 {
            return Err(DataError::InvalidSpec {
                message: "need at least one client".into(),
            });
        }
        let sampler = self.compile()?;
        let tree = fedmath::SeedTree::new(rng.gen());
        Ok((0..num_clients)
            .map(|i| sampler.size_at(&tree, i as u64))
            .collect())
    }
}

/// A validated, precompiled [`ClientSizes`] distribution: per-client size
/// queries skip re-validation and distribution construction, which matters
/// in rejection-sampling loops that query thousands of sizes per cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeSampler {
    /// Sizes uniform in `[low, high]`.
    Uniform {
        /// Smallest client size.
        low: usize,
        /// Largest client size.
        high: usize,
    },
    /// Precompiled clamped log-normal sizes.
    LogNormal(crate::partition::LongTailedSizes),
}

impl SizeSampler {
    /// The example count of client `id`, drawn **positionally** from `tree`:
    /// a pure function of `(tree seed, id)`, at least one. A lazy population
    /// queries any client's size in O(1) without touching its neighbours.
    pub fn size_at(&self, tree: &fedmath::SeedTree, id: u64) -> usize {
        match *self {
            SizeSampler::Uniform { low, high } => tree.child(id).rng().gen_range(low..=high),
            SizeSampler::LogNormal(dist) => dist.size_at(tree, id),
        }
    }
}

/// Task-specific generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskConfig {
    /// Dense classification (image-like) parameters.
    Classification(ClassificationConfig),
    /// Next-token prediction (text-like) parameters.
    Language(LanguageConfig),
}

/// A full recipe for generating one federated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name used in reports.
    pub name: String,
    /// Number of training clients (`N_tr`).
    pub num_train_clients: usize,
    /// Number of validation clients (`N_val`).
    pub num_val_clients: usize,
    /// Distribution of per-client example counts.
    pub client_sizes: ClientSizes,
    /// Task-specific generator parameters.
    pub task: TaskConfig,
}

impl DatasetSpec {
    /// Returns the preset spec for one of the paper's four benchmarks at the
    /// given scale.
    pub fn benchmark(benchmark: Benchmark, scale: Scale) -> Self {
        match benchmark {
            Benchmark::Cifar10Like => Self::cifar10_like(scale),
            Benchmark::FemnistLike => Self::femnist_like(scale),
            Benchmark::StackOverflowLike => Self::stackoverflow_like(scale),
            Benchmark::RedditLike => Self::reddit_like(scale),
        }
    }

    fn cifar10_like(scale: Scale) -> Self {
        let (train, val, sizes) = match scale {
            Scale::Paper => (400, 100, ClientSizes::Uniform { low: 83, high: 131 }),
            Scale::Default => (120, 100, ClientSizes::Uniform { low: 30, high: 52 }),
            Scale::Smoke => (16, 10, ClientSizes::Uniform { low: 10, high: 20 }),
        };
        DatasetSpec {
            name: "cifar10-like".into(),
            num_train_clients: train,
            num_val_clients: val,
            client_sizes: sizes,
            task: TaskConfig::Classification(ClassificationConfig {
                num_classes: 10,
                feature_dim: 16,
                class_separation: 1.1,
                feature_noise: 1.8,
                label_noise: 0.02,
                label_alpha: 0.1,
                client_shift_std: 0.35,
            }),
        }
    }

    fn femnist_like(scale: Scale) -> Self {
        let (train, val, sizes) = match scale {
            Scale::Paper => (
                3507,
                360,
                ClientSizes::LogNormal {
                    mean: 203.0,
                    min: 19,
                    max: 393,
                    sigma: 0.5,
                },
            ),
            Scale::Default => (
                300,
                120,
                ClientSizes::LogNormal {
                    mean: 30.0,
                    min: 8,
                    max: 90,
                    sigma: 0.5,
                },
            ),
            Scale::Smoke => (16, 10, ClientSizes::Uniform { low: 8, high: 16 }),
        };
        DatasetSpec {
            name: "femnist-like".into(),
            num_train_clients: train,
            num_val_clients: val,
            client_sizes: sizes,
            task: TaskConfig::Classification(ClassificationConfig {
                num_classes: 20,
                feature_dim: 24,
                class_separation: 1.6,
                feature_noise: 1.3,
                label_noise: 0.02,
                label_alpha: 0.3,
                client_shift_std: 0.5,
            }),
        }
    }

    fn stackoverflow_like(scale: Scale) -> Self {
        let (train, val, sizes) = match scale {
            Scale::Paper => (
                10_815,
                3_678,
                ClientSizes::LogNormal {
                    mean: 391.0,
                    min: 1,
                    max: 20_000,
                    sigma: 1.8,
                },
            ),
            Scale::Default => (
                400,
                360,
                ClientSizes::LogNormal {
                    mean: 40.0,
                    min: 1,
                    max: 2_000,
                    sigma: 1.5,
                },
            ),
            Scale::Smoke => (16, 10, ClientSizes::Uniform { low: 10, high: 25 }),
        };
        DatasetSpec {
            name: "stackoverflow-like".into(),
            num_train_clients: train,
            num_val_clients: val,
            client_sizes: sizes,
            task: TaskConfig::Language(LanguageConfig {
                vocab_size: 64,
                num_topics: 8,
                transition_alpha: 0.05,
                client_topic_alpha: 0.4,
            }),
        }
    }

    fn reddit_like(scale: Scale) -> Self {
        let (train, val, sizes) = match scale {
            Scale::Paper => (
                40_000,
                9_928,
                ClientSizes::LogNormal {
                    mean: 19.0,
                    min: 1,
                    max: 14_440,
                    sigma: 1.6,
                },
            ),
            Scale::Default => (
                600,
                500,
                ClientSizes::LogNormal {
                    mean: 12.0,
                    min: 1,
                    max: 500,
                    sigma: 1.4,
                },
            ),
            Scale::Smoke => (16, 10, ClientSizes::Uniform { low: 5, high: 15 }),
        };
        DatasetSpec {
            name: "reddit-like".into(),
            num_train_clients: train,
            num_val_clients: val,
            client_sizes: sizes,
            task: TaskConfig::Language(LanguageConfig {
                vocab_size: 48,
                num_topics: 12,
                transition_alpha: 0.1,
                client_topic_alpha: 0.2,
            }),
        }
    }

    /// Task family of this spec.
    pub fn task_kind(&self) -> Task {
        match self.task {
            TaskConfig::Classification(_) => Task::DenseClassification,
            TaskConfig::Language(_) => Task::NextTokenPrediction,
        }
    }

    /// Number of output classes (or vocabulary size).
    pub fn num_classes(&self) -> usize {
        match &self.task {
            TaskConfig::Classification(c) => c.num_classes,
            TaskConfig::Language(l) => l.vocab_size,
        }
    }

    /// Input dimensionality (dense feature dim, or vocabulary size for tokens).
    pub fn input_dim(&self) -> usize {
        match &self.task {
            TaskConfig::Classification(c) => c.feature_dim,
            TaskConfig::Language(l) => l.vocab_size,
        }
    }

    /// Generates the federated dataset deterministically from `seed`.
    ///
    /// The same `(spec, seed)` pair always produces the same dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if any spec parameter is invalid.
    pub fn generate(&self, seed: u64) -> Result<FederatedDataset> {
        if self.num_train_clients == 0 || self.num_val_clients == 0 {
            return Err(DataError::InvalidSpec {
                message: "both client pools must be non-empty".into(),
            });
        }
        let mut seeds = SeedStream::new(seed);
        let mut world_rng = seeds.next_rng();
        let mut size_rng = seeds.next_rng();
        let mut train_rng = seeds.next_rng();
        let mut val_rng = seeds.next_rng();

        let train_sizes = self
            .client_sizes
            .sample(&mut size_rng, self.num_train_clients)?;
        let val_sizes = self
            .client_sizes
            .sample(&mut size_rng, self.num_val_clients)?;

        let (train_clients, val_clients) = match &self.task {
            TaskConfig::Classification(cfg) => {
                let world = ClassificationWorld::generate(&mut world_rng, cfg.clone())?;
                (
                    world.generate_clients(&mut train_rng, &train_sizes)?,
                    world.generate_clients(&mut val_rng, &val_sizes)?,
                )
            }
            TaskConfig::Language(cfg) => {
                let world = LanguageWorld::generate(&mut world_rng, cfg.clone())?;
                (
                    world.generate_clients(&mut train_rng, &train_sizes)?,
                    world.generate_clients(&mut val_rng, &val_sizes)?,
                )
            }
        };

        FederatedDataset::new(
            self.name.clone(),
            self.task_kind(),
            self.num_classes(),
            self.input_dim(),
            train_clients,
            val_clients,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Split;
    use crate::example::Input;

    /// Generation reserves exactly what it fills: a shard's examples `Vec`
    /// and every dense feature `Vec` have no spare capacity, which a whole
    /// federation's resident memory would pay for.
    #[test]
    fn generated_clients_carry_no_spare_capacity() {
        for benchmark in [Benchmark::FemnistLike, Benchmark::RedditLike] {
            let spec = DatasetSpec::benchmark(benchmark, Scale::Smoke);
            let mut dataset = spec.generate(3).unwrap();
            for split in [Split::Train, Split::Validation] {
                for client in dataset.clients_mut(split) {
                    let examples = client.examples_mut();
                    assert_eq!(examples.capacity(), examples.len());
                    for example in examples.iter() {
                        if let Input::Dense(features) = &example.input {
                            assert_eq!(features.capacity(), spec.input_dim());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_names_and_tasks() {
        assert_eq!(Benchmark::Cifar10Like.name(), "cifar10-like");
        assert_eq!(Benchmark::RedditLike.to_string(), "reddit-like");
        assert_eq!(Benchmark::Cifar10Like.task(), Task::DenseClassification);
        assert_eq!(
            Benchmark::StackOverflowLike.task(),
            Task::NextTokenPrediction
        );
        assert_eq!(Benchmark::ALL.len(), 4);
    }

    #[test]
    fn smoke_scale_generates_quickly_for_all_benchmarks() {
        for &b in &Benchmark::ALL {
            let spec = DatasetSpec::benchmark(b, Scale::Smoke);
            let d = spec.generate(7).unwrap();
            assert_eq!(d.num_train_clients(), 16);
            assert_eq!(d.num_val_clients(), 10);
            assert_eq!(d.task(), b.task());
            assert!(d.clients(Split::Train).iter().any(|c| c.num_examples() > 0));
            assert_eq!(d.name(), b.name());
        }
    }

    #[test]
    fn default_scale_matches_expected_counts() {
        let spec = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Default);
        assert_eq!(spec.num_train_clients, 120);
        assert_eq!(spec.num_val_clients, 100);
        assert_eq!(spec.num_classes(), 10);
        assert_eq!(spec.input_dim(), 16);

        let spec = DatasetSpec::benchmark(Benchmark::RedditLike, Scale::Default);
        assert_eq!(spec.num_val_clients, 500);
        assert_eq!(spec.num_classes(), 48);
    }

    #[test]
    fn paper_scale_matches_table2_counts() {
        let spec = DatasetSpec::benchmark(Benchmark::FemnistLike, Scale::Paper);
        assert_eq!(spec.num_train_clients, 3507);
        assert_eq!(spec.num_val_clients, 360);
        let spec = DatasetSpec::benchmark(Benchmark::StackOverflowLike, Scale::Paper);
        assert_eq!(spec.num_train_clients, 10_815);
        assert_eq!(spec.num_val_clients, 3_678);
        let spec = DatasetSpec::benchmark(Benchmark::RedditLike, Scale::Paper);
        assert_eq!(spec.num_train_clients, 40_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::benchmark(Benchmark::FemnistLike, Scale::Smoke);
        let d1 = spec.generate(11).unwrap();
        let d2 = spec.generate(11).unwrap();
        assert_eq!(d1, d2);
        let d3 = spec.generate(12).unwrap();
        assert_ne!(d1, d3);
    }

    #[test]
    fn client_sizes_uniform_sampling() {
        let mut rng = fedmath::rng::rng_for(0, 0);
        let sizes = ClientSizes::Uniform { low: 5, high: 10 }
            .sample(&mut rng, 50)
            .unwrap();
        assert_eq!(sizes.len(), 50);
        assert!(sizes.iter().all(|&s| (5..=10).contains(&s)));
        assert!(ClientSizes::Uniform { low: 0, high: 3 }
            .sample(&mut rng, 5)
            .is_err());
        assert!(ClientSizes::Uniform { low: 5, high: 3 }
            .sample(&mut rng, 5)
            .is_err());
        assert!(ClientSizes::Uniform { low: 1, high: 3 }
            .sample(&mut rng, 0)
            .is_err());
    }

    #[test]
    fn client_sizes_lognormal_sampling() {
        let mut rng = fedmath::rng::rng_for(0, 1);
        let sizes = ClientSizes::LogNormal {
            mean: 20.0,
            min: 1,
            max: 200,
            sigma: 1.0,
        }
        .sample(&mut rng, 100)
        .unwrap();
        assert!(sizes.iter().all(|&s| (1..=200).contains(&s)));
    }

    #[test]
    fn scale_default_trait() {
        assert_eq!(Scale::default(), Scale::Default);
    }

    #[test]
    fn long_tail_present_in_default_text_dataset() {
        let spec = DatasetSpec::benchmark(Benchmark::StackOverflowLike, Scale::Default);
        let d = spec.generate(3).unwrap();
        let stats = d.statistics();
        // The generated text dataset must preserve the long-tail property:
        // max client size far above the mean.
        assert!(stats.examples.max as f64 > 4.0 * stats.examples.mean);
    }

    #[test]
    fn spec_rejects_zero_clients() {
        let mut spec = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke);
        spec.num_train_clients = 0;
        assert!(spec.generate(0).is_err());
        let mut spec = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke);
        spec.num_val_clients = 0;
        assert!(spec.generate(0).is_err());
    }
}
