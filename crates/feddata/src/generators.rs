//! Synthetic data generators for the two task families.
//!
//! These generators replace the raw CIFAR10 / FEMNIST / StackOverflow /
//! Reddit data (unavailable in this environment) with synthetic federated
//! datasets whose *structure* matches what the paper's study depends on:
//! heterogeneous clients, realistic client-count and client-size statistics,
//! and HP-sensitive learning problems. See `DESIGN.md` §1 for the full
//! substitution argument.

use crate::client::ClientData;
use crate::example::{Example, Input};
use crate::partition::sample_dirichlet;
use crate::{DataError, Result};
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

/// Parameters for the dense-classification generator (the stand-in for the
/// CIFAR10/FEMNIST image-classification family).
///
/// Each class `c` has a prototype mean vector; each client has a label
/// distribution (drawn from a symmetric Dirichlet with concentration
/// [`label_alpha`](Self::label_alpha)) and a private feature-shift vector
/// ("writer style") with standard deviation
/// [`client_shift_std`](Self::client_shift_std). An example for class `c` on
/// client `k` is `prototype_c + shift_k + N(0, feature_noise²)`, with the
/// label flipped to a uniformly random class with probability
/// [`label_noise`](Self::label_noise).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Dense feature dimensionality.
    pub feature_dim: usize,
    /// Distance scale between class prototype means.
    pub class_separation: f64,
    /// Standard deviation of per-example feature noise.
    pub feature_noise: f64,
    /// Probability of replacing a label with a uniformly random one.
    pub label_noise: f64,
    /// Dirichlet concentration of per-client label distributions
    /// (smaller ⇒ more label skew; the paper uses 0.1 for CIFAR10).
    pub label_alpha: f64,
    /// Standard deviation of the per-client feature shift.
    pub client_shift_std: f64,
}

impl ClassificationConfig {
    fn validate(&self) -> Result<()> {
        if self.num_classes < 2 {
            return Err(DataError::InvalidSpec {
                message: "classification needs at least 2 classes".into(),
            });
        }
        if self.feature_dim == 0 {
            return Err(DataError::InvalidSpec {
                message: "feature dimension must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.label_noise) {
            return Err(DataError::InvalidSpec {
                message: format!("label noise must be in [0,1], got {}", self.label_noise),
            });
        }
        if self.label_alpha <= 0.0 {
            return Err(DataError::InvalidSpec {
                message: "label alpha must be positive".into(),
            });
        }
        if self.feature_noise < 0.0 || self.client_shift_std < 0.0 || self.class_separation < 0.0 {
            return Err(DataError::InvalidSpec {
                message: "noise/shift/separation parameters must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// Parameters for the next-token-prediction generator (the stand-in for the
/// StackOverflow/Reddit language-modelling family).
///
/// The generator builds `num_topics` bigram transition tables (each row drawn
/// from a Dirichlet with concentration [`transition_alpha`](Self::transition_alpha));
/// each client mixes the topics according to a Dirichlet draw with
/// concentration [`client_topic_alpha`](Self::client_topic_alpha) (smaller ⇒
/// more topical heterogeneity between clients). An example is a
/// `(context, next)` token pair sampled from the client's mixed bigram table.
#[derive(Debug, Clone, PartialEq)]
pub struct LanguageConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Number of latent topics shared across the population.
    pub num_topics: usize,
    /// Dirichlet concentration for each topic's transition rows
    /// (smaller ⇒ more predictable next tokens ⇒ lower best-possible error).
    pub transition_alpha: f64,
    /// Dirichlet concentration for per-client topic mixtures
    /// (smaller ⇒ more heterogeneous clients).
    pub client_topic_alpha: f64,
}

impl LanguageConfig {
    fn validate(&self) -> Result<()> {
        if self.vocab_size < 2 {
            return Err(DataError::InvalidSpec {
                message: "vocabulary must have at least 2 tokens".into(),
            });
        }
        if self.num_topics == 0 {
            return Err(DataError::InvalidSpec {
                message: "need at least one topic".into(),
            });
        }
        if self.transition_alpha <= 0.0 || self.client_topic_alpha <= 0.0 {
            return Err(DataError::InvalidSpec {
                message: "Dirichlet concentrations must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Population-level parameters shared by all clients of a classification
/// dataset: the class prototypes. Generating them once and reusing them for
/// both the training and validation pools keeps the two pools drawn from the
/// same underlying task.
#[derive(Debug, Clone)]
pub struct ClassificationWorld {
    prototypes: Vec<Vec<f64>>,
    config: ClassificationConfig,
}

impl ClassificationWorld {
    /// Samples the class prototypes for a classification task.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the configuration is invalid.
    pub fn generate(rng: &mut impl Rng, config: ClassificationConfig) -> Result<Self> {
        config.validate()?;
        let prototypes = (0..config.num_classes)
            .map(|_| {
                (0..config.feature_dim)
                    .map(|_| StandardNormal.sample(rng) * config.class_separation)
                    .collect()
            })
            .collect();
        Ok(ClassificationWorld { prototypes, config })
    }

    /// The generator configuration.
    pub fn config(&self) -> &ClassificationConfig {
        &self.config
    }

    /// Class prototype mean vectors (`num_classes` × `feature_dim`).
    pub fn prototypes(&self) -> &[Vec<f64>] {
        &self.prototypes
    }

    /// Materializes the shard of a single client **positionally**: the
    /// result is a pure function of `(tree seed, id, size)` — it never
    /// depends on which other clients were generated, or in what order. This
    /// is the primitive behind lazy million-client populations: any one
    /// client of a virtual pool can be synthesized on demand in O(size).
    ///
    /// This is [`client_into`](Self::client_into) on empty storage, so the
    /// shard holds exactly `size` examples of exactly `feature_dim` features
    /// each, with no spare capacity.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `size == 0`.
    pub fn client_at(&self, tree: &fedmath::SeedTree, id: u64, size: usize) -> Result<ClientData> {
        let mut client = ClientData::new(id as usize, Vec::new());
        self.client_into(tree, id, size, &mut client)?;
        Ok(client)
    }

    /// Overwrites `storage` with the shard [`client_at`](Self::client_at)
    /// returns, reusing its examples `Vec` and each example's feature `Vec`
    /// instead of allocating new ones. The draws are the same, in the same
    /// order, and every element is overwritten, so what `storage` held before
    /// cannot show in the result.
    ///
    /// The client draws its own label distribution (Dirichlet
    /// `label_alpha`) and private feature shift from the RNG at
    /// `tree.child(id)`, then samples `size` examples.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `size == 0`, leaving `storage`
    /// untouched.
    pub fn client_into(
        &self,
        tree: &fedmath::SeedTree,
        id: u64,
        size: usize,
        storage: &mut ClientData,
    ) -> Result<()> {
        let cfg = &self.config;
        let mut rng = tree.child(id).rng();
        let label_dist = sample_dirichlet(&mut rng, cfg.num_classes, cfg.label_alpha)?;
        let shift: Vec<f64> = (0..cfg.feature_dim)
            .map(|_| StandardNormal.sample(&mut rng) * cfg.client_shift_std)
            .collect();
        refill(storage, id, size, |old| {
            let true_class = fedmath::rng::sample_categorical(&mut rng, &label_dist);
            let mut features = match old.map(|e| &mut e.input) {
                Some(Input::Dense(features)) => std::mem::take(features),
                _ => Vec::new(),
            };
            features.clear();
            features.reserve_exact(cfg.feature_dim);
            features.extend((0..cfg.feature_dim).map(|d| {
                self.prototypes[true_class][d]
                    + shift[d]
                    + StandardNormal.sample(&mut rng) * cfg.feature_noise
            }));
            let label = if rng.gen::<f64>() < cfg.label_noise {
                rng.gen_range(0..cfg.num_classes)
            } else {
                true_class
            };
            Example::dense(features, label)
        })
    }

    /// Generates one client pool with the given per-client example counts.
    ///
    /// Each client draws its own label distribution and feature shift, so the
    /// resulting pool is naturally non-iid; the degree of label skew is
    /// controlled by `label_alpha` in the configuration. Clients are
    /// materialized positionally via [`client_at`](Self::client_at) below a
    /// root derived from `rng`, so an eagerly generated pool is exactly what
    /// a lazy population would materialize client by client. That is what
    /// lets the pool fan out over every available core and still come back
    /// bit-identical, in id order, at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `sizes` is empty or contains zero.
    pub fn generate_clients(&self, rng: &mut impl Rng, sizes: &[usize]) -> Result<Vec<ClientData>> {
        let tree = pool_root(rng, sizes)?;
        positional_pool(fedmath::par::available_threads(), sizes, |id, n| {
            self.client_at(&tree, id, n)
        })
    }
}

/// Population-level parameters shared by all clients of a language dataset:
/// the per-topic bigram transition tables and the global context-token
/// distribution.
#[derive(Debug, Clone)]
pub struct LanguageWorld {
    /// `num_topics` tables, each `vocab_size` rows of `vocab_size` probabilities.
    topic_transitions: Vec<Vec<Vec<f64>>>,
    context_distribution: Vec<f64>,
    config: LanguageConfig,
}

impl LanguageWorld {
    /// Samples the shared topic structure for a language-modelling task.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the configuration is invalid.
    pub fn generate(rng: &mut impl Rng, config: LanguageConfig) -> Result<Self> {
        config.validate()?;
        let mut topic_transitions = Vec::with_capacity(config.num_topics);
        for _ in 0..config.num_topics {
            let mut rows = Vec::with_capacity(config.vocab_size);
            for _ in 0..config.vocab_size {
                rows.push(sample_dirichlet(
                    rng,
                    config.vocab_size,
                    config.transition_alpha,
                )?);
            }
            topic_transitions.push(rows);
        }
        // Context tokens follow a mildly skewed (Zipf-like) global distribution.
        let weights: Vec<f64> = (0..config.vocab_size)
            .map(|i| 1.0 / (i as f64 + 1.0).sqrt())
            .collect();
        let context_distribution = fedmath::rng::normalize_probabilities(&weights)?;
        Ok(LanguageWorld {
            topic_transitions,
            context_distribution,
            config,
        })
    }

    /// The generator configuration.
    pub fn config(&self) -> &LanguageConfig {
        &self.config
    }

    /// Materializes the shard of a single client **positionally** — a pure
    /// function of `(tree seed, id, size)`, independent of every other
    /// client. See [`ClassificationWorld::client_at`] for the contract; this
    /// is [`client_into`](Self::client_into) on empty storage.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `size == 0`.
    pub fn client_at(&self, tree: &fedmath::SeedTree, id: u64, size: usize) -> Result<ClientData> {
        let mut client = ClientData::new(id as usize, Vec::new());
        self.client_into(tree, id, size, &mut client)?;
        Ok(client)
    }

    /// Overwrites `storage` with the shard [`client_at`](Self::client_at)
    /// returns, reusing its examples `Vec` (see
    /// [`ClassificationWorld::client_into`]).
    ///
    /// The client draws its private topic mixture from the RNG at
    /// `tree.child(id)`, then samples `size` `(context, next)` pairs from
    /// its mixed bigram table.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `size == 0`, leaving `storage`
    /// untouched.
    pub fn client_into(
        &self,
        tree: &fedmath::SeedTree,
        id: u64,
        size: usize,
        storage: &mut ClientData,
    ) -> Result<()> {
        let cfg = &self.config;
        let mut rng = tree.child(id).rng();
        let topic_mixture = sample_dirichlet(&mut rng, cfg.num_topics, cfg.client_topic_alpha)?;
        refill(storage, id, size, |_| {
            let context = fedmath::rng::sample_categorical(&mut rng, &self.context_distribution);
            let topic = fedmath::rng::sample_categorical(&mut rng, &topic_mixture);
            let next =
                fedmath::rng::sample_categorical(&mut rng, &self.topic_transitions[topic][context]);
            Example::token(context, next)
        })
    }

    /// Generates one client pool with the given per-client example counts,
    /// materialized positionally via [`client_at`](Self::client_at) below a
    /// root derived from `rng` and fanned out over every available core (see
    /// [`ClassificationWorld::generate_clients`]).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if `sizes` is empty or contains zero.
    pub fn generate_clients(&self, rng: &mut impl Rng, sizes: &[usize]) -> Result<Vec<ClientData>> {
        let tree = pool_root(rng, sizes)?;
        positional_pool(fedmath::par::available_threads(), sizes, |id, n| {
            self.client_at(&tree, id, n)
        })
    }
}

/// Makes `storage` client `id` with the `size` examples `example` returns, in
/// order. Each call gets the example `storage` held at that position, if any,
/// to take its buffers from. Empty storage gets exactly `size` slots.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if `size == 0`, leaving `storage`
/// untouched.
fn refill(
    storage: &mut ClientData,
    id: u64,
    size: usize,
    mut example: impl FnMut(Option<&mut Example>) -> Example,
) -> Result<()> {
    if size == 0 {
        return Err(DataError::InvalidSpec {
            message: "every client must have at least one example".into(),
        });
    }
    let mut examples = std::mem::take(storage.examples_mut());
    examples.truncate(size);
    examples.reserve_exact(size - examples.len());
    for i in 0..size {
        let next = example(examples.get_mut(i));
        match examples.get_mut(i) {
            Some(slot) => *slot = next,
            None => examples.push(next),
        }
    }
    *storage = ClientData::new(id as usize, examples);
    Ok(())
}

/// The root a pool's clients are materialized below: one draw from `rng`.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if `sizes` is empty.
fn pool_root(rng: &mut impl Rng, sizes: &[usize]) -> Result<fedmath::SeedTree> {
    if sizes.is_empty() {
        return Err(DataError::InvalidSpec {
            message: "need at least one client size".into(),
        });
    }
    Ok(fedmath::SeedTree::new(rng.gen()))
}

/// Materializes client `id` of size `sizes[id]` for every id, fanned out over
/// `threads` through [`fedmath::par::map_range`] and stitched back in id
/// order. Each client is a pure function of its id and size, so the pool is
/// the sequential loop's at any thread count, and so is its error: the
/// lowest failing id's, with no partial pool.
///
/// Generation takes no execution policy: its output cannot depend on the
/// thread count, and it runs before any trial fans out, never inside one.
fn positional_pool(
    threads: usize,
    sizes: &[usize],
    client: impl Fn(u64, usize) -> Result<ClientData> + Sync,
) -> Result<Vec<ClientData>> {
    fedmath::par::map_range(threads, sizes.len(), |id| client(id as u64, sizes[id]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::label_heterogeneity;
    use fedmath::rng::rng_for;

    fn classification_config() -> ClassificationConfig {
        ClassificationConfig {
            num_classes: 5,
            feature_dim: 8,
            class_separation: 2.0,
            feature_noise: 1.0,
            label_noise: 0.05,
            label_alpha: 0.1,
            client_shift_std: 0.3,
        }
    }

    fn language_config() -> LanguageConfig {
        LanguageConfig {
            vocab_size: 16,
            num_topics: 4,
            transition_alpha: 0.2,
            client_topic_alpha: 0.3,
        }
    }

    #[test]
    fn classification_world_shapes() {
        let mut rng = rng_for(0, 0);
        let world = ClassificationWorld::generate(&mut rng, classification_config()).unwrap();
        assert_eq!(world.prototypes().len(), 5);
        assert_eq!(world.prototypes()[0].len(), 8);
        assert_eq!(world.config().num_classes, 5);
    }

    #[test]
    fn classification_clients_have_requested_sizes() {
        let mut rng = rng_for(0, 1);
        let world = ClassificationWorld::generate(&mut rng, classification_config()).unwrap();
        let sizes = vec![3, 7, 11];
        let clients = world.generate_clients(&mut rng, &sizes).unwrap();
        assert_eq!(clients.len(), 3);
        for (c, &s) in clients.iter().zip(sizes.iter()) {
            assert_eq!(c.num_examples(), s);
            for e in c.examples() {
                assert!(matches!(&e.input, Input::Dense(v) if v.len() == 8));
                assert!(e.label < 5);
            }
        }
    }

    #[test]
    fn small_label_alpha_gives_heterogeneous_clients() {
        let mut rng = rng_for(0, 2);
        let mut skewed_cfg = classification_config();
        skewed_cfg.label_alpha = 0.05;
        skewed_cfg.label_noise = 0.0;
        let mut iid_cfg = classification_config();
        iid_cfg.label_alpha = 100.0;
        iid_cfg.label_noise = 0.0;

        let world_skewed = ClassificationWorld::generate(&mut rng, skewed_cfg).unwrap();
        let world_iid = ClassificationWorld::generate(&mut rng, iid_cfg).unwrap();
        let sizes = vec![60; 25];
        let skewed = world_skewed.generate_clients(&mut rng, &sizes).unwrap();
        let iid = world_iid.generate_clients(&mut rng, &sizes).unwrap();
        let h_skewed = label_heterogeneity(&skewed, 5);
        let h_iid = label_heterogeneity(&iid, 5);
        assert!(
            h_skewed > h_iid + 0.15,
            "expected skewed ({h_skewed}) >> iid ({h_iid})"
        );
    }

    #[test]
    fn classification_validation() {
        let mut rng = rng_for(0, 3);
        let mut bad = classification_config();
        bad.num_classes = 1;
        assert!(ClassificationWorld::generate(&mut rng, bad).is_err());
        let mut bad = classification_config();
        bad.feature_dim = 0;
        assert!(ClassificationWorld::generate(&mut rng, bad).is_err());
        let mut bad = classification_config();
        bad.label_noise = 1.5;
        assert!(ClassificationWorld::generate(&mut rng, bad).is_err());
        let mut bad = classification_config();
        bad.label_alpha = 0.0;
        assert!(ClassificationWorld::generate(&mut rng, bad).is_err());
        let mut bad = classification_config();
        bad.feature_noise = -1.0;
        assert!(ClassificationWorld::generate(&mut rng, bad).is_err());

        let world = ClassificationWorld::generate(&mut rng, classification_config()).unwrap();
        assert!(world.generate_clients(&mut rng, &[]).is_err());
        assert!(world.generate_clients(&mut rng, &[3, 0]).is_err());
    }

    #[test]
    fn language_world_generates_valid_token_pairs() {
        let mut rng = rng_for(1, 0);
        let world = LanguageWorld::generate(&mut rng, language_config()).unwrap();
        let clients = world.generate_clients(&mut rng, &[20, 5]).unwrap();
        assert_eq!(clients.len(), 2);
        for c in &clients {
            for e in c.examples() {
                assert!(matches!(e.input, Input::Token(context) if context < 16));
                assert!(e.label < 16);
            }
        }
    }

    #[test]
    fn language_validation() {
        let mut rng = rng_for(1, 1);
        let mut bad = language_config();
        bad.vocab_size = 1;
        assert!(LanguageWorld::generate(&mut rng, bad).is_err());
        let mut bad = language_config();
        bad.num_topics = 0;
        assert!(LanguageWorld::generate(&mut rng, bad).is_err());
        let mut bad = language_config();
        bad.transition_alpha = 0.0;
        assert!(LanguageWorld::generate(&mut rng, bad).is_err());
        let mut bad = language_config();
        bad.client_topic_alpha = -1.0;
        assert!(LanguageWorld::generate(&mut rng, bad).is_err());

        let world = LanguageWorld::generate(&mut rng, language_config()).unwrap();
        assert!(world.generate_clients(&mut rng, &[]).is_err());
        assert!(world.generate_clients(&mut rng, &[0]).is_err());
    }

    #[test]
    fn language_clients_differ_in_topic_usage() {
        // With a small client_topic_alpha two clients should have visibly
        // different next-token histograms for the same context.
        let mut rng = rng_for(1, 2);
        let mut cfg = language_config();
        cfg.client_topic_alpha = 0.05;
        cfg.transition_alpha = 0.05;
        let world = LanguageWorld::generate(&mut rng, cfg).unwrap();
        let clients = world.generate_clients(&mut rng, &[400, 400]).unwrap();
        let hist = |c: &ClientData| {
            let mut h = vec![0usize; 16];
            for e in c.examples() {
                h[e.label] += 1;
            }
            h
        };
        let h0 = hist(&clients[0]);
        let h1 = hist(&clients[1]);
        let tv: f64 = h0
            .iter()
            .zip(h1.iter())
            .map(|(&a, &b)| (a as f64 / 400.0 - b as f64 / 400.0).abs())
            .sum::<f64>()
            / 2.0;
        assert!(
            tv > 0.05,
            "expected clients to differ, TV distance was {tv}"
        );
    }

    #[test]
    fn client_at_is_positional_and_order_invariant() {
        let mut rng = rng_for(12, 0);
        let world = ClassificationWorld::generate(&mut rng, classification_config()).unwrap();
        let tree = fedmath::SeedTree::new(999);
        // Materializing id 7 directly, after its neighbours, or twice gives
        // bit-identical shards.
        let direct = world.client_at(&tree, 7, 15).unwrap();
        let _ = world.client_at(&tree, 0, 5).unwrap();
        let _ = world.client_at(&tree, 31, 9).unwrap();
        let again = world.client_at(&tree, 7, 15).unwrap();
        assert_eq!(direct, again);
        assert_eq!(direct.id(), 7);
        assert_eq!(direct.num_examples(), 15);
        assert!(world.client_at(&tree, 3, 0).is_err());

        let mut rng = rng_for(12, 1);
        let lang = LanguageWorld::generate(&mut rng, language_config()).unwrap();
        let direct = lang.client_at(&tree, 11, 8).unwrap();
        let _ = lang.client_at(&tree, 2, 3).unwrap();
        let again = lang.client_at(&tree, 11, 8).unwrap();
        assert_eq!(direct, again);
        assert!(lang.client_at(&tree, 11, 0).is_err());
    }

    #[test]
    fn client_into_ignores_what_the_storage_held() {
        let tree = fedmath::SeedTree::new(77);
        let dense =
            ClassificationWorld::generate(&mut rng_for(14, 0), classification_config()).unwrap();
        let tokens = LanguageWorld::generate(&mut rng_for(14, 1), language_config()).unwrap();
        // Storage of the other task family, longer and shorter than the
        // target, and a dense client of another feature width.
        let mut wide = classification_config();
        wide.feature_dim += 5;
        let wide = ClassificationWorld::generate(&mut rng_for(14, 2), wide).unwrap();
        let donors = || {
            [
                tokens.client_at(&tree, 1, 40).unwrap(),
                tokens.client_at(&tree, 2, 3).unwrap(),
                wide.client_at(&tree, 3, 12).unwrap(),
                dense.client_at(&tree, 4, 12).unwrap(),
            ]
        };
        let expected = dense.client_at(&tree, 9, 12).unwrap();
        for mut storage in donors() {
            dense.client_into(&tree, 9, 12, &mut storage).unwrap();
            assert_eq!(storage, expected);
        }
        let expected = tokens.client_at(&tree, 9, 20).unwrap();
        for mut storage in donors() {
            tokens.client_into(&tree, 9, 20, &mut storage).unwrap();
            assert_eq!(storage, expected);
        }
        // A refused size leaves the storage as it was.
        let mut storage = dense.client_at(&tree, 4, 12).unwrap();
        assert!(dense.client_into(&tree, 9, 0, &mut storage).is_err());
        assert_eq!(storage, dense.client_at(&tree, 4, 12).unwrap());
    }

    #[test]
    fn eager_pool_matches_lazy_per_client_materialization() {
        // generate_clients must produce exactly what client-by-client
        // materialization below the same root would — the eager path is the
        // lazy path, fused and fanned out — for both worlds and at every
        // thread count: one, counts that do and do not divide 37, one per
        // client, and more threads than clients. 37 clients, so no chunk
        // boundary lines up with a thread count but 1 and 37.
        type Client<'a> = &'a (dyn Fn(u64, usize) -> Result<ClientData> + Sync);
        let check = |sizes: &[usize], client: Client<'_>, expected: Result<Vec<ClientData>>| {
            let sequential: Result<Vec<_>> = (0..sizes.len())
                .map(|id| client(id as u64, sizes[id]))
                .collect();
            assert_eq!(sequential, expected);
            for threads in [1, 2, 3, 4, 5, 8, 37, 64] {
                let pool = positional_pool(threads, sizes, client);
                assert_eq!(pool, expected, "threads = {threads}");
            }
            expected
        };
        let mut sizes: Vec<usize> = (0..37).map(|id| 1 + (id * 7) % 11).collect();
        let tree = fedmath::SeedTree::new(rand::Rng::gen::<u64>(&mut rng_for(13, 1)));
        let mut rng = rng_for(13, 0);
        let world = ClassificationWorld::generate(&mut rng, classification_config()).unwrap();
        let lang = LanguageWorld::generate(&mut rng, language_config()).unwrap();
        let classification = |id, n| world.client_at(&tree, id, n);
        let language = |id, n| lang.client_at(&tree, id, n);

        let eager = world.generate_clients(&mut rng_for(13, 1), &sizes);
        let pool = check(&sizes, &classification, eager).unwrap();
        let ids: Vec<usize> = pool.iter().map(ClientData::id).collect();
        assert_eq!(ids, (0..37).collect::<Vec<_>>());
        let eager = lang.generate_clients(&mut rng_for(13, 1), &sizes);
        check(&sizes, &language, eager).unwrap();

        // A zero size at id 30: the sequential loop's InvalidSpec and no
        // partial pool, at every thread count.
        sizes[30] = 0;
        let eager = world.generate_clients(&mut rng_for(13, 1), &sizes);
        let error = check(&sizes, &classification, eager).unwrap_err();
        assert!(matches!(error, DataError::InvalidSpec { .. }));
        let eager = lang.generate_clients(&mut rng_for(13, 1), &sizes);
        assert_eq!(check(&sizes, &language, eager), Err(error));
        // Two failing ids, in different chunks at most thread counts: the
        // lower id's error wins, as in the sequential loop.
        let failing = |id: u64, n: usize| match id {
            30 | 36 => Err(DataError::InvalidSpec {
                message: format!("client {id}"),
            }),
            _ => world.client_at(&tree, id, n),
        };
        let first = Err(DataError::InvalidSpec {
            message: "client 30".into(),
        });
        check(&sizes, &failing, first).unwrap_err();
    }

    #[test]
    fn worlds_are_reproducible_for_same_seed() {
        let cfg = classification_config();
        let mut rng1 = rng_for(9, 0);
        let mut rng2 = rng_for(9, 0);
        let w1 = ClassificationWorld::generate(&mut rng1, cfg.clone()).unwrap();
        let w2 = ClassificationWorld::generate(&mut rng2, cfg).unwrap();
        assert_eq!(w1.prototypes(), w2.prototypes());
        let c1 = w1.generate_clients(&mut rng1, &[5, 5]).unwrap();
        let c2 = w2.generate_clients(&mut rng2, &[5, 5]).unwrap();
        assert_eq!(c1, c2);
    }
}
