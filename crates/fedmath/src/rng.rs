//! Deterministic, splittable randomness and client-sampling utilities.
//!
//! Every stochastic component of the reproduction (data generation, client
//! subsampling, DP noise, HPO sampling) draws from a seeded
//! [`rand::rngs::StdRng`]. [`SeedStream`] derives independent child seeds from
//! a root seed so that, e.g., trial 17 of an experiment is reproducible
//! regardless of how many random draws trial 16 consumed.
//!
//! The sampling-without-replacement helpers implement the client-selection
//! step of Algorithm 2 in the paper: both the uniform variant used for
//! training/evaluation rounds and the weighted variant used to model systems
//! heterogeneity (§3.2, bias `(a + δ)^b`).

use crate::{MathError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Derives independent child seeds (and RNGs) from a root seed.
///
/// # Example
///
/// ```
/// use fedmath::SeedStream;
///
/// let mut stream = SeedStream::new(42);
/// let a = stream.next_seed();
/// let b = stream.next_seed();
/// assert_ne!(a, b);
///
/// // The same root seed always yields the same children.
/// let mut again = SeedStream::new(42);
/// assert_eq!(again.next_seed(), a);
/// assert_eq!(again.next_seed(), b);
/// ```
#[derive(Debug, Clone)]
pub struct SeedStream {
    root: u64,
    counter: u64,
}

impl SeedStream {
    /// Creates a stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream {
            root: seed,
            counter: 0,
        }
    }

    /// Returns the next derived seed.
    pub fn next_seed(&mut self) -> u64 {
        let seed = derive_seed(self.root, self.counter);
        self.counter += 1;
        seed
    }

    /// Returns an RNG seeded with the next derived seed.
    pub fn next_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_seed())
    }

    /// Returns a child stream rooted at the next derived seed.
    pub fn child(&mut self) -> SeedStream {
        SeedStream::new(self.next_seed())
    }

    /// The root seed this stream was created with.
    pub fn root(&self) -> u64 {
        self.root
    }
}

/// A node in a hierarchical seed tree.
///
/// Where [`SeedStream`] hands out seeds in *consumption order* (seed `n`
/// depends on how many seeds were drawn before it), a `SeedTree` derives
/// seeds purely from *position*: the seed of `tree.child(a).child(b)` depends
/// only on the root and the path `[a, b]`, never on what else was derived or
/// in which order. This is the property that makes parallel execution
/// bit-identical to sequential execution — every entity (round, client slot,
/// trial, noise draw) gets an RNG keyed by its coordinates, so iteration
/// order cannot leak into the randomness.
///
/// # Example
///
/// ```
/// use fedmath::SeedTree;
///
/// let tree = SeedTree::new(42);
/// // Deriving in any order yields the same seeds.
/// let a_then_b = (tree.child(0).seed(), tree.child(1).seed());
/// let b_then_a = (tree.child(1).seed(), tree.child(0).seed());
/// assert_eq!(a_then_b.0, b_then_a.1);
/// assert_eq!(a_then_b.1, b_then_a.0);
/// // Paths address nested entities: round 3, client slot 7.
/// assert_eq!(tree.derive(&[3, 7]).seed(), tree.child(3).child(7).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    seed: u64,
}

impl SeedTree {
    /// Creates a tree rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedTree { seed }
    }

    /// The seed at this node.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The child node at `index`.
    #[must_use]
    pub fn child(&self, index: u64) -> SeedTree {
        SeedTree {
            seed: derive_seed(self.seed, index),
        }
    }

    /// The descendant node addressed by `path` (successive child indices).
    #[must_use]
    pub fn derive(&self, path: &[u64]) -> SeedTree {
        path.iter().fold(*self, |node, &index| node.child(index))
    }

    /// An RNG seeded at this node.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// A [`SeedStream`] rooted at this node, for call sites that still want
    /// consumption-order seeds below a positional prefix.
    pub fn stream(&self) -> SeedStream {
        SeedStream::new(self.seed)
    }
}

/// Derives a child seed from `(root, index)` using the SplitMix64 finalizer.
///
/// Deterministic and stable across platforms; used so that experiment
/// components (dataset, trial, round) can be keyed by integer indices.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates an RNG from a root seed and an index, via [`derive_seed`].
pub fn rng_for(root: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(root, index))
}

/// Samples `count` distinct ids uniformly at random from `0..population`,
/// without replacement (Algorithm 2's client-selection step), in O(count)
/// time and memory whatever the population size.
///
/// This is a partial Fisher–Yates shuffle of the virtual array
/// `0..population`: step `i` swaps position `i` with a uniform position
/// `j ∈ [i, population)` and emits what `j` held. Only displaced positions
/// are stored, so a cohort of a million-client population costs as much as
/// one of a few thousand. The ids come out in random order; the draws are
/// exactly those of shuffling a dense index vector (`count` calls of
/// `gen_range(i..population)`), so the output and the RNG state after it
/// match the dense shuffle bit for bit.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `count > population` or
/// `count == 0`.
pub fn sample_without_replacement(
    rng: &mut impl Rng,
    population: u64,
    count: usize,
) -> Result<Vec<u64>> {
    if count == 0 {
        return Err(MathError::InvalidArgument {
            message: "cannot sample 0 elements".into(),
        });
    }
    if count as u64 > population {
        return Err(MathError::InvalidArgument {
            message: format!("cannot sample {count} from population of {population}"),
        });
    }
    // What each displaced position holds now; a position not in the map
    // still holds its own id.
    let mut displaced: HashMap<u64, u64, BuildHasherDefault<IdHasher>> =
        HashMap::with_capacity_and_hasher(count, Default::default());
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let j = rng.gen_range(i..population);
        let at_i = displaced.get(&i).copied().unwrap_or(i);
        out.push(displaced.insert(j, at_i).unwrap_or(j));
    }
    Ok(out)
}

/// A multiplicative hasher for the `u64` positions of
/// [`sample_without_replacement`]: std's SipHash would double the draw's
/// cost, and the keys are uniform draws, not attacker input.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Samples `count` distinct indices without replacement with probability
/// proportional to `weights` (successive draws renormalise over the remaining
/// items). This models systems heterogeneity: clients with larger weights
/// (better accuracy under the paper's `(a + δ)^b` scheme) participate more
/// often.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `count` is zero or larger than
/// the number of strictly-positive weights, or if any weight is negative or
/// non-finite.
pub fn weighted_sample_without_replacement(
    rng: &mut impl Rng,
    weights: &[f64],
    count: usize,
) -> Result<Vec<usize>> {
    if count == 0 {
        return Err(MathError::InvalidArgument {
            message: "cannot sample 0 elements".into(),
        });
    }
    if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
        return Err(MathError::InvalidArgument {
            message: "weights must be finite and non-negative".into(),
        });
    }
    let positive = weights.iter().filter(|&&w| w > 0.0).count();
    if count > positive {
        return Err(MathError::InvalidArgument {
            message: format!("cannot sample {count} items: only {positive} have positive weight"),
        });
    }
    // Efraimidis-Spirakis reservoir-style keys: item i gets key u^(1/w_i); the
    // `count` largest keys form a without-replacement sample proportional to
    // the weights. Using log-keys avoids underflow for tiny weights (whose
    // keys may still reach −∞).
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0)
        .map(|(i, &w)| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (u.ln() / w, i)
        })
        .collect();
    // Key descending, ties by ascending index: a total order, so selecting
    // the top `count` and sorting only those is the full sort's prefix.
    let order = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if count < keyed.len() {
        keyed.select_nth_unstable_by(count - 1, order);
        keyed.truncate(count);
    }
    keyed.sort_unstable_by(order);
    Ok(keyed.into_iter().map(|(_, i)| i).collect())
}

/// Normalises `weights` into a probability vector.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice and
/// [`MathError::InvalidArgument`] if any weight is negative or all are zero.
pub fn normalize_probabilities(weights: &[f64]) -> Result<Vec<f64>> {
    if weights.is_empty() {
        return Err(MathError::EmptyInput {
            what: "normalize_probabilities",
        });
    }
    if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
        return Err(MathError::InvalidArgument {
            message: "weights must be finite and non-negative".into(),
        });
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Err(MathError::InvalidArgument {
            message: "weights must not all be zero".into(),
        });
    }
    Ok(weights.iter().map(|&w| w / total).collect())
}

/// Draws a single index from the categorical distribution given by
/// `probabilities` (assumed to sum to 1; the last index absorbs rounding).
pub fn sample_categorical(rng: &mut impl Rng, probabilities: &[f64]) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probabilities.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probabilities.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seed_stream_is_deterministic_and_distinct() {
        let mut a = SeedStream::new(7);
        let mut b = SeedStream::new(7);
        let seeds_a: Vec<u64> = (0..10).map(|_| a.next_seed()).collect();
        let seeds_b: Vec<u64> = (0..10).map(|_| b.next_seed()).collect();
        assert_eq!(seeds_a, seeds_b);
        let unique: HashSet<u64> = seeds_a.iter().copied().collect();
        assert_eq!(unique.len(), 10);
        assert_eq!(a.root(), 7);
    }

    #[test]
    fn different_roots_give_different_streams() {
        let mut a = SeedStream::new(1);
        let mut b = SeedStream::new(2);
        assert_ne!(a.next_seed(), b.next_seed());
    }

    #[test]
    fn child_streams_are_independent() {
        let mut parent = SeedStream::new(99);
        let mut c1 = parent.child();
        let mut c2 = parent.child();
        assert_ne!(c1.next_seed(), c2.next_seed());
    }

    #[test]
    fn seed_tree_is_positional_not_ordered() {
        let tree = SeedTree::new(7);
        // Same position, same seed — regardless of derivation order.
        let forward: Vec<u64> = (0..8).map(|i| tree.child(i).seed()).collect();
        let backward: Vec<u64> = (0..8).rev().map(|i| tree.child(i).seed()).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Distinct positions give distinct seeds.
        let unique: HashSet<u64> = forward.iter().copied().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn seed_tree_paths_compose() {
        let tree = SeedTree::new(123);
        assert_eq!(tree.derive(&[4, 2]).seed(), tree.child(4).child(2).seed());
        assert_eq!(tree.derive(&[]).seed(), tree.seed());
        // Sibling subtrees do not collide on their children.
        assert_ne!(tree.derive(&[0, 1]).seed(), tree.derive(&[1, 0]).seed());
        // The tree agrees with the free-function derivation.
        assert_eq!(tree.child(9).seed(), derive_seed(123, 9));
    }

    #[test]
    fn seed_tree_rng_and_stream_are_deterministic() {
        let tree = SeedTree::new(5);
        let mut r1 = tree.child(3).rng();
        let mut r2 = tree.child(3).rng();
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        let mut s1 = tree.child(3).stream();
        assert_eq!(s1.root(), tree.child(3).seed());
        assert_ne!(s1.next_seed(), tree.child(3).seed());
    }

    #[test]
    fn derive_seed_depends_on_both_args() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 5), derive_seed(5, 5));
    }

    #[test]
    fn rng_for_is_reproducible() {
        let mut r1 = rng_for(3, 4);
        let mut r2 = rng_for(3, 4);
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn sample_without_replacement_distinct_and_in_range() {
        let mut rng = rng_for(0, 0);
        let s = sample_without_replacement(&mut rng, 100, 30).unwrap();
        assert_eq!(s.len(), 30);
        let unique: HashSet<u64> = s.iter().copied().collect();
        assert_eq!(unique.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
        // A population far too large to enumerate: memory stays O(count).
        let s = sample_without_replacement(&mut rng, 1_000_000_000_000, 64).unwrap();
        let unique: HashSet<u64> = s.iter().copied().collect();
        assert_eq!(unique.len(), 64);
        assert!(s.iter().all(|&i| i < 1_000_000_000_000));
    }

    #[test]
    fn sample_without_replacement_full_population() {
        let mut rng = rng_for(0, 1);
        let s = sample_without_replacement(&mut rng, 10, 10).unwrap();
        let unique: HashSet<u64> = s.iter().copied().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn sample_without_replacement_validation() {
        let mut rng = rng_for(0, 2);
        assert!(sample_without_replacement(&mut rng, 5, 6).is_err());
        assert!(sample_without_replacement(&mut rng, 5, 0).is_err());
    }

    /// The dense partial Fisher–Yates the sparse draw replaced: shuffle
    /// the first `count` slots of the whole index vector.
    fn dense_reference(rng: &mut StdRng, population: usize, count: usize) -> Vec<u64> {
        use rand::seq::SliceRandom;
        let mut indices: Vec<usize> = (0..population).collect();
        let (sampled, _) = indices.partial_shuffle(rng, count);
        sampled.iter().map(|&i| i as u64).collect()
    }

    #[test]
    fn the_sparse_draw_is_the_dense_shuffle_bit_for_bit() {
        use rand::RngCore;
        let shapes = [
            (1, 1),
            (10, 10),
            (360, 4),
            (360, 97),
            (3507, 50),
            (1000, 999),
        ];
        for seed in 0..200 {
            for (index, &(population, count)) in shapes.iter().enumerate() {
                let (mut sparse, mut dense) =
                    (rng_for(seed, index as u64), rng_for(seed, index as u64));
                assert_eq!(
                    sample_without_replacement(&mut sparse, population as u64, count).unwrap(),
                    dense_reference(&mut dense, population, count),
                    "seed {seed}, {count} of {population}"
                );
                assert_eq!(
                    sparse.next_u64(),
                    dense.next_u64(),
                    "seed {seed}, {count} of {population}"
                );
            }
        }
    }

    #[test]
    fn uniform_sampling_is_roughly_uniform() {
        // Each of 10 ids should appear in a 2-of-10 sample with frequency
        // 0.2; allow a generous tolerance over 3000 draws.
        let mut rng = rng_for(9, 2);
        let mut counts = [0usize; 10];
        let trials = 3000;
        for _ in 0..trials {
            for id in sample_without_replacement(&mut rng, 10, 2).unwrap() {
                counts[id as usize] += 1;
            }
        }
        for (id, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - 0.2).abs() < 0.06,
                "id {id} frequency was {freq}, expected ~0.2"
            );
        }
    }

    #[test]
    fn weighted_sampling_respects_zero_weights() {
        let mut rng = rng_for(1, 0);
        let weights = vec![0.0, 1.0, 0.0, 1.0, 1.0];
        for _ in 0..20 {
            let s = weighted_sample_without_replacement(&mut rng, &weights, 2).unwrap();
            assert!(s.iter().all(|&i| weights[i] > 0.0));
            let unique: HashSet<usize> = s.iter().copied().collect();
            assert_eq!(unique.len(), 2);
        }
    }

    #[test]
    fn weighted_sampling_biases_towards_heavy_items() {
        let mut rng = rng_for(1, 1);
        let weights = vec![10.0, 1.0, 1.0, 1.0];
        let mut count_heavy = 0;
        let trials = 2000;
        for _ in 0..trials {
            let s = weighted_sample_without_replacement(&mut rng, &weights, 1).unwrap();
            if s[0] == 0 {
                count_heavy += 1;
            }
        }
        // Expected frequency 10/13 ~= 0.77; allow wide tolerance.
        let freq = count_heavy as f64 / trials as f64;
        assert!(freq > 0.6, "heavy item frequency was {freq}");
    }

    #[test]
    fn weighted_sampling_selects_the_full_sorts_prefix() {
        // The full stable sort by key, descending, that the draw once paid
        // for every item: the top `count` of it is the sample.
        let oracle = |rng: &mut StdRng, weights: &[f64], count: usize| -> Vec<usize> {
            let mut keyed: Vec<(f64, usize)> = weights
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > 0.0)
                .map(|(i, &w)| (rng.gen_range(f64::MIN_POSITIVE..1.0).ln() / w, i))
                .collect();
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
            keyed.into_iter().take(count).map(|(_, i)| i).collect()
        };
        let shapes: [(&str, Vec<f64>); 4] = [
            ("graded", (1..=60).map(|i| i as f64 / 7.0).collect()),
            ("equal", vec![1.0; 40]),
            // Keys of ln(u) / 1e-310 overflow to −∞ and tie.
            (
                "tiny",
                (0..30)
                    .map(|i| if i % 3 == 0 { 1e-310 } else { 0.5 })
                    .collect(),
            ),
            (
                "sparse",
                (0..50).map(|i| f64::from(i % 4 == 0) * 2.0).collect(),
            ),
        ];
        for (name, weights) in &shapes {
            let positive = weights.iter().filter(|&&w| w > 0.0).count();
            for count in [1, 2, positive / 2, positive - 1, positive] {
                for seed in 0..200 {
                    let mut rng = rng_for(seed, count as u64);
                    let mut reference = rng.clone();
                    let drawn = weighted_sample_without_replacement(&mut rng, weights, count);
                    let expected = oracle(&mut reference, weights, count);
                    assert_eq!(
                        drawn.unwrap(),
                        expected,
                        "{name}, count {count}, seed {seed}"
                    );
                    assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn weighted_sampling_validation() {
        let mut rng = rng_for(1, 2);
        assert!(weighted_sample_without_replacement(&mut rng, &[1.0, -1.0], 1).is_err());
        assert!(weighted_sample_without_replacement(&mut rng, &[0.0, 0.0], 1).is_err());
        assert!(weighted_sample_without_replacement(&mut rng, &[1.0], 0).is_err());
        assert!(weighted_sample_without_replacement(&mut rng, &[1.0, f64::NAN], 1).is_err());
    }

    #[test]
    fn normalize_probabilities_sums_to_one() {
        let p = normalize_probabilities(&[2.0, 6.0]).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(normalize_probabilities(&[]).is_err());
        assert!(normalize_probabilities(&[0.0]).is_err());
        assert!(normalize_probabilities(&[-1.0, 2.0]).is_err());
    }

    #[test]
    fn categorical_sampling_matches_distribution() {
        let mut rng = rng_for(2, 0);
        let p = [0.1, 0.7, 0.2];
        let mut counts = [0usize; 3];
        let n = 5000;
        for _ in 0..n {
            counts[sample_categorical(&mut rng, &p)] += 1;
        }
        let f1 = counts[1] as f64 / n as f64;
        assert!((f1 - 0.7).abs() < 0.05, "frequency of index 1 was {f1}");
    }

    #[test]
    fn categorical_sampling_handles_rounding() {
        let mut rng = rng_for(2, 1);
        // Probabilities that sum slightly below 1 must still return a valid index.
        let p = [0.3, 0.3, 0.3999];
        for _ in 0..100 {
            assert!(sample_categorical(&mut rng, &p) < 3);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_sample_without_replacement_is_a_set(
            seed in any::<u64>(),
            population in 1u64..200,
            frac in 0.01f64..1.0,
        ) {
            let count = ((population as f64 * frac).ceil() as usize).clamp(1, population as usize);
            let mut rng = rng_for(seed, 0);
            let s = sample_without_replacement(&mut rng, population, count).unwrap();
            prop_assert_eq!(s.len(), count);
            let unique: std::collections::HashSet<u64> = s.iter().copied().collect();
            prop_assert_eq!(unique.len(), count);
            prop_assert!(s.iter().all(|&i| i < population));
        }

        #[test]
        fn prop_weighted_sample_unique_and_positive_weight(
            seed in any::<u64>(),
            weights in proptest::collection::vec(0.0f64..10.0, 2..50),
        ) {
            let positive = weights.iter().filter(|&&w| w > 0.0).count();
            prop_assume!(positive >= 1);
            let count = 1 + (seed as usize) % positive;
            let mut rng = rng_for(seed, 1);
            let s = weighted_sample_without_replacement(&mut rng, &weights, count).unwrap();
            prop_assert_eq!(s.len(), count);
            let unique: std::collections::HashSet<usize> = s.iter().copied().collect();
            prop_assert_eq!(unique.len(), count);
            prop_assert!(s.iter().all(|&i| weights[i] > 0.0));
        }

        #[test]
        fn prop_normalized_probabilities_sum_to_one(
            weights in proptest::collection::vec(0.0f64..100.0, 1..64),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let p = normalize_probabilities(&weights).unwrap();
            let total: f64 = p.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }

        #[test]
        fn prop_derived_seeds_are_deterministic(root in any::<u64>(), index in any::<u64>()) {
            prop_assert_eq!(derive_seed(root, index), derive_seed(root, index));
        }
    }
}
