//! The primitives the generators partition clients with — Dirichlet label
//! and topic mixes, long-tailed client sizes — and the iid-refraction
//! repartitioning of the heterogeneity experiments.
//!
//! - [`sample_dirichlet`] draws each generated client's Dir(α) label (or
//!   topic) mix, the paper's label-skew protocol for CIFAR10 (α = 0.1, §3.2).
//! - [`LongTailedSizes`] is what [`crate::spec::ClientSizes::LogNormal`]
//!   compiles to: clamped log-normal client sizes, drawn positionally.
//! - [`repartition_iid_fraction`] is §3.2's knob `p` between a natural
//!   non-iid pool (`p = 0`) and an iid one (`p = 1`).

use crate::client::ClientData;
use crate::example::Example;
use crate::{DataError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Gamma, LogNormal};

/// Samples a probability vector from a symmetric Dirichlet distribution with
/// concentration `alpha` over `dim` categories.
///
/// Implemented via normalised Gamma draws so that very small `alpha`
/// (e.g. the paper's `alpha = 0.1`) is handled robustly.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if `dim == 0` or `alpha <= 0`.
pub fn sample_dirichlet(rng: &mut impl Rng, dim: usize, alpha: f64) -> Result<Vec<f64>> {
    if dim == 0 {
        return Err(DataError::InvalidSpec {
            message: "dirichlet dimension must be positive".into(),
        });
    }
    if alpha <= 0.0 || !alpha.is_finite() {
        return Err(DataError::InvalidSpec {
            message: format!("dirichlet alpha must be positive, got {alpha}"),
        });
    }
    let gamma = Gamma::new(alpha, 1.0).map_err(|e| DataError::InvalidSpec {
        message: format!("invalid gamma parameters: {e}"),
    })?;
    let mut draws: Vec<f64> = (0..dim).map(|_| gamma.sample(rng)).collect();
    let mut total: f64 = draws.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // For extremely small alpha every draw can underflow to zero; fall
        // back to a one-hot vector on a random coordinate, which is the
        // correct limiting behaviour of Dirichlet(alpha -> 0).
        let hot = rng.gen_range(0..dim);
        draws = vec![0.0; dim];
        draws[hot] = 1.0;
        total = 1.0;
    }
    Ok(draws.into_iter().map(|d| d / total).collect())
}

/// Repartitions a client pool towards iid-ness by the fraction `p ∈ [0, 1]`,
/// reproducing the protocol of §3.2:
///
/// > "we pool all of the eval data and let each eval client resample the data
/// > in an iid manner [...] We extend this method by resampling only a
/// > fraction `p` of the validation data."
///
/// Each client keeps `(1 - p)` of its own examples (chosen at random) and
/// replaces the remaining fraction with draws from the pooled data (with
/// replacement, i.e. a shared global distribution), so `p = 0` leaves the
/// natural non-iid partition untouched and `p = 1` yields a fully iid pool.
/// Per-client example counts are preserved exactly.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if `p` is outside `[0, 1]` or the pool
/// has no examples.
pub fn repartition_iid_fraction(
    rng: &mut impl Rng,
    clients: &[ClientData],
    p: f64,
) -> Result<Vec<ClientData>> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(DataError::InvalidSpec {
            message: format!("iid fraction p must be in [0, 1], got {p}"),
        });
    }
    let pooled: Vec<&Example> = clients.iter().flat_map(|c| c.examples().iter()).collect();
    if pooled.is_empty() {
        return Err(DataError::InvalidSpec {
            message: "cannot repartition an empty client pool".into(),
        });
    }
    let mut out = Vec::with_capacity(clients.len());
    for client in clients {
        let n = client.num_examples();
        let replace = ((n as f64) * p).round() as usize;
        let keep = n - replace;
        // Randomly choose which local examples survive.
        let mut local: Vec<Example> = client.examples().to_vec();
        local.shuffle(rng);
        local.truncate(keep);
        for _ in 0..replace {
            let idx = rng.gen_range(0..pooled.len());
            local.push(pooled[idx].clone());
        }
        out.push(ClientData::new(client.id(), local));
    }
    Ok(out)
}

/// Validates the parameters of a long-tailed size distribution.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if the constraints are unsatisfiable
/// (`min > max`, non-positive mean, mean outside `[min, max]`, or a
/// non-positive `sigma`).
pub fn validate_long_tailed_sizes(mean: f64, min: usize, max: usize, sigma: f64) -> Result<()> {
    if min > max {
        return Err(DataError::InvalidSpec {
            message: format!("min {min} exceeds max {max}"),
        });
    }
    if mean <= 0.0 || mean < min as f64 || mean > max as f64 {
        return Err(DataError::InvalidSpec {
            message: format!("mean {mean} must lie within [{min}, {max}]"),
        });
    }
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(DataError::InvalidSpec {
            message: format!("sigma must be positive, got {sigma}"),
        });
    }
    Ok(())
}

/// A validated, precompiled long-tailed size distribution. Client `id`'s
/// size is drawn **positionally** from a seed tree: a pure function of
/// `(tree seed, id)` that never looks at any other client, which is what
/// lets a virtual population of millions of clients materialize one shard
/// at a time, and keeps eager generation consistent with it.
///
/// Sizes come from a clamped log-normal with `mu = ln(mean) - sigma²/2`, so
/// `mean` is the analytic **pre-clamp** mean, rounded to an integer in
/// `[max(min, 1), max]`: every client gets at least one example however the
/// float draw rounds. Clamping truncates the heavy upper tail, so the
/// realized mean undershoots `mean` for aggressive `(mean, sigma, max)`; an
/// exact correction would need a global pass over all clients, which
/// positional materialization rules out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongTailedSizes {
    dist: LogNormal,
    lo: f64,
    hi: f64,
}

impl LongTailedSizes {
    /// Validates the parameters once and precomputes the distribution.
    ///
    /// # Errors
    ///
    /// See [`validate_long_tailed_sizes`].
    pub fn new(mean: f64, min: usize, max: usize, sigma: f64) -> Result<Self> {
        validate_long_tailed_sizes(mean, min, max, sigma)?;
        let mu = mean.ln() - sigma * sigma / 2.0;
        let dist = LogNormal::new(mu, sigma).map_err(|e| DataError::InvalidSpec {
            message: format!("invalid log-normal parameters: {e}"),
        })?;
        Ok(LongTailedSizes {
            dist,
            // The lower bound saturates at 1: a client with zero examples
            // cannot participate in training or evaluation, so degenerate
            // tiny-shard draws round *up*.
            lo: min.max(1) as f64,
            hi: max.max(1) as f64,
        })
    }

    /// The size of client `id` below `tree`.
    pub fn size_at(&self, tree: &fedmath::SeedTree, id: u64) -> usize {
        let draw = self.dist.sample(&mut tree.child(id).rng());
        // Clamp in float space first (both bounds are integers, so rounding
        // a clamped value cannot escape the bounds), then round.
        draw.clamp(self.lo, self.hi).round() as usize
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::ClientSizes;
    use fedmath::rng::rng_for;

    /// A simple scalar measure of label heterogeneity across clients: the
    /// mean total-variation distance between each client's label
    /// distribution and the global one. 0 means perfectly iid; values near 1
    /// mean clients see nearly disjoint label sets.
    pub(crate) fn label_heterogeneity(clients: &[ClientData], num_classes: usize) -> f64 {
        if clients.is_empty() || num_classes == 0 {
            return 0.0;
        }
        let mut global = vec![0.0f64; num_classes];
        let mut total = 0.0;
        for c in clients {
            for (i, count) in c.label_histogram(num_classes).into_iter().enumerate() {
                global[i] += count as f64;
                total += count as f64;
            }
        }
        if total == 0.0 {
            return 0.0;
        }
        for g in &mut global {
            *g /= total;
        }
        let mut tv_sum = 0.0;
        let mut counted = 0usize;
        for c in clients {
            let hist = c.label_histogram(num_classes);
            let n: usize = hist.iter().sum();
            if n == 0 {
                continue;
            }
            let tv: f64 = hist
                .iter()
                .enumerate()
                .map(|(i, &h)| (h as f64 / n as f64 - global[i]).abs())
                .sum::<f64>()
                / 2.0;
            tv_sum += tv;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            tv_sum / counted as f64
        }
    }

    fn labelled_examples(per_class: usize, num_classes: usize) -> Vec<Example> {
        let mut out = Vec::new();
        for class in 0..num_classes {
            for _ in 0..per_class {
                out.push(Example::dense(vec![class as f64], class));
            }
        }
        out
    }

    /// A maximally non-iid pool: client `i` holds only class
    /// `i % num_classes`, with `per_client * (1 + i % 3)` examples so sizes
    /// differ.
    pub(super) fn one_class_per_client(
        num_clients: usize,
        num_classes: usize,
        per_client: usize,
    ) -> Vec<ClientData> {
        (0..num_clients)
            .map(|i| {
                let class = i % num_classes;
                let n = per_client * (1 + i % 3);
                ClientData::new(i, vec![Example::dense(vec![class as f64], class); n])
            })
            .collect()
    }

    fn log_normal(mean: f64, min: usize, max: usize, sigma: f64) -> ClientSizes {
        ClientSizes::LogNormal {
            mean,
            min,
            max,
            sigma,
        }
    }

    #[test]
    fn dirichlet_probabilities_sum_to_one() {
        let mut rng = rng_for(0, 0);
        for &alpha in &[0.05, 0.1, 1.0, 10.0] {
            let p = sample_dirichlet(&mut rng, 8, alpha).unwrap();
            assert_eq!(p.len(), 8);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_validation() {
        let mut rng = rng_for(0, 1);
        assert!(sample_dirichlet(&mut rng, 0, 1.0).is_err());
        assert!(sample_dirichlet(&mut rng, 3, 0.0).is_err());
        assert!(sample_dirichlet(&mut rng, 3, -1.0).is_err());
    }

    #[test]
    fn repartition_p_zero_is_identity_up_to_order() {
        let mut rng = rng_for(4, 0);
        let clients = one_class_per_client(8, 4, 5);
        let repartitioned = repartition_iid_fraction(&mut rng, &clients, 0.0).unwrap();
        for (before, after) in clients.iter().zip(repartitioned.iter()) {
            assert_eq!(before.num_examples(), after.num_examples());
            // p = 0 keeps exactly the client's own examples (order may differ).
            assert_eq!(before.label_histogram(4), after.label_histogram(4));
        }
    }

    #[test]
    fn repartition_p_one_reduces_heterogeneity() {
        let mut rng = rng_for(4, 1);
        let clients = one_class_per_client(20, 10, 25);
        let h_before = label_heterogeneity(&clients, 10);
        let iid = repartition_iid_fraction(&mut rng, &clients, 1.0).unwrap();
        let h_after = label_heterogeneity(&iid, 10);
        assert!(
            h_after < h_before * 0.5,
            "expected heterogeneity to drop substantially: before={h_before}, after={h_after}"
        );
        // Sizes preserved.
        for (b, a) in clients.iter().zip(iid.iter()) {
            assert_eq!(b.num_examples(), a.num_examples());
        }
    }

    #[test]
    fn repartition_validation() {
        let mut rng = rng_for(4, 2);
        let clients = vec![ClientData::new(0, labelled_examples(2, 2))];
        assert!(repartition_iid_fraction(&mut rng, &clients, -0.1).is_err());
        assert!(repartition_iid_fraction(&mut rng, &clients, 1.1).is_err());
        let empty = vec![ClientData::new(0, vec![])];
        assert!(repartition_iid_fraction(&mut rng, &empty, 0.5).is_err());
    }

    #[test]
    fn long_tailed_sizes_respect_bounds() {
        let mut rng = rng_for(5, 0);
        let sizes = log_normal(40.0, 1, 5000, 1.5)
            .sample(&mut rng, 500)
            .unwrap();
        assert_eq!(sizes.len(), 500);
        assert!(sizes.iter().all(|&s| (1..=5000).contains(&s)));
        let mean = sizes.iter().sum::<usize>() as f64 / 500.0;
        assert!(
            (mean - 40.0).abs() < 25.0,
            "mean {mean} too far from target 40"
        );
        // Long tail: max should be several times the mean.
        let max = *sizes.iter().max().unwrap();
        assert!(
            max as f64 > 2.0 * mean,
            "max {max} not long-tailed vs mean {mean}"
        );
    }

    #[test]
    fn long_tailed_sizes_guarantee_at_least_one_example() {
        // Regression: with min = 0 and a heavy tail centred below one
        // example, float rounding used to be the only thing standing between
        // a client and an empty shard. The lower clamp bound now saturates
        // at 1 for every client at any population size.
        let tree = fedmath::SeedTree::new(123);
        let sampler = log_normal(2.0, 0, 10_000, 2.5).compile().unwrap();
        for id in 0..5_000u64 {
            let s = sampler.size_at(&tree, id);
            assert!(s >= 1, "client {id} drew a zero-sized shard");
        }
        let mut rng = rng_for(5, 7);
        let sizes = log_normal(2.0, 0, 50, 2.0).sample(&mut rng, 2_000).unwrap();
        assert!(sizes.iter().all(|&s| (1..=50).contains(&s)));
    }

    #[test]
    fn long_tailed_size_is_positional() {
        // Client id's size is a pure function of (tree, id): deriving other
        // ids first, or none at all, changes nothing.
        let tree = fedmath::SeedTree::new(77);
        let sizes = log_normal(40.0, 1, 5_000, 1.5);
        let direct = sizes.compile().unwrap().size_at(&tree, 9_999_999);
        let sampler = sizes.compile().unwrap();
        let scattered: Vec<(u64, usize)> = [123u64, 9_999_999, 0, 42]
            .into_iter()
            .map(|id| (id, sampler.size_at(&tree, id)))
            .collect();
        assert_eq!(scattered[1], (9_999_999, direct));
        // And the whole-population draw agrees with itself across calls.
        let a = sizes.sample(&mut rng_for(6, 0), 100).unwrap();
        let b = sizes.sample(&mut rng_for(6, 0), 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn long_tailed_sizes_validation() {
        let mut rng = rng_for(5, 1);
        assert!(log_normal(10.0, 1, 100, 1.0).sample(&mut rng, 0).is_err());
        for bad in [
            log_normal(10.0, 100, 1, 1.0),
            log_normal(0.0, 1, 100, 1.0),
            log_normal(1000.0, 1, 100, 1.0),
            log_normal(10.0, 1, 100, 0.0),
        ] {
            assert!(bad.sample(&mut rng, 5).is_err(), "{bad:?}");
            assert!(bad.compile().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn heterogeneity_of_identical_clients_is_zero() {
        let clients = vec![
            ClientData::new(0, labelled_examples(5, 4)),
            ClientData::new(1, labelled_examples(5, 4)),
        ];
        assert!(label_heterogeneity(&clients, 4) < 1e-12);
        assert_eq!(label_heterogeneity(&[], 4), 0.0);
    }

    #[test]
    fn heterogeneity_of_disjoint_clients_is_high() {
        let c0 = ClientData::new(0, vec![Example::dense(vec![0.0], 0); 10]);
        let c1 = ClientData::new(1, vec![Example::dense(vec![1.0], 1); 10]);
        let h = label_heterogeneity(&[c0, c1], 2);
        assert!(h > 0.45, "expected near-maximal heterogeneity, got {h}");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::one_class_per_client;
    use super::*;
    use crate::spec::ClientSizes;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_repartition_preserves_sizes(
            seed in any::<u64>(),
            p in 0.0f64..1.0,
        ) {
            let mut rng = rng_for(seed, 1);
            let clients = one_class_per_client(10, 5, 10);
            let re = repartition_iid_fraction(&mut rng, &clients, p).unwrap();
            prop_assert_eq!(re.len(), clients.len());
            for (b, a) in clients.iter().zip(re.iter()) {
                prop_assert_eq!(b.num_examples(), a.num_examples());
                prop_assert_eq!(b.id(), a.id());
            }
        }

        #[test]
        fn prop_long_tailed_sizes_within_bounds(
            seed in any::<u64>(),
            num_clients in 1usize..100,
        ) {
            let mut rng = rng_for(seed, 2);
            let sizes = ClientSizes::LogNormal { mean: 30.0, min: 2, max: 400, sigma: 1.2 }
                .sample(&mut rng, num_clients)
                .unwrap();
            prop_assert_eq!(sizes.len(), num_clients);
            prop_assert!(sizes.iter().all(|&s| (2..=400).contains(&s)));
        }
    }
}
