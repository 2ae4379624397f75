//! The one cohort draw: which clients take part in a round or report an
//! evaluation.
//!
//! The default protocol samples clients uniformly without replacement
//! (Algorithm 2). The systems-heterogeneity experiments of §3.2 instead bias
//! selection towards clients on which the current model performs well: each
//! client receives weight `(a + δ)^b` where `a` is its accuracy, `δ = 1e-4`
//! keeps probabilities positive, and `b` controls the strength of the bias.
//! Population-scale training adds draws weighted by client size and gated
//! by diurnal availability. All four are variants of one [`CohortSampler`],
//! drawn against a [`ClientFrame`]: what a server knows about its clients
//! without reading their data.

use crate::{Result, SimError};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// What a server knows about its clients without reading their data: how
/// many there are, their example counts, who is reachable when, and — for
/// a frame that holds an evaluation — each client's accuracy.
///
/// `fedpop::Population` takes these from here as a supertrait; a
/// [`FederatedEvaluation`](crate::FederatedEvaluation) is the frame of its
/// own validation clients.
pub trait ClientFrame {
    /// Number of clients (`N`); ids are `0..N`.
    fn num_clients(&self) -> u64;

    /// The example count of client `id`, in O(1).
    ///
    /// # Errors
    ///
    /// Fails for ids past the frame.
    fn client_size(&self, id: u64) -> Result<usize>;

    /// An upper bound on [`client_size`](Self::client_size) over every
    /// client — the envelope of size-weighted rejection sampling.
    fn max_client_size(&self) -> usize;

    /// Whether client `id` is reachable at simulated time `sim_time`.
    fn available(&self, id: u64, sim_time: f64) -> bool;

    /// Client `id`'s evaluated accuracy, if the frame knows one. Only
    /// [`CohortSampler::Biased`] reads it.
    fn accuracy(&self, _id: u64) -> Option<f64> {
        None
    }
}

/// The paper's additive constant `δ`, keeping every selection weight
/// positive.
const DELTA: f64 = 1e-4;

/// How a cohort is drawn from a [`ClientFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CohortSampler {
    /// Uniform without replacement over all `N` clients
    /// ([`fedmath::rng::sample_without_replacement`], O(cohort) time and
    /// memory) — the standard FL protocol.
    Uniform,
    /// Without replacement, with weight `(a + δ)^b` on each client's
    /// accuracy `a` (§3.2's systems heterogeneity); `b = 0` is uniform in
    /// distribution. The only variant that reads accuracies.
    Biased {
        /// The bias exponent `b`.
        bias: f64,
    },
    /// Without replacement, with probability proportional to each client's
    /// example count — the participation bias of production systems where
    /// data-rich devices contribute more. Rejection sampling against the
    /// frame's O(1) size bound.
    SizeWeighted,
    /// Uniform among the clients inside their availability window at the
    /// round's simulated time. Rounds scheduled when few clients are
    /// reachable legitimately get smaller cohorts.
    Available,
}

impl CohortSampler {
    /// Draws a cohort of up to `count` distinct client ids at simulated time
    /// `sim_time`; a `count` past `N` is clamped to `N`.
    ///
    /// Every variant but [`Available`](Self::Available) returns exactly
    /// `min(count, N)` ids; `Available` returns at most that many —
    /// possibly fewer (even zero) when the window leaves too few clients
    /// reachable, and the caller decides whether an undersized cohort
    /// trains or skips the round. The cohort is a deterministic function of
    /// the RNG, the frame and `sim_time`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sampling`] if `count == 0`, if the frame is
    /// empty, if [`Biased`](Self::Biased) finds a client without an
    /// accuracy, or if size-weighted rejection sampling exhausts its
    /// attempt budget (pathologically skewed size bounds), and
    /// [`SimError::InvalidConfig`] for a negative or non-finite bias.
    pub fn sample<F: ClientFrame + ?Sized>(
        &self,
        frame: &F,
        rng: &mut StdRng,
        count: usize,
        sim_time: f64,
    ) -> Result<Vec<u64>> {
        let n = frame.num_clients();
        if count == 0 {
            return Err(sampling("cannot sample an empty cohort".into()));
        }
        if n == 0 {
            return Err(sampling("population is empty".into()));
        }
        let count = count.min(usize::try_from(n).unwrap_or(usize::MAX));
        match *self {
            CohortSampler::Uniform => fedmath::rng::sample_without_replacement(rng, n, count)
                .map_err(|e| sampling(e.to_string())),
            CohortSampler::Biased { bias } => {
                if bias < 0.0 || !bias.is_finite() {
                    return Err(SimError::InvalidConfig {
                        message: format!("bias exponent must be non-negative, got {bias}"),
                    });
                }
                let weights = (0..n)
                    .map(|id| {
                        let accuracy = frame.accuracy(id)?;
                        Some((accuracy.clamp(0.0, 1.0) + DELTA).powf(bias))
                    })
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| {
                        sampling(format!(
                            "biased sampling needs the accuracy of all {n} clients"
                        ))
                    })?;
                let picked =
                    fedmath::rng::weighted_sample_without_replacement(rng, &weights, count)
                        .map_err(|e| sampling(e.to_string()))?;
                Ok(picked.into_iter().map(|id| id as u64).collect())
            }
            CohortSampler::SizeWeighted => {
                // Sampling the whole population is weighted sampling of
                // everyone: short-circuit instead of paying the rejection
                // loop its worst case (accepting the final size-1 client
                // takes ~n·bound expected draws).
                if count as u64 == n {
                    return Ok((0..n).collect());
                }
                let bound = frame.max_client_size().max(1) as f64;
                let mut chosen = HashSet::with_capacity(count);
                let mut cohort = Vec::with_capacity(count);
                // Rejection sampling: accept id with probability size/bound.
                // The attempt budget covers bound/mean ratios up to ~10⁴
                // before giving up with a diagnosable error.
                let mut attempts: u64 = 0;
                let max_attempts = (count as u64).saturating_mul(20_000).max(100_000);
                while cohort.len() < count {
                    attempts += 1;
                    if attempts > max_attempts {
                        return Err(sampling(format!(
                            "size-weighted sampling exhausted {max_attempts} attempts \
                             drawing {count} of {n} clients (size bound {bound})"
                        )));
                    }
                    let id = rng.gen_range(0..n);
                    if chosen.contains(&id) {
                        continue;
                    }
                    let size = frame.client_size(id)? as f64;
                    if rng.gen::<f64>() < size / bound {
                        chosen.insert(id);
                        cohort.push(id);
                    }
                }
                Ok(cohort)
            }
            CohortSampler::Available => {
                let mut chosen = HashSet::with_capacity(count);
                let mut cohort = Vec::with_capacity(count);
                // Bounded search: windows cover an expected fraction of the
                // population, so a fixed per-slot budget finds reachable
                // clients when they exist and degrades to a smaller cohort
                // when they don't.
                let max_attempts = (count as u64).saturating_mul(256).max(4_096);
                for _ in 0..max_attempts {
                    if cohort.len() == count {
                        break;
                    }
                    let id = rng.gen_range(0..n);
                    if chosen.contains(&id) {
                        continue;
                    }
                    if frame.available(id, sim_time) {
                        chosen.insert(id);
                        cohort.push(id);
                    }
                }
                Ok(cohort)
            }
        }
    }
}

fn sampling(message: String) -> SimError {
    SimError::Sampling { message }
}

/// The uniform draw under the name the frozen `benchmark/` package passes
/// to the subsample pass (ROADMAP item 4(b)); [`CohortSampler::Uniform`] is
/// the draw.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

/// Converts a subsampling *rate* in `(0, 1]` into a raw client count,
/// guaranteeing at least one client and at most the full population.
///
/// This mirrors the x-axes of Figures 3, 4, 6, and 9, which sweep the
/// fraction of evaluation clients from a single client up to 100%.
pub fn clients_for_rate(population: usize, rate: f64) -> Result<usize> {
    if population == 0 {
        return Err(SimError::Sampling {
            message: "population is empty".into(),
        });
    }
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(SimError::Sampling {
            message: format!("sampling rate must be in (0, 1], got {rate}"),
        });
    }
    let count = (population as f64 * rate).round() as usize;
    Ok(count.clamp(1, population))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmath::rng::rng_for;

    /// A frame of `sizes.len()` clients: client `id` is reachable at time
    /// `t` when `(id + t) % 4 == 0`, and has an accuracy if `accuracies`
    /// lists one for it.
    pub(super) struct Frame {
        pub(super) sizes: Vec<usize>,
        pub(super) accuracies: Vec<f64>,
    }

    impl Frame {
        /// `n` clients of size `1 + id % 50`, accuracies `id / n`.
        pub(super) fn new(n: usize) -> Self {
            Frame {
                sizes: (0..n).map(|id| 1 + id % 50).collect(),
                accuracies: (0..n).map(|id| id as f64 / n as f64).collect(),
            }
        }
    }

    impl ClientFrame for Frame {
        fn num_clients(&self) -> u64 {
            self.sizes.len() as u64
        }

        fn client_size(&self, id: u64) -> Result<usize> {
            let size = self.sizes.get(id as usize).copied();
            size.ok_or_else(|| sampling(format!("no client {id}")))
        }

        fn max_client_size(&self) -> usize {
            self.sizes.iter().copied().max().unwrap_or(0)
        }

        fn available(&self, id: u64, sim_time: f64) -> bool {
            (id + sim_time as u64).is_multiple_of(4)
        }

        fn accuracy(&self, id: u64) -> Option<f64> {
            self.accuracies.get(id as usize).copied()
        }
    }

    /// A frame that knows sizes and availability but no accuracies, as a
    /// population does.
    struct Metadata(u64);

    impl ClientFrame for Metadata {
        fn num_clients(&self) -> u64 {
            self.0
        }

        fn client_size(&self, _id: u64) -> Result<usize> {
            Ok(1)
        }

        fn max_client_size(&self) -> usize {
            1
        }

        fn available(&self, _id: u64, _sim_time: f64) -> bool {
            true
        }
    }

    pub(super) const EVERY_VARIANT: [CohortSampler; 4] = [
        CohortSampler::Uniform,
        CohortSampler::Biased { bias: 2.0 },
        CohortSampler::SizeWeighted,
        CohortSampler::Available,
    ];

    /// How often client 0 is drawn alone from `frame`, over `trials` draws.
    fn frequency_of_client_0(sampler: CohortSampler, frame: &Frame, seed: u64) -> f64 {
        let mut rng = rng_for(seed, 0);
        let trials = 2000;
        let hits = (0..trials)
            .filter(|_| sampler.sample(frame, &mut rng, 1, 0.0).unwrap()[0] == 0)
            .count();
        hits as f64 / trials as f64
    }

    #[test]
    fn the_biased_draw_prefers_accurate_clients() {
        // Client 0 has accuracy 0.9, everyone else 0.1: weight ratio
        // (0.9 / 0.1)^3 = 729, so client 0 dominates.
        let mut frame = Frame::new(20);
        frame.accuracies = vec![0.1; 20];
        frame.accuracies[0] = 0.9;
        let freq = frequency_of_client_0(CohortSampler::Biased { bias: 3.0 }, &frame, 1);
        assert!(freq > 0.9, "high-accuracy client frequency was only {freq}");
    }

    #[test]
    fn zero_bias_draws_uniformly() {
        let mut frame = Frame::new(10);
        frame.accuracies = vec![0.0; 10];
        frame.accuracies[0] = 1.0;
        let freq = frequency_of_client_0(CohortSampler::Biased { bias: 0.0 }, &frame, 2);
        assert!(
            (freq - 0.1).abs() < 0.05,
            "expected uniform frequency, got {freq}"
        );
    }

    #[test]
    fn accuracies_outside_the_unit_interval_are_clamped() {
        // Unclamped, -0.5 would be a negative weight (an error) and 1.5
        // would draw client 2 with probability 0.75 instead of 2/3.
        let mut frame = Frame::new(3);
        frame.accuracies = vec![-0.5, 0.5, 1.5];
        let biased = CohortSampler::Biased { bias: 1.0 };
        let everyone = biased.sample(&frame, &mut rng_for(1, 4), 3, 0.0).unwrap();
        assert_eq!(everyone.len(), 3);
        let mut rng = rng_for(1, 5);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| biased.sample(&frame, &mut rng, 1, 0.0).unwrap()[0] == 2)
            .count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 2.0 / 3.0).abs() < 0.04, "client 2 drawn at {freq}");
    }

    #[test]
    fn a_score_length_or_frame_mismatch_is_an_error() {
        let mut rng = rng_for(1, 3);
        let biased = CohortSampler::Biased { bias: 2.0 };
        let mut frame = Frame::new(10);
        frame.accuracies.truncate(4);
        assert!(matches!(
            biased.sample(&frame, &mut rng, 3, 0.0),
            Err(SimError::Sampling { .. })
        ));
        // A frame with no accuracies at all, as a population's: no silent
        // fallback to a uniform draw.
        assert!(matches!(
            biased.sample(&Metadata(10), &mut rng, 3, 0.0),
            Err(SimError::Sampling { .. })
        ));
        for bias in [-1.0, f64::NAN] {
            let sampler = CohortSampler::Biased { bias };
            let error = sampler.sample(&Frame::new(10), &mut rng, 3, 0.0);
            assert!(matches!(error, Err(SimError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn cohorts_are_deterministic_in_the_rng() {
        let frame = Frame::new(10_000);
        for sampler in EVERY_VARIANT {
            let draw = || {
                sampler
                    .sample(&frame, &mut rng_for(7, 0), 32, 500.0)
                    .unwrap()
            };
            assert_eq!(draw(), draw(), "{sampler:?}");
        }
    }

    #[test]
    fn the_uniform_draw_is_the_fedmath_draw() {
        let frame = Metadata(3_507);
        let cohort = CohortSampler::Uniform.sample(&frame, &mut rng_for(8, 0), 50, 0.0);
        let direct = fedmath::rng::sample_without_replacement(&mut rng_for(8, 0), 3_507, 50);
        assert_eq!(cohort.unwrap(), direct.unwrap());
    }

    #[test]
    fn size_weighted_prefers_large_clients() {
        let frame = Frame::new(5_000);
        let mean_size = |sampler: CohortSampler| {
            let mut rng = rng_for(1, 0);
            let total: usize = (0..20)
                .flat_map(|_| sampler.sample(&frame, &mut rng, 50, 0.0).unwrap())
                .map(|id| frame.client_size(id).unwrap())
                .sum();
            total as f64 / 1_000.0
        };
        let (uniform, weighted) = (
            mean_size(CohortSampler::Uniform),
            mean_size(CohortSampler::SizeWeighted),
        );
        // Sizes are uniform over 1..=50 (mean 25.5); weighting by size
        // moves the mean to ~34.
        assert!(
            weighted > 1.2 * uniform,
            "size weighting should inflate cohort sizes: uniform {uniform}, weighted {weighted}"
        );
    }

    #[test]
    fn the_available_draw_respects_the_window() {
        let frame = Frame::new(5_000);
        let sim_time = 30_001.0;
        let cohort = CohortSampler::Available
            .sample(&frame, &mut rng_for(2, 0), 64, sim_time)
            .unwrap();
        // A quarter of the frame is reachable: the cohort fills.
        assert_eq!(cohort.len(), 64);
        assert!(cohort.iter().all(|&id| frame.available(id, sim_time)));
        // Four clients, one reachable: an undersized cohort, not an error.
        let cohort = CohortSampler::Available
            .sample(&Frame::new(4), &mut rng_for(2, 1), 3, sim_time)
            .unwrap();
        assert_eq!(cohort, vec![3]);
    }

    #[test]
    fn cohort_size_is_capped_by_the_population() {
        let frame = Frame::new(10);
        let mut rng = rng_for(4, 0);
        for sampler in [
            CohortSampler::Uniform,
            CohortSampler::Biased { bias: 1.0 },
            CohortSampler::SizeWeighted,
        ] {
            let cohort = sampler.sample(&frame, &mut rng, 64, 0.0).unwrap();
            assert_eq!(cohort.len(), 10, "{sampler:?}");
        }
    }

    #[test]
    fn an_empty_cohort_or_frame_is_an_error() {
        let mut rng = rng_for(5, 0);
        for sampler in EVERY_VARIANT {
            assert!(sampler.sample(&Frame::new(10), &mut rng, 0, 0.0).is_err());
            assert!(sampler.sample(&Frame::new(0), &mut rng, 1, 0.0).is_err());
        }
    }

    #[test]
    fn clients_for_rate_bounds() {
        assert_eq!(clients_for_rate(100, 1.0).unwrap(), 100);
        assert_eq!(clients_for_rate(100, 0.01).unwrap(), 1);
        assert_eq!(clients_for_rate(100, 0.005).unwrap(), 1);
        assert_eq!(clients_for_rate(360, 0.27).unwrap(), 97);
        assert!(clients_for_rate(0, 0.5).is_err());
        assert!(clients_for_rate(10, 0.0).is_err());
        assert!(clients_for_rate(10, 1.5).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{Frame, EVERY_VARIANT};
    use super::*;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_clients_for_rate_always_valid(
            population in 1usize..10_000,
            rate in 0.0001f64..1.0,
        ) {
            let c = clients_for_rate(population, rate).unwrap();
            prop_assert!(c >= 1);
            prop_assert!(c <= population);
        }

        #[test]
        fn prop_every_variant_draws_distinct_valid_ids(
            seed in any::<u64>(),
            bias in 0.0f64..4.0,
            population in 2usize..50,
        ) {
            let frame = Frame::new(population);
            let count = 1 + (seed as usize) % population;
            let mut variants = EVERY_VARIANT;
            variants[1] = CohortSampler::Biased { bias };
            for sampler in variants {
                let picked = sampler.sample(&frame, &mut rng_for(seed, 0), count, 0.0).unwrap();
                if sampler == CohortSampler::Available {
                    prop_assert!(picked.len() <= count);
                } else {
                    prop_assert_eq!(picked.len(), count);
                }
                let unique: std::collections::HashSet<u64> = picked.iter().copied().collect();
                prop_assert_eq!(unique.len(), picked.len());
                prop_assert!(picked.iter().all(|&id| id < population as u64));
            }
        }
    }
}
