//! ASHA — Asynchronous Successive Halving (Li et al. 2020).
//!
//! Synchronous SHA waits for an entire rung before promoting anyone, so one
//! slow trial stalls the whole bracket. ASHA instead promotes *whenever a
//! trial is in the top `1/η` of whatever results its rung has collected so
//! far*, which keeps every worker busy — the natural fit for the batched
//! ask/tell driver and the paper's pointer toward population-style federated
//! tuning at scale.
//!
//! Determinism: promotions are a pure function of the *set* of reported
//! results. Within a rung, candidates are ranked by `(score, trial_id)` —
//! finite scores in `f64::total_cmp` order, every non-finite score last — so
//! the promotion decision is invariant to the order in which results arrive
//! (asserted by a property test below). Each [`suggest`](Scheduler::suggest)
//! call first emits every promotion the current results justify (highest
//! rung first), then tops the batch up with fresh uniformly-sampled
//! configurations.
//!
//! Every [`Hyperband`](crate::Hyperband) bracket is this ladder, polled only
//! between rungs. A ladder accepts exactly the results it asked for, each at
//! its trial's requested resource, once, and rejects any other unmoved.
//!
//! Cost: each rung keeps its results in rank order together with the last
//! result of its top-`⌊n/η⌋` prefix and the unpromoted trials inside that
//! prefix. A new result moves the prefix boundary by at most one place, so
//! `report` is `O(log n)`, `suggest` pops each promotion in `O(log n)` and
//! `is_finished` is `O(rungs)`.

use crate::scheduler::{score_rank, Scheduler, TrialRequest, TrialResult};
use crate::space::{HpConfig, SearchSpace};
use crate::{HpoError, Result};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

/// A result's place in its rung: `(score_rank(score), trial_id)`.
type Ranked = (u64, usize);

/// The results of one rung and its promotion index, kept current by
/// [`Rung::insert`].
#[derive(Debug, Clone, Default)]
struct Rung {
    /// Every result, best first.
    ranked: BTreeSet<Ranked>,
    /// The last result of the top-`⌊n/η⌋` prefix; `None` while it is empty.
    boundary: Option<Ranked>,
    /// Unpromoted trials inside the prefix, best first.
    candidates: BTreeSet<Ranked>,
    /// Trials already promoted out of this rung.
    promoted: BTreeSet<usize>,
}

impl Rung {
    /// Records the first result of `trial_id` at this rung and moves the
    /// prefix boundary.
    fn insert(&mut self, trial_id: usize, score: f64, eta: usize) {
        let entry = (score_rank(score), trial_id);
        let top_before = self.ranked.len() / eta;
        self.ranked.insert(entry);
        let grows = self.ranked.len() / eta > top_before;
        match self.boundary {
            // The new result lands inside the prefix; unless the prefix
            // grows, its old last result drops out.
            Some(last) if entry < last => {
                self.admit(entry);
                if !grows {
                    self.candidates.remove(&last);
                    self.boundary = self.ranked.range(..last).next_back().copied();
                }
            }
            // The prefix grows past its old end by one result.
            _ if grows => {
                let next = match self.boundary {
                    Some(last) => self.ranked.range((Excluded(last), Unbounded)).next(),
                    None => self.ranked.first(),
                }
                .copied();
                if let Some(next) = next {
                    self.admit(next);
                }
                self.boundary = next;
            }
            _ => {}
        }
    }

    /// Makes a result that entered the prefix a candidate unless it was
    /// already promoted.
    fn admit(&mut self, entry: Ranked) {
        if !self.promoted.contains(&entry.1) {
            self.candidates.insert(entry);
        }
    }

    /// Promotes the best candidate, if any.
    fn promote(&mut self) -> Option<usize> {
        let (_, trial_id) = self.candidates.pop_first()?;
        self.promoted.insert(trial_id);
        Some(trial_id)
    }
}

/// ASHA: up to `num_configs` configurations, rung resources
/// `min_resource · η^k` capped at `max_resource`, promoting the top `1/η` of
/// each rung. All bookkeeping lives in ordered maps keyed by trial id, so
/// every decision is a function of *which* results have arrived, never of
/// when.
///
/// Built by [`asynchronous`](Self::asynchronous), the same ladder declares
/// itself [`async_capable`](Scheduler::async_capable), so a virtual-time
/// driver (`fedtune_core::drive` under `Clock::Virtual`) re-polls it on
/// *every* completion instead of at rung barriers. Promotions then happen the
/// moment a trial enters the top `1/η` of whatever results its rung has — the
/// paper's actual algorithm (Li et al. 2020), where no worker ever idles
/// waiting for a straggler to finish a rung. Driven batch by batch (`drive`
/// under `Clock::Barrier`), it degenerates to [`new`](Self::new)'s ladder
/// exactly: asynchrony is a property of the driver/scheduler handshake, not
/// of the promotion rule.
#[derive(Debug, Clone)]
pub struct Asha {
    num_configs: usize,
    eta: usize,
    min_resource: usize,
    max_resource: usize,
    /// Whether the scheduler advertises per-completion re-polling.
    asynchronous: bool,
    /// Configuration per trial id: the bottom rung's configurations drawn so
    /// far, or all of them for a bracket.
    configs: Vec<HpConfig>,
    /// Reported results and promotion index per rung.
    rungs: Vec<Rung>,
    /// The rung of every trial with an outstanding request.
    pending: BTreeMap<usize, usize>,
    /// Trials that entered the bottom rung so far.
    sampled: usize,
}

impl Asha {
    /// A fresh rung-synchronous ASHA campaign.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] for zero configurations, an `eta`
    /// below 2, or a resource range that is empty or starts at zero.
    pub fn new(
        num_configs: usize,
        eta: usize,
        min_resource: usize,
        max_resource: usize,
    ) -> Result<Self> {
        if num_configs == 0 {
            return Err(HpoError::InvalidConfig {
                message: "asha needs at least one configuration".into(),
            });
        }
        if eta < 2 {
            return Err(HpoError::InvalidConfig {
                message: format!("eta must be at least 2, got {eta}"),
            });
        }
        if min_resource == 0 || min_resource > max_resource {
            return Err(HpoError::InvalidConfig {
                message: format!("resource range [{min_resource}, {max_resource}] is invalid"),
            });
        }
        let mut asha = Asha {
            num_configs,
            eta,
            min_resource,
            max_resource,
            asynchronous: false,
            configs: Vec::new(),
            rungs: Vec::new(),
            pending: BTreeMap::new(),
            sampled: 0,
        };
        asha.rungs = vec![Rung::default(); asha.num_rungs()];
        Ok(asha)
    }

    /// A fresh asynchronous ASHA campaign on the [`new`](Self::new) ladder.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn asynchronous(
        num_configs: usize,
        eta: usize,
        min_resource: usize,
        max_resource: usize,
    ) -> Result<Self> {
        Ok(Asha {
            asynchronous: true,
            ..Asha::new(num_configs, eta, min_resource, max_resource)?
        })
    }

    /// A Hyperband/BOHB bracket: the [`new`](Self::new) ladder with trial `i`
    /// on `configs[i]` instead of on a fresh sample.
    pub(crate) fn bracket(
        configs: Vec<HpConfig>,
        eta: usize,
        min_resource: usize,
        max_resource: usize,
    ) -> Result<Self> {
        let ladder = Asha::new(configs.len(), eta, min_resource, max_resource)?;
        Ok(Asha { configs, ..ladder })
    }

    /// The resource of rung `k`: `min_resource · η^k`, capped at
    /// `max_resource`.
    pub fn rung_resource(&self, rung: usize) -> usize {
        let mut resource = self.min_resource;
        for _ in 0..rung {
            resource = resource.saturating_mul(self.eta).min(self.max_resource);
        }
        resource
    }

    /// Number of rungs in the ladder (the last rung sits at `max_resource`).
    pub fn num_rungs(&self) -> usize {
        let mut rungs = 1;
        let mut resource = self.min_resource;
        while resource < self.max_resource {
            resource = resource.saturating_mul(self.eta).min(self.max_resource);
            rungs += 1;
        }
        rungs
    }

    /// Trials evaluated at each rung when every rung fills and every
    /// promotion is taken: `num_configs`, then a `1/η` share per rung, up to
    /// the first rung nobody reaches.
    pub fn rung_sizes(&self) -> Vec<usize> {
        let mut n = self.num_configs;
        (0..self.num_rungs())
            .map_while(|_| {
                let here = n;
                n /= self.eta;
                (here > 0).then_some(here)
            })
            .collect()
    }

    /// The rung-synchronous plan length (every rung full, every promotion
    /// taken) — the DP composition length `M`. For an
    /// [`asynchronous`](Self::asynchronous) campaign it is the *nominal*
    /// schedule size, shared with the sync ladder so both variants face
    /// comparable noise, and **not** a worst-case bound: promoting on partial
    /// rungs can promote trials that fall out of the final top `1/η`, so an
    /// event-driven run may perform more evaluations (hard cap: one
    /// evaluation per trial per rung, `num_configs × num_rungs`). Saturates
    /// at `usize::MAX`.
    pub fn planned_evaluations(&self) -> usize {
        self.rung_sizes()
            .into_iter()
            .fold(0, usize::saturating_add)
            .max(1)
    }

    /// [`report`](Scheduler::report) under the ladder's own `trial_id` (a
    /// bracket numbers its trials from 0): an error that moves nothing
    /// unless that trial has a request outstanding at `result.resource`.
    pub(crate) fn tell(&mut self, trial_id: usize, result: &TrialResult) -> Result<()> {
        match self.pending.get(&trial_id) {
            Some(&rung) if self.rung_resource(rung) == result.resource => {
                self.pending.remove(&trial_id);
                self.rungs[rung].insert(trial_id, result.score, self.eta);
                Ok(())
            }
            _ => Err(HpoError::InvalidConfig {
                message: format!(
                    "no request outstanding for trial {} at resource {}",
                    result.trial_id, result.resource
                ),
            }),
        }
    }

    /// The rungs a trial can be promoted out of: all but the last.
    fn promoting_rungs(&self) -> &[Rung] {
        &self.rungs[..self.rungs.len() - 1]
    }

    /// The sort-based reference the index is tested against: for each
    /// non-terminal rung `k`, the unpromoted trials ranked (by score, then
    /// trial id) within the top `⌊|results at k| / η⌋` of the accepted
    /// results in `reported`. Ordered highest rung first, best score first.
    #[cfg(test)]
    fn promotable(&self, reported: &[TrialResult]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (k, rung) in self.promoting_rungs().iter().enumerate().rev() {
            let mut ranked: Vec<Ranked> = reported
                .iter()
                .filter(|result| result.resource == self.rung_resource(k))
                .map(|result| (score_rank(result.score), result.trial_id))
                .collect();
            ranked.sort();
            let top = ranked.len() / self.eta;
            for (_, trial_id) in ranked.into_iter().take(top) {
                if !rung.promoted.contains(&trial_id) {
                    out.push((trial_id, k));
                }
            }
        }
        out
    }

    /// What the index holds as promotable, in the order `suggest` pops it.
    #[cfg(test)]
    fn indexed(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (k, rung) in self.promoting_rungs().iter().enumerate().rev() {
            out.extend(rung.candidates.iter().map(|&(_, trial_id)| (trial_id, k)));
        }
        out
    }
}

impl Scheduler for Asha {
    fn name(&self) -> &'static str {
        if self.asynchronous {
            "async-asha"
        } else {
            "asha"
        }
    }

    fn async_capable(&self) -> bool {
        self.asynchronous
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        // A rung-synchronous ladder promotes at rung barriers: asked while
        // its batch is out, it would promote on a partial rung.
        if !self.asynchronous && !self.pending.is_empty() {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "a rung-synchronous ladder was asked for a batch with {} results outstanding",
                    self.pending.len()
                ),
            });
        }
        let mut batch = Vec::new();
        for rung in (0..self.rungs.len() - 1).rev() {
            while let Some(trial_id) = self.rungs[rung].promote() {
                self.pending.insert(trial_id, rung + 1);
                batch.push(TrialRequest {
                    trial_id,
                    config: self.configs[trial_id].clone(),
                    resource: self.rung_resource(rung + 1),
                    noise_rep: 0,
                });
            }
        }
        while self.sampled < self.num_configs {
            let trial_id = self.sampled;
            if trial_id == self.configs.len() {
                self.configs.push(space.sample(rng)?);
            }
            self.pending.insert(trial_id, 0);
            self.sampled += 1;
            batch.push(TrialRequest {
                trial_id,
                config: self.configs[trial_id].clone(),
                resource: self.rung_resource(0),
                noise_rep: 0,
            });
        }
        Ok(batch)
    }

    fn report(&mut self, result: &TrialResult) -> Result<()> {
        self.tell(result.trial_id, result)
    }

    fn is_finished(&self) -> bool {
        self.sampled >= self.num_configs
            && self.pending.is_empty()
            && self
                .promoting_rungs()
                .iter()
                .all(|rung| rung.candidates.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::run_fresh;
    use fedmath::rng::rng_for;
    use std::collections::HashMap;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    fn resource_aware(config: &HpConfig, resource: usize) -> f64 {
        let x = config.values()[0];
        (x - 0.3).abs() + 1.0 / (resource as f64 + 1.0)
    }

    #[test]
    fn validation_and_ladder() {
        for build in [Asha::new, Asha::asynchronous] {
            assert!(build(0, 3, 1, 9).is_err());
            assert!(build(9, 1, 1, 9).is_err());
            assert!(build(9, 3, 0, 9).is_err());
            assert!(build(9, 3, 10, 9).is_err());
        }
        let asha = Asha::new(9, 3, 1, 9).unwrap();
        assert_eq!(asha.name(), "asha");
        assert_eq!(asha.num_rungs(), 3);
        assert_eq!(asha.rung_resource(0), 1);
        assert_eq!(asha.rung_resource(1), 3);
        assert_eq!(asha.rung_resource(2), 9);
        // 9 + 3 + 1 evaluations if every promotion is taken.
        assert_eq!(asha.planned_evaluations(), 13);
        // Non-power ladders cap at max_resource.
        let uneven = Asha::new(4, 3, 2, 10).unwrap();
        assert_eq!(uneven.num_rungs(), 3);
        assert_eq!(uneven.rung_resource(2), 10);
    }

    #[test]
    fn a_hostile_eta_saturates_instead_of_wrapping() {
        // A wrapping 2 · 2^63 = 0 would never reach the top rung: the ladder
        // saturates at max_resource instead.
        let asha = Asha::new(1, 1 << 63, 2, 3).unwrap();
        assert_eq!(asha.num_rungs(), 2);
        assert_eq!(asha.rung_resource(1), 3);
        assert_eq!(asha.rung_sizes(), vec![1]);
    }

    #[test]
    fn full_campaign_matches_sha_shape() {
        let mut rng = rng_for(0, 0);
        let asha = Asha::new(9, 3, 1, 9).unwrap();
        let outcome = run_fresh(asha, &space_1d(), resource_aware, &mut rng).unwrap();
        // With the whole first rung in one batch, ASHA degenerates to SHA's
        // rung counts: 9 at r=1, 3 at r=3, 1 at r=9.
        let mut per_rung: HashMap<usize, usize> = HashMap::new();
        for r in outcome.records() {
            *per_rung.entry(r.resource).or_default() += 1;
        }
        assert_eq!(per_rung.get(&1), Some(&9));
        assert_eq!(per_rung.get(&3), Some(&3));
        assert_eq!(per_rung.get(&9), Some(&1));
        assert_eq!(outcome.total_resource(), 21);
    }

    #[test]
    fn promotions_prefer_low_scores_and_low_trial_ids() {
        let mut scheduler = Asha::new(6, 3, 1, 9).unwrap();
        let batch = scheduler.suggest(&space_1d(), &mut rng_for(0, 0)).unwrap();
        // Six rung-0 results; top third = 2 promotions; a score tie between
        // trials 4 and 5 resolves to the lower id.
        let scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.5];
        let reported: Vec<TrialResult> = batch
            .iter()
            .zip(scores)
            .map(|(request, score)| TrialResult::of(request, score))
            .collect();
        for result in &reported {
            scheduler.report(result).unwrap();
        }
        assert_eq!(scheduler.promotable(&reported), vec![(4, 0), (5, 0)]);
        assert_eq!(scheduler.indexed(), vec![(4, 0), (5, 0)]);
    }

    #[test]
    fn non_finite_scores_rank_last() {
        let mut scheduler = Asha::new(6, 3, 1, 9).unwrap();
        let space = space_1d();
        let mut rng = rng_for(4, 0);
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        // 0.0 / 0.0 at run time on x86-64: a NaN with the sign bit set,
        // which `total_cmp` alone ranks before every finite score.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let scores = [
            negative_nan,
            f64::NEG_INFINITY,
            0.3,
            f64::INFINITY,
            0.1,
            f64::NAN,
        ];
        let reported: Vec<TrialResult> = batch
            .iter()
            .zip(scores)
            .map(|(request, score)| TrialResult::of(request, score))
            .collect();
        for result in &reported {
            scheduler.report(result).unwrap();
        }
        assert_eq!(scheduler.promotable(&reported), vec![(4, 0), (2, 0)]);
        let promoted: Vec<usize> = scheduler
            .suggest(&space, &mut rng)
            .unwrap()
            .iter()
            .map(|r| r.trial_id)
            .collect();
        assert_eq!(promoted, vec![4, 2]);
    }

    #[test]
    fn rejects_results_off_the_ladder() {
        let space = space_1d();
        let mut rng = rng_for(8, 0);
        let mut scheduler = Asha::new(3, 3, 1, 9).unwrap();
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        // An unknown trial, a resource that is no rung, and another rung's.
        let asked = TrialResult::of(&batch[0], 0.1);
        for bogus in [
            TrialResult {
                trial_id: 3,
                ..asked.clone()
            },
            TrialResult {
                resource: 4,
                ..asked.clone()
            },
            TrialResult {
                resource: 3,
                ..asked.clone()
            },
        ] {
            assert!(scheduler.report(&bogus).is_err());
        }
        assert_eq!(scheduler.pending.len(), 3);
        // Asked again with its batch out, the synchronous ladder refuses.
        assert!(scheduler.suggest(&space, &mut rng).is_err());
        assert_eq!(scheduler.pending.len(), 3);
        let scores = [0.1, 0.5, 0.9];
        for (request, score) in batch.iter().zip(scores) {
            scheduler.report(&TrialResult::of(request, score)).unwrap();
            // A second report, even with another score, moves nothing.
            assert!(scheduler.report(&TrialResult::of(request, -score)).is_err());
        }
        assert_eq!(scheduler.indexed(), vec![(0, 0)]);
        let promoted = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!((promoted[0].trial_id, promoted[0].resource), (0, 3));
        // The promoted trial is asked for at rung 1 only.
        assert!(scheduler.report(&asked).is_err());
        scheduler
            .report(&TrialResult::of(&promoted[0], 0.2))
            .unwrap();
        assert!(scheduler.is_finished());
    }

    #[test]
    fn plans_saturate_instead_of_overflowing() {
        let huge = Asha::new(usize::MAX, 2, 1, 1 << 20).unwrap();
        assert_eq!(huge.planned_evaluations(), usize::MAX);
    }

    #[test]
    fn async_asha_declares_async_and_degenerates_under_a_barrier_driver() {
        let sync_asha = Asha::new(9, 3, 1, 9).unwrap();
        let async_asha = Asha::asynchronous(9, 3, 1, 9).unwrap();
        assert!(!sync_asha.async_capable());
        assert!(async_asha.async_capable());
        assert_eq!(sync_asha.name(), "asha");
        assert_eq!(async_asha.name(), "async-asha");
        assert_eq!(
            async_asha.planned_evaluations(),
            sync_asha.planned_evaluations()
        );
        // The async hard cap (every trial at every rung) dominates the
        // nominal synchronous plan.
        assert!(9 * async_asha.num_rungs() >= async_asha.planned_evaluations());
        // Under the sequential barrier driver the campaigns are identical:
        // asynchrony only changes how a driver may poll, never the rule.
        let mut rng = rng_for(5, 0);
        let sync_outcome = run_fresh(sync_asha, &space_1d(), resource_aware, &mut rng).unwrap();
        let mut rng = rng_for(5, 0);
        let async_outcome = run_fresh(async_asha, &space_1d(), resource_aware, &mut rng).unwrap();
        assert_eq!(sync_outcome, async_outcome);
    }

    #[test]
    fn finds_good_configs() {
        let mut rng = rng_for(2, 0);
        let asha = Asha::new(27, 3, 1, 27).unwrap();
        let outcome = run_fresh(asha, &space_1d(), resource_aware, &mut rng).unwrap();
        let best = outcome
            .records()
            .iter()
            .filter(|r| r.resource == 27)
            .min_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        let x = best.config.values()[0];
        assert!((x - 0.3).abs() < 0.25, "best x = {x} should be near 0.3");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Replays the same rung-0 result set in a permuted arrival order and
    /// asserts the next suggested batch — i.e. the promotion decision — is
    /// identical: ASHA promotions are invariant to result arrival order.
    fn promotions_for(order: &[usize], scores: &[f64], mut scheduler: Asha) -> Vec<(usize, usize)> {
        let space = SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap();
        let mut rng = rng_for(11, 0);
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(batch.len(), scores.len());
        for &position in order {
            let request = &batch[position];
            scheduler
                .report(&crate::scheduler::TrialResult::of(
                    request,
                    scores[request.trial_id],
                ))
                .unwrap();
        }
        // All fresh configs are sampled, so the next batch is promotions only.
        scheduler
            .suggest(&space, &mut rng)
            .unwrap()
            .into_iter()
            .map(|r| (r.trial_id, r.resource))
            .collect()
    }

    proptest! {
        #[test]
        fn prop_promotions_invariant_to_arrival_order(
            seed in any::<u64>(),
            num_configs in 3usize..20,
        ) {
            let asha = Asha::new(num_configs, 3, 1, 9).unwrap();
            let mut score_rng = rng_for(seed, 0);
            let scores: Vec<f64> = (0..num_configs)
                .map(|_| score_rng.gen_range(0.0..1.0))
                .collect();
            let forward: Vec<usize> = (0..num_configs).collect();
            let mut shuffle_rng = rng_for(seed, 1);
            let shuffled: Vec<usize> = fedmath::rng::sample_without_replacement(
                &mut shuffle_rng,
                num_configs as u64,
                num_configs,
            )
            .unwrap()
            .into_iter()
            .map(|i| i as usize)
            .collect();
            let a = promotions_for(&forward, &scores, asha.clone());
            let b = promotions_for(&shuffled, &scores, asha);
            prop_assert_eq!(&a, &b);
            // The promoted set is the top third by score.
            prop_assert_eq!(a.len(), num_configs / 3);
        }
    }

    /// A score from a pool that stresses the rank key: ties, signed zeros,
    /// infinities and NaN of both signs beside ordinary values.
    fn hostile_score(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::from_bits(0xfff8_0000_0000_0000),
            6 | 7 => f64::from(rng.gen_range(0..4u8)) / 4.0,
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    /// Asserts the index agrees with the sort-based oracle over the accepted
    /// results, and `is_finished` with the oracle's answer.
    fn check_against_oracle(
        scheduler: &Asha,
        reported: &[TrialResult],
        outstanding: &[TrialRequest],
    ) -> std::result::Result<(), TestCaseError> {
        let oracle = scheduler.promotable(reported);
        prop_assert_eq!(scheduler.indexed(), oracle.clone());
        prop_assert_eq!(
            scheduler.is_finished(),
            scheduler.sampled >= scheduler.num_configs
                && outstanding.is_empty()
                && oracle.is_empty()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random report histories — live results in any order, results
        /// nobody asked for, re-reports with a new score — never let the
        /// rung index drift from the sort-based oracle: the ladder accepts
        /// exactly the results the test holds a request for, rejects the
        /// rest without moving, and `suggest` pops exactly the oracle's first
        /// promotions.
        #[test]
        fn prop_index_matches_the_sort_oracle(
            seed in any::<u64>(),
            eta in 2usize..=4,
            rungs in 1u32..=5,
            num_configs in 1usize..300,
        ) {
            // The asynchronous ladder: only it may be polled with results
            // outstanding, which is what a random history does.
            let mut scheduler =
                Asha::asynchronous(num_configs, eta, 1, eta.pow(rungs - 1)).unwrap();
            let space = SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap();
            let mut rng = rng_for(seed, 0);
            let mut outstanding: Vec<TrialRequest> = Vec::new();
            let mut reported: Vec<TrialResult> = Vec::new();
            for _ in 0..3 * num_configs {
                let result = match rng.gen_range(0..10) {
                    0..=2 => {
                        let expected: Vec<(usize, usize)> = scheduler
                            .promotable(&reported)
                            .into_iter()
                            .map(|(id, k)| (id, scheduler.rung_resource(k + 1)))
                            .collect();
                        let batch = scheduler.suggest(&space, &mut rng).unwrap();
                        let promoted: Vec<(usize, usize)> = batch
                            .iter()
                            .take(expected.len())
                            .map(|r| (r.trial_id, r.resource))
                            .collect();
                        prop_assert_eq!(promoted, expected);
                        outstanding.extend(batch);
                        check_against_oracle(&scheduler, &reported, &outstanding)?;
                        continue;
                    }
                    3 => TrialResult {
                        trial_id: rng.gen_range(0..num_configs + 8),
                        config: HpConfig::new(vec![0.5]),
                        resource: scheduler.rung_resource(rng.gen_range(0..rungs as usize)),
                        noise_rep: 0,
                        score: hostile_score(&mut rng),
                    },
                    4 if !reported.is_empty() => {
                        let earlier = &reported[rng.gen_range(0..reported.len())];
                        TrialResult {
                            score: hostile_score(&mut rng),
                            ..earlier.clone()
                        }
                    }
                    _ if !outstanding.is_empty() => {
                        let request = &outstanding[rng.gen_range(0..outstanding.len())];
                        TrialResult::of(request, hostile_score(&mut rng))
                    }
                    _ => continue,
                };
                let asked = outstanding
                    .iter()
                    .position(|r| (r.trial_id, r.resource) == (result.trial_id, result.resource));
                if let Some(position) = asked {
                    outstanding.swap_remove(position);
                    scheduler.report(&result).unwrap();
                    reported.push(result);
                } else {
                    let before = (scheduler.promotable(&reported), scheduler.indexed());
                    prop_assert!(scheduler.report(&result).is_err());
                    prop_assert_eq!((scheduler.promotable(&reported), scheduler.indexed()), before);
                }
                check_against_oracle(&scheduler, &reported, &outstanding)?;
            }
        }
    }
}
