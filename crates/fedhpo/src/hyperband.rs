//! Hyperband (Li et al. 2017) over Successive Halving brackets, and BOHB
//! (Falkner, Klein & Hutter 2018) on the same ladder.
//!
//! A Successive Halving (SHA) bracket trains `n` configurations for a small
//! resource, keeps the best `⌊n/η⌋`, multiplies the resource by `η`, and
//! repeats. Hyperband hedges over the exploration/exploitation trade-off by
//! running several SHA brackets with different initial `n` and resource.
//! The paper runs 5 brackets with elimination factor `η = 3` and a maximum
//! of 405 rounds per configuration.
//!
//! A bracket is a rung-synchronous [`Asha`] ladder opened on the
//! configurations the bracket drew: this module plans the brackets, draws
//! their configurations and numbers their trials, and ranks nothing itself.
//!
//! BOHB keeps Hyperband's bracket structure but replaces its uniform random
//! sampling of new configurations with proposals from a TPE model fitted on
//! the observations gathered so far. Following the original method, the model
//! is fitted on the *highest fidelity* (largest resource) that has collected
//! enough observations, and falls back to random sampling early on.

use crate::scheduler::{Scheduler, TrialRequest, TrialResult};
use crate::space::{HpConfig, SearchSpace};
use crate::{tpe, Asha, HpoError, Result};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Observations BOHB needs at a fidelity before it trusts the TPE model
/// there.
const BOHB_MIN_OBSERVATIONS: usize = 6;

/// How a [`Hyperband`] ladder draws the configurations entering a bracket.
#[derive(Debug, Clone)]
enum Proposer {
    /// Uniform random sampling (Hyperband).
    Uniform,
    /// TPE-model proposals fitted on the highest fidelity with enough
    /// observations (BOHB), from all reported `(config, score)` pairs keyed
    /// by fidelity.
    Tpe(BTreeMap<usize, Vec<(HpConfig, f64)>>),
}

impl Proposer {
    fn propose(
        &self,
        space: &SearchSpace,
        count: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<HpConfig>> {
        match self {
            Proposer::Uniform => space.sample_many(count, rng),
            Proposer::Tpe(observations) => {
                // Highest fidelity with enough observations, if any.
                let model_obs = observations
                    .iter()
                    .rev()
                    .find(|(_, obs)| obs.len() >= BOHB_MIN_OBSERVATIONS)
                    .map(|(_, obs)| obs.as_slice());
                let mut configs = Vec::with_capacity(count);
                for _ in 0..count {
                    let config = match model_obs {
                        Some(obs) => tpe::propose(space, obs, rng)?,
                        None => space.sample(rng)?,
                    };
                    configs.push(config);
                }
                Ok(configs)
            }
        }
    }

    fn observe(&mut self, result: &TrialResult) {
        if let Proposer::Tpe(observations) = self {
            observations
                .entry(result.resource)
                .or_default()
                .push((result.config.clone(), result.score));
        }
    }
}

/// Hyperband (or BOHB): a ladder of SHA brackets trading off the number of
/// configurations against the resource each receives.
///
/// Each bracket is a rung-synchronous [`Asha`] ladder opened on the
/// configurations the proposer drew, so the rank rule, the survivor count
/// and the rejection of results nobody asked for are ASHA's. Every *rung*
/// (all active configurations of a bracket at one fidelity) is suggested as
/// a single batch in trial-id order, so a parallel batch driver trains an
/// entire rung concurrently. Trial ids run on across brackets.
#[derive(Debug, Clone)]
pub struct Hyperband {
    name: &'static str,
    eta: usize,
    max_resource: usize,
    /// `(num_configs, min_resource)` per bracket, in execution order (most
    /// exploratory first).
    brackets: Vec<(usize, usize)>,
    /// Brackets opened so far.
    opened: usize,
    /// The open bracket, numbering its trials from 0.
    ladder: Option<Asha>,
    /// The trial id of the open bracket's trial 0.
    first_trial_id: usize,
    proposer: Proposer,
}

impl Hyperband {
    /// A fresh Hyperband campaign with uniformly sampled brackets.
    /// `num_brackets = None` derives the standard `⌊log_η(max_resource)⌋ + 1`
    /// bracket count.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] for a zero `max_resource` or an
    /// `eta` below 2.
    pub fn new(max_resource: usize, eta: usize, num_brackets: Option<usize>) -> Result<Self> {
        Self::ladder("hb", max_resource, eta, num_brackets, Proposer::Uniform)
    }

    /// A fresh BOHB campaign: the [`new`](Self::new) ladder with brackets
    /// drawn from a TPE model.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn bohb(max_resource: usize, eta: usize, num_brackets: Option<usize>) -> Result<Self> {
        let proposer = Proposer::Tpe(BTreeMap::new());
        Self::ladder("bohb", max_resource, eta, num_brackets, proposer)
    }

    fn ladder(
        name: &'static str,
        max_resource: usize,
        eta: usize,
        num_brackets: Option<usize>,
        proposer: Proposer,
    ) -> Result<Self> {
        if max_resource == 0 {
            return Err(HpoError::InvalidConfig {
                message: "max_resource must be positive".into(),
            });
        }
        if eta < 2 {
            return Err(HpoError::InvalidConfig {
                message: format!("eta must be at least 2, got {eta}"),
            });
        }
        let num_brackets = num_brackets
            .unwrap_or(((max_resource as f64).ln() / (eta as f64).ln()).floor() as usize + 1)
            .max(1);
        // Bracket `s` (`s = num_brackets - 1` is the most exploratory) opens
        // with `n` configurations at resource `r`.
        let eta_f = eta as f64;
        let brackets = (0..num_brackets)
            .rev()
            .map(|s| {
                let n = ((num_brackets as f64 / (s + 1) as f64) * eta_f.powi(s as i32)).ceil();
                let r = (max_resource as f64 / eta_f.powi(s as i32))
                    .round()
                    .max(1.0);
                ((n as usize).max(1), (r as usize).min(max_resource))
            })
            .collect();
        Ok(Hyperband {
            name,
            eta,
            max_resource,
            brackets,
            opened: 0,
            ladder: None,
            first_trial_id: 0,
            proposer,
        })
    }

    /// Number of evaluations the schedule performs over all brackets — the
    /// DP composition length `M` of a Hyperband / BOHB run: the sum of the
    /// brackets' [`Asha::planned_evaluations`], saturating at `usize::MAX`.
    pub fn planned_evaluations(&self) -> usize {
        self.brackets
            .iter()
            .map(|&(n, r)| {
                // Every bracket is a valid ladder: `n`, `r` ≥ 1, `r` ≤ R.
                Asha::new(n, self.eta, r, self.max_resource)
                    .map_or(0, |bracket| bracket.planned_evaluations())
            })
            .fold(0, usize::saturating_add)
    }
}

impl Scheduler for Hyperband {
    fn name(&self) -> &'static str {
        self.name
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        if self.is_finished() {
            return Ok(Vec::new());
        }
        let ladder = match &mut self.ladder {
            Some(ladder) if !ladder.is_finished() => ladder,
            closed => {
                let (n, min_resource) = self.brackets[self.opened];
                let configs = self.proposer.propose(space, n, rng)?;
                let ladder = Asha::bracket(configs, self.eta, min_resource, self.max_resource)?;
                self.first_trial_id = self.brackets[..self.opened].iter().map(|b| b.0).sum();
                self.opened += 1;
                closed.insert(ladder)
            }
        };
        // A rung's survivors come best first; dispatch them in trial-id order.
        let mut batch = ladder.suggest(space, rng)?;
        batch.sort_unstable_by_key(|request| request.trial_id);
        for request in &mut batch {
            request.trial_id += self.first_trial_id;
        }
        Ok(batch)
    }

    fn report(&mut self, result: &TrialResult) -> Result<()> {
        let trial_id = result.trial_id.checked_sub(self.first_trial_id);
        match (self.ladder.as_mut(), trial_id) {
            (Some(ladder), Some(trial_id)) => ladder.tell(trial_id, result)?,
            _ => {
                return Err(HpoError::InvalidConfig {
                    message: format!(
                        "{} scheduler received a result for trial {} outside its open bracket",
                        self.name, result.trial_id
                    ),
                })
            }
        }
        self.proposer.observe(result);
        Ok(())
    }

    fn is_finished(&self) -> bool {
        self.opened == self.brackets.len() && self.ladder.as_ref().is_none_or(Asha::is_finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::run_fresh;
    use fedmath::rng::rng_for;
    use std::collections::HashMap;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    /// Objective where the score improves with resource and depends on |x - 0.3|.
    fn resource_aware(config: &HpConfig, resource: usize) -> f64 {
        let x = config.values()[0];
        let quality = (x - 0.3).abs();
        // More resource reveals the true quality (less "bias").
        quality + 1.0 / (resource as f64 + 1.0)
    }

    #[test]
    fn a_bracket_eliminates_configs_and_promotes_survivors() {
        let mut rng = rng_for(1, 0);
        // The first of three brackets is SHA with 9 configurations at r=1.
        let hb = Hyperband::new(9, 3, Some(3)).unwrap();
        let outcome = run_fresh(hb, &space_1d(), resource_aware, &mut rng).unwrap();
        let bracket: Vec<_> = outcome.records().iter().take(13).collect();
        assert!(bracket.iter().all(|r| r.trial_id < 9));
        assert!(outcome.records()[13..].iter().all(|r| r.trial_id >= 9));

        // Count evaluations per rung: 9 at r=1, 3 at r=3, 1 at r=9.
        let mut per_rung: HashMap<usize, usize> = HashMap::new();
        for r in &bracket {
            *per_rung.entry(r.resource).or_default() += 1;
        }
        assert_eq!(per_rung.get(&1), Some(&9));
        assert_eq!(per_rung.get(&3), Some(&3));
        assert_eq!(per_rung.get(&9), Some(&1));

        // Bracket budget: 9*1 + 3*(3-1) + 1*(9-3) = 21.
        assert_eq!(bracket[12].cumulative_resource, 21);

        // Only configurations that were among the best at the previous rung
        // are promoted.
        let rung1_scores: HashMap<usize, f64> = bracket
            .iter()
            .filter(|r| r.resource == 1)
            .map(|r| (r.trial_id, r.score))
            .collect();
        let promoted: Vec<usize> = bracket
            .iter()
            .filter(|r| r.resource == 3)
            .map(|r| r.trial_id)
            .collect();
        let mut sorted: Vec<(usize, f64)> = rung1_scores.iter().map(|(&k, &v)| (k, v)).collect();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let best3: std::collections::HashSet<usize> =
            sorted.iter().take(3).map(|(k, _)| *k).collect();
        for id in promoted {
            assert!(best3.contains(&id), "promoted a non-top-3 configuration");
        }
    }

    #[test]
    fn hyperband_bracket_plan_matches_paper_shape() {
        // R = 405, eta = 3, 5 brackets reproduces the paper's structure,
        // most exploratory bracket first.
        let hb = Hyperband::new(405, 3, Some(5)).unwrap();
        assert_eq!((hb.eta, hb.max_resource), (3, 405));
        assert_eq!(
            hb.brackets,
            vec![(81, 5), (34, 15), (15, 45), (8, 135), (5, 405)]
        );
        // R = 9, eta = 3, 3 brackets: s=2 runs 9 + 3 + 1 evaluations
        // (n=9, r=1), s=1 runs 5 + 1 (n=5, r=3), s=0 runs 3 (n=3, r=9).
        assert_eq!(
            Hyperband::new(9, 3, Some(3)).unwrap().planned_evaluations(),
            9 + 3 + 1 + 5 + 1 + 3
        );
    }

    #[test]
    fn the_plan_saturates_instead_of_overflowing() {
        // Brackets past s ≈ 40 hold usize::MAX configurations.
        let hb = Hyperband::new(405, 3, Some(64)).unwrap();
        assert_eq!(hb.brackets[0].0, usize::MAX);
        assert_eq!(hb.planned_evaluations(), usize::MAX);
    }

    #[test]
    fn hyperband_derives_bracket_count() {
        let hb = Hyperband::new(81, 3, None).unwrap();
        // log3(81) = 4 -> 5 brackets.
        assert_eq!(hb.brackets.len(), 5);
        let hb = Hyperband::new(1, 3, None).unwrap();
        assert_eq!(hb.brackets.len(), 1);
    }

    #[test]
    fn hyperband_runs_all_brackets_and_respects_max_resource() {
        let mut rng = rng_for(2, 0);
        let hb = Hyperband::new(27, 3, Some(3)).unwrap();
        assert_eq!(hb.name(), "hb");
        let outcome = run_fresh(hb, &space_1d(), resource_aware, &mut rng).unwrap();
        assert!(outcome.num_evaluations() > 0);
        assert!(outcome.records().iter().all(|r| r.resource <= 27));
        // The most exploitative bracket evaluates at full resource.
        assert!(outcome.records().iter().any(|r| r.resource == 27));
        // Cumulative budget is strictly increasing.
        let mut prev = 0;
        for r in outcome.records() {
            assert!(r.cumulative_resource >= prev);
            prev = r.cumulative_resource;
        }
    }

    #[test]
    fn hyperband_finds_good_configs_on_resource_aware_objective() {
        let mut rng = rng_for(3, 0);
        let hb = Hyperband::new(27, 3, Some(3)).unwrap();
        let outcome = run_fresh(hb, &space_1d(), resource_aware, &mut rng).unwrap();
        let best = outcome
            .records()
            .iter()
            .filter(|r| r.resource == 27)
            .min_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        let x = best.config.values()[0];
        assert!((x - 0.3).abs() < 0.2, "best x = {x} should be near 0.3");
    }

    #[test]
    fn validation() {
        for build in [Hyperband::new, Hyperband::bohb] {
            assert!(build(0, 3, Some(2)).is_err());
            assert!(build(9, 1, Some(2)).is_err());
        }
    }

    #[test]
    fn scheduler_suggests_whole_rungs_as_batches() {
        let space = space_1d();
        let mut scheduler = Hyperband::new(9, 3, Some(3)).unwrap();
        let mut rng = rng_for(6, 0);
        // Rung 0: 9 configurations at resource 1, one batch.
        let rung0 = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(rung0.len(), 9);
        assert!(rung0.iter().all(|r| r.resource == 1));
        // Suggesting again with results outstanding is a contract violation.
        assert!(scheduler.suggest(&space, &mut rng).is_err());
        // Report in an arbitrary (here: reversed) order; promotions only
        // depend on the scores, not the arrival order.
        for request in rung0.iter().rev() {
            let score = request.trial_id as f64; // trials 0,1,2 are best
            scheduler.report(&TrialResult::of(request, score)).unwrap();
        }
        let rung1 = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(rung1.len(), 3);
        assert!(rung1.iter().all(|r| r.resource == 3));
        let promoted: Vec<usize> = rung1.iter().map(|r| r.trial_id).collect();
        assert_eq!(promoted, vec![0, 1, 2]);
        // Duplicate and unknown results are rejected.
        scheduler.report(&TrialResult::of(&rung1[0], 0.0)).unwrap();
        assert!(scheduler.report(&TrialResult::of(&rung1[0], 0.0)).is_err());
        let mut bogus = rung1[1].clone();
        bogus.trial_id = 999;
        assert!(scheduler.report(&TrialResult::of(&bogus, 0.0)).is_err());
        scheduler.report(&TrialResult::of(&rung1[1], 1.0)).unwrap();
        scheduler.report(&TrialResult::of(&rung1[2], 2.0)).unwrap();
        // Rung 2: the single survivor at max resource closes the bracket.
        let rung2 = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(rung2.len(), 1);
        assert_eq!(rung2[0].resource, 9);
        scheduler.report(&TrialResult::of(&rung2[0], 0.5)).unwrap();
        // The next bracket starts with fresh trials: 5 at resource 3.
        let next = scheduler.suggest(&space, &mut rng).unwrap();
        let ids: Vec<usize> = next.iter().map(|r| r.trial_id).collect();
        assert_eq!(ids, (9..14).collect::<Vec<_>>());
        assert!(next.iter().all(|r| r.resource == 3));
        for request in &next {
            let score = request.trial_id as f64; // trial 9 is best
            scheduler.report(&TrialResult::of(request, score)).unwrap();
        }
        let survivor = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(survivor.len(), 1);
        assert_eq!((survivor[0].trial_id, survivor[0].resource), (9, 9));
        scheduler
            .report(&TrialResult::of(&survivor[0], 0.5))
            .unwrap();
        // The last bracket: 3 configurations straight at max resource.
        let last = scheduler.suggest(&space, &mut rng).unwrap();
        let ids: Vec<usize> = last.iter().map(|r| r.trial_id).collect();
        assert_eq!(ids, (14..17).collect::<Vec<_>>());
        assert!(last.iter().all(|r| r.resource == 9));
        for request in &last {
            assert!(!scheduler.is_finished());
            scheduler.report(&TrialResult::of(request, 1.0)).unwrap();
        }
        // The ladder is done: finished, and suggesting returns no work.
        assert!(scheduler.is_finished());
        assert!(scheduler.suggest(&space, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn rejections_run_through_the_bracket_offset() {
        let space = space_1d();
        let mut scheduler = Hyperband::new(9, 3, Some(3)).unwrap();
        let mut rng = rng_for(9, 0);
        // Nothing is asked for before the first bracket opens.
        let probe = TrialResult {
            trial_id: 0,
            config: HpConfig::new(vec![0.5]),
            resource: 1,
            noise_rep: 0,
            score: 0.0,
        };
        assert!(scheduler.report(&probe).is_err());
        // Run the first bracket to its close: 9 at r=1, 3 at r=3, 1 at r=9.
        let mut rung = scheduler.suggest(&space, &mut rng).unwrap();
        for _ in 0..2 {
            for request in &rung {
                let score = request.trial_id as f64;
                scheduler.report(&TrialResult::of(request, score)).unwrap();
            }
            rung = scheduler.suggest(&space, &mut rng).unwrap();
        }
        assert_eq!((rung.len(), rung[0].resource), (1, 9));
        scheduler.report(&TrialResult::of(&rung[0], 0.0)).unwrap();
        // The bracket has closed: its survivor's result a second time, or
        // any of its trials at any rung, is refused.
        assert!(scheduler.report(&TrialResult::of(&rung[0], 0.0)).is_err());
        assert!(scheduler.report(&probe).is_err());
        // The next bracket opens on trials 9..14 at r=3.
        let next = scheduler.suggest(&space, &mut rng).unwrap();
        let ids: Vec<usize> = next.iter().map(|r| r.trial_id).collect();
        assert_eq!(ids, (9..14).collect::<Vec<_>>());
        // Ids below the open bracket's first id, and one past its last, are
        // refused at the bracket's own rung.
        for trial_id in [0, 8, 14] {
            let bogus = TrialResult {
                trial_id,
                ..TrialResult::of(&next[0], 0.0)
            };
            assert!(scheduler.report(&bogus).is_err(), "trial {trial_id}");
        }
        // The refusals moved nothing: trial 13 scores best and survives.
        for request in &next {
            let score = 20.0 - request.trial_id as f64;
            scheduler.report(&TrialResult::of(request, score)).unwrap();
        }
        let survivor = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!((survivor.len(), survivor[0].trial_id), (1, 13));
    }

    #[test]
    fn nan_scores_are_eliminated_first() {
        let space = space_1d();
        // 0.0 / 0.0 at run time on x86-64: a NaN with the sign bit set,
        // which `total_cmp` alone ranks before every finite score.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        for scores in [[f64::NAN, 0.9, 0.1], [negative_nan, f64::NEG_INFINITY, 0.9]] {
            // One bracket opening with 3 configurations at r=1 of R=3.
            let mut scheduler = Hyperband::new(3, 3, Some(2)).unwrap();
            let mut rng = rng_for(7, 0);
            let rung0 = scheduler.suggest(&space, &mut rng).unwrap();
            for (request, score) in rung0.iter().zip(scores) {
                scheduler.report(&TrialResult::of(request, score)).unwrap();
            }
            let rung1 = scheduler.suggest(&space, &mut rng).unwrap();
            assert_eq!(rung1.len(), 1);
            assert_eq!(rung1[0].trial_id, rung0[2].trial_id);
        }
    }

    #[test]
    fn trial_ids_are_unique_across_brackets() {
        let mut rng = rng_for(5, 0);
        let hb = Hyperband::new(9, 3, Some(3)).unwrap();
        let outcome = run_fresh(hb, &space_1d(), resource_aware, &mut rng).unwrap();
        // A trial id must always map to one configuration.
        let mut seen: HashMap<usize, Vec<f64>> = HashMap::new();
        for r in outcome.records() {
            let entry = seen
                .entry(r.trial_id)
                .or_insert_with(|| r.config.values().to_vec());
            assert_eq!(entry, &r.config.values().to_vec());
        }
    }

    /// A score with ties, NaN and infinities, so pins cover the rank rule.
    fn hostile_score(config: &HpConfig, resource: usize) -> f64 {
        let x = config.values()[0];
        match x {
            x if x < 0.05 => f64::NAN,
            x if x > 0.95 => f64::INFINITY,
            x => ((x - 0.7).abs() * 8.0).floor() / 8.0 + 0.5 / (resource as f64 + 1.0),
        }
    }

    #[test]
    fn campaign_records_are_pinned() {
        // `(ladder, records, digest of every record's trial id, config bits,
        // resource, score bits and cumulative resource)` at seed 4.
        let pins: [(Hyperband, usize, u64); 6] = [
            (
                Hyperband::new(27, 3, Some(3)).unwrap(),
                22,
                0xb3364518c2aa9d9b,
            ),
            (
                Hyperband::bohb(27, 3, Some(3)).unwrap(),
                22,
                0x83dfac200c380f4b,
            ),
            (
                Hyperband::new(405, 3, Some(5)).unwrap(),
                206,
                0x93182ae64e21f549,
            ),
            (
                Hyperband::bohb(405, 3, Some(5)).unwrap(),
                206,
                0xd67a2cae7998cbad,
            ),
            (Hyperband::new(16, 2, None).unwrap(), 72, 0x20bb2bd9c5fd98b1),
            (
                Hyperband::bohb(16, 2, None).unwrap(),
                72,
                0x067ff97f07c7d1dd,
            ),
        ];
        let mut actual = Vec::new();
        for (ladder, _, _) in &pins {
            let planned = ladder.planned_evaluations();
            let mut rng = rng_for(4, 0);
            let outcome = run_fresh(ladder.clone(), &space_1d(), hostile_score, &mut rng).unwrap();
            assert_eq!(outcome.num_evaluations(), planned);
            let mut bits = Vec::new();
            for r in outcome.records() {
                bits.push(r.trial_id as u64);
                bits.extend(r.config.values().iter().map(|v| v.to_bits()));
                bits.extend([r.resource as u64, r.score.to_bits()]);
                bits.push(r.cumulative_resource as u64);
            }
            let digest = crate::space::fingerprint_bits(&bits);
            println!("actual: ({}, {planned}, 0x{digest:016x})", ladder.name());
            actual.push((planned, digest));
        }
        let expected: Vec<(usize, u64)> = pins.iter().map(|&(_, n, d)| (n, d)).collect();
        assert_eq!(actual, expected);
    }

    fn bohb_score(config: &HpConfig, resource: usize) -> f64 {
        let x = config.values()[0];
        (x - 0.7).abs() + 0.5 / (resource as f64 + 1.0)
    }

    #[test]
    fn bohb_runs_hyperbands_ladder() {
        let bohb = Hyperband::bohb(27, 3, Some(3)).unwrap();
        assert_eq!(bohb.name(), "bohb");
        let hb = Hyperband::new(27, 3, Some(3)).unwrap();
        assert_eq!(bohb.brackets, hb.brackets);
        let mut rng = rng_for(0, 0);
        let outcome = run_fresh(bohb, &space_1d(), bohb_score, &mut rng).unwrap();
        assert!(outcome.num_evaluations() > 0);
        assert!(outcome.records().iter().all(|r| r.resource <= 27));
        assert!(outcome.records().iter().any(|r| r.resource == 27));
        // Same bracket structure as Hyperband, so the same total budget.
        let mut rng = rng_for(0, 0);
        let hb_outcome = run_fresh(hb, &space_1d(), bohb_score, &mut rng).unwrap();
        assert_eq!(outcome.total_resource(), hb_outcome.total_resource());
    }

    #[test]
    fn bohb_proposals_remain_valid_in_paper_space() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(1, 0);
        // Score depends on server lr distance from 1e-3 (in log space).
        let lr_distance = |config: &HpConfig, _| (config.values()[0].log10() + 3.0).abs();
        let bohb = Hyperband::bohb(9, 3, Some(2)).unwrap();
        let outcome = run_fresh(bohb, &space, lr_distance, &mut rng).unwrap();
        for record in outcome.records() {
            assert!(space.validate_config(&record.config).is_ok());
        }
    }

    #[test]
    fn bohb_eventually_concentrates_near_the_optimum() {
        // With several brackets the later proposals should cluster near the
        // optimum x = 0.7 more than uniform sampling would.
        let mut rng = rng_for(2, 0);
        let bohb = Hyperband::bohb(27, 3, Some(3)).unwrap();
        let outcome = run_fresh(bohb, &space_1d(), bohb_score, &mut rng).unwrap();
        let n = outcome.num_evaluations();
        let late: Vec<f64> = outcome.records()[n / 2..]
            .iter()
            .map(|r| (r.config.values()[0] - 0.7).abs())
            .collect();
        let mean_late = fedmath::stats::mean(&late);
        // Uniform sampling over [0,1] has mean distance ~0.29 from 0.7.
        assert!(
            mean_late < 0.29,
            "late proposals (mean distance {mean_late}) show no concentration"
        );
    }

    #[test]
    fn bohb_proposes_valid_configs_without_observations() {
        let space = space_1d();
        let mut scheduler = Hyperband::bohb(9, 3, Some(2)).unwrap();
        let mut rng = rng_for(3, 0);
        // Without observations the first bracket falls back to uniform
        // sampling and must still produce valid configurations.
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        assert!(!batch.is_empty());
        for request in &batch {
            assert!(space.validate_config(&request.config).is_ok());
        }
    }
}
