//! Successive Halving and Hyperband (Li et al. 2017).
//!
//! Successive Halving (SHA) trains `n` configurations for a small resource,
//! keeps the best `⌊n/η⌋`, multiplies the resource by `η`, and repeats.
//! Hyperband hedges over the exploration/exploitation trade-off by running
//! several SHA brackets with different initial `n` and resource. The paper
//! runs 5 brackets with elimination factor `η = 3` and a maximum of 405
//! rounds per configuration.

use crate::scheduler::{score_rank, IntoScheduler, Scheduler, TrialRequest, TrialResult};
use crate::space::{HpConfig, SearchSpace};
use crate::tpe::TpeSampler;
use crate::{HpoError, Result};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// How a [`BracketScheduler`] draws the configurations entering a bracket.
#[derive(Debug, Clone)]
pub(crate) enum Proposer {
    /// Uniform random sampling (Successive Halving, Hyperband).
    Uniform,
    /// TPE-model proposals fitted on the highest fidelity with enough
    /// observations (BOHB).
    Tpe {
        /// The shared TPE proposal engine.
        sampler: TpeSampler,
        /// Observations needed at a fidelity before its model is trusted.
        min_observations: usize,
        /// All reported `(config, score)` pairs, keyed by fidelity.
        observations: BTreeMap<usize, Vec<(HpConfig, f64)>>,
    },
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
            Proposer::Tpe {
                sampler,
                min_observations,
                observations,
            } => {
                // Highest fidelity with enough observations, if any.
                let model_obs = observations
                    .iter()
                    .rev()
                    .find(|(_, obs)| obs.len() >= *min_observations)
                    .map(|(_, obs)| obs.as_slice());
                let mut configs = Vec::with_capacity(count);
                for _ in 0..count {
                    let config = match model_obs {
                        Some(obs) => sampler.propose(space, obs, rng)?,
                        None => space.sample(rng)?,
                    };
                    configs.push(config);
                }
                Ok(configs)
            }
        }
    }

    fn observe(&mut self, result: &TrialResult) {
        if let Proposer::Tpe { observations, .. } = self {
            observations
                .entry(result.resource)
                .or_default()
                .push((result.config.clone(), result.score));
        }
    }
}

/// Ask/tell state machine executing a sequence of Successive Halving
/// brackets: every *rung* (all active configurations at one fidelity) is
/// suggested as a single batch, so a parallel batch driver trains an entire
/// rung concurrently. Survivor selection is deterministic — finite scores
/// are ordered with `f64::total_cmp`, every non-finite score after them, and
/// ties resolve to the earlier trial id, so non-finite scores are eliminated
/// first.
///
/// Shared by [`SuccessiveHalving`] (one bracket), [`Hyperband`] (the bracket
/// ladder), and [`crate::Bohb`] (the ladder with TPE proposals).
#[derive(Debug, Clone)]
pub struct BracketScheduler {
    name: &'static str,
    eta: usize,
    max_resource: usize,
    /// `(num_configs, min_resource)` per bracket, in execution order.
    brackets: Vec<(usize, usize)>,
    bracket_idx: usize,
    started: bool,
    /// Active configurations of the current bracket: `(trial_id, config)`.
    active: Vec<(usize, HpConfig)>,
    /// Fidelity of the current rung.
    resource: usize,
    /// Scores of the current rung, by `active` position.
    scores: Vec<Option<f64>>,
    awaiting: usize,
    next_trial_id: usize,
    proposer: Proposer,
}

impl BracketScheduler {
    pub(crate) fn new(
        name: &'static str,
        eta: usize,
        max_resource: usize,
        brackets: Vec<(usize, usize)>,
        proposer: Proposer,
    ) -> Self {
        BracketScheduler {
            name,
            eta,
            max_resource,
            brackets,
            bracket_idx: 0,
            started: false,
            active: Vec::new(),
            resource: 0,
            scores: Vec::new(),
            awaiting: 0,
            next_trial_id: 0,
            proposer,
        }
    }

    /// Completes the current rung: eliminate, promote, or close the bracket.
    fn advance_rung(&mut self) {
        if self.active.len() < self.eta || self.resource >= self.max_resource {
            self.bracket_idx += 1;
            self.started = false;
            self.active.clear();
            self.scores.clear();
            return;
        }
        // Keep the best ⌊n/η⌋ configurations (at least one).
        let keep = (self.active.len() / self.eta).max(1);
        let mut order: Vec<usize> = (0..self.active.len()).collect();
        order.sort_by_key(|&i| {
            let score = self.scores[i].unwrap_or(f64::NAN);
            (score_rank(score), self.active[i].0)
        });
        let survivors: std::collections::HashSet<usize> = order.into_iter().take(keep).collect();
        self.active = self
            .active
            .iter()
            .enumerate()
            .filter(|(i, _)| survivors.contains(i))
            .map(|(_, x)| x.clone())
            .collect();
        self.resource = (self.resource * self.eta).min(self.max_resource);
    }
}

impl Scheduler for BracketScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        if self.is_finished() {
            return Ok(Vec::new());
        }
        if self.awaiting > 0 {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "{} scheduler asked for a batch with {} rung results outstanding",
                    self.name, self.awaiting
                ),
            });
        }
        if !self.started {
            let (n, min_resource) = self.brackets[self.bracket_idx];
            let configs = self.proposer.propose(space, n, rng)?;
            self.active = configs
                .into_iter()
                .map(|config| {
                    let id = self.next_trial_id;
                    self.next_trial_id += 1;
                    (id, config)
                })
                .collect();
            self.resource = min_resource.min(self.max_resource);
            self.started = true;
        }
        self.scores = vec![None; self.active.len()];
        self.awaiting = self.active.len();
        Ok(self
            .active
            .iter()
            .map(|(trial_id, config)| TrialRequest {
                trial_id: *trial_id,
                config: config.clone(),
                resource: self.resource,
                noise_rep: 0,
            })
            .collect())
    }

    fn report(&mut self, result: &TrialResult) -> Result<()> {
        let position = self
            .active
            .iter()
            .position(|(id, _)| *id == result.trial_id)
            .ok_or_else(|| HpoError::InvalidConfig {
                message: format!(
                    "{} scheduler received a result for unknown trial {}",
                    self.name, result.trial_id
                ),
            })?;
        if self.scores[position].is_some() {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "{} scheduler received a duplicate result for trial {}",
                    self.name, result.trial_id
                ),
            });
        }
        self.proposer.observe(result);
        self.scores[position] = Some(result.score);
        self.awaiting -= 1;
        if self.awaiting == 0 {
            self.advance_rung();
        }
        Ok(())
    }

    fn is_finished(&self) -> bool {
        self.bracket_idx >= self.brackets.len() && self.awaiting == 0
    }
}

/// One Successive Halving bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccessiveHalving {
    num_configs: usize,
    eta: usize,
    min_resource: usize,
    max_resource: usize,
}

impl SuccessiveHalving {
    /// Creates a SHA bracket configuration.
    pub fn new(num_configs: usize, eta: usize, min_resource: usize, max_resource: usize) -> Self {
        SuccessiveHalving {
            num_configs,
            eta,
            min_resource,
            max_resource,
        }
    }

    /// Number of configurations entering the bracket.
    pub fn num_configs(&self) -> usize {
        self.num_configs
    }

    /// Elimination factor `η`.
    pub fn eta(&self) -> usize {
        self.eta
    }

    /// Resource of the first rung.
    pub fn min_resource(&self) -> usize {
        self.min_resource
    }

    /// Maximum resource any configuration may receive.
    pub fn max_resource(&self) -> usize {
        self.max_resource
    }

    fn validate(&self) -> Result<()> {
        if self.num_configs == 0 {
            return Err(HpoError::InvalidConfig {
                message: "successive halving needs at least one configuration".into(),
            });
        }
        if self.eta < 2 {
            return Err(HpoError::InvalidConfig {
                message: format!("eta must be at least 2, got {}", self.eta),
            });
        }
        if self.min_resource == 0 || self.min_resource > self.max_resource {
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "resource range [{}, {}] is invalid",
                    self.min_resource, self.max_resource
                ),
            });
        }
        Ok(())
    }
}

impl IntoScheduler for SuccessiveHalving {
    type Scheduler = BracketScheduler;

    fn scheduler(&self) -> Result<BracketScheduler> {
        self.validate()?;
        Ok(BracketScheduler::new(
            "sha",
            self.eta,
            self.max_resource,
            vec![(self.num_configs, self.min_resource)],
            Proposer::Uniform,
        ))
    }
}

/// Hyperband: a collection of SHA brackets trading off the number of
/// configurations against the resource each receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hyperband {
    max_resource: usize,
    eta: usize,
    num_brackets: usize,
}

impl Hyperband {
    /// Creates a Hyperband tuner. `num_brackets = None` derives the standard
    /// `⌊log_η(max_resource)⌋ + 1` bracket count.
    pub fn new(max_resource: usize, eta: usize, num_brackets: Option<usize>) -> Self {
        let derived = if max_resource > 0 && eta >= 2 {
            ((max_resource as f64).ln() / (eta as f64).ln()).floor() as usize + 1
        } else {
            1
        };
        Hyperband {
            max_resource,
            eta,
            num_brackets: num_brackets.unwrap_or(derived).max(1),
        }
    }

    /// The paper's configuration: `η = 3` and 5 SHA brackets, with the given
    /// maximum rounds per configuration.
    pub fn paper_default(max_rounds: usize) -> Self {
        Hyperband::new(max_rounds, 3, Some(5))
    }

    /// Maximum resource per configuration.
    pub fn max_resource(&self) -> usize {
        self.max_resource
    }

    /// Elimination factor `η`.
    pub fn eta(&self) -> usize {
        self.eta
    }

    /// Number of SHA brackets.
    pub fn num_brackets(&self) -> usize {
        self.num_brackets
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_resource == 0 {
            return Err(HpoError::InvalidConfig {
                message: "max_resource must be positive".into(),
            });
        }
        if self.eta < 2 {
            return Err(HpoError::InvalidConfig {
                message: format!("eta must be at least 2, got {}", self.eta),
            });
        }
        Ok(())
    }

    /// The `(num_configs, min_resource)` pair for bracket `s`
    /// (`s = num_brackets - 1` is the most exploratory bracket).
    pub fn bracket_plan(&self, s: usize) -> (usize, usize) {
        let s_max = self.num_brackets - 1;
        let eta = self.eta as f64;
        let n = (((s_max + 1) as f64 / (s + 1) as f64) * eta.powi(s as i32)).ceil() as usize;
        let r = ((self.max_resource as f64) / eta.powi(s as i32))
            .round()
            .max(1.0) as usize;
        (n.max(1), r.min(self.max_resource))
    }

    /// Number of evaluations the schedule performs over all brackets — the
    /// DP composition length `M` of a Hyperband / BOHB run.
    pub fn planned_evaluations(&self) -> usize {
        let mut evaluations = 0;
        for (mut n, mut r) in self.bracket_ladder() {
            loop {
                evaluations += n;
                if n < self.eta || r >= self.max_resource {
                    break;
                }
                n = (n / self.eta).max(1);
                r = (r * self.eta).min(self.max_resource);
            }
        }
        evaluations
    }
}

impl Hyperband {
    /// The bracket ladder in execution order (most exploratory first).
    pub(crate) fn bracket_ladder(&self) -> Vec<(usize, usize)> {
        (0..self.num_brackets)
            .rev()
            .map(|s| self.bracket_plan(s))
            .collect()
    }
}

impl IntoScheduler for Hyperband {
    type Scheduler = BracketScheduler;

    fn scheduler(&self) -> Result<BracketScheduler> {
        self.validate()?;
        Ok(BracketScheduler::new(
            "hb",
            self.eta,
            self.max_resource,
            self.bracket_ladder(),
            Proposer::Uniform,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use crate::scheduler::run_fresh;
    use fedmath::rng::rng_for;
    use std::collections::HashMap;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    /// Objective where the score improves with resource and depends on |x - 0.3|.
    fn resource_aware_objective() -> FunctionObjective<impl FnMut(&HpConfig, usize) -> f64> {
        FunctionObjective::new(|config: &HpConfig, resource: usize| {
            let x = config.values()[0];
            let quality = (x - 0.3).abs();
            // More resource reveals the true quality (less "bias").
            quality + 1.0 / (resource as f64 + 1.0)
        })
    }

    #[test]
    fn sha_validation() {
        let mut rng = rng_for(0, 0);
        let mut obj = resource_aware_objective();
        assert!(run_fresh(
            &SuccessiveHalving::new(0, 3, 1, 9),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
        assert!(run_fresh(
            &SuccessiveHalving::new(9, 1, 1, 9),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
        assert!(run_fresh(
            &SuccessiveHalving::new(9, 3, 0, 9),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
        assert!(run_fresh(
            &SuccessiveHalving::new(9, 3, 10, 9),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
        let sha = SuccessiveHalving::new(9, 3, 1, 9);
        assert_eq!(sha.scheduler().unwrap().name(), "sha");
        assert_eq!(sha.num_configs(), 9);
        assert_eq!(sha.eta(), 3);
        assert_eq!(sha.min_resource(), 1);
        assert_eq!(sha.max_resource(), 9);
    }

    #[test]
    fn sha_eliminates_configs_and_promotes_survivors() {
        let mut rng = rng_for(1, 0);
        let mut obj = resource_aware_objective();
        let sha = SuccessiveHalving::new(9, 3, 1, 9);
        let outcome = run_fresh(&sha, &space_1d(), &mut obj, &mut rng).unwrap();

        // Count evaluations per rung: 9 at r=1, 3 at r=3, 1 at r=9.
        let mut per_rung: HashMap<usize, usize> = HashMap::new();
        for r in outcome.records() {
            *per_rung.entry(r.resource).or_default() += 1;
        }
        assert_eq!(per_rung.get(&1), Some(&9));
        assert_eq!(per_rung.get(&3), Some(&3));
        assert_eq!(per_rung.get(&9), Some(&1));

        // Total budget: 9*1 + 3*(3-1) + 1*(9-3) = 21.
        assert_eq!(outcome.total_resource(), 21);

        // Only configurations that were among the best at the previous rung
        // are promoted.
        let rung1_scores: HashMap<usize, f64> = outcome
            .records()
            .iter()
            .filter(|r| r.resource == 1)
            .map(|r| (r.trial_id, r.score))
            .collect();
        let promoted: Vec<usize> = outcome
            .records()
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
        // R = 405, eta = 3, 5 brackets reproduces the paper's structure.
        let hb = Hyperband::paper_default(405);
        assert_eq!(hb.num_brackets(), 5);
        assert_eq!(hb.eta(), 3);
        assert_eq!(hb.max_resource(), 405);
        assert_eq!(hb.bracket_plan(4), (81, 5));
        assert_eq!(hb.bracket_plan(3), (34, 15));
        assert_eq!(hb.bracket_plan(2), (15, 45));
        assert_eq!(hb.bracket_plan(1), (8, 135));
        assert_eq!(hb.bracket_plan(0), (5, 405));
        // R = 9, eta = 3, 3 brackets: s=2 runs 9 + 3 + 1 evaluations
        // (n=9, r=1), s=1 runs 5 + 1 (n=5, r=3), s=0 runs 3 (n=3, r=9).
        assert_eq!(
            Hyperband::new(9, 3, Some(3)).planned_evaluations(),
            9 + 3 + 1 + 5 + 1 + 3
        );
    }

    #[test]
    fn hyperband_derives_bracket_count() {
        let hb = Hyperband::new(81, 3, None);
        // log3(81) = 4 -> 5 brackets.
        assert_eq!(hb.num_brackets(), 5);
        let hb = Hyperband::new(1, 3, None);
        assert_eq!(hb.num_brackets(), 1);
    }

    #[test]
    fn hyperband_runs_all_brackets_and_respects_max_resource() {
        let mut rng = rng_for(2, 0);
        let mut obj = resource_aware_objective();
        let hb = Hyperband::new(27, 3, Some(3));
        let outcome = run_fresh(&hb, &space_1d(), &mut obj, &mut rng).unwrap();
        assert!(outcome.num_evaluations() > 0);
        assert!(outcome.records().iter().all(|r| r.resource <= 27));
        // The most exploitative bracket evaluates at full resource.
        assert!(outcome.records().iter().any(|r| r.resource == 27));
        assert_eq!(hb.scheduler().unwrap().name(), "hb");
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
        let mut obj = resource_aware_objective();
        let hb = Hyperband::new(27, 3, Some(3));
        let outcome = run_fresh(&hb, &space_1d(), &mut obj, &mut rng).unwrap();
        let best = outcome
            .best_at_max_fidelity_within_budget(usize::MAX)
            .unwrap();
        let x = best.config.values()[0];
        assert!((x - 0.3).abs() < 0.2, "best x = {x} should be near 0.3");
    }

    #[test]
    fn hyperband_validation() {
        let mut rng = rng_for(4, 0);
        let mut obj = resource_aware_objective();
        assert!(run_fresh(
            &Hyperband::new(0, 3, Some(2)),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
        assert!(run_fresh(
            &Hyperband::new(9, 1, Some(2)),
            &space_1d(),
            &mut obj,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn scheduler_suggests_whole_rungs_as_batches() {
        use crate::scheduler::{IntoScheduler, Scheduler, TrialResult};
        let space = space_1d();
        let sha = SuccessiveHalving::new(9, 3, 1, 9);
        let mut scheduler = sha.scheduler().unwrap();
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
        // Rung 2: the single survivor at max resource, then finished.
        let rung2 = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(rung2.len(), 1);
        assert_eq!(rung2[0].resource, 9);
        scheduler.report(&TrialResult::of(&rung2[0], 0.5)).unwrap();
        assert!(scheduler.is_finished());
        assert!(scheduler.suggest(&space, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn nan_scores_are_eliminated_first() {
        use crate::scheduler::{IntoScheduler, Scheduler, TrialResult};
        let space = space_1d();
        // 0.0 / 0.0 at run time on x86-64: a NaN with the sign bit set,
        // which `total_cmp` alone ranks before every finite score.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        for scores in [[f64::NAN, 0.9, 0.1], [negative_nan, f64::NEG_INFINITY, 0.9]] {
            let mut scheduler = SuccessiveHalving::new(3, 3, 1, 9).scheduler().unwrap();
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
        let mut obj = resource_aware_objective();
        let hb = Hyperband::new(9, 3, Some(3));
        let outcome = run_fresh(&hb, &space_1d(), &mut obj, &mut rng).unwrap();
        // A trial id must always map to one configuration.
        let mut seen: HashMap<usize, Vec<f64>> = HashMap::new();
        for r in outcome.records() {
            let entry = seen
                .entry(r.trial_id)
                .or_insert_with(|| r.config.values().to_vec());
            assert_eq!(entry, &r.config.values().to_vec());
        }
    }
}
