//! The batched **ask/tell** tuning interface.
//!
//! A tuning method never owns the evaluation loop: a [`Scheduler`] *suggests*
//! a batch of [`TrialRequest`]s, the caller evaluates them however it likes
//! (sequentially, fanned out over threads, or on remote workers), and
//! *reports* each [`TrialResult`] back.
//!
//! Determinism contract: a scheduler's suggestions must be a pure function of
//! (its parameters, the RNG passed to [`Scheduler::suggest`], and the
//! multiset of results reported so far). In particular, promotion and
//! proposal decisions must not depend on the *arrival order* of results
//! beyond the batch boundaries the scheduler itself created — this is what
//! lets a batch be evaluated in parallel and reported in any deterministic
//! order while reproducing the sequential run bit for bit.
//!
//! This crate owns no evaluation loop. Campaigns run under
//! `fedtune_core::drive`, which fans batches out and reports results in a
//! deterministic order; [`BudgetLedger`] is the one rule that turns the
//! resources requests ask for into the rounds a campaign spends.

use crate::space::{HpConfig, SearchSpace};
use crate::Result;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One unit of work suggested by a [`Scheduler`]: evaluate `config`
/// (identified by `trial_id`) once its training has reached `resource`
/// cumulative budget units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRequest {
    /// Stable identifier of the configuration (unchanged across fidelities
    /// and re-evaluations).
    pub trial_id: usize,
    /// The configuration to train/evaluate.
    pub config: HpConfig,
    /// Cumulative resource (training rounds) the configuration must have
    /// received before this evaluation.
    pub resource: usize,
    /// Noise replicate index. `0` is the schedule's ordinary evaluation;
    /// values `>= 1` ask the objective for an independent *fresh* noise draw
    /// at the same fidelity (the paper's re-evaluation mitigation). Objectives
    /// that key their noise positionally derive it from the evaluated point's
    /// coordinates `(config, resource, noise_rep)`.
    pub noise_rep: u64,
}

/// The outcome of evaluating one [`TrialRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Identifier of the evaluated configuration.
    pub trial_id: usize,
    /// The evaluated configuration.
    pub config: HpConfig,
    /// Cumulative resource the configuration had received at evaluation time.
    pub resource: usize,
    /// Noise replicate index of the originating request.
    pub noise_rep: u64,
    /// The (possibly noisy) score reported by the objective; lower is better.
    pub score: f64,
}

impl TrialResult {
    /// Builds the result for `request` with the given score.
    pub fn of(request: &TrialRequest, score: f64) -> Self {
        TrialResult {
            trial_id: request.trial_id,
            config: request.config.clone(),
            resource: request.resource,
            noise_rep: request.noise_rep,
            score,
        }
    }
}

/// Rank key of a score under the crate's one "lower is better" order: finite
/// scores in `f64::total_cmp` order, then every non-finite score (`±∞` and NaN
/// of either sign) tied last. `total_cmp` alone would rank `-∞` and a
/// negative-sign NaN (which is what `0.0 / 0.0` yields on x86-64) before
/// every finite score. Callers break ties by trial id or by a stable sort.
pub(crate) fn score_rank(score: f64) -> u64 {
    if !score.is_finite() {
        return u64::MAX;
    }
    // Flip negatives entirely and set the sign bit of positives: unsigned
    // order then equals `total_cmp` order, and no finite score maps to MAX.
    let bits = score.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A batched ask/tell tuning method.
///
/// Drivers interact with a scheduler in rounds: call [`suggest`], evaluate
/// every returned request, [`report`] each result (in the deterministic batch
/// order), and repeat until [`is_finished`]. A scheduler may return a batch of
/// any size; every request in one batch must be independently evaluable
/// (distinct `(trial_id, resource, noise_rep)` triples).
///
/// [`suggest`]: Scheduler::suggest
/// [`report`]: Scheduler::report
/// [`is_finished`]: Scheduler::is_finished
pub trait Scheduler {
    /// Short name used in reports (`"rs"`, `"asha"`, …).
    fn name(&self) -> &'static str;

    /// Proposes the next batch of work. All results of previously suggested
    /// batches must have been reported before calling this again.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`](crate::HpoError::InvalidConfig) if called while results are
    /// outstanding, and propagates sampling failures.
    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>>;

    /// Feeds one evaluation result back into the scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`](crate::HpoError::InvalidConfig) for results the scheduler never
    /// asked for. The successive-halving ladders ([`Asha`](crate::Asha) and
    /// every [`Hyperband`](crate::Hyperband) bracket) reject an unknown
    /// trial, a wrong resource and a second report, in any arrival order;
    /// [`RandomSearch`](crate::RandomSearch) and [`Tpe`](crate::Tpe) track
    /// no requests.
    fn report(&mut self, result: &TrialResult) -> Result<()>;

    /// `true` once the schedule is exhausted: no further suggestions will be
    /// made and no results are outstanding.
    fn is_finished(&self) -> bool;

    /// `true` if [`suggest`](Self::suggest) may be called while results are
    /// still outstanding. Barrier-style schedulers (the default) are only
    /// polled between batches; asynchronous schedulers (e.g.
    /// [`Asha::asynchronous`](crate::Asha::asynchronous)) are re-polled by event-driven
    /// drivers on **every** completion, which is what turns rung-synchronous
    /// successive halving into the paper's actual promote-on-completion
    /// algorithm.
    fn async_capable(&self) -> bool {
        false
    }
}

/// The one incremental-charge rule of a campaign's rounds: each
/// configuration pays only for resource above the furthest it was already
/// charged to (early-stopping methods resume runs; re-evaluations at an
/// already-reached fidelity are free). Every user applies it in its own
/// order — the executor at dispatch, [`TuningOutcome`](crate::TuningOutcome)
/// at delivery, the campaign log at commit — and all three agree on the
/// total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetLedger {
    reached: HashMap<usize, usize>,
    cumulative: usize,
}

impl BudgetLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BudgetLedger::default()
    }

    /// Total resource charged so far across all configurations; saturates
    /// instead of wrapping.
    pub fn cumulative(&self) -> usize {
        self.cumulative
    }

    /// The furthest resource `trial_id` has been charged to (`0` if never).
    pub fn reached(&self, trial_id: usize) -> usize {
        self.reached.get(&trial_id).copied().unwrap_or(0)
    }

    /// Charges `trial_id` up to `resource` and returns the increment: the
    /// resource above its earlier high-water mark, `0` if it had reached it.
    pub fn charge(&mut self, trial_id: usize, resource: usize) -> usize {
        let reached = self.reached.entry(trial_id).or_insert(0);
        let increment = resource.saturating_sub(*reached);
        *reached = (*reached).max(resource);
        self.cumulative = self.cumulative.saturating_add(increment);
        increment
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test loop: `scheduler` run to the end, one request at a time, each
    /// scored by `score(config, resource)` and reported before the next is
    /// evaluated.
    pub(crate) fn run_fresh(
        mut scheduler: impl Scheduler,
        space: &SearchSpace,
        mut score: impl FnMut(&HpConfig, usize) -> f64,
        rng: &mut StdRng,
    ) -> Result<crate::TuningOutcome> {
        let mut outcome = crate::TuningOutcome::default();
        while !scheduler.is_finished() {
            let batch = scheduler.suggest(space, rng)?;
            assert!(
                !batch.is_empty() || scheduler.is_finished(),
                "{} stalled",
                scheduler.name()
            );
            for request in &batch {
                let result = TrialResult::of(request, score(&request.config, request.resource));
                outcome.record(&result, 0.0);
                scheduler.report(&result)?;
            }
        }
        Ok(outcome)
    }

    #[test]
    fn ledger_charges_incremental_resource_only() {
        let mut ledger = BudgetLedger::new();
        assert_eq!(ledger.charge(0, 3), 3);
        // Resuming trial 0 to 9 pays only the 6 extra rounds.
        assert_eq!(ledger.charge(0, 9), 6);
        // A fresh-noise re-evaluation at an already-reached fidelity is free.
        assert_eq!(ledger.charge(0, 9), 0);
        // A second trial pays its own way.
        assert_eq!(ledger.charge(1, 4), 4);
        assert_eq!(ledger.cumulative(), 13);
        // Out of order: a trial charged to 9 first pays nothing for 3, and
        // its high-water mark stays at 9.
        assert_eq!(ledger.charge(2, 9), 9);
        assert_eq!(ledger.charge(2, 3), 0);
        assert_eq!(ledger.reached(2), 9);
        assert_eq!(ledger.reached(7), 0);
        assert_eq!(ledger.cumulative(), 22);
        // Hostile resources saturate the sum instead of wrapping it.
        assert_eq!(ledger.charge(3, usize::MAX), usize::MAX);
        assert_eq!(ledger.charge(4, usize::MAX), usize::MAX);
        assert_eq!(ledger.cumulative(), usize::MAX);
    }

    #[test]
    fn trial_result_of_copies_request_fields() {
        let request = TrialRequest {
            trial_id: 7,
            config: HpConfig::new(vec![1.0]),
            resource: 5,
            noise_rep: 2,
        };
        let result = TrialResult::of(&request, 0.25);
        assert_eq!(result.trial_id, 7);
        assert_eq!(result.resource, 5);
        assert_eq!(result.noise_rep, 2);
        assert_eq!(result.score, 0.25);
        assert_eq!(result.config, request.config);
    }
}
