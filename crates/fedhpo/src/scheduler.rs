//! The batched **ask/tell** tuning interface.
//!
//! A tuning method never owns the evaluation loop: a [`Scheduler`] *suggests*
//! a batch of [`TrialRequest`]s, the caller evaluates them however it likes
//! (sequentially, fanned out over threads, or on remote workers), and
//! *reports* each [`TrialResult`] back.
//!
//! Determinism contract: a scheduler's suggestions must be a pure function of
//! (its configuration, the RNG passed to [`Scheduler::suggest`], and the
//! multiset of results reported so far). In particular, promotion and
//! proposal decisions must not depend on the *arrival order* of results
//! beyond the batch boundaries the scheduler itself created — this is what
//! lets a batch be evaluated in parallel and reported in any deterministic
//! order while reproducing the sequential run bit for bit.
//!
//! [`run_scheduler`] is the crate-local sequential **reference loop**: one
//! evaluation at a time through an [`Objective`], reported before the next.
//! It stays because the real driver — `fedtune_core::scheduler::drive` under
//! `Clock::Barrier`, which fans batches out over real threads — is pinned
//! against it record for record, and because this crate sits below the
//! executor and needs a loop for its own unit tests. Nothing above `fedhpo` implements
//! [`Objective`] or calls `run_scheduler` outside tests.

use crate::objective::Objective;
use crate::space::{HpConfig, SearchSpace};
use crate::tuner::{EvaluationRecord, TuningOutcome};
use crate::{HpoError, Result};
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
    /// Returns [`HpoError::InvalidConfig`] if called while results are
    /// outstanding, and propagates sampling failures.
    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>>;

    /// Feeds one evaluation result back into the scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] for results the scheduler never
    /// asked for (implementations may choose to accept out-of-band results,
    /// e.g. ASHA tolerates any arrival order).
    fn report(&mut self, result: &TrialResult) -> Result<()>;

    /// `true` once the schedule is exhausted: no further suggestions will be
    /// made and no results are outstanding.
    fn is_finished(&self) -> bool;

    /// `true` if [`suggest`](Self::suggest) may be called while results are
    /// still outstanding. Barrier-style schedulers (the default) are only
    /// polled between batches; asynchronous schedulers (e.g.
    /// [`AsyncAsha`](crate::AsyncAsha)) are re-polled by event-driven
    /// drivers on **every** completion, which is what turns rung-synchronous
    /// successive halving into the paper's actual promote-on-completion
    /// algorithm.
    fn async_capable(&self) -> bool {
        false
    }
}

/// Resource accounting shared by every scheduler driver: converts a stream of
/// [`TrialResult`]s into [`EvaluationRecord`]s, charging each configuration
/// only for the *incremental* resource above what it had already consumed
/// (early-stopping methods resume runs; re-evaluations at an already-reached
/// fidelity are free).
#[derive(Debug, Clone, Default)]
pub struct BudgetLedger {
    consumed: HashMap<usize, usize>,
    cumulative: usize,
}

impl BudgetLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BudgetLedger::default()
    }

    /// Total resource charged so far across all configurations.
    pub fn cumulative(&self) -> usize {
        self.cumulative
    }

    /// Charges `result`'s incremental resource and produces its record,
    /// stamped at simulated time zero (synchronous drivers have no virtual
    /// clock).
    pub fn record(&mut self, result: &TrialResult) -> EvaluationRecord {
        self.record_at(result, 0.0)
    }

    /// [`record`](Self::record) with an explicit simulated completion time —
    /// the entry point for event-driven drivers, which deliver results in
    /// virtual-time order and stamp each record with its completion instant.
    pub fn record_at(&mut self, result: &TrialResult, sim_time: f64) -> EvaluationRecord {
        let consumed = self.consumed.entry(result.trial_id).or_insert(0);
        self.cumulative = self
            .cumulative
            .saturating_add(result.resource.saturating_sub(*consumed));
        *consumed = (*consumed).max(result.resource);
        EvaluationRecord {
            trial_id: result.trial_id,
            config: result.config.clone(),
            resource: result.resource,
            score: result.score,
            cumulative_resource: self.cumulative,
            noise_rep: result.noise_rep,
            sim_time,
        }
    }
}

/// Conversion from a tuner configuration into its ask/tell scheduler state.
///
/// Implemented by every tuning method in this crate; the associated scheduler
/// is a fresh state machine, so one configuration can drive many campaigns.
pub trait IntoScheduler {
    /// The scheduler state machine this configuration builds.
    type Scheduler: Scheduler;

    /// Builds a fresh scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] if the configuration is invalid.
    fn scheduler(&self) -> Result<Self::Scheduler>;
}

/// The reference sequential driver: repeatedly asks `scheduler` for a batch,
/// evaluates every request through `objective` in batch order, and reports
/// each result before the next evaluation — the record-for-record reference
/// `fedtune_core::scheduler::drive` under `Clock::Barrier` is tested against,
/// not an API to build campaigns on.
///
/// # Errors
///
/// Propagates objective and scheduler errors, and fails if the scheduler
/// stalls (returns an empty batch while unfinished).
pub fn run_scheduler(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut dyn Objective,
    rng: &mut StdRng,
) -> Result<TuningOutcome> {
    let mut outcome = TuningOutcome::default();
    let mut ledger = BudgetLedger::new();
    while !scheduler.is_finished() {
        let batch = scheduler.suggest(space, rng)?;
        if batch.is_empty() {
            if scheduler.is_finished() {
                break;
            }
            return Err(HpoError::InvalidConfig {
                message: format!(
                    "scheduler {} stalled: empty batch while unfinished",
                    scheduler.name()
                ),
            });
        }
        for request in &batch {
            let score = objective.evaluate_rep(
                request.trial_id,
                &request.config,
                request.resource,
                request.noise_rep,
            )?;
            let result = TrialResult::of(request, score);
            outcome.push(ledger.record(&result));
            scheduler.report(&result)?;
        }
    }
    Ok(outcome)
}

/// Test shorthand: [`run_scheduler`] over a fresh scheduler of `method`.
#[cfg(test)]
pub(crate) fn run_fresh(
    method: &impl IntoScheduler,
    space: &SearchSpace,
    objective: &mut dyn Objective,
    rng: &mut StdRng,
) -> Result<TuningOutcome> {
    run_scheduler(&mut method.scheduler()?, space, objective, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use fedmath::rng::rng_for;

    struct CountingScheduler {
        remaining: usize,
        outstanding: usize,
        stall: bool,
    }

    impl Scheduler for CountingScheduler {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
            if self.stall || self.remaining == 0 {
                return Ok(Vec::new());
            }
            let trial_id = self.remaining;
            self.remaining -= 1;
            self.outstanding += 1;
            Ok(vec![TrialRequest {
                trial_id,
                config: space.sample(rng)?,
                resource: 2,
                noise_rep: 0,
            }])
        }

        fn report(&mut self, _result: &TrialResult) -> Result<()> {
            self.outstanding -= 1;
            Ok(())
        }

        fn is_finished(&self) -> bool {
            !self.stall && self.remaining == 0 && self.outstanding == 0
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    #[test]
    fn driver_runs_to_completion() {
        let mut scheduler = CountingScheduler {
            remaining: 3,
            outstanding: 0,
            stall: false,
        };
        let mut objective = FunctionObjective::new(|c: &HpConfig, _| c.values()[0]);
        let mut rng = rng_for(0, 0);
        let outcome = run_scheduler(&mut scheduler, &space(), &mut objective, &mut rng).unwrap();
        assert_eq!(outcome.num_evaluations(), 3);
        assert_eq!(outcome.total_resource(), 6);
        assert_eq!(objective.calls(), 3);
    }

    #[test]
    fn driver_rejects_stalled_scheduler() {
        let mut scheduler = CountingScheduler {
            remaining: 3,
            outstanding: 0,
            stall: true,
        };
        let mut objective = FunctionObjective::new(|_: &HpConfig, _| 0.0);
        let mut rng = rng_for(0, 1);
        let err = run_scheduler(&mut scheduler, &space(), &mut objective, &mut rng).unwrap_err();
        assert!(err.to_string().contains("stalled"), "{err}");
    }

    #[test]
    fn ledger_charges_incremental_resource_only() {
        let mut ledger = BudgetLedger::new();
        let config = HpConfig::new(vec![0.0]);
        let result = |trial_id, resource, noise_rep| TrialResult {
            trial_id,
            config: config.clone(),
            resource,
            noise_rep,
            score: 0.5,
        };
        assert_eq!(ledger.record(&result(0, 3, 0)).cumulative_resource, 3);
        // Resuming trial 0 to 9 pays only the 6 extra rounds.
        assert_eq!(ledger.record(&result(0, 9, 0)).cumulative_resource, 9);
        // A fresh-noise re-evaluation at an already-reached fidelity is free.
        let record = ledger.record(&result(0, 9, 1));
        assert_eq!(record.cumulative_resource, 9);
        assert_eq!(record.noise_rep, 1);
        // A second trial pays its own way.
        assert_eq!(ledger.record(&result(1, 4, 0)).cumulative_resource, 13);
        assert_eq!(ledger.cumulative(), 13);
        // Hostile resources saturate the sum instead of wrapping it.
        ledger.record(&result(2, usize::MAX, 0));
        assert_eq!(
            ledger.record(&result(3, usize::MAX, 0)).cumulative_resource,
            usize::MAX
        );
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
