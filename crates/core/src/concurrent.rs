//! Cross-trial concurrent evaluation under virtual time.
//!
//! The blocking event-driven driver evaluates each dispatch set with one
//! synchronous `evaluate_batch_at` call, so even when the virtual
//! [`WorkerPool`](fedsim::WorkerPool) has eight trials in flight the real
//! machine trains them one set at a time. This module closes that gap: a
//! [`ConcurrentObjective`] splits into a shared, `Sync` **evaluation core**
//! and a mutable **campaign sink**, and [`run_event_driven_concurrent`]
//! drives the sans-io [`ExecutorCore`] with every in-flight virtual trial
//! evaluating concurrently on the persistent real thread pool
//! ([`fedsim::exec::with_thread_pool`]).
//!
//! # Why the outcome is bit-identical at every thread count
//!
//! Three ordering rules make real parallelism invisible to the result:
//!
//! 1. **Evaluations are pure in their coordinates.** Scores, costs, and
//!    noise derive from the canonical `(config, resource, noise_rep)` point,
//!    never from shared sequential state, so *what* a task computes cannot
//!    depend on *when* or *where* it runs.
//! 2. **Per-trial state flows in dispatch order.** A trial's training run is
//!    checked out of the sink when its first in-flight task starts and is
//!    handed directly from each completed task to that trial's next queued
//!    task (the pool's chained submission), so resume points are the same
//!    sequence the sequential driver produces.
//! 3. **Commits are sequenced.** Results reach the [`ExecutorCore`] whenever
//!    they finish (its completion buffer is order-independent), but the
//!    campaign log commits through a reorder buffer strictly in dispatch
//!    order, and virtual events still deliver in `(sim_time, EventKey)`
//!    order. The driver works in *turns* — block for one completion, drain
//!    the rest already waiting, commit, [`ConcurrentSink::end_turn`], step
//!    — so how many completions a turn happens to catch is invisible too.
//!
//! `tests/determinism.rs` asserts the resulting [`EventDrivenOutcome`] —
//! scores, selections, timeline — is bit-identical across the sequential
//! driver and this one at 1/4/8 real threads.

use crate::scheduler::VirtualExecution;
use crate::scheduler::{DispatchedTrial, EventDrivenOutcome, ExecutorCore, ExecutorStep};
use crate::Result;
use fedhpo::{Scheduler, SearchSpace, TrialRequest, TrialResult};
use fedsim::clock::EventKey;
use fedsim::exec::with_thread_pool;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;

/// Per-request output of one evaluation, before campaign accounting.
///
/// This is what an evaluation task computes on a worker thread; the sink
/// turns it into log entries and budget accounting on the driver thread, in
/// dispatch order.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// The noisy score reported to the tuner (lower is better).
    pub noisy_score: f64,
    /// The true (noise-free) objective value of the same evaluation.
    pub true_error: f64,
    /// Incremental training rounds this evaluation consumed.
    pub rounds_delta: usize,
    /// Cumulative rounds the trial's run had completed afterwards.
    pub resource_completed: usize,
}

/// The shared, thread-safe half of a concurrent objective: evaluates one
/// request against that trial's private state.
///
/// `Sync` is the contract that makes cross-trial concurrency safe: the core
/// holds only immutable campaign-wide inputs (context, noise model, seed
/// trees), while everything mutable travels in the per-trial `State` that
/// exactly one task owns at a time.
pub trait ConcurrentEval: Sync {
    /// Per-trial mutable state (training run, caches), owned by exactly one
    /// in-flight task at a time and otherwise parked in the sink.
    type State: Send;

    /// Evaluates `request`, resuming from (and updating) `state`.
    ///
    /// Must be a pure function of `(request coordinates, state)` — all
    /// randomness derived positionally — so the outcome cannot depend on
    /// which thread runs it or when.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    fn evaluate(&self, state: &mut Self::State, request: &TrialRequest) -> Result<EvalOutput>;
}

/// The single-threaded half of a concurrent objective: parks per-trial state
/// between dispatches and accumulates the campaign log.
///
/// All methods run on the driver thread; [`commit`](Self::commit) is called
/// strictly in dispatch order regardless of real completion order.
pub trait ConcurrentSink {
    /// Same state type as the paired [`ConcurrentEval`].
    type State: Send;

    /// Checks the trial's state out for an in-flight task ("fresh" state for
    /// trials never seen).
    fn take_state(&mut self, trial_id: usize) -> Self::State;

    /// Parks the trial's state again once no task of that trial is in
    /// flight.
    fn put_state(&mut self, trial_id: usize, state: Self::State);

    /// Records one finished evaluation. Invoked in dispatch order, so
    /// cumulative accounting (rounds, log order) matches the sequential
    /// driver bit for bit.
    fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64);

    /// Ends a driver **turn**. A driver blocks for one completion, drains
    /// every completion already waiting, commits what is in order, calls
    /// this once, and only then steps the [`ExecutorCore`] — so a sink that
    /// persists its commits makes the whole turn durable here with a single
    /// sync, and no result reaches the scheduler ahead of the sink's
    /// storage. The default has nothing to persist.
    ///
    /// # Errors
    ///
    /// A failure to persist the turn's commits; it fails the campaign.
    fn end_turn(&mut self) -> Result<()> {
        Ok(())
    }
}

/// An objective that can evaluate its in-flight trials concurrently: it
/// splits into a `Sync` evaluation core shared by worker threads and a
/// mutable campaign sink owned by the driver thread.
pub trait ConcurrentObjective {
    /// Per-trial mutable state shuttled between sink and tasks.
    type State: Send;
    /// The shared evaluation half.
    type Eval: ConcurrentEval<State = Self::State>;
    /// The driver-side accounting half.
    type Sink: ConcurrentSink<State = Self::State>;

    /// Borrows both halves at once (they must be disjoint fields).
    fn split(&mut self) -> (&Self::Eval, &mut Self::Sink);
}

/// A message from an evaluation task back to the driver thread.
enum WorkerMsg<S> {
    Done {
        seq: usize,
        key: EventKey,
        request: TrialRequest,
        sim_completion: f64,
        state: S,
        output: Result<EvalOutput>,
    },
    /// Sent by the panic guard so the driver never blocks forever on a task
    /// that died; the worker's panic itself propagates when the pool scope
    /// joins.
    Panicked,
}

/// Sends [`WorkerMsg::Panicked`] if the task unwinds before defusing.
struct PanicGuard<S> {
    tx: Option<mpsc::Sender<WorkerMsg<S>>>,
}

impl<S> Drop for PanicGuard<S> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(WorkerMsg::Panicked);
        }
    }
}

/// [`run_event_driven`](crate::scheduler::run_event_driven) with every
/// in-flight virtual trial evaluating **concurrently on `threads` real
/// threads** (clamped to at least one; pass
/// [`ExecutionPolicy::from_env().pool_threads()`](fedsim::ExecutionPolicy::pool_threads)
/// to honor `FEDTUNE_THREADS`).
///
/// The outcome — scores, selections, virtual timeline, campaign log — is
/// bit-identical to the sequential driver at every thread count; only
/// wall-clock time changes. See the module docs for the ordering argument.
///
/// # Errors
///
/// Exactly the blocking driver's conditions (invalid [`VirtualExecution`],
/// scheduler stall, evaluation failure), plus a disconnect error if the
/// worker channel closes early.
pub fn run_event_driven_concurrent<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
    threads: usize,
) -> Result<EventDrivenOutcome> {
    run_event_driven_concurrent_traced(
        scheduler,
        space,
        objective,
        rng,
        sim,
        threads,
        fedtrace::global_if_enabled(),
    )
}

/// [`run_event_driven_concurrent`] with an explicit observability scope.
///
/// Wall-domain "evaluate" slices are recorded from worker threads onto the
/// trace's [`WallProfile`](fedtrace::WallProfile); sim-domain accounting is identical to the
/// blocking driver's. Accounting, never semantics.
///
/// # Errors
///
/// Exactly [`run_event_driven_concurrent`]'s conditions.
pub fn run_event_driven_concurrent_traced<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
    threads: usize,
    trace: Option<&fedtrace::Trace>,
) -> Result<EventDrivenOutcome> {
    let (eval, sink) = objective.split();
    let wall = trace.map(|t| t.wall_profile());
    let mut core = ExecutorCore::new_traced(scheduler, space, rng, sim, trace)?;
    with_thread_pool(threads, move |pool| {
        let (tx, rx) = mpsc::channel::<WorkerMsg<O::State>>();
        // Dispatch-order sequence numbers; commits drain contiguously.
        let mut next_seq: usize = 0;
        let mut next_commit: usize = 0;
        let mut commit_buf: BTreeMap<usize, (TrialRequest, EvalOutput, f64)> = BTreeMap::new();
        // Trials with a task in flight; the queue holds that trial's later
        // dispatches, chained onto the freed state as tasks complete.
        let mut in_flight: HashMap<usize, VecDeque<(usize, DispatchedTrial)>> = HashMap::new();

        let submit_eval = |seq: usize, d: DispatchedTrial, mut state: O::State, chained: bool| {
            let tx = tx.clone();
            let job = move || {
                let mut guard = PanicGuard { tx: Some(tx) };
                let started = wall.map(|w| w.now_seconds());
                let output = eval.evaluate(&mut state, &d.request);
                if let (Some(w), Some(started)) = (wall, started) {
                    w.record_since("evaluate", started);
                }
                let tx = guard.tx.take().expect("guard still armed");
                let _ = tx.send(WorkerMsg::Done {
                    seq,
                    key: d.key,
                    request: d.request,
                    sim_completion: d.sim_completion,
                    state,
                    output,
                });
            };
            if chained {
                pool.submit_chained(job);
            } else {
                pool.submit(job);
            }
        };

        loop {
            match core.step()? {
                ExecutorStep::Dispatch(batch) => {
                    for dispatched in batch {
                        let trial = dispatched.request.trial_id;
                        let seq = next_seq;
                        next_seq += 1;
                        match in_flight.get_mut(&trial) {
                            // The trial's state is on a worker right now:
                            // queue behind it, preserving per-trial dispatch
                            // order.
                            Some(queue) => queue.push_back((seq, dispatched)),
                            None => {
                                in_flight.insert(trial, VecDeque::new());
                                let state = sink.take_state(trial);
                                submit_eval(seq, dispatched, state, false);
                            }
                        }
                    }
                }
                // One turn: block for a completion, drain every other one
                // already waiting, then end the turn before stepping again.
                // The core hands back the same `Deliver` until the awaited
                // completion is among them.
                ExecutorStep::Deliver(_) => {
                    let first = rx.recv().map_err(|_| crate::CoreError::InvalidConfig {
                        message: "evaluation workers disconnected before completing \
                                  dispatched work"
                            .into(),
                    })?;
                    for msg in std::iter::once(first).chain(rx.try_iter()) {
                        let WorkerMsg::Done {
                            seq,
                            key,
                            request,
                            sim_completion,
                            state,
                            output,
                        } = msg
                        else {
                            return Err(crate::CoreError::InvalidConfig {
                                message: "an evaluation task panicked".into(),
                            });
                        };
                        let output = output?;
                        core.complete(key, TrialResult::of(&request, output.noisy_score))?;
                        commit_buf.insert(seq, (request, output, sim_completion));
                        while let Some((request, output, time)) = commit_buf.remove(&next_commit) {
                            sink.commit(&request, &output, time);
                            next_commit += 1;
                        }
                        let trial = key.trial as usize;
                        let queue = in_flight.get_mut(&trial).expect("in-flight trial tracked");
                        if let Some((next, dispatched)) = queue.pop_front() {
                            // Hand the warm state straight to the trial's next
                            // task — no round trip through the sink.
                            submit_eval(next, dispatched, state, true);
                        } else {
                            in_flight.remove(&trial);
                            sink.put_state(trial, state);
                        }
                    }
                    sink.end_turn()?;
                }
                ExecutorStep::Finished => break,
            }
        }
        Ok(core.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run_event_driven, BatchObjective, EventDrivenOutcome};
    use fedhpo::{AsyncAsha, IntoScheduler};
    use fedmath::rng::rng_for;
    use fedsim::clock::{ClientRuntimeModel, CostModel};

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    fn analytic_score(request: &TrialRequest) -> f64 {
        let x = request.config.values()[0];
        (x - 0.3).abs() + 1.0 / (request.resource as f64 + 1.0)
    }

    /// The `Sync` half: scores analytically, optionally failing one trial.
    struct AnalyticEval {
        fail_trial: Option<usize>,
    }

    impl ConcurrentEval for AnalyticEval {
        type State = usize;

        fn evaluate(&self, state: &mut usize, request: &TrialRequest) -> Result<EvalOutput> {
            if self.fail_trial == Some(request.trial_id) {
                return Err(crate::CoreError::InvalidConfig {
                    message: format!("injected failure for trial {}", request.trial_id),
                });
            }
            let score = analytic_score(request);
            let delta = request.resource.saturating_sub(*state);
            *state = (*state).max(request.resource);
            Ok(EvalOutput {
                noisy_score: score,
                true_error: score,
                rounds_delta: delta,
                resource_completed: *state,
            })
        }
    }

    /// The driver-thread half: records every commit bit-exactly.
    #[derive(Default)]
    struct RecordingSink {
        states: HashMap<usize, usize>,
        commits: Vec<(usize, usize, u64, u64)>,
        rounds: usize,
    }

    impl ConcurrentSink for RecordingSink {
        type State = usize;

        fn take_state(&mut self, trial_id: usize) -> usize {
            self.states.remove(&trial_id).unwrap_or(0)
        }

        fn put_state(&mut self, trial_id: usize, state: usize) {
            self.states.insert(trial_id, state);
        }

        fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
            self.rounds += output.rounds_delta;
            self.commits.push((
                request.trial_id,
                request.resource,
                output.noisy_score.to_bits(),
                sim_time.to_bits(),
            ));
        }
    }

    struct AnalyticConcurrent {
        eval: AnalyticEval,
        sink: RecordingSink,
    }

    impl ConcurrentObjective for AnalyticConcurrent {
        type State = usize;
        type Eval = AnalyticEval;
        type Sink = RecordingSink;

        fn split(&mut self) -> (&AnalyticEval, &mut RecordingSink) {
            (&self.eval, &mut self.sink)
        }
    }

    /// Blocking reference for the same analytic score.
    struct AnalyticBatch;

    impl BatchObjective for AnalyticBatch {
        fn evaluate_batch(&mut self, requests: &[TrialRequest]) -> Result<Vec<TrialResult>> {
            Ok(requests
                .iter()
                .map(|r| TrialResult::of(r, analytic_score(r)))
                .collect())
        }
    }

    fn straggler_sim() -> VirtualExecution {
        let cost = CostModel::HeterogeneousClients(ClientRuntimeModel::heavy_tailed(60, 5, 17));
        VirtualExecution::new(4, cost)
    }

    fn run_concurrent(
        threads: usize,
        fail_trial: Option<usize>,
    ) -> Result<(EventDrivenOutcome, AnalyticConcurrent)> {
        let ladder = fedhpo::Asha::new(12, 3, 1, 9);
        let mut scheduler = AsyncAsha::from_ladder(ladder).scheduler().unwrap();
        let mut objective = AnalyticConcurrent {
            eval: AnalyticEval { fail_trial },
            sink: RecordingSink::default(),
        };
        let mut rng = rng_for(3, 0);
        let outcome = run_event_driven_concurrent(
            &mut scheduler,
            &space_1d(),
            &mut objective,
            &mut rng,
            &straggler_sim(),
            threads,
        )?;
        Ok((outcome, objective))
    }

    #[test]
    fn concurrent_driver_is_bit_identical_to_blocking_at_every_thread_count() {
        // An async ASHA campaign under heavy-tailed stragglers keeps several
        // trials in flight at once — the adversarial case for reordering.
        let ladder = fedhpo::Asha::new(12, 3, 1, 9);
        let mut scheduler = AsyncAsha::from_ladder(ladder).scheduler().unwrap();
        let mut rng = rng_for(3, 0);
        let blocking = run_event_driven(
            &mut scheduler,
            &space_1d(),
            &mut AnalyticBatch,
            &mut rng,
            &straggler_sim(),
        )
        .unwrap();
        assert!(blocking.finished);
        let mut reference_commits = None;
        for threads in [1usize, 4, 8] {
            let (outcome, objective) = run_concurrent(threads, None).unwrap();
            assert_eq!(outcome, blocking, "threads = {threads}");
            for (a, b) in outcome
                .outcome
                .records()
                .iter()
                .zip(blocking.outcome.records())
            {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads = {threads}");
                assert_eq!(
                    a.sim_time.to_bits(),
                    b.sim_time.to_bits(),
                    "threads = {threads}"
                );
            }
            // Commit order (dispatch order) is itself thread-invariant, and
            // every in-flight trial's state came back to the sink.
            assert_eq!(
                objective.sink.commits.len(),
                outcome.outcome.num_evaluations()
            );
            match &reference_commits {
                None => reference_commits = Some(objective.sink.commits.clone()),
                Some(reference) => {
                    assert_eq!(&objective.sink.commits, reference, "threads = {threads}");
                }
            }
            assert_eq!(
                objective.sink.rounds,
                outcome.outcome.total_resource(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn concurrent_driver_propagates_evaluation_errors() {
        for threads in [1usize, 4] {
            let Err(err) = run_concurrent(threads, Some(0)) else {
                panic!("expected the injected failure to propagate");
            };
            assert!(
                err.to_string().contains("injected failure"),
                "threads = {threads}: {err}"
            );
        }
    }
}
