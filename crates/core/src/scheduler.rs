//! The sans-io executor state machine and the thin drivers over it: the
//! barrier-synchronous **batch driver** and the inline **event-driven
//! virtual-time driver**.
//!
//! `fedhpo`'s [`Scheduler`] trait inverts tuner control flow — the method
//! *suggests* batches of [`TrialRequest`]s instead of calling the objective
//! itself — and every driver here evaluates those requests through the one
//! [`Pump`] over a
//! [`ConcurrentObjective`].
//!
//! [`ExecutorCore`] is a **deterministic discrete-event simulation** over
//! `fedsim`'s virtual clock: a pool of *virtual* workers pulls trials as
//! they free up, every evaluation's simulated runtime comes from a
//! [`CostModel`] keyed by the point's canonical fingerprint, completions are
//! delivered to [`Scheduler::report`] in total `(sim_time, key)` order, and
//! [`Scheduler::async_capable`] schedulers (async ASHA) are re-polled on
//! every completion — promote-on-completion with no rung barrier, the
//! paper's actual adaptive-allocation algorithm. Campaign budgets can be
//! expressed in **simulated wall-clock** seconds on top of training rounds.
//! [`run_event_driven`] is the pump over that core with every job run inline
//! on the calling thread — the single-threaded reference;
//! [`run_event_driven_concurrent`](crate::concurrent::run_event_driven_concurrent)
//! is the same pump on a scoped thread pool.
//!
//! [`run_scheduled`] is the barrier driver, and deliberately **not** an
//! `ExecutorCore` at unit cost: it has no virtual clock (`sim_time` is `0.0`
//! on every record), reports each batch in batch order — record for record
//! what `fedhpo::run_scheduler` produces — and treats
//! [`Scheduler::async_capable`] schedulers as barrier schedulers, all of
//! which are pinned by tests. It shares the pump's run-and-commit-in-order
//! half ([`Pump::run_batch`]), so it evaluates on `threads` real threads and
//! ends one sink turn per batch before the first `report`.
//!
//! Because every scheduler suggests deterministically, every evaluation
//! derives its randomness from the request's coordinates, and the virtual
//! timeline is a pure function of the schedule and cost model, the produced
//! [`TuningOutcome`] — including its virtual timeline — is **bit-identical**
//! in every lane and at every real thread count (`tests/determinism.rs`).

use crate::concurrent::{on_pool, ConcurrentObjective, EvalJob, Pump, Ungated};
use crate::Result;
use fedhpo::{BudgetLedger, Scheduler, SearchSpace, TrialRequest, TrialResult, TuningOutcome};
use fedsim::clock::{CostModel, EventKey, EventQueue, VirtualClock, WorkerPool};
use fedsim::exec::with_thread_pool;
use fedtrace::{ClockDomain, EventKind, TrialSpan};
use rand::rngs::StdRng;
use std::collections::{HashMap, VecDeque};

/// Drives `scheduler` to completion against `objective`: suggest a batch,
/// evaluate it on `threads` real threads, report every result in batch
/// order, repeat. `fedhpo::run_scheduler` is its one-at-a-time reference:
/// the two produce the same outcome record for record.
///
/// # Errors
///
/// Propagates scheduler and objective errors, and fails if the scheduler
/// stalls (returns an empty batch while unfinished).
pub fn run_scheduled<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    threads: usize,
) -> Result<TuningOutcome> {
    let (outcome, finished) = run_scheduled_for(scheduler, space, objective, rng, threads, None)?;
    debug_assert!(finished, "an unbounded run always finishes");
    Ok(outcome)
}

/// [`run_scheduled`] with an optional interruption point: drives at most
/// `max_batches` suggest → evaluate → report cycles and returns the outcome
/// so far plus whether the schedule completed.
///
/// Each batch goes through [`Pump::run_batch`]: at `threads <= 1` its jobs
/// run inline on the calling thread (what a sequential policy has always
/// meant for this driver), above that on a scoped pool of `threads` workers;
/// either way the batch commits to the objective's sink in batch order and
/// the sink's turn ends **once**, before the scheduler hears the first
/// result — a recording sink has the whole batch on disk by then.
///
/// Interrupting at a batch boundary leaves every suggested request evaluated
/// and reported, which is the invariant store-backed resumption relies on: a
/// fresh scheduler re-driven with the same seed re-suggests the interrupted
/// campaign's prefix verbatim, a recording objective (`fedstore`) serves
/// those requests from the trial ledger without recomputation, and the
/// campaign continues bit-identically to an uninterrupted run.
///
/// # Errors
///
/// Propagates scheduler and objective errors, and fails if the scheduler
/// stalls (returns an empty batch while unfinished).
pub fn run_scheduled_for<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    threads: usize,
    max_batches: Option<usize>,
) -> Result<(TuningOutcome, bool)> {
    let mut drive = |evaluate: &mut dyn FnMut(Vec<TrialRequest>) -> Result<Vec<TrialResult>>| {
        let mut outcome = TuningOutcome::default();
        let mut ledger = BudgetLedger::new();
        let mut batches = 0usize;
        while !scheduler.is_finished() {
            if max_batches.is_some_and(|max| batches >= max) {
                return Ok((outcome, false));
            }
            let batch = scheduler.suggest(space, rng)?;
            if batch.is_empty() {
                if scheduler.is_finished() {
                    break;
                }
                return Err(crate::CoreError::InvalidConfig {
                    message: format!(
                        "scheduler {} stalled: empty batch while unfinished",
                        scheduler.name()
                    ),
                });
            }
            for result in &evaluate(batch)? {
                outcome.push(ledger.record(result));
                scheduler.report(result)?;
            }
            batches += 1;
        }
        Ok((outcome, true))
    };
    let (eval, sink) = objective.split();
    if threads <= 1 {
        let mut pump = Pump::new(eval, sink, |job: EvalJob<_, _>, _| job.run(None));
        drive(&mut |batch| pump.run_batch(batch))
    } else {
        with_thread_pool(threads, |pool| {
            let mut pump = Pump::new(eval, sink, on_pool(pool, None));
            drive(&mut |batch| pump.run_batch(batch))
        })
    }
}

/// Configuration of the event-driven virtual-time executor: how many
/// *virtual* workers the simulated tuning service runs, what each evaluation
/// costs in simulated seconds, and an optional simulated wall-clock budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualExecution {
    /// Number of virtual workers trials are scheduled onto. Independent of
    /// the real thread count — where the pump runs its jobs never changes
    /// the virtual timeline.
    pub workers: usize,
    /// Simulated runtime of each evaluation.
    pub cost: CostModel,
    /// Optional simulated wall-clock budget in virtual seconds: no
    /// evaluation *starts* at or after this deadline (in-flight evaluations
    /// still complete and report), and no further work is suggested once the
    /// clock reaches it.
    pub sim_budget: Option<f64>,
}

impl VirtualExecution {
    /// A virtual service with `workers` workers and the given cost model,
    /// with no wall-clock budget.
    pub fn new(workers: usize, cost: CostModel) -> Self {
        VirtualExecution {
            workers,
            cost,
            sim_budget: None,
        }
    }

    /// Sets a simulated wall-clock budget in virtual seconds.
    #[must_use]
    pub fn with_sim_budget(mut self, sim_budget: f64) -> Self {
        self.sim_budget = Some(sim_budget);
        self
    }

    fn validate(&self) -> Result<()> {
        self.cost.validate()?;
        let budget_ok = self.sim_budget.is_none_or(|b| b.is_finite() && b > 0.0);
        if self.workers == 0 || !budget_ok {
            return Err(crate::CoreError::InvalidConfig {
                message: format!("invalid virtual execution: {self:?}"),
            });
        }
        Ok(())
    }
}

/// The result of one event-driven campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDrivenOutcome {
    /// The evaluation history in **virtual completion order**, every record
    /// stamped with its simulated completion time.
    pub outcome: TuningOutcome,
    /// The simulated wall-clock the campaign took (the virtual clock at the
    /// last delivered completion).
    pub sim_elapsed: f64,
    /// Whether the schedule ran to completion (`false` when a simulated
    /// wall-clock budget cut it off).
    pub finished: bool,
    /// The virtual-time execution timeline: one [`TrialSpan`] per dispatched
    /// evaluation, in dispatch order, carrying its virtual worker and
    /// simulated start/end. Collected unconditionally — it is part of the
    /// result, not tracing output, so its bits are covered by the driver's
    /// determinism contract (and the replay identity asserted in
    /// `tests/determinism.rs`). Export it with
    /// [`fedtrace::virtual_timeline_json`].
    pub timeline: Vec<TrialSpan>,
}

/// Per-campaign driver metrics on a [`fedtrace::Trace`] registry, all
/// prefixed with the scheduler's name. Pure accounting: the driver writes
/// them and never reads them back.
struct DriverMetrics {
    suggests: fedtrace::Counter,
    reports: fedtrace::Counter,
    dispatched: fedtrace::Counter,
    promotions: fedtrace::Counter,
    queue_depth: fedtrace::Histogram,
    busy_workers: fedtrace::Histogram,
    rung_resource: fedtrace::Histogram,
}

impl DriverMetrics {
    fn register(trace: &fedtrace::Trace, scheduler: &str) -> Self {
        let registry = trace.registry();
        DriverMetrics {
            suggests: registry.counter(&format!("{scheduler}.suggests")),
            reports: registry.counter(&format!("{scheduler}.reports")),
            dispatched: registry.counter(&format!("{scheduler}.dispatched")),
            promotions: registry.counter(&format!("{scheduler}.promotions")),
            queue_depth: registry.histogram(&format!("{scheduler}.queue_depth")),
            busy_workers: registry.histogram(&format!("{scheduler}.busy_workers")),
            rung_resource: registry.histogram(&format!("{scheduler}.rung_resource")),
        }
    }
}

/// One externally visible action of the sans-io [`ExecutorCore`].
#[derive(Debug)]
pub enum ExecutorStep {
    /// Trials were just committed to virtual workers. Evaluate them — in any
    /// real order, on any thread — and feed each result back through
    /// [`ExecutorCore::complete`]. The core never blocks on them itself.
    Dispatch(Vec<DispatchedTrial>),
    /// The earliest virtual event is this key and its completion has not
    /// been fed yet; the core cannot advance virtual time until
    /// [`ExecutorCore::complete`] is called for it. (A driver that completes
    /// every dispatch before stepping again never sees this.)
    Deliver(EventKey),
    /// The campaign is over: every dispatched trial has been delivered and
    /// the scheduler has no further work (or the simulated budget cut the
    /// schedule off). Call [`ExecutorCore::finish`].
    Finished,
}

/// One trial committed to a virtual worker by [`ExecutorCore::step`].
#[derive(Debug, Clone)]
pub struct DispatchedTrial {
    /// The suggested request to evaluate.
    pub request: TrialRequest,
    /// The virtual event-queue key identifying this evaluation; pass it to
    /// [`ExecutorCore::complete`] together with the result.
    pub key: EventKey,
    /// Index of the virtual worker executing the trial.
    pub worker: usize,
    /// Simulated start time of the evaluation.
    pub sim_start: f64,
    /// Simulated completion time — the instant the result will be delivered
    /// at, and the timestamp an objective log should stamp it with.
    pub sim_completion: f64,
}

/// The virtual event-queue key of a request's evaluation.
pub(crate) fn event_key(request: &TrialRequest) -> EventKey {
    EventKey::new(
        request.trial_id as u64,
        request.resource as u64,
        request.noise_rep,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Poll,
    Deliver,
    Finished,
}

/// The sans-io heart of the event-driven virtual-time executor.
///
/// `ExecutorCore` owns the poll/dispatch/deliver state machine of
/// [`run_event_driven`] — virtual clock, virtual [`WorkerPool`], event queue,
/// dispatch queue, trained high-water marks, metrics — but performs **no
/// evaluation and no waiting**. It communicates with its driver through
/// explicit actions: [`step`](Self::step) returns what the world should do
/// next ([`ExecutorStep`]), and the world feeds evaluation results back with
/// [`complete`](Self::complete), in any order and from any thread's output.
/// Virtual events are still *delivered* in strict `(sim_time, EventKey)`
/// order, so the outcome is a pure function of the schedule and cost model —
/// never of how, where, or in what real order evaluations ran.
///
/// Its one driver is the [`Pump`]: inline
/// ([`run_event_driven`]), on a scoped pool
/// ([`run_event_driven_concurrent`](crate::concurrent::run_event_driven_concurrent))
/// or on the `fedserve` daemon's shared pool behind its fair-share gate.
///
/// Two invariants the core maintains for its callers:
///
/// - **Validated-only training accounting.** A trial's trained-rounds
///   high-water mark ([`trained_rounds`](Self::trained_rounds)) is committed
///   only when its evaluation result is fed back via `complete`; a dispatch
///   whose evaluation errors out never claims rounds it did not train. Cost
///   accounting for overlapping in-flight dispatches of the same trial uses
///   a staged overlay so incremental costs match the sequential driver
///   exactly.
/// - **Order-independent completion.** `complete` may be called in any
///   order; results wait in a completion buffer until their event is the
///   earliest, and committing the high-water mark is a max-merge, so the
///   observable state never depends on completion order.
pub struct ExecutorCore<'a> {
    scheduler: &'a mut dyn Scheduler,
    space: &'a SearchSpace,
    rng: &'a mut StdRng,
    sim: VirtualExecution,
    async_mode: bool,
    clock: VirtualClock,
    pool: WorkerPool,
    /// Virtual completion events, payload-free: results arrive via
    /// [`complete`](Self::complete) and wait in `fed` until delivered.
    events: EventQueue<()>,
    queue: VecDeque<TrialRequest>,
    /// Validated trained-rounds high-water per trial: committed only by
    /// [`complete`](Self::complete).
    trained: HashMap<usize, usize>,
    /// Rounds each trial has been *dispatched* to (including unvalidated
    /// in-flight work), so costs charge only incremental rounds even when
    /// several reps of one trial are in flight.
    staged: HashMap<usize, usize>,
    /// Reached-rounds values of in-flight dispatches, FIFO per key (a key
    /// can be in flight more than once only at distinct completion times).
    pending: HashMap<EventKey, Vec<usize>>,
    /// Completions fed in but not yet delivered.
    fed: HashMap<EventKey, Vec<TrialResult>>,
    outstanding: usize,
    ledger: BudgetLedger,
    outcome: TuningOutcome,
    timeline: Vec<TrialSpan>,
    metrics: Option<DriverMetrics>,
    trace: Option<&'a fedtrace::Trace>,
    phase: Phase,
    halted: bool,
}

impl<'a> ExecutorCore<'a> {
    /// Builds an executor core over `scheduler`, tracing to the process
    /// global scope when `FEDTUNE_TRACE=1`.
    ///
    /// # Errors
    ///
    /// Fails when `sim` is invalid (zero workers, non-finite or non-positive
    /// budget).
    pub fn new(
        scheduler: &'a mut dyn Scheduler,
        space: &'a SearchSpace,
        rng: &'a mut StdRng,
        sim: &VirtualExecution,
    ) -> Result<Self> {
        Self::new_traced(scheduler, space, rng, sim, fedtrace::global_if_enabled())
    }

    /// [`new`](Self::new) with an explicit observability scope.
    ///
    /// # Errors
    ///
    /// Exactly [`new`](Self::new)'s conditions.
    pub fn new_traced(
        scheduler: &'a mut dyn Scheduler,
        space: &'a SearchSpace,
        rng: &'a mut StdRng,
        sim: &VirtualExecution,
        trace: Option<&'a fedtrace::Trace>,
    ) -> Result<Self> {
        sim.validate()?;
        let async_mode = scheduler.async_capable();
        let pool = WorkerPool::new(sim.workers)?;
        let metrics = trace.map(|t| DriverMetrics::register(t, scheduler.name()));
        if let Some(t) = trace {
            t.journal()
                .record_boundary(ClockDomain::Sim, EventKind::Begin, "campaign", 0.0);
        }
        Ok(ExecutorCore {
            scheduler,
            space,
            rng,
            sim: *sim,
            async_mode,
            clock: VirtualClock::new(),
            pool,
            events: EventQueue::new(),
            queue: VecDeque::new(),
            trained: HashMap::new(),
            staged: HashMap::new(),
            pending: HashMap::new(),
            fed: HashMap::new(),
            outstanding: 0,
            ledger: BudgetLedger::new(),
            outcome: TuningOutcome::default(),
            timeline: Vec::new(),
            metrics,
            trace,
            phase: Phase::Poll,
            halted: false,
        })
    }

    /// Number of dispatched evaluations whose completions have not been
    /// delivered yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Halts the campaign early: the scheduler is never polled again and
    /// queued (undispatched) requests are discarded, while evaluations
    /// already dispatched still complete and deliver — so the partial
    /// outcome remains internally consistent, exactly like a simulated
    /// wall-clock budget cutoff. The multiplexing service daemon uses this
    /// for per-campaign trial/resource budget enforcement and operator
    /// stops. Idempotent.
    pub fn halt(&mut self) {
        self.halted = true;
        self.queue.clear();
    }

    /// Whether [`halt`](Self::halt) has been called.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The **validated** trained-rounds high-water mark of a trial: rounds
    /// are committed only when an evaluation result covering them is fed
    /// back through [`complete`](Self::complete), never at dispatch — so an
    /// objective error mid-campaign cannot leave the core claiming rounds
    /// that were never trained.
    pub fn trained_rounds(&self, trial_id: usize) -> usize {
        self.trained.get(&trial_id).copied().unwrap_or(0)
    }

    /// Advances the state machine until it has something to say.
    ///
    /// Internally the core delivers every already-fed completion and
    /// re-polls the scheduler as its contract allows; it returns as soon as
    /// new work was dispatched ([`ExecutorStep::Dispatch`]), a completion is
    /// missing ([`ExecutorStep::Deliver`]), or the campaign is over
    /// ([`ExecutorStep::Finished`]).
    ///
    /// # Errors
    ///
    /// Propagates scheduler and cost-model errors, and fails if the
    /// scheduler stalls (no outstanding work, no queued work, and an empty
    /// suggestion while unfinished).
    pub fn step(&mut self) -> Result<ExecutorStep> {
        loop {
            match self.phase {
                Phase::Poll => {
                    let started = self.trace.map(|t| t.wall_profile().now_seconds());
                    let poll = self.poll();
                    let batch = match poll {
                        Ok(()) => self.dispatch(),
                        Err(e) => Err(e),
                    };
                    if let (Some(t), Some(started)) = (self.trace, started) {
                        t.wall_profile().record_since("suggest", started);
                    }
                    let batch = batch?;
                    self.phase = Phase::Deliver;
                    if !batch.is_empty() {
                        return Ok(ExecutorStep::Dispatch(batch));
                    }
                }
                Phase::Deliver => {
                    let Some((time, key)) = self.events.peek() else {
                        self.phase = Phase::Finished;
                        if let Some(t) = self.trace {
                            t.journal().record_boundary(
                                ClockDomain::Sim,
                                EventKind::End,
                                "campaign",
                                self.clock.now(),
                            );
                        }
                        return Ok(ExecutorStep::Finished);
                    };
                    let has_result = self.fed.get(&key).is_some_and(|stack| !stack.is_empty());
                    if !has_result {
                        return Ok(ExecutorStep::Deliver(key));
                    }
                    let started = self.trace.map(|t| t.wall_profile().now_seconds());
                    let delivered = self.deliver(time, key);
                    if let (Some(t), Some(started)) = (self.trace, started) {
                        t.wall_profile().record_since("deliver", started);
                    }
                    delivered?;
                    self.phase = Phase::Poll;
                }
                Phase::Finished => return Ok(ExecutorStep::Finished),
            }
        }
    }

    /// Feeds the evaluation result of a dispatched trial back into the core.
    ///
    /// May be called in any order relative to other in-flight dispatches;
    /// delivery to the scheduler still happens in `(sim_time, EventKey)`
    /// order inside [`step`](Self::step). Commits the trial's validated
    /// trained-rounds high-water mark (a max-merge, so completion order
    /// cannot change it).
    ///
    /// # Errors
    ///
    /// Fails when `key` has no in-flight dispatch or `result` does not carry
    /// the key's coordinates.
    pub fn complete(&mut self, key: EventKey, result: TrialResult) -> Result<()> {
        let Some(stack) = self.pending.get_mut(&key) else {
            return Err(crate::CoreError::InvalidConfig {
                message: format!("completion for unknown or already-completed key {key:?}"),
            });
        };
        if result.trial_id as u64 != key.trial
            || result.resource as u64 != key.resource
            || result.noise_rep != key.rep
        {
            return Err(crate::CoreError::InvalidConfig {
                message: format!(
                    "completion result (trial {}, resource {}, rep {}) does not match key {key:?}",
                    result.trial_id, result.resource, result.noise_rep
                ),
            });
        }
        let reached = stack.remove(0);
        if stack.is_empty() {
            self.pending.remove(&key);
        }
        // Satellite of the sans-io refactor: the high-water mark is committed
        // only here, against a validated result — never at dispatch.
        let committed = self.trained.entry(key.trial as usize).or_insert(0);
        *committed = (*committed).max(reached);
        self.fed.entry(key).or_default().push(result);
        Ok(())
    }

    /// Consumes the core into its campaign outcome. Typically called after
    /// [`step`](Self::step) returned [`ExecutorStep::Finished`]; calling it
    /// earlier yields the (consistent) partial outcome, as a budget cutoff
    /// does.
    pub fn finish(self) -> EventDrivenOutcome {
        EventDrivenOutcome {
            sim_elapsed: self.clock.now(),
            finished: self.scheduler.is_finished(),
            outcome: self.outcome,
            timeline: self.timeline,
        }
    }

    /// Polls the scheduler whenever its contract allows: between batches for
    /// barrier schedulers, at any time for async ones. Fresh suggestions go
    /// to the *front* of the dispatch queue so async promotions overtake
    /// queued fresh configurations.
    fn poll(&mut self) -> Result<()> {
        let within_budget = self.sim.sim_budget.is_none_or(|b| self.clock.now() < b);
        if !self.halted
            && within_budget
            && !self.scheduler.is_finished()
            && (self.outstanding == 0 || self.async_mode)
        {
            let batch = self.scheduler.suggest(self.space, self.rng)?;
            if batch.is_empty()
                && self.outstanding == 0
                && self.queue.is_empty()
                && !self.scheduler.is_finished()
            {
                return Err(crate::CoreError::InvalidConfig {
                    message: format!(
                        "scheduler {} stalled: empty batch while unfinished",
                        self.scheduler.name()
                    ),
                });
            }
            if let Some(m) = &self.metrics {
                m.suggests.incr();
            }
            for request in batch.into_iter().rev() {
                self.queue.push_front(request);
            }
            if let Some(m) = &self.metrics {
                // The *dispatch queue* depth after enqueue — not the size of
                // the suggested batch, which undercounted whenever requests
                // were still queued from an earlier poll.
                m.queue_depth.observe(self.queue.len() as u64);
            }
        }
        Ok(())
    }

    /// Dispatches queued requests to virtual workers. Barrier schedulers
    /// commit the whole batch (workers serialize it); async schedulers only
    /// fill workers that are idle *now*, so the next completion can re-poll
    /// before the remaining queue is committed.
    fn dispatch(&mut self) -> Result<Vec<DispatchedTrial>> {
        let mut batch: Vec<DispatchedTrial> = Vec::new();
        while !self.queue.is_empty() {
            let (worker, free_at) = self.pool.next_free();
            if self.async_mode && free_at > self.clock.now() {
                break;
            }
            // The service stops handing out work at the deadline: a request
            // whose start would land on or past the budget is never
            // dispatched (and since `next_free` is the earliest worker, no
            // later request could start sooner — stop here).
            let start = free_at.max(self.clock.now());
            if self.sim.sim_budget.is_some_and(|b| start >= b) {
                break;
            }
            let request = self.queue.pop_front().expect("queue checked non-empty");
            let fingerprint = self.space.canonical_fingerprint(&request.config)?;
            // Incremental cost baseline: validated rounds plus rounds already
            // dispatched (staged) — the same `already` the sequential driver
            // saw when it updated its map eagerly, without claiming
            // unvalidated rounds as trained.
            let committed = self.trained.get(&request.trial_id).copied().unwrap_or(0);
            let already = committed.max(self.staged.get(&request.trial_id).copied().unwrap_or(0));
            let reached = already.max(request.resource);
            let seconds = self
                .sim
                .cost
                .evaluation_seconds(fingerprint, already, reached);
            self.staged.insert(request.trial_id, reached);
            let completion = self.pool.assign(worker, start, seconds)?;
            let key = event_key(&request);
            self.events
                .push(completion, key, ())
                .map_err(|e| crate::CoreError::InvalidConfig {
                    message: format!("virtual event queue rejected a completion: {e}"),
                })?;
            self.pending.entry(key).or_default().push(reached);
            self.timeline.push(TrialSpan {
                trial: request.trial_id as u64,
                resource: request.resource as u64,
                rep: request.noise_rep,
                worker: worker as u64,
                start,
                end: completion,
            });
            if let Some(m) = &self.metrics {
                m.dispatched.incr();
                m.rung_resource.observe(request.resource as u64);
                if already > 0 {
                    // Re-dispatching a trained trial is a promotion (ASHA) or
                    // a resume/re-evaluation (fresh-noise reps).
                    m.promotions.incr();
                }
            }
            self.outstanding += 1;
            batch.push(DispatchedTrial {
                request,
                key,
                worker,
                sim_start: start,
                sim_completion: completion,
            });
        }
        if let Some(m) = &self.metrics {
            if !batch.is_empty() {
                m.busy_workers
                    .observe(self.pool.busy_at(self.clock.now()) as u64);
            }
        }
        Ok(batch)
    }

    /// Delivers the earliest completion: advances the virtual clock, records
    /// the result at its completion instant, and reports it.
    fn deliver(&mut self, time: f64, key: EventKey) -> Result<()> {
        self.events.pop();
        let stack = self.fed.get_mut(&key).expect("checked fed before deliver");
        let result = stack.remove(0);
        if stack.is_empty() {
            self.fed.remove(&key);
        }
        self.clock.advance_to(time)?;
        self.outcome.push(self.ledger.record_at(&result, time));
        self.scheduler.report(&result)?;
        self.outstanding -= 1;
        if let Some(m) = &self.metrics {
            m.reports.incr();
        }
        if let Some(t) = self.trace {
            t.journal().record_instant(
                ClockDomain::Sim,
                "trial.complete",
                time,
                key.trial,
                key.resource,
            );
        }
        Ok(())
    }
}

/// Drives `scheduler` through a **deterministic discrete-event simulation**:
/// a virtual [`WorkerPool`] of `sim.workers` workers executes suggested
/// requests, each costing [`CostModel::evaluation_seconds`] simulated
/// seconds (keyed by the configuration's canonical fingerprint and its
/// incremental training span), and completions are delivered to
/// [`Scheduler::report`] in total `(sim_time, trial key)` order through an
/// [`EventQueue`].
///
/// Polling discipline — the heart of the sync/async distinction:
///
/// - **Barrier schedulers** (`async_capable() == false`, every classic
///   method) are only polled when no results are outstanding, and each
///   suggested batch is committed to the virtual workers in batch order.
///   With the homogeneous [`CostModel::Unit`] this performs *exactly* the
///   evaluations [`run_scheduled`] performs, so selections reproduce the
///   barrier driver bit for bit (asserted in the tests below); heterogeneous
///   costs only change *when* results land, never *what* is evaluated.
/// - **Async schedulers** ([`fedhpo::AsyncAsha`]) are re-polled on **every**
///   completion, and newly suggested work (promotions) jumps ahead of
///   queued fresh configurations, while only idle virtual workers accept
///   work — one slow trial no longer stalls a rung, which is the paper's
///   actual asynchronous successive halving.
///
/// This is the [`Pump`] with every job run **inline on the calling thread**,
/// the moment it is dispatched: the single-threaded reference the concurrent
/// and served lanes are compared against. Since scores and costs are pure
/// functions of request coordinates, the entire outcome **including its
/// virtual timeline** is bit-identical to theirs.
///
/// # Errors
///
/// Propagates scheduler, objective, and cost-model errors, and fails if the
/// scheduler stalls (no outstanding work, no queued work, and an empty
/// suggestion while unfinished).
pub fn run_event_driven<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
) -> Result<EventDrivenOutcome> {
    // `FEDTUNE_TRACE=1` turns on the process-global trace for every caller
    // without a signature change; the determinism suite asserts that this
    // cannot move a result bit.
    run_event_driven_traced(
        scheduler,
        space,
        objective,
        rng,
        sim,
        fedtrace::global_if_enabled(),
    )
}

/// [`run_event_driven`] with an explicit observability scope.
///
/// When `trace` is `Some`, the driver registers counters and histograms
/// under the scheduler's name (`<name>.suggests`, `<name>.reports`,
/// `<name>.dispatched`, `<name>.promotions`, `<name>.queue_depth`,
/// `<name>.busy_workers`, `<name>.rung_resource`), journals campaign
/// boundaries plus one sim-domain instant per delivered completion, and
/// records `suggest` / `evaluate` / `deliver` wall slices.
///
/// **Accounting, never semantics**: metrics are write-only from the
/// driver's point of view, so `None` and `Some` produce bit-identical
/// [`EventDrivenOutcome`]s — including the [`EventDrivenOutcome::timeline`],
/// which is collected unconditionally as part of the result.
///
/// # Errors
///
/// Exactly [`run_event_driven`]'s conditions.
pub fn run_event_driven_traced<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
    trace: Option<&fedtrace::Trace>,
) -> Result<EventDrivenOutcome> {
    let (eval, sink) = objective.split();
    let wall = trace.map(|t| t.wall_profile());
    let core = ExecutorCore::new_traced(scheduler, space, rng, sim, trace)?;
    Pump::new(eval, sink, |job: EvalJob<_, _>, _| job.run(wall)).run(core, &mut Ungated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tests::{space_1d, AnalyticObjective};
    use crate::context::BenchmarkContext;
    use crate::noise::NoiseConfig;
    use crate::objective::BatchFederatedObjective;
    use crate::scale::ExperimentScale;
    use feddata::Benchmark;
    use fedhpo::{Asha, HpConfig, IntoScheduler, RandomSearch};
    use fedmath::rng::rng_for;

    #[test]
    fn batched_asha_matches_sequential_tuner_outcome() {
        // The batch driver over an analytic objective must agree exactly with
        // fedhpo's sequential reference driver on the same scheduler.
        let asha = Asha::new(9, 3, 1, 9);
        let batched = |threads: usize| {
            let mut scheduler = asha.scheduler().unwrap();
            let mut objective = AnalyticObjective::default();
            let mut rng = rng_for(1, 0);
            let outcome = run_scheduled(
                &mut scheduler,
                &space_1d(),
                &mut objective,
                &mut rng,
                threads,
            )
            .unwrap();
            // One sink turn per rung, however many threads evaluated it.
            assert_eq!(objective.sink.turns_ended, 3, "threads = {threads}");
            assert_eq!(objective.sink.commits.len(), outcome.num_evaluations());
            outcome
        };

        let mut sequential_objective =
            fedhpo::FunctionObjective::new(|config: &HpConfig, resource: usize| {
                let x = config.values()[0];
                (x - 0.3).abs() + 1.0 / (resource as f64 + 1.0)
            });
        let mut rng = rng_for(1, 0);
        let sequential = fedhpo::run_scheduler(
            &mut asha.scheduler().unwrap(),
            &space_1d(),
            &mut sequential_objective,
            &mut rng,
        )
        .unwrap();
        assert_eq!(batched(1), sequential);
        assert_eq!(batched(4), sequential);
    }

    #[test]
    fn halt_stops_suggesting_but_drains_outstanding_dispatches() {
        // Halt right after the first dispatch batch: the already-dispatched
        // evaluations still complete and deliver, nothing new is suggested,
        // and the partial outcome reports `finished == false`.
        let mut scheduler = Asha::new(9, 3, 1, 9).scheduler().unwrap();
        let mut rng = rng_for(5, 0);
        let space = space_1d();
        let sim = VirtualExecution::new(2, fedsim::clock::CostModel::Unit);
        let mut core = ExecutorCore::new(&mut scheduler, &space, &mut rng, &sim).unwrap();
        let mut first_batch = 0usize;
        loop {
            match core.step().unwrap() {
                ExecutorStep::Dispatch(batch) => {
                    assert!(!core.is_halted(), "no dispatches after halt");
                    first_batch = batch.len();
                    for d in batch {
                        let x = d.request.config.values()[0];
                        core.complete(d.key, TrialResult::of(&d.request, x))
                            .unwrap();
                    }
                    core.halt();
                    assert!(core.is_halted());
                    core.halt(); // idempotent
                }
                ExecutorStep::Deliver(_) => {
                    panic!("all dispatched work was completed inline");
                }
                ExecutorStep::Finished => break,
            }
        }
        assert_eq!(core.outstanding(), 0, "outstanding work drained");
        let outcome = core.finish();
        assert!(!outcome.finished, "halt cut the ASHA ladder off mid-rung");
        assert_eq!(outcome.outcome.num_evaluations(), first_batch);
        assert_eq!(first_batch, 9, "only the first rung was dispatched");
    }

    #[test]
    fn bounded_driver_interrupts_at_batch_boundaries() {
        // ASHA suggests rung by rung; capping at one batch stops after the
        // first rung with the outcome so far, and an uncapped re-drive with
        // the same seed reproduces the full run exactly.
        let asha = Asha::new(9, 3, 1, 9);
        let run_until = |max_batches: Option<usize>| {
            let mut scheduler = asha.scheduler().unwrap();
            let mut objective = AnalyticObjective::default();
            let mut rng = rng_for(3, 0);
            run_scheduled_for(
                &mut scheduler,
                &space_1d(),
                &mut objective,
                &mut rng,
                1,
                max_batches,
            )
            .unwrap()
        };
        let (full, finished) = run_until(None);
        assert!(finished);
        let (first_rung, finished) = run_until(Some(1));
        assert!(!finished);
        assert!(first_rung.num_evaluations() < full.num_evaluations());
        // The interrupted prefix is exactly the head of the full run.
        assert_eq!(
            full.records()[..first_rung.num_evaluations()],
            *first_rung.records()
        );
        let (rerun, finished) = run_until(Some(usize::MAX));
        assert!(finished);
        assert_eq!(full, rerun);
    }

    #[test]
    fn virtual_execution_validates() {
        assert!(VirtualExecution::new(0, CostModel::Unit)
            .validate()
            .is_err());
        assert!(VirtualExecution::new(4, CostModel::Unit).validate().is_ok());
        assert!(VirtualExecution::new(
            4,
            CostModel::PerRound {
                round_seconds: -1.0,
                eval_seconds: 0.0
            }
        )
        .validate()
        .is_err());
        assert!(VirtualExecution::new(4, CostModel::Unit)
            .with_sim_budget(0.0)
            .validate()
            .is_err());
        assert!(VirtualExecution::new(4, CostModel::Unit)
            .with_sim_budget(f64::NAN)
            .validate()
            .is_err());
        assert!(VirtualExecution::new(4, CostModel::Unit)
            .with_sim_budget(10.0)
            .validate()
            .is_ok());
    }

    /// The regression satellite: with the homogeneous unit-cost model the
    /// event-driven executor performs exactly the evaluations the barrier
    /// driver performs, so every `TuningMethod::EXTENDED` entry reproduces
    /// `run_scheduled`'s selections bit for bit, at any worker count.
    #[test]
    fn event_driven_unit_cost_reproduces_run_scheduled_selections() {
        use crate::experiments::methods::TuningMethod;
        let scale = crate::scale::ExperimentScale::smoke();
        let space = space_1d();
        for method in TuningMethod::EXTENDED {
            let mut scheduler = method.scheduler(&scale).unwrap();
            let mut objective = AnalyticObjective::default();
            let mut rng = rng_for(13, 0);
            let scheduled =
                run_scheduled(scheduler.as_mut(), &space, &mut objective, &mut rng, 1).unwrap();
            for workers in [1usize, 3, 16] {
                let mut scheduler = method.scheduler(&scale).unwrap();
                let mut objective = AnalyticObjective::default();
                let mut rng = rng_for(13, 0);
                let sim = VirtualExecution::new(workers, CostModel::Unit);
                let event =
                    run_event_driven(scheduler.as_mut(), &space, &mut objective, &mut rng, &sim)
                        .unwrap();
                let label = format!("{method}, {workers} workers");
                assert!(event.finished, "{label}");
                assert_eq!(
                    event.outcome.num_evaluations(),
                    scheduled.num_evaluations(),
                    "{label}"
                );
                assert_eq!(
                    event.outcome.total_resource(),
                    scheduled.total_resource(),
                    "{label}"
                );
                // Identical evaluation multiset with identical score bits.
                let identity = |r: &fedhpo::EvaluationRecord| {
                    (r.trial_id, r.resource, r.noise_rep, r.score.to_bits())
                };
                let mut a: Vec<_> = scheduled.records().iter().map(identity).collect();
                let mut b: Vec<_> = event.outcome.records().iter().map(identity).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{label}");
                // Selections reproduce bit for bit.
                let scheduled_best = scheduled.best().unwrap();
                let event_best = event.outcome.best().unwrap();
                assert_eq!(scheduled_best.trial_id, event_best.trial_id, "{label}");
                assert_eq!(
                    scheduled_best.score.to_bits(),
                    event_best.score.to_bits(),
                    "{label}"
                );
                let scheduled_pick = scheduled.selected_within_budget(usize::MAX).unwrap();
                let event_pick = event.outcome.selected_within_budget(usize::MAX).unwrap();
                assert_eq!(scheduled_pick.trial_id, event_pick.trial_id, "{label}");
                assert_eq!(
                    scheduled_pick.score.to_bits(),
                    event_pick.score.to_bits(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn event_driven_timeline_is_monotone_and_respects_worker_count() {
        // 8 unit-cost trials on 2 virtual workers take 4 simulated waves.
        let mut scheduler = RandomSearch::new(8, 2).scheduler().unwrap();
        let mut objective = AnalyticObjective::default();
        let mut rng = rng_for(0, 0);
        let sim = VirtualExecution::new(2, CostModel::Unit);
        let event =
            run_event_driven(&mut scheduler, &space_1d(), &mut objective, &mut rng, &sim).unwrap();
        assert!(event.finished);
        assert_eq!(event.outcome.num_evaluations(), 8);
        assert_eq!(event.sim_elapsed, 4.0);
        assert_eq!(event.outcome.sim_elapsed(), 4.0);
        let times: Vec<f64> = event.outcome.records().iter().map(|r| r.sim_time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Two completions per wave at times 1, 2, 3, 4.
        assert_eq!(times, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        // Virtual-time selection sees only what had completed by then.
        assert!(event.outcome.best_within_sim_time(0.5).is_none());
        assert!(event.outcome.best_within_sim_time(1.0).is_some());
    }

    #[test]
    fn sim_budget_cuts_the_campaign_off_cleanly() {
        // The same 8-trial schedule on 1 worker with a 3-second budget: three
        // evaluations complete, the rest are never dispatched.
        let mut scheduler = RandomSearch::new(8, 2).scheduler().unwrap();
        let mut objective = AnalyticObjective::default();
        let mut rng = rng_for(0, 0);
        let sim = VirtualExecution::new(1, CostModel::Unit).with_sim_budget(3.0);
        let event =
            run_event_driven(&mut scheduler, &space_1d(), &mut objective, &mut rng, &sim).unwrap();
        assert!(!event.finished);
        assert_eq!(event.outcome.num_evaluations(), 3);
        assert_eq!(event.sim_elapsed, 3.0);
        // A budget larger than the whole campaign changes nothing.
        let mut scheduler = RandomSearch::new(8, 2).scheduler().unwrap();
        let mut objective = AnalyticObjective::default();
        let mut rng = rng_for(0, 0);
        let sim = VirtualExecution::new(1, CostModel::Unit).with_sim_budget(1e6);
        let event =
            run_event_driven(&mut scheduler, &space_1d(), &mut objective, &mut rng, &sim).unwrap();
        assert!(event.finished);
        assert_eq!(event.outcome.num_evaluations(), 8);
    }

    #[test]
    fn async_asha_beats_sync_sha_under_stragglers() {
        use fedhpo::AsyncAsha;
        // Heavy-tailed client runtimes with a narrow worker pool: the sync
        // ladder waits for every rung's slowest trial, the async ladder keeps
        // all workers busy and promotes on completion.
        let ladder = fedhpo::Asha::new(12, 3, 1, 9);
        let cost = CostModel::HeterogeneousClients(
            fedsim::clock::ClientRuntimeModel::heavy_tailed(60, 5, 17),
        );
        let sim = VirtualExecution::new(4, cost);
        let run = |scheduler: &mut dyn Scheduler| {
            let mut objective = AnalyticObjective::default();
            let mut rng = rng_for(3, 0);
            run_event_driven(scheduler, &space_1d(), &mut objective, &mut rng, &sim).unwrap()
        };
        let sync = run(&mut ladder.scheduler().unwrap());
        let asynchronous = run(&mut AsyncAsha::from_ladder(ladder).scheduler().unwrap());
        assert!(sync.finished && asynchronous.finished);
        assert!(sync.sim_elapsed > 0.0);
        // Same fresh configurations, so the first rung is identical work.
        assert_eq!(
            sync.outcome
                .records()
                .iter()
                .filter(|r| r.resource == 1)
                .count(),
            12
        );
        let throughput =
            |e: &EventDrivenOutcome| e.outcome.num_evaluations() as f64 / e.sim_elapsed;
        assert!(
            throughput(&asynchronous) >= throughput(&sync),
            "async {:.4} evals/s should be at least sync {:.4} evals/s",
            throughput(&asynchronous),
            throughput(&sync)
        );
        // The async campaign finishes no later than the barrier one on the
        // same virtual hardware whenever it does the same or more work.
        if asynchronous.outcome.num_evaluations() >= sync.outcome.num_evaluations() {
            assert!(asynchronous.sim_elapsed <= sync.sim_elapsed);
        }
    }

    #[test]
    fn event_driven_stalled_scheduler_is_rejected() {
        struct Staller;
        impl Scheduler for Staller {
            fn name(&self) -> &'static str {
                "staller"
            }
            fn suggest(
                &mut self,
                _space: &SearchSpace,
                _rng: &mut StdRng,
            ) -> fedhpo::Result<Vec<TrialRequest>> {
                Ok(Vec::new())
            }
            fn report(&mut self, _result: &TrialResult) -> fedhpo::Result<()> {
                Ok(())
            }
            fn is_finished(&self) -> bool {
                false
            }
        }
        let mut objective = AnalyticObjective::default();
        let mut rng = rng_for(0, 2);
        let err = run_event_driven(
            &mut Staller,
            &space_1d(),
            &mut objective,
            &mut rng,
            &VirtualExecution::new(2, CostModel::Unit),
        )
        .unwrap_err();
        assert!(err.to_string().contains("stalled"), "{err}");
    }

    #[test]
    fn executor_core_enforces_budget_boundaries_sans_io() {
        // A zero budget is rejected up front by construction.
        let space = space_1d();
        let mut scheduler = RandomSearch::new(8, 2).scheduler().unwrap();
        let mut rng = rng_for(0, 0);
        let zero = VirtualExecution::new(1, CostModel::Unit).with_sim_budget(0.0);
        assert!(ExecutorCore::new(&mut scheduler, &space, &mut rng, &zero).is_err());

        // A dispatch whose start lands exactly on the deadline is never
        // issued: unit costs on one worker under a 2.0-second budget admit
        // the starts at 0 and 1, and reject the start at exactly 2.0.
        let mut scheduler = RandomSearch::new(8, 2).scheduler().unwrap();
        let mut rng = rng_for(0, 0);
        let sim = VirtualExecution::new(1, CostModel::Unit).with_sim_budget(2.0);
        let mut core = ExecutorCore::new(&mut scheduler, &space, &mut rng, &sim).unwrap();
        let ExecutorStep::Dispatch(batch) = core.step().unwrap() else {
            panic!("expected an initial dispatch");
        };
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|d| d.sim_start < 2.0));
        assert_eq!(core.outstanding(), 2);
        // Without the completions fed, the core asks for the earliest one.
        let ExecutorStep::Deliver(waiting) = core.step().unwrap() else {
            panic!("expected the core to wait on a completion");
        };
        assert_eq!(waiting, batch[0].key);
        // Feed the completions out of dispatch order; delivery order is the
        // event queue's business, not the caller's.
        for d in batch.iter().rev() {
            let x = d.request.config.values()[0];
            core.complete(d.key, TrialResult::of(&d.request, (x - 0.3).abs()))
                .unwrap();
        }
        // Budget hit with a non-empty dispatch queue (6 of the 8 suggested
        // requests still queued): the core drains its deliveries and finishes
        // with `finished == false`, never dispatching the rest.
        assert!(matches!(core.step().unwrap(), ExecutorStep::Finished));
        assert_eq!(core.outstanding(), 0);
        let outcome = core.finish();
        assert!(!outcome.finished);
        assert_eq!(outcome.outcome.num_evaluations(), 2);
        assert_eq!(outcome.sim_elapsed, 2.0);
        assert_eq!(outcome.timeline.len(), 2);
    }

    #[test]
    fn executor_core_reports_stall_through_the_sans_io_api() {
        struct Staller;
        impl Scheduler for Staller {
            fn name(&self) -> &'static str {
                "staller"
            }
            fn suggest(
                &mut self,
                _space: &SearchSpace,
                _rng: &mut StdRng,
            ) -> fedhpo::Result<Vec<TrialRequest>> {
                Ok(Vec::new())
            }
            fn report(&mut self, _result: &TrialResult) -> fedhpo::Result<()> {
                Ok(())
            }
            fn is_finished(&self) -> bool {
                false
            }
        }
        let space = space_1d();
        let mut staller = Staller;
        let mut rng = rng_for(0, 2);
        let sim = VirtualExecution::new(2, CostModel::Unit);
        let mut core = ExecutorCore::new(&mut staller, &space, &mut rng, &sim).unwrap();
        let err = core.step().unwrap_err();
        assert!(err.to_string().contains("stalled"), "{err}");
    }

    #[test]
    fn trained_rounds_commit_only_on_validated_results() {
        // ASHA promotions resume from the trained high-water mark; the core
        // must not claim rounds at dispatch time, only once a result has
        // validated them — an objective failure mid-flight leaves no phantom
        // training behind.
        let space = space_1d();
        let mut scheduler = Asha::new(9, 3, 1, 9).scheduler().unwrap();
        let mut rng = rng_for(1, 0);
        let sim = VirtualExecution::new(9, CostModel::Unit);
        let mut core = ExecutorCore::new(&mut scheduler, &space, &mut rng, &sim).unwrap();
        let ExecutorStep::Dispatch(rung) = core.step().unwrap() else {
            panic!("expected the first rung");
        };
        assert_eq!(rung.len(), 9);
        // In flight, nothing is validated yet.
        for d in &rung {
            assert_eq!(core.trained_rounds(d.request.trial_id), 0);
        }
        let (last, rest) = rung.split_last().unwrap();
        for d in rest {
            let x = d.request.config.values()[0];
            core.complete(d.key, TrialResult::of(&d.request, (x - 0.3).abs()))
                .unwrap();
            assert_eq!(core.trained_rounds(d.request.trial_id), d.request.resource);
        }
        assert_eq!(core.trained_rounds(last.request.trial_id), 0);
        // A result that does not carry the key's coordinates is refused and
        // commits nothing.
        let mut wrong = TrialResult::of(&last.request, 0.0);
        wrong.resource += 1;
        assert!(core.complete(last.key, wrong).is_err());
        assert_eq!(core.trained_rounds(last.request.trial_id), 0);
        // So is a completion for a key that was never dispatched.
        let mut bogus = last.request.clone();
        bogus.trial_id = 99;
        let bogus_key = EventKey::new(99, bogus.resource as u64, bogus.noise_rep);
        assert!(core
            .complete(bogus_key, TrialResult::of(&bogus, 0.0))
            .is_err());
        // The genuine result commits the mark.
        let x = last.request.config.values()[0];
        core.complete(last.key, TrialResult::of(&last.request, (x - 0.3).abs()))
            .unwrap();
        assert_eq!(
            core.trained_rounds(last.request.trial_id),
            last.request.resource
        );
    }

    #[test]
    fn drives_the_federated_batch_objective() {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), 0).unwrap();
        let tuner = RandomSearch::new(3, 2);
        let mut scheduler = tuner.scheduler().unwrap();
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), 3, 5).unwrap();
        let mut rng = rng_for(2, 0);
        let outcome =
            run_scheduled(&mut scheduler, ctx.space(), &mut objective, &mut rng, 2).unwrap();
        assert_eq!(outcome.num_evaluations(), 3);
        assert_eq!(objective.log().len(), 3);
        assert_eq!(objective.cumulative_rounds(), 6);
        assert!(outcome.best().unwrap().score.is_finite());
    }
}
