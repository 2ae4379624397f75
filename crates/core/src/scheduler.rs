//! The sans-io executor state machine and the one driver over it.
//!
//! `fedhpo`'s [`Scheduler`] trait inverts tuner control flow — the method
//! *suggests* batches of [`TrialRequest`]s instead of calling the objective
//! itself. [`drive`] evaluates those requests through the one [`Pump`] over
//! a [`ConcurrentObjective`], inline on the calling thread or on a scoped
//! pool of `threads` real threads, and returns an [`EventDrivenOutcome`].
//!
//! [`ExecutorCore`] decides what runs when, under one of two [`Clock`]s:
//!
//! - [`Clock::Virtual`] is a **deterministic discrete-event simulation**
//!   over `fedsim`'s virtual clock: a pool of *virtual* workers pulls trials
//!   as they free up, every evaluation's simulated runtime comes from a
//!   [`CostModel`] keyed by the point's canonical fingerprint, completions
//!   are delivered to [`Scheduler::report`] in total `(sim_time, key)`
//!   order, and [`Scheduler::async_capable`] schedulers (async ASHA) are
//!   re-polled on every completion — promote-on-completion with no rung
//!   barrier, the paper's actual adaptive-allocation algorithm. A
//!   campaign's [`Budget`] can cap it in **simulated wall-clock** seconds.
//! - [`Clock::Barrier`] has no time at all: a suggested batch goes out at
//!   once, is delivered in batch order once all of it has been evaluated,
//!   and only then is the scheduler polled again — record for record a
//!   loop that reports each result before evaluating the next, every
//!   record stamped `0.0`.
//!
//! Because every scheduler suggests deterministically, every evaluation
//! derives its randomness from the request's coordinates, and the virtual
//! timeline is a pure function of the schedule and cost model, the produced
//! [`TuningOutcome`] — including its virtual timeline — is **bit-identical**
//! at every real thread count (`tests/determinism.rs`).
//! The core, the one dispatch point, holds and debits the campaign's one
//! [`Budget`], so a cap halts the same dispatch in every lane. Rounds are
//! charged by one rule, [`BudgetLedger`], applied at dispatch here, at
//! delivery by [`TuningOutcome::record`] and at commit by the campaign log.

use crate::concurrent::{on_pool, ConcurrentObjective, EvalJob, Pump, Ungated};
use crate::Result;
use fedhpo::{BudgetLedger, Scheduler, SearchSpace, TrialRequest, TrialResult, TuningOutcome};
use fedsim::clock::{CostModel, EventKey, EventQueue, VirtualClock, WorkerPool};
use fedsim::exec::with_thread_pool;
use fedtrace::TrialSpan;
use rand::rngs::StdRng;
use std::collections::{HashMap, VecDeque};

/// How the [`ExecutorCore`] times and orders the work it dispatches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    /// A simulated tuning service: virtual workers, a cost model, delivery
    /// in `(sim_time, key)` order, async schedulers polled on every
    /// completion.
    Virtual(VirtualExecution),
    /// Batch by batch: every request of a suggested batch is dispatched at
    /// once and starts and completes at `0.0`; the batch is delivered in
    /// dispatch (= batch) order once its last result has been fed, and the
    /// scheduler is polled only when nothing is outstanding, whatever
    /// [`Scheduler::async_capable`] says.
    Barrier,
}

/// How [`drive`] runs a campaign. Build it with [`Drive::new`] and override
/// fields with struct-update syntax:
/// `Drive { threads: 4, ..Drive::new(Clock::Barrier) }`.
#[derive(Debug, Clone, Copy)]
pub struct Drive<'t> {
    /// Real threads evaluating in-flight trials: at `threads <= 1` every
    /// job runs inline on the calling thread, above that on a scoped pool.
    /// Never changes a result bit.
    pub threads: usize,
    /// What runs when, and in what order it is reported.
    pub clock: Clock,
    /// Observability scope: `<scheduler name>.*` metrics and `suggest` /
    /// `evaluate` / `deliver` wall slices.
    /// Accounting, never semantics: `None` and `Some` give the same bits.
    pub trace: Option<&'t fedtrace::Trace>,
    /// The caps the core enforces as it dispatches.
    pub budget: Budget,
}

impl Drive<'_> {
    /// One thread, no budget, and the process-global trace when
    /// `FEDTUNE_TRACE=1`.
    pub fn new(clock: Clock) -> Self {
        Drive {
            threads: 1,
            clock,
            trace: fedtrace::global_if_enabled(),
            budget: Budget::default(),
        }
    }
}

/// The one budget of a campaign, debited by the [`ExecutorCore`] as it
/// dispatches (default: unlimited). Work dispatched before a cap trips
/// still completes, commits and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Halt once this many evaluations were dispatched. This cap and
    /// `rounds` are checked before each poll once a dispatch went out, so
    /// the wave crossing one runs whole and a cap of zero sends one wave.
    pub evaluations: Option<u64>,
    /// Halt once this many rounds were dispatched ([`DispatchedTrial::rounds`]).
    pub rounds: Option<u64>,
    /// A virtual-time deadline ([`Clock::Virtual`] only): nothing starts at
    /// or after it, and nothing is suggested once the clock reaches it.
    pub sim_seconds: Option<f64>,
}

/// Which [`Budget`] cap cut a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    /// [`Budget::evaluations`].
    Evaluations,
    /// [`Budget::rounds`].
    Rounds,
    /// [`Budget::sim_seconds`].
    SimSeconds,
}

impl Budget {
    fn validate(&self, clock: &Clock) -> Result<()> {
        match (self.sim_seconds, clock) {
            (Some(b), Clock::Virtual(_)) if b.is_finite() && b > 0.0 => Ok(()),
            (None, _) => Ok(()),
            _ => Err(crate::CoreError::InvalidConfig {
                message: format!("invalid budget {self:?} under {clock:?}"),
            }),
        }
    }

    /// The first cap reached by the `evaluations` and `rounds` dispatched by
    /// virtual time `now`. All three only grow, so a cap once reached stays
    /// reached.
    fn reached(&self, evaluations: u64, rounds: u64, now: f64) -> Option<Cap> {
        let over = |cap: Option<u64>, used| evaluations > 0 && cap.is_some_and(|c| used >= c);
        [
            (over(self.evaluations, evaluations), Cap::Evaluations),
            (over(self.rounds, rounds), Cap::Rounds),
            (self.sim_seconds.is_some_and(|b| now >= b), Cap::SimSeconds),
        ]
        .into_iter()
        .find_map(|(hit, cap)| hit.then_some(cap))
    }
}

/// Drives `scheduler` against `objective` to the end: the one driver of the
/// workspace. Jobs run inline at `config.threads <= 1`, else on a scoped
/// pool, through [`Pump::run`] with no host ([`Ungated`]), so the sink sees
/// dispatch order and the outcome is the same at every thread count.
///
/// Under [`Clock::Barrier`] a batch is committed and its sink turn ended
/// before its first result is reported. A run cut by [`Budget::evaluations`]
/// there ran the wave that crossed the cap whole, so it has reported
/// everything it suggested: re-driving a fresh scheduler with the same seed
/// over a recording objective (`fedstore`) serves that prefix from the
/// ledger and continues bit-identically to an uncut run.
///
/// # Errors
///
/// Propagates scheduler, objective and cost-model errors, the failure of
/// the earliest failing dispatch, a failed sink turn, and fails if the
/// scheduler stalls (nothing outstanding or queued, and an empty suggestion
/// while unfinished). An evaluation that panics on the pool fails the
/// campaign with [`CoreError::EvalPanicked`](crate::CoreError::EvalPanicked);
/// inline (`threads <= 1`) the job is a plain call and its panic unwinds to
/// the caller with its own payload.
pub fn drive<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    config: &Drive<'_>,
) -> Result<EventDrivenOutcome> {
    let Drive {
        threads,
        clock,
        trace,
        budget,
    } = *config;
    let (eval, sink) = objective.split();
    let wall = trace.map(|t| t.wall_profile());
    let core = ExecutorCore::new(scheduler, space, rng, clock, trace, budget)?;
    if threads <= 1 {
        Pump::new(eval, sink, |job: EvalJob<_, _>| job.run(wall)).run(core, &mut Ungated)
    } else {
        with_thread_pool(threads, move |pool| {
            Pump::new(eval, sink, on_pool(pool, wall)).run(core, &mut Ungated)
        })
    }
}

/// [`drive`] inline under a virtual clock with an explicit trace.
#[doc(hidden)]
pub fn run_event_driven_traced<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
    trace: Option<&fedtrace::Trace>,
) -> Result<EventDrivenOutcome> {
    let config = Drive {
        trace,
        ..Drive::new(Clock::Virtual(*sim))
    };
    drive(scheduler, space, objective, rng, &config)
}

/// [`drive`] under a virtual clock on `threads` threads with an explicit
/// trace.
#[doc(hidden)]
pub fn run_event_driven_concurrent_traced<O: ConcurrentObjective>(
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
    threads: usize,
    trace: Option<&fedtrace::Trace>,
) -> Result<EventDrivenOutcome> {
    let config = Drive {
        threads,
        trace,
        ..Drive::new(Clock::Virtual(*sim))
    };
    drive(scheduler, space, objective, rng, &config)
}

/// Configuration of the virtual clock: how many *virtual* workers the
/// simulated tuning service runs and what each evaluation costs in simulated
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualExecution {
    /// Number of virtual workers trials are scheduled onto. Independent of
    /// the real thread count — where the pump runs its jobs never changes
    /// the virtual timeline.
    pub workers: usize,
    /// Simulated runtime of each evaluation.
    pub cost: CostModel,
}

impl VirtualExecution {
    /// A virtual service with `workers` workers and the given cost model.
    pub fn new(workers: usize, cost: CostModel) -> Self {
        VirtualExecution { workers, cost }
    }

    fn validate(&self) -> Result<()> {
        self.cost.validate()?;
        if self.workers == 0 {
            return Err(crate::CoreError::InvalidConfig {
                message: format!("invalid virtual execution: {self:?}"),
            });
        }
        Ok(())
    }
}

/// The result of one driven campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDrivenOutcome {
    /// The evaluation history in **delivery order**, every record stamped
    /// with its simulated completion time (`0.0` under [`Clock::Barrier`]).
    pub outcome: TuningOutcome,
    /// The simulated wall-clock the campaign took (the virtual clock at the
    /// last delivered completion); always `0.0` under [`Clock::Barrier`],
    /// which has no time.
    pub sim_elapsed: f64,
    /// Whether the schedule ran to completion (`false` when a [`Budget`]
    /// cap or [`ExecutorCore::halt`] cut it off).
    pub finished: bool,
    /// The [`Budget`] cap that tripped, if one did (even by the last wave,
    /// with `finished == true`); [`ExecutorCore::halt`] sets none.
    pub halt: Option<Cap>,
    /// The virtual-time execution timeline: one [`TrialSpan`] per dispatched
    /// evaluation, in dispatch order, carrying its virtual worker and
    /// simulated start/end; empty under [`Clock::Barrier`], which has no
    /// workers. Collected unconditionally — it is part of the result, not
    /// tracing output, so its bits are covered by the driver's determinism
    /// contract (and the replay identity asserted in `tests/determinism.rs`).
    /// Export it with [`fedtrace::virtual_timeline_json`].
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
    /// Trials were just dispatched. Evaluate them — in any real order, on
    /// any thread — and feed each result back through
    /// [`ExecutorCore::complete`]. The core never blocks on them itself.
    Dispatch(Vec<DispatchedTrial>),
    /// The core cannot deliver until [`ExecutorCore::complete`] is called
    /// for this key: the earliest virtual event, or under
    /// [`Clock::Barrier`] the batch's first unfed request. (A driver that
    /// completes every dispatch before stepping again never sees this.)
    Deliver(EventKey),
    /// The campaign is over: every dispatched trial has been delivered and
    /// the scheduler has no further work (or a budget or halt cut the
    /// schedule off). Call [`ExecutorCore::finish`].
    Finished,
}

/// One trial dispatched by [`ExecutorCore::step`].
#[derive(Debug, Clone)]
pub struct DispatchedTrial {
    /// The suggested request to evaluate.
    pub request: TrialRequest,
    /// The event key identifying this evaluation; pass it to
    /// [`ExecutorCore::complete`] together with the result.
    pub key: EventKey,
    /// Training rounds this dispatch adds beyond the trial's furthest
    /// earlier dispatch — what it debits from [`Budget::rounds`].
    pub rounds: usize,
    /// Index of the virtual worker executing the trial (`0` under
    /// [`Clock::Barrier`]).
    pub worker: usize,
    /// Simulated start time of the evaluation.
    pub sim_start: f64,
    /// Simulated completion time — the instant the result will be delivered
    /// at, and the timestamp an objective log should stamp it with.
    pub sim_completion: f64,
}

/// The event key of a request's evaluation.
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

/// The core's [`Clock`] with its running state.
enum Timing {
    Virtual {
        sim: VirtualExecution,
        clock: VirtualClock,
        pool: WorkerPool,
        /// Completion events, payload-free: results arrive via
        /// [`ExecutorCore::complete`] and wait in `fed` until delivered.
        events: EventQueue<()>,
    },
    /// The keys of the batch in flight, in dispatch order.
    Barrier(VecDeque<EventKey>),
}

impl Timing {
    fn now(&self) -> f64 {
        match self {
            Timing::Virtual { clock, .. } => clock.now(),
            Timing::Barrier(_) => 0.0,
        }
    }

    /// The next completion to deliver and its time.
    fn next(&self) -> Option<(f64, EventKey)> {
        match self {
            Timing::Virtual { events, .. } => events.peek(),
            Timing::Barrier(batch) => batch.front().map(|&key| (0.0, key)),
        }
    }
}

/// The sans-io heart of the driver.
///
/// `ExecutorCore` owns the poll/dispatch/deliver state machine — its
/// [`Clock`], dispatch queue, trained high-water marks, metrics — but
/// performs **no evaluation and no waiting**. It communicates with its
/// driver through explicit actions: [`step`](Self::step) returns what the
/// world should do next ([`ExecutorStep`]), and the world feeds evaluation
/// results back with [`complete`](Self::complete), in any order and from any
/// thread's output. Results are still *delivered* in the clock's order —
/// `(sim_time, EventKey)`, or batch order — so the outcome is a pure
/// function of the schedule and cost model, never of how, where, or in what
/// real order evaluations ran.
///
/// Its one driver is the [`Pump`]: inline or on a scoped pool ([`drive`]),
/// or on the `fedserve` daemon's shared pool behind its fair-share gate.
///
/// Two invariants the core maintains for its callers:
///
/// - **Incremental costs at dispatch.** A dispatch is charged the rounds it
///   trains beyond its trial's furthest earlier dispatch
///   ([`DispatchedTrial::rounds`]), so overlapping in-flight dispatches of
///   one trial cost in sum what delivery charges the outcome.
/// - **Order-independent completion.** `complete` may be called in any
///   order; results wait in a completion buffer until their turn to be
///   delivered, so the observable state never depends on completion order.
pub struct ExecutorCore<'a> {
    scheduler: &'a mut dyn Scheduler,
    space: &'a SearchSpace,
    rng: &'a mut StdRng,
    timing: Timing,
    async_mode: bool,
    budget: Budget,
    /// Evaluations dispatched so far (saturating).
    evaluations: u64,
    /// Rounds charged at dispatch, in-flight work included, so overlapping
    /// dispatches of one trial pay only their increments.
    rounds: BudgetLedger,
    /// The cap [`poll`](Self::poll) last found reached.
    cut: Option<Cap>,
    queue: VecDeque<TrialRequest>,
    /// In-flight dispatches per key (a key can be in flight more than once
    /// only at distinct completion times).
    pending: HashMap<EventKey, usize>,
    /// Completions fed in but not yet delivered.
    fed: HashMap<EventKey, Vec<TrialResult>>,
    outstanding: usize,
    outcome: TuningOutcome,
    timeline: Vec<TrialSpan>,
    metrics: Option<DriverMetrics>,
    trace: Option<&'a fedtrace::Trace>,
    phase: Phase,
    halted: bool,
}

impl<'a> ExecutorCore<'a> {
    /// Builds an executor core over `scheduler` under `clock`, with the
    /// [`Drive::trace`] and [`Drive::budget`] meanings of `trace` and
    /// `budget`.
    ///
    /// # Errors
    ///
    /// Fails when a virtual clock is invalid (zero workers, invalid cost
    /// model) or the budget's deadline is (non-finite, non-positive, or
    /// under [`Clock::Barrier`], which has no time).
    pub fn new(
        scheduler: &'a mut dyn Scheduler,
        space: &'a SearchSpace,
        rng: &'a mut StdRng,
        clock: Clock,
        trace: Option<&'a fedtrace::Trace>,
        budget: Budget,
    ) -> Result<Self> {
        budget.validate(&clock)?;
        let (timing, async_mode) = match clock {
            Clock::Virtual(sim) => {
                sim.validate()?;
                let timing = Timing::Virtual {
                    sim,
                    clock: VirtualClock::new(),
                    pool: WorkerPool::new(sim.workers)?,
                    events: EventQueue::new(),
                };
                (timing, scheduler.async_capable())
            }
            Clock::Barrier => (Timing::Barrier(VecDeque::new()), false),
        };
        let metrics = trace.map(|t| DriverMetrics::register(t, scheduler.name()));
        Ok(ExecutorCore {
            scheduler,
            space,
            rng,
            timing,
            async_mode,
            budget,
            evaluations: 0,
            rounds: BudgetLedger::new(),
            cut: None,
            queue: VecDeque::new(),
            pending: HashMap::new(),
            fed: HashMap::new(),
            outstanding: 0,
            outcome: TuningOutcome::default(),
            timeline: Vec::new(),
            metrics,
            trace,
            phase: Phase::Poll,
            halted: false,
        })
    }

    /// [`new`](Self::new) under a virtual clock with an explicit trace.
    #[doc(hidden)]
    pub fn new_traced(
        scheduler: &'a mut dyn Scheduler,
        space: &'a SearchSpace,
        rng: &'a mut StdRng,
        sim: &VirtualExecution,
        trace: Option<&'a fedtrace::Trace>,
    ) -> Result<Self> {
        let clock = Clock::Virtual(*sim);
        Self::new(scheduler, space, rng, clock, trace, Budget::default())
    }

    /// Number of dispatched evaluations whose completions have not been
    /// delivered yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Halts the campaign early: the scheduler is never polled again and
    /// queued (undispatched) requests are discarded, while evaluations
    /// already dispatched still complete and deliver — so the partial
    /// outcome remains internally consistent, exactly like a [`Budget`]
    /// cutoff. The multiplexing service daemon uses this for operator stops
    /// and shutdowns. Idempotent.
    pub fn halt(&mut self) {
        self.halted = true;
        self.queue.clear();
    }

    /// Advances the state machine until it has something to say.
    ///
    /// Internally the core delivers every already-fed completion it may and
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
                    let Some((time, key)) = self.timing.next() else {
                        self.phase = Phase::Finished;
                        return Ok(ExecutorStep::Finished);
                    };
                    // A barrier batch is held until its last result is fed.
                    if let Timing::Barrier(batch) = &self.timing {
                        if !self.pending.is_empty() {
                            let unfed = batch.iter().find(|k| self.pending.contains_key(k));
                            return Ok(ExecutorStep::Deliver(*unfed.unwrap_or(&key)));
                        }
                    }
                    let Some(stack) = self.fed.get_mut(&key).filter(|stack| !stack.is_empty())
                    else {
                        return Ok(ExecutorStep::Deliver(key));
                    };
                    let result = stack.remove(0);
                    if stack.is_empty() {
                        self.fed.remove(&key);
                    }
                    let started = self.trace.map(|t| t.wall_profile().now_seconds());
                    let delivered = self.deliver(time, result);
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
    /// delivery to the scheduler still happens in the clock's order inside
    /// [`step`](Self::step).
    ///
    /// # Errors
    ///
    /// Fails when `key` has no in-flight dispatch or `result` does not carry
    /// the key's coordinates.
    pub fn complete(&mut self, key: EventKey, result: TrialResult) -> Result<()> {
        let Some(in_flight) = self.pending.get_mut(&key) else {
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
        *in_flight -= 1;
        if *in_flight == 0 {
            self.pending.remove(&key);
        }
        self.fed.entry(key).or_default().push(result);
        Ok(())
    }

    /// Consumes the core into its campaign outcome. Typically called after
    /// [`step`](Self::step) returned [`ExecutorStep::Finished`]; calling it
    /// earlier yields the (consistent) partial outcome, as a budget cutoff
    /// does.
    pub fn finish(self) -> EventDrivenOutcome {
        EventDrivenOutcome {
            sim_elapsed: self.timing.now(),
            finished: self.scheduler.is_finished(),
            halt: self.cut,
            outcome: self.outcome,
            timeline: self.timeline,
        }
    }

    /// Polls the scheduler whenever its contract allows: when nothing is
    /// outstanding for barrier schedulers (and under [`Clock::Barrier`]), at
    /// any time for async ones under a virtual clock. Fresh suggestions go
    /// to the *front* of the dispatch queue so async promotions overtake
    /// queued fresh configurations. A reached [`Budget`] cap stops the
    /// polling and drops the queue.
    fn poll(&mut self) -> Result<()> {
        let (rounds, now) = (self.rounds.cumulative() as u64, self.timing.now());
        self.cut = self.budget.reached(self.evaluations, rounds, now);
        if self.cut.is_some() {
            self.queue.clear();
        }
        if !self.halted
            && self.cut.is_none()
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

    /// Dispatches queued requests. A barrier clock sends the whole batch at
    /// once; on a virtual clock barrier schedulers commit the whole batch
    /// (workers serialize it), while async schedulers only fill workers that
    /// are idle *now*, so the next completion can re-poll before the
    /// remaining queue is committed.
    fn dispatch(&mut self) -> Result<Vec<DispatchedTrial>> {
        let mut batch: Vec<DispatchedTrial> = Vec::new();
        while !self.queue.is_empty() {
            // The virtual worker and start of the next dispatch, unless it
            // must wait: an async scheduler only fills workers idle now, and
            // nothing starts on or past the deadline (`next_free` is the
            // earliest worker, so no later request could start sooner).
            let (worker, start) = match &self.timing {
                Timing::Barrier(_) => (0, 0.0),
                Timing::Virtual { clock, pool, .. } => {
                    let (worker, free_at) = pool.next_free();
                    let start = free_at.max(clock.now());
                    if (self.async_mode && free_at > clock.now())
                        || self.budget.sim_seconds.is_some_and(|b| start >= b)
                    {
                        break;
                    }
                    (worker, start)
                }
            };
            let Some(request) = self.queue.pop_front() else {
                break;
            };
            let rounds = self.rounds.charge(request.trial_id, request.resource);
            let key = event_key(&request);
            let completion = match &mut self.timing {
                Timing::Barrier(in_flight) => {
                    in_flight.push_back(key);
                    0.0
                }
                Timing::Virtual {
                    sim, pool, events, ..
                } => {
                    // The dispatch trains rounds `resource - rounds .. resource`
                    // (none when the trial had reached `resource`).
                    let fingerprint = self.space.canonical_fingerprint(&request.config)?;
                    let seconds = sim.cost.evaluation_seconds(
                        fingerprint,
                        request.resource - rounds,
                        request.resource,
                    );
                    let completion = pool.assign(worker, start, seconds)?;
                    events.push(completion, key, ()).map_err(|e| {
                        crate::CoreError::InvalidConfig {
                            message: format!("virtual event queue rejected a completion: {e}"),
                        }
                    })?;
                    self.timeline.push(TrialSpan {
                        trial: request.trial_id as u64,
                        resource: request.resource as u64,
                        rep: request.noise_rep,
                        worker: worker as u64,
                        start,
                        end: completion,
                    });
                    completion
                }
            };
            *self.pending.entry(key).or_default() += 1;
            self.evaluations = self.evaluations.saturating_add(1);
            if let Some(m) = &self.metrics {
                m.dispatched.incr();
                m.rung_resource.observe(request.resource as u64);
                if rounds < request.resource {
                    // Re-dispatching a trained trial is a promotion (ASHA) or
                    // a resume/re-evaluation (fresh-noise reps).
                    m.promotions.incr();
                }
            }
            self.outstanding += 1;
            batch.push(DispatchedTrial {
                request,
                key,
                rounds,
                worker,
                sim_start: start,
                sim_completion: completion,
            });
        }
        if let (Some(m), Timing::Virtual { clock, pool, .. }) = (&self.metrics, &self.timing) {
            if !batch.is_empty() {
                m.busy_workers.observe(pool.busy_at(clock.now()) as u64);
            }
        }
        Ok(batch)
    }

    /// Delivers the next completion, whose fed `result` [`step`](Self::step)
    /// took: advances the clock, records the result at its completion
    /// instant, and reports it.
    fn deliver(&mut self, time: f64, result: TrialResult) -> Result<()> {
        match &mut self.timing {
            Timing::Virtual { clock, events, .. } => {
                events.pop();
                clock.advance_to(time)?;
            }
            Timing::Barrier(in_flight) => {
                in_flight.pop_front();
            }
        }
        self.outcome.record(&result, time);
        self.scheduler.report(&result)?;
        self.outstanding -= 1;
        if let Some(m) = &self.metrics {
            m.reports.incr();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tests::{
        analytic_score, space_1d, AnalyticObjective, CommitLog, Scripted,
    };
    use crate::objective::{selected_true_error, selected_true_error_within_sim};
    use crate::ObjectiveLogEntry;
    use fedhpo::{Asha, HpConfig, RandomSearch};
    use fedmath::rng::rng_for;

    /// `scheduler` driven over the analytic objective.
    fn analytic(scheduler: &mut dyn Scheduler, config: &Drive, seed: u64) -> EventDrivenOutcome {
        analytic_with_sink(scheduler, config, seed).0
    }

    fn analytic_with_sink(
        scheduler: &mut dyn Scheduler,
        config: &Drive,
        seed: u64,
    ) -> (EventDrivenOutcome, CommitLog) {
        let mut objective = AnalyticObjective::default();
        let space = space_1d();
        let run = drive(
            scheduler,
            &space,
            &mut objective,
            &mut rng_for(seed, 0),
            config,
        );
        (run.unwrap(), objective.sink)
    }

    /// The outcome as a campaign log: every analytic score is its own true
    /// error.
    fn as_log(outcome: &TuningOutcome) -> Vec<ObjectiveLogEntry> {
        outcome
            .records()
            .iter()
            .map(|r| ObjectiveLogEntry {
                trial_id: r.trial_id,
                resource: r.resource,
                noisy_score: r.score,
                true_error: r.score,
                cumulative_rounds: r.cumulative_resource,
                noise_rep: r.noise_rep,
                sim_time: r.sim_time,
            })
            .collect()
    }

    fn barrier() -> Drive<'static> {
        Drive::new(Clock::Barrier)
    }

    fn unit(workers: usize) -> Clock {
        Clock::Virtual(VirtualExecution::new(workers, CostModel::Unit))
    }

    fn unlimited() -> Budget {
        Budget::default()
    }

    /// Counts the non-empty batches and the requests it suggested.
    struct Counting<S> {
        inner: S,
        batches: usize,
        suggested: usize,
    }
    impl<S: Scheduler> Scheduler for Counting<S> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn suggest(
            &mut self,
            space: &SearchSpace,
            rng: &mut StdRng,
        ) -> fedhpo::Result<Vec<TrialRequest>> {
            let batch = self.inner.suggest(space, rng)?;
            self.batches += usize::from(!batch.is_empty());
            self.suggested += batch.len();
            Ok(batch)
        }
        fn report(&mut self, result: &TrialResult) -> fedhpo::Result<()> {
            self.inner.report(result)
        }
        fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
        fn async_capable(&self) -> bool {
            self.inner.async_capable()
        }
    }

    impl<S> Counting<S> {
        fn new(inner: S) -> Self {
            Counting {
                inner,
                batches: 0,
                suggested: 0,
            }
        }
    }

    /// Feeds every dispatch its analytic score.
    fn feed(core: &mut ExecutorCore<'_>, batch: &[DispatchedTrial]) {
        for d in batch {
            let result = TrialResult::of(&d.request, analytic_score(&d.request));
            core.complete(d.key, result).unwrap();
        }
    }

    /// Steps `core` to the end, feeding each dispatch at once; returns the
    /// number of dispatch steps.
    fn run_inline(core: &mut ExecutorCore<'_>) -> usize {
        let mut dispatches = 0;
        loop {
            match core.step().unwrap() {
                ExecutorStep::Dispatch(batch) => {
                    feed(core, &batch);
                    dispatches += 1;
                }
                ExecutorStep::Deliver(key) => panic!("{key:?} was fed at dispatch"),
                ExecutorStep::Finished => return dispatches,
            }
        }
    }

    #[test]
    fn batched_asha_matches_sequential_tuner_outcome() {
        // The barrier clock over an analytic objective must agree exactly
        // with a loop that reports each result before evaluating the next.
        let asha = Asha::new(9, 3, 1, 9).unwrap();
        let batched = |threads: usize| {
            let config = Drive {
                threads,
                ..barrier()
            };
            let (run, sink) = analytic_with_sink(&mut asha.clone(), &config, 1);
            // One sink turn per rung inline; a pool may catch a rung's
            // completions over several turns.
            if threads <= 1 {
                assert_eq!(sink.turns_ended, 3);
            } else {
                assert!(sink.turns_ended >= 3, "threads = {threads}");
            }
            assert_eq!(sink.commits.len(), run.outcome.num_evaluations());
            run.outcome
        };

        let (mut scheduler, space) = (asha.clone(), space_1d());
        let mut rng = rng_for(1, 0);
        let mut sequential = TuningOutcome::default();
        while !scheduler.is_finished() {
            for request in scheduler.suggest(&space, &mut rng).unwrap() {
                let result = TrialResult::of(&request, analytic_score(&request));
                sequential.record(&result, 0.0);
                scheduler.report(&result).unwrap();
            }
        }
        assert_eq!(batched(1), sequential);
        assert_eq!(batched(4), sequential);
    }

    #[test]
    fn halt_stops_suggesting_but_drains_outstanding_dispatches() {
        // Halt right after the first dispatch batch: the already-dispatched
        // evaluations still complete and deliver, nothing new is suggested,
        // and the partial outcome reports `finished == false`.
        let mut scheduler = Asha::new(9, 3, 1, 9).unwrap();
        let (space, mut rng) = (space_1d(), rng_for(5, 0));
        let mut core =
            ExecutorCore::new(&mut scheduler, &space, &mut rng, unit(2), None, unlimited())
                .unwrap();
        let ExecutorStep::Dispatch(rung) = core.step().unwrap() else {
            panic!("a fresh campaign dispatches first");
        };
        assert_eq!(rung.len(), 9, "only the first rung was dispatched");
        feed(&mut core, &rung);
        core.halt();
        core.halt(); // idempotent
        assert_eq!(run_inline(&mut core), 0, "no dispatches after halt");
        assert_eq!(core.outstanding(), 0, "outstanding work drained");
        let outcome = core.finish();
        assert!(!outcome.finished, "halt cut the ASHA ladder off mid-rung");
        assert_eq!(outcome.halt, None, "a host halt is no budget cap");
        assert_eq!(outcome.outcome.num_evaluations(), 9);
    }

    #[test]
    fn an_evaluation_cap_crossed_mid_batch_drains_the_batch_under_the_barrier_clock() {
        // ASHA's rungs are batches of 9, 3 and 1. A cap inside a batch lets
        // that whole batch run and suggests nothing after it, at every
        // thread count.
        let asha = Asha::new(9, 3, 1, 9).unwrap();
        for (cap, batches, evaluations) in [(5u64, 1usize, 9usize), (10, 2, 12)] {
            for threads in [1usize, 4] {
                let mut scheduler = Counting::new(asha.clone());
                let config = Drive {
                    threads,
                    budget: Budget {
                        evaluations: Some(cap),
                        ..Budget::default()
                    },
                    ..barrier()
                };
                let run = analytic(&mut scheduler, &config, 1);
                let at = format!("cap {cap}, {threads} threads");
                assert_eq!(run.halt, Some(Cap::Evaluations), "{at}");
                assert!(!run.finished, "{at}");
                assert_eq!(scheduler.batches, batches, "{at}");
                assert_eq!(scheduler.suggested, evaluations, "{at}");
                assert_eq!(run.outcome.num_evaluations(), evaluations, "{at}");
            }
        }
    }

    #[test]
    fn budget_sums_saturate_and_still_trip_their_cap() {
        // One batch of two trials asking for `usize::MAX` rounds each: the
        // rounds spent saturate at `u64::MAX` (a wrapped sum would fall back
        // below the cap), the cap trips and the next batch is never
        // suggested.
        let config = HpConfig::new(vec![0.5]);
        let request = |trial_id| TrialRequest {
            trial_id,
            config: config.clone(),
            resource: usize::MAX,
            noise_rep: 0,
        };
        let batches = vec![vec![request(0), request(1)], vec![request(2)]];
        let mut scheduler = Counting::new(Scripted::new(batches));
        let budget = Budget {
            rounds: Some(u64::MAX),
            ..Budget::default()
        };
        let run = analytic(
            &mut scheduler,
            &Drive {
                budget,
                ..barrier()
            },
            0,
        );
        assert_eq!(run.halt, Some(Cap::Rounds));
        assert_eq!(scheduler.batches, 1);
        assert_eq!(run.outcome.num_evaluations(), 2);
        assert_eq!(run.outcome.total_resource(), usize::MAX);
    }

    #[test]
    fn bounded_driver_interrupts_at_batch_boundaries() {
        // ASHA suggests rung by rung; an evaluation cap of one ends after the
        // first rung (the wave crossing the cap runs whole) with the outcome
        // so far, and an unstopped re-drive with the same seed reproduces the
        // full run exactly.
        let asha = Asha::new(9, 3, 1, 9).unwrap();
        let run_until = |evaluations: Option<u64>| {
            let budget = Budget {
                evaluations,
                ..Budget::default()
            };
            let run = analytic(
                &mut asha.clone(),
                &Drive {
                    budget,
                    ..barrier()
                },
                3,
            );
            (run.outcome, run.finished)
        };
        let (full, finished) = run_until(None);
        assert!(finished);
        let (first_rung, finished) = run_until(Some(1));
        assert!(!finished);
        assert_eq!(first_rung.num_evaluations(), 9, "exactly the first rung");
        assert!(first_rung.num_evaluations() < full.num_evaluations());
        // The interrupted prefix is exactly the head of the full run.
        assert_eq!(
            full.records()[..first_rung.num_evaluations()],
            *first_rung.records()
        );
        let (rerun, finished) = run_until(Some(u64::MAX));
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
    }

    #[test]
    fn a_deadline_must_be_finite_positive_and_on_a_virtual_clock() {
        let deadline = |sim_seconds| Budget {
            sim_seconds: Some(sim_seconds),
            ..Budget::default()
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(deadline(bad).validate(&unit(4)).is_err(), "{bad}");
        }
        assert!(deadline(10.0).validate(&unit(4)).is_ok());
        // The barrier clock has no time to run out of.
        let err = deadline(10.0).validate(&Clock::Barrier).unwrap_err();
        assert!(matches!(err, crate::CoreError::InvalidConfig { .. }));
        assert!(unlimited().validate(&Clock::Barrier).is_ok());
    }

    /// With the homogeneous unit-cost model the virtual clock performs
    /// exactly the evaluations the barrier clock performs, so every
    /// `TuningMethod::EXTENDED` entry selects the same bits under both, at
    /// any worker count.
    #[test]
    fn virtual_unit_cost_reproduces_barrier_selections() {
        use crate::experiments::methods::TuningMethod;
        let scale = crate::scale::ExperimentScale::smoke();
        // The evaluation multiset with score bits, and both selections.
        let summary = |run: &EventDrivenOutcome| {
            let mut points: Vec<_> = run
                .outcome
                .records()
                .iter()
                .map(|r| (r.trial_id, r.resource, r.noise_rep, r.score.to_bits()))
                .collect();
            points.sort_unstable();
            let best = run.outcome.best().unwrap();
            let pick = selected_true_error(&as_log(&run.outcome), usize::MAX).unwrap();
            (points, best.trial_id, best.score.to_bits(), pick.to_bits())
        };
        for method in TuningMethod::EXTENDED {
            let run =
                |config: &Drive| analytic(method.scheduler(&scale).unwrap().as_mut(), config, 13);
            let barrier = run(&barrier());
            assert!(barrier.finished && barrier.timeline.is_empty(), "{method}");
            assert_eq!(barrier.sim_elapsed, 0.0);
            assert!(barrier.outcome.records().iter().all(|r| r.sim_time == 0.0));
            for workers in [1usize, 3, 16] {
                let event = run(&Drive::new(unit(workers)));
                assert!(event.finished, "{method}, {workers} workers");
                assert_eq!(
                    event.outcome.total_resource(),
                    barrier.outcome.total_resource()
                );
                assert_eq!(
                    summary(&event),
                    summary(&barrier),
                    "{method}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn event_driven_timeline_is_monotone_and_respects_worker_count() {
        // 8 unit-cost trials on 2 virtual workers take 4 simulated waves.
        let event = analytic(
            &mut RandomSearch::new(8, 2).unwrap(),
            &Drive::new(unit(2)),
            0,
        );
        assert!(event.finished);
        assert_eq!(event.outcome.num_evaluations(), 8);
        assert_eq!(event.sim_elapsed, 4.0);
        let times: Vec<f64> = event.outcome.records().iter().map(|r| r.sim_time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Two completions per wave at times 1, 2, 3, 4.
        assert_eq!(times, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        // Virtual-time selection sees only what had completed by then.
        let log = as_log(&event.outcome);
        assert!(selected_true_error_within_sim(&log, 0.5).is_none());
        assert!(selected_true_error_within_sim(&log, 1.0).is_some());
    }

    #[test]
    fn sim_budget_cuts_the_campaign_off_cleanly() {
        // The same 8-trial schedule on 1 worker with a 3-second budget: three
        // evaluations complete, the rest are never dispatched.
        let budgeted = |sim_seconds: f64| {
            let config = Drive {
                budget: Budget {
                    sim_seconds: Some(sim_seconds),
                    ..Budget::default()
                },
                ..Drive::new(unit(1))
            };
            analytic(&mut RandomSearch::new(8, 2).unwrap(), &config, 0)
        };
        let event = budgeted(3.0);
        assert!(!event.finished);
        assert_eq!(event.halt, Some(Cap::SimSeconds));
        assert_eq!(event.outcome.num_evaluations(), 3);
        assert_eq!(event.sim_elapsed, 3.0);
        // A budget larger than the whole campaign changes nothing.
        let event = budgeted(1e6);
        assert!(event.finished);
        assert_eq!(event.halt, None);
        assert_eq!(event.outcome.num_evaluations(), 8);
    }

    #[test]
    fn async_asha_beats_sync_sha_under_stragglers() {
        // Heavy-tailed client runtimes with a narrow worker pool: the sync
        // ladder waits for every rung's slowest trial, the async ladder keeps
        // all workers busy and promotes on completion.
        let cost = CostModel::HeterogeneousClients(
            fedsim::clock::ClientRuntimeModel::heavy_tailed(60, 5, 17),
        );
        let config = Drive::new(Clock::Virtual(VirtualExecution::new(4, cost)));
        let sync = analytic(&mut Asha::new(12, 3, 1, 9).unwrap(), &config, 3);
        let asynchronous = analytic(&mut Asha::asynchronous(12, 3, 1, 9).unwrap(), &config, 3);
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
    fn a_stalled_scheduler_is_rejected_under_either_clock() {
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
        for config in [Drive::new(unit(2)), barrier()] {
            let mut objective = AnalyticObjective::default();
            let mut rng = rng_for(0, 2);
            let err = drive(&mut Staller, &space_1d(), &mut objective, &mut rng, &config);
            let err = err.unwrap_err().to_string();
            assert!(err.contains("stalled"), "{:?}: {err}", config.clock);
        }
    }

    #[test]
    fn executor_core_enforces_budget_boundaries_sans_io() {
        let budget = |seconds: f64| Budget {
            sim_seconds: Some(seconds),
            ..Budget::default()
        };
        // A zero budget is rejected up front by construction.
        let space = space_1d();
        let mut scheduler = RandomSearch::new(8, 2).unwrap();
        let mut rng = rng_for(0, 0);
        let zero = budget(0.0);
        assert!(ExecutorCore::new(&mut scheduler, &space, &mut rng, unit(1), None, zero).is_err());

        // A dispatch whose start lands exactly on the deadline is never
        // issued: unit costs on one worker under a 2.0-second budget admit
        // the starts at 0 and 1, and reject the start at exactly 2.0.
        let mut core =
            ExecutorCore::new(&mut scheduler, &space, &mut rng, unit(1), None, budget(2.0))
                .unwrap();
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
        let reversed: Vec<_> = batch.iter().rev().cloned().collect();
        feed(&mut core, &reversed);
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
    fn a_barrier_batch_is_held_until_its_last_result_and_delivered_in_batch_order() {
        let mut scheduler = RandomSearch::new(4, 2).unwrap();
        let (space, mut rng) = (space_1d(), rng_for(0, 0));
        let mut core = ExecutorCore::new(
            &mut scheduler,
            &space,
            &mut rng,
            Clock::Barrier,
            None,
            unlimited(),
        )
        .unwrap();
        let ExecutorStep::Dispatch(batch) = core.step().unwrap() else {
            panic!("expected the whole batch");
        };
        assert_eq!(batch.len(), 4);
        assert!(batch
            .iter()
            .all(|d| d.worker == 0 && d.sim_start == 0.0 && d.sim_completion == 0.0));
        // Fed last to first: until the first is in, the core waits on it.
        for d in batch[1..].iter().rev() {
            feed(&mut core, std::slice::from_ref(d));
            let ExecutorStep::Deliver(waiting) = core.step().unwrap() else {
                panic!("nothing is delivered before the whole batch is in");
            };
            assert_eq!(waiting, batch[0].key);
        }
        feed(&mut core, &batch[..1]);
        assert!(matches!(core.step().unwrap(), ExecutorStep::Finished));
        let outcome = core.finish();
        let delivered = outcome.outcome.records().iter().map(|r| r.trial_id);
        assert!(delivered.eq(batch.iter().map(|d| d.request.trial_id)));
        assert!(outcome.finished && outcome.timeline.is_empty());
        assert_eq!(outcome.sim_elapsed, 0.0);
    }

    #[test]
    fn completions_must_match_a_dispatch_and_promotions_pay_increments() {
        let mut scheduler = Asha::new(9, 3, 1, 9).unwrap();
        let (space, mut rng) = (space_1d(), rng_for(1, 0));
        let mut core =
            ExecutorCore::new(&mut scheduler, &space, &mut rng, unit(9), None, unlimited())
                .unwrap();
        let ExecutorStep::Dispatch(rung) = core.step().unwrap() else {
            panic!("expected the first rung");
        };
        assert_eq!(rung.len(), 9);
        assert!(rung.iter().all(|d| d.rounds == 1));
        let (last, rest) = rung.split_last().unwrap();
        feed(&mut core, rest);
        // A result that does not carry the key's coordinates is refused.
        let mut wrong = TrialResult::of(&last.request, 0.0);
        wrong.resource += 1;
        assert!(core.complete(last.key, wrong).is_err());
        // So is a completion for a key that was never dispatched.
        let mut bogus = last.request.clone();
        bogus.trial_id = 99;
        let bogus_key = EventKey::new(99, bogus.resource as u64, bogus.noise_rep);
        assert!(core
            .complete(bogus_key, TrialResult::of(&bogus, 0.0))
            .is_err());
        // The genuine result is taken once.
        feed(&mut core, std::slice::from_ref(last));
        let again = TrialResult::of(&last.request, 0.0);
        assert!(core.complete(last.key, again).is_err());
        // Promotions from resource 1 to 3 pay the two rounds in between.
        let ExecutorStep::Dispatch(promoted) = core.step().unwrap() else {
            panic!("expected the promotions");
        };
        assert_eq!(promoted.len(), 3);
        assert!(promoted
            .iter()
            .all(|d| d.request.resource == 3 && d.rounds == 2));
    }

    #[test]
    fn dispatch_delivery_and_commit_charge_the_same_rounds() {
        // One rule applied in three orders: Σ `DispatchedTrial::rounds` in
        // dispatch order, the outcome's total in delivery order and the
        // campaign log's in commit (= dispatch) order. Async ASHA among
        // stragglers delivers far out of dispatch order.
        use crate::concurrent::{ConcurrentSink, EvalOutput};
        use crate::experiments::methods::TuningMethod;
        use crate::experiments::stragglers::straggler_cost_model;
        use crate::objective::CampaignLog;
        let scale = crate::scale::ExperimentScale::smoke();
        let stragglers = VirtualExecution::new(4, straggler_cost_model(&scale, 3));
        let cases = TuningMethod::EXTENDED
            .iter()
            .map(|&method| (method, Clock::Barrier))
            .chain([(TuningMethod::AsyncAsha, Clock::Virtual(stragglers))]);
        for (method, clock) in cases {
            let mut scheduler = method.scheduler(&scale).unwrap();
            let (space, mut rng) = (space_1d(), rng_for(3, 0));
            let mut core = ExecutorCore::new(
                scheduler.as_mut(),
                &space,
                &mut rng,
                clock,
                None,
                unlimited(),
            )
            .unwrap();
            let (mut dispatched, mut log) = (0, CampaignLog::<()>::default());
            while let ExecutorStep::Dispatch(batch) = core.step().unwrap() {
                for d in &batch {
                    dispatched += d.rounds;
                    let score = analytic_score(&d.request);
                    let output = EvalOutput {
                        noisy_score: score,
                        true_error: Some(score),
                    };
                    log.commit(&d.request, &output, d.sim_completion);
                }
                feed(&mut core, &batch);
            }
            let run = core.finish();
            assert!(run.finished && dispatched > 0, "{method}");
            assert_eq!(dispatched, run.outcome.total_resource(), "{method}");
            assert_eq!(dispatched, log.cumulative_rounds(), "{method}");
        }
    }

    #[test]
    fn bohb_leaves_hyperband_once_a_rung_collects_enough_observations() {
        // At `ExperimentScale::smoke()` no fidelity collects the six
        // observations BOHB's model needs, so BOHB runs as Hyperband there.
        // This ladder opens with 9 configurations at resource 3: the second
        // bracket is drawn from a model of that rung.
        use fedhpo::Hyperband;
        let run = |mut scheduler: Hyperband| analytic(&mut scheduler, &barrier(), 11);
        let bohb = run(Hyperband::bohb(27, 3, Some(3)).unwrap());
        let hyperband = run(Hyperband::new(27, 3, Some(3)).unwrap());
        let (bohb, hyperband) = (bohb.outcome.records(), hyperband.outcome.records());
        let first_rung = hyperband.iter().take_while(|r| r.resource == 3).count();
        assert_eq!(first_rung, 9);
        let same = bohb
            .iter()
            .zip(hyperband)
            .take_while(|(a, b)| a == b)
            .count();
        assert!(
            same >= first_rung,
            "diverged at {same}, inside the first rung"
        );
        assert!(
            same < bohb.len().min(hyperband.len()),
            "BOHB ran as Hyperband"
        );
        let space = space_1d();
        assert!(bohb
            .iter()
            .all(|r| space.validate_config(&r.config).is_ok()));
    }
}
