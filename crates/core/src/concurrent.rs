//! The objective contract every driver accepts, and the one pump that
//! drives it.
//!
//! A [`ConcurrentObjective`] splits into a shared, `Sync` **evaluation
//! half** ([`ConcurrentEval`]) and a mutable, driver-thread **sink half**
//! ([`ConcurrentSink`]). [`Pump`] is the only loop in the workspace that
//! moves work between the two: it owns the inbox, the completion message and
//! its panic guard, the dispatch sequence numbers, the per-trial busy queue
//! with warm-state chaining, the dispatch-order commit buffer and the turn
//! (see [`Pump::run`]). What differs between callers is passed in:
//!
//! - **where a job runs** — the `spawn` callable handed to [`Pump::new`]:
//!   inline on the calling thread ([`drive`](crate::scheduler::drive) at
//!   `threads <= 1`, the single-threaded reference every identity test
//!   compares against), or as a job on a [`ThreadPool`]: scoped with a
//!   `&Eval` (`drive` above one thread), or the daemon's owned `SharedPool`
//!   with an `Arc<Eval>` (`fedserve::campaign::run_campaign`). Either pool
//!   contains a panicking job, and the pump fails the campaign with
//!   [`CoreError::EvalPanicked`];
//! - **admission and the turn end** — the [`Host`] the daemon implements
//!   (fair-share gate, control flags, `sync → publish`); every
//!   standalone lane runs [`Ungated`], which is all of the trait's defaults.
//!
//! # Why the outcome is bit-identical in every lane
//!
//! 1. **Evaluations are pure in their coordinates.** Scores, costs, and
//!    noise derive from the canonical `(config, resource, noise_rep)` point,
//!    never from shared sequential state, so *what* a job computes cannot
//!    depend on *when* or *where* it runs.
//! 2. **Per-trial state flows in dispatch order.** A trial's state is
//!    handed directly from each finished job to that trial's next queued
//!    job, so resume points are one sequence at every thread count.
//! 3. **Commits are sequenced.** The core hears a result when it *arrives*
//!    (its completion buffer is order-independent and it still delivers in
//!    its clock's order); the sink hears it at its *dispatch-order slot*. A
//!    failed evaluation is parked like any other and raised at its slot, so
//!    the error a campaign reports is the earliest failing dispatch — not
//!    whichever worker lost the race — and nothing dispatched after it is
//!    committed. How many completions a turn happens to catch is invisible
//!    too: under [`Clock::Barrier`](crate::scheduler::Clock::Barrier) a
//!    batch is one turn inline and may be several on a pool, but the core
//!    delivers nothing before the batch is complete, so the whole batch is
//!    committed and its turn ended before the scheduler hears the first
//!    result.

use crate::scheduler::{
    event_key, DispatchedTrial, EventDrivenOutcome, ExecutorCore, ExecutorStep,
};
use crate::{invalid, CoreError, Result};
use fedhpo::{TrialRequest, TrialResult};
use fedsim::exec::ThreadPool;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Deref;
use std::sync::mpsc;

/// Per-request output of one evaluation, before campaign accounting.
///
/// This is what an evaluation job computes wherever the lane runs it; the
/// sink turns it into log entries and budget accounting on the driver
/// thread, in dispatch order.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// The noisy score reported to the tuner (lower is better).
    pub noisy_score: f64,
    /// The true (noise-free) objective value of the same evaluation.
    pub true_error: f64,
}

/// The shared, thread-safe half of an objective: evaluates one request
/// against that trial's private state.
///
/// `Sync` is the contract that makes cross-trial concurrency safe: the core
/// holds only immutable campaign-wide inputs (context, noise model, seed
/// trees), while everything mutable travels in the per-trial `State` that
/// exactly one job owns at a time.
pub trait ConcurrentEval: Sync {
    /// Per-trial mutable state (training run, caches), owned by exactly one
    /// in-flight job at a time and otherwise parked in the sink.
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

impl<T: ConcurrentEval + ?Sized> ConcurrentEval for &T {
    type State = T::State;

    fn evaluate(&self, state: &mut T::State, request: &TrialRequest) -> Result<EvalOutput> {
        (**self).evaluate(state, request)
    }
}

/// The single-threaded half of an objective: parks per-trial state between
/// dispatches and accumulates the campaign log.
///
/// All methods run on the driver thread; [`commit`](Self::commit) is called
/// strictly in dispatch order regardless of real completion order.
pub trait ConcurrentSink {
    /// Same state type as the paired [`ConcurrentEval`].
    type State: Send;

    /// Checks the trial's state out for an in-flight job ("fresh" state for
    /// trials never seen).
    fn take_state(&mut self, trial_id: usize) -> Self::State;

    /// Parks the trial's state again once no job of that trial is in flight.
    fn put_state(&mut self, trial_id: usize, state: Self::State);

    /// Records one finished evaluation. Invoked in dispatch order, so
    /// cumulative accounting (rounds, log order) is the same sequence at
    /// every thread count. A sink whose recording can fail keeps the failure
    /// and returns it from [`end_turn`](Self::end_turn).
    fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64);

    /// Ends a driver **turn** (inline under the barrier clock: a batch). A
    /// sink that persists its commits makes everything committed since the
    /// previous call durable here with a single sync. The default has nothing
    /// to persist.
    ///
    /// # Errors
    ///
    /// A failure to record or persist the turn's commits; it fails the
    /// campaign.
    fn end_turn(&mut self) -> Result<()> {
        Ok(())
    }
}

/// An objective a driver can evaluate: it splits into a `Sync` evaluation
/// half shared by worker threads and a mutable sink owned by the driver
/// thread.
pub trait ConcurrentObjective {
    /// Per-trial mutable state shuttled between sink and jobs.
    type State: Send;
    /// The shared evaluation half.
    type Eval: ConcurrentEval<State = Self::State>;
    /// The driver-side accounting half.
    type Sink: ConcurrentSink<State = Self::State>;

    /// Borrows both halves at once (they must be disjoint fields).
    fn split(&mut self) -> (&Self::Eval, &mut Self::Sink);
}

/// One dispatch as the pump numbers it: its place in dispatch order — which
/// is its place in commit order — and the virtual time it completes at.
struct Numbered {
    seq: usize,
    request: TrialRequest,
    sim_time: f64,
}

/// A message into the pump's single inbox: admissions and completions share
/// one channel so the driver has exactly one blocking point.
enum Msg<S> {
    /// The host admitted the dispatch parked under this ticket.
    Admit(u64),
    /// An evaluation job finished, successfully or not.
    Done {
        work: Numbered,
        state: S,
        output: Result<EvalOutput>,
    },
    /// Sent by the panic guard so the driver never blocks forever on a job
    /// that died.
    Panicked,
}

/// Sends [`Msg::Panicked`] if the job unwinds before defusing.
struct PanicGuard<S> {
    tx: Option<mpsc::Sender<Msg<S>>>,
}

impl<S> Drop for PanicGuard<S> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Panicked);
        }
    }
}

/// One dispatched evaluation with its trial's state checked out, handed to
/// the lane's `spawn` callable. Whoever receives it calls
/// [`run`](Self::run) — now, or from a pool job — exactly once.
pub struct EvalJob<E, S> {
    eval: E,
    tx: mpsc::Sender<Msg<S>>,
    work: Numbered,
    state: S,
}

impl<E, S> EvalJob<E, S>
where
    E: Deref,
    E::Target: ConcurrentEval<State = S>,
{
    /// Evaluates the request and reports back to the pump's inbox; with a
    /// `wall` profile the evaluation is recorded as an `"evaluate"` slice
    /// from whatever thread this runs on. A panic inside the evaluation
    /// unwinds through here, and the pump hears of it from the guard.
    pub fn run(mut self, wall: Option<&fedtrace::WallProfile>) {
        let mut guard = PanicGuard { tx: Some(self.tx) };
        let started = wall.map(|w| w.now_seconds());
        let output = self.eval.evaluate(&mut self.state, &self.work.request);
        if let (Some(w), Some(started)) = (wall, started) {
            w.record_since("evaluate", started);
        }
        if let Some(tx) = guard.tx.take() {
            let _ = tx.send(Msg::Done {
                work: self.work,
                state: self.state,
                output,
            });
        }
    }
}

/// A [`Host`]'s answer to one dispatch asking to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Start it now.
    Run,
    /// Park it until the callable from [`Pump::admitter`] is called with
    /// this ticket; tickets must be granted in the order they were issued.
    Ticket(u64),
    /// No room to queue it: the pump takes a turn (grants and completions
    /// free room) and asks again.
    Full,
}

/// What a process multiplexing many campaigns inserts around the pump:
/// admission before a dispatch may occupy a real worker, and what ending a
/// turn means. Only the `fedserve` daemon implements it; every standalone
/// lane runs [`Ungated`], which is these defaults.
pub trait Host<K: ConcurrentSink> {
    /// What the host fails a campaign with.
    type Error: From<CoreError>;

    /// Runs before every [`ExecutorCore::step`]: the place to
    /// [`halt`](ExecutorCore::halt) the campaign (operator stop) or abort it
    /// with an error.
    ///
    /// # Errors
    ///
    /// Whatever should end the campaign here and now.
    fn before_step(
        &mut self,
        _core: &mut ExecutorCore<'_>,
    ) -> std::result::Result<(), Self::Error> {
        Ok(())
    }

    /// Asks to run one dispatch that trains `rounds` rounds beyond its
    /// trial's earlier dispatches ([`DispatchedTrial::rounds`]); asked again
    /// after a [`Admission::Full`].
    ///
    /// # Errors
    ///
    /// Whatever should end the campaign here and now.
    fn admit(
        &mut self,
        _request: &TrialRequest,
        _rounds: usize,
    ) -> std::result::Result<Admission, Self::Error> {
        Ok(Admission::Run)
    }

    /// One admitted evaluation finished and gave its worker back.
    fn release(&mut self) {}

    /// Ends a turn whose commits are staged in `sink`; `latest_commit` is
    /// the largest virtual completion time among them (commits go in
    /// dispatch order, so it need not be the last one's), `None` when the
    /// turn committed nothing.
    ///
    /// # Errors
    ///
    /// A failure to make the turn's commits durable.
    fn end_turn(
        &mut self,
        sink: &mut K,
        _latest_commit: Option<f64>,
    ) -> std::result::Result<(), Self::Error> {
        sink.end_turn().map_err(Into::into)
    }
}

/// No admission, no control flags: a campaign with the machine to itself.
pub struct Ungated;

impl<K: ConcurrentSink> Host<K> for Ungated {
    type Error = CoreError;
}

/// The one driver loop over [`ExecutorCore`]; see the module docs.
///
/// `E` is how a job reaches the evaluation half (`&Eval`, `Arc<Eval>`),
/// `K` the sink, `F` where a job runs: `spawn(job)` must see to it that
/// [`EvalJob::run`] is called once.
pub struct Pump<'s, E, K: ConcurrentSink, F> {
    eval: E,
    sink: &'s mut K,
    spawn: F,
    tx: mpsc::Sender<Msg<K::State>>,
    rx: mpsc::Receiver<Msg<K::State>>,
    /// Dispatch-order sequence numbers; commits drain contiguously.
    next_seq: usize,
    next_commit: usize,
    /// Finished evaluations — failed ones included — parked until every
    /// earlier dispatch has committed.
    parked: BTreeMap<usize, (Numbered, Result<EvalOutput>)>,
    /// Dispatches a [`Host`] issued tickets for, in ticket order.
    awaiting: VecDeque<(u64, Numbered)>,
    /// Trials with a job in flight; the queue holds that trial's later
    /// dispatches, chained onto the freed state as jobs complete.
    busy: HashMap<usize, VecDeque<Numbered>>,
}

impl<'s, E, K, F> Pump<'s, E, K, F>
where
    E: Deref + Clone,
    E::Target: ConcurrentEval<State = K::State>,
    K: ConcurrentSink,
    F: FnMut(EvalJob<E, K::State>),
{
    /// A pump evaluating through `eval`, committing to `sink`, running its
    /// jobs wherever `spawn` puts them.
    pub fn new(eval: E, sink: &'s mut K, spawn: F) -> Self {
        let (tx, rx) = mpsc::channel();
        Pump {
            eval,
            sink,
            spawn,
            tx,
            rx,
            next_seq: 0,
            next_commit: 0,
            parked: BTreeMap::new(),
            awaiting: VecDeque::new(),
            busy: HashMap::new(),
        }
    }

    /// The sink, for a host or a test to read between turns.
    pub fn sink(&self) -> &K {
        self.sink
    }

    /// The callable a [`Host`] grants tickets through, from any thread: it
    /// posts the admission to the pump's inbox, where the next turn finds
    /// it.
    pub fn admitter(&self) -> impl Fn(u64) + Send + 'static
    where
        K::State: 'static,
    {
        let tx = self.tx.clone();
        move |ticket| {
            let _ = tx.send(Msg::Admit(ticket));
        }
    }

    /// Drives `core` to its end. Each round is `host.before_step`, then
    /// [`ExecutorCore::step`]: a `Dispatch` numbers every trial and starts it
    /// once the host admits it (or queues it behind that trial's job in
    /// flight); a `Deliver` is one [`turn`](Self::turn), after which the
    /// core is stepped again — it hands back the same `Deliver` until the
    /// awaited completion was among the turn's.
    ///
    /// # Errors
    ///
    /// The core's conditions (scheduler stall, invalid completion), the
    /// failure of the earliest failing dispatch, a job that panicked on a
    /// pool ([`CoreError::EvalPanicked`]; a `spawn` that runs the job
    /// inline lets the panic unwind to the caller instead), or whatever the
    /// host or the sink's turn end fails with.
    pub fn run<H: Host<K>>(
        &mut self,
        mut core: ExecutorCore<'_>,
        host: &mut H,
    ) -> std::result::Result<EventDrivenOutcome, H::Error> {
        loop {
            host.before_step(&mut core)?;
            match core.step()? {
                ExecutorStep::Dispatch(batch) => {
                    for dispatched in batch {
                        self.dispatch(dispatched, &mut core, host)?;
                    }
                }
                // The core hands back the same `Deliver` until a turn brings
                // the awaited completion.
                ExecutorStep::Deliver(_) => self.turn(&mut core, host)?,
                ExecutorStep::Finished => return Ok(core.finish()),
            }
        }
    }

    /// Numbers one dispatch and starts it as soon as the host admits it.
    ///
    /// # Errors
    ///
    /// The host's refusal, or a failed back-pressure [`turn`](Self::turn).
    pub fn dispatch<H: Host<K>>(
        &mut self,
        dispatched: DispatchedTrial,
        core: &mut ExecutorCore<'_>,
        host: &mut H,
    ) -> std::result::Result<(), H::Error> {
        let rounds = dispatched.rounds;
        let work = self.number(dispatched.request, dispatched.sim_completion);
        let ticket = loop {
            match host.admit(&work.request, rounds)? {
                Admission::Run => break None,
                Admission::Ticket(ticket) => break Some(ticket),
                Admission::Full => self.turn(core, host)?,
            }
        };
        match ticket {
            Some(ticket) => self.awaiting.push_back((ticket, work)),
            None => self.start(work),
        }
        Ok(())
    }

    /// One turn: block for one inbox message, drain what is waiting behind
    /// it, complete what finished, commit what is in order, end the turn.
    /// The caller steps the core afterwards.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run); after an error nothing later is committed.
    pub fn turn<H: Host<K>>(
        &mut self,
        core: &mut ExecutorCore<'_>,
        host: &mut H,
    ) -> std::result::Result<(), H::Error> {
        let latest_commit = self.drain(host, &mut |work, output| {
            let result = TrialResult::of(&work.request, output.noisy_score);
            core.complete(event_key(&work.request), result)
        })?;
        host.end_turn(self.sink, latest_commit)
    }

    fn number(&mut self, request: TrialRequest, sim_time: f64) -> Numbered {
        self.next_seq += 1;
        Numbered {
            seq: self.next_seq - 1,
            request,
            sim_time,
        }
    }

    /// Starts `work`, or queues it behind its trial's job in flight.
    fn start(&mut self, work: Numbered) {
        let trial = work.request.trial_id;
        match self.busy.get_mut(&trial) {
            // The trial's state is with a job right now: queue behind it,
            // preserving per-trial dispatch order.
            Some(queue) => queue.push_back(work),
            None => {
                self.busy.insert(trial, VecDeque::new());
                let state = self.sink.take_state(trial);
                self.launch(work, state);
            }
        }
    }

    fn launch(&mut self, work: Numbered, state: K::State) {
        (self.spawn)(EvalJob {
            eval: self.eval.clone(),
            tx: self.tx.clone(),
            work,
            state,
        });
    }

    /// Blocks for one inbox message and handles it and every message
    /// already waiting: admissions start their dispatch; a finished
    /// evaluation releases its admission, is reported to `arrived` (if it
    /// succeeded), parks in the commit buffer, and hands its trial's state
    /// on. Returns the largest virtual completion time it committed.
    fn drain<H: Host<K>>(
        &mut self,
        host: &mut H,
        arrived: &mut dyn FnMut(&Numbered, &EvalOutput) -> Result<()>,
    ) -> std::result::Result<Option<f64>, H::Error> {
        if self.busy.is_empty() && self.awaiting.is_empty() {
            return Err(invalid("the pump was asked to wait with no evaluation in flight").into());
        }
        let mut latest_commit = None;
        // The pump holds a sender itself, so the inbox cannot close under it.
        let first = self
            .rx
            .recv()
            .map_err(|_| invalid("the pump's inbox closed with evaluations in flight"))?;
        let mut next = Some(first);
        while let Some(msg) = next {
            match msg {
                Msg::Admit(ticket) => match self.awaiting.pop_front() {
                    Some((expected, work)) if expected == ticket => self.start(work),
                    next => {
                        let next = next.map(|(expected, _)| expected);
                        return Err(invalid(format!(
                            "ticket {ticket} granted out of turn: next awaiting admission is {next:?}"
                        ))
                        .into());
                    }
                },
                Msg::Done {
                    work,
                    state,
                    output,
                } => {
                    host.release();
                    if let Ok(output) = &output {
                        arrived(&work, output)?;
                    }
                    let trial = work.request.trial_id;
                    self.parked.insert(work.seq, (work, output));
                    while let Some((work, output)) = self.parked.remove(&self.next_commit) {
                        // A failure surfaces here, at its dispatch-order
                        // slot, whenever it arrived.
                        self.sink.commit(&work.request, &output?, work.sim_time);
                        self.next_commit += 1;
                        let t = work.sim_time;
                        latest_commit = Some(latest_commit.map_or(t, |l: f64| l.max(t)));
                    }
                    let Some(queue) = self.busy.get_mut(&trial) else {
                        return Err(invalid(format!(
                            "completion for trial {trial}, which has no evaluation in flight"
                        ))
                        .into());
                    };
                    match queue.pop_front() {
                        // Hand the warm state straight to the trial's next
                        // job — no round trip through the sink.
                        Some(queued) => self.launch(queued, state),
                        None => {
                            self.busy.remove(&trial);
                            self.sink.put_state(trial, state);
                        }
                    }
                }
                Msg::Panicked => return Err(CoreError::EvalPanicked.into()),
            }
            next = self.rx.try_recv().ok();
        }
        Ok(latest_commit)
    }
}

/// Where a job runs on a scoped pool: one pool job per evaluation, recorded
/// on `wall` from the worker that ran it.
pub(crate) fn on_pool<'p, 'env, E, S>(
    pool: &'p ThreadPool<'env>,
    wall: Option<&'env fedtrace::WallProfile>,
) -> impl FnMut(EvalJob<E, S>) + use<'p, 'env, E, S>
where
    E: Deref + Send + 'env,
    E::Target: ConcurrentEval<State = S>,
    S: Send + 'env,
{
    move |job| pool.submit(move || job.run(wall))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scheduler::{drive, Budget, Clock, Drive, VirtualExecution};
    use fedhpo::{RandomSearch, Scheduler, SearchSpace};
    use fedmath::rng::rng_for;
    use fedsim::clock::{ClientRuntimeModel, CostModel};
    use rand::rngs::StdRng;
    use std::cell::RefCell;
    use std::sync::{Condvar, Mutex};

    pub(crate) fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    pub(crate) fn analytic_score(request: &TrialRequest) -> f64 {
        let x = request.config.values()[0];
        (x - 0.3).abs() + 1.0 / (request.resource as f64 + 1.0)
    }

    /// The `Sync` half: scores analytically; `failing` trials fail instead.
    #[derive(Default)]
    pub(crate) struct AnalyticEval {
        failing: Vec<usize>,
        /// When armed, the first failing trial does not return before the
        /// last one has (set by the last, awaited by the first).
        last_failed: Option<(Mutex<bool>, Condvar)>,
        panicking: Option<usize>,
    }

    impl ConcurrentEval for AnalyticEval {
        type State = usize;

        fn evaluate(&self, state: &mut usize, request: &TrialRequest) -> Result<EvalOutput> {
            let trial = request.trial_id;
            if self.panicking == Some(trial) {
                panic!("injected panic for trial {trial}");
            }
            if self.failing.contains(&trial) {
                if let Some((failed, changed)) = &self.last_failed {
                    let mut failed = failed.lock().unwrap();
                    if self.failing.last() == Some(&trial) {
                        *failed = true;
                        changed.notify_all();
                    } else if self.failing.first() == Some(&trial) {
                        while !*failed {
                            failed = changed.wait(failed).unwrap();
                        }
                    }
                }
                return Err(invalid(format!("injected failure for trial {trial}")));
            }
            let score = analytic_score(request);
            *state = (*state).max(request.resource);
            Ok(EvalOutput {
                noisy_score: score,
                true_error: score,
            })
        }
    }

    /// The driver-thread half: records every commit bit-exactly and counts
    /// the turns it was asked to end.
    #[derive(Default)]
    pub(crate) struct CommitLog {
        states: HashMap<usize, usize>,
        /// `(trial, resource, rep, score bits, sim_time bits)` per commit.
        pub(crate) commits: Vec<(usize, usize, u64, u64, u64)>,
        pub(crate) turns_ended: usize,
    }

    impl ConcurrentSink for CommitLog {
        type State = usize;

        fn take_state(&mut self, trial_id: usize) -> usize {
            self.states.remove(&trial_id).unwrap_or(0)
        }

        fn put_state(&mut self, trial_id: usize, state: usize) {
            self.states.insert(trial_id, state);
        }

        fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
            self.commits.push((
                request.trial_id,
                request.resource,
                request.noise_rep,
                output.noisy_score.to_bits(),
                sim_time.to_bits(),
            ));
        }

        fn end_turn(&mut self) -> Result<()> {
            self.turns_ended += 1;
            Ok(())
        }
    }

    /// The analytic objective every driver test in this crate evaluates.
    #[derive(Default)]
    pub(crate) struct AnalyticObjective {
        pub(crate) eval: AnalyticEval,
        pub(crate) sink: CommitLog,
    }

    impl ConcurrentObjective for AnalyticObjective {
        type State = usize;
        type Eval = AnalyticEval;
        type Sink = CommitLog;

        fn split(&mut self) -> (&AnalyticEval, &mut CommitLog) {
            (&self.eval, &mut self.sink)
        }
    }

    /// A scheduler that suggests the given batches, one per cycle, and
    /// ignores what it is told.
    pub(crate) struct Scripted(VecDeque<Vec<TrialRequest>>);

    impl Scripted {
        pub(crate) fn new(batches: Vec<Vec<TrialRequest>>) -> Self {
            Scripted(batches.into())
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn suggest(
            &mut self,
            _space: &SearchSpace,
            _rng: &mut StdRng,
        ) -> fedhpo::Result<Vec<TrialRequest>> {
            Ok(self.0.pop_front().unwrap_or_default())
        }

        fn report(&mut self, _result: &TrialResult) -> fedhpo::Result<()> {
            Ok(())
        }

        fn is_finished(&self) -> bool {
            self.0.is_empty()
        }
    }

    fn straggler_sim() -> VirtualExecution {
        let cost = CostModel::HeterogeneousClients(ClientRuntimeModel::heavy_tailed(60, 5, 17));
        VirtualExecution::new(4, cost)
    }

    /// Async ASHA under stragglers — several trials in flight at once —
    /// inline (`threads <= 1`) or on a scoped pool.
    fn campaign(threads: usize, eval: AnalyticEval) -> (Result<EventDrivenOutcome>, CommitLog) {
        let mut scheduler = fedhpo::Asha::asynchronous(12, 3, 1, 9).unwrap();
        let mut objective = AnalyticObjective {
            eval,
            sink: CommitLog::default(),
        };
        let (space, mut rng) = (space_1d(), rng_for(3, 0));
        let config = Drive {
            threads,
            ..Drive::new(Clock::Virtual(straggler_sim()))
        };
        let outcome = drive(&mut scheduler, &space, &mut objective, &mut rng, &config);
        (outcome, objective.sink)
    }

    #[test]
    fn the_earliest_failing_dispatch_is_reported_in_every_lane() {
        // Trials 0..=3 go out in the first wave; 1 and 2 fail. Above one
        // thread trial 1 — dispatched first — is held until trial 2 has
        // failed, so its failure *arrives* second; one worker (and the
        // inline lane) can only run them in dispatch order.
        let (reference, _) = campaign(0, AnalyticEval::default());
        let first_commit = reference.unwrap().timeline[0].trial as usize;
        for threads in [0usize, 1, 4, 8] {
            let eval = AnalyticEval {
                failing: vec![1, 2],
                last_failed: (threads > 1).then(Default::default),
                panicking: None,
            };
            let (outcome, sink) = campaign(threads, eval);
            let message = outcome.unwrap_err().to_string();
            assert!(
                message.contains("injected failure for trial 1"),
                "threads = {threads}: {message}"
            );
            // Dispatch 0 committed; nothing from the failure on did, though
            // trial 3 finished fine.
            let committed: Vec<usize> = sink.commits.iter().map(|c| c.0).collect();
            assert_eq!(committed, [first_commit], "threads = {threads}");
        }
    }

    /// Jobs the test holds instead of running, to finish them in an order of
    /// its choosing.
    type Job<'e> = EvalJob<&'e AnalyticEval, usize>;
    type Held<'e> = RefCell<Vec<Job<'e>>>;
    type HoldingPump<'p, 'e> = Pump<'p, &'e AnalyticEval, CommitLog, &'p dyn Fn(Job<'e>)>;

    /// A pump frozen after the first dispatch wave of a `k`-trial random
    /// search: every dispatch has passed `host` and — where admitted — sits
    /// in `held`.
    fn mid_flight<'e, H: Host<CommitLog>>(
        k: usize,
        eval: &'e AnalyticEval,
        host: &mut H,
        body: impl FnOnce(&mut HoldingPump<'_, 'e>, &mut ExecutorCore<'_>, &mut H, &Held<'e>),
    ) where
        H::Error: std::fmt::Debug,
    {
        let mut scheduler = RandomSearch::new(k, 3).unwrap();
        let (space, mut rng) = (space_1d(), rng_for(5, 0));
        let clock = Clock::Virtual(VirtualExecution::new(k, CostModel::Unit));
        let mut core = ExecutorCore::new(
            &mut scheduler,
            &space,
            &mut rng,
            clock,
            None,
            Budget::default(),
        )
        .unwrap();
        let held: Held<'e> = RefCell::new(Vec::new());
        let hold = |job| held.borrow_mut().push(job);
        let mut sink = CommitLog::default();
        let mut pump: HoldingPump<'_, 'e> = Pump::new(eval, &mut sink, &hold);
        let ExecutorStep::Dispatch(batch) = core.step().unwrap() else {
            panic!("a fresh campaign dispatches first");
        };
        assert_eq!(batch.len(), k);
        for dispatched in batch {
            pump.dispatch(dispatched, &mut core, host).unwrap();
        }
        body(&mut pump, &mut core, host, &held);
    }

    #[test]
    fn a_turn_commits_in_dispatch_order_and_ends_once_however_jobs_finish() {
        for k in [1usize, 2, 7] {
            let eval = AnalyticEval::default();
            mid_flight(k, &eval, &mut Ungated, |pump, core, host, held| {
                let dispatched: Vec<usize> = held
                    .borrow()
                    .iter()
                    .map(|j| j.work.request.trial_id)
                    .collect();
                // Completions arrive in the reverse of dispatch order.
                for job in held.borrow_mut().drain(..).rev() {
                    job.run(None);
                }
                pump.turn(core, host).unwrap();
                let sink = pump.sink();
                let committed: Vec<usize> = sink.commits.iter().map(|c| c.0).collect();
                assert_eq!(committed, dispatched, "k = {k}: dispatch order");
                assert_eq!(sink.turns_ended, 1, "k = {k}: one turn end");
                assert_eq!(sink.states.len(), k, "k = {k}: every state parked again");
                assert!(matches!(core.step().unwrap(), ExecutorStep::Finished));
            });
        }
    }

    /// Issues a ticket per dispatch and leaves granting to the test.
    #[derive(Default)]
    struct Ticketing {
        issued: Vec<u64>,
        released: usize,
    }

    impl Host<CommitLog> for Ticketing {
        type Error = CoreError;

        fn admit(&mut self, _request: &TrialRequest, _rounds: usize) -> Result<Admission> {
            let ticket = 100 + self.issued.len() as u64;
            self.issued.push(ticket);
            Ok(Admission::Ticket(ticket))
        }

        fn release(&mut self) {
            self.released += 1;
        }
    }

    #[test]
    fn admissions_start_dispatches_in_ticket_order() {
        let eval = AnalyticEval::default();
        mid_flight(
            3,
            &eval,
            &mut Ticketing::default(),
            |pump, core, host, held| {
                assert!(held.borrow().is_empty(), "nothing runs before its grant");
                let admit = pump.admitter();
                host.issued.iter().for_each(|&ticket| admit(ticket));
                // The grants alone make a turn: three jobs start, none finished.
                pump.turn(core, host).unwrap();
                assert_eq!(held.borrow().len(), 3);
                assert_eq!(pump.sink().turns_ended, 1);
                for job in held.borrow_mut().drain(..) {
                    job.run(None);
                }
                pump.turn(core, host).unwrap();
                assert_eq!(host.released, 3);
                assert_eq!(pump.sink().commits.len(), 3);
            },
        );
    }

    #[test]
    fn a_misbehaving_host_fails_the_campaign_without_panicking() {
        let eval = AnalyticEval::default();
        let failure = |result: Result<()>| result.unwrap_err().to_string();
        // The same ticket granted twice: the second finds nothing waiting.
        mid_flight(
            1,
            &eval,
            &mut Ticketing::default(),
            |pump, core, host, _| {
                let admit = pump.admitter();
                admit(host.issued[0]);
                admit(host.issued[0]);
                let message = failure(pump.turn(core, host));
                assert!(message.contains("awaiting admission is None"), "{message}");
            },
        );
        // A grant out of order must not start the wrong dispatch.
        mid_flight(
            2,
            &eval,
            &mut Ticketing::default(),
            |pump, core, host, held| {
                pump.admitter()(host.issued[1]);
                let message = failure(pump.turn(core, host));
                assert!(message.contains("awaiting admission is Some"), "{message}");
                assert!(held.borrow().is_empty());
            },
        );
        // A completion for a trial the pump has nothing in flight for.
        mid_flight(1, &eval, &mut Ungated, |pump, core, host, held| {
            held.borrow_mut().remove(0).run(None);
            let trial = pump.busy.drain().next().unwrap().0;
            pump.busy.insert(trial + 1, VecDeque::new());
            let message = failure(pump.turn(core, host));
            assert!(message.contains("no evaluation in flight"), "{message}");
        });
        // Waiting with nothing in flight is an error, not a hang.
        mid_flight(1, &eval, &mut Ungated, |pump, core, host, held| {
            held.borrow_mut().remove(0).run(None);
            pump.turn(core, host).unwrap();
            let message = failure(pump.turn(core, host));
            assert!(message.contains("no evaluation in flight"), "{message}");
        });
    }

    #[test]
    fn a_panicking_job_fails_the_campaign_with_its_own_error() {
        let eval = AnalyticEval {
            panicking: Some(0),
            ..AnalyticEval::default()
        };
        mid_flight(1, &eval, &mut Ungated, |pump, core, host, held| {
            let job = held.borrow_mut().remove(0);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(None)));
            assert!(unwound.is_err());
            assert_eq!(pump.turn(core, host), Err(CoreError::EvalPanicked));
        });
    }

    fn panicking_trial_1() -> AnalyticEval {
        AnalyticEval {
            panicking: Some(1),
            ..AnalyticEval::default()
        }
    }

    #[test]
    fn a_panicking_evaluation_fails_its_campaign_on_a_pool() {
        for threads in [4usize, 8] {
            // On a helper thread, so a hang fails the timeout, not the suite.
            let (tx, rx) = mpsc::channel();
            let helper = std::thread::spawn(move || {
                let _ = tx.send(campaign(threads, panicking_trial_1()).0);
            });
            let outcome = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("threads = {threads}: drive hung or panicked"));
            helper.join().expect("the helper returns after sending");
            assert_eq!(
                outcome.unwrap_err(),
                CoreError::EvalPanicked,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn inline_a_panicking_evaluation_unwinds_to_the_caller_with_its_payload() {
        for threads in [0usize, 1] {
            let unwound = std::panic::catch_unwind(|| campaign(threads, panicking_trial_1()));
            let payload = unwound.err().expect("the inline lane is a plain call");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(message, "injected panic for trial 1", "threads = {threads}");
        }
    }
}
