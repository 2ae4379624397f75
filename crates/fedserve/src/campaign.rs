//! One campaign driver: an `ExecutorCore` pumped through the fair gate.
//!
//! [`run_campaign`] is the service-side sibling of
//! [`run_event_driven_concurrent`](fedtune_core::run_event_driven_concurrent):
//! the same sans-io core, the same dispatch-order commit discipline, the
//! same per-trial state chaining — with two insertions that make it
//! multi-tenant:
//!
//! - every ready dispatch passes through the [`FairGate`] before touching a
//!   real worker (admission may lag dispatch; grants arrive on the driver's
//!   own channel, in dispatch order, so the reorder logic is unchanged), and
//! - evaluation jobs go to a process-wide [`SharedPool`] instead of a
//!   campaign-private scoped pool, so co-tenants share threads.
//!
//! The driver works in **turns** (`Flow::turn`): block for one inbox
//! message, drain every grant and completion already waiting behind it,
//! stage the commits that are in dispatch order, make them durable with one
//! ledger sync, publish progress, step the core. A turn of one message is
//! one append and one sync; under load the messages that pile up while the
//! driver sits in `sync_data` share the next one (group commit, with the
//! disk's own latency as the only batching knob).
//!
//! Neither insertion touches the virtual-time state machine: admission
//! delays and co-tenant scheduling shift only *wall* time, so a campaign's
//! outcome — selections, scores, `sim_elapsed`, timeline — is bit-identical
//! to the same campaign run standalone. The unit tests at the bottom assert
//! exactly that.
//!
//! # Control and isolation
//!
//! Three cooperative flags steer a driver mid-flight: `stop` (operator
//! request → terminal), `suspend` (service shutdown → resumable), and
//! `kill` (simulated crash → abort *now*, no terminal marker, restart
//! resumes from the ledger). Stop and suspend use
//! [`ExecutorCore::halt`]: the scheduler is never polled again but already
//! dispatched evaluations drain, leaving a consistent partial outcome.
//! A panicking or failing evaluation aborts only its own campaign — the
//! shared pool isolates the panic, the driver maps it to
//! [`ServeError::EvalPanicked`], and the gate guard releases the
//! campaign's admitted capacity on the way out.

use crate::dispatch::{DrrConfig, FairGate, GateError};
use crate::objective::{build_objective, ServeEval, ServeSink};
use crate::spec::CampaignSpec;
use crate::{Result, ServeError};
use fedhpo::{Scheduler, TrialRequest, TrialResult};
use fedsim::clock::EventKey;
use fedsim::SharedPool;
use fedstore::TrialStore;
use fedtune_core::{
    ConcurrentEval, ConcurrentSink, DispatchedTrial, EvalOutput, EventDrivenOutcome, ExecutorCore,
    ExecutorStep, VirtualExecution,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Why a campaign halted before its schedule finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// An operator stop request (terminal).
    Stopped,
    /// A graceful service shutdown (resumable: no terminal marker is
    /// written, the next service start resumes from the ledger).
    Suspended,
    /// The campaign's `max_evaluations` budget was reached (terminal).
    BudgetEvaluations,
    /// The campaign's `max_resource` budget was reached (terminal).
    BudgetResource,
}

/// Cooperative control flags shared between the service frontend and one
/// campaign driver. All flags are one-way: once raised they stay raised.
#[derive(Debug, Default)]
pub struct CampaignFlags {
    /// Operator stop: halt polling, drain in-flight work, settle terminal.
    pub stop: AtomicBool,
    /// Service shutdown: like stop, but the campaign is left resumable.
    pub suspend: AtomicBool,
    /// Simulated crash: abort immediately, mid-everything.
    pub kill: AtomicBool,
}

/// Live progress counters a driver publishes once per turn, after the
/// turn's commits are durable.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Committed evaluations so far.
    pub evaluations: u64,
    /// Committed training rounds so far.
    pub resource_spent: u64,
    /// Virtual completion time of the latest commit.
    pub sim_time: f64,
    /// Evaluations served from the recovered ledger so far.
    pub ledger_hits: u64,
    /// Evaluations computed live so far.
    pub ledger_misses: u64,
}

/// Everything a settled campaign driver hands back to the registry.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The tuning outcome (selections, log, timeline, `sim_elapsed`).
    pub outcome: EventDrivenOutcome,
    /// Why the driver halted early, if it did. `None` with
    /// `outcome.finished == false` means the *simulated* budget cut the
    /// schedule off.
    pub halt: Option<HaltReason>,
    /// Committed evaluations.
    pub evaluations: u64,
    /// Committed training rounds.
    pub resource_spent: u64,
    /// Evaluations served from the recovered ledger.
    pub ledger_hits: u64,
    /// Evaluations computed live.
    pub ledger_misses: u64,
    /// The campaign's ledger, every commit durably appended.
    pub store: TrialStore,
}

/// A message into the driver's single inbox: gate grants and evaluation
/// completions share one channel so the driver has exactly one blocking
/// point.
enum CampaignMsg {
    /// The gate admitted the ticket at the front of the pending queue.
    Grant(u64),
    /// An evaluation task finished on the shared pool.
    Done {
        seq: usize,
        key: EventKey,
        request: TrialRequest,
        sim_completion: f64,
        state: usize,
        output: fedtune_core::Result<EvalOutput>,
    },
    /// An evaluation task unwound before reporting.
    Panicked,
}

/// Sends [`CampaignMsg::Panicked`] if the task unwinds before defusing,
/// so the driver never blocks forever on a dead task.
struct PanicGuard {
    tx: Option<mpsc::Sender<CampaignMsg>>,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(CampaignMsg::Panicked);
        }
    }
}

/// Deregisters the campaign from the gate on every exit path, releasing
/// its admitted capacity to the co-tenants.
struct GateGuard<'g> {
    gate: &'g FairGate,
    member: u64,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.gate.deregister(self.member);
    }
}

/// Immutable driver context shared by submit sites.
struct Shared<'s> {
    pool: &'s SharedPool,
    gate: &'s FairGate,
    member: u64,
    eval: Arc<ServeEval>,
    tx: mpsc::Sender<CampaignMsg>,
    trace: Option<Arc<fedtrace::Trace>>,
}

impl Shared<'_> {
    /// Ships one granted dispatch to the shared pool.
    fn submit(&self, seq: usize, dispatched: DispatchedTrial, mut state: usize, chained: bool) {
        let eval = Arc::clone(&self.eval);
        let tx = self.tx.clone();
        let trace = self.trace.clone();
        let job = move || {
            let mut guard = PanicGuard { tx: Some(tx) };
            let started = trace.as_ref().map(|t| t.wall_profile().now_seconds());
            let output = eval.evaluate(&mut state, &dispatched.request);
            if let (Some(t), Some(started)) = (trace.as_ref(), started) {
                t.wall_profile().record_since("evaluate", started);
            }
            let tx = guard.tx.take().expect("guard still armed");
            let _ = tx.send(CampaignMsg::Done {
                seq,
                key: dispatched.key,
                request: dispatched.request,
                sim_completion: dispatched.sim_completion,
                state,
                output,
            });
        };
        if chained {
            self.pool.submit_chained(job);
        } else {
            self.pool.submit(job);
        }
    }
}

/// Mutable reorder state of one driver (everything that is not the core or
/// the sink).
#[derive(Default)]
struct Flow {
    next_seq: usize,
    next_commit: usize,
    /// Out-of-order completions parked until their dispatch-order turn.
    commit_buf: BTreeMap<usize, (TrialRequest, EvalOutput, f64)>,
    /// Dispatches enqueued at the gate, awaiting admission (FIFO — the
    /// gate grants a member's tickets in enqueue order).
    pending_grant: VecDeque<(u64, usize, DispatchedTrial)>,
    /// Trials with a task in flight; queued later dispatches chain onto
    /// the freed state in order.
    busy: HashMap<usize, VecDeque<(usize, DispatchedTrial)>>,
}

impl Flow {
    /// One driver turn: blocks for one inbox message, drains every message
    /// already waiting behind it (grants and completions alike), stages the
    /// commits that are in dispatch order, makes them durable with **one**
    /// sync, and only then publishes progress. The caller steps the core
    /// after this returns, so no result reaches the scheduler or a status
    /// reply before it is on disk. While the driver sits in the sync,
    /// finished evaluations queue up in the inbox and the next turn takes
    /// them together: the batch grows with the disk's latency on its own.
    ///
    /// # Errors
    ///
    /// A failed evaluation, a ledger failure (nothing is published for the
    /// turn), or a grant or completion that contradicts the driver's books
    /// (it fails this campaign rather than panicking its thread).
    fn turn(
        &mut self,
        rx: &mpsc::Receiver<CampaignMsg>,
        shared: &Shared<'_>,
        core: &mut ExecutorCore<'_>,
        sink: &mut ServeSink,
        on_progress: &mut dyn FnMut(Progress),
    ) -> Result<()> {
        let first = rx.recv().map_err(|_| ServeError::Core {
            message: "evaluation workers disconnected before completing dispatched work"
                .to_string(),
        })?;
        let mut last_commit = None;
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            self.handle(msg, shared, core, sink, &mut last_commit)?;
        }
        sink.sync_turn()?;
        if let Some(sim_time) = last_commit {
            on_progress(Progress {
                evaluations: sink.evaluations,
                resource_spent: sink.resource_spent,
                sim_time,
                ledger_hits: shared.eval.ledger_hits(),
                ledger_misses: shared.eval.ledger_misses(),
            });
        }
        Ok(())
    }

    /// Handles one inbox message, staging (not syncing) whatever commits it
    /// puts in dispatch order; `last_commit` takes the latest one's time.
    fn handle(
        &mut self,
        msg: CampaignMsg,
        shared: &Shared<'_>,
        core: &mut ExecutorCore<'_>,
        sink: &mut ServeSink,
        last_commit: &mut Option<f64>,
    ) -> Result<()> {
        match msg {
            CampaignMsg::Grant(ticket) => {
                let Some((expected, seq, dispatched)) = self.pending_grant.pop_front() else {
                    return Err(ServeError::Core {
                        message: format!(
                            "gate granted ticket {ticket} with no dispatch awaiting admission"
                        ),
                    });
                };
                if expected != ticket {
                    return Err(ServeError::Core {
                        message: format!(
                            "gate granted ticket {ticket} out of enqueue order (expected {expected})"
                        ),
                    });
                }
                let trial = dispatched.request.trial_id;
                match self.busy.get_mut(&trial) {
                    // The trial's state is on a worker right now: queue
                    // behind it, preserving per-trial dispatch order.
                    Some(queue) => queue.push_back((seq, dispatched)),
                    None => {
                        self.busy.insert(trial, VecDeque::new());
                        let state = sink.take_state(trial);
                        shared.submit(seq, dispatched, state, false);
                    }
                }
                Ok(())
            }
            CampaignMsg::Done {
                seq,
                key,
                request,
                sim_completion,
                state,
                output,
            } => {
                shared.gate.release(shared.member);
                let output = output?;
                core.complete(key, TrialResult::of(&request, output.noisy_score))?;
                self.commit_buf
                    .insert(seq, (request, output, sim_completion));
                while let Some((request, output, time)) = self.commit_buf.remove(&self.next_commit)
                {
                    sink.commit(&request, &output, time);
                    self.next_commit += 1;
                    *last_commit = Some(time);
                }
                let trial = key.trial as usize;
                let Some(queue) = self.busy.get_mut(&trial) else {
                    return Err(ServeError::Core {
                        message: format!(
                            "completion for trial {trial}, which has no evaluation in flight"
                        ),
                    });
                };
                if let Some((next, dispatched)) = queue.pop_front() {
                    // Hand the warm state straight to the trial's next task.
                    shared.submit(next, dispatched, state, true);
                } else {
                    self.busy.remove(&trial);
                    sink.put_state(trial, state);
                }
                Ok(())
            }
            CampaignMsg::Panicked => Err(ServeError::EvalPanicked),
        }
    }
}

/// Runs one campaign to a settled outcome over the shared pool and gate.
///
/// `store` is the campaign's (possibly recovered) ledger; every record in
/// it replays bit-exactly instead of re-evaluating, which is the whole
/// crash-restart story. See the module docs for the control flags.
///
/// # Errors
///
/// - [`ServeError::Killed`] when the kill flag fires (nothing terminal is
///   recorded; the ledger already holds every commit).
/// - [`ServeError::EvalPanicked`] / core / store errors when this
///   campaign's own machinery fails.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign(
    spec: &CampaignSpec,
    store: TrialStore,
    pool: &SharedPool,
    gate: &FairGate,
    flags: &CampaignFlags,
    trace: Option<Arc<fedtrace::Trace>>,
    on_progress: &mut dyn FnMut(Progress),
) -> Result<CampaignOutcome> {
    spec.validate()?;
    let mut scheduler = spec.build_scheduler()?;
    drive(
        spec,
        scheduler.as_mut(),
        store,
        pool,
        gate,
        flags,
        trace,
        on_progress,
    )
}

/// [`run_campaign`] over a caller-built scheduler — the seam the
/// durable-before-visible tests wrap a scheduler through.
#[allow(clippy::too_many_arguments)]
fn drive(
    spec: &CampaignSpec,
    scheduler: &mut dyn Scheduler,
    store: TrialStore,
    pool: &SharedPool,
    gate: &FairGate,
    flags: &CampaignFlags,
    trace: Option<Arc<fedtrace::Trace>>,
    on_progress: &mut dyn FnMut(Progress),
) -> Result<CampaignOutcome> {
    let space = spec.build_space()?;
    let mut rng = fedmath::rng::rng_for(spec.seed, 0);
    let mut sim = VirtualExecution::new(spec.workers, spec.cost.build());
    if let Some(budget) = spec.sim_budget {
        sim = sim.with_sim_budget(budget);
    }
    let mut objective = build_objective(spec, store)?;
    let eval = Arc::clone(&objective.eval);
    let sink = &mut objective.sink;

    let (tx, rx) = mpsc::channel::<CampaignMsg>();
    let grant_tx = tx.clone();
    let member = gate.register(
        DrrConfig {
            quantum: spec.limits.quantum,
            max_in_flight: spec.limits.max_in_flight,
            max_queued: spec.limits.max_queued,
        },
        move |ticket| {
            let _ = grant_tx.send(CampaignMsg::Grant(ticket));
        },
    );
    let _gate_guard = GateGuard { gate, member };

    let shared = Shared {
        pool,
        gate,
        member,
        eval: Arc::clone(&eval),
        tx,
        trace: trace.clone(),
    };
    let mut core = ExecutorCore::new_traced(scheduler, &space, &mut rng, &sim, trace.as_deref())?;
    let mut flow = Flow::default();
    let mut halt_reason: Option<HaltReason> = None;
    // Budget enforcement is *dispatch-side*: the dispatch sequence is a pure
    // function of the virtual state machine (never of real thread timing),
    // so the halt lands on the same evaluation in every execution and a
    // budget-capped campaign stays bit-reproducible. `planned` mirrors each
    // trial's dispatched (not yet necessarily committed) training rounds.
    let mut planned: HashMap<usize, usize> = HashMap::new();
    let mut planned_rounds: u64 = 0;

    loop {
        if flags.kill.load(Ordering::Relaxed) {
            return Err(ServeError::Killed);
        }
        if halt_reason.is_none() {
            if flags.stop.load(Ordering::Relaxed) {
                core.halt();
                halt_reason = Some(HaltReason::Stopped);
            } else if flags.suspend.load(Ordering::Relaxed) {
                core.halt();
                halt_reason = Some(HaltReason::Suspended);
            }
        }
        match core.step()? {
            ExecutorStep::Dispatch(batch) => {
                for dispatched in batch {
                    let seq = flow.next_seq;
                    flow.next_seq += 1;
                    // Admission cost = incremental rounds this evaluation
                    // will train (affects only fairness, never bits).
                    let trial = dispatched.request.trial_id;
                    let trained = planned.entry(trial).or_insert(0);
                    let delta = dispatched.request.resource.saturating_sub(*trained);
                    *trained = (*trained).max(dispatched.request.resource);
                    planned_rounds += delta as u64;
                    let cost = (delta as u64).max(1);
                    let ticket = loop {
                        if flags.kill.load(Ordering::Relaxed) {
                            return Err(ServeError::Killed);
                        }
                        match gate.enqueue(member, cost) {
                            Ok(ticket) => break ticket,
                            Err(GateError::QueueFull { .. }) => {
                                // Back-pressure: take a turn (grants free
                                // queue slots) before queueing more.
                                flow.turn(&rx, &shared, &mut core, sink, on_progress)?;
                            }
                            Err(e @ GateError::UnknownMember { .. }) => {
                                return Err(ServeError::Core {
                                    message: e.to_string(),
                                });
                            }
                        }
                    };
                    flow.pending_grant.push_back((ticket, seq, dispatched));
                }
                // Trial/resource budgets cut the schedule off at dispatch
                // granularity: everything already dispatched still drains
                // (exactly like a simulated wall-clock cutoff).
                if halt_reason.is_none() {
                    let limits = &spec.limits;
                    if limits
                        .max_evaluations
                        .is_some_and(|cap| flow.next_seq as u64 >= cap)
                    {
                        core.halt();
                        halt_reason = Some(HaltReason::BudgetEvaluations);
                    } else if limits.max_resource.is_some_and(|cap| planned_rounds >= cap) {
                        core.halt();
                        halt_reason = Some(HaltReason::BudgetResource);
                    }
                }
            }
            // The core hands back the same `Deliver` (and the loop re-checks
            // the flags) until a turn brings the awaited completion.
            ExecutorStep::Deliver(_) => flow.turn(&rx, &shared, &mut core, sink, on_progress)?,
            ExecutorStep::Finished => break,
        }
    }

    let outcome = core.finish();
    Ok(CampaignOutcome {
        outcome,
        halt: halt_reason,
        evaluations: sink.evaluations,
        resource_spent: sink.resource_spent,
        ledger_hits: eval.ledger_hits(),
        ledger_misses: eval.ledger_misses(),
        store: objective.sink.into_store(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignLimits, CostSpec, DimSpec, ObjectiveSpec, SchedulerSpec};
    use fedtune_core::{run_event_driven_concurrent, ConcurrentObjective};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard};

    fn spec(name: &str, seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            seed,
            space: vec![DimSpec::Uniform {
                name: "x".to_string(),
                low: 0.0,
                high: 1.0,
            }],
            scheduler: SchedulerSpec::AsyncAsha {
                trials: 12,
                eta: 3,
                min_resource: 1,
                max_resource: 9,
            },
            objective: ObjectiveSpec::Analytic {
                target: 0.3,
                noise_sd: 0.15,
                latency_scale: 0.0,
                fail_trial: None,
                panic_trial: None,
            },
            cost: CostSpec::HeavyTailedClients {
                clients: 40,
                per_round: 4,
                seed: 5,
            },
            workers: 4,
            sim_budget: None,
            limits: CampaignLimits::default(),
        }
    }

    /// The campaign straight through `run_event_driven_concurrent`, no gate
    /// or shared pool anywhere.
    fn standalone_over<O: ConcurrentObjective>(
        spec: &CampaignSpec,
        scheduler: &mut dyn Scheduler,
        objective: &mut O,
        threads: usize,
    ) -> fedtune_core::Result<EventDrivenOutcome> {
        let space = spec.build_space().unwrap();
        let mut rng = fedmath::rng::rng_for(spec.seed, 0);
        let mut sim = VirtualExecution::new(spec.workers, spec.cost.build());
        if let Some(budget) = spec.sim_budget {
            sim = sim.with_sim_budget(budget);
        }
        run_event_driven_concurrent(scheduler, &space, objective, &mut rng, &sim, threads)
    }

    fn standalone(spec: &CampaignSpec, threads: usize) -> EventDrivenOutcome {
        let mut scheduler = spec.build_scheduler().unwrap();
        let mut objective = build_objective(spec, TrialStore::in_memory()).unwrap();
        standalone_over(spec, scheduler.as_mut(), &mut objective, threads).unwrap()
    }

    #[test]
    fn served_campaign_is_bit_identical_to_standalone() {
        let spec = spec("bit-identity", 41);
        let reference = standalone(&spec, 4);
        assert!(reference.finished);

        let pool = SharedPool::new(4);
        let gate = FairGate::new(4);
        let flags = CampaignFlags::default();
        let mut progress = Vec::new();
        let served = run_campaign(
            &spec,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |p| progress.push(p.evaluations),
        )
        .unwrap();
        assert_eq!(served.outcome, reference, "service changed campaign bits");
        assert_eq!(
            served.outcome.sim_elapsed.to_bits(),
            reference.sim_elapsed.to_bits()
        );
        assert!(served.halt.is_none());
        assert_eq!(
            served.evaluations,
            reference.outcome.num_evaluations() as u64
        );
        assert_eq!(served.ledger_misses, served.evaluations);
        assert_eq!(served.ledger_hits, 0);
        assert_eq!(
            progress.last().copied(),
            Some(served.evaluations),
            "progress callback tracked every commit"
        );
        // Every commit landed in the ledger.
        assert_eq!(served.store.len() as u64, served.evaluations);
        assert_eq!(gate.global_in_flight(), 0, "gate capacity fully released");
    }

    #[test]
    fn evaluation_budget_halts_deterministically() {
        let mut capped = spec("budget", 17);
        capped.limits.max_evaluations = Some(7);
        let pool = SharedPool::new(2);
        let gate = FairGate::new(4);
        let flags = CampaignFlags::default();
        let outcome = run_campaign(
            &capped,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(outcome.halt, Some(HaltReason::BudgetEvaluations));
        assert!(!outcome.outcome.finished);
        // The halt lands after the budget-crossing commit plus whatever was
        // already dispatched — never more than the in-flight cap beyond it.
        assert!(outcome.evaluations >= 7);
        assert!(
            outcome.evaluations <= 7 + capped.limits.max_in_flight as u64 + capped.workers as u64
        );
        // Run it again: the cutoff is bit-stable.
        let again = run_campaign(
            &capped,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(again.outcome, outcome.outcome);
        assert_eq!(again.evaluations, outcome.evaluations);
    }

    #[test]
    fn stop_flag_settles_with_partial_outcome() {
        let spec = spec("stopped", 3);
        let pool = SharedPool::new(2);
        let gate = FairGate::new(4);
        let flags = CampaignFlags::default();
        // Raised before the first step: the halt drains the first dispatch
        // wave and settles.
        flags.stop.store(true, Ordering::Relaxed);
        let outcome = run_campaign(
            &spec,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(outcome.halt, Some(HaltReason::Stopped));
        assert!(!outcome.outcome.finished);
        assert!(outcome.evaluations < 30, "halt cut the schedule short");
    }

    #[test]
    fn kill_flag_aborts_without_terminal_outcome() {
        let spec = spec("killed", 29);
        let pool = SharedPool::new(2);
        let gate = FairGate::new(4);
        let flags = CampaignFlags::default();
        flags.kill.store(true, Ordering::Relaxed);
        let err = run_campaign(
            &spec,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap_err();
        assert_eq!(err, ServeError::Killed);
        assert_eq!(gate.global_in_flight(), 0, "guard released gate capacity");
    }

    #[test]
    fn a_panicking_campaign_fails_alone() {
        let mut rigged = spec("panics", 7);
        rigged.objective = ObjectiveSpec::Analytic {
            target: 0.3,
            noise_sd: 0.0,
            latency_scale: 0.0,
            fail_trial: None,
            panic_trial: Some(2),
        };
        let pool = SharedPool::new(2);
        let gate = FairGate::new(4);
        let flags = CampaignFlags::default();
        let err = run_campaign(
            &rigged,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap_err();
        assert_eq!(err, ServeError::EvalPanicked);
        // The pool survived the panic: a healthy campaign runs fine on the
        // same pool and gate afterwards.
        let healthy = spec("after-panic", 7);
        let outcome = run_campaign(
            &healthy,
            TrialStore::in_memory(),
            &pool,
            &gate,
            &flags,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert!(outcome.outcome.finished);
        assert_eq!(outcome.outcome, standalone(&healthy, 2));
    }

    // -- The turn boundary ------------------------------------------------

    /// Tests on segment ledgers read or move the process-global `store.*`
    /// accounting, so every one of them holds this lock (the other tests in
    /// this binary keep their ledgers in memory and move none of it).
    static LEDGER_ACCOUNTING: Mutex<()> = Mutex::new(());

    fn ledger_accounting() -> MutexGuard<'static, ()> {
        LEDGER_ACCOUNTING
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn ledger_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedserve_turn_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fresh segment ledger whose appends succeed and whose first sync
    /// fails (the campaigns under test do not survive it to try a second).
    fn unsyncable_ledger(dir: &Path) -> TrialStore {
        let mut store = TrialStore::open_segments(dir).unwrap();
        store.fail_next_sync();
        store
    }

    /// `[group commits, syncs, records appended, records made durable]` of
    /// every segment ledger in this process so far.
    fn accounting() -> [u64; 4] {
        let snapshot = fedtrace::global().registry().snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        [
            counter("store.group_commits"),
            counter("store.syncs"),
            counter("store.records_appended"),
            snapshot.histogram("store.sync_batch").map_or(0, |h| h.sum),
        ]
    }

    /// Records appended to this process's segment ledgers and not yet
    /// covered by a sync.
    fn process_unsynced() -> u64 {
        let [_, _, appended, durable] = accounting();
        appended - durable
    }

    /// A driver frozen mid-flight, everything `run_campaign` holds between
    /// two steps of its loop.
    struct MidFlight<'s, 'c> {
        flow: Flow,
        rx: mpsc::Receiver<CampaignMsg>,
        /// Holds the inbox's sender (`shared.tx`), which the tests load.
        shared: Shared<'s>,
        core: ExecutorCore<'c>,
        sink: ServeSink,
        /// The finished evaluations of the admitted dispatches, in dispatch
        /// order, not yet in the inbox.
        done: Vec<CampaignMsg>,
        /// `(configuration, sim_completion bits)` per admitted dispatch.
        dispatched: Vec<(Vec<f64>, u64)>,
    }

    impl MidFlight<'_, '_> {
        fn turn(&mut self) -> (Result<()>, Vec<Progress>) {
            let mut published = Vec::new();
            let result = self.flow.turn(
                &self.rx,
                &self.shared,
                &mut self.core,
                &mut self.sink,
                &mut |p| published.push(p),
            );
            (result, published)
        }
    }

    /// Dispatches `k` evaluations of a random search over `store` and stops
    /// the driver there: the first `admitted` are past the gate with their
    /// evaluations finished (see [`MidFlight::done`]), the rest still await
    /// their grants. The gate's own notifier goes nowhere — the test is the
    /// only writer of the inbox.
    fn mid_flight(
        k: usize,
        admitted: usize,
        store: TrialStore,
        body: impl FnOnce(&mut MidFlight<'_, '_>),
    ) {
        let mut spec = spec("mid-flight", 5);
        spec.scheduler = SchedulerSpec::RandomSearch {
            trials: k,
            resource: 3,
        };
        spec.workers = k;
        let space = spec.build_space().unwrap();
        let mut scheduler = spec.build_scheduler().unwrap();
        let mut rng = fedmath::rng::rng_for(spec.seed, 0);
        let sim = VirtualExecution::new(spec.workers, spec.cost.build());
        let objective = build_objective(&spec, store).unwrap();
        let pool = SharedPool::new(1);
        let gate = FairGate::new(k);
        let config = DrrConfig {
            quantum: 1,
            max_in_flight: k,
            max_queued: k,
        };
        let member = gate.register(config, |_| {});
        let (tx, rx) = mpsc::channel();
        let mut core =
            ExecutorCore::new_traced(scheduler.as_mut(), &space, &mut rng, &sim, None).unwrap();
        let ExecutorStep::Dispatch(batch) = core.step().unwrap() else {
            panic!("a fresh campaign dispatches first");
        };
        assert_eq!(batch.len(), k);
        let mut flow = Flow {
            next_seq: k,
            ..Flow::default()
        };
        let (mut done, mut dispatched) = (Vec::new(), Vec::new());
        for (seq, d) in batch.into_iter().enumerate() {
            let ticket = gate.enqueue(member, 1).unwrap();
            if seq >= admitted {
                flow.pending_grant.push_back((ticket, seq, d));
                continue;
            }
            flow.busy.insert(d.request.trial_id, VecDeque::new());
            dispatched.push((
                d.request.config.values().to_vec(),
                d.sim_completion.to_bits(),
            ));
            let mut state = 0usize;
            let output = objective.eval.evaluate(&mut state, &d.request);
            done.push(CampaignMsg::Done {
                seq,
                key: d.key,
                request: d.request,
                sim_completion: d.sim_completion,
                state,
                output,
            });
        }
        body(&mut MidFlight {
            flow,
            rx,
            shared: Shared {
                pool: &pool,
                gate: &gate,
                member,
                eval: Arc::clone(&objective.eval),
                tx,
                trace: None,
            },
            core,
            sink: objective.sink,
            done,
            dispatched,
        });
    }

    #[test]
    fn a_turn_costs_one_sync_however_many_completions_it_drains() {
        let _serial = ledger_accounting();
        for k in [1usize, 2, 7] {
            let dir = ledger_dir(&format!("drain{k}"));
            let store = TrialStore::open_segments(&dir).unwrap();
            mid_flight(k, k, store, |driver| {
                // Completions arrive in the reverse of dispatch order.
                for msg in driver.done.drain(..).rev() {
                    driver.shared.tx.send(msg).unwrap();
                }
                let before = accounting();
                let (result, published) = driver.turn();
                result.unwrap();
                let spent: Vec<u64> = accounting()
                    .iter()
                    .zip(before)
                    .map(|(after, before)| after - before)
                    .collect();
                assert_eq!(
                    spent,
                    [1, 1, k as u64, k as u64],
                    "k = {k}: one group commit, one sync_data, k appends, all k in that sync"
                );

                let ledger = driver.sink.store();
                assert_eq!(ledger.unsynced(), 0);
                let appended: Vec<(Vec<f64>, u64)> = ledger
                    .records()
                    .iter()
                    .map(|r| (r.config.values(), r.sim_time.to_bits()))
                    .collect();
                assert_eq!(appended, driver.dispatched, "k = {k}: dispatch order");

                // One status update for the whole turn, after the sync.
                assert_eq!(published.len(), 1, "k = {k}");
                assert_eq!(published[0].evaluations, k as u64);
                assert_eq!(driver.shared.gate.global_in_flight(), 0, "slots released");
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_sync_fails_the_turn_and_publishes_nothing() {
        let _serial = ledger_accounting();
        let dirs = ["turn", "served", "standalone"].map(|t| ledger_dir(&format!("unsyncable_{t}")));
        mid_flight(2, 2, unsyncable_ledger(&dirs[0]), |driver| {
            for msg in driver.done.drain(..) {
                driver.shared.tx.send(msg).unwrap();
            }
            let (result, published) = driver.turn();
            assert!(
                matches!(result, Err(ServeError::Store { .. })),
                "{result:?}"
            );
            assert!(published.is_empty(), "status ran ahead of the disk");
            assert_eq!(
                driver.sink.store().unsynced(),
                2,
                "both staged, neither durable"
            );
        });

        // End to end: the error `Service::settle` turns into
        // `CampaignState::Failed`, and not one status update before it.
        let spec = spec("unsyncable", 13);
        let pool = SharedPool::new(2);
        let gate = FairGate::new(4);
        let mut published = 0usize;
        let result = run_campaign(
            &spec,
            unsyncable_ledger(&dirs[1]),
            &pool,
            &gate,
            &CampaignFlags::default(),
            None,
            &mut |_| published += 1,
        );
        assert!(
            matches!(result, Err(ServeError::Store { .. })),
            "{:?}",
            result.map(|out| out.evaluations)
        );
        assert_eq!(published, 0);
        assert_eq!(gate.global_in_flight(), 0, "guard released gate capacity");

        // The standalone driver ends its turns through the same sink.
        let mut scheduler = spec.build_scheduler().unwrap();
        let mut objective = build_objective(&spec, unsyncable_ledger(&dirs[2])).unwrap();
        let err = standalone_over(&spec, scheduler.as_mut(), &mut objective, 2).unwrap_err();
        assert!(err.to_string().contains("campaign ledger"), "{err}");
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_misbehaving_gate_fails_the_campaign_without_panicking() {
        // The same ticket granted twice: the second finds nothing waiting.
        mid_flight(1, 0, TrialStore::in_memory(), |driver| {
            let ticket = driver.flow.pending_grant[0].0;
            driver.shared.tx.send(CampaignMsg::Grant(ticket)).unwrap();
            driver.shared.tx.send(CampaignMsg::Grant(ticket)).unwrap();
            let (result, _) = driver.turn();
            match result {
                Err(ServeError::Core { message }) => {
                    assert!(message.contains("no dispatch awaiting"), "{message}")
                }
                other => panic!("double grant: {other:?}"),
            }
        });
        // A grant out of enqueue order must not submit the wrong dispatch.
        mid_flight(2, 0, TrialStore::in_memory(), |driver| {
            let second = driver.flow.pending_grant[1].0;
            driver.shared.tx.send(CampaignMsg::Grant(second)).unwrap();
            let (result, _) = driver.turn();
            match result {
                Err(ServeError::Core { message }) => {
                    assert!(message.contains("out of enqueue order"), "{message}")
                }
                other => panic!("out-of-order grant: {other:?}"),
            }
        });
        // A completion for a trial with nothing in flight.
        mid_flight(1, 1, TrialStore::in_memory(), |driver| {
            driver.flow.busy.clear();
            driver.shared.tx.send(driver.done.remove(0)).unwrap();
            let (result, _) = driver.turn();
            match result {
                Err(ServeError::Core { message }) => {
                    assert!(message.contains("no evaluation in flight"), "{message}")
                }
                other => panic!("untracked completion: {other:?}"),
            }
        });
    }

    /// Refuses to hear a result while `unsynced` says the ledger holds
    /// records a crash could lose.
    struct DurableBeforeVisible<'p> {
        inner: Box<dyn Scheduler>,
        unsynced: &'p dyn Fn() -> u64,
        reports: usize,
    }

    impl Scheduler for DurableBeforeVisible<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn suggest(
            &mut self,
            space: &fedhpo::SearchSpace,
            rng: &mut rand::rngs::StdRng,
        ) -> fedhpo::Result<Vec<TrialRequest>> {
            self.inner.suggest(space, rng)
        }

        fn report(&mut self, result: &TrialResult) -> fedhpo::Result<()> {
            // An error, not a panic: a driver thread that unwinds inside the
            // standalone driver's pool scope would hang the test instead of
            // failing it.
            let unsynced = (self.unsynced)();
            if unsynced > 0 {
                return Err(fedhpo::HpoError::InvalidConfig {
                    message: format!(
                        "trial {} reached the scheduler with {unsynced} records not on disk",
                        result.trial_id
                    ),
                });
            }
            self.reports += 1;
            self.inner.report(result)
        }

        fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }

        fn async_capable(&self) -> bool {
            self.inner.async_capable()
        }
    }

    #[test]
    fn the_served_driver_syncs_before_the_scheduler_or_a_status_sees_a_result() {
        let _serial = ledger_accounting();
        let spec = spec("durable-served", 41);
        let reference = standalone(&spec, 4);
        let dir = ledger_dir("durable_served");
        let pool = SharedPool::new(4);
        let gate = FairGate::new(4);
        let mut scheduler = DurableBeforeVisible {
            inner: spec.build_scheduler().unwrap(),
            unsynced: &process_unsynced,
            reports: 0,
        };
        let mut published = 0u64;
        let served = drive(
            &spec,
            &mut scheduler,
            TrialStore::open_segments(&dir).unwrap(),
            &pool,
            &gate,
            &CampaignFlags::default(),
            None,
            &mut |p| {
                assert_eq!(process_unsynced(), 0, "status ran ahead of the disk");
                assert!(p.evaluations > published, "a turn publishes once");
                published = p.evaluations;
            },
        )
        .unwrap();
        assert_eq!(served.outcome, reference);
        assert_eq!(scheduler.reports as u64, served.evaluations);
        assert_eq!(published, served.evaluations);
        assert_eq!(served.store.len() as u64, served.evaluations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ServeSink` behind a mirror of its ledger's unsynced count, refreshed
    /// after every call that can move it.
    struct MirroredSink {
        inner: ServeSink,
        unsynced: Arc<AtomicU64>,
        /// Most records ever staged at once, to show the mirror moves.
        peak: u64,
    }

    impl MirroredSink {
        fn refresh(&mut self) {
            let unsynced = self.inner.store().unsynced();
            self.unsynced.store(unsynced, Ordering::SeqCst);
            self.peak = self.peak.max(unsynced);
        }
    }

    impl ConcurrentSink for MirroredSink {
        type State = usize;

        fn take_state(&mut self, trial_id: usize) -> usize {
            self.inner.take_state(trial_id)
        }

        fn put_state(&mut self, trial_id: usize, state: usize) {
            self.inner.put_state(trial_id, state);
        }

        fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
            self.inner.commit(request, output, sim_time);
            self.refresh();
        }

        fn end_turn(&mut self) -> fedtune_core::Result<()> {
            let ended = self.inner.end_turn();
            self.refresh();
            ended
        }
    }

    struct Mirrored {
        eval: Arc<ServeEval>,
        sink: MirroredSink,
    }

    impl ConcurrentObjective for Mirrored {
        type State = usize;
        type Eval = ServeEval;
        type Sink = MirroredSink;

        fn split(&mut self) -> (&ServeEval, &mut MirroredSink) {
            (&self.eval, &mut self.sink)
        }
    }

    #[test]
    fn the_standalone_driver_syncs_before_the_scheduler_sees_a_result() {
        let _serial = ledger_accounting();
        let spec = spec("durable-standalone", 41);
        let reference = standalone(&spec, 4);
        let dir = ledger_dir("durable_standalone");
        let objective = build_objective(&spec, TrialStore::open_segments(&dir).unwrap()).unwrap();
        let unsynced = Arc::new(AtomicU64::new(0));
        let mut objective = Mirrored {
            eval: objective.eval,
            sink: MirroredSink {
                inner: objective.sink,
                unsynced: Arc::clone(&unsynced),
                peak: 0,
            },
        };
        let probe = || unsynced.load(Ordering::SeqCst);
        let mut scheduler = DurableBeforeVisible {
            inner: spec.build_scheduler().unwrap(),
            unsynced: &probe,
            reports: 0,
        };
        let outcome = standalone_over(&spec, &mut scheduler, &mut objective, 4).unwrap();
        assert_eq!(outcome, reference);
        assert_eq!(scheduler.reports, outcome.outcome.num_evaluations());
        let sink = objective.sink;
        assert!(
            sink.peak >= 1,
            "commits were staged before they were synced"
        );
        assert_eq!(sink.inner.store().len(), scheduler.reports);
        assert_eq!(sink.inner.store().unsynced(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_inside_a_turn_resumes_to_the_same_bits() {
        let _serial = ledger_accounting();
        let pool = SharedPool::new(4);
        let gate = FairGate::new(4);
        for seed in [31u64, 32, 33] {
            let mut spec = spec("crash", seed);
            spec.scheduler = SchedulerSpec::AsyncAsha {
                trials: 27,
                eta: 3,
                min_resource: 1,
                max_resource: 27,
            };
            let reference = standalone(&spec, 4);
            for kill_at in [1usize, 3, 9] {
                let dir = ledger_dir(&format!("crash_{seed}_{kill_at}"));
                // First life: the crash lands inside turn `kill_at`, after its
                // sync and status update, before the core hears of it.
                let flags = CampaignFlags::default();
                let (mut turns, mut published) = (0usize, 0u64);
                let first = run_campaign(
                    &spec,
                    TrialStore::open_segments(&dir).unwrap(),
                    &pool,
                    &gate,
                    &flags,
                    None,
                    &mut |p| {
                        turns += 1;
                        published = p.evaluations;
                        if turns == kill_at {
                            flags.kill.store(true, Ordering::Relaxed);
                        }
                    },
                );
                match first {
                    Err(ServeError::Killed) => assert_eq!(turns, kill_at),
                    // Turns grow with the disk's latency: a slow disk can
                    // finish the campaign in fewer than `kill_at` of them.
                    Ok(_) => assert!(turns < kill_at),
                    Err(e) => panic!("seed {seed}, turn {kill_at}: {e}"),
                }
                assert_eq!(gate.global_in_flight(), 0);

                // Second life: only the ledger survives.
                let resumed = run_campaign(
                    &spec,
                    TrialStore::open_segments(&dir).unwrap(),
                    &pool,
                    &gate,
                    &CampaignFlags::default(),
                    None,
                    &mut |_| {},
                )
                .unwrap();
                assert_eq!(resumed.outcome, reference, "seed {seed}, turn {kill_at}");
                assert_eq!(
                    resumed.outcome.sim_elapsed.to_bits(),
                    reference.sim_elapsed.to_bits()
                );
                assert!(
                    resumed.ledger_hits >= published,
                    "seed {seed}, turn {kill_at}: a published evaluation was not on disk \
                     ({} hits < {published})",
                    resumed.ledger_hits
                );
                assert_eq!(
                    resumed.ledger_hits + resumed.ledger_misses,
                    resumed.evaluations
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
