//! One campaign driver: the pump behind the fair gate, on the shared pool.
//!
//! [`run_campaign`] is [`fedtune_core::Pump`] — the same loop, reorder
//! buffer and per-trial state chaining as [`fedtune_core::drive`] on a
//! scoped pool — in the one lane that is multi-tenant:
//!
//! - evaluation jobs go to a process-wide [`SharedPool`] instead of a
//!   campaign-private scoped pool, so co-tenants share threads, and
//! - the private `Tenant` [`Host`] puts every dispatch through the
//!   [`FairGate`] before it touches a real worker (admission may lag
//!   dispatch; grants arrive in the pump's own inbox, in dispatch order, so
//!   the reorder logic is unchanged), raises the control flags before each
//!   step, and ends each turn with `sync → publish status`. Budgets are
//!   the core's ([`CampaignSpec::budget`]), as in every standalone lane.
//!
//! A **turn** blocks for one inbox message, drains every grant and
//! completion already waiting behind it, stages the commits that are in
//! dispatch order, makes them durable with one ledger sync, publishes
//! progress, steps the core. A turn of one message is one append and one
//! sync; under load the messages that pile up while the driver sits in
//! `sync_data` share the next one (group commit, with the disk's own latency
//! as the only batching knob).
//!
//! Neither insertion touches the virtual-time state machine: admission
//! delays and co-tenant scheduling shift only *wall* time, so a campaign's
//! outcome — selections, scores, `sim_elapsed`, timeline — is bit-identical
//! to the same campaign run standalone. The lane-matrix test at the bottom
//! asserts exactly that.
//!
//! # Control and isolation
//!
//! Three cooperative flags steer a driver mid-flight: `stop` (operator
//! request → terminal), `suspend` (service shutdown → resumable), and
//! `kill` (simulated crash → abort *now*, no `Settled` note, restart
//! resumes from the ledger). Stop and suspend use
//! [`ExecutorCore::halt`]: the scheduler is never polled again but already
//! dispatched evaluations drain, leaving a consistent partial outcome.
//! A panicking or failing evaluation aborts only its own campaign — the
//! pool contains the panic at the job boundary, as every pool does, the
//! pump reports it and the driver returns [`ServeError::EvalPanicked`]; a
//! failing one is reported as the earliest failing dispatch, whatever order
//! the workers finished in — and the tenant's drop releases the campaign's
//! admitted capacity on the way out.

use crate::dispatch::{DrrConfig, FairGate, GateError};
use crate::objective::build_objective;
use crate::spec::{CampaignSpec, CampaignState, CampaignStatus, Selection};
use crate::{Result, ServeError};
use fedhpo::{Scheduler, TrialRequest};
use fedsim::SharedPool;
use fedstore::{RecordingEval, RecordingObjective, RecordingSink, TrialStore};
use fedtune_core::{
    Admission, Cap, Clock, ConcurrentEval, EvalJob, EventDrivenOutcome, ExecutorCore, Host, Pump,
    VirtualExecution,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Everything a settled campaign driver hands back to the registry.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The tuning outcome (selections, log, timeline, `sim_elapsed`).
    pub outcome: EventDrivenOutcome,
    /// The status the registry settles the campaign in.
    pub status: CampaignStatus,
    /// The campaign's ledger, every commit durably appended.
    pub store: TrialStore,
}

/// Where a campaign stands when [`status`] describes it.
enum Standing<'o> {
    /// Between turns, with the largest completion time committed so far.
    Running(f64),
    /// Settled on `outcome`, with the flag state (`Stopped` or `Suspended`)
    /// that halted it, if one did.
    Settled(&'o EventDrivenOutcome, Option<CampaignState>),
}

/// A campaign's status, the one place its counters, state, selection and
/// `sim_elapsed` are set. The counters are the commit log's and the ledger's
/// hit / miss tally. A settled campaign is `BudgetExhausted` on an
/// evaluation or round cap (even one the last wave reached, the schedule
/// finished), else in its halting flag's state, else `Completed` if the
/// schedule finished and `BudgetExhausted` if the deadline cut it off.
fn status<S, E>(
    name: &str,
    sink: &RecordingSink<S, TrialStore>,
    eval: &RecordingEval<E>,
    standing: Standing<'_>,
) -> CampaignStatus {
    let (state, sim_elapsed, selection) = match standing {
        Standing::Running(sim_elapsed) => (CampaignState::Running, sim_elapsed, None),
        Standing::Settled(outcome, flag) => {
            let state = match (outcome.halt, flag) {
                (Some(Cap::Evaluations | Cap::Rounds), _) => CampaignState::BudgetExhausted,
                (_, Some(flag)) => flag,
                _ if outcome.finished => CampaignState::Completed,
                _ => CampaignState::BudgetExhausted,
            };
            let selection = outcome.outcome.best().map(|best| Selection {
                trial_id: best.trial_id,
                config: best.config.values().to_vec(),
                score: best.score,
                resource: best.resource,
                sim_time: best.sim_time,
            });
            (state, outcome.sim_elapsed, selection)
        }
    };
    CampaignStatus {
        name: name.to_string(),
        state,
        evaluations: sink.campaign.len() as u64,
        resource_spent: sink.campaign.cumulative_rounds() as u64,
        sim_elapsed,
        ledger_hits: eval.hits(),
        ledger_misses: eval.misses(),
        selection,
        error: None,
    }
}

/// One campaign's seat in the daemon: what [`Host`] means behind the
/// [`FairGate`]. Dropping it deregisters the campaign from the gate on every
/// exit path, releasing its admitted capacity to the co-tenants.
struct Tenant<'a, E> {
    name: &'a str,
    gate: &'a FairGate,
    member: u64,
    flags: &'a CampaignFlags,
    eval: &'a RecordingEval<E>,
    on_status: &'a mut dyn FnMut(&CampaignStatus),
    /// The largest completion time committed so far.
    sim_elapsed: f64,
    /// The state of the flag that halted the campaign, if one did.
    halted_by: Option<CampaignState>,
}

impl<E> Drop for Tenant<'_, E> {
    fn drop(&mut self) {
        self.gate.deregister(self.member);
    }
}

impl<E> Host<RecordingSink<E::State, TrialStore>> for Tenant<'_, E>
where
    E: ConcurrentEval,
    E::State: Default,
{
    type Error = ServeError;

    fn before_step(&mut self, core: &mut ExecutorCore<'_>) -> Result<()> {
        if self.flags.kill.load(Ordering::Relaxed) {
            return Err(ServeError::Killed);
        }
        if self.halted_by.is_none() {
            let stop = self.flags.stop.load(Ordering::Relaxed);
            if stop || self.flags.suspend.load(Ordering::Relaxed) {
                self.halted_by = Some(if stop {
                    CampaignState::Stopped
                } else {
                    CampaignState::Suspended
                });
                core.halt();
            }
        }
        Ok(())
    }

    fn admit(&mut self, _request: &TrialRequest, rounds: usize) -> Result<Admission> {
        if self.flags.kill.load(Ordering::Relaxed) {
            return Err(ServeError::Killed);
        }
        // Admission cost = incremental rounds this evaluation will train
        // (affects only fairness, never bits).
        match self.gate.enqueue(self.member, (rounds as u64).max(1)) {
            Ok(ticket) => Ok(Admission::Ticket(ticket)),
            Err(GateError::QueueFull { .. }) => Ok(Admission::Full),
            Err(e @ GateError::UnknownMember { .. }) => Err(ServeError::Core {
                message: e.to_string(),
            }),
        }
    }

    fn release(&mut self) {
        self.gate.release(self.member);
    }

    /// One sync for the whole turn, and only then one status update: no
    /// status reply runs ahead of the disk, and a failed sync publishes
    /// nothing.
    fn end_turn(
        &mut self,
        sink: &mut RecordingSink<E::State, TrialStore>,
        latest_commit: Option<f64>,
    ) -> Result<()> {
        sink.sync()?;
        if let Some(sim_time) = latest_commit {
            self.sim_elapsed = self.sim_elapsed.max(sim_time);
            let standing = Standing::Running(self.sim_elapsed);
            (self.on_status)(&status(self.name, sink, self.eval, standing));
        }
        Ok(())
    }
}

/// The virtual service a spec describes.
fn sim_of(spec: &CampaignSpec) -> VirtualExecution {
    VirtualExecution::new(spec.workers, spec.cost.build())
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
    on_status: &mut dyn FnMut(&CampaignStatus),
) -> Result<CampaignOutcome> {
    spec.validate()?;
    let mut scheduler = spec.build_scheduler()?;
    drive(
        spec,
        scheduler.as_mut(),
        build_objective(spec, store)?,
        pool,
        gate,
        flags,
        trace,
        on_status,
    )
}

/// [`run_campaign`] over a caller-built scheduler and objective — the seam
/// the tests wrap a scheduler or rig an evaluation through.
#[allow(clippy::too_many_arguments)]
fn drive<E>(
    spec: &CampaignSpec,
    scheduler: &mut dyn Scheduler,
    objective: RecordingObjective<E>,
    pool: &SharedPool,
    gate: &FairGate,
    flags: &CampaignFlags,
    trace: Option<Arc<fedtrace::Trace>>,
    on_status: &mut dyn FnMut(&CampaignStatus),
) -> Result<CampaignOutcome>
where
    E: ConcurrentEval + Send + 'static,
    E::State: Default + 'static,
{
    let space = spec.build_space()?;
    let mut rng = fedmath::rng::rng_for(spec.seed, 0);
    let RecordingObjective { eval, mut sink } = objective;
    let eval = Arc::new(eval);
    let clock = Clock::Virtual(sim_of(spec));
    let budget = spec.budget();
    let core = ExecutorCore::new(scheduler, &space, &mut rng, clock, trace.as_deref(), budget)?;
    // Where a job runs: on the shared pool, owning an `Arc` of everything
    // it touches.
    let mut pump = Pump::new(Arc::clone(&eval), &mut sink, |job: EvalJob<_, _>| {
        let trace = trace.clone();
        pool.submit(move || job.run(trace.as_deref().map(fedtrace::Trace::wall_profile)));
    });
    let config = DrrConfig {
        quantum: spec.limits.quantum,
        max_in_flight: spec.limits.max_in_flight,
        max_queued: spec.limits.max_queued,
    };
    let mut tenant = Tenant {
        name: &spec.name,
        gate,
        member: gate.register(config, pump.admitter()),
        flags,
        eval: &eval,
        on_status,
        sim_elapsed: 0.0,
        halted_by: None,
    };
    let outcome = pump.run(core, &mut tenant)?;
    let halted_by = tenant.halted_by;
    drop((pump, tenant));
    let standing = Standing::Settled(&outcome, halted_by);
    let status = status(&spec.name, &sink, &eval, standing);
    Ok(CampaignOutcome {
        outcome,
        status,
        store: sink.into_store(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::objective::AnalyticEval;
    use crate::spec::{CampaignLimits, CostSpec, DimSpec, ObjectiveSpec, SchedulerSpec};
    use fedhpo::TrialResult;
    use fedtune_core::experiments::methods::TuningMethod;
    use fedtune_core::experiments::stragglers::straggler_cost_model;
    use fedtune_core::{
        ConcurrentObjective, ConcurrentSink, Drive, EvalOutput, ExecutionPolicy, ExecutorStep,
        ExperimentScale,
    };
    use std::cell::RefCell;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Condvar, Mutex, MutexGuard};

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

    /// The campaign straight through `fedtune_core::drive` under `clock` and
    /// the spec's budget, no gate or shared pool anywhere: inline at
    /// `threads <= 1`, else a scoped pool.
    fn standalone_over<O: ConcurrentObjective>(
        spec: &CampaignSpec,
        clock: Clock,
        scheduler: &mut dyn Scheduler,
        objective: &mut O,
        threads: usize,
    ) -> fedtune_core::Result<EventDrivenOutcome> {
        let space = spec.build_space().unwrap();
        let mut rng = fedmath::rng::rng_for(spec.seed, 0);
        let config = Drive {
            threads,
            budget: spec.budget(),
            ..Drive::new(clock)
        };
        fedtune_core::drive(scheduler, &space, objective, &mut rng, &config)
    }

    /// `spec`'s own virtual service and budget standalone.
    fn standalone(spec: &CampaignSpec, threads: usize) -> EventDrivenOutcome {
        let mut scheduler = spec.build_scheduler().unwrap();
        let mut objective = build_objective(spec, TrialStore::in_memory()).unwrap();
        let clock = Clock::Virtual(sim_of(spec));
        standalone_over(spec, clock, scheduler.as_mut(), &mut objective, threads).unwrap()
    }

    /// A shared pool and a gate of four slots for one test's campaigns.
    struct Daemon {
        pool: SharedPool,
        gate: FairGate,
    }

    impl Daemon {
        fn new(threads: usize) -> Self {
            Daemon {
                pool: SharedPool::new(threads),
                gate: FairGate::new(4),
            }
        }

        /// `run_campaign` on this pool and gate, untraced.
        fn run(
            &self,
            spec: &CampaignSpec,
            store: TrialStore,
            flags: &CampaignFlags,
            on_status: &mut dyn FnMut(&CampaignStatus),
        ) -> Result<CampaignOutcome> {
            run_campaign(spec, store, &self.pool, &self.gate, flags, None, on_status)
        }
    }

    /// What a ledger says was committed, in commit order:
    /// `(trial's configuration, resource, rep, sim_time bits, score bits)`.
    fn commit_sequence(store: &TrialStore) -> Vec<(Vec<f64>, usize, u64, u64, u64)> {
        let bits = |r: &fedstore::TrialRecord| {
            (
                r.config.values(),
                r.resource,
                r.rep,
                r.sim_time.to_bits(),
                r.noisy_score.to_bits(),
            )
        };
        store.records().iter().map(bits).collect()
    }

    #[test]
    fn every_lane_produces_the_same_outcome_and_commit_sequence() {
        // Two campaigns — async ASHA under the straggler cost model, and
        // barrier ASHA with re-evaluation (several reps of one trial in
        // flight at once) — through every lane the pump has: inline, a
        // scoped pool at 1 / 4 / 8 threads (and whatever `FEDTUNE_THREADS`
        // asks for), and the shared pool behind the fair gate. Async ASHA
        // runs once more under an evaluation cap, which the core enforces in
        // every lane alike. ASHA with re-evaluation runs once more batch by
        // batch under the barrier clock, standalone only: a spec always
        // describes a virtual service.
        let scale = ExperimentScale::smoke();
        let env_threads = ExecutionPolicy::from_env().pool_threads();
        let mut spec = spec("lanes", 23);
        spec.cost = CostSpec::HeavyTailedClients {
            clients: scale.clients_per_round * 10,
            per_round: scale.clients_per_round,
            seed: fedmath::rng::derive_seed(spec.seed, 11),
        };
        assert_eq!(spec.cost.build(), straggler_cost_model(&scale, spec.seed));
        let virtual_clock = Clock::Virtual(sim_of(&spec));
        let mut capped = spec.clone();
        capped.limits.max_evaluations = Some(10);
        for (spec, method, clock, halt) in [
            (&spec, TuningMethod::AsyncAsha, virtual_clock, None),
            (&spec, TuningMethod::AshaReEval, virtual_clock, None),
            (&spec, TuningMethod::AshaReEval, Clock::Barrier, None),
            (
                &capped,
                TuningMethod::AsyncAsha,
                virtual_clock,
                Some(Cap::Evaluations),
            ),
        ] {
            let scheduler = || method.scheduler(&scale).unwrap();
            let lane = |threads: usize| {
                let mut objective = build_objective(spec, TrialStore::in_memory()).unwrap();
                let outcome =
                    standalone_over(spec, clock, scheduler().as_mut(), &mut objective, threads)
                        .unwrap();
                assert_eq!(
                    objective.sink.campaign.len(),
                    outcome.outcome.num_evaluations()
                );
                (outcome, objective.sink.into_store())
            };

            let (reference, reference_store) = lane(0);
            assert_eq!(reference.halt, halt, "{method}");
            assert_eq!(reference.finished, halt.is_none(), "{method}");
            let reference_commits = commit_sequence(&reference_store);
            assert!(!reference_commits.is_empty());
            for threads in [1usize, 4, 8, env_threads] {
                let (outcome, store) = lane(threads);
                assert_eq!(outcome, reference, "{method}, {threads} threads");
                assert_eq!(
                    commit_sequence(&store),
                    reference_commits,
                    "{method}, {threads} threads"
                );
            }
            if clock == Clock::Barrier {
                assert!(reference.timeline.is_empty());
                assert!(
                    reference_commits.iter().all(|c| c.3 == 0f64.to_bits()),
                    "every barrier commit is stamped 0.0"
                );
                continue;
            }
            assert_eq!(reference_commits.len(), reference.timeline.len());

            let daemon = Daemon::new(4);
            let mut published = Vec::new();
            let served = drive(
                spec,
                scheduler().as_mut(),
                build_objective(spec, TrialStore::in_memory()).unwrap(),
                &daemon.pool,
                &daemon.gate,
                &CampaignFlags::default(),
                None,
                &mut |status| published.push(status.clone()),
            )
            .unwrap();
            assert_eq!(served.outcome, reference, "{method}: served");
            assert_eq!(
                served.outcome.sim_elapsed.to_bits(),
                reference.sim_elapsed.to_bits()
            );
            assert_eq!(commit_sequence(&served.store), reference_commits);
            let settled = &served.status;
            let state = halt.map_or(CampaignState::Completed, |_| BudgetExhausted);
            assert_eq!(settled.state, state, "{method}");
            assert_eq!(settled.evaluations, reference_commits.len() as u64);
            assert_eq!(settled.ledger_misses, settled.evaluations);
            assert_eq!(settled.ledger_hits, 0);
            // A virtual worker freed early can finish a later dispatch
            // sooner, so commit order is not time order: the published
            // clock still never runs backwards, and the last status a
            // running campaign published already says what it settles on.
            let clock: Vec<f64> = published.iter().map(|s| s.sim_elapsed).collect();
            assert!(
                clock.windows(2).all(|w| w[0] <= w[1]),
                "{method}: published sim_elapsed went backwards: {clock:?}"
            );
            let last = published.last().expect("a turn published a status");
            assert_eq!(last.state, CampaignState::Running);
            assert_eq!(last.selection, None);
            assert_eq!(
                CampaignStatus {
                    state: settled.state,
                    selection: settled.selection.clone(),
                    ..last.clone()
                },
                *settled,
                "{method}: the last published status is the settled one"
            );
            assert_eq!(last.sim_elapsed.to_bits(), settled.sim_elapsed.to_bits());
            assert_eq!(
                daemon.gate.global_in_flight(),
                0,
                "gate capacity fully released"
            );
        }
    }

    // -- Budget boundaries -------------------------------------------------

    /// What a budget pin records of a settled campaign.
    #[derive(Debug, PartialEq)]
    struct BudgetPin {
        evaluations: u64,
        resource_spent: u64,
        halt: Option<Cap>,
        state: CampaignState,
        finished: bool,
        /// FNV-1a over every delivered record's `(trial, resource, rep,
        /// score bits, sim_time bits)` and `sim_elapsed`'s bits.
        digest: u64,
    }

    fn budget_pin(out: &CampaignOutcome) -> BudgetPin {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in out.outcome.outcome.records() {
            fold(r.trial_id as u64);
            fold(r.resource as u64);
            fold(r.noise_rep);
            fold(r.score.to_bits());
            fold(r.sim_time.to_bits());
        }
        fold(out.outcome.sim_elapsed.to_bits());
        BudgetPin {
            evaluations: out.status.evaluations,
            resource_spent: out.status.resource_spent,
            halt: out.outcome.halt,
            state: out.status.state,
            finished: out.outcome.finished,
            digest,
        }
    }

    /// Serves `spec` twice on one daemon and returns its pin, after checking
    /// the two runs agree bit for bit.
    fn served_pin(spec: &CampaignSpec) -> BudgetPin {
        let daemon = Daemon::new(2);
        let flags = CampaignFlags::default();
        let run = || {
            daemon
                .run(spec, TrialStore::in_memory(), &flags, &mut |_| {})
                .unwrap()
        };
        let (first, again) = (run(), run());
        assert_eq!(again.outcome, first.outcome, "{}", spec.name);
        assert_eq!(daemon.gate.global_in_flight(), 0, "{}", spec.name);
        let pin = budget_pin(&first);
        assert_eq!(budget_pin(&again), pin, "{}", spec.name);
        pin
    }

    use CampaignState::BudgetExhausted;

    #[test]
    fn evaluation_budget_halts_deterministically() {
        let mut capped = spec("budget", 17);
        capped.limits.max_evaluations = Some(7);
        let expected = BudgetPin {
            evaluations: 7,
            resource_spent: 8,
            halt: Some(Cap::Evaluations),
            state: BudgetExhausted,
            finished: false,
            digest: 7810499346482292746,
        };
        assert_eq!(served_pin(&capped), expected);
    }

    #[test]
    fn resource_budget_halts_deterministically() {
        let mut capped = spec("rounds", 19);
        capped.limits.max_resource = Some(12);
        let expected = BudgetPin {
            evaluations: 11,
            resource_spent: 13,
            halt: Some(Cap::Rounds),
            state: BudgetExhausted,
            finished: false,
            digest: 17659933832709723897,
        };
        assert_eq!(served_pin(&capped), expected);
    }

    #[test]
    fn a_cap_of_zero_still_sends_one_wave() {
        // Nothing trips before the first wave is out: the four virtual
        // workers' first dispatches all run, commit and settle.
        let first_wave = |halt| BudgetPin {
            evaluations: 4,
            resource_spent: 4,
            halt: Some(halt),
            state: BudgetExhausted,
            finished: false,
            digest: 898831516722511309,
        };
        let mut zero = spec("zero", 17);
        zero.limits.max_evaluations = Some(0);
        assert_eq!(served_pin(&zero), first_wave(Cap::Evaluations));
        zero.limits = CampaignLimits {
            max_resource: Some(0),
            ..CampaignLimits::default()
        };
        assert_eq!(served_pin(&zero), first_wave(Cap::Rounds));
    }

    #[test]
    fn a_cap_at_the_schedules_exact_length_settles_exhausted_and_finished() {
        // The last wave reaches the cap: the schedule finishes, yet the
        // campaign settles on its budget.
        let mut exact = spec("exact", 17);
        let full = standalone(&exact, 0);
        assert_eq!(
            (
                full.outcome.num_evaluations(),
                full.outcome.total_resource()
            ),
            (17, 26)
        );
        let at_cap = |halt| BudgetPin {
            evaluations: 17,
            resource_spent: 26,
            halt: Some(halt),
            state: BudgetExhausted,
            finished: true,
            digest: 7306193510048649415,
        };
        exact.limits.max_evaluations = Some(17);
        assert_eq!(served_pin(&exact), at_cap(Cap::Evaluations));
        exact.limits = CampaignLimits {
            max_resource: Some(26),
            ..CampaignLimits::default()
        };
        assert_eq!(served_pin(&exact), at_cap(Cap::Rounds));
    }

    #[test]
    fn a_sim_deadline_crossed_with_work_outstanding_drains_it() {
        let mut deadline = spec("deadline", 17);
        let full = standalone(&deadline, 0);
        let cut = full.sim_elapsed / 3.0;
        deadline.sim_budget = Some(cut);
        let expected = BudgetPin {
            evaluations: 12,
            resource_spent: 14,
            halt: Some(Cap::SimSeconds),
            state: BudgetExhausted,
            finished: false,
            digest: 17639173697866040359,
        };
        assert_eq!(served_pin(&deadline), expected);
        // Every dispatch started before the deadline, and some were still
        // running across it: they drained rather than being dropped.
        let capped = standalone(&deadline, 0);
        assert_eq!(capped.outcome.num_evaluations(), 12);
        assert!(capped.timeline.iter().all(|span| span.start < cut));
        assert!(capped.timeline.iter().any(|span| span.end > cut));
    }

    #[test]
    fn stop_flag_settles_with_partial_outcome() {
        let spec = spec("stopped", 3);
        let daemon = Daemon::new(2);
        let flags = CampaignFlags::default();
        // Raised before the first step: the halt drains the first dispatch
        // wave and settles.
        flags.stop.store(true, Ordering::Relaxed);
        let outcome = daemon
            .run(&spec, TrialStore::in_memory(), &flags, &mut |_| {})
            .unwrap();
        assert_eq!(outcome.status.state, CampaignState::Stopped);
        assert_eq!(outcome.outcome.halt, None);
        assert!(!outcome.outcome.finished);
        assert!(
            outcome.status.evaluations < 30,
            "halt cut the schedule short"
        );
    }

    #[test]
    fn kill_flag_aborts_without_terminal_outcome() {
        let spec = spec("killed", 29);
        let daemon = Daemon::new(2);
        let flags = CampaignFlags::default();
        flags.kill.store(true, Ordering::Relaxed);
        let err = daemon
            .run(&spec, TrialStore::in_memory(), &flags, &mut |_| {})
            .unwrap_err();
        assert_eq!(err, ServeError::Killed);
        assert_eq!(
            daemon.gate.global_in_flight(),
            0,
            "guard released gate capacity"
        );
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
        let daemon = Daemon::new(2);
        let flags = CampaignFlags::default();
        let err = daemon
            .run(&rigged, TrialStore::in_memory(), &flags, &mut |_| {})
            .unwrap_err();
        assert_eq!(err, ServeError::EvalPanicked);
        // The pool survived the panic: a healthy campaign runs fine on the
        // same pool and gate afterwards.
        let healthy = spec("after-panic", 7);
        let outcome = daemon
            .run(&healthy, TrialStore::in_memory(), &flags, &mut |_| {})
            .unwrap();
        assert!(outcome.outcome.finished);
        assert_eq!(outcome.outcome, standalone(&healthy, 2));
    }

    /// Fails two trials of the first dispatch wave; above one worker the one
    /// dispatched first does not return before the other has failed.
    struct TwoFailures {
        inner: AnalyticEval,
        first: usize,
        second: usize,
        second_failed: Option<(Mutex<bool>, Condvar)>,
    }

    impl ConcurrentEval for TwoFailures {
        type State = usize;

        fn evaluate(
            &self,
            state: &mut usize,
            request: &TrialRequest,
        ) -> fedtune_core::Result<EvalOutput> {
            let trial = request.trial_id;
            if trial != self.first && trial != self.second {
                return self.inner.evaluate(state, request);
            }
            if let Some((failed, changed)) = &self.second_failed {
                let mut failed = failed.lock().unwrap();
                if trial == self.second {
                    *failed = true;
                    changed.notify_all();
                }
                while !*failed {
                    failed = changed.wait(failed).unwrap();
                }
            }
            Err(fedtune_core::CoreError::InvalidConfig {
                message: format!("rigged failure of trial {trial}"),
            })
        }
    }

    #[test]
    fn a_tenant_is_told_of_its_earliest_failing_dispatch_whatever_finished_first() {
        let spec = spec("two-failures", 7);
        let first_wave: Vec<usize> = standalone(&spec, 0).timeline[..4]
            .iter()
            .map(|span| span.trial as usize)
            .collect();
        for workers in [1usize, 4, 8] {
            let daemon = Daemon::new(workers);
            let rigged = TwoFailures {
                inner: AnalyticEval::new(&spec).unwrap(),
                first: first_wave[1],
                second: first_wave[2],
                second_failed: (workers > 1).then(Default::default),
            };
            let objective = RecordingObjective::new(
                rigged,
                &spec.build_space().unwrap(),
                spec.provenance(),
                TrialStore::in_memory(),
            );
            let mut published = 0u64;
            let result = drive(
                &spec,
                spec.build_scheduler().unwrap().as_mut(),
                objective,
                &daemon.pool,
                &daemon.gate,
                &CampaignFlags::default(),
                None,
                &mut |status| published = status.evaluations,
            );
            match result {
                Err(ServeError::Core { message }) => assert!(
                    message.contains(&format!("rigged failure of trial {}", first_wave[1])),
                    "{workers} workers: {message}"
                ),
                other => panic!("{workers} workers: {:?}", other.map(|o| o.status)),
            }
            // Only the dispatch ahead of the failure was ever committed.
            assert!(published <= 1, "{workers} workers: {published} published");
            assert_eq!(daemon.gate.global_in_flight(), 0);
        }
    }

    // -- The turn boundary ------------------------------------------------

    /// Tests on segment ledgers read or move the process-global `store.*`
    /// accounting, so every one of them holds this lock (the other tests in
    /// this binary keep their ledgers in memory and move none of it).
    static LEDGER_ACCOUNTING: Mutex<()> = Mutex::new(());

    pub(crate) fn ledger_accounting() -> MutexGuard<'static, ()> {
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

    type Eval = Arc<RecordingEval<AnalyticEval>>;
    type Job = EvalJob<Eval, usize>;
    type Sink = RecordingSink<usize, TrialStore>;

    /// A driver frozen mid-flight: the pump with its jobs held by the test,
    /// the real tenant, and a gate whose grants go to the test instead of
    /// the inbox.
    struct MidFlight<'a, 'p> {
        pump: Pump<'p, Eval, Sink, &'p dyn Fn(Job)>,
        core: ExecutorCore<'a>,
        tenant: Tenant<'a, AnalyticEval>,
        /// Admitted dispatches whose evaluation has not run yet.
        held: &'p RefCell<Vec<Job>>,
        published: &'a RefCell<Vec<CampaignStatus>>,
        /// The gate's grants, in the order it made them.
        granted: Vec<u64>,
        /// `(configuration, sim_completion bits)` per dispatch.
        dispatched: Vec<(Vec<f64>, u64)>,
    }

    impl MidFlight<'_, '_> {
        fn turn(&mut self) -> (Result<()>, Vec<CampaignStatus>) {
            let result = self.pump.turn(&mut self.core, &mut self.tenant);
            (result, self.published.take())
        }
    }

    /// Dispatches `k` evaluations of a random search over `store` through
    /// the tenant and stops the driver there: the first `admitted` are past
    /// the gate and held, not yet evaluated; the rest still await the grants
    /// the gate made (see [`MidFlight::granted`]).
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
        let clock = Clock::Virtual(sim_of(&spec));
        let RecordingObjective { eval, mut sink } = build_objective(&spec, store).unwrap();
        let eval = Arc::new(eval);
        let held = RefCell::new(Vec::new());
        let hold = |job| held.borrow_mut().push(job);
        let gate = FairGate::new(k);
        let config = DrrConfig {
            quantum: 1,
            max_in_flight: k,
            max_queued: k,
        };
        let granted = Arc::new(Mutex::new(Vec::new()));
        let grants = Arc::clone(&granted);
        let member = gate.register(config, move |ticket| grants.lock().unwrap().push(ticket));
        let published = RefCell::new(Vec::new());
        let mut on_status = |status: &CampaignStatus| published.borrow_mut().push(status.clone());
        let mut driver = MidFlight {
            pump: Pump::new(Arc::clone(&eval), &mut sink, &hold),
            core: ExecutorCore::new(
                scheduler.as_mut(),
                &space,
                &mut rng,
                clock,
                None,
                spec.budget(),
            )
            .unwrap(),
            tenant: Tenant {
                name: &spec.name,
                gate: &gate,
                member,
                flags: &CampaignFlags::default(),
                eval: &eval,
                on_status: &mut on_status,
                sim_elapsed: 0.0,
                halted_by: None,
            },
            held: &held,
            published: &published,
            granted: Vec::new(),
            dispatched: Vec::new(),
        };
        let ExecutorStep::Dispatch(batch) = driver.core.step().unwrap() else {
            panic!("a fresh campaign dispatches first");
        };
        assert_eq!(batch.len(), k);
        for d in batch {
            driver.dispatched.push((
                d.request.config.values().to_vec(),
                d.sim_completion.to_bits(),
            ));
            driver
                .pump
                .dispatch(d, &mut driver.core, &mut driver.tenant)
                .unwrap();
        }
        driver.granted = granted.lock().unwrap().clone();
        assert_eq!(driver.granted.len(), k, "the gate has room for all");
        if admitted > 0 {
            let admit = driver.pump.admitter();
            driver.granted[..admitted].iter().for_each(|&t| admit(t));
            // The grants alone make a turn: jobs start, nothing commits.
            let (result, published) = driver.turn();
            result.unwrap();
            assert!(published.is_empty());
            assert_eq!(held.borrow().len(), admitted);
        }
        body(&mut driver);
    }

    #[test]
    fn a_turn_costs_one_sync_however_many_completions_it_drains() {
        let _serial = ledger_accounting();
        for k in [1usize, 2, 7] {
            let dir = ledger_dir(&format!("drain{k}"));
            let store = TrialStore::open_segments(&dir).unwrap();
            mid_flight(k, k, store, |driver| {
                // Completions arrive in the reverse of dispatch order.
                for job in driver.held.borrow_mut().drain(..).rev() {
                    job.run(None);
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

                let ledger = driver.pump.sink().store();
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
                assert_eq!(driver.tenant.gate.global_in_flight(), 0, "slots released");
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_sync_fails_the_turn_and_publishes_nothing() {
        let _serial = ledger_accounting();
        let dirs = ["turn", "served", "standalone"].map(|t| ledger_dir(&format!("unsyncable_{t}")));
        mid_flight(2, 2, unsyncable_ledger(&dirs[0]), |driver| {
            for job in driver.held.borrow_mut().drain(..) {
                job.run(None);
            }
            let (result, published) = driver.turn();
            assert!(
                matches!(result, Err(ServeError::Store { .. })),
                "{result:?}"
            );
            assert!(published.is_empty(), "status ran ahead of the disk");
            assert_eq!(
                driver.pump.sink().store().unsynced(),
                2,
                "both staged, neither durable"
            );
        });

        // End to end: the error `Service::settle` turns into
        // `CampaignState::Failed`, and not one status update before it.
        let spec = spec("unsyncable", 13);
        let daemon = Daemon::new(2);
        let mut published = 0usize;
        let result = daemon.run(
            &spec,
            unsyncable_ledger(&dirs[1]),
            &CampaignFlags::default(),
            &mut |_| published += 1,
        );
        assert!(
            matches!(result, Err(ServeError::Store { .. })),
            "{:?}",
            result.map(|out| out.status)
        );
        assert_eq!(published, 0);
        assert_eq!(
            daemon.gate.global_in_flight(),
            0,
            "tenant released gate capacity"
        );

        // The standalone lanes end their turns through the same sink.
        for threads in [1usize, 2] {
            let mut scheduler = spec.build_scheduler().unwrap();
            let mut objective = build_objective(&spec, unsyncable_ledger(&dirs[2])).unwrap();
            let clock = Clock::Virtual(sim_of(&spec));
            let err = standalone_over(&spec, clock, scheduler.as_mut(), &mut objective, threads)
                .unwrap_err();
            assert!(err.to_string().contains("injected sync failure"), "{err}");
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_misbehaving_gate_fails_the_campaign_without_panicking() {
        // The same ticket granted twice: the second finds nothing waiting.
        mid_flight(1, 0, TrialStore::in_memory(), |driver| {
            let admit = driver.pump.admitter();
            admit(driver.granted[0]);
            admit(driver.granted[0]);
            let (result, _) = driver.turn();
            match result {
                Err(ServeError::Core { message }) => {
                    assert!(message.contains("awaiting admission is None"), "{message}")
                }
                other => panic!("double grant: {other:?}"),
            }
        });
        // A grant out of enqueue order must not submit the wrong dispatch.
        mid_flight(2, 0, TrialStore::in_memory(), |driver| {
            driver.pump.admitter()(driver.granted[1]);
            let (result, _) = driver.turn();
            match result {
                Err(ServeError::Core { message }) => {
                    assert!(message.contains("awaiting admission is Some"), "{message}")
                }
                other => panic!("out-of-order grant: {other:?}"),
            }
            assert!(driver.held.borrow().is_empty());
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
        let daemon = Daemon::new(4);
        let mut scheduler = DurableBeforeVisible {
            inner: spec.build_scheduler().unwrap(),
            unsynced: &process_unsynced,
            reports: 0,
        };
        let mut published = 0u64;
        let served = drive(
            &spec,
            &mut scheduler,
            build_objective(&spec, TrialStore::open_segments(&dir).unwrap()).unwrap(),
            &daemon.pool,
            &daemon.gate,
            &CampaignFlags::default(),
            None,
            &mut |status| {
                assert_eq!(process_unsynced(), 0, "status ran ahead of the disk");
                assert!(status.evaluations > published, "a turn publishes once");
                published = status.evaluations;
            },
        )
        .unwrap();
        assert_eq!(served.outcome, reference);
        let evaluations = served.status.evaluations;
        assert_eq!(scheduler.reports as u64, evaluations);
        assert_eq!(published, evaluations);
        assert_eq!(served.store.len() as u64, evaluations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The recording sink behind a mirror of its ledger's unsynced count,
    /// refreshed after every call that can move it.
    struct MirroredSink {
        inner: Sink,
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
        eval: RecordingEval<AnalyticEval>,
        sink: MirroredSink,
    }

    impl ConcurrentObjective for Mirrored {
        type State = usize;
        type Eval = RecordingEval<AnalyticEval>;
        type Sink = MirroredSink;

        fn split(&mut self) -> (&Self::Eval, &mut MirroredSink) {
            (&self.eval, &mut self.sink)
        }
    }

    #[test]
    fn the_standalone_driver_syncs_before_the_scheduler_sees_a_result() {
        let _serial = ledger_accounting();
        let spec = spec("durable-standalone", 41);
        let reference = standalone(&spec, 4);
        let dir = ledger_dir("durable_standalone");
        let RecordingObjective { eval, sink } =
            build_objective(&spec, TrialStore::open_segments(&dir).unwrap()).unwrap();
        let unsynced = Arc::new(AtomicU64::new(0));
        let mut objective = Mirrored {
            eval,
            sink: MirroredSink {
                inner: sink,
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
        let clock = Clock::Virtual(sim_of(&spec));
        let outcome = standalone_over(&spec, clock, &mut scheduler, &mut objective, 4).unwrap();
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
        let daemon = Daemon::new(4);
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
                let first = daemon.run(
                    &spec,
                    TrialStore::open_segments(&dir).unwrap(),
                    &flags,
                    &mut |status| {
                        turns += 1;
                        published = status.evaluations;
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
                assert_eq!(daemon.gate.global_in_flight(), 0);

                // Second life: only the ledger survives.
                let resumed = daemon
                    .run(
                        &spec,
                        TrialStore::open_segments(&dir).unwrap(),
                        &CampaignFlags::default(),
                        &mut |_| {},
                    )
                    .unwrap();
                assert_eq!(resumed.outcome, reference, "seed {seed}, turn {kill_at}");
                assert_eq!(
                    resumed.outcome.sim_elapsed.to_bits(),
                    reference.sim_elapsed.to_bits()
                );
                let resumed = &resumed.status;
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
