//! Wall-clock throughput of the event-driven executor: the inline driver
//! (every evaluation on the calling thread, one after another) versus the
//! same pump with its jobs on the persistent real thread pool.
//!
//! The campaign is async ASHA under heavy-tailed virtual stragglers — the
//! workload the concurrent driver exists for: up to eight virtual trials in
//! flight at every instant. Each evaluation *sleeps* for its virtual
//! duration scaled down to a real latency, modeling what federated
//! hyperparameter tuning actually waits on — remote clients training between
//! server rounds — rather than local CPU work. That makes the benchmark
//! honest on any host, **including a single-core container**: the speedup
//! comes from latency hiding (eight sleeps overlapped on eight real
//! threads), not from multiplying CPU throughput, so it holds wherever
//! `std::thread` can park eight sleepers at once.
//!
//! The inline driver serializes every sleep (its wall clock is the sum of
//! all evaluation latencies); the concurrent driver overlaps all in-flight
//! trials, so its wall clock tracks the virtual critical path instead. The
//! bench asserts the outcomes are **bit-identical** before comparing clocks,
//! and asserts the 8-thread speedup is at least [`SPEEDUP_FLOOR`].
//!
//! Two more entries guard the scheduler's own cost: async ASHA (η 3,
//! resources 1..=81) at 243 and at 2187 trials over the same evaluation with
//! no sleep, inline, so the wall clock is the scheduler plus the executor
//! core. The bench asserts that the wall per evaluation at 2187 trials is
//! under [`SCHEDULER_COST_RATIO_CEILING`] times that at 243 — a ratio of two
//! runs on one host, so it holds on any host. A scheduler that sorts a whole
//! rung on every poll grows by ≈ 9× between the two (measured on a 2-vCPU
//! x86-64 host).
//!
//! With `FEDTUNE_BENCH_JSON=1` the summary lands in
//! `BENCH_executor_throughput.json`, which CI's `executor-smoke` job gates
//! against the committed baseline via `perf_compare` (a >30% throughput drop
//! fails). Sleep-backed entries are stable under CI noise because the
//! measured time is parked, not scheduled; the two scheduler-cost entries are
//! CPU-bound and keep the best of [`SCHEDULER_COST_REPS`] runs.

use criterion::{criterion_group, criterion_main, Criterion};
use fedhpo::{Asha, Scheduler, SearchSpace, TrialRequest};
use fedsim::clock::{ClientRuntimeModel, CostModel};
use fedtune_core::{
    drive, Clock, ConcurrentEval, ConcurrentObjective, ConcurrentSink, Drive, EvalOutput,
    EventDrivenOutcome, Result as CoreResult, VirtualExecution,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Virtual workers, and the real thread count the headline entry uses: the
/// concurrent driver can only overlap as many evaluations as the virtual
/// service keeps in flight.
const VIRTUAL_WORKERS: usize = 8;

/// Target total evaluation latency of the whole campaign, in real seconds.
/// The inline driver pays roughly this much wall clock; the concurrent
/// driver overlaps it across threads.
const TARGET_TOTAL_SLEEP: f64 = 6.0;

/// The committed floor on the 8-thread speedup over the inline driver.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Trials of the two scheduler-cost campaigns: the second is nine times the
/// first.
const SCHEDULER_COST_TRIALS: [usize; 2] = [243, 2187];

/// The committed ceiling on the per-evaluation wall of the larger
/// scheduler-cost campaign over that of the smaller.
const SCHEDULER_COST_RATIO_CEILING: f64 = 3.0;

/// Runs of each scheduler-cost campaign; the fastest is recorded.
const SCHEDULER_COST_REPS: usize = 5;

fn ladder() -> Asha {
    Asha::asynchronous(24, 3, 1, 9).unwrap()
}

fn straggler_sim() -> VirtualExecution {
    let cost = CostModel::HeterogeneousClients(ClientRuntimeModel::heavy_tailed(80, 8, 23));
    VirtualExecution::new(VIRTUAL_WORKERS, cost)
}

fn space_1d() -> SearchSpace {
    SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
}

fn analytic_score(request: &TrialRequest) -> f64 {
    let x = request.config.values()[0];
    (x - 0.3).abs() + 1.0 / (request.resource as f64 + 1.0)
}

/// The `Sync` half: scores analytically and sleeps for the evaluation's
/// virtual duration scaled into real seconds — the remote-client latency the
/// tuning service waits on. Purity contract: both the score and the sleep
/// are functions of `(request coordinates, trained rounds so far)` only.
struct LatencyEval {
    space: SearchSpace,
    cost: CostModel,
    time_scale: f64,
}

impl ConcurrentEval for LatencyEval {
    type State = usize;

    fn evaluate(&self, trained: &mut usize, request: &TrialRequest) -> CoreResult<EvalOutput> {
        let fingerprint = self.space.canonical_fingerprint(&request.config)?;
        let already = *trained;
        let reached = already.max(request.resource);
        let virtual_seconds = self.cost.evaluation_seconds(fingerprint, already, reached);
        if self.time_scale > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(virtual_seconds * self.time_scale));
        }
        *trained = reached;
        Ok(EvalOutput {
            noisy_score: analytic_score(request),
            true_error: analytic_score(request),
        })
    }
}

/// Driver-thread half: parks each trial's trained-rounds mirror between
/// dispatches. What a campaign committed is its outcome, compared whole.
#[derive(Default)]
struct LatencySink {
    trained: HashMap<usize, usize>,
}

impl ConcurrentSink for LatencySink {
    type State = usize;

    fn take_state(&mut self, trial_id: usize) -> usize {
        self.trained.remove(&trial_id).unwrap_or(0)
    }

    fn put_state(&mut self, trial_id: usize, state: usize) {
        self.trained.insert(trial_id, state);
    }

    fn commit(&mut self, _request: &TrialRequest, _output: &EvalOutput, _sim_time: f64) {}
}

struct LatencyObjective {
    eval: LatencyEval,
    sink: LatencySink,
}

impl LatencyObjective {
    fn new(time_scale: f64) -> Self {
        LatencyObjective {
            eval: LatencyEval {
                space: space_1d(),
                cost: straggler_sim().cost,
                time_scale,
            },
            sink: LatencySink::default(),
        }
    }
}

impl ConcurrentObjective for LatencyObjective {
    type State = usize;
    type Eval = LatencyEval;
    type Sink = LatencySink;

    fn split(&mut self) -> (&LatencyEval, &mut LatencySink) {
        (&self.eval, &mut self.sink)
    }
}

/// One full campaign of the async-ASHA `ladder` on `threads` real threads — at one, every
/// evaluation inline on the calling thread, every sleep serialized —
/// returning the outcome and its wall clock.
fn campaign_of(mut ladder: Asha, threads: usize, time_scale: f64) -> (EventDrivenOutcome, f64) {
    let scheduler: &mut dyn Scheduler = &mut ladder;
    let mut objective = LatencyObjective::new(time_scale);
    let space = space_1d();
    let mut rng = fedmath::rng::rng_for(9, 0);
    let config = Drive {
        threads,
        ..Drive::new(Clock::Virtual(straggler_sim()))
    };
    let start = Instant::now();
    let outcome = drive(scheduler, &space, &mut objective, &mut rng, &config).unwrap();
    let wall = start.elapsed().as_secs_f64();
    assert!(outcome.finished);
    (outcome, wall)
}

/// [`campaign_of`] the straggler bench's own ladder.
fn campaign(threads: usize, time_scale: f64) -> (EventDrivenOutcome, f64) {
    campaign_of(ladder(), threads, time_scale)
}

/// The fastest of [`SCHEDULER_COST_REPS`] inline, sleep-free async-ASHA
/// campaigns over `trials` configurations: wall seconds and evaluations.
fn scheduler_cost(trials: usize) -> (f64, u64) {
    let ladder = Asha::asynchronous(trials, 3, 1, 81).unwrap();
    let runs: Vec<(EventDrivenOutcome, f64)> = (0..SCHEDULER_COST_REPS)
        .map(|_| campaign_of(ladder.clone(), 1, 0.0))
        .collect();
    assert!(runs.iter().all(|(outcome, _)| *outcome == runs[0].0));
    let wall = runs.iter().map(|&(_, wall)| wall).fold(f64::MAX, f64::min);
    (wall, runs[0].0.outcome.num_evaluations() as u64)
}

fn regenerate() {
    let mut summary = fedbench::BenchSummary::new("executor_throughput");

    // Calibrate the virtual→real latency scale from a dry run (no sleeps):
    // total virtual busy time comes from the timeline, which is identical
    // for every driver and thread count.
    let (dry, _) = campaign(1, 0.0);
    let total_virtual: f64 = dry.timeline.iter().map(|s| s.end - s.start).sum();
    assert!(total_virtual > 0.0);
    let time_scale = TARGET_TOTAL_SLEEP / total_virtual;
    let evals = dry.outcome.num_evaluations() as u64;
    println!(
        "campaign: {evals} evaluations, {:.1} virtual busy seconds, \
         time scale {time_scale:.6} real s per virtual s",
        total_virtual
    );

    // The blocking reference: every evaluation latency paid in sequence.
    let (blocking, blocking_wall) = campaign(1, time_scale);
    assert_eq!(blocking, dry, "sleeping must not move a bit");
    summary.push("campaign_blocking_1thread", blocking_wall, evals);

    // The concurrent driver at 4 and 8 real threads: same bits — the whole
    // outcome, the rounds every record was charged included — less wall.
    let mut speedup_8 = 0.0;
    for threads in [4usize, 8] {
        let (concurrent, wall) = campaign(threads, time_scale);
        assert_eq!(
            concurrent, blocking,
            "{threads} threads: concurrent outcome diverged from blocking"
        );
        summary.push(
            &format!("campaign_concurrent_{threads}threads"),
            wall,
            evals,
        );
        let speedup = blocking_wall / wall;
        println!(
            "{threads} threads: {wall:.2}s wall vs blocking {blocking_wall:.2}s \
             — {speedup:.2}x"
        );
        if threads == 8 {
            speedup_8 = speedup;
        }
    }
    assert!(
        speedup_8 >= SPEEDUP_FLOOR,
        "8-thread concurrent evaluation must be at least {SPEEDUP_FLOOR}x \
         the inline driver, got {speedup_8:.2}x"
    );
    // Gate the ratio itself: throughput_per_second of this entry is the
    // speedup ×1000, so perf_compare's 30% window tracks it directly.
    summary.push("speedup_8threads_x1000", 1.0, (speedup_8 * 1000.0) as u64);

    // The scheduler's own cost must grow far slower than the campaign.
    let per_evaluation = SCHEDULER_COST_TRIALS.map(|trials| {
        let (wall, evals) = scheduler_cost(trials);
        summary.push(
            &format!("async_asha_{trials}_trials_no_latency"),
            wall,
            evals,
        );
        let per_evaluation = wall / evals as f64;
        println!(
            "async asha, {trials} trials: {evals} evaluations in {wall:.4}s, \
             {:.2} us per evaluation",
            per_evaluation * 1e6
        );
        per_evaluation
    });
    let ratio = per_evaluation[1] / per_evaluation[0];
    assert!(
        ratio < SCHEDULER_COST_RATIO_CEILING,
        "wall per evaluation at {} trials must stay under {SCHEDULER_COST_RATIO_CEILING}x \
         that at {}, got {ratio:.2}x",
        SCHEDULER_COST_TRIALS[1],
        SCHEDULER_COST_TRIALS[0]
    );
    summary.headline("sim_elapsed", blocking.sim_elapsed);
    summary.headline(
        "trials_per_sim_hour",
        evals as f64 / (blocking.sim_elapsed / 3600.0),
    );
    summary.write_if_enabled();
}

fn bench(c: &mut Criterion) {
    regenerate();

    // Micro: pure executor machinery — the same campaign with zero latency,
    // measuring sans-io poll/dispatch/deliver overhead per evaluation.
    let mut group = c.benchmark_group("executor_throughput");
    group.sample_size(10);
    group.bench_function("campaign_overhead_no_latency", |b| {
        b.iter(|| campaign(1, 0.0))
    });
    group.bench_function("campaign_overhead_concurrent_8threads", |b| {
        b.iter(|| campaign(8, 0.0))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
