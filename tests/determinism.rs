//! Cross-policy determinism: the parallel execution engine must produce
//! **bit-identical** results to sequential execution, at every layer of the
//! stack, across seeds and thread counts.
//!
//! This is the contract that makes the `ExecutionPolicy` knob safe to flip in
//! production: parallelism may only change wall-clock time, never a single
//! bit of a model parameter or an experiment statistic. There is one level
//! of it — trials fan out, and a trial's rounds and validation passes run on
//! the thread that owns it — so a round or a pass is pinned by running it on
//! the worker threads of a parallel `TrialRunner` against the calling thread.

use feddata::{Benchmark, DatasetSpec, Scale};
use fedmodels::{Model, ModelSpec};
use fedpop::{
    train_on_population, CachedPopulation, ClientCache, CohortSampler, Population, PopulationSpec,
    SyntheticPopulation,
};
use fedsim::clock::VirtualClock;
use fedsim::{ExecutionPolicy, FederatedTrainer, TrainerConfig};
use fedtune_core::experiments::heterogeneity::{
    run_data_heterogeneity, run_min_client_scatter, run_systems_heterogeneity,
};
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune_core::experiments::privacy::run_privacy_sweep;
use fedtune_core::experiments::proxy::{run_proxy_matrix, run_proxy_vs_noisy, run_transfer_pairs};
use fedtune_core::experiments::space_ablation::run_space_ablation;
use fedtune_core::experiments::stragglers::straggler_cost_model;
use fedtune_core::experiments::subsampling::{run_budget_curves, run_subsampling_sweep};
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, ConfigPool, Drive, EventDrivenOutcome,
    ExperimentScale, NoiseConfig, ObjectiveLogEntry, TrainedBenchmark, TrialRunner,
    VirtualExecution,
};

const SEEDS: [u64; 3] = [0, 7, 42];
const THREAD_COUNTS: [usize; 3] = [2, 3, 8];

/// `work` once per worker of a `parallel_with(threads)` runner: each copy runs
/// inside `run_trials` on a worker thread of its own, with that thread's
/// scratch (kernel buffer pools, `gemm_nt` pack buffers) rather than the
/// calling thread's.
fn on_worker_threads<T: Send>(threads: usize, work: impl Fn() -> T + Sync) -> Vec<T> {
    let caller = std::thread::current().id();
    TrialRunner::new(ExecutionPolicy::parallel_with(threads))
        .run_trials(0, threads, |_| {
            assert_ne!(std::thread::current().id(), caller);
            Ok(work())
        })
        .unwrap()
}

fn assert_bits_equal(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: parameter {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn training_run_is_bit_identical_across_policies() {
    let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
        .generate(1)
        .unwrap();
    let config = TrainerConfig {
        clients_per_round: 7,
        ..Default::default()
    };
    for &seed in &SEEDS {
        let train = || {
            FederatedTrainer::new(config)
                .unwrap()
                .train(&dataset, ModelSpec::Mlp { hidden_dim: 8 }, 8, seed)
                .unwrap()
                .model()
                .params()
        };
        let calling_thread = train();
        for &threads in &THREAD_COUNTS {
            for (worker, params) in on_worker_threads(threads, train).iter().enumerate() {
                assert_bits_equal(
                    &format!("seed {seed}, worker {worker} of {threads}"),
                    &calling_thread,
                    params,
                );
            }
        }
    }
}

#[test]
fn kernel_sized_training_run_is_bit_identical_across_policies() {
    // Same contract as above, but at shapes that drive the fedmath kernels
    // through their full blocking machinery: hidden_dim 64 spans four
    // 16-column register tiles in `gemm`/`gemm_tn`, and an explicit
    // batch_size of 32 exercises both full minibatch GEMMs and the smaller
    // final chunk of each client's shard. The worker thread a run lands on
    // must stay invisible even when every hot-path kernel is engaged.
    let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
        .generate(4)
        .unwrap();
    let mut hyperparams = fedsim::FederatedHyperparams::default();
    hyperparams.client.batch_size = 32;
    let config = TrainerConfig {
        clients_per_round: 5,
        hyperparams,
        ..Default::default()
    };
    for &seed in &SEEDS {
        let train = || {
            FederatedTrainer::new(config)
                .unwrap()
                .train(&dataset, ModelSpec::Mlp { hidden_dim: 64 }, 4, seed)
                .unwrap()
                .model()
                .params()
        };
        let calling_thread = train();
        for &threads in &THREAD_COUNTS {
            for (worker, params) in on_worker_threads(threads, train).iter().enumerate() {
                assert_bits_equal(
                    &format!("kernel-sized run, seed {seed}, worker {worker} of {threads}"),
                    &calling_thread,
                    params,
                );
            }
        }
    }
}

#[test]
fn incremental_parallel_training_matches_one_shot_sequential() {
    // Resuming a run on a worker thread must land on the same model as a
    // fresh one-shot run on the calling thread: round seeds are positional,
    // not consumed.
    let dataset = DatasetSpec::benchmark(Benchmark::FemnistLike, Scale::Smoke)
        .generate(2)
        .unwrap();
    let trainer = FederatedTrainer::new(TrainerConfig::default()).unwrap();
    for &seed in &SEEDS {
        let one_shot = trainer
            .train(&dataset, ModelSpec::Softmax, 6, seed)
            .unwrap();
        let resumed = on_worker_threads(4, || {
            let mut resumed = trainer.start(&dataset, ModelSpec::Softmax, seed).unwrap();
            resumed.run_rounds(&dataset, 2).unwrap();
            resumed.run_rounds(&dataset, 4).unwrap();
            resumed.model().params()
        });
        for (worker, params) in resumed.iter().enumerate() {
            assert_bits_equal(
                &format!("seed {seed}, worker {worker}"),
                &one_shot.model().params(),
                params,
            );
        }
    }
}

#[test]
fn config_pool_training_is_bit_identical_across_policies() {
    let scale = ExperimentScale::smoke();
    for &seed in &SEEDS {
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
        let sequential =
            ConfigPool::train(&TrialRunner::sequential(), &ctx, scale.pool_size, seed).unwrap();
        for &threads in &THREAD_COUNTS {
            let runner = TrialRunner::new(ExecutionPolicy::parallel_with(threads));
            let parallel = ConfigPool::train(&runner, &ctx, scale.pool_size, seed).unwrap();
            assert_eq!(sequential.len(), parallel.len());
            assert_bits_equal(
                &format!("pool errors, seed {seed}, {threads} threads"),
                &sequential.true_errors(),
                &parallel.true_errors(),
            );
            for (a, b) in sequential.entries().iter().zip(parallel.entries()) {
                assert_eq!(a.config, b.config, "seed {seed}, {threads} threads");
                assert_bits_equal(
                    &format!("pooled model {}, seed {seed}", a.index),
                    &a.model.params(),
                    &b.model.params(),
                );
            }
        }
    }
}

#[test]
fn subsampling_experiment_is_bit_identical_across_policies() {
    // A full experiment end to end: pool training plus the Fig. 3 bootstrap
    // sweep over it.
    let scale = ExperimentScale::smoke();
    for &seed in &SEEDS {
        let sweep = |runner: &TrialRunner| {
            let trained =
                TrainedBenchmark::train(runner, Benchmark::Cifar10Like, &scale, seed).unwrap();
            run_subsampling_sweep(runner, &trained).unwrap()
        };
        assert_eq!(
            sweep(&TrialRunner::sequential()),
            sweep(&TrialRunner::new(ExecutionPolicy::parallel_with(4))),
            "seed {seed}"
        );
    }
}

#[test]
fn pooled_noise_figures_are_bit_identical_across_policies() {
    // Every pooled figure end to end — the pool set trained on the runner,
    // then re-evaluation and every bootstrap over it — plus Fig. 13's own
    // pools, one seed and one thread count each.
    let (scale, seed) = (ExperimentScale::smoke(), 7);
    let sets = [
        TrialRunner::sequential(),
        TrialRunner::new(ExecutionPolicy::parallel_with(4)),
    ]
    .map(|runner| {
        let trained = TrainedBenchmark::train_all(&runner, &scale, seed).unwrap();
        (runner, trained)
    });
    /// `run` over the sequentially trained set and over the one trained on
    /// four threads, each on its own runner, gives equal results.
    fn check<T: PartialEq + std::fmt::Debug>(
        figure: &str,
        sets: &[(TrialRunner, Vec<TrainedBenchmark>); 2],
        run: impl Fn(&TrialRunner, &[TrainedBenchmark]) -> T,
    ) {
        let [sequential, parallel] = sets
            .each_ref()
            .map(|(runner, trained)| run(runner, trained));
        assert_eq!(sequential, parallel, "{figure}");
    }
    check("fig 4", &sets, |r, t| {
        run_data_heterogeneity(r, &t[0]).unwrap()
    });
    check("fig 5", &sets, |r, t| run_budget_curves(r, &t[0]).unwrap());
    check("fig 6", &sets, |r, t| {
        run_systems_heterogeneity(r, &t[0]).unwrap()
    });
    check("fig 7", &sets, |_, t| run_min_client_scatter(&t[0]));
    check("fig 9", &sets, |r, t| run_privacy_sweep(r, &t[0]).unwrap());
    check("fig 10 / 14", &sets, |_, t| run_transfer_pairs(t).unwrap());
    check("fig 11", &sets, |r, t| run_proxy_matrix(r, t).unwrap());
    check("fig 12", &sets, |r, t| {
        run_proxy_vs_noisy(r, &t[0], t).unwrap()
    });
    check("fig 13", &sets, |r, _| {
        run_space_ablation(r, Benchmark::Cifar10Like, &scale, seed).unwrap()
    });
}

#[test]
fn method_comparison_is_bit_identical_across_policies() {
    // The live-training campaign (RS/TPE/HB/BOHB × noise settings × trials):
    // heavier, so one seed and one thread count.
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let sequential = run_method_comparison(
        &TrialRunner::sequential(),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::ALL,
        &noise_settings,
        3,
    )
    .unwrap();
    let parallel = run_method_comparison(
        &TrialRunner::new(ExecutionPolicy::parallel_with(4)),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::ALL,
        &noise_settings,
        3,
    )
    .unwrap();
    assert_eq!(sequential, parallel);
}

#[test]
fn scheduled_campaigns_are_bit_identical_across_policies() {
    // The ask/tell scheduler driver: ASHA and the re-evaluation policy fan
    // whole batches out across threads, with per-request positional noise.
    // Parallel batch execution must reproduce sequential execution bit for
    // bit across seeds and forced thread counts.
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let methods = [TuningMethod::Asha, TuningMethod::AshaReEval];
    for &seed in &SEEDS {
        let sequential = run_method_comparison(
            &TrialRunner::sequential(),
            Benchmark::Cifar10Like,
            &scale,
            &methods,
            &noise_settings,
            seed,
        )
        .unwrap();
        for &threads in &THREAD_COUNTS {
            let parallel = run_method_comparison(
                &TrialRunner::new(ExecutionPolicy::parallel_with(threads)),
                Benchmark::Cifar10Like,
                &scale,
                &methods,
                &noise_settings,
                seed,
            )
            .unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn scheduled_extended_comparison_is_bit_identical_across_policies() {
    // The full Fig. 8-style comparison (all six methods) through the batch
    // driver: heavier, so one seed and one thread count.
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let sequential = run_method_comparison(
        &TrialRunner::sequential(),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &noise_settings,
        11,
    )
    .unwrap();
    let parallel = run_method_comparison(
        &TrialRunner::new(ExecutionPolicy::parallel_with(4)),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &noise_settings,
        11,
    )
    .unwrap();
    assert_eq!(sequential, parallel);
}

/// One campaign of `method` over the paper's noisy evaluation, driven as
/// `config` says. Returns the outcome and the objective log.
fn campaign(
    ctx: &BenchmarkContext,
    method: TuningMethod,
    seed: u64,
    config: &Drive,
) -> (EventDrivenOutcome, Vec<ObjectiveLogEntry>) {
    let scale = ExperimentScale::smoke();
    let mut scheduler = method.scheduler(&scale).unwrap();
    let mut objective = BatchFederatedObjective::new(
        ctx,
        NoiseConfig::paper_noisy(),
        method.planned_evaluations(&scale),
        fedmath::rng::derive_seed(seed, 0),
    )
    .unwrap();
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let outcome = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut objective,
        &mut rng,
        config,
    )
    .unwrap();
    assert!(outcome.finished);
    (outcome, objective.log(config.threads).unwrap())
}

/// One async-ASHA campaign under the virtual clock with heavy-tailed
/// simulated client runtimes — inline at one thread, on a scoped pool of
/// the policy's threads otherwise — and (optionally) observed by `trace`.
/// Records come in virtual completion order, stamped with sim times.
fn event_driven_campaign(
    ctx: &BenchmarkContext,
    policy: ExecutionPolicy,
    seed: u64,
    trace: Option<&fedtrace::Trace>,
) -> (EventDrivenOutcome, Vec<ObjectiveLogEntry>) {
    let sim = VirtualExecution::new(3, straggler_cost_model(&ExperimentScale::smoke(), seed));
    let config = Drive {
        threads: policy.pool_threads(),
        trace,
        ..Drive::new(Clock::Virtual(sim))
    };
    campaign(ctx, TuningMethod::AsyncAsha, seed, &config)
}

/// The two runs are the same bits: outcome and log, every score and
/// virtual timestamp, and the elapsed virtual time.
fn assert_same_bits(
    label: &str,
    (a, a_log): &(EventDrivenOutcome, Vec<ObjectiveLogEntry>),
    (b, b_log): &(EventDrivenOutcome, Vec<ObjectiveLogEntry>),
) {
    assert_eq!(a, b, "{label}: outcome diverged");
    assert_eq!(a_log, b_log, "{label}: log diverged");
    for (x, y) in a.outcome.records().iter().zip(b.outcome.records()) {
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}");
        assert_eq!(x.sim_time.to_bits(), y.sim_time.to_bits(), "{label}");
    }
    assert_eq!(a.sim_elapsed.to_bits(), b.sim_elapsed.to_bits(), "{label}");
}

#[test]
fn both_clocks_evaluate_the_same_live_campaign() {
    // One driver, two delivery rules: ASHA with re-evaluation on real
    // training under the barrier clock and under a unit-cost virtual clock
    // evaluates the same points to the same bits and selects the same
    // configuration, inline and on a pool.
    let seed = 7;
    let ctx =
        BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), seed).unwrap();
    let run = |clock: Clock, threads: usize| {
        let config = Drive {
            threads,
            ..Drive::new(clock)
        };
        campaign(&ctx, TuningMethod::AshaReEval, seed, &config)
    };
    let barrier = run(Clock::Barrier, 1);
    assert!(barrier.0.timeline.is_empty() && barrier.0.sim_elapsed == 0.0);
    assert!(barrier.1.iter().all(|e| e.sim_time == 0.0));
    // The evaluation multiset with score bits, and the selection.
    let summary = |(run, log): &(EventDrivenOutcome, Vec<ObjectiveLogEntry>)| {
        let mut points: Vec<_> = run
            .outcome
            .records()
            .iter()
            .map(|r| (r.trial_id, r.resource, r.noise_rep, r.score.to_bits()))
            .collect();
        points.sort_unstable();
        let pick = fedtune_core::selected_true_error(log, usize::MAX).unwrap();
        (points, pick.to_bits())
    };
    let unit = Clock::Virtual(VirtualExecution::new(4, fedtune_core::CostModel::Unit));
    for threads in [1usize, 4] {
        assert_same_bits("barrier", &barrier, &run(Clock::Barrier, threads));
        assert_eq!(
            summary(&run(unit, threads)),
            summary(&barrier),
            "{threads} threads"
        );
    }
}

#[test]
fn event_driven_campaigns_are_bit_identical_across_policies() {
    // The tentpole contract: the event-driven executor's entire result —
    // scores, completion order, and every virtual timestamp — is a pure
    // function of the schedule and cost model, so real thread counts change
    // nothing. Three seeds × three forced thread counts against the
    // sequential reference.
    for &seed in &SEEDS {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), seed).unwrap();
        let sequential = event_driven_campaign(&ctx, ExecutionPolicy::Sequential, seed, None);
        assert!(sequential.0.sim_elapsed > 0.0);
        for &threads in &THREAD_COUNTS {
            let policy = ExecutionPolicy::parallel_with(threads);
            let parallel = event_driven_campaign(&ctx, policy, seed, None);
            assert_same_bits(
                &format!("seed {seed}, {threads} threads"),
                &sequential,
                &parallel,
            );
        }
    }
}

#[test]
fn concurrent_executor_matches_blocking_driver_bit_for_bit() {
    // The real-parallelism contract: evaluating every in-flight virtual
    // trial concurrently on real threads may change wall-clock time only.
    // Outcome, virtual timeline, and campaign log (committed in dispatch
    // order in both lanes) are bit-identical to the inline run at 1 thread
    // and on a scoped pool of 4 and 8 real threads, across seeds.
    for &seed in &SEEDS {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), seed).unwrap();
        let inline = event_driven_campaign(&ctx, ExecutionPolicy::Sequential, seed, None);
        for threads in [1usize, 4, 8] {
            let policy = ExecutionPolicy::parallel_with(threads);
            let concurrent = event_driven_campaign(&ctx, policy, seed, None);
            assert_same_bits(
                &format!("seed {seed}, {threads} threads"),
                &inline,
                &concurrent,
            );
        }
    }
}

#[test]
fn tracing_is_accounting_never_semantics() {
    // The fedtrace contract: attaching a trace — metrics registered,
    // counters incremented, wall slices recorded — must not move a
    // single bit of the campaign result, across seeds and thread counts.
    // The traced run's Chrome timeline export must also be byte-identical
    // to one rendered from the untraced run's spans, because the timeline
    // is part of the outcome, not a tracing side effect.
    for &seed in &SEEDS {
        let ctx =
            BenchmarkContext::new(Benchmark::Cifar10Like, &ExperimentScale::smoke(), seed).unwrap();
        let untraced = event_driven_campaign(&ctx, ExecutionPolicy::Sequential, seed, None);
        for &threads in &THREAD_COUNTS {
            let trace = fedtrace::Trace::new();
            let policy = ExecutionPolicy::parallel_with(threads);
            let traced = event_driven_campaign(&ctx, policy, seed, Some(&trace));
            let label = format!("seed {seed}, {threads} threads: tracing");
            assert_same_bits(&label, &untraced, &traced);
            let (untraced, traced) = (&untraced.0, &traced.0);
            let track = |spans: &[fedtrace::TrialSpan]| {
                fedtrace::virtual_timeline_json(&[fedtrace::TimelineTrack::new(
                    "async-asha",
                    spans.to_vec(),
                )])
            };
            assert_eq!(
                track(&untraced.timeline),
                track(&traced.timeline),
                "seed {seed}, {threads} threads: Chrome export diverged"
            );
            // The trace really was on: the driver registered and fed its
            // metrics.
            let snapshot = trace.snapshot();
            let dispatched = snapshot.counter("async-asha.dispatched").unwrap_or(0);
            assert_eq!(dispatched, untraced.outcome.num_evaluations() as u64);
            assert!(snapshot.counter("async-asha.suggests").unwrap_or(0) > 0);
        }
    }
}

#[test]
fn recorded_async_campaign_replays_with_identical_virtual_timeline() {
    // Record an async event-driven campaign into the fedstore ledger, then
    // replay it from the table alone: same completion order, same virtual
    // timestamps, same sim_elapsed — bit for bit.
    let scale = ExperimentScale::smoke();
    let seed = 4;
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
    let method = TuningMethod::AsyncAsha;
    let planned = method.planned_evaluations(&scale);
    let sim = VirtualExecution::new(3, straggler_cost_model(&scale, seed));
    let mut store = fedstore::TrialStore::in_memory();

    // Live, recorded.
    let mut scheduler = method.scheduler(&scale).unwrap();
    let inner = BatchFederatedObjective::new(
        &ctx,
        NoiseConfig::paper_noisy(),
        planned,
        fedmath::rng::derive_seed(seed, 0),
    )
    .unwrap();
    let mut recording = fedstore::RecordingObjective::new(
        &inner.eval,
        ctx.space(),
        fedstore::campaign_provenance(Benchmark::Cifar10Like, &scale, seed, "noisy"),
        &mut store,
    );
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let pooled = Drive {
        threads: ExecutionPolicy::parallel().pool_threads(),
        ..Drive::new(Clock::Virtual(sim))
    };
    let live = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut recording,
        &mut rng,
        &pooled,
    )
    .unwrap();
    let live_log = recording.sink.campaign.resolve(&recording.eval, 1).unwrap();
    assert!(live.finished);
    assert!(!store.is_empty());
    // The ledger carries the virtual stamps of the recording campaign.
    assert!(store.records().iter().all(|r| r.sim_time > 0.0));

    // Replayed from the ledger alone: no dataset, no training.
    let mut scheduler = method.scheduler(&scale).unwrap();
    let mut replay = fedstore::RecordingObjective::new(
        fedstore::LedgerOnly,
        ctx.space(),
        fedstore::campaign_provenance(Benchmark::Cifar10Like, &scale, seed, "noisy"),
        &mut store,
    );
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let replayed = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut replay,
        &mut rng,
        &Drive::new(Clock::Virtual(sim)),
    )
    .unwrap();
    assert_eq!(
        (replay.eval.hits(), replay.eval.misses()),
        (live.outcome.num_evaluations() as u64, 0)
    );
    let replay_log = replay.sink.campaign.resolve(&replay.eval, 1).unwrap();
    assert_eq!(live, replayed, "replayed virtual timeline diverged");
    assert_eq!(live.sim_elapsed.to_bits(), replayed.sim_elapsed.to_bits());
    for (a, b) in live
        .outcome
        .records()
        .iter()
        .zip(replayed.outcome.records())
    {
        assert_eq!(a.trial_id, b.trial_id);
        assert_eq!(a.resource, b.resource);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
    }
    assert_eq!(live_log, replay_log);

    // The exported Chrome trace of the virtual timeline is a pure function
    // of the span bits, so record and replay render byte-identical JSON.
    let chrome = |spans: &[fedtrace::TrialSpan]| {
        fedtrace::virtual_timeline_json(&[fedtrace::TimelineTrack::new(
            "async-asha record/replay",
            spans.to_vec(),
        )])
    };
    let live_json = chrome(&live.timeline);
    assert!(!live.timeline.is_empty());
    assert_eq!(
        live_json,
        chrome(&replayed.timeline),
        "record and replay must export byte-identical Chrome traces"
    );
    fedbench::trace::validate_chrome_trace(&live_json).expect("export passes the schema check");
}

/// One population-backed campaign: train against a lazy 20k-client
/// population with the given cache capacity, returning the final model
/// parameters.
fn population_campaign(cache_capacity: usize, seed: u64) -> Vec<f64> {
    let population =
        SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::FemnistLike, 20_000), 9)
            .unwrap();
    let cache = ClientCache::new(cache_capacity);
    let source = CachedPopulation::new(&population, &cache);
    let config = TrainerConfig {
        clients_per_round: 11,
        ..Default::default()
    };
    let mut run = FederatedTrainer::new(config)
        .unwrap()
        .start_with_dims(
            population.input_dim(),
            population.num_classes(),
            ModelSpec::Mlp { hidden_dim: 8 },
            seed,
        )
        .unwrap();
    let mut clock = VirtualClock::new();
    let report = train_on_population(
        &mut run,
        &source,
        CohortSampler::SizeWeighted,
        11,
        6,
        60.0,
        &mut clock,
    )
    .unwrap();
    assert_eq!(report.rounds, 6);
    assert!(cache.stats().peak_resident <= cache_capacity);
    run.model().params()
}

#[test]
fn population_training_is_bit_identical_across_policies() {
    // The fedpop contract: cohort training over a lazy population — ids
    // sampled per round, shards materialized on demand through a cache — is
    // a pure function of the seed. Cache policy is accounting, never
    // semantics.
    for &seed in &SEEDS {
        let cached = population_campaign(32, seed);
        let uncached = population_campaign(0, seed);
        assert_bits_equal(
            &format!("population campaign, seed {seed}, uncached"),
            &cached,
            &uncached,
        );
    }
}

#[test]
fn population_noise_experiment_is_bit_identical_across_policies() {
    // The acceptance contract of experiments::population: the whole sweep —
    // trained models, true-probe scores, noisy cohort scores, Spearman
    // curves — reproduces bit-for-bit across execution policies.
    use fedtune_core::experiments::population::{
        run_population_noise_with, PopulationExperimentScale,
    };
    // The reference runs with no cache. Smoke scale's cache recycles evicted
    // clients' storage under both policies, so a stale-data bug they shared
    // would pass a comparison of the two; it cannot match capacity 0, which
    // generates every client into empty storage.
    let scale = PopulationExperimentScale::smoke();
    let uncached = PopulationExperimentScale {
        cache_capacity: 0,
        ..scale.clone()
    };
    for &seed in &SEEDS {
        let sequential = run_population_noise_with(
            &TrialRunner::sequential(),
            Benchmark::Cifar10Like,
            &uncached,
            seed,
        )
        .unwrap();
        for threads in std::iter::once(1).chain(THREAD_COUNTS) {
            let parallel = run_population_noise_with(
                &TrialRunner::new(ExecutionPolicy::parallel_with(threads)),
                Benchmark::Cifar10Like,
                &scale,
                seed,
            )
            .unwrap();
            assert_eq!(
                sequential.sweeps.len(),
                parallel.sweeps.len(),
                "seed {seed}, {threads} threads"
            );
            for (a, b) in sequential.sweeps.iter().zip(parallel.sweeps.iter()) {
                assert_bits_equal(
                    &format!("true errors, seed {seed}, {threads} threads"),
                    &a.true_errors,
                    &b.true_errors,
                );
                for (pa, pb) in a.points.iter().zip(b.points.iter()) {
                    assert_eq!(pa.cohort_size, pb.cohort_size);
                    assert_eq!(pa.noise_variance.to_bits(), pb.noise_variance.to_bits());
                    assert_eq!(pa.spearman.to_bits(), pb.spearman.to_bits());
                    assert_bits_equal(
                        &format!("spearman per repeat, seed {seed}"),
                        &pa.spearman_per_repeat,
                        &pb.spearman_per_repeat,
                    );
                }
            }
        }
    }
}

#[test]
fn evaluation_is_identical_across_policies() {
    let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
        .generate(3)
        .unwrap();
    let run = FederatedTrainer::new(TrainerConfig::default())
        .unwrap()
        .train(&dataset, ModelSpec::Softmax, 3, 5)
        .unwrap();
    let pass = || {
        fedsim::evaluation::evaluate_full(
            run.model(),
            &dataset,
            feddata::Split::Validation,
            fedsim::WeightingScheme::ByExamples,
        )
        .unwrap()
    };
    let calling_thread = pass();
    for &threads in &THREAD_COUNTS {
        for (worker, evaluation) in on_worker_threads(threads, pass).iter().enumerate() {
            assert_eq!(&calling_thread, evaluation, "worker {worker} of {threads}");
        }
    }
}

#[test]
fn packed_validation_equals_the_gathered_reference_under_every_policy() {
    // `evaluate_full` reads a dense pool's rows from the dataset's packed
    // split; `evaluate_clients` over the same clients as a bare slice gathers
    // every row out of its example. Same scores, same clients, same order.
    let (split, weighting) = (
        feddata::Split::Validation,
        fedsim::WeightingScheme::ByExamples,
    );
    for benchmark in [Benchmark::Cifar10Like, Benchmark::FemnistLike] {
        let dataset = DatasetSpec::benchmark(benchmark, Scale::Smoke)
            .generate(3)
            .unwrap();
        let everyone: Vec<usize> = (0..dataset.num_val_clients()).collect();
        for spec in [ModelSpec::for_dataset(&dataset), ModelSpec::Softmax] {
            let run = FederatedTrainer::new(TrainerConfig::default())
                .unwrap()
                .train(&dataset, spec, 3, 5)
                .unwrap();
            let packed =
                fedsim::evaluation::evaluate_full(run.model(), &dataset, split, weighting).unwrap();
            let gathered = fedsim::evaluation::evaluate_clients(
                run.model(),
                dataset.clients(split),
                &everyone,
                weighting,
            )
            .unwrap();
            assert_eq!(packed, gathered, "{benchmark:?} {spec:?}");
        }
        assert!(dataset.is_packed(split));
    }
}
