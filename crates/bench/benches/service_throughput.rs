//! Wall-clock throughput of the multi-tenant tuning service: four
//! latency-backed campaigns run back-to-back standalone versus concurrently
//! through one [`fedserve::Service`] over a shared 8-thread pool.
//!
//! Like `executor_throughput`, every evaluation *sleeps* for its virtual
//! duration scaled to a real latency (`latency_scale` in the objective
//! spec), so the measured speedup is latency hiding — the service parks all
//! four campaigns' in-flight evaluations on real threads at once — and
//! holds on any host, including single-core CI containers. Each campaign
//! keeps two virtual trials in flight; standalone they overlap only within
//! a campaign, while the service overlaps across campaigns too.
//!
//! Before comparing clocks the bench asserts the service-run campaigns'
//! selections and `sim_elapsed` are **bit-identical** to their standalone
//! runs — multi-tenancy may move wall time, never a result bit.
//!
//! With `FEDTUNE_BENCH_JSON=1` the summary lands in
//! `BENCH_service_throughput.json`, gated in CI by `perf_compare`.

use criterion::{criterion_group, criterion_main, Criterion};
use fedserve::campaign::{run_campaign, CampaignFlags};
use fedserve::{
    CampaignLimits, CampaignOutcome, CampaignSpec, CostSpec, DimSpec, FairGate, ObjectiveSpec,
    SchedulerSpec, Service, ServiceConfig,
};
use fedsim::SharedPool;
use fedstore::TrialStore;
use std::time::Instant;

/// Concurrent campaigns, each with this many virtual workers.
const CAMPAIGNS: u64 = 4;
const WORKERS_PER_CAMPAIGN: usize = 2;

/// Real threads (and gate slots) in the shared service pool: enough to park
/// every campaign's full virtual in-flight set simultaneously.
const SERVICE_THREADS: usize = CAMPAIGNS as usize * WORKERS_PER_CAMPAIGN;

/// Target total evaluation latency across all campaigns, in real seconds.
/// The sequential baseline pays roughly `1/WORKERS_PER_CAMPAIGN` of it in
/// wall clock; the service overlaps across campaigns as well.
const TARGET_TOTAL_SLEEP: f64 = 6.0;

/// Committed floor on the service-vs-sequential speedup.
const SPEEDUP_FLOOR: f64 = 2.0;

fn spec(index: u64, latency_scale: f64) -> CampaignSpec {
    CampaignSpec {
        name: format!("bench-{index}"),
        seed: 40 + index,
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
            noise_sd: 0.1,
            latency_scale,
            fail_trial: None,
            panic_trial: None,
        },
        cost: CostSpec::HeavyTailedClients {
            clients: 60,
            per_round: 6,
            seed: 17 + index,
        },
        workers: WORKERS_PER_CAMPAIGN,
        sim_budget: None,
        limits: CampaignLimits::default(),
    }
}

/// One standalone campaign on its own pool sized to its virtual workers.
fn standalone(spec: &CampaignSpec) -> CampaignOutcome {
    let pool = SharedPool::new(spec.workers);
    let gate = FairGate::new(spec.workers);
    let flags = CampaignFlags::default();
    run_campaign(
        spec,
        TrialStore::in_memory(),
        &pool,
        &gate,
        &flags,
        None,
        &mut |_| {},
    )
    .expect("standalone campaign")
}

/// Prints what answers "is the ledger fsync-bound" for every segment ledger
/// this process has written (only the service run has any: the standalone
/// runs keep theirs in memory): records made durable per `sync_data` and
/// the sync latency (log2 buckets, so each percentile is its bucket's upper
/// bound).
fn print_sync_profile() {
    let snapshot = fedtrace::global().registry().snapshot();
    let (Some(batch), Some(micros)) = (
        snapshot.histogram("store.sync_batch"),
        snapshot.histogram("store.sync_micros"),
    ) else {
        return;
    };
    let percentile = |q: f64| {
        let rank = (q * micros.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        micros
            .buckets
            .iter()
            .find(|b| {
                seen += b.count;
                seen >= rank
            })
            .map_or(micros.max, |b| b.le)
    };
    println!(
        "service ledgers: {} syncs, {:.2} records/sync, sync p50 <= {} us, p99 <= {} us, \
         {:.1} ms in sync_data",
        batch.count,
        batch.mean(),
        percentile(0.5),
        percentile(0.99),
        micros.sum as f64 / 1e3,
    );
}

fn regenerate() {
    let mut summary = fedbench::BenchSummary::new("service_throughput");

    // Calibrate a *per-campaign* virtual→real latency scale from dry
    // standalone runs (zero latency): each campaign's virtual busy time is
    // a pure function of its own virtual state, identical however the
    // campaign is hosted. Per-campaign calibration gives every tenant an
    // equal share of the target sleep — heavy-tailed cost seeds otherwise
    // skew one campaign's critical path until it dominates both sides of
    // the comparison and hides the overlap being measured.
    let dry: Vec<CampaignOutcome> = (0..CAMPAIGNS).map(|i| standalone(&spec(i, 0.0))).collect();
    let scales: Vec<f64> = dry
        .iter()
        .map(|out| {
            let virtual_busy: f64 = out.outcome.timeline.iter().map(|s| s.end - s.start).sum();
            assert!(virtual_busy > 0.0);
            TARGET_TOTAL_SLEEP / CAMPAIGNS as f64 / virtual_busy
        })
        .collect();
    let evals: u64 = dry.iter().map(|out| out.evaluations).sum();
    println!("{CAMPAIGNS} campaigns: {evals} evaluations, {TARGET_TOTAL_SLEEP:.1}s target sleep");

    // Sequential baseline: each campaign standalone, one after another.
    let start = Instant::now();
    let sequential: Vec<CampaignOutcome> = (0..CAMPAIGNS)
        .map(|i| standalone(&spec(i, scales[i as usize])))
        .collect();
    let sequential_wall = start.elapsed().as_secs_f64();
    for (out, dry_out) in sequential.iter().zip(&dry) {
        assert_eq!(out.outcome, dry_out.outcome, "sleeping must not move a bit");
    }
    summary.push("standalone_sequential_4", sequential_wall, evals);

    // The service: all four campaigns submitted at once, sharing one pool.
    let root = std::env::temp_dir().join(format!("fedserve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let start = Instant::now();
    let service = Service::open(
        &root,
        ServiceConfig {
            threads: SERVICE_THREADS,
            global_in_flight: SERVICE_THREADS,
        },
    )
    .expect("open service");
    for i in 0..CAMPAIGNS {
        service.submit(spec(i, scales[i as usize])).expect("submit");
    }
    let statuses: Vec<_> = (0..CAMPAIGNS)
        .map(|i| {
            service
                .wait(&format!("bench-{i}"), std::time::Duration::from_secs(300))
                .expect("campaign settles")
        })
        .collect();
    let service_wall = start.elapsed().as_secs_f64();
    service.shutdown();

    // Multi-tenancy must not move a result bit.
    for (status, standalone_out) in statuses.iter().zip(&sequential) {
        assert_eq!(status.state, fedserve::CampaignState::Completed);
        assert_eq!(
            status.sim_elapsed.to_bits(),
            standalone_out.outcome.sim_elapsed.to_bits(),
            "{}: sim_elapsed diverged under multi-tenancy",
            status.name
        );
        let best = standalone_out.outcome.outcome.best().expect("has best");
        let selection = status.selection.as_ref().expect("has selection");
        assert_eq!(selection.trial_id, best.trial_id, "{}", status.name);
        assert_eq!(
            selection.score.to_bits(),
            best.score.to_bits(),
            "{}: selection score diverged",
            status.name
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    summary.push("service_concurrent_4", service_wall, evals);

    let speedup = sequential_wall / service_wall;
    println!(
        "service: {service_wall:.2}s wall vs sequential {sequential_wall:.2}s — {speedup:.2}x"
    );
    print_sync_profile();
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "the service must overlap campaigns at least {SPEEDUP_FLOOR}x \
         over sequential standalone runs, got {speedup:.2}x"
    );
    summary.push("speedup_service_x1000", 1.0, (speedup * 1000.0) as u64);
    let sim_elapsed: f64 = sequential.iter().map(|o| o.outcome.sim_elapsed).sum();
    summary.headline("sim_elapsed", sim_elapsed);
    summary.headline("trials_per_sim_hour", evals as f64 / (sim_elapsed / 3600.0));
    summary.write_if_enabled();
}

fn bench(c: &mut Criterion) {
    regenerate();

    // Micro: service machinery overhead — the same four campaigns with zero
    // latency, measuring registry + gate + driver cost per evaluation.
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.bench_function("four_campaigns_no_latency", |b| {
        b.iter(|| {
            let root =
                std::env::temp_dir().join(format!("fedserve_bench_micro_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let service = Service::open(
                &root,
                ServiceConfig {
                    threads: SERVICE_THREADS,
                    global_in_flight: SERVICE_THREADS,
                },
            )
            .expect("open service");
            for i in 0..CAMPAIGNS {
                service.submit(spec(i, 0.0)).expect("submit");
            }
            for i in 0..CAMPAIGNS {
                service
                    .wait(&format!("bench-{i}"), std::time::Duration::from_secs(60))
                    .expect("settles");
            }
            service.shutdown();
            let _ = std::fs::remove_dir_all(&root);
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
