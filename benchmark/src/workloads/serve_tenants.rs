//! `serve_tenants`: the `fedserve` daemon under two tenants and a watcher.
//!
//! An in-process `Service` serves a real unix socket. Evaluations are free
//! (the analytic objective, no latency), so what is measured is the tuning
//! machinery itself: scheduler suggest/report, the executor core, fair-share
//! admission, the frame codec and the per-evaluation durable ledger commit.
//! Tenant A submits heavy asynchronous-ASHA campaigns back to back; tenant B
//! streams short campaigns of three scheduler kinds, four submitted at any
//! time, waiting for the oldest; a third connection asks for status every
//! 2 ms. All loops are closed: a tenant's next campaign goes out when an
//! earlier one has settled. The short tenant's
//! latency beside a heavy neighbour is what fair-share exists for. Kernels
//! do nothing here, so a kernel change must not move this workload.

use crate::harness::{self, dir_bytes, histogram_sum_delta, Args, Fnv, Rep, Report, ScratchDir};
use crate::pump::{self, TimedScheduler};
use crate::spans::Spans;
use fedserve::campaign::{run_campaign, CampaignFlags};
use fedserve::{
    build_objective, decode_frame, encode_frame, CampaignLimits, CampaignSpec, CampaignState,
    CampaignStatus, Client, CostSpec, DimSpec, FairGate, ObjectiveSpec, Response, SchedulerSpec,
    Service, ServiceConfig, UnixServeListener,
};
use fedsim::SharedPool;
use fedstore::TrialStore;
use fedtune_core::VirtualExecution;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Evaluations the service admits at once, across tenants.
const GLOBAL_IN_FLIGHT: usize = 8;

/// How long a client waits for a campaign, and what a failed, refused or
/// unfinished campaign scores as in the latency percentiles.
const WAIT_TIMEOUT_MS: u64 = 60_000;

/// Short campaigns per repetition: rates are medians over such slices.
const SLICE: usize = 16;

const STATUS_PERIOD: Duration = Duration::from_millis(2);

/// Short campaigns tenant B keeps submitted at once. With one, every
/// evaluation's durable commit is waited for in turn and the host's disk sets
/// the pace; with a few, commits of one campaign overlap the work of the
/// others and the program's own cost shows.
const SHORT_IN_FLIGHT: usize = 4;

struct Sizes {
    heavy_trials: usize,
    short_trials: usize,
    min_short: usize,
}

fn analytic() -> ObjectiveSpec {
    ObjectiveSpec::Analytic {
        target: 0.3,
        noise_sd: 0.1,
        latency_scale: 0.0,
        fail_trial: None,
        panic_trial: None,
    }
}

fn spec(name: String, seed: u64, scheduler: SchedulerSpec, workers: usize) -> CampaignSpec {
    CampaignSpec {
        name,
        seed,
        space: vec![
            DimSpec::Uniform {
                name: "x".into(),
                low: 0.0,
                high: 1.0,
            },
            DimSpec::LogUniform {
                name: "lr".into(),
                low: 1e-4,
                high: 1.0,
            },
        ],
        scheduler,
        objective: analytic(),
        cost: CostSpec::HeavyTailedClients {
            clients: 60,
            per_round: 6,
            seed: fedmath::rng::derive_seed(seed, 3),
        },
        workers,
        sim_budget: None,
        limits: CampaignLimits::default(),
    }
}

fn heavy_spec(seed: u64, window: usize, index: usize, sizes: &Sizes) -> CampaignSpec {
    let scheduler = SchedulerSpec::AsyncAsha {
        trials: sizes.heavy_trials,
        eta: 3,
        min_resource: 1,
        max_resource: 81,
    };
    let campaign_seed = fedmath::rng::derive_seed(seed, (1_000_000 * (window + 1) + index) as u64);
    spec(
        format!("w{window}-heavy-{index}"),
        campaign_seed,
        scheduler,
        8,
    )
}

fn short_spec(seed: u64, window: usize, index: usize, sizes: &Sizes) -> CampaignSpec {
    let trials = sizes.short_trials;
    let scheduler = match index % 3 {
        0 => SchedulerSpec::RandomSearch {
            trials,
            resource: 9,
        },
        1 => SchedulerSpec::Asha {
            trials,
            eta: 3,
            min_resource: 1,
            max_resource: 81,
        },
        _ => SchedulerSpec::AsyncAsha {
            trials,
            eta: 3,
            min_resource: 1,
            max_resource: 81,
        },
    };
    let campaign_seed = fedmath::rng::derive_seed(seed, (2_000_000 * (window + 1) + index) as u64);
    spec(
        format!("w{window}-short-{index}"),
        campaign_seed,
        scheduler,
        4,
    )
}

/// A running daemon: the service, its accept loop and its socket.
struct Daemon {
    service: Arc<Service>,
    server: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
    root: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, threads: usize) -> Result<Daemon, String> {
        let root = dir.join("root");
        let socket = dir.join("sock");
        let config = ServiceConfig {
            threads,
            global_in_flight: GLOBAL_IN_FLIGHT,
        };
        let service = Service::open(&root, config).map_err(|e| e.to_string())?;
        let mut listener = UnixServeListener::bind(&socket).map_err(|e| e.to_string())?;
        let serving = Arc::clone(&service);
        let server = std::thread::Builder::new()
            .name("bench-accept".into())
            .spawn(move || {
                let _ = serving.serve(&mut listener);
            })
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            service,
            server: Some(server),
            socket,
            root,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect_unix(&self.socket).map_err(|e| e.to_string())?;
        client.ping().map_err(|e| e.to_string())?;
        Ok(client)
    }
}

impl Drop for Daemon {
    /// Suspends what still runs, joins every campaign driver and the accept
    /// loop; also runs while a panic unwinds.
    fn drop(&mut self) {
        self.service.shutdown();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// What tenant A has finished and what it is running now.
#[derive(Default)]
struct HeavyProgress {
    completed_evaluations: u64,
    current: Option<String>,
}

/// One settled (or failed) campaign as its client saw it.
struct Settled {
    status: Option<CampaignStatus>,
    latency_s: f64,
    submit_s: f64,
}

/// A campaign a client has submitted and not yet waited for.
struct Submitted {
    name: String,
    id: u64,
    started: Instant,
    submit_s: f64,
    accepted: bool,
}

/// Submits `spec`; nothing here or in `wait` unwraps a reply.
fn submit(client: &mut Client, spec: CampaignSpec, spans: &Spans, id: u64) -> Submitted {
    let name = spec.name.clone();
    let started = Instant::now();
    let accepted = {
        let _span = spans.enter("fedserve.submit", id);
        client.submit(spec).is_ok()
    };
    Submitted {
        name,
        id,
        started,
        submit_s: started.elapsed().as_secs_f64(),
        accepted,
    }
}

/// Waits for a submitted campaign. Anything but `Completed` — a refusal, an
/// error reply, a timeout, another terminal state — scores as the timeout.
fn wait(client: &mut Client, submitted: Submitted, spans: &Spans) -> Settled {
    let status = submitted
        .accepted
        .then(|| {
            let _span = spans.enter("fedserve.wait", submitted.id);
            client.wait(&submitted.name, WAIT_TIMEOUT_MS).ok()
        })
        .flatten()
        .filter(|s| s.state == CampaignState::Completed);
    Settled {
        latency_s: match status {
            Some(_) => submitted.started.elapsed().as_secs_f64(),
            None => WAIT_TIMEOUT_MS as f64 / 1e3,
        },
        status,
        submit_s: submitted.submit_s,
    }
}

/// What one window of traffic produced.
#[derive(Default)]
struct Window {
    /// Slices of tenant traffic, and whether spans were recorded in each.
    reps: Vec<(Rep, bool)>,
    /// Short-campaign latencies, with the same flag.
    short_latencies_s: Vec<(f64, bool)>,
    submit_s: Vec<f64>,
    short_statuses: Vec<Option<CampaignStatus>>,
    /// Short campaigns still in flight when the window closed.
    drained_statuses: Vec<Option<CampaignStatus>>,
    heavy_statuses: Vec<Option<CampaignStatus>>,
    heavy_evaluations: u64,
    short_evaluations: u64,
    ping_s: Vec<f64>,
    status_s: Vec<f64>,
    /// `VmHWM` when tenant B had settled `min_short` campaigns: the daemon
    /// keeps every campaign it ever ran, so a later reading would grow with
    /// the number of campaigns the window held.
    peak_rss_mb: f64,
}

/// Runs tenants A and B and the status watcher against `daemon` for
/// `seconds` (and until B has run `sizes.min_short` campaigns). An enabled
/// `spans` records every other slice, so that recorded and unrecorded slices
/// see the same daemon state.
fn window(
    daemon: &Daemon,
    args: &Args,
    sizes: &Sizes,
    index: usize,
    seconds: f64,
    spans: &Spans,
) -> Result<Window, String> {
    let mut client_a = daemon.connect()?;
    let mut client_b = daemon.connect()?;
    let mut client_watch = daemon.connect()?;
    let done = AtomicBool::new(false);
    let progress = Mutex::new(HeavyProgress::default());
    let seen = |m: &Mutex<HeavyProgress>| -> HeavyProgress {
        let guard = m.lock().unwrap_or_else(|p| p.into_inner());
        HeavyProgress {
            completed_evaluations: guard.completed_evaluations,
            current: guard.current.clone(),
        }
    };
    let mut out = Window::default();

    std::thread::scope(|scope| {
        // Tenant A: heavy campaigns back to back until B is done.
        let tenant_a = scope.spawn(|| {
            let mut statuses = Vec::new();
            let mut i = 0usize;
            while !done.load(Ordering::SeqCst) {
                let spec = heavy_spec(args.seed, index, i, sizes);
                progress.lock().unwrap_or_else(|p| p.into_inner()).current =
                    Some(spec.name.clone());
                let submitted = submit(&mut client_a, spec, spans, 1_000_000 + i as u64);
                let settled = wait(&mut client_a, submitted, spans);
                let evaluations = settled.status.as_ref().map_or(0, |s| s.evaluations);
                let mut guard = progress.lock().unwrap_or_else(|p| p.into_inner());
                guard.completed_evaluations += evaluations;
                guard.current = None;
                drop(guard);
                statuses.push(settled.status);
                i += 1;
            }
            statuses
        });

        // The watcher: a ping and the heavy campaign's status every 2 ms.
        let watcher = scope.spawn(|| {
            let (mut ping_s, mut status_s) = (Vec::new(), Vec::new());
            let mut tick = 0u64;
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(STATUS_PERIOD);
                let t = Instant::now();
                {
                    let _span = spans.enter("fedserve.ping", tick);
                    let _ = client_watch.ping();
                }
                ping_s.push(t.elapsed().as_secs_f64());
                if let Some(name) = seen(&progress).current {
                    let t = Instant::now();
                    let _span = spans.enter("fedserve.status", tick);
                    // A campaign submitted a moment ago may not be known yet.
                    if client_watch.status(Some(&name)).is_ok() {
                        status_s.push(t.elapsed().as_secs_f64());
                    }
                }
                tick += 1;
            }
            (ping_s, status_s)
        });

        // Tenant B, on this thread: short campaigns, submit then wait.
        let heavy_total = |client: &mut Client| -> u64 {
            let seen = seen(&progress);
            let running = seen
                .current
                .and_then(|name| client.status(Some(&name)).ok())
                .and_then(|mut statuses| statuses.pop())
                .map_or(0, |s| s.evaluations);
            seen.completed_evaluations + running
        };
        let started = Instant::now();
        let mut slice_started = Instant::now();
        let mut slice_cpu = harness::cpu_seconds();
        let mut slice_short = 0u64;
        let mut slice_heavy_base = heavy_total(&mut client_b);
        let heavy_base = slice_heavy_base;
        let mut i = 0usize;
        let mut next = 0usize;
        let mut in_flight: VecDeque<Submitted> = VecDeque::new();
        let mut recording = false;
        spans.set_paused(true);
        while i < sizes.min_short || started.elapsed().as_secs_f64() < seconds {
            // Tenant B keeps `SHORT_IN_FLIGHT` campaigns submitted and waits
            // for the oldest.
            while in_flight.len() < SHORT_IN_FLIGHT {
                let spec = short_spec(args.seed, index, next, sizes);
                in_flight.push_back(submit(&mut client_b, spec, spans, next as u64));
                next += 1;
            }
            let Some(oldest) = in_flight.pop_front() else {
                break;
            };
            let settled = wait(&mut client_b, oldest, spans);
            let evaluations = settled.status.as_ref().map_or(0, |s| s.evaluations);
            out.short_evaluations += evaluations;
            slice_short += evaluations;
            out.short_latencies_s.push((settled.latency_s, recording));
            out.submit_s.push(settled.submit_s);
            out.short_statuses.push(settled.status);
            i += 1;
            if i == sizes.min_short {
                out.peak_rss_mb = harness::peak_rss_mb();
            }
            if i.is_multiple_of(SLICE) {
                let heavy_now = heavy_total(&mut client_b);
                let rep = Rep {
                    wall_s: slice_started.elapsed().as_secs_f64(),
                    cpu_s: harness::cpu_seconds() - slice_cpu,
                    trials: slice_short + (heavy_now - slice_heavy_base),
                };
                out.reps.push((rep, recording));
                recording = !recording;
                spans.set_paused(!recording);
                slice_started = Instant::now();
                slice_cpu = harness::cpu_seconds();
                slice_short = 0;
                slice_heavy_base = heavy_now;
            }
        }
        out.heavy_evaluations = heavy_total(&mut client_b) - heavy_base;
        // What is still submitted settles outside the window.
        for submitted in in_flight {
            out.drained_statuses
                .push(wait(&mut client_b, submitted, spans).status);
        }
        done.store(true, Ordering::SeqCst);
        spans.set_paused(false);
        out.heavy_statuses = tenant_a.join().unwrap_or_default();
        (out.ping_s, out.status_s) = watcher.join().unwrap_or_default();
    });
    Ok(out)
}

/// The standalone reference of one campaign: the repository's own campaign
/// driver on a pool and gate of its own, with an in-memory ledger.
fn reference(spec: &CampaignSpec, threads: usize) -> Result<(usize, u64, u64), String> {
    let pool = SharedPool::new(threads);
    let gate = FairGate::new(GLOBAL_IN_FLIGHT);
    let flags = CampaignFlags::default();
    let outcome = run_campaign(
        spec,
        TrialStore::in_memory(),
        &pool,
        &gate,
        &flags,
        None,
        &mut |_| {},
    )
    .map_err(|e| e.to_string())?;
    let best = outcome
        .outcome
        .outcome
        .best()
        .ok_or("the reference campaign selected nothing")?;
    Ok((
        best.trial_id,
        best.score.to_bits(),
        outcome.outcome.sim_elapsed.to_bits(),
    ))
}

fn selection_bits(status: &CampaignStatus) -> Option<(usize, u64, u64)> {
    let selection = status.selection.as_ref()?;
    Some((
        selection.trial_id,
        selection.score.to_bits(),
        status.sim_elapsed.to_bits(),
    ))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let sizes = if args.smoke {
        Sizes {
            heavy_trials: 243,
            short_trials: 27,
            min_short: 2 * SLICE,
        }
    } else {
        Sizes {
            heavy_trials: 2187,
            short_trials: 81,
            min_short: 240,
        }
    };
    let scratch = ScratchDir::new(&args.out_dir, "serve").expect("scratch directory");

    // Set-up: start the daemon and open the clients' connections.
    let mut attempt = 0usize;
    let (daemon, setup_s) = harness::measure_setup(args.smoke, || {
        attempt += 1;
        let dir = scratch.path().join(format!("d{attempt}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let daemon = Daemon::start(&dir, args.threads)?;
        for _ in 0..3 {
            daemon.connect()?;
        }
        Ok::<Daemon, String>(daemon)
    });
    report.setup_s = setup_s;
    let daemon = match daemon {
        Ok(daemon) => daemon,
        Err(message) => {
            report.attempted = 1;
            report.fail_check(format!("starting the daemon: {message}"));
            return report;
        }
    };

    // Warm-up: a few short campaigns through the whole path.
    let warm = Sizes {
        heavy_trials: sizes.heavy_trials / 9,
        short_trials: sizes.short_trials,
        min_short: 6,
    };
    if let Err(message) = window(&daemon, args, &warm, 9, 0.0, &Spans::disabled()) {
        report.attempted = 1;
        report.fail_check(format!("warm-up: {message}"));
        return report;
    }

    // The timed window. A traced run records spans in every other slice and
    // takes its end-to-end numbers from the slices in between.
    let spans = if args.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let before = harness::counters();
    let timed = match window(&daemon, args, &sizes, 0, args.seconds, &spans) {
        Ok(timed) => timed,
        Err(message) => {
            report.attempted = 1;
            report.fail_check(format!("timed window: {message}"));
            return report;
        }
    };
    let after = harness::counters();
    let unrecorded = |flagged: &[(f64, bool)]| -> Vec<f64> {
        flagged
            .iter()
            .filter(|(_, r)| !r)
            .map(|(v, _)| *v)
            .collect()
    };
    report.timed.reps = timed
        .reps
        .iter()
        .filter(|(_, r)| !r)
        .map(|(rep, _)| *rep)
        .collect();
    report.timed.latencies_s = unrecorded(&timed.short_latencies_s);
    report.peak_rss_mb = Some(timed.peak_rss_mb);

    let settled = timed
        .short_statuses
        .iter()
        .chain(&timed.drained_statuses)
        .chain(&timed.heavy_statuses);
    for status in settled {
        report.attempted += 1;
        if status.is_none() {
            report.fail_check("a campaign was refused, timed out or did not complete");
        }
    }
    let all = (timed.short_evaluations + timed.heavy_evaluations).max(1) as f64;
    let heavy_share = timed.heavy_evaluations as f64 / all;
    let p95_ms = harness::percentile_of(&report.timed.latencies_s, 0.95) * 1e3;
    report.notes.push(format!(
        "{} short ({} trials) + {} heavy ({} trials) campaigns, {all} evaluations; heavy share \
         {heavy_share:.3}; short campaign p95 {p95_ms:.2} ms",
        timed.short_statuses.len(),
        sizes.short_trials,
        timed.heavy_statuses.len(),
        sizes.heavy_trials,
    ));

    // Output checks: the first campaign of every scheduler kind and the
    // first heavy campaign equal their standalone reference bit for bit.
    let mut checked: Vec<(CampaignSpec, Option<&CampaignStatus>)> = (0..3)
        .map(|i| {
            let status = timed.short_statuses.get(i).and_then(Option::as_ref);
            (short_spec(args.seed, 0, i, &sizes), status)
        })
        .collect();
    let first_heavy = timed.heavy_statuses.first().and_then(Option::as_ref);
    checked.push((heavy_spec(args.seed, 0, 0, &sizes), first_heavy));
    for (spec, status) in &checked {
        report.attempted += 1;
        let served = status.and_then(selection_bits);
        match reference(spec, args.threads) {
            Ok(expected) if served == Some(expected) => {}
            Ok(expected) => report.fail_check(format!(
                "{}: served selection {served:?} differs from the reference {expected:?}",
                spec.name
            )),
            Err(message) => report.fail_check(format!("{}: reference: {message}", spec.name)),
        }
    }

    let mut digest = Fnv::new();
    for status in timed.short_statuses.iter().take(sizes.min_short) {
        let (trial, score, sim) = status.as_ref().and_then(selection_bits).unwrap_or_default();
        digest.word(trial as u64);
        digest.word(score);
        digest.word(sim);
    }
    report.digest = digest.0;

    if args.trace {
        report.layer("fedserve.campaign_p95_ms", p95_ms);
        report.layer("fedserve.heavy_share", heavy_share);
        report.layer_counters(
            &before,
            &after,
            &[
                ("fedstore.group_commits", "store.group_commits"),
                ("fedstore.syncs", "store.syncs"),
                ("fedstore.bytes_written", "store.bytes_written"),
                ("fedsim.pool_tasks", "exec.pool.tasks"),
            ],
        );
        report.layer(
            "fedstore.sync_busy_us",
            histogram_sum_delta(&before, &after, "store.sync_micros"),
        );
        layer_metrics(args, &daemon, &sizes, &timed, &spans, &mut report);
    }
    report
}

/// Round-trip times, the daemon's own counters, the frame-codec probe, the
/// harness's overhead, and the first heavy campaign once more through the
/// harness pump.
fn layer_metrics(
    args: &Args,
    daemon: &Daemon,
    sizes: &Sizes,
    timed: &Window,
    spans: &Spans,
    report: &mut Report,
) {
    report.layer(
        "fedserve.ping_rtt_us",
        harness::percentile_of(&timed.ping_s, 0.5) * 1e6,
    );
    report.layer(
        "fedserve.status_rtt_p50_us",
        harness::percentile_of(&timed.status_s, 0.5) * 1e6,
    );
    report.layer(
        "fedserve.status_rtt_p99_us",
        harness::percentile_of(&timed.status_s, 0.99) * 1e6,
    );
    report.layer(
        "fedserve.submit_ms",
        harness::percentile_of(&timed.submit_s, 0.5) * 1e3,
    );
    if let Some(status) = timed.short_statuses.first().and_then(Option::as_ref) {
        let ledger = daemon
            .root
            .join("campaigns")
            .join(&status.name)
            .join("ledger");
        report.layer(
            "fedstore.bytes_per_trial",
            dir_bytes(&ledger) as f64 / status.evaluations.max(1) as f64,
        );
    }
    match daemon
        .connect()
        .and_then(|mut c| c.metrics().map_err(|e| e.to_string()))
    {
        Ok(snapshot) => {
            let read = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
            report.layer("fedserve.frames_rx", read("serve.frames_rx"));
            report.layer("fedserve.proto_errors", read("serve.proto_errors"));
            report.layer(
                "fedserve.campaigns_settled",
                read("serve.campaigns_settled"),
            );
        }
        Err(message) => report.fail_check(format!("reading the daemon's metrics: {message}")),
    }

    // Frame codec: one status reply, encoded and decoded.
    let reply = Response::Status {
        campaigns: timed
            .short_statuses
            .iter()
            .flatten()
            .take(1)
            .cloned()
            .collect(),
    };
    if let Ok(payload) = serde_json::to_string(&reply) {
        let codec_s = harness::probe_seconds(1000, || {
            let frame = encode_frame(payload.as_bytes());
            std::hint::black_box(decode_frame(&frame).is_ok());
        });
        report.layer("fedserve.frame_codec_ns", codec_s * 1e9);
    }

    // Overhead: the rate of the slices with spans against those without.
    let rate = |recorded: bool| {
        let mut rates: Vec<f64> = timed
            .reps
            .iter()
            .filter(|(_, r)| *r == recorded)
            .map(|(rep, _)| rep.trials as f64 / rep.wall_s)
            .collect();
        harness::median(&mut rates)
    };
    if rate(true) > 0.0 {
        report.layer(
            "harness.trace_overhead_pct",
            (rate(false) / rate(true) - 1.0) * 100.0,
        );
    }

    // The first heavy campaign once more through the harness pump, for the
    // scheduler's and the executor core's own share of an evaluation.
    let spec = heavy_spec(args.seed, 0, 0, sizes);
    let pumped = (|| -> Result<(usize, u64, u64), String> {
        let err = |e: fedserve::ServeError| e.to_string();
        let space = spec.build_space().map_err(err)?;
        let mut scheduler = TimedScheduler::new(spec.build_scheduler().map_err(err)?, spans, 0);
        let mut objective = build_objective(&spec, TrialStore::in_memory()).map_err(err)?;
        let mut rng = fedmath::rng::rng_for(spec.seed, 0);
        let sim = VirtualExecution::new(spec.workers, spec.cost.build());
        let outcome = pump::pump(
            spans,
            0,
            &mut scheduler,
            &space,
            &mut objective,
            &mut rng,
            &sim,
        )
        .map_err(|e| e.to_string())?;
        pump::layer_metrics(spans, scheduler.promotions(), report);
        let best = outcome
            .outcome
            .best()
            .ok_or("the pumped campaign selected nothing")?;
        Ok((
            best.trial_id,
            best.score.to_bits(),
            outcome.sim_elapsed.to_bits(),
        ))
    })();
    let served = timed
        .heavy_statuses
        .first()
        .and_then(Option::as_ref)
        .and_then(selection_bits);
    match pumped {
        Ok(bits) if Some(bits) == served => {}
        Ok(bits) => report.fail_check(format!(
            "{}: pumped selection {bits:?} differs from the served {served:?}",
            spec.name
        )),
        Err(message) => report.fail_check(format!("{}: pump: {message}", spec.name)),
    }

    report.write_trace(args, "serve_tenants", spans);
}
