//! End-to-end tests of the fedserve tuning service daemon: multi-tenant
//! bit-identity, the unix-socket protocol path, and crash-restart from the
//! ledgers alone.
//!
//! The contract under test is the service-level determinism promise
//! (`DESIGN.md`, "Tuning service"): hosting a campaign in the daemon — with
//! co-tenants, fair-share admission, a shared real-thread pool, even a kill
//! and restart in the middle — may move wall-clock time, but never a single
//! bit of the campaign's selections or virtual timeline.
//!
//! To re-baseline the pins after a conscious numerics change, run
//! `cargo test --release --test service -- --nocapture` and copy the
//! printed `actual:` lines over the `GOLDEN_*` constants.

use fedserve::{
    CampaignLimits, CampaignSpec, CampaignState, CampaignStatus, Client, CostSpec, DimSpec,
    ObjectiveSpec, SchedulerSpec, Selection, Service, ServiceConfig, UnixServeListener,
};
use fedstore::framing::FrameReader;
use fedstore::segment::{self, LedgerEntry, SEGMENT_HEADER_BYTES};
use fedtune_core::{drive, Cap, Clock, Drive, EventDrivenOutcome, VirtualExecution};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Service-level golden pins: `(name, evaluations, best trial, score bits,
/// sim_elapsed bits)` for the two tenant campaigns of the daemon tests.
const GOLDEN_ALPHA: (u64, usize, u64, u64) = (19, 3, 0x3fd087f5361b5d46, 0x40664bf1a0fee698); // score 0.25829820903659984, sim_elapsed 178.37324571404747
const GOLDEN_BETA: (u64, usize, u64, u64) = (10, 2, 0x3fc2c92535605792, 0x4072800000000000); // score 0.1467634688021318, sim_elapsed 296

fn unique_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fedserve_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Campaign "alpha": async ASHA under heavy-tailed stragglers.
fn alpha_spec(latency_scale: f64) -> CampaignSpec {
    CampaignSpec {
        name: "alpha".to_string(),
        seed: 11,
        space: vec![
            DimSpec::Uniform {
                name: "x".to_string(),
                low: 0.0,
                high: 1.0,
            },
            DimSpec::LogUniform {
                name: "lr".to_string(),
                low: 1e-3,
                high: 1.0,
            },
        ],
        scheduler: SchedulerSpec::AsyncAsha {
            trials: 12,
            eta: 3,
            min_resource: 1,
            max_resource: 9,
        },
        objective: ObjectiveSpec::Analytic {
            target: 0.3,
            noise_sd: 0.15,
            latency_scale,
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

/// Campaign "beta": random search with a different seed and cost model.
fn beta_spec(latency_scale: f64) -> CampaignSpec {
    CampaignSpec {
        name: "beta".to_string(),
        seed: 23,
        space: vec![DimSpec::Uniform {
            name: "x".to_string(),
            low: 0.0,
            high: 1.0,
        }],
        scheduler: SchedulerSpec::RandomSearch {
            trials: 10,
            resource: 6,
        },
        objective: ObjectiveSpec::Analytic {
            target: 0.55,
            noise_sd: 0.05,
            latency_scale,
            fail_trial: None,
            panic_trial: None,
        },
        cost: CostSpec::PerRound {
            round_seconds: 12.0,
            eval_seconds: 2.0,
        },
        workers: 3,
        sim_budget: None,
        limits: CampaignLimits::default(),
    }
}

/// The reference run: the same campaign, budget included, straight through
/// the library driver (`fedtune_core::drive`), no service anywhere.
fn standalone(spec: &CampaignSpec, threads: usize) -> EventDrivenOutcome {
    let space = spec.build_space().unwrap();
    let mut scheduler = spec.build_scheduler().unwrap();
    let mut rng = fedmath::rng::rng_for(spec.seed, 0);
    let sim = VirtualExecution::new(spec.workers, spec.cost.build());
    let mut objective = fedserve::build_objective(spec, fedstore::TrialStore::in_memory()).unwrap();
    let config = Drive {
        threads,
        budget: spec.budget(),
        ..Drive::new(Clock::Virtual(sim))
    };
    let outcome = drive(
        scheduler.as_mut(),
        &space,
        &mut objective,
        &mut rng,
        &config,
    )
    .unwrap();
    // The specs here that carry a cap hit it before their schedule ends.
    assert_eq!(outcome.finished, outcome.halt.is_none(), "{}", spec.name);
    outcome
}

fn print_actual(name: &str, status: &CampaignStatus) {
    let selection = status.selection.as_ref().expect("settled with selection");
    println!(
        "actual {name}: ({}, {}, 0x{:016x}, 0x{:016x}), // score {}, sim_elapsed {}",
        status.evaluations,
        selection.trial_id,
        selection.score.to_bits(),
        status.sim_elapsed.to_bits(),
        selection.score,
        status.sim_elapsed,
    );
}

fn assert_matches_standalone(status: &CampaignStatus, reference: &EventDrivenOutcome) {
    let settled = match reference.halt {
        None => CampaignState::Completed,
        Some(_) => CampaignState::BudgetExhausted,
    };
    assert_eq!(status.state, settled, "{}", status.name);
    assert_eq!(
        status.sim_elapsed.to_bits(),
        reference.sim_elapsed.to_bits(),
        "{}: sim_elapsed diverged from the standalone run",
        status.name
    );
    assert_eq!(
        status.evaluations,
        reference.outcome.num_evaluations() as u64,
        "{}",
        status.name
    );
    let best = reference.outcome.best().expect("standalone selected");
    let selection = status.selection.as_ref().expect("service selected");
    assert_eq!(selection.trial_id, best.trial_id, "{}", status.name);
    assert_eq!(
        selection.score.to_bits(),
        best.score.to_bits(),
        "{}: selection score diverged from the standalone run",
        status.name
    );
    assert_eq!(
        selection.sim_time.to_bits(),
        best.sim_time.to_bits(),
        "{}",
        status.name
    );
    assert_eq!(
        selection.config,
        best.config.values().to_vec(),
        "{}: selected configuration diverged",
        status.name
    );
}

fn assert_pin(name: &str, status: &CampaignStatus, pin: (u64, usize, u64, u64)) {
    let (evaluations, best_trial, score_bits, elapsed_bits) = pin;
    let selection = status.selection.as_ref().expect("settled with selection");
    assert_eq!(status.evaluations, evaluations, "{name}: schedule changed");
    assert_eq!(
        selection.trial_id, best_trial,
        "{name}: winning configuration changed"
    );
    assert_eq!(
        selection.score.to_bits(),
        score_bits,
        "{name}: winning score drifted: got {} (0x{:016x})",
        selection.score,
        selection.score.to_bits(),
    );
    assert_eq!(
        status.sim_elapsed.to_bits(),
        elapsed_bits,
        "{name}: virtual timeline drifted: got {} (0x{:016x})",
        status.sim_elapsed,
        status.sim_elapsed.to_bits(),
    );
}

/// Two campaigns with different schedulers, seeds, and cost models share
/// one daemon over an 8-thread pool: each must reproduce, bit for bit, its
/// own standalone `drive` run and the committed pins.
#[test]
fn two_tenant_daemon_reproduces_standalone_bits() {
    let alpha_ref = standalone(&alpha_spec(0.0), 8);
    let beta_ref = standalone(&beta_spec(0.0), 8);

    let root = unique_root("two_tenant");
    let service = Service::open(
        &root,
        ServiceConfig {
            threads: 8,
            global_in_flight: 8,
        },
    )
    .unwrap();
    service.submit(alpha_spec(0.0)).unwrap();
    service.submit(beta_spec(0.0)).unwrap();
    let alpha = service.wait("alpha", Duration::from_secs(120)).unwrap();
    let beta = service.wait("beta", Duration::from_secs(120)).unwrap();
    service.shutdown();

    // Print both actuals before asserting, so a drift still shows the full
    // re-baselining table.
    print_actual("GOLDEN_ALPHA", &alpha);
    print_actual("GOLDEN_BETA", &beta);

    assert_matches_standalone(&alpha, &alpha_ref);
    assert_matches_standalone(&beta, &beta_ref);
    assert_pin("alpha", &alpha, GOLDEN_ALPHA);
    assert_pin("beta", &beta, GOLDEN_BETA);

    // Everything ran live (fresh ledgers, no replay).
    assert_eq!(alpha.ledger_hits, 0);
    assert_eq!(alpha.ledger_misses, alpha.evaluations);

    let _ = std::fs::remove_dir_all(&root);
}

/// A budget-capped tenant next to an uncapped one: the daemon halts it on
/// the same dispatch as the standalone driver under the same budget, so it
/// settles `BudgetExhausted` with the standalone run's bits.
#[test]
fn a_budget_capped_tenant_reproduces_standalone_bits() {
    let mut capped = alpha_spec(0.0);
    capped.name = "capped".to_string();
    capped.limits.max_evaluations = Some(9);
    let capped_ref = standalone(&capped, 8);
    assert_eq!(capped_ref.halt, Some(Cap::Evaluations));
    assert!(capped_ref.outcome.num_evaluations() < GOLDEN_ALPHA.0 as usize);
    let beta_ref = standalone(&beta_spec(0.0), 8);

    let root = unique_root("capped");
    let service = Service::open(
        &root,
        ServiceConfig {
            threads: 4,
            global_in_flight: 4,
        },
    )
    .unwrap();
    service.submit(capped).unwrap();
    service.submit(beta_spec(0.0)).unwrap();
    let capped = service.wait("capped", Duration::from_secs(120)).unwrap();
    let beta = service.wait("beta", Duration::from_secs(120)).unwrap();
    service.shutdown();

    assert_matches_standalone(&capped, &capped_ref);
    assert_matches_standalone(&beta, &beta_ref);
    assert_pin("beta", &beta, GOLDEN_BETA);
    let _ = std::fs::remove_dir_all(&root);
}

/// The full protocol path: daemon on a unix socket, campaigns submitted and
/// awaited through the client library, malformed frames answered with
/// structured errors without dropping the connection.
#[test]
fn unix_socket_daemon_end_to_end() {
    let root = unique_root("unix");
    let socket = root.join("fedserve.sock");
    std::fs::create_dir_all(&root).unwrap();

    let service = Service::open(
        &root,
        ServiceConfig {
            threads: 4,
            global_in_flight: 4,
        },
    )
    .unwrap();
    let mut listener = UnixServeListener::bind(&socket).unwrap();
    let serving = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.serve(&mut listener))
    };

    let mut client = Client::connect_unix(&socket).unwrap();
    client.ping().unwrap();

    // Submit both tenants over the wire and wait for them.
    assert_eq!(client.submit(alpha_spec(0.0)).unwrap(), "alpha");
    assert_eq!(client.submit(beta_spec(0.0)).unwrap(), "beta");
    let alpha = client.wait("alpha", 120_000).unwrap();
    let beta = client.wait("beta", 120_000).unwrap();
    assert_eq!(alpha.state, CampaignState::Completed);
    assert_eq!(beta.state, CampaignState::Completed);
    // The socket changes nothing: same pins as the in-process test.
    assert_pin("alpha", &alpha, GOLDEN_ALPHA);
    assert_pin("beta", &beta, GOLDEN_BETA);

    // Structured errors, not dropped connections.
    match client.submit(alpha_spec(0.0)) {
        Err(fedserve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, fedserve::ErrorCode::Duplicate);
        }
        other => panic!("duplicate submit: {other:?}"),
    }
    match client.status(Some("nonexistent")) {
        Err(fedserve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, fedserve::ErrorCode::Unknown);
        }
        other => panic!("unknown campaign: {other:?}"),
    }

    // A garbage payload in a well-formed frame gets an error response and
    // the connection keeps working.
    {
        use std::io::Write;
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.write_all(&fedserve::encode_frame(b"this is not json"))
            .unwrap();
        raw.flush().unwrap();
        let reply: fedserve::Response = fedserve::proto::read_message(&mut raw).unwrap().unwrap();
        match reply {
            fedserve::Response::Error { code, .. } => {
                assert_eq!(code, fedserve::ErrorCode::BadRequest);
            }
            other => panic!("garbage frame: {other:?}"),
        }
        // Same connection, valid request: still alive.
        fedserve::proto::write_message(&mut raw, &fedserve::Request::Ping).unwrap();
        let reply: fedserve::Response = fedserve::proto::read_message(&mut raw).unwrap().unwrap();
        assert!(matches!(reply, fedserve::Response::Pong));

        // An oversized frame is answered, then the server hangs up.
        let mut huge = Vec::new();
        huge.extend_from_slice(&fedserve::MAGIC);
        huge.extend_from_slice(&(fedserve::MAX_FRAME as u32 + 1).to_le_bytes());
        raw.write_all(&huge).unwrap();
        raw.flush().unwrap();
        let reply: fedserve::Response = fedserve::proto::read_message(&mut raw).unwrap().unwrap();
        match reply {
            fedserve::Response::Error { code, .. } => {
                assert_eq!(code, fedserve::ErrorCode::Oversized);
            }
            other => panic!("oversized frame: {other:?}"),
        }
        match fedserve::proto::read_message::<fedserve::Response>(&mut raw) {
            Ok(None) | Err(_) => {} // server closed the stream
            Ok(Some(other)) => panic!("expected hangup, got {other:?}"),
        }
    }

    // Metrics merge service and campaign registries.
    let metrics = client.metrics().unwrap();
    let submitted = metrics
        .counters
        .iter()
        .find(|c| c.name == "serve.campaigns_submitted")
        .expect("service counter present");
    assert_eq!(submitted.value, 2);

    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// The campaign's ledger notes as their JSON text, in ledger order.
fn ledger_notes(root: &Path, name: &str) -> Vec<String> {
    let mut notes = Vec::new();
    segment::for_each_entry(&ledger_dir(root, name), |entry| {
        if let LedgerEntry::Note(note) = entry {
            notes.push(String::from_utf8(note).unwrap());
        }
        Ok(())
    })
    .unwrap();
    notes
}

fn ledger_dir(root: &Path, name: &str) -> PathBuf {
    root.join("campaigns").join(name).join("ledger")
}

fn is_settled(note: &str) -> bool {
    note.starts_with(r#"{"Settled":"#)
}

/// Polls until the named campaign has committed at least `target`
/// evaluations (or settled), so a kill lands mid-run, not before it.
fn wait_for_progress(service: &Service, name: &str, target: u64) {
    for _ in 0..2000 {
        let status = service.status(Some(name)).unwrap().remove(0);
        if status.evaluations >= target || status.state.is_settled() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{name} never reached {target} evaluations");
}

/// Kill-and-restart bit identity, across three seeds: a daemon killed
/// mid-campaign (simulated crash — only the ledger survives) and
/// reopened from the same root must finish with selections and virtual
/// timelines bit-identical to a never-interrupted run, replaying the
/// committed prefix from the ledger instead of re-evaluating it.
#[test]
fn kill_and_restart_resumes_bit_identically() {
    for seed in [31u64, 32, 33] {
        // Slow the campaign down just enough that the kill lands mid-run.
        let mut spec = alpha_spec(0.002);
        spec.name = format!("crash-{seed}");
        spec.seed = seed;
        let mut reference_spec = spec.clone();
        reference_spec.objective = ObjectiveSpec::Analytic {
            target: 0.3,
            noise_sd: 0.15,
            latency_scale: 0.0,
            fail_trial: None,
            panic_trial: None,
        };
        let reference = standalone(&reference_spec, 8);

        let root = unique_root(&format!("crash_{seed}"));
        let config = ServiceConfig {
            threads: 4,
            global_in_flight: 4,
        };

        // First life: submit, let it commit a few evaluations, crash.
        let interrupted = {
            let service = Service::open(&root, config).unwrap();
            service.submit(spec.clone()).unwrap();
            wait_for_progress(&service, &spec.name, 4);
            service.kill();
            let status = service.status(Some(&spec.name)).unwrap().remove(0);
            drop(service);
            status
        };
        assert!(
            !interrupted.state.is_terminal(),
            "seed {seed}: a killed campaign must stay resumable, got {:?}",
            interrupted.state
        );
        assert!(
            !ledger_notes(&root, &spec.name)
                .iter()
                .any(|n| is_settled(n)),
            "seed {seed}: crash must not leave a Settled note"
        );

        // Second life: reopen the same root. Recovery respawns the driver,
        // which replays the ledger prefix and continues.
        let service = Service::open(&root, config).unwrap();
        let resumed = service.wait(&spec.name, Duration::from_secs(120)).unwrap();
        service.shutdown();

        assert_eq!(resumed.state, CampaignState::Completed, "seed {seed}");
        assert!(
            resumed.ledger_hits > 0,
            "seed {seed}: the restart must replay committed work, not redo it"
        );
        assert_eq!(
            resumed.ledger_hits + resumed.ledger_misses,
            resumed.evaluations,
            "seed {seed}"
        );
        assert_eq!(
            resumed.sim_elapsed.to_bits(),
            reference.sim_elapsed.to_bits(),
            "seed {seed}: sim_elapsed diverged after crash-restart"
        );
        let best = reference.outcome.best().unwrap();
        let selection = resumed.selection.as_ref().unwrap();
        assert_eq!(selection.trial_id, best.trial_id, "seed {seed}");
        assert_eq!(
            selection.score.to_bits(),
            best.score.to_bits(),
            "seed {seed}: selection diverged after crash-restart"
        );

        // Third life: reopening a terminal campaign only reports it.
        let service = Service::open(&root, config).unwrap();
        let reloaded = service.status(Some(&spec.name)).unwrap().remove(0);
        assert_eq!(reloaded.state, CampaignState::Completed, "seed {seed}");
        assert_eq!(
            reloaded.selection.as_ref().unwrap().score.to_bits(),
            selection.score.to_bits(),
            "seed {seed}: the Settled note round-trip changed the selection"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Graceful shutdown mid-campaign suspends (not fails) the tenant, and a
/// reopened service finishes it with the uninterrupted bits.
#[test]
fn graceful_shutdown_suspends_and_resumes() {
    let mut spec = beta_spec(0.004);
    spec.name = "suspended".to_string();
    let mut reference_spec = spec.clone();
    reference_spec.objective = ObjectiveSpec::Analytic {
        target: 0.55,
        noise_sd: 0.05,
        latency_scale: 0.0,
        fail_trial: None,
        panic_trial: None,
    };
    let reference = standalone(&reference_spec, 8);

    let root = unique_root("suspend");
    let config = ServiceConfig {
        threads: 3,
        global_in_flight: 3,
    };
    {
        let service = Service::open(&root, config).unwrap();
        service.submit(spec.clone()).unwrap();
        wait_for_progress(&service, &spec.name, 2);
        service.shutdown();
        let status = service.status(Some(&spec.name)).unwrap().remove(0);
        // Either it finished before the shutdown drained, or it suspended;
        // both must resume/report cleanly below.
        assert!(status.state.is_settled());
    }
    let service = Service::open(&root, config).unwrap();
    let finished = service.wait(&spec.name, Duration::from_secs(120)).unwrap();
    service.shutdown();
    assert_eq!(finished.state, CampaignState::Completed);
    assert_eq!(
        finished.sim_elapsed.to_bits(),
        reference.sim_elapsed.to_bits(),
        "sim_elapsed diverged across suspend/resume"
    );
    let best = reference.outcome.best().unwrap();
    assert_eq!(
        finished.selection.as_ref().unwrap().score.to_bits(),
        best.score.to_bits(),
        "selection diverged across suspend/resume"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A panicking tenant fails alone: its co-tenant completes with clean bits
/// on the same pool and gate.
#[test]
fn a_panicking_tenant_does_not_touch_its_neighbor() {
    let reference = standalone(&beta_spec(0.0), 8);

    let root = unique_root("panic_isolation");
    let service = Service::open(
        &root,
        ServiceConfig {
            threads: 4,
            global_in_flight: 4,
        },
    )
    .unwrap();
    let mut rigged = alpha_spec(0.0);
    rigged.name = "rigged".to_string();
    rigged.objective = ObjectiveSpec::Analytic {
        target: 0.3,
        noise_sd: 0.15,
        latency_scale: 0.0,
        fail_trial: None,
        panic_trial: Some(3),
    };
    service.submit(rigged).unwrap();
    service.submit(beta_spec(0.0)).unwrap();
    let rigged = service.wait("rigged", Duration::from_secs(120)).unwrap();
    let beta = service.wait("beta", Duration::from_secs(120)).unwrap();
    service.shutdown();

    assert_eq!(rigged.state, CampaignState::Failed);
    assert!(rigged.error.is_some());
    assert_matches_standalone(&beta, &reference);

    let _ = std::fs::remove_dir_all(&root);
}

/// Eight threads behind a barrier submit one spec under one fresh name, 20
/// times over: exactly one submit per name is accepted, the rest are
/// duplicates, and every accepted campaign runs alone in its directory to
/// the standalone bits and reopens `Completed`.
#[test]
fn concurrent_same_name_submits_start_exactly_one_campaign() {
    let reference = standalone(&beta_spec(0.0), 8);
    let root = unique_root("same_name");
    let config = ServiceConfig {
        threads: 4,
        global_in_flight: 4,
    };
    let service = Service::open(&root, config).unwrap();
    let names: Vec<String> = (0..20).map(|round| format!("race-{round}")).collect();
    for name in &names {
        let mut spec = beta_spec(0.0);
        spec.name = name.clone();
        let barrier = Barrier::new(8);
        let results: Vec<_> = std::thread::scope(|scope| {
            let submits: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.submit(spec.clone())
                    })
                })
                .collect();
            submits.into_iter().map(|s| s.join().unwrap()).collect()
        });
        let accepted = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(accepted, 1, "{name}: {results:?}");
        for result in results {
            if let Err(e) = result {
                assert!(
                    matches!(e, fedserve::ServeError::DuplicateCampaign { .. }),
                    "{name}: {e}"
                );
            }
        }
    }
    for name in &names {
        let status = service.wait(name, Duration::from_secs(120)).unwrap();
        assert_matches_standalone(&status, &reference);
    }
    service.shutdown();
    drop(service);

    let service = Service::open(&root, config).unwrap();
    for name in &names {
        let status = service.status(Some(name)).unwrap().remove(0);
        assert_eq!(status.state, CampaignState::Completed, "{name}");
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// How a reopened service ended a campaign whose ledger was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// Resumed from the ledger and completed with the pinned bits.
    Resumed,
    /// Reported terminal from its `Settled` note, with the same selection.
    Terminal,
    /// Never acknowledged: skipped and counted.
    Skipped,
}

/// `(end offset, payload tag)` of every frame of one segment file.
fn frames(segment: &[u8]) -> Vec<(usize, u8)> {
    let header = SEGMENT_HEADER_BYTES as usize;
    let mut reader = FrameReader::new(&segment[header..], SEGMENT_HEADER_BYTES);
    let mut out = Vec::new();
    while let Some(payload) = reader.next_frame().unwrap() {
        let tag = payload[0];
        out.push((reader.valid_up_to() as usize, tag));
    }
    out
}

/// Rebuilds a service root holding only `alpha`'s ledger, its one segment
/// cut to `cut` bytes, opens a service on it (which must not fail) and
/// reports how the campaign ended. `settled` is its status before the cut.
fn reopen_cut(root: &Path, segment_bytes: &[u8], cut: usize, settled: &CampaignStatus) -> Ending {
    let _ = std::fs::remove_dir_all(root);
    let ledger = ledger_dir(root, "alpha");
    std::fs::create_dir_all(&ledger).unwrap();
    std::fs::write(segment::segment_path(&ledger, 0), &segment_bytes[..cut]).unwrap();
    let service = Service::open(
        root,
        ServiceConfig {
            threads: 2,
            global_in_flight: 2,
        },
    )
    .unwrap_or_else(|e| panic!("cut at {cut}: open failed: {e}"));
    let counter = |name: &str| service.metrics().counter(name).unwrap_or(0);
    let (skipped, resumed) = (
        counter("serve.campaigns_skipped"),
        counter("serve.campaigns_resumed"),
    );
    let ending = if service.status(Some("alpha")).is_err() {
        assert_eq!((skipped, resumed), (1, 0), "cut at {cut}");
        Ending::Skipped
    } else if resumed == 1 {
        assert_eq!(skipped, 0, "cut at {cut}");
        let status = service.wait("alpha", Duration::from_secs(120)).unwrap();
        assert_eq!(status.state, CampaignState::Completed, "cut at {cut}");
        assert_eq!(
            status.ledger_hits + status.ledger_misses,
            status.evaluations,
            "cut at {cut}"
        );
        assert_pin("alpha", &status, GOLDEN_ALPHA);
        Ending::Resumed
    } else {
        assert_eq!(skipped, 0, "cut at {cut}");
        let status = service.status(Some("alpha")).unwrap().remove(0);
        assert_eq!(&status, settled, "cut at {cut}");
        Ending::Terminal
    };
    service.shutdown();
    ending
}

/// A `Submit` answers only once its spec is on disk: a kill right after it,
/// before a slow first evaluation commits, leaves a campaign the next open
/// resumes to the pinned bits. Cut at every byte offset up to the end of
/// its spec note, the ledger reopens every time: never acknowledged before
/// that offset, resumed at it.
#[test]
fn a_submit_is_durable_and_every_cut_of_its_spec_note_reopens() {
    let root = unique_root("submit_cut");
    let config = ServiceConfig {
        threads: 2,
        global_in_flight: 2,
    };
    let service = Service::open(&root, config).unwrap();
    service.submit(alpha_spec(0.005)).unwrap();
    service.kill();
    drop(service);
    let notes = ledger_notes(&root, "alpha");
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert!(notes[0].starts_with(r#"{"Spec":"#), "{notes:?}");

    let ledger = ledger_dir(&root, "alpha");
    assert_eq!(segment::list_segments(&ledger).unwrap().len(), 1);
    let pristine = std::fs::read(segment::segment_path(&ledger, 0)).unwrap();
    let (spec_end, tag) = frames(&pristine)[0];
    assert_eq!(tag, 3, "the spec note opens the ledger");

    let unused = CampaignStatus::fresh("alpha");
    let swept = unique_root("submit_cut_sweep");
    let started = Instant::now();
    for cut in 0..=spec_end {
        let want = if cut < spec_end {
            Ending::Skipped
        } else {
            Ending::Resumed
        };
        assert_eq!(
            reopen_cut(&swept, &pristine, cut, &unused),
            want,
            "cut at {cut}"
        );
    }
    println!(
        "{} cuts of the submitted ledger in {:.2?}",
        spec_end + 1,
        started.elapsed()
    );

    // The ledger as the kill left it (with whatever the first turns
    // committed) resumes too.
    let service = Service::open(&root, config).unwrap();
    assert_eq!(
        service.metrics().counter("serve.campaigns_resumed"),
        Some(1)
    );
    let resumed = service.wait("alpha", Duration::from_secs(120)).unwrap();
    service.shutdown();
    assert_pin("alpha", &resumed, GOLDEN_ALPHA);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&swept);
}

/// A completed campaign's ledger cut at every byte offset inside its
/// `Settled` note and its last turn's records, and at every frame boundary
/// before those: the service always opens, and the campaign ends exactly
/// one way — never acknowledged (cut inside the spec note), resumed to the
/// pinned bits (cut after it, before the end), or terminal with the same
/// status (no cut).
#[test]
fn every_cut_of_a_settled_ledger_reopens_to_one_ending() {
    let root = unique_root("settled_cut");
    let service = Service::open(
        &root,
        ServiceConfig {
            threads: 2,
            global_in_flight: 2,
        },
    )
    .unwrap();
    service.submit(alpha_spec(0.0)).unwrap();
    let settled = service.wait("alpha", Duration::from_secs(120)).unwrap();
    service.shutdown();
    drop(service);
    assert_pin("alpha", &settled, GOLDEN_ALPHA);

    let ledger = ledger_dir(&root, "alpha");
    assert_eq!(segment::list_segments(&ledger).unwrap().len(), 1);
    let pristine = std::fs::read(segment::segment_path(&ledger, 0)).unwrap();
    let frames = frames(&pristine);
    let (spec_end, _) = frames[0];
    assert_eq!(
        frames.last().map(|&(end, tag)| (end, tag)),
        Some((pristine.len(), 3))
    );
    assert!(is_settled(ledger_notes(&root, "alpha").last().unwrap()));
    // Alpha runs four virtual workers, so no turn commits more than four
    // records: every byte from the fifth-last record frame's end on.
    let records: Vec<usize> = frames
        .iter()
        .filter(|&&(_, tag)| tag == 2)
        .map(|&(end, _)| end)
        .collect();
    assert_eq!(records.len() as u64, settled.evaluations);
    let dense_from = records[records.len() - 5];
    let boundaries = [0, SEGMENT_HEADER_BYTES as usize]
        .into_iter()
        .chain(frames.iter().map(|&(end, _)| end))
        .filter(|&end| end < dense_from);
    let cuts: Vec<usize> = boundaries.chain(dense_from..=pristine.len()).collect();

    let swept = unique_root("settled_cut_sweep");
    let started = Instant::now();
    for &cut in &cuts {
        let want = if cut < spec_end {
            Ending::Skipped
        } else if cut < pristine.len() {
            Ending::Resumed
        } else {
            Ending::Terminal
        };
        assert_eq!(
            reopen_cut(&swept, &pristine, cut, &settled),
            want,
            "cut at {cut}"
        );
    }
    println!(
        "{} cuts of the settled ledger in {:.2?}",
        cuts.len(),
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&swept);
}

/// One bad campaign directory never stops the daemon: a root holding a
/// terminal campaign, a suspended one, and one directory each with no
/// ledger, only a torn spec note, a segment of another format version and a
/// note that does not decode opens; the terminal one reports its stored
/// status, the suspended one resumes to its pinned bits, and the four bad
/// directories are skipped, counted and left on disk.
#[test]
fn one_bad_campaign_directory_never_stops_the_daemon() {
    let root = unique_root("bad_dirs");
    let config = ServiceConfig {
        threads: 2,
        global_in_flight: 2,
    };
    let (terminal, resumable) = {
        let service = Service::open(&root, config).unwrap();
        service.submit(beta_spec(0.0)).unwrap();
        let terminal = service.wait("beta", Duration::from_secs(120)).unwrap();
        service.submit(alpha_spec(0.002)).unwrap();
        wait_for_progress(&service, "alpha", 4);
        service.kill();
        let resumable = service.status(Some("alpha")).unwrap().remove(0);
        (terminal, resumable)
    };
    assert_eq!(terminal.state, CampaignState::Completed);
    assert!(!resumable.state.is_terminal());

    let campaigns = root.join("campaigns");
    std::fs::create_dir_all(campaigns.join("no-ledger")).unwrap();
    // A submit that died between taking its lock and creating its ledger.
    std::fs::create_dir_all(campaigns.join("stale-lock")).unwrap();
    std::fs::write(campaigns.join("stale-lock").join("LOCK"), "pid 1\n").unwrap();
    let bad_ledger = |name: &str, bytes: &[u8]| {
        let ledger = ledger_dir(&root, name);
        std::fs::create_dir_all(&ledger).unwrap();
        std::fs::write(segment::segment_path(&ledger, 0), bytes).unwrap();
    };
    let spec_note = std::fs::read(segment::segment_path(&ledger_dir(&root, "beta"), 0)).unwrap();
    let (spec_end, _) = frames(&spec_note)[0];
    bad_ledger("torn-spec", &spec_note[..spec_end - 1]);
    let mut old_version = spec_note[..spec_end].to_vec();
    old_version[4..8].copy_from_slice(&1u32.to_le_bytes());
    bad_ledger("old-version", &old_version);
    let mut undecodable =
        fedstore::TrialStore::open_segments(ledger_dir(&root, "undecodable")).unwrap();
    undecodable.append_note(b"{\"Spec\": 42}").unwrap();
    drop(undecodable);
    let before = |name: &str| {
        let mut files: Vec<_> = walk(&campaigns.join(name));
        files.sort();
        files
    };
    let bad = [
        "no-ledger",
        "stale-lock",
        "torn-spec",
        "old-version",
        "undecodable",
    ];
    let kept: Vec<_> = bad.iter().map(|name| before(name)).collect();

    let service = Service::open(&root, config).unwrap();
    assert_eq!(
        service.metrics().counter("serve.campaigns_skipped"),
        Some(5)
    );
    assert_eq!(service.status(Some("beta")).unwrap().remove(0), terminal);
    let resumed = service.wait("alpha", Duration::from_secs(120)).unwrap();
    assert_eq!(resumed.state, CampaignState::Completed);
    assert!(resumed.ledger_hits > 0);
    assert_pin("alpha", &resumed, GOLDEN_ALPHA);
    for name in bad {
        assert!(service.status(Some(name)).is_err(), "{name}");
    }
    // A directory whose notes the service could not restore is not
    // reused by a new submit of its name.
    let mut reuse = beta_spec(0.0);
    reuse.name = "undecodable".to_string();
    assert!(matches!(
        service.submit(reuse),
        Err(fedserve::ServeError::DuplicateCampaign { .. })
    ));
    // Opening broke the stale lock, so the name is submittable again.
    assert!(!campaigns.join("stale-lock").join("LOCK").exists());
    let mut retry = beta_spec(0.0);
    retry.name = "stale-lock".to_string();
    service.submit(retry).unwrap();
    let retried = service
        .wait("stale-lock", Duration::from_secs(120))
        .unwrap();
    assert_pin("stale-lock", &retried, GOLDEN_BETA);
    service.shutdown();
    // Opening truncated the torn note away, as ledger recovery does; every
    // other bad directory is byte-identical.
    for (name, files) in bad.iter().zip(&kept) {
        if !matches!(*name, "torn-spec" | "stale-lock") {
            assert_eq!(&before(name), files, "{name}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every file under `dir` with its bytes.
fn walk(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            let bytes = std::fs::read(&path).unwrap();
            out.push((path, bytes));
        }
    }
    out
}

/// The spec → selection record survives the JSON wire format bit-exactly.
#[test]
fn selection_json_round_trip_is_bit_exact() {
    let selection = Selection {
        trial_id: 7,
        config: vec![0.123_456_789_012_345_68, 1e-300],
        score: 0.1 + 0.2, // famously not 0.3
        resource: 9,
        sim_time: 12345.6789,
    };
    let json = serde_json::to_string(&selection).unwrap();
    let back: Selection = serde_json::from_str(&json).unwrap();
    assert_eq!(back.score.to_bits(), selection.score.to_bits());
    assert_eq!(back.sim_time.to_bits(), selection.sim_time.to_bits());
    for (a, b) in back.config.iter().zip(&selection.config) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
