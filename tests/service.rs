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
use fedtune_core::{drive, Cap, Clock, Drive, EventDrivenOutcome, VirtualExecution};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Service-level golden pins: `(name, evaluations, best trial, score bits,
/// sim_elapsed bits)` for the two tenant campaigns of the daemon tests.
const GOLDEN_ALPHA: (u64, usize, u64, u64) = (19, 7, 0x3fd244caf1d2a73c, 0x406d1d48e6ac78b3); // score 0.2854487763930711, sim_elapsed 232.91514905629955
const GOLDEN_BETA: (u64, usize, u64, u64) = (10, 2, 0x3fbcd49ae6e50b78, 0x4072800000000000); // score 0.11261909615590848, sim_elapsed 296

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
/// mid-campaign (simulated crash — only spec + ledger survive) and
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
            !root
                .join("campaigns")
                .join(&spec.name)
                .join("DONE.json")
                .exists(),
            "seed {seed}: crash must not leave a terminal marker"
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
            "seed {seed}: DONE.json round-trip changed the selection"
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
