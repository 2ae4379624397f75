//! `ledger_cycle`: `fedstore` alone, the same layer used four ways.
//!
//! One repetition writes a fixed set of synthetic trial records through
//! `TrialStore` with group commit, streams them back with
//! `for_each_record`, re-opens the store (which rebuilds the index), and then
//! makes single durable inserts into a fresh store, the way `fedserve` uses
//! the ledger. A gain for one use that costs another shows here. The record
//! count is fixed because ingest is not linear in it.

use crate::harness::{self, dir_bytes, histogram_sum_delta, Args, Fnv, Rep, Report, ScratchDir};
use crate::spans::Spans;
use fedstore::segment::for_each_record;
use fedstore::{
    ConfigKey, Durability, Provenance, SegmentConfig, SegmentWriter, TrialRecord, TrialStore,
};
use rand::Rng;
use std::path::Path;
use std::time::Instant;

/// Records per group commit.
const COMMIT_EVERY: u64 = 4096;

/// The traced run times one bulk insert call in this many: timing each one
/// would cost more than the 5 % the harness allows itself.
const SAMPLE_EVERY: usize = 8;

struct Fixture {
    bulk: Vec<TrialRecord>,
    durable: Vec<TrialRecord>,
    /// What streaming the bulk records back must fold to.
    checksum: u64,
}

fn fold_checksum(checksum: u64, position: u64, record: &TrialRecord) -> u64 {
    checksum
        ^ record
            .noisy_score
            .to_bits()
            .rotate_left((position % 63) as u32)
}

/// The fixture shape of the repository's `ledger_throughput` bench — unique
/// two-value keys, small resources — with scores drawn from the seed.
fn fixture(seed: u64, bulk: usize, durable: usize) -> Fixture {
    let provenance = Provenance {
        benchmark: "cifar10-like".into(),
        scale: "bench".into(),
        seed,
        noise: "noisy".into(),
    };
    let mut rng = fedmath::rng::rng_for(seed, 7);
    let lane = (seed % 1000) as f64;
    let mut record = |i: usize| {
        let x = i as f64 * 1e-6;
        let true_error = 0.5 * x + 0.4 * rng.gen::<f64>();
        TrialRecord {
            config: ConfigKey::from_canonical_values(&[x, lane]).expect("finite values"),
            resource: 1 + i % 50,
            rep: 0,
            noisy_score: true_error + 0.1 * rng.gen::<f64>(),
            true_error,
            sim_time: x,
            provenance: provenance.clone(),
        }
    };
    let bulk: Vec<TrialRecord> = (0..bulk).map(&mut record).collect();
    let durable: Vec<TrialRecord> = (bulk.len()..bulk.len() + durable)
        .map(&mut record)
        .collect();
    let checksum = bulk
        .iter()
        .enumerate()
        .fold(0, |sum, (i, r)| fold_checksum(sum, i as u64 + 1, r));
    Fixture {
        bulk,
        durable,
        checksum,
    }
}

/// Seconds spent in each phase of one cycle.
#[derive(Debug, Clone, Copy, Default)]
struct CycleTimes {
    ingest_s: f64,
    replay_s: f64,
    reopen_s: f64,
    durable_s: f64,
    cpu_s: f64,
    bulk_bytes: u64,
}

impl CycleTimes {
    /// The gated part of a cycle. The durable inserts are left out: each
    /// waits for the host's disk to sync, so their time says more about the
    /// disk than about the program; they are reported as a layer metric.
    fn wall_s(&self) -> f64 {
        self.ingest_s + self.replay_s + self.reopen_s
    }
}

fn bulk_config() -> SegmentConfig {
    SegmentConfig {
        durability: Durability::EveryN(COMMIT_EVERY),
        ..SegmentConfig::default()
    }
}

/// One cycle over owned copies of the fixture. `insert_ns`, when given,
/// receives the time of sampled bulk insert calls (the traced run);
/// `durable_s` always receives the time of every durable insert.
fn cycle(
    rep: u64,
    fixture: &Fixture,
    root: &Path,
    spans: &Spans,
    mut insert_ns: Option<&mut Vec<u32>>,
    durable_s: &mut Vec<f64>,
) -> Result<CycleTimes, String> {
    let bulk_dir = root.join(format!("bulk-{rep}"));
    let durable_dir = root.join(format!("durable-{rep}"));
    // Owned copies are made before the clock starts: `insert` takes records
    // by value, and copying them is the harness's cost, not the ledger's.
    let bulk = fixture.bulk.clone();
    let durable = fixture.durable.clone();
    let expected = bulk.len();
    let mut times = CycleTimes::default();
    let cpu_before = harness::cpu_seconds();
    let err = |e: fedstore::StoreError| e.to_string();

    {
        let _phase = spans.enter("fedstore.ingest", rep);
        let started = Instant::now();
        let mut store = TrialStore::open_segments_with(&bulk_dir, bulk_config()).map_err(err)?;
        let mut pending = 0u64;
        let mut batch = spans.enter("fedstore.insert_batch", rep);
        for (i, record) in bulk.into_iter().enumerate() {
            match insert_ns.as_deref_mut() {
                Some(samples) if i % SAMPLE_EVERY == 0 => {
                    let t = Instant::now();
                    store.insert_unsynced(record).map_err(err)?;
                    samples.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                }
                _ => {
                    store.insert_unsynced(record).map_err(err)?;
                }
            }
            pending += 1;
            if pending == COMMIT_EVERY {
                drop(batch);
                {
                    let _commit = spans.enter("fedstore.group_commit", rep);
                    store.group_commit().map_err(err)?;
                }
                pending = 0;
                batch = spans.enter("fedstore.insert_batch", rep);
            }
        }
        drop(batch);
        {
            let _flush = spans.enter("fedstore.flush", rep);
            store.flush().map_err(err)?;
        }
        if store.len() != expected {
            return Err(format!("ingested {} of {expected} records", store.len()));
        }
        drop(store);
        times.ingest_s = started.elapsed().as_secs_f64();
    }
    times.bulk_bytes = dir_bytes(&bulk_dir);

    {
        let _phase = spans.enter("fedstore.replay", rep);
        let started = Instant::now();
        let mut replayed = 0u64;
        let mut checksum = 0u64;
        for_each_record(&bulk_dir, |record| {
            replayed += 1;
            checksum = fold_checksum(checksum, replayed, &record);
            Ok(())
        })
        .map_err(err)?;
        times.replay_s = started.elapsed().as_secs_f64();
        if replayed != expected as u64 || checksum != fixture.checksum {
            return Err(format!(
                "replay streamed {replayed} of {expected} records, checksum {checksum:#x} \
                 (expected {:#x})",
                fixture.checksum
            ));
        }
    }

    {
        let _phase = spans.enter("fedstore.reopen", rep);
        let started = Instant::now();
        let store = TrialStore::open_segments(&bulk_dir).map_err(err)?;
        let len = store.len();
        drop(store);
        times.reopen_s = started.elapsed().as_secs_f64();
        if len != expected {
            return Err(format!("re-open indexed {len} of {expected} records"));
        }
    }
    times.cpu_s = harness::cpu_seconds() - cpu_before;

    {
        let _phase = spans.enter("fedstore.durable_inserts", rep);
        let started = Instant::now();
        // The default configuration syncs every insert before it returns.
        let mut store = TrialStore::open_segments(&durable_dir).map_err(err)?;
        for record in durable {
            let t = Instant::now();
            let added = store.insert(record).map_err(err)?;
            durable_s.push(t.elapsed().as_secs_f64());
            if !added {
                return Err("a durable insert was reported as a duplicate".into());
            }
        }
        drop(store);
        times.durable_s = started.elapsed().as_secs_f64();
    }

    let _ = std::fs::remove_dir_all(&bulk_dir);
    let _ = std::fs::remove_dir_all(&durable_dir);
    Ok(times)
}

/// Raw `SegmentWriter` appends of the same records at the same commit
/// cadence: what ingest costs without the store's index.
fn writer_seconds(fixture: &Fixture, root: &Path) -> Result<f64, String> {
    let dir = root.join("writer");
    let err = |e: fedstore::StoreError| e.to_string();
    let started = Instant::now();
    let mut writer = SegmentWriter::open(&dir, bulk_config()).map_err(err)?;
    for record in &fixture.bulk {
        writer.append_unsynced(record).map_err(err)?;
        if writer.unsynced() >= COMMIT_EVERY {
            writer.group_commit().map_err(err)?;
        }
    }
    writer.flush().map_err(err)?;
    drop(writer);
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(seconds)
}

fn rate_median(times: &[CycleTimes], records: usize, phase: impl Fn(&CycleTimes) -> f64) -> f64 {
    let mut rates: Vec<f64> = times.iter().map(|t| records as f64 / phase(t)).collect();
    harness::median(&mut rates)
}

/// What the traced cycles add to the untraced ones.
struct Traced {
    spans: Spans,
    /// Time of every `SAMPLE_EVERY`-th bulk insert call, in nanoseconds.
    insert_ns: Vec<u32>,
    walls: Vec<f64>,
    before: fedtrace::MetricsSnapshot,
    after: fedtrace::MetricsSnapshot,
}

pub fn run(args: &Args) -> Report {
    let (bulk, durable) = if args.smoke {
        (20_000, 200)
    } else {
        (100_000, 1_000)
    };
    let mut report = Report::default();
    let (fixture, setup_s) =
        harness::measure_setup(args.smoke, || fixture(args.seed, bulk, durable));
    report.setup_s = setup_s;
    let scratch = ScratchDir::new(&args.out_dir, "ledger").expect("scratch directory");
    let per_rep = (bulk + durable) as u64;
    let untraced = Spans::disabled();

    // Warm-up: page cache, allocator and directory entries.
    let mut ignored = Vec::new();
    let _ = cycle(0, &fixture, scratch.path(), &untraced, None, &mut ignored);

    // A traced run alternates untraced and traced cycles, so that the two
    // medians see the same machine state and their difference is the
    // harness's own overhead.
    let mut traced = args.trace.then(|| Traced {
        spans: Spans::enabled(),
        insert_ns: Vec::new(),
        walls: Vec::new(),
        before: harness::counters(),
        after: harness::counters(),
    });
    let mut reps: Vec<CycleTimes> = Vec::new();
    let mut durable_s: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut rep = 1u64;
    while reps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        report.attempted += per_rep;
        match cycle(
            rep,
            &fixture,
            scratch.path(),
            &untraced,
            None,
            &mut durable_s,
        ) {
            Ok(times) => reps.push(times),
            Err(message) => {
                report.failed += per_rep;
                report
                    .check_failures
                    .push(format!("cycle {rep}: {message}"));
                break;
            }
        }
        if let Some(t) = traced.as_mut() {
            t.before = harness::counters();
            let outcome = cycle(
                rep,
                &fixture,
                scratch.path(),
                &t.spans,
                Some(&mut t.insert_ns),
                &mut ignored,
            );
            t.after = harness::counters();
            match outcome {
                Ok(times) => t.walls.push(times.wall_s()),
                Err(message) => {
                    report.fail_check(format!("traced cycle {rep}: {message}"));
                    break;
                }
            }
        }
        rep += 1;
    }
    // What a caller waits for here is the re-open: a restarted service
    // answers nothing until its ledger is indexed again.
    report.timed.latencies_s = reps.iter().map(|t| t.reopen_s).collect();
    report.timed.reps = reps
        .iter()
        .map(|t| Rep {
            wall_s: t.wall_s(),
            cpu_s: t.cpu_s,
            trials: bulk as u64,
        })
        .collect();

    let mut digest = Fnv::new();
    digest.word(fixture.checksum);
    digest.word(reps.first().map_or(0, |t| t.bulk_bytes));
    report.digest = digest.0;
    if reps.is_empty() {
        return report;
    }

    let bytes_per_trial = reps[0].bulk_bytes as f64 / bulk as f64;
    let ingest = rate_median(&reps, bulk, |t| t.ingest_s);
    let replay = rate_median(&reps, bulk, |t| t.replay_s);
    let reopen = rate_median(&reps, bulk, |t| t.reopen_s);
    let commits = rate_median(&reps, durable, |t| t.durable_s);
    report.notes.push(format!(
        "{} cycles of {bulk} bulk + {durable} durable records; ingest {ingest:.0}/s, \
         replay {replay:.0}/s, re-open {reopen:.0}/s, durable {commits:.0}/s, \
         {bytes_per_trial:.3} B/record; durable insert p50 {:.1} us",
        reps.len(),
        harness::median(&mut durable_s) * 1e6
    ));
    report.layer("fedstore.ingest_trials_per_s", ingest);
    report.layer("fedstore.replay_trials_per_s", replay);
    report.layer("fedstore.reopen_trials_per_s", reopen);
    report.layer("fedstore.durable_commits_per_s", commits);
    report.layer("fedstore.bytes_per_trial", bytes_per_trial);

    if let Some(traced) = traced.filter(|t| !t.walls.is_empty()) {
        layer_metrics(args, &fixture, &scratch, &reps, traced, &mut report);
    }
    report
}

/// Insert-time percentiles, the store's own counters over the last traced
/// cycle, the raw-writer probe and the harness's overhead.
fn layer_metrics(
    args: &Args,
    fixture: &Fixture,
    scratch: &ScratchDir,
    untraced: &[CycleTimes],
    mut traced: Traced,
    report: &mut Report,
) {
    let mut insert_us: Vec<f64> = traced
        .insert_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    insert_us.sort_by(f64::total_cmp);
    report.layer(
        "fedstore.insert_us_p50",
        harness::percentile(&insert_us, 0.5),
    );
    report.layer(
        "fedstore.insert_us_p99",
        harness::percentile(&insert_us, 0.99),
    );
    report.layer_counters(
        &traced.before,
        &traced.after,
        &[
            ("fedstore.group_commits", "store.group_commits"),
            ("fedstore.syncs", "store.syncs"),
            ("fedstore.bytes_written", "store.bytes_written"),
            ("fedstore.records_replayed", "store.records_replayed"),
            (
                "fedstore.recovery_truncated_bytes",
                "store.recovery_truncated_bytes",
            ),
        ],
    );
    report.layer(
        "fedstore.sync_busy_us",
        histogram_sum_delta(&traced.before, &traced.after, "store.sync_micros"),
    );

    match writer_seconds(fixture, scratch.path()) {
        Ok(seconds) => {
            let mut ingest: Vec<f64> = untraced.iter().map(|t| t.ingest_s).collect();
            let ingest_s = harness::median(&mut ingest);
            report.layer(
                "fedstore.writer_trials_per_s",
                fixture.bulk.len() as f64 / seconds,
            );
            report.layer("fedstore.index_share", 1.0 - seconds / ingest_s);
        }
        Err(message) => report.fail_check(format!("writer probe: {message}")),
    }

    let mut untraced_walls: Vec<f64> = untraced.iter().map(CycleTimes::wall_s).collect();
    let base = harness::median(&mut untraced_walls);
    let overhead = (harness::median(&mut traced.walls) - base) / base * 100.0;
    report.layer("harness.trace_overhead_pct", overhead);

    report.write_trace(args, "ledger_cycle", &traced.spans);
}
