//! Trial-ledger storage-engine throughput, the 10M-trial record→replay
//! cycle with bounded memory asserted, and a million-trial crash-recovery
//! cycle.
//!
//! The one-off summary measures, at `FEDTUNE_LEDGER_TRIALS` scale (default
//! four million):
//!
//! - **group-commit ingest** — raw [`fedstore::SegmentWriter`] appends with
//!   one `sync_data` per 64Ki-record batch, the bounded-memory bulk path;
//! - **streaming replay** — [`fedstore::segment::for_each_record`] back over
//!   every frame, CRC-verified, never holding the ledger in memory;
//! - **indexed ingest** — `TrialStore::insert_many` at one tenth the scale,
//!   paying content-addressed dedup and index maintenance;
//! - **indexed re-open** — `TrialStore::open_segments` over the ledger the
//!   indexed ingest just wrote: what a restarted campaign or daemon waits for.
//!
//! The phases run in this order:
//!
//! 1. the **scale phase**: the full record→replay cycle at
//!    `FEDTUNE_LEDGER_SCALE_TRIALS` (default ten million). Peak RSS is read
//!    before and after, and the growth must stay under a fixed cap whatever
//!    the trial count: the cycle streams in bounded memory;
//! 2. group-commit ingest and streaming replay (gated);
//! 3. indexed ingest and indexed re-open (gated);
//! 4. the **recovery phase**: a million trials recorded and replayed in
//!    8 MiB segments, one byte of the newest segment flipped, the ledger
//!    re-opened (recovery truncates at the corrupt frame), appended to,
//!    re-opened again and compacted. Its accounting is read from the global
//!    `fedtrace` registry's `store.*` counters, as deltas around the phase.
//!
//! The scale phase runs first because peak RSS is the process's high-water
//! mark (`VmHWM`): a `TrialStore` index built earlier raises that mark by
//! tens of MiB, and even the gated cycle leaves it at the cycle's own peak,
//! so a growth measured under either reads 0 whatever the cycle does.
//! Neither the scale phase nor the recovery phase is a gated summary entry
//! — at half-gigabyte ledger sizes the scale phase's wall time measures the
//! host's page provisioning and writeback, not the engine, and would flake
//! a relative gate.
//!
//! With `FEDTUNE_BENCH_JSON=1` the summary lands in
//! `BENCH_ledger_throughput.json`, which CI gates against the committed
//! baseline via `perf_compare` (a >30% throughput drop fails).

use criterion::{criterion_group, criterion_main, Criterion};
use fedstore::segment::{for_each_record, list_segments};
use fedstore::{
    ConfigKey, Durability, Provenance, SegmentConfig, SegmentWriter, TrialRecord, TrialStore,
};
use std::path::PathBuf;
use std::time::Instant;

/// Group-commit batch: one `sync_data` per this many appended records.
const COMMIT_EVERY: u64 = 1 << 16;

/// The bounded-memory cap on the scale phase's peak-RSS growth. The
/// 10M-trial ledger is ~530 MB on disk; the cycle must not scale with it.
const RSS_CAP_KB: u64 = 64 * 1024;

/// Trials the recovery phase records before corrupting its ledger.
const RECOVERY_TRIALS: u64 = 1_000_000;

/// Wall-clock bound on the whole recovery phase (it takes a few seconds in
/// release).
const RECOVERY_BOUND_SECS: f64 = 120.0;

/// The registry counters the recovery phase reads, as deltas around it.
const RECOVERY_COUNTERS: [&str; 4] = [
    "store.records_appended",
    "store.records_replayed",
    "store.recovery_truncated_bytes",
    "store.compaction_swaps",
];

/// Absolute ingest floor (trials/s): the engine must sustain a million
/// group-committed trials per second, with `perf_compare` handling the
/// finer-grained 30% relative gate on top.
const INGEST_FLOOR: f64 = 1_000_000.0;

/// Indexed ingest as a fraction of the raw writer's rate **in the same
/// run**: a host-independent floor under the index's cost, so an index
/// regression fails even on a runner whose absolute rates make the relative
/// gate meaningless. The two-hash-map store with three copies of every key
/// ran at 0.13; the one-B-tree store measured 0.39 / 0.41 / 0.42 over three
/// runs at the default scale, and the floor is about half of that.
const INDEXED_RATIO_FLOOR: f64 = 0.2;

fn env_trials(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn provenance() -> Provenance {
    Provenance {
        benchmark: "cifar10-like".into(),
        scale: "bench".into(),
        seed: 42,
        noise: "noisy".into(),
    }
}

/// The i-th synthetic trial: unique key, deterministic scores.
fn trial(i: u64, provenance: &Provenance) -> TrialRecord {
    let x = (i % 1_000_000) as f64 * 1e-6;
    TrialRecord {
        config: ConfigKey::from_canonical_values(&[x, (i / 1_000_000) as f64])
            .expect("finite values"),
        resource: 1 + (i % 50) as usize,
        rep: 0,
        noisy_score: x * 0.5 + 0.1,
        true_error: x * 0.5,
        sim_time: x,
        provenance: provenance.clone(),
    }
}

/// Scratch root for bench ledgers. The bench measures the storage engine
/// (framing, CRC, syscall overhead), not the host's disk, so it prefers
/// tmpfs when available; `FEDTUNE_LEDGER_DIR` overrides (set it to a real
/// mount to measure end-to-end disk throughput instead).
fn scratch_root() -> PathBuf {
    if let Ok(dir) = std::env::var("FEDTUNE_LEDGER_DIR") {
        return PathBuf::from(dir);
    }
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        return shm;
    }
    std::env::temp_dir()
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(format!("fedtune_ledger_bench_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The writer configuration of the gated cycle and the scale phase: 64 MiB
/// segments, group commit every [`COMMIT_EVERY`] records.
fn bulk_config() -> SegmentConfig {
    SegmentConfig {
        segment_bytes: 64 << 20,
        durability: Durability::EveryN(COMMIT_EVERY),
    }
}

/// Records `n` trials with group commit (one `sync_data` per
/// [`COMMIT_EVERY`] records) and streams them all back, returning (ledger
/// bytes, ingest seconds, replay seconds). The shared engine cycle behind
/// the gated entries, the scale phase and the recovery phase.
fn record_replay_cycle(
    dir: &PathBuf,
    n: u64,
    p: &Provenance,
    config: SegmentConfig,
) -> (u64, f64, f64) {
    let start = Instant::now();
    let mut writer = SegmentWriter::open(dir, config).expect("open writer");
    for i in 0..n {
        writer.append_unsynced(&trial(i, p)).expect("append");
        if writer.unsynced() >= COMMIT_EVERY {
            writer.group_commit().expect("group commit");
        }
    }
    writer.flush().expect("flush");
    let bytes = writer.bytes_appended();
    drop(writer);
    let ingest_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut replayed = 0u64;
    let mut checksum = 0u64;
    for_each_record(dir, |r| {
        replayed += 1;
        checksum ^= r.noisy_score.to_bits().rotate_left((replayed % 63) as u32);
        Ok(())
    })
    .expect("replay");
    let replay_seconds = start.elapsed().as_secs_f64();
    assert_eq!(replayed, n, "replay must stream back every recorded trial");
    assert_ne!(checksum, 0, "scores must round-trip");
    (bytes, ingest_seconds, replay_seconds)
}

fn regenerate() {
    let mut summary = fedbench::BenchSummary::new("ledger_throughput");
    let n = env_trials("FEDTUNE_LEDGER_TRIALS", 4_000_000);
    let p = provenance();

    // 1. The scale phase: the full record→replay cycle at ten million
    // trials, gated on *memory*, not time — its wall clock is dominated by
    // how fast the host provisions and writes back half a gigabyte of pages.
    // It runs first, so the high-water mark it starts from is the
    // process's baseline, not the peak of an earlier phase.
    let scale_n = env_trials("FEDTUNE_LEDGER_SCALE_TRIALS", 10_000_000);
    let dir = bench_dir("scale");
    let rss_before = fedbench::peak_rss_kb();
    let (scale_bytes, scale_ingest_s, scale_replay_s) =
        record_replay_cycle(&dir, scale_n, &p, bulk_config());
    if let (Some(before), Some(after)) = (rss_before, fedbench::peak_rss_kb()) {
        let grew = after.saturating_sub(before);
        assert!(
            grew < RSS_CAP_KB,
            "record→replay of {scale_n} trials grew peak RSS by {grew} KiB (cap {RSS_CAP_KB} KiB)"
        );
        println!(
            "scale cycle: {scale_n} trials recorded in {scale_ingest_s:.1}s, \
             replayed in {scale_replay_s:.1}s, peak RSS {before} -> {after} KiB \
             (growth {grew} KiB, cap {RSS_CAP_KB} KiB)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // 2. Group-commit ingest and streaming replay: the engine numbers,
    // measured at a working-set size that stays in memory so the gate tracks
    // the storage engine rather than the host's paging behaviour.
    let dir = bench_dir("ingest");
    let (bytes, ingest_seconds, replay_seconds) = record_replay_cycle(&dir, n, &p, bulk_config());
    summary.push("segment_group_commit_ingest", ingest_seconds, n);
    summary.push("segment_stream_replay", replay_seconds, n);
    let _ = std::fs::remove_dir_all(&dir);

    // 3. Indexed ingest through the store (dedup + index maintenance).
    let indexed_n = (n / 10).max(1);
    let dir = bench_dir("indexed");
    summary.time("store_insert_many_indexed", indexed_n, || {
        let mut store = TrialStore::open_segments_with(
            &dir,
            SegmentConfig {
                durability: Durability::OnFlush,
                ..SegmentConfig::default()
            },
        )
        .expect("open store");
        let mut batch = Vec::with_capacity(4096);
        for i in 0..indexed_n {
            batch.push(trial(i, &p));
            if batch.len() == 4096 {
                store.insert_many(batch.drain(..)).expect("insert batch");
            }
        }
        store.insert_many(batch.drain(..)).expect("insert tail");
        store.flush().expect("flush");
        assert_eq!(store.len() as u64, indexed_n);
    });
    // 3b. Re-opening that ledger: decode every frame and rebuild the index.
    summary.time("store_reopen_indexed", indexed_n, || {
        let store = TrialStore::open_segments(&dir).expect("re-open store");
        assert_eq!(store.len() as u64, indexed_n);
    });
    let _ = std::fs::remove_dir_all(&dir);

    // 4. Corruption, recovery and compaction.
    recovery_phase(&p);

    let ingest = summary.entries[0].throughput_per_second;
    let replay = summary.entries[1].throughput_per_second;
    let bytes_per_trial = scale_bytes as f64 / scale_n as f64;
    assert!((bytes as f64 / n as f64 - bytes_per_trial).abs() < 1.0);
    summary.headline("trials_ingested_per_sec", ingest);
    summary.headline("replay_trials_per_sec", replay);
    summary.headline("ledger_bytes_per_trial", bytes_per_trial);
    assert!(
        ingest >= INGEST_FLOOR,
        "group-commit ingest collapsed: {ingest:.0} trials/s < {INGEST_FLOOR:.0}"
    );
    let indexed_ratio = summary.entries[2].throughput_per_second / ingest;
    assert!(
        indexed_ratio >= INDEXED_RATIO_FLOOR,
        "indexed ingest fell to {indexed_ratio:.3} of the raw writer's rate \
         (floor {INDEXED_RATIO_FLOOR})"
    );
    println!(
        "\nledger throughput over {n} trials: ingest {:.2}M/s, replay {:.2}M/s, {bytes_per_trial:.1} B/trial",
        ingest / 1e6,
        replay / 1e6,
    );
    summary.write_if_enabled();
}

/// The registry's [`RECOVERY_COUNTERS`] now.
fn store_counters() -> [u64; 4] {
    let snapshot = fedtrace::global().snapshot();
    RECOVERY_COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

/// Records [`RECOVERY_TRIALS`] trials in 8 MiB segments, flips one byte of
/// the newest segment, and checks that re-opening truncates the ledger at
/// the corrupt frame, keeps it writable, converges on a second re-open, and
/// compacts every survivor.
fn recovery_phase(p: &Provenance) {
    let n = RECOVERY_TRIALS;
    let dir = bench_dir("recovery");
    let counters_before = store_counters();
    let started = Instant::now();
    let config = SegmentConfig {
        durability: Durability::EveryN(COMMIT_EVERY),
        ..SegmentConfig::default()
    };
    record_replay_cycle(&dir, n, p, config);

    // Flip one byte three quarters of the way into the newest segment.
    // Every byte past the header belongs to some CRC-framed record, so this
    // always lands inside a frame.
    let (_, newest) = list_segments(&dir)
        .expect("list segments")
        .into_iter()
        .next_back()
        .expect("ledger has segments");
    let mut bytes = std::fs::read(&newest).expect("read segment");
    let target = (bytes.len() * 3 / 4).max(9);
    bytes[target] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("write segment");

    // Recovery truncates at the corrupt frame and the store stays
    // writable; a second re-open sees the same ledger plus the append.
    let mut store = TrialStore::open_segments(&dir).expect("recover");
    let survivors = store.len() as u64;
    assert!(survivors > 0, "recovery must keep the valid prefix");
    assert!(survivors < n, "corruption must cost at least one record");
    let accepted = store.insert(trial(n + 1, p)).expect("append");
    assert!(accepted, "the recovered store accepts appends");
    store.flush().expect("flush");
    drop(store);
    let mut store = TrialStore::open_segments(&dir).expect("re-open");
    let reopened = store.len() as u64;
    assert_eq!(
        reopened,
        survivors + 1,
        "the second re-open must converge on the recovered ledger plus the append"
    );
    let compacted = store.compact().expect("compact");
    assert_eq!(compacted.records, survivors + 1);
    assert_eq!(store.len() as u64, survivors + 1);
    drop(store);
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let [appended, replayed, truncated, swaps] = {
        let after = store_counters();
        std::array::from_fn(|i| after[i] - counters_before[i])
    };
    println!(
        "recovery phase: flipped byte {target} of {}; {survivors} of {n} trials survive, \
         append accepted: {accepted}, second re-open: {reopened}, compacted: {} records \
         ({} -> {} segments); store.records_appended +{appended}, \
         store.records_replayed +{replayed}, store.recovery_truncated_bytes +{truncated}, \
         store.compaction_swaps +{swaps}; {seconds:.2}s (bound {RECOVERY_BOUND_SECS}s)",
        newest.file_name().unwrap_or_default().to_string_lossy(),
        compacted.records,
        compacted.segments_before,
        compacted.segments_after,
    );
    assert!(
        appended >= n,
        "store.records_appended rose by {appended} < {n}"
    );
    assert_eq!(replayed, n, "store.records_replayed");
    assert!(truncated > 0, "recovery truncated nothing");
    assert_eq!(swaps, 1, "store.compaction_swaps");
    assert!(
        seconds < RECOVERY_BOUND_SECS,
        "the recovery phase took {seconds:.1}s (bound {RECOVERY_BOUND_SECS}s)"
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let p = provenance();

    let mut group = c.benchmark_group("ledger_throughput");
    group.sample_size(10);

    // Micro: appending 10k records (group-committed once per iteration).
    let dir = bench_dir("criterion_append");
    let mut writer = SegmentWriter::open(
        &dir,
        SegmentConfig {
            segment_bytes: 64 << 20,
            durability: Durability::OnFlush,
        },
    )
    .expect("open writer");
    let mut next = 0u64;
    group.bench_function("append_10k_group_commit", |b| {
        b.iter(|| {
            for _ in 0..10_000 {
                writer.append_unsynced(&trial(next, &p)).expect("append");
                next += 1;
            }
            writer.flush().expect("flush");
        })
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);

    // Micro: streaming 100k records back.
    let dir = bench_dir("criterion_replay");
    let mut writer = SegmentWriter::open(&dir, SegmentConfig::group_commit()).expect("open");
    for i in 0..100_000 {
        writer.append_unsynced(&trial(i, &p)).expect("append");
    }
    writer.flush().expect("flush");
    drop(writer);
    group.bench_function("replay_100k", |b| {
        b.iter(|| {
            let mut count = 0u64;
            for_each_record(&dir, |_| {
                count += 1;
                Ok(())
            })
            .expect("replay");
            assert_eq!(count, 100_000);
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
