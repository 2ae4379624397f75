//! Snapshots and crash-safe segment compaction.
//!
//! A long-lived ledger accumulates segments whose records have since been
//! deduplicated in memory (idempotent re-inserts, resumed campaigns) and
//! whose provenance dictionaries repeat. Compaction rewrites the ledger as a
//! minimal snapshot — one record per [`crate::TrialKey`], fresh contiguous
//! segments, no tombstones to track because the ledger is append-only with
//! first-write-wins dedup.
//!
//! # The swap protocol
//!
//! Replacing the live `seg-*.fsb` files with the snapshot must never lose
//! the ledger to a crash, so the swap commits through a marker file:
//!
//! 1. Stage the snapshot as `cmp-00000000.fsb`, … in the ledger directory —
//!    readers ignore the `cmp-` prefix, so a crash here leaves the old
//!    ledger untouched (recovery deletes stray `cmp-` files).
//! 2. Write the segment count into `COMPACT-COMMIT.tmp`, sync, and rename
//!    it to `COMPACT-COMMIT` — the commit point. The marker's manifest (the
//!    count `k`) makes the remaining steps replayable: the new ledger is
//!    exactly segments `0..k`.
//! 3. For each `i < k`, rename `cmp-i` over `seg-i` (atomically replacing
//!    any stale segment of the same index); delete every stale `seg-j` with
//!    `j >= k`; delete the marker.
//!
//! `resume_pending_swap` — called by every recovery/open — replays step 3
//! if the marker exists (each sub-step is idempotent: a missing `cmp-i`
//! means that rename already happened) and rolls back step 1 if it does
//! not. Either way the ledger is exactly the old or the new snapshot, never
//! a mix.

use crate::record::TrialRecord;
use crate::segment::{
    io_error, list_prefixed, list_segments, prefixed_path, segment_path, sync_dir, Durability,
    SegmentConfig, SegmentWriter,
};
use crate::{Result, StoreError};
use std::io::Write;
use std::path::Path;

/// The commit-point marker file; its content is the snapshot segment count.
pub(crate) const MARKER: &str = "COMPACT-COMMIT";
const MARKER_TMP: &str = "COMPACT-COMMIT.tmp";
const CMP_PREFIX: &str = "cmp-";

/// What a compaction did to the ledger directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records in the compacted snapshot.
    pub records: u64,
    /// Live ledger bytes before the swap.
    pub bytes_before: u64,
    /// Live ledger bytes after the swap.
    pub bytes_after: u64,
    /// Segment files before the swap.
    pub segments_before: u64,
    /// Segment files after the swap.
    pub segments_after: u64,
}

fn ledger_footprint(dir: &Path) -> Result<(u64, u64)> {
    let mut bytes = 0;
    let segments = list_segments(dir)?;
    for (_, path) in &segments {
        bytes += std::fs::metadata(path).map_err(io_error(path))?.len();
    }
    Ok((bytes, segments.len() as u64))
}

/// Rewrites the ledger at `dir` as a snapshot of `records` (already deduped
/// by the caller — the store hands over its index order) and `notes` (each
/// written before the record at its position) and swaps it in
/// crash-safely. The ledger directory must already be recovered; any
/// interrupted previous swap is finished first.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures and any append error
/// from the snapshot writer.
pub(crate) fn swap_in_snapshot(
    dir: &Path,
    config: SegmentConfig,
    records: &[TrialRecord],
    notes: &[(usize, Vec<u8>)],
) -> Result<CompactionReport> {
    resume_pending_swap(dir)?;
    let (bytes_before, segments_before) = ledger_footprint(dir)?;

    // Stage: write the snapshot under the ignored cmp- prefix. Group commit
    // is safe here — the files only become the ledger after the marker, and
    // every segment is synced on seal/flush.
    let mut writer = SegmentWriter::new_raw(
        dir,
        SegmentConfig {
            durability: Durability::OnFlush,
            ..config
        },
        CMP_PREFIX,
        0,
    )?;
    let mut notes = notes.iter().peekable();
    for (position, record) in records.iter().enumerate() {
        while let Some((_, note)) = notes.next_if(|(at, _)| *at <= position) {
            writer.append_note_unsynced(note)?;
        }
        writer.append_unsynced(record)?;
    }
    for (_, note) in notes {
        writer.append_note_unsynced(note)?;
    }
    writer.flush()?;
    drop(writer);
    sync_dir(dir)?;

    // Commit: publish the manifest atomically.
    let staged = list_prefixed(dir, CMP_PREFIX)?.len() as u64;
    let tmp = dir.join(MARKER_TMP);
    let mut marker = std::fs::File::create(&tmp).map_err(io_error(&tmp))?;
    marker
        .write_all(format!("{staged}\n").as_bytes())
        .and_then(|()| marker.sync_data())
        .map_err(io_error(&tmp))?;
    drop(marker);
    std::fs::rename(&tmp, dir.join(MARKER)).map_err(io_error(dir))?;
    sync_dir(dir)?;

    // Swap — replayable from the marker alone.
    complete_swap(dir, staged)?;
    crate::metrics::metrics().compaction_swaps.incr();

    let (bytes_after, segments_after) = ledger_footprint(dir)?;
    Ok(CompactionReport {
        records: records.len() as u64,
        bytes_before,
        bytes_after,
        segments_before,
        segments_after,
    })
}

/// Step 3 of the protocol: rename `cmp-i` over `seg-i` for `i < staged`,
/// drop stale `seg-j` for `j >= staged`, clear the marker. Idempotent.
fn complete_swap(dir: &Path, staged: u64) -> Result<()> {
    for i in 0..staged {
        let cmp = prefixed_path(dir, CMP_PREFIX, i);
        let seg = segment_path(dir, i);
        if cmp.exists() {
            std::fs::rename(&cmp, &seg).map_err(io_error(&cmp))?;
        } else if !seg.exists() {
            return Err(StoreError::Corrupt {
                path: seg.display().to_string(),
                message: format!(
                    "compaction manifest promises {staged} segments but #{i} is missing"
                ),
            });
        }
    }
    for (index, path) in list_segments(dir)? {
        if index >= staged {
            std::fs::remove_file(&path).map_err(io_error(&path))?;
        }
    }
    sync_dir(dir)?;
    std::fs::remove_file(dir.join(MARKER)).map_err(io_error(dir))?;
    sync_dir(dir)
}

/// Finishes (marker present) or rolls back (marker absent) an interrupted
/// compaction swap. Called by every ledger recovery before segments are
/// scanned; a no-op on a clean directory.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures and
/// [`StoreError::Corrupt`] if the marker manifest cannot be honoured.
pub(crate) fn resume_pending_swap(dir: &Path) -> Result<()> {
    let marker = dir.join(MARKER);
    match std::fs::read_to_string(&marker) {
        Ok(content) => {
            // Committed: roll the swap forward.
            let staged: u64 = content.trim().parse().map_err(|_| StoreError::Corrupt {
                path: marker.display().to_string(),
                message: format!("unreadable compaction manifest {content:?}"),
            })?;
            complete_swap(dir, staged)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Not committed: roll any staging back.
            let mut dirty = false;
            for (_, path) in list_prefixed(dir, CMP_PREFIX)? {
                std::fs::remove_file(&path).map_err(io_error(&path))?;
                dirty = true;
            }
            let tmp = dir.join(MARKER_TMP);
            if tmp.exists() {
                std::fs::remove_file(&tmp).map_err(io_error(&tmp))?;
                dirty = true;
            }
            if dirty {
                sync_dir(dir)?;
            }
            Ok(())
        }
        Err(e) => Err(io_error(&marker)(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ConfigKey;
    use crate::record::Provenance;
    use crate::segment::{for_each_record, SEG_PREFIX};
    use std::path::PathBuf;

    fn record(x: f64, rep: u64) -> TrialRecord {
        TrialRecord {
            config: ConfigKey::from_canonical_values(&[x]).unwrap(),
            resource: 1,
            rep,
            noisy_score: x * 0.25,
            true_error: x * 0.5,
            sim_time: x.abs(),
            provenance: Provenance {
                benchmark: "cifar10-like".into(),
                scale: "smoke".into(),
                seed: 7,
                noise: "noisy".into(),
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedstore_cmp_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn collect(dir: &Path) -> Vec<TrialRecord> {
        let mut out = Vec::new();
        for_each_record(dir, |r| {
            out.push(r);
            Ok(())
        })
        .unwrap();
        out
    }

    /// A fragmented ledger: many tiny segments, each record appended twice.
    fn fragmented_ledger(dir: &Path, n: usize) -> Vec<TrialRecord> {
        let config = SegmentConfig {
            segment_bytes: 256,
            durability: Durability::OnFlush,
        };
        let mut writer = SegmentWriter::open(dir, config).unwrap();
        let mut unique = Vec::new();
        for i in 0..n {
            let r = record(i as f64 + 1.0, 0);
            writer.append(&r).unwrap();
            writer.append(&r).unwrap();
            unique.push(r);
        }
        writer.flush().unwrap();
        unique
    }

    #[test]
    fn compaction_dedups_and_shrinks() {
        let dir = temp_dir("shrink");
        let unique = fragmented_ledger(&dir, 24);
        let report = swap_in_snapshot(&dir, SegmentConfig::default(), &unique, &[]).unwrap();
        assert_eq!(report.records, 24);
        assert!(report.bytes_after < report.bytes_before, "{report:?}");
        assert!(report.segments_after < report.segments_before, "{report:?}");
        let survivors = collect(&dir);
        assert_eq!(survivors.len(), 24);
        for (a, b) in unique.iter().zip(&survivors) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
        }
        assert!(!dir.join(MARKER).exists());
        assert!(list_prefixed(&dir, CMP_PREFIX).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_commit_rolls_back_to_the_old_ledger() {
        let dir = temp_dir("precommit");
        let unique = fragmented_ledger(&dir, 8);
        // Simulate a crash mid-staging: cmp files (even torn ones) and a
        // marker tmp exist, but no marker.
        let mut writer =
            SegmentWriter::new_raw(&dir, SegmentConfig::default(), CMP_PREFIX, 0).unwrap();
        writer.append(&unique[0]).unwrap();
        writer.flush().unwrap();
        drop(writer);
        std::fs::write(dir.join(MARKER_TMP), b"1").unwrap();

        resume_pending_swap(&dir).unwrap();
        assert!(list_prefixed(&dir, CMP_PREFIX).unwrap().is_empty());
        assert!(!dir.join(MARKER_TMP).exists());
        // Old ledger intact, duplicates and all.
        assert_eq!(collect(&dir).len(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_commit_rolls_the_swap_forward() {
        let dir = temp_dir("postcommit");
        let unique = fragmented_ledger(&dir, 16);
        let stale_segments = list_segments(&dir).unwrap().len();
        assert!(stale_segments > 2);
        // Stage the snapshot and write the marker, then "crash" before any
        // rename: exactly the state after protocol step 2.
        let mut writer = SegmentWriter::new_raw(
            &dir,
            SegmentConfig {
                segment_bytes: 1 << 20,
                durability: Durability::OnFlush,
            },
            CMP_PREFIX,
            0,
        )
        .unwrap();
        for r in &unique {
            writer.append_unsynced(r).unwrap();
        }
        writer.flush().unwrap();
        drop(writer);
        let staged = list_prefixed(&dir, CMP_PREFIX).unwrap().len() as u64;
        std::fs::write(dir.join(MARKER), format!("{staged}\n")).unwrap();

        resume_pending_swap(&dir).unwrap();
        assert!(!dir.join(MARKER).exists());
        assert_eq!(collect(&dir).len(), unique.len());
        assert_eq!(list_segments(&dir).unwrap().len() as u64, staged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partially_renamed_swap_resumes_idempotently() {
        let dir = temp_dir("partial");
        let unique = fragmented_ledger(&dir, 16);
        // Stage a two-segment snapshot.
        let mut writer = SegmentWriter::new_raw(
            &dir,
            SegmentConfig {
                segment_bytes: 300,
                durability: Durability::OnFlush,
            },
            CMP_PREFIX,
            0,
        )
        .unwrap();
        for r in &unique {
            writer.append_unsynced(r).unwrap();
        }
        writer.flush().unwrap();
        drop(writer);
        let staged = list_prefixed(&dir, CMP_PREFIX).unwrap().len() as u64;
        assert!(staged >= 2, "want a multi-segment snapshot, got {staged}");
        std::fs::write(dir.join(MARKER), format!("{staged}\n")).unwrap();
        // Crash mid-step-3: the first cmp already renamed over seg-0.
        std::fs::rename(prefixed_path(&dir, CMP_PREFIX, 0), segment_path(&dir, 0)).unwrap();

        resume_pending_swap(&dir).unwrap();
        assert_eq!(collect(&dir).len(), unique.len());
        assert_eq!(list_segments(&dir).unwrap().len() as u64, staged);
        // Running recovery again changes nothing.
        resume_pending_swap(&dir).unwrap();
        assert_eq!(collect(&dir).len(), unique.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_manifest_is_a_detected_corruption() {
        let dir = temp_dir("badmanifest");
        fragmented_ledger(&dir, 2);
        std::fs::write(dir.join(MARKER), b"not a number").unwrap();
        let err = resume_pending_swap(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_missing_segment_is_a_detected_corruption() {
        let dir = temp_dir("missingseg");
        fragmented_ledger(&dir, 2);
        // Marker promises one staged segment that does not exist anywhere.
        std::fs::write(dir.join(MARKER), b"999\n").unwrap();
        let err = resume_pending_swap(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_snapshot_empties_the_ledger() {
        let dir = temp_dir("empty");
        fragmented_ledger(&dir, 4);
        let report = swap_in_snapshot(&dir, SegmentConfig::default(), &[], &[]).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.segments_after, 0);
        assert!(collect(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seg_prefix_constant_matches_paths() {
        // The swap relies on cmp- and seg- names never colliding.
        assert_ne!(SEG_PREFIX, CMP_PREFIX);
        let p = segment_path(Path::new("x"), 3);
        assert!(p.to_str().unwrap().ends_with("seg-00000003.fsb"));
        let c = prefixed_path(Path::new("x"), CMP_PREFIX, 3);
        assert!(c.to_str().unwrap().ends_with("cmp-00000003.fsb"));
    }
}
