//! The persistent trial store: an in-memory index over an append-only
//! binary segment ledger.
//!
//! The store is **content-addressed**: records are keyed by
//! `(canonical configuration bits, resource, replicate)` — never by trial id
//! or arrival order — so any campaign that re-derives the same points (a
//! resumed run, a replayed method sweep, a differently-ordered parallel
//! schedule) finds them.
//!
//! There is one on-disk format ([`TrialStore::open_segments`]): CRC32C-framed
//! records in fixed-size segment files with configurable
//! [`Durability`](crate::Durability) and
//! group commit (see [`crate::segment`]), plus crash-safe
//! [compaction](TrialStore::compact). Opening recovers a torn tail and
//! streams the ledger into the index — it never buffers the whole ledger.
//! Beside its records the store keeps the ledger's notes
//! ([`TrialStore::append_note`]): opaque byte strings, in ledger order,
//! that it never interprets. Its one text form is the write-only view the
//! `ledger_dump` binary prints, one [`TrialRecord::to_line`] per record and
//! one line per note.

use crate::compaction::{self, CompactionReport};
use crate::key::TrialKey;
use crate::record::TrialRecord;
use crate::segment::{self, LedgerEntry, SegmentConfig, SegmentWriter};
use crate::{Result, StoreError};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::Path;

/// A persistent, content-addressed collection of [`TrialRecord`]s.
#[derive(Debug, Default)]
pub struct TrialStore {
    records: Vec<TrialRecord>,
    /// The one index, key → position in `records`.
    index: BTreeMap<TrialKey, usize>,
    /// The notes in ledger order, each with the number of records that
    /// preceded it, so compaction writes it back in the same place.
    notes: Vec<(usize, Vec<u8>)>,
    /// The append handle of a file-backed store; `None` in memory.
    backend: Option<SegmentWriter>,
}

impl TrialStore {
    /// Creates an empty store with no file backend.
    pub fn in_memory() -> Self {
        TrialStore::default()
    }

    /// Opens (or creates) a binary segment ledger in the directory `dir`
    /// with the default [`SegmentConfig`] (8 MiB segments, per-insert
    /// durability).
    ///
    /// # Errors
    ///
    /// See [`TrialStore::open_segments_with`].
    pub fn open_segments(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_segments_with(dir, SegmentConfig::default())
    }

    /// Opens (or creates) a binary segment ledger in `dir`: any interrupted
    /// compaction is finished or rolled back, torn tails and corrupt frames
    /// are truncated at the last valid frame ([`segment::recover_with`]),
    /// the surviving records are streamed into the index — never holding
    /// the ledger in memory — and subsequent inserts append fresh segments
    /// under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures,
    /// [`StoreError::Conflict`] on a ledger with contradictory records and
    /// [`StoreError::Corrupt`] on a segment of another format version, which
    /// it leaves untouched.
    pub fn open_segments_with(dir: impl AsRef<Path>, config: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref();
        segment::create_dir_durable(dir)?;
        let mut store = TrialStore::in_memory();
        segment::recover_with(dir, |entry| match entry {
            LedgerEntry::Record(record) => store.insert(record).map(|_| ()),
            LedgerEntry::Note(note) => {
                store.notes.push((store.records.len(), note));
                Ok(())
            }
        })?;
        let writer = SegmentWriter::open_assume_recovered(dir, config)?;
        store.backend = Some(writer);
        Ok(store)
    }

    /// The segment directory when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.backend.as_ref().map(SegmentWriter::dir)
    }

    /// Number of records in the store.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in insertion (ledger) order.
    pub fn records(&self) -> &[TrialRecord] {
        &self.records
    }

    /// The record stored under `key`, if any.
    pub fn get(&self, key: &TrialKey) -> Option<&TrialRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Returns `true` when a record exists under `key`.
    pub fn contains(&self, key: &TrialKey) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts a record, appending it to the ledger when file-backed, and
    /// marks a batch boundary (under [`crate::Durability::PerInsert`] — the
    /// default — the record is synced to disk before this returns). NaN
    /// scores are collapsed to the canonical bit pattern first (see
    /// [`TrialRecord::with_canonical_scores`]), keeping round trips
    /// bit-lossless.
    ///
    /// Returns `true` when the record was new. Re-inserting a bit-identical
    /// record is an idempotent no-op returning `false`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] for a negative or non-finite
    /// `sim_time`, [`StoreError::Conflict`] when the key exists with
    /// different scores or provenance, and [`StoreError::Io`] when the
    /// ledger append fails.
    pub fn insert(&mut self, record: TrialRecord) -> Result<bool> {
        let added = self.insert_unsynced(record)?;
        self.group_commit()?;
        Ok(added)
    }

    /// Inserts every record of a batch, then marks **one** batch boundary:
    /// whatever the durability mode, the whole batch costs at most one
    /// `sync_data` — the group-commit fast path for bulk recording.
    ///
    /// Returns how many records were new.
    ///
    /// # Errors
    ///
    /// See [`TrialStore::insert`]; the first failing record aborts the
    /// batch (records before it are already appended).
    pub fn insert_many(&mut self, records: impl IntoIterator<Item = TrialRecord>) -> Result<usize> {
        let mut added = 0;
        for record in records {
            if self.insert_unsynced(record)? {
                added += 1;
            }
        }
        self.group_commit()?;
        Ok(added)
    }

    /// Inserts a record **without** marking a batch boundary — the building
    /// block callers with their own batching (the recorder's per-turn
    /// staging, [`TrialStore::insert_many`]) pair with
    /// [`TrialStore::group_commit`].
    ///
    /// # Errors
    ///
    /// See [`TrialStore::insert`].
    pub fn insert_unsynced(&mut self, record: TrialRecord) -> Result<bool> {
        let record = record.with_canonical_scores();
        // Reject timestamps the segment decoder would refuse, even for
        // in-memory stores — a record must never be accepted on one side of
        // the round trip and rejected on the other.
        record.validate_sim_time()?;
        // One traversal finds the duplicate or the slot the new key goes in.
        let slot = match self.index.entry(record.key()) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(found) => {
                let existing = &self.records[*found.get()];
                let identical = existing.noisy_score.to_bits() == record.noisy_score.to_bits()
                    && existing.true_error.to_bits() == record.true_error.to_bits()
                    && existing.provenance == record.provenance;
                return if identical {
                    Ok(false)
                } else {
                    Err(conflict(existing, &record))
                };
            }
        };
        if let Some(writer) = &mut self.backend {
            writer.append_unsynced(&record)?;
        }
        slot.insert(self.records.len());
        self.records.push(record);
        Ok(true)
    }

    /// The notes, in ledger order.
    pub fn notes(&self) -> impl DoubleEndedIterator<Item = &[u8]> + '_ {
        self.notes.iter().map(|(_, note)| note.as_slice())
    }

    /// Appends an opaque note to the ledger and marks a batch boundary, like
    /// [`TrialStore::insert`]: under [`crate::Durability::PerInsert`] the
    /// note is synced before this returns. The store never interprets it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] for a note too large for one
    /// frame and [`StoreError::Io`] when the append or its sync fails.
    pub fn append_note(&mut self, note: &[u8]) -> Result<()> {
        if let Some(writer) = &mut self.backend {
            writer.append_note_unsynced(note)?;
        }
        self.notes.push((self.records.len(), note.to_vec()));
        self.group_commit()
    }

    /// Marks a batch boundary: syncs the ledger now if its durability
    /// policy asks for it, given the records appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on sync failures.
    pub fn group_commit(&mut self) -> Result<()> {
        self.backend
            .as_mut()
            .map_or(Ok(()), SegmentWriter::group_commit)
    }

    /// Syncs every appended record to disk unconditionally, whatever the
    /// durability mode. Campaigns running group commit call this at their
    /// own checkpoints (and should call it before a clean shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on sync failures.
    pub fn flush(&mut self) -> Result<()> {
        self.backend.as_mut().map_or(Ok(()), SegmentWriter::flush)
    }

    /// Records appended to the ledger since its last sync — what a crash
    /// right now could lose. Always zero for in-memory stores.
    pub fn unsynced(&self) -> u64 {
        self.backend.as_ref().map_or(0, SegmentWriter::unsynced)
    }

    /// Test hook: the next sync of a file-backed store fails with
    /// [`StoreError::Io`] after its frames reached the OS and before
    /// `sync_data`; the one after it is real again.
    #[doc(hidden)]
    pub fn fail_next_sync(&mut self) {
        if let Some(writer) = &mut self.backend {
            writer.fail_next_sync = true;
        }
    }

    /// Compacts the ledger in place: rewrites it as a snapshot of the
    /// current index — one record per key, in insertion order, duplicates
    /// long since dropped by idempotent re-inserts, every note where it
    /// stood among them — and swaps it in with
    /// the marker-committed protocol of [`crate::compaction`]. In-memory
    /// stores report themselves unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let Some(writer) = self.backend.take() else {
            return Ok(CompactionReport {
                records: self.records.len() as u64,
                ..CompactionReport::default()
            });
        };
        let dir = writer.dir().to_path_buf();
        let config = *writer.config();
        // Seal the writer (its Drop flushes) before touching files.
        drop(writer);
        let report = compaction::swap_in_snapshot(&dir, config, &self.records, &self.notes);
        // Whatever happened, reattach a writer — the swap protocol
        // guarantees the directory is the old or the new snapshot.
        self.backend = Some(SegmentWriter::open_assume_recovered(&dir, config)?);
        report
    }
}

/// The [`StoreError::Conflict`] of offering `offered` under the key of
/// `existing`, naming what differs: the scores, the provenance, or both.
#[cold]
fn conflict(existing: &TrialRecord, offered: &TrialRecord) -> StoreError {
    let mut differs = Vec::new();
    if existing.noisy_score.to_bits() != offered.noisy_score.to_bits()
        || existing.true_error.to_bits() != offered.true_error.to_bits()
    {
        differs.push(format!(
            "different scores (recorded noisy {:?}, true {:?}; offered noisy {:?}, true {:?})",
            existing.noisy_score, existing.true_error, offered.noisy_score, offered.true_error,
        ));
    }
    if existing.provenance != offered.provenance {
        differs.push(format!(
            "a different provenance (recorded {:?}; offered {:?})",
            existing.provenance, offered.provenance,
        ));
    }
    StoreError::Conflict {
        message: format!(
            "(resource {}, rep {}) of config {:?} already recorded with {}",
            offered.resource,
            offered.rep,
            offered.config.values(),
            differs.join(" and "),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ConfigKey;
    use crate::record::Provenance;

    fn provenance(noise: &str) -> Provenance {
        Provenance {
            benchmark: "cifar10-like".into(),
            scale: "smoke".into(),
            seed: 0,
            noise: noise.into(),
        }
    }

    fn record(values: &[f64], resource: usize, rep: u64, noisy: f64) -> TrialRecord {
        TrialRecord {
            config: ConfigKey::from_canonical_values(values).unwrap(),
            resource,
            rep,
            noisy_score: noisy,
            true_error: noisy * 0.5,
            sim_time: 0.0,
            provenance: provenance("noisy"),
        }
    }

    #[test]
    fn insert_rejects_unstorable_sim_times() {
        // A record the segment decoder would refuse must be rejected at
        // insert time, never silently persisted into an unreadable file.
        let mut store = TrialStore::in_memory();
        let mut poisoned = record(&[1.0], 2, 0, 0.5);
        poisoned.sim_time = -5.0;
        assert!(store.insert(poisoned).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn insert_index_and_lookup() {
        let mut store = TrialStore::in_memory();
        assert!(store.is_empty());
        assert!(store.insert(record(&[0.5], 3, 0, 0.4)).unwrap());
        assert!(store.insert(record(&[0.5], 3, 1, 0.6)).unwrap());
        assert!(store.insert(record(&[0.5], 6, 0, 0.3)).unwrap());
        assert!(store.insert(record(&[0.7], 3, 0, 0.9)).unwrap());
        assert_eq!(store.len(), 4);
        let key = record(&[0.5], 3, 1, 0.0).key();
        assert!(store.contains(&key));
        assert_eq!(store.get(&key).unwrap().noisy_score, 0.6);
        // A neighbouring replicate, resource or configuration is not a hit.
        for absent in [
            record(&[0.5], 3, 2, 0.0),
            record(&[0.5], 4, 0, 0.0),
            record(&[0.9], 3, 0, 0.0),
        ] {
            assert!(store.get(&absent.key()).is_none());
        }
        // -0.0 looks up the +0.0 record.
        assert!(store.insert(record(&[0.0], 1, 0, 0.1)).unwrap());
        let negzero = record(&[-0.0], 1, 0, 0.1).key();
        assert!(store.contains(&negzero));
    }

    #[test]
    fn duplicate_inserts_are_idempotent_but_conflicts_fail() {
        let mut store = TrialStore::in_memory();
        assert!(store.insert(record(&[0.5], 3, 0, 0.4)).unwrap());
        // Bit-identical: no-op.
        assert!(!store.insert(record(&[0.5], 3, 0, 0.4)).unwrap());
        assert_eq!(store.len(), 1);
        // Same key, different score: conflict, naming both scores.
        let err = store.insert(record(&[0.5], 3, 0, 0.5)).unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        let message = err.to_string();
        assert!(message.contains("different scores"), "{message}");
        assert!(
            message.contains("recorded noisy 0.4, true 0.2"),
            "{message}"
        );
        assert!(
            message.contains("offered noisy 0.5, true 0.25"),
            "{message}"
        );
        assert!(!message.contains("provenance"), "{message}");
        // Same key, bit-equal scores, different provenance: conflict too,
        // naming both provenances and no score.
        let mut other = record(&[0.5], 3, 0, 0.4);
        other.provenance = provenance("noiseless");
        let err = store.insert(other).unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        let message = err.to_string();
        assert!(message.contains("a different provenance"), "{message}");
        assert!(message.contains(r#"noise: "noisy""#), "{message}");
        assert!(message.contains(r#"noise: "noiseless""#), "{message}");
        assert!(!message.contains("scores"), "{message}");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn refused_inserts_leave_the_ledger_untouched() {
        let dir = temp_dir("refused");
        let mut store =
            TrialStore::open_segments_with(&dir, crate::SegmentConfig::group_commit()).unwrap();
        store.insert(record(&[0.5], 3, 0, 0.4)).unwrap();
        store.insert(record(&[0.5], 3, 1, 0.6)).unwrap();
        let appended = |store: &TrialStore| {
            let writer = store.backend.as_ref().expect("file-backed");
            writer.bytes_appended()
        };
        let bytes = appended(&store);
        assert_eq!(store.unsynced(), 2);
        // An idempotent re-insert and a conflict both stop at the occupied
        // index entry: nothing is appended, counted or indexed.
        assert!(!store.insert(record(&[0.5], 3, 1, 0.6)).unwrap());
        let err = store.insert(record(&[0.5], 3, 1, 0.61)).unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        assert!(err.to_string().contains("rep 1"), "{err}");
        assert_eq!(appended(&store), bytes);
        assert_eq!(store.unsynced(), 2);
        assert_eq!(store.len(), 2);
        let kept = store.get(&record(&[0.5], 3, 1, 0.0).key()).unwrap();
        assert_eq!(kept.noisy_score, 0.6);
        drop(store);
        assert_eq!(TrialStore::open_segments(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedstore_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn segment_backend_inserts_reopens_and_compacts() {
        let dir = temp_dir("segments");
        {
            let mut store = TrialStore::open_segments(&dir).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.path(), Some(dir.as_path()));
            assert!(store.insert(record(&[0.5], 3, 0, 0.4)).unwrap());
            assert!(store.insert(record(&[0.5], 6, 0, f64::NAN)).unwrap());
            // Idempotent duplicate: indexed once, appended once.
            assert!(!store.insert(record(&[0.5], 3, 0, 0.4)).unwrap());
        }
        {
            let mut store = TrialStore::open_segments(&dir).unwrap();
            assert_eq!(store.len(), 2);
            assert!(store.records()[1].noisy_score.is_nan());
            assert!(store.contains(&record(&[0.5], 3, 0, 0.0).key()));
            store.insert(record(&[0.7], 3, 0, 0.8)).unwrap();
            let report = store.compact().unwrap();
            assert_eq!(report.records, 3);
            // Appends keep working after the swap.
            store.insert(record(&[0.9], 3, 0, 0.2)).unwrap();
        }
        let reopened = TrialStore::open_segments(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn notes_survive_reopen_and_compaction_in_ledger_order() {
        let dir = temp_dir("notes");
        let entries = |dir: &Path| {
            let mut out = Vec::new();
            segment::for_each_entry(dir, |entry| {
                out.push(match entry {
                    LedgerEntry::Record(r) => format!("r{}", r.rep),
                    LedgerEntry::Note(n) => String::from_utf8(n).unwrap(),
                });
                Ok(())
            })
            .unwrap();
            out
        };
        {
            let mut store = TrialStore::open_segments(&dir).unwrap();
            store.append_note(b"spec").unwrap();
            assert_eq!(store.unsynced(), 0, "a note is an insert's batch boundary");
            store.insert(record(&[0.5], 3, 0, 0.4)).unwrap();
            // A duplicate record is not appended, so the note after it
            // follows the first record in the ledger too.
            store.insert(record(&[0.5], 3, 0, 0.4)).unwrap();
            store.append_note(b"mid").unwrap();
            store.insert(record(&[0.5], 3, 1, 0.6)).unwrap();
            store.append_note(b"last").unwrap();
            assert_eq!(store.len(), 2);
        }
        let want = ["spec", "r0", "mid", "r1", "last"];
        assert_eq!(entries(&dir), want);
        let mut store = TrialStore::open_segments(&dir).unwrap();
        let notes: Vec<&[u8]> = store.notes().collect();
        assert_eq!(notes, [&b"spec"[..], b"mid", b"last"]);
        store.compact().unwrap();
        assert_eq!(entries(&dir), want);
        drop(store);
        let reopened = TrialStore::open_segments(&dir).unwrap();
        assert_eq!(reopened.notes().next_back(), Some(&b"last"[..]));
        assert_eq!(reopened.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_backend_group_commit_batches() {
        let dir = temp_dir("groupcommit");
        let mut store = TrialStore::open_segments_with(
            &dir,
            crate::SegmentConfig {
                durability: crate::Durability::OnFlush,
                ..crate::SegmentConfig::default()
            },
        )
        .unwrap();
        let batch: Vec<TrialRecord> = (0..16)
            .map(|i| record(&[i as f64], 3, 0, i as f64 * 0.1))
            .collect();
        assert_eq!(store.insert_many(batch.clone()).unwrap(), 16);
        assert_eq!(store.unsynced(), 16, "OnFlush leaves the batch unsynced");
        // The whole batch again: all idempotent.
        assert_eq!(store.insert_many(batch).unwrap(), 0);
        store.flush().unwrap();
        assert_eq!(store.unsynced(), 0);
        drop(store);
        // Reopened under EveryN(4): single inserts sync every fourth one.
        let mut reopened = TrialStore::open_segments_with(
            &dir,
            crate::SegmentConfig {
                durability: crate::Durability::EveryN(4),
                ..crate::SegmentConfig::default()
            },
        )
        .unwrap();
        assert_eq!(reopened.len(), 16);
        let pending: Vec<u64> = (16..21)
            .map(|i| {
                reopened.insert(record(&[i as f64], 3, 0, 0.5)).unwrap();
                reopened.unsynced()
            })
            .collect();
        assert_eq!(pending, [1, 2, 3, 0, 1]);
        drop(reopened);
        assert_eq!(TrialStore::open_segments(&dir).unwrap().len(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record as its text line: compares stores bit for bit
    /// (NaN scores included).
    fn lines(store: &TrialStore) -> Vec<String> {
        let line = |r: &TrialRecord| r.to_line().unwrap();
        store.records().iter().map(line).collect()
    }

    #[test]
    fn a_failed_sync_loses_nothing_and_the_next_flush_covers_it() {
        let dir = temp_dir("syncfault");
        let mut store = TrialStore::open_segments(&dir).unwrap();
        store.insert(record(&[0.5], 3, 0, 0.4)).unwrap();
        store.fail_next_sync();
        // Appended and indexed, but the sync behind the insert fails ...
        let err = store.insert(record(&[0.7], 3, 0, 0.8)).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(store.unsynced(), 1, "a failed sync must not zero the count");
        assert_eq!(store.len(), 2);
        assert!(store.contains(&record(&[0.7], 3, 0, 0.0).key()));
        // ... and the hook is one-shot: the next flush is real and covers it.
        store.flush().unwrap();
        assert_eq!(store.unsynced(), 0);
        let expected = lines(&store);
        drop(store);
        assert_eq!(lines(&TrialStore::open_segments(&dir).unwrap()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_backend_recovers_torn_tail_on_open() {
        let dir = temp_dir("segtorn");
        {
            let mut store = TrialStore::open_segments(&dir).unwrap();
            for i in 0..8 {
                store
                    .insert(record(&[i as f64], 3, 0, i as f64 * 0.1))
                    .unwrap();
            }
        }
        // Tear the single segment mid-frame.
        let seg = crate::segment::segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let mut store = TrialStore::open_segments(&dir).unwrap();
        assert_eq!(store.len(), 7);
        // The lost record can simply be re-recorded.
        store.insert(record(&[7.0], 3, 0, 0.7)).unwrap();
        drop(store);
        assert_eq!(TrialStore::open_segments(&dir).unwrap().len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::key::ConfigKey;
    use crate::record::Provenance;
    use proptest::prelude::*;
    use rand::Rng;

    /// Builds a pseudo-random but reproducible store: `n` records whose
    /// values, fidelities, replicates, and scores (including occasional
    /// non-finite scores, exercising the guard encoding) are derived from
    /// `seed`.
    fn arbitrary_store(seed: u64, n: usize) -> TrialStore {
        let mut rng = fedmath::rng::rng_for(seed, 0);
        let mut store = TrialStore::in_memory();
        for i in 0..n {
            let arity = 1 + (i % 3);
            let values: Vec<f64> = (0..arity)
                .map(|_| {
                    let v: f64 = rng.gen_range(-1e6..1e6);
                    // Mix in exact zeros so -0.0 normalisation is exercised.
                    if rng.gen_range(0..8) == 0 {
                        -0.0
                    } else {
                        v
                    }
                })
                .collect();
            let score = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(0.0..1.5),
            };
            let record = TrialRecord {
                config: ConfigKey::from_canonical_values(&values).expect("finite values"),
                resource: rng.gen_range(1..100),
                rep: rng.gen_range(0..4),
                noisy_score: score(&mut rng),
                true_error: score(&mut rng),
                sim_time: rng.gen_range(0.0..1e4),
                provenance: Provenance {
                    benchmark: "prop".into(),
                    scale: "smoke".into(),
                    seed,
                    noise: if i % 2 == 0 { "noisy" } else { "noiseless" }.into(),
                },
            };
            // Colliding keys can occur; idempotent duplicates are fine and
            // conflicts simply skip the record (we only need *a* store).
            let _ = store.insert(record);
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The index is a function of the record *set*: inserting one set in
        /// any order answers every `get` / `contains` query identically, and
        /// `records()` is always the insertion order.
        #[test]
        fn prop_index_answers_are_order_independent(
            seed in any::<u64>(),
            n in 1usize..24,
            shuffle in any::<u64>(),
        ) {
            // Few distinct points, so keys neighbour each other (prefix /
            // extension configurations, adjacent resources, both ends of the
            // rep range).
            let mut rng = fedmath::rng::rng_for(seed, 1);
            let mut reference = arbitrary_store(seed, n);
            for _ in 0..n {
                let values: &[f64] = [&[][..], &[1.0], &[1.0, 0.0], &[2.0]][rng.gen_range(0..4)];
                let mut record = reference.records()[0].clone();
                record.config = ConfigKey::from_canonical_values(values).expect("finite values");
                record.resource = rng.gen_range(1..3);
                record.rep = [0, 1, u64::MAX][rng.gen_range(0..3)];
                // Same key, same payload: an idempotent duplicate.
                reference.insert(record).expect("no conflicts");
            }
            let mut order: Vec<TrialRecord> = reference.records().to_vec();
            let mut rng = fedmath::rng::rng_for(shuffle, 1);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut permuted = TrialStore::in_memory();
            for record in &order {
                prop_assert!(permuted.insert(record.clone()).expect("same set, no conflicts"));
            }
            // Ledger lines compare records bit for bit (NaN scores included).
            let line = |r: &TrialRecord| r.to_line().expect("storable");
            let lines = |rs: Vec<&TrialRecord>| rs.into_iter().map(line).collect::<Vec<_>>();
            prop_assert_eq!(lines(permuted.records().iter().collect()), lines(order.iter().collect()));
            for record in reference.records() {
                let key = record.key();
                prop_assert!(permuted.contains(&key));
                prop_assert_eq!(permuted.get(&key).map(line), Some(line(record)));
                // A key the set does not hold misses in both.
                let absent = TrialKey { rep: key.rep ^ 4, ..key };
                prop_assert!(!permuted.contains(&absent));
                prop_assert!(permuted.get(&absent).is_none());
            }
        }

        /// A segment ledger is bit-lossless: inserting a store into one and
        /// reopening it gives back every field bit for bit (`-0.0` keys,
        /// NaN / ±∞ scores, `sim_time`, both provenances) and the rebuilt
        /// index answers the same lookups.
        #[test]
        fn prop_segments_are_bit_lossless(seed in any::<u64>(), n in 1usize..16) {
            let dir = std::env::temp_dir().join(format!(
                "fedstore_lossless_{}_{:?}_{seed}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = arbitrary_store(seed, n);
            {
                let mut segments = TrialStore::open_segments(&dir).expect("openable");
                let added = segments.insert_many(store.records().iter().cloned());
                prop_assert_eq!(added.expect("insertable"), store.len());
            }
            let reopened = TrialStore::open_segments(&dir).expect("reopenable");
            prop_assert_eq!(reopened.len(), store.len());
            for (a, b) in store.records().iter().zip(reopened.records()) {
                prop_assert_eq!(a.config.bits(), b.config.bits());
                prop_assert_eq!(a.resource, b.resource);
                prop_assert_eq!(a.rep, b.rep);
                prop_assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
                prop_assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
                prop_assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
                prop_assert_eq!(&a.provenance, &b.provenance);
                let found = reopened.get(&a.key()).expect("key indexed");
                let expected = store.get(&a.key()).expect("key indexed");
                prop_assert_eq!(found.noisy_score.to_bits(), expected.noisy_score.to_bits());
                prop_assert_eq!(found.true_error.to_bits(), expected.true_error.to_bits());
                // A key the set does not hold misses in both.
                let absent = TrialKey { rep: a.rep + 4, ..a.key() };
                prop_assert!(reopened.get(&absent).is_none() && store.get(&absent).is_none());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
