//! The binary segment ledger: fixed-size segment files of CRC32C-framed
//! records with batched group commit — the ledger's one on-disk format (its
//! JSON-line text view is write-only).
//!
//! # Layout
//!
//! A segment ledger is a directory of files `seg-00000000.fsb`,
//! `seg-00000001.fsb`, … Each segment starts with an 8-byte header (magic
//! `FSEG` + little-endian format version, currently 2) followed by frames
//! (see [`crate::framing`]). Three payload kinds exist, distinguished by
//! their first byte:
//!
//! ```text
//! provenance definition (tag 1):
//!   [1][id: u32][benchmark: str][scale: str][seed: u64][noise: str]
//! trial record (tag 2):
//!   [2][provenance id: u32][arity: u32][arity x config bits: u64]
//!   [resource: u64][rep: u64][noisy bits: u64][true bits: u64][sim bits: u64]
//! note (tag 3):
//!   [3][len: u32][len opaque bytes]
//! ```
//!
//! where `str` is a `u32` byte length followed by UTF-8 bytes and all
//! integers are little-endian. A note is whatever its writer put there (the
//! `fedserve` daemon keeps a campaign's spec and terminal status as JSON
//! notes); the ledger keeps notes in order and never interprets them, and
//! [`for_each_record`] skips them. Version 2 added notes: a segment of any
//! other version is refused with [`StoreError::Corrupt`] and left as it is
//! on disk, so an older checkout refuses a version-2 ledger and this one
//! refuses a version-1 ledger; there is no migration path.
//!
//! Floats are stored as raw IEEE-754 bits, so
//! NaN/inf scores need no guard encoding and every round trip is bit-exact
//! by construction. Provenances repeat across millions of records, so each
//! segment interns them: the first record under a provenance emits one
//! definition frame, later records reference its id. Segments are
//! **self-contained** — the dictionary resets at every segment boundary, so
//! any segment can be read (or compacted away) alone.
//!
//! # Durability and recovery
//!
//! Appends go through a buffered writer; [`Durability`] says when the ledger
//! calls `sync_data`: per insert (every record durable before the insert
//! returns), every N records, or only on explicit flush (group commit: one
//! sync amortized over a batch).
//! Whatever the mode, a crash leaves at most a torn tail: [`recover_with`]
//! streams every segment, verifies every frame, truncates the first corrupt
//! frame (torn tail or bit flip alike) back to the last valid one, and drops
//! the unreachable remainder of the ledger.

use crate::framing::{append_frame, FrameReadError, FrameReader, MAX_FRAME_PAYLOAD};
use crate::key::ConfigKey;
use crate::record::{Provenance, TrialRecord};
use crate::{Result, StoreError};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"FSEG";

/// Format version written into every segment header, and the only one read.
pub const SEGMENT_VERSION: u32 = 2;

/// Bytes of the segment header (magic + version).
pub const SEGMENT_HEADER_BYTES: u64 = 8;

/// Most configuration dimensions a stored record may carry — a decode guard
/// that turns corrupted arities into detected errors instead of huge
/// allocations.
pub const MAX_ARITY: usize = 4096;

const TAG_PROVENANCE: u8 = 1;
const TAG_RECORD: u8 = 2;
const TAG_NOTE: u8 = 3;

/// Bytes a note frame spends besides the note: its tag and the longest
/// length varint.
const NOTE_OVERHEAD: usize = 11;

pub(crate) const SEG_PREFIX: &str = "seg-";
pub(crate) const SEG_SUFFIX: &str = ".fsb";

/// When the ledger syncs appended records to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `sync_data` before every insert returns: a completed insert survives
    /// crash and power loss. Slowest; the default.
    PerInsert,
    /// `sync_data` once every N records (and at every explicit flush): a
    /// crash loses at most the last N-1 records.
    EveryN(u64),
    /// `sync_data` only on explicit flush/close: a crash loses at most the
    /// records since the last flush. Fastest — the group-commit mode bulk
    /// recording runs in.
    OnFlush,
}

impl Durability {
    /// Whether the policy wants a sync now, given records appended since the
    /// last sync. Called once per insert *batch*, so `insert_many` amortizes
    /// one sync over the whole batch even under [`Durability::PerInsert`].
    fn wants_sync(&self, unsynced: u64) -> bool {
        match self {
            Durability::PerInsert => unsynced > 0,
            Durability::EveryN(n) => unsynced >= *n,
            Durability::OnFlush => false,
        }
    }
}

/// Tuning of a segment ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Target segment size in bytes; the writer seals a segment and rolls to
    /// the next one once it reaches this size (so actual files exceed it by
    /// at most one frame).
    pub segment_bytes: u64,
    /// Sync policy for appends.
    pub durability: Durability,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: 8 << 20,
            durability: Durability::PerInsert,
        }
    }
}

impl SegmentConfig {
    /// The default config with group commit: sync only on explicit flush.
    pub fn group_commit() -> Self {
        SegmentConfig {
            durability: Durability::OnFlush,
            ..SegmentConfig::default()
        }
    }
}

pub(crate) fn io_error(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |e| StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt_error(path: &Path, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// The file path of segment `index` under `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    prefixed_path(dir, SEG_PREFIX, index)
}

/// Parses `<prefix><index:08><.fsb>` file names back into their index.
fn parse_indexed_name(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(SEG_SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The file path of a `prefix`-class segment `index` under `dir`.
pub(crate) fn prefixed_path(dir: &Path, prefix: &str, index: u64) -> PathBuf {
    dir.join(format!("{prefix}{index:08}{SEG_SUFFIX}"))
}

/// All `prefix`-class segment files under `dir`, sorted by index. A missing
/// directory is an empty ledger.
pub(crate) fn list_prefixed(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_error(dir)(e)),
    };
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_error(dir))?;
        if let Some(index) = entry
            .file_name()
            .to_str()
            .and_then(|name| parse_indexed_name(name, prefix))
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// All live segment files under `dir` as `(index, path)` pairs, sorted by
/// index. A missing directory is an empty ledger. Corruption-injection
/// tests and operational tooling use this to find segment files without
/// hard-coding the naming scheme.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_prefixed(dir, SEG_PREFIX)
}

/// Opens `dir` itself and syncs it, making renames/removals inside durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_error(dir))
}

/// Creates `dir` and its missing ancestors, syncing the parent of each
/// directory it creates: a synced file inside survives a crash only if
/// every directory entry on its path does too.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when a directory cannot be created or synced.
pub fn create_dir_durable(dir: &Path) -> Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = dir
        .parent()
        .filter(|parent| !parent.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    if parent != dir {
        create_dir_durable(parent)?;
    }
    match std::fs::create_dir(dir) {
        Ok(()) => sync_dir(parent),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(()),
        Err(e) => Err(io_error(dir)(e)),
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// LEB128: seven payload bits per byte, high bit = continuation. Small
/// integers — provenance ids, arities, resources, reps, string lengths —
/// dominate a record, so this trims a frame from 73 to ~54 bytes; raw f64
/// bits stay fixed-width (their entropy doesn't compress).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn encode_provenance(buf: &mut Vec<u8>, id: u32, p: &Provenance) {
    buf.clear();
    buf.push(TAG_PROVENANCE);
    put_varint(buf, u64::from(id));
    put_str(buf, &p.benchmark);
    put_str(buf, &p.scale);
    put_varint(buf, p.seed);
    put_str(buf, &p.noise);
}

/// Raw storage bits of a score: NaN collapses to the canonical pattern, the
/// same normalisation [`TrialRecord::with_canonical_scores`] applies, so a
/// record round-trips identically whether it entered through the store or a
/// bare [`SegmentWriter`].
fn score_bits(score: f64) -> u64 {
    if score.is_nan() {
        f64::NAN.to_bits()
    } else {
        score.to_bits()
    }
}

fn encode_record(buf: &mut Vec<u8>, provenance_id: u32, r: &TrialRecord) {
    buf.clear();
    buf.push(TAG_RECORD);
    put_varint(buf, u64::from(provenance_id));
    let bits = r.config.bits();
    put_varint(buf, bits.len() as u64);
    for &b in bits {
        buf.extend_from_slice(&b.to_le_bytes());
    }
    put_varint(buf, r.resource as u64);
    put_varint(buf, r.rep);
    buf.extend_from_slice(&score_bits(r.noisy_score).to_le_bytes());
    buf.extend_from_slice(&score_bits(r.true_error).to_le_bytes());
    buf.extend_from_slice(&r.sim_time.to_bits().to_le_bytes());
}

/// The little-endian `u64` in an 8-byte slice.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// A bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take_u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn take_u64(&mut self) -> std::result::Result<u64, String> {
        Ok(le_u64(self.take(8)?))
    }

    fn take_varint(&mut self) -> std::result::Result<u64, String> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8()?;
            let low = u64::from(byte & 0x7f);
            if shift == 63 && low > 1 {
                return Err("varint overflows u64".to_string());
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    fn take_str(&mut self) -> std::result::Result<&'a str, String> {
        let len = usize::try_from(self.take_varint()?)
            .map_err(|_| "string length exceeds usize".to_string())?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    fn finish(self) -> std::result::Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// What one decoded frame contained.
enum Payload<'a> {
    Provenance(Provenance),
    Record(TrialRecord),
    Note(&'a [u8]),
}

/// One entry of a ledger, in ledger order: a trial record or a note.
#[derive(Debug, PartialEq)]
pub enum LedgerEntry {
    /// A trial record.
    Record(TrialRecord),
    /// A note's bytes, exactly as appended.
    Note(Vec<u8>),
}

/// Decodes a frame payload against the segment's provenance dictionary.
fn decode_payload<'a>(
    bytes: &'a [u8],
    dict: &[Provenance],
) -> std::result::Result<Payload<'a>, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    match cur.take_u8()? {
        TAG_PROVENANCE => {
            let id = u32::try_from(cur.take_varint()?)
                .map_err(|_| "provenance id exceeds u32".to_string())?;
            let benchmark = cur.take_str()?.into();
            let scale = cur.take_str()?.into();
            let seed = cur.take_varint()?;
            let noise = cur.take_str()?.into();
            cur.finish()?;
            if id as usize != dict.len() {
                return Err(format!(
                    "provenance id {id} out of order (expected {})",
                    dict.len()
                ));
            }
            Ok(Payload::Provenance(Provenance {
                benchmark,
                scale,
                seed,
                noise,
            }))
        }
        TAG_RECORD => {
            let provenance_id = cur.take_varint()?;
            let provenance = dict
                .get(usize::try_from(provenance_id).unwrap_or(usize::MAX))
                .ok_or_else(|| format!("record references unknown provenance {provenance_id}"))?
                .clone();
            let arity = usize::try_from(cur.take_varint()?).unwrap_or(usize::MAX);
            if arity > MAX_ARITY {
                return Err(format!("arity {arity} exceeds the {MAX_ARITY} cap"));
            }
            // `arity` is capped above, so the byte count cannot overflow.
            let values = cur
                .take(arity * 8)?
                .chunks_exact(8)
                .map(|b| f64::from_bits(le_u64(b)));
            let config = ConfigKey::from_canonical_iter(values)
                .map_err(|e| format!("invalid configuration: {e}"))?;
            let resource = usize::try_from(cur.take_varint()?)
                .map_err(|_| "resource exceeds usize".to_string())?;
            let rep = cur.take_varint()?;
            let noisy_score = f64::from_bits(cur.take_u64()?);
            let true_error = f64::from_bits(cur.take_u64()?);
            let sim_time = f64::from_bits(cur.take_u64()?);
            cur.finish()?;
            let record = TrialRecord {
                config,
                resource,
                rep,
                noisy_score,
                true_error,
                sim_time,
                provenance,
            };
            record
                .validate_sim_time()
                .map_err(|e| format!("invalid record: {e}"))?;
            Ok(Payload::Record(record))
        }
        TAG_NOTE => {
            let len = usize::try_from(cur.take_varint()?)
                .map_err(|_| "note length exceeds usize".to_string())?;
            let note = cur.take(len)?;
            cur.finish()?;
            Ok(Payload::Note(note))
        }
        tag => Err(format!("unknown payload tag {tag}")),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends CRC-framed records to a segment ledger with buffered writes and
/// configurable group commit. The writer never reads the ledger back: it is
/// the bounded-memory ingest path (one frame buffer, one provenance
/// dictionary for the open segment), usable directly for bulk recording or
/// through [`crate::TrialStore`] for indexed access.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    config: SegmentConfig,
    file: Option<BufWriter<File>>,
    /// File-name prefix — `seg-` for the live ledger, `cmp-` while a
    /// compaction snapshot is staged.
    prefix: &'static str,
    /// Index of the currently open (or next-to-open) segment.
    index: u64,
    /// Bytes written into the current segment, header included.
    segment_bytes: u64,
    unsynced: u64,
    dict: HashMap<Provenance, u32>,
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    records: u64,
    bytes_appended: u64,
    /// Armed by [`crate::TrialStore::fail_next_sync`] (tests only): the next
    /// sync fails in place of its `sync_data` and disarms this.
    pub(crate) fail_next_sync: bool,
}

impl SegmentWriter {
    /// Opens a writer on `dir` (created if missing): the existing ledger is
    /// first [recovered](recover) — torn tails truncated — and appends then
    /// go to a **fresh segment** after the last existing one, so no partial
    /// segment is ever appended into.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures.
    pub fn open(dir: impl AsRef<Path>, config: SegmentConfig) -> Result<Self> {
        recover(dir.as_ref())?;
        Self::open_assume_recovered(dir, config)
    }

    /// Opens a writer without re-running recovery — for callers (the store,
    /// compaction) that just finished a full recovering scan of `dir`.
    pub(crate) fn open_assume_recovered(
        dir: impl AsRef<Path>,
        config: SegmentConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let index = list_segments(dir)?.last().map_or(0, |&(last, _)| last + 1);
        Self::new_raw(dir, config, SEG_PREFIX, index)
    }

    /// The fully parameterized constructor: compaction stages its snapshot
    /// through this with the `cmp-` prefix and a fresh index range.
    pub(crate) fn new_raw(
        dir: impl AsRef<Path>,
        config: SegmentConfig,
        prefix: &'static str,
        start_index: u64,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        create_dir_durable(&dir)?;
        Ok(SegmentWriter {
            dir,
            config,
            file: None,
            prefix,
            index: start_index,
            segment_bytes: 0,
            unsynced: 0,
            dict: HashMap::new(),
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
            records: 0,
            bytes_appended: 0,
            fail_next_sync: false,
        })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active configuration.
    pub fn config(&self) -> &SegmentConfig {
        &self.config
    }

    /// Records appended through this writer.
    pub fn records_appended(&self) -> u64 {
        self.records
    }

    /// Bytes appended through this writer (frames + segment headers).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Records appended since the last sync.
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Appends one record and applies the durability policy — the
    /// single-record entry point.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] for an unstorable record and
    /// [`StoreError::Io`] on write failures.
    pub fn append(&mut self, record: &TrialRecord) -> Result<()> {
        self.append_unsynced(record)?;
        self.group_commit()
    }

    /// Appends one record **without** consulting the durability policy; the
    /// caller marks the batch boundary with [`SegmentWriter::group_commit`].
    /// This is how `insert_many` amortizes one sync over a whole batch.
    ///
    /// # Errors
    ///
    /// See [`SegmentWriter::append`].
    pub fn append_unsynced(&mut self, record: &TrialRecord) -> Result<()> {
        record.validate_sim_time()?;
        if record.config.bits().len() > MAX_ARITY {
            return Err(StoreError::InvalidRecord {
                message: format!(
                    "configuration arity {} exceeds the {MAX_ARITY} cap",
                    record.config.bits().len()
                ),
            });
        }
        self.roll_if_full()?;
        let provenance_id = match self.dict.get(&record.provenance) {
            Some(&id) => id,
            None => {
                let id = self.dict.len() as u32;
                encode_provenance(&mut self.payload_buf, id, &record.provenance);
                self.frame_buf.clear();
                append_frame(&mut self.frame_buf, &self.payload_buf);
                self.write_frame_buf()?;
                self.dict.insert(record.provenance.clone(), id);
                id
            }
        };
        encode_record(&mut self.payload_buf, provenance_id, record);
        self.frame_buf.clear();
        append_frame(&mut self.frame_buf, &self.payload_buf);
        self.write_frame_buf()?;
        self.records += 1;
        self.unsynced += 1;
        crate::metrics::metrics().records_appended.incr();
        Ok(())
    }

    /// Appends one note **without** consulting the durability policy, like
    /// [`SegmentWriter::append_unsynced`]. It counts as an unsynced append
    /// but not as a record.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] for a note too large for one
    /// frame and [`StoreError::Io`] on write failures.
    pub fn append_note_unsynced(&mut self, note: &[u8]) -> Result<()> {
        if note.len() > MAX_FRAME_PAYLOAD - NOTE_OVERHEAD {
            return Err(StoreError::InvalidRecord {
                message: format!(
                    "a note of {} bytes exceeds the {}-byte frame cap",
                    note.len(),
                    MAX_FRAME_PAYLOAD - NOTE_OVERHEAD
                ),
            });
        }
        self.roll_if_full()?;
        self.payload_buf.clear();
        self.payload_buf.push(TAG_NOTE);
        put_varint(&mut self.payload_buf, note.len() as u64);
        self.payload_buf.extend_from_slice(note);
        self.frame_buf.clear();
        append_frame(&mut self.frame_buf, &self.payload_buf);
        self.write_frame_buf()?;
        self.unsynced += 1;
        Ok(())
    }

    /// Marks a batch boundary: syncs now if the durability policy asks for
    /// it given the records appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on flush/sync failures.
    pub fn group_commit(&mut self) -> Result<()> {
        crate::metrics::metrics().group_commits.incr();
        if self.config.durability.wants_sync(self.unsynced) {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes buffered frames and syncs the open segment to disk
    /// unconditionally. After `flush` returns, every appended record
    /// survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on flush/sync failures.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(file) = &mut self.file {
            // Wall-domain latency accounting only — the result of the sync
            // is never conditioned on the measured time.
            let started = std::time::Instant::now();
            let io = io_error(&self.dir);
            file.flush().map_err(&io)?;
            if std::mem::take(&mut self.fail_next_sync) {
                return Err(io(std::io::Error::other("injected sync failure")));
            }
            file.get_ref().sync_data().map_err(&io)?;
            let m = crate::metrics::metrics();
            m.syncs.incr();
            m.sync_micros.observe(started.elapsed().as_micros() as u64);
            m.sync_batch.observe(self.unsynced);
        }
        self.unsynced = 0;
        Ok(())
    }

    fn write_frame_buf(&mut self) -> Result<()> {
        let file = self.file.as_mut().expect("segment opened by caller");
        file.write_all(&self.frame_buf)
            .map_err(io_error(&self.dir))?;
        self.segment_bytes += self.frame_buf.len() as u64;
        self.bytes_appended += self.frame_buf.len() as u64;
        crate::metrics::metrics()
            .bytes_written
            .add(self.frame_buf.len() as u64);
        Ok(())
    }

    /// Seals a full segment, then makes sure one is open for the next frame.
    fn roll_if_full(&mut self) -> Result<()> {
        if self.file.is_some() && self.segment_bytes >= self.config.segment_bytes {
            self.seal_segment()?;
        }
        self.ensure_segment()
    }

    /// Opens the current segment file lazily (so a writer that never appends
    /// leaves no empty segments behind).
    fn ensure_segment(&mut self) -> Result<()> {
        if self.file.is_some() {
            return Ok(());
        }
        let path = prefixed_path(&self.dir, self.prefix, self.index);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_error(&path))?;
        // The segment's frames are synced later; its directory entry now.
        sync_dir(&self.dir)?;
        let mut file = BufWriter::new(file);
        file.write_all(SEGMENT_MAGIC).map_err(io_error(&path))?;
        file.write_all(&SEGMENT_VERSION.to_le_bytes())
            .map_err(io_error(&path))?;
        self.file = Some(file);
        self.segment_bytes = SEGMENT_HEADER_BYTES;
        self.bytes_appended += SEGMENT_HEADER_BYTES;
        Ok(())
    }

    /// Seals the open segment (flush + sync) and advances to the next index.
    /// The provenance dictionary resets so every segment is self-contained.
    fn seal_segment(&mut self) -> Result<()> {
        self.flush()?;
        self.file = None;
        self.segment_bytes = 0;
        self.dict.clear();
        self.index += 1;
        Ok(())
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        // Best-effort: push buffered frames to the OS (crash durability still
        // follows the configured policy; this covers orderly drops).
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------------
// Scanning, reading, recovery
// ---------------------------------------------------------------------------

/// Outcome of one pass over a segment ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Valid records streamed.
    pub records: u64,
    /// Segment files visited (survivors, after any repair).
    pub segments: u64,
    /// Bytes of valid data (headers + frames) across the ledger.
    pub bytes: u64,
    /// Bytes discarded by repair (torn tails, bodies past a corruption).
    pub truncated_bytes: u64,
    /// Whole segment files deleted by repair (unreachable after a
    /// corruption, or headerless).
    pub dropped_segments: u64,
}

/// Where a scan stopped inside one segment.
enum SegmentScan {
    Clean { bytes: u64 },
    Corrupt { valid_up_to: u64, reason: String },
}

/// Reads a segment header; `None` when the file is shorter than one.
fn read_header(
    reader: &mut impl std::io::Read,
    path: &Path,
) -> Result<Option<[u8; SEGMENT_HEADER_BYTES as usize]>> {
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    match reader.read_exact(&mut header) {
        Ok(()) => Ok(Some(header)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(io_error(path)(e)),
    }
}

/// Refuses a full header with this format's magic and another version: that
/// segment is not this build's to read, truncate or delete.
fn refuse_foreign_version(path: &Path, header: &[u8; SEGMENT_HEADER_BYTES as usize]) -> Result<()> {
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if &header[..4] != SEGMENT_MAGIC || version == SEGMENT_VERSION {
        return Ok(());
    }
    Err(corrupt_error(
        path,
        format!(
            "segment format version {version} is not this build's version \
             {SEGMENT_VERSION}; the segment is left untouched"
        ),
    ))
}

/// Streams one segment's entries through `on_entry`. Never holds more than
/// one frame in memory.
///
/// A full header of another format version is an error, never a repair: the
/// segment is not this build's to truncate or delete.
fn scan_segment(
    path: &Path,
    on_entry: &mut dyn FnMut(LedgerEntry) -> Result<()>,
) -> Result<SegmentScan> {
    let file = File::open(path).map_err(io_error(path))?;
    let file_len = file.metadata().map_err(io_error(path))?.len();
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let Some(header) = read_header(&mut reader, path)? else {
        return Ok(SegmentScan::Corrupt {
            valid_up_to: 0,
            reason: format!("segment header torn ({file_len} bytes)"),
        });
    };
    if &header[..4] != SEGMENT_MAGIC {
        return Ok(SegmentScan::Corrupt {
            valid_up_to: 0,
            reason: "bad segment magic".into(),
        });
    }
    refuse_foreign_version(path, &header)?;
    let mut frames = FrameReader::new(reader, SEGMENT_HEADER_BYTES);
    let mut dict: Vec<Provenance> = Vec::new();
    loop {
        let frame_start = frames.valid_up_to();
        match frames.next_frame() {
            Ok(None) => return Ok(SegmentScan::Clean { bytes: frame_start }),
            Ok(Some(payload)) => match decode_payload(payload, &dict) {
                Ok(Payload::Provenance(provenance)) => dict.push(provenance),
                Ok(Payload::Record(record)) => on_entry(LedgerEntry::Record(record))?,
                Ok(Payload::Note(note)) => on_entry(LedgerEntry::Note(note.to_vec()))?,
                Err(reason) => {
                    return Ok(SegmentScan::Corrupt {
                        valid_up_to: frame_start,
                        reason,
                    })
                }
            },
            Err(FrameReadError::Corrupt {
                valid_up_to,
                reason,
            }) => {
                return Ok(SegmentScan::Corrupt {
                    valid_up_to,
                    reason,
                })
            }
            Err(FrameReadError::Io(e)) => return Err(io_error(path)(e)),
        }
    }
}

/// Streams every entry of the ledger at `dir` through `on_entry`, in ledger
/// order, **repairing** corruption along the way: the first corrupt frame
/// (torn tail, bit flip, torn header, bad magic) truncates its segment back
/// to the last valid frame, and every later segment — unreachable under the
/// append-order contract — is deleted. Entries streamed before the
/// corruption are exactly the surviving ledger. A later segment of another
/// format version refuses the repair before it touches any file.
///
/// Memory use is one frame plus one segment dictionary, independent of
/// ledger size.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures,
/// [`StoreError::Corrupt`] for a segment of another format version (found
/// before any repair touches a file), and whatever `on_entry` itself
/// returns.
pub fn recover_with(
    dir: &Path,
    mut on_entry: impl FnMut(LedgerEntry) -> Result<()>,
) -> Result<ScanReport> {
    crate::compaction::resume_pending_swap(dir)?;
    let segments = list_segments(dir)?;
    let mut report = ScanReport::default();
    let mut corrupted = false;
    for (i, (_, path)) in segments.iter().enumerate() {
        match scan_segment(path, &mut |entry| {
            report.records += u64::from(matches!(entry, LedgerEntry::Record(_)));
            on_entry(entry)
        })? {
            SegmentScan::Clean { bytes } => {
                report.segments += 1;
                report.bytes += bytes;
            }
            SegmentScan::Corrupt {
                valid_up_to,
                reason: _,
            } => {
                for (_, later) in &segments[i + 1..] {
                    let mut file = File::open(later).map_err(io_error(later))?;
                    if let Some(header) = read_header(&mut file, later)? {
                        refuse_foreign_version(later, &header)?;
                    }
                }
                let file_len = std::fs::metadata(path).map_err(io_error(path))?.len();
                if valid_up_to == 0 {
                    // Headerless/bogus file: nothing salvageable.
                    std::fs::remove_file(path).map_err(io_error(path))?;
                    report.dropped_segments += 1;
                    report.truncated_bytes += file_len;
                } else {
                    let file = std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(io_error(path))?;
                    file.set_len(valid_up_to).map_err(io_error(path))?;
                    file.sync_data().map_err(io_error(path))?;
                    report.segments += 1;
                    report.bytes += valid_up_to;
                    report.truncated_bytes += file_len - valid_up_to;
                }
                // Everything after the corruption is unreachable: drop it.
                for (_, later) in &segments[i + 1..] {
                    let len = std::fs::metadata(later).map_err(io_error(later))?.len();
                    std::fs::remove_file(later).map_err(io_error(later))?;
                    report.dropped_segments += 1;
                    report.truncated_bytes += len;
                }
                corrupted = true;
                break;
            }
        }
    }
    if corrupted {
        sync_dir(dir)?;
    }
    let m = crate::metrics::metrics();
    m.recovery_truncated_bytes.add(report.truncated_bytes);
    m.recovery_dropped_segments.add(report.dropped_segments);
    Ok(report)
}

/// Repairs the ledger at `dir` without observing its entries.
///
/// # Errors
///
/// See [`recover_with`].
pub fn recover(dir: &Path) -> Result<ScanReport> {
    recover_with(dir, |_| Ok(()))
}

/// Streams every entry of the (already-recovered) ledger at `dir` through
/// `on_entry` read-only: any corruption is an error, never a repair. This
/// is the bounded-memory replay path.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on a damaged frame or a segment of
/// another format version, [`StoreError::Io`] on filesystem failures, and
/// whatever `on_entry` returns.
pub fn for_each_entry(
    dir: &Path,
    mut on_entry: impl FnMut(LedgerEntry) -> Result<()>,
) -> Result<ScanReport> {
    let mut report = ScanReport::default();
    for (_, path) in list_segments(dir)? {
        match scan_segment(&path, &mut |entry| {
            report.records += u64::from(matches!(entry, LedgerEntry::Record(_)));
            on_entry(entry)
        })? {
            SegmentScan::Clean { bytes } => {
                report.segments += 1;
                report.bytes += bytes;
            }
            SegmentScan::Corrupt {
                valid_up_to,
                reason,
            } => {
                return Err(corrupt_error(
                    &path,
                    format!("{reason} (valid up to byte {valid_up_to})"),
                ))
            }
        }
    }
    crate::metrics::metrics()
        .records_replayed
        .add(report.records);
    Ok(report)
}

/// [`for_each_entry`] over the trial records alone: notes are skipped.
///
/// # Errors
///
/// See [`for_each_entry`].
pub fn for_each_record(
    dir: &Path,
    mut on_record: impl FnMut(TrialRecord) -> Result<()>,
) -> Result<ScanReport> {
    for_each_entry(dir, |entry| match entry {
        LedgerEntry::Record(record) => on_record(record),
        LedgerEntry::Note(_) => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_segment_name(name: &str) -> Option<u64> {
        parse_indexed_name(name, SEG_PREFIX)
    }

    fn provenance(noise: &str) -> Provenance {
        Provenance {
            benchmark: "cifar10-like".into(),
            scale: "smoke".into(),
            seed: 3,
            noise: noise.into(),
        }
    }

    fn record(x: f64, resource: usize, rep: u64) -> TrialRecord {
        TrialRecord {
            config: ConfigKey::from_canonical_values(&[x, 64.0]).unwrap(),
            resource,
            rep,
            noisy_score: x * 0.25,
            true_error: x * 0.5,
            sim_time: x.abs(),
            provenance: provenance("noisy"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedstore_seg_{tag}_{}_{:?}",
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

    #[test]
    fn segment_names_parse_and_sort() {
        assert_eq!(parse_segment_name("seg-00000012.fsb"), Some(12));
        assert_eq!(parse_segment_name("seg-00000000.fsb"), Some(0));
        assert_eq!(parse_segment_name("seg-.fsb"), None);
        assert_eq!(parse_segment_name("seg-12.txt"), None);
        assert_eq!(parse_segment_name("cmp-00000012.fsb"), None);
        assert_eq!(parse_segment_name("seg-12a.fsb"), None);
    }

    #[test]
    fn write_read_round_trip_with_interned_provenance() {
        let dir = temp_dir("roundtrip");
        let mut writer = SegmentWriter::open(&dir, SegmentConfig::default()).unwrap();
        let mut originals = Vec::new();
        for i in 0..20 {
            let mut r = record(i as f64, 2 + i, i as u64);
            // Two distinct provenances alternate: the dictionary interns both.
            if i % 2 == 1 {
                r.provenance = provenance("noiseless");
            }
            writer.append(&r).unwrap();
            originals.push(r);
        }
        // Non-finite scores need no guard in the binary format.
        let mut nan = record(99.0, 1, 0);
        nan.noisy_score = f64::NAN;
        nan.true_error = f64::NEG_INFINITY;
        writer.append(&nan).unwrap();
        originals.push(nan.clone().with_canonical_scores());
        drop(writer);

        let read = collect(&dir);
        assert_eq!(read.len(), originals.len());
        for (a, b) in originals.iter().zip(&read) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.resource, b.resource);
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
            assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
            assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
            assert_eq!(a.provenance, b.provenance);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_size_target_and_stay_self_contained() {
        let dir = temp_dir("roll");
        let config = SegmentConfig {
            segment_bytes: 512,
            durability: Durability::OnFlush,
        };
        let mut writer = SegmentWriter::open(&dir, config).unwrap();
        for i in 0..64 {
            writer.append(&record(i as f64, 1, 0)).unwrap();
        }
        writer.flush().unwrap();
        drop(writer);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rolls, got {segments:?}");
        for (_, path) in &segments {
            let len = std::fs::metadata(path).unwrap().len();
            // Cap + one frame of slack.
            assert!(len <= 512 + 256, "{path:?} is {len} bytes");
            // Each segment opens with the magic and re-interns provenance:
            // reading it alone works.
            let mut seen = 0;
            scan_segment(path, &mut |_| {
                seen += 1;
                Ok(())
            })
            .map(|scan| assert!(matches!(scan, SegmentScan::Clean { .. })))
            .unwrap();
            assert!(seen > 0);
        }
        assert_eq!(collect(&dir).len(), 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_writer_appends_a_fresh_segment() {
        let dir = temp_dir("reopen");
        {
            let mut writer = SegmentWriter::open(&dir, SegmentConfig::default()).unwrap();
            writer.append(&record(1.0, 1, 0)).unwrap();
        }
        {
            let mut writer = SegmentWriter::open(&dir, SegmentConfig::default()).unwrap();
            writer.append(&record(2.0, 1, 0)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert_eq!(
            segments.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(collect(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_later_segments_dropped() {
        let dir = temp_dir("torn");
        {
            let config = SegmentConfig {
                segment_bytes: 256,
                durability: Durability::OnFlush,
            };
            let mut writer = SegmentWriter::open(&dir, config).unwrap();
            for i in 0..32 {
                writer.append(&record(i as f64, 1, 0)).unwrap();
            }
            writer.flush().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "want >=3 segments, got {segments:?}");
        // Tear the middle segment a few bytes past a valid prefix.
        let (_, victim) = &segments[1];
        let pristine = std::fs::read(victim).unwrap();
        let keep = pristine.len() - 5;
        std::fs::write(victim, &pristine[..keep]).unwrap();

        let before = collect_until_valid(&dir);
        let report = recover(&dir).unwrap();
        assert!(report.truncated_bytes > 0);
        assert!(report.dropped_segments >= 1);
        // Survivors: segment 0 in full plus the valid prefix of segment 1.
        let after = collect(&dir);
        assert_eq!(after.len(), before);
        assert!(!after.is_empty());
        // Recovery is idempotent.
        let again = recover(&dir).unwrap();
        assert_eq!((again.truncated_bytes, again.dropped_segments), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Counts records readable before the first corruption (what recovery
    /// must preserve).
    fn collect_until_valid(dir: &Path) -> usize {
        let mut n = 0;
        for (_, path) in list_segments(dir).unwrap() {
            let mut here = 0;
            let scan = scan_segment(&path, &mut |_| {
                here += 1;
                Ok(())
            })
            .unwrap();
            n += here;
            if matches!(scan, SegmentScan::Corrupt { .. }) {
                break;
            }
        }
        n
    }

    #[test]
    fn bit_flip_truncates_at_the_last_valid_frame() {
        let dir = temp_dir("bitflip");
        {
            let mut writer = SegmentWriter::open(&dir, SegmentConfig::group_commit()).unwrap();
            for i in 0..8 {
                writer.append(&record(i as f64, 1, 0)).unwrap();
            }
            writer.flush().unwrap();
        }
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(path, &bytes).unwrap();
        // Strict reading refuses...
        let err = for_each_record(&dir, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // ... recovery keeps the valid prefix and re-reading succeeds.
        let report = recover(&dir).unwrap();
        assert!(report.truncated_bytes > 0 || report.dropped_segments > 0);
        let survivors = collect(&dir);
        assert!(survivors.len() < 8, "flip must cost at least one record");
        for (i, r) in survivors.iter().enumerate() {
            assert_eq!(r.noisy_score.to_bits(), (i as f64 * 0.25).to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bogus_and_empty_files_are_handled() {
        let dir = temp_dir("bogus");
        std::fs::create_dir_all(&dir).unwrap();
        // A file with a valid name but garbage content is dropped by
        // recovery; foreign files are ignored entirely.
        std::fs::write(segment_path(&dir, 0), b"not a segment").unwrap();
        std::fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
        let report = recover(&dir).unwrap();
        assert_eq!(report.dropped_segments, 1);
        assert_eq!(report.records, 0);
        assert!(dir.join("notes.txt").exists());
        // A missing directory is an empty ledger.
        let missing = temp_dir("missing");
        assert_eq!(recover(&missing).unwrap(), ScanReport::default());
        assert_eq!(
            for_each_record(&missing, |_| Ok(())).unwrap(),
            ScanReport::default()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_of_another_version_is_refused_and_left_untouched() {
        for version in [1u32, 3] {
            let dir = temp_dir(&format!("version{version}"));
            {
                let mut writer = SegmentWriter::open(&dir, SegmentConfig::default()).unwrap();
                writer.append(&record(1.0, 1, 0)).unwrap();
            }
            let path = segment_path(&dir, 0);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let named = |err: StoreError| {
                assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
                assert!(
                    err.to_string().contains(&format!("version {version}")),
                    "{err}"
                );
            };
            named(crate::TrialStore::open_segments(&dir).unwrap_err());
            named(recover(&dir).unwrap_err());
            named(for_each_record(&dir, |_| Ok(())).unwrap_err());
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            assert_eq!(list_segments(&dir).unwrap().len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_foreign_version_behind_a_corrupt_segment_is_refused_before_repair() {
        let dir = temp_dir("foreign-behind-torn");
        {
            let config = SegmentConfig {
                segment_bytes: 128,
                durability: Durability::OnFlush,
            };
            let mut writer = SegmentWriter::open(&dir, config).unwrap();
            for i in 0..8 {
                writer.append(&record(i as f64, 1, 0)).unwrap();
            }
            writer.flush().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 2, "want >=2 segments, got {segments:?}");
        let (torn, foreign) = (&segments[0].1, &segments[1].1);
        let bytes = std::fs::read(torn).unwrap();
        std::fs::write(torn, &bytes[..bytes.len() - 3]).unwrap();
        let mut bytes = std::fs::read(foreign).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(foreign, &bytes).unwrap();
        let pristine: Vec<Vec<u8>> = segments
            .iter()
            .map(|(_, path)| std::fs::read(path).unwrap())
            .collect();
        let err = recover_with(&dir, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("version 3"), "{err}");
        for ((_, path), before) in segments.iter().zip(&pristine) {
            assert_eq!(&std::fs::read(path).unwrap(), before, "{path:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn notes_keep_their_place_and_records_skip_them() {
        let dir = temp_dir("notes");
        let config = SegmentConfig {
            segment_bytes: 128,
            durability: Durability::OnFlush,
        };
        let mut writer = SegmentWriter::open(&dir, config).unwrap();
        writer.append_note_unsynced(b"first").unwrap();
        for i in 0..6 {
            writer.append(&record(i as f64, 1, 0)).unwrap();
        }
        writer.append_note_unsynced(b"").unwrap();
        writer.append_note_unsynced(&[0xff, 0]).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.records_appended(), 6);
        drop(writer);
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "notes roll like records"
        );
        let mut entries = Vec::new();
        let report = for_each_entry(&dir, |entry| {
            entries.push(entry);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.records, 6);
        let note = |bytes: &[u8]| LedgerEntry::Note(bytes.to_vec());
        assert_eq!(entries.len(), 9);
        assert_eq!(entries[0], note(b"first"));
        assert!(entries[1..7]
            .iter()
            .all(|e| matches!(e, LedgerEntry::Record(_))));
        assert_eq!(entries[7..], [note(b""), note(&[0xff, 0])]);
        assert_eq!(collect(&dir).len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_policies_sync_when_promised() {
        assert!(Durability::PerInsert.wants_sync(1));
        assert!(!Durability::PerInsert.wants_sync(0));
        assert!(!Durability::EveryN(4).wants_sync(3));
        assert!(Durability::EveryN(4).wants_sync(4));
        assert!(!Durability::OnFlush.wants_sync(1_000_000));

        // EveryN actually resets its counter through the writer.
        let dir = temp_dir("durability");
        let config = SegmentConfig {
            segment_bytes: 1 << 20,
            durability: Durability::EveryN(4),
        };
        let mut writer = SegmentWriter::open(&dir, config).unwrap();
        for i in 0..6 {
            writer.append(&record(i as f64, 1, 0)).unwrap();
        }
        // 6 appends: synced at 4, two pending.
        assert_eq!(writer.unsynced(), 2);
        writer.flush().unwrap();
        assert_eq!(writer.unsynced(), 0);
        drop(writer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_are_rejected_not_panicked() {
        let dir = temp_dir("oversize");
        let mut writer = SegmentWriter::open(&dir, SegmentConfig::default()).unwrap();
        let big = TrialRecord {
            config: ConfigKey::from_canonical_values(&vec![1.0; MAX_ARITY + 1]).unwrap(),
            resource: 1,
            rep: 0,
            noisy_score: 0.5,
            true_error: 0.5,
            sim_time: 0.0,
            provenance: provenance("noisy"),
        };
        assert!(matches!(
            writer.append(&big),
            Err(StoreError::InvalidRecord { .. })
        ));
        let mut bad_time = record(1.0, 1, 0);
        bad_time.sim_time = f64::NAN;
        assert!(writer.append(&bad_time).is_err());
        drop(writer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One payload per error branch of [`decode_payload`], each paired with
    /// the reason it must be refused for, against a one-entry dictionary.
    /// Bit flips never get this far (CRC32C rejects them first): these are
    /// what a CRC-valid frame written by a buggy or hostile writer can hold.
    fn hostile_payloads() -> Vec<(&'static str, Vec<u8>)> {
        let mut good = Vec::new();
        encode_record(&mut good, 0, &record(1.0, 2, 3));
        // `good` is [tag][provenance id 0][rest]: splice a raw varint in.
        let record_with_id = |id: &[u8]| [&[TAG_RECORD][..], id, &good[2..]].concat();
        let varint = |v: u64| {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            buf
        };
        let provenance_with_len =
            |len: u64| [&[TAG_PROVENANCE, 0][..], &varint(len), b"cifar"].concat();
        let mut out_of_order = Vec::new();
        encode_provenance(&mut out_of_order, 2, &provenance("noisy"));
        let mut negative_time = record(1.0, 2, 3);
        negative_time.sim_time = -1.0;
        let mut negative = Vec::new();
        encode_record(&mut negative, 0, &negative_time);
        vec![
            ("varint longer than 10 bytes", record_with_id(&[0x80; 11])),
            (
                "varint overflows u64",
                record_with_id(&[[0xff; 9].as_slice(), &[0x02]].concat()),
            ),
            ("payload truncated", provenance_with_len(1 << 40)),
            // A length whose end offset would overflow `usize`.
            ("payload truncated", provenance_with_len(u64::MAX)),
            (
                "exceeds the 4096 cap",
                [&[TAG_RECORD, 0][..], &varint(MAX_ARITY as u64 + 1)].concat(),
            ),
            (
                "exceeds the 4096 cap",
                [&[TAG_RECORD, 0][..], &varint(u64::MAX)].concat(),
            ),
            ("unknown provenance 1", record_with_id(&[1])),
            ("unknown provenance", record_with_id(&varint(u64::MAX))),
            ("out of order (expected 1)", out_of_order),
            (
                "provenance id exceeds u32",
                [&[TAG_PROVENANCE][..], &varint(1 << 33)].concat(),
            ),
            ("1 trailing payload bytes", [&good[..], &[0]].concat()),
            ("payload truncated at byte 1", vec![TAG_NOTE]),
            ("payload truncated at byte 2", vec![TAG_NOTE, 2, b'x']),
            ("1 trailing payload bytes", vec![TAG_NOTE, 1, b'x', b'y']),
            ("unknown payload tag 4", vec![4]),
            ("payload truncated at byte 0", Vec::new()),
            ("must be finite and non-negative", negative),
        ]
    }

    #[test]
    fn hostile_payloads_are_refused_with_their_reason() {
        let dict = [provenance("noisy")];
        let mut good = Vec::new();
        encode_record(&mut good, 0, &record(1.0, 2, 3));
        assert!(matches!(
            decode_payload(&good, &dict),
            Ok(Payload::Record(_))
        ));
        for (reason, payload) in hostile_payloads() {
            match decode_payload(&payload, &dict) {
                Err(message) => assert!(message.contains(reason), "{reason}: got {message}"),
                Ok(_) => panic!("{reason}: {payload:?} decoded"),
            }
        }
    }

    #[test]
    fn a_crc_valid_hostile_last_frame_reopens_to_the_frames_before_it() {
        for (i, (reason, payload)) in hostile_payloads().into_iter().enumerate() {
            let dir = temp_dir(&format!("hostile{i}"));
            let originals: Vec<TrialRecord> = (0..4).map(|j| record(j as f64, 1, 0)).collect();
            {
                let mut writer = SegmentWriter::open(&dir, SegmentConfig::group_commit()).unwrap();
                for r in &originals {
                    writer.append(r).unwrap();
                }
                writer.flush().unwrap();
            }
            let (_, path) = &list_segments(&dir).unwrap()[0];
            let clean_len = std::fs::metadata(path).unwrap().len();
            let mut bytes = std::fs::read(path).unwrap();
            append_frame(&mut bytes, &payload);
            std::fs::write(path, &bytes).unwrap();

            let store = crate::TrialStore::open_segments(&dir).unwrap();
            assert_eq!(store.len(), originals.len(), "{reason}");
            drop(store);
            assert_eq!(
                std::fs::metadata(path).unwrap().len(),
                clean_len,
                "{reason}"
            );
            let survivors = collect(&dir);
            assert_eq!(survivors.len(), originals.len(), "{reason}");
            for (a, b) in originals.iter().zip(&survivors) {
                assert_eq!(a.config, b.config, "{reason}");
                assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits(), "{reason}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::framing::FrameReader;
    use proptest::prelude::*;
    use rand::Rng;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedstore_segprop_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a reproducible single-segment ledger of `n` records (mixed
    /// provenances, occasional non-finite scores) and returns the records.
    fn seeded_ledger(dir: &Path, seed: u64, n: usize) -> Vec<TrialRecord> {
        let mut rng = fedmath::rng::rng_for(seed, 17);
        let config = SegmentConfig {
            segment_bytes: 1 << 20,
            durability: Durability::OnFlush,
        };
        let mut writer = SegmentWriter::open(dir, config).unwrap();
        let mut out = Vec::new();
        for i in 0..n {
            let score = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => rng.gen_range(-2.0..2.0),
            };
            let record = TrialRecord {
                config: ConfigKey::from_canonical_values(&[i as f64, rng.gen_range(-1e3..1e3)])
                    .unwrap(),
                resource: rng.gen_range(1..50),
                rep: rng.gen_range(0..3),
                noisy_score: score(&mut rng),
                true_error: score(&mut rng),
                sim_time: rng.gen_range(0.0..100.0),
                provenance: Provenance {
                    benchmark: "prop".into(),
                    scale: "smoke".into(),
                    seed,
                    noise: if i % 3 == 0 { "noisy" } else { "noiseless" }.into(),
                },
            };
            writer.append(&record).unwrap();
            out.push(record.clone().with_canonical_scores());
        }
        writer.flush().unwrap();
        out
    }

    /// Byte offsets (within the segment file) at which each *record* frame
    /// ends, in order — the oracle for how many records any prefix holds.
    fn record_frame_ends(segment: &[u8]) -> Vec<u64> {
        let mut reader = FrameReader::new(
            &segment[SEGMENT_HEADER_BYTES as usize..],
            SEGMENT_HEADER_BYTES,
        );
        let mut ends = Vec::new();
        while let Some(payload) = reader.next_frame().unwrap() {
            let is_record = payload.first() == Some(&TAG_RECORD);
            if is_record {
                ends.push(reader.valid_up_to());
            }
        }
        ends
    }

    /// Checks that the ledger at `dir` reopens to exactly the first
    /// `expected` records of `originals`, bit for bit, and accepts appends.
    fn assert_recovers_prefix(dir: &Path, originals: &[TrialRecord], expected: usize) {
        let mut store = crate::TrialStore::open_segments(dir).unwrap();
        assert_eq!(store.len(), expected, "recovered record count");
        for (a, b) in originals[..expected].iter().zip(store.records()) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.resource, b.resource);
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
            assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
            assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
            assert_eq!(a.provenance, b.provenance);
        }
        // The repaired ledger accepts new work.
        store
            .insert(TrialRecord {
                config: ConfigKey::from_canonical_values(&[-1.0]).unwrap(),
                resource: 1,
                rep: 0,
                noisy_score: 0.5,
                true_error: 0.5,
                sim_time: 0.0,
                provenance: Provenance {
                    benchmark: "prop".into(),
                    scale: "smoke".into(),
                    seed: 0,
                    noise: "noisy".into(),
                },
            })
            .unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Truncating the segment at *any* byte offset: reopening never
        /// panics, never indexes a corrupt record, and always recovers
        /// every record whose frame lies wholly before the cut.
        #[test]
        fn prop_truncation_recovers_every_frame_before_the_cut(
            seed in any::<u64>(),
            n in 1usize..12,
            cut_frac in 0.0f64..1.0,
        ) {
            let dir = temp_dir("cut");
            let originals = seeded_ledger(&dir, seed, n);
            let path = segment_path(&dir, 0);
            let pristine = std::fs::read(&path).unwrap();
            let ends = record_frame_ends(&pristine);
            prop_assert_eq!(ends.len(), n);
            let cut = (cut_frac * pristine.len() as f64) as usize;
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let expected = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_recovers_prefix(&dir, &originals, expected);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Flipping a single bit anywhere — header, frame headers, payloads,
        /// CRCs: reopening never panics and the surviving records are a
        /// bit-exact prefix of the originals, or, for a flip in the version
        /// field, the segment is refused and left byte-identical.
        #[test]
        fn prop_single_bit_flip_recovers_a_clean_prefix(
            seed in any::<u64>(),
            n in 1usize..10,
            byte_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let dir = temp_dir("flip");
            let originals = seeded_ledger(&dir, seed, n);
            let path = segment_path(&dir, 0);
            let mut bytes = std::fs::read(&path).unwrap();
            let ends = record_frame_ends(&bytes);
            let target = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[target] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            // The flip lands inside (or before) exactly one frame; every
            // record frame that ends at or before the flipped byte's frame
            // start is untouched. Conservative oracle: records whose frames
            // end at or before the flipped byte survive; later ones may or
            // may not (the flip's frame is rejected, everything after is
            // dropped). The recovered store must be a prefix.
            let survivors_min = ends.iter().filter(|&&e| e <= target as u64).count();
            if (4..8).contains(&target) {
                // A flipped version is another format's segment: refused,
                // and left as it is.
                let err = crate::TrialStore::open_segments(&dir).unwrap_err();
                prop_assert!(err.to_string().contains("version"), "{}", err);
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes);
                std::fs::remove_dir_all(&dir).unwrap();
                return Ok(());
            }
            let mut store = crate::TrialStore::open_segments(&dir).unwrap();
            prop_assert!(store.len() <= n);
            let len = store.len();
            prop_assert!(len >= survivors_min, "flip at {} lost pre-flip records: {} < {}", target, len, survivors_min);
            for (a, b) in originals[..len].iter().zip(store.records()) {
                prop_assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
                prop_assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
                prop_assert_eq!(&a.config, &b.config);
                prop_assert_eq!(&a.provenance, &b.provenance);
            }
            store.insert(originals[0].clone()).ok();
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
