//! Length-prefixed, CRC32C-checksummed binary frames — the wire unit of the
//! segment ledger.
//!
//! A frame on disk is:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC32C (Castagnoli) of the length bytes *followed by*
//! the payload, so a bit flip anywhere in the frame — including in the length
//! prefix itself — fails verification. The reader is **streaming**: it reads
//! through a caller-provided `Read` with one reusable payload buffer, never
//! holding more than a single frame in memory, and classifies every way a
//! frame can go wrong (truncated header, truncated payload, oversized length,
//! checksum mismatch) as [`FrameReadError::Corrupt`] carrying the byte offset
//! of the end of the last *valid* frame — exactly what crash recovery needs
//! to truncate a torn tail.

use std::io::Read;

/// Bytes of the `len + crc` frame header.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on a frame payload (16 MiB). Real ledger payloads are ~100
/// bytes; the cap turns a corrupted length prefix into a detected error
/// instead of a gigabyte allocation.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) lookup tables for
/// slice-by-8, built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Folds `bytes` into a running (pre-inverted) CRC32C state.
fn crc32c_fold(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The checksum stored in a frame header: CRC32C over the little-endian
/// length bytes followed by the payload.
pub fn frame_crc(payload: &[u8]) -> u32 {
    let len = payload.len() as u32;
    !crc32c_fold(crc32c_fold(!0, &len.to_le_bytes()), payload)
}

/// Appends one complete frame (header + payload) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — ledger payloads are
/// bounded by construction, so an oversized one is a programming error, not
/// a runtime condition.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// How reading the next frame failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// A real I/O failure from the underlying reader (not end-of-data).
    Io(std::io::Error),
    /// The stream is corrupt at the current frame: torn tail, oversized
    /// length, or checksum mismatch. Everything before `valid_up_to` (a byte
    /// offset into the stream, counted from where the reader started) is
    /// intact; everything from it on is garbage.
    Corrupt {
        /// End offset of the last frame that verified.
        valid_up_to: u64,
        /// What went wrong with the frame at `valid_up_to`.
        reason: String,
    },
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame io error: {e}"),
            FrameReadError::Corrupt {
                valid_up_to,
                reason,
            } => write!(f, "corrupt frame after byte {valid_up_to}: {reason}"),
        }
    }
}

/// A streaming frame reader over any `Read`, reusing one payload buffer
/// across frames.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    reader: R,
    payload: Vec<u8>,
    /// End offset of the last successfully verified frame.
    valid_up_to: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `reader`, counting offsets from `start_offset` (the segment
    /// header size, when reading a segment body).
    pub fn new(reader: R, start_offset: u64) -> Self {
        FrameReader {
            reader,
            payload: Vec::new(),
            valid_up_to: start_offset,
        }
    }

    /// End offset of the last frame that verified — the truncation point
    /// after a corruption.
    pub fn valid_up_to(&self) -> u64 {
        self.valid_up_to
    }

    /// Reads and verifies the next frame, returning its payload (borrowed
    /// from the reusable internal buffer), or `None` at a clean end of
    /// stream (end-of-data exactly at a frame boundary).
    ///
    /// # Errors
    ///
    /// [`FrameReadError::Corrupt`] on a torn or damaged frame,
    /// [`FrameReadError::Io`] on an underlying read failure.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameReadError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let got = read_up_to(&mut self.reader, &mut header).map_err(FrameReadError::Io)?;
        if got == 0 {
            return Ok(None);
        }
        if got < FRAME_HEADER_BYTES {
            return Err(self.corrupt(format!(
                "torn frame header ({got} of {FRAME_HEADER_BYTES} bytes)"
            )));
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(self.corrupt(format!(
                "frame length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            )));
        }
        self.payload.resize(len, 0);
        let got = read_up_to(&mut self.reader, &mut self.payload).map_err(FrameReadError::Io)?;
        if got < len {
            return Err(self.corrupt(format!("torn frame payload ({got} of {len} bytes)")));
        }
        if frame_crc(&self.payload) != stored_crc {
            return Err(self.corrupt("checksum mismatch".into()));
        }
        self.valid_up_to += (FRAME_HEADER_BYTES + len) as u64;
        Ok(Some(&self.payload))
    }

    fn corrupt(&self, reason: String) -> FrameReadError {
        FrameReadError::Corrupt {
            valid_up_to: self.valid_up_to,
            reason,
        }
    }
}

/// Fills as much of `buf` as the reader can provide, returning the number of
/// bytes read (short only at end-of-data; `ErrorKind::Interrupted` retries).
fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_the_reference_vector() {
        let crc32c = |bytes: &[u8]| !crc32c_fold(!0, bytes);
        // RFC 3720 / the universal CRC32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // Folding in two pieces equals one pass (slice-by-8 + remainder).
        let data: Vec<u8> = (0..=255u8).cycle().take(1027).collect();
        let whole = crc32c(&data);
        let split = !crc32c_fold(crc32c_fold(!0, &data[..301]), &data[301..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"hello");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, &[0xFFu8; 300]);
        let total = buf.len() as u64;
        let mut reader = FrameReader::new(buf.as_slice(), 0);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"");
        assert_eq!(reader.next_frame().unwrap().unwrap(), &[0xFFu8; 300][..]);
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.valid_up_to(), total);
    }

    #[test]
    fn every_truncation_of_a_tail_is_detected_at_the_right_offset() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        let first_end = buf.len();
        append_frame(&mut buf, b"second record");
        // A cut inside the first frame reports an empty valid prefix; a cut
        // inside the second reports exactly the end of the first; a cut at a
        // frame boundary is indistinguishable from clean EOF — which is what
        // a repaired torn tail looks like.
        for cut in 0..buf.len() {
            let mut reader = FrameReader::new(&buf[..cut], 0);
            if cut < first_end {
                if cut == 0 {
                    assert!(reader.next_frame().unwrap().is_none());
                    continue;
                }
                match reader.next_frame() {
                    Err(FrameReadError::Corrupt { valid_up_to, .. }) => {
                        assert_eq!(valid_up_to, 0, "cut at {cut}");
                    }
                    other => panic!("cut at {cut}: expected corruption, got {other:?}"),
                }
                continue;
            }
            assert_eq!(reader.next_frame().unwrap().unwrap(), b"first");
            if cut == first_end {
                assert!(reader.next_frame().unwrap().is_none());
                continue;
            }
            match reader.next_frame() {
                Err(FrameReadError::Corrupt { valid_up_to, .. }) => {
                    assert_eq!(valid_up_to, first_end as u64, "cut at {cut}");
                }
                other => panic!("cut at {cut}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut pristine = Vec::new();
        append_frame(&mut pristine, b"payload under test");
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut buf = pristine.clone();
                buf[byte] ^= 1 << bit;
                let mut reader = FrameReader::new(buf.as_slice(), 0);
                match reader.next_frame() {
                    Err(FrameReadError::Corrupt { valid_up_to, .. }) => {
                        assert_eq!(valid_up_to, 0, "flip at {byte}:{bit}");
                    }
                    Ok(Some(payload)) => {
                        panic!("flip at {byte}:{bit} went undetected: {payload:?}")
                    }
                    other => panic!("flip at {byte}:{bit}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_corruption_not_allocation() {
        let mut buf = vec![0xFFu8; 32];
        // len = 0xFFFFFFFF: far past the cap.
        let mut reader = FrameReader::new(buf.as_slice(), 0);
        match reader.next_frame() {
            Err(FrameReadError::Corrupt { reason, .. }) => {
                assert!(reason.contains("cap"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A plausible-but-too-large length with a matching CRC still refuses.
        buf.clear();
        let len = (MAX_FRAME_PAYLOAD + 1) as u32;
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let mut reader = FrameReader::new(buf.as_slice(), 0);
        assert!(matches!(
            reader.next_frame(),
            Err(FrameReadError::Corrupt { .. })
        ));
    }

    #[test]
    fn start_offset_shifts_reported_offsets() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"x");
        let end = buf.len() as u64;
        buf.extend_from_slice(&[7u8; 3]); // torn garbage
        let mut reader = FrameReader::new(buf.as_slice(), 100);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"x");
        assert_eq!(reader.valid_up_to(), 100 + end);
        match reader.next_frame() {
            Err(FrameReadError::Corrupt { valid_up_to, .. }) => {
                assert_eq!(valid_up_to, 100 + end);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
