//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message on a service connection — either direction, over unix
//! sockets or TCP alike — is one frame:
//!
//! ```text
//! +----------+----------------+------------------+
//! | magic 4B | length 4B (LE) | payload (JSON)   |
//! | b"FSV1"  | n <= MAX_FRAME | exactly n bytes  |
//! +----------+----------------+------------------+
//! ```
//!
//! The codec is split sans-io: [`encode_frame`] and [`decode_frame`] are
//! pure functions over byte buffers (that is what the property tests
//! exercise — round-trips, every single-byte truncation, garbage prefixes —
//! without sockets), and [`read_message`] / [`write_message`] adapt them to
//! blocking streams.
//!
//! # Robustness contract
//!
//! A malformed frame never panics the peer and never silently drops the
//! connection; the server answers with a structured [`Response::Error`]
//! first. Whether the connection can *continue* depends on what went wrong:
//! a payload that fails JSON decoding was still fully consumed at a frame
//! boundary, so the stream stays in sync and later requests work; a bad
//! magic or oversized length means framing itself is lost, so the server
//! replies and then closes (there is no reliable way to find the next frame
//! boundary).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

use crate::spec::{CampaignSpec, CampaignStatus};

/// Frame magic: protocol name + version. Bump for incompatible changes.
pub const MAGIC: [u8; 4] = *b"FSV1";

/// Largest accepted payload, in bytes. Generous for specs and statuses
/// while keeping a garbage length prefix from provoking a huge allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Ways a frame can fail to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// The buffer or stream ended mid-frame.
    Truncated {
        /// Bytes the complete frame needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload was not valid JSON for the expected message type.
    BadPayload {
        /// Decoder detail.
        message: String,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected {MAGIC:?})")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_FRAME} byte cap"
                )
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::BadPayload { message } => write!(f, "undecodable payload: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether the stream is still at a frame boundary after this error.
    /// `true` means the connection can keep serving requests; `false`
    /// means framing is lost and the peer should close after replying.
    pub fn recoverable(&self) -> bool {
        matches!(self, FrameError::BadPayload { .. })
    }

    /// The machine-readable code a server reply carries for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::BadMagic { .. } => ErrorCode::BadFrame,
            FrameError::Oversized { .. } => ErrorCode::Oversized,
            FrameError::Truncated { .. } => ErrorCode::BadFrame,
            FrameError::BadPayload { .. } => ErrorCode::BadRequest,
        }
    }
}

/// Encodes one payload as a complete frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME, "encoding an oversized frame");
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes one frame from the front of `buf`, returning the payload and the
/// number of bytes consumed.
///
/// Pure and panic-free on arbitrary input: the property tests feed this
/// every prefix truncation and byte-level mutation of valid frames.
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::Oversized`] when the header is
/// corrupt, [`FrameError::Truncated`] when `buf` ends before the frame does.
pub fn decode_frame(buf: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    let total = 8 + payload_len(&buf[..buf.len().min(8)])?;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    Ok((buf[8..total].to_vec(), total))
}

/// The payload length the header of a frame declares — the one place the
/// magic and the [`MAX_FRAME`] cap are checked. `header` is as much of the
/// eight header bytes as has arrived: a wrong magic is reported as soon as
/// its four bytes are there, anything else short of eight is a truncation.
fn payload_len(header: &[u8]) -> Result<usize, FrameError> {
    let truncated = FrameError::Truncated {
        needed: 8,
        have: header.len(),
    };
    let Some(found) = header.first_chunk::<4>() else {
        return Err(truncated);
    };
    if *found != MAGIC {
        return Err(FrameError::BadMagic { found: *found });
    }
    let Some(len) = header[4..].first_chunk::<4>() else {
        return Err(truncated);
    };
    let len = u32::from_le_bytes(*len) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    Ok(len)
}

/// Reads one raw frame payload from a stream. `Ok(None)` is a clean close:
/// EOF exactly at a frame boundary.
///
/// # Errors
///
/// [`FrameError::Truncated`] when the peer hung up mid-frame, otherwise the
/// header errors of [`decode_frame`]; io failures surface as a truncation
/// at the current offset (the caller treats both as a dead connection).
pub fn read_frame(stream: &mut dyn Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated {
                    needed: 8,
                    have: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                return Err(FrameError::Truncated {
                    needed: 8,
                    have: filled,
                })
            }
        }
    }
    let len = payload_len(&header)?;
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    needed: 8 + len,
                    have: 8 + got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                return Err(FrameError::Truncated {
                    needed: 8 + len,
                    have: 8 + got,
                })
            }
        }
    }
    Ok(Some(payload))
}

/// Writes one frame to a stream and flushes it.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_frame(stream: &mut dyn Write, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&encode_frame(payload))?;
    stream.flush()
}

/// Reads and decodes one message. `Ok(None)` is a clean close.
///
/// # Errors
///
/// Framing errors from [`read_frame`], or [`FrameError::BadPayload`] when
/// the payload is not valid JSON for `T` (the stream *is* still in sync).
pub fn read_message<T: Deserialize>(stream: &mut dyn Read) -> Result<Option<T>, FrameError> {
    let Some(payload) = read_frame(stream)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload).map_err(|e| FrameError::BadPayload {
        message: format!("payload is not utf-8: {e}"),
    })?;
    match serde_json::from_str(text) {
        Ok(message) => Ok(Some(message)),
        Err(e) => Err(FrameError::BadPayload {
            message: e.to_string(),
        }),
    }
}

/// Serializes and writes one message.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_message<T: Serialize>(stream: &mut dyn Write, message: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(message)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, json.as_bytes())
}

/// Machine-readable error classes in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Frame header was corrupt or truncated; connection closes after this.
    BadFrame,
    /// Frame payload exceeded [`MAX_FRAME`]; connection closes after this.
    Oversized,
    /// Payload was not a decodable request; connection stays usable.
    BadRequest,
    /// The submitted campaign spec failed validation.
    InvalidSpec,
    /// Submitted name collides with an existing campaign.
    Duplicate,
    /// Referenced campaign does not exist.
    Unknown,
    /// A wait did not finish within its timeout.
    Timeout,
    /// The service is shutting down.
    ShuttingDown,
    /// Internal failure while handling the request.
    Internal,
}

/// Client-to-server messages.
///
/// `Submit` dwarfs the other variants (it carries a whole `CampaignSpec`),
/// but requests are transient — one short-lived value per frame on a
/// connection thread — so boxing the spec would only add indirection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Register and start a new campaign.
    Submit {
        /// The campaign definition.
        spec: CampaignSpec,
    },
    /// Snapshot one campaign (`Some(name)`) or all of them (`None`).
    Status {
        /// Optional campaign filter.
        name: Option<String>,
    },
    /// Block until the named campaign settles (or the timeout elapses),
    /// then return its status.
    Wait {
        /// Campaign to wait on.
        name: String,
        /// Cap on the wait, in milliseconds.
        timeout_ms: u64,
    },
    /// Ask a running campaign to stop after its in-flight work drains.
    Stop {
        /// Campaign to stop.
        name: String,
    },
    /// Aggregated service + campaign metrics.
    Metrics,
    /// Gracefully shut the whole service down (suspends incomplete
    /// campaigns so a restart resumes them).
    Shutdown,
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The campaign was registered and its driver started.
    Submitted {
        /// Name echoed back.
        name: String,
    },
    /// Reply to [`Request::Status`] and [`Request::Wait`].
    Status {
        /// Matching campaigns, name-sorted.
        campaigns: Vec<CampaignStatus>,
    },
    /// The stop request was delivered.
    Stopping {
        /// Name echoed back.
        name: String,
    },
    /// Aggregated metrics snapshot (service registry merged with every
    /// campaign registry).
    Metrics {
        /// The merged snapshot.
        snapshot: fedtrace::MetricsSnapshot,
    },
    /// Shutdown acknowledged; the listener closes after this reply.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", br#"{"Ping":null}"#, &[0u8; 1024][..]] {
            let frame = encode_frame(payload);
            let (decoded, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(decoded, payload);
            assert_eq!(consumed, frame.len());
            // Trailing bytes (the next frame) are left untouched.
            let mut two = frame.clone();
            two.extend_from_slice(&frame);
            let (first, used) = decode_frame(&two).unwrap();
            assert_eq!(first, payload);
            let (second, _) = decode_frame(&two[used..]).unwrap();
            assert_eq!(second, payload);
        }
    }

    #[test]
    fn corrupt_headers_are_classified() {
        match decode_frame(b"NOPE\x00\x00\x00\x00") {
            Err(FrameError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC);
        oversized.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&oversized),
            Err(FrameError::Oversized { .. })
        ));
        let frame = encode_frame(b"hello");
        for cut in 0..frame.len() {
            assert!(matches!(
                decode_frame(&frame[..cut]),
                Err(FrameError::Truncated { .. })
            ));
        }
        assert!(FrameError::BadPayload {
            message: String::new()
        }
        .recoverable());
        assert!(!FrameError::Oversized { len: 0 }.recoverable());
    }

    #[test]
    fn messages_round_trip_over_a_stream() {
        let spec = crate::spec::CampaignSpec {
            name: "wire".to_string(),
            seed: 3,
            space: vec![crate::spec::DimSpec::Uniform {
                name: "lr".to_string(),
                low: 0.001,
                high: 0.1,
            }],
            scheduler: crate::spec::SchedulerSpec::RandomSearch {
                trials: 4,
                resource: 2,
            },
            objective: crate::spec::ObjectiveSpec::Analytic {
                target: 0.5,
                noise_sd: 0.1,
                latency_scale: 0.0,
                fail_trial: None,
                panic_trial: None,
            },
            cost: crate::spec::CostSpec::Unit,
            workers: 2,
            sim_budget: Some(64.125),
            limits: crate::spec::CampaignLimits::default(),
        };
        let requests = vec![
            Request::Ping,
            Request::Submit { spec },
            Request::Status { name: None },
            Request::Wait {
                name: "wire".to_string(),
                timeout_ms: 250,
            },
            Request::Stop {
                name: "wire".to_string(),
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        let mut stream = Vec::new();
        for request in &requests {
            write_message(&mut stream, request).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for request in &requests {
            let back: Request = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&back, request);
        }
        // EOF exactly at the frame boundary is a clean close.
        assert!(read_message::<Request>(&mut cursor).unwrap().is_none());

        let responses = vec![
            Response::Pong,
            Response::Submitted {
                name: "wire".to_string(),
            },
            Response::Status {
                campaigns: vec![CampaignStatus::fresh("wire")],
            },
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "nope".to_string(),
            },
            Response::ShuttingDown,
        ];
        let mut stream = Vec::new();
        for response in &responses {
            write_message(&mut stream, response).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for response in &responses {
            let back: Response = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&back, response);
        }
    }

    #[test]
    fn bad_payload_keeps_the_stream_in_sync() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"this is not json").unwrap();
        write_message(&mut stream, &Request::Ping).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let err = read_message::<Request>(&mut cursor).unwrap_err();
        assert!(matches!(err, FrameError::BadPayload { .. }));
        assert!(err.recoverable());
        // The bad frame was fully consumed: the next message still parses.
        let next: Request = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(next, Request::Ping);
    }
}
