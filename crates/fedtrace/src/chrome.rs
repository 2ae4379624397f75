//! Chrome `trace_event` JSON exporters.
//!
//! Both exporters emit the `{"traceEvents":[…]}` object format consumed by
//! Perfetto and `chrome://tracing`: metadata (`ph:"M"`) events name the
//! process/thread tracks, and complete (`ph:"X"`) events draw one slice per
//! span with microsecond `ts`/`dur`.
//!
//! [`virtual_timeline_json`] renders the **sim domain**: one process per
//! campaign track, one thread lane per virtual worker, one slice per trial
//! evaluation. Timestamps derive from the executor's bit-deterministic
//! virtual clock and floats print through `serde_json`'s shortest
//! round-trip formatter, so identical timelines (e.g. a recorded campaign
//! and its ledger replay) export **byte-identical** JSON.
//!
//! [`WallProfile`] renders the **wall domain**: real elapsed time of named
//! phases, for performance work only.

use crate::span::TrialSpan;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

fn push_u64(out: &mut String, v: u64) {
    out.push_str(&v.to_string());
}

fn push_micros(out: &mut String, seconds: f64) {
    // Microseconds as f64: deterministic arithmetic on deterministic inputs,
    // printed in shortest round-trip form. Sim times are validated finite and
    // wall times come from `Instant`, so `null` marks a broken input rather
    // than panicking an exporter.
    if serde_json::write_f64(out, seconds * 1e6).is_err() {
        out.push_str("null");
    }
}

fn push_metadata(out: &mut String, what: &str, pid: usize, tid: u64, name: &str) {
    out.push_str("{\"ph\":\"M\",\"name\":\"");
    out.push_str(what);
    out.push_str("\",\"pid\":");
    push_u64(out, pid as u64);
    out.push_str(",\"tid\":");
    push_u64(out, tid);
    out.push_str(",\"args\":{\"name\":");
    serde_json::write_escaped(out, name);
    out.push_str("}}");
}

/// One named campaign track of the virtual timeline (rendered as one
/// process in the trace viewer).
#[derive(Debug, Clone)]
pub struct TimelineTrack {
    /// Track name shown on the process lane (e.g. `"ASHA-ASYNC @ 8 workers"`).
    pub name: String,
    /// The campaign's trial spans in dispatch order.
    pub spans: Vec<TrialSpan>,
}

impl TimelineTrack {
    /// Builds a track.
    pub fn new(name: impl Into<String>, spans: Vec<TrialSpan>) -> Self {
        TimelineTrack {
            name: name.into(),
            spans,
        }
    }
}

/// Renders virtual-time executor timelines as Chrome `trace_event` JSON:
/// per track one process, per virtual worker one thread lane, per
/// [`TrialSpan`] one complete slice carrying `trial`/`resource`/`rep` args.
///
/// The output is a pure function of the span bits, so bit-identical
/// timelines export byte-identical JSON.
pub fn virtual_timeline_json(tracks: &[TimelineTrack]) -> String {
    let total: usize = tracks.iter().map(|t| t.spans.len()).sum();
    let mut out = String::with_capacity(256 + 160 * total);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    for (pid, track) in tracks.iter().enumerate() {
        push_sep(&mut out);
        push_metadata(&mut out, "process_name", pid, 0, &track.name);
        let mut workers: Vec<u64> = track.spans.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for &worker in &workers {
            push_sep(&mut out);
            push_metadata(
                &mut out,
                "thread_name",
                pid,
                worker,
                &format!("virtual worker {worker}"),
            );
        }
        for span in &track.spans {
            push_sep(&mut out);
            out.push_str("{\"name\":\"trial ");
            push_u64(&mut out, span.trial);
            out.push_str(" r");
            push_u64(&mut out, span.resource);
            out.push_str("\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":");
            push_micros(&mut out, span.start);
            out.push_str(",\"dur\":");
            push_micros(&mut out, span.duration());
            out.push_str(",\"pid\":");
            push_u64(&mut out, pid as u64);
            out.push_str(",\"tid\":");
            push_u64(&mut out, span.worker);
            out.push_str(",\"args\":{\"trial\":");
            push_u64(&mut out, span.trial);
            out.push_str(",\"resource\":");
            push_u64(&mut out, span.resource);
            out.push_str(",\"rep\":");
            push_u64(&mut out, span.rep);
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[derive(Debug, Clone)]
struct WallSlice {
    name: String,
    start_seconds: f64,
    duration_seconds: f64,
}

/// A wall-clock phase profile: named real-time slices relative to the
/// profile's creation, exported as a single-lane Chrome trace.
///
/// Wall times are performance accounting only — nothing semantic may read
/// them, and two runs of the same campaign will not produce identical wall
/// profiles.
#[derive(Debug)]
pub struct WallProfile {
    origin: Instant,
    slices: Mutex<Vec<WallSlice>>,
}

impl WallProfile {
    /// Starts an empty profile; slice timestamps are relative to now.
    pub fn new() -> Self {
        WallProfile {
            origin: Instant::now(),
            slices: Mutex::new(Vec::new()),
        }
    }

    /// The recorded slices, poisoned or not: a push that panicked left the
    /// `Vec` as it was.
    fn slices(&self) -> MutexGuard<'_, Vec<WallSlice>> {
        self.slices.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `work`, recording its wall-clock extent as a named slice.
    pub fn time<T>(&self, name: &str, work: impl FnOnce() -> T) -> T {
        let start = self.now_seconds();
        let out = work();
        self.record_since(name, start);
        out
    }

    /// Seconds elapsed since the profile's origin — the timestamp domain of
    /// every slice. Pair with [`record_since`](Self::record_since) to time a
    /// region that cannot be expressed as a closure (for example a phase
    /// spanning several `&mut self` calls on another object).
    pub fn now_seconds(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a named slice from `start_seconds` (a value previously read
    /// from [`now_seconds`](Self::now_seconds)) to now.
    pub fn record_since(&self, name: &str, start_seconds: f64) {
        let end = self.now_seconds();
        self.slices().push(WallSlice {
            name: name.to_string(),
            start_seconds,
            duration_seconds: end - start_seconds,
        });
    }

    /// Number of recorded slices.
    pub fn len(&self) -> usize {
        self.slices().len()
    }

    /// Whether no slice has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome `trace_event` JSON of the recorded slices (`cat:"wall"`, one
    /// process, one lane).
    pub fn to_chrome_json(&self) -> String {
        let slices = self.slices();
        let mut out = String::with_capacity(256 + 128 * slices.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        push_metadata(&mut out, "process_name", 0, 0, "wall clock");
        for slice in slices.iter() {
            out.push_str(",{\"name\":");
            serde_json::write_escaped(&mut out, &slice.name);
            out.push_str(",\"cat\":\"wall\",\"ph\":\"X\",\"ts\":");
            push_micros(&mut out, slice.start_seconds);
            out.push_str(",\"dur\":");
            push_micros(&mut out, slice.duration_seconds);
            out.push_str(",\"pid\":0,\"tid\":0,\"args\":{}}");
        }
        out.push_str("]}");
        out
    }
}

impl Default for WallProfile {
    fn default() -> Self {
        WallProfile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<TrialSpan> {
        vec![
            TrialSpan {
                trial: 0,
                resource: 1,
                rep: 0,
                worker: 0,
                start: 0.0,
                end: 1.5,
            },
            TrialSpan {
                trial: 1,
                resource: 1,
                rep: 0,
                worker: 1,
                start: 0.0,
                end: 0.75,
            },
            TrialSpan {
                trial: 1,
                resource: 3,
                rep: 0,
                worker: 1,
                start: 0.75,
                end: 2.25,
            },
        ]
    }

    #[test]
    fn virtual_timeline_is_valid_chrome_json() {
        let json = virtual_timeline_json(&[TimelineTrack::new("async @ 2", spans())]);
        let value = serde_json::parse_str(&json).unwrap();
        let serde::Value::Map(fields) = &value else {
            panic!("trace export is an object");
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let serde::Value::Seq(events) = events else {
            panic!("traceEvents is an array");
        };
        // 1 process_name + 2 thread_name metadata + 3 slices.
        assert_eq!(events.len(), 6);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("virtual worker 1"));
        assert!(json.contains("\"name\":\"trial 1 r3\""));
        // 0.75 s → 750000 µs on the slice that starts mid-timeline.
        assert!(json.contains("\"ts\":750000"));
    }

    #[test]
    fn byte_identity_follows_span_bit_identity() {
        let a = virtual_timeline_json(&[TimelineTrack::new("t", spans())]);
        let b = virtual_timeline_json(&[TimelineTrack::new("t", spans())]);
        assert_eq!(a, b);
        let mut changed = spans();
        changed[2].end = f64::from_bits(changed[2].end.to_bits() + 1);
        let c = virtual_timeline_json(&[TimelineTrack::new("t", changed)]);
        assert_ne!(a, c, "a single flipped bit must change the export");
    }

    #[test]
    fn empty_tracks_export_cleanly() {
        let json = virtual_timeline_json(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
        let json = virtual_timeline_json(&[TimelineTrack::new("empty", Vec::new())]);
        assert!(serde_json::parse_str(&json).is_ok());
    }

    #[test]
    fn wall_profile_records_and_exports() {
        let profile = WallProfile::new();
        assert!(profile.is_empty());
        let answer = profile.time("phase one", || 42);
        assert_eq!(answer, 42);
        profile.time("phase \"two\"", || ());
        assert_eq!(profile.len(), 2);
        let json = profile.to_chrome_json();
        assert!(serde_json::parse_str(&json).is_ok());
        assert!(json.contains("\"cat\":\"wall\""));
        assert!(json.contains("phase one"));
        assert!(json.contains("\\\"two\\\""));
    }
}
