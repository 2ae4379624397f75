//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end on one
//! monotonic clock, the span that was open on the same thread when it began
//! (its parent), and the id of the campaign or repetition it belongs to.
//! Spans stay in memory until the run ends and are then written as a Chrome
//! `trace_event` file. A disabled recorder hands out guards that do nothing,
//! so the untraced run executes the same harness code without recording; an
//! enabled one can be paused, which lets a traced run alternate recorded and
//! unrecorded repetitions and report the difference as its own overhead.

use serde::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    lane: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Calls, total time and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_s: f64,
    /// Total minus the part covered by child spans.
    pub self_s: f64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// This thread's lane in the exported trace (0 = not assigned yet).
    static LANE: Cell<u64> = const { Cell::new(0) };
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// The span recorder; `Spans::disabled()` records nothing.
pub struct Spans {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    paused: AtomicBool,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    owner: &'a Spans,
    index: Option<usize>,
}

impl Spans {
    pub fn enabled() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
            paused: AtomicBool::new(false),
        }
    }

    pub fn disabled() -> Self {
        Spans {
            origin: Instant::now(),
            spans: None,
            paused: AtomicBool::new(false),
        }
    }

    /// Stops or resumes recording; spans already open still close.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn locked(&self) -> Option<std::sync::MutexGuard<'_, Vec<Span>>> {
        // A panic while the lock is held leaves only complete spans behind,
        // so a poisoned recorder is still safe to read and extend.
        self.spans
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Opens a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        let recording = !self.paused.load(Ordering::Relaxed);
        let Some(mut spans) = self.locked().filter(|_| recording) else {
            return SpanGuard {
                owner: self,
                index: None,
            };
        };
        let lane = LANE.with(|lane| {
            if lane.get() == 0 {
                lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
            }
            lane.get()
        });
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            id,
            parent,
            lane,
            start_ns,
            end_ns: start_ns,
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            owner: self,
            index: Some(index),
        }
    }

    /// Per-name calls, total and self time over every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        let Some(spans) = self.locked() else {
            return totals;
        };
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(&child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(*children) as f64 * 1e-9;
        }
        totals
    }

    /// Writes the spans as a Chrome `trace_event` array: one complete
    /// (`"ph":"X"`) event per span, `ts`/`dur` in microseconds, one `tid`
    /// per recording thread, and the campaign id and parent index in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let Some(spans) = self.locked() else {
            return Ok(0);
        };
        let events: Vec<Value> = spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                let parent = span.parent.map_or(Value::Null, |p| Value::U64(p as u64));
                Value::Map(vec![
                    ("name".into(), Value::Str(span.name.into())),
                    ("cat".into(), Value::Str(layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(span.lane)),
                    ("ts".into(), Value::F64(span.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::F64((span.end_ns - span.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("span".into(), Value::U64(index as u64)),
                            ("parent".into(), parent),
                            ("id".into(), Value::U64(span.id)),
                        ]),
                    ),
                ])
            })
            .collect();
        let count = events.len();
        let text = serde_json::to_string(&Value::Seq(events))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, text)?;
        Ok(count)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else {
            return;
        };
        let end_ns = self.owner.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        if let Some(mut spans) = self.owner.locked() {
            spans[index].end_ns = end_ns;
        }
    }
}
