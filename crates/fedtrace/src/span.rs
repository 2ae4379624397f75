//! The sim-domain trial span of the virtual-time executor timeline.

use serde::{Deserialize, Serialize};

/// One evaluation slice of the virtual-time executor timeline: trial
/// `trial` trained to rung `resource` on virtual worker `worker`, occupying
/// the sim-time interval `[start, end]`.
///
/// The executor collects these **unconditionally** — the timeline is part of
/// the campaign result, not an observability side effect — so tracing on or
/// off cannot move its bits, and a recorded campaign's timeline replays
/// bit-identically from the ledger (`tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialSpan {
    /// Trial identifier within its campaign.
    pub trial: u64,
    /// The rung/resource level the evaluation reported at.
    pub resource: u64,
    /// Noise repetition index of the evaluation.
    pub rep: u64,
    /// Index of the virtual worker that executed the slice.
    pub worker: u64,
    /// Sim-time the slice started, in virtual seconds.
    pub start: f64,
    /// Sim-time the slice completed, in virtual seconds.
    pub end: f64,
}

impl TrialSpan {
    /// Duration of the slice in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_span_round_trips_with_exact_bits() {
        let span = TrialSpan {
            trial: 3,
            resource: 9,
            rep: 0,
            worker: 2,
            start: 1.5,
            end: 0.1 + 0.2, // a value without a short decimal form
        };
        assert!((span.duration() - (span.end - 1.5)).abs() < 1e-15);
        let json = serde_json::to_string(&span).unwrap();
        let back: TrialSpan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.end.to_bits(), span.end.to_bits());
        assert_eq!(back, span);
    }
}
