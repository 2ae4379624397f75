//! One recorded evaluation and its provenance, with its JSON-line text
//! view.
//!
//! A record carries both sides of the paper's noisy-evaluation story: the
//! noisy observation the tuner acted on *and* the ground-truth
//! full-validation error, so replayed campaigns can report what tuner choices
//! actually cost. Scores may be non-finite (a diverged training run reports
//! `NaN`); since JSON has no non-finite literals (and the vendored
//! `serde_json` refuses to write them), the text view writes those values as
//! the strings `"NaN"`, `"inf"`, and `"-inf"`. The text is write-only: the
//! ledger itself is the binary segment format ([`crate::segment`]).

use crate::key::{ConfigKey, TrialKey};
use crate::{Result, StoreError};
use serde::{Serialize, Value};
use std::sync::Arc;

/// Where a record came from: enough context to audit a ledger and to tell
/// apart tables recorded under different campaigns. (`Hash` lets the binary
/// segment writer intern repeated provenances into a per-segment dictionary.)
///
/// A campaign stamps millions of records with one provenance, so the labels
/// are shared: cloning a provenance is three reference counts, not three
/// string copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Provenance {
    /// Benchmark name (e.g. `"cifar10-like"`).
    pub benchmark: Arc<str>,
    /// Experiment-scale label (e.g. `"smoke"`).
    pub scale: Arc<str>,
    /// Root seed of the recording campaign.
    pub seed: u64,
    /// Noise-setting label the evaluation was observed under
    /// (e.g. `"noiseless"`, `"noisy"`).
    pub noise: Arc<str>,
}

/// One evaluation in the trial ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Canonical configuration identity (see [`ConfigKey`]).
    pub config: ConfigKey,
    /// Cumulative training rounds the configuration had received.
    pub resource: usize,
    /// Noise replicate index of the observation.
    pub rep: u64,
    /// The noisy score the tuner observed.
    pub noisy_score: f64,
    /// The true full-validation error at the same point.
    pub true_error: f64,
    /// Simulated completion time of the recording campaign's evaluation in
    /// virtual seconds (`0.0` when recorded by a synchronous driver). Rides
    /// along for audit: replays re-derive the virtual timeline from the cost
    /// model, and the stored stamp lets tests assert the timelines agree.
    pub sim_time: f64,
    /// Recording provenance.
    pub provenance: Provenance,
}

impl TrialRecord {
    /// The ledger key this record is stored under.
    pub fn key(&self) -> TrialKey {
        TrialKey {
            config: self.config.clone(),
            resource: self.resource,
            rep: self.rep,
        }
    }

    /// Returns the record with NaN scores collapsed to the canonical
    /// `f64::NAN` bit pattern, making ledger round trips bit-lossless even
    /// for poisoned observations.
    #[must_use]
    pub fn with_canonical_scores(mut self) -> Self {
        if self.noisy_score.is_nan() {
            self.noisy_score = f64::NAN;
        }
        if self.true_error.is_nan() {
            self.true_error = f64::NAN;
        }
        self
    }

    /// Validates that the virtual timestamp is storable: the segment decoder
    /// rejects negative or non-finite stamps, so the write side must too —
    /// otherwise one bad insert would make a file-backed ledger unreadable
    /// on the next open.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] for negative or non-finite
    /// `sim_time`.
    pub fn validate_sim_time(&self) -> Result<()> {
        if !self.sim_time.is_finite() || self.sim_time < 0.0 {
            return Err(StoreError::InvalidRecord {
                message: format!("sim time {} must be finite and non-negative", self.sim_time),
            });
        }
        Ok(())
    }

    /// Serializes the record as one compact JSON line (no trailing newline)
    /// — the ledger's text view (`ledger_dump`), defined once by this type's
    /// [`Serialize`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] on a negative or non-finite
    /// `sim_time` (which the segment decoder would reject) or if
    /// serialization fails (the score guards make that unreachable for
    /// records built through [`ConfigKey`]).
    pub fn to_line(&self) -> Result<String> {
        self.validate_sim_time()?;
        serde_json::to_string(self).map_err(|e| StoreError::InvalidRecord {
            message: e.to_string(),
        })
    }
}

/// Encodes a possibly-non-finite score.
fn score_to_value(score: f64) -> Value {
    if score.is_finite() {
        Value::F64(score)
    } else if score.is_nan() {
        Value::Str("NaN".into())
    } else if score > 0.0 {
        Value::Str("inf".into())
    } else {
        Value::Str("-inf".into())
    }
}

impl Serialize for TrialRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("values".into(), self.config.values().to_value()),
            ("resource".into(), self.resource.to_value()),
            ("rep".into(), self.rep.to_value()),
            ("noisy".into(), score_to_value(self.noisy_score)),
            ("true".into(), score_to_value(self.true_error)),
            ("sim".into(), Value::F64(self.sim_time)),
            ("provenance".into(), self.provenance.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn provenance() -> Provenance {
        Provenance {
            benchmark: "cifar10-like".into(),
            scale: "smoke".into(),
            seed: 7,
            noise: "noisy".into(),
        }
    }

    fn record(noisy: f64, true_error: f64) -> TrialRecord {
        TrialRecord {
            config: ConfigKey::from_canonical_values(&[1e-3, 0.5, 64.0]).unwrap(),
            resource: 6,
            rep: 1,
            noisy_score: noisy,
            true_error,
            sim_time: 0.0,
            provenance: provenance(),
        }
    }

    #[test]
    fn a_record_is_one_json_line_with_shortest_round_trip_floats() {
        let mut stamped = record(0.1 + 0.2, 1.0 / 3.0);
        stamped.sim_time = 829.0625;
        let line = stamped.to_line().unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"values\":[0.001,0.5,64.0],\"resource\":6,\"rep\":1,"));
        assert!(line.contains("\"noisy\":0.30000000000000004"), "{line}");
        assert!(line.contains("\"sim\":829.0625"), "{line}");
        assert!(line.contains("\"benchmark\":\"cifar10-like\""), "{line}");
    }

    #[test]
    fn non_finite_scores_are_guarded() {
        for (noisy, encoded) in [
            (f64::NAN, "\"noisy\":\"NaN\""),
            (f64::INFINITY, "\"noisy\":\"inf\""),
            (f64::NEG_INFINITY, "\"noisy\":\"-inf\""),
        ] {
            let line = record(noisy, 0.9)
                .with_canonical_scores()
                .to_line()
                .unwrap();
            assert!(line.contains(encoded), "{line}");
            assert!(line.contains("\"true\":0.9"), "{line}");
        }
    }

    #[test]
    fn unstorable_sim_times_are_rejected() {
        // The segment decoder refuses negative or non-finite stamps, so the
        // write side refuses them too: a bad insert can never produce a
        // ledger the next open would reject.
        for bad_stamp in [-5.0, f64::NAN, f64::INFINITY] {
            let mut poisoned = record(0.5, 0.5);
            poisoned.sim_time = bad_stamp;
            assert!(poisoned.validate_sim_time().is_err(), "{bad_stamp}");
            assert!(poisoned.to_line().is_err(), "{bad_stamp}");
        }
    }
}
