//! One recorded evaluation and its provenance, with its JSON-line
//! interchange encoding.
//!
//! A record carries both sides of the paper's noisy-evaluation story: the
//! noisy observation the tuner acted on *and* the ground-truth
//! full-validation error, so replayed campaigns can report what tuner choices
//! actually cost. Scores may be non-finite (a diverged training run reports
//! `NaN`); since JSON has no non-finite literals (and the vendored
//! `serde_json` refuses to write them), the encoding guards those values as
//! the strings `"NaN"`, `"inf"`, and `"-inf"`. Finite floats round-trip
//! bit-exactly through Rust's shortest float formatting.

use crate::key::{ConfigKey, TrialKey};
use crate::{Result, StoreError};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// Where a record came from: enough context to audit a ledger and to tell
/// apart tables recorded under different campaigns. (`Hash` lets the binary
/// segment writer intern repeated provenances into a per-segment dictionary.)
///
/// A campaign stamps millions of records with one provenance, so the labels
/// are shared: cloning a provenance is three reference counts, not three
/// string copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Validates that the virtual timestamp is storable: the deserializer
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
    /// — the interchange text format, defined once by this type's
    /// [`Serialize`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] on a negative or non-finite
    /// `sim_time` (which the deserializer would reject) or if serialization
    /// fails (the score guards make that unreachable for records built
    /// through [`ConfigKey`]).
    pub fn to_line(&self) -> Result<String> {
        self.validate_sim_time()?;
        serde_json::to_string(self).map_err(|e| StoreError::InvalidRecord {
            message: e.to_string(),
        })
    }

    /// Parses one interchange line back into a record.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Parse`] (with `line` as the reported location)
    /// on malformed JSON or an invalid record.
    pub fn from_line(text: &str, line: usize) -> Result<Self> {
        serde_json::from_str(text).map_err(|e| StoreError::Parse {
            line,
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

/// Decodes a possibly-guarded score.
fn score_from_value(value: &Value) -> std::result::Result<f64, DeError> {
    match value {
        Value::F64(v) => Ok(*v),
        Value::U64(v) => Ok(*v as f64),
        Value::I64(v) => Ok(*v as f64),
        Value::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(DeError::new(format!("unknown score guard {other:?}"))),
        },
        _ => Err(DeError::new("expected a number or score guard string")),
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

impl Deserialize for TrialRecord {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let entries = match value {
            Value::Map(entries) => entries,
            _ => return Err(DeError::new("expected a map for TrialRecord")),
        };
        let field = |name: &str| {
            entries
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::new(format!("TrialRecord: missing field {name}")))
        };
        let values = Vec::<f64>::from_value(field("values")?)?;
        let config =
            ConfigKey::from_canonical_values(&values).map_err(|e| DeError::new(e.to_string()))?;
        // Ledgers written before virtual time existed have no "sim" field;
        // they load as synchronously-recorded (time zero).
        let sim_time = match field("sim") {
            Ok(value) => f64::from_value(value)?,
            Err(_) => 0.0,
        };
        if !sim_time.is_finite() || sim_time < 0.0 {
            return Err(DeError::new(format!(
                "sim time {sim_time} must be finite and non-negative"
            )));
        }
        Ok(TrialRecord {
            config,
            resource: usize::from_value(field("resource")?)?,
            rep: u64::from_value(field("rep")?)?,
            noisy_score: score_from_value(field("noisy")?)?,
            true_error: score_from_value(field("true")?)?,
            sim_time,
            provenance: Provenance::from_value(field("provenance")?)?,
        })
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
    fn finite_records_round_trip_bit_exactly() {
        let original = record(0.1 + 0.2, 1.0 / 3.0);
        let line = original.to_line().unwrap();
        assert!(!line.contains('\n'));
        let back = TrialRecord::from_line(&line, 1).unwrap();
        assert_eq!(back, original);
        assert_eq!(back.noisy_score.to_bits(), original.noisy_score.to_bits());
        assert_eq!(back.key(), original.key());
    }

    #[test]
    fn non_finite_scores_are_guarded() {
        for (noisy, encoded) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let original = record(noisy, 0.9).with_canonical_scores();
            let line = original.to_line().unwrap();
            assert!(line.contains(encoded), "{line}");
            let back = TrialRecord::from_line(&line, 1).unwrap();
            assert_eq!(back.noisy_score.to_bits(), original.noisy_score.to_bits());
            assert_eq!(back.true_error, 0.9);
        }
    }

    #[test]
    fn sim_time_round_trips_and_old_ledgers_load_at_time_zero() {
        // A virtual-time stamp round-trips bit-exactly.
        let mut stamped = record(0.5, 0.5);
        stamped.sim_time = 829.0625;
        let back = TrialRecord::from_line(&stamped.to_line().unwrap(), 1).unwrap();
        assert_eq!(back.sim_time.to_bits(), stamped.sim_time.to_bits());
        // A pre-virtual-time ledger line (no "sim" field) loads as recorded
        // synchronously.
        let legacy = "{\"values\":[1.0],\"resource\":1,\"rep\":0,\"noisy\":0.5,\"true\":0.5,\
             \"provenance\":{\"benchmark\":\"b\",\"scale\":\"s\",\"seed\":0,\"noise\":\"n\"}}";
        let back = TrialRecord::from_line(legacy, 1).unwrap();
        assert_eq!(back.sim_time, 0.0);
        // Negative or non-finite stamps are rejected — symmetrically on
        // both sides of the round trip, so a bad insert can never produce a
        // ledger line the next open would refuse.
        let bad = legacy.replace("\"rep\":0", "\"rep\":0,\"sim\":-1.0");
        assert!(TrialRecord::from_line(&bad, 1).is_err());
        for bad_stamp in [-5.0, f64::NAN, f64::INFINITY] {
            let mut poisoned = record(0.5, 0.5);
            poisoned.sim_time = bad_stamp;
            assert!(poisoned.validate_sim_time().is_err(), "{bad_stamp}");
            assert!(poisoned.to_line().is_err(), "{bad_stamp}");
        }
    }

    #[test]
    fn malformed_lines_report_their_location() {
        let err = TrialRecord::from_line("{broken", 42).unwrap_err();
        assert!(err.to_string().contains("line 42"), "{err}");
        let err = TrialRecord::from_line("{\"values\":[1.0]}", 3).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
        // Non-finite configuration values are rejected on load.
        let err =
            TrialRecord::from_line("{\"values\":[\"NaN\"],\"resource\":1,\"rep\":0,\"noisy\":0.5,\"true\":0.5,\"provenance\":{\"benchmark\":\"b\",\"scale\":\"s\",\"seed\":0,\"noise\":\"n\"}}", 1)
                .unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = TrialRecord::from_line("{\"values\":[1.0],\"resource\":1,\"rep\":0,\"noisy\":\"nope\",\"true\":0.5,\"provenance\":{\"benchmark\":\"b\",\"scale\":\"s\",\"seed\":0,\"noise\":\"n\"}}", 1)
            .unwrap_err();
        assert!(err.to_string().contains("score guard"), "{err}");
    }
}
