//! Content-addressed identities for recorded trials.
//!
//! A ledger key must be a pure function of the *point* an evaluation denotes,
//! never of the float fuzz the tuner happened to produce: `-0.0` and `0.0`
//! are the same learning rate, and a categorical batch size of
//! `64.0 - 1e-13` is the choice `64`. [`ConfigKey`] therefore stores the
//! `f64::to_bits` patterns of the configuration *after*
//! [`fedhpo::SearchSpace::canonicalize`] has normalised signed zeros,
//! rejected non-finite values, and snapped discrete dimensions to their
//! declared bits.

use crate::{Result, StoreError};
use fedhpo::{HpConfig, SearchSpace};
use std::sync::Arc;

/// The canonical bit-level identity of one hyperparameter configuration.
///
/// The bits live in one shared allocation: a record, the store's index key
/// for it and any caller's copy of that key are reference counts on the same
/// slice, so cloning a key never copies the configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigKey {
    bits: Arc<[u64]>,
}

impl ConfigKey {
    /// Canonicalizes `config` against `space` and keys it by the resulting
    /// bit patterns.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Hpo`] if the configuration has the wrong arity
    /// or any value is non-finite or outside its dimension.
    pub fn from_config(space: &SearchSpace, config: &HpConfig) -> Result<Self> {
        Ok(ConfigKey {
            bits: space.canonical_bits(config)?.into(),
        })
    }

    /// Keys already-canonical values (as stored in a ledger record), applying
    /// only the representation-level guards: signed zeros normalise and
    /// non-finite values are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] on non-finite values.
    pub fn from_canonical_values(values: &[f64]) -> Result<Self> {
        Self::from_canonical_iter(values.iter().copied())
    }

    /// [`ConfigKey::from_canonical_values`] over any re-startable sequence
    /// (the segment decoder reads the values straight out of a frame). One
    /// pass validates and a second fills the shared slice: slice-backed
    /// iterators carry a trusted length, so the collect is one allocation.
    pub(crate) fn from_canonical_iter(values: impl Iterator<Item = f64> + Clone) -> Result<Self> {
        if let Some(v) = values.clone().find(|v| !v.is_finite()) {
            return Err(StoreError::InvalidRecord {
                message: format!("configuration value {v} is not finite"),
            });
        }
        Ok(ConfigKey {
            bits: values.map(|v| (v + 0.0).to_bits()).collect(),
        })
    }

    /// The canonical bit patterns, in dimension order.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The canonical configuration values the bits encode.
    pub fn values(&self) -> Vec<f64> {
        self.bits.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// A stable 64-bit digest of the key: the shared
    /// [`fedhpo::space::fingerprint_bits`] definition, the same digest the
    /// live batch objective keys its randomness by (`fedserve`'s analytic
    /// objective keys its noise draws and latencies by it too).
    pub fn fingerprint(&self) -> u64 {
        fedhpo::space::fingerprint_bits(&self.bits)
    }
}

/// The full ledger key of one evaluation: which point, at which fidelity,
/// under which noise replicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrialKey {
    /// The canonical configuration identity.
    pub config: ConfigKey,
    /// Cumulative training rounds the configuration had received.
    pub resource: usize,
    /// Noise replicate index (`0` = the schedule's ordinary evaluation).
    pub rep: u64,
}

impl TrialKey {
    /// Builds the key for one scheduler request against `space`.
    ///
    /// # Errors
    ///
    /// See [`ConfigKey::from_config`].
    pub fn for_request(space: &SearchSpace, request: &fedhpo::TrialRequest) -> Result<Self> {
        Ok(TrialKey {
            config: ConfigKey::from_config(space, &request.config)?,
            resource: request.resource,
            rep: request.noise_rep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .with_uniform("u", -1.0, 1.0)
            .unwrap()
            .with_categorical("c", vec![32.0, 64.0])
            .unwrap()
    }

    #[test]
    fn keys_are_canonical_identities() {
        let space = space();
        let a = ConfigKey::from_config(&space, &HpConfig::new(vec![0.0, 64.0])).unwrap();
        let b = ConfigKey::from_config(&space, &HpConfig::new(vec![-0.0, 64.0 - 1e-13])).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.values(), vec![0.0, 64.0]);
        assert_eq!(a.bits().len(), 2);
        let c = ConfigKey::from_config(&space, &HpConfig::new(vec![0.5, 32.0])).unwrap();
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Rejections: wrong arity, out of range, non-finite.
        assert!(ConfigKey::from_config(&space, &HpConfig::new(vec![0.0])).is_err());
        assert!(ConfigKey::from_config(&space, &HpConfig::new(vec![2.0, 32.0])).is_err());
        assert!(ConfigKey::from_config(&space, &HpConfig::new(vec![f64::NAN, 32.0])).is_err());
    }

    #[test]
    fn canonical_value_keys_guard_representation() {
        let key = ConfigKey::from_canonical_values(&[-0.0, 1.5]).unwrap();
        assert_eq!(key.values()[0].to_bits(), 0.0f64.to_bits());
        assert!(ConfigKey::from_canonical_values(&[f64::INFINITY]).is_err());
        assert!(ConfigKey::from_canonical_values(&[f64::NAN]).is_err());
        // Round trip: values -> key -> values -> key is stable.
        let again = ConfigKey::from_canonical_values(&key.values()).unwrap();
        assert_eq!(key, again);
    }

    #[test]
    fn trial_keys_distinguish_fidelity_and_replicate() {
        let space = space();
        let request = |resource, noise_rep| fedhpo::TrialRequest {
            trial_id: 0,
            config: HpConfig::new(vec![0.25, 32.0]),
            resource,
            noise_rep,
        };
        let base = TrialKey::for_request(&space, &request(5, 0)).unwrap();
        let deeper = TrialKey::for_request(&space, &request(10, 0)).unwrap();
        let replicate = TrialKey::for_request(&space, &request(5, 1)).unwrap();
        assert_ne!(base, deeper);
        assert_ne!(base, replicate);
        assert_eq!(base.config, deeper.config);
        assert_eq!(base.config, replicate.config);
    }
}
