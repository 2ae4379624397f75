//! Lazy virtual client populations.
//!
//! The paper's dominant evaluation-noise source is **client subsampling**:
//! a configuration is scored on a small cohort drawn from a much larger
//! population. Real cross-device populations are defined *distributionally*
//! — any one client can be synthesized on demand — so this crate represents
//! a population of `N` clients implicitly by a [`PopulationSpec`] plus a
//! root seed. Client `i` is materialized as a **pure function of
//! `(population seed, i)`** via `fedmath::SeedTree`, which keeps memory at
//! O(cohort) regardless of `N`: a tuning campaign over a million-client
//! population resides only the cohort it is currently training plus a
//! bounded [`ClientCache`].
//!
//! The pieces:
//!
//! - [`Population`] — the trait: on-demand [`Population::materialize`], or
//!   [`Population::materialize_into`] an existing shard's storage, over
//!   `fedsim`'s [`ClientFrame`] (population size and per-client O(1)
//!   metadata: size, availability).
//! - [`SyntheticPopulation`] — the implementation backed by the `feddata`
//!   generators, refactored so one client's shard generates positionally
//!   without building the whole dataset.
//! - [`CohortSampler`] — `fedsim`'s one cohort draw, re-exported: uniform,
//!   size-weighted (rejection sampling against the O(1) size bound), and
//!   diurnal availability windows keyed to `fedsim::clock` simulated time.
//! - [`ClientCache`] — a bounded cache with hit/miss/eviction accounting for
//!   repeated sampling across rounds, which generates a miss into the
//!   storage of the client it evicts; [`CachedPopulation`] adapts a
//!   population + cache into `fedsim::CohortSource` so
//!   `TrainingRun::run_cohort_round` can train against it.
//! - [`train_on_population`] — the round loop: sample cohort ids →
//!   materialize → train → drop, advancing a virtual clock so availability
//!   windows move with simulated time.
//! - [`stride_probe_ids`] — an even-stride probe of client ids, the
//!   reference set scored without materializing the rest of the population.
//!
//! # Example
//!
//! ```
//! use fedpop::{ClientFrame, Population, PopulationSpec, SyntheticPopulation};
//!
//! // A million-client population occupies a few hundred bytes until sampled.
//! let spec = PopulationSpec::benchmark(feddata::Benchmark::RedditLike, 1_000_000);
//! let population = SyntheticPopulation::new(spec, 42).unwrap();
//! assert_eq!(population.num_clients(), 1_000_000);
//! let client = population.materialize(917_529).unwrap();
//! assert!(client.num_examples() >= 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod population;
pub mod spec;
pub mod summary;
pub mod training;

pub use cache::{CacheStats, CachedPopulation, ClientCache};
pub use fedsim::{ClientFrame, CohortSampler};
pub use population::{Population, SyntheticPopulation};
pub use spec::{AvailabilityModel, PopulationSpec};
pub use summary::stride_probe_ids;
pub use training::{train_on_population, PopulationTrainingReport};

use std::fmt;

/// Errors produced by the population substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PopError {
    /// A population or sampler configuration was invalid.
    InvalidSpec {
        /// Description of the violation.
        message: String,
    },
    /// A client id outside `0..num_clients` was referenced.
    ClientOutOfRange {
        /// The offending id.
        id: u64,
        /// The population size.
        population: u64,
    },
    /// An underlying data-generation operation failed.
    Data(feddata::DataError),
    /// An underlying simulator operation (training round) failed.
    Sim(fedsim::SimError),
    /// An underlying numerical routine failed.
    Math(fedmath::MathError),
}

impl fmt::Display for PopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopError::InvalidSpec { message } => write!(f, "invalid population spec: {message}"),
            PopError::ClientOutOfRange { id, population } => {
                write!(
                    f,
                    "client id {id} out of range for population of {population}"
                )
            }
            PopError::Data(e) => write!(f, "data error: {e}"),
            PopError::Sim(e) => write!(f, "simulation error: {e}"),
            PopError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for PopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PopError::Data(e) => Some(e),
            PopError::Sim(e) => Some(e),
            PopError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<feddata::DataError> for PopError {
    fn from(e: feddata::DataError) -> Self {
        PopError::Data(e)
    }
}

impl From<fedmath::MathError> for PopError {
    fn from(e: fedmath::MathError) -> Self {
        PopError::Math(e)
    }
}

impl From<fedsim::SimError> for PopError {
    fn from(e: fedsim::SimError) -> Self {
        PopError::Sim(e)
    }
}

impl From<PopError> for fedsim::SimError {
    fn from(e: PopError) -> Self {
        match e {
            PopError::Data(d) => fedsim::SimError::Data(d),
            PopError::Sim(s) => s,
            PopError::Math(m) => fedsim::SimError::Math(m),
            other => fedsim::SimError::InvalidConfig {
                message: other.to_string(),
            },
        }
    }
}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, PopError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_sources() {
        let e = PopError::InvalidSpec {
            message: "zero clients".into(),
        };
        assert!(e.to_string().contains("zero clients"));
        assert!(e.source().is_none());
        let e = PopError::ClientOutOfRange {
            id: 5,
            population: 3,
        };
        assert!(e.to_string().contains('5'));
        let e: PopError = feddata::DataError::InvalidSpec {
            message: "x".into(),
        }
        .into();
        assert!(e.source().is_some());
        let e: PopError = fedmath::MathError::EmptyInput { what: "mean" }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn pop_errors_convert_to_sim_errors() {
        let data: fedsim::SimError = PopError::Data(feddata::DataError::InvalidSpec {
            message: "x".into(),
        })
        .into();
        assert!(matches!(data, fedsim::SimError::Data(_)));
        let range: fedsim::SimError = PopError::ClientOutOfRange {
            id: 1,
            population: 0,
        }
        .into();
        assert!(matches!(range, fedsim::SimError::InvalidConfig { .. }));
    }
}
