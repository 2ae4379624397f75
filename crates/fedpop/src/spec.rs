//! Population specifications: an implicit description of `N` clients.
//!
//! Where `feddata::DatasetSpec` eagerly generates every client it describes,
//! a [`PopulationSpec`] only *defines* the distribution clients are drawn
//! from; materialization happens client by client in
//! [`crate::SyntheticPopulation`]. The spec reuses the task-family generator
//! configurations and client-size distributions of `feddata`, and adds the
//! one piece eager datasets never needed: an [`AvailabilityModel`] gating
//! which clients can participate at a given simulated time.

use crate::{PopError, Result};
use feddata::spec::{ClientSizes, TaskConfig};
use feddata::{Benchmark, DatasetSpec, Scale, Task};
use fedmath::SeedTree;

/// When clients are reachable, as a function of simulated time
/// (`fedsim::clock` seconds).
///
/// Cross-device clients charge overnight and disappear during the day; the
/// paper's production framing ("millions of users") makes participation a
/// diurnal, per-client property. Each client draws a persistent phase
/// offset positionally (a pure function of the availability seed and the
/// client id), so availability is deterministic, O(1) to query, and needs no
/// per-client state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AvailabilityModel {
    /// Every client is always reachable (the eager-dataset behaviour).
    Always,
    /// Each client is reachable during a fixed daily window: client `i` is
    /// available at time `t` iff `fract(t / day_seconds + phase_i) <
    /// window_fraction`, with `phase_i` drawn uniformly per client.
    Diurnal {
        /// Length of a simulated day in seconds (86 400 for wall-clock days).
        day_seconds: f64,
        /// Fraction of each day a client is reachable, in `(0, 1]`.
        window_fraction: f64,
    },
}

impl AvailabilityModel {
    /// A 24-hour day with the given availability fraction.
    pub fn diurnal(window_fraction: f64) -> Self {
        AvailabilityModel::Diurnal {
            day_seconds: 86_400.0,
            window_fraction,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::InvalidSpec`] for a non-positive day length or a
    /// window fraction outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        match *self {
            AvailabilityModel::Always => Ok(()),
            AvailabilityModel::Diurnal {
                day_seconds,
                window_fraction,
            } => {
                if !day_seconds.is_finite() || day_seconds <= 0.0 {
                    return Err(PopError::InvalidSpec {
                        message: format!("day length must be positive, got {day_seconds}"),
                    });
                }
                if !window_fraction.is_finite()
                    || !(0.0..=1.0).contains(&window_fraction)
                    || window_fraction == 0.0
                {
                    return Err(PopError::InvalidSpec {
                        message: format!(
                            "window fraction must be in (0, 1], got {window_fraction}"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Whether client `id` is reachable at simulated time `sim_time`, given
    /// the population's availability seed tree. Pure in `(tree, id,
    /// sim_time)`; negative or non-finite times count as "campaign start"
    /// (time zero).
    pub fn available(&self, tree: &SeedTree, id: u64, sim_time: f64) -> bool {
        match *self {
            AvailabilityModel::Always => true,
            AvailabilityModel::Diurnal {
                day_seconds,
                window_fraction,
            } => {
                let phase: f64 = rand::Rng::gen(&mut tree.child(id).rng());
                let t = if sim_time.is_finite() && sim_time > 0.0 {
                    sim_time
                } else {
                    0.0
                };
                let local = (t / day_seconds + phase).fract();
                local < window_fraction
            }
        }
    }
}

/// An implicit description of a client population: `N`, the per-client size
/// distribution, the task-family generator, and the availability model.
/// Together with a root seed this defines every client deterministically;
/// nothing is materialized until a cohort asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Population name used in reports.
    pub name: String,
    /// Number of clients in the population (`N`).
    pub num_clients: u64,
    /// Distribution of per-client example counts (drawn positionally).
    pub client_sizes: ClientSizes,
    /// Task-specific generator parameters (shared world structure).
    pub task: TaskConfig,
    /// When clients are reachable in simulated time.
    pub availability: AvailabilityModel,
}

impl PopulationSpec {
    /// A population preset reusing one of the paper's four benchmark
    /// generator configurations (at the CPU-friendly default scale's
    /// heterogeneity structure) scaled out to `num_clients` clients, always
    /// available.
    pub fn benchmark(benchmark: Benchmark, num_clients: u64) -> Self {
        let dataset = DatasetSpec::benchmark(benchmark, Scale::Default);
        PopulationSpec {
            name: format!("{}-population", dataset.name),
            num_clients,
            client_sizes: dataset.client_sizes,
            task: dataset.task,
            availability: AvailabilityModel::Always,
        }
    }

    /// Validates every component of the spec.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::InvalidSpec`] for a zero-client population or
    /// invalid size/availability parameters.
    pub fn validate(&self) -> Result<()> {
        if self.num_clients == 0 {
            return Err(PopError::InvalidSpec {
                message: "population must have at least one client".into(),
            });
        }
        self.client_sizes.validate()?;
        self.availability.validate()
    }

    /// Task family of this population.
    pub fn task_kind(&self) -> Task {
        match self.task {
            TaskConfig::Classification(_) => Task::DenseClassification,
            TaskConfig::Language(_) => Task::NextTokenPrediction,
        }
    }

    /// Number of output classes (or vocabulary size).
    pub fn num_classes(&self) -> usize {
        match &self.task {
            TaskConfig::Classification(c) => c.num_classes,
            TaskConfig::Language(l) => l.vocab_size,
        }
    }

    /// Input dimensionality (dense feature dim, or vocabulary size).
    pub fn input_dim(&self) -> usize {
        match &self.task {
            TaskConfig::Classification(c) => c.feature_dim,
            TaskConfig::Language(l) => l.vocab_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_presets_scale_to_any_population_size() {
        for &b in &Benchmark::ALL {
            let spec = PopulationSpec::benchmark(b, 1_000_000);
            assert_eq!(spec.num_clients, 1_000_000);
            assert!(spec.validate().is_ok());
            assert_eq!(spec.task_kind(), b.task());
            assert!(spec.num_classes() >= 2);
            assert!(spec.input_dim() >= 1);
            assert!(spec.name.contains("population"));
        }
    }

    #[test]
    fn spec_validation_rejects_degenerate_populations() {
        let mut spec = PopulationSpec::benchmark(Benchmark::Cifar10Like, 10);
        spec.num_clients = 0;
        assert!(spec.validate().is_err());
        let mut spec = PopulationSpec::benchmark(Benchmark::Cifar10Like, 10);
        spec.client_sizes = ClientSizes::Uniform { low: 5, high: 3 };
        assert!(spec.validate().is_err());
        for availability in [
            AvailabilityModel::Diurnal {
                day_seconds: 0.0,
                window_fraction: 0.5,
            },
            AvailabilityModel::diurnal(0.0),
            AvailabilityModel::diurnal(1.5),
        ] {
            let mut spec = PopulationSpec::benchmark(Benchmark::Cifar10Like, 10);
            spec.availability = availability;
            assert!(spec.validate().is_err());
        }
    }

    #[test]
    fn diurnal_availability_is_positional_and_periodic() {
        let model = AvailabilityModel::diurnal(0.4);
        let tree = SeedTree::new(7);
        for id in 0..50u64 {
            let now = model.available(&tree, id, 1_000.0);
            // Same coordinates, same answer — regardless of other queries.
            assert_eq!(model.available(&tree, id, 1_000.0), now);
            // One full day later the window is in the same place.
            assert_eq!(model.available(&tree, id, 1_000.0 + 86_400.0), now);
        }
        // Negative / non-finite times behave like campaign start.
        assert_eq!(
            model.available(&tree, 3, -5.0),
            model.available(&tree, 3, 0.0)
        );
        assert_eq!(
            model.available(&tree, 3, f64::NAN),
            model.available(&tree, 3, 0.0)
        );
    }

    #[test]
    fn diurnal_coverage_matches_window_fraction() {
        let model = AvailabilityModel::diurnal(0.3);
        let tree = SeedTree::new(11);
        let population = 4_000u64;
        let available = (0..population)
            .filter(|&id| model.available(&tree, id, 40_000.0))
            .count();
        let fraction = available as f64 / population as f64;
        assert!(
            (fraction - 0.3).abs() < 0.05,
            "expected ~30% available, got {fraction}"
        );
        assert!(AvailabilityModel::Always.available(&tree, 0, 0.0));
    }
}
