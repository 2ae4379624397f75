//! Grid search over the searchable dimensions of a space.

use crate::objective::Objective;
use crate::space::{Dimension, HpConfig, SearchSpace};
use crate::tuner::{EvaluationRecord, Tuner, TuningOutcome};
use crate::{HpoError, Result};
use rand::rngs::StdRng;

/// Classical grid search: discretise every searchable dimension into
/// `resolution` points (categoricals use all their choices, fixed dimensions
/// their single value) and evaluate the full Cartesian product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSearch {
    resolution: usize,
    rounds_per_config: usize,
}

impl GridSearch {
    /// Creates a grid-search tuner with the given per-dimension resolution.
    pub fn new(resolution: usize, rounds_per_config: usize) -> Self {
        GridSearch {
            resolution,
            rounds_per_config,
        }
    }

    /// Grid resolution for continuous dimensions.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    fn validate(&self, space: &SearchSpace) -> Result<()> {
        if self.resolution == 0 || self.rounds_per_config == 0 {
            return Err(HpoError::InvalidConfig {
                message: "grid search needs positive resolution and rounds_per_config".into(),
            });
        }
        if space.is_empty() {
            return Err(HpoError::InvalidConfig {
                message: "cannot grid-search an empty space".into(),
            });
        }
        Ok(())
    }

    /// The grid values along one dimension.
    fn dimension_grid(&self, dim: &Dimension) -> Vec<f64> {
        match dim {
            Dimension::Uniform { low, high } => linspace(*low, *high, self.resolution),
            Dimension::LogUniform { low, high } => {
                linspace(low.log10(), high.log10(), self.resolution)
                    .into_iter()
                    .map(|x| 10f64.powf(x))
                    .collect()
            }
            Dimension::Categorical { choices } => choices.clone(),
            Dimension::Fixed { value } => vec![*value],
        }
    }

    /// Enumerates the full grid of configurations.
    pub fn grid(&self, space: &SearchSpace) -> Vec<HpConfig> {
        let axes: Vec<Vec<f64>> = space
            .dimensions()
            .iter()
            .map(|d| self.dimension_grid(d))
            .collect();
        let mut configs = vec![Vec::new()];
        for axis in &axes {
            let mut next = Vec::with_capacity(configs.len() * axis.len());
            for partial in &configs {
                for &v in axis {
                    let mut extended = partial.clone();
                    extended.push(v);
                    next.push(extended);
                }
            }
            configs = next;
        }
        configs.into_iter().map(HpConfig::new).collect()
    }
}

fn linspace(low: f64, high: f64, points: usize) -> Vec<f64> {
    if points == 1 {
        return vec![(low + high) / 2.0];
    }
    (0..points)
        .map(|i| low + (high - low) * i as f64 / (points - 1) as f64)
        .collect()
}

impl Tuner for GridSearch {
    fn tune(
        &self,
        space: &SearchSpace,
        objective: &mut dyn Objective,
        _rng: &mut StdRng,
    ) -> Result<TuningOutcome> {
        self.validate(space)?;
        let mut outcome = TuningOutcome::default();
        let mut cumulative = 0usize;
        for (trial_id, config) in self.grid(space).into_iter().enumerate() {
            let score = objective.evaluate(trial_id, &config, self.rounds_per_config)?;
            cumulative += self.rounds_per_config;
            outcome.push(EvaluationRecord {
                trial_id,
                config,
                resource: self.rounds_per_config,
                score,
                cumulative_resource: cumulative,
                noise_rep: 0,
                sim_time: 0.0,
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FunctionObjective;
    use fedmath::rng::rng_for;

    #[test]
    fn linspace_endpoints() {
        assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
        assert_eq!(linspace(0.0, 2.0, 1), vec![1.0]);
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let space = SearchSpace::new()
            .with_uniform("x", 0.0, 1.0)
            .unwrap()
            .with_categorical("b", vec![32.0, 64.0])
            .unwrap()
            .with_fixed("f", 3.0)
            .unwrap();
        let grid = GridSearch::new(3, 1).grid(&space);
        assert_eq!(grid.len(), (3 * 2));
        for config in &grid {
            assert!(space.validate_config(config).is_ok());
            assert_eq!(config.values()[2], 3.0);
        }
    }

    #[test]
    fn log_dimension_grid_is_geometric() {
        let space = SearchSpace::new()
            .with_log_uniform("lr", 1e-4, 1e-2)
            .unwrap();
        let grid = GridSearch::new(3, 1).grid(&space);
        let values: Vec<f64> = grid.iter().map(|c| c.values()[0]).collect();
        assert!((values[0] - 1e-4).abs() < 1e-12);
        assert!((values[1] - 1e-3).abs() < 1e-9);
        assert!((values[2] - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn finds_minimum_on_grid() {
        let space = SearchSpace::new().with_uniform("x", -5.0, 5.0).unwrap();
        let mut obj = FunctionObjective::new(|c: &HpConfig, _| (c.values()[0] - 0.0).abs());
        let tuner = GridSearch::new(11, 2);
        let mut rng = rng_for(0, 0);
        let outcome = tuner.tune(&space, &mut obj, &mut rng).unwrap();
        assert_eq!(outcome.num_evaluations(), 11);
        assert_eq!(outcome.total_resource(), 22);
        assert!(outcome.best().unwrap().score < 1e-9);
        assert_eq!(tuner.resolution(), 11);
    }

    #[test]
    fn validation() {
        let space = SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap();
        let mut obj = FunctionObjective::new(|_: &HpConfig, _| 0.0);
        let mut rng = rng_for(0, 1);
        assert!(GridSearch::new(0, 1)
            .tune(&space, &mut obj, &mut rng)
            .is_err());
        assert!(GridSearch::new(1, 0)
            .tune(&space, &mut obj, &mut rng)
            .is_err());
        assert!(GridSearch::new(2, 1)
            .tune(&SearchSpace::new(), &mut obj, &mut rng)
            .is_err());
    }
}
