//! Experiment scale presets.
//!
//! The paper's experiments take ~1000 GPU-hours. [`ExperimentScale`] lets the
//! same experiment code run at three sizes: `paper()` reproduces the paper's
//! raw budgets, `default_scale()` is the CPU-friendly reduction used by the
//! examples and the bench harness, and `smoke()` is a tiny configuration for
//! unit and integration tests.

use serde::{Deserialize, Serialize};

/// Budgets and trial counts for one experiment campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Scale at which the synthetic federated datasets are generated.
    pub data_scale: feddata::Scale,
    /// Size of the pre-trained configuration pool (128 in the paper).
    pub pool_size: usize,
    /// Number of configurations searched by RS/TPE (`K = 16` in the paper).
    pub num_configs: usize,
    /// Maximum training rounds per configuration (405 in the paper).
    pub rounds_per_config: usize,
    /// Total training-round budget per tuning run (6480 in the paper).
    pub total_budget: usize,
    /// Number of bootstrap trials for the RS-only analyses (100 in the paper).
    pub bootstrap_trials: usize,
    /// Number of independent trials for the method comparison (8 in the paper).
    pub method_trials: usize,
    /// Number of Hyperband/BOHB brackets (5 in the paper).
    pub num_brackets: usize,
    /// Hyperband elimination factor (η = 3 in the paper).
    pub eta: usize,
    /// Training clients sampled per round (10 in the paper).
    pub clients_per_round: usize,
}

impl ExperimentScale {
    /// The paper's budgets (Table 1/2 client counts, 128-config pools,
    /// 6480-round tuning runs). Only practical with generous compute.
    pub fn paper() -> Self {
        ExperimentScale {
            data_scale: feddata::Scale::Paper,
            pool_size: 128,
            num_configs: 16,
            rounds_per_config: 405,
            total_budget: 6480,
            bootstrap_trials: 100,
            method_trials: 8,
            num_brackets: 5,
            eta: 3,
            clients_per_round: 10,
        }
    }

    /// The CPU-friendly default: same structure, roughly an order of
    /// magnitude smaller budgets — what `examples/full_report` runs at.
    pub fn default_scale() -> Self {
        ExperimentScale {
            data_scale: feddata::Scale::Default,
            pool_size: 64,
            num_configs: 16,
            rounds_per_config: 40,
            total_budget: 640,
            bootstrap_trials: 100,
            method_trials: 4,
            num_brackets: 4,
            eta: 3,
            clients_per_round: 10,
        }
    }

    /// A tiny configuration for unit and integration tests and for the
    /// criterion benchmark harness (which repeats every measurement).
    pub fn smoke() -> Self {
        ExperimentScale {
            data_scale: feddata::Scale::Smoke,
            pool_size: 8,
            num_configs: 4,
            rounds_per_config: 6,
            total_budget: 24,
            bootstrap_trials: 20,
            method_trials: 2,
            num_brackets: 2,
            eta: 3,
            clients_per_round: 5,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] if any count is zero or the
    /// total budget cannot cover a single configuration.
    pub fn validate(&self) -> crate::Result<()> {
        let positive = [
            ("pool_size", self.pool_size),
            ("num_configs", self.num_configs),
            ("rounds_per_config", self.rounds_per_config),
            ("total_budget", self.total_budget),
            ("bootstrap_trials", self.bootstrap_trials),
            ("method_trials", self.method_trials),
            ("num_brackets", self.num_brackets),
            ("clients_per_round", self.clients_per_round),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(crate::CoreError::InvalidConfig {
                    message: format!("{name} must be positive"),
                });
            }
        }
        if self.eta < 2 {
            return Err(crate::CoreError::InvalidConfig {
                message: format!("eta must be at least 2, got {}", self.eta),
            });
        }
        if self.total_budget < self.rounds_per_config {
            return Err(crate::CoreError::InvalidConfig {
                message: format!(
                    "total budget {} cannot cover a single configuration of {} rounds",
                    self.total_budget, self.rounds_per_config
                ),
            });
        }
        Ok(())
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(ExperimentScale::paper().validate().is_ok());
        assert!(ExperimentScale::default_scale().validate().is_ok());
        assert!(ExperimentScale::smoke().validate().is_ok());
        assert_eq!(ExperimentScale::default(), ExperimentScale::default_scale());
    }

    #[test]
    fn paper_scale_matches_paper_numbers() {
        let s = ExperimentScale::paper();
        assert_eq!(s.pool_size, 128);
        assert_eq!(s.num_configs, 16);
        assert_eq!(s.rounds_per_config, 405);
        assert_eq!(s.total_budget, 6480);
        assert_eq!(s.num_brackets, 5);
        assert_eq!(s.eta, 3);
        assert_eq!(s.clients_per_round, 10);
        assert_eq!(s.method_trials, 8);
        assert_eq!(s.bootstrap_trials, 100);
        // K configurations at max rounds exactly exhaust the budget.
        assert_eq!(s.num_configs * s.rounds_per_config, s.total_budget);
    }

    #[test]
    fn default_scale_keeps_budget_relationship() {
        let s = ExperimentScale::default_scale();
        assert_eq!(s.num_configs * s.rounds_per_config, s.total_budget);
    }

    #[test]
    fn validation_rejects_broken_scales() {
        let mut s = ExperimentScale::smoke();
        s.pool_size = 0;
        assert!(s.validate().is_err());
        let mut s = ExperimentScale::smoke();
        s.eta = 1;
        assert!(s.validate().is_err());
        let mut s = ExperimentScale::smoke();
        s.total_budget = s.rounds_per_config - 1;
        assert!(s.validate().is_err());
    }
}
