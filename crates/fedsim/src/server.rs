//! The server-side optimizer (`ServerOPT` in Algorithm 2): FedAdam, the
//! optimizer used throughout the paper's experiments. It consumes the
//! *average client delta* for the round (`Δ = mean_i(w'_i) - w`) and
//! updates the global parameters.

use crate::hyperparams::FedAdamConfig;
use crate::{Result, SimError};

/// FedAdam (Reddi et al. 2020): Adam on the aggregated delta, with the
/// per-round multiplicative learning-rate decay used by the paper.
#[derive(Debug, Clone)]
pub struct FedAdam {
    config: FedAdamConfig,
    first_moment: Vec<f64>,
    second_moment: Vec<f64>,
    round: usize,
}

impl FedAdam {
    /// Creates a FedAdam optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: FedAdamConfig) -> Result<Self> {
        config.validate()?;
        Ok(FedAdam {
            config,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
            round: 0,
        })
    }

    /// The learning rate that will be used for the next round, after decay.
    pub fn current_learning_rate(&self) -> f64 {
        self.config.learning_rate * self.config.lr_decay.powi(self.round as i32)
    }

    /// Applies one round's aggregated delta to `params`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `delta.len() != params.len()`.
    pub fn apply(&mut self, params: &mut [f64], delta: &[f64]) -> Result<()> {
        if params.len() != delta.len() {
            return Err(SimError::InvalidConfig {
                message: format!(
                    "delta length {} does not match parameter length {}",
                    delta.len(),
                    params.len()
                ),
            });
        }
        if self.first_moment.len() != params.len() {
            self.first_moment = vec![0.0; params.len()];
            self.second_moment = vec![0.0; params.len()];
        }
        let lr = self.current_learning_rate();
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let eps = self.config.epsilon;
        for (((p, m), s), &d) in params
            .iter_mut()
            .zip(&mut self.first_moment)
            .zip(&mut self.second_moment)
            .zip(delta)
        {
            *m = b1 * *m + (1.0 - b1) * d;
            *s = b2 * *s + (1.0 - b2) * d * d;
            *p += lr * *m / (s.sqrt() + eps);
        }
        self.round += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedadam_steps_towards_delta_direction() {
        let mut opt = FedAdam::new(FedAdamConfig {
            learning_rate: 0.1,
            beta1: 0.0,
            beta2: 0.0,
            lr_decay: 1.0,
            epsilon: 1e-8,
        })
        .unwrap();
        let mut params = vec![0.0, 0.0];
        opt.apply(&mut params, &[1.0, -2.0]).unwrap();
        // With beta1 = beta2 = 0 the update is lr * sign(delta) (roughly).
        assert!((params[0] - 0.1).abs() < 1e-6);
        assert!((params[1] + 0.1).abs() < 1e-6);
    }

    #[test]
    fn fedadam_learning_rate_decays() {
        let mut opt = FedAdam::new(FedAdamConfig {
            learning_rate: 1.0,
            lr_decay: 0.5,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(opt.current_learning_rate(), 1.0);
        let mut params = vec![0.0];
        opt.apply(&mut params, &[1.0]).unwrap();
        assert_eq!(opt.current_learning_rate(), 0.5);
        opt.apply(&mut params, &[1.0]).unwrap();
        assert_eq!(opt.current_learning_rate(), 0.25);
    }

    #[test]
    fn fedadam_rejects_invalid_config() {
        assert!(FedAdam::new(FedAdamConfig {
            beta1: 2.0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn fedadam_handles_length_mismatch() {
        let mut opt = FedAdam::new(FedAdamConfig::default()).unwrap();
        let mut params = vec![0.0, 0.0];
        assert!(opt.apply(&mut params, &[1.0]).is_err());
    }

    #[test]
    fn fedadam_larger_lr_moves_further() {
        let delta = vec![0.3, -0.7, 0.1];
        let run = |lr: f64| {
            let mut opt = FedAdam::new(FedAdamConfig {
                learning_rate: lr,
                ..Default::default()
            })
            .unwrap();
            let mut params = vec![0.0; 3];
            for _ in 0..5 {
                opt.apply(&mut params, &delta).unwrap();
            }
            params.iter().map(|p| p.abs()).sum::<f64>()
        };
        assert!(run(0.1) > run(0.001));
    }
}
