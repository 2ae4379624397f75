//! Server-side optimizers (`ServerOPT` in Algorithm 2).
//!
//! All optimizers consume the *average client delta* for the round
//! (`Δ = mean_i(w'_i) - w`) and update the global parameters. FedAdam is the
//! optimizer used throughout the paper's experiments; FedAvg and FedSgd are
//! provided as ablation baselines (`bench/abl_server_optimizers`).

use crate::hyperparams::FedAdamConfig;
use crate::{Result, SimError};

/// A server optimizer: consumes one aggregated model delta per round and
/// updates the global model parameters in place.
pub trait ServerOptimizer: Send {
    /// Applies one round's aggregated delta to `params`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `delta.len() != params.len()`.
    fn apply(&mut self, params: &mut [f64], delta: &[f64]) -> Result<()>;

    /// Human-readable optimizer name.
    fn name(&self) -> &'static str;

    /// Resets any internal state (moment estimates, round counters).
    fn reset(&mut self);
}

fn check_lengths(params: &[f64], delta: &[f64]) -> Result<()> {
    if params.len() != delta.len() {
        return Err(SimError::InvalidConfig {
            message: format!(
                "delta length {} does not match parameter length {}",
                delta.len(),
                params.len()
            ),
        });
    }
    Ok(())
}

/// Plain federated averaging: the global model moves exactly to the average
/// of the client models (`w ← w + Δ`).
#[derive(Debug, Clone, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Creates a FedAvg optimizer.
    pub fn new() -> Self {
        FedAvg
    }
}

impl ServerOptimizer for FedAvg {
    fn apply(&mut self, params: &mut [f64], delta: &[f64]) -> Result<()> {
        check_lengths(params, delta)?;
        for (p, d) in params.iter_mut().zip(delta.iter()) {
            *p += d;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn reset(&mut self) {}
}

/// Server SGD with momentum on the aggregated delta (FedAvgM).
#[derive(Debug, Clone)]
pub struct FedSgd {
    learning_rate: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

impl FedSgd {
    /// Creates a server SGD optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `learning_rate <= 0` or
    /// `momentum` is outside `[0, 1)`.
    pub fn new(learning_rate: f64, momentum: f64) -> Result<Self> {
        if learning_rate <= 0.0 || !learning_rate.is_finite() {
            return Err(SimError::InvalidConfig {
                message: format!("server learning rate must be positive, got {learning_rate}"),
            });
        }
        if !(0.0..1.0).contains(&momentum) {
            return Err(SimError::InvalidConfig {
                message: format!("server momentum must be in [0, 1), got {momentum}"),
            });
        }
        Ok(FedSgd {
            learning_rate,
            momentum,
            velocity: Vec::new(),
        })
    }
}

impl ServerOptimizer for FedSgd {
    fn apply(&mut self, params: &mut [f64], delta: &[f64]) -> Result<()> {
        check_lengths(params, delta)?;
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, v), &d) in params.iter_mut().zip(&mut self.velocity).zip(delta) {
            *v = self.momentum * *v + d;
            *p += self.learning_rate * *v;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "fedsgd"
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

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

    /// The optimizer configuration.
    pub fn config(&self) -> &FedAdamConfig {
        &self.config
    }

    /// The learning rate that will be used for the next round, after decay.
    pub fn current_learning_rate(&self) -> f64 {
        self.config.learning_rate * self.config.lr_decay.powi(self.round as i32)
    }
}

impl ServerOptimizer for FedAdam {
    fn apply(&mut self, params: &mut [f64], delta: &[f64]) -> Result<()> {
        check_lengths(params, delta)?;
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

    fn name(&self) -> &'static str {
        "fedadam"
    }

    fn reset(&mut self) {
        self.first_moment.clear();
        self.second_moment.clear();
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_moves_to_average() {
        let mut opt = FedAvg::new();
        let mut params = vec![1.0, 2.0];
        opt.apply(&mut params, &[0.5, -1.0]).unwrap();
        assert_eq!(params, vec![1.5, 1.0]);
        assert_eq!(opt.name(), "fedavg");
        opt.reset();
        assert!(opt.apply(&mut params, &[0.0]).is_err());
    }

    #[test]
    fn fedsgd_validation_and_momentum() {
        assert!(FedSgd::new(0.0, 0.0).is_err());
        assert!(FedSgd::new(1.0, 1.0).is_err());
        let mut opt = FedSgd::new(1.0, 0.5).unwrap();
        let mut params = vec![0.0];
        opt.apply(&mut params, &[1.0]).unwrap();
        assert_eq!(params, vec![1.0]);
        // Velocity carries over: v = 0.5*1 + 1 = 1.5.
        opt.apply(&mut params, &[1.0]).unwrap();
        assert!((params[0] - 2.5).abs() < 1e-12);
        opt.reset();
        opt.apply(&mut params, &[1.0]).unwrap();
        assert!((params[0] - 3.5).abs() < 1e-12);
        assert_eq!(opt.name(), "fedsgd");
    }

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
        assert_eq!(opt.name(), "fedadam");
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
        opt.reset();
        assert_eq!(opt.current_learning_rate(), 1.0);
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
