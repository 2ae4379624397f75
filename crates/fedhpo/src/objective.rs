//! The objective interface of the sequential reference loop
//! ([`run_scheduler`](crate::run_scheduler)); live campaigns implement
//! `fedtune_core`'s `ConcurrentObjective` instead.

use crate::space::HpConfig;
use crate::Result;

/// The function a tuning method minimises.
///
/// An objective evaluates one hyperparameter configuration after it has been
/// trained with a total of `resource` budget units (training rounds in the
/// federated setting). A schedule may evaluate the same `trial_id` several
/// times with increasing `resource` (early-stopping methods such as
/// Hyperband do); implementations are expected to resume training rather than
/// restart, and the driver accounts only the *incremental* resource.
///
/// Lower return values are better (the paper minimises validation error).
pub trait Objective {
    /// Evaluates `config` (identified by `trial_id`) at the given cumulative
    /// `resource` and returns the (possibly noisy) score to minimise.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HpoError::Objective`] if the evaluation fails.
    fn evaluate(&mut self, trial_id: usize, config: &HpConfig, resource: usize) -> Result<f64>;

    /// Evaluates with an explicit noise replicate index (`0` = the ordinary
    /// evaluation; `>= 1` = a fresh-noise re-evaluation at the same
    /// fidelity, as issued by the re-evaluation mitigation).
    ///
    /// The default forwards to [`evaluate`](Self::evaluate), which is correct
    /// for objectives whose noise is *stateful* (every call draws fresh).
    /// Objectives that derive their noise positionally must override this so
    /// distinct replicates yield independent draws — otherwise re-evaluation
    /// would silently average `reps` copies of the same draw.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HpoError::Objective`] if the evaluation fails.
    fn evaluate_rep(
        &mut self,
        trial_id: usize,
        config: &HpConfig,
        resource: usize,
        noise_rep: u64,
    ) -> Result<f64> {
        let _ = noise_rep;
        self.evaluate(trial_id, config, resource)
    }
}

/// Wraps a plain function or closure as an [`Objective`], for tests and for
/// tuning analytic benchmark functions.
pub struct FunctionObjective<F>
where
    F: FnMut(&HpConfig, usize) -> f64,
{
    function: F,
    calls: usize,
}

impl<F> FunctionObjective<F>
where
    F: FnMut(&HpConfig, usize) -> f64,
{
    /// Wraps `function(config, resource) -> score`.
    pub fn new(function: F) -> Self {
        FunctionObjective { function, calls: 0 }
    }

    /// Number of evaluations performed so far.
    pub fn calls(&self) -> usize {
        self.calls
    }
}

impl<F> Objective for FunctionObjective<F>
where
    F: FnMut(&HpConfig, usize) -> f64,
{
    fn evaluate(&mut self, _trial_id: usize, config: &HpConfig, resource: usize) -> Result<f64> {
        self.calls += 1;
        Ok((self.function)(config, resource))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_objective_counts_calls() {
        let mut obj = FunctionObjective::new(|config: &HpConfig, resource: usize| {
            config.values()[0] + resource as f64
        });
        assert_eq!(obj.calls(), 0);
        let v = obj.evaluate(0, &HpConfig::new(vec![1.5]), 2).unwrap();
        assert_eq!(v, 3.5);
        let v = obj.evaluate(1, &HpConfig::new(vec![-1.0]), 0).unwrap();
        assert_eq!(v, -1.0);
        assert_eq!(obj.calls(), 2);
    }

    #[test]
    fn objective_is_object_safe() {
        let mut obj = FunctionObjective::new(|_: &HpConfig, _| 0.0);
        let dyn_obj: &mut dyn Objective = &mut obj;
        assert_eq!(dyn_obj.evaluate(0, &HpConfig::new(vec![]), 1).unwrap(), 0.0);
    }
}
