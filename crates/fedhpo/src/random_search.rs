//! Random search (Algorithm 1/2 of the paper).

use crate::scheduler::{Scheduler, TrialRequest, TrialResult};
use crate::space::SearchSpace;
use crate::{HpoError, Result};
use rand::rngs::StdRng;

/// Random search: sample `num_configs` configurations uniformly from the
/// space, train each for `rounds_per_config` budget units, evaluate once, and
/// select the best.
///
/// All configurations are independent, so the entire schedule is a *single
/// batch* — under a parallel batch driver every trial trains concurrently.
/// In the paper RS searches `K = 16` configurations with up to 405 rounds
/// each (6480 rounds total).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    num_configs: usize,
    rounds_per_config: usize,
    suggested: bool,
    reported: usize,
}

impl RandomSearch {
    /// A fresh random-search campaign.
    ///
    /// # Errors
    ///
    /// Returns [`HpoError::InvalidConfig`] unless both counts are positive.
    pub fn new(num_configs: usize, rounds_per_config: usize) -> Result<Self> {
        if num_configs == 0 || rounds_per_config == 0 {
            return Err(HpoError::InvalidConfig {
                message: "random search needs positive num_configs and rounds_per_config".into(),
            });
        }
        Ok(RandomSearch {
            num_configs,
            rounds_per_config,
            suggested: false,
            reported: 0,
        })
    }
}

impl Scheduler for RandomSearch {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        if self.suggested {
            return Ok(Vec::new());
        }
        self.suggested = true;
        (0..self.num_configs)
            .map(|trial_id| {
                Ok(TrialRequest {
                    trial_id,
                    config: space.sample(rng)?,
                    resource: self.rounds_per_config,
                    noise_rep: 0,
                })
            })
            .collect()
    }

    fn report(&mut self, _result: &TrialResult) -> Result<()> {
        self.reported += 1;
        Ok(())
    }

    fn is_finished(&self) -> bool {
        self.suggested && self.reported >= self.num_configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::run_fresh;
    use fedmath::rng::rng_for;

    fn quadratic_space() -> SearchSpace {
        SearchSpace::new()
            .with_uniform("x", -10.0, 10.0)
            .unwrap()
            .with_uniform("y", -10.0, 10.0)
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(RandomSearch::new(0, 1).is_err());
        assert!(RandomSearch::new(1, 0).is_err());
        let rs = RandomSearch::new(16, 405).unwrap();
        assert_eq!((rs.num_configs, rs.rounds_per_config), (16, 405));
        assert_eq!(rs.name(), "rs");
    }

    #[test]
    fn finds_a_reasonable_minimum_of_a_quadratic() {
        let space = quadratic_space();
        let mut calls = 0;
        let quadratic = |config: &crate::HpConfig, _| {
            calls += 1;
            let x = config.values()[0];
            let y = config.values()[1];
            (x - 2.0).powi(2) + (y + 3.0).powi(2)
        };
        let mut rng = rng_for(1, 0);
        let outcome = run_fresh(
            RandomSearch::new(200, 1).unwrap(),
            &space,
            quadratic,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.num_evaluations(), 200);
        assert_eq!(calls, 200);
        let best = outcome.best().unwrap();
        assert!(
            best.score < 2.0,
            "best score {} too far from optimum",
            best.score
        );
    }

    #[test]
    fn budget_accounting_is_linear() {
        let space = quadratic_space();
        let mut rng = rng_for(2, 0);
        let outcome = run_fresh(
            RandomSearch::new(8, 5).unwrap(),
            &space,
            |_, _| 1.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.total_resource(), 40);
        for (i, record) in outcome.records().iter().enumerate() {
            assert_eq!(record.trial_id, i);
            assert_eq!(record.resource, 5);
            assert_eq!(record.cumulative_resource, (i + 1) * 5);
        }
    }

    #[test]
    fn scheduler_suggests_one_full_batch() {
        let space = quadratic_space();
        let mut scheduler = RandomSearch::new(6, 3).unwrap();
        let mut rng = rng_for(4, 0);
        assert!(!scheduler.is_finished());
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        assert_eq!(batch.len(), 6);
        for (i, request) in batch.iter().enumerate() {
            assert_eq!(request.trial_id, i);
            assert_eq!(request.resource, 3);
            assert_eq!(request.noise_rep, 0);
        }
        // Nothing more to suggest; finishes once everything is reported.
        assert!(scheduler.suggest(&space, &mut rng).unwrap().is_empty());
        for request in &batch {
            assert!(!scheduler.is_finished());
            scheduler.report(&TrialResult::of(request, 1.0)).unwrap();
        }
        assert!(scheduler.is_finished());
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let space = quadratic_space();
        let tuner = RandomSearch::new(10, 1).unwrap();
        let run = |seed: u64| {
            let mut rng = rng_for(seed, 0);
            run_fresh(tuner.clone(), &space, |c, _| c.values()[0], &mut rng).unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).best().unwrap().score, run(8).best().unwrap().score);
    }
}
