//! Random search (Algorithm 1/2 of the paper).

use crate::scheduler::{IntoScheduler, Scheduler, TrialRequest, TrialResult};
use crate::space::SearchSpace;
use crate::{HpoError, Result};
use rand::rngs::StdRng;

/// Random search: sample `num_configs` configurations uniformly from the
/// space, train each for `rounds_per_config` budget units, evaluate once, and
/// select the best.
///
/// In the paper RS searches `K = 16` configurations with up to 405 rounds
/// each (6480 rounds total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSearch {
    num_configs: usize,
    rounds_per_config: usize,
}

impl RandomSearch {
    /// Creates a random-search tuner.
    pub fn new(num_configs: usize, rounds_per_config: usize) -> Self {
        RandomSearch {
            num_configs,
            rounds_per_config,
        }
    }

    /// The paper's configuration: `K = 16` configurations at
    /// `max_rounds` rounds each.
    pub fn paper_default(max_rounds: usize) -> Self {
        RandomSearch::new(16, max_rounds)
    }

    /// Number of configurations searched.
    pub fn num_configs(&self) -> usize {
        self.num_configs
    }

    /// Training rounds allocated to each configuration.
    pub fn rounds_per_config(&self) -> usize {
        self.rounds_per_config
    }

    fn validate(&self) -> Result<()> {
        if self.num_configs == 0 || self.rounds_per_config == 0 {
            return Err(HpoError::InvalidConfig {
                message: "random search needs positive num_configs and rounds_per_config".into(),
            });
        }
        Ok(())
    }
}

impl IntoScheduler for RandomSearch {
    type Scheduler = RandomSearchScheduler;

    fn scheduler(&self) -> Result<RandomSearchScheduler> {
        self.validate()?;
        Ok(RandomSearchScheduler {
            params: *self,
            suggested: false,
            reported: 0,
        })
    }
}

/// Ask/tell state of a random-search campaign. All configurations are
/// independent, so the entire schedule is a *single batch* — under a parallel
/// batch driver every trial trains concurrently.
#[derive(Debug, Clone)]
pub struct RandomSearchScheduler {
    params: RandomSearch,
    suggested: bool,
    reported: usize,
}

impl Scheduler for RandomSearchScheduler {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn suggest(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Result<Vec<TrialRequest>> {
        if self.suggested {
            return Ok(Vec::new());
        }
        self.suggested = true;
        (0..self.params.num_configs)
            .map(|trial_id| {
                Ok(TrialRequest {
                    trial_id,
                    config: space.sample(rng)?,
                    resource: self.params.rounds_per_config,
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
        self.suggested && self.reported >= self.params.num_configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::run_fresh;
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
        let space = quadratic_space();
        let mut rng = rng_for(0, 0);
        let zero = |_: &crate::HpConfig, _| 0.0;
        assert!(run_fresh(&RandomSearch::new(0, 1), &space, zero, &mut rng).is_err());
        assert!(run_fresh(&RandomSearch::new(1, 0), &space, zero, &mut rng).is_err());
        assert_eq!(RandomSearch::paper_default(405).num_configs(), 16);
        assert_eq!(RandomSearch::paper_default(405).rounds_per_config(), 405);
        assert_eq!(RandomSearch::new(4, 2).scheduler().unwrap().name(), "rs");
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
        let tuner = RandomSearch::new(200, 1);
        let mut rng = rng_for(1, 0);
        let outcome = run_fresh(&tuner, &space, quadratic, &mut rng).unwrap();
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
        let tuner = RandomSearch::new(8, 5);
        let mut rng = rng_for(2, 0);
        let outcome = run_fresh(&tuner, &space, |_, _| 1.0, &mut rng).unwrap();
        assert_eq!(outcome.total_resource(), 40);
        for (i, record) in outcome.records().iter().enumerate() {
            assert_eq!(record.trial_id, i);
            assert_eq!(record.resource, 5);
            assert_eq!(record.cumulative_resource, (i + 1) * 5);
        }
    }

    #[test]
    fn scheduler_suggests_one_full_batch() {
        use crate::scheduler::{IntoScheduler, Scheduler, TrialResult};
        let space = quadratic_space();
        let mut scheduler = RandomSearch::new(6, 3).scheduler().unwrap();
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
        assert!(RandomSearch::new(0, 1).scheduler().is_err());
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let space = quadratic_space();
        let tuner = RandomSearch::new(10, 1);
        let run = |seed: u64| {
            let mut rng = rng_for(seed, 0);
            run_fresh(&tuner, &space, |c, _| c.values()[0], &mut rng).unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).best().unwrap().score, run(8).best().unwrap().score);
    }
}
