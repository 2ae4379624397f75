//! BOHB: Hyperband with TPE-guided configuration sampling
//! (Falkner, Klein & Hutter 2018).
//!
//! BOHB keeps Hyperband's bracket structure but replaces its uniform random
//! sampling of new configurations with proposals from a TPE model fitted on
//! the observations gathered so far. Following the original method, the model
//! is fitted on the *highest fidelity* (largest resource) that has collected
//! enough observations, and falls back to random sampling early on.

use crate::hyperband::{BracketScheduler, Hyperband, Proposer};
use crate::scheduler::IntoScheduler;
use crate::tpe::{TpeConfig, TpeSampler};
use crate::Result;
use std::collections::BTreeMap;

/// The BOHB tuner.
#[derive(Debug, Clone, Copy)]
pub struct Bohb {
    hyperband: Hyperband,
    tpe_config: TpeConfig,
    /// Minimum number of observations at a fidelity before the TPE model is
    /// trusted at that fidelity.
    min_observations: usize,
}

impl Bohb {
    /// Creates a BOHB tuner with default TPE settings.
    pub fn new(max_resource: usize, eta: usize, num_brackets: Option<usize>) -> Self {
        Bohb {
            hyperband: Hyperband::new(max_resource, eta, num_brackets),
            tpe_config: TpeConfig::default(),
            min_observations: 6,
        }
    }

    /// The paper's configuration: `η = 3`, 5 brackets.
    pub fn paper_default(max_rounds: usize) -> Self {
        Bohb::new(max_rounds, 3, Some(5))
    }

    /// Overrides the TPE sampler settings.
    pub fn with_tpe_config(mut self, config: TpeConfig) -> Self {
        self.tpe_config = config;
        self
    }

    /// The underlying Hyperband schedule.
    pub fn hyperband(&self) -> &Hyperband {
        &self.hyperband
    }
}

impl IntoScheduler for Bohb {
    type Scheduler = BracketScheduler;

    fn scheduler(&self) -> Result<BracketScheduler> {
        self.hyperband.validate()?;
        Ok(BracketScheduler::new(
            "bohb",
            self.hyperband.eta(),
            self.hyperband.max_resource(),
            self.hyperband.bracket_ladder(),
            Proposer::Tpe {
                sampler: TpeSampler::new(self.tpe_config)?,
                min_observations: self.min_observations,
                observations: BTreeMap::new(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::run_fresh;
    use crate::scheduler::Scheduler;
    use crate::space::{HpConfig, SearchSpace};
    use fedmath::rng::rng_for;

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with_uniform("x", 0.0, 1.0).unwrap()
    }

    fn score(config: &HpConfig, resource: usize) -> f64 {
        let x = config.values()[0];
        (x - 0.7).abs() + 0.5 / (resource as f64 + 1.0)
    }

    #[test]
    fn bohb_structure_matches_hyperband() {
        assert_eq!(Bohb::paper_default(405).hyperband().num_brackets(), 5);
        assert_eq!(Bohb::paper_default(405).hyperband().eta(), 3);
        assert_eq!(
            Bohb::new(27, 3, Some(3)).scheduler().unwrap().name(),
            "bohb"
        );
    }

    #[test]
    fn bohb_runs_and_respects_resource_limits() {
        let mut rng = rng_for(0, 0);
        let bohb = Bohb::new(27, 3, Some(3));
        let outcome = run_fresh(&bohb, &space_1d(), score, &mut rng).unwrap();
        assert!(outcome.num_evaluations() > 0);
        assert!(outcome.records().iter().all(|r| r.resource <= 27));
        assert!(outcome.records().iter().any(|r| r.resource == 27));
        // Same bracket structure as Hyperband, so the same total budget.
        let mut rng = rng_for(0, 0);
        let hb = Hyperband::new(27, 3, Some(3));
        let hb_outcome = run_fresh(&hb, &space_1d(), score, &mut rng).unwrap();
        assert_eq!(outcome.total_resource(), hb_outcome.total_resource());
    }

    #[test]
    fn bohb_proposals_remain_valid_in_paper_space() {
        let space = SearchSpace::paper_default();
        let mut rng = rng_for(1, 0);
        // Score depends on server lr distance from 1e-3 (in log space).
        let lr_distance = |config: &HpConfig, _| (config.values()[0].log10() + 3.0).abs();
        let bohb = Bohb::new(9, 3, Some(2));
        let outcome = run_fresh(&bohb, &space, lr_distance, &mut rng).unwrap();
        for record in outcome.records() {
            assert!(space.validate_config(&record.config).is_ok());
        }
    }

    #[test]
    fn bohb_eventually_concentrates_near_the_optimum() {
        // With several brackets the later proposals should cluster near the
        // optimum x = 0.7 more than uniform sampling would.
        let mut rng = rng_for(2, 0);
        let bohb = Bohb::new(27, 3, Some(3)).with_tpe_config(TpeConfig {
            num_startup: 2,
            ..Default::default()
        });
        let outcome = run_fresh(&bohb, &space_1d(), score, &mut rng).unwrap();
        let n = outcome.num_evaluations();
        let late: Vec<f64> = outcome.records()[n / 2..]
            .iter()
            .map(|r| (r.config.values()[0] - 0.7).abs())
            .collect();
        let mean_late = fedmath::stats::mean(&late);
        // Uniform sampling over [0,1] has mean distance ~0.29 from 0.7.
        assert!(
            mean_late < 0.29,
            "late proposals (mean distance {mean_late}) show no concentration"
        );
    }

    #[test]
    fn scheduler_proposes_valid_configs_without_observations() {
        use crate::scheduler::{IntoScheduler, Scheduler};
        let space = space_1d();
        let bohb = Bohb::new(9, 3, Some(2));
        let mut scheduler = bohb.scheduler().unwrap();
        let mut rng = rng_for(3, 0);
        // Without observations the first bracket falls back to uniform
        // sampling and must still produce valid configurations.
        let batch = scheduler.suggest(&space, &mut rng).unwrap();
        assert!(!batch.is_empty());
        for request in &batch {
            assert!(space.validate_config(&request.config).is_ok());
        }
        assert!(Bohb::new(9, 1, Some(2)).scheduler().is_err());
    }
}
