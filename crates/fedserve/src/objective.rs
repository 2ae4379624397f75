//! The served objective: an analytic, bit-deterministic, latency-aware
//! evaluation behind `fedstore`'s recording wrapper.
//!
//! This module owns only the evaluation: [`AnalyticEval`] scores a request
//! as a pure function of its canonical `(config, resource, noise_rep)`
//! coordinates — the score is analytic and the observation noise comes from
//! an RNG keyed positionally off the campaign seed and those coordinates —
//! so no thread count, completion order, or co-tenant can move a bit.
//!
//! Everything about the ledger is [`fedstore::RecordingObjective`], the same
//! wrapper the standalone record / replay experiments use; [`build_objective`]
//! puts the two together.
//!
//! - **Replay.** A request whose key the campaign's recovered ledger already
//!   holds returns the *recorded* bits without recomputation (and without
//!   paying the simulated latency). This is what makes kill-and-restart
//!   resume exactly where it left off: the scheduler re-derives the same
//!   request sequence from the same seed, and the paid prefix is served
//!   from disk.
//! - **Durability.** The unit of durability is the driver *turn*: commits
//!   are staged in the segment ledger in dispatch order and one sync at the
//!   turn's end makes them durable before the driver publishes a status. So
//!   a *status* never runs ahead of the disk. The *scheduler* can: the
//!   executor core hears a result when it arrives, while its commit may
//!   still be parked behind an earlier dispatch that has not finished. A
//!   crash in that window loses nothing that matters — the parked result
//!   was never committed, so the restarted campaign recomputes it, to the
//!   same bits, and re-derives every decision that followed from it.
//!
//! The *standalone* reference runs — the ones the service's bit-identity
//! tests compare against — run the very same objective through
//! [`fedtune_core::drive`].

use crate::spec::{CampaignSpec, ObjectiveSpec};
use crate::Result;
use fedhpo::{SearchSpace, TrialRequest};
use fedsim::clock::CostModel;
use fedstore::{RecordingObjective, TrialStore};
use fedtune_core::{ConcurrentEval, CoreError, EvalOutput};
use rand_distr::{Distribution, Normal};
use std::time::Duration;

/// The analytic evaluation of an [`ObjectiveSpec`] (see module docs). Its
/// per-trial state is the rounds the trial has been trained to *by live
/// evaluations of this process*, which is what the simulated latency bills.
pub struct AnalyticEval {
    space: SearchSpace,
    objective: ObjectiveSpec,
    cost: CostModel,
    seed: u64,
}

impl AnalyticEval {
    /// The evaluation `spec` describes.
    ///
    /// # Errors
    ///
    /// Propagates an invalid search space from the spec.
    pub fn new(spec: &CampaignSpec) -> Result<Self> {
        Ok(AnalyticEval {
            space: spec.build_space()?,
            objective: spec.objective.clone(),
            cost: spec.cost.build(),
            seed: spec.seed,
        })
    }

    /// The analytic true error at one request's coordinates.
    fn true_error(&self, request: &TrialRequest) -> f64 {
        match &self.objective {
            ObjectiveSpec::Analytic { target, .. } => {
                let values = request.config.values();
                let distance: f64 =
                    values.iter().map(|v| (v - target).abs()).sum::<f64>() / values.len() as f64;
                distance + 1.0 / (request.resource as f64 + 1.0)
            }
        }
    }

    /// The positional observation-noise draw for one request whose
    /// canonical configuration has `fingerprint`.
    fn noise_draw(&self, fingerprint: u64, request: &TrialRequest, noise_sd: f64) -> f64 {
        if noise_sd <= 0.0 {
            return 0.0;
        }
        // Keyed by canonical coordinates, not trial id: promotions of the
        // same config to a new rung draw fresh noise, re-evaluations of the
        // same (config, resource, rep) reproduce the same draw.
        let index = fingerprint
            .wrapping_add((request.resource as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(request.noise_rep.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = fedmath::rng::rng_for(self.seed, index);
        match Normal::new(0.0, noise_sd) {
            Ok(normal) => normal.sample(&mut rng),
            // Unreachable for validated specs (finite positive sd).
            Err(_) => 0.0,
        }
    }
}

impl ConcurrentEval for AnalyticEval {
    type State = usize;

    fn evaluate(
        &self,
        trained: &mut usize,
        request: &TrialRequest,
    ) -> fedtune_core::Result<EvalOutput> {
        let fingerprint = self
            .space
            .canonical_fingerprint(&request.config)
            .map_err(|e| CoreError::InvalidConfig {
                message: format!("unkeyable request: {e}"),
            })?;
        let already = *trained;
        let reached = already.max(request.resource);
        *trained = reached;
        let ObjectiveSpec::Analytic {
            noise_sd,
            latency_scale,
            fail_trial,
            panic_trial,
            ..
        } = &self.objective;
        if *panic_trial == Some(request.trial_id) {
            panic!("injected evaluation panic for trial {}", request.trial_id);
        }
        if *fail_trial == Some(request.trial_id) {
            return Err(CoreError::InvalidConfig {
                message: format!("injected evaluation failure for trial {}", request.trial_id),
            });
        }
        if *latency_scale > 0.0 {
            // The federated latency this evaluation would wait on: training
            // from `already` to `reached` rounds under the campaign's cost
            // model, scaled from virtual to real seconds. Pure in the same
            // coordinates as the score, so sleeping never moves a bit.
            let virtual_seconds = self.cost.evaluation_seconds(fingerprint, already, reached);
            std::thread::sleep(Duration::from_secs_f64(virtual_seconds * latency_scale));
        }
        let true_error = self.true_error(request);
        Ok(EvalOutput {
            noisy_score: true_error + self.noise_draw(fingerprint, request, *noise_sd),
            true_error: Some(true_error),
        })
    }
}

/// Builds a campaign's objective around an already-opened (and possibly
/// recovered) ledger, which the objective owns from here on: every record in
/// `store` becomes a replay hit, every commit is appended to it.
///
/// # Errors
///
/// Propagates an invalid search space from the spec.
pub fn build_objective(
    spec: &CampaignSpec,
    store: TrialStore,
) -> Result<RecordingObjective<AnalyticEval>> {
    let eval = AnalyticEval::new(spec)?;
    let space = eval.space.clone();
    Ok(RecordingObjective::new(
        eval,
        &space,
        spec.provenance(),
        store,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignLimits, CostSpec, DimSpec, SchedulerSpec};
    use fedhpo::HpConfig;
    use fedtune_core::{ConcurrentObjective, ConcurrentSink};

    fn spec(noise_sd: f64) -> CampaignSpec {
        CampaignSpec {
            name: "objective".to_string(),
            seed: 11,
            space: vec![
                DimSpec::Uniform {
                    name: "x".to_string(),
                    low: 0.0,
                    high: 1.0,
                },
                DimSpec::Fixed {
                    name: "b".to_string(),
                    value: 0.5,
                },
            ],
            scheduler: SchedulerSpec::RandomSearch {
                trials: 3,
                resource: 2,
            },
            objective: ObjectiveSpec::Analytic {
                target: 0.25,
                noise_sd,
                latency_scale: 0.0,
                fail_trial: None,
                panic_trial: None,
            },
            cost: CostSpec::Unit,
            workers: 2,
            sim_budget: None,
            limits: CampaignLimits::default(),
        }
    }

    fn request(trial_id: usize, x: f64, resource: usize, rep: u64) -> TrialRequest {
        TrialRequest {
            trial_id,
            config: HpConfig::new(vec![x, 0.5]),
            resource,
            noise_rep: rep,
        }
    }

    #[test]
    fn noise_is_positional_and_rep_distinct() {
        let mut objective = build_objective(&spec(0.2), TrialStore::in_memory()).unwrap();
        let (eval, _) = objective.split();
        let mut s0 = 0usize;
        let a = eval.evaluate(&mut s0, &request(0, 0.75, 2, 0)).unwrap();
        let mut s1 = 0usize;
        // Same coordinates under a different trial id: identical bits.
        let b = eval.evaluate(&mut s1, &request(9, 0.75, 2, 0)).unwrap();
        assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
        assert_eq!(
            a.true_error.map(f64::to_bits),
            b.true_error.map(f64::to_bits)
        );
        // A different replicate draws different noise around the same truth.
        let mut s2 = 0usize;
        let c = eval.evaluate(&mut s2, &request(0, 0.75, 2, 1)).unwrap();
        assert_eq!(
            a.true_error.map(f64::to_bits),
            c.true_error.map(f64::to_bits)
        );
        assert_ne!(a.noisy_score.to_bits(), c.noisy_score.to_bits());
        assert_eq!(eval.misses(), 3);
        assert_eq!(eval.hits(), 0);
    }

    #[test]
    fn recorded_evaluations_replay_bit_exactly() {
        let spec = spec(0.3);
        // First pass: live evaluations, committed to an in-memory ledger.
        let mut live = build_objective(&spec, TrialStore::in_memory()).unwrap();
        let req = request(0, 0.6, 3, 0);
        let mut state = 0usize;
        let (eval, _) = live.split();
        let first = eval.evaluate(&mut state, &req).unwrap();
        let (_, sink) = live.split();
        sink.commit(&req, &first, 7.5);
        sink.end_turn().unwrap();
        assert_eq!(sink.campaign.len(), 1);
        assert_eq!(sink.campaign.cumulative_rounds(), 3);

        // Second pass: an objective rebuilt over the committed ledger serves
        // the same request from disk, bit for bit.
        let store = live.sink.into_store();
        assert_eq!(store.len(), 1);
        let mut replay = build_objective(&spec, store).unwrap();
        let (eval, _) = replay.split();
        let mut state = 0usize;
        let again = eval.evaluate(&mut state, &req).unwrap();
        assert_eq!(first.noisy_score.to_bits(), again.noisy_score.to_bits());
        assert_eq!(
            first.true_error.map(f64::to_bits),
            again.true_error.map(f64::to_bits)
        );
        assert_eq!(eval.hits(), 1);
        assert_eq!(eval.misses(), 0);
    }

    #[test]
    fn fail_injection_targets_one_trial() {
        let mut bad = spec(0.0);
        bad.objective = ObjectiveSpec::Analytic {
            target: 0.25,
            noise_sd: 0.0,
            latency_scale: 0.0,
            fail_trial: Some(1),
            panic_trial: None,
        };
        let mut objective = build_objective(&bad, TrialStore::in_memory()).unwrap();
        let (eval, _) = objective.split();
        let mut state = 0usize;
        assert!(eval.evaluate(&mut state, &request(0, 0.5, 1, 0)).is_ok());
        let mut state = 0usize;
        assert!(eval.evaluate(&mut state, &request(1, 0.5, 1, 0)).is_err());
    }
}
