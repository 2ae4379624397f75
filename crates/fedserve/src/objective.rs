//! The served objective: ledger-backed, bit-deterministic, latency-aware.
//!
//! [`ServeEval`] / [`ServeSink`] implement fedtune_core's concurrent
//! objective contract for service campaigns. Three properties matter here:
//!
//! - **Purity.** A live evaluation is a pure function of its canonical
//!   `(config, resource, noise_rep)` coordinates: the score is analytic and
//!   the observation noise comes from an RNG keyed positionally off the
//!   campaign seed and those coordinates. No thread count, completion order,
//!   or co-tenant can move a bit.
//! - **Replay.** The eval carries a snapshot of the campaign's recovered
//!   ledger; a request whose key is already recorded returns the *recorded*
//!   bits without recomputation (and without paying the simulated latency).
//!   This is what makes kill-and-restart resume exactly where it left off:
//!   the scheduler re-derives the same request sequence from the same seed,
//!   and the paid prefix is served from disk. The snapshot (`hits`) shares
//!   the store's key allocations — copying a stored key is a reference
//!   count — so it costs one table of pointers and scores, not a second copy
//!   of every configuration.
//! - **Durability.** The unit of durability is the driver *turn*, not the
//!   single result: [`ServeSink::commit`](ConcurrentSink::commit) stages each
//!   commit in the campaign's segment ledger and
//!   [`ServeSink::sync_turn`] makes everything staged durable with one
//!   `sync_data` before the driver publishes progress or steps the core
//!   again. So the instant a result influences the scheduler or a status
//!   reply it is already on disk — a crash can lose in-flight work and the
//!   unobserved results of the turn it interrupts (both recomputed on
//!   restart) but never an observed result.
//!
//! [`ServeObjective`] glues the halves together so the *standalone*
//! reference runs — the ones the service's bit-identity tests compare
//! against — go through the very same code via
//! [`run_event_driven_concurrent`](fedtune_core::run_event_driven_concurrent).

use crate::spec::{CampaignSpec, ObjectiveSpec};
use crate::Result;
use fedhpo::{SearchSpace, TrialRequest};
use fedsim::clock::CostModel;
use fedstore::{StoreError, TrialKey, TrialRecord, TrialStore};
use fedtune_core::{ConcurrentEval, ConcurrentObjective, ConcurrentSink, CoreError, EvalOutput};
use rand_distr::{Distribution, Normal};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The thread-shared evaluation half (see module docs).
pub struct ServeEval {
    space: SearchSpace,
    objective: ObjectiveSpec,
    cost: CostModel,
    seed: u64,
    /// Recorded `(noisy_score, true_error)` bits from the recovered ledger.
    hits: HashMap<TrialKey, (f64, f64)>,
    served_hits: AtomicU64,
    served_misses: AtomicU64,
}

impl ServeEval {
    /// Evaluations answered from the recovered ledger so far.
    pub fn ledger_hits(&self) -> u64 {
        self.served_hits.load(Ordering::Relaxed)
    }

    /// Evaluations computed live so far.
    pub fn ledger_misses(&self) -> u64 {
        self.served_misses.load(Ordering::Relaxed)
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

    /// The positional observation-noise draw for one ledger key.
    fn noise_draw(&self, key: &TrialKey, noise_sd: f64) -> f64 {
        if noise_sd <= 0.0 {
            return 0.0;
        }
        // Keyed by canonical coordinates, not trial id: promotions of the
        // same config to a new rung draw fresh noise, re-evaluations of the
        // same (config, resource, rep) reproduce the same draw.
        let index = key
            .config
            .fingerprint()
            .wrapping_add((key.resource as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(key.rep.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = fedmath::rng::rng_for(self.seed, index);
        match Normal::new(0.0, noise_sd) {
            Ok(normal) => normal.sample(&mut rng),
            // Unreachable for validated specs (finite positive sd).
            Err(_) => 0.0,
        }
    }
}

impl ConcurrentEval for ServeEval {
    type State = usize;

    fn evaluate(
        &self,
        trained: &mut usize,
        request: &TrialRequest,
    ) -> fedtune_core::Result<EvalOutput> {
        let key =
            TrialKey::for_request(&self.space, request).map_err(|e| CoreError::InvalidConfig {
                message: format!("unkeyable request: {e}"),
            })?;
        let already = *trained;
        let reached = already.max(request.resource);
        let rounds_delta = reached - already;
        *trained = reached;
        if let Some(&(noisy_score, true_error)) = self.hits.get(&key) {
            // Served from the ledger: recorded bits, no latency — a resumed
            // campaign fast-forwards through its paid prefix.
            self.served_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(EvalOutput {
                noisy_score,
                true_error,
                rounds_delta,
                resource_completed: reached,
            });
        }
        self.served_misses.fetch_add(1, Ordering::Relaxed);
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
            let fingerprint = key.config.fingerprint();
            let virtual_seconds = self.cost.evaluation_seconds(fingerprint, already, reached);
            std::thread::sleep(Duration::from_secs_f64(virtual_seconds * latency_scale));
        }
        let true_error = self.true_error(request);
        Ok(EvalOutput {
            noisy_score: true_error + self.noise_draw(&key, *noise_sd),
            true_error,
            rounds_delta,
            resource_completed: reached,
        })
    }
}

/// The driver-thread accounting half: parks per-trial trained-rounds state
/// and appends every commit to the campaign's ledger.
pub struct ServeSink {
    store: TrialStore,
    provenance: fedstore::Provenance,
    space: SearchSpace,
    states: HashMap<usize, usize>,
    /// Committed evaluations (hits and misses alike).
    pub evaluations: u64,
    /// Committed incremental training rounds.
    pub resource_spent: u64,
    /// First staging failure, stashed because [`ConcurrentSink::commit`]
    /// cannot return errors; [`ServeSink::sync_turn`] returns it and the
    /// driver fails the campaign.
    io_error: Option<StoreError>,
}

impl ServeSink {
    /// Consumes the sink, returning its ledger.
    pub fn into_store(self) -> TrialStore {
        self.store
    }

    /// The ledger being appended to.
    pub fn store(&self) -> &TrialStore {
        &self.store
    }

    /// Ends a driver turn: every commit staged since the previous call
    /// becomes durable with one `sync_data` (none when nothing new was
    /// staged). Until this returns `Ok` the turn's results must reach
    /// neither the scheduler nor a status reply.
    ///
    /// # Errors
    ///
    /// The first failure to stage a commit this turn, else the sync's own.
    pub fn sync_turn(&mut self) -> std::result::Result<(), StoreError> {
        match self.io_error.take() {
            Some(e) => Err(e),
            None => self.store.group_commit(),
        }
    }
}

impl ConcurrentSink for ServeSink {
    type State = usize;

    fn take_state(&mut self, trial_id: usize) -> usize {
        self.states.remove(&trial_id).unwrap_or(0)
    }

    fn put_state(&mut self, trial_id: usize, state: usize) {
        self.states.insert(trial_id, state);
    }

    fn commit(&mut self, request: &TrialRequest, output: &EvalOutput, sim_time: f64) {
        if self.io_error.is_some() {
            return;
        }
        self.evaluations += 1;
        self.resource_spent += output.rounds_delta as u64;
        let record = match TrialKey::for_request(&self.space, request) {
            Ok(key) => TrialRecord {
                config: key.config,
                resource: key.resource,
                rep: key.rep,
                noisy_score: output.noisy_score,
                true_error: output.true_error,
                sim_time,
                provenance: self.provenance.clone(),
            },
            Err(e) => {
                self.io_error = Some(e);
                return;
            }
        };
        // Idempotent: replayed hits re-insert their existing record, which
        // the ledger recognizes and skips. Staged only — `sync_turn` syncs.
        if let Err(e) = self.store.insert_unsynced(record) {
            self.io_error = Some(e);
        }
    }

    fn end_turn(&mut self) -> fedtune_core::Result<()> {
        self.sync_turn().map_err(|e| CoreError::InvalidConfig {
            message: format!("campaign ledger: {e}"),
        })
    }
}

/// Both halves of a campaign's objective, shaped for
/// [`run_event_driven_concurrent`](fedtune_core::run_event_driven_concurrent)
/// (the standalone reference) and for the service's own driver (which `Arc`s
/// the eval half across the shared pool).
pub struct ServeObjective {
    /// The thread-shared evaluation half.
    pub eval: std::sync::Arc<ServeEval>,
    /// The driver-side accounting half.
    pub sink: ServeSink,
}

impl ConcurrentObjective for ServeObjective {
    type State = usize;
    type Eval = ServeEval;
    type Sink = ServeSink;

    fn split(&mut self) -> (&ServeEval, &mut ServeSink) {
        (&self.eval, &mut self.sink)
    }
}

/// Builds a campaign's objective around an already-opened (and possibly
/// recovered) ledger: every record in `store` becomes a replay hit.
///
/// # Errors
///
/// Propagates an invalid search space from the spec.
pub fn build_objective(spec: &CampaignSpec, store: TrialStore) -> Result<ServeObjective> {
    let space = spec.build_space()?;
    let hits = store
        .records()
        .iter()
        .map(|record| (record.key(), (record.noisy_score, record.true_error)))
        .collect();
    let eval = ServeEval {
        space: space.clone(),
        objective: spec.objective.clone(),
        cost: spec.cost.build(),
        seed: spec.seed,
        hits,
        served_hits: AtomicU64::new(0),
        served_misses: AtomicU64::new(0),
    };
    let sink = ServeSink {
        store,
        provenance: spec.provenance(),
        space,
        states: HashMap::new(),
        evaluations: 0,
        resource_spent: 0,
        io_error: None,
    };
    Ok(ServeObjective {
        eval: std::sync::Arc::new(eval),
        sink,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignLimits, CostSpec, DimSpec, SchedulerSpec};
    use fedhpo::HpConfig;

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
        assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
        // A different replicate draws different noise around the same truth.
        let mut s2 = 0usize;
        let c = eval.evaluate(&mut s2, &request(0, 0.75, 2, 1)).unwrap();
        assert_eq!(a.true_error.to_bits(), c.true_error.to_bits());
        assert_ne!(a.noisy_score.to_bits(), c.noisy_score.to_bits());
        assert_eq!(eval.ledger_misses(), 3);
        assert_eq!(eval.ledger_hits(), 0);
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
        assert_eq!(sink.evaluations, 1);
        assert_eq!(sink.resource_spent, 3);
        assert!(sink.io_error.is_none());

        // Second pass: an objective rebuilt over the committed ledger serves
        // the same request from disk, bit for bit.
        let store = live.sink.into_store();
        assert_eq!(store.len(), 1);
        let mut replay = build_objective(&spec, store).unwrap();
        let (eval, _) = replay.split();
        let mut state = 0usize;
        let again = eval.evaluate(&mut state, &req).unwrap();
        assert_eq!(first.noisy_score.to_bits(), again.noisy_score.to_bits());
        assert_eq!(first.true_error.to_bits(), again.true_error.to_bits());
        assert_eq!(eval.ledger_hits(), 1);
        assert_eq!(eval.ledger_misses(), 0);
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
