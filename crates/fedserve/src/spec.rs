//! Serializable campaign specifications and statuses.
//!
//! A [`CampaignSpec`] is the *whole* definition of a tuning campaign — search
//! space, scheduler, objective, cost model, budgets, and fairness limits — in
//! one serde value. It travels over the wire in a
//! [`Request::Submit`](crate::proto::Request) and is persisted as the
//! `Spec` note that opens the campaign's segment ledger, which is what lets
//! a crashed service reconstruct every incomplete campaign from its ledger
//! alone: the spec rebuilds the scheduler/space/objective, and the ledger's
//! records replay the already-paid evaluations bit-exactly.
//!
//! Determinism is positional throughout: the spec carries a root `seed`, and
//! every derived quantity (suggestions, noise draws) is keyed off canonical
//! coordinates — so building a campaign twice from the same spec yields
//! bit-identical behavior.

use crate::{Result, ServeError};
use fedhpo::{AsyncAsha, IntoScheduler, Scheduler, SearchSpace};
use fedsim::clock::{ClientRuntimeModel, CostModel};
use fedstore::Provenance;
use fedtune_core::Budget;
use serde::{Deserialize, Serialize};

/// The most trials a campaign's scheduler may plan: more is refused at
/// submit rather than queued for ever.
pub const MAX_TRIALS: usize = 1 << 20;

/// The most rounds one evaluation may request (a random search's
/// `resource`, an ASHA ladder's `max_resource`). An admission costs its
/// rounds, and the fair-share gate spends one pass per `quantum` of cost
/// under its lock, so this bounds the passes a single admission can take.
pub const MAX_RESOURCE: usize = 1 << 16;

/// The most dimensions a campaign's search space may have: the widest
/// configuration the segment ledger will encode.
pub const MAX_DIMENSIONS: usize = fedstore::segment::MAX_ARITY;

/// The most values one categorical dimension may offer.
pub const MAX_CHOICES: usize = 1 << 10;

/// The most evaluations one campaign may hold in flight on real workers.
pub const MAX_IN_FLIGHT: usize = 1 << 10;

/// The most dispatches one campaign may queue at the fair-share gate.
pub const MAX_QUEUED: usize = 1 << 12;

/// One dimension of a campaign's search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DimSpec {
    /// Uniform in `[low, high]`.
    Uniform {
        /// Dimension name.
        name: String,
        /// Lower bound.
        low: f64,
        /// Upper bound.
        high: f64,
    },
    /// Log-uniform in `[low, high]` (both positive).
    LogUniform {
        /// Dimension name.
        name: String,
        /// Lower bound.
        low: f64,
        /// Upper bound.
        high: f64,
    },
    /// A finite set of values.
    Categorical {
        /// Dimension name.
        name: String,
        /// The candidate values.
        choices: Vec<f64>,
    },
    /// A constant.
    Fixed {
        /// Dimension name.
        name: String,
        /// The pinned value.
        value: f64,
    },
}

/// Which tuning method drives the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// Pure random search: `trials` configurations, each evaluated once
    /// after `resource` rounds.
    RandomSearch {
        /// Number of configurations.
        trials: usize,
        /// Training rounds per configuration.
        resource: usize,
    },
    /// Synchronous successive halving (ASHA ladder, barrier rungs).
    Asha {
        /// Configurations in the bottom rung.
        trials: usize,
        /// Promotion ratio.
        eta: usize,
        /// Bottom-rung resource.
        min_resource: usize,
        /// Top-rung resource.
        max_resource: usize,
    },
    /// Asynchronous successive halving: promotions overtake fresh configs,
    /// only idle virtual workers accept work.
    AsyncAsha {
        /// Configurations in the bottom rung.
        trials: usize,
        /// Promotion ratio.
        eta: usize,
        /// Bottom-rung resource.
        min_resource: usize,
        /// Top-rung resource.
        max_resource: usize,
    },
}

impl SchedulerSpec {
    /// Short label used in provenance and status lines.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerSpec::RandomSearch { .. } => "random_search",
            SchedulerSpec::Asha { .. } => "asha",
            SchedulerSpec::AsyncAsha { .. } => "async_asha",
        }
    }

    /// Builds the scheduler this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates invalid scheduler parameters.
    pub fn build(&self) -> Result<Box<dyn Scheduler>> {
        match *self {
            SchedulerSpec::RandomSearch { trials, resource } => Ok(Box::new(
                fedhpo::RandomSearch::new(trials, resource).scheduler()?,
            )),
            SchedulerSpec::Asha {
                trials,
                eta,
                min_resource,
                max_resource,
            } => Ok(Box::new(
                fedhpo::Asha::new(trials, eta, min_resource, max_resource).scheduler()?,
            )),
            SchedulerSpec::AsyncAsha {
                trials,
                eta,
                min_resource,
                max_resource,
            } => Ok(Box::new(
                AsyncAsha::from_ladder(fedhpo::Asha::new(trials, eta, min_resource, max_resource))
                    .scheduler()?,
            )),
        }
    }
}

/// The virtual cost model evaluations are billed under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CostSpec {
    /// Every round costs one virtual second.
    Unit,
    /// Fixed per-round and per-evaluation virtual costs.
    PerRound {
        /// Virtual seconds per training round.
        round_seconds: f64,
        /// Virtual seconds per evaluation pass.
        eval_seconds: f64,
    },
    /// Heavy-tailed straggler clients (the paper's systems heterogeneity).
    HeavyTailedClients {
        /// Total simulated clients.
        clients: usize,
        /// Clients sampled per round.
        per_round: usize,
        /// Positional seed of the runtime model.
        seed: u64,
    },
}

impl CostSpec {
    /// Builds the cost model this spec describes.
    pub fn build(&self) -> CostModel {
        match *self {
            CostSpec::Unit => CostModel::Unit,
            CostSpec::PerRound {
                round_seconds,
                eval_seconds,
            } => CostModel::PerRound {
                round_seconds,
                eval_seconds,
            },
            CostSpec::HeavyTailedClients {
                clients,
                per_round,
                seed,
            } => CostModel::HeterogeneousClients(ClientRuntimeModel::heavy_tailed(
                clients, per_round, seed,
            )),
        }
    }
}

/// The campaign's objective function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveSpec {
    /// The analytic test objective used throughout the workspace:
    /// `mean_i |x_i - target| + 1/(resource + 1)`, with optional positional
    /// Gaussian observation noise keyed by `(seed, config fingerprint,
    /// resource, rep)` — bit-deterministic under any execution order.
    Analytic {
        /// The optimum each dimension is pulled toward.
        target: f64,
        /// Standard deviation of the observation noise (`0` = noiseless).
        noise_sd: f64,
        /// Real seconds slept per *virtual* second of evaluation cost; `0`
        /// disables sleeping. Models latency-bound evaluations for the
        /// throughput benchmarks without changing any result bits.
        latency_scale: f64,
        /// Trial id whose first live evaluation returns an error (isolation
        /// tests).
        fail_trial: Option<usize>,
        /// Trial id whose first live evaluation panics (isolation tests).
        panic_trial: Option<usize>,
    },
}

impl ObjectiveSpec {
    /// Short label recorded in ledger provenance.
    pub fn label(&self) -> String {
        match self {
            ObjectiveSpec::Analytic { noise_sd, .. } => {
                if *noise_sd > 0.0 {
                    format!("analytic-noisy-{noise_sd}")
                } else {
                    "analytic-noiseless".to_string()
                }
            }
        }
    }
}

/// Per-campaign fairness and budget limits enforced by the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignLimits {
    /// Maximum evaluations of this campaign in flight on real workers at
    /// once.
    pub max_in_flight: usize,
    /// Maximum dispatches queued at the fair-share gate awaiting admission.
    pub max_queued: usize,
    /// Deficit-round-robin quantum: admission credit (in cost units —
    /// training rounds) granted per scheduling pass. Larger quanta favor
    /// this campaign proportionally.
    pub quantum: u64,
    /// Terminate the campaign once this many evaluations were *dispatched*,
    /// at wave granularity: the wave reaching it still commits in full.
    pub max_evaluations: Option<u64>,
    /// Terminate the campaign once this many rounds were *dispatched*, alike.
    pub max_resource: Option<u64>,
}

impl Default for CampaignLimits {
    fn default() -> Self {
        CampaignLimits {
            max_in_flight: 8,
            max_queued: 64,
            quantum: 4,
            max_evaluations: None,
            max_resource: None,
        }
    }
}

/// A complete, self-contained campaign definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Unique campaign name; doubles as its directory name under the
    /// service root (restricted charset, see [`validate`](Self::validate)).
    pub name: String,
    /// Root seed: every suggestion and noise draw derives from it
    /// positionally.
    pub seed: u64,
    /// The search space.
    pub space: Vec<DimSpec>,
    /// The tuning method.
    pub scheduler: SchedulerSpec,
    /// The objective.
    pub objective: ObjectiveSpec,
    /// The virtual cost model.
    pub cost: CostSpec,
    /// Virtual workers of this campaign's simulated tuning service.
    pub workers: usize,
    /// Optional simulated wall-clock budget in virtual seconds.
    pub sim_budget: Option<f64>,
    /// Fairness and budget limits.
    pub limits: CampaignLimits,
}

impl CampaignSpec {
    /// Validates everything the registry relies on before accepting a
    /// campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidSpec`] with the first violation found.
    pub fn validate(&self) -> Result<()> {
        let fail = |message: String| Err(ServeError::InvalidSpec { message });
        if self.name.is_empty() || self.name.len() > 64 {
            return fail(format!("name {:?} must be 1..=64 characters", self.name));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            || self.name.starts_with('.')
        {
            return fail(format!(
                "name {:?} may only contain [A-Za-z0-9._-] and must not start with '.'",
                self.name
            ));
        }
        if !(1..=MAX_DIMENSIONS).contains(&self.space.len()) {
            return fail(format!(
                "search space needs 1..={MAX_DIMENSIONS} dimensions, got {}",
                self.space.len()
            ));
        }
        for dim in &self.space {
            if let DimSpec::Categorical { name, choices } = dim {
                if choices.len() > MAX_CHOICES {
                    return fail(format!(
                        "categorical dimension {name:?} has {} choices (at most {MAX_CHOICES})",
                        choices.len()
                    ));
                }
            }
        }
        self.build_space()?;
        if self.workers == 0 {
            return fail("campaign needs at least one virtual worker".to_string());
        }
        if let Some(budget) = self.sim_budget {
            if !budget.is_finite() || budget <= 0.0 {
                return fail(format!("sim budget {budget} must be finite and positive"));
            }
        }
        let limits = &self.limits;
        if !(1..=MAX_IN_FLIGHT).contains(&limits.max_in_flight)
            || !(1..=MAX_QUEUED).contains(&limits.max_queued)
            || limits.quantum == 0
        {
            return fail(format!(
                "limits need max_in_flight in 1..={MAX_IN_FLIGHT}, max_queued in \
                 1..={MAX_QUEUED} and a positive quantum, got {}, {} and {}",
                limits.max_in_flight, limits.max_queued, limits.quantum
            ));
        }
        match &self.scheduler {
            SchedulerSpec::RandomSearch { trials, resource } => {
                if !(1..=MAX_TRIALS).contains(trials) || !(1..=MAX_RESOURCE).contains(resource) {
                    return fail(format!(
                        "random search needs trials in 1..={MAX_TRIALS} and resource in \
                         1..={MAX_RESOURCE}, got {trials} and {resource}"
                    ));
                }
            }
            SchedulerSpec::Asha {
                trials,
                eta,
                min_resource,
                max_resource,
            }
            | SchedulerSpec::AsyncAsha {
                trials,
                eta,
                min_resource,
                max_resource,
            } => {
                if !(1..=MAX_TRIALS).contains(trials)
                    || *eta < 2
                    || *min_resource == 0
                    || max_resource < min_resource
                    || *max_resource > MAX_RESOURCE
                {
                    return fail(format!(
                        "invalid ASHA ladder: trials {trials} (at most {MAX_TRIALS}), eta {eta}, \
                         resource {min_resource}..{max_resource} (at most {MAX_RESOURCE})"
                    ));
                }
            }
        }
        match &self.objective {
            ObjectiveSpec::Analytic {
                target,
                noise_sd,
                latency_scale,
                ..
            } => {
                if !target.is_finite() || !noise_sd.is_finite() || *noise_sd < 0.0 {
                    return fail(format!(
                        "analytic objective needs finite target ({target}) and \
                         non-negative finite noise sd ({noise_sd})"
                    ));
                }
                if !latency_scale.is_finite() || *latency_scale < 0.0 {
                    return fail(format!(
                        "latency scale {latency_scale} must be finite and non-negative"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Builds the search space this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidSpec`] for invalid dimension bounds or
    /// names.
    pub fn build_space(&self) -> Result<SearchSpace> {
        self.space
            .iter()
            .try_fold(SearchSpace::new(), |space, dim| match dim {
                DimSpec::Uniform { name, low, high } => space.with_uniform(name, *low, *high),
                DimSpec::LogUniform { name, low, high } => {
                    space.with_log_uniform(name, *low, *high)
                }
                DimSpec::Categorical { name, choices } => {
                    space.with_categorical(name, choices.clone())
                }
                DimSpec::Fixed { name, value } => space.with_fixed(name, *value),
            })
            .map_err(|e| ServeError::InvalidSpec {
                message: format!("search space: {e}"),
            })
    }

    /// Builds the scheduler this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates invalid scheduler parameters.
    pub fn build_scheduler(&self) -> Result<Box<dyn Scheduler>> {
        self.scheduler.build()
    }

    /// The budget the executor core enforces for this campaign.
    pub fn budget(&self) -> Budget {
        Budget {
            evaluations: self.limits.max_evaluations,
            rounds: self.limits.max_resource,
            sim_seconds: self.sim_budget,
        }
    }

    /// The ledger provenance records of this campaign carry.
    pub fn provenance(&self) -> Provenance {
        Provenance {
            benchmark: format!("fedserve:{}", self.scheduler.label()).into(),
            scale: "service".into(),
            seed: self.seed,
            noise: self.objective.label().into(),
        }
    }
}

/// Lifecycle state of a campaign in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignState {
    /// Accepted; driver not yet running.
    Pending,
    /// Driver thread live.
    Running,
    /// Schedule ran to completion. Terminal.
    Completed,
    /// Stopped by an operator request. Terminal.
    Stopped,
    /// A trial/resource/sim budget cut the schedule off. Terminal.
    BudgetExhausted,
    /// The campaign's evaluation or ledger failed (including panics).
    /// Terminal.
    Failed,
    /// Halted cleanly by a service shutdown while incomplete; resumes on
    /// the next service start. Not terminal.
    Suspended,
}

impl CampaignState {
    /// Whether the campaign will make no further progress in this service
    /// process (a suspended campaign resumes only in a *new* process).
    pub fn is_settled(&self) -> bool {
        !matches!(self, CampaignState::Pending | CampaignState::Running)
    }

    /// Whether the campaign is finished for good — restarting the service
    /// must not resume it.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignState::Completed
                | CampaignState::Stopped
                | CampaignState::BudgetExhausted
                | CampaignState::Failed
        )
    }
}

/// The winning evaluation of a finished (or partially run) campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Trial id of the selected configuration.
    pub trial_id: usize,
    /// Canonical values of the selected configuration.
    pub config: Vec<f64>,
    /// Its (noisy) selection score.
    pub score: f64,
    /// Cumulative resource the configuration had received.
    pub resource: usize,
    /// Virtual completion time of the selected evaluation.
    pub sim_time: f64,
}

/// A point-in-time public view of one campaign. A terminal one is also the
/// `Settled` note that ends the campaign's ledger, which is what a restarted
/// service reports it from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Campaign name.
    pub name: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Committed evaluations so far.
    pub evaluations: u64,
    /// Committed training rounds so far.
    pub resource_spent: u64,
    /// Virtual clock of the campaign (final `sim_elapsed` once settled).
    pub sim_elapsed: f64,
    /// Evaluations served from the recovered ledger instead of computed
    /// live (non-zero only on resumed campaigns).
    pub ledger_hits: u64,
    /// Evaluations computed live.
    pub ledger_misses: u64,
    /// Best evaluation seen, if any finite-scored evaluation committed.
    pub selection: Option<Selection>,
    /// Failure detail when `state == Failed`.
    pub error: Option<String>,
}

impl CampaignStatus {
    /// A fresh status for a newly registered campaign.
    pub fn fresh(name: &str) -> Self {
        CampaignStatus {
            name: name.to_string(),
            state: CampaignState::Pending,
            evaluations: 0,
            resource_spent: 0,
            sim_elapsed: 0.0,
            ledger_hits: 0,
            ledger_misses: 0,
            selection: None,
            error: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn demo_spec(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            seed: 7,
            space: vec![DimSpec::Uniform {
                name: "x".to_string(),
                low: 0.0,
                high: 1.0,
            }],
            scheduler: SchedulerSpec::AsyncAsha {
                trials: 9,
                eta: 3,
                min_resource: 1,
                max_resource: 9,
            },
            objective: ObjectiveSpec::Analytic {
                target: 0.3,
                noise_sd: 0.0,
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

    #[test]
    fn spec_round_trips_through_json_bit_exactly() {
        let mut spec = demo_spec("round-trip");
        spec.sim_budget = Some(123.456789);
        spec.cost = CostSpec::HeavyTailedClients {
            clients: 60,
            per_round: 5,
            seed: 17,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(
            spec.sim_budget.unwrap().to_bits(),
            back.sim_budget.unwrap().to_bits()
        );
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(demo_spec("ok-name_1.2").validate().is_ok());
        let mut bad = demo_spec("");
        assert!(bad.validate().is_err());
        bad = demo_spec("../escape");
        assert!(bad.validate().is_err());
        bad = demo_spec(".hidden");
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.workers = 0;
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.space.clear();
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.limits.quantum = 0;
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.sim_budget = Some(0.0);
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.scheduler = SchedulerSpec::Asha {
            trials: 4,
            eta: 1,
            min_resource: 1,
            max_resource: 9,
        };
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.scheduler = SchedulerSpec::RandomSearch {
            trials: 4,
            resource: usize::MAX,
        };
        assert!(bad.validate().is_err());
        bad.scheduler = SchedulerSpec::RandomSearch {
            trials: MAX_TRIALS,
            resource: MAX_RESOURCE,
        };
        assert!(bad.validate().is_ok());
        bad.scheduler = SchedulerSpec::Asha {
            trials: 4,
            eta: 3,
            min_resource: 1,
            max_resource: usize::MAX,
        };
        assert!(bad.validate().is_err());
        bad.scheduler = SchedulerSpec::AsyncAsha {
            trials: MAX_TRIALS + 1,
            eta: 3,
            min_resource: 1,
            max_resource: 9,
        };
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.objective = ObjectiveSpec::Analytic {
            target: 0.3,
            noise_sd: -1.0,
            latency_scale: 0.0,
            fail_trial: None,
            panic_trial: None,
        };
        assert!(bad.validate().is_err());
        // The search space must build: NaN or inverted bounds, a non-positive
        // log bound, a NaN choice or a duplicate name are refused up front.
        let uniform = |name: &str, low: f64, high: f64| DimSpec::Uniform {
            name: name.to_string(),
            low,
            high,
        };
        for space in [
            vec![uniform("x", f64::NAN, 1.0)],
            vec![uniform("x", 1.0, 0.0)],
            vec![uniform("x", 0.0, f64::INFINITY)],
            vec![DimSpec::LogUniform {
                name: "lr".to_string(),
                low: 0.0,
                high: 1.0,
            }],
            vec![DimSpec::Categorical {
                name: "c".to_string(),
                choices: vec![1.0, f64::NAN],
            }],
            vec![uniform("x", 0.0, 1.0), uniform("x", 0.0, 2.0)],
        ] {
            bad = demo_spec("ok");
            bad.space = space;
            assert!(
                matches!(bad.validate(), Err(ServeError::InvalidSpec { .. })),
                "{:?}",
                bad.space
            );
        }
        // The width caps: dimensions at the ledger's arity, choices and the
        // in-flight / queued limits at their constants.
        bad = demo_spec("ok");
        bad.space = (0..MAX_DIMENSIONS)
            .map(|i| uniform(&format!("x{i}"), 0.0, 1.0))
            .collect();
        assert!(bad.validate().is_ok());
        bad.space.push(uniform("one-too-many", 0.0, 1.0));
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.space = vec![DimSpec::Categorical {
            name: "c".to_string(),
            choices: (0..MAX_CHOICES).map(|i| i as f64).collect(),
        }];
        assert!(bad.validate().is_ok());
        bad.space = vec![DimSpec::Categorical {
            name: "c".to_string(),
            choices: (0..=MAX_CHOICES).map(|i| i as f64).collect(),
        }];
        assert!(bad.validate().is_err());
        bad = demo_spec("ok");
        bad.limits.max_in_flight = MAX_IN_FLIGHT;
        bad.limits.max_queued = MAX_QUEUED;
        assert!(bad.validate().is_ok());
        bad.limits.max_in_flight = MAX_IN_FLIGHT + 1;
        assert!(bad.validate().is_err());
        bad.limits.max_in_flight = MAX_IN_FLIGHT;
        bad.limits.max_queued = usize::MAX;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn every_example_spec_validates() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let spec: CampaignSpec =
                    serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                checked += 1;
            }
        }
        assert!(checked > 0, "no specs under {}", dir.display());
    }

    #[test]
    fn builders_produce_working_components() {
        let spec = demo_spec("build");
        let space = spec.build_space().unwrap();
        let mut rng = fedmath::rng::rng_for(spec.seed, 0);
        assert!(space.sample(&mut rng).is_ok());
        let scheduler = spec.build_scheduler().unwrap();
        assert!(scheduler.async_capable());
        assert_eq!(spec.cost.build(), CostModel::Unit);
        let provenance = spec.provenance();
        assert_eq!(&*provenance.benchmark, "fedserve:async_asha");
        assert_eq!(&*provenance.noise, "analytic-noiseless");
    }
}
