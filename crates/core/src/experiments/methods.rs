//! Fig. 1 (headline bars), Fig. 8 (online curves), and Fig. 15/16
//! (method bars at one-third and full budget): RS vs. TPE vs. Hyperband vs.
//! BOHB under noiseless and noisy evaluation — plus the scheduler-era
//! extensions: ASHA (asynchronous successive halving) and the noise-aware
//! re-evaluation mitigation. Every method runs as an ask/tell scheduler
//! under [`drive`]'s [`Clock::Barrier`] against a [`BatchFederatedObjective`];
//! there is no other tuning path.

use crate::context::BenchmarkContext;
use crate::engine::TrialRunner;
use crate::experiments::proxy::proxy_rs;
use crate::experiments::SeedChannel;
use crate::noise::NoiseConfig;
use crate::objective::{selected_true_error, BatchFederatedObjective, ObjectiveLogEntry};
use crate::pool::TrainedBenchmark;
use crate::report::{ExperimentReport, SeriesGroup, SeriesPoint};
use crate::scale::ExperimentScale;
use crate::scheduler::{drive, Clock, Drive};
use crate::Result;
use feddata::Benchmark;
use fedhpo::{Asha, Hyperband, RandomSearch, ReEvaluation, Scheduler, Tpe};
use fedmath::SeedTree;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The HP-tuning methods compared throughout the paper (RS, TPE, HB, BOHB)
/// plus the scheduler-era extensions (ASHA and ASHA with the re-evaluation
/// mitigation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TuningMethod {
    /// Random search (simple baseline).
    RandomSearch,
    /// Tree-structured Parzen Estimator (Bayesian optimization).
    Tpe,
    /// Hyperband (early stopping).
    Hyperband,
    /// BOHB (hybrid of TPE and Hyperband).
    Bohb,
    /// ASHA: asynchronous successive halving, promotions computed per rung
    /// from whatever results have arrived.
    Asha,
    /// ASHA wrapped in the noise-aware re-evaluation policy: top-k survivors
    /// are re-evaluated with fresh noise draws before selection (§5).
    AshaReEval,
    /// The ASHA ladder run genuinely asynchronously: under the event-driven
    /// driver the scheduler is re-polled on every completion, so promotions
    /// fire without rung barriers. Deliberately *not* part of
    /// [`EXTENDED`](Self::EXTENDED): asynchronous promotion acts on partial
    /// rungs, so its selections legitimately differ from the barrier
    /// drivers'.
    AsyncAsha,
}

impl TuningMethod {
    /// The four methods in the paper's plotting order.
    pub const ALL: [TuningMethod; 4] = [
        TuningMethod::RandomSearch,
        TuningMethod::Tpe,
        TuningMethod::Hyperband,
        TuningMethod::Bohb,
    ];

    /// The paper's four methods plus the scheduler-era extensions.
    pub const EXTENDED: [TuningMethod; 6] = [
        TuningMethod::RandomSearch,
        TuningMethod::Tpe,
        TuningMethod::Hyperband,
        TuningMethod::Bohb,
        TuningMethod::Asha,
        TuningMethod::AshaReEval,
    ];

    /// Short display name (`RS`, `TPE`, `HB`, `BOHB`, `ASHA`, `ASHA+RE`,
    /// `ASHA-ASYNC`).
    pub fn name(&self) -> &'static str {
        match self {
            TuningMethod::RandomSearch => "RS",
            TuningMethod::Tpe => "TPE",
            TuningMethod::Hyperband => "HB",
            TuningMethod::Bohb => "BOHB",
            TuningMethod::Asha => "ASHA",
            TuningMethod::AshaReEval => "ASHA+RE",
            TuningMethod::AsyncAsha => "ASHA-ASYNC",
        }
    }

    /// The ASHA ladder at the given scale, `(num_configs, eta, min, max)`:
    /// as many starting configurations as Hyperband's most exploratory
    /// bracket would sample, the same rung spacing
    /// (`min = R / η^(brackets-1)`), and the full per-config budget at the
    /// top rung.
    fn asha_ladder(scale: &ExperimentScale) -> (usize, usize, usize, usize) {
        let eta = scale.eta.max(2) as f64;
        let min_resource = ((scale.rounds_per_config as f64)
            / eta.powi(scale.num_brackets.saturating_sub(1) as i32))
        .round()
        .max(1.0) as usize;
        (
            scale.num_configs * scale.eta,
            scale.eta,
            min_resource.min(scale.rounds_per_config),
            scale.rounds_per_config,
        )
    }

    /// The synchronous ASHA ladder at the given scale.
    fn asha(scale: &ExperimentScale) -> fedhpo::Result<Asha> {
        let (n, eta, min, max) = Self::asha_ladder(scale);
        Asha::new(n, eta, min, max)
    }

    /// The re-evaluation mitigation at the given scale: the top quarter of
    /// the searched configurations (at least 2), three fresh draws each,
    /// around the ASHA ladder.
    fn asha_reeval(scale: &ExperimentScale) -> fedhpo::Result<ReEvaluation<Asha>> {
        ReEvaluation::new(Self::asha(scale)?, (scale.num_configs / 4).max(2), 3)
    }

    /// Hyperband at the scale's budgets: η and bracket count from the scale.
    fn hyperband(scale: &ExperimentScale) -> fedhpo::Result<Hyperband> {
        Hyperband::new(scale.rounds_per_config, scale.eta, Some(scale.num_brackets))
    }

    /// Builds the ask/tell scheduler for this method at the given scale —
    /// the state machine driven by [`run_method_comparison`]. RS and TPE
    /// search `K` configurations at full fidelity, BOHB runs on Hyperband's
    /// ladder, and async ASHA on the synchronous one.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn scheduler(&self, scale: &ExperimentScale) -> fedhpo::Result<Box<dyn Scheduler>> {
        let (k, rounds) = (scale.num_configs, scale.rounds_per_config);
        Ok(match self {
            TuningMethod::RandomSearch => Box::new(RandomSearch::new(k, rounds)?),
            TuningMethod::Tpe => Box::new(Tpe::new(k, rounds)?),
            TuningMethod::Hyperband => Box::new(Self::hyperband(scale)?),
            TuningMethod::Bohb => Box::new(Hyperband::bohb(
                rounds,
                scale.eta,
                Some(scale.num_brackets),
            )?),
            TuningMethod::Asha => Box::new(Self::asha(scale)?),
            TuningMethod::AshaReEval => Box::new(Self::asha_reeval(scale)?),
            TuningMethod::AsyncAsha => {
                let (n, eta, min, max) = Self::asha_ladder(scale);
                Box::new(Asha::asynchronous(n, eta, min, max)?)
            }
        })
    }

    /// Number of objective evaluations the method plans to perform — the DP
    /// composition length `M` used to calibrate Laplace noise; `0` at a
    /// scale no [`scheduler`](Self::scheduler) can be built for. For
    /// [`AsyncAsha`](Self::AsyncAsha) this is the *nominal* rung-synchronous
    /// plan (shared with [`Asha`](Self::Asha) so the sync and async variants
    /// face comparable noise); an event-driven async campaign may exceed it
    /// by promoting on partial rungs (see [`Asha::planned_evaluations`]).
    pub fn planned_evaluations(&self, scale: &ExperimentScale) -> usize {
        let planned = match self {
            TuningMethod::RandomSearch | TuningMethod::Tpe => Ok(scale.num_configs),
            TuningMethod::Hyperband | TuningMethod::Bohb => {
                Self::hyperband(scale).map(|hb| hb.planned_evaluations())
            }
            TuningMethod::Asha | TuningMethod::AsyncAsha => {
                Self::asha(scale).map(|asha| asha.planned_evaluations())
            }
            TuningMethod::AshaReEval => {
                Self::asha_reeval(scale).map(|policy| policy.planned_evaluations())
            }
        };
        planned.unwrap_or(0)
    }
}

impl std::fmt::Display for TuningMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tuning run: a method, a noise setting, a trial index, and the full
/// objective log (noisy score and true error of every evaluation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Method name.
    pub method: String,
    /// Noise-setting label (`"noiseless"` or `"noisy"`).
    pub noise_label: String,
    /// Trial index.
    pub trial: usize,
    /// The objective log, in evaluation order.
    pub log: Vec<ObjectiveLogEntry>,
}

impl MethodRun {
    /// True error of the configuration the tuner would select within the
    /// given round budget: the lowest noisy score among evaluations completed
    /// by then — or, when the run carries fresh-noise re-evaluations
    /// (`noise_rep >= 1`), the survivor with the best *mean* re-evaluation
    /// score (the §5 mitigation). `None` if nothing was evaluated within the
    /// budget.
    pub fn selected_true_error_within(&self, budget: usize) -> Option<f64> {
        selected_true_error(&self.log, budget)
    }
}

/// The full method-comparison campaign on one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodComparison {
    /// Benchmark the comparison was run on.
    pub benchmark: String,
    /// All runs (method × noise setting × trial).
    pub runs: Vec<MethodRun>,
    /// The budget grid (total training rounds) used for online curves.
    pub budget_grid: Vec<usize>,
}

impl MethodComparison {
    /// The comparison of `runs`, with online curves reported over the
    /// scale's budget grid.
    fn over_budget_grid(
        benchmark: Benchmark,
        scale: &ExperimentScale,
        runs: Vec<MethodRun>,
    ) -> Self {
        let grid_steps = scale.num_configs.max(4);
        MethodComparison {
            benchmark: benchmark.name().to_string(),
            runs,
            budget_grid: (1..=grid_steps)
                .map(|i| i * scale.total_budget / grid_steps)
                .collect(),
        }
    }

    /// The runs of `methods` as a comparison of their own. Cells are seeded
    /// by grid position and the grid is method-major, so restricting an
    /// [`EXTENDED`](TuningMethod::EXTENDED) comparison to
    /// [`ALL`](TuningMethod::ALL) (its leading methods) gives, bit for bit,
    /// the comparison run over `ALL` alone.
    pub fn only(&self, methods: &[TuningMethod]) -> MethodComparison {
        MethodComparison {
            benchmark: self.benchmark.clone(),
            runs: self
                .runs
                .iter()
                .filter(|run| methods.iter().any(|m| m.name() == run.method))
                .cloned()
                .collect(),
            budget_grid: self.budget_grid.clone(),
        }
    }

    /// Distinct (method, noise) pairs present in the runs, in insertion order.
    fn run_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<(String, String)> = Vec::new();
        for run in &self.runs {
            let key = (run.method.clone(), run.noise_label.clone());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Fig. 8 online curves: per (method, noise) series of the selected
    /// configuration's true error over the budget grid, summarised over
    /// trials. Budget points where no trial has evaluated anything yet are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn online_curves(&self) -> Result<Vec<SeriesGroup>> {
        let mut groups = Vec::new();
        for (method, noise) in self.run_keys() {
            let runs: Vec<&MethodRun> = self
                .runs
                .iter()
                .filter(|r| r.method == method && r.noise_label == noise)
                .collect();
            let mut points = Vec::new();
            for &budget in &self.budget_grid {
                let errors: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.selected_true_error_within(budget))
                    .collect();
                if errors.is_empty() {
                    continue;
                }
                points.push(SeriesPoint::from_error_rates(
                    budget as f64,
                    format!("{budget} rounds"),
                    &errors,
                )?);
            }
            groups.push(SeriesGroup {
                name: format!("{method} ({noise})"),
                points,
            });
        }
        Ok(groups)
    }

    /// Fig. 15/16 bars: the selected configuration's true error at the given
    /// round budget, per (method, noise), summarised over trials.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn bars_at(&self, budget: usize) -> Result<Vec<SeriesGroup>> {
        let mut groups = Vec::new();
        for (method, noise) in self.run_keys() {
            let errors: Vec<f64> = self
                .runs
                .iter()
                .filter(|r| r.method == method && r.noise_label == noise)
                .filter_map(|r| r.selected_true_error_within(budget))
                .collect();
            if errors.is_empty() {
                continue;
            }
            groups.push(SeriesGroup {
                name: format!("{method} ({noise})"),
                points: vec![SeriesPoint::from_error_rates(
                    budget as f64,
                    format!("{budget} rounds"),
                    &errors,
                )?],
            });
        }
        Ok(groups)
    }

    /// Renders the Fig. 8 online curves.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn to_online_report(&self) -> Result<ExperimentReport> {
        let mut report = ExperimentReport::new(
            "fig8",
            format!(
                "Online performance of RS/TPE/HB/BOHB on {} (Fig. 8)",
                self.benchmark
            ),
        );
        for group in self.online_curves()? {
            report.push_group(group);
        }
        Ok(report)
    }

    /// Renders the Fig. 15 (one-third budget) or Fig. 16 (full budget) bars.
    ///
    /// # Errors
    ///
    /// Propagates summary failures.
    pub fn to_bars_report(&self, id: &str, budget: usize) -> Result<ExperimentReport> {
        let mut report = ExperimentReport::new(
            id,
            format!(
                "Method comparison at {budget} training rounds on {} (Fig. 15/16)",
                self.benchmark
            ),
        );
        for group in self.bars_at(budget)? {
            report.push_group(group);
        }
        Ok(report)
    }
}

/// The standard pair of noise settings compared in Fig. 1/8/15/16:
/// noiseless evaluation vs. 1% client subsampling with ε = 100 DP.
pub fn paper_noise_settings() -> Vec<(String, NoiseConfig)> {
    vec![
        ("noiseless".to_string(), NoiseConfig::noiseless()),
        ("noisy".to_string(), NoiseConfig::paper_noisy()),
    ]
}

/// One campaign of the comparison's (method × noise setting × trial) grid,
/// as [`comparison`] hands it out.
pub struct Campaign<'a> {
    /// The method (the scheduler handed out with the cell is its state
    /// machine at the comparison's scale).
    pub method: TuningMethod,
    /// The noise setting's label.
    pub noise_label: &'a str,
    /// The noise setting's configuration.
    pub noise: &'a NoiseConfig,
    /// The positional seed of the campaign's objective.
    pub objective_seed: u64,
}

/// Enumerates the comparison's campaign grid — method-major, then
/// noise setting, then trial — and assembles what `campaign` logs for each
/// cell. Every cell gets a fresh scheduler and positional seeds (the
/// engine's: fan-out rooted at [`SeedChannel::Methods`], cell `i` on child
/// `i`, objective on channel 0, scheduler RNG on channel 1), so live,
/// recorded and replayed comparisons (`fedstore`) differ only in the
/// objective `campaign` evaluates.
///
/// # Errors
///
/// Propagates scheduler construction failures and `campaign`'s.
pub fn comparison(
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
    mut campaign: impl FnMut(
        &Campaign<'_>,
        &mut dyn Scheduler,
        &mut StdRng,
    ) -> Result<Vec<ObjectiveLogEntry>>,
) -> Result<MethodComparison> {
    let tree = SeedTree::new(SeedChannel::Methods.seed(seed));
    let mut runs = Vec::new();
    for &method in methods {
        for (noise_label, noise) in noise_settings {
            for trial in 0..scale.method_trials {
                let unit = tree.child(runs.len() as u64);
                let cell = Campaign {
                    method,
                    noise_label,
                    noise,
                    objective_seed: unit.child(0).seed(),
                };
                let mut scheduler = method.scheduler(scale)?;
                runs.push(MethodRun {
                    method: method.name().to_string(),
                    noise_label: noise_label.clone(),
                    trial,
                    log: campaign(&cell, scheduler.as_mut(), &mut unit.child(1).rng())?,
                });
            }
        }
    }
    Ok(MethodComparison::over_budget_grid(benchmark, scale, runs))
}

/// Runs the method comparison on one benchmark: every (method × noise
/// setting × `method_trials`) campaign is driven batch by batch
/// ([`Clock::Barrier`]), each suggested batch evaluated on
/// `runner.policy().pool_threads()` real threads
/// against a [`BatchFederatedObjective`]. Campaign seeds are positional
/// (derived from the unit's grid position), and all evaluation randomness is
/// keyed by request coordinates, so sequential and parallel runners produce
/// **bit-identical** comparisons (`tests/determinism.rs`).
///
/// Campaigns run one after another; the parallelism lives *inside* each
/// campaign's batches — RS suggests its whole schedule as one batch,
/// HB/BOHB/ASHA suggest whole rungs, TPE proposes one configuration at a
/// time.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_method_comparison(
    runner: &TrialRunner,
    benchmark: Benchmark,
    scale: &ExperimentScale,
    methods: &[TuningMethod],
    noise_settings: &[(String, NoiseConfig)],
    seed: u64,
) -> Result<MethodComparison> {
    let ctx = BenchmarkContext::new(benchmark, scale, seed)?;
    let config = Drive {
        threads: runner.policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };
    comparison(
        benchmark,
        scale,
        methods,
        noise_settings,
        seed,
        |cell, scheduler, rng| {
            let planned = cell.method.planned_evaluations(scale);
            let mut objective =
                BatchFederatedObjective::new(&ctx, *cell.noise, planned, cell.objective_seed)?;
            drive(scheduler, ctx.space(), &mut objective, rng, &config)?;
            objective.log(config.threads)
        },
    )
}

/// The Fig. 1 headline: method bars on CIFAR10-like at one third of the
/// budget, noiseless vs. noisy, plus the proxy-RS reference (which is
/// unaffected by evaluation noise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineResult {
    /// Bars for the four tuning methods.
    pub method_bars: Vec<SeriesGroup>,
    /// Full-validation error (percent) of one-shot proxy RS over the
    /// bootstrap trials.
    pub proxy_rs: fedmath::stats::QuartileSummary,
    /// The round budget the bars are evaluated at (one third of the total).
    pub budget: usize,
}

impl HeadlineResult {
    /// Renders Fig. 1.
    pub fn to_report(&self) -> ExperimentReport {
        let mut report = ExperimentReport::new(
            "fig1",
            "Headline: tuning methods under noise vs. proxy RS on CIFAR10-like (Fig. 1)",
        );
        for group in &self.method_bars {
            report.push_group(group.clone());
        }
        report.push_group(SeriesGroup {
            name: "RS (proxy)".into(),
            points: vec![SeriesPoint {
                x: self.budget as f64,
                x_label: format!("{} rounds", self.budget),
                summary: self.proxy_rs,
            }],
        });
        report
            .push_note("proxy RS tunes on FEMNIST-like data and is unaffected by evaluation noise");
        report
    }
}

/// The Fig. 1 headline from what its caller already has: the bars of
/// `comparison` (the CIFAR10-like method comparison Fig. 8 draws) at one
/// third of the budget, and one-shot proxy RS over `trained` with
/// FEMNIST-like as the proxy (the best proxy for CIFAR10 in Fig. 11).
///
/// # Errors
///
/// Propagates summary failures; returns [`crate::CoreError::InvalidConfig`]
/// if `trained` lacks either benchmark.
pub fn run_headline(
    runner: &TrialRunner,
    comparison: &MethodComparison,
    trained: &[TrainedBenchmark],
) -> Result<HeadlineResult> {
    let client = TrainedBenchmark::find(trained, Benchmark::Cifar10Like)?;
    let proxy = TrainedBenchmark::find(trained, Benchmark::FemnistLike)?;
    let scale = client.scale();
    let budget = (scale.total_budget / 3).max(scale.rounds_per_config);
    Ok(HeadlineResult {
        method_bars: comparison.bars_at(budget)?,
        proxy_rs: proxy_rs(runner, proxy, client)?,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_method_metadata() {
        assert_eq!(TuningMethod::ALL.len(), 4);
        assert_eq!(TuningMethod::EXTENDED.len(), 6);
        assert_eq!(TuningMethod::RandomSearch.name(), "RS");
        assert_eq!(TuningMethod::Bohb.to_string(), "BOHB");
        assert_eq!(TuningMethod::Asha.name(), "ASHA");
        assert_eq!(TuningMethod::AshaReEval.to_string(), "ASHA+RE");
        let scale = ExperimentScale::smoke();
        assert_eq!(
            TuningMethod::RandomSearch.planned_evaluations(&scale),
            scale.num_configs
        );
        assert!(TuningMethod::Hyperband.planned_evaluations(&scale) > 0);
        assert!(TuningMethod::Asha.planned_evaluations(&scale) > 0);
        // The re-evaluation wrapper adds exactly top_k × reps evaluations.
        assert!(
            TuningMethod::AshaReEval.planned_evaluations(&scale)
                > TuningMethod::Asha.planned_evaluations(&scale)
        );
        for m in TuningMethod::EXTENDED {
            assert!(m.scheduler(&scale).is_ok());
        }
    }

    /// FNV-1a over every delivered record's `(trial, resource, rep, config
    /// bits, score bits)`.
    fn stream_digest(outcome: &fedhpo::TuningOutcome) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in outcome.records() {
            fold(r.trial_id as u64);
            fold(r.resource as u64);
            fold(r.noise_rep);
            for value in r.config.values() {
                fold(value.to_bits());
            }
            fold(r.score.to_bits());
        }
        digest
    }

    #[test]
    fn planned_evaluations_match_what_the_scheduler_suggests() {
        // `M` calibrates the Laplace scale, so a plan that drifts from the
        // schedule silently mis-states ε. The delivered stream of every
        // method is pinned per scale: a refactor of a scheduler moves no bit.
        const PINS: [[u64; 7]; 3] = [
            [
                0x6bdd_e1b5_3719_aeea,
                0x6bdd_e1b5_3719_aeea,
                0xaf11_b8e4_a93a_a65e,
                0xaf11_b8e4_a93a_a65e,
                0x9d60_1ca4_f833_b9f4,
                0x74cb_2ae6_7bea_5045,
                0x9d60_1ca4_f833_b9f4,
            ],
            [
                0x5426_b078_ad44_383d,
                0x7df9_dce4_299a_6a41,
                0xb249_956e_8b7f_aa09,
                0x8427_bcc8_a768_770f,
                0x44e2_f8e4_560f_e5fc,
                0x8f37_c5cb_31b7_71e1,
                0x44e2_f8e4_560f_e5fc,
            ],
            [
                0x497d_7d54_0381_7111,
                0x1aa2_934f_5a9f_12b8,
                0xf19d_d41b_1778_5b58,
                0x0062_dbcf_0503_1892,
                0x1dff_23a9_c121_0d21,
                0x61b6_1e7a_0ce0_a533,
                0x1dff_23a9_c121_0d21,
            ],
        ];
        let space = fedhpo::SearchSpace::paper_default();
        for (scale, pins) in [
            ExperimentScale::smoke(),
            ExperimentScale::default_scale(),
            ExperimentScale::paper(),
        ]
        .into_iter()
        .zip(PINS)
        {
            let methods = TuningMethod::EXTENDED
                .into_iter()
                .chain([TuningMethod::AsyncAsha]);
            for (method, pin) in methods.zip(pins) {
                let run = crate::scheduler::drive(
                    method.scheduler(&scale).unwrap().as_mut(),
                    &space,
                    &mut crate::concurrent::tests::AnalyticObjective::default(),
                    &mut fedmath::rng::rng_for(0, 0),
                    &crate::scheduler::Drive::new(crate::scheduler::Clock::Barrier),
                )
                .unwrap();
                assert_eq!(
                    run.outcome.num_evaluations(),
                    method.planned_evaluations(&scale),
                    "{method} at {scale:?}"
                );
                assert_eq!(stream_digest(&run.outcome), pin, "{method} at {scale:?}");
            }
        }
    }

    #[test]
    fn comparison_covers_extended_methods() {
        let scale = ExperimentScale::smoke();
        let noise_settings = paper_noise_settings();
        let comparison = run_method_comparison(
            &TrialRunner::new(crate::ExecutionPolicy::parallel()),
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &noise_settings,
            1,
        )
        .unwrap();
        assert_eq!(comparison.runs.len(), 6 * 2 * scale.method_trials);
        for run in &comparison.runs {
            assert!(
                !run.log.is_empty(),
                "{} produced no evaluations",
                run.method
            );
            assert!(run
                .selected_true_error_within(usize::MAX)
                .is_some_and(|e| (0.0..=1.5).contains(&e)));
        }
        // The re-evaluation runs carry fresh-noise replicates; others do not.
        for run in &comparison.runs {
            let has_reps = run.log.iter().any(|e| e.noise_rep >= 1);
            assert_eq!(has_reps, run.method == "ASHA+RE", "{}", run.method);
        }
        let bars = comparison.bars_at(scale.total_budget).unwrap();
        assert_eq!(bars.len(), 12);
        let report = comparison.to_online_report().unwrap();
        assert!(report.to_table().contains("ASHA (noisy)"));
        assert!(report.to_table().contains("ASHA+RE (noisy)"));
    }

    #[test]
    fn the_paper_methods_are_the_leading_cells_of_the_extended_comparison() {
        let scale = ExperimentScale::smoke();
        let noise_settings = paper_noise_settings();
        let run = |methods: &[TuningMethod]| {
            run_method_comparison(
                &TrialRunner::from_env(),
                Benchmark::Cifar10Like,
                &scale,
                methods,
                &noise_settings,
                4,
            )
            .unwrap()
        };
        let (paper, extended) = (run(&TuningMethod::ALL), run(&TuningMethod::EXTENDED));
        let leading = TuningMethod::ALL.len() * noise_settings.len() * scale.method_trials;
        assert_eq!(paper.runs.len(), leading);
        assert_eq!(paper.runs, extended.runs[..leading]);
        assert_eq!(extended.only(&TuningMethod::ALL), paper);
    }

    #[test]
    fn method_comparison_smoke_run() {
        let scale = ExperimentScale::smoke();
        let noise_settings = paper_noise_settings();
        let comparison = run_method_comparison(
            &TrialRunner::from_env(),
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::ALL,
            &noise_settings,
            0,
        )
        .unwrap();
        assert_eq!(comparison.benchmark, "cifar10-like");
        // 4 methods x 2 noise settings x method_trials runs.
        assert_eq!(comparison.runs.len(), 4 * 2 * scale.method_trials);
        assert!(!comparison.budget_grid.is_empty());
        for run in &comparison.runs {
            assert!(
                !run.log.is_empty(),
                "{} produced no evaluations",
                run.method
            );
        }

        let curves = comparison.online_curves().unwrap();
        assert_eq!(curves.len(), 8);
        let bars = comparison.bars_at(scale.total_budget).unwrap();
        assert_eq!(bars.len(), 8);
        for bar in &bars {
            let median = bar.points[0].summary.median;
            assert!(
                (0.0..=100.0).contains(&median),
                "{}: median {median}",
                bar.name
            );
        }
        let report = comparison.to_online_report().unwrap();
        assert!(report.to_table().contains("RS (noiseless)"));
        let report = comparison
            .to_bars_report("fig16", scale.total_budget)
            .unwrap();
        assert!(report.to_table().contains("BOHB"));
    }

    #[test]
    fn selected_error_respects_budget() {
        let run = MethodRun {
            method: "RS".into(),
            noise_label: "noiseless".into(),
            trial: 0,
            log: vec![
                ObjectiveLogEntry {
                    trial_id: 0,
                    resource: 5,
                    noisy_score: 0.5,
                    true_error: 0.5,
                    cumulative_rounds: 5,
                    noise_rep: 0,
                    sim_time: 0.0,
                },
                ObjectiveLogEntry {
                    trial_id: 1,
                    resource: 5,
                    noisy_score: 0.2,
                    true_error: 0.3,
                    cumulative_rounds: 10,
                    noise_rep: 0,
                    sim_time: 0.0,
                },
            ],
        };
        assert_eq!(run.selected_true_error_within(5), Some(0.5));
        assert_eq!(run.selected_true_error_within(10), Some(0.3));
        assert_eq!(run.selected_true_error_within(1), None);
    }
}
