//! `train_asha`: the paper's own workload. Asynchronous ASHA tunes an MLP on
//! the paper-scale FEMNIST-like federation (3507 training and 360 validation
//! clients) under the paper's noisy evaluation, with eight virtual workers
//! under heavy-tailed client runtimes and real training on the worker
//! threads. Training and full-validation evaluation do nearly all the work
//! here; scheduler, ledger and protocol do almost none.

use crate::harness::{self, Args, Fnv, Rep, Report};
use crate::probes;
use crate::pump::{self, TimedScheduler};
use crate::spans::Spans;
use feddata::{Benchmark, Split};
use fedsim::{FederatedTrainer, TrainerConfig, UniformSampler};
use fedtune_core::experiments::methods::TuningMethod;
use fedtune_core::experiments::stragglers::straggler_cost_model;
use fedtune_core::{
    run_event_driven_concurrent_traced, run_event_driven_traced, BatchFederatedObjective,
    BenchmarkContext, EventDrivenOutcome, ExecutionPolicy, ExperimentScale, NoiseConfig,
    VirtualExecution,
};
use std::time::Instant;

const METHOD: TuningMethod = TuningMethod::AsyncAsha;
const VIRTUAL_WORKERS: usize = 8;

/// What a failed campaign scores as in the latency percentiles.
const FAILED_CAMPAIGN_S: f64 = 60.0;

/// The paper's dataset, model, noise and search space with a shortened
/// ladder: 12 configurations over rungs of 5, 15 and 45 rounds. A paper-scale
/// ladder (48 configurations up to 405 rounds) takes 3 to 5 seconds a
/// campaign on two cores, too few campaigns a run for a steady median; the
/// cost of a round and of an evaluation is the same in both.
fn campaign_scale() -> ExperimentScale {
    ExperimentScale {
        num_configs: 4,
        rounds_per_config: 45,
        total_budget: 180,
        num_brackets: 3,
        ..ExperimentScale::paper()
    }
}

struct Campaigns<'a> {
    ctx: &'a BenchmarkContext,
    scale: ExperimentScale,
    seed: u64,
}

impl<'a> Campaigns<'a> {
    fn campaign_seed(&self, index: u64) -> u64 {
        fedmath::rng::derive_seed(self.seed, 100 + index)
    }

    fn sim(&self, index: u64) -> VirtualExecution {
        let cost = straggler_cost_model(&self.scale, self.campaign_seed(index));
        VirtualExecution::new(VIRTUAL_WORKERS, cost)
    }

    fn objective(&self, index: u64) -> fedtune_core::Result<BatchFederatedObjective<'a>> {
        BatchFederatedObjective::new(
            self.ctx,
            NoiseConfig::paper_noisy(),
            METHOD.planned_evaluations(&self.scale),
            fedmath::rng::derive_seed(self.campaign_seed(index), 0),
        )
    }

    /// The campaign as users run it: every in-flight trial on a real thread.
    fn concurrent(&self, index: u64, threads: usize) -> fedtune_core::Result<EventDrivenOutcome> {
        let mut scheduler = METHOD.scheduler(&self.scale)?;
        let mut objective = self.objective(index)?;
        let mut rng = fedmath::rng::rng_for(self.campaign_seed(index), 1);
        run_event_driven_concurrent_traced(
            scheduler.as_mut(),
            self.ctx.space(),
            &mut objective,
            &mut rng,
            &self.sim(index),
            threads,
            None,
        )
    }

    /// The same campaign through the blocking single-threaded driver: the
    /// reference the concurrent outcome must equal.
    fn blocking(&self, index: u64) -> fedtune_core::Result<EventDrivenOutcome> {
        let mut scheduler = METHOD.scheduler(&self.scale)?;
        let mut objective = self.objective(index)?;
        let mut rng = fedmath::rng::rng_for(self.campaign_seed(index), 1);
        run_event_driven_traced(
            scheduler.as_mut(),
            self.ctx.space(),
            &mut objective,
            &mut rng,
            &self.sim(index),
            None,
        )
    }

    /// The same campaign through the harness pump, recording spans.
    fn pumped(&self, index: u64, spans: &Spans) -> fedtune_core::Result<(EventDrivenOutcome, u64)> {
        let mut scheduler = TimedScheduler::new(METHOD.scheduler(&self.scale)?, spans, index);
        let mut objective = self.objective(index)?;
        let mut rng = fedmath::rng::rng_for(self.campaign_seed(index), 1);
        let outcome = pump::pump(
            spans,
            index,
            &mut scheduler,
            self.ctx.space(),
            &mut objective,
            &mut rng,
            &self.sim(index),
        )?;
        Ok((outcome, scheduler.promotions()))
    }
}

fn digest_outcome(digest: &mut Fnv, outcome: &EventDrivenOutcome) {
    if let Some(best) = outcome.outcome.best() {
        digest.word(best.trial_id as u64);
        digest.word(best.score.to_bits());
    }
    digest.word(outcome.sim_elapsed.to_bits());
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let scale = campaign_scale();
    let (ctx, setup_s) = harness::measure_setup(args.smoke, || {
        BenchmarkContext::new(Benchmark::FemnistLike, &scale, args.seed)
    });
    report.setup_s = setup_s;
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => {
            report.attempted = 1;
            report.fail_check(format!("generating the dataset: {e}"));
            return report;
        }
    };
    let campaigns = Campaigns {
        ctx: &ctx,
        scale,
        seed: args.seed,
    };
    let min_campaigns: u64 = if args.smoke { 2 } else { 8 };

    // Warm-up: campaign 0, which is also the campaign the output check and
    // the traced run repeat. Its counts are fixed by the seed.
    let before = harness::counters();
    let started = Instant::now();
    let first = campaigns.concurrent(0, args.threads);
    let first_wall_s = started.elapsed().as_secs_f64();
    let after = harness::counters();

    let timed_seconds = args.untraced_seconds();
    let mut digest = Fnv::new();
    let mut rounds = 0usize;
    let started = Instant::now();
    let mut index = 1u64;
    while index <= min_campaigns || started.elapsed().as_secs_f64() < timed_seconds {
        report.attempted += 1;
        let cpu_before = harness::cpu_seconds();
        let t = Instant::now();
        match campaigns.concurrent(index, args.threads) {
            Ok(outcome) => {
                let wall_s = t.elapsed().as_secs_f64();
                report.timed.latencies_s.push(wall_s);
                report.timed.reps.push(Rep {
                    wall_s,
                    cpu_s: harness::cpu_seconds() - cpu_before,
                    trials: outcome.outcome.num_evaluations() as u64,
                });
                rounds += outcome.outcome.total_resource();
                if index <= min_campaigns {
                    digest_outcome(&mut digest, &outcome);
                }
                if !outcome.finished {
                    report.fail_check(format!("campaign {index} did not finish its schedule"));
                }
            }
            Err(e) => {
                report.timed.latencies_s.push(FAILED_CAMPAIGN_S);
                report.fail_check(format!("campaign {index}: {e}"));
            }
        }
        index += 1;
    }
    let wall_s = report.timed.wall_s();
    report.digest = digest.0;
    report.notes.push(format!(
        "{} campaigns, {} evaluations, {rounds} training rounds in {:.2} s ({:.1} rounds/s)",
        report.attempted,
        report.timed.trials(),
        wall_s,
        rounds as f64 / wall_s
    ));
    report.layer("fedsim.rounds_per_s", rounds as f64 / wall_s);

    // Output check: the whole outcome of campaign 0 equals the blocking
    // single-threaded driver's.
    report.attempted += 1;
    let started = Instant::now();
    let blocking = campaigns.blocking(0);
    let blocking_wall_s = started.elapsed().as_secs_f64();
    let first = match (first, blocking) {
        (Ok(first), Ok(blocking)) => {
            if first != blocking {
                report
                    .fail_check("campaign 0: the concurrent outcome differs from the blocking one");
            }
            first
        }
        (Err(e), _) | (_, Err(e)) => {
            report.fail_check(format!("campaign 0: {e}"));
            return report;
        }
    };

    if args.trace {
        // Counts of campaign 0, which the seed fixes.
        report.layer_counters(&before, &after, &harness::TRAINING_COUNTERS);
        traced(
            args,
            &campaigns,
            &first,
            first_wall_s,
            blocking_wall_s,
            &mut report,
        );
        report.layer("feddata.generate_s", setup_s);
    }
    report
}

/// Campaign 0 once more through the harness pump with spans on, then the
/// fixed probes at this workload's shapes.
fn traced(
    args: &Args,
    campaigns: &Campaigns<'_>,
    first: &EventDrivenOutcome,
    concurrent_wall_s: f64,
    blocking_wall_s: f64,
    report: &mut Report,
) {
    let spans = Spans::enabled();
    let started = Instant::now();
    let pumped = campaigns.pumped(0, &spans);
    let pump_wall_s = started.elapsed().as_secs_f64();
    match pumped {
        Ok((outcome, promotions)) => {
            if &outcome != first {
                report.fail_check("campaign 0: the pumped outcome differs from the concurrent one");
            }
            pump::layer_metrics(&spans, promotions, report);
        }
        Err(e) => report.fail_check(format!("traced campaign 0: {e}")),
    }
    report.layer(
        "fedsim.pool_efficiency",
        pump_wall_s / (args.threads as f64 * concurrent_wall_s),
    );
    report.layer(
        "harness.trace_overhead_pct",
        (pump_wall_s - blocking_wall_s) / blocking_wall_s * 100.0,
    );
    report.notes.push(format!(
        "campaign 0: concurrent {concurrent_wall_s:.3} s on {} threads, blocking \
         {blocking_wall_s:.3} s, traced pump {pump_wall_s:.3} s",
        args.threads
    ));

    let dataset = campaigns.ctx.dataset();
    let (input, classes) = (dataset.input_dim(), dataset.num_classes());
    let hidden = match campaigns.ctx.model_spec() {
        fedmodels::ModelSpec::Mlp { hidden_dim } => hidden_dim,
        _ => 32,
    };
    // 64 is the middle of the search space's batch sizes.
    report.layer(
        "fedmath.gemm_gflops",
        probes::gemm_gflops(64, input, hidden),
    );
    report.layer(
        "fedmath.softmax_xent_us",
        probes::softmax_xent_us(64, classes),
    );

    let mut by_size: Vec<&feddata::ClientData> = dataset.clients(Split::Train).iter().collect();
    by_size.sort_by_key(|c| c.examples().len());
    let median_client = by_size[by_size.len() / 2];
    let mut rng = fedmath::rng::rng_for(args.seed, 2);
    let model = campaigns.ctx.model_spec().build(dataset, &mut rng);
    report.layer(
        "fedmodels.client_step_us",
        probes::client_step_us(&model, median_client.examples()),
    );

    let noise = NoiseConfig::paper_noisy();
    let trainer = FederatedTrainer::new(TrainerConfig {
        clients_per_round: campaigns.scale.clients_per_round,
        weighting: noise.weighting,
        ..TrainerConfig::default()
    });
    let run = trainer.and_then(|t| t.start(dataset, campaigns.ctx.model_spec(), args.seed));
    match run {
        Ok(mut run) => {
            let round_s = harness::probe_seconds(10, || {
                let _ = run.run_round(dataset);
            });
            report.layer("fedsim.round_ms", round_s * 1e3);
            let sequential = ExecutionPolicy::Sequential;
            let mut full = None;
            let full_s = harness::probe_seconds(2, || {
                full = fedsim::evaluation::evaluate_full_with(
                    &sequential,
                    run.model(),
                    dataset,
                    Split::Validation,
                    noise.weighting,
                )
                .ok();
            });
            report.layer("fedsim.eval_full_ms", full_s * 1e3);
            let validation = dataset.num_val_clients();
            let count = ((validation as f64 * noise.subsample_rate).round() as usize).max(1);
            let subsample_s = harness::probe_seconds(10, || {
                let _ = fedsim::evaluation::evaluate_subsample(
                    run.model(),
                    dataset,
                    Split::Validation,
                    noise.weighting,
                    &UniformSampler,
                    count,
                    None,
                    &mut rng,
                );
            });
            report.layer("fedsim.eval_subsample_ms", subsample_s * 1e3);
            if let Some(full) = full {
                let planned = METHOD.planned_evaluations(&campaigns.scale);
                let noisy_s = harness::probe_seconds(100, || {
                    let _ = fedtune_core::noisy_error(&full, &noise, planned, &mut rng);
                });
                report.layer("fedsim.noisy_error_us", noisy_s * 1e6);
            }
        }
        Err(e) => report.fail_check(format!("round probe: {e}")),
    }

    report.write_trace(args, "train_asha", &spans);
}
