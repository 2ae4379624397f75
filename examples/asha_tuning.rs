//! ASHA driven batch by batch (the barrier clock): a live federated tuning
//! campaign whose rungs evaluate on every core, plus the noise-aware
//! re-evaluation mitigation on top.
//!
//! ```text
//! cargo run --release --example asha_tuning
//! ```
//!
//! With `FEDTUNE_BENCH_JSON=1` the run writes `BENCH_asha_tuning.json` so
//! both campaigns' wall-clock is tracked alongside the bench harness.
//! `FEDTUNE_THREADS` overrides the driver's real thread count (1 = inline
//! on the calling thread, N = N threads, 0/unset = all cores).

use feddata::Benchmark;
use fedhpo::{Asha, ReEvaluation};
use fedtune::fedtune_core::{
    drive, selected_true_error, BatchFederatedObjective, BenchmarkContext, Clock, Drive,
    ExecutionPolicy, ExperimentScale, NoiseConfig,
};
use fedtune::{fedhpo, fedmath};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0)?;
    let noise = NoiseConfig::paper_noisy();
    let mut summary = fedbench::BenchSummary::new("asha_tuning");

    // An ASHA ladder: 12 configurations, eta = 3, rungs at 2 and 6 rounds.
    let configs = 12;
    let asha = Asha::new(configs, 3, 2, scale.rounds_per_config)?;
    println!(
        "ASHA: {configs} configs, {} rungs, <= {} evaluations",
        asha.num_rungs(),
        asha.planned_evaluations()
    );

    // Plain ASHA under noisy evaluation. Every suggested batch (a whole
    // rung) trains in parallel; results are bit-identical to sequential.
    let mut scheduler = asha.clone();
    let config = Drive {
        threads: ExecutionPolicy::from_env().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };
    let mut objective = BatchFederatedObjective::new(&ctx, noise, asha.planned_evaluations(), 1)?;
    let mut rng = fedmath::rng::rng_for(1, 0);
    let outcome = summary.time("asha_parallel", asha.planned_evaluations() as u64, || {
        drive(
            &mut scheduler,
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .map(|run| run.outcome)
    })?;
    let selected = selected_true_error(&objective.log(config.threads)?, usize::MAX)
        .expect("asha evaluated something");
    println!(
        "ASHA        : {} evaluations, {} rounds, selected config true error {:.2}%",
        outcome.num_evaluations(),
        outcome.total_resource(),
        selected * 100.0
    );

    // The same ladder wrapped in the re-evaluation mitigation: the top-3
    // survivors get 3 fresh noise draws each, and selection averages them.
    let mut scheduler = ReEvaluation::new(asha, 3, 3)?;
    let planned = scheduler.planned_evaluations();
    let mut objective = BatchFederatedObjective::new(&ctx, noise, planned, 1)?;
    let mut rng = fedmath::rng::rng_for(1, 0);
    let outcome = summary.time("asha_reeval_parallel", planned as u64, || {
        drive(
            &mut scheduler,
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .map(|run| run.outcome)
    })?;
    let selected = selected_true_error(&objective.log(config.threads)?, usize::MAX)
        .expect("asha+re evaluated something");
    let reevals = outcome
        .records()
        .iter()
        .filter(|r| r.noise_rep >= 1)
        .count();
    println!(
        "ASHA + re-ev: {} evaluations ({} fresh re-draws), {} rounds, selected true error {:.2}%",
        outcome.num_evaluations(),
        reevals,
        outcome.total_resource(),
        selected * 100.0
    );
    println!("Re-evaluation costs no extra training rounds: the survivors' runs already");
    println!("sit at the top-rung fidelity; only fresh noisy evaluations are drawn.");
    summary.write_if_enabled();
    Ok(())
}
