//! Noise mitigation beyond the paper's proxy-data proposal — the §5
//! discussion of "resampling previously seen configurations": plain random
//! search against `ReEvaluation<RandomSearch>` with `top_k = K`, which
//! re-evaluates every searched configuration with fresh noise draws and
//! selects on their mean.
//!
//! Re-evaluations cost extra evaluation rounds and privacy budget but no
//! training rounds, so they are a cheap knob to compare against plain RS.
//!
//! ```text
//! cargo run --release --example noise_mitigation
//! ```

use feddata::Benchmark;
use fedhpo::{RandomSearch, ReEvaluation, Scheduler};
use fedtune::fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    TrialRunner,
};

fn run_tuner(
    ctx: &BenchmarkContext,
    mut tuner: impl Scheduler,
    noise: NoiseConfig,
    evaluations: usize,
    seed: u64,
    config: &Drive<'_>,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut objective = BatchFederatedObjective::new(ctx, noise, evaluations, seed)?;
    let mut rng = fedmath::rng::rng_for(seed, 17);
    drive(&mut tuner, ctx.space(), &mut objective, &mut rng, config)?;
    Ok(objective
        .sink
        .selected_true_error_within(usize::MAX)
        .expect("at least one evaluation"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 21)?;
    // Heavier-than-headline noise so the mitigation has something to mitigate:
    // a single-client subsample per evaluation, non-private.
    let noise = NoiseConfig::subsampled(1.0 / ctx.dataset().num_val_clients() as f64);
    let repeats = 8;
    let trials = 3;
    let config = Drive {
        threads: TrialRunner::from_env().policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };

    println!(
        "single-client evaluation on {} — true error of the selected configuration\n",
        ctx.dataset().name()
    );
    let rs = RandomSearch::new(scale.num_configs, scale.rounds_per_config)?;
    let mut plain_errors = Vec::new();
    let mut repeated_errors = Vec::new();
    for trial in 0..trials {
        let seed = 100 + trial;
        let plain = run_tuner(&ctx, rs.clone(), noise, scale.num_configs, seed, &config)?;
        let repeated = run_tuner(
            &ctx,
            ReEvaluation::new(rs.clone(), scale.num_configs, repeats)?,
            noise,
            scale.num_configs * (1 + repeats),
            seed,
            &config,
        )?;
        println!(
            "trial {trial}: plain RS = {:>5.1}%   RS with {repeats} averaged re-evaluations = {:>5.1}%",
            plain * 100.0,
            repeated * 100.0
        );
        plain_errors.push(plain);
        repeated_errors.push(repeated);
    }
    println!(
        "\nmean over {trials} trials: plain RS = {:.1}%, re-evaluated RS = {:.1}%",
        fedmath::stats::mean(&plain_errors) * 100.0,
        fedmath::stats::mean(&repeated_errors) * 100.0
    );
    println!("Averaging fresh noisy re-evaluations usually recovers part of the loss caused by");
    println!(
        "client subsampling, at the cost of extra evaluation traffic (and, under DP, budget)."
    );
    Ok(())
}
