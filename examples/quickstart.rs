//! Quickstart: tune FedAdam hyperparameters on a synthetic federated dataset
//! with random search, first with clean evaluation and then with the noisy
//! evaluation a real cross-device system would provide.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use feddata::Benchmark;
use fedhpo::RandomSearch;
use fedtune::fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    TrialRunner,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CPU-sized CIFAR10-like federation: ~220 clients with Dirichlet(0.1)
    // label skew, an MLP classifier, and the paper's Appendix B search space.
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 7)?;
    println!(
        "dataset: {} ({} train clients, {} validation clients)",
        ctx.dataset().name(),
        ctx.dataset().num_train_clients(),
        ctx.dataset().num_val_clients()
    );

    // A tuning method is an ask/tell scheduler; `drive` runs it against the
    // objective batch by batch, evaluating each suggested batch on `threads`
    // real threads (FEDTUNE_THREADS; results are bit-identical at any count).
    // Both campaigns start from a clone of one fresh scheduler.
    let tuner = RandomSearch::new(scale.num_configs, scale.rounds_per_config)?;
    let config = Drive {
        threads: TrialRunner::from_env().policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };

    // 1. Tune with clean (full-population) evaluation.
    let mut clean_objective =
        BatchFederatedObjective::new(&ctx, NoiseConfig::noiseless(), scale.num_configs, 1)?;
    let mut rng = fedmath::rng::rng_for(7, 0);
    drive(
        &mut tuner.clone(),
        ctx.space(),
        &mut clean_objective,
        &mut rng,
        &config,
    )?;
    let clean_error = clean_objective
        .sink
        .selected_true_error_within(usize::MAX)
        .expect("at least one evaluation");

    // 2. Tune with the paper's noisy evaluation: 1% of validation clients per
    //    evaluation and epsilon = 100 differential privacy.
    let mut noisy_objective =
        BatchFederatedObjective::new(&ctx, NoiseConfig::paper_noisy(), scale.num_configs, 1)?;
    let mut rng = fedmath::rng::rng_for(7, 1);
    drive(
        &mut tuner.clone(),
        ctx.space(),
        &mut noisy_objective,
        &mut rng,
        &config,
    )?;
    let noisy_error = noisy_objective
        .sink
        .selected_true_error_within(usize::MAX)
        .expect("at least one evaluation");

    println!(
        "random search, clean evaluation : {:.1}% full validation error",
        clean_error * 100.0
    );
    println!(
        "random search, noisy evaluation : {:.1}% full validation error",
        noisy_error * 100.0
    );
    println!(
        "(noisy evaluation typically selects a worse configuration — the paper's core finding)"
    );
    Ok(())
}
