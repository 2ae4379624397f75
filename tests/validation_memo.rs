//! The validation memo survives between dispatches: a re-evaluation campaign
//! (`top_k × reps` fresh-noise replicates of unchanged models, §5 of the
//! paper) pays one full validation pass per `(trial, fidelity)` inline and
//! on a pool alike, with bit-identical logs.
//!
//! This file holds a single test on purpose: it reads deltas of the
//! process-global `sim.validation_passes` counter, which tests sharing a
//! binary (and therefore a process) would perturb.

use feddata::Benchmark;
use fedtune_core::experiments::methods::TuningMethod;
use fedtune_core::experiments::stragglers::straggler_cost_model;
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    ObjectiveLogEntry, VirtualExecution,
};
use std::collections::BTreeSet;

const SEED: u64 = 7;

/// Runs the ASHA + re-evaluation campaign on `threads` real threads and
/// returns its log together with the validation passes it performed.
fn campaign(
    ctx: &BenchmarkContext,
    scale: &ExperimentScale,
    threads: usize,
) -> (Vec<ObjectiveLogEntry>, u64) {
    let method = TuningMethod::AshaReEval;
    let mut scheduler = method.scheduler(scale).unwrap();
    let mut objective = BatchFederatedObjective::new(
        ctx,
        NoiseConfig::paper_noisy(),
        method.planned_evaluations(scale),
        fedmath::rng::derive_seed(SEED, 0),
    )
    .unwrap();
    let mut rng = fedmath::rng::rng_for(SEED, 1);
    // Fewer virtual workers than re-evaluation requests, so replicates of
    // one survivor land in different dispatches.
    let sim = VirtualExecution::new(2, straggler_cost_model(scale, SEED));
    let config = Drive {
        threads,
        ..Drive::new(Clock::Virtual(sim))
    };
    let passes = fedtrace::global()
        .registry()
        .counter("sim.validation_passes");
    let before = passes.value();
    let outcome = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut objective,
        &mut rng,
        &config,
    )
    .unwrap();
    assert!(outcome.finished);
    let performed = passes.value() - before;
    (objective.sink.into_log(), performed)
}

#[test]
fn re_evaluation_pays_one_validation_pass_per_trial_and_fidelity() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, SEED).unwrap();

    let (blocking_log, blocking_passes) = campaign(&ctx, &scale, 1);
    let (concurrent_log, concurrent_passes) = campaign(&ctx, &scale, 4);

    let points: BTreeSet<(usize, usize)> = blocking_log
        .iter()
        .map(|e| (e.trial_id, e.resource))
        .collect();
    let replicates = blocking_log.iter().filter(|e| e.noise_rep >= 1).count();
    assert!(replicates >= 4, "the campaign must re-evaluate survivors");
    assert_eq!(points.len() + replicates, blocking_log.len());
    assert_eq!(blocking_passes, points.len() as u64);
    assert_eq!(concurrent_passes, points.len() as u64);

    assert_eq!(blocking_log, concurrent_log);
    for (a, b) in blocking_log.iter().zip(&concurrent_log) {
        assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
        assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
    }
}
