//! What a noisy campaign's validation costs, and who pays it: a noisy
//! evaluation scores the clients its draw samples and nothing else, and a
//! re-evaluation campaign (`top_k × reps` fresh-noise replicates of
//! unchanged models, §5 of the paper) pays one full validation pass per
//! `(trial, fidelity)` only when its log is read — inline and on a pool
//! alike, with bit-identical logs.
//!
//! This file holds a single test on purpose: it reads deltas of the
//! process-global `sim.validation_passes` and `sim.clients_evaluated`
//! counters, which tests sharing a binary (and therefore a process) would
//! perturb.

use feddata::{Benchmark, Split};
use fedsim::sampling::clients_for_rate;
use fedsim::{ClientFrame, PoolFrame};
use fedtune_core::experiments::methods::TuningMethod;
use fedtune_core::experiments::stragglers::straggler_cost_model;
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    ObjectiveLogEntry, VirtualExecution,
};
use std::collections::BTreeSet;

const SEED: u64 = 7;

/// `(validation passes, clients evaluated)` so far, process-wide.
fn validation_work() -> (u64, u64) {
    let registry = fedtrace::global().registry();
    (
        registry.counter("sim.validation_passes").value(),
        registry.counter("sim.clients_evaluated").value(),
    )
}

/// The validation work `f` did.
fn work_of<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = validation_work();
    let out = f();
    let after = validation_work();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// What one ASHA + re-evaluation campaign on `threads` real threads cost:
/// its log, then the validation work of driving it, of reading its log and
/// of reading it again.
struct Costs {
    log: Vec<ObjectiveLogEntry>,
    driving: (u64, u64),
    reading: (u64, u64),
    rereading: (u64, u64),
}

fn campaign(ctx: &BenchmarkContext, scale: &ExperimentScale, threads: usize) -> Costs {
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
    let (outcome, driving) = work_of(|| {
        drive(
            scheduler.as_mut(),
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .unwrap()
    });
    assert!(outcome.finished);
    let (log, reading) = work_of(|| objective.log(threads).unwrap().to_vec());
    let (again, rereading) = work_of(|| objective.log(threads).unwrap().to_vec());
    assert_eq!(log, again);
    Costs {
        log,
        driving,
        reading,
        rereading,
    }
}

#[test]
fn re_evaluation_pays_one_validation_pass_per_trial_and_fidelity() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, SEED).unwrap();
    let pool = PoolFrame::new(ctx.dataset(), Split::Validation).num_clients();
    let cohort = clients_for_rate(pool as usize, NoiseConfig::paper_noisy().subsample_rate);
    let cohort = cohort.unwrap() as u64;
    assert!(cohort < pool, "the paper's noise samples a strict subset");

    let blocking = campaign(&ctx, &scale, 1);
    let concurrent = campaign(&ctx, &scale, 4);

    let evaluations = blocking.log.len() as u64;
    let points: BTreeSet<(usize, usize)> = blocking
        .log
        .iter()
        .map(|e| (e.trial_id, e.resource))
        .collect();
    let points = points.len() as u64;
    let replicates = blocking.log.iter().filter(|e| e.noise_rep >= 1).count();
    assert!(replicates >= 4, "the campaign must re-evaluate survivors");
    assert_eq!(points + replicates as u64, evaluations);
    for costs in [&blocking, &concurrent] {
        // Unread, the campaign scored Σ|S| clients, one cohort pass per
        // evaluation, and no full pass.
        assert_eq!(costs.driving, (evaluations, evaluations * cohort));
        // Reading the log paid one full pass per `(trial, fidelity)` ...
        assert_eq!(costs.reading, (points, points * pool));
        // ... once.
        assert_eq!(costs.rereading, (0, 0));
    }

    assert_eq!(blocking.log, concurrent.log);
    for (a, b) in blocking.log.iter().zip(&concurrent.log) {
        assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
        assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
    }
}
