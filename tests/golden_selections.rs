//! Golden-seed selection regression tests: pin the end-to-end numeric
//! trajectory of the tuning stack — which configuration each campaign
//! selects, and the exact bits of its score — at fixed seeds.
//!
//! The kernel layer promises that optimizations never change results (see
//! `DESIGN.md`, "Kernel layer & buffer pool"). These tests make that promise
//! falsifiable end to end: any change to an accumulation order, a fused
//! operation, or an RNG stream shows up here as a failed bit comparison, and
//! updating the constants becomes an explicit, reviewable re-baselining in
//! the diff rather than a silent drift.
//!
//! To re-baseline after a *conscious* numerics change, run
//! `cargo test --release --test golden_selections -- --nocapture` and copy
//! the printed `actual:` lines over the `GOLDEN_*` tables.

use feddata::Benchmark;
use fedsim::ExecutionPolicy;
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune_core::experiments::stragglers::straggler_cost_model;
use fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, Drive, ExperimentScale, NoiseConfig,
    TrialRunner, VirtualExecution,
};

/// One pinned scheduled run: `(noise_label, trial, log_len, selected-true-error bits)`.
type ScheduledGolden = (&'static str, usize, usize, u64);

/// ASHA through the ask/tell scheduler at seed 3, smoke scale, both paper
/// noise settings × 2 trials. `log_len` pins the evaluation schedule;
/// the final element pins the bits of the true error of the configuration
/// the tuner selects at the full round budget.
const GOLDEN_SCHEDULED_ASHA: [ScheduledGolden; 4] = [
    ("noiseless", 0, 16, 0x3fe8a2126ad1f4f3), // selected true error 0.7697841726618705
    ("noiseless", 1, 16, 0x3fe568fa798dd01d), // selected true error 0.6690647482014388
    ("noisy", 0, 16, 0x3fe79a0ded975c13),     // selected true error 0.7375554695562435
    ("noisy", 1, 16, 0x3feafb79255d37fb),     // selected true error 0.8431974153297682
];

const SCHEDULED_SEED: u64 = 3;

#[test]
fn scheduled_asha_selections_are_pinned() {
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let comparison = run_method_comparison(
        &TrialRunner::sequential(),
        Benchmark::Cifar10Like,
        &scale,
        &[TuningMethod::Asha],
        &noise_settings,
        SCHEDULED_SEED,
    )
    .unwrap();
    let budget = *comparison.budget_grid.last().unwrap();
    assert_eq!(comparison.runs.len(), GOLDEN_SCHEDULED_ASHA.len());
    // Print every actual before asserting, so a drift in run 0 still shows
    // the full re-baselining table.
    for run in &comparison.runs {
        let selected = run
            .selected_true_error_within(budget)
            .expect("campaign evaluated at least one configuration");
        println!(
            "actual: (\"{}\", {}, {}, 0x{:016x}), // selected true error {}",
            run.noise_label,
            run.trial,
            run.log.len(),
            selected.to_bits(),
            selected,
        );
    }
    for (run, &(noise_label, trial, log_len, bits)) in
        comparison.runs.iter().zip(GOLDEN_SCHEDULED_ASHA.iter())
    {
        let selected = run
            .selected_true_error_within(budget)
            .expect("campaign evaluated at least one configuration");
        assert_eq!(run.method, "ASHA");
        assert_eq!(run.noise_label, noise_label);
        assert_eq!(run.trial, trial);
        assert_eq!(run.log.len(), log_len, "evaluation schedule changed");
        assert_eq!(
            selected.to_bits(),
            bits,
            "selected true error drifted: got {selected} (0x{:016x})",
            selected.to_bits(),
        );
    }
}

#[test]
fn segment_backed_record_replay_reproduces_the_pinned_bits() {
    // The same pinned campaign, but recorded through the binary segment
    // ledger and replayed from a fresh reopen: the storage engine — framing,
    // provenance interning, recovery scan, index rebuild — must be invisible
    // in the selection bits.
    use fedstore::{record_method_comparison, replay_method_comparison, TrialStore};
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let dir = std::env::temp_dir().join(format!("fedtune_golden_segments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recorded = {
        let mut store = TrialStore::open_segments(&dir).unwrap();
        record_method_comparison(
            &TrialRunner::sequential(),
            Benchmark::Cifar10Like,
            &scale,
            &[TuningMethod::Asha],
            &noise_settings,
            SCHEDULED_SEED,
            &mut store,
        )
        .unwrap()
    };
    let store = TrialStore::open_segments(&dir).unwrap();
    assert!(!store.is_empty());
    let replayed = replay_method_comparison(
        &store,
        Benchmark::Cifar10Like,
        &scale,
        &[TuningMethod::Asha],
        &noise_settings,
        SCHEDULED_SEED,
    )
    .unwrap();
    assert_eq!(recorded, replayed);
    let budget = *replayed.budget_grid.last().unwrap();
    for (run, &(noise_label, trial, log_len, bits)) in
        replayed.runs.iter().zip(GOLDEN_SCHEDULED_ASHA.iter())
    {
        let selected = run
            .selected_true_error_within(budget)
            .expect("campaign evaluated at least one configuration");
        assert_eq!(run.noise_label, noise_label);
        assert_eq!(run.trial, trial);
        assert_eq!(run.log.len(), log_len, "evaluation schedule changed");
        assert_eq!(
            selected.to_bits(),
            bits,
            "segment-backed replay drifted from the pin: got {selected} (0x{:016x})",
            selected.to_bits(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const EVENT_DRIVEN_SEED: u64 = 5;

/// Async ASHA under the virtual clock at seed 5: pins the number
/// of completed evaluations, the winning trial and the exact bits of its
/// score and of the campaign's virtual elapsed time.
// best score 0.49957875035429833, sim_elapsed 319.327323397931
const GOLDEN_EVENT_DRIVEN: (usize, usize, u64, u64) =
    (16, 1, 0x3fdff91926a316b0, 0x4073f53cb7759545);

/// The pinned async-ASHA campaign on `threads` real threads, summarised as
/// `GOLDEN_EVENT_DRIVEN` is.
fn pinned_campaign(threads: usize) -> (usize, usize, u64, u64) {
    let scale = ExperimentScale::smoke();
    let seed = EVENT_DRIVEN_SEED;
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
    let method = TuningMethod::AsyncAsha;
    let mut scheduler = method.scheduler(&scale).unwrap();
    let mut objective = BatchFederatedObjective::new(
        &ctx,
        NoiseConfig::paper_noisy(),
        method.planned_evaluations(&scale),
        fedmath::rng::derive_seed(seed, 0),
    )
    .unwrap();
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let sim = VirtualExecution::new(3, straggler_cost_model(&scale, seed));
    let config = Drive {
        threads,
        ..Drive::new(Clock::Virtual(sim))
    };
    let result = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut objective,
        &mut rng,
        &config,
    )
    .unwrap();
    assert!(result.finished, "{threads} threads");
    let records = result.outcome.records();
    let best = records
        .iter()
        .min_by(|a, b| a.score.total_cmp(&b.score))
        .expect("at least one completed evaluation");
    println!(
        "actual: ({}, {}, 0x{:016x}, 0x{:016x}), // best score {}, sim_elapsed {}",
        records.len(),
        best.trial_id,
        best.score.to_bits(),
        result.sim_elapsed.to_bits(),
        best.score,
        result.sim_elapsed,
    );
    (
        records.len(),
        best.trial_id,
        best.score.to_bits(),
        result.sim_elapsed.to_bits(),
    )
}

#[test]
fn event_driven_async_asha_selection_is_pinned() {
    // Evaluation count, winning configuration, its score and the elapsed
    // virtual time, inline on the calling thread.
    assert_eq!(pinned_campaign(1), GOLDEN_EVENT_DRIVEN, "pin drifted");
}

#[test]
fn concurrent_executor_reproduces_the_event_driven_pins() {
    // The same pinned campaign with in-flight trials on real threads: they
    // must be invisible in the golden bits. Runs at one thread, eight
    // threads, and whatever FEDTUNE_THREADS asks for (the CI executor-smoke
    // job sets 8), so an env override can never move a pin.
    let env_threads = ExecutionPolicy::from_env().pool_threads();
    for threads in [1usize, 8, env_threads] {
        assert_eq!(
            pinned_campaign(threads),
            GOLDEN_EVENT_DRIVEN,
            "{threads} threads"
        );
    }
}
