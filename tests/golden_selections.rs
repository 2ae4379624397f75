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
    ("noiseless", 0, 16, 0x3fe952e0b0ce45fc), // selected true error 0.7913669064748201
    ("noiseless", 1, 16, 0x3fe4f31ba03aef6d), // selected true error 0.6546762589928058
    ("noisy", 0, 16, 0x3fe84a993c63d4c4),     // selected true error 0.759106271695281
    ("noisy", 1, 16, 0x3feb161322918aee),     // selected true error 0.8464446711699034
];

/// Hyperband through the same pinned comparison as
/// [`GOLDEN_SCHEDULED_ASHA`]: seed 3, smoke scale, both paper noise settings.
const GOLDEN_SCHEDULED_HB: [ScheduledGolden; 4] = [
    ("noiseless", 0, 6, 0x3feb654b82c33918), // selected true error 0.8561151079136691
    ("noiseless", 1, 6, 0x3fe5ded952e0b0ce), // selected true error 0.6834532374100719
    ("noisy", 0, 6, 0x3fe3f3b8ed9914cb),     // selected true error 0.6235012665353222
    ("noisy", 1, 6, 0x3fe76e21b2f84c53),     // selected true error 0.732193803358664
];

/// BOHB through the same pinned comparison as [`GOLDEN_SCHEDULED_ASHA`]. At
/// smoke scale no fidelity collects the six observations BOHB's TPE model
/// needs, so BOHB runs Hyperband's campaign draw for draw; `fedhpo`'s
/// `campaign_records_are_pinned` pins the model-driven brackets.
const GOLDEN_SCHEDULED_BOHB: [ScheduledGolden; 4] = [
    ("noiseless", 0, 6, 0x3feb654b82c33918), // selected true error 0.8561151079136691
    ("noiseless", 1, 6, 0x3fe5ded952e0b0ce), // selected true error 0.6834532374100719
    ("noisy", 0, 6, 0x3fe3f3b8ed9914cb),     // selected true error 0.6235012665353222
    ("noisy", 1, 6, 0x3fe76e21b2f84c53),     // selected true error 0.732193803358664
];

const SCHEDULED_SEED: u64 = 3;

/// Runs `method` through the pinned comparison and asserts its selections
/// match `golden`.
fn assert_scheduled_selections(method: TuningMethod, golden: &[ScheduledGolden]) {
    let scale = ExperimentScale::smoke();
    let noise_settings = paper_noise_settings();
    let comparison = run_method_comparison(
        &TrialRunner::sequential(),
        Benchmark::Cifar10Like,
        &scale,
        &[method],
        &noise_settings,
        SCHEDULED_SEED,
    )
    .unwrap();
    let budget = *comparison.budget_grid.last().unwrap();
    assert_eq!(comparison.runs.len(), golden.len());
    // Print every actual before asserting, so a drift in run 0 still shows
    // the full re-baselining table.
    for run in &comparison.runs {
        let selected = run
            .selected_true_error_within(budget)
            .expect("campaign evaluated at least one configuration");
        println!(
            "actual {method}: (\"{}\", {}, {}, 0x{:016x}), // selected true error {}",
            run.noise_label,
            run.trial,
            run.log.len(),
            selected.to_bits(),
            selected,
        );
    }
    for (run, &(noise_label, trial, log_len, bits)) in comparison.runs.iter().zip(golden) {
        let selected = run
            .selected_true_error_within(budget)
            .expect("campaign evaluated at least one configuration");
        assert_eq!(run.method, method.to_string());
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
fn scheduled_asha_selections_are_pinned() {
    assert_scheduled_selections(TuningMethod::Asha, &GOLDEN_SCHEDULED_ASHA);
}

#[test]
fn scheduled_hyperband_selections_are_pinned() {
    assert_scheduled_selections(TuningMethod::Hyperband, &GOLDEN_SCHEDULED_HB);
}

#[test]
fn scheduled_bohb_selections_are_pinned() {
    assert_scheduled_selections(TuningMethod::Bohb, &GOLDEN_SCHEDULED_BOHB);
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
    let mut store = TrialStore::open_segments(&dir).unwrap();
    assert!(!store.is_empty());
    let replayed = replay_method_comparison(
        &mut store,
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
// best score 0.5063022842033957, sim_elapsed 204.44684877987896
const GOLDEN_EVENT_DRIVEN: (usize, usize, u64, u64) =
    (16, 0, 0x3fe033a0d91165d8, 0x40698e4c95cfface);

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
