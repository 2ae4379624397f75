//! The `fedstore` acceptance contract: recording a live campaign, replaying
//! it through the tabular surrogate, and resuming an interrupted campaign
//! are all **bit-identical** to the live run.

use fedtune::feddata::Benchmark;
use fedtune::fedhpo::TuningOutcome;
use fedtune::fedmath::rng::derive_seed;
use fedtune::fedstore::{
    campaign_provenance, record_method_comparison, replay_method_comparison, RecordingObjective,
    TabularObjective, TrialStore,
};
use fedtune::fedtune_core::experiments::methods::{paper_noise_settings, TuningMethod};
use fedtune::fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Budget, Clock, Drive, ExecutionPolicy,
    ExperimentScale, NoiseConfig, TrialRunner,
};

fn method_slate() -> [TuningMethod; 3] {
    [
        TuningMethod::RandomSearch,
        TuningMethod::Hyperband,
        TuningMethod::AshaReEval,
    ]
}

#[test]
fn recorded_and_replayed_comparisons_match_the_live_run_bitwise() {
    let scale = ExperimentScale::smoke();
    let methods = method_slate();
    let settings = paper_noise_settings();
    let seed = 11;

    let live = fedtune::fedtune_core::experiments::methods::run_method_comparison(
        &TrialRunner::new(ExecutionPolicy::parallel()),
        Benchmark::Cifar10Like,
        &scale,
        &methods,
        &settings,
        seed,
    )
    .unwrap();

    // Recording the same campaign produces the same comparison and fills the
    // ledger.
    let mut store = TrialStore::in_memory();
    let recorded = record_method_comparison(
        &TrialRunner::new(ExecutionPolicy::parallel()),
        Benchmark::Cifar10Like,
        &scale,
        &methods,
        &settings,
        seed,
        &mut store,
    )
    .unwrap();
    assert_eq!(live, recorded);
    assert!(!store.is_empty());

    // Replaying against the table reproduces logs, selection, and scores —
    // bit for bit, with no simulation.
    let replayed = replay_method_comparison(
        &store,
        Benchmark::Cifar10Like,
        &scale,
        &methods,
        &settings,
        seed,
    )
    .unwrap();
    assert_eq!(live, replayed);
    for (a, b) in live.runs.iter().zip(&replayed.runs) {
        assert_eq!(a.method, b.method);
        for (x, y) in a.log.iter().zip(&b.log) {
            assert_eq!(x.noisy_score.to_bits(), y.noisy_score.to_bits());
            assert_eq!(x.true_error.to_bits(), y.true_error.to_bits());
            assert_eq!(x.cumulative_rounds, y.cumulative_rounds);
        }
        let budget = scale.total_budget;
        assert_eq!(
            a.selected_true_error_within(budget).map(f64::to_bits),
            b.selected_true_error_within(budget).map(f64::to_bits),
            "{} selection diverged",
            a.method
        );
    }
}

/// One ASHA+re-evaluation campaign, recorded into `store`, stopped once
/// `stop` evaluations were dispatched (under the barrier clock the batch
/// crossing the cap runs whole, so a cut run is a prefix of whole batches).
/// Returns the outcome and whether the schedule finished.
fn drive_campaign(
    ctx: &BenchmarkContext,
    scale: &ExperimentScale,
    policy: ExecutionPolicy,
    seed: u64,
    store: &mut TrialStore,
    stop: Option<u64>,
) -> (TuningOutcome, bool) {
    let method = TuningMethod::AshaReEval;
    let mut scheduler = method.scheduler(scale).unwrap();
    let planned = method.planned_evaluations(scale);
    let objective = BatchFederatedObjective::new(
        ctx,
        NoiseConfig::paper_noisy(),
        planned,
        derive_seed(seed, 0),
    )
    .unwrap();
    let mut recording = RecordingObjective::new(
        &objective.eval,
        ctx.space(),
        campaign_provenance(ctx.benchmark(), scale, seed, "noisy"),
        store,
    );
    let mut rng = fedtune::fedmath::rng::rng_for(seed, 1);
    let config = Drive {
        threads: policy.pool_threads(),
        budget: Budget {
            evaluations: stop,
            ..Budget::default()
        },
        ..Drive::new(Clock::Barrier)
    };
    let run = drive(
        scheduler.as_mut(),
        ctx.space(),
        &mut recording,
        &mut rng,
        &config,
    )
    .unwrap();
    (run.outcome, run.finished)
}

#[test]
fn interrupted_resume_is_bit_identical_across_seeds_and_thread_counts() {
    let scale = ExperimentScale::smoke();
    for seed in [0u64, 1, 2] {
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
        // The reference: one uninterrupted sequential run.
        let mut reference_store = TrialStore::in_memory();
        let (reference, finished) = drive_campaign(
            &ctx,
            &scale,
            ExecutionPolicy::Sequential,
            seed,
            &mut reference_store,
            None,
        );
        assert!(finished);
        for threads in [1usize, 2, 4] {
            let policy = ExecutionPolicy::parallel_with(threads);
            // Interrupt after the first scheduler batch (an evaluation cap
            // of one lets that batch run whole) ...
            let mut store = TrialStore::in_memory();
            let (prefix, finished) =
                drive_campaign(&ctx, &scale, policy, seed, &mut store, Some(1));
            assert!(!finished, "smoke ASHA+RE has more than one batch");
            assert!(!store.is_empty());
            assert_eq!(
                reference.records()[..prefix.num_evaluations()],
                *prefix.records()
            );
            // ... then resume from scratch against the same store: the
            // recorded prefix is served from the ledger and the campaign
            // completes bit-identically to the uninterrupted run.
            let (resumed, finished) = drive_campaign(&ctx, &scale, policy, seed, &mut store, None);
            assert!(finished);
            assert_eq!(
                reference, resumed,
                "seed {seed}, {threads} threads: resume diverged"
            );
            for (a, b) in reference.records().iter().zip(resumed.records()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            // The resumed ledger holds exactly the reference campaign.
            assert_eq!(store.len(), reference_store.len());
            for (a, b) in reference_store.records().iter().zip(store.records()) {
                assert_eq!(a.config, b.config);
                assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
                assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
            }
        }
    }
}

#[test]
fn segment_replays_are_bit_identical_across_seeds_and_threads() {
    // Record each campaign straight into a binary segment ledger, then
    // replay from a fresh reopen under every thread count: the trip through
    // disk and the parallelism must both be invisible in the bits.
    let scale = ExperimentScale::smoke();
    let base = std::env::temp_dir().join(format!("fedstore_backend_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for seed in [0u64, 1, 2] {
        let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
        let seg_dir = base.join(format!("segments_{seed}"));
        let mut seg_store = TrialStore::open_segments(&seg_dir).unwrap();
        let (reference, finished) = drive_campaign(
            &ctx,
            &scale,
            ExecutionPolicy::Sequential,
            seed,
            &mut seg_store,
            None,
        );
        assert!(finished);
        assert_eq!(seg_store.len(), reference.num_evaluations());
        let recorded = seg_store.records().to_vec();
        drop(seg_store);

        for threads in [1usize, 2, 4] {
            let policy = ExecutionPolicy::parallel_with(threads);
            // A fresh reopen streams the ledger back into the index; the
            // recorded campaign is then served entirely from it.
            let mut from_segments = TrialStore::open_segments(&seg_dir).unwrap();
            let (seg_outcome, finished) =
                drive_campaign(&ctx, &scale, policy, seed, &mut from_segments, None);
            assert!(finished);
            assert_eq!(
                seg_outcome, reference,
                "seed {seed}, {threads} threads: segment replay diverged"
            );
            for (a, b) in seg_outcome.records().iter().zip(reference.records()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            // The reopened ledger holds the recorded records bit for bit.
            assert_eq!(from_segments.len(), recorded.len());
            for (a, b) in from_segments.records().iter().zip(&recorded) {
                assert_eq!(a.config, b.config);
                assert_eq!(a.noisy_score.to_bits(), b.noisy_score.to_bits());
                assert_eq!(a.true_error.to_bits(), b.true_error.to_bits());
                assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
                assert_eq!(a.provenance, b.provenance);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn file_backed_ledger_resumes_across_processes() {
    // The same interrupt/resume flow, but with the ledger on disk and the
    // store re-opened in between — modelling a crash and restart.
    let scale = ExperimentScale::smoke();
    let seed = 5;
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed).unwrap();
    let mut reference_store = TrialStore::in_memory();
    let (reference, _) = drive_campaign(
        &ctx,
        &scale,
        ExecutionPolicy::Sequential,
        seed,
        &mut reference_store,
        None,
    );

    let dir = std::env::temp_dir().join(format!("fedstore_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = TrialStore::open_segments(&dir).unwrap();
        let (_, finished) = drive_campaign(
            &ctx,
            &scale,
            ExecutionPolicy::Sequential,
            seed,
            &mut store,
            Some(1),
        );
        assert!(!finished);
    }
    let mut store = TrialStore::open_segments(&dir).unwrap();
    assert!(!store.is_empty());
    let (resumed, finished) = drive_campaign(
        &ctx,
        &scale,
        ExecutionPolicy::Sequential,
        seed,
        &mut store,
        None,
    );
    assert!(finished);
    assert_eq!(reference, resumed);
    assert_eq!(store.len(), reference_store.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tabular_surrogate_drives_every_extended_method() {
    // Record the full extended slate once, then re-drive each method's
    // scheduler directly against a TabularObjective — the fig08-style sweep
    // a recorded table exists for.
    let scale = ExperimentScale::smoke();
    let settings = paper_noise_settings();
    let seed = 21;
    let mut store = TrialStore::in_memory();
    let recorded = record_method_comparison(
        &TrialRunner::new(ExecutionPolicy::parallel()),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &settings,
        seed,
        &mut store,
    )
    .unwrap();
    let replayed = replay_method_comparison(
        &store,
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &settings,
        seed,
    )
    .unwrap();
    assert_eq!(recorded, replayed);
    assert_eq!(replayed.runs.len(), 6 * 2 * scale.method_trials);
    // And the reports built on top agree.
    assert_eq!(
        recorded.to_online_report().unwrap().to_table(),
        replayed.to_online_report().unwrap().to_table()
    );

    // Exact-hit replay: a fresh re-evaluation schedule asks for replicate
    // indices the recorded grid never ran, and the table refuses to invent
    // them — the replay fails with a table miss instead of resampling.
    // The recorded ASHA ladder at smoke scale: 12 configs, eta 3, rungs at
    // 2 and 6 rounds (mirrors `TuningMethod::asha`).
    let asha = fedtune::fedhpo::Asha::new(
        scale.num_configs * scale.eta,
        scale.eta,
        2,
        scale.rounds_per_config,
    )
    .unwrap();
    let mut scheduler = fedtune::fedhpo::ReEvaluation::new(asha, 2, 5).unwrap();
    let space = fedtune::fedhpo::SearchSpace::paper_default();
    let mut tabular = TabularObjective::new(&store, &space);
    // Unit 8 of the recorded grid is ASHA (method index 4) under the
    // noiseless setting, trial 0: methods are enumerated method-major with
    // 2 settings x method_trials trials each.
    let unit_index = 4 * 2 * scale.method_trials;
    let tree = fedtune::fedmath::SeedTree::new(derive_seed(seed, 7));
    let mut rng = tree.child(unit_index as u64).child(1).rng();
    let config = Drive {
        threads: 4,
        ..Drive::new(Clock::Barrier)
    };
    let err = drive(&mut scheduler, &space, &mut tabular, &mut rng, &config).unwrap_err();
    assert!(
        err.to_string().contains("table miss"),
        "an unrecorded replicate must miss: {err}"
    );
    assert!(
        tabular.table.exact_hits() > 0,
        "recorded replicates hit first"
    );
}
