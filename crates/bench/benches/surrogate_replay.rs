//! The record→replay smoke of the `fedstore` subsystem: records the fig08
//! method comparison once (live federated training), replays it from the
//! resulting ledger alone (the recorder over an evaluation with nothing
//! live), asserts the replayed selection matches the live run bit-for-bit,
//! and reports the live-vs-replay speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedstore::{record_method_comparison, replay_method_comparison, TrialStore};
use fedtune_core::experiments::methods::{paper_noise_settings, TuningMethod};
use fedtune_core::TrialRunner;

fn regenerate() {
    let scale = fedbench::report_scale().unwrap_or_else(|e| panic!("{e}"));
    let mut summary = fedbench::BenchSummary::new("surrogate_replay");
    let settings = paper_noise_settings();
    let campaigns = (TuningMethod::EXTENDED.len() * 2 * scale.method_trials) as u64;
    let mut store = TrialStore::in_memory();
    let live = summary.time("record_live", campaigns, || {
        record_method_comparison(
            &TrialRunner::from_env(),
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &settings,
            0,
            &mut store,
        )
        .expect("recorded method comparison")
    });
    let replayed = summary.time("replay_table", campaigns, || {
        replay_method_comparison(
            &mut store,
            Benchmark::Cifar10Like,
            &scale,
            &TuningMethod::EXTENDED,
            &settings,
            0,
        )
        .expect("replayed method comparison")
    });
    assert_eq!(
        live, replayed,
        "the replay must match the live campaigns bit-for-bit"
    );
    let speedup = match (summary.entries.first(), summary.entries.get(1)) {
        (Some(record), Some(replay)) if replay.wall_seconds > 0.0 => {
            record.wall_seconds / replay.wall_seconds
        }
        _ => 0.0,
    };
    println!(
        "\nrecorded {} evaluations; replayed selection matches live; replay speedup ~{speedup:.0}x",
        store.len()
    );
    summary.write_if_enabled();
    fedbench::print_report(
        &replayed
            .to_bars_report("fig16_replay", scale.total_budget)
            .expect("bars report"),
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let scale = fedbench::measurement_scale();
    let settings = paper_noise_settings();
    let mut store = TrialStore::in_memory();
    record_method_comparison(
        &TrialRunner::from_env(),
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &settings,
        0,
        &mut store,
    )
    .expect("recorded method comparison");
    let mut group = c.benchmark_group("surrogate_replay");
    group.sample_size(20);
    group.bench_function("replay_extended_methods", |b| {
        b.iter(|| {
            replay_method_comparison(
                &mut store,
                Benchmark::Cifar10Like,
                &scale,
                &TuningMethod::EXTENDED,
                &settings,
                0,
            )
            .expect("replayed method comparison")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
