//! The packed validation pass, seen through its accounting: it gathers no
//! row, does the same evaluation FLOPs as the gather path it replaces, counts
//! only passes that return an evaluation, and never packs the training pool.
//!
//! This file holds a single test on purpose: it reads deltas of
//! process-global counters (`sim.rows_gathered`, `sim.validation_passes`,
//! `kernel.flops`, `kernel.eval_flops`), which tests sharing a binary (and
//! therefore a process) would perturb.

use feddata::{Benchmark, ClientData, DatasetSpec, Scale, Split};
use fedmodels::ModelSpec;
use fedsim::evaluation::{evaluate_clients, evaluate_full};
use fedsim::{FederatedTrainer, TrainerConfig, WeightingScheme};

#[test]
fn a_packed_pass_gathers_nothing_and_costs_the_same_flops() {
    let dataset = DatasetSpec::benchmark(Benchmark::FemnistLike, Scale::Smoke)
        .generate(4)
        .unwrap();
    let run = FederatedTrainer::new(TrainerConfig::default())
        .unwrap()
        .train(&dataset, ModelSpec::for_dataset(&dataset), 4, 3)
        .unwrap();
    let (split, weighting) = (Split::Validation, WeightingScheme::ByExamples);

    let registry = fedtrace::global().registry();
    let counters = [
        "sim.rows_gathered",
        "sim.validation_passes",
        "kernel.flops",
        "kernel.eval_flops",
    ]
    .map(|name| registry.counter(name));
    let read = || counters.each_ref().map(|counter| counter.value());

    let start = read();
    let packed = evaluate_full(run.model(), &dataset, split, weighting).unwrap();
    let after_packed = read();
    let everyone: Vec<usize> = (0..dataset.num_val_clients()).collect();
    let gathered = evaluate_clients(run.model(), dataset.clients(split), &everyone, weighting);
    let after_gathered = read();
    assert_eq!(packed, gathered.unwrap());

    let delta = |from: [u64; 4], to: [u64; 4]| [0, 1, 2, 3].map(|i| to[i] - from[i]);
    let [rows, passes, flops, eval_flops] = delta(start, after_packed);
    assert_eq!(rows, 0, "the packed pass must not gather");
    assert_eq!((passes, flops), (1, 0));
    assert!(eval_flops > 0);
    let total_examples: u64 = dataset
        .clients(split)
        .iter()
        .map(|c| c.num_examples() as u64)
        .sum();
    assert_eq!(
        delta(after_packed, after_gathered),
        [total_examples, 1, 0, eval_flops]
    );

    // A pass that returns an error is not a pass.
    let nobody = [ClientData::new(0, vec![])];
    assert!(evaluate_clients(run.model(), &nobody, &[0], weighting).is_err());
    assert_eq!(read(), after_gathered);

    // Training reads the training pool through its examples, and nothing
    // above asked for its pack.
    assert!(dataset.is_packed(Split::Validation));
    assert!(!dataset.is_packed(Split::Train));
}
