//! The experiment index is a table: every entry of `FIGURES` draws, and
//! however many of them are drawn, in whatever order, one `FigureInputs`
//! trains one pool set and runs one method comparison.
//!
//! This file holds a single test on purpose: it reads deltas of the
//! process-global `sim.training_rounds` counter, which tests sharing a
//! binary (and therefore a process) would perturb.

use feddata::Benchmark;
use fedtune_core::experiments::figures::{find, FigureInputs, FIGURES};
use fedtune_core::experiments::methods::{
    paper_noise_settings, run_method_comparison, TuningMethod,
};
use fedtune_core::experiments::population::PopulationExperimentScale;
use fedtune_core::{ExperimentScale, TrialRunner};

#[test]
fn the_table_draws_every_figure_from_one_pool_set_and_one_comparison() {
    let (scale, seed) = (ExperimentScale::smoke(), 11);
    let runner = TrialRunner::from_env();
    let rounds = fedtrace::global().registry().counter("sim.training_rounds");
    // The training rounds `draw`ing the entry `id` costs.
    let cost_of = |inputs: &FigureInputs<'_>, id: &str| {
        let before = rounds.value();
        let reports = (find(id).unwrap().draw)(inputs).unwrap();
        assert!(!reports.is_empty(), "{id} drew no report");
        for report in &reports {
            assert!(!report.title.is_empty(), "{id}");
            assert!(!report.groups.is_empty(), "{id} drew an empty report");
            assert!(report.groups.iter().all(|g| !g.points.is_empty()), "{id}");
        }
        rounds.value() - before
    };

    let ids: Vec<&str> = FIGURES.iter().map(|figure| figure.id).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "{id} is in the table twice");
    }

    // What the two shared inputs cost on their own.
    let before = rounds.value();
    run_method_comparison(
        &runner,
        Benchmark::Cifar10Like,
        &scale,
        &TuningMethod::EXTENDED,
        &paper_noise_settings(),
        seed,
    )
    .unwrap();
    let one_comparison = rounds.value() - before;
    assert!(one_comparison > 0);
    let one_pool = (scale.pool_size * scale.rounds_per_config) as u64;
    let one_pool_set = Benchmark::ALL.len() as u64 * one_pool;
    // The population sweep trains its own configuration grid per population.
    let pop = PopulationExperimentScale::smoke();
    let one_pop_grid = (pop.populations.len() * pop.num_configs * pop.train_rounds) as u64;

    // The whole table, in order: Fig. 1 is the first to need either input
    // and pays for both; after it only Fig. 13 trains (its own four pools).
    let inputs = FigureInputs::new(&runner, &scale, seed);
    for &id in &ids {
        let expected = match id {
            "fig01" => one_comparison + one_pool_set,
            "fig13" => 4 * one_pool,
            "pop" => one_pop_grid,
            _ => 0,
        };
        assert_eq!(cost_of(&inputs, id), expected, "{id}");
    }

    // Another order, fresh inputs: whichever comparison figure comes first
    // runs the comparison, the pooled bar of Fig. 1 trains the set, and a
    // pooled figure drawn after that trains nothing.
    let inputs = FigureInputs::new(&runner, &scale, seed);
    assert_eq!(cost_of(&inputs, "fig16"), one_comparison);
    assert_eq!(cost_of(&inputs, "fig15"), 0);
    assert_eq!(cost_of(&inputs, "fig08"), 0);
    assert_eq!(cost_of(&inputs, "fig01"), one_pool_set);
    assert_eq!(cost_of(&inputs, "fig09"), 0);

    // And a subset that never needs the comparison never runs it.
    let inputs = FigureInputs::new(&runner, &scale, seed);
    assert_eq!(cost_of(&inputs, "fig03"), one_pool_set);
    assert_eq!(cost_of(&inputs, "fig09"), 0);
    assert_eq!(cost_of(&inputs, "weighting"), 0);
}
