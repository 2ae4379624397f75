//! CI science gate: draws, for every seed of the committed `FIDELITY.json`,
//! the figures its rows name (one `FigureInputs` per seed, at `default`
//! scale), prints the seconds each figure took per seed, then each row's
//! measured effect beside its floor, and exits 1 when a `reproduced` row no
//! longer holds or a row's series is gone. Takes no arguments.
//!
//! ```text
//! cargo run --release -p fedbench --bin fidelity_check
//! ```
//!
//! `FEDTUNE_THREADS` sets the trial fan-out; the figures' bits do not
//! depend on it.

use fedbench::fidelity::{draw, Scorecard};
use fedtune_core::{ExperimentScale, TrialRunner};
use std::process::ExitCode;

fn run() -> Result<bool, String> {
    let card = Scorecard::committed()?;
    let scale = ExperimentScale::default_scale();
    let ids = card.figure_ids();
    let runner = TrialRunner::from_env();
    println!(
        "fidelity check: {} rows over seeds {:?} at default scale, drawing {}",
        card.rows.len(),
        card.seeds,
        ids.join(" ")
    );
    let drawn = card
        .seeds
        .iter()
        .map(|&seed| {
            let (drawn, seconds) = draw(&ids, &runner, &scale, seed)?;
            let total: f64 = seconds.iter().map(|(_, s)| s).sum();
            let figures: Vec<String> = seconds
                .iter()
                .map(|(id, s)| format!("{id} {s:.1}"))
                .collect();
            println!("seed {seed}: {total:.1} s ({})", figures.join(", "));
            Ok(drawn)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let check = card.check(&drawn);
    print!("{}", check.to_table());
    let passed = check.passed();
    println!("{}", if passed { "PASS" } else { "FAIL" });
    Ok(passed)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
