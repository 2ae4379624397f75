//! Regenerates the tables and figures of the paper: a loop over
//! `fedtune_core::experiments::figures::FIGURES`. The pool set and the method
//! comparison are built once, by the first figure that needs them.
//!
//! ```text
//! cargo run --release --example full_report                   # everything
//! cargo run --release --example full_report -- fig03 fig09    # one pool set, no comparison
//! cargo run --release --example full_report -- fig08 fig15 fig16
//! ```
//!
//! `FEDTUNE_BENCH_SCALE` may be `smoke` (the default; seconds), `default`
//! (under a minute) or `paper` (the paper's raw budgets; hours); any other
//! value is an error. With
//! `FEDTUNE_BENCH_JSON=1` the run writes `BENCH_full_report.json`: one entry
//! per figure drawn, in order — the first figure to need the pool set or the
//! comparison is the one that pays for it.

use fedtune::fedtune_core::experiments::figures::{self, Figure, FigureInputs, FIGURES};
use fedtune::fedtune_core::TrialRunner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Figure> = if ids.is_empty() {
        FIGURES.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                figures::find(id).unwrap_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|figure| figure.id).collect();
                    eprintln!("unknown figure {id:?}; the ids are: {}", known.join(" "));
                    std::process::exit(2)
                })
            })
            .collect()
    };

    let scale = fedbench::report_scale()?;
    // FEDTUNE_THREADS overrides the trial fan-out (1 = sequential, N = N
    // threads, 0/unset = all cores); results are bit-identical either way.
    let runner = TrialRunner::from_env();
    let inputs = FigureInputs::new(&runner, &scale, 2026);
    let mut summary = fedbench::BenchSummary::new("full_report");
    println!("fedtune full report — scale: {scale:?}\n");
    for figure in selected {
        println!("---- {}: {} ----", figure.id, figure.title);
        let reports = summary.time(figure.id, 1, || (figure.draw)(&inputs))?;
        for report in reports {
            println!("{}", report.to_table());
        }
    }
    summary.write_if_enabled();
    println!("full report complete");
    Ok(())
}
