//! Asynchronous ASHA on the event-driven virtual-time executor: the
//! straggler scenario.
//!
//! The same ASHA ladder runs twice under heavy-tailed client runtimes —
//! once rung-synchronously (every promotion waits for the whole rung, so
//! one straggling client stalls all virtual workers) and once
//! asynchronously (promote on completion, no barrier). Both campaigns are
//! fully deterministic: virtual timelines depend only on the schedule and
//! the cost model, never on real thread counts.
//!
//! ```text
//! cargo run --release --example async_asha
//! ```
//!
//! `FEDTUNE_THREADS` overrides the real threads in-flight trials evaluate
//! on (N = N threads, 0/unset = all cores). With `FEDTUNE_BENCH_JSON=1` the run
//! writes `BENCH_async_asha.json` including the simulated throughput. With
//! `FEDTUNE_TRACE=1` it also exports `trace-async_asha.json` — the Chrome
//! `trace_event` timeline of every campaign's virtual workers, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` — plus
//! `metrics-async_asha.json`, the full metrics-registry snapshot.

use feddata::Benchmark;
use fedtune::fedtune_core::experiments::methods::TuningMethod;
use fedtune::fedtune_core::experiments::stragglers::{
    run_straggler_comparison, straggler_cost_model,
};
use fedtune::fedtune_core::{
    run_event_driven_concurrent_traced, run_event_driven_traced, BatchFederatedObjective,
    BenchmarkContext, ExperimentScale, NoiseConfig, TrialRunner, VirtualExecution,
};
use fedtune::{feddata, fedmath, fedsim, fedtrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::smoke();
    let runner = TrialRunner::from_env();
    let mut summary = fedbench::BenchSummary::new("async_asha");

    let fedsim::CostModel::HeterogeneousClients(model) = straggler_cost_model(&scale, 0) else {
        unreachable!("the straggler scenario models client heterogeneity");
    };
    println!(
        "Straggler scenario: {} clients, {} per round, Pareto tail α = {}, heavy tail ⇒",
        model.num_clients, model.clients_per_round, model.tail_alpha
    );
    println!("a few clients are dramatically slower, and synchronous rungs wait for them.\n");

    let workers = [2usize, 8];
    let comparison = summary.time("straggler_comparison", 2 * workers.len() as u64, || {
        run_straggler_comparison(&runner, Benchmark::Cifar10Like, &scale, &workers, 0)
    })?;

    let mut total_evaluations = 0u64;
    let mut total_sim = 0.0;
    for run in &comparison.runs {
        println!(
            "{:>10} @ {} workers: {:>3} evaluations in {:>7.1} sim-s  ({:>6.1} trials/sim-h), \
             selected true error {:.2}%",
            run.method,
            run.workers,
            run.evaluations,
            run.sim_elapsed,
            run.trials_per_sim_hour(),
            run.selected_true_error_within_sim(run.sim_elapsed)
                .expect("campaign evaluated something")
                * 100.0
        );
        total_evaluations += run.evaluations as u64;
        total_sim += run.sim_elapsed;
    }
    summary.headline("sim_elapsed", total_sim);
    summary.headline(
        "trials_per_sim_hour",
        total_evaluations as f64 / (total_sim / 3600.0),
    );

    println!("\nTime-to-accuracy (selected configuration's true error over simulated time):");
    println!("{}", comparison.to_report()?.to_table());
    println!("Promote-on-completion keeps every virtual worker busy: async ASHA reaches");
    println!("its selection in less simulated wall-clock than the rung-synchronous ladder.");

    // Cross-trial concurrent evaluation: the same async campaign once more,
    // first through the inline driver (every evaluation on this thread, the
    // reference), then with every in-flight virtual trial training
    // concurrently on `FEDTUNE_THREADS` real threads — the same pump, its
    // jobs somewhere else. The outcomes must match bit for bit — real
    // parallelism buys wall clock, never a different result.
    let threads = runner.policy().pool_threads();
    let seed = 0u64;
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, seed)?;
    let method = TuningMethod::AsyncAsha;
    let sim = VirtualExecution::new(3, straggler_cost_model(&scale, seed));
    let trace = fedtrace::global_if_enabled();
    let fresh_objective = || {
        BatchFederatedObjective::new(
            &ctx,
            NoiseConfig::paper_noisy(),
            method.planned_evaluations(&scale),
            fedmath::rng::derive_seed(seed, 0),
        )
    };

    let start = std::time::Instant::now();
    let mut scheduler = method.scheduler(&scale)?;
    let mut objective = fresh_objective()?;
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let inline = run_event_driven_traced(
        scheduler.as_mut(),
        ctx.space(),
        &mut objective,
        &mut rng,
        &sim,
        trace,
    )?;
    let inline_wall = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    let mut scheduler = method.scheduler(&scale)?;
    let mut objective = fresh_objective()?;
    let mut rng = fedmath::rng::rng_for(seed, 1);
    let concurrent = run_event_driven_concurrent_traced(
        scheduler.as_mut(),
        ctx.space(),
        &mut objective,
        &mut rng,
        &sim,
        threads,
        trace,
    )?;
    let concurrent_wall = start.elapsed().as_secs_f64();
    assert_eq!(
        inline, concurrent,
        "the concurrent executor moved a bit of the campaign outcome"
    );
    summary.push(
        "concurrent_executor_campaign",
        concurrent_wall,
        concurrent.outcome.num_evaluations() as u64,
    );
    println!(
        "\nConcurrent executor @ {threads} real thread(s): {} evaluations in {:.2}s wall",
        concurrent.outcome.num_evaluations(),
        concurrent_wall
    );
    println!("inline driver for reference: {inline_wall:.2}s wall — outcomes are bit-identical");

    if let Some(trace) = fedtrace::global_if_enabled() {
        let tracks: Vec<fedtrace::TimelineTrack> = comparison
            .runs
            .iter()
            .map(|run| {
                fedtrace::TimelineTrack::new(
                    format!("{} @ {} workers", run.method, run.workers),
                    run.timeline.clone(),
                )
            })
            .collect();
        std::fs::write(
            "trace-async_asha.json",
            fedtrace::virtual_timeline_json(&tracks),
        )?;
        // Wall-domain phase profile of the drivers above: how real time
        // split between suggesting (scheduler polls + dispatch), evaluating
        // (training on worker threads), and delivering results.
        let wall = trace.wall_profile();
        if !wall.is_empty() {
            std::fs::write("trace-async_asha-phases.json", wall.to_chrome_json())?;
            println!("wrote trace-async_asha-phases.json (wall-domain suggest/evaluate/deliver)");
        }
        let snapshot = trace.snapshot();
        std::fs::write(
            "metrics-async_asha.json",
            serde_json::to_string_pretty(&snapshot)?,
        )?;
        println!(
            "thread pool: {} tasks, {} queue round-trips avoided",
            snapshot.counter("exec.pool.tasks").unwrap_or(0),
            snapshot.counter("exec.pool.steals_avoided").unwrap_or(0)
        );
        summary.record_metrics(snapshot);
        println!("wrote trace-async_asha.json (open it in Perfetto: https://ui.perfetto.dev)");
        println!("wrote metrics-async_asha.json");
    }
    summary.write_if_enabled();
    Ok(())
}
