//! A tuning campaign over a **1,000,000-client** lazy population.
//!
//! The population never exists in memory: clients are materialized on
//! demand as pure functions of `(population seed, id)`, so the campaign's
//! peak client residency is bounded by `cohort size + cache capacity` —
//! asserted in-process at the end of the run. The campaign itself is the
//! paper's workflow at production scale: train a grid of configurations
//! against the population (sample cohort → materialize → train → drop),
//! score each on an evaluation cohort, select the winner, and check it
//! against a deterministic reference probe.
//!
//! ```text
//! cargo run --release --example population_scale
//! ```
//!
//! `FEDPOP_CLIENTS` overrides the population size (default 1,000,000).
//! With `FEDTUNE_BENCH_JSON=1` the run writes `BENCH_population_scale.json`
//! including `peak_resident_clients` and `cache_hit_rate`. `FEDTUNE_THREADS`
//! overrides the config fan-out (1 = sequential, 0/unset = all cores).

use fedtune::fedpop::{
    train_on_population, CachedPopulation, ClientCache, CohortSampler, Population, PopulationSpec,
    PopulationSummary, SyntheticPopulation,
};
use fedtune::fedsim::clock::VirtualClock;
use fedtune::fedsim::{FederatedTrainer, TrainerConfig, WeightingScheme};
use fedtune::fedtune_core::experiments::population::{cohort_error, config_grid};
use fedtune::fedtune_core::TrialRunner;
use fedtune::{feddata, fedmath, fedmodels, fedtrace};

use feddata::Benchmark;
use fedmodels::ModelSpec;

const TRAIN_COHORT: usize = 20;
const EVAL_COHORT: usize = 128;
const TRAIN_ROUNDS: usize = 40;
const NUM_CONFIGS: usize = 6;
const CACHE_CAPACITY: usize = 128;

fn population_size() -> u64 {
    std::env::var("FEDPOP_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = population_size();
    let mut summary = fedbench::BenchSummary::new("population_scale");
    let spec = PopulationSpec::benchmark(Benchmark::RedditLike, n);
    let population = SyntheticPopulation::new(spec, 42)?;
    println!(
        "population: {} clients ({}), defined implicitly — nothing materialized yet",
        population.num_clients(),
        population.spec().name,
    );
    println!(
        "{}",
        PopulationSummary::probe(&population, 4_096)?.to_text()
    );

    let cache = ClientCache::new(CACHE_CAPACITY);
    let source = CachedPopulation::new(&population, &cache);
    let runner = TrialRunner::from_env();
    let model_spec = ModelSpec::for_task(population.task());

    // The experiment's configuration grid: client LR log-spaced across two
    // decades (shared with experiments::population).
    let configs = config_grid(NUM_CONFIGS);

    // Train every configuration against the million-client population.
    // Per-trial execution is sequential (trials fan out instead), and both
    // training and evaluation stream clients one at a time, so each of the
    // NUM_CONFIGS concurrent trials holds at most one client beyond the
    // shared cache at any instant.
    let (models, reports): (Vec<_>, Vec<_>) = summary
        .time("train_configs", (NUM_CONFIGS * TRAIN_ROUNDS) as u64, || {
            runner.run_trials(7, configs.len(), |trial| {
                let config = TrainerConfig {
                    clients_per_round: TRAIN_COHORT,
                    hyperparams: configs[trial.index()],
                    weighting: WeightingScheme::ByExamples,
                    execution: fedtune::fedsim::ExecutionPolicy::Sequential,
                };
                let mut run = FederatedTrainer::new(config)?.start_with_dims(
                    population.input_dim(),
                    population.num_classes(),
                    model_spec,
                    trial.seed(0),
                )?;
                let mut clock = VirtualClock::new();
                let report = train_on_population(
                    &mut run,
                    &source,
                    CohortSampler::Uniform,
                    TRAIN_COHORT,
                    TRAIN_ROUNDS,
                    60.0,
                    &mut clock,
                )
                .map_err(fedtune::fedsim::SimError::from)?;
                Ok((run.into_model(), report))
            })
        })?
        .into_iter()
        .unzip();
    let max_train_cohort = reports.iter().map(|r| r.max_cohort).max().unwrap_or(0);

    // Score each configuration on an evaluation cohort and pick the winner.
    // The cohort streams through cohort_error: materialize → score → drop.
    let scores: Vec<f64> = summary.time("evaluate_configs", NUM_CONFIGS as u64, || {
        runner.run_trials(11, models.len(), |trial| {
            let mut rng = trial.rng(0);
            let cohort = CohortSampler::Uniform
                .sample(&population, &mut rng, EVAL_COHORT, 0.0)
                .map_err(fedtune::fedsim::SimError::from)?;
            cohort_error(
                &models[trial.index()],
                cohort.into_iter().map(|id| {
                    fedtune::fedsim::training::CohortSource::materialize(&source, id)
                        .map_err(fedtune::fedtune_core::CoreError::from)
                }),
            )
        })
    })?;
    let best = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty grid")
        .0;
    for (i, (hp, score)) in configs.iter().zip(&scores).enumerate() {
        println!(
            "  config {i}: client lr {:>7.4} -> cohort error {:.2}%{}",
            hp.client.learning_rate,
            score * 100.0,
            if i == best { "  <- selected" } else { "" }
        );
    }

    // The in-process memory-bound assertions of the acceptance criteria.
    // Clients only live in two places — streamed through a trial (one at a
    // time, at most NUM_CONFIGS concurrent trials) and the cache — so peak
    // residency is `min(NUM_CONFIGS, threads) + cache residents`, well under
    // the `cohort size + cache capacity` bound. Each assert checks a
    // *measured* quantity against a configuration knob, so a sampler that
    // over-returns ids or a cache whose eviction stops bounding the map
    // trips it.
    let stats = cache.stats();
    let in_flight_bound = runner.policy().effective_threads(NUM_CONFIGS);
    let peak_resident = in_flight_bound + stats.peak_resident;
    assert!(
        max_train_cohort <= TRAIN_COHORT,
        "a sampler returned more ids than the requested cohort: {max_train_cohort}"
    );
    assert!(
        stats.peak_resident <= CACHE_CAPACITY,
        "cache exceeded its capacity: {} > {CACHE_CAPACITY}",
        stats.peak_resident
    );
    assert!(
        peak_resident <= EVAL_COHORT.max(TRAIN_COHORT) + CACHE_CAPACITY,
        "peak residency {peak_resident} exceeds the cohort + cache bound"
    );
    println!(
        "\npeak resident clients: {peak_resident} ({in_flight_bound} streaming trials + cache {}) \
         out of a population of {n} — {:.6}% resident",
        stats.peak_resident,
        100.0 * peak_resident as f64 / n as f64
    );
    // Publish the cache accounting as `pop.cache.*` gauges and print the
    // summary line from the registry snapshot, not the raw struct.
    stats.publish(fedtrace::global().registry(), "pop.cache");
    let snapshot = fedtrace::global().snapshot();
    let gauge = |name: &str| snapshot.gauge(name).map(|g| g.value).unwrap_or(0.0);
    println!(
        "cache: {} hits / {} misses (hit rate {:.1}%), {} evictions",
        gauge("pop.cache.hits"),
        gauge("pop.cache.misses"),
        gauge("pop.cache.hit_rate") * 100.0,
        gauge("pop.cache.evictions")
    );

    // Materialization throughput: how fast cold clients synthesize.
    let throughput_probe = 2_000.min(n as usize);
    let start = std::time::Instant::now();
    let mut materialized_examples = 0usize;
    let mut rng = fedmath::rng::rng_for(99, 0);
    let ids = fedmath::rng::sample_ids_without_replacement(&mut rng, n, throughput_probe)?;
    for id in ids {
        materialized_examples += population.materialize(id)?.num_examples();
    }
    let elapsed = start.elapsed().as_secs_f64();
    summary.push("materialize_cold", elapsed, throughput_probe as u64);
    println!(
        "materialization: {throughput_probe} cold clients ({materialized_examples} examples) \
         in {elapsed:.3}s = {:.0} clients/s",
        throughput_probe as f64 / elapsed
    );

    summary.headline("peak_resident_clients", peak_resident as f64);
    summary.headline("cache_hit_rate", stats.hit_rate());
    summary.write_if_enabled();
    Ok(())
}
