//! Population-substrate throughput: clients materialized per second from a
//! million-client lazy population, cohort-sampling cost, and the peak
//! resident-client footprint of a population-backed training campaign.
//!
//! The one-off summary reports cold/warm materialization throughput and the
//! campaign's peak residency; the Criterion measurements track the hot
//! paths (single-client materialization, cohort sampling, one cohort
//! round).

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::Benchmark;
use fedmodels::ModelSpec;
use fedpop::{
    train_on_population, CachedPopulation, ClientCache, CohortSampler, Population, PopulationSpec,
    SyntheticPopulation,
};
use fedsim::clock::VirtualClock;
use fedsim::{FederatedTrainer, TrainerConfig};
use std::time::Instant;

const POPULATION: u64 = 1_000_000;
const COHORT: usize = 32;
const CACHE_CAPACITY: usize = 256;

fn population() -> SyntheticPopulation {
    SyntheticPopulation::new(
        PopulationSpec::benchmark(Benchmark::RedditLike, POPULATION),
        0,
    )
    .expect("valid population spec")
}

fn print_summary(population: &SyntheticPopulation) {
    let mut summary = fedbench::BenchSummary::new("population_scale");
    println!(
        "\npopulation_scale: {POPULATION} lazy clients, cohort {COHORT}, cache {CACHE_CAPACITY}"
    );

    // Cold materialization: distinct ids, nothing cached.
    let probe = 4_000usize;
    let mut rng = fedmath::rng::rng_for(1, 0);
    let ids = fedmath::rng::sample_without_replacement(&mut rng, POPULATION, probe)
        .expect("probe sample");
    let start = Instant::now();
    let mut examples = 0usize;
    for &id in &ids {
        examples += population
            .materialize(id)
            .expect("materialize")
            .num_examples();
    }
    let cold = start.elapsed().as_secs_f64();
    summary.push("materialize_cold", cold, probe as u64);
    println!(
        "  cold materialization: {:.0} clients/s ({examples} examples over {probe} clients)",
        probe as f64 / cold
    );

    // Warm materialization: the same ids through a cache that fits them.
    let cache = ClientCache::new(probe);
    for &id in &ids {
        cache
            .get_or_materialize(id, |storage| population.materialize_into(id, storage))
            .expect("fill");
    }
    let start = Instant::now();
    for &id in &ids {
        cache
            .get_or_materialize(id, |storage| population.materialize_into(id, storage))
            .expect("hit");
    }
    let warm = start.elapsed().as_secs_f64();
    summary.push("materialize_warm", warm, probe as u64);
    println!(
        "  warm (cached) fetch:  {:.0} clients/s, hit rate {:.1}%",
        probe as f64 / warm,
        cache.stats().hit_rate() * 100.0
    );

    // One population-backed training campaign; report its peak residency.
    let campaign_cache = ClientCache::new(CACHE_CAPACITY);
    let source = CachedPopulation::new(population, &campaign_cache);
    let trainer = FederatedTrainer::new(TrainerConfig {
        clients_per_round: COHORT,
        ..Default::default()
    })
    .expect("trainer");
    let mut run = trainer
        .start_with_dims(
            population.input_dim(),
            population.num_classes(),
            ModelSpec::for_task(population.task()),
            3,
        )
        .expect("run");
    let mut clock = VirtualClock::new();
    let rounds = 20;
    let start = Instant::now();
    let report = train_on_population(
        &mut run,
        &source,
        CohortSampler::Uniform,
        COHORT,
        rounds,
        60.0,
        &mut clock,
    )
    .expect("campaign");
    let campaign = start.elapsed().as_secs_f64();
    summary.push("cohort_rounds", campaign, report.total_participants as u64);
    let stats = campaign_cache.stats();
    let peak = report.peak_resident_clients(stats.peak_resident);
    println!(
        "  campaign: {rounds} rounds x {COHORT} clients in {campaign:.3}s, \
         peak resident {peak} clients ({:.4}% of the population)",
        100.0 * peak as f64 / POPULATION as f64
    );
    // Assert each measured residency component against its configured cap
    // (the combined `cohort + cache` bound follows from the two).
    assert!(
        report.max_cohort <= COHORT,
        "a sampler returned more ids than the requested cohort: {}",
        report.max_cohort
    );
    assert!(
        stats.peak_resident <= CACHE_CAPACITY,
        "cache exceeded its capacity: {}",
        stats.peak_resident
    );
    summary.headline("peak_resident_clients", peak as f64);
    summary.headline("cache_hit_rate", stats.hit_rate());
    summary.headline("sim_elapsed", report.sim_elapsed);
    summary.headline(
        "trials_per_sim_hour",
        rounds as f64 / (report.sim_elapsed / 3600.0),
    );
    summary.write_if_enabled();
}

fn bench(c: &mut Criterion) {
    let population = population();
    print_summary(&population);
    let mut group = c.benchmark_group("population_scale");
    group.sample_size(20);
    group.bench_function("materialize_one_client", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 7_919) % POPULATION;
            population.materialize(id).expect("materialize")
        });
    });
    group.bench_function(format!("sample_cohort_{COHORT}_of_1m"), |b| {
        let mut rng = fedmath::rng::rng_for(2, 0);
        b.iter(|| {
            CohortSampler::Uniform
                .sample(&population, &mut rng, COHORT, 0.0)
                .expect("cohort")
        });
    });
    group.bench_function("cohort_round_32_clients", |b| {
        let cache = ClientCache::new(CACHE_CAPACITY);
        let source = CachedPopulation::new(&population, &cache);
        let trainer = FederatedTrainer::new(TrainerConfig {
            clients_per_round: COHORT,
            ..Default::default()
        })
        .expect("trainer");
        let mut run = trainer
            .start_with_dims(
                population.input_dim(),
                population.num_classes(),
                ModelSpec::for_task(population.task()),
                5,
            )
            .expect("run");
        let mut clock = VirtualClock::new();
        b.iter(|| {
            train_on_population(
                &mut run,
                &source,
                CohortSampler::Uniform,
                COHORT,
                1,
                60.0,
                &mut clock,
            )
            .expect("round")
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
