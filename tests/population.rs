//! Acceptance tests of the `fedpop` population substrate: O(cohort) memory
//! at million-client scale, availability windows that move with simulated
//! time, and the monotone subsampling-noise story end to end.

use feddata::Benchmark;
use fedmodels::ModelSpec;
use fedpop::{
    train_on_population, AvailabilityModel, CachedPopulation, ClientCache, ClientFrame,
    CohortSampler, Population, PopulationSpec, SyntheticPopulation,
};
use fedsim::clock::VirtualClock;
use fedsim::{ExecutionPolicy, FederatedTrainer, TrainerConfig};
use fedtune_core::experiments::population::{run_population_noise_with, PopulationExperimentScale};
use fedtune_core::TrialRunner;

#[test]
fn million_client_campaign_stays_cohort_bounded() {
    // The headline acceptance: a campaign over a 1,000,000-client population
    // with peak resident clients bounded by cohort size + cache capacity.
    let population = SyntheticPopulation::new(
        PopulationSpec::benchmark(Benchmark::RedditLike, 1_000_000),
        13,
    )
    .unwrap();
    assert_eq!(population.num_clients(), 1_000_000);
    let cohort = 16;
    let cache_capacity = 48;
    let cache = ClientCache::new(cache_capacity);
    let source = CachedPopulation::new(&population, &cache);
    let config = TrainerConfig {
        clients_per_round: cohort,
        ..Default::default()
    };
    let mut run = FederatedTrainer::new(config)
        .unwrap()
        .start_with_dims(
            population.input_dim(),
            population.num_classes(),
            ModelSpec::for_task(population.task()),
            2,
        )
        .unwrap();
    let mut clock = VirtualClock::new();
    let report = train_on_population(
        &mut run,
        &source,
        CohortSampler::Uniform,
        cohort,
        10,
        60.0,
        &mut clock,
    )
    .unwrap();
    assert_eq!(report.rounds, 10);
    assert_eq!(run.rounds_completed(), 10);
    // The `cohort + cache capacity` residency bound follows from its two
    // measured components, each asserted against its configured cap: the
    // sampler never returns more ids than requested, and the cache's
    // eviction loop never lets the map outgrow its capacity.
    assert!(report.max_cohort <= cohort);
    let stats = cache.stats();
    assert!(stats.peak_resident <= cache_capacity);
    assert!(report.peak_resident_clients(stats.peak_resident) <= cohort + cache_capacity);
    // The campaign only ever touched a vanishing fraction of the population.
    assert!(stats.misses <= (report.total_participants as u64) + stats.evictions);
    assert!(stats.misses < 1_000);
}

#[test]
fn a_shared_cache_below_the_working_set_serves_fresh_clients() {
    // Several threads look up a working set larger than the cache through
    // one `CachedPopulation`, so misses keep evicting and recycling storage
    // under contention. Every client must still be the direct shard, and
    // the counters must add up.
    let population =
        SyntheticPopulation::new(PopulationSpec::benchmark(Benchmark::Cifar10Like, 1_000), 6)
            .unwrap();
    let working_set = 96u64;
    let capacity = 24;
    let (threads, lookups) = (4u64, 240u64);
    let direct: Vec<_> = (0..working_set)
        .map(|id| population.materialize(id).unwrap())
        .collect();
    let cache = ClientCache::new(capacity);
    let source = CachedPopulation::new(&population, &cache);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (source, direct) = (&source, &direct);
            scope.spawn(move || {
                for i in 0..lookups {
                    let id = (t * 31 + i * 7) % working_set;
                    let client = fedsim::training::CohortSource::materialize(source, id).unwrap();
                    assert_eq!(*client, direct[id as usize], "client {id}");
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, threads * lookups);
    assert!(stats.peak_resident <= capacity);
    assert!(stats.recycled <= stats.evictions);
    assert!(stats.recycled > 0, "no miss recycled storage: {stats:?}");
}

#[test]
fn sparse_ids_materialize_without_neighbours() {
    let population = SyntheticPopulation::new(
        PopulationSpec::benchmark(Benchmark::StackOverflowLike, 1_000_000),
        4,
    )
    .unwrap();
    // Touch a handful of far-apart clients: ids at the extremes of the id
    // space materialize directly, each with at least one example.
    for id in [0u64, 1, 499_999, 999_998, 999_999] {
        let client = population.materialize(id).unwrap();
        assert_eq!(client.id() as u64, id);
        assert!(client.num_examples() >= 1);
        assert_eq!(
            client.num_examples(),
            population.client_size(id).unwrap(),
            "metadata and shard disagree for client {id}"
        );
    }
    assert!(population.materialize(1_000_000).is_err());
}

#[test]
fn diurnal_windows_shift_cohorts_with_simulated_time() {
    let spec = PopulationSpec {
        availability: AvailabilityModel::diurnal(0.35),
        ..PopulationSpec::benchmark(Benchmark::Cifar10Like, 50_000)
    };
    let population = SyntheticPopulation::new(spec, 21).unwrap();
    // The same RNG state at two times half a day apart selects different
    // (but valid) cohorts: the window moved across the population.
    let morning = CohortSampler::Available
        .sample(&population, &mut fedmath::rng::rng_for(0, 0), 48, 0.0)
        .unwrap();
    let evening = CohortSampler::Available
        .sample(&population, &mut fedmath::rng::rng_for(0, 0), 48, 43_200.0)
        .unwrap();
    assert!(!morning.is_empty());
    assert!(!evening.is_empty());
    assert!(morning.iter().all(|&id| population.available(id, 0.0)));
    assert!(evening.iter().all(|&id| population.available(id, 43_200.0)));
    assert_ne!(morning, evening, "the availability window never moved");
    // An even-stride probe sees partial coverage at every time of day.
    let probe = fedpop::stride_probe_ids(population.num_clients(), 2_000);
    for t in [0.0, 21_600.0, 43_200.0, 64_800.0] {
        let reachable = probe.iter().filter(|&&id| population.available(id, t));
        let fraction = reachable.count() as f64 / probe.len() as f64;
        assert!(
            fraction > 0.2 && fraction < 0.5,
            "coverage {fraction} inconsistent with a 35% window"
        );
    }
}

#[test]
fn noise_story_holds_under_the_parallel_runner() {
    // The CI gate at test scale: variance shrinks and rank fidelity grows
    // from the smallest to the largest cohort, through the parallel engine.
    // The step-wise trend is FIDELITY's `pop` rows' claim over 10 seeds.
    let mut scale = PopulationExperimentScale::smoke();
    scale.populations = vec![10_000];
    let result = run_population_noise_with(
        &TrialRunner::new(ExecutionPolicy::parallel_with(4)),
        Benchmark::Cifar10Like,
        &scale,
        3,
    )
    .unwrap();
    let sweep = &result.sweeps[0];
    let first = sweep.points.first().unwrap();
    let last = sweep.points.last().unwrap();
    assert!(last.noise_variance < first.noise_variance / 2.0);
    assert!(last.spearman > first.spearman);
}

#[test]
fn pop_tables_are_byte_equal_under_one_and_four_threads() {
    // The figure renders what the seed decides, not the hit rate of the
    // cache that concurrent trials share.
    let render = |runner: TrialRunner| -> String {
        let scale = PopulationExperimentScale::smoke();
        let result = run_population_noise_with(&runner, Benchmark::Cifar10Like, &scale, 3);
        let reports = result.unwrap().to_reports();
        reports.iter().map(|report| report.to_table()).collect()
    };
    assert_eq!(
        render(TrialRunner::sequential()),
        render(TrialRunner::new(ExecutionPolicy::parallel_with(4)))
    );
}
