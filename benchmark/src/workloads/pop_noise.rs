//! `pop_noise`: the subsampling-noise experiment at population scale.
//!
//! `run_population_noise_with` over a 1 000 000-client synthetic population:
//! a grid of configurations is trained on sampled cohorts, scored on a
//! reference probe, and then evaluated on cohorts of growing size to measure
//! how subsampling noise scrambles their ranking. Training and evaluation go
//! through lazy `fedpop` materialisation, cohort sampling and the client
//! cache instead of an eager dataset. One repetition runs the experiment on
//! the CIFAR-10-like federation (MLP) and then on the Reddit-like one
//! (bigram language model), the kernel path `train_asha` never touches.

use crate::harness::{self, Args, Fnv, Rep, Report};
use crate::probes;
use crate::spans::Spans;
use feddata::Benchmark;
use fedpop::{CohortSampler, Population, PopulationSpec, SyntheticPopulation};
use fedsim::ExecutionPolicy;
use fedtune_core::experiments::population::{
    reference_ids, run_population_noise_with, PopulationExperimentScale, PopulationNoiseResult,
};
use fedtune_core::TrialRunner;
use std::time::Instant;

const POPULATION: u64 = 1_000_000;
const BENCHMARKS: [Benchmark; 2] = [Benchmark::Cifar10Like, Benchmark::RedditLike];

/// What a failed experiment scores as in the latency percentiles.
const FAILED_EXPERIMENT_S: f64 = 60.0;

/// The paper-story sweep of the repository on its largest population, with
/// fewer repeats, configurations and probe clients, so that a run holds many
/// repetitions; cohort sizes still span one client to hundreds.
fn experiment_scale(smoke: bool) -> PopulationExperimentScale {
    PopulationExperimentScale {
        populations: vec![POPULATION],
        cohort_sizes: vec![1, 9, 81, 243],
        num_configs: if smoke { 4 } else { 6 },
        train_cohort: 10,
        train_rounds: 10,
        repeats: if smoke { 4 } else { 6 },
        reference_probe: if smoke { 128 } else { 256 },
        cache_capacity: 1_024,
    }
}

fn cells(scale: &PopulationExperimentScale) -> u64 {
    (scale.cohort_sizes.len() * scale.num_configs * scale.repeats) as u64
}

fn experiment_seed(seed: u64, index: u64) -> u64 {
    fedmath::rng::derive_seed(seed, 500 + index)
}

/// Noise variance and rank correlation at the smallest and the largest
/// cohort, summed over the experiments of a run.
#[derive(Debug, Default)]
struct NoiseStory {
    variance_one: f64,
    variance_many: f64,
    spearman_one: f64,
    spearman_many: f64,
    experiments: usize,
}

impl NoiseStory {
    fn add(&mut self, result: &PopulationNoiseResult) {
        for sweep in &result.sweeps {
            if let (Some(one), Some(many)) = (sweep.points.first(), sweep.points.last()) {
                self.variance_one += one.noise_variance;
                self.variance_many += many.noise_variance;
                self.spearman_one += one.spearman;
                self.spearman_many += many.spearman;
                self.experiments += 1;
            }
        }
    }

    /// The paper's finding: with the largest cohort the noise is smaller and
    /// the ranking closer to the true one than with a single client.
    fn noise_hurts(&self) -> bool {
        self.experiments > 0
            && self.variance_many < self.variance_one
            && self.spearman_many > self.spearman_one
    }
}

fn digest_result(digest: &mut Fnv, result: &PopulationNoiseResult) {
    for point in result.sweeps.iter().flat_map(|s| &s.points) {
        digest.word(point.noise_variance.to_bits());
        digest.word(point.spearman.to_bits());
    }
}

/// One repetition: the experiment on both federations. Returns the results,
/// or the first error.
fn repetition(
    runner: &TrialRunner,
    scale: &PopulationExperimentScale,
    seed: u64,
    spans: &Spans,
    id: u64,
) -> Result<Vec<PopulationNoiseResult>, String> {
    BENCHMARKS
        .iter()
        .map(|&benchmark| {
            let _span = spans.enter(
                match benchmark {
                    Benchmark::RedditLike => "core.population_noise.reddit",
                    _ => "core.population_noise.cifar10",
                },
                id,
            );
            run_population_noise_with(runner, benchmark, scale, seed).map_err(|e| e.to_string())
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let scale = experiment_scale(args.smoke);
    let runner = TrialRunner::new(ExecutionPolicy::parallel_with(args.threads));

    // Set-up: describe both populations and materialise the first clients of
    // their reference probes, which every experiment starts with.
    let probe = reference_ids(POPULATION, scale.reference_probe);
    let (populations, setup_s) = harness::measure_setup(args.smoke, || {
        BENCHMARKS
            .iter()
            .map(|&benchmark| {
                let spec = PopulationSpec::benchmark(benchmark, POPULATION);
                let population =
                    SyntheticPopulation::new(spec, args.seed).map_err(|e| e.to_string())?;
                for &id in probe.iter().take(64) {
                    population.materialize(id).map_err(|e| e.to_string())?;
                }
                Ok(population)
            })
            .collect::<Result<Vec<SyntheticPopulation>, String>>()
    });
    report.setup_s = setup_s;
    let populations = match populations {
        Ok(populations) => populations,
        Err(message) => {
            report.attempted = 1;
            report.fail_check(format!("building the populations: {message}"));
            return report;
        }
    };

    // Warm-up: repetition 0, whose counts the seed fixes.
    let untraced = Spans::disabled();
    let before = harness::counters();
    let warm = repetition(&runner, &scale, experiment_seed(args.seed, 0), &untraced, 0);
    let after = harness::counters();

    let min_reps: u64 = if args.smoke { 1 } else { 4 };
    let timed_seconds = args.untraced_seconds();
    let per_rep = cells(&scale) * BENCHMARKS.len() as u64;
    let mut digest = Fnv::new();
    let mut story = NoiseStory::default();
    let mut traced_walls: Vec<f64> = Vec::new();
    let spans = if args.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let started = Instant::now();
    let mut index = 1u64;
    while index <= min_reps || started.elapsed().as_secs_f64() < timed_seconds {
        report.attempted += 1;
        let seed = experiment_seed(args.seed, index);
        let cpu_before = harness::cpu_seconds();
        let t = Instant::now();
        match repetition(&runner, &scale, seed, &untraced, index) {
            Ok(results) => {
                let wall_s = t.elapsed().as_secs_f64();
                report.timed.latencies_s.push(wall_s);
                report.timed.reps.push(Rep {
                    wall_s,
                    cpu_s: harness::cpu_seconds() - cpu_before,
                    trials: per_rep,
                });
                for result in &results {
                    if index <= min_reps {
                        digest_result(&mut digest, result);
                    }
                    story.add(result);
                }
            }
            Err(message) => {
                report.timed.latencies_s.push(FAILED_EXPERIMENT_S);
                report.fail_check(format!("experiment {index}: {message}"));
            }
        }
        if args.trace {
            // The same repetition again with spans on: the difference of
            // the two medians is the harness's overhead.
            let t = Instant::now();
            if repetition(&runner, &scale, seed, &spans, index).is_ok() {
                traced_walls.push(t.elapsed().as_secs_f64());
            }
        }
        index += 1;
    }
    report.digest = digest.0;
    // Output check, over all experiments of the run together: single
    // experiments at this size are too noisy to hold it one by one.
    report.attempted += 1;
    if !story.noise_hurts() {
        report.fail_check(format!(
            "a larger cohort did not reduce noise and improve the ranking: {story:?}"
        ));
    }
    let n = story.experiments.max(1) as f64;
    report.notes.push(format!(
        "mean Spearman {:.3} at K=1, {:.3} at K=243; mean noise variance {:.2e} and {:.2e}",
        story.spearman_one / n,
        story.spearman_many / n,
        story.variance_one / n,
        story.variance_many / n
    ));
    let wall_s = report.timed.wall_s();
    report.notes.push(format!(
        "{} repetitions of 2 experiments ({} noisy cohort evaluations each) in {wall_s:.2} s",
        report.timed.reps.len(),
        cells(&scale)
    ));

    if args.trace {
        report.layer_counters(&before, &after, &harness::TRAINING_COUNTERS);
        let rounds = report.layers["fedsim.rounds"];
        let rep_s = harness::percentile_of(&report.timed.latencies_s, 0.5);
        report.layer("fedsim.rounds_per_s", rounds / rep_s);
        match &warm {
            Ok(results) => {
                let sweeps: Vec<_> = results.iter().flat_map(|r| &r.sweeps).collect();
                let misses: u64 = sweeps.iter().map(|s| s.clients_materialized).sum();
                let hit_rate = sweeps.iter().map(|s| s.cache_hit_rate).sum::<f64>()
                    / sweeps.len().max(1) as f64;
                let resident = sweeps
                    .iter()
                    .map(|s| s.cache_peak_resident)
                    .max()
                    .unwrap_or(0);
                report.layer("fedpop.cache_hit_rate", hit_rate);
                report.layer("fedpop.cache_misses", misses as f64);
                report.layer("fedpop.peak_resident", resident as f64);
            }
            Err(message) => report.fail_check(format!("warm-up experiment: {message}")),
        }
        probe_layers(args, &populations, &probe, &mut report);
        if !traced_walls.is_empty() {
            let overhead = (harness::median(&mut traced_walls) - rep_s) / rep_s * 100.0;
            report.layer("harness.trace_overhead_pct", overhead);
        }
        report.write_trace(args, "pop_noise", &spans);
    }
    report
}

/// Fixed probes of `fedpop` and of the two models at this workload's shapes.
fn probe_layers(
    args: &Args,
    populations: &[SyntheticPopulation],
    probe: &[u64],
    report: &mut Report,
) {
    let cifar = &populations[0];
    let mut next = 0usize;
    let materialize_s = harness::probe_seconds(50, || {
        let _ = std::hint::black_box(cifar.materialize(probe[next % probe.len()]));
        next += 1;
    });
    report.layer("fedpop.materialize_us", materialize_s * 1e6);
    let mut rng = fedmath::rng::rng_for(args.seed, 3);
    let sample_s = harness::probe_seconds(50, || {
        let _ = std::hint::black_box(CohortSampler::Uniform.sample(cifar, &mut rng, 81, 0.0));
    });
    report.layer("fedpop.sample_us", sample_s * 1e6);

    let hidden = 32;
    report.layer(
        "fedmath.gemm_gflops",
        probes::gemm_gflops(32, cifar.input_dim(), hidden),
    );
    report.layer(
        "fedmath.softmax_xent_us",
        probes::softmax_xent_us(32, cifar.num_classes()),
    );
    // The client step on the median-size probe client of each federation,
    // MLP and bigram, averaged.
    let mut step_us = Vec::new();
    for population in populations {
        let mut clients: Vec<_> = probe
            .iter()
            .take(33)
            .filter_map(|&id| population.materialize(id).ok())
            .filter(|c| !c.is_empty())
            .collect();
        clients.sort_by_key(|c| c.examples().len());
        let Some(client) = clients.get(clients.len() / 2) else {
            continue;
        };
        let spec = fedmodels::ModelSpec::for_task(population.task());
        let model =
            spec.build_with_dims(population.input_dim(), population.num_classes(), &mut rng);
        step_us.push(probes::client_step_us(&model, client.examples()));
    }
    if !step_us.is_empty() {
        report.layer(
            "fedmodels.client_step_us",
            step_us.iter().sum::<f64>() / step_us.len() as f64,
        );
    }
}
