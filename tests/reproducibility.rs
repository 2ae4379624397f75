//! Determinism guarantees: every stochastic component of the stack is keyed
//! by explicit seeds, so identical seeds must give identical results across
//! the whole pipeline.

use feddata::{Benchmark, DatasetSpec, Scale};
use fedhpo::RandomSearch;
use fedtune::fedtune_core::{
    drive, BatchFederatedObjective, BenchmarkContext, Clock, ConfigPool, Drive, ExperimentScale,
    NoiseConfig, TrainedBenchmark, TrialRunner,
};

#[test]
fn dataset_generation_is_deterministic() {
    for &benchmark in &Benchmark::ALL {
        let spec = DatasetSpec::benchmark(benchmark, Scale::Smoke);
        assert_eq!(spec.generate(123).unwrap(), spec.generate(123).unwrap());
    }
}

/// FNV-1a over the generated bits of `dataset`: training pool then
/// validation pool, clients in pool order, examples in client order; per
/// example its feature bits (or token id) and its label.
fn dataset_digest(dataset: &feddata::FederatedDataset) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut word = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for split in [feddata::Split::Train, feddata::Split::Validation] {
        for client in dataset.clients(split) {
            word(client.num_examples() as u64);
            for example in client.examples() {
                match &example.input {
                    feddata::Input::Dense(features) => {
                        features.iter().for_each(|x| word(x.to_bits()));
                    }
                    feddata::Input::Token(token) => word(*token as u64),
                }
                word(example.label as u64);
            }
        }
    }
    hash
}

/// The generated bits themselves, pinned: every benchmark at smoke scale and
/// the FEMNIST-like federation at default scale. A change to the generators,
/// the size sampler or the order clients are stitched in moves a constant.
#[test]
fn generated_datasets_match_their_pinned_digests() {
    let pinned = [
        (
            Benchmark::Cifar10Like,
            Scale::Smoke,
            0xa341_e05d_9453_ad2f_u64,
        ),
        (Benchmark::FemnistLike, Scale::Smoke, 0x90bf_2657_1b52_45df),
        (
            Benchmark::StackOverflowLike,
            Scale::Smoke,
            0x44ea_c842_a7df_743d,
        ),
        (Benchmark::RedditLike, Scale::Smoke, 0xa980_5f5a_b898_8aa3),
        (
            Benchmark::FemnistLike,
            Scale::Default,
            0xc2d5_6da0_d538_e1a1,
        ),
    ];
    for (benchmark, scale, expected) in pinned {
        let dataset = DatasetSpec::benchmark(benchmark, scale)
            .generate(123)
            .unwrap();
        let digest = dataset_digest(&dataset);
        assert_eq!(digest, expected, "{benchmark} at {scale:?}: {digest:#018x}");
    }
}

#[test]
fn pool_training_is_deterministic_and_seed_sensitive() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 0).unwrap();
    let runner = TrialRunner::from_env();
    let a = ConfigPool::train(&runner, &ctx, 3, 5).unwrap();
    let b = ConfigPool::train(&runner, &ctx, 3, 5).unwrap();
    assert_eq!(a.true_errors(), b.true_errors());
    let c = ConfigPool::train(&runner, &ctx, 3, 6).unwrap();
    assert_ne!(a.true_errors(), c.true_errors());
}

#[test]
fn noisy_tuning_runs_are_deterministic() {
    let scale = ExperimentScale::smoke();
    let ctx = BenchmarkContext::new(Benchmark::FemnistLike, &scale, 1).unwrap();
    let config = Drive {
        threads: TrialRunner::from_env().policy().pool_threads(),
        ..Drive::new(Clock::Barrier)
    };
    let run = |seed: u64| {
        let mut objective =
            BatchFederatedObjective::new(&ctx, NoiseConfig::paper_noisy(), 4, seed).unwrap();
        let mut rng = fedmath::rng::rng_for(seed, 0);
        drive(
            &mut RandomSearch::new(4, 3).unwrap(),
            ctx.space(),
            &mut objective,
            &mut rng,
            &config,
        )
        .unwrap();
        objective.log(config.threads).unwrap()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn experiment_reports_are_deterministic() {
    use fedtune::fedtune_core::experiments::subsampling::run_subsampling_sweep;
    use fedtune::fedtune_core::ExperimentReport;
    let scale = ExperimentScale::smoke();
    let runner = TrialRunner::from_env();
    // Pool training and the bootstrap over it, end to end, twice.
    let sweep = || {
        let trained = TrainedBenchmark::train(&runner, Benchmark::Cifar10Like, &scale, 2).unwrap();
        let mut report = ExperimentReport::default();
        run_subsampling_sweep(&runner, &trained, &mut report).unwrap();
        report
    };
    assert_eq!(sweep(), sweep());
}
