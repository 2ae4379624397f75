//! Component micro-benchmarks: the numerical kernels and simulator steps the
//! experiment harness is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use feddata::{Benchmark, DatasetSpec, Scale};
use fedmath::Matrix;
use fedmodels::{Model, ModelSpec};
use fedsim::{FederatedTrainer, TrainerConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_components");

    // Matrix multiply at model-sized dimensions.
    let a = Matrix::from_fn(32, 32, |i, j| (i * 7 + j) as f64 * 0.01);
    let b = Matrix::from_fn(32, 32, |i, j| (i + j * 3) as f64 * 0.02);
    group.bench_function("matmul_32x32", |bch| {
        bch.iter(|| a.matmul(&b).expect("matmul"))
    });

    // Softmax over a vocabulary-sized logit vector.
    let logits: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
    group.bench_function("softmax_64", |bch| {
        bch.iter(|| fedmath::ops::softmax(&logits))
    });

    // Laplace sampling (the DP hot path).
    group.bench_function("laplace_sample", |bch| {
        let mut rng = fedmath::rng::rng_for(0, 0);
        bch.iter(|| fedtune_core::noise::sample_laplace(&mut rng, 0.5))
    });

    // Client sampling without replacement from a large population.
    group.bench_function("sample_100_of_10000", |bch| {
        let mut rng = fedmath::rng::rng_for(0, 1);
        bch.iter(|| {
            fedmath::rng::sample_without_replacement(&mut rng, 10_000, 100).expect("sample")
        })
    });

    // One federated training round and one full evaluation on a smoke dataset.
    let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
        .generate(0)
        .expect("dataset");
    let trainer = FederatedTrainer::new(TrainerConfig::default()).expect("trainer");
    group.bench_function("federated_training_round", |bch| {
        let mut run = trainer
            .start(&dataset, ModelSpec::Mlp { hidden_dim: 16 }, 1)
            .expect("run");
        bch.iter(|| run.run_round(&dataset).expect("round"))
    });
    let run = trainer
        .train(&dataset, ModelSpec::Mlp { hidden_dim: 16 }, 3, 1)
        .expect("trained run");
    group.bench_function("full_validation_evaluation", |bch| {
        bch.iter(|| {
            fedsim::evaluation::evaluate_full(
                run.model(),
                &dataset,
                feddata::Split::Validation,
                fedsim::WeightingScheme::ByExamples,
            )
            .expect("evaluation")
        })
    });
    // Per-example gradient of the MLP (the innermost hot loop).
    let client = &dataset.clients(feddata::Split::Train)[0];
    group.bench_function("mlp_gradient_one_client", |bch| {
        bch.iter(|| run.model().gradient(client.examples()).expect("gradient"))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
