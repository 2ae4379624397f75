//! Property-based tests spanning the whole stack: any configuration sampled
//! from the paper's search space must flow through hyperparameter mapping,
//! federated training, and noisy evaluation without violating invariants.

use feddata::{Benchmark, DatasetSpec, Scale, Split};
use fedhpo::SearchSpace;
use fedsim::evaluation::evaluate_full;
use fedsim::{FederatedTrainer, TrainerConfig, WeightingScheme};
use fedtune_core::noise::{evaluation_noise_scale, one_shot_top_k, sample_laplace};
use fedtune_core::{hyperparams_from_config, noisy_error, NoiseConfig, PrivacyBudget};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every sampled configuration maps to hyperparameters the trainer
    /// accepts, trains for a couple of rounds, and produces a full-validation
    /// error inside [0, 1].
    #[test]
    fn prop_sampled_configs_train_and_evaluate(seed in 0u64..1_000) {
        let space = SearchSpace::paper_default();
        let mut rng = fedmath::rng::rng_for(seed, 0);
        let config = space.sample(&mut rng).unwrap();
        let hyperparams = hyperparams_from_config(&space, &config).unwrap();

        let dataset = DatasetSpec::benchmark(Benchmark::Cifar10Like, Scale::Smoke)
            .generate(seed)
            .unwrap();
        let trainer = FederatedTrainer::new(TrainerConfig {
            clients_per_round: 5,
            hyperparams,
            weighting: WeightingScheme::ByExamples,
        })
        .unwrap();
        let run = trainer
            .train(&dataset, fedmodels::ModelSpec::Mlp { hidden_dim: 8 }, 2, seed)
            .unwrap();
        let eval = evaluate_full(run.model(), &dataset, Split::Validation, WeightingScheme::ByExamples);
        // A wildly diverging configuration can produce non-finite logits; in
        // that case evaluation may fail, which is acceptable. When it
        // succeeds, the error must be a valid rate.
        if let Ok(eval) = eval {
            let err = eval.weighted_error().unwrap();
            prop_assert!((0.0..=1.0).contains(&err));

            // Noiseless "noisy" evaluation must reproduce the true error, and
            // subsampled evaluation must stay a valid rate.
            let mut eval_rng = fedmath::rng::rng_for(seed, 1);
            let clean = noisy_error(&eval, &NoiseConfig::noiseless(), 16, &mut eval_rng).unwrap();
            prop_assert!((clean - err).abs() < 1e-12);
            let sub = noisy_error(&eval, &NoiseConfig::subsampled(0.3), 16, &mut eval_rng).unwrap();
            prop_assert!((0.0..=1.0).contains(&sub));
        }
    }

    /// The subsample-rate grid always starts at a single client, ends at the
    /// full population, and is strictly increasing, for any population size.
    #[test]
    fn prop_rate_grid_well_formed(population in 1usize..5_000) {
        let grid = fedtune_core::experiments::subsample_rate_grid(population);
        prop_assert!(!grid.is_empty());
        prop_assert!((grid[0] - 1.0 / population as f64).abs() < 1e-12);
        prop_assert!((grid.last().unwrap() - 1.0).abs() < 1e-12);
        for w in grid.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// The Laplace scale of one evaluation is its sensitivity `1/|S|` over
    /// the even split `ε/M`, so `M` evaluations compose to exactly `ε` and
    /// never exceed it; more evaluation clients always mean less noise.
    #[test]
    fn prop_even_split_calibrates_the_laplace_scale(
        epsilon in 0.01f64..100.0,
        evaluations in 1usize..200,
        sample_size in 1usize..500,
        extra_clients in 1usize..500,
    ) {
        let budget = PrivacyBudget::Finite(epsilon);
        let scale = evaluation_noise_scale(budget, evaluations, sample_size).unwrap();
        let per_evaluation = (1.0 / sample_size as f64) / scale;
        let composed = per_evaluation * evaluations as f64;
        prop_assert!((composed - epsilon).abs() <= 1e-9 * epsilon);
        let wider = evaluation_noise_scale(budget, evaluations, sample_size + extra_clients).unwrap();
        prop_assert!(wider < scale);
    }

    /// One-shot top-k releases `k` distinct valid indices at any noise
    /// scale, and a Laplace draw is always finite.
    #[test]
    fn prop_top_k_valid_for_any_scale(
        seed in any::<u64>(),
        scores in proptest::collection::vec(0.0f64..1.0, 1..40),
        scale in 0.0f64..50.0,
    ) {
        let mut rng = fedmath::rng::rng_for(seed, 0);
        let k = 1 + (seed as usize) % scores.len();
        let top = one_shot_top_k(&scores, k, scale, &mut rng).unwrap();
        prop_assert_eq!(top.len(), k);
        let unique: std::collections::HashSet<usize> = top.iter().copied().collect();
        prop_assert_eq!(unique.len(), k);
        prop_assert!(top.iter().all(|&i| i < scores.len()));
        prop_assert!(sample_laplace(&mut rng, scale).is_finite());
    }
}
