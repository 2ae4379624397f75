//! Ablation: one-shot Laplace top-k selection (Qiao et al. 2021, used by the
//! paper) vs. a naive per-candidate Laplace release under the same total
//! privacy budget.
//!
//! Both mechanisms satisfy the same ε, but the one-shot mechanism perturbs
//! each score once with a larger scale, whereas the naive baseline splits the
//! budget across candidates. The ablation reports how often each mechanism
//! identifies the truly best configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtune_core::noise::{one_shot_noise_scale, one_shot_top_k, sample_laplace};
use fedtune_core::PrivacyBudget;

/// Synthetic candidate accuracies: a clear winner ahead by 5 points.
fn candidate_accuracies() -> Vec<f64> {
    let mut scores: Vec<f64> = (0..16).map(|i| 0.55 + 0.002 * i as f64).collect();
    scores[7] = 0.65;
    scores
}

fn one_shot_hit_rate(epsilon: f64, sample_size: usize, trials: u64) -> f64 {
    let scores = candidate_accuracies();
    let scale = one_shot_noise_scale(PrivacyBudget::Finite(epsilon), 1, 1, sample_size)
        .expect("noise scale");
    let mut hits = 0;
    for t in 0..trials {
        let mut rng = fedmath::rng::rng_for(1, t);
        let top = one_shot_top_k(&scores, 1, scale, &mut rng).expect("top-k");
        if top[0] == 7 {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

fn naive_hit_rate(epsilon: f64, sample_size: usize, trials: u64) -> f64 {
    let scores = candidate_accuracies();
    // The naive mechanism answers one query per candidate, so the per-query
    // budget is epsilon / n and the Laplace scale is n / (epsilon * |S|).
    let scale = scores.len() as f64 / (epsilon * sample_size as f64);
    let mut hits = 0;
    for t in 0..trials {
        let mut rng = fedmath::rng::rng_for(2, t);
        let noisy: Vec<f64> = scores
            .iter()
            .map(|&s| s + sample_laplace(&mut rng, scale))
            .collect();
        if fedmath::stats::argmax(&noisy).expect("argmax") == 7 {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

fn regenerate() {
    println!("\n== ablation: one-shot Laplace top-k vs naive per-candidate release ==");
    println!("(16 candidates, winner ahead by 5 accuracy points, |S| = 10 clients)");
    for &epsilon in &[0.1, 1.0, 10.0, 100.0] {
        let one_shot = one_shot_hit_rate(epsilon, 10, 2000);
        let naive = naive_hit_rate(epsilon, 10, 2000);
        println!(
            "epsilon = {epsilon:>6}: one-shot selects the true best {:>5.1}% of the time, naive {:>5.1}%",
            one_shot * 100.0,
            naive * 100.0
        );
    }
}

fn bench(c: &mut Criterion) {
    regenerate();
    let mut group = c.benchmark_group("abl_topk");
    group.sample_size(20);
    group.bench_function("one_shot_selection", |b| {
        let scores = candidate_accuracies();
        let mut rng = fedmath::rng::rng_for(3, 0);
        b.iter(|| one_shot_top_k(&scores, 4, 0.5, &mut rng).expect("top-k"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
