//! One-shot proxy tuning (§4 of the paper): tune hyperparameters on a public
//! proxy dataset and deploy only the single best configuration on the client
//! federation, side-stepping noisy federated evaluation entirely.
//!
//! This is the *deployable* pipeline (`OneShotProxy::run` trains what it
//! searches, one draw per proxy). The paper's Fig. 11 / 12 statistics over
//! many such searches come from `experiments::proxy`, which bootstraps them
//! off pools trained once per benchmark — see `examples/full_report`.
//!
//! ```text
//! cargo run --release --example proxy_tuning
//! ```

use feddata::Benchmark;
use fedtune::fedproxy::OneShotProxy;
use fedtune::fedtune_core::{BenchmarkContext, ExperimentScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::smoke();

    // Client task: CIFAR10-like federation. Proxy candidates: the other three
    // benchmarks (FEMNIST-like shares the task family and should transfer best).
    let client = BenchmarkContext::new(Benchmark::Cifar10Like, &scale, 3)?;
    let proxies = [
        Benchmark::FemnistLike,
        Benchmark::StackOverflowLike,
        Benchmark::RedditLike,
    ];

    let pipeline = OneShotProxy::new(scale.num_configs);
    println!("client dataset: {}\n", client.dataset().name());
    for proxy_benchmark in proxies {
        let proxy = BenchmarkContext::new(proxy_benchmark, &scale, 3)?;
        let outcome = pipeline.run(
            proxy.dataset(),
            &proxy.config_runner(),
            client.dataset(),
            &client.config_runner(),
            11,
        )?;
        println!(
            "proxy {:<22} -> client error {:>6.1}%  (proxy error {:>6.1}%)",
            outcome.proxy_dataset,
            outcome.client_error * 100.0,
            outcome.proxy_error * 100.0
        );
    }
    println!("\nA same-family proxy (femnist-like) usually yields the best client error,");
    println!("matching Fig. 11 of the paper.");
    Ok(())
}
