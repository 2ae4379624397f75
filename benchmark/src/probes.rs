//! Fixed probes of single public functions at a workload's own shapes. They
//! run in the traced run only, after the timed section, and give the
//! `*_us` / `*_ms` / `gflops` layer metrics.

use crate::harness::probe_seconds;
use feddata::Example;
use fedmath::kernel;
use fedmodels::{AnyModel, LocalSgd, LocalSgdConfig, SgdScratch};
use std::hint::black_box;

/// GFLOP/s over `gemm`, `gemm_nt` and `gemm_tn` at `batch × input × hidden`,
/// the shapes of the MLP's first layer forward and backward.
pub fn gemm_gflops(batch: usize, input: usize, hidden: usize) -> f64 {
    let a = vec![0.5; batch * input];
    let b = vec![0.25; input * hidden];
    let mut c = vec![0.0; batch * hidden];
    let a_t = vec![0.5; input * batch];
    let mut c_t = vec![0.0; batch * hidden];
    let seconds = probe_seconds(100, || {
        kernel::gemm(batch, input, hidden, black_box(&a), black_box(&b), &mut c);
        kernel::gemm_nt(batch, input, hidden, black_box(&a), black_box(&b), &mut c);
        kernel::gemm_tn(
            batch,
            input,
            hidden,
            black_box(&a_t),
            black_box(&b),
            &mut c_t,
        );
        black_box((&c, &c_t));
    });
    3.0 * 2.0 * (batch * input * hidden) as f64 / seconds / 1e9
}

/// Microseconds of one fused softmax cross-entropy backward over
/// `batch × classes` logits.
pub fn softmax_xent_us(batch: usize, classes: usize) -> f64 {
    let source: Vec<f64> = (0..batch * classes).map(|i| (i % 7) as f64 * 0.1).collect();
    let mut logits = source.clone();
    probe_seconds(100, || {
        logits.copy_from_slice(&source);
        black_box(kernel::softmax_xent_backward(
            &mut logits,
            batch,
            classes,
            |row| row % classes,
        ));
    }) * 1e6
}

/// Microseconds of one client's local training (`LocalSgd::train_into`,
/// default hyperparameters) on `examples`.
pub fn client_step_us(model: &AnyModel, examples: &[Example]) -> f64 {
    let sgd = LocalSgd::new(LocalSgdConfig::default()).expect("default SGD configuration");
    let mut rng = fedmath::rng::rng_for(0, 0);
    let mut out = Vec::new();
    let mut scratch = SgdScratch::new();
    probe_seconds(20, || {
        let _ = sgd.train_into(model, examples, &mut rng, &mut scratch, &mut out);
        black_box(&out);
    }) * 1e6
}
