//! Probing a population without materializing it: a deterministic,
//! order-free set of client ids.

/// Up to `probe` deterministic client ids spread evenly across
/// `0..population`: an order-free probe set for population-level statistics
/// and reference scoring. Unbiased for positional draws — client `i`'s
/// metadata ignores every other id — behind the `experiments::population`
/// reference scores.
pub fn stride_probe_ids(population: u64, probe: usize) -> Vec<u64> {
    let probed = probe
        .min(usize::try_from(population).unwrap_or(usize::MAX))
        .max(1);
    let stride = population / probed as u64;
    (0..probed)
        .map(|j| (j as u64).saturating_mul(stride))
        .collect()
}
