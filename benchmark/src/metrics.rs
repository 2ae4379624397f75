//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same names; `--smoke` checks that the two agree.

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

pub const WORKLOADS: [&str; 4] = ["train_asha", "serve_tenants", "ledger_cycle", "pop_noise"];

/// What a user of the system sees; reported by every workload.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("trials_per_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("cpu_ms_per_trial", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, measured from outside; a workload that does not reach a
/// layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 58] = [
    lower("fedmath.flops", "count"),
    lower("fedmath.pool_fresh_allocs", "count"),
    higher("fedmath.pool_reuses", "count"),
    higher("fedmath.gemm_gflops", "GFLOP/s"),
    lower("fedmath.softmax_xent_us", "us"),
    lower("fedmodels.client_step_us", "us"),
    lower("fedmodels.client_steps", "count"),
    lower("fedsim.round_ms", "ms"),
    lower("fedsim.rounds", "count"),
    higher("fedsim.rounds_per_s", "1/s"),
    lower("fedsim.eval_full_ms", "ms"),
    lower("fedsim.eval_subsample_ms", "ms"),
    lower("fedsim.noisy_error_us", "us"),
    lower("fedsim.pool_tasks", "count"),
    higher("fedsim.pool_efficiency", "ratio"),
    lower("core.step_calls", "count"),
    lower("core.step_self_s", "s"),
    lower("core.complete_self_s", "s"),
    lower("core.evaluate_busy_s", "s"),
    lower("core.commit_busy_s", "s"),
    higher("core.coverage", "ratio"),
    lower("fedhpo.suggest_calls", "count"),
    lower("fedhpo.suggest_busy_s", "s"),
    lower("fedhpo.report_calls", "count"),
    lower("fedhpo.report_busy_s", "s"),
    lower("fedhpo.promotions", "count"),
    higher("fedstore.ingest_trials_per_s", "1/s"),
    higher("fedstore.durable_commits_per_s", "1/s"),
    higher("fedstore.replay_trials_per_s", "1/s"),
    higher("fedstore.reopen_trials_per_s", "1/s"),
    lower("fedstore.bytes_per_trial", "B"),
    lower("fedstore.insert_us_p50", "us"),
    lower("fedstore.insert_us_p99", "us"),
    lower("fedstore.group_commits", "count"),
    lower("fedstore.syncs", "count"),
    lower("fedstore.sync_busy_us", "us"),
    lower("fedstore.bytes_written", "B"),
    higher("fedstore.writer_trials_per_s", "1/s"),
    lower("fedstore.index_share", "ratio"),
    lower("fedstore.records_replayed", "count"),
    lower("fedstore.recovery_truncated_bytes", "B"),
    lower("fedserve.campaign_p95_ms", "ms"),
    lower("fedserve.frame_codec_ns", "ns"),
    lower("fedserve.ping_rtt_us", "us"),
    lower("fedserve.status_rtt_p50_us", "us"),
    lower("fedserve.status_rtt_p99_us", "us"),
    lower("fedserve.submit_ms", "ms"),
    lower("fedserve.frames_rx", "count"),
    lower("fedserve.proto_errors", "count"),
    higher("fedserve.campaigns_settled", "count"),
    lower("fedserve.heavy_share", "ratio"),
    lower("fedpop.materialize_us", "us"),
    lower("fedpop.sample_us", "us"),
    higher("fedpop.cache_hit_rate", "ratio"),
    lower("fedpop.cache_misses", "count"),
    lower("fedpop.peak_resident", "count"),
    lower("feddata.generate_s", "s"),
    lower("harness.trace_overhead_pct", "%"),
];

/// Layer counts a workload's definition fixes: at the same seed they must
/// repeat exactly, so `compare` checks them for equality.
const EXACT_LAYER_COUNTS: [&str; 8] = [
    "fedmath.flops",
    "fedsim.rounds",
    "fedmodels.client_steps",
    "fedhpo.suggest_calls",
    "fedhpo.report_calls",
    "fedstore.records_replayed",
    "fedstore.bytes_written",
    "fedstore.bytes_per_trial",
];

/// Whether `metric` repeats exactly on `workload` at the same seed. On
/// `serve_tenants` the bytes written cover the timed window, whose length in
/// campaigns depends on the machine.
pub fn is_exact_count(workload: &str, metric: &str) -> bool {
    EXACT_LAYER_COUNTS.contains(&metric)
        && !(workload == "serve_tenants" && metric == "fedstore.bytes_written")
}
