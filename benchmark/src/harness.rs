//! What every workload shares: arguments, clocks and process readings,
//! percentiles, the output digest, scratch directories and the report a
//! workload hands back.

use fedtrace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub trace: bool,
    /// One short repetition of everything; numbers are not comparable.
    pub smoke: bool,
    /// Worker threads handed to every driver, pool and runner.
    pub threads: usize,
    /// `benchmark/out`, where results, traces and scratch roots go.
    pub out_dir: PathBuf,
}

impl Args {
    /// Length of the section the end-to-end numbers come from: a traced run
    /// that repeats its work separately with spans on spends half there.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// `min(nproc, 4)`: the benchmark never runs more workers or connections
/// than the host has cores.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// One repetition of the timed section: a campaign, a ledger cycle, a slice
/// of tenant traffic or a noise experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Evaluations delivered or records committed.
    pub trials: u64,
}

/// The timed section of a run. The end-to-end rates are medians over the
/// repetitions, so a burst of interference from the host moves a few
/// repetitions and not the result.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    pub reps: Vec<Rep>,
    /// What a caller waited for, one entry per operation, in seconds.
    pub latencies_s: Vec<f64>,
}

impl Timed {
    pub fn trials(&self) -> u64 {
        self.reps.iter().map(|r| r.trials).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.reps.iter().map(|r| r.wall_s).sum()
    }
}

/// What a workload returns.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: campaigns, or records on `ledger_cycle`.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Which output checks failed, for the human-readable report.
    pub check_failures: Vec<String>,
    pub digest: u64,
    pub setup_s: f64,
    pub timed: Timed,
    /// `VmHWM` read at a fixed point of the workload, where the reading at
    /// the end of the run would grow with the work the window happened to
    /// hold; `None` reads it at the end.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer metrics this workload measured; the rest read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.check_failures.push(what.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Sets each layer metric to how far its global counter moved between
    /// two readings.
    pub fn layer_counters(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        counters: &[(&'static str, &str)],
    ) {
        for &(layer, counter) in counters {
            self.layer(layer, counter_delta(before, after, counter));
        }
    }

    /// Writes the spans of a traced run to `out/trace-<workload>.json`.
    pub fn write_trace(&mut self, args: &Args, workload: &str, spans: &crate::spans::Spans) {
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        match spans.write_chrome(&path) {
            Ok(events) => self
                .notes
                .push(format!("{events} spans in {}", path.display())),
            Err(e) => self.fail_check(format!("writing {}: {e}", path.display())),
        }
    }
}

/// The kernel and simulator counters a training repetition moves.
pub const TRAINING_COUNTERS: [(&str, &str); 6] = [
    ("fedmath.flops", "kernel.flops"),
    ("fedmath.pool_fresh_allocs", "kernel.pool_fresh_allocations"),
    ("fedmath.pool_reuses", "kernel.pool_reuses"),
    ("fedmodels.client_steps", "sim.clients_trained"),
    ("fedsim.rounds", "sim.training_rounds"),
    ("fedsim.pool_tasks", "exec.pool.tasks"),
];

/// Runs `setup` several times and returns its last value with the median
/// time: at least three runs, more while they are cheap, so a set-up of a
/// few milliseconds is still measured steadily.
pub fn measure_setup<T>(smoke: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let (min_runs, max_runs, budget_s) = if smoke { (1, 1, 0.0) } else { (3, 25, 1.0) };
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= min_runs
            && (times.len() >= max_runs || started.elapsed().as_secs_f64() >= budget_s);
        if enough {
            return (value, median(&mut times));
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// The highest reported percentile that still has at least ten samples
/// beyond it, as `(label, q)`.
pub fn tail_percentile(samples: usize) -> (&'static str, f64) {
    const CANDIDATES: [(&str, f64); 5] = [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
        ("p75", 0.75),
    ];
    CANDIDATES
        .into_iter()
        .find(|(_, q)| samples as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(("p50", 0.5))
}

/// FNV-1a over 64-bit words: the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fedbench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU seconds of this process, every thread included
/// (also those that have exited). `/proc/self/stat` counts in clock ticks,
/// which Linux fixes at 100 per second for user space.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after it.
    let after_name = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// A fresh directory under `out/scratch`, removed when dropped — on success
/// and while a panic unwinds.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(out_dir: &Path, tag: &str) -> std::io::Result<Self> {
        let path = out_dir
            .join("scratch")
            .join(format!("{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A reading of the process-global `fedtrace` registry, which the program
/// updates whether or not anything reads it.
pub fn counters() -> MetricsSnapshot {
    fedtrace::global().snapshot()
}

/// How far a global counter moved between two readings.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let read = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    read(after).saturating_sub(read(before)) as f64
}

/// How far a global histogram's sum moved between two readings.
pub fn histogram_sum_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let read = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.sum);
    read(after).saturating_sub(read(before)) as f64
}

/// Mean seconds per call of `call`, repeated for about 0.15 s (at least
/// `min_calls` times): the fixed probes behind the `*_us` / `*_ms` metrics.
pub fn probe_seconds(min_calls: usize, mut call: impl FnMut()) -> f64 {
    const BUDGET_S: f64 = 0.15;
    call();
    let started = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || started.elapsed().as_secs_f64() < BUDGET_S {
        call();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19).0, "p50");
        assert_eq!(tail_percentile(40).0, "p75");
        assert_eq!(tail_percentile(240).0, "p95");
        assert_eq!(tail_percentile(1000).0, "p99");
        assert_eq!(tail_percentile(10_000).0, "p99.9");
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0);
    }
}
