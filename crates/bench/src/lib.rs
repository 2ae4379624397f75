//! Support library for the benchmark harness.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper: it prints the regenerated rows once (so `cargo bench` output can be
//! compared against the paper and against `examples/full_report`) and then
//! measures the cost of the underlying experiment at a reduced scale with
//! Criterion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use fedtune_core::ExperimentScale;
use std::collections::BTreeMap;

/// The scale used inside Criterion measurement loops: small enough that every
/// benchmark iteration completes in well under a second.
pub fn measurement_scale() -> ExperimentScale {
    ExperimentScale::smoke()
}

/// The scale used for the one-off regeneration printout at the top of each
/// bench target. Controlled by the `FEDTUNE_BENCH_SCALE` environment variable
/// (`smoke`, `default`, or `paper`); defaults to `smoke` so `cargo bench`
/// stays fast.
pub fn report_scale() -> ExperimentScale {
    match std::env::var("FEDTUNE_BENCH_SCALE").as_deref() {
        Ok("paper") => ExperimentScale::paper(),
        Ok("default") => ExperimentScale::default_scale(),
        _ => ExperimentScale::smoke(),
    }
}

/// Prints a regenerated report with a consistent banner.
pub fn print_report(report: &fedtune_core::ExperimentReport) {
    println!("\n{}", report.to_table());
}

/// One timed measurement inside a [`BenchSummary`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchEntry {
    /// What was measured (e.g. `"scheduled_extended_parallel"`).
    pub label: String,
    /// Wall-clock seconds of the measured run.
    pub wall_seconds: f64,
    /// Work items completed (trials, evaluations, rounds — per the label).
    pub items: u64,
    /// `items / wall_seconds` (0 when nothing was measured).
    pub throughput_per_second: f64,
}

/// Machine-readable summary of one bench target, written to
/// `BENCH_<name>.json` so the perf trajectory can be tracked across PRs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchSummary {
    /// The bench target (e.g. `"fig08_methods"`).
    pub name: String,
    /// The `FEDTUNE_BENCH_SCALE` the summary was produced at.
    pub scale: String,
    /// The bench's headline numbers by name — `sim_elapsed`,
    /// `trials_per_sim_hour`, `peak_resident_clients`, `cache_hit_rate`,
    /// `rounds_per_sec`, `gflops`, `trials_ingested_per_sec`,
    /// `replay_trials_per_sec`, `ledger_bytes_per_trial`, … — holding only
    /// what this bench measured. A summary written without the block still
    /// deserializes (to an empty map), and [`regression::compare`] never
    /// reads it.
    pub headlines: BTreeMap<String, f64>,
    /// The measurements.
    pub entries: Vec<BenchEntry>,
    /// A full [`fedtrace`] metrics snapshot taken at the end of the run
    /// (cache hit rates, ledger sync counts, queue-depth histograms, …).
    /// `None` when the bench did not capture one — including every baseline
    /// written before this field existed, which still deserializes.
    /// [`regression::compare`] iterates only `entries`, so the block can
    /// never cause a false perf regression.
    pub metrics: Option<fedtrace::MetricsSnapshot>,
}

impl BenchSummary {
    /// Creates an empty summary for the named bench target, stamped with the
    /// active report scale.
    pub fn new(name: &str) -> Self {
        BenchSummary {
            name: name.to_string(),
            scale: std::env::var("FEDTUNE_BENCH_SCALE").unwrap_or_else(|_| "smoke".into()),
            headlines: BTreeMap::new(),
            entries: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches a [`fedtrace`] metrics snapshot to the summary, so every
    /// `BENCH_<name>.json` carries the run's full registry state.
    pub fn record_metrics(&mut self, metrics: fedtrace::MetricsSnapshot) {
        self.metrics = Some(metrics);
    }

    /// Records the headline number `name` (see [`headlines`](Self::headlines)
    /// for the names in use), replacing an earlier value.
    pub fn headline(&mut self, name: &str, value: f64) {
        self.headlines.insert(name.to_string(), value);
    }

    /// Records one measurement.
    pub fn push(&mut self, label: &str, wall_seconds: f64, items: u64) {
        let throughput_per_second = if wall_seconds > 0.0 {
            items as f64 / wall_seconds
        } else {
            0.0
        };
        self.entries.push(BenchEntry {
            label: label.to_string(),
            wall_seconds,
            items,
            throughput_per_second,
        });
    }

    /// Runs `work`, records its wall-clock under `label` (with `items` work
    /// units), and returns its output.
    pub fn time<T>(&mut self, label: &str, items: u64, work: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = work();
        self.push(label, start.elapsed().as_secs_f64(), items);
        out
    }

    /// Writes `BENCH_<name>.json` when `FEDTUNE_BENCH_JSON=1`; a silent
    /// no-op otherwise. The file lands in `FEDTUNE_BENCH_JSON_DIR` if set,
    /// else the process working directory. Failures to write are reported on
    /// stderr but never fail the bench.
    pub fn write_if_enabled(&self) {
        if std::env::var("FEDTUNE_BENCH_JSON").as_deref() != Ok("1") {
            return;
        }
        let dir = std::env::var("FEDTUNE_BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
        let path = format!("{dir}/BENCH_{}.json", self.name);
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write {path}: {e}");
                } else {
                    println!("wrote {path}");
                }
            }
            Err(e) => eprintln!("failed to serialize bench summary {}: {e}", self.name),
        }
    }
}

/// Peak resident set size of this process so far, in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` where procfs is
/// unavailable. Bounded-memory assertions compare this before and after a
/// large streaming pass: the delta must not scale with the data.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Throughput-regression gating: compares a freshly-measured [`BenchSummary`]
/// against a committed baseline and flags entries whose throughput fell by
/// more than a threshold. Used by the CI perf-smoke job via the
/// `perf_compare` binary.
pub mod regression {
    use super::BenchSummary;

    /// The comparison of one measurement label across baseline and candidate.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EntryComparison {
        /// The measurement label.
        pub label: String,
        /// Baseline throughput (items per second).
        pub baseline: f64,
        /// Candidate throughput (items per second).
        pub candidate: f64,
        /// `candidate / baseline` (`inf` when the baseline was zero).
        pub ratio: f64,
        /// Whether the candidate regressed past the threshold.
        pub regressed: bool,
    }

    /// Outcome of comparing a candidate summary against a baseline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ComparisonReport {
        /// The bench name under comparison.
        pub bench: String,
        /// Per-label comparisons, in baseline order.
        pub entries: Vec<EntryComparison>,
        /// Baseline labels with no matching candidate measurement — treated
        /// as failures (a silently dropped measurement must not pass CI).
        pub missing: Vec<String>,
    }

    impl ComparisonReport {
        /// Entries that regressed past the threshold.
        pub fn regressions(&self) -> Vec<&EntryComparison> {
            self.entries.iter().filter(|e| e.regressed).collect()
        }

        /// `true` when no entry regressed and no baseline label is missing.
        pub fn passed(&self) -> bool {
            self.missing.is_empty() && self.entries.iter().all(|e| !e.regressed)
        }

        /// Human-readable multi-line report.
        pub fn to_table(&self) -> String {
            let mut out = format!("perf comparison for {}\n", self.bench);
            for e in &self.entries {
                out.push_str(&format!(
                    "  {:<40} baseline {:>12.2}/s candidate {:>12.2}/s ratio {:.2} {}\n",
                    e.label,
                    e.baseline,
                    e.candidate,
                    e.ratio,
                    if e.regressed { "REGRESSED" } else { "ok" }
                ));
            }
            for label in &self.missing {
                out.push_str(&format!("  {label:<40} MISSING from candidate\n"));
            }
            out
        }
    }

    /// Compares `candidate` against `baseline`: an entry regresses when its
    /// throughput drops below `baseline * (1 - threshold)` (e.g.
    /// `threshold = 0.3` fails on a >30% drop). Labels present only in the
    /// candidate are new measurements and are ignored; labels present only
    /// in the baseline are reported as missing. Zero-throughput baseline
    /// entries (nothing was measured) never gate.
    pub fn compare(
        baseline: &BenchSummary,
        candidate: &BenchSummary,
        threshold: f64,
    ) -> ComparisonReport {
        let mut entries = Vec::new();
        let mut missing = Vec::new();
        for b in &baseline.entries {
            match candidate.entries.iter().find(|c| c.label == b.label) {
                None => missing.push(b.label.clone()),
                Some(c) => {
                    let ratio = if b.throughput_per_second > 0.0 {
                        c.throughput_per_second / b.throughput_per_second
                    } else {
                        f64::INFINITY
                    };
                    entries.push(EntryComparison {
                        label: b.label.clone(),
                        baseline: b.throughput_per_second,
                        candidate: c.throughput_per_second,
                        ratio,
                        regressed: b.throughput_per_second > 0.0
                            && c.throughput_per_second
                                < b.throughput_per_second * (1.0 - threshold),
                    });
                }
            }
        }
        ComparisonReport {
            bench: baseline.name.clone(),
            entries,
            missing,
        }
    }
}

/// Schema checks for the observability exports: Chrome `trace_event` JSON
/// and [`fedtrace::MetricsSnapshot`] files. Used by the CI `trace-smoke` job
/// through the `trace_check` binary to validate what a traced example run
/// actually emitted.
pub mod trace {
    /// Validates a Chrome `trace_event` export: a JSON object whose
    /// `traceEvents` is an array of objects, each carrying a string `ph` and
    /// integer `pid`/`tid`, with every complete (`ph:"X"`) slice also
    /// carrying a string `name` and numeric `ts`/`dur`. Returns the event
    /// count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
        let value = serde_json::parse_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
        let serde::Value::Map(fields) = &value else {
            return Err("top level is not an object".into());
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .ok_or("missing \"traceEvents\"")?;
        let serde::Value::Seq(events) = events else {
            return Err("\"traceEvents\" is not an array".into());
        };
        for (i, event) in events.iter().enumerate() {
            let serde::Value::Map(event) = event else {
                return Err(format!("event {i} is not an object"));
            };
            let field = |name: &str| event.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let Some(serde::Value::Str(ph)) = field("ph") else {
                return Err(format!("event {i} has no string \"ph\""));
            };
            for id in ["pid", "tid"] {
                match field(id) {
                    Some(serde::Value::U64(_)) | Some(serde::Value::I64(_)) => {}
                    _ => return Err(format!("event {i} has no integer \"{id}\"")),
                }
            }
            if ph == "X" {
                if !matches!(field("name"), Some(serde::Value::Str(_))) {
                    return Err(format!("slice {i} has no string \"name\""));
                }
                for t in ["ts", "dur"] {
                    match field(t) {
                        Some(serde::Value::F64(_))
                        | Some(serde::Value::U64(_))
                        | Some(serde::Value::I64(_)) => {}
                        _ => return Err(format!("slice {i} has no numeric \"{t}\"")),
                    }
                }
            }
        }
        Ok(events.len())
    }

    /// Validates a metrics-snapshot export by round-tripping it through the
    /// typed [`fedtrace::MetricsSnapshot`], returning the parsed snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse failure.
    pub fn validate_metrics_snapshot(json: &str) -> Result<fedtrace::MetricsSnapshot, String> {
        serde_json::from_str(json).map_err(|e| format!("not a metrics snapshot: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        assert!(measurement_scale().validate().is_ok());
        assert!(report_scale().validate().is_ok());
    }

    #[test]
    fn bench_summary_records_and_serializes() {
        let mut summary = BenchSummary::new("unit_test");
        let value = summary.time("timed_block", 10, || 42);
        assert_eq!(value, 42);
        summary.push("manual", 2.0, 8);
        assert_eq!(summary.entries.len(), 2);
        assert_eq!(summary.entries[1].throughput_per_second, 4.0);
        // Zero wall-clock never divides by zero.
        summary.push("instant", 0.0, 5);
        assert_eq!(summary.entries[2].throughput_per_second, 0.0);
        // Headline numbers ride in the JSON under their names.
        assert!(summary.headlines.is_empty());
        summary.headline("sim_elapsed", 1800.0);
        summary.headline("peak_resident_clients", 72.0);
        summary.headline("peak_resident_clients", 73.0);
        assert_eq!(summary.headlines.len(), 2);
        assert_eq!(summary.headlines["peak_resident_clients"], 73.0);
        let json = serde_json::to_string_pretty(&summary).unwrap();
        assert!(json.contains("timed_block"));
        assert!(json.contains("unit_test"));
        assert!(json.contains("\"headlines\""));
        assert!(json.contains("\"sim_elapsed\": 1800.0"));
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        // Disabled by default: no file side effects.
        if std::env::var("FEDTUNE_BENCH_JSON").as_deref() != Ok("1") {
            summary.write_if_enabled();
            assert!(!std::path::Path::new("BENCH_unit_test.json").exists());
        }
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb().unwrap() > 0);
        }
    }

    fn summary_with(name: &str, entries: &[(&str, f64)]) -> BenchSummary {
        let mut s = BenchSummary::new(name);
        for (label, throughput) in entries {
            // push computes throughput = items / wall_seconds; feed it 1s.
            s.push(label, 1.0, *throughput as u64);
        }
        s
    }

    #[test]
    fn regression_compare_flags_slowdowns_and_missing_labels() {
        let baseline = summary_with("k", &[("gemm", 1000.0), ("dot", 500.0), ("xent", 100.0)]);
        let candidate = summary_with("k", &[("gemm", 900.0), ("dot", 200.0)]);
        let report = regression::compare(&baseline, &candidate, 0.3);
        assert!(!report.passed());
        // gemm dropped 10% — inside the 30% threshold.
        assert!(!report.entries[0].regressed);
        // dot dropped 60% — regression.
        assert!(report.entries[1].regressed);
        assert_eq!(report.regressions().len(), 1);
        // xent disappeared — missing.
        assert_eq!(report.missing, vec!["xent".to_string()]);
        let table = report.to_table();
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("MISSING"));
    }

    #[test]
    fn regression_compare_passes_on_equal_or_faster() {
        let baseline = summary_with("k", &[("gemm", 1000.0), ("idle", 0.0)]);
        let candidate = summary_with("k", &[("gemm", 1500.0), ("idle", 0.0), ("extra", 5.0)]);
        let report = regression::compare(&baseline, &candidate, 0.3);
        assert!(report.passed(), "{}", report.to_table());
        // Zero-throughput baselines never gate; extra candidate labels are
        // new measurements, not failures.
        assert_eq!(report.entries.len(), 2);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn metrics_block_is_optional_and_ignored_by_compare() {
        // A candidate measured with tracing on carries the metrics block…
        let mut candidate = summary_with("k", &[("gemm", 1000.0)]);
        let trace = fedtrace::Trace::new();
        trace.registry().counter("kernel.flops").add(123);
        candidate.record_metrics(trace.snapshot());
        let json = serde_json::to_string_pretty(&candidate).unwrap();
        assert!(json.contains("kernel.flops"));
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.metrics.as_ref().unwrap().counter("kernel.flops"),
            Some(123)
        );
        // …while a baseline written before either block existed (or with the
        // nine scalar headline fields of the old format) still parses…
        let legacy = serde_json::to_string(&summary_with("k", &[("gemm", 1000.0)]))
            .unwrap()
            .replace(",\"metrics\":null", "")
            .replace("\"headlines\":{},", "\"sim_elapsed\":0.0,\"gflops\":36.5,");
        assert!(!legacy.contains("metrics") && !legacy.contains("headlines"));
        let baseline: BenchSummary = serde_json::from_str(&legacy).unwrap();
        assert!(baseline.metrics.is_none());
        assert!(baseline.headlines.is_empty());
        // …and the comparison gates only on entries, in both directions.
        assert!(regression::compare(&baseline, &candidate, 0.3).passed());
        assert!(regression::compare(&candidate, &baseline, 0.3).passed());
    }

    #[test]
    fn chrome_trace_schema_check_accepts_real_exports_and_rejects_junk() {
        let spans = vec![fedtrace::TrialSpan {
            trial: 0,
            resource: 1,
            rep: 0,
            worker: 0,
            start: 0.0,
            end: 1.5,
        }];
        let json = fedtrace::virtual_timeline_json(&[fedtrace::TimelineTrack::new("t", spans)]);
        assert_eq!(trace::validate_chrome_trace(&json).unwrap(), 3);
        let profile = fedtrace::WallProfile::new();
        profile.time("phase", || ());
        assert_eq!(
            trace::validate_chrome_trace(&profile.to_chrome_json()).unwrap(),
            2
        );
        assert!(trace::validate_chrome_trace("not json").is_err());
        assert!(trace::validate_chrome_trace("[]").is_err());
        assert!(trace::validate_chrome_trace("{\"traceEvents\":1}").is_err());
        assert!(trace::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(
            trace::validate_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"n\",\"ts\":0}]}"
            )
            .is_err(),
            "a slice without dur must fail"
        );
    }

    #[test]
    fn metrics_snapshot_schema_check_round_trips() {
        let trace = fedtrace::Trace::new();
        trace.registry().counter("a").add(7);
        trace.registry().histogram("h").observe(3);
        let json = serde_json::to_string_pretty(&trace.snapshot()).unwrap();
        let snap = trace::validate_metrics_snapshot(&json).unwrap();
        assert_eq!(snap.counter("a"), Some(7));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert!(trace::validate_metrics_snapshot("{\"nope\":1}").is_err());
    }

    #[test]
    fn regression_threshold_brackets() {
        // Just inside the 30% threshold passes; just past it fails.
        let baseline = summary_with("k", &[("op", 1000.0)]);
        let inside = summary_with("k", &[("op", 710.0)]);
        assert!(regression::compare(&baseline, &inside, 0.3).passed());
        let outside = summary_with("k", &[("op", 690.0)]);
        assert!(!regression::compare(&baseline, &outside, 0.3).passed());
    }
}
