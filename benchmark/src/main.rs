//! One end-to-end benchmark of the tuning stack.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Without a
//! single workload (or with `--runs R`) the binary runs each workload in
//! child processes of its own, run r with seed + r, and collects
//! `out/results.json`; `--smoke` does
//! the same with one short repetition and validates the output; `compare
//! A.json B.json` sets two result files side by side.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod metrics;
mod probes;
mod pump;
mod spans;
mod workloads;

use harness::{Args, Report};
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--runs R] [--smoke]\n       run.sh compare A.json B.json";

/// Seed used when none is given; `BENCHMARK.json`'s baseline also records a
/// second seed that was not used while the workloads were sized.
const DEFAULT_SEED: u64 = 1;

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: Option<usize>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => cli.workload = value(&mut i)?.clone(),
            "--seed" => cli.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(seconds);
            }
            "--runs" => {
                let runs: usize = value(&mut i)?.parse().map_err(|e| format!("--runs: {e}"))?;
                cli.runs = Some(runs.max(1));
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; a bare `--trace` is 1.
                cli.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; choose one of {WORKLOADS:?} or all",
            cli.workload
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Results land in `out/` of the directory the package was built from,
    // wherever the command is started. From the repository root the path is
    // taken relative, which keeps the daemon's unix-socket path short.
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| package.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| package.to_path_buf())
        .join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("creating {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if cli.workload != "all" && cli.runs.is_none() {
        // One named workload runs in this process; a smoke run of it is
        // short and always traced, so one run shows every metric.
        let default_seconds = if cli.smoke { 1.0 } else { run_seconds() };
        let args = Args {
            seed: cli.seed,
            seconds: cli.seconds.unwrap_or(default_seconds),
            trace: cli.trace || cli.smoke,
            smoke: cli.smoke,
            threads: harness::worker_threads(),
            out_dir,
        };
        return run_single(&cli.workload, &args);
    }
    orchestrate(&cli, &out_dir)
}

/// `run_seconds` of `BENCHMARK.json` when it can be read from the working
/// directory, else the value it was written with.
fn run_seconds() -> f64 {
    read_json(Path::new("BENCHMARK.json"))
        .ok()
        .and_then(|v| field(&v, "run_seconds").and_then(as_f64))
        .unwrap_or(20.0)
}

// ---------------------------------------------------------------------------
// One workload, in this process.

fn metric_object(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> Value {
    Value::Map(
        defs.iter()
            .map(|def| {
                (
                    def.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value_of(def.name))),
                        ("unit".into(), Value::Str(def.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn end_to_end_value(report: &Report, sorted_latencies: &[f64], name: &str) -> f64 {
    let reps = &report.timed.reps;
    let median_over_reps = |f: &dyn Fn(&harness::Rep) -> f64| {
        let mut values: Vec<f64> = reps.iter().filter(|r| r.trials > 0).map(f).collect();
        harness::median(&mut values)
    };
    match name {
        "setup_s" => report.setup_s,
        "trials_per_s" => median_over_reps(&|r| r.trials as f64 / r.wall_s),
        "latency_p50_ms" => harness::percentile(sorted_latencies, 0.5) * 1e3,
        // Over the whole timed section: the process CPU clock ticks every
        // 10 ms, too coarse to read per repetition.
        "cpu_ms_per_trial" => {
            reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / report.timed.trials().max(1) as f64
        }
        "peak_rss_mb" => report.peak_rss_mb.unwrap_or_else(harness::peak_rss_mb),
        other => unreachable!("unknown end-to-end metric {other}"),
    }
}

fn run_single(workload: &str, args: &Args) -> ExitCode {
    let mut report = match workload {
        "train_asha" => workloads::train_asha::run(args),
        "serve_tenants" => workloads::serve_tenants::run(args),
        "ledger_cycle" => workloads::ledger_cycle::run(args),
        "pop_noise" => workloads::pop_noise::run(args),
        other => unreachable!("workload {other} was validated"),
    };
    let mut latencies = report.timed.latencies_s.clone();
    latencies.sort_by(f64::total_cmp);
    let end_to_end = metric_object(&END_TO_END, |name| {
        end_to_end_value(&report, &latencies, name)
    });
    let per_layer = metric_object(&PER_LAYER, |name| {
        report.layers.get(name).copied().unwrap_or(0.0)
    });
    for name in report.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|def| def.name == *name),
            "workload reported the undeclared layer metric {name}"
        );
    }
    let reported = if args.trace { &per_layer } else { &end_to_end }.clone();
    let finite = all_values_finite(&reported);
    if !finite {
        report.fail_check("a metric is not a finite number");
    }
    if report.timed.trials() == 0 || report.attempted == 0 {
        report.fail_check("the timed section completed no operation");
        report.attempted = report.attempted.max(1);
    }
    let correct = report.failed == 0;

    println!(
        "workload {workload}  seed {}  seconds {}  threads {} (nproc {})  trace {}{}",
        args.seed,
        args.seconds,
        args.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(args.trace),
        if args.smoke { "  SMOKE" } else { "" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    print_metrics("end-to-end", &END_TO_END, &end_to_end);
    let (tail_label, tail_q) = harness::tail_percentile(latencies.len());
    let tail_ms = harness::percentile(&latencies, tail_q) * 1e3;
    println!(
        "  {:<34} {:>18.6} ms   ({} latency samples)",
        format!("latency_{tail_label}_ms"),
        tail_ms,
        latencies.len()
    );
    if args.trace {
        print_metrics("per-layer", &PER_LAYER, &per_layer);
    }
    println!(
        "  ops {}  failed {}  output_digest {:#018x}",
        report.attempted, report.failed, report.digest
    );
    for failure in &report.check_failures {
        println!("  CHECK FAILED: {failure}");
    }

    let mut detail = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("threads".into(), Value::U64(args.threads as u64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(report.attempted)),
        ("failed".into(), Value::U64(report.failed)),
        (
            "output_digest".into(),
            Value::Str(format!("{:#018x}", report.digest)),
        ),
        ("end_to_end".into(), end_to_end),
        (
            "latency".into(),
            Value::Map(vec![
                ("samples".into(), Value::U64(latencies.len() as u64)),
                ("tail".into(), Value::Str(tail_label.into())),
                ("tail_ms".into(), Value::F64(tail_ms)),
            ]),
        ),
        (
            "check_failures".into(),
            Value::Seq(
                report
                    .check_failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        detail.push(("per_layer".into(), per_layer));
    }
    let detail_path = args.out_dir.join(detail_file(workload, args.trace));
    if finite {
        if let Err(e) = write_json(&detail_path, &Value::Map(detail)) {
            eprintln!("writing {}: {e}", detail_path.display());
            return ExitCode::FAILURE;
        }
    }

    let last_line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(report.attempted)),
        ("failed".into(), Value::U64(report.failed)),
        ("metrics".into(), reported),
    ]);
    match serde_json::to_string(&last_line) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("encoding the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn detail_file(workload: &str, trace: bool) -> String {
    format!("run-{workload}{}.json", if trace { "-trace" } else { "" })
}

fn all_values_finite(metrics: &Value) -> bool {
    let Value::Map(entries) = metrics else {
        return false;
    };
    entries.iter().all(|(_, m)| {
        field(m, "value")
            .and_then(as_f64)
            .is_some_and(f64::is_finite)
    })
}

fn print_metrics(title: &str, defs: &[MetricDef], values: &Value) {
    println!("  -- {title} --");
    for def in defs {
        let value = field(values, def.name)
            .and_then(|m| field(m, "value"))
            .and_then(as_f64)
            .unwrap_or(f64::NAN);
        println!("  {:<34} {:>18.6} {}", def.name, value, def.unit);
    }
}

// ---------------------------------------------------------------------------
// Every workload, each in a child process of its own.

fn orchestrate(cli: &Cli, out_dir: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = if cli.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cli.workload.as_str()]
    };
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 1.0 } else { run_seconds() });
    let runs = if cli.smoke { 1 } else { cli.runs.unwrap_or(1) };
    let traces: &[bool] = match (cli.smoke, cli.trace) {
        (true, _) => &[true],
        (false, true) => &[false, true],
        (false, false) => &[false],
    };
    let mut all_ok = true;
    let mut collected: Vec<(String, Value)> = Vec::new();
    for workload in &workloads {
        let mut details = Vec::new();
        for run in 0..runs {
            // Run r uses seed + r, as the driver gives every run a seed of
            // its own; only the first run is repeated traced.
            let seed = cli.seed + run as u64;
            for &trace in traces.iter().filter(|&&t| !t || run == 0) {
                let mut command = std::process::Command::new(&exe);
                command
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if cli.smoke {
                    command.arg("--smoke");
                }
                println!(
                    "== {workload} run {}/{runs} seed {seed} trace {} ==",
                    run + 1,
                    u8::from(trace)
                );
                // A result left by an earlier run must not stand in for this one.
                let path = out_dir.join(detail_file(workload, trace));
                let _ = std::fs::remove_file(&path);
                // The child inherits standard output, so its report shows.
                all_ok &= command.status().is_ok_and(|status| status.success());
                match read_json(&path) {
                    Ok(detail) => details.push(detail),
                    Err(e) => {
                        all_ok = false;
                        eprintln!("{workload}: no result ({e})");
                    }
                }
            }
        }
        collected.push((workload.to_string(), Value::Seq(details)));
    }
    let results = Value::Map(vec![
        ("seed".into(), Value::U64(cli.seed)),
        ("seconds".into(), Value::F64(seconds)),
        (
            "threads".into(),
            Value::U64(harness::worker_threads() as u64),
        ),
        ("smoke".into(), Value::Bool(cli.smoke)),
        ("runs".into(), Value::Map(collected)),
    ]);
    let results_path = out_dir.join("results.json");
    if let Err(e) = write_json(&results_path, &results) {
        eprintln!("writing {}: {e}", results_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", results_path.display());
    if cli.smoke {
        match validate_smoke(&results, out_dir, &workloads) {
            Ok(()) => println!("smoke: every metric present, finite and unit-tagged; traces parse"),
            Err(message) => {
                eprintln!("smoke: {message}");
                all_ok = false;
            }
        }
    } else {
        compare::summarize(&results);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks a smoke run against `BENCHMARK.json`: every declared metric is
/// reported with its declared unit and a finite value, and every trace file
/// is a JSON array of events.
fn validate_smoke(results: &Value, out_dir: &Path, workloads: &[&str]) -> Result<(), String> {
    let declared = read_json(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared_workloads: Vec<&str> = field(&declared, "workloads")
        .and_then(as_seq)
        .map(|w| {
            w.iter()
                .filter_map(|w| field(w, "name").and_then(as_str))
                .collect()
        })
        .unwrap_or_default();
    if declared_workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json names workloads {declared_workloads:?}, the binary {WORKLOADS:?}"
        ));
    }
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = field(&declared, section).and_then(as_seq).unwrap_or(&[]);
        if listed.len() != defs.len() {
            return Err(format!(
                "BENCHMARK.json lists {} {section} metrics, the binary {}",
                listed.len(),
                defs.len()
            ));
        }
        for (entry, def) in listed.iter().zip(defs) {
            let got = (
                field(entry, "name").and_then(as_str),
                field(entry, "unit").and_then(as_str),
                field(entry, "better").and_then(as_str),
            );
            if got != (Some(def.name), Some(def.unit), Some(def.better)) {
                return Err(format!(
                    "BENCHMARK.json {section} entry {got:?} is not {def:?}"
                ));
            }
        }
    }
    for workload in workloads {
        let runs = field(results, "runs")
            .and_then(|r| field(r, workload))
            .and_then(as_seq)
            .unwrap_or(&[]);
        let Some(run) = runs.first() else {
            return Err(format!("{workload}: no result"));
        };
        if field(run, "correct") != Some(&Value::Bool(true)) {
            return Err(format!("{workload}: output checks failed"));
        }
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for def in defs {
                let metric = field(run, section).and_then(|s| field(s, def.name));
                let value = metric.and_then(|m| field(m, "value")).and_then(as_f64);
                let unit = metric.and_then(|m| field(m, "unit")).and_then(as_str);
                if !value.is_some_and(f64::is_finite) || unit != Some(def.unit) {
                    return Err(format!(
                        "{workload}: {section} metric {} reads {value:?} {unit:?}",
                        def.name
                    ));
                }
            }
        }
        let trace_path = out_dir.join(format!("trace-{workload}.json"));
        match read_json(&trace_path) {
            Ok(Value::Seq(events)) if !events.is_empty() => {}
            Ok(_) => {
                return Err(format!(
                    "{}: not a non-empty event array",
                    trace_path.display()
                ))
            }
            Err(e) => return Err(format!("{}: {e}", trace_path.display())),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON helpers over the repository's own value tree.

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| e.to_string())
}

pub fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_seq(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Seq(items) => Some(items),
        _ => None,
    }
}
