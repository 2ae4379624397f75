//! Summaries of one result file and the comparison of two.
//!
//! `compare A.json B.json` takes `A` as the base. For each workload and
//! end-to-end metric it prints each side's median and quartiles and the
//! ratio of the medians, and judges the change by the bound `BENCHMARK.json`
//! fixes: `regressed` when `B`'s median is worse than `A`'s by more than the
//! bound; `unresolved` when it is not, but either side's own spread (the
//! distance between its quartiles over its median) exceeds the bound and
//! `B`'s runs are not all better than `A`'s; `ok` otherwise. The exit code is
//! non-zero on any regression, on more failures, on an `output_digest` that
//! differs at the same seed, and on a differing exact layer count.

use crate::metrics::{is_exact_count, END_TO_END, PER_LAYER};
use crate::{as_f64, as_seq, as_str, field, read_json};
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        1 => Some([data[0]; 3]),
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..=3usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

fn workload_runs<'a>(results: &'a Value, workload: &str) -> &'a [Value] {
    field(results, "runs")
        .and_then(|r| field(r, workload))
        .and_then(as_seq)
        .unwrap_or(&[])
}

fn workload_names(results: &Value) -> Vec<String> {
    match field(results, "runs") {
        Some(Value::Map(entries)) => entries.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Values of one metric over the runs of a workload. End-to-end numbers
/// count from untraced runs only, per-layer numbers exist in traced ones.
fn metric_values(runs: &[Value], section: &str, metric: &str) -> Vec<f64> {
    let traced = section == "per_layer";
    runs.iter()
        .filter(|run| field(run, "trace") == Some(&Value::Bool(traced)))
        .filter_map(|run| field(run, section))
        .filter_map(|s| field(s, metric))
        .filter_map(|m| field(m, "value").and_then(as_f64))
        .collect()
}

fn failed_share(runs: &[Value]) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|run| field(run, key).and_then(as_f64))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Prints median, quartiles and spread of every end-to-end metric.
pub fn summarize(results: &Value) {
    println!(
        "\n{:<14} {:<18} {:>14} {:>14} {:>14} {:>8}  runs",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for workload in workload_names(results) {
        let runs = workload_runs(results, &workload);
        for def in END_TO_END {
            let values = metric_values(runs, "end_to_end", def.name);
            let Some([q1, median, q3]) = quartiles(&values) else {
                continue;
            };
            println!(
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  {} {}",
                workload,
                def.name,
                median,
                q1,
                q3,
                (q3 - q1) / median * 100.0,
                values.len(),
                def.unit
            );
        }
        println!("{:<14} failed_share {:.6}", workload, failed_share(runs));
    }
}

fn bounds() -> Result<Vec<(String, f64)>, String> {
    let declared = read_json(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let listed = field(&declared, "end_to_end")
        .and_then(as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|entry| {
            let name = field(entry, "name").and_then(as_str);
            let bound = field(entry, "bound").and_then(as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// Digest of each seed's runs, for the equal-seed check.
fn digests(runs: &[Value]) -> Vec<(u64, String)> {
    runs.iter()
        .filter(|run| field(run, "trace") == Some(&Value::Bool(false)))
        .filter_map(|run| {
            let seed = field(run, "seed").and_then(as_f64)? as u64;
            let digest = field(run, "output_digest").and_then(as_str)?;
            Some((seed, digest.to_string()))
        })
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let loaded = read_json(a_path).and_then(|a| Ok((a, read_json(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("compare: {message}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0usize;
    println!(
        "base A = {}   B = {}\n{:<14} {:<18} {:>12} {:>25} {:>12} {:>25} {:>9} {:>7}  verdict",
        a_path.display(),
        b_path.display(),
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B/A",
        "bound"
    );
    for workload in workload_names(&a) {
        let runs_a = workload_runs(&a, &workload);
        let runs_b = workload_runs(&b, &workload);
        if runs_b.is_empty() {
            println!("{workload:<14} missing from B");
            bad += 1;
            continue;
        }
        for def in END_TO_END {
            let values_a = metric_values(runs_a, "end_to_end", def.name);
            let values_b = metric_values(runs_b, "end_to_end", def.name);
            let (Some(qa), Some(qb)) = (quartiles(&values_a), quartiles(&values_b)) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(0.0, |(_, bound)| *bound);
            let lower_is_better = def.better == "lower";
            let worse_by = if lower_is_better {
                qb[1] / qa[1] - 1.0
            } else {
                1.0 - qb[1] / qa[1]
            };
            let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
            let b_always_better = values_b
                .iter()
                .all(|&vb| values_a.iter().all(|&va| better(vb, va)));
            let wide = (qa[2] - qa[0]) / qa[1] > bound || (qb[2] - qb[0]) / qb[1] > bound;
            let verdict = if worse_by > bound {
                bad += 1;
                "regressed"
            } else if wide && !b_always_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<18} {:>12.5} {:>12.5}..{:<11.5} {:>12.5} {:>12.5}..{:<11.5} {:>9.4} {:>6.0}%  {}",
                workload, def.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], qb[1] / qa[1],
                bound * 100.0, verdict
            );
        }
        let (share_a, share_b) = (failed_share(runs_a), failed_share(runs_b));
        if share_b > share_a {
            println!("{workload:<14} failed_share rose from {share_a:.6} to {share_b:.6}");
            bad += 1;
        }
        let digests_a = digests(runs_a);
        for (seed, digest) in digests(runs_b) {
            if let Some((_, base)) = digests_a.iter().find(|(s, d)| *s == seed && *d != digest) {
                println!("{workload:<14} output_digest at seed {seed} is {digest}, base {base}");
                bad += 1;
            }
        }
        let exact = PER_LAYER
            .iter()
            .map(|def| def.name)
            .filter(|name| is_exact_count(&workload, name));
        for name in exact {
            let values_a = metric_values(runs_a, "per_layer", name);
            let values_b = metric_values(runs_b, "per_layer", name);
            if let (Some(va), Some(vb)) = (values_a.first(), values_b.first()) {
                let same_seed = field(&a, "seed") == field(&b, "seed");
                if same_seed && va.to_bits() != vb.to_bits() {
                    println!("{workload:<14} {name} is {vb}, base {va}: exact count differs");
                    bad += 1;
                }
            }
        }
    }
    if bad == 0 {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        println!("{bad} finding(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]).unwrap(), [7.0; 3]);
        assert!(quartiles(&[]).is_none());
    }
}
