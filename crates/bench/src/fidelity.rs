//! The paper's claims as a scorecard: `FIDELITY.json` at the repository root
//! holds one seed list and one [`Row`] per claim, each naming the `FIGURES`
//! entry that draws it. [`draw`] builds one `FigureInputs` per seed and
//! draws the figures the rows name; [`Scorecard::check`] reads each row's
//! effect off every seed's reports and judges it with an exact one-sided
//! sign test over seeds. The `fidelity_check` binary runs both, every seed
//! at `default` scale.
//!
//! A row's effect is one number per seed, signed so that the claim says it
//! exceeds the row's floor:
//! - a **paired** row reads two sides, `a` and `b`, each the mean of the
//!   medians of its points (`b` may be absent: 0), and the effect is
//!   `a - b` (direction `above`) or `b - a` (`below`);
//! - a **trend** row reads one series, and the effect is the Spearman
//!   correlation of its medians with `x` (direction `increasing`), or its
//!   negation (`decreasing`).
//!
//! A row holds when the effect exceeds the floor on enough seeds for the
//! sign test to reject "no more likely above the floor than below it" at
//! [`ALPHA`] (seeds exactly at the floor are dropped), and its median over
//! seeds is at least the floor.

use fedtune_core::experiments::figures::{self, FigureInputs, FIGURES};
use fedtune_core::{ExperimentReport, ExperimentScale, TrialRunner};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Where the committed scorecard lives.
const FIDELITY_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIDELITY.json");

/// The sign test's significance level.
pub const ALPHA: f64 = 0.05;

/// `FIDELITY.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Scorecard {
    /// The seeds, fixed before any result was read.
    pub seeds: Vec<u64>,
    /// The measured wall time of a check, for the reader.
    pub wall_time: Option<String>,
    /// One row per claim.
    pub rows: Vec<Row>,
}

/// The keys a [`Row`] may hold.
const ROW_KEYS: [&str; 9] = [
    "claim",
    "figure",
    "report",
    "a",
    "b",
    "trend",
    "direction",
    "floor",
    "status",
];

/// One claim.
#[derive(Debug, Clone, Deserialize)]
pub struct Row {
    /// What the row claims, in words.
    pub claim: String,
    /// The `FIGURES` id that draws it.
    pub figure: String,
    /// Which of the figure's reports it reads (negative counts from the
    /// end; absent is the first).
    pub report: Option<i64>,
    /// A paired row's first side.
    pub a: Option<Vec<Point>>,
    /// A paired row's second side (absent: compare `a` with the floor).
    pub b: Option<Vec<Point>>,
    /// A trend row's series (a name; `*` matches any run of characters).
    pub trend: Option<String>,
    /// `above` / `below` for a paired row, `increasing` / `decreasing` for a
    /// trend row.
    pub direction: String,
    /// The floor the effect must exceed.
    pub floor: f64,
    /// `reproduced` or `not_reproduced`.
    pub status: String,
}

/// One point of a series.
#[derive(Debug, Clone, Deserialize)]
pub struct Point {
    /// The series' name (`*` matches any run of characters); it must match
    /// exactly one series of the report.
    pub series: String,
    /// The point's index (negative counts from the end).
    pub point: i64,
}

/// What one seed drew: every named figure's reports, by id.
pub type Drawn = BTreeMap<String, Vec<ExperimentReport>>;

/// A row judged over the seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The median effect over seeds.
    pub median: f64,
    /// Seeds whose effect exceeds the floor.
    pub wins: usize,
    /// Seeds whose effect falls below it.
    pub losses: usize,
    /// Seeds exactly at it.
    pub ties: usize,
    /// The sign test's p-value.
    pub p: f64,
    /// Whether the claim holds.
    pub holds: bool,
}

/// `P(X >= wins)` for `X ~ Binomial(wins + losses, 1/2)`: the exact
/// one-sided sign test (1 when there is nothing to count).
pub fn sign_test(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let (mut tail, mut choose) = (0.0, 1.0);
    for k in 0..=n {
        if k >= wins {
            tail += choose;
        }
        choose = choose * (n - k) as f64 / (k + 1) as f64;
    }
    tail / 2f64.powi(n as i32)
}

/// The Spearman correlation of `points`' medians with their `x` (0 when
/// either column admits no ranking).
pub fn trend(points: &[fedtune_core::SeriesPoint]) -> f64 {
    let x: Vec<f64> = points.iter().map(|p| p.x).collect();
    let y: Vec<f64> = points.iter().map(|p| p.summary.median).collect();
    fedmath::stats::spearman_correlation(&x, &y).unwrap_or(0.0)
}

/// Judges per-seed `effects` against `floor`.
pub fn judge(effects: &[f64], floor: f64) -> Verdict {
    let wins = effects.iter().filter(|&&e| e > floor).count();
    let losses = effects.iter().filter(|&&e| e < floor).count();
    let median = fedmath::stats::median(effects).unwrap_or(f64::NAN);
    let p = sign_test(wins, losses);
    Verdict {
        median,
        wins,
        losses,
        ties: effects.len() - wins - losses,
        p,
        holds: p <= ALPHA && median >= floor,
    }
}

/// Whether `text` matches `pattern`, where `*` matches any run of
/// characters.
fn glob(pattern: &str, text: &str) -> bool {
    let mut parts = pattern.split('*');
    let Some(mut rest) = text.strip_prefix(parts.next().unwrap_or("")) else {
        return false;
    };
    let parts: Vec<&str> = parts.collect();
    let Some((last, middle)) = parts.split_last() else {
        return rest.is_empty();
    };
    for part in middle {
        match rest.find(part) {
            Some(i) => rest = &rest[i + part.len()..],
            None => return false,
        }
    }
    rest.len() >= last.len() && rest.ends_with(last)
}

/// `object`'s value under `key`.
fn field<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    match object {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The elements of an array (none for anything else).
fn elements(value: Option<&Value>) -> &[Value] {
    match value {
        Some(Value::Seq(items)) => items,
        _ => &[],
    }
}

/// Refuses a key of `object` outside `known`. Deserializing ignores unknown
/// keys, so a misspelt `b` or `report` would otherwise read as absent: a
/// paired row compared with 0, or report 0 read.
fn known_keys(object: &Value, known: &[&str], what: &str) -> Result<(), String> {
    if let Value::Map(entries) = object {
        if let Some((key, _)) = entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!("{what}: unknown key {key:?}"));
        }
    }
    Ok(())
}

/// `items[index]`, with a negative index counting from the end.
fn at<T>(items: &[T], index: i64) -> Option<&T> {
    let index = if index < 0 {
        items.len() as i64 + index
    } else {
        index
    };
    items.get(usize::try_from(index).ok()?)
}

impl Row {
    /// The row's effect in one seed's reports.
    ///
    /// # Errors
    ///
    /// Names what the reports lack: the figure, the report, a series that
    /// matches no or several series, or the point.
    pub fn effect(&self, drawn: &Drawn) -> Result<f64, String> {
        let reports = drawn.get(&self.figure).ok_or("figure not drawn")?;
        let report = at(reports, self.report.unwrap_or(0)).ok_or("no such report")?;
        let series = |pattern: &str| {
            let mut matches = report.groups.iter().filter(|g| glob(pattern, &g.name));
            match (matches.next(), matches.next()) {
                (Some(group), None) => Ok(&group.points),
                (None, _) => Err(format!("no series {pattern:?}")),
                (Some(_), Some(_)) => Err(format!("several series match {pattern:?}")),
            }
        };
        let side = |points: &Option<Vec<Point>>| -> Result<f64, String> {
            let points = points.as_deref().unwrap_or_default();
            let medians = points
                .iter()
                .map(|p| {
                    let point = at(series(&p.series)?, p.point);
                    let point =
                        point.ok_or_else(|| format!("no point {} of {:?}", p.point, p.series));
                    Ok(point?.summary.median)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(fedmath::stats::mean(&medians))
        };
        match (&self.trend, self.direction.as_str()) {
            (Some(name), "increasing") => Ok(trend(series(name)?)),
            (Some(name), "decreasing") => Ok(-trend(series(name)?)),
            (None, "above") => Ok(side(&self.a)? - side(&self.b)?),
            (None, "below") => Ok(side(&self.b)? - side(&self.a)?),
            _ => Err(format!(
                "direction {:?} does not fit the row",
                self.direction
            )),
        }
    }
}

/// Every row judged: the scorecard's outcome.
#[derive(Debug, Clone)]
pub struct Check<'a> {
    /// Each row beside its verdict, or what its series lacked.
    pub rows: Vec<(&'a Row, Result<Verdict, String>)>,
}

impl Check<'_> {
    /// `true` when every row resolved and no `reproduced` row failed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|(row, verdict)| match verdict {
            Ok(verdict) => verdict.holds || row.status != "reproduced",
            Err(_) => false,
        })
    }

    /// One line per row: the measured effect beside its floor.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (row, verdict) in &self.rows {
            let outcome = match (verdict, row.status.as_str()) {
                (Err(missing), _) => format!("MISSING: {missing}"),
                (Ok(v), status) => format!(
                    "effect {:>+8.3} floor {:>+7.2} {:>2}/{}/{} p={:.4} {status} {}",
                    v.median,
                    row.floor,
                    v.wins,
                    v.losses,
                    v.ties,
                    v.p,
                    match (v.holds, status == "reproduced") {
                        (true, true) | (false, false) => "ok",
                        (false, true) => "FLIPPED",
                        (true, false) => "now holds",
                    }
                ),
            };
            out.push_str(&format!("{:<9} {outcome}  {}\n", row.figure, row.claim));
        }
        out
    }
}

impl Scorecard {
    /// Parses and validates a scorecard.
    ///
    /// # Errors
    ///
    /// Describes a parse failure, an unknown key, an empty seed list, or a
    /// row whose status or direction is not one of the known words or whose
    /// side names no point.
    pub fn parse(json: &str) -> Result<Self, String> {
        let value = serde_json::parse_str(json).map_err(|e| e.to_string())?;
        known_keys(&value, &["seeds", "wall_time", "rows"], "the scorecard")?;
        for row in elements(field(&value, "rows")) {
            let claim = field(row, "claim");
            let what = format!("row {claim:?}");
            known_keys(row, &ROW_KEYS, &what)?;
            for side in ["a", "b"] {
                for point in elements(field(row, side)) {
                    known_keys(point, &["series", "point"], &what)?;
                }
            }
        }
        let card: Scorecard = serde_json::from_value(&value).map_err(|e| e.to_string())?;
        if card.seeds.is_empty() {
            return Err("the scorecard has no seeds".into());
        }
        for row in &card.rows {
            if [&row.a, &row.b]
                .iter()
                .any(|side| side.as_ref().is_some_and(Vec::is_empty))
            {
                return Err(format!("{:?}: a side names no point", row.claim));
            }
            let directions: &[&str] = match (&row.trend, &row.a) {
                (Some(_), None) => &["increasing", "decreasing"],
                (None, Some(_)) => &["above", "below"],
                _ => return Err(format!("{:?} is neither paired nor a trend", row.claim)),
            };
            if !directions.contains(&row.direction.as_str())
                || !["reproduced", "not_reproduced"].contains(&row.status.as_str())
            {
                return Err(format!("{:?}: unknown direction or status", row.claim));
            }
        }
        Ok(card)
    }

    /// The committed `FIDELITY.json`.
    ///
    /// # Errors
    ///
    /// See [`parse`](Self::parse); also fails when the file cannot be read.
    pub fn committed() -> Result<Self, String> {
        let json = std::fs::read_to_string(FIDELITY_JSON)
            .map_err(|e| format!("failed to read {FIDELITY_JSON}: {e}"))?;
        Self::parse(&json)
    }

    /// The `FIGURES` ids the rows name, in table order.
    pub fn figure_ids(&self) -> Vec<&'static str> {
        let named = |id: &&str| self.rows.iter().any(|row| row.figure == *id);
        FIGURES
            .iter()
            .map(|figure| figure.id)
            .filter(named)
            .collect()
    }

    /// Judges every row over `drawn`, one entry per seed.
    pub fn check(&self, drawn: &[Drawn]) -> Check<'_> {
        let rows = self.rows.iter().map(|row| {
            let effects: Result<Vec<f64>, String> = drawn.iter().map(|d| row.effect(d)).collect();
            (row, effects.map(|e| judge(&e, row.floor)))
        });
        Check {
            rows: rows.collect(),
        }
    }
}

/// Draws, from one `FigureInputs` at `scale` and `seed`, every figure `ids`
/// names, and the wall seconds each figure took, in `ids` order.
///
/// # Errors
///
/// Names an id that is not in `FIGURES`, and propagates a figure's failure.
pub fn draw(
    ids: &[&str],
    runner: &TrialRunner,
    scale: &ExperimentScale,
    seed: u64,
) -> Result<(Drawn, Vec<(String, f64)>), String> {
    let inputs = FigureInputs::new(runner, scale, seed);
    let mut drawn = Drawn::new();
    let mut seconds = Vec::with_capacity(ids.len());
    for &id in ids {
        let figure = figures::find(id).ok_or_else(|| format!("no figure {id:?}"))?;
        let start = Instant::now();
        let reports = (figure.draw)(&inputs).map_err(|e| format!("{id}: {e}"))?;
        seconds.push((id.to_string(), start.elapsed().as_secs_f64()));
        drawn.insert(id.to_string(), reports);
    }
    Ok((drawn, seconds))
}
