//! The scorecard machinery behind `fidelity_check`: the exact sign test, the
//! trend test, a flipped or vanished claim failing the check, and the
//! committed `FIDELITY.json` naming only figures, series and points that
//! exist.

use fedbench::fidelity::{draw, judge, sign_test, Drawn, Scorecard};
use fedtune_core::{ExperimentReport, SeriesGroup, SeriesPoint, TrialRunner};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-15
}

#[test]
fn sign_test_p_values_are_binomial_tails() {
    assert!(close(sign_test(10, 0), 1.0 / 1024.0));
    assert!(close(sign_test(9, 1), 11.0 / 1024.0));
    assert!(close(sign_test(8, 2), 56.0 / 1024.0));
    assert!(close(sign_test(5, 5), 638.0 / 1024.0));
    assert!(close(sign_test(0, 0), 1.0));
    // Seeds exactly at the floor are dropped: 8 wins, 0 losses, 2 ties is
    // a test over 8 seeds.
    let verdict = judge(&[1.0, 2.0, 0.5, 3.0, 0.0, 1.5, 2.5, 0.0, 4.0, 0.25], 0.0);
    assert_eq!((verdict.wins, verdict.losses, verdict.ties), (8, 0, 2));
    assert!(close(verdict.p, 1.0 / 256.0));
    assert!(verdict.holds);
    // 8/10 is not significant at 5%, whatever the median.
    let verdict = judge(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0], 0.0);
    assert!(!verdict.holds && verdict.median == 1.0);
}

/// One report holding one series per `(name, medians)`, the medians at
/// `x = 0, 1, 2, …`.
fn report(series: &[(&str, &[f64])]) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig99", "synthetic");
    for (name, medians) in series {
        let points = medians.iter().enumerate().map(|(i, &m)| {
            SeriesPoint::from_error_rates(i as f64, format!("x={i}"), &[m / 100.0]).unwrap()
        });
        report.push_group(SeriesGroup {
            name: name.to_string(),
            points: points.collect(),
        });
    }
    report
}

fn seeds(per_seed: impl Fn(usize) -> ExperimentReport) -> Vec<Drawn> {
    (0..10)
        .map(|seed| Drawn::from([("fig99".to_string(), vec![per_seed(seed)])]))
        .collect()
}

const CARD: &str = r#"{"seeds": [1], "rows": [
  {"figure": "fig99", "claim": "noisy above clean", "a": [{"series": "noisy *", "point": -1}],
   "b": [{"series": "clean", "point": -1}], "direction": "above", "floor": 0, "status": "reproduced"},
  {"figure": "fig99", "claim": "clean falls", "trend": "clean", "direction": "decreasing",
   "floor": 0.5, "status": "reproduced"},
  {"figure": "fig99", "claim": "noisy rises", "trend": "noisy *", "direction": "increasing",
   "floor": 0.5, "status": "not_reproduced"}
]}"#;

#[test]
fn the_trend_test_reads_the_direction_of_a_series() {
    let card = Scorecard::parse(CARD).unwrap();
    let drawn = seeds(|_| {
        report(&[
            ("clean", &[30.0, 20.0, 10.0]),
            ("noisy (K=1)", &[40.0, 50.0, 60.0]),
        ])
    });
    let effect = |drawn: &[Drawn], row: usize| card.rows[row].effect(&drawn[0]).unwrap();
    assert!(
        (effect(&drawn, 1) - 1.0).abs() < 1e-12,
        "a decreasing series, claimed decreasing"
    );
    assert!(
        (effect(&drawn, 2) - 1.0).abs() < 1e-12,
        "an increasing series, claimed increasing"
    );
    assert!(
        (effect(&drawn, 0) - 50.0).abs() < 1e-9,
        "noisy 60% above clean 10%"
    );
    let check = card.check(&drawn);
    assert!(check.passed(), "{}", check.to_table());
    assert!(
        check.to_table().contains("now holds"),
        "{}",
        check.to_table()
    );
    // The same series reversed: the trend of each is -1.
    let drawn = seeds(|_| {
        report(&[
            ("clean", &[10.0, 20.0, 30.0]),
            ("noisy (K=1)", &[60.0, 50.0, 40.0]),
        ])
    });
    assert!((effect(&drawn, 1) + 1.0).abs() < 1e-12);
    assert!((effect(&drawn, 2) + 1.0).abs() < 1e-12);
}

#[test]
fn a_flipped_or_vanished_claim_fails_the_check() {
    let card = Scorecard::parse(CARD).unwrap();
    // Noisy above clean in 10 of 10 seeds: the paired row holds.
    let holds = seeds(|_| report(&[("clean", &[30.0, 20.0]), ("noisy (K=1)", &[30.0, 25.0])]));
    assert!(card.check(&holds).passed());
    // The gap flips in 3 of 10 seeds: 7/10 is no longer significant.
    let flipped = seeds(|seed| {
        let noisy = if seed < 3 { 15.0 } else { 25.0 };
        report(&[("clean", &[30.0, 20.0]), ("noisy (K=1)", &[30.0, noisy])])
    });
    let check = card.check(&flipped);
    assert!(!check.passed());
    assert!(check.to_table().contains("FLIPPED"), "{}", check.to_table());
    // A renamed series is a failure too, not a skipped row.
    let renamed = seeds(|_| report(&[("clean", &[30.0, 20.0]), ("noisier", &[30.0, 25.0])]));
    let check = card.check(&renamed);
    assert!(!check.passed());
    assert!(check.to_table().contains("MISSING"), "{}", check.to_table());
    // And a pattern that matches two series names neither.
    let twice = seeds(|_| {
        report(&[
            ("clean", &[30.0, 20.0]),
            ("noisy a", &[30.0, 25.0]),
            ("noisy b", &[1.0, 2.0]),
        ])
    });
    assert!(!card.check(&twice).passed());
}

#[test]
fn malformed_rows_are_refused() {
    for bad in [
        CARD.replace("\"direction\": \"above\"", "\"direction\": \"increasing\""),
        CARD.replace("\"reproduced\"}", "\"maybe\"}"),
        CARD.replace("\"seeds\": [1]", "\"seeds\": []"),
        CARD.replace("\"trend\": \"clean\"", "\"a\": [], \"trend\": \"clean\""),
        // A misspelt key is refused, not read as absent.
        CARD.replace("\"b\": [", "\"B\": ["),
        CARD.replace(
            "\"status\": \"reproduced\"}",
            "\"status\": \"reproduced\", \"reprot\": 1}",
        ),
        CARD.replace("\"point\": -1}", "\"point\": -1, \"report\": 1}"),
        CARD.replace(
            "\"seeds\"",
            "\"wall_time\": \"1 s\", \"seed\": [1], \"seeds\"",
        ),
        // So is a side that names no point: it would read as 0.
        CARD.replace(
            "\"b\": [{\"series\": \"clean\", \"point\": -1}]",
            "\"b\": []",
        ),
    ] {
        assert!(Scorecard::parse(&bad).is_err(), "{bad}");
    }
}

#[test]
fn every_committed_row_names_what_its_figure_draws() {
    let card = Scorecard::committed().unwrap();
    assert!(card.seeds.len() >= 10);
    let ids = card.figure_ids();
    for row in &card.rows {
        assert!(
            ids.contains(&row.figure.as_str()),
            "{} is not in FIGURES",
            row.figure
        );
    }
    let smoke = fedtune_core::ExperimentScale::smoke();
    let (drawn, _) = draw(&ids, &TrialRunner::from_env(), &smoke, card.seeds[0]).unwrap();
    for row in &card.rows {
        if let Err(missing) = row.effect(&drawn) {
            panic!("{} {:?}: {missing}", row.figure, row.claim);
        }
    }
}
