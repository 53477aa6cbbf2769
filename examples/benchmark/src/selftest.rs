//! `--self-test`: the arithmetic the report rests on, checked on
//! synthetic data (an example target has no `cargo test` hook).

use crate::check::{items, number, string, verdict, Verdict};
use crate::metrics::METRICS;
use crate::stats::{fit_line, quantile, tail_percentile, Estimate, Summary};
use crate::trace::{self_times, SpanLog};
use crate::workload::{self, Matrix, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Every check by name; `Err` carries what was wrong.
fn checks(manifest: &Path) -> Vec<(&'static str, Result<(), String>)> {
    let want = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    let mut out = Vec::new();

    // Highest percentile with at least ten samples beyond it.
    let picks = [
        (10, None),
        (20, Some(50.0)),
        (100, Some(90.0)),
        (999, Some(95.0)),
        (1000, Some(99.0)),
        (10_000, Some(99.9)),
        (100_000, Some(99.99)),
    ];
    let got: Vec<_> = picks.iter().map(|&(n, _)| tail_percentile(n)).collect();
    let expect: Vec<_> = picks.iter().map(|&(_, p)| p).collect();
    out.push((
        "tail percentile",
        want(got == expect, format!("{got:?} != {expect:?}")),
    ));

    // Quartiles and supported tail on 1..=101.
    let ramp: Vec<f64> = (1..=101).rev().map(f64::from).collect();
    let s = Summary::of(&ramp);
    out.push((
        "quartiles",
        want(
            (s.n, s.q1, s.median, s.q3) == (101, 26.0, 51.0, 76.0) && s.tail == Some((90.0, 91.0)),
            format!("{s:?}"),
        ),
    ));
    // Median over groups of a per-group quantile; an outlying group moves
    // neither the value nor, much, its spread.
    let groups = vec![
        vec![3.0, 1.0, 2.0],
        vec![],
        vec![12.0, 10.0, 11.0],
        vec![5.0, 4.0, 6.0],
    ];
    let e = Estimate::of_groups(&groups, 0.5);
    out.push((
        "median of group medians",
        want(
            e.value == 5.0 && e.spread == (3.5, 8.0) && e.all.n == 9 && e.all.median == 5.0,
            format!("{e:?}"),
        ),
    ));
    out.push((
        "quantile interpolation",
        want(
            close(quantile(&[1.0, 2.0, 4.0], 0.75), 3.0),
            "0.75 of [1,2,4]".into(),
        ),
    ));

    // α–β fit recovers a known line, and survives a single size.
    let pts: Vec<(f64, f64)> = [8.0, 512.0, 4096.0, 65536.0]
        .iter()
        .map(|&x| (x, 20e-6 + 0.25e-9 * x))
        .collect();
    let (alpha, beta) = fit_line(&pts);
    let (flat_a, flat_b) = fit_line(&[(8.0, 1.0), (8.0, 3.0)]);
    out.push((
        "alpha-beta fit",
        want(
            close(alpha, 20e-6) && close(beta, 0.25e-9) && close(flat_a, 2.0) && flat_b == 0.0,
            format!("alpha {alpha:e} beta {beta:e} flat ({flat_a}, {flat_b})"),
        ),
    ));

    // Self time = span minus its children, nested and by name.
    let mut log = SpanLog::new(true, Instant::now());
    let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
    log.span("a.outer", 0, |log| {
        pause(4);
        log.span("b.inner", 0, |_| pause(6));
        log.span("b.inner", 1, |_| pause(6));
    });
    let own = self_times(log.spans());
    let (outer, inner) = (own["a.outer"], own["b.inner"]);
    out.push((
        "span self time",
        want(
            outer.0 == 1
                && inner.0 == 2
                && close(inner.1, inner.2)
                && outer.2 >= 0.004
                && outer.2 < outer.1 - 0.011
                && (outer.1 - outer.2 - inner.1).abs() < 1e-12
                && log.spans()[1].parent == Some(0),
            format!("outer {outer:?} inner {inner:?}"),
        ),
    ));
    let mut off = SpanLog::new(false, Instant::now());
    off.span("a.outer", 0, |_| ());
    out.push((
        "disabled log records nothing",
        want(off.spans().is_empty(), "spans recorded".into()),
    ));

    // Inputs: a function of the seed alone.
    let w = &WORKLOADS[1];
    let a = w.matrix();
    let n = a.nrows();
    let (b1, b1_again, b2) = (
        workload::rhs(1, n, 2),
        workload::rhs(1, n, 2),
        workload::rhs(2, n, 2),
    );
    out.push((
        "same seed, same inputs",
        want(
            workload::input_hash(&a, &b1) == workload::input_hash(&w.matrix(), &b1_again),
            "hash differs".into(),
        ),
    ));
    out.push((
        "other seed, other right-hand sides",
        want(
            workload::hash_f64(&b1) != workload::hash_f64(&b2)
                && b1.iter().all(|v| *v != 0.0 && v.abs() <= 1.0),
            "hash equal, or a value outside [-1, 1] \\ {0}".into(),
        ),
    ));
    let kkt = WORKLOADS
        .iter()
        .find(|w| w.matrix == Matrix::KktSmall)
        .expect("a kkt workload");
    let suite = sparse::gen::by_name("nlpkkt80", sparse::gen::Scale::Small).expect("suite row");
    out.push((
        "flop_z2 matrix is the suite's nlpkkt80",
        want(
            workload::hash_matrix(&kkt.matrix()) == workload::hash_matrix(&suite),
            "generator arguments drifted from table1_suite".into(),
        ),
    ));

    // Verdicts of --check.
    let v = [
        verdict(10.0, 10.9, true, 0.10, 0.01),
        verdict(10.0, 11.1, true, 0.10, 0.01),
        verdict(10.0, 8.9, false, 0.10, 0.01),
        verdict(10.0, 20.0, false, 0.10, 0.01),
        verdict(10.0, 20.0, true, 0.10, 0.2),
    ];
    out.push((
        "check verdicts",
        want(
            v == [
                Verdict::Ok,
                Verdict::Worse,
                Verdict::Worse,
                Verdict::Ok,
                Verdict::Unresolved,
            ],
            format!("{v:?}"),
        ),
    ));

    // The registry and BENCHMARK.json say the same thing.
    out.push(("registry matches the manifest", manifest_agrees(manifest)));
    out
}

fn manifest_agrees(path: &Path) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        // Run from elsewhere than the repository root: nothing to compare.
        return Ok(());
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let rows = |key: &str| -> Vec<String> {
        items(doc.get(key))
            .iter()
            .map(|m| {
                let bound = number(m.get("bound")).map_or(String::new(), |b| format!("{b}"));
                let field = |k: &str| string(m.get(k)).unwrap_or_default();
                [field("name"), field("unit"), field("better"), &bound].join(" ")
            })
            .collect()
    };
    let registry = |end_to_end: bool| -> Vec<String> {
        METRICS
            .iter()
            .filter(|m| m.bound.is_some() == end_to_end)
            .map(|m| {
                let bound = m.bound.map_or(String::new(), |b| format!("{b}"));
                [m.name, m.unit, m.better.as_str(), &bound].join(" ")
            })
            .collect()
    };
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let (file, code) = (rows(key), registry(end_to_end));
        if file != code {
            let odd: Vec<_> = file
                .iter()
                .filter(|r| !code.contains(r))
                .chain(code.iter().filter(|r| !file.contains(r)))
                .collect();
            return Err(format!("{key} differs: {odd:?}"));
        }
    }
    let names: Vec<&str> = items(doc.get("workloads"))
        .iter()
        .filter_map(|w| string(w.get("name")))
        .collect();
    if names != WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>() {
        return Err(format!("workloads differ: {names:?}"));
    }
    Ok(())
}

pub fn run(manifest: &Path) -> ExitCode {
    let mut failed = 0;
    for (name, result) in checks(manifest) {
        match result {
            Ok(()) => println!("ok     {name}"),
            Err(what) => {
                failed += 1;
                println!("FAILED {name}: {what}");
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
