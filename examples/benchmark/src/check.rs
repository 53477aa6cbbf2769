//! `--check A.json B.json`: is result set B no worse than A, metric by
//! metric, against the bounds in `BENCHMARK.json`?

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

pub fn string(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(a)) => a,
        _ => &[],
    }
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    items(doc.get("workloads"))
        .iter()
        .find(|w| string(w.get("name")) == Some(name))
}

/// The run's own spread of a metric: distance between the quartiles of
/// the per-slice (per-set-up) values its median was taken over, as a
/// share of it; 0 for a single reading.
fn spread(metric: &Value) -> f64 {
    match (
        number(metric.get("spread_q1")),
        number(metric.get("spread_q3")),
        number(metric.get("value")),
    ) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1) / v.abs(),
        _ => 0.0,
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `a` is the parent's median, `b` the change's; `spread` the wider of
/// their own spreads. Worse means worse by more than `bound` of
/// the parent; a spread wider than the bound resolves nothing.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = if lower_is_better { b - a } else { a - b } / a.abs();
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn run(a_path: &Path, b_path: &Path, manifest: &Path) -> ExitCode {
    match check(a_path, b_path, manifest) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(worse) => {
            eprintln!("benchmark: {worse} metric(s) worse than the bound allows");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: --check: {e}");
            ExitCode::from(2)
        }
    }
}

fn check(a_path: &Path, b_path: &Path, manifest: &Path) -> Result<usize, String> {
    let (a, b, manifest) = (load(a_path)?, load(b_path)?, load(manifest)?);
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if doc.get("quick") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{} is a --quick result (or not a result file): its numbers compare nothing",
                path.display()
            ));
        }
    }
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    let mut worse = 0;
    let mut compared = 0;
    for wa in items(a.get("workloads")) {
        let name = string(wa.get("name")).ok_or("workload without a name")?;
        let Some(wb) = workload(&b, name) else {
            println!("{name:<12} (not in B)");
            continue;
        };
        for def in items(manifest.get("end_to_end")) {
            let metric = string(def.get("name")).ok_or("manifest metric without a name")?;
            let bound = number(def.get("bound")).ok_or("manifest metric without a bound")?;
            let lower = string(def.get("better")) == Some("lower");
            let (Some(ma), Some(mb)) = (
                wa.get("metrics").and_then(|m| m.get(metric)),
                wb.get("metrics").and_then(|m| m.get(metric)),
            ) else {
                println!("{name:<12} {metric:<34} (missing)");
                continue;
            };
            let (va, vb) = (
                number(ma.get("value")).ok_or("metric without a value")?,
                number(mb.get("value")).ok_or("metric without a value")?,
            );
            let spread = spread(ma).max(spread(mb));
            let v = verdict(va, vb, lower, bound, spread);
            worse += (v == Verdict::Worse) as usize;
            compared += 1;
            println!(
                "{name:<12} {metric:<34} {va:>14.6} {vb:>14.6} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                (vb - va) / va.abs() * 100.0,
                bound * 100.0,
                spread * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Counts and simulator times must repeat exactly between runs of
        // one commit; between commits a difference is the change itself.
        for def in crate::metrics::METRICS.iter().filter(|m| m.exact) {
            let value = |w: &Value| number(w.get("metrics")?.get(def.name)?.get("value"));
            if let (Some(va), Some(vb)) = (value(wa), value(wb)) {
                if va != vb {
                    println!("{name:<12} {:<34} {va:>14.6} {vb:>14.6}  differs", def.name);
                }
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload and metric".into());
    }
    Ok(worse)
}
