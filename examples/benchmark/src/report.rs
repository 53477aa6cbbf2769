//! What a run prints: the table, the contract's last line, the `--out`
//! result file with its provenance, the Chrome traces.

use crate::metrics::METRICS;
use crate::run::{Mode, RunResult};
use crate::trace;
use crate::workload::WORKLOADS;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// `--list`: every workload with its reason, every metric with unit,
/// direction and bound.
pub fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!(
        "\n{:<34} {:<8} {:<7} {:<6} note",
        "metric", "unit", "better", "bound"
    );
    for m in METRICS {
        let bound = m
            .bound
            .map_or("-".into(), |b| format!("{:.0} %", b * 100.0));
        println!(
            "{:<34} {:<8} {:<7} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.note
        );
    }
}

pub fn print_table(res: &RunResult) {
    let w = res.workload;
    println!(
        "\n== {} · seed {} · {}x{}x{} {} nrhs {} · window {} s · input {:016x}",
        w.name,
        res.opts.seed,
        w.px,
        w.py,
        w.pz,
        w.transport(),
        w.nrhs,
        res.opts.seconds,
        res.input_hash
    );
    for end_to_end in [true, false] {
        for (m, r) in res.readings.of_kind(end_to_end) {
            let mut line = format!("{:<34} {:>16.6} {:<8}", m.name, r.value, m.unit);
            if let Some(s) = r.estimate.as_ref().map(|e| &e.all) {
                let _ = write!(line, " n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3);
                if let Some((p, v)) = s.tail {
                    let _ = write!(line, " p{p}={v:.6}");
                }
            }
            println!("{line}");
        }
    }
    let value = |name: &str| res.readings.get(name).map(|r| r.value);
    if let (Some(spin), Some(split), Some(l), Some(z), Some(u), Some(rest)) = (
        value("transport.spinup_ms"),
        value("transport.split_ms"),
        value("solve2d.l_phase_ms"),
        value("allreduce.z_phase_ms"),
        value("solve2d.u_phase_ms"),
        value("driver.unattributed_ms"),
    ) {
        println!(
            "ledger: spinup {spin:.3} + split {split:.3} + L {l:.3} + Z {z:.3} + U {u:.3} \
             + unattributed {rest:.3} = {:.3} ms, the median direct solve",
            spin + split + l + z + u + rest
        );
    }
    if !res.spans.is_empty() {
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        );
        for (name, (calls, total, own)) in trace::self_times(&res.spans) {
            println!(
                "{name:<24} {calls:>8} {:>12.3} {:>12.3}",
                total * 1e3,
                own * 1e3
            );
        }
    }
    println!(
        "{} attempted, {} failed, outputs {}",
        res.attempted,
        res.failed,
        if res.correct { "correct" } else { "WRONG" }
    );
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics` —
/// the end-to-end metrics under `--trace 0`, the per-layer ones under
/// `--trace 1`, all of them otherwise.
pub fn contract_line(res: &RunResult) -> String {
    let kinds: &[bool] = match res.opts.mode {
        Mode::EndToEnd => &[true],
        Mode::Layers => &[false],
        Mode::Both => &[true, false],
    };
    let mut metrics = Vec::new();
    for &kind in kinds {
        let missing = res.readings.missing(kind);
        assert!(missing.is_empty(), "run did not read {missing:?}");
        for (m, r) in res.readings.of_kind(kind) {
            let reading = object(vec![
                ("value", Value::Float(r.value)),
                ("unit", text(m.unit)),
            ]);
            metrics.push((m.name.to_owned(), reading));
        }
    }
    let line = object(vec![
        ("correct", Value::Bool(res.correct)),
        ("attempted", Value::Int(res.attempted.max(1) as i64)),
        ("failed", Value::Int(res.failed as i64)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// First line `program args…` prints, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `--out` document: provenance, then for the workload every reading
/// with the statistics `--check` resolves against, and the spans' self
/// times. (`workloads` is a list so that `--all` can merge such files.)
pub fn result_file(res: &RunResult, quick: bool, load_at_start: &str) -> String {
    let provenance = object(vec![
        (
            "git_commit",
            text(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::Int(crate::nproc() as i64)),
        ("cpu_model", text(cpu_model())),
        ("rustc", text(first_line_of("rustc", &["--version"]))),
        ("load_average_at_start", text(load_at_start)),
    ]);
    let metrics = res
        .readings
        .of_kind(true)
        .chain(res.readings.of_kind(false))
        .map(|(m, r)| {
            let kind = if m.bound.is_some() {
                "end_to_end"
            } else {
                "per_layer"
            };
            let mut fields = vec![
                ("value", Value::Float(r.value)),
                ("unit", text(m.unit)),
                ("kind", text(kind)),
            ];
            if let Some(e) = &r.estimate {
                fields.extend([
                    ("n", Value::Int(e.all.n as i64)),
                    ("q1", Value::Float(e.all.q1)),
                    ("q3", Value::Float(e.all.q3)),
                    ("spread_q1", Value::Float(e.spread.0)),
                    ("spread_q3", Value::Float(e.spread.1)),
                ]);
                if let Some((p, v)) = e.all.tail {
                    fields.extend([
                        ("tail_percentile", Value::Float(p)),
                        ("tail", Value::Float(v)),
                    ]);
                }
            }
            (m.name.to_owned(), object(fields))
        })
        .collect();
    let self_time = trace::self_times(&res.spans)
        .into_iter()
        .map(|(name, (calls, total, own))| {
            let entry = object(vec![
                ("calls", Value::Int(calls as i64)),
                ("total_ms", Value::Float(total * 1e3)),
                ("self_ms", Value::Float(own * 1e3)),
            ]);
            (name.to_owned(), entry)
        })
        .collect();
    let workload = object(vec![
        ("name", text(res.workload.name)),
        ("seed", Value::Int(res.opts.seed as i64)),
        ("window_seconds", Value::Float(res.opts.seconds)),
        ("setups", Value::Int(res.opts.setups as i64)),
        ("input_hash", text(format!("{:016x}", res.input_hash))),
        ("correct", Value::Bool(res.correct)),
        ("attempted", Value::Int(res.attempted as i64)),
        ("failed", Value::Int(res.failed as i64)),
        ("metrics", Value::Object(metrics)),
        ("self_time", Value::Object(self_time)),
    ]);
    let doc = object(vec![
        ("schema", Value::Int(1)),
        ("quick", Value::Bool(quick)),
        ("provenance", provenance),
        ("workloads", Value::Array(vec![workload])),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree serializes") + "\n"
}

/// `--all`: the per-workload result files as one document — provenance of
/// the first, `quick` if any was, every workload in order. The parts are
/// removed.
pub fn merge_result_files(parts: &[std::path::PathBuf], into: &Path) -> Result<(), String> {
    let mut merged: Option<Vec<(String, Value)>> = None;
    let mut workloads = Vec::new();
    let mut quick = false;
    for part in parts {
        let text = std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        quick |= doc.get("quick") == Some(&Value::Bool(true));
        if let Some(Value::Array(w)) = doc.get("workloads") {
            workloads.extend(w.iter().cloned());
        }
        if let (None, Value::Object(fields)) = (&merged, doc) {
            merged = Some(fields);
        }
        let _ = std::fs::remove_file(part);
    }
    let mut fields = merged.ok_or("no workload left a result file")?;
    for (key, value) in &mut fields {
        match key.as_str() {
            "quick" => *value = Value::Bool(quick),
            "workloads" => *value = Value::Array(std::mem::take(&mut workloads)),
            _ => {}
        }
    }
    let text =
        serde_json::to_string_pretty(&Value::Object(fields)).expect("a value tree serializes");
    std::fs::write(into, text + "\n").map_err(|e| e.to_string())
}
