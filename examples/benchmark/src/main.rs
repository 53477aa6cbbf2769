//! Layered benchmark of the SpTRSV-3D reproduction (ROADMAP item A).
//!
//! One command runs one named workload — set-up, reference answers,
//! untraced window, traced window, layer probes — prints every metric by
//! name with its unit, and checks every output. See `README.md` beside
//! this package for the workloads, the layer → end-to-end table and how
//! to read the trace.

mod check;
mod metrics;
mod probes;
mod report;
mod run;
mod selftest;
mod serve;
mod stats;
mod trace;
mod workload;

use probes::Effort;
use run::{Mode, RunOpts};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::WORKLOADS;

/// Where `comm_proc` puts its rendezvous sockets: relative, so the path
/// stays inside the directory the benchmark is run from and under the
/// 108-byte limit of a socket address however deep that directory is.
const PROC_DIR: &str = ".bench_run";

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
                 [--out FILE] [--trace-out FILE]
       benchmark --all [--seed N] [--seconds S] [--quick] [--out FILE] [--trace-out FILE]
       benchmark --list | --self-test | --check A.json B.json [--manifest BENCHMARK.json]

  --trace 0   untraced window only; last line carries the end-to-end metrics
  --trace 1   direct solves traced and untraced by turns, then the layer probes; per-layer metrics
  (neither)   both, every metric
  --quick     1 s windows and few probe repetitions: every code path, no usable numbers";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Rendezvous directories `comm_proc` left under [`PROC_DIR`].
pub fn rendezvous_leftovers() -> usize {
    std::fs::read_dir(PROC_DIR).map_or(0, |d| d.count())
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    manifest: PathBuf,
    list: bool,
    self_test: bool,
    check: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
        manifest: PathBuf::from("BENCHMARK.json"),
        list: false,
        self_test: false,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--manifest" => a.manifest = value()?.into(),
            "--list" => a.list = true,
            "--self-test" => a.self_test = true,
            "--check" => a.check = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        report::list();
        return ExitCode::SUCCESS;
    }
    if args.self_test {
        return selftest::run(&args.manifest);
    }
    if let Some((a, b)) = &args.check {
        return check::run(a, b, &args.manifest);
    }

    if args.all {
        return run_all(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(w) = workload::by_name(name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "benchmark: no workload {name}; choose from {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    // Set before any thread exists; `comm_proc` reads it on every run.
    std::env::set_var("SPTRSV_PROC_DIR", PROC_DIR);
    if let Err(e) = std::fs::create_dir_all(PROC_DIR) {
        eprintln!("benchmark: cannot create {PROC_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 1.0 } else { 12.0 }),
        mode: match args.trace {
            Some(false) => Mode::EndToEnd,
            Some(true) => Mode::Layers,
            None => Mode::Both,
        },
        setups: if args.quick { 2 } else { 5 },
        effort: Effort(if args.quick { 0.2 } else { 1.0 }),
    };
    let load_at_start = report::load_average();
    let res = run::run(w, opts);
    let _ = std::fs::remove_dir(PROC_DIR);
    report::print_table(&res);

    let mut status = ExitCode::SUCCESS;
    for fault in &res.faults {
        eprintln!("benchmark: {}: {fault}", w.name);
    }
    if !res.correct {
        status = ExitCode::FAILURE;
    }
    // Written only when asked for: the result file's provenance runs
    // `git` and `rustc`, which a driver's run should not.
    let mut write = |path: &Option<PathBuf>, text: &dyn Fn() -> String| {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, text()) {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                status = ExitCode::FAILURE;
            }
        }
    };
    write(&args.trace_out, &|| trace::chrome_trace(&res.spans));
    write(&args.out, &|| {
        report::result_file(&res, args.quick, &load_at_start)
    });
    println!("{}", report::contract_line(&res));
    status
}

/// `stem.<workload>.ext` beside `path`.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let ext = path.extension().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!("{stem}.{workload}.{ext}"))
}

/// `--all`: the five workloads in order, each in a process of its own —
/// what the driver does, so peak memory and allocator state are one
/// workload's — and their result files merged into one.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    let mut parts = Vec::new();
    for w in &WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            child.arg("--quick");
        }
        if let Some(path) = &args.trace_out {
            child.arg("--trace-out").arg(per_workload(path, w.name));
        }
        if let Some(path) = &args.out {
            let part = per_workload(path, w.name);
            child.arg("--out").arg(&part);
            parts.push(part);
        }
        // `status` waits for the child to end.
        if !child.status().is_ok_and(|s| s.success()) {
            eprintln!("benchmark: {} did not run clean", w.name);
            status = ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = report::merge_result_files(&parts, path) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            status = ExitCode::FAILURE;
        }
    }
    status
}
