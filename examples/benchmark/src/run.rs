//! One run of one workload: set-up ×5, reference answers, warm-up, the
//! untraced window, the traced window, the layer probes.

use crate::metrics::Readings;
use crate::probes::{self, Effort};
use crate::serve::{self, Phase};
use crate::stats::{closed_loop_rate, latency, median, Estimate, Latency};
use crate::trace::{Span, SpanLog};
use crate::workload::{self, Kind, Workload};
use lufactor::Factorized;
use ordering::SymbolicOptions;
use simgrid::Category;
use sptrsv::{Algorithm, Backend, SolveOutcome, Solver3d, SolverService};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which half of the contract a run prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the untraced window only, end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: a short untraced window, probes, the traced window;
    /// per-layer metrics.
    Layers,
    /// No `--trace`: the full untraced window, then probes and traced
    /// window; every metric.
    Both,
}

#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub mode: Mode,
    /// Cold set-ups per run (median is `setup_s`).
    pub setups: usize,
    pub effort: Effort,
}

pub struct RunResult {
    pub workload: &'static Workload,
    pub opts: RunOpts,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub input_hash: u64,
    pub readings: Readings,
    pub spans: Vec<Span>,
    /// Why `correct` is false, if it is.
    pub faults: Vec<String>,
}

/// An error above its tolerance — or not a number at all.
fn exceeds(error: f64, tolerance: f64) -> bool {
    error.is_nan() || error > tolerance
}

pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run `f` under a span and return its result with the seconds it took
/// (measured here, so the number exists with tracing off too).
fn timed<R>(
    log: &mut SpanLog,
    name: &'static str,
    id: u64,
    f: impl FnOnce(&mut SpanLog) -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = log.span(name, id, f);
    (out, t.elapsed().as_secs_f64())
}

// ------------------------------------------------------------------ set-up

/// Everything a cold start builds, from the seed to the first answer.
struct Built {
    a: sparse::CsrMatrix,
    /// `n × rhs_columns` right-hand sides in the original ordering.
    b: Vec<f64>,
    fact: Arc<Factorized>,
    solver: Solver3d,
    first_x: Vec<f64>,
}

/// Seconds of one set-up: total, then `sparse.gen`, `ordering.analyze`,
/// `factor.factorize`.
type SetupTimes = [f64; 4];

fn set_up(w: &Workload, seed: u64, rep: u64, log: &mut SpanLog) -> (Built, SetupTimes) {
    let t0 = Instant::now();
    let (built, parts) = log.span("bench.setup", rep, |log| {
        let ((a, b), gen_s) = timed(log, "sparse.gen", rep, |_| {
            let a = w.matrix();
            let b = workload::rhs(seed, a.nrows(), w.rhs_columns());
            (a, b)
        });
        // `lufactor::factorize`, taken apart so ordering and numeric
        // factorization are timed on their own.
        let ((nd, sym), analyze_s) = timed(log, "ordering.analyze", rep, |_| {
            ordering::analyze(&a, w.pz, &SymbolicOptions::default())
        });
        let (fact, factorize_s) = timed(log, "factor.factorize", rep, |_| {
            let pa = a.permute_sym(&nd.perm);
            let lu = lufactor::factorize_numeric(&pa, sym).expect("generated matrix factorizes");
            Arc::new(Factorized { nd, pa, lu })
        });
        let (solver, _) = timed(log, "driver.plan", rep, |_| {
            Solver3d::new(Arc::clone(&fact), w.config(w.backend, Algorithm::New3d))
        });
        let n = a.nrows();
        let (first, _) = timed(log, "driver.first_solve", rep, |_| {
            solver.solve(&b[..n * w.nrhs], w.nrhs)
        });
        (
            Built {
                a,
                b,
                fact,
                solver,
                first_x: first.x,
            },
            [gen_s, analyze_s, factorize_s],
        )
    });
    let total = t0.elapsed().as_secs_f64();
    (built, [total, parts[0], parts[1], parts[2]])
}

/// The baseline row: milliseconds of plain single-threaded
/// `Factorized::solve` calls on the workload's right-hand sides.
fn seq_solves(w: &Workload, built: &Built, effort: Effort) -> Vec<f64> {
    let work = &built.b[..built.a.nrows() * w.nrhs];
    let budget = Duration::from_secs_f64(0.1 * effort.0);
    let mut ms = Vec::new();
    let t0 = Instant::now();
    while ms.len() < 5 || (t0.elapsed() < budget && ms.len() < 1000) {
        let t = Instant::now();
        std::hint::black_box(built.fact.solve(work, w.nrhs));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms
}

// -------------------------------------------------------------- references

struct Reference {
    /// Sim-backend solution of every right-hand-side column: what each
    /// timed answer must equal bit for bit.
    x: Vec<f64>,
    /// The New3d reference solve (counts, virtual phases and makespan).
    sim: SolveOutcome,
    baseline_makespan: f64,
    faults: Vec<String>,
}

fn references(w: &Workload, built: &Built) -> Reference {
    let n = built.a.nrows();
    let cols = w.rhs_columns();
    let work = &built.b[..n * w.nrhs];
    let mut faults = Vec::new();

    let x_seq = built.fact.solve(&built.b, cols);

    let sim_solver = Solver3d::new(
        Arc::clone(&built.fact),
        w.config(Backend::Sim, Algorithm::New3d),
    );
    let sim = sim_solver.solve(work, w.nrhs);
    let x = match w.kind {
        Kind::Solve => sim.x.clone(),
        Kind::Serve => {
            // Full batches, the widest solve the service will run; column
            // `r` of a batch equals its standalone solve bit for bit.
            let width = serve::service_config().batch.max_batch;
            let mut x = Vec::with_capacity(n * cols);
            for chunk in built.b.chunks(n * width) {
                x.extend(sim_solver.solve(chunk, chunk.len() / n).x);
            }
            if !bits_equal(&x[..n], &sim.x) {
                faults.push("batched reference column differs from its standalone solve".into());
            }
            x
        }
    };
    let baseline = Solver3d::new(
        Arc::clone(&built.fact),
        w.config(Backend::Sim, Algorithm::Baseline3d),
    )
    .solve(work, w.nrhs);

    // Against the mathematics, once per workload: residual of the
    // reference, and forward error against the sequential solve.
    let residual = sparse::rel_residual_inf(&built.a, &x, &built.b, cols);
    if exceeds(residual, 1e-10) {
        faults.push(format!("reference residual {residual:e} > 1e-10"));
    }
    let scale = x_seq.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let forward = sparse::max_abs_diff(&x, &x_seq) / scale;
    if exceeds(forward, 1e-10) {
        faults.push(format!("reference is {forward:e} from Factorized::solve"));
    }
    let base_residual = sparse::rel_residual_inf(&built.a, &baseline.x, work, w.nrhs);
    if exceeds(base_residual, 1e-10) {
        faults.push(format!("baseline3d residual {base_residual:e} > 1e-10"));
    }
    if !bits_equal(&built.first_x, &x[..n * w.nrhs]) {
        faults.push(format!(
            "first {} solve is not bit-identical to the sim reference",
            w.transport()
        ));
    }
    Reference {
        x,
        sim,
        baseline_makespan: baseline.makespan,
        faults,
    }
}

// ----------------------------------------------------------------- windows

/// A closed-loop window of `Solver3d::solve` calls by one client.
#[derive(Default)]
struct Window {
    /// Per solve that returned: when (seconds into the window), its wall
    /// time in milliseconds, and the seconds since the solve before it
    /// returned (the whole iteration: solve, check, bookkeeping).
    solves: Vec<(f64, f64, f64)>,
    /// Rank-mean L, Z, U phase and makespan of each solve, milliseconds
    /// of the backend's clock.
    phases: Vec<[f64; 4]>,
    attempted: u64,
    failed: u64,
    /// Seconds the window was asked to last.
    length: f64,
}

/// Median over solves of phase `i` of [`phases_ms`].
fn phase_median(phases: &[[f64; 4]], i: usize) -> f64 {
    median(&phases.iter().map(|p| p[i]).collect::<Vec<_>>())
}

impl Window {
    /// Continue this window with `next`, as if no time lay between them.
    fn append(&mut self, next: Window) {
        let at = self.length;
        self.solves
            .extend(next.solves.iter().map(|s| (s.0 + at, s.1, s.2)));
        self.phases.extend(next.phases);
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.length += next.length;
    }

    fn latency(&self) -> Latency {
        let samples: Vec<_> = self.solves.iter().map(|s| (s.0, s.1)).collect();
        latency(&samples, self.length)
    }

    /// Correct solves per second.
    fn rate(&self) -> f64 {
        let samples: Vec<_> = self.solves.iter().map(|s| (s.0, s.2)).collect();
        let correct = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        closed_loop_rate(&samples, self.length) * correct
    }
}

fn phases_ms(o: &SolveOutcome) -> [f64; 4] {
    [
        o.mean(|p| p.l_wall) * 1e3,
        o.mean(|p| p.z_wall) * 1e3,
        o.mean(|p| p.u_wall) * 1e3,
        o.makespan * 1e3,
    ]
}

fn solve_window(
    solver: &Solver3d,
    b: &[f64],
    nrhs: usize,
    want: &[f64],
    length: Duration,
    log: &mut SpanLog,
) -> Window {
    let mut win = Window {
        length: length.as_secs_f64(),
        ..Window::default()
    };
    let start = Instant::now();
    let mut last = 0.0;
    while start.elapsed() < length {
        let id = win.attempted;
        win.attempted += 1;
        log.span("bench.solve", id, |log| {
            let t = Instant::now();
            // A panicking rank (stall watchdog, lost child) fails this
            // solve; it does not end the run.
            let out = log.span("driver.solve", id, |_| {
                catch_unwind(AssertUnwindSafe(|| solver.solve(b, nrhs)))
            });
            let wall = t.elapsed().as_secs_f64();
            let ok = log.span(
                "bench.check",
                id,
                |_| matches!(&out, Ok(o) if bits_equal(&o.x, want)),
            );
            if !ok {
                win.failed += 1;
            }
            if let Ok(o) = out {
                let now = start.elapsed().as_secs_f64();
                win.solves.push((now, wall * 1e3, now - last));
                win.phases.push(phases_ms(&o));
                last = now;
            }
        });
    }
    win
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child processes of this one that have exited and were never reaped.
fn zombie_children() -> usize {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter(|stat| {
            // `pid (comm) state ppid …`; comm may contain spaces.
            let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
            let mut fields = after.split(' ');
            fields.next() == Some("Z") && fields.next() == Some(me.as_str())
        })
        .count()
}

// ------------------------------------------------------------- the run

/// What the steps of one run share.
struct Run<'a> {
    w: &'static Workload,
    opts: RunOpts,
    built: &'a Built,
    reference: &'a Reference,
    /// The workload's right-hand sides and the answer they must get.
    work: &'a [f64],
    want: &'a [f64],
    log: SpanLog,
    /// A disabled log, for the untraced loops.
    off: SpanLog,
    r: Readings,
    faults: Vec<String>,
    attempted: u64,
    failed: u64,
}

pub fn run(w: &'static Workload, opts: RunOpts) -> RunResult {
    let epoch = Instant::now();
    let layers = opts.mode != Mode::EndToEnd;
    let mut log = SpanLog::new(layers, epoch);

    // (1) Set-up, cold, several times; the last one is measured on.
    // Each one lays the factor out afresh in memory, which moves a
    // sub-millisecond solve by several percent: so the sequential
    // baseline is timed on every one of them, not on the last alone.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut seq_groups = Vec::new();
    let mut built = None;
    for rep in 0..opts.setups.max(1) as u64 {
        drop(built.take());
        let (b, t) = set_up(w, opts.seed, rep, &mut log);
        times.push(t);
        seq_groups.push(log.span("factor.seq_solve", rep, |_| seq_solves(w, &b, opts.effort)));
        built = Some(b);
    }
    let built = built.expect("at least one set-up ran");
    let setup_part = |i: usize| Estimate::of(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    // One thread, no waiting: interference can only add time, so each
    // burst reports its lower quartile, and the run their median.
    let seq = Estimate::of_groups(&seq_groups, 0.25);

    // (2) Reference answers.
    let reference = log.span("bench.reference", 0, |_| references(w, &built));
    let n = built.a.nrows();
    let mut run = Run {
        w,
        opts,
        built: &built,
        reference: &reference,
        work: &built.b[..n * w.nrhs],
        want: &reference.x[..n * w.nrhs],
        log,
        off: SpanLog::new(false, epoch),
        r: Readings::default(),
        faults: reference.faults.clone(),
        attempted: 0,
        failed: 0,
    };

    // (3) Warm-up.
    run.log.span("bench.warmup", 0, |_| {
        for _ in 0..3 {
            std::hint::black_box(built.solver.solve(run.work, w.nrhs));
        }
    });

    // (4) The untraced window, `--seconds` long: the end-to-end numbers.
    // What one client sees — a `Solver3d::solve` call, or on the served
    // workload a request at the light rate, from its due time.
    if opts.mode != Mode::Layers {
        let (seen, rate) = match w.kind {
            Kind::Solve => {
                let direct = match run.native_twin() {
                    Some(twin) => run.timed_window(&twin, run.window(1.0), false),
                    None => run.direct_window(run.window(1.0), false),
                };
                (direct.latency(), direct.rate())
            }
            Kind::Serve => {
                let svc = run.start_service();
                let phases = run.serve_phases(&svc, 1.0, false);
                svc.shutdown();
                (phases[0].latency(), phases[2].rate())
            }
        };
        run.r.timing("setup_s", &setup_part(0));
        run.r.timing("solve_ms_p50", &seen.p50);
        run.r.set("solves_per_s", rate);
        run.r.timing("seq_solve_ms", &seq);
        run.r.set("peak_rss_mb", peak_rss_mb());
    }

    if layers {
        for (i, name) in [
            (1, "sparse.gen_s"),
            (2, "ordering.analyze_s"),
            (3, "factor.factorize_s"),
        ] {
            run.r.timing(name, &setup_part(i));
        }
        // (5) The traced window: direct solves, one-second blocks with
        // the spans off and on by turns, so that the two medians see the
        // same seconds of this box. The untraced half is the ledger's base.
        let share = match w.kind {
            Kind::Solve => 0.7,
            Kind::Serve => 0.2,
        };
        let (base, traced) = run.alternating_blocks(share);
        let overhead = traced.latency().p50.value / base.latency().p50.value - 1.0;
        run.r.set("bench.trace_overhead_frac", overhead);
        run.r.set("bench.samples", base.solves.len() as f64);
        // (6) The layer probes, the ledger over them, the service layer.
        run.probe_layers(&base, seq.value);
        run.service_layer();
    }

    if w.backend == Backend::Proc {
        let zombies = zombie_children();
        if zombies > 0 {
            run.faults
                .push(format!("{zombies} zombie rank processes left behind"));
        }
        let leftovers = crate::rendezvous_leftovers();
        if leftovers > 0 {
            run.faults
                .push(format!("{leftovers} rendezvous directories left behind"));
        }
    }
    if layers {
        let fail_frac = run.failed as f64 / run.attempted.max(1) as f64;
        run.r.set("fail_frac", fail_frac);
    }

    RunResult {
        workload: w,
        opts,
        correct: run.faults.is_empty() && run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        input_hash: workload::input_hash(&built.a, &built.b),
        readings: run.r,
        spans: run.log.spans().to_vec(),
        faults: run.faults,
    }
}

impl Run<'_> {
    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.opts.seconds * share)
    }

    /// A refused request was attempted and failed.
    fn count(&mut self, phases: &[Phase]) {
        for p in phases {
            self.attempted += (p.requests.len() + p.refused) as u64;
            self.failed += (p.wrong() + p.refused) as u64;
        }
    }

    /// A closed loop of direct solves on the workload's solver.
    fn direct_window(&mut self, length: Duration, traced: bool) -> Window {
        self.timed_window(&self.built.solver, length, traced)
    }

    /// A closed loop of solves of the workload's right-hand sides on
    /// `solver`, each held to the reference bit for bit.
    fn timed_window(&mut self, solver: &Solver3d, length: Duration, traced: bool) -> Window {
        let log = if traced { &mut self.log } else { &mut self.off };
        let win = solve_window(solver, self.work, self.w.nrhs, self.want, length, log);
        self.attempted += win.attempted;
        self.failed += win.failed;
        win
    }

    /// On the simulated workload, a native solver of the same layout,
    /// warmed up: the end-to-end window times *it*. A simulated solve is
    /// some 300 timed waits of 100 µs, and how late this VM wakes a
    /// sleeping thread moves between two levels, minutes long, that put
    /// the simulator's host time at 30 ms or 37 ms — wider apart than any
    /// bound could hold. The simulator's host time stays a per-layer
    /// number (`driver.solve_ms_p50` of the traced run).
    fn native_twin(&self) -> Option<Solver3d> {
        (self.w.backend == Backend::Sim).then(|| {
            let twin = Solver3d::new(
                Arc::clone(&self.built.fact),
                self.w.config(Backend::Native, Algorithm::New3d),
            );
            for _ in 0..3 {
                std::hint::black_box(twin.solve(self.work, self.w.nrhs));
            }
            twin
        })
    }

    /// Direct solves for `share` of the run's seconds, in blocks of a
    /// second, untraced and traced by turns: `(untraced, traced)`.
    fn alternating_blocks(&mut self, share: f64) -> (Window, Window) {
        let total = self.window(share);
        let pairs = (total.as_secs_f64() / 2.0).round().max(2.0) as u32;
        let block = total / (2 * pairs);
        let mut halves = (Window::default(), Window::default());
        for _ in 0..pairs {
            halves.0.append(self.direct_window(block, false));
            halves.1.append(self.direct_window(block, true));
        }
        halves
    }

    /// A service over a solver planned like the workload's (the service
    /// takes its solver for itself, so this plans another).
    fn start_service(&self) -> SolverService {
        let solver = Solver3d::new(
            Arc::clone(&self.built.fact),
            self.w.config(self.w.backend, Algorithm::New3d),
        );
        SolverService::start(solver, serve::service_config())
    }

    /// The three open-loop phases, sharing `share` of the run's seconds
    /// as [`serve::PHASES`] says.
    fn serve_phases(&mut self, svc: &SolverService, share: f64, traced: bool) -> Vec<Phase> {
        let length = self.window(share);
        let log = if traced { &mut self.log } else { &mut self.off };
        let mut next_id = 0;
        let phases: Vec<Phase> = serve::PHASES
            .iter()
            .map(|&(rate, part)| {
                let start = Instant::now();
                let phase = serve::run_phase(
                    svc,
                    &self.built.b,
                    &self.reference.x,
                    rate,
                    length.mul_f64(part),
                );
                serve::record_spans(log, &phase, start, next_id);
                next_id += phase.requests.len() as u64;
                phase
            })
            .collect();
        self.count(&phases);
        phases
    }

    /// `count` solves of the same factor on a native `px × py × pz`
    /// layout: median wall in milliseconds, and every solve's phases.
    /// Another layout sums in another order, so these answers are held to
    /// the reference by forward error, not bit for bit.
    fn native_solves(
        &mut self,
        name: &'static str,
        (px, py, pz): (usize, usize, usize),
    ) -> (f64, Vec<[f64; 4]>) {
        let w = self.w;
        let cfg = sptrsv::SolverConfig {
            px,
            py,
            pz,
            ..w.config(Backend::Native, Algorithm::New3d)
        };
        let solver = Solver3d::new(Arc::clone(&self.built.fact), cfg);
        let scale = self.want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let (mut wall_ms, mut phases, mut off_reference) = (Vec::new(), Vec::new(), 0);
        let (work, want, reps) = (self.work, self.want, self.opts.effort.reps(15));
        self.log.span(name, 0, |_| {
            // Two unmeasured solves first: they size the arenas.
            for rep in 0..reps + 2 {
                let t = Instant::now();
                let out = solver.solve(work, w.nrhs);
                let wall = t.elapsed().as_secs_f64();
                if exceeds(sparse::max_abs_diff(&out.x, want), 1e-9 * scale) {
                    off_reference += 1;
                }
                if rep >= 2 {
                    wall_ms.push(wall * 1e3);
                    phases.push(phases_ms(&out));
                }
            }
        });
        if off_reference > 0 {
            self.faults.push(format!(
                "{name}: {off_reference} solves are off the reference"
            ));
        }
        (median(&wall_ms), phases)
    }

    /// Each probe times calls into one layer's public functions; the
    /// ledger at the end sets them against `base`, the untraced direct
    /// solves of this run.
    fn probe_layers(&mut self, base: &Window, seq_ms: f64) {
        let (w, effort) = (self.w, self.opts.effort);
        let fact = &self.built.fact;
        let base_ms = base.latency();
        let p50 = base_ms.p50.value;

        let (build_s, compile_s) = self.log.span("plan.probe", 0, |_| {
            probes::plan_and_schedule(fact, w.px, w.py, w.pz, effort)
        });
        self.r.set("plan.build_s", build_s);
        self.r.set("schedule.compile_s", compile_s);

        let (pb, pwant) = (
            permute(fact, self.work, w.nrhs),
            permute(fact, self.want, w.nrhs),
        );
        let sweep = self.log.span("kernels.probe", 0, |_| {
            probes::kernel_sweep(fact, &pb, w.nrhs, &pwant, effort)
        });
        if exceeds(sweep.error, 1e-9) {
            self.faults.push(format!(
                "kernel sweep is {:e} from the reference",
                sweep.error
            ));
        }
        self.r.set("kernels.sweep_ms", sweep.sweep_ms);
        self.r.set("kernels.flops", sweep.flops);
        self.r.set(
            "kernels.gflops",
            sweep.flops / (sweep.sweep_ms * 1e-3) / 1e9,
        );
        self.r.set("kernels.bytes_computed", sweep.bytes_computed);
        self.r
            .set("kernels.flops_per_byte", sweep.flops / sweep.bytes_computed);

        // solve2d: the engine on one rank, then on one grid, natively.
        let (single_ms, _) = self.native_solves("solve2d.single_rank", (1, 1, 1));
        let (grid_ms, _) = self.native_solves("solve2d.grid_solve", (w.px, w.py, 1));
        // Real-clock phases: the workload's own solves — or, on the
        // simulator, whose phases are virtual, a native twin of its plan.
        let twin = (w.backend == Backend::Sim).then(|| {
            self.native_solves("driver.native_twin", (w.px, w.py, w.pz))
                .1
        });
        let real = twin.as_ref().unwrap_or(&base.phases);
        let [l_ms, z_ms, u_ms, makespan_ms] = [0, 1, 2, 3].map(|i| phase_median(real, i));
        self.r.set("solve2d.single_rank_ms", single_ms);
        self.r
            .set("solve2d.engine_overhead_ms", single_ms - sweep.sweep_ms);
        self.r.set("solve2d.grid_solve_ms", grid_ms);
        self.r.set("solve2d.l_phase_ms", l_ms);
        self.r.set("solve2d.u_phase_ms", u_ms);
        self.r.set("allreduce.z_phase_ms", z_ms);

        // allreduce and schedule: one probe, and exact counts from the
        // reference solve.
        let plan = self.built.solver.plan();
        let call_us = self.log.span("allreduce.probe", 0, |_| {
            probes::allreduce_call_us(plan, w.nrhs, effort)
        });
        self.r.set("allreduce.call_us", call_us);
        let sim = &self.reference.sim;
        let total = |f: &dyn Fn(&simgrid::RankStats) -> u64| -> f64 {
            sim.stats.iter().map(f).sum::<u64>() as f64
        };
        let (xy, z) = (Category::XyComm as usize, Category::ZComm as usize);
        let msgs = total(&|s| s.msgs_sent.iter().sum());
        self.r.set("allreduce.z_msgs", total(&|s| s.msgs_sent[z]));
        self.r.set(
            "allreduce.z_payload_bytes",
            sim.metrics.counter("comm.z.bytes") as f64,
        );
        self.r.set(
            "allreduce.bytes_saved",
            sim.metrics.counter("comm.z.bytes_saved") as f64,
        );
        self.r.set("schedule.msgs_per_solve", msgs);
        self.r.set("schedule.xy_msgs", total(&|s| s.msgs_sent[xy]));
        // `bytes_sent` charges a nominal 64-byte envelope per message.
        self.r.set(
            "schedule.payload_bytes_per_solve",
            total(&|s| s.bytes_sent.iter().sum()) - 64.0 * msgs,
        );

        // The simulator's own clock: the paper's quantities, exact.
        self.r.set("sim_makespan_us", sim.makespan * 1e6);
        self.r.set(
            "sim_speedup_vs_baseline",
            self.reference.baseline_makespan / sim.makespan,
        );
        self.r
            .set("simgrid.l_phase_virt_us", sim.mean(|p| p.l_wall) * 1e6);
        self.r
            .set("simgrid.z_phase_virt_us", sim.mean(|p| p.z_wall) * 1e6);
        self.r
            .set("simgrid.u_phase_virt_us", sim.mean(|p| p.u_wall) * 1e6);

        let t = self.log.span("transport.probe", 0, |_| {
            probes::transport(w.backend, w.px, w.py, w.nranks(), effort)
        });
        self.r.set("transport.spinup_ms", t.spinup_ms);
        self.r.set("transport.split_ms", t.split_ms);
        self.r.set("transport.hop_us_8B", t.hop_us_8b);
        self.r.set("transport.hop_us_64KiB", t.hop_us_64k);
        self.r.set("transport.alpha_us", t.alpha_us);
        self.r.set("transport.beta_ns_per_byte", t.beta_ns_per_byte);
        self.r.set("transport.fanin_us", t.fanin_us);
        let (small, large) = self.log.span("wire.probe", 0, |_| {
            (probes::wire(8, effort), probes::wire(8192, effort))
        });
        self.r.set("wire.encode_ns_8w", small.encode_ns);
        self.r.set("wire.decode_ns_8w", small.decode_ns);
        self.r.set("wire.encode_ns_8kw", large.encode_ns);
        self.r.set("wire.decode_ns_8kw", large.decode_ns);

        // driver: the ledger. Every term but the last is measured; the
        // last is what they leave of the median solve.
        self.r.timing("driver.solve_ms_p50", &base_ms.p50);
        self.r.set("driver.makespan_ms", makespan_ms);
        self.r.set("driver.outside_ms", p50 - makespan_ms);
        self.r.set(
            "driver.unattributed_ms",
            p50 - t.spinup_ms - t.split_ms - (l_ms + z_ms + u_ms),
        );
        self.r
            .set("driver.sim_over_measured", sim.makespan * 1e3 / makespan_ms);
        self.r.set("driver.speedup_vs_seq", seq_ms / p50);
        self.r.set("driver.solve_ms_p99", base_ms.p99);
        self.r.set(
            "driver.solve_ms_iqr",
            base_ms.p50.all.q3 - base_ms.p50.all.q1,
        );
        self.r.set(
            "driver.rank_oversub",
            w.nranks() as f64 / crate::nproc() as f64,
        );
    }

    /// The `service.*` metrics: of the three traced phases where the
    /// workload is served; elsewhere of a short closed loop of width-1
    /// requests over a service on the workload's own solver.
    fn service_layer(&mut self) {
        let svc = self.start_service();
        let phases = match self.w.kind {
            Kind::Serve => self.serve_phases(&svc, 0.6, true),
            Kind::Solve => {
                let n = self.built.a.nrows();
                let (b, want) = (&self.built.b[..n], &self.reference.x[..n]);
                let count = self.opts.effort.reps(24);
                let probe = self
                    .log
                    .span("service.probe", 0, |_| closed_loop(&svc, b, want, count));
                self.count(std::slice::from_ref(&probe));
                vec![probe]
            }
        };
        let (m, stats) = (svc.metrics(), svc.stats());
        svc.shutdown();
        let hist_ms = |name: &str| m.histogram(name).map_or(0.0, |h| h.percentile(0.5) * 1e3);
        self.r.set(
            "service.queue_wait_ms_p50",
            hist_ms("service.queue_wait_seconds"),
        );
        self.r.set(
            "service.batch_form_ms_p50",
            hist_ms("service.batch_form_seconds"),
        );
        self.r
            .set("service.solve_ms_p50", hist_ms("service.solve_seconds"));
        self.r
            .set("service.demux_ms_p50", hist_ms("service.demux_seconds"));
        self.r
            .set("service.latency_ms_p99", phases[0].latency().p99);
        self.r.set(
            "service.mean_batch_width",
            stats.requests as f64 / stats.batches.max(1) as f64,
        );
        self.r.set("service.batches", stats.batches as f64);
        let refused: usize = phases.iter().map(|p| p.refused).sum();
        self.r.set("service.refused", refused as f64);
        let lag: Vec<f64> = phases.iter().flat_map(|p| p.gen_lag_ms()).collect();
        self.r.set(
            "service.gen_lag_ms_p99",
            Estimate::of_groups(&[lag], 0.99).value,
        );
        // The moderate phase where there is one, else the probe's loop.
        self.r.set(
            "service.ok_frac",
            phases.get(1).unwrap_or(&phases[0]).ok_frac(),
        );
    }
}

/// `b` (original ordering, `n × nrhs`) in the factor's permuted ordering.
fn permute(fact: &Factorized, b: &[f64], nrhs: usize) -> Vec<f64> {
    let n = fact.lu.n();
    let mut pb = vec![0.0; n * nrhs];
    for r in 0..nrhs {
        for i in 0..n {
            pb[r * n + i] = b[r * n + fact.nd.perm[i]];
        }
    }
    pb
}

/// `count` width-1 requests through the service, each submitted when the
/// previous one was answered; reported in the shape of an open-loop phase
/// (a request is due when its predecessor completed).
fn closed_loop(svc: &SolverService, b: &[f64], want: &[f64], count: usize) -> Phase {
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_secs_f64();
    let mut x = vec![0.0; b.len()];
    let mut refused = 0;
    let mut requests = Vec::with_capacity(count);
    let mut due = start;
    for _ in 0..count {
        let submit_start = Instant::now();
        let Ok(ticket) = svc.submit(b, 1) else {
            refused += 1;
            continue;
        };
        let submit_end = Instant::now();
        ticket.wait_into(&mut x);
        let done = Instant::now();
        requests.push(serve::Request {
            due: since(due),
            submit_start: since(submit_start),
            submit_end: since(submit_end),
            wait_start: since(submit_end),
            done: since(done),
            ok: bits_equal(&x, want),
        });
        due = done;
    }
    Phase {
        window: since(Instant::now()),
        scheduled: count,
        refused,
        requests,
    }
}
