//! Top-level driver: run a distributed SpTRSV on a cluster backend and
//! gather the solution plus the paper's timing breakdown.
//!
//! The rank program is generic over the [`Transport`]; the driver picks
//! the backend: the virtual-time simulator (timing predictions, fault
//! injection, tracing), the real shared-memory transport (actual
//! threads, wall-clock timing), or the process-per-rank socket transport
//! (one OS process per rank, wire-framed messages, wall-clock timing).

use crate::new3d::RankOutput;
use crate::plan::Plan;
use crate::schedule::ScheduleKey;
use lufactor::Factorized;
use simgrid::{ClusterOptions, MachineModel, RankStats, Transport};
use std::sync::Arc;

/// Which 3D SpTRSV algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The proposed algorithm (paper Alg. 1): masked 2D solves + sparse
    /// allreduce + binary communication trees.
    New3d,
    /// The proposed algorithm with flat intra-grid communication (ablation
    /// of the communication trees, `NEW3DSOLVETREECOMM` unset).
    New3dFlat,
    /// The proposed algorithm with the naive per-node dense allreduce
    /// (ablation of the sparse allreduce scheme).
    New3dNaiveAllreduce,
    /// The ICS'19 baseline: level-by-level with `O(log Pz)` inter-grid
    /// synchronizations and flat intra-grid communication.
    Baseline3d,
}

/// Communication backend carrying the solve's messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The virtual-time simulator (`simgrid`): predicted makespans under
    /// an α–β machine model, with fault injection and span tracing.
    #[default]
    Sim,
    /// The real shared-memory transport (`comm_native`): one OS thread
    /// per rank, real messages, wall-clock timing. No machine model is
    /// applied; fault injection and tracing are unavailable (sim-private).
    Native,
    /// The process-per-rank socket transport (`comm_proc`): one OS
    /// process per rank over Unix-domain sockets, every message crossing
    /// the address-space boundary as a wire frame. Wall-clock timing;
    /// fault injection and tracing are unavailable (sim-private).
    Proc,
}

impl Backend {
    /// All valid `--backend` spellings, for error messages and help text.
    pub const NAMES: &'static str = "sim | native | proc";
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            "proc" => Ok(Backend::Proc),
            other => Err(format!(
                "unknown backend '{other}': valid backends are {}",
                Backend::NAMES
            )),
        }
    }
}

/// Intra-grid execution engine interpreting the compiled passes
/// (DESIGN.md §12). Both engines run the same [`crate::schedule::Schedule`]
/// and produce bit-identical solutions; they differ in *when* rows fire,
/// hence in the predicted/measured timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Message-driven elimination-tree walk: rows fire reactively as
    /// their dependency counters drain (paper Alg. 3).
    #[default]
    Tree,
    /// Level-set engine: rows fire in the precompiled dependency-level
    /// program with chain batching ([`crate::levelexec`]). On the
    /// single-GPU column sweep (`Px = Py = 1`) the column order is already
    /// a level linearization, so the selection is a no-op there.
    Level,
}

impl std::str::FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tree" => Ok(ExecutorKind::Tree),
            "level" => Ok(ExecutorKind::Level),
            other => Err(format!("unknown executor '{other}' (expected tree|level)")),
        }
    }
}

/// Execution architecture for the intra-grid solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// CPU ranks (Alg. 3).
    Cpu,
    /// One GPU per rank: single-GPU kernels when `Px = Py = 1` (Alg. 4),
    /// NVSHMEM-style one-sided multi-GPU kernels otherwise (Alg. 5).
    Gpu,
}

/// Full configuration of one distributed solve.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// 2D grid rows.
    pub px: usize,
    /// 2D grid columns.
    pub py: usize,
    /// Number of 2D grids (power of two).
    pub pz: usize,
    /// Right-hand sides.
    pub nrhs: usize,
    /// Algorithm variant.
    pub algorithm: Algorithm,
    /// CPU or GPU execution.
    pub arch: Arch,
    /// Machine cost model.
    pub machine: MachineModel,
    /// Nonzero: chaotic any-source message selection (failure injection).
    /// Sim backend only.
    pub chaos_seed: u64,
    /// Fault-injection plan for the simulated network (inert by default).
    /// Sim backend only.
    pub fault: simgrid::FaultPlan,
    /// Communication backend (simulator by default).
    pub backend: Backend,
    /// Intra-grid execution engine (tree walk by default).
    pub executor: ExecutorKind,
}

/// Per-rank phase timing, in seconds of the backend's clock: simulated
/// seconds under [`Backend::Sim`], measured wall-clock seconds under
/// [`Backend::Native`] and [`Backend::Proc`].
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseTimes {
    /// Wall time of the L-solve phase.
    pub l_wall: f64,
    /// Wall time of the inter-grid synchronization phase (proposed
    /// algorithm only; the baseline interleaves it into `l/u_wall`).
    pub z_wall: f64,
    /// Wall time of the U-solve phase.
    pub u_wall: f64,
    /// Busy (FP + intra-grid comm) time during the L phase — the paper's
    /// load-balance quantity with Z-comm excluded (Fig. 7/8).
    pub l_busy: f64,
    /// Busy time during the U phase.
    pub u_busy: f64,
    /// Total inter-grid communication time (Z-Comm of Fig. 5/6).
    pub z_time: f64,
    /// Total solve wall time on this rank.
    pub total: f64,
}

impl simgrid::wire::WirePack for PhaseTimes {
    fn pack(&self, out: &mut Vec<u8>) {
        for v in [
            self.l_wall,
            self.z_wall,
            self.u_wall,
            self.l_busy,
            self.u_busy,
            self.z_time,
            self.total,
        ] {
            simgrid::wire::put_f64(out, v);
        }
    }
    fn unpack(r: &mut simgrid::wire::WireReader<'_>) -> Result<Self, simgrid::wire::WireError> {
        Ok(PhaseTimes {
            l_wall: r.f64()?,
            z_wall: r.f64()?,
            u_wall: r.f64()?,
            l_busy: r.f64()?,
            u_busy: r.f64()?,
            z_time: r.f64()?,
            total: r.f64()?,
        })
    }
}

/// Result of a distributed solve.
pub struct SolveOutcome {
    /// Gathered solution in the *original* ordering (`n × nrhs` col-major).
    pub x: Vec<f64>,
    /// Per-rank phase times.
    pub phases: Vec<PhaseTimes>,
    /// Per-rank simulator statistics (category times, bytes, messages).
    pub stats: Vec<RankStats>,
    /// Wall time of the whole solve (max rank clock): simulated seconds
    /// under [`Backend::Sim`], real seconds under [`Backend::Native`]
    /// and [`Backend::Proc`].
    pub makespan: f64,
    /// Maximum discrepancy between replicated ancestor solutions computed
    /// by different grids (a correctness telltale; ~1e-12 expected).
    pub replication_disagreement: f64,
    /// Per-rank event timelines (only with [`solve_traced`]).
    pub traces: Vec<Vec<simgrid::TraceEvent>>,
    /// Per-rank flight-recorder contents: the most recent spans of every
    /// rank at the end of the solve, oldest first (always recorded on both
    /// backends, bounded by the recorder capacity).
    pub flight: Vec<Vec<simgrid::TraceEvent>>,
    /// Counters and histograms merged across all ranks (always recorded).
    pub metrics: simgrid::Metrics,
}

/// A planned solver: the 3D layout, grid membership, and subcommunicator
/// structure are computed once and reused across solves — the paper's
/// "setup once, solve many right-hand sides" usage (preconditioner
/// application, multi-load-case campaigns).
pub struct Solver3d {
    plan: Arc<Plan>,
    cfg: SolverConfig,
}

impl Solver3d {
    /// Plan a solver for the given factorization and configuration. The
    /// communication schedule is compiled here, so subsequent [`solve`]
    /// calls perform zero schedule setup.
    ///
    /// [`solve`]: Solver3d::solve
    pub fn new(fact: Arc<Factorized>, cfg: SolverConfig) -> Self {
        let plan = Arc::new(Plan::new(fact, cfg.px, cfg.py, cfg.pz));
        plan.schedule(schedule_key(&cfg));
        Solver3d { plan, cfg }
    }

    /// The underlying plan (for analysis, e.g. `sptrsv::analysis`).
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// The configuration this solver was planned for.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Solve `A x = b` for `nrhs` column-major RHSs in the original
    /// ordering (`nrhs` may differ from the planned `cfg.nrhs`).
    pub fn solve(&self, b: &[f64], nrhs: usize) -> SolveOutcome {
        let mut cfg = self.cfg.clone();
        cfg.nrhs = nrhs;
        solve_planned(&self.plan, b, &cfg)
    }
}

/// Run one distributed SpTRSV over the virtual cluster.
///
/// `b` is the right-hand side in the *original* ordering (`n × nrhs`
/// col-major); the returned solution is in the original ordering too.
/// Plans the 3D layout on every call — use [`Solver3d`] to amortize the
/// planning over many solves.
pub fn solve_distributed(fact: &Arc<Factorized>, b: &[f64], cfg: &SolverConfig) -> SolveOutcome {
    let plan = Arc::new(Plan::new(fact.clone(), cfg.px, cfg.py, cfg.pz));
    solve_planned(&plan, b, cfg)
}

/// Run one distributed SpTRSV with a prebuilt plan.
pub fn solve_planned(plan: &Arc<Plan>, b: &[f64], cfg: &SolverConfig) -> SolveOutcome {
    solve_traced(plan, b, cfg, false)
}

/// The schedule family a configuration executes from.
fn schedule_key(cfg: &SolverConfig) -> ScheduleKey {
    match (cfg.algorithm, cfg.arch) {
        (Algorithm::Baseline3d, _) => ScheduleKey {
            baseline: true,
            tree_comm: false,
        },
        (Algorithm::New3dFlat, Arch::Cpu) => ScheduleKey {
            baseline: false,
            tree_comm: false,
        },
        // The proposed algorithm; GPU paths always use trees.
        _ => ScheduleKey {
            baseline: false,
            tree_comm: true,
        },
    }
}

/// One rank of the distributed solve, on any [`Transport`] backend:
/// build the grid and z subcommunicators, then dispatch to the algorithm
/// variant's executor.
fn rank_program<T: Transport>(
    plan: &Plan,
    algorithm: Algorithm,
    arch: Arch,
    executor: ExecutorKind,
    pb: &[f64],
    nrhs: usize,
    world: T,
) -> RankOutput {
    let (x, y, z) = plan.coords(world.rank());
    let (grid_comm, zcomm) = plan.cart_comms(&world);
    let ctx = crate::solve2d::Ctx {
        plan,
        grid: &plan.grids[z],
        comm: &grid_comm,
        x,
        y,
        nrhs,
        pb,
        executor,
    };
    let naive = algorithm == Algorithm::New3dNaiveAllreduce;
    match (algorithm, arch) {
        (Algorithm::Baseline3d, Arch::Cpu) => crate::baseline3d::run_rank(&ctx, &zcomm),
        (Algorithm::Baseline3d, Arch::Gpu) => {
            panic!("the baseline 3D algorithm has no GPU implementation (paper §3.4)")
        }
        (alg, Arch::Cpu) => {
            crate::new3d::run_rank(&ctx, &zcomm, alg != Algorithm::New3dFlat, naive)
        }
        (_, Arch::Gpu) => crate::gpusolve::run_rank(&ctx, &zcomm, naive),
    }
}

/// Runtime options of a solve on a real-clock backend, after checking that
/// the configuration asks for nothing sim-private.
fn real_options(
    cfg: &SolverConfig,
    trace: bool,
    flight_dump_path: Option<std::path::PathBuf>,
) -> simgrid::RealOptions {
    assert!(
        cfg.fault.is_inert() && cfg.chaos_seed == 0,
        "fault injection is sim-private: run faults on Backend::Sim"
    );
    assert!(!trace, "span tracing is sim-private: trace on Backend::Sim");
    simgrid::RealOptions {
        flight_dump_path,
        ..Default::default()
    }
}

/// Like [`solve_planned`], optionally recording per-rank event timelines
/// (`SolveOutcome::traces`; render with [`simgrid::render_timeline`]).
/// Tracing is sim-private: `trace = true` requires [`Backend::Sim`].
pub fn solve_traced(plan: &Arc<Plan>, b: &[f64], cfg: &SolverConfig, trace: bool) -> SolveOutcome {
    let fact = &plan.fact;
    let n = fact.lu.n();
    let nrhs = cfg.nrhs;
    assert_eq!(b.len(), n * nrhs, "rhs size mismatch");
    assert_eq!(
        (cfg.px, cfg.py, cfg.pz),
        (plan.px, plan.py, plan.pz),
        "configuration does not match the plan"
    );

    // Warm the schedule cache outside the rank programs (no-op when the
    // solver was planned ahead — the "compile once, solve many" path).
    plan.schedule(schedule_key(cfg));

    // Permute the RHS once (setup, untimed).
    let mut pb = vec![0.0; n * nrhs];
    for r in 0..nrhs {
        for i in 0..n {
            pb[r * n + i] = b[r * n + fact.nd.perm[i]];
        }
    }

    // One rank program on every backend; the arms below differ only in
    // which `run` carries it.
    let (algorithm, arch, executor) = (cfg.algorithm, cfg.arch, cfg.executor);
    let nranks = plan.nranks();
    let machine = cfg.machine.clone();
    // Opt-in stall forensics: when set, a stall watchdog drains the flight
    // recorders it can see into a Perfetto trace at this path before
    // panicking (every backend).
    let flight_dump = std::env::var_os("SPTRSV_FLIGHT_DUMP").map(std::path::PathBuf::from);
    let report = match cfg.backend {
        Backend::Sim => {
            let opts = ClusterOptions {
                chaos_seed: cfg.chaos_seed,
                trace,
                fault: cfg.fault.clone(),
                flight_dump_path: flight_dump,
                ..ClusterOptions::default()
            };
            simgrid::run(nranks, machine, &opts, |world| {
                rank_program(plan, algorithm, arch, executor, &pb, nrhs, world)
            })
        }
        Backend::Native => {
            let opts = real_options(cfg, trace, flight_dump);
            comm_native::run(nranks, machine, &opts, |world| {
                rank_program(plan, algorithm, arch, executor, &pb, nrhs, world)
            })
        }
        // The rank programs run in forked children; the plan, the permuted
        // RHS, and the compiled schedule (warmed above) are inherited
        // copy-on-write, and each rank's `RankOutput` returns over the
        // wire via its `WirePack` encoding.
        Backend::Proc => {
            let opts = comm_proc::ProcOptions {
                runtime: real_options(cfg, trace, flight_dump),
                ..Default::default()
            };
            comm_proc::run(nranks, machine, &opts, |world| {
                rank_program(plan, algorithm, arch, executor, &pb, nrhs, world)
            })
        }
    };

    // Assemble the permuted solution from the diagonal pieces. Smaller z
    // written last so replicated values deterministically come from the
    // smallest grid; track the max disagreement between replicas.
    let sym = fact.lu.sym();
    let mut xp = vec![f64::NAN; n * nrhs];
    let mut disagreement: f64 = 0.0;
    let mut indexed: Vec<(usize, &RankOutput)> = report.results.iter().enumerate().collect();
    indexed.sort_by_key(|&(rank, _)| std::cmp::Reverse(rank));
    for (_, out) in indexed {
        for (k, piece) in &out.x_pieces {
            let cols = sym.sup_cols(*k as usize);
            let w = cols.len();
            for r in 0..nrhs {
                for j in 0..w {
                    let dst = &mut xp[r * n + cols.start + j];
                    let v = piece[r * w + j];
                    if !dst.is_nan() {
                        disagreement = disagreement.max((*dst - v).abs());
                    }
                    *dst = v;
                }
            }
        }
    }
    assert!(
        xp.iter().all(|v| !v.is_nan()),
        "solution incomplete: some supernodes never solved"
    );

    // Un-permute.
    let mut x = vec![0.0; n * nrhs];
    for r in 0..nrhs {
        for i in 0..n {
            x[r * n + fact.nd.perm[i]] = xp[r * n + i];
        }
    }

    SolveOutcome {
        x,
        phases: report.results.iter().map(|o| o.phases).collect(),
        stats: report.stats,
        makespan: report.makespan,
        replication_disagreement: disagreement,
        traces: report.traces,
        flight: report.flight,
        metrics: report.metrics,
    }
}

impl SolveOutcome {
    /// `(min, mean, max)` over ranks of an extracted phase quantity.
    pub fn min_mean_max(&self, f: impl Fn(&PhaseTimes) -> f64) -> (f64, f64, f64) {
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for p in &self.phases {
            let v = f(p);
            mn = mn.min(v);
            mx = mx.max(v);
            sum += v;
        }
        (mn, sum / self.phases.len() as f64, mx)
    }

    /// Mean over ranks of an extracted phase quantity.
    pub fn mean(&self, f: impl Fn(&PhaseTimes) -> f64) -> f64 {
        self.phases.iter().map(&f).sum::<f64>() / self.phases.len() as f64
    }

    /// Measured critical path of this solve. Meaningful only when the run
    /// was traced ([`solve_traced`] with `trace = true`); returns an
    /// all-zero path otherwise.
    pub fn critical_path(&self) -> crate::analysis::CriticalPath {
        crate::analysis::critical_path(&self.traces, self.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lufactor::factorize;
    use ordering::SymbolicOptions;
    use sparse::gen;

    /// The tentpole guarantee: planning compiles the schedule exactly
    /// once, and repeated solves perform zero additional setup while
    /// producing identical results.
    #[test]
    fn repeated_solves_compile_schedule_once() {
        let a = gen::poisson2d_9pt(12, 12);
        let f = Arc::new(factorize(&a, 4, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(a.nrows(), 2);
        let cfg = SolverConfig {
            px: 2,
            py: 2,
            pz: 4,
            nrhs: 2,
            algorithm: Algorithm::New3d,
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Backend::Sim,
            executor: Default::default(),
        };
        let solver = Solver3d::new(Arc::clone(&f), cfg);
        assert_eq!(solver.plan().schedule_compiles(), 1);
        let first = solver.solve(&b, 2);
        let second = solver.solve(&b, 2);
        assert_eq!(
            solver.plan().schedule_compiles(),
            1,
            "solves must not recompile the schedule"
        );
        assert_eq!(first.x, second.x);
        assert_eq!(first.makespan, second.makespan);
    }
}
