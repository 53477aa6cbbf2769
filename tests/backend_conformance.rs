//! Cross-backend conformance: the solver core is generic over the
//! [`Transport`](simgrid::Transport), and the choice of wires must never
//! change the answer.
//!
//! For every algorithm variant on the conformance fixtures, the solution
//! `x` must be **bit-identical** between the virtual-time simulator
//! (`Backend::Sim`), the real shared-memory threaded transport
//! (`Backend::Native`), and the process-per-rank socket transport
//! (`Backend::Proc`). This holds because
//!
//! - ledger accumulation is delivery-order-independent (fixed per-slot
//!   ordering, not arrival ordering),
//! - point-to-point traffic is `(src, tag)`-addressed, and
//! - collectives use the same fixed binomial reduction shape on all
//!   backends (one shared implementation in `simgrid::collectives`).
//!
//! Native and proc timing is real wall-clock, so only the numerics (and
//! message counts) are compared — never the clocks.
//!
//! The CI backend matrix pins one backend per job with
//! `SPTRSV_TEST_BACKEND=sim|native|proc`; unset, every real backend is
//! checked against the simulator in one run.

mod common;

use sptrsv_repro::prelude::*;
use sptrsv_repro::sptrsv;
use std::sync::Arc;

const NRHS: usize = 2;

fn fixture(pz: usize, nrhs: usize) -> (CsrMatrix, Arc<Factorized>, Vec<f64>) {
    let a = gen::poisson2d_9pt(12, 12);
    let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).expect("factorize"));
    let b = gen::standard_rhs(a.nrows(), nrhs);
    (a, f, b)
}

fn config(alg: Algorithm, arch: Arch, (px, py, pz): (usize, usize, usize)) -> SolverConfig {
    SolverConfig {
        px,
        py,
        pz,
        nrhs: NRHS,
        algorithm: alg,
        arch,
        machine: if arch == Arch::Gpu {
            MachineModel::perlmutter_gpu()
        } else {
            MachineModel::cori_haswell()
        },
        chaos_seed: 0,
        fault: Default::default(),
        backend: Backend::Sim,
        executor: common::executor(),
    }
}

/// Real backends to check against the simulator. The CI matrix pins one
/// via `SPTRSV_TEST_BACKEND`; pinning `sim` reduces the suite to the
/// reference check alone (the simulator *is* the baseline).
fn backends_under_test() -> Vec<Backend> {
    if std::env::var("SPTRSV_TEST_BACKEND").is_ok() {
        match common::backend() {
            Backend::Sim => vec![],
            other => vec![other],
        }
    } else {
        vec![Backend::Native, Backend::Proc]
    }
}

/// Total point-to-point sends across all ranks.
fn total_sent(o: &SolveOutcome) -> u64 {
    o.stats
        .iter()
        .map(|s| s.msgs_sent.iter().sum::<u64>())
        .sum()
}

/// Solve the fixture on every backend under test, for every RHS count of
/// the sweep, and require `x` to solve the system and to be bit-identical
/// to the simulator's. Each proc solve forks a whole cluster, so proc is
/// compared at the widest sweep point only.
fn assert_backends_agree(alg: Algorithm, arch: Arch, grid: (usize, usize, usize)) {
    for nrhs in common::NRHS_SWEEP {
        assert_backends_agree_at(alg, arch, grid, nrhs);
    }
}

fn assert_backends_agree_at(alg: Algorithm, arch: Arch, grid: (usize, usize, usize), nrhs: usize) {
    let (a, f, b) = fixture(grid.2, nrhs);
    let sim_cfg = SolverConfig {
        nrhs,
        ..config(alg, arch, grid)
    };
    let sim = solve_distributed(&f, &b, &sim_cfg);

    common::assert_solves(
        &a,
        &f,
        &b,
        &sim.x,
        nrhs,
        &format!("{alg:?}/{arch:?}/{grid:?} sim"),
    );
    assert!(
        sim.replication_disagreement == 0.0,
        "{alg:?}/{arch:?}/{grid:?}: replicated grids disagreed under sim"
    );

    let widest = nrhs == common::NRHS_SWEEP[2];
    for backend in backends_under_test() {
        if backend == Backend::Proc && !widest {
            continue;
        }
        let cfg = SolverConfig {
            backend,
            ..sim_cfg.clone()
        };
        let real = solve_distributed(&f, &b, &cfg);

        assert_eq!(sim.x.len(), real.x.len());
        for (i, (s, r)) in sim.x.iter().zip(&real.x).enumerate() {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "{alg:?}/{arch:?}/{grid:?}, nrhs {nrhs}: x[{i}] differs across backends: \
                 sim {s:e}, {backend:?} {r:e}"
            );
        }
        assert!(
            real.replication_disagreement == 0.0,
            "{alg:?}/{arch:?}/{grid:?}: replicated grids disagreed under {backend:?}"
        );

        // Message accounting is backend-portable (same sends, same
        // payloads); clocks are not — real makespans are wall time, so
        // just sanity them.
        assert_eq!(
            total_sent(&sim),
            total_sent(&real),
            "{alg:?}/{arch:?}/{grid:?}: message counts diverge on {backend:?}"
        );
        assert!(real.makespan.is_finite() && real.makespan > 0.0);
    }
}

#[test]
fn new3d_cpu_backends_agree() {
    assert_backends_agree(Algorithm::New3d, Arch::Cpu, (2, 2, 4));
    assert_backends_agree(Algorithm::New3d, Arch::Cpu, (2, 1, 4));
}

#[test]
fn new3d_flat_cpu_backends_agree() {
    assert_backends_agree(Algorithm::New3dFlat, Arch::Cpu, (2, 2, 4));
    assert_backends_agree(Algorithm::New3dFlat, Arch::Cpu, (2, 1, 4));
}

#[test]
fn new3d_naive_allreduce_cpu_backends_agree() {
    assert_backends_agree(Algorithm::New3dNaiveAllreduce, Arch::Cpu, (2, 2, 4));
    assert_backends_agree(Algorithm::New3dNaiveAllreduce, Arch::Cpu, (2, 1, 4));
}

#[test]
fn baseline3d_cpu_backends_agree() {
    assert_backends_agree(Algorithm::Baseline3d, Arch::Cpu, (2, 2, 4));
    assert_backends_agree(Algorithm::Baseline3d, Arch::Cpu, (2, 1, 4));
}

#[test]
fn gpu_variants_backends_agree() {
    assert_backends_agree(Algorithm::New3d, Arch::Gpu, (2, 2, 4));
    assert_backends_agree(Algorithm::New3dNaiveAllreduce, Arch::Gpu, (2, 1, 4));
}

/// A solve sends the messages its schedule IR lists and nothing else: no
/// communicator set-up traffic on any backend. `msgs.sent` counts every
/// message a rank hands to its backend, set-up sends included.
#[test]
fn new3d_sends_exactly_the_scheduled_messages() {
    let grid = (2, 2, 4);
    let (_, f, b) = fixture(grid.2, NRHS);
    let sim_cfg = config(Algorithm::New3d, Arch::Cpu, grid);
    let mut backends = backends_under_test();
    backends.push(Backend::Sim);
    for backend in backends {
        let cfg = SolverConfig {
            backend,
            ..sim_cfg.clone()
        };
        let solver = Solver3d::new(Arc::clone(&f), cfg);
        let v = sptrsv::analysis::predict_new3d_volume(solver.plan(), NRHS);
        let out = solver.solve(&b, NRHS);
        let scheduled = v.xy_msgs + v.z_msgs;
        assert!(scheduled > 0);
        assert_eq!(total_sent(&out), scheduled, "{backend:?}: counted sends");
        assert_eq!(
            out.metrics.counter("msgs.sent"),
            scheduled,
            "{backend:?}: messages handed to the backend"
        );
    }
}

/// Repeated native solves through the compiled-schedule path stay
/// bit-stable run to run (real thread interleavings change arrival
/// order; the ledger makes numerics independent of it).
#[test]
fn native_is_bit_stable_across_runs() {
    let grid = (2, 2, 4);
    let (_, f, b) = fixture(grid.2, NRHS);
    let cfg = SolverConfig {
        backend: Backend::Native,
        ..config(Algorithm::New3d, Arch::Cpu, grid)
    };
    let solver = Solver3d::new(Arc::clone(&f), cfg);
    let first = solver.solve(&b, NRHS);
    for _ in 0..3 {
        let again = solver.solve(&b, NRHS);
        for (s, n) in first.x.iter().zip(&again.x) {
            assert_eq!(s.to_bits(), n.to_bits(), "native run-to-run drift");
        }
    }
}

/// The proc backend must actually put each rank in its own OS process:
/// every rank publishes its PID as a metric counter, and all of them
/// must be distinct from each other and from the test harness.
#[test]
fn proc_ranks_run_in_separate_processes() {
    let grid = (2, 2, 2);
    let (a, f, b) = fixture(grid.2, NRHS);
    let cfg = SolverConfig {
        backend: Backend::Proc,
        ..config(Algorithm::New3d, Arch::Cpu, grid)
    };
    let out = solve_distributed(&f, &b, &cfg);
    common::assert_solves(&a, &f, &b, &out.x, NRHS, "proc 2x2x2");

    let nranks = grid.0 * grid.1 * grid.2;
    let mut pids = Vec::new();
    for r in 0..nranks {
        let pid = out.metrics.counter(&format!("proc.pid.rank{r}"));
        assert!(pid != 0, "rank {r} did not publish a PID counter");
        assert_ne!(
            pid,
            u64::from(std::process::id()),
            "rank {r} ran inside the test harness process"
        );
        pids.push(pid);
    }
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), nranks, "ranks shared OS processes: {pids:?}");
}
