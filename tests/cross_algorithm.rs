//! Cross-crate integration tests: every distributed algorithm/architecture
//! combination must reproduce the sequential reference solution exactly
//! (same factors, same arithmetic), on every Table 1 analog matrix.

mod common;

use sptrsv_repro::prelude::*;
use std::sync::Arc;

fn reference(a: &CsrMatrix, pz: usize) -> (Arc<Factorized>, Vec<f64>, Vec<f64>) {
    let f = Arc::new(factorize(a, pz, &SymbolicOptions::default()).expect("factorize"));
    let b = gen::standard_rhs(a.nrows(), 2);
    let x = f.solve(&b, 2);
    (f, b, x)
}

fn run(
    f: &Arc<Factorized>,
    b: &[f64],
    alg: Algorithm,
    arch: Arch,
    (px, py, pz): (usize, usize, usize),
    chaos: u64,
) -> SolveOutcome {
    let cfg = SolverConfig {
        px,
        py,
        pz,
        nrhs: b.len() / f.lu.n(),
        algorithm: alg,
        arch,
        machine: if arch == Arch::Gpu {
            MachineModel::perlmutter_gpu()
        } else {
            MachineModel::cori_haswell()
        },
        chaos_seed: chaos,
        fault: Default::default(),
        backend: Default::default(),
        executor: Default::default(),
    };
    solve_distributed(f, b, &cfg)
}

#[test]
fn all_algorithms_agree_on_every_matrix() {
    for m in gen::table1_suite(gen::Scale::Tiny) {
        let f = Arc::new(factorize(&m.matrix, 4, &SymbolicOptions::default()).expect("factorize"));
        for nrhs in common::NRHS_SWEEP {
            let b = gen::standard_rhs(m.matrix.nrows(), nrhs);
            for alg in [
                Algorithm::New3d,
                Algorithm::New3dFlat,
                Algorithm::New3dNaiveAllreduce,
                Algorithm::Baseline3d,
            ] {
                let out = run(&f, &b, alg, Arch::Cpu, (2, 2, 4), 0);
                let what = format!("{} with {alg:?}", m.name);
                common::assert_solves(&m.matrix, &f, &b, &out.x, nrhs, &what);
                assert!(
                    out.replication_disagreement < 1e-10,
                    "{what}, nrhs {nrhs}: replicas disagree"
                );
            }
            let out = run(&f, &b, Algorithm::New3d, Arch::Gpu, (2, 1, 4), 0);
            let what = format!("{} on GPU path", m.name);
            common::assert_solves(&m.matrix, &f, &b, &out.x, nrhs, &what);
        }
    }
}

#[test]
fn grid_shape_sweep_new3d() {
    let a = gen::poisson2d_9pt(14, 14);
    let (f, b, want) = reference(&a, 8);
    for (px, py, pz) in [
        (1, 1, 1),
        (3, 1, 1),
        (1, 3, 1),
        (2, 2, 2),
        (1, 1, 8),
        (2, 3, 4),
        (4, 2, 2),
        (1, 2, 8),
    ] {
        let out = run(&f, &b, Algorithm::New3d, Arch::Cpu, (px, py, pz), 0);
        let diff = sparse::max_abs_diff(&out.x, &want);
        assert!(diff < 1e-10, "shape {px}x{py}x{pz}: diff {diff}");
    }
}

#[test]
fn grid_shape_sweep_baseline() {
    let a = gen::kkt3d(3, 3, 4);
    let (f, b, want) = reference(&a, 8);
    for (px, py, pz) in [(2, 2, 2), (1, 1, 8), (3, 2, 4), (2, 1, 8)] {
        let out = run(&f, &b, Algorithm::Baseline3d, Arch::Cpu, (px, py, pz), 0);
        let diff = sparse::max_abs_diff(&out.x, &want);
        assert!(diff < 1e-10, "baseline {px}x{py}x{pz}: diff {diff}");
    }
}

#[test]
fn gpu_shapes_match_reference() {
    let a = gen::fusion_band(250, 5, 25, 3);
    let (f, b, want) = reference(&a, 4);
    for (px, py, pz) in [(1, 1, 4), (4, 1, 1), (2, 1, 4), (2, 2, 2), (1, 4, 1)] {
        let out = run(&f, &b, Algorithm::New3d, Arch::Gpu, (px, py, pz), 0);
        let diff = sparse::max_abs_diff(&out.x, &want);
        assert!(diff < 1e-10, "gpu {px}x{py}x{pz}: diff {diff}");
    }
}

// NOTE: the former `chaos_message_ordering_does_not_change_results` test
// moved into `tests/chaos_conformance.rs`, which sweeps all four solvers
// over the full fault-profile × seed matrix with richer failure output.

/// The residual of the distributed solution against the *original* matrix
/// must be tiny for every matrix family (not just solution agreement).
#[test]
fn residuals_are_small() {
    for m in gen::table1_suite(gen::Scale::Tiny) {
        let f = Arc::new(factorize(&m.matrix, 2, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(m.matrix.nrows(), 1);
        let cfg = SolverConfig {
            px: 2,
            py: 2,
            pz: 2,
            nrhs: 1,
            algorithm: Algorithm::New3d,
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let out = solve_distributed(&f, &b, &cfg);
        let res = sparse::rel_residual_inf(&m.matrix, &out.x, &b, 1);
        assert!(res < 1e-10, "{}: residual {res}", m.name);
    }
}

/// Phase timings must be self-consistent: nonnegative, and the total solve
/// time of each rank at least the busy parts.
#[test]
fn phase_times_are_consistent() {
    let a = gen::poisson2d_9pt(12, 12);
    let (f, b, _) = reference(&a, 4);
    let out = run(&f, &b, Algorithm::New3d, Arch::Cpu, (2, 2, 4), 0);
    assert!(out.makespan > 0.0);
    for p in &out.phases {
        assert!(p.l_wall >= 0.0 && p.u_wall >= 0.0 && p.z_wall >= 0.0);
        assert!(p.l_busy <= p.l_wall + 1e-12);
        assert!(p.u_busy <= p.u_wall + 1e-12);
        assert!(p.total + 1e-12 >= p.l_wall + p.z_wall + p.u_wall - 1e-12);
    }
}

/// More right-hand sides must not change the solution of the first one.
#[test]
fn multi_rhs_prefix_consistency() {
    let a = gen::poisson2d_9pt(10, 10);
    let n = a.nrows();
    let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).unwrap());
    let b4 = gen::standard_rhs(n, 4);
    let cfg = |nrhs| SolverConfig {
        px: 2,
        py: 1,
        pz: 2,
        nrhs,
        algorithm: Algorithm::New3d,
        arch: Arch::Cpu,
        machine: MachineModel::cori_haswell(),
        chaos_seed: 0,
        fault: Default::default(),
        backend: Default::default(),
        executor: Default::default(),
    };
    let out4 = solve_distributed(&f, &b4, &cfg(4));
    let out1 = solve_distributed(&f, &b4[..n], &cfg(1));
    assert!(sparse::max_abs_diff(&out4.x[..n], &out1.x) < 1e-12);
}

/// The plan-reusing [`Solver3d`] must give identical results to the
/// plan-per-call entry point, including with a different RHS count than it
/// was planned for.
#[test]
fn planned_solver_matches_unplanned() {
    use sptrsv_repro::prelude::Solver3d;
    let a = gen::poisson2d_9pt(11, 13);
    let (f, b, want) = reference(&a, 4);
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
        backend: Default::default(),
        executor: Default::default(),
    };
    let solver = Solver3d::new(Arc::clone(&f), cfg);
    let out = solver.solve(&b, 2);
    assert!(sparse::max_abs_diff(&out.x, &want) < 1e-12);
    // Re-solve with 1 RHS against the prefix.
    let n = a.nrows();
    let out1 = solver.solve(&b[..n], 1);
    assert!(sparse::max_abs_diff(&out1.x, &want[..n]) < 1e-12);
}
