//! Executor conformance: the choice of intra-grid execution engine must
//! never change the answer.
//!
//! The tree executor walks each pass reactively (fire whatever a message
//! unblocks); the level executor sweeps a precompiled level-set program
//! and blocks at per-row barriers. Both interpret the same Schedule IR,
//! and both fold contributions through the same stable-key ledger, so for
//! every matrix family, algorithm, backend, and fault profile the two
//! engines must produce **bit-identical** solutions.
//!
//! The matrix families deliberately span DAG shapes: Poisson (regular
//! mesh), banded (deep chain of narrow levels — barrier-heavy),
//! R-MAT (power-law hubs — imbalanced separators), and blocked-random
//! (bushy, wide levels). `SPTRSV_TEST_BACKEND` picks the backend for the
//! clean sweeps; chaos runs always use the simulator (faults are inert on
//! the native transport by design).

mod common;

use simgrid::{FaultPlan, MachineModel, PROFILE_NAMES};
use sptrsv_repro::prelude::*;
use std::sync::Arc;

const NRHS: usize = 2;

/// The irregular-family fixtures the engines must agree on. Sizes are
/// chosen so every family factors in milliseconds yet still has a
/// non-trivial elimination DAG at `pz = 4`.
fn families() -> Vec<(&'static str, sparse::CsrMatrix)> {
    vec![
        ("poisson2d_9pt", gen::poisson2d_9pt(12, 12)),
        ("banded", gen::banded(160, 4, 7)),
        ("rmat", gen::rmat(7, 6, 11)),
        ("blocked_random", gen::blocked_random(24, 6, 0.25, 13)),
    ]
}

fn config(
    alg: Algorithm,
    arch: Arch,
    (px, py, pz): (usize, usize, usize),
    executor: ExecutorKind,
    backend: Backend,
    fault: FaultPlan,
) -> SolverConfig {
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
        fault,
        backend,
        executor,
    }
}

/// Solve every family with both engines, for every RHS count of the
/// sweep, and require `x` to solve the system and to be bit-identical
/// across engines.
fn assert_engines_agree(alg: Algorithm, arch: Arch, grid: (usize, usize, usize)) {
    for (name, a) in families() {
        let f = Arc::new(factorize(&a, grid.2, &SymbolicOptions::default()).expect("factorize"));
        for nrhs in common::NRHS_SWEEP {
            assert_engines_agree_at(alg, arch, grid, (name, &a, &f), nrhs);
        }
    }
}

fn assert_engines_agree_at(
    alg: Algorithm,
    arch: Arch,
    grid: (usize, usize, usize),
    (name, a, f): (&str, &CsrMatrix, &Arc<Factorized>),
    nrhs: usize,
) {
    let b = gen::standard_rhs(a.nrows(), nrhs);
    let run = |executor| {
        let cfg = SolverConfig {
            nrhs,
            ..config(
                alg,
                arch,
                grid,
                executor,
                common::backend(),
                FaultPlan::default(),
            )
        };
        solve_distributed(f, &b, &cfg)
    };
    let tree = run(ExecutorKind::Tree);
    let level = run(ExecutorKind::Level);

    let what = format!("{alg:?}/{arch:?}/{grid:?}/{name} tree engine");
    common::assert_solves(a, f, &b, &tree.x, nrhs, &what);
    assert_eq!(tree.x.len(), level.x.len());
    for (i, (t, l)) in tree.x.iter().zip(&level.x).enumerate() {
        assert_eq!(
            t.to_bits(),
            l.to_bits(),
            "{alg:?}/{arch:?}/{grid:?}/{name}, nrhs {nrhs}: x[{i}] differs across engines: \
             tree {t:e}, level {l:e}"
        );
    }

    // Both engines interpret the same compiled sends; only firing order
    // differs, so traffic totals must match exactly.
    let sent = |o: &SolveOutcome| {
        o.stats
            .iter()
            .map(|s| s.msgs_sent.iter().sum::<u64>())
            .sum::<u64>()
    };
    assert_eq!(
        sent(&tree),
        sent(&level),
        "{alg:?}/{arch:?}/{grid:?}/{name}: message counts diverge across engines"
    );
}

#[test]
fn new3d_engines_agree_on_every_family() {
    assert_engines_agree(Algorithm::New3d, Arch::Cpu, (2, 2, 4));
}

#[test]
fn new3d_flat_engines_agree_on_every_family() {
    assert_engines_agree(Algorithm::New3dFlat, Arch::Cpu, (2, 2, 4));
}

#[test]
fn new3d_naive_allreduce_engines_agree_on_every_family() {
    assert_engines_agree(Algorithm::New3dNaiveAllreduce, Arch::Cpu, (2, 1, 4));
}

#[test]
fn baseline3d_engines_agree_on_every_family() {
    assert_engines_agree(Algorithm::Baseline3d, Arch::Cpu, (2, 2, 4));
}

#[test]
fn gpu_engines_agree_on_every_family() {
    assert_engines_agree(Algorithm::New3d, Arch::Gpu, (2, 1, 4));
}

/// The level engine must also be chaos-proof: per-level barriers change
/// *where* a rank blocks, never *what* it computes, so under every fault
/// profile the level engine's bits must match its own clean run — and the
/// tree engine's clean run. Chaos is a simulator-only feature, so this
/// sweep pins `Backend::Sim` regardless of the CI backend axis.
#[test]
fn level_engine_survives_every_fault_profile() {
    let (alg, arch, grid) = (Algorithm::New3d, Arch::Cpu, (2, 2, 4));
    for (name, a) in families() {
        let f = Arc::new(factorize(&a, grid.2, &SymbolicOptions::default()).expect("factorize"));
        let b = gen::standard_rhs(a.nrows(), NRHS);

        let clean = |executor| {
            let cfg = config(
                alg,
                arch,
                grid,
                executor,
                Backend::Sim,
                FaultPlan::default(),
            );
            solve_distributed(&f, &b, &cfg)
        };
        let tree = clean(ExecutorKind::Tree);
        let level = clean(ExecutorKind::Level);
        assert!(
            tree.x == level.x,
            "{name}: clean engines disagree before the chaos sweep"
        );

        let nranks = grid.0 * grid.1 * grid.2;
        for &profile in PROFILE_NAMES {
            for &seed in &common::seeds() {
                let fault = FaultPlan::from_profile(profile, seed, nranks)
                    .unwrap_or_else(|| panic!("profile {profile} must resolve"));
                let cfg = config(
                    alg,
                    arch,
                    grid,
                    ExecutorKind::Level,
                    Backend::Sim,
                    fault.clone(),
                );
                let out = solve_distributed(&f, &b, &cfg);
                assert!(
                    out.x == level.x,
                    "level engine produced different bits under chaos\n  \
                     family: {name}, profile: {profile}, seed: {seed}\n  \
                     fault plan: {fault:?}\n  max |diff| vs clean run: {:e}",
                    sparse::max_abs_diff(&out.x, &level.x)
                );
            }
        }
    }
}
