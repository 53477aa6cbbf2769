//! Pinned solution bits.
//!
//! The bit-identity suites compare solvers, backends and engines with each
//! other, so a change to code they all share — the partial-sum ledger, the
//! pass interpreter, the kernels — moves every side at once and passes.
//! This test compares against history instead: an FNV-1a hash of the bits
//! of `x` for every CPU algorithm under both executors, on the simulator,
//! for two matrices and two layouts, recorded once and held fixed. A
//! refactor that claims to leave the numerics alone must leave this table
//! alone.

use sptrsv_repro::prelude::*;
use std::sync::Arc;

/// FNV-1a over the little-endian bytes of each `f64` bit pattern.
fn fnv1a(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::New3d,
    Algorithm::New3dFlat,
    Algorithm::New3dNaiveAllreduce,
    Algorithm::Baseline3d,
];
const LAYOUTS: [(usize, usize, usize); 2] = [(1, 1, 2), (2, 2, 4)];

/// `(matrix, layout, algorithm, executor) -> hash`, in the loop order of
/// [`hashes`].
const PINNED: [u64; 32] = [
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3d Tree
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3d Level
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3dFlat Tree
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3dFlat Level
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3dNaiveAllreduce Tree
    0x281b4bc0c2d26098, // kkt3d_irregular 1x1x2 New3dNaiveAllreduce Level
    0x2229ff0a3de66089, // kkt3d_irregular 1x1x2 Baseline3d Tree
    0x2229ff0a3de66089, // kkt3d_irregular 1x1x2 Baseline3d Level
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3d Tree
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3d Level
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3dFlat Tree
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3dFlat Level
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3dNaiveAllreduce Tree
    0x26e09e496220760c, // kkt3d_irregular 2x2x4 New3dNaiveAllreduce Level
    0xdcc35fc543f47e90, // kkt3d_irregular 2x2x4 Baseline3d Tree
    0xdcc35fc543f47e90, // kkt3d_irregular 2x2x4 Baseline3d Level
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3d Tree
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3d Level
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3dFlat Tree
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3dFlat Level
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3dNaiveAllreduce Tree
    0x53853fbf75f882a4, // poisson2d_9pt 1x1x2 New3dNaiveAllreduce Level
    0x14f1dc8fd6b7c092, // poisson2d_9pt 1x1x2 Baseline3d Tree
    0x14f1dc8fd6b7c092, // poisson2d_9pt 1x1x2 Baseline3d Level
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3d Tree
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3d Level
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3dFlat Tree
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3dFlat Level
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3dNaiveAllreduce Tree
    0xde6572882f5029c7, // poisson2d_9pt 2x2x4 New3dNaiveAllreduce Level
    0x932060526b78fe61, // poisson2d_9pt 2x2x4 Baseline3d Tree
    0x932060526b78fe61, // poisson2d_9pt 2x2x4 Baseline3d Level
];

fn hashes() -> Vec<(String, u64)> {
    let inputs = [
        (
            "kkt3d_irregular",
            gen::kkt3d_irregular(16, 11, 7, 0.3, 17),
            8,
        ),
        ("poisson2d_9pt", gen::poisson2d_9pt(48, 48), 1),
    ];
    let mut out = Vec::new();
    for (name, a, nrhs) in &inputs {
        let b = gen::standard_rhs(a.nrows(), *nrhs);
        for (px, py, pz) in LAYOUTS {
            let f = Arc::new(factorize(a, pz, &SymbolicOptions::default()).expect("factorize"));
            for algorithm in ALGORITHMS {
                for executor in [ExecutorKind::Tree, ExecutorKind::Level] {
                    let cfg = SolverConfig {
                        px,
                        py,
                        pz,
                        nrhs: *nrhs,
                        algorithm,
                        arch: Arch::Cpu,
                        machine: MachineModel::cori_haswell(),
                        chaos_seed: 0,
                        fault: Default::default(),
                        backend: Backend::Sim,
                        executor,
                    };
                    let x = solve_distributed(&f, &b, &cfg).x;
                    let label = format!("{name} {px}x{py}x{pz} {algorithm:?} {executor:?}");
                    out.push((label, fnv1a(&x)));
                }
            }
        }
    }
    out
}

#[test]
fn solution_bits_match_the_pinned_hashes() {
    let got = hashes();
    let table: String = got
        .iter()
        .map(|(label, h)| format!("    {h:#018x}, // {label}\n"))
        .collect();
    let drifted: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, h), want)| h != want)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "solution bits drifted for {drifted:?}\ncurrent table:\n{table}"
    );
}
