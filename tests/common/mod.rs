//! Shared support for the integration test suites (not a test crate
//! itself — included via `mod common;` from the harnesses that need it).

#![allow(dead_code)]

use sptrsv_repro::prelude::{CsrMatrix, Factorized};
use sptrsv_repro::sparse;

/// Right-hand-side counts the conformance suites sweep: the single-vector
/// path, a remainder class of the register-blocked kernels, and a full
/// block.
pub const NRHS_SWEEP: [usize; 3] = [1, 3, 8];

/// Check a distributed solution against the mathematics rather than
/// against another solver: the relative residual against the original
/// matrix and the forward error against the sequential reference
/// `Factorized::solve` must both stay below 1e-10.
pub fn assert_solves(a: &CsrMatrix, f: &Factorized, b: &[f64], x: &[f64], nrhs: usize, what: &str) {
    let residual = sparse::rel_residual_inf(a, x, b, nrhs);
    assert!(
        residual < 1e-10,
        "{what}, nrhs {nrhs}: relative residual {residual:e}"
    );
    let want = f.solve(b, nrhs);
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let forward = sparse::max_abs_diff(x, &want) / scale;
    assert!(
        forward < 1e-10,
        "{what}, nrhs {nrhs}: forward error {forward:e}"
    );
}

/// Chaos seeds the conformance harness sweeps. Override with a
/// comma-separated `CHAOS_SEEDS` environment variable (the CI chaos job
/// pins a larger matrix this way).
pub fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse()
                    .unwrap_or_else(|e| panic!("CHAOS_SEEDS entry {t:?}: {e}"))
            })
            .collect(),
        Err(_) => vec![7, 42, 1234],
    }
}

/// Backend under test for suites that honor the CI backend matrix.
/// `SPTRSV_TEST_BACKEND=sim|native|proc` selects it; default is the
/// simulator.
pub fn backend() -> sptrsv_repro::sptrsv::Backend {
    match std::env::var("SPTRSV_TEST_BACKEND") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("SPTRSV_TEST_BACKEND: {e}")),
        Err(_) => Default::default(),
    }
}

/// Execution engine under test for suites that honor the CI executor
/// matrix. `SPTRSV_TEST_EXECUTOR=tree|level` selects it; default is the
/// message-driven tree walk.
pub fn executor() -> sptrsv_repro::sptrsv::ExecutorKind {
    match std::env::var("SPTRSV_TEST_EXECUTOR") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("SPTRSV_TEST_EXECUTOR: {e}")),
        Err(_) => Default::default(),
    }
}
