//! The five named workloads and their seeded inputs.
//!
//! The matrix of a workload is fixed (its structure is what selects the
//! layer under stress); `--seed` draws the right-hand sides, so every seed
//! runs the same messages and flops on different numbers.

use simgrid::MachineModel;
use sparse::CsrMatrix;
use sptrsv::{Algorithm, Arch, Backend, SolverConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// `nlpkkt80` analog of the Table 1 suite at the Small tier
    /// (n ≈ 1.7 k, nnz(LU) ≈ 393 k): wide supernodes, flop-heavy.
    KktSmall,
    /// The ROADMAP fixture: 9-point Poisson on a 48 × 48 grid (n = 2304).
    Poisson48,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client calling `Solver3d::solve`.
    Solve,
    /// Open loop through `SolverService` at three fixed rates.
    Serve,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub matrix: Matrix,
    pub px: usize,
    pub py: usize,
    pub pz: usize,
    pub nrhs: usize,
    pub backend: Backend,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "flop_z2",
        why: "nlpkkt80 analog on 1x1x2 native at nrhs 8: ranks = cores, 2 messages, kernels and solve2d state do the work",
        matrix: Matrix::KktSmall,
        px: 1,
        py: 1,
        pz: 2,
        nrhs: 8,
        backend: Backend::Native,
        kind: Kind::Solve,
    },
    Workload {
        name: "msg_2x2x4",
        why: "ROADMAP fixture on 2x2x4 native: 726 tiny messages and thread spin-up per solve, latency-bound, kernels negligible",
        matrix: Matrix::Poisson48,
        px: 2,
        py: 2,
        pz: 4,
        nrhs: 1,
        backend: Backend::Native,
        kind: Kind::Solve,
    },
    Workload {
        name: "proc_2x2x4",
        why: "same inputs and layout on the process backend: fork/connect/teardown per solve and wire-framed socket hops dominate",
        matrix: Matrix::Poisson48,
        px: 2,
        py: 2,
        pz: 4,
        nrhs: 1,
        backend: Backend::Proc,
        kind: Kind::Solve,
    },
    Workload {
        name: "sim_2x2x16",
        why: "same matrix on 64 cori-haswell ranks: the paper's virtual makespan and the simulator's host cost per layer, wall of the plan run natively end to end",
        matrix: Matrix::Poisson48,
        px: 2,
        py: 2,
        pz: 16,
        nrhs: 1,
        backend: Backend::Sim,
        kind: Kind::Solve,
    },
    Workload {
        name: "serve_2x2x2",
        why: "open-loop width-1 requests at 500/1500/4000 req/s through SolverService on native 2x2x2: batching and per-batch spin-up",
        matrix: Matrix::Poisson48,
        px: 2,
        py: 2,
        pz: 2,
        nrhs: 1,
        backend: Backend::Native,
        kind: Kind::Serve,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn nranks(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Name of the transport crate carrying this workload's messages.
    pub fn transport(&self) -> &'static str {
        match self.backend {
            Backend::Sim => "simgrid",
            Backend::Native => "comm_native",
            Backend::Proc => "comm_proc",
        }
    }

    pub fn matrix(&self) -> CsrMatrix {
        match self.matrix {
            // The arguments `sparse::gen::table1_suite(Scale::Small)` uses
            // for its `nlpkkt80` row (`--self-test` checks they still agree).
            Matrix::KktSmall => sparse::gen::kkt3d_irregular(16, 11, 7, 0.3, 17),
            Matrix::Poisson48 => sparse::gen::poisson2d_9pt(48, 48),
        }
    }

    /// Number of right-hand-side columns drawn from the seed: the planned
    /// `nrhs` for a solve workload, a pool of request columns for serving.
    pub fn rhs_columns(&self) -> usize {
        match self.kind {
            Kind::Solve => self.nrhs,
            Kind::Serve => SERVE_POOL,
        }
    }

    pub fn config(&self, backend: Backend, algorithm: Algorithm) -> SolverConfig {
        SolverConfig {
            px: self.px,
            py: self.py,
            pz: self.pz,
            nrhs: self.nrhs,
            algorithm,
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend,
            executor: Default::default(),
        }
    }
}

/// Distinct request columns of the serving workload (a multiple of the
/// batch width, so the reference solves are full batches).
pub const SERVE_POOL: usize = 32;

/// splitmix64: the whole input stream of a run comes from `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n × cols` column-major right-hand sides, uniform in `[-1, 1)`, none
/// exactly zero (a zero would take the kernels' skip-on-zero path and
/// change the flop count between seeds).
pub fn rhs(seed: u64, n: usize, cols: usize) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    (0..n * cols)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            let v = 2.0 * u - 1.0;
            if v == 0.0 {
                0.5
            } else {
                v
            }
        })
        .collect()
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn hash_f64(v: &[f64]) -> u64 {
    fnv(v.iter().map(|x| x.to_bits()))
}

pub fn hash_matrix(a: &CsrMatrix) -> u64 {
    fnv(a
        .row_ptr()
        .iter()
        .map(|&p| p as u64)
        .chain(a.col_idx().iter().map(|&c| c as u64))
        .chain(a.values().iter().map(|v| v.to_bits())))
}

/// Hash of everything the program is handed: matrix and right-hand sides.
pub fn input_hash(a: &CsrMatrix, b: &[f64]) -> u64 {
    fnv([hash_matrix(a), hash_f64(b)].into_iter())
}
