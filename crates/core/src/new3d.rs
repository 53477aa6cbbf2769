//! The proposed 3D SpTRSV (paper Algorithm 1, CPU path).
//!
//! Each grid treats its leaf-path submatrix as one 2D block-cyclic matrix:
//! one masked 2D L-solve (replicated-node RHS entries zeroed on all but the
//! smallest replicating grid), one sparse allreduce of the partial ancestor
//! solutions, one 2D U-solve. Exactly one inter-grid synchronization, in
//! contrast to the baseline's `O(log Pz)`.
//!
//! The rank program is a thin interpreter over the plan's compiled
//! schedule ([`crate::schedule`]): all tree links, counters, and pack
//! lists were resolved at plan time, so repeated solves touch none of it.

use crate::allreduce::{naive_allreduce, sparse_allreduce};
use crate::driver::PhaseTimes;
use crate::schedule::{RankSchedule, ScheduleKey};
use crate::solve2d::{solve_pass, Ctx, SolveState};
use simgrid::{Category, Transport};

/// Per-rank output of a distributed solve.
pub struct RankOutput {
    /// Phase timing breakdown for this rank.
    pub phases: PhaseTimes,
    /// Diagonally owned solution pieces `(supernode, w × nrhs col-major)`.
    pub x_pieces: Vec<(u32, Vec<f64>)>,
}

/// Rank outputs cross a genuine address-space boundary under the
/// process-per-rank backend; the pieces travel as `f64` bit patterns so
/// the assembled solution stays bit-identical to the in-process backends.
impl simgrid::wire::WirePack for RankOutput {
    fn pack(&self, out: &mut Vec<u8>) {
        self.phases.pack(out);
        self.x_pieces.pack(out);
    }
    fn unpack(r: &mut simgrid::wire::WireReader<'_>) -> Result<Self, simgrid::wire::WireError> {
        Ok(RankOutput {
            phases: PhaseTimes::unpack(r)?,
            x_pieces: Vec::unpack(r)?,
        })
    }
}

/// Snapshot helper: `(now, flop + xy_busy, z_time)`.
fn snap<T: Transport>(comm: &T) -> (f64, f64, f64) {
    let t = comm.time_snapshot();
    (
        comm.now(),
        t[Category::Flop as usize] + t[Category::XyComm as usize],
        t[Category::ZComm as usize],
    )
}

/// Run the proposed 3D SpTRSV as the rank program of `(ctx.x, ctx.y,
/// ctx.grid.z)`. `ctx.comm` must rank the grid's processes as `x + px·y`;
/// `zcomm` ranks the `Pz` grids at fixed `(x, y)` by `z`.
pub fn run_rank<T: Transport>(
    ctx: &Ctx<T>,
    zcomm: &T,
    tree_comm: bool,
    use_naive_allreduce: bool,
) -> RankOutput {
    let (plan, grid_comm, nrhs) = (ctx.plan, ctx.comm, ctx.nrhs);
    let sched = plan.schedule(ScheduleKey {
        baseline: false,
        tree_comm,
    });
    let rs: &RankSchedule = &sched.ranks[plan.rank_of(ctx.x, ctx.y, ctx.grid.z)];
    let mut state = SolveState::new(rs, nrhs);

    let (t0, b0, z0) = snap(grid_comm);
    for step in &rs.l_steps {
        if let Some(pass) = &step.pass {
            solve_pass(ctx, pass, &mut state);
        }
    }
    let (t1, b1, _) = snap(grid_comm);

    // Inter-grid synchronization: the only one in the algorithm.
    if use_naive_allreduce {
        naive_allreduce(plan, zcomm, &rs.naive, nrhs, &mut state.y_vals);
    } else {
        sparse_allreduce(plan, zcomm, &rs.zsteps, nrhs, &mut state.y_vals);
    }
    // Grids re-synchronize here implicitly through the reduce/broadcast
    // pattern; advance to the communicator's view of now.
    let (t2, b2, _z2) = snap(grid_comm);

    for step in &rs.u_steps {
        if let Some(pass) = &step.pass {
            solve_pass(ctx, pass, &mut state);
        }
    }
    let (t3, b3, z3) = snap(grid_comm);

    let x_pieces = state
        .x_vals
        .pieces(|k| plan.owner_xy(k as usize) == (ctx.x, ctx.y));

    RankOutput {
        phases: PhaseTimes {
            l_wall: t1 - t0,
            z_wall: t2 - t1,
            u_wall: t3 - t2,
            l_busy: b1 - b0,
            u_busy: b3 - b2,
            z_time: z3 - z0,
            total: t3 - t0,
        },
        x_pieces,
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{solve_distributed, Algorithm, Arch, SolverConfig};
    use lufactor::factorize;
    use ordering::SymbolicOptions;
    use simgrid::MachineModel;
    use sparse::gen;
    use std::sync::Arc;

    fn check(a: &sparse::CsrMatrix, px: usize, py: usize, pz: usize, nrhs: usize) {
        let f = Arc::new(factorize(a, pz, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(a.nrows(), nrhs);
        let want = f.solve(&b, nrhs);
        let cfg = SolverConfig {
            px,
            py,
            pz,
            nrhs,
            algorithm: Algorithm::New3d,
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let out = solve_distributed(&f, &b, &cfg);
        let diff = sparse::max_abs_diff(&out.x, &want);
        assert!(
            diff < 1e-11,
            "px={px} py={py} pz={pz} nrhs={nrhs}: diff {diff}"
        );
    }

    #[test]
    fn pz1_reduces_to_2d_solver() {
        check(&gen::poisson2d_5pt(9, 9), 2, 2, 1, 1);
    }

    #[test]
    fn single_rank() {
        check(&gen::poisson2d_5pt(7, 7), 1, 1, 1, 1);
    }

    #[test]
    fn pure_z_layout() {
        check(&gen::poisson2d_5pt(10, 10), 1, 1, 4, 1);
    }

    #[test]
    fn full_3d_layout() {
        check(&gen::poisson2d_9pt(12, 12), 2, 3, 4, 1);
    }

    #[test]
    fn multi_rhs() {
        check(&gen::poisson2d_9pt(10, 10), 2, 2, 2, 5);
    }

    #[test]
    fn deep_z() {
        check(&gen::poisson2d_5pt(16, 16), 1, 2, 8, 1);
    }

    #[test]
    fn kkt_matrix_3d() {
        check(&gen::kkt3d(3, 3, 3), 2, 2, 2, 2);
    }

    #[test]
    fn wide_grid() {
        check(&gen::poisson2d_5pt(12, 12), 4, 1, 2, 1);
    }

    #[test]
    fn tall_grid() {
        check(&gen::poisson2d_5pt(12, 12), 1, 4, 2, 1);
    }
}
