//! The baseline CA 3D SpTRSV (Sao/Vuduc/Li, ICS'19) the paper improves on.
//!
//! Level-by-level bottom-up traversal of the elimination (separator) tree:
//! at each level the active grids run a 2D solve of just that tree node's
//! supernodes (with *flat* intra-grid communication — the baseline cannot
//! integrate the communication trees, paper §3.3 Remark), compute the
//! off-diagonal GEMV contributions into the replicated ancestor rows, and
//! pairwise-reduce those partials toward the smallest grid sharing the
//! parent. Grids drop out as the traversal ascends — the idle-grid load
//! imbalance of the paper's Fig. 8 — and `O(log Pz)` inter-grid
//! synchronizations are paid per triangle. The U phase mirrors this
//! top-down with pairwise broadcasts of the solved ancestor pieces.
//!
//! The per-level activation tests, pass specs, pack lists, and partners
//! all come precompiled in the plan's schedule (`l_steps`/`u_steps` with
//! their [`ZExchange`]s); the rank program just walks the step list.

use crate::driver::PhaseTimes;
use crate::new3d::RankOutput;
use crate::plan::Plan;
use crate::schedule::{ScheduleKey, ZExchange};
use crate::solve2d::{solve_pass, Ctx, SolveState};
use simgrid::{Category, SpanDetail, Transport};

/// One pairwise z-exchange of the baseline (precompiled direction and
/// pack list). When `reduce` (L phase), the partial ancestor sums `lsum`
/// go toward the smaller grid of the pair in the presence-bitmap wire
/// format (DESIGN.md §15): which rows a rank accumulated is only known at
/// run time, so rows it never touched ship no bytes. Otherwise (U phase)
/// all solved pieces go to the newly activated grid, dense: the sender
/// just solved every listed ancestor, so a bitmap would only add bytes
/// and `bytes_saved` stays at zero.
fn exchange<T: Transport>(
    plan: &Plan,
    zcomm: &T,
    (xch, reduce): (&ZExchange, bool),
    nrhs: usize,
    state: &mut SolveState,
    buf: &mut Vec<f64>,
) {
    let sym = plan.fact.lu.sym();
    let level = (xch.tag & 0xffff) as u32;
    zcomm.set_span_detail(Some(SpanDetail::ZExchange { level, reduce }));
    let sups = &xch.sups;
    if xch.send {
        if reduce {
            let lsum = &state.lsum;
            crate::allreduce::pack_present_with(sups, buf, |su, buf| {
                let Some(acc) = lsum.present(su) else {
                    return false;
                };
                let start = buf.len();
                buf.resize(start + sym.sup_width(su as usize) * nrhs, 0.0);
                lsum.fold_into(acc, &mut buf[start..]);
                true
            });
        } else {
            buf.clear();
            for &k in sups {
                buf.extend_from_slice(state.x_vals.get(k));
            }
        }
        let dense: u64 = sups.iter().map(|&k| sym.sup_width(k as usize) as u64).sum();
        crate::allreduce::note_sent(zcomm, dense, nrhs, buf.len());
        zcomm.send(xch.peer as usize, xch.tag, buf, Category::ZComm);
    } else {
        let msg = zcomm.recv(Some(xch.peer as usize), Some(xch.tag), Category::ZComm);
        if reduce {
            // Layout validation lives in the unpacker: a malformed bitmap or
            // wrong-length buffer means sender and receiver disagree on the
            // exchange's sup list — corrupt the diagnosis, not the solution.
            let what = "z-exchange lsum";
            crate::allreduce::unpack_present_with(plan, sups, &msg.payload, nrhs, what, |i, v| {
                state.lsum.add_exchange(sups[i], xch.slots[i], v);
            });
        } else {
            let mut off = 0;
            for &k in sups {
                let w = sym.sup_width(k as usize) * nrhs;
                state.x_vals.set(k, &msg.payload[off..off + w]);
                off += w;
            }
            debug_assert_eq!(off, msg.payload.len());
        }
    }
    zcomm.set_span_detail(None);
}

/// Run the baseline 3D SpTRSV as the rank program of `(ctx.x, ctx.y,
/// ctx.grid.z)`.
pub fn run_rank<T: Transport>(ctx: &Ctx<T>, zcomm: &T) -> RankOutput {
    let (plan, grid_comm, nrhs) = (ctx.plan, ctx.comm, ctx.nrhs);
    let sched = plan.schedule(ScheduleKey {
        baseline: true,
        tree_comm: false,
    });
    let rs = &sched.ranks[plan.rank_of(ctx.x, ctx.y, ctx.grid.z)];
    let mut state = SolveState::new(rs, nrhs);
    // One hoisted pack buffer for every inter-grid exchange of this solve.
    let mut zbuf: Vec<f64> = Vec::new();

    let snapshot = |c: &T| {
        let t = c.time_snapshot();
        (
            c.now(),
            t[Category::Flop as usize] + t[Category::XyComm as usize],
            t[Category::ZComm as usize],
        )
    };
    let (t0, b0, z0) = snapshot(grid_comm);

    // ---------------- L phase: leaves to root ----------------
    for step in &rs.l_steps {
        if let Some(pass) = &step.pass {
            solve_pass(ctx, pass, &mut state);
        }
        if let Some(xch) = &step.exchange {
            exchange(plan, zcomm, (xch, true), nrhs, &mut state, &mut zbuf);
        }
    }
    let (t1, b1, _) = snapshot(grid_comm);

    // ---------------- U phase: root to leaves ----------------
    for step in &rs.u_steps {
        if let Some(pass) = &step.pass {
            solve_pass(ctx, pass, &mut state);
        }
        if let Some(xch) = &step.exchange {
            exchange(plan, zcomm, (xch, false), nrhs, &mut state, &mut zbuf);
        }
    }
    let (t2, b2, z2) = snapshot(grid_comm);

    let x_pieces = state
        .x_vals
        .pieces(|k| plan.owner_xy(k as usize) == (ctx.x, ctx.y));

    RankOutput {
        phases: PhaseTimes {
            l_wall: t1 - t0,
            z_wall: 0.0,
            u_wall: t2 - t1,
            l_busy: b1 - b0,
            u_busy: b2 - b1,
            z_time: z2 - z0,
            total: t2 - t0,
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
            algorithm: Algorithm::Baseline3d,
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
            "baseline px={px} py={py} pz={pz} nrhs={nrhs}: diff {diff}"
        );
    }

    #[test]
    fn baseline_pz1_is_flat_2d() {
        check(&gen::poisson2d_5pt(9, 9), 2, 2, 1, 1);
    }

    #[test]
    fn baseline_pure_z() {
        check(&gen::poisson2d_5pt(10, 10), 1, 1, 4, 1);
    }

    #[test]
    fn baseline_full_3d() {
        check(&gen::poisson2d_9pt(12, 12), 2, 3, 4, 1);
    }

    #[test]
    fn baseline_multi_rhs() {
        check(&gen::poisson2d_9pt(10, 10), 2, 2, 2, 3);
    }

    #[test]
    fn baseline_deep_z() {
        check(&gen::poisson2d_5pt(16, 16), 2, 1, 8, 1);
    }

    #[test]
    fn baseline_3d_pde() {
        check(&gen::poisson3d_7pt(4, 4, 4), 2, 2, 4, 1);
    }
}
