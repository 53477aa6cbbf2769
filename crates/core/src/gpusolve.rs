//! GPU execution models for the 2D solves (paper Alg. 4 and Alg. 5).
//!
//! No physical GPU exists in this environment (DESIGN.md §2); the paper's
//! GPU kernels are modelled in virtual time:
//!
//! * **Single-GPU solve** (Alg. 4, used when `Px = Py = 1`): one thread
//!   block per supernode column, sync-free spin-waiting on `fmod`. Modelled
//!   as a bounded-lane list schedule ([`simgrid::GpuExecutor`]): task `K`
//!   becomes ready when its dependencies finish, runs for the
//!   HBM-bandwidth-bound panel time, and pays a per-block overhead. The
//!   numerics are executed for real.
//! * **Multi-GPU solve** (Alg. 5): the same message-driven structure as the
//!   CPU Alg. 3 — literally the same [`crate::schedule::run_pass`] traversal over the same
//!   compiled [`PassSched`], with GPU cost hooks — but communication uses
//!   GPU-initiated one-sided puts with NVLink intra-node vs Slingshot
//!   inter-node cost (the §4.2.2 bandwidth cliff), and computation runs on
//!   the bounded-lane executor at arbitrary virtual event times rather
//!   than on the rank's serial clock.
//!
//! Both paths interpret the plan's precompiled schedule: the single-GPU
//! solve walks the L pass's column schedules (whose block lists double as
//! the U dependencies, since `block_range(K, J)` is symmetric in use),
//! and the multi-GPU engine inherits tree links, `fmod0`, and expected
//! counts straight from the IR.
//!
//! The 3D driver pairs either kernel with the MPI-based sparse allreduce,
//! exactly as the paper does (Alg. 1 lines 13–19).

use crate::allreduce;
use crate::arena::{Ledger, SolveArena, SupVals};
use crate::driver::{ExecutorKind, PhaseTimes};
use crate::kernels;
use crate::kernels::Targets;
use crate::new3d::RankOutput;
use crate::plan::Plan;
use crate::schedule::{
    run_pass_with, BlockSched, ColSched, PassEngine, PassSched, PassScratch, RecvEvent, RowSched,
    ScheduleKey, SlotLayout, SCATTERED,
};
use crate::solve2d::{
    apply_blocks, decode, diag_solve, pass_kinds, tag, Ctx, Payloads, EPOCH_MASK,
};
use simgrid::{Category, EventKind, GpuExecutor, GpuModel, SpanDetail, Transport};
use std::collections::HashMap;
use std::sync::Arc;

/// The GPU passes' message kinds sit after the CPU engine's; L pass =
/// epoch 0, U pass = epoch 1 (see solve2d).
const KIND_BASE: u64 = 20;

/// Run the proposed 3D SpTRSV with GPU 2D solves as the rank program of
/// `(x, y, z)` (`ctx.comm` is the grid communicator, `zcomm` the z one).
/// Single-GPU kernels when `Px · Py = 1`, NVSHMEM-style multi-GPU kernels
/// otherwise.
///
/// `ctx.executor` selects how the multi-GPU passes interpret their
/// schedule (message-driven tree walk vs precompiled level sweep); the
/// single-GPU column sweep is already a static program, so the choice is
/// a no-op there.
pub fn run_rank<T: Transport>(ctx: &Ctx<T>, zcomm: &T, use_naive_allreduce: bool) -> RankOutput {
    let (plan, comm, nrhs) = (ctx.plan, ctx.comm, ctx.nrhs);
    let model = comm.model();
    let gpu = model.gpu.as_ref();
    let gpu = gpu.expect("GPU solve requires a machine model with GPU parameters");
    let single = plan.px * plan.py == 1;
    let sched = plan.schedule(ScheduleKey {
        baseline: false,
        tree_comm: true,
    });
    let rs = &sched.ranks[plan.rank_of(ctx.x, ctx.y, ctx.grid.z)];
    let l_pass = rs.l_steps[0].pass.as_ref().expect("compiled L pass");
    let u_pass = rs.u_steps[0].pass.as_ref().expect("compiled U pass");

    let t0 = comm.now();
    let mut y_vals = SupVals::new(&rs.vals, nrhs);
    let mut x_vals = SupVals::new(&rs.vals, nrhs);
    let mut arena = SolveArena::new();
    let pool = if single {
        whole_row_pool(ctx, l_pass)
    } else {
        Vec::new()
    };
    if single {
        single_gpu_l(ctx, gpu, (l_pass, &pool), &mut y_vals, &mut arena);
    } else {
        multi_gpu_pass(ctx, gpu, (l_pass, &rs.l_slots), None, &mut y_vals);
    }
    let t1 = comm.now();

    // Inter-grid sparse allreduce runs over MPI on the host (paper: the
    // SparseAllReduce of Alg. 1 line 20 is implemented with MPI).
    if use_naive_allreduce {
        allreduce::naive_allreduce(plan, zcomm, &rs.naive, nrhs, &mut y_vals);
    } else {
        allreduce::sparse_allreduce(plan, zcomm, &rs.zsteps, nrhs, &mut y_vals);
    }
    let t2 = comm.now();

    if single {
        single_gpu_u(ctx, gpu, (l_pass, &pool), &y_vals, &mut x_vals, &mut arena);
    } else {
        multi_gpu_pass(ctx, gpu, (u_pass, &rs.u_slots), Some(&y_vals), &mut x_vals);
    }
    let t3 = comm.now();

    let snap = comm.time_snapshot();
    let x_pieces = x_vals.pieces(|k| plan.owner_xy(k as usize) == (ctx.x, ctx.y));

    RankOutput {
        phases: PhaseTimes {
            l_wall: t1 - t0,
            z_wall: t2 - t1,
            u_wall: t3 - t2,
            l_busy: t1 - t0,
            u_busy: t3 - t2,
            z_time: snap[Category::ZComm as usize],
            total: t3 - t0,
        },
        x_pieces,
    }
}

/// Settle the rank clock to a single-GPU kernel's `end` and record its
/// covering span: the whole pass runs on-device between two host clock
/// reads, so `[start, end]` keeps the per-rank spans tiling the clock
/// (the invariant the critical-path walk relies on).
fn single_gpu_span<T: Transport>(comm: &T, start: f64, end: f64, epoch: u64, tasks: usize) {
    comm.account(end - comm.now(), Category::Flop);
    comm.advance_to(end);
    let detail = SpanDetail::GpuPass {
        epoch,
        tasks: tasks as u64,
    };
    comm.trace_span(start, end, EventKind::Compute, Category::Flop, Some(detail));
    comm.metric_inc("pass.spans", 1);
}

/// The L pass's scatter pool with each block's indices counted from the
/// start of its row supernode `I` instead of its first row: the
/// addressing a whole `lsum(I)` or `x(I)` takes on one device.
fn whole_row_pool<T: Transport>(ctx: &Ctx<T>, pass: &PassSched) -> Vec<u32> {
    let mut pool = pass.scatter.clone();
    for c in &pass.cols {
        for b in c.blocks.iter().filter(|b| b.dense_start == SCATTERED) {
            let base = b.cover(ctx.plan, c.sup, true)[0];
            let off = b.scatter_off as usize;
            for t in &mut pool[off..off + (b.hi - b.lo) as usize] {
                *t += base;
            }
        }
    }
    pool
}

/// Block `b` of column `col`'s addressing of its whole row (`pool` from
/// [`whole_row_pool`]).
fn whole_row<'a>(plan: &Plan, col: u32, b: &BlockSched, pool: &'a [u32]) -> Targets<'a> {
    match b.targets(pool) {
        Targets::Dense(d) => Targets::Dense(d + b.cover(plan, col, true)[0] as usize),
        scatter => scatter,
    }
}

/// Single-GPU 2D L-solve (Alg. 4): the whole `L^z` on one device,
/// interpreting the compiled column schedules in ascending order.
fn single_gpu_l<T: Transport>(
    ctx: &Ctx<T>,
    gpu: &GpuModel,
    (pass, pool): (&PassSched, &[u32]),
    y_vals: &mut SupVals,
    arena: &mut SolveArena,
) {
    let (plan, nrhs) = (ctx.plan, ctx.nrhs);
    let sym = plan.fact.lu.sym();
    let start = ctx.comm.now();
    let t0 = start + gpu.kernel_launch;
    let mut ex = GpuExecutor::new(gpu, t0);
    // Setup: prefill the readiness map and size the arena so the audited
    // column sweep below never allocates. On one device every row of the
    // pass is a column too, so `lsum` shares the `y` index.
    let mut lsum = SupVals::new(y_vals.index(), nrhs);
    let blocks = pass.cols.iter().flat_map(|c| &c.blocks);
    let mut row_ready: HashMap<u32, f64> = blocks.map(|b| (b.sup, t0)).collect();
    let maxw = pass.cols.iter().map(|c| sym.sup_width(c.sup as usize));
    arena.ensure(2 * nrhs * maxw.max().unwrap_or(1));

    let audit = crate::audit::pass_scope();
    for col in &pass.cols {
        let k = col.sup;
        let ku = k as usize;
        let w = sym.sup_width(ku);
        // Ready when every in-grid dependency task has finished.
        let ready = row_ready.get(&k).copied().unwrap_or(t0);
        // Numerics: diagonal solve + off-diagonal GEMVs of column K,
        // written straight into the y slot.
        let active = plan.rhs_active(ctx.grid.z, ku);
        let len = w * nrhs;
        let (b_k, rhs) = arena.slices2(len, len);
        kernels::masked_rhs_into(&plan.fact, ku, ctx.pb, nrhs, active, b_k);
        // A row no block reached folds `b − 0`, which is `b` bit for bit.
        let y_slot = y_vals.slot(k);
        kernels::diag_solve_l_into(&plan.fact, ku, b_k, Some(lsum.get(k)), nrhs, rhs, y_slot);
        let y_k = y_vals.get(k);
        let panel = &plan.fact.lu.panel(ku).l_below;
        let r = sym.rows_below(ku).len();
        for b in &col.blocks {
            let (lo, hi, tg) = (b.lo as usize, b.hi as usize, whole_row(plan, k, b, pool));
            let wb = sym.sup_width(b.sup as usize);
            kernels::apply_l(panel, r, lo, hi, tg, y_k, w, lsum.slot(b.sup), wb, nrhs);
        }
        let dur =
            gpu.panel_op_time(w, w, nrhs) + gpu.panel_op_time(col.total_rows as usize, w, nrhs);
        let finish = ex.schedule(ready, dur);
        for b in &col.blocks {
            let e = row_ready.get_mut(&b.sup).expect("row_ready prefilled");
            *e = e.max(finish);
        }
    }
    drop(audit);
    single_gpu_span(ctx.comm, start, ex.last_finish(), 0, pass.cols.len());
}

/// Single-GPU 2D U-solve (Alg. 4 mirror), pull-model tasks. Reuses the L
/// pass's column schedules: the blocks of column `K` are exactly the
/// dependency columns `J` of the U task for `K` (`block_range(K, J)` is
/// the same symbolic range both triangles address).
fn single_gpu_u<T: Transport>(
    ctx: &Ctx<T>,
    gpu: &GpuModel,
    (pass, pool): (&PassSched, &[u32]),
    y_vals: &SupVals,
    x_vals: &mut SupVals,
    arena: &mut SolveArena,
) {
    let (plan, nrhs) = (ctx.plan, ctx.nrhs);
    let sym = plan.fact.lu.sym();
    let start = ctx.comm.now();
    let t0 = start + gpu.kernel_launch;
    let mut ex = GpuExecutor::new(gpu, t0);
    // Setup: prefill the finish map so the audited sweep never allocates.
    let mut finish: HashMap<u32, f64> = pass.cols.iter().map(|c| (c.sup, t0)).collect();
    let maxw = pass.cols.iter().map(|c| sym.sup_width(c.sup as usize));
    arena.ensure(2 * nrhs * maxw.max().unwrap_or(1));

    let audit = crate::audit::pass_scope();
    for col in pass.cols.iter().rev() {
        let k = col.sup;
        let ku = k as usize;
        let w = sym.sup_width(ku);
        let mut ready = t0;
        let mut dur = gpu.panel_op_time(w, w, nrhs);
        let len = w * nrhs;
        let (usum, rhs) = arena.slices2(len, len);
        // The L pass's block list doubles as the U task's dependency
        // columns; the shared scatter pool indexes x(J) the same way it
        // indexed lsum(J) (both are offsets within supernode J).
        let panel = &plan.fact.lu.panel(ku).u_right;
        for b in &col.blocks {
            let (lo, hi, tg) = (b.lo as usize, b.hi as usize, whole_row(plan, k, b, pool));
            let (x_j, wj) = (x_vals.get(b.sup), sym.sup_width(b.sup as usize));
            kernels::apply_u(panel, w, lo, hi, tg, x_j, wj, usum, nrhs);
            dur += gpu.panel_op_time(w, hi - lo, nrhs);
            ready = ready.max(finish[&b.sup]);
        }
        let y_k = y_vals.get(k);
        kernels::diag_solve_u_into(&plan.fact, ku, y_k, Some(&*usum), nrhs, rhs, x_vals.slot(k));
        *finish.get_mut(&k).expect("finish slot prefilled") = ex.schedule(ready, dur);
    }
    drop(audit);
    single_gpu_span(ctx.comm, start, ex.last_finish(), 1, pass.cols.len());
}

/// Run one compiled pass with the NVSHMEM-style multi-GPU engine
/// (Alg. 5) and settle the rank clock to the pass's last event.
fn multi_gpu_pass<'s, T: Transport>(
    ctx: &Ctx<T>,
    gpu: &GpuModel,
    (pass, slots): (&PassSched, &SlotLayout),
    vals_in: Option<&SupVals<'s>>,
    vals_out: &mut SupVals<'s>,
) {
    let comm = ctx.comm;
    let start = comm.now();
    let t0 = start + gpu.kernel_launch;
    // Setup mirrors the CPU engine's: prebuild every payload buffer,
    // readiness entry, and FIFO route the steady-state loop will touch,
    // so the audited interpreter region never allocates.
    let mut sums = Ledger::new(slots, ctx.nrhs);
    sums.begin_pass();
    let payloads = Payloads::new(comm, ctx.plan, pass, ctx.nrhs);
    let mut arena = SolveArena::new();
    arena.ensure(3 * payloads.maxlen);
    let blocks = pass.cols.iter().flat_map(|c| &c.blocks).map(|b| b.sup);
    let row_sups = pass.rows.iter().map(|r| r.sup).chain(blocks);
    let row_ready: HashMap<u32, f64> = row_sups.map(|k| (k, t0)).collect();
    comm.metric_inc("pass.fmod_stalls", 0);
    let mut engine = GpuEngine {
        ctx,
        gpu,
        lower: pass.lower,
        epoch: pass.epoch,
        me_world: comm.world_rank(comm.rank()),
        t0,
        ex: GpuExecutor::new(gpu, t0),
        pass,
        sums,
        row_ready,
        last_event: t0,
        avail: t0,
        vals_in,
        vals_out,
        arena,
        payloads,
    };
    // Pass-local scratch: GPU passes run at most twice per solve, so there
    // is no steady-state reuse to preserve here.
    let mut scratch = PassScratch::new();
    match ctx.executor {
        ExecutorKind::Tree => run_pass_with(&mut engine, pass, &mut scratch),
        ExecutorKind::Level => crate::levelexec::run_level_pass(&mut engine, pass, &mut scratch),
    }
    let end = engine.last_event.max(engine.ex.last_finish());
    let busy = engine.ex.busy_time();
    comm.account(busy, Category::Flop);
    comm.account((end - comm.now() - busy).max(0.0), Category::XyComm);
    comm.advance_to(end);
    // Two covering spans mirroring the account() split: a compute part for
    // the executor's busy time, then a drain part for the wait on remote
    // puts. Together they tile [start, end] on this rank's clock.
    let mid = (start + busy).min(end);
    let detail = SpanDetail::GpuPass {
        epoch: pass.epoch,
        tasks: pass.cols.len() as u64,
    };
    comm.trace_span(start, mid, EventKind::Compute, Category::Flop, Some(detail));
    if end > mid {
        comm.trace_span(mid, end, EventKind::Recv, Category::XyComm, Some(detail));
    }
    comm.metric_inc("pass.spans", 1);
}

/// GPU cost hooks for [`crate::schedule::run_pass`]: fused column tasks on
/// the bounded-lane executor, one-sided puts departing at the producing
/// task's finish time, per-row readiness tracked as virtual timestamps.
struct GpuEngine<'a, 'b, 's, T: Transport> {
    ctx: &'a Ctx<'a, T>,
    gpu: &'a GpuModel,
    lower: bool,
    epoch: u64,
    me_world: usize,
    t0: f64,
    ex: GpuExecutor,
    pass: &'a PassSched,
    /// Partial sums (`lsum` in L, `usum` in U), pass-local, one slot per
    /// contribution for order-independent folding.
    sums: Ledger<'a>,
    /// Earliest virtual time each row's dependencies are satisfied.
    row_ready: HashMap<u32, f64>,
    last_event: f64,
    /// Availability time of the vector most recently produced/received.
    avail: f64,
    /// `y` values from the allreduce (U pass only).
    vals_in: Option<&'b SupVals<'s>>,
    /// Solved vectors: `y_vals` (L) or `x_vals` (U).
    vals_out: &'b mut SupVals<'s>,
    /// Scratch for diagonal-solve temporaries, sized at pass setup.
    arena: SolveArena,
    payloads: Payloads,
}

impl<T: Transport> GpuEngine<'_, '_, '_, T> {
    fn put(&self, depart: f64, dst: usize, t: u64, payload: &Arc<[f64]>) {
        let bytes = simgrid::envelope_bytes(payload.len());
        let dst_world = self.ctx.comm.world_rank(dst);
        let (lat, wire) = self.gpu.put_cost(self.me_world, dst_world, bytes);
        let cost = lat + wire;
        let comm = self.ctx.comm;
        comm.send_timed_shared(depart, cost, dst, t, payload, Category::XyComm);
    }
}

impl<T: Transport> PassEngine for GpuEngine<'_, '_, '_, T> {
    fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
        let (ctx, nrhs) = (self.ctx, self.ctx.nrhs);
        let w = ctx.plan.fact.lu.sym().sup_width(row.sup as usize);
        let ready = self.row_ready.get(&row.sup).copied().unwrap_or(self.t0);
        // Prebuilt and still uniquely owned: the kernel writes straight
        // into the buffer the puts below will share by refcount.
        let mut out = self.payloads.take(self.pass, row);
        let buf = Arc::get_mut(&mut out).expect("diagonal buffer still unique");
        let y_k = (!self.lower).then(|| self.vals_in.expect("U pass has y values").get(row.sup));
        let rhs = (ctx.pb, ctx.grid.z);
        diag_solve(
            ctx.plan,
            rhs,
            y_k,
            row,
            &self.sums,
            &mut self.arena,
            nrhs,
            buf,
        );
        let f = self.ex.schedule(ready, self.gpu.panel_op_time(w, w, nrhs));
        self.avail = f;
        self.last_event = self.last_event.max(f);
        out
    }

    fn store_solved(&mut self, sup: u32, v: &[f64]) {
        self.vals_out.set(sup, v);
    }

    fn solved(&self, _sup: u32) -> Arc<[f64]> {
        unreachable!("GPU passes have no external root columns")
    }

    fn forward(&mut self, col: &ColSched, v: &Arc<[f64]>) {
        let t = tag(self.epoch, pass_kinds(KIND_BASE, self.lower).0, col.sup);
        for &child in &col.children {
            self.put(self.avail, child as usize, t, v);
        }
    }

    fn send_partial(&mut self, row: &RowSched, parent: u32) {
        let ready = self.row_ready.get(&row.sup).copied().unwrap_or(self.t0);
        let mut payload = self.payloads.take(self.pass, row);
        let buf = Arc::get_mut(&mut payload).expect("partial buffer still unique");
        self.sums.fold_into(row.acc, buf);
        let t = tag(self.epoch, pass_kinds(KIND_BASE, self.lower).1, row.sup);
        self.put(ready, parent as usize, t, &payload);
        self.last_event = self.last_event.max(ready);
    }

    fn apply_column(&mut self, col: &ColSched, v: &[f64], scatter: &[u32]) {
        if col.blocks.is_empty() {
            return;
        }
        let (plan, nrhs) = (self.ctx.plan, self.ctx.nrhs);
        let (rows, wcol) = (
            col.total_rows as usize,
            plan.fact.lu.sym().sup_width(col.sup as usize),
        );
        // Fused task: all my blocks of this column in one kernel.
        let dur = if self.lower {
            self.gpu.panel_op_time(rows, wcol, nrhs)
        } else {
            self.gpu.panel_op_time(col.maxw as usize, rows, nrhs)
        };
        let f = self.ex.schedule(self.avail, dur);
        let row_ready = &mut self.row_ready;
        apply_blocks(
            plan,
            self.lower,
            col,
            v,
            scatter,
            &mut self.sums,
            nrhs,
            |b, _| {
                let e = row_ready.get_mut(&b.sup).expect("row_ready prefilled");
                *e = e.max(f);
            },
        );
    }

    fn add_partial(&mut self, row: &RowSched, src: u32, payload: &[f64]) {
        self.sums.add_partial(row, src, payload);
        let e = self.row_ready.entry(row.sup).or_insert(self.t0);
        *e = e.max(self.avail);
    }

    fn on_duplicate_dropped(&mut self, _ev: &RecvEvent) {
        // GPU passes have no per-message receive span to flag; the drop
        // still counts in the metrics registry.
        self.ctx.comm.mark_last_dropped_duplicate();
    }

    fn on_fmod_stall(&mut self, _row: &RowSched, _outstanding: u32) {
        self.ctx.comm.metric_inc("pass.fmod_stalls", 1);
    }

    fn recv(&mut self, _epoch: u64) -> RecvEvent {
        let comm = self.ctx.comm;
        let msg = comm.recv_raw_tag_masked(EPOCH_MASK, self.epoch << 48);
        // recv_raw bypasses the clock-charging path, so count the delivery
        // here to keep msgs.received comparable across CPU and GPU solvers.
        comm.metric_inc("msgs.received", 1);
        let (vector, sup) = decode(msg.tag, pass_kinds(KIND_BASE, self.lower));
        self.avail = msg.arrival;
        self.last_event = self.last_event.max(msg.arrival);
        RecvEvent {
            vector,
            sup,
            src: msg.src as u32,
            payload: msg.payload,
        }
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

    fn check_gpu(a: &sparse::CsrMatrix, px: usize, py: usize, pz: usize, nrhs: usize) {
        let f = Arc::new(factorize(a, pz, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(a.nrows(), nrhs);
        let want = f.solve(&b, nrhs);
        let cfg = SolverConfig {
            px,
            py,
            pz,
            nrhs,
            algorithm: Algorithm::New3d,
            arch: Arch::Gpu,
            machine: MachineModel::perlmutter_gpu(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let out = solve_distributed(&f, &b, &cfg);
        let diff = sparse::max_abs_diff(&out.x, &want);
        assert!(
            diff < 1e-11,
            "gpu px={px} py={py} pz={pz} nrhs={nrhs}: diff {diff}"
        );
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn single_gpu_whole_matrix() {
        check_gpu(&gen::poisson2d_5pt(8, 8), 1, 1, 1, 1);
    }

    #[test]
    fn single_gpu_per_grid() {
        check_gpu(&gen::poisson2d_5pt(10, 10), 1, 1, 4, 1);
    }

    #[test]
    fn single_gpu_multi_rhs() {
        check_gpu(&gen::poisson2d_9pt(9, 9), 1, 1, 2, 5);
    }

    #[test]
    fn multi_gpu_px() {
        check_gpu(&gen::poisson2d_5pt(10, 10), 4, 1, 1, 1);
    }

    #[test]
    fn multi_gpu_px_pz() {
        check_gpu(&gen::poisson2d_9pt(12, 12), 2, 1, 4, 1);
    }

    #[test]
    fn multi_gpu_full_grid() {
        check_gpu(&gen::poisson2d_5pt(12, 12), 2, 2, 2, 2);
    }

    #[test]
    fn crusher_profile_single_gpu() {
        let a = gen::poisson2d_5pt(9, 9);
        let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(a.nrows(), 1);
        let want = f.solve(&b, 1);
        let cfg = SolverConfig {
            px: 1,
            py: 1,
            pz: 2,
            nrhs: 1,
            algorithm: Algorithm::New3d,
            arch: Arch::Gpu,
            machine: MachineModel::crusher_gpu(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let out = solve_distributed(&f, &b, &cfg);
        assert!(sparse::max_abs_diff(&out.x, &want) < 1e-11);
    }
}
