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
//!   CPU Alg. 3 — literally the same [`run_pass`] traversal over the same
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
use crate::arena::SolveArena;
use crate::driver::{ExecutorKind, PhaseTimes};
use crate::kernels;
use crate::new3d::RankOutput;
use crate::plan::Plan;
use crate::schedule::{
    run_pass, ColSched, PassEngine, PassSched, PassScratch, RecvEvent, RowSched, ScheduleKey,
};
use crate::solve2d::Ledger;
use simgrid::{Category, EventKind, GpuExecutor, GpuModel, SpanDetail, Transport};
use std::collections::HashMap;
use std::sync::Arc;

const KIND_Y: u64 = 21 << 40;
const KIND_LSUM: u64 = 22 << 40;
const KIND_X: u64 = 23 << 40;
const KIND_USUM: u64 = 24 << 40;
const KIND_MASK: u64 = 0xff << 40;
const SUP_MASK: u64 = (1 << 40) - 1;
/// L pass = epoch 0, U pass = epoch 1 (see solve2d: ranks of a grid are
/// not synchronized between passes, so receives match on the epoch bits).
const EPOCH_MASK: u64 = !((1 << 48) - 1);

#[inline]
fn tag(epoch: u64, kind: u64, sup: u32) -> u64 {
    (epoch << 48) | kind | sup as u64
}

/// Run the proposed 3D SpTRSV with GPU 2D solves as the rank program of
/// `(x, y, z)`. Single-GPU kernels when `Px · Py = 1`, NVSHMEM-style
/// multi-GPU kernels otherwise.
///
/// `executor` selects how the multi-GPU passes interpret their schedule
/// (message-driven tree walk vs precompiled level sweep); the single-GPU
/// column sweep is already a static program, so the choice is a no-op
/// there.
#[allow(clippy::too_many_arguments)]
pub fn run_rank<T: Transport>(
    plan: &Plan,
    grid_comm: &T,
    zcomm: &T,
    x: usize,
    y: usize,
    z: usize,
    pb: &[f64],
    nrhs: usize,
    use_naive_allreduce: bool,
    executor: ExecutorKind,
) -> RankOutput {
    let gpu = grid_comm
        .model()
        .gpu
        .clone()
        .expect("GPU solve requires a machine model with GPU parameters");
    let single = plan.px * plan.py == 1;
    let sched = plan.schedule(ScheduleKey {
        baseline: false,
        tree_comm: true,
    });
    let rs = &sched.ranks[plan.rank_of(x, y, z)];
    let l_pass = rs.l_steps[0].pass.as_ref().expect("compiled L pass");
    let u_pass = rs.u_steps[0].pass.as_ref().expect("compiled U pass");

    let t0 = grid_comm.now();
    let mut y_vals: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut x_vals: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut arena = SolveArena::new();

    if single {
        single_gpu_l(
            plan,
            grid_comm,
            &gpu,
            l_pass,
            z,
            pb,
            nrhs,
            &mut y_vals,
            &mut arena,
        );
    } else {
        multi_gpu_pass(
            plan,
            grid_comm,
            &gpu,
            l_pass,
            z,
            pb,
            nrhs,
            None,
            &mut y_vals,
            executor,
        );
    }
    let t1 = grid_comm.now();

    // Inter-grid sparse allreduce runs over MPI on the host (paper: the
    // SparseAllReduce of Alg. 1 line 20 is implemented with MPI).
    if use_naive_allreduce {
        allreduce::naive_allreduce(plan, zcomm, &rs.naive, nrhs, &mut y_vals);
    } else {
        allreduce::sparse_allreduce(plan, zcomm, &rs.zsteps, nrhs, &mut y_vals);
    }
    let t2 = grid_comm.now();

    if single {
        single_gpu_u(
            plan,
            grid_comm,
            &gpu,
            l_pass,
            nrhs,
            &y_vals,
            &mut x_vals,
            &mut arena,
        );
    } else {
        multi_gpu_pass(
            plan,
            grid_comm,
            &gpu,
            u_pass,
            z,
            pb,
            nrhs,
            Some(&y_vals),
            &mut x_vals,
            executor,
        );
    }
    let t3 = grid_comm.now();

    let snap = grid_comm.time_snapshot();
    let x_pieces = x_vals
        .into_iter()
        .filter(|(k, _)| plan.owner_xy(*k as usize) == (x, y))
        .collect();

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

/// Single-GPU 2D L-solve (Alg. 4): the whole `L^z` on one device,
/// interpreting the compiled column schedules in ascending order.
#[allow(clippy::too_many_arguments)]
fn single_gpu_l<T: Transport>(
    plan: &Plan,
    comm: &T,
    gpu: &GpuModel,
    pass: &PassSched,
    z: usize,
    pb: &[f64],
    nrhs: usize,
    y_vals: &mut HashMap<u32, Vec<f64>>,
    arena: &mut SolveArena,
) {
    let sym = plan.fact.lu.sym();
    let start = comm.now();
    let t0 = start + gpu.kernel_launch;
    let mut ex = GpuExecutor::new(gpu, t0);
    // Setup: prefill every map slot and size the arena so the audited
    // column sweep below never allocates.
    let mut lsum: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut row_ready: HashMap<u32, f64> = HashMap::new();
    let mut maxlen = 1;
    for col in &pass.cols {
        let w = sym.sup_width(col.sup as usize);
        maxlen = maxlen.max(w * nrhs);
        y_vals.entry(col.sup).or_insert_with(|| vec![0.0; w * nrhs]);
        row_ready.entry(col.sup).or_insert(t0);
        for b in &col.blocks {
            let wb = sym.sup_width(b.sup as usize);
            lsum.entry(b.sup).or_insert_with(|| vec![0.0; wb * nrhs]);
            row_ready.entry(b.sup).or_insert(t0);
        }
    }
    arena.ensure(2 * maxlen);

    let audit = crate::audit::pass_scope();
    for col in &pass.cols {
        let k = col.sup;
        let ku = k as usize;
        let w = sym.sup_width(ku);
        // Ready when every in-grid dependency task has finished.
        let ready = row_ready.get(&k).copied().unwrap_or(t0);
        // Numerics: diagonal solve + off-diagonal GEMVs of column K,
        // written straight into the prefilled y slot.
        let active = plan.rhs_active(z, ku);
        let len = w * nrhs;
        let (b_k, rhs) = arena.slices2(len, len);
        kernels::masked_rhs_into(&plan.fact, ku, pb, nrhs, active, b_k);
        let y_slot = y_vals.get_mut(&k).expect("y slot prefilled");
        kernels::diag_solve_l_into(
            &plan.fact,
            ku,
            b_k,
            lsum.get(&k).map(|v| &v[..]),
            nrhs,
            rhs,
            y_slot,
        );
        let y_k = &y_vals[&k];
        let mut dur = gpu.panel_op_time(w, w, nrhs);
        let panel = &plan.fact.lu.panel(ku).l_below;
        let r = sym.rows_below(ku).len();
        for b in &col.blocks {
            let wb = sym.sup_width(b.sup as usize);
            let acc = lsum.get_mut(&b.sup).expect("lsum slot prefilled");
            kernels::apply_l(
                panel,
                r,
                b.lo as usize,
                b.hi as usize,
                b.targets(&pass.scatter),
                y_k,
                w,
                acc,
                wb,
                nrhs,
            );
        }
        dur += gpu.panel_op_time(col.total_rows as usize, w, nrhs);
        let finish = ex.schedule(ready, dur);
        for b in &col.blocks {
            let e = row_ready.get_mut(&b.sup).expect("row_ready prefilled");
            if finish > *e {
                *e = finish;
            }
        }
    }
    drop(audit);
    let end = ex.last_finish();
    comm.account(end - comm.now(), Category::Flop);
    comm.advance_to(end);
    // One covering span per kernel: the whole pass runs on-device between
    // two host clock reads, so [start, end] keeps the per-rank spans tiling
    // the clock (the invariant the critical-path walk relies on).
    comm.trace_span(
        start,
        end,
        EventKind::Compute,
        Category::Flop,
        Some(SpanDetail::GpuPass {
            epoch: 0,
            tasks: pass.cols.len() as u64,
        }),
    );
    comm.metric_inc("pass.spans", 1);
}

/// Single-GPU 2D U-solve (Alg. 4 mirror), pull-model tasks. Reuses the L
/// pass's column schedules: the blocks of column `K` are exactly the
/// dependency columns `J` of the U task for `K` (`block_range(K, J)` is
/// the same symbolic range both triangles address).
#[allow(clippy::too_many_arguments)]
fn single_gpu_u<T: Transport>(
    plan: &Plan,
    comm: &T,
    gpu: &GpuModel,
    pass: &PassSched,
    nrhs: usize,
    y_vals: &HashMap<u32, Vec<f64>>,
    x_vals: &mut HashMap<u32, Vec<f64>>,
    arena: &mut SolveArena,
) {
    let sym = plan.fact.lu.sym();
    let start = comm.now();
    let t0 = start + gpu.kernel_launch;
    let mut ex = GpuExecutor::new(gpu, t0);
    // Setup: prefill every slot so the audited sweep never allocates.
    let mut finish: HashMap<u32, f64> = HashMap::with_capacity(pass.cols.len());
    let mut maxlen = 1;
    for col in &pass.cols {
        let w = sym.sup_width(col.sup as usize);
        maxlen = maxlen.max(w * nrhs);
        finish.insert(col.sup, t0);
        x_vals.entry(col.sup).or_insert_with(|| vec![0.0; w * nrhs]);
    }
    arena.ensure(2 * maxlen);

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
            let wj = sym.sup_width(b.sup as usize);
            kernels::apply_u(
                panel,
                w,
                b.lo as usize,
                b.hi as usize,
                b.targets(&pass.scatter),
                &x_vals[&b.sup],
                wj,
                usum,
                nrhs,
            );
            dur += gpu.panel_op_time(w, (b.hi - b.lo) as usize, nrhs);
            ready = ready.max(finish[&b.sup]);
        }
        let y_k = y_vals
            .get(&k)
            .expect("allreduce delivered y before the U-solve");
        let x_slot = x_vals.get_mut(&k).expect("x slot prefilled");
        kernels::diag_solve_u_into(&plan.fact, ku, y_k, Some(&*usum), nrhs, rhs, x_slot);
        let f = ex.schedule(ready, dur);
        *finish.get_mut(&k).expect("finish slot prefilled") = f;
    }
    drop(audit);
    let end = ex.last_finish();
    comm.account(end - comm.now(), Category::Flop);
    comm.advance_to(end);
    comm.trace_span(
        start,
        end,
        EventKind::Compute,
        Category::Flop,
        Some(SpanDetail::GpuPass {
            epoch: 1,
            tasks: pass.cols.len() as u64,
        }),
    );
    comm.metric_inc("pass.spans", 1);
}

/// Run one compiled pass with the NVSHMEM-style multi-GPU engine
/// (Alg. 5) and settle the rank clock to the pass's last event.
#[allow(clippy::too_many_arguments)]
fn multi_gpu_pass<T: Transport>(
    plan: &Plan,
    comm: &T,
    gpu: &GpuModel,
    pass: &PassSched,
    z: usize,
    pb: &[f64],
    nrhs: usize,
    vals_in: Option<&HashMap<u32, Vec<f64>>>,
    vals_out: &mut HashMap<u32, Vec<f64>>,
    executor: ExecutorKind,
) {
    let start = comm.now();
    let t0 = start + gpu.kernel_launch;
    let n_tasks = pass.cols.len() as u64;
    // Setup mirrors the CPU engine's: prebuild every ledger slot, payload
    // buffer, readiness entry, and FIFO route the steady-state loop will
    // touch, so the audited interpreter region never allocates.
    let sym = plan.fact.lu.sym();
    let mut sums = Ledger::default();
    let mut row_ready: HashMap<u32, f64> = HashMap::new();
    let mut diag_bufs: HashMap<u32, Arc<[f64]>> = HashMap::with_capacity(pass.rows.len());
    let mut partial_bufs: HashMap<u32, Arc<[f64]>> = HashMap::with_capacity(pass.rows.len());
    let mut arena = SolveArena::new();
    let mut maxlen = 1;
    for row in &pass.rows {
        let len = sym.sup_width(row.sup as usize) * nrhs;
        maxlen = maxlen.max(len);
        row_ready.entry(row.sup).or_insert(t0);
        match row.parent {
            None => {
                diag_bufs.insert(row.sup, vec![0.0; len].into());
            }
            Some(p) => {
                partial_bufs.insert(row.sup, vec![0.0; len].into());
                comm.warm_route(p as usize);
            }
        }
        for &c in &row.children {
            sums.accum(row.sup, Ledger::key_partial(c), len);
        }
    }
    for col in &pass.cols {
        let w = sym.sup_width(col.sup as usize);
        vals_out
            .entry(col.sup)
            .or_insert_with(|| vec![0.0; w * nrhs]);
        for b in &col.blocks {
            let blen = sym.sup_width(b.sup as usize) * nrhs;
            maxlen = maxlen.max(blen);
            sums.accum(b.sup, Ledger::key_local(col.sup), blen);
            row_ready.entry(b.sup).or_insert(t0);
        }
        for &c in &col.children {
            comm.warm_route(c as usize);
        }
    }
    arena.ensure(3 * maxlen);
    comm.metric_inc("pass.fmod_stalls", 0);
    let mut engine = GpuEngine {
        plan,
        comm,
        gpu,
        nrhs,
        z,
        lower: pass.lower,
        epoch: pass.epoch,
        me_world: comm.world_rank(comm.rank()),
        t0,
        ex: GpuExecutor::new(gpu, t0),
        sums,
        row_ready,
        last_event: t0,
        avail: t0,
        pb,
        vals_in,
        vals_out,
        arena,
        diag_bufs,
        partial_bufs,
    };
    match executor {
        ExecutorKind::Tree => run_pass(&mut engine, pass),
        ExecutorKind::Level => {
            // Pass-local scratch: GPU passes run at most twice per solve,
            // so there is no steady-state reuse to preserve here.
            let mut scratch = PassScratch::new();
            crate::levelexec::run_level_pass(&mut engine, pass, &mut scratch);
        }
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
        tasks: n_tasks,
    };
    comm.trace_span(start, mid, EventKind::Compute, Category::Flop, Some(detail));
    if end > mid {
        comm.trace_span(mid, end, EventKind::Recv, Category::XyComm, Some(detail));
    }
    comm.metric_inc("pass.spans", 1);
}

/// GPU cost hooks for [`run_pass`]: fused column tasks on the bounded-lane
/// executor, one-sided puts departing at the producing task's finish time,
/// per-row readiness tracked as virtual timestamps.
struct GpuEngine<'a, 'b, T: Transport> {
    plan: &'a Plan,
    comm: &'a T,
    gpu: &'a GpuModel,
    nrhs: usize,
    z: usize,
    lower: bool,
    epoch: u64,
    me_world: usize,
    t0: f64,
    ex: GpuExecutor,
    /// Partial sums (`lsum` in L, `usum` in U), pass-local, buffered per
    /// contribution source for order-independent folding.
    sums: Ledger,
    /// Earliest virtual time each row's dependencies are satisfied.
    row_ready: HashMap<u32, f64>,
    last_event: f64,
    /// Availability time of the vector most recently produced/received.
    avail: f64,
    /// Global permuted RHS (L pass only).
    pb: &'a [f64],
    /// `y` values from the allreduce (U pass only).
    vals_in: Option<&'b HashMap<u32, Vec<f64>>>,
    /// Solved vectors: `y_vals` (L) or `x_vals` (U).
    vals_out: &'b mut HashMap<u32, Vec<f64>>,
    /// Scratch for diagonal-solve temporaries, sized at pass setup.
    arena: SolveArena,
    /// Prebuilt diagonal-solve result buffers (rooted trigger rows).
    diag_bufs: HashMap<u32, Arc<[f64]>>,
    /// Prebuilt reduction payload buffers (non-root trigger rows).
    partial_bufs: HashMap<u32, Arc<[f64]>>,
}

impl<T: Transport> GpuEngine<'_, '_, T> {
    fn put(&self, depart: f64, dst: usize, t: u64, payload: &Arc<[f64]>) {
        let bytes = simgrid::envelope_bytes(payload.len());
        let dst_world = self.comm.world_rank(dst);
        let (lat, wire) = self.gpu.put_cost(self.me_world, dst_world, bytes);
        self.comm
            .send_timed_shared(depart, lat + wire, dst, t, payload, Category::XyComm);
    }

    fn vec_kind(&self) -> u64 {
        if self.lower {
            KIND_Y
        } else {
            KIND_X
        }
    }

    fn sum_kind(&self) -> u64 {
        if self.lower {
            KIND_LSUM
        } else {
            KIND_USUM
        }
    }
}

impl<T: Transport> PassEngine for GpuEngine<'_, '_, T> {
    fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
        let iu = row.sup as usize;
        let sym = self.plan.fact.lu.sym();
        let w = sym.sup_width(iu);
        let len = w * self.nrhs;
        let ready = self.row_ready.get(&row.sup).copied().unwrap_or(self.t0);
        // Prebuilt and still uniquely owned: the kernel writes straight
        // into the buffer the puts below will share by refcount.
        let mut out = self
            .diag_bufs
            .remove(&row.sup)
            .expect("diagonal buffer prebuilt for rooted row");
        let buf = Arc::get_mut(&mut out).expect("diagonal buffer still unique");
        if self.lower {
            // Diagonal thread block: y(I) from the masked RHS.
            let active = self.plan.rhs_active(self.z, iu);
            let (b_i, fold, rhs) = self.arena.slices3(len, len, len);
            kernels::masked_rhs_into(&self.plan.fact, iu, self.pb, self.nrhs, active, b_i);
            self.sums.fold_into(row.sup, fold);
            kernels::diag_solve_l_into(&self.plan.fact, iu, b_i, Some(fold), self.nrhs, rhs, buf);
        } else {
            let (fold, rhs) = self.arena.slices2(len, len);
            self.sums.fold_into(row.sup, fold);
            let y_k = self
                .vals_in
                .expect("U pass has y values")
                .get(&row.sup)
                .expect("y present at diagonal owner");
            kernels::diag_solve_u_into(&self.plan.fact, iu, y_k, Some(fold), self.nrhs, rhs, buf);
        }
        let f = self
            .ex
            .schedule(ready, self.gpu.panel_op_time(w, w, self.nrhs));
        self.avail = f;
        self.last_event = self.last_event.max(f);
        out
    }

    fn store_solved(&mut self, sup: u32, v: &[f64]) {
        match self.vals_out.get_mut(&sup) {
            Some(slot) => slot.copy_from_slice(v),
            None => {
                self.vals_out.insert(sup, v.to_vec());
            }
        }
    }

    fn solved(&self, _sup: u32) -> Arc<[f64]> {
        unreachable!("GPU passes have no external root columns")
    }

    fn forward(&mut self, col: &ColSched, v: &Arc<[f64]>) {
        let t = tag(self.epoch, self.vec_kind(), col.sup);
        for &child in &col.children {
            self.put(self.avail, child as usize, t, v);
        }
    }

    fn send_partial(&mut self, row: &RowSched, parent: u32) {
        let ready = self.row_ready.get(&row.sup).copied().unwrap_or(self.t0);
        let mut payload = self
            .partial_bufs
            .remove(&row.sup)
            .expect("partial buffer prebuilt for non-root row");
        self.sums.fold_into(
            row.sup,
            Arc::get_mut(&mut payload).expect("partial buffer still unique"),
        );
        let t = tag(self.epoch, self.sum_kind(), row.sup);
        self.put(ready, parent as usize, t, &payload);
        self.last_event = self.last_event.max(ready);
    }

    fn apply_column(&mut self, col: &ColSched, v: &[f64], scatter: &[u32]) {
        if col.blocks.is_empty() {
            return;
        }
        let sym = self.plan.fact.lu.sym();
        let ju = col.sup as usize;
        let wcol = sym.sup_width(ju);
        // Fused task: all my blocks of this column in one kernel.
        let dur = if self.lower {
            self.gpu
                .panel_op_time(col.total_rows as usize, wcol, self.nrhs)
        } else {
            self.gpu
                .panel_op_time(col.maxw as usize, col.total_rows as usize, self.nrhs)
        };
        let f = self.ex.schedule(self.avail, dur);
        for b in &col.blocks {
            let wb = sym.sup_width(b.sup as usize);
            let tg = b.targets(scatter);
            let acc = self
                .sums
                .accum(b.sup, Ledger::key_local(col.sup), wb * self.nrhs);
            if self.lower {
                let panel = &self.plan.fact.lu.panel(ju).l_below;
                let r = sym.rows_below(ju).len();
                kernels::apply_l(
                    panel,
                    r,
                    b.lo as usize,
                    b.hi as usize,
                    tg,
                    v,
                    wcol,
                    acc,
                    wb,
                    self.nrhs,
                );
            } else {
                let panel = &self.plan.fact.lu.panel(b.sup as usize).u_right;
                kernels::apply_u(
                    panel,
                    wb,
                    b.lo as usize,
                    b.hi as usize,
                    tg,
                    v,
                    wcol,
                    acc,
                    self.nrhs,
                );
            }
            let e = self.row_ready.get_mut(&b.sup).expect("row_ready prefilled");
            if f > *e {
                *e = f;
            }
        }
    }

    fn add_partial(&mut self, row: &RowSched, src: u32, payload: &[f64]) {
        self.sums.add(row.sup, Ledger::key_partial(src), payload);
        let e = self.row_ready.entry(row.sup).or_insert(self.t0);
        if self.avail > *e {
            *e = self.avail;
        }
    }

    fn on_duplicate_dropped(&mut self, _ev: &RecvEvent) {
        // GPU passes have no per-message receive span to flag; the drop
        // still counts in the metrics registry.
        self.comm.mark_last_dropped_duplicate();
    }

    fn on_fmod_stall(&mut self, _row: &RowSched, _outstanding: u32) {
        self.comm.metric_inc("pass.fmod_stalls", 1);
    }

    fn recv(&mut self, _epoch: u64) -> RecvEvent {
        let msg = self.comm.recv_raw_tag_masked(EPOCH_MASK, self.epoch << 48);
        // recv_raw bypasses the clock-charging path, so count the delivery
        // here to keep msgs.received comparable across CPU and GPU solvers.
        self.comm.metric_inc("msgs.received", 1);
        let sup = (msg.tag & SUP_MASK) as u32;
        let kind = msg.tag & KIND_MASK;
        self.avail = msg.arrival;
        self.last_event = self.last_event.max(msg.arrival);
        let is_vec = if kind == self.vec_kind() {
            true
        } else if kind == self.sum_kind() {
            false
        } else {
            unreachable!("unexpected kind in GPU pass");
        };
        RecvEvent {
            vector: is_vec,
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
