//! Message-driven 2D L- and U-solves (paper Alg. 3, generalized `Px × Py`).
//!
//! Within one 2D grid, supernode block `(I, K)` lives at process
//! `(I mod Px, K mod Py)`. The L-solve needs, per supernode column `K`, a
//! *broadcast* of `y(K)` from the diagonal owner down the process column,
//! and per supernode row `I`, a *reduction* of the partial sums `lsum(I)`
//! across the process row to the diagonal owner. Both run over binary
//! communication trees (`tree_comm = true`, the Liu et al. CSC'18
//! optimization the proposed algorithm integrates) or flat star
//! communication (`tree_comm = false`, what the baseline 3D algorithm is
//! limited to). The U-solve mirrors this with `x(J)` broadcasts down
//! process columns and `usum(K)` reductions across process rows.
//!
//! The tree links, dependency counters, and expected message counts are
//! *not* built here: they come precompiled in a [`PassSched`] from the
//! plan's schedule IR (see [`crate::schedule`]). This module contributes
//! only the CPU cost hooks — serial per-kernel clock advancement and
//! epoch-tagged two-sided messaging — plugged into the shared
//! [`crate::schedule::run_pass`] traversal that the GPU executor reuses
//! with its own hooks.
//!
//! Every rank executes a blocking any-source receive loop until its
//! precompiled expected message count is met — exactly the structure of
//! the paper's Algorithm 3 (`fmod`/`bmod` dependency counters included).

use crate::arena::{Ledger, SolveArena, SupVals};
use crate::driver::ExecutorKind;
use crate::kernels;
use crate::plan::{GridSet, Plan};
use crate::schedule::{
    run_pass_with, BlockSched, ColSched, PassEngine, PassSched, PassScratch, RankSchedule,
    RecvEvent, RowSched,
};
use simgrid::{Category, SpanDetail, Transport, TreeRole};
use std::sync::Arc;

/// Message kinds, encoded in tag bits 40..47. Bits 48+ carry the pass
/// *epoch*: ranks of one grid are not synchronized between passes, so a
/// neighbour already in the next pass may deliver early — the any-source
/// receive matches on the epoch and leaves such messages queued.
const KIND_MASK: u64 = 0xff << 40;
const SUP_MASK: u64 = (1 << 40) - 1;
/// Mask selecting the epoch bits.
pub const EPOCH_MASK: u64 = !((1 << 48) - 1);

/// The `(vector, partial-sum)` message kinds of an L or U pass, from the
/// kind block after `base` (0 for the CPU engine, 20 for the GPU's).
pub(crate) fn pass_kinds(base: u64, lower: bool) -> (u64, u64) {
    let k = base + if lower { 1 } else { 3 };
    (k << 40, (k + 1) << 40)
}

#[inline]
pub(crate) fn tag(epoch: u64, kind: u64, sup: u32) -> u64 {
    (epoch << 48) | kind | sup as u64
}

/// `(is a vector, supernode)` of a message of a pass with `kinds`.
pub(crate) fn decode(tag: u64, (vector, sum): (u64, u64)) -> (bool, u32) {
    let kind = tag & KIND_MASK;
    assert!(
        kind == vector || kind == sum,
        "unexpected message kind in 2D pass"
    );
    (kind == vector, (tag & SUP_MASK) as u32)
}

/// My links within a (binary or star) tree whose member list has the root
/// first.
#[derive(Clone, Debug, Default)]
pub struct TreeLinks {
    /// Members I forward received payloads to.
    pub children: Vec<usize>,
    /// Member I send my contribution to (`None` at the root).
    pub parent: Option<usize>,
    /// Whether I am the root.
    pub is_root: bool,
}

/// Minimum member count for which a binary tree beats the flat star: below
/// this, tree depth adds pure latency to the solve's dependency chains, so
/// — like SuperLU_DIST's degree-adaptive trees — small groups stay flat.
pub const TREE_THRESHOLD: usize = 6;

/// Compute my links in the tree over `members` (root at index 0; the rest
/// sorted and duplicate-free). Returns `None` when `me` is not a member.
/// `binary = false` builds the flat star the baseline uses; `binary = true`
/// uses a binary heap shape once the group exceeds [`TREE_THRESHOLD`].
pub fn tree_links(members: &[usize], me: usize, binary: bool) -> Option<TreeLinks> {
    let pos = members.iter().position(|&m| m == me)?;
    if binary && members.len() > TREE_THRESHOLD {
        let mut children = Vec::new();
        for c in [2 * pos + 1, 2 * pos + 2] {
            if c < members.len() {
                children.push(members[c]);
            }
        }
        let parent = if pos == 0 {
            None
        } else {
            Some(members[(pos - 1) / 2])
        };
        Some(TreeLinks {
            children,
            parent,
            is_root: pos == 0,
        })
    } else if pos == 0 {
        Some(TreeLinks {
            children: members[1..].to_vec(),
            parent: None,
            is_root: true,
        })
    } else {
        Some(TreeLinks {
            children: Vec::new(),
            parent: Some(members[0]),
            is_root: false,
        })
    }
}

/// Build the member list `[root, others...]`, deduplicated, others sorted.
pub fn member_list(root: usize, others: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = others.filter(|&m| m != root).collect();
    v.sort_unstable();
    v.dedup();
    let mut out = Vec::with_capacity(v.len() + 1);
    out.push(root);
    out.extend(v);
    out
}

/// Per-rank solve state carried across passes: flat slabs laid out by the
/// rank's compiled schedule.
pub struct SolveState<'s> {
    /// Partial row sums `lsum(I)` of the L phase, `w_I × nrhs` col-major
    /// per contribution slot (they persist across the baseline's passes).
    pub lsum: Ledger<'s>,
    /// Partial row sums `usum(K)` of the U phase.
    pub usum: Ledger<'s>,
    /// Solved `y(K)` at diagonal owners (and broadcast recipients).
    pub y_vals: SupVals<'s>,
    /// Solved `x(K)`.
    pub x_vals: SupVals<'s>,
    /// Scratch arena for diagonal-solve temporaries, sized at pass setup.
    pub arena: SolveArena,
    /// Pass-interpreter working state, reused across passes.
    pub scratch: PassScratch,
}

impl<'s> SolveState<'s> {
    /// Zeroed state for one solve of `nrhs` right-hand sides.
    pub fn new(rs: &'s RankSchedule, nrhs: usize) -> Self {
        SolveState {
            lsum: Ledger::new(&rs.l_slots, nrhs),
            usum: Ledger::new(&rs.u_slots, nrhs),
            y_vals: SupVals::new(&rs.vals, nrhs),
            x_vals: SupVals::new(&rs.vals, nrhs),
            arena: SolveArena::new(),
            scratch: PassScratch::new(),
        }
    }
}

/// Context shared by the pass functions of one rank. Generic over the
/// [`Transport`] backend carrying the messages.
pub struct Ctx<'a, T: Transport> {
    /// The global plan.
    pub plan: &'a Plan,
    /// My grid's membership.
    pub grid: &'a GridSet,
    /// Intra-grid communicator, rank = `x + px · y`.
    pub comm: &'a T,
    /// My process row.
    pub x: usize,
    /// My process column.
    pub y: usize,
    /// Number of right-hand sides.
    pub nrhs: usize,
    /// Global permuted RHS (`n × nrhs` col-major), read-only.
    pub pb: &'a [f64],
    /// Which execution engine interprets the compiled passes.
    pub executor: ExecutorKind,
}

impl<T: Transport> Ctx<'_, T> {
    #[inline]
    fn flop_time(&self, flops: usize) -> f64 {
        flops as f64 / self.comm.model().flop_rate
    }
}

/// Run one compiled 2D pass, an L-solve or (`!pass.lower`) a U-solve.
/// L partial sums for rows outside the pass persist in `state.lsum` for
/// later passes (baseline ancestors) and solved `y(K)` land in
/// `state.y_vals`; a U pass needs `y(K)` at the diagonal owner of every
/// row it solves and leaves `x(K)` in `state.x_vals`.
pub fn solve_pass<T: Transport>(ctx: &Ctx<T>, pass: &PassSched, state: &mut SolveState) {
    // The interpreter scratch lives in `state` so repeated passes reuse
    // it, but the engine needs `&mut state` too — take it for the pass.
    let executor = ctx.executor;
    let mut scratch = std::mem::take(&mut state.scratch);
    let mut engine = {
        let _setup = crate::audit::setup_scope(pass.rows.len() + pass.ext_roots.len());
        CpuEngine::new(ctx, pass, state)
    };
    match executor {
        ExecutorKind::Tree => run_pass_with(&mut engine, pass, &mut scratch),
        ExecutorKind::Level => crate::levelexec::run_level_pass(&mut engine, pass, &mut scratch),
    }
    engine.finish();
    state.scratch = scratch;
}

/// Send payloads of one pass, prebuilt at setup by compiled row position
/// while the FIFO routes they travel are warmed: the diagonal result at a
/// reduction root, the partial sum elsewhere. Each stays unique (refcount
/// 1) until its row fires; the transport then shares it by refcount.
pub(crate) struct Payloads {
    bufs: Vec<Option<Arc<[f64]>>>,
    /// Longest payload, in doubles.
    pub(crate) maxlen: usize,
}

impl Payloads {
    pub(crate) fn new<T: Transport>(comm: &T, plan: &Plan, pass: &PassSched, nrhs: usize) -> Self {
        let sym = plan.fact.lu.sym();
        let mut maxlen = 1;
        let mut bufs = Vec::with_capacity(pass.rows.len());
        for row in &pass.rows {
            let len = sym.sup_width(row.sup as usize) * nrhs;
            maxlen = maxlen.max(len);
            // One allocation: the exact-size iterator sizes the `Arc`.
            bufs.push(Some(std::iter::repeat_n(0.0, len).collect()));
            if let Some(p) = row.parent {
                comm.warm_route(p as usize);
            }
        }
        for &c in pass.cols.iter().flat_map(|c| &c.children) {
            comm.warm_route(c as usize);
        }
        Payloads { bufs, maxlen }
    }

    /// The payload of trigger row `row`.
    pub(crate) fn take(&mut self, pass: &PassSched, row: &RowSched) -> Arc<[f64]> {
        let idx = pass.row_index(row.sup).expect("trigger row compiled");
        self.bufs[idx]
            .take()
            .expect("payload prebuilt, row fires once")
    }
}

/// Diagonal solve of trigger row `row` into `out`; returns its flops.
/// Without `y_k` it is `y(I) = L(I,I)⁻¹ (b(I) − lsum(I))` (Eq. 1) on grid
/// `z`'s masked share of the permuted RHS `pb`; with it, `x(K) =
/// U(K,K)⁻¹ (y(K) − usum(K))` (Eq. 2).
#[allow(clippy::too_many_arguments)]
pub(crate) fn diag_solve(
    plan: &Plan,
    (pb, z): (&[f64], usize),
    y_k: Option<&[f64]>,
    row: &RowSched,
    sums: &Ledger,
    arena: &mut SolveArena,
    nrhs: usize,
    out: &mut [f64],
) -> usize {
    let (fact, iu) = (&plan.fact, row.sup as usize);
    let len = fact.lu.sym().sup_width(iu) * nrhs;
    let (b, fold, rhs) = arena.slices3(len, len, len);
    sums.fold_into(row.acc, fold);
    match y_k {
        None => {
            kernels::masked_rhs_into(fact, iu, pb, nrhs, plan.rhs_active(z, iu), b);
            kernels::diag_solve_l_into(fact, iu, b, Some(fold), nrhs, rhs, out)
        }
        Some(y_k) => kernels::diag_solve_u_into(fact, iu, y_k, Some(fold), nrhs, rhs, out),
    }
}

/// Apply `col`'s local blocks of its solved vector `v` into their ledger
/// slots; `each` sees every block with its flop count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_blocks(
    plan: &Plan,
    lower: bool,
    col: &ColSched,
    v: &[f64],
    scatter: &[u32],
    sums: &mut Ledger,
    nrhs: usize,
    mut each: impl FnMut(&BlockSched, usize),
) {
    let sym = plan.fact.lu.sym();
    let ju = col.sup as usize;
    let (wcol, r) = (sym.sup_width(ju), sym.rows_below(ju).len());
    for b in &col.blocks {
        let wb = sym.sup_width(b.sup as usize);
        let (lo, hi, tg) = (b.lo as usize, b.hi as usize, b.targets(scatter));
        let fl = if lower {
            // The slot spans the block's rows only (see `BlockSched::cover`).
            let len = b.cover(plan, col.sup, true)[1] as usize;
            let (panel, acc) = (
                &plan.fact.lu.panel(ju).l_below,
                sums.slot(b.slot, len * nrhs),
            );
            kernels::apply_l(panel, r, lo, hi, tg, v, wcol, acc, len, nrhs)
        } else {
            let acc = sums.slot(b.slot, wb * nrhs);
            let panel = &plan.fact.lu.panel(b.sup as usize).u_right;
            kernels::apply_u(panel, wb, lo, hi, tg, v, wcol, acc, nrhs)
        };
        each(b, fl);
    }
}

/// CPU cost hooks for [`crate::schedule::run_pass`]: every kernel advances
/// this rank's serial clock; messages are epoch-tagged two-sided sends.
///
/// Construction ([`CpuEngine::new`]) is the per-pass *setup* phase. The
/// slabs it writes into were laid out at compile time, so setup only
/// builds the `Arc` send payloads (one per trigger row and announced
/// external column), warms FIFO routes and metric names and sizes the
/// arena; the loop itself (bracketed by [`crate::audit::pass_scope`]
/// inside the interpreter) never allocates.
struct CpuEngine<'a, 'b, 's, T: Transport> {
    ctx: &'b Ctx<'a, T>,
    pass: &'b PassSched,
    state: &'b mut SolveState<'s>,
    lower: bool,
    epoch: u64,
    /// Monotone per-pass operation index, stamped onto trace spans.
    step: u32,
    payloads: Payloads,
    /// Shared snapshots of externally solved columns this rank announces,
    /// sorted by supernode.
    ext_bufs: Vec<(u32, Arc<[f64]>)>,
    /// Pending level-barrier attribution `(level, sup)`: set when the
    /// level-set executor parks at a barrier, consumed by the next
    /// blocking receive so its trace span reads as barrier wait time.
    barrier: Option<(u32, u32)>,
}

impl<'a, 'b, 's, T: Transport> CpuEngine<'a, 'b, 's, T> {
    fn new(ctx: &'b Ctx<'a, T>, pass: &'b PassSched, state: &'b mut SolveState<'s>) -> Self {
        let lower = pass.lower;
        let payloads = Payloads::new(ctx.comm, ctx.plan, pass, ctx.nrhs);
        let mut ext_bufs: Vec<(u32, Arc<[f64]>)> = pass
            .ext_roots
            .iter()
            .map(|&j| (j, Arc::from(state.x_vals.get(j))))
            .collect();
        ext_bufs.sort_unstable_by_key(|e| e.0);
        state.arena.ensure(3 * payloads.maxlen);
        if lower {
            state.lsum.begin_pass();
        } else {
            state.usum.begin_pass();
        }
        ctx.comm.metric_inc("pass.fmod_stalls", 0);
        ctx.comm.metric_inc("pass.level_barrier_waits", 0);
        CpuEngine {
            ctx,
            pass,
            state,
            lower,
            epoch: pass.epoch,
            step: 0,
            payloads,
            ext_bufs,
            barrier: None,
        }
    }

    /// The partial-sum accumulator of the current triangle.
    fn sums(&mut self) -> &mut Ledger<'s> {
        if self.lower {
            &mut self.state.lsum
        } else {
            &mut self.state.usum
        }
    }

    /// Stamp subsequent trace spans with this operation's semantics and
    /// advance the per-pass step counter.
    fn begin_op(&mut self, sup: u32, role: TreeRole) {
        self.ctx.comm.set_span_detail(Some(SpanDetail::Pass {
            epoch: self.epoch,
            step: self.step,
            sup,
            role,
        }));
        self.step += 1;
    }

    /// Clear the span annotation and flush per-pass metrics. Called after
    /// `run_pass` returns.
    fn finish(&self) {
        self.ctx.comm.set_span_detail(None);
        self.ctx.comm.metric_inc("pass.spans", self.step as u64);
    }
}

impl<T: Transport> PassEngine for CpuEngine<'_, '_, '_, T> {
    fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
        self.begin_op(row.sup, TreeRole::Diag);
        let ctx = self.ctx;
        // The result buffer was prebuilt in setup and is still uniquely
        // owned, so the kernel writes straight into the send payload.
        let mut out = self.payloads.take(self.pass, row);
        let buf = Arc::get_mut(&mut out).expect("diagonal buffer still unique");
        let state = &mut *self.state;
        let (sums, y_k) = if self.lower {
            (&state.lsum, None)
        } else {
            (&state.usum, Some(state.y_vals.get(row.sup)))
        };
        let rhs = (ctx.pb, ctx.grid.z);
        let fl = diag_solve(
            ctx.plan,
            rhs,
            y_k,
            row,
            sums,
            &mut state.arena,
            ctx.nrhs,
            buf,
        );
        ctx.comm.compute(ctx.flop_time(fl), Category::Flop);
        out
    }

    fn store_solved(&mut self, sup: u32, v: &[f64]) {
        // Re-stores (baseline re-broadcasts) write identical bits.
        if self.lower {
            self.state.y_vals.set(sup, v);
        } else {
            self.state.x_vals.set(sup, v);
        }
    }

    fn solved(&self, sup: u32) -> Arc<[f64]> {
        let i = self
            .ext_bufs
            .binary_search_by_key(&sup, |e| e.0)
            .expect("external column snapshot prebuilt");
        Arc::clone(&self.ext_bufs[i].1)
    }

    fn forward(&mut self, col: &ColSched, v: &Arc<[f64]>) {
        if col.children.is_empty() {
            return;
        }
        self.begin_op(col.sup, TreeRole::Bcast);
        let t = tag(self.epoch, pass_kinds(0, self.lower).0, col.sup);
        for &child in &col.children {
            self.ctx
                .comm
                .send_shared(child as usize, t, v, Category::XyComm);
        }
    }

    fn send_partial(&mut self, row: &RowSched, parent: u32) {
        self.begin_op(row.sup, TreeRole::Reduce);
        let t = tag(self.epoch, pass_kinds(0, self.lower).1, row.sup);
        // Fold straight into the prebuilt payload buffer (unique until
        // this send, which shares it with the transport by refcount).
        let mut payload = self.payloads.take(self.pass, row);
        let buf = Arc::get_mut(&mut payload).expect("partial buffer still unique");
        self.sums().fold_into(row.acc, buf);
        self.ctx
            .comm
            .send_shared(parent as usize, t, &payload, Category::XyComm);
    }

    fn apply_column(&mut self, col: &ColSched, v: &[f64], scatter: &[u32]) {
        self.begin_op(col.sup, TreeRole::Apply);
        let (ctx, lower) = (self.ctx, self.lower);
        let sums = self.sums();
        apply_blocks(ctx.plan, lower, col, v, scatter, sums, ctx.nrhs, |_, fl| {
            ctx.comm.compute(ctx.flop_time(fl), Category::Flop)
        });
    }

    fn add_partial(&mut self, row: &RowSched, src: u32, payload: &[f64]) {
        self.sums().add_partial(row, src, payload);
    }

    fn recv(&mut self, epoch: u64) -> RecvEvent {
        // Clear any stale operation stamp: the blocking receive's own
        // semantics are only known once the tag is decoded.
        self.ctx.comm.set_span_detail(None);
        let msg = self
            .ctx
            .comm
            .recv_tag_masked(EPOCH_MASK, epoch << 48, Category::XyComm);
        let (vector, sup) = decode(msg.tag, pass_kinds(0, self.lower));
        // A receive entered while parked at a level barrier is that
        // barrier's wait — attribute the span to the barrier instead of
        // the delivered message, so the critical-path report can sum the
        // level engine's synchronization cost.
        match self.barrier.take() {
            Some((level, waiting)) => self.ctx.comm.annotate_last(SpanDetail::LevelBarrier {
                epoch: self.epoch,
                level,
                sup: waiting,
            }),
            None => self.ctx.comm.annotate_last(SpanDetail::Pass {
                epoch: self.epoch,
                step: self.step,
                sup,
                role: if vector {
                    TreeRole::Bcast
                } else {
                    TreeRole::Reduce
                },
            }),
        }
        self.step += 1;
        RecvEvent {
            vector,
            sup,
            src: msg.src as u32,
            payload: msg.payload,
        }
    }

    fn on_duplicate_dropped(&mut self, _ev: &RecvEvent) {
        self.ctx.comm.mark_last_dropped_duplicate();
    }

    fn on_fmod_stall(&mut self, _row: &RowSched, _outstanding: u32) {
        self.ctx.comm.metric_inc("pass.fmod_stalls", 1);
    }

    fn on_level_wait(&mut self, level: u32, row: &RowSched, _outstanding: u32) {
        self.barrier = Some((level, row.sup));
        self.ctx.comm.metric_inc("pass.level_barrier_waits", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_list_dedups_and_roots_first() {
        let m = member_list(3, [5, 1, 3, 5, 1].into_iter());
        assert_eq!(m, vec![3, 1, 5]);
    }

    #[test]
    fn star_tree_links() {
        let members = vec![2, 0, 5, 7];
        let root = tree_links(&members, 2, false).unwrap();
        assert!(root.is_root);
        assert_eq!(root.children, vec![0, 5, 7]);
        let leaf = tree_links(&members, 5, false).unwrap();
        assert_eq!(leaf.parent, Some(2));
        assert!(leaf.children.is_empty());
        assert!(tree_links(&members, 9, false).is_none());
    }

    #[test]
    fn binary_tree_links_heap_shape() {
        // Above the threshold: genuine binary heap.
        let members: Vec<usize> = (0..10).collect();
        let root = tree_links(&members, 0, true).unwrap();
        assert_eq!(root.children, vec![1, 2]);
        let mid = tree_links(&members, 1, true).unwrap();
        assert_eq!(mid.parent, Some(0));
        assert_eq!(mid.children, vec![3, 4]);
        let leaf = tree_links(&members, 9, true).unwrap();
        assert_eq!(leaf.parent, Some(4));
        assert!(leaf.children.is_empty());
    }

    #[test]
    fn small_groups_stay_flat_even_in_tree_mode() {
        // At or below TREE_THRESHOLD the degree-adaptive logic keeps a star.
        let members: Vec<usize> = (0..TREE_THRESHOLD).collect();
        let root = tree_links(&members, 0, true).unwrap();
        assert_eq!(root.children.len(), TREE_THRESHOLD - 1);
    }

    /// Every member must appear exactly once as a child across the tree
    /// (i.e. the tree is spanning), for both shapes.
    #[test]
    fn trees_are_spanning() {
        for binary in [false, true] {
            let members: Vec<usize> = (0..13).map(|i| i * 2).collect();
            let mut child_count = std::collections::HashMap::new();
            for &m in &members {
                let links = tree_links(&members, m, binary).unwrap();
                for c in links.children {
                    *child_count.entry(c).or_insert(0) += 1;
                }
            }
            for &m in &members[1..] {
                assert_eq!(child_count.get(&m), Some(&1), "binary={binary}");
            }
            assert!(!child_count.contains_key(&members[0]));
        }
    }
}
