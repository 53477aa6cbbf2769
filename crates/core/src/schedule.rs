//! The compiled per-rank communication-schedule IR.
//!
//! Every distributed solver in this crate — the proposed 3D algorithm
//! (CPU and GPU), its flat-communication ablation, and the ICS'19
//! baseline — used to rebuild the same per-pass data structures at the
//! start of every solve: broadcast/reduction tree links, `fmod`
//! dependency counters, expected-message counts, symbolic block lists,
//! and the pack layouts of the inter-grid exchanges. This module
//! precomputes all of it once per [`Plan`] into a serializable
//! [`Schedule`], and the executors become thin interpreters over it
//! (see [`run_pass`]). Repeated `Solver3d::solve` calls then perform no
//! schedule setup at all — the paper's "setup once, solve many
//! right-hand sides" usage.
//!
//! One schedule is compiled per [`ScheduleKey`] (algorithm family ×
//! communication shape) and cached inside the plan; ranks are compiled
//! independently and in parallel.
//!
//! The compiler also lays out each rank's flat solve state: a dense
//! supernode index for its solved values ([`SupIndex`]) and one
//! accumulator slot per partial-sum contribution of each phase
//! ([`SlotLayout`]), so the engines only index, never hash or insert.

use crate::kernels;
use crate::plan::{GridSet, Plan, SupSet, ZTrim};
use crate::solve2d::{member_list, tree_links};
use ordering::levels::{level_sets, ChainPolicy, LevelSets};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Baseline inter-grid tags (`TAG + lev` stamped at compile time).
const TAG_ZRED: u64 = 9 << 40;
const TAG_ZBC: u64 = 10 << 40;

/// Which schedule family to compile. The proposed algorithm (CPU tree,
/// GPU, and the naive-allreduce ablation) shares `{baseline: false,
/// tree_comm: true}`; the flat-communication ablation drops the trees;
/// the baseline runs level-by-level passes with flat communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScheduleKey {
    /// Level-by-level baseline traversal vs the proposed single pass.
    pub baseline: bool,
    /// Binary broadcast/reduction trees vs flat stars.
    pub tree_comm: bool,
}

/// Sentinel in [`BlockSched::dense_start`]: the block's rows are not one
/// contiguous run, use the scatter pool.
pub const SCATTERED: u32 = u32::MAX;

/// Sentinel in [`BlockSched::row`]: the block's target is not a trigger
/// row of this pass (a baseline ancestor, reduced in a later pass).
pub const NO_ROW: u32 = u32::MAX;

/// One local block of a column, with its addressing precompiled: the
/// symbolic block range resolved, and either a dense contiguous-run offset
/// or an index list baked into the pass's scatter pool at compile time.
/// For L passes the indices address the *target*, the block's `lsum(I)`
/// slot, relative to its first row (`rows[q] − rows[lo]`, see
/// [`BlockSched::cover`]); for U passes they address the *source* `x(J)`
/// (`rows[q] − sup_start(J)`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockSched {
    /// The row supernode the block accumulates into (`I` of `L(I, K)` in
    /// L passes, `K` of `U(K, J)` in U passes).
    pub sup: u32,
    /// Row-position range `[lo, hi)` within `rows_below` of the panel.
    pub lo: u32,
    /// Row-position range end.
    pub hi: u32,
    /// Dense fast path: rows map to consecutive indices starting here;
    /// [`SCATTERED`] when the run is not contiguous.
    pub dense_start: u32,
    /// Offset of this block's `hi − lo` indices in [`PassSched::scatter`]
    /// (meaningful only when `dense_start == SCATTERED`).
    pub scatter_off: u32,
    /// The block's accumulator slot in its phase's [`SlotLayout`].
    pub slot: u32,
    /// Index of the target row in [`PassSched::rows`], or [`NO_ROW`].
    pub row: u32,
}

impl BlockSched {
    /// The part `[first element, elements]` of its row this block, of
    /// column `col`, accumulates into: an L block spans its first to its
    /// last row; a U block covers all of `K`.
    pub fn cover(&self, plan: &Plan, col: u32, lower: bool) -> [u32; 2] {
        let sym = plan.fact.lu.sym();
        if lower {
            let rows = &sym.rows_below(col as usize)[self.lo as usize..self.hi as usize];
            let start = sym.sup_cols(self.sup as usize).start as u32;
            [rows[0] - start, rows[rows.len() - 1] - rows[0] + 1]
        } else {
            [0, sym.sup_width(self.sup as usize) as u32]
        }
    }

    /// The kernel addressing of this block, borrowing the pass pool.
    #[inline]
    pub fn targets<'a>(&self, pool: &'a [u32]) -> kernels::Targets<'a> {
        if self.dense_start != SCATTERED {
            kernels::Targets::Dense(self.dense_start as usize)
        } else {
            let off = self.scatter_off as usize;
            kernels::Targets::Scatter(&pool[off..off + (self.hi - self.lo) as usize])
        }
    }
}

/// Compiled broadcast state of one locally known supernode column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColSched {
    /// Supernode index.
    pub sup: u32,
    /// Grid ranks to forward the column's solved vector to.
    pub children: Vec<u32>,
    /// Whether this rank roots the broadcast (diagonal owner).
    pub is_root: bool,
    /// Local blocks touched by this column, addressing precompiled.
    pub blocks: Vec<BlockSched>,
    /// Sum of block row counts (the GPU's fused column task size).
    pub total_rows: u32,
    /// Max supernode width over the block rows (GPU U task height), ≥ 1.
    pub maxw: u32,
}

/// Compiled reduction state of one trigger row this rank participates in.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RowSched {
    /// Supernode index.
    pub sup: u32,
    /// Initial dependency count: local block updates + child partials.
    pub fmod0: u32,
    /// Reduction parent (grid rank); `None` at the diagonal owner.
    pub parent: Option<u32>,
    /// Reduction children (grid ranks) whose partials arrive here,
    /// ascending.
    pub children: Vec<u32>,
    /// Index of this row in its phase's [`SlotLayout::rows`].
    pub acc: u32,
    /// Slot of the partial from `children[0]`; child `j`'s slot lies `j`
    /// row widths further on.
    pub part: u32,
}

/// One compiled 2D solve pass (the unit both CPU and GPU interpret).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PassSched {
    /// Epoch stamped into message tags (unique per pass within a grid).
    pub epoch: u64,
    /// Lower (L) vs upper (U) triangle; selects work-queue order.
    pub lower: bool,
    /// Number of messages this rank must receive before the pass ends.
    pub expected: u32,
    /// Locally known columns, sorted by supernode.
    pub cols: Vec<ColSched>,
    /// Trigger rows this rank reduces, sorted by supernode.
    pub rows: Vec<RowSched>,
    /// Externally solved columns this rank roots, announced at pass
    /// start in this order (baseline U passes only).
    pub ext_roots: Vec<u32>,
    /// Scatter index pool shared by every non-dense [`BlockSched`] of the
    /// pass (see [`BlockSched::targets`]).
    pub scatter: Vec<u32>,
    /// Alternate level-set program (see [`crate::levelexec`]): indices
    /// into `rows` grouped by the factor-DAG level of their supernode.
    /// Within a level the firing direction is ascending supernode for L
    /// and descending for U — a linear extension of the *global*
    /// dependency order, which is what keeps cross-rank waits at a level
    /// barrier deadlock-free.
    pub level_order: Vec<u32>,
    /// Level boundaries in `level_order` (`n_levels + 1` entries).
    pub level_ptr: Vec<u32>,
}

impl PassSched {
    /// Index into `cols` of column `sup`, if this rank knows the column.
    pub fn col_index(&self, sup: u32) -> Option<usize> {
        self.cols.binary_search_by_key(&sup, |c| c.sup).ok()
    }

    /// Column schedule of `sup`, if this rank knows the column.
    pub fn col(&self, sup: u32) -> Option<&ColSched> {
        self.col_index(sup).map(|i| &self.cols[i])
    }

    /// Index into `rows` of trigger row `sup`.
    pub fn row_index(&self, sup: u32) -> Option<usize> {
        self.rows.binary_search_by_key(&sup, |r| r.sup).ok()
    }

    /// The level-set program's levels, each a slice of indices into
    /// `rows` in firing order.
    pub fn levels(&self) -> impl Iterator<Item = &[u32]> {
        self.level_ptr
            .windows(2)
            .map(|w| &self.level_order[w[0] as usize..w[1] as usize])
    }
}

/// One pairwise inter-grid exchange of the baseline traversal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ZExchange {
    /// Partner grid (z index within the z-communicator).
    pub peer: u32,
    /// Message tag (level-stamped at compile time).
    pub tag: u64,
    /// Whether this rank sends (vs receives) the packed buffer.
    pub send: bool,
    /// Supernodes packed into the buffer, in order.
    pub sups: Vec<u32>,
    /// Receiving L-phase exchanges: the `lsum` slot of each listed
    /// supernode's piece, parallel to `sups`. Empty otherwise.
    pub slots: Vec<u32>,
}

/// One baseline step: an optional 2D pass plus an optional z exchange.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveStep {
    /// The 2D pass of this step (absent on inactive grids/empty nodes).
    pub pass: Option<PassSched>,
    /// The pairwise reduce/broadcast following (L) or preceding (U) the
    /// next activation.
    pub exchange: Option<ZExchange>,
}

/// My role at one step of the sparse allreduce (paper Alg. 2). A `Some`
/// entry at index `l` means: exchange the packed `sups` with `peer`
/// (send in the reduce phase iff `to_smaller`, mirrored in broadcast).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ZStep {
    /// Partner grid (z index).
    pub peer: u32,
    /// Whether my partial flows toward the smaller grid in the reduce.
    pub to_smaller: bool,
    /// Diagonally owned shared-ancestor supernodes, ascending. Under
    /// [`crate::plan::ZTrim::Live`] this is trimmed to the supernodes some
    /// grid of the step's sender subtree is live for; a step whose list
    /// compiles to empty is elided at run time (no message, no span).
    pub sups: Vec<u32>,
    /// Per-RHS doubles of the *untrimmed* (dense-layout) list — what this
    /// step would move without the trim. Drives the `comm.z.bytes_saved`
    /// counter and the bench's dense baseline. (Schema note: serialized
    /// schedules from before PR 9 lack this field and must be
    /// regenerated — the vendored serde stand-in has no `default`.)
    pub dense_doubles: u64,
}

/// One ancestor layout node of the naive per-node dense allreduce.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NaiveNode {
    /// Layout-node heap id.
    pub node: u32,
    /// Diagonally owned supernodes of the node, ascending (live-trimmed
    /// under [`crate::plan::ZTrim::Live`]).
    pub sups: Vec<u32>,
    /// Per-RHS doubles of the untrimmed list (see [`ZStep::dense_doubles`]).
    pub dense_doubles: u64,
}

/// The complete compiled program of one world rank.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankSchedule {
    /// L-phase steps, in execution order.
    pub l_steps: Vec<SolveStep>,
    /// U-phase steps, in execution order.
    pub u_steps: Vec<SolveStep>,
    /// Sparse-allreduce roles, index = step `l` (proposed algorithm).
    pub zsteps: Vec<Option<ZStep>>,
    /// Naive-allreduce pack lists, root-first (ablation variant).
    pub naive: Vec<NaiveNode>,
    /// Dense index of every supernode this rank holds a `y` or `x` for.
    pub vals: SupIndex,
    /// Accumulator slots of the L phase's partial sums `lsum`.
    pub l_slots: SlotLayout,
    /// Accumulator slots of the U phase's partial sums `usum`.
    pub u_slots: SlotLayout,
}

/// A rank's dense local supernode index: the offset table of a
/// [`crate::arena::SupVals`] slab.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SupIndex {
    /// Indexed supernodes, ascending.
    pub sups: Vec<u32>,
    /// Prefix widths: `sups[i]` owns `off[i]..off[i + 1]`, times `nrhs`.
    pub off: Vec<u32>,
}

/// One row of a phase's partial-sum slab. Its `n` slots sit side by side
/// from `off` in ascending ledger-key order: local column blocks, then
/// reduction-child partials, then baseline z-exchange pieces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlotRow {
    /// Row supernode.
    pub sup: u32,
    /// First slot, in `f64`s per right-hand side.
    pub off: u32,
    /// Index of the first slot in [`SlotLayout::cover`].
    pub slot: u32,
    /// Slot count.
    pub n: u32,
    /// Index, in phase order, of the first pass writing a local or child
    /// slot of the row; `u32::MAX` when only z-exchanges do.
    pub first_pass: u32,
}

/// Accumulator-slot layout of one phase (the L phase's `lsum` persists
/// across all of the baseline's L passes, so slots are per phase; the
/// proposed algorithm has one pass per phase).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlotLayout {
    /// Rows ascending by supernode; their slot ranges tile `[0, width)`.
    pub rows: Vec<SlotRow>,
    /// The part of its row each slot covers, in slab order: `[first
    /// element, elements]`. An L block's slot spans only the rows the
    /// block touches; every other slot covers the whole row.
    pub cover: Vec<[u32; 2]>,
    /// Slab width in `f64`s per right-hand side.
    pub width: u32,
}

impl SlotLayout {
    /// Key of a local block of column `col`. Keys order a row's slots;
    /// the kinds never collide since `col < 2^32`.
    pub fn key_local(col: u32) -> u64 {
        col as u64
    }

    /// Key of a reduction partial from grid rank `src`.
    pub fn key_partial(src: u32) -> u64 {
        (1 << 32) | src as u64
    }

    /// Key of a baseline z-exchange piece carried under `tag`.
    pub fn key_exchange(tag: u64) -> u64 {
        (2 << 32) | (tag & 0xffff)
    }

    /// Index into `rows` of row `sup`.
    pub fn find(&self, sup: u32) -> Option<usize> {
        self.rows.binary_search_by_key(&sup, |r| r.sup).ok()
    }

    /// Lay out the slots of one phase's `steps` and stamp them into the
    /// blocks, rows and (L) receiving exchanges: one slot per key a
    /// contribution can arrive under.
    fn compile(plan: &Plan, steps: &mut [SolveStep], lower: bool) -> SlotLayout {
        let sym = plan.fact.lu.sym();
        let whole = |sup: u32| [0, sym.sup_width(sup as usize) as u32];
        // Every (row, key, cover) a contribution arrives under, and every
        // row with the first pass that writes it.
        let mut keys: Vec<(u32, u64, [u32; 2])> = Vec::new();
        let mut rows: Vec<(u32, u32)> = Vec::new();
        let into_lsum = |x: &ZExchange| lower && !x.send;
        for (p, pass) in steps.iter().filter_map(|s| s.pass.as_ref()).enumerate() {
            for c in &pass.cols {
                for b in &c.blocks {
                    keys.push((b.sup, Self::key_local(c.sup), b.cover(plan, c.sup, lower)));
                    rows.push((b.sup, p as u32));
                }
            }
            for r in &pass.rows {
                let partials = r.children.iter().map(|&c| Self::key_partial(c));
                keys.extend(partials.map(|k| (r.sup, k, whole(r.sup))));
                let first = if r.children.is_empty() {
                    u32::MAX
                } else {
                    p as u32
                };
                rows.push((r.sup, first));
            }
        }
        for x in steps.iter().filter_map(|s| s.exchange.as_ref()) {
            if !into_lsum(x) {
                continue;
            }
            keys.extend(
                x.sups
                    .iter()
                    .map(|&s| (s, Self::key_exchange(x.tag), whole(s))),
            );
            rows.extend(x.sups.iter().map(|&s| (s, u32::MAX)));
        }
        keys.sort_unstable();
        keys.dedup();
        // Sorted by (sup, pass): the first entry of a row is its earliest.
        rows.sort_unstable();
        rows.dedup_by_key(|r| r.0);

        let mut layout = SlotLayout {
            rows: Vec::with_capacity(rows.len()),
            cover: Vec::with_capacity(keys.len()),
            width: 0,
        };
        let mut key_off = Vec::with_capacity(keys.len());
        for (sup, first_pass) in rows {
            let (off, slot) = (layout.width, layout.cover.len());
            for &(_, _, cover) in keys[slot..].iter().take_while(|k| k.0 == sup) {
                key_off.push(layout.width);
                layout.width += cover[1];
                layout.cover.push(cover);
            }
            layout.rows.push(SlotRow {
                sup,
                off,
                slot: slot as u32,
                n: (layout.cover.len() - slot) as u32,
                first_pass,
            });
        }
        let slot = |sup: u32, key: u64| key_off[keys.partition_point(|k| (k.0, k.1) < (sup, key))];

        for pass in steps.iter_mut().filter_map(|s| s.pass.as_mut()) {
            let PassSched { cols, rows, .. } = pass;
            for c in cols.iter_mut() {
                for b in &mut c.blocks {
                    b.slot = slot(b.sup, Self::key_local(c.sup));
                    b.row = rows
                        .binary_search_by_key(&b.sup, |r| r.sup)
                        .map_or(NO_ROW, |i| i as u32);
                }
            }
            for r in rows.iter_mut() {
                r.acc = layout.find(r.sup).expect("row laid out") as u32;
                if let Some(&c) = r.children.first() {
                    r.part = slot(r.sup, Self::key_partial(c));
                }
            }
        }
        for x in steps.iter_mut().filter_map(|s| s.exchange.as_mut()) {
            if !into_lsum(x) {
                continue;
            }
            x.slots = x
                .sups
                .iter()
                .map(|&s| slot(s, Self::key_exchange(x.tag)))
                .collect();
        }
        layout
    }
}

/// A compiled schedule: one [`RankSchedule`] per world rank.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The family this schedule was compiled for.
    pub key: ScheduleKey,
    /// Per-rank programs, indexed by world rank (`Plan::rank_of`).
    pub ranks: Vec<RankSchedule>,
}

/// Global level assignment of the factor's supernode dependency DAGs,
/// computed once per compile and shared by every rank. The levels must be
/// *global* (per-rank local edges are not enough): a rank parked at a
/// level barrier may transitively wait on rows other ranks fire, so every
/// rank's firing order has to be a linear extension of the same partial
/// order or the barriers could deadlock.
pub(crate) struct FactorLevels {
    /// L-solve levels (deps: `blocks_left`, topological order ascending).
    pub l: LevelSets,
    /// U-solve levels (deps: `blocks_below`, topological order descending).
    pub u: LevelSets,
}

impl FactorLevels {
    fn compute(plan: &Plan) -> FactorLevels {
        FactorLevels {
            l: factor_levels(plan, true),
            u: factor_levels(plan, false),
        }
    }
}

/// Level sets of one triangle's supernode DAG, with the chain-batching
/// width chosen by the cost model from the unbatched depth and the grid's
/// parallel width.
fn factor_levels(plan: &Plan, lower: bool) -> LevelSets {
    let sym = plan.fact.lu.sym();
    let n = sym.n_supernodes();
    let topo: Vec<u32> = if lower {
        (0..n as u32).collect()
    } else {
        (0..n as u32).rev().collect()
    };
    let mut deps = |v: u32, f: &mut dyn FnMut(u32)| {
        let edges = if lower {
            sym.blocks_left(v as usize)
        } else {
            sym.blocks_below(v as usize)
        };
        for &u in edges {
            f(u);
        }
    };
    let pure = level_sets(n, &topo, ChainPolicy::none(), &mut deps);
    let policy = ChainPolicy::auto(n, pure.n_levels, plan.px * plan.py);
    if policy.batch_width <= 1 {
        pure
    } else {
        level_sets(n, &topo, policy, &mut deps)
    }
}

/// Group a pass's trigger rows into its level program: indices into
/// `rows` bucketed by the global level of their supernode, keeping the
/// firing direction (ascending sups for L, descending for U) within each
/// level so chain-batched runs fire head-first.
fn level_program(rows: &[RowSched], level_of: &[u32], lower: bool) -> (Vec<u32>, Vec<u32>) {
    if rows.is_empty() {
        return (Vec::new(), vec![0]);
    }
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    if !lower {
        order.reverse();
    }
    order.sort_by_key(|&i| level_of[rows[i as usize].sup as usize]);
    let lev = |i: u32| level_of[rows[i as usize].sup as usize];
    let mut ptr = vec![0u32];
    for w in 1..order.len() {
        if lev(order[w]) != lev(order[w - 1]) {
            ptr.push(w as u32);
        }
    }
    ptr.push(order.len() as u32);
    (order, ptr)
}

impl Schedule {
    /// Compile the schedule for every rank of `plan` (rayon-parallel).
    pub fn compile(plan: &Plan, key: ScheduleKey) -> Schedule {
        use rayon::prelude::*;
        let levels = FactorLevels::compute(plan);
        let ranks: Vec<RankSchedule> = (0..plan.nranks())
            .into_par_iter()
            .map(|r| compile_rank(plan, key, r, &levels))
            .collect();
        Schedule { key, ranks }
    }
}

fn compile_rank(plan: &Plan, key: ScheduleKey, rank: usize, levels: &FactorLevels) -> RankSchedule {
    let (x, y, z) = plan.coords(rank);
    let grid = &plan.grids[z];
    let d = plan.depth;

    let (mut l_steps, mut u_steps) = if key.baseline {
        compile_baseline_steps(plan, grid, x, y, z, levels)
    } else {
        // Under the live trim the passes are scoped to the grid's live
        // supernodes: dead replicated ancestors would only ever compute
        // provable zeros, and the trimmed allreduce no longer delivers
        // their `y`, so they must not be scheduled either. The scoping is
        // closed (live sets are upward-closed under L-blocks), so every
        // inner block/contributor filter is semantically unchanged.
        let live_supers: Vec<u32>;
        let (scope_sups, scope_set): (&[u32], &SupSet) = match plan.trim() {
            ZTrim::Live => {
                live_supers = grid
                    .supers
                    .iter()
                    .copied()
                    .filter(|&k| grid.live.contains(k as usize))
                    .collect();
                (&live_supers, &grid.live)
            }
            ZTrim::Dense => (&grid.supers, &grid.member),
        };
        let l = PassSched::compile_l(
            plan,
            scope_set,
            x,
            y,
            scope_sups,
            false,
            key.tree_comm,
            0,
            &levels.l,
        );
        let u = PassSched::compile_u(
            plan,
            scope_set,
            x,
            y,
            scope_sups,
            scope_set,
            &[],
            key.tree_comm,
            1,
            &levels.u,
        );
        (
            vec![SolveStep {
                pass: Some(l),
                exchange: None,
            }],
            vec![SolveStep {
                pass: Some(u),
                exchange: None,
            }],
        )
    };

    // The inter-grid roles are key-independent (the allreduce variants
    // are selected at run time) and cheap; compile them always.
    let zsteps: Vec<Option<ZStep>> = (0..d)
        .map(|l| {
            let (peer, to_smaller) = partner(z, l)?;
            let zhi = if to_smaller { z } else { z + (1 << l) };
            let (sups, dense_doubles) = shared_sups(plan, grid, l, x, y, zhi);
            Some(ZStep {
                peer,
                to_smaller,
                sups,
                dense_doubles,
            })
        })
        .collect();
    let sym = plan.fact.lu.sym();
    let naive: Vec<NaiveNode> = grid
        .path
        .iter()
        .take(d)
        .map(|&t| {
            let mut sups = Vec::new();
            let mut dense_doubles = 0u64;
            for k in plan.node_supers(t) {
                let ku = k as usize;
                if plan.owner_xy(ku) != (x, y) {
                    continue;
                }
                dense_doubles += sym.sup_width(ku) as u64;
                let keep = match plan.trim() {
                    ZTrim::Dense => true,
                    // Keep the supernode iff some grid replicating the
                    // node contributes a nonzero partial — the same
                    // predicate on every member of the node's
                    // subcommunicator, so the collective stays matched.
                    ZTrim::Live => {
                        let g0 = plan.min_z(t);
                        (g0..g0 + plan.n_grids_of(t)).any(|g| plan.grids[g].live.contains(ku))
                    }
                };
                if keep {
                    sups.push(k);
                }
            }
            NaiveNode {
                node: t as u32,
                sups,
                dense_doubles,
            }
        })
        .collect();

    let l_slots = SlotLayout::compile(plan, &mut l_steps, true);
    let u_slots = SlotLayout::compile(plan, &mut u_steps, false);
    // Solved values: every column a pass stores, every allreduce piece and
    // every piece the baseline's U exchanges move.
    let mut sups: Vec<u32> = l_steps
        .iter()
        .chain(&u_steps)
        .filter_map(|s| s.pass.as_ref())
        .flat_map(|p| p.cols.iter().map(|c| c.sup))
        .chain(
            u_steps
                .iter()
                .filter_map(|s| s.exchange.as_ref())
                .flat_map(|x| x.sups.iter().copied()),
        )
        .chain(zsteps.iter().flatten().flat_map(|s| s.sups.iter().copied()))
        .chain(naive.iter().flat_map(|n| n.sups.iter().copied()))
        .collect();
    sups.sort_unstable();
    sups.dedup();
    let mut off = Vec::with_capacity(sups.len() + 1);
    off.push(0u32);
    for &k in &sups {
        off.push(off[off.len() - 1] + sym.sup_width(k as usize) as u32);
    }

    RankSchedule {
        l_steps,
        u_steps,
        zsteps,
        naive,
        vals: SupIndex { sups, off },
        l_slots,
        u_slots,
    }
}

/// Grid `z`'s partner at pairwise step `step` of a binomial z-tree, and
/// whether `z` is the larger of the pair; `None` when it sits out.
fn partner(z: usize, step: usize) -> Option<(u32, bool)> {
    match z % (2 << step) {
        m if m == 1 << step => Some(((z - (1 << step)) as u32, true)),
        0 => Some(((z + (1 << step)) as u32, false)),
        _ => None,
    }
}

/// Supernodes grid `z` exchanges at sparse-allreduce step `l`: the path
/// nodes shared with the step-`l` partner (levels `0 .. depth − l − 1`)
/// restricted to diagonal owner `(x, y)`. Under [`ZTrim::Live`] the list
/// is further restricted to supernodes some grid of the step's *sender
/// subtree* `[zhi, zhi + 2^l)` is live for: exactly those can carry a
/// nonzero partial up in the reduce, and (by the need/live equivalence)
/// exactly those are consumed back down that subtree in the broadcast.
/// `zhi` is the larger-z partner, so the range — hence the list — is
/// identical on both partners. Returns the list plus the per-RHS doubles
/// of the untrimmed list (the dense baseline's payload).
fn shared_sups(
    plan: &Plan,
    grid: &GridSet,
    l: usize,
    x: usize,
    y: usize,
    zhi: usize,
) -> (Vec<u32>, u64) {
    let sym = plan.fact.lu.sym();
    let mut out = Vec::new();
    let mut dense_doubles = 0u64;
    for &t in grid.path.iter().take(plan.depth - l) {
        for k in plan.node_supers(t) {
            let ku = k as usize;
            if plan.owner_xy(ku) != (x, y) {
                continue;
            }
            dense_doubles += sym.sup_width(ku) as u64;
            let keep = match plan.trim() {
                ZTrim::Dense => true,
                ZTrim::Live => (zhi..zhi + (1 << l)).any(|g| plan.grids[g].live.contains(ku)),
            };
            if keep {
                out.push(k);
            }
        }
    }
    (out, dense_doubles)
}

/// The baseline's level-by-level step lists (ICS'19 traversal).
fn compile_baseline_steps(
    plan: &Plan,
    grid: &GridSet,
    x: usize,
    y: usize,
    z: usize,
    levels: &FactorLevels,
) -> (Vec<SolveStep>, Vec<SolveStep>) {
    let d = plan.depth;
    let nsup = plan.fact.lu.sym().n_supernodes();

    // L phase: leaves to root; partials pairwise-reduced toward the
    // smaller grid of each pair after every level.
    let mut l_steps = Vec::with_capacity(d + 1);
    for lev in (0..=d).rev() {
        let active = z.is_multiple_of(1 << (d - lev));
        let pass = if active {
            let cols = plan.node_supers(grid.path[lev]);
            (!cols.is_empty()).then(|| {
                PassSched::compile_l(
                    plan,
                    &grid.member,
                    x,
                    y,
                    &cols,
                    true,
                    false,
                    (d - lev) as u64,
                    &levels.l,
                )
            })
        } else {
            None
        };
        let exchange = (lev > 0)
            .then(|| {
                exchange(z, d - lev, TAG_ZRED + lev as u64, true, || {
                    let ancestors = grid.path.iter().take(lev);
                    let sups = ancestors.flat_map(|&t| plan.node_supers(t));
                    sups.filter(|&i| i as usize % plan.px == x).collect()
                })
            })
            .flatten();
        l_steps.push(SolveStep { pass, exchange });
    }

    // U phase: root to leaves; solved pieces pairwise-broadcast to the
    // grids activating at the next level.
    let mut u_steps = Vec::with_capacity(d + 1);
    for lev in 0..=d {
        let active = z.is_multiple_of(1 << (d - lev));
        let pass = if active {
            let rows = plan.node_supers(grid.path[lev]);
            let ext: Vec<u32> = grid
                .path
                .iter()
                .take(lev)
                .flat_map(|&t| plan.node_supers(t))
                .collect();
            (!rows.is_empty()).then(|| {
                let mut row_set = SupSet::new(nsup);
                for &k in &rows {
                    row_set.insert(k as usize);
                }
                PassSched::compile_u(
                    plan,
                    &grid.member,
                    x,
                    y,
                    &rows,
                    &row_set,
                    &ext,
                    false,
                    (d + 1 + lev) as u64,
                    &levels.u,
                )
            })
        } else {
            None
        };
        let exchange = (lev < d)
            .then(|| {
                exchange(z, d - lev - 1, TAG_ZBC + lev as u64, false, || {
                    let solved = grid.path.iter().take(lev + 1);
                    let sups = solved.flat_map(|&t| plan.node_supers(t));
                    sups.filter(|&k| plan.owner_xy(k as usize) == (x, y))
                        .collect()
                })
            })
            .flatten();
        u_steps.push(SolveStep { pass, exchange });
    }
    (l_steps, u_steps)
}

/// The baseline's pairwise exchange at `step` under `tag`: the larger grid
/// of the pair sends when `up` (the reduce), the smaller otherwise.
fn exchange(
    z: usize,
    step: usize,
    tag: u64,
    up: bool,
    sups: impl FnOnce() -> Vec<u32>,
) -> Option<ZExchange> {
    let (peer, upper) = partner(z, step)?;
    Some(ZExchange {
        peer,
        tag,
        send: upper == up,
        sups: sups(),
        slots: Vec::new(),
    })
}

impl PassSched {
    /// Compile one L pass: per-column broadcast links + blocks for my
    /// owned columns, per-row reduction links + `fmod0` for my rows.
    /// `scope` is the supernode set the pass's block and contributor
    /// filters close over (grid membership, or the live subset under the
    /// z-exchange trim). `contrib_all` widens the row-contributor closure
    /// to every `blocks_left` entry (baseline: merged-in descendant
    /// partials also count).
    #[allow(clippy::too_many_arguments)]
    fn compile_l(
        plan: &Plan,
        scope: &SupSet,
        x: usize,
        y: usize,
        cols_in: &[u32],
        contrib_all: bool,
        tree_comm: bool,
        epoch: u64,
        levels: &LevelSets,
    ) -> PassSched {
        let sym = plan.fact.lu.sym();
        let py = plan.py;
        let mut cols = Vec::new();
        let mut scatter = Vec::new();
        let mut expected = 0u32;
        for &k in cols_in {
            if let Some(c) = compile_col(plan, k, true, scope, (x, y), tree_comm, &mut scatter) {
                expected += u32::from(!c.is_root);
                cols.push(c);
            }
        }

        let rows = compile_rows(
            plan,
            &cols,
            cols_in,
            x,
            y,
            &mut expected,
            |iu| {
                sym.blocks_left(iu)
                    .iter()
                    .filter(|&&k| contrib_all || scope.contains(k as usize))
                    .map(|&k| k as usize % py)
                    .collect()
            },
            tree_comm,
        );

        let (level_order, level_ptr) = level_program(&rows, &levels.level_of, true);
        PassSched {
            epoch,
            lower: true,
            expected,
            cols,
            rows,
            ext_roots: Vec::new(),
            scatter,
            level_order,
            level_ptr,
        }
    }

    /// Compile one U pass. `scope` is the supernode set the usum
    /// contributor closure runs over (grid membership, or the live subset
    /// under the z-exchange trim), `rows_in` the supernodes solved here,
    /// `row_set` their membership set, `ext` the already-solved ancestor
    /// columns announced at pass start (baseline only).
    #[allow(clippy::too_many_arguments)]
    fn compile_u(
        plan: &Plan,
        scope: &SupSet,
        x: usize,
        y: usize,
        rows_in: &[u32],
        row_set: &SupSet,
        ext: &[u32],
        tree_comm: bool,
        epoch: u64,
        levels: &LevelSets,
    ) -> PassSched {
        let sym = plan.fact.lu.sym();
        let py = plan.py;
        let mut cols = Vec::new();
        let mut scatter = Vec::new();
        let mut ext_roots = Vec::new();
        let mut expected = 0u32;

        let all = rows_in.iter().map(|&j| (j, false));
        for (j, is_ext) in all.chain(ext.iter().map(|&j| (j, true))) {
            // Receivers of x(J): ranks owning U(K, J) with K solved here.
            let Some(c) = compile_col(plan, j, false, row_set, (x, y), tree_comm, &mut scatter)
            else {
                continue;
            };
            expected += u32::from(!c.is_root);
            if is_ext && c.is_root {
                ext_roots.push(j);
            }
            cols.push(c);
        }
        cols.sort_by_key(|c| c.sup);

        let rows = compile_rows(
            plan,
            &cols,
            rows_in,
            x,
            y,
            &mut expected,
            |ku| {
                // usum reduction over process columns owning U(K, ·).
                sym.blocks_below(ku)
                    .iter()
                    .filter(|&&j| scope.contains(j as usize))
                    .map(|&j| j as usize % py)
                    .collect()
            },
            tree_comm,
        );

        let (level_order, level_ptr) = level_program(&rows, &levels.level_of, false);
        PassSched {
            epoch,
            lower: false,
            expected,
            cols,
            rows,
            ext_roots,
            scatter,
            level_order,
            level_ptr,
        }
    }
}

/// Compile column `j`'s broadcast links and rank `(x, y)`'s blocks of it
/// — `L(I, j)` for `I` below `j` in L passes, `U(K, j)` for `K` left of
/// it in U passes, over the supernodes `keep` admits. `None` unless the
/// rank takes part in the column.
fn compile_col(
    plan: &Plan,
    j: u32,
    lower: bool,
    keep: &SupSet,
    (x, y): (usize, usize),
    tree_comm: bool,
    scatter: &mut Vec<u32>,
) -> Option<ColSched> {
    let sym = plan.fact.lu.sym();
    let (px, ju) = (plan.px, j as usize);
    if ju % plan.py != y {
        return None;
    }
    let others = if lower {
        sym.blocks_below(ju)
    } else {
        sym.blocks_left(ju)
    };
    let others = || {
        others
            .iter()
            .map(|&k| k as usize)
            .filter(|&k| keep.contains(k))
    };
    let links = tree_links(
        &member_list(ju % px, others().map(|k| k % px)),
        x,
        tree_comm,
    )?;
    let mut col = ColSched {
        sup: j,
        children: links
            .children
            .iter()
            .map(|&r| (r + px * y) as u32)
            .collect(),
        is_root: links.is_root,
        blocks: Vec::new(),
        total_rows: 0,
        maxw: 1,
    };
    for k in others().filter(|&k| k % px == x) {
        // The panel holding the block, and where its indices count from:
        // an L block's first row, a U block's source column `J`.
        let (panel, (lo, hi)) = if lower {
            (ju, kernels::block_range(&plan.fact, ju, k))
        } else {
            (k, kernels::block_range(&plan.fact, k, ju))
        };
        let start = if lower {
            sym.rows_below(panel)[lo] as usize
        } else {
            sym.sup_cols(ju).start
        };
        let (dense_start, scatter_off) = block_addr(sym.rows_below(panel), lo, hi, start, scatter);
        col.blocks.push(BlockSched {
            sup: k as u32,
            lo: lo as u32,
            hi: hi as u32,
            dense_start,
            scatter_off,
            slot: 0,
            row: NO_ROW,
        });
        col.total_rows += (hi - lo) as u32;
        col.maxw = col.maxw.max(sym.sup_width(k) as u32);
    }
    Some(col)
}

/// Precompile the addressing of row positions `[lo, hi)` relative to
/// supernode start `start`: a dense contiguous run becomes its start
/// offset; anything else gets its per-row indices appended to the pass
/// scatter pool. Returns `(dense_start, scatter_off)` for [`BlockSched`].
fn block_addr(rows: &[u32], lo: usize, hi: usize, start: usize, pool: &mut Vec<u32>) -> (u32, u32) {
    let first = rows[lo] as usize - start;
    if rows[hi - 1] as usize - rows[lo] as usize == hi - 1 - lo {
        (first as u32, 0)
    } else {
        let off = pool.len() as u32;
        pool.extend(rows[lo..hi].iter().map(|&q| q - start as u32));
        (SCATTERED, off)
    }
}

/// Shared row-side compilation: reduction links and `fmod0` counters for
/// every trigger row of `rows_in` this rank owns a piece of.
#[allow(clippy::too_many_arguments)]
fn compile_rows(
    plan: &Plan,
    cols: &[ColSched],
    rows_in: &[u32],
    x: usize,
    y: usize,
    expected: &mut u32,
    contributors: impl Fn(usize) -> Vec<usize>,
    tree_comm: bool,
) -> Vec<RowSched> {
    let (px, py) = (plan.px, plan.py);
    let mut local_pending: HashMap<u32, u32> = HashMap::new();
    for c in cols {
        for b in &c.blocks {
            *local_pending.entry(b.sup).or_insert(0) += 1;
        }
    }
    let mut rows = Vec::new();
    for &i in rows_in {
        let iu = i as usize;
        if iu % px != x {
            continue;
        }
        let members = member_list(iu % py, contributors(iu).into_iter());
        let Some(links) = tree_links(&members, y, tree_comm) else {
            continue;
        };
        let n_children = links.children.len() as u32;
        *expected += n_children;
        rows.push(RowSched {
            sup: i,
            fmod0: local_pending.get(&i).copied().unwrap_or(0) + n_children,
            parent: links.parent.map(|c| (x + px * c) as u32),
            children: links
                .children
                .iter()
                .map(|&c| (x + px * c) as u32)
                .collect(),
            acc: 0,
            part: 0,
        });
    }
    rows
}

/// Cost hooks parameterizing the shared pass traversal: the CPU engine
/// advances its rank's serial clock per kernel; the GPU engine schedules
/// fused tasks on a bounded-lane executor and tracks per-row readiness.
/// All *structure* — work-queue order, `fmod` counting, receive loop,
/// external announcements — lives once in [`run_pass`].
pub trait PassEngine {
    /// Solve the diagonal block of trigger row `row`; return the solved
    /// vector (its availability time is engine-internal state). Shared
    /// ownership lets the interpreter forward it to broadcast children as
    /// a refcount bump, not a copy.
    fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]>;
    /// Record a solved vector (diagonal result or broadcast reception).
    fn store_solved(&mut self, sup: u32, v: &[f64]);
    /// Fetch a vector solved in an earlier pass (U external columns).
    fn solved(&self, sup: u32) -> Arc<[f64]>;
    /// Forward a solved vector to my broadcast children (zero-copy: the
    /// transport enqueues clones of the `Arc`).
    fn forward(&mut self, col: &ColSched, v: &Arc<[f64]>);
    /// Send my partial sum for `row` to its reduction `parent`.
    fn send_partial(&mut self, row: &RowSched, parent: u32);
    /// Apply my local blocks of `col` to the partial sums. `scatter` is
    /// the pass's shared scatter-index pool; resolve a block's targets
    /// with [`BlockSched::targets`].
    fn apply_column(&mut self, col: &ColSched, v: &[f64], scatter: &[u32]);
    /// Accumulate a received partial-sum payload into `row`. `src` is the
    /// sending grid rank (used for order-independent accumulation).
    fn add_partial(&mut self, row: &RowSched, src: u32, payload: &[f64]);
    /// Blocking epoch-matched receive.
    fn recv(&mut self, epoch: u64) -> RecvEvent;
    /// Observability hook: the interpreter recognised `ev` as a duplicated
    /// delivery and dropped it without touching any counter.
    fn on_duplicate_dropped(&mut self, _ev: &RecvEvent) {}
    /// Observability hook: a partial sum for `row` was folded in but the
    /// trigger row still waits on `outstanding` more contributions (an
    /// `fmod` stall — the row cannot fire yet).
    fn on_fmod_stall(&mut self, _row: &RowSched, _outstanding: u32) {}
    /// Observability hook (level executor only): the interpreter is parked
    /// at level barrier `level`, about to block for a message, because
    /// `row` still waits on `outstanding` contributions. Engines use this
    /// to attribute the next receive's wait time to the barrier.
    fn on_level_wait(&mut self, _level: u32, _row: &RowSched, _outstanding: u32) {}
}

/// One message delivered to a pass: a solved column vector (broadcast
/// tree) or a partial sum (reduction tree), with its origin rank so the
/// interpreter can detect duplicated deliveries.
#[derive(Clone, Debug)]
pub struct RecvEvent {
    /// True for a solved vector, false for a partial sum.
    pub vector: bool,
    /// Supernode the message concerns.
    pub sup: u32,
    /// Sending grid rank.
    pub src: u32,
    /// Message data — the transport's buffer, shared not copied.
    pub payload: Arc<[f64]>,
}

/// Caller-owned working state of [`run_pass_with`]: the `fmod` counters,
/// ready queue, and delivered-message set of one pass. Reused across
/// passes (and solves) so the pass interpreter itself performs no heap
/// allocation — the steady-state allocation audit brackets everything
/// after [`PassScratch::reset`].
#[derive(Default)]
pub struct PassScratch {
    pub(crate) fmod: Vec<u32>,
    pub(crate) work: Vec<u32>,
    pub(crate) seen: InEdges,
}

/// Delivery bitset over a pass's compiled in-edges, the key of duplicate
/// detection: bit `c` is the broadcast vector of column `c`, bit
/// `first[r] + j` the partial from row `r`'s `j`-th reduction child.
#[derive(Default)]
pub(crate) struct InEdges {
    bits: Vec<u64>,
    first: Vec<u32>,
}

impl InEdges {
    fn reset(&mut self, pass: &PassSched) {
        let mut n = pass.cols.len();
        self.first.clear();
        for r in &pass.rows {
            self.first.push(n as u32);
            n += r.children.len();
        }
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Record a delivery: `Some(true)` the first time its in-edge carries
    /// a message, `Some(false)` for a repeat, `None` when the pass
    /// compiled no such edge.
    fn insert(&mut self, pass: &PassSched, ev: &RecvEvent) -> Option<bool> {
        let bit = if ev.vector {
            let c = pass.col_index(ev.sup)?;
            (!pass.cols[c].is_root).then_some(c)?
        } else {
            let r = pass.row_index(ev.sup)?;
            let j = pass.rows[r].children.iter().position(|&c| c == ev.src)?;
            self.first[r] as usize + j
        };
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        Some(fresh)
    }
}

impl PassScratch {
    /// Fresh (empty) scratch; grows to a pass's size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the scratch for `pass` and load its initial state. All
    /// capacity growth happens here, before the audited steady-state
    /// region starts: `work` can hold every trigger row (each row enters
    /// the ready queue exactly once) and `seen` every compiled in-edge.
    pub(crate) fn reset(&mut self, pass: &PassSched) {
        self.fmod.clear();
        self.fmod.extend(pass.rows.iter().map(|r| r.fmod0));
        self.work.clear();
        self.work.reserve(pass.rows.len());
        self.work
            .extend((0..pass.rows.len() as u32).filter(|&i| pass.rows[i as usize].fmod0 == 0));
        // `rows` is ascending; L pops ascending, U pops descending.
        if pass.lower {
            self.work.reverse();
        }
        self.seen.reset(pass);
    }
}

/// Interpret one compiled 2D pass: the message-driven traversal shared
/// by the CPU (Alg. 3) and multi-GPU (Alg. 5) executors.
///
/// Duplicated deliveries (fault injection, or a retransmitting network)
/// are detected by their compiled in-edge and dropped idempotently, so an
/// `fmod` counter is never decremented twice for one logical message.
///
/// This convenience form allocates throwaway scratch; the solvers thread
/// a reused [`PassScratch`] through [`run_pass_with`] instead.
pub fn run_pass<E: PassEngine>(engine: &mut E, pass: &PassSched) {
    let mut scratch = PassScratch::default();
    run_pass_impl(engine, pass, &mut scratch, true)
}

/// [`run_pass`] with caller-owned scratch, so repeated passes reuse the
/// same buffers and the interpreter allocates nothing.
pub fn run_pass_with<E: PassEngine>(engine: &mut E, pass: &PassSched, scratch: &mut PassScratch) {
    run_pass_impl(engine, pass, scratch, true)
}

/// `run_pass` with duplicate detection disabled. Exists only so tests can
/// prove the dedup matters: under duplicated deliveries this variant must
/// fail the end-of-pass validation (a mutation check).
#[doc(hidden)]
pub fn run_pass_no_dedup<E: PassEngine>(engine: &mut E, pass: &PassSched) {
    let mut scratch = PassScratch::default();
    run_pass_impl(engine, pass, &mut scratch, false)
}

fn run_pass_impl<E: PassEngine>(
    engine: &mut E,
    pass: &PassSched,
    scratch: &mut PassScratch,
    dedup: bool,
) {
    scratch.reset(pass);
    // Everything below is the steady-state message loop: under the audit
    // scope it must not touch the heap (asserted by tests/alloc_audit.rs).
    let _audit = crate::audit::pass_scope();
    let PassScratch { fmod, work, seen } = scratch;

    announce_ext_roots(engine, pass, fmod, work);

    let mut received = 0u32;
    loop {
        while let Some(idx) = work.pop() {
            fire_row(engine, pass, idx as usize, fmod, work);
        }
        if received >= pass.expected {
            break;
        }
        recv_and_dispatch(engine, pass, fmod, work, seen, &mut received, dedup);
    }
    if !work.is_empty() || fmod.iter().any(|&c| c != 0) {
        panic!(
            "pass exhausted its receive budget with unmet dependencies{}",
            pass_report(pass, fmod, received)
        );
    }
}

/// Announce externally solved columns this rank roots (baseline U passes).
pub(crate) fn announce_ext_roots<E: PassEngine>(
    engine: &mut E,
    pass: &PassSched,
    fmod: &mut [u32],
    work: &mut Vec<u32>,
) {
    for &j in &pass.ext_roots {
        let v = engine.solved(j);
        let col = pass.col(j).expect("ext root column compiled");
        engine.forward(col, &v);
        apply_and_complete(engine, pass, col, &v, fmod, work);
    }
}

/// Fire trigger row `idx`: solve + broadcast + local apply at the
/// diagonal owner, a partial-sum send everywhere else. Shared by the
/// tree-driven work queue and the level executor's precompiled order.
pub(crate) fn fire_row<E: PassEngine>(
    engine: &mut E,
    pass: &PassSched,
    idx: usize,
    fmod: &mut [u32],
    work: &mut Vec<u32>,
) {
    let row = &pass.rows[idx];
    match row.parent {
        None => {
            let v = engine.solve_diag(row);
            if let Some(col) = pass.col(row.sup) {
                engine.forward(col, &v);
                apply_and_complete(engine, pass, col, &v, fmod, work);
            }
            engine.store_solved(row.sup, &v);
        }
        Some(p) => engine.send_partial(row, p),
    }
}

/// Block for one epoch-matched message and dispatch it: duplicates are
/// dropped idempotently (without consuming receive budget), vectors are
/// forwarded/applied, partials folded into their trigger row. Shared by
/// both executors so their delivery semantics cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recv_and_dispatch<E: PassEngine>(
    engine: &mut E,
    pass: &PassSched,
    fmod: &mut [u32],
    work: &mut Vec<u32>,
    seen: &mut InEdges,
    received: &mut u32,
    dedup: bool,
) {
    // A stalled receive panics in the simulator's watchdog; append the
    // pass-level view (pending counters, tree positions) so the dump
    // says *what* this rank was still waiting for.
    let ev =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.recv(pass.epoch))) {
            Ok(ev) => ev,
            Err(cause) => {
                let inner = cause
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "receive panicked".to_string());
                std::panic::resume_unwind(Box::new(format!(
                    "{inner}{}",
                    pass_report(pass, fmod, *received)
                )));
            }
        };
    let Some(fresh) = seen.insert(pass, &ev) else {
        panic!(
            "excess {} for sup {} from src {}: no compiled in-edge carries it{}",
            if ev.vector { "vector" } else { "partial sum" },
            ev.sup,
            ev.src,
            pass_report(pass, fmod, *received)
        );
    };
    if dedup && !fresh {
        // Duplicate delivery: drop it without touching counters.
        engine.on_duplicate_dropped(&ev);
        return;
    }
    *received += 1;
    if ev.vector {
        if let Some(col) = pass.col(ev.sup) {
            engine.forward(col, &ev.payload);
            apply_and_complete(engine, pass, col, &ev.payload, fmod, work);
        }
        engine.store_solved(ev.sup, &ev.payload);
    } else {
        let idx = pass
            .row_index(ev.sup)
            .expect("partial targets a trigger row");
        if fmod[idx] == 0 {
            panic!(
                "excess partial sum for already-complete trigger row sup {} (src {}){}",
                ev.sup,
                ev.src,
                pass_report(pass, fmod, *received)
            );
        }
        engine.add_partial(&pass.rows[idx], ev.src, &ev.payload);
        fmod[idx] -= 1;
        if fmod[idx] == 0 {
            work.push(idx as u32);
        } else {
            engine.on_fmod_stall(&pass.rows[idx], fmod[idx]);
        }
    }
}

/// Per-pass diagnostic appended to stall/validation panics: which trigger
/// rows are still pending, their remaining counters, and their reduction
/// tree position.
pub(crate) fn pass_report(pass: &PassSched, fmod: &[u32], received: u32) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "pass diagnostics: epoch {:#x} ({}-solve), received {received}/{} expected",
        pass.epoch,
        if pass.lower { "L" } else { "U" },
        pass.expected,
    );
    let pending: Vec<(usize, &RowSched)> = pass
        .rows
        .iter()
        .enumerate()
        .filter(|&(i, _)| fmod[i] != 0)
        .collect();
    let _ = writeln!(s, "  pending trigger rows: {}", pending.len());
    for (i, row) in pending {
        let _ = writeln!(
            s,
            "    sup {:>6}: {}/{} contributions outstanding, tree position: {}",
            row.sup,
            fmod[i],
            row.fmod0,
            match row.parent {
                None => "reduction root (diagonal owner)".to_string(),
                Some(p) => format!("leaf/inner, parent grid rank {p}"),
            },
        );
    }
    s
}

/// A column's vector became available: apply its blocks and retire the
/// dependency from every trigger row it touches. Rows outside the pass
/// just accumulate (baseline ancestor rows).
pub(crate) fn apply_and_complete<E: PassEngine>(
    engine: &mut E,
    pass: &PassSched,
    col: &ColSched,
    v: &[f64],
    fmod: &mut [u32],
    work: &mut Vec<u32>,
) {
    engine.apply_column(col, v, &pass.scatter);
    for b in col.blocks.iter().filter(|b| b.row != NO_ROW) {
        let idx = b.row as usize;
        fmod[idx] -= 1;
        if fmod[idx] == 0 {
            work.push(b.row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lufactor::factorize;
    use ordering::SymbolicOptions;
    use sparse::gen;
    use std::sync::Arc;

    fn plan(px: usize, py: usize, pz: usize) -> Plan {
        let a = gen::poisson2d_9pt(12, 12);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        Plan::new(f, px, py, pz)
    }

    const KEYS: [ScheduleKey; 3] = [
        ScheduleKey {
            baseline: false,
            tree_comm: true,
        },
        ScheduleKey {
            baseline: false,
            tree_comm: false,
        },
        ScheduleKey {
            baseline: true,
            tree_comm: false,
        },
    ];

    #[test]
    fn slot_keys_never_collide_across_kinds() {
        assert!(SlotLayout::key_local(u32::MAX) < SlotLayout::key_partial(0));
        assert!(SlotLayout::key_partial(u32::MAX) < SlotLayout::key_exchange(0));
    }

    #[test]
    fn compile_is_deterministic() {
        let p = plan(2, 3, 4);
        for key in KEYS {
            assert_eq!(Schedule::compile(&p, key), Schedule::compile(&p, key));
        }
    }

    /// Per grid and per pass epoch, the expected receive counts must
    /// equal the send counts implied by the tree links (otherwise a
    /// solve would deadlock or terminate early).
    #[test]
    fn expected_receives_match_sends() {
        let p = plan(2, 2, 4);
        for key in KEYS {
            let s = Schedule::compile(&p, key);
            for z in 0..p.pz {
                use std::collections::HashMap;
                // epoch -> (sum expected, sum sends)
                let mut per_epoch: HashMap<u64, (u64, u64)> = HashMap::new();
                for x in 0..p.px {
                    for y in 0..p.py {
                        let rs = &s.ranks[p.rank_of(x, y, z)];
                        for step in rs.l_steps.iter().chain(&rs.u_steps) {
                            let Some(pass) = &step.pass else { continue };
                            let e = per_epoch.entry(pass.epoch).or_default();
                            e.0 += pass.expected as u64;
                            for c in &pass.cols {
                                e.1 += c.children.len() as u64;
                            }
                            for r in &pass.rows {
                                if r.parent.is_some() {
                                    e.1 += 1;
                                }
                            }
                        }
                    }
                }
                for (epoch, (exp, sent)) in per_epoch {
                    assert_eq!(exp, sent, "key {key:?} grid {z} epoch {epoch}");
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip_is_identity() {
        let p = plan(2, 2, 2);
        for key in KEYS {
            let s = Schedule::compile(&p, key);
            let js = serde_json::to_string(&s).unwrap();
            let back: Schedule = serde_json::from_str(&js).unwrap();
            assert_eq!(s, back);
        }
    }

    /// The plan-level cache compiles each key once and returns shared
    /// references thereafter.
    #[test]
    fn plan_cache_compiles_once_per_key() {
        let p = plan(2, 2, 2);
        assert_eq!(p.schedule_compiles(), 0);
        let key = KEYS[0];
        let a = p.schedule(key);
        let b = p.schedule(key);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(p.schedule_compiles(), 1);
        let _ = p.schedule(KEYS[2]);
        assert_eq!(p.schedule_compiles(), 2);
    }

    /// Baseline steps must pair every send with the partner's receive.
    #[test]
    fn baseline_exchanges_pair_up() {
        let p = plan(2, 2, 8);
        let s = Schedule::compile(
            &p,
            ScheduleKey {
                baseline: true,
                tree_comm: false,
            },
        );
        for x in 0..p.px {
            for y in 0..p.py {
                for z in 0..p.pz {
                    let rs = &s.ranks[p.rank_of(x, y, z)];
                    for (si, step) in rs.l_steps.iter().chain(&rs.u_steps).enumerate() {
                        let Some(xch) = &step.exchange else { continue };
                        let peer = &s.ranks[p.rank_of(x, y, xch.peer as usize)];
                        let mirror = peer
                            .l_steps
                            .iter()
                            .chain(&peer.u_steps)
                            .nth(si)
                            .and_then(|st| st.exchange.as_ref())
                            .expect("partner has a mirrored exchange");
                        assert_eq!(mirror.peer as usize, z);
                        assert_eq!(mirror.tag, xch.tag);
                        assert_ne!(mirror.send, xch.send);
                        assert_eq!(mirror.sups.len(), xch.sups.len());
                    }
                }
            }
        }
    }

    /// Script-driven engine for exercising `run_pass` without a cluster.
    struct MockEngine {
        script: Vec<RecvEvent>,
        next: usize,
        diag_solved: Vec<u32>,
        partials: Vec<(u32, u32)>,
        sent: Vec<u32>,
    }

    impl MockEngine {
        fn new(script: Vec<RecvEvent>) -> Self {
            MockEngine {
                script,
                next: 0,
                diag_solved: Vec::new(),
                partials: Vec::new(),
                sent: Vec::new(),
            }
        }
    }

    impl PassEngine for MockEngine {
        fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
            self.diag_solved.push(row.sup);
            vec![0.0].into()
        }
        fn store_solved(&mut self, _sup: u32, _v: &[f64]) {}
        fn solved(&self, _sup: u32) -> Arc<[f64]> {
            vec![0.0].into()
        }
        fn forward(&mut self, _col: &ColSched, _v: &Arc<[f64]>) {}
        fn send_partial(&mut self, row: &RowSched, _parent: u32) {
            self.sent.push(row.sup);
        }
        fn apply_column(&mut self, _col: &ColSched, _v: &[f64], _scatter: &[u32]) {}
        fn add_partial(&mut self, row: &RowSched, src: u32, _payload: &[f64]) {
            self.partials.push((row.sup, src));
        }
        fn recv(&mut self, _epoch: u64) -> RecvEvent {
            let ev = self.script[self.next].clone();
            self.next += 1;
            ev
        }
    }

    /// A pass where a duplicated vector delivery precedes the one real
    /// partial sum. With dedup the duplicate is dropped and the pass
    /// completes; see the mutation check below for the broken variant.
    fn duplicated_delivery_pass() -> (PassSched, Vec<RecvEvent>) {
        let pass = PassSched {
            epoch: 0x7 << 48,
            lower: true,
            expected: 2,
            cols: vec![ColSched {
                sup: 7,
                children: vec![],
                is_root: false,
                blocks: vec![],
                total_rows: 0,
                maxw: 1,
            }],
            rows: vec![RowSched {
                sup: 5,
                fmod0: 1,
                parent: None,
                children: vec![2],
                acc: 0,
                part: 0,
            }],
            ext_roots: vec![],
            scatter: vec![],
            level_order: vec![0],
            level_ptr: vec![0, 1],
        };
        let vec_ev = RecvEvent {
            vector: true,
            sup: 7,
            src: 1,
            payload: vec![0.0].into(),
        };
        let script = vec![
            vec_ev.clone(),
            vec_ev, // duplicated delivery of the same vector
            RecvEvent {
                vector: false,
                sup: 5,
                src: 2,
                payload: vec![0.0].into(),
            },
        ];
        (pass, script)
    }

    /// Duplicate deliveries are dropped idempotently: the duplicate does
    /// not consume receive budget, and the real partial still lands.
    #[test]
    fn run_pass_dedup_survives_duplicated_delivery() {
        let (pass, script) = duplicated_delivery_pass();
        let mut eng = MockEngine::new(script);
        run_pass(&mut eng, &pass);
        assert_eq!(eng.next, 3, "all three deliveries consumed");
        assert_eq!(eng.partials, vec![(5, 2)]);
        assert_eq!(eng.diag_solved, vec![5]);
    }

    /// Mutation check: with dedup disabled, the duplicate eats the receive
    /// budget, the real partial is never consumed, and the end-of-pass
    /// validation must fire with a diagnostic dump — not a hang and not a
    /// silent wrong answer.
    #[test]
    fn run_pass_without_dedup_is_caught_by_validation() {
        let (pass, script) = duplicated_delivery_pass();
        let mut eng = MockEngine::new(script);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pass_no_dedup(&mut eng, &pass);
        }))
        .expect_err("broken dedup must be detected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("unmet dependencies"), "got: {msg}");
        assert!(msg.contains("sup      5"), "dump must name the row: {msg}");
        assert!(msg.contains("1/1 contributions outstanding"), "got: {msg}");
    }

    /// A partial no compiled in-edge carries (a second source for a row
    /// expecting one) is a hard error with diagnostics, not a u32
    /// underflow.
    #[test]
    fn excess_partial_is_rejected_with_diagnostics() {
        let (pass, _) = duplicated_delivery_pass();
        // Two partials from *different* sources for a row expecting one.
        let script = vec![
            RecvEvent {
                vector: false,
                sup: 5,
                src: 2,
                payload: vec![0.0].into(),
            },
            RecvEvent {
                vector: false,
                sup: 5,
                src: 3,
                payload: vec![0.0].into(),
            },
        ];
        let mut eng = MockEngine::new(script);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pass(&mut eng, &pass);
        }))
        .expect_err("excess partial must be detected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("excess partial"), "got: {msg}");
    }
}
