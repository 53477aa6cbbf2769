//! The 3D solve plan: process layout, grid membership, ownership maps.
//!
//! Terminology follows the paper's Fig. 1: the separator tree is cut at
//! depth `d = log2(Pz)` into `2^(d+1) − 1` *layout nodes* in heap order;
//! grid `z`'s *path* is the leaf layout node `z` plus all its ancestors,
//! and grid `z` owns every supernode of every node on its path (ancestors
//! replicated across grids). Supernode block `(I, K)` lives at process
//! `(I mod Px, K mod Py)` of each replicating grid.

use crate::schedule::{Schedule, ScheduleKey};
use lufactor::Factorized;
use ordering::nd::LayoutNode;
use simgrid::Transport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Membership bitset over supernodes.
#[derive(Clone, Debug)]
pub struct SupSet {
    bits: Vec<u64>,
}

impl SupSet {
    /// Empty set over `n` supernodes.
    pub fn new(n: usize) -> Self {
        SupSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert supernode `k`.
    pub fn insert(&mut self, k: usize) {
        self.bits[k / 64] |= 1 << (k % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, k: usize) -> bool {
        self.bits[k / 64] >> (k % 64) & 1 == 1
    }
}

/// Per-grid supernode membership.
#[derive(Clone, Debug)]
pub struct GridSet {
    /// Grid index `z`.
    pub z: usize,
    /// Layout-node heap ids on this grid's path, root first (level 0..=d).
    pub path: Vec<usize>,
    /// All supernodes of this grid, ascending.
    pub supers: Vec<u32>,
    /// Membership bitset (over all supernodes).
    pub member: SupSet,
    /// Live-support bitset: members this grid can contribute a nonzero
    /// partial for. A supernode is live when its RHS originates here
    /// (`rhs_active`) or when a live column of this grid has an L-block
    /// into it; everything else packs provable zeros (DESIGN.md §15).
    pub live: SupSet,
}

/// Layout policy for the inter-grid (`z`) exchange payloads.
///
/// [`ZTrim::Live`] compiles per-round pack lists down to the supernodes
/// some participating grid is actually live for; [`ZTrim::Dense`] keeps
/// the fixed per-`(x, y)` ancestor layout (the pre-trim wire format,
/// preserved as the measurable baseline for the PR 9 bench).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ZTrim {
    /// Trimmed pack lists + presence bitmaps; empty rounds are elided.
    #[default]
    Live,
    /// Full replicated-ancestor layout every round (ablation baseline).
    Dense,
}

impl std::str::FromStr for ZTrim {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "live" => Ok(ZTrim::Live),
            "dense" => Ok(ZTrim::Dense),
            other => Err(format!("unknown z layout '{other}' (expected live|dense)")),
        }
    }
}

/// The full solve plan shared (read-only) by every rank thread.
pub struct Plan {
    /// Factorized matrix (ND + symbolic + numeric panels).
    pub fact: Arc<Factorized>,
    /// 2D grid extent `Px`.
    pub px: usize,
    /// 2D grid extent `Py`.
    pub py: usize,
    /// Number of 2D grids `Pz` (power of two).
    pub pz: usize,
    /// `log2(Pz)`.
    pub depth: usize,
    /// Layout nodes in heap order (`2^(d+1) − 1` of them).
    pub layout: Vec<LayoutNode>,
    /// Supernode → layout-node heap id.
    pub sup_node: Vec<u32>,
    /// Per-grid membership.
    pub grids: Vec<GridSet>,
    /// Inter-grid exchange layout policy.
    trim: ZTrim,
    /// Compiled communication schedules, one per algorithm family.
    schedules: Mutex<HashMap<ScheduleKey, Arc<Schedule>>>,
    /// Number of schedule compilations performed (cache misses).
    compile_count: AtomicUsize,
}

impl Plan {
    /// Build the plan for a `px × py × pz` layout over `fact`.
    ///
    /// Panics if `pz` exceeds the forced depth the factorization was
    /// analyzed with (`fact` must come from `lufactor::factorize(a, pz', …)`
    /// with `pz' ≥ pz`).
    pub fn new(fact: Arc<Factorized>, px: usize, py: usize, pz: usize) -> Self {
        Self::with_trim(fact, px, py, pz, ZTrim::Live)
    }

    /// Like [`Plan::new`] with an explicit inter-grid exchange layout
    /// policy ([`ZTrim::Dense`] reproduces the pre-trim dense wire format
    /// for ablation; liveness bitsets are computed either way).
    pub fn with_trim(fact: Arc<Factorized>, px: usize, py: usize, pz: usize, trim: ZTrim) -> Self {
        assert!(pz.is_power_of_two(), "Pz must be a power of two");
        assert!(px >= 1 && py >= 1);
        let depth = pz.trailing_zeros() as usize;
        let layout = fact.nd.tree.layout(depth);
        let sym = fact.lu.sym();
        let nsup = sym.n_supernodes();

        // Supernode → layout node: layout node column ranges partition
        // [0, n); supernodes never straddle them.
        let mut sup_node = vec![u32::MAX; nsup];
        for node in &layout {
            if node.cols.is_empty() {
                continue;
            }
            let k0 = sym.col_sup(node.cols.start);
            let k1 = sym.col_sup(node.cols.end - 1);
            for (k, owner) in sup_node.iter_mut().enumerate().take(k1 + 1).skip(k0) {
                debug_assert!(node.cols.contains(&sym.sup_cols(k).start));
                debug_assert!(node.cols.contains(&(sym.sup_cols(k).end - 1)));
                *owner = node.id as u32;
            }
        }
        debug_assert!(sup_node.iter().all(|&t| t != u32::MAX));

        // Per-grid membership is independent across grids; build in
        // parallel (rayon degrades gracefully to sequential on one core).
        use rayon::prelude::*;
        let grids: Vec<GridSet> = (0..pz)
            .into_par_iter()
            .map(|z| {
                // Path root..leaf in heap ids.
                let mut path = Vec::with_capacity(depth + 1);
                let mut t = (1 << depth) - 1 + z;
                loop {
                    path.push(t);
                    if t == 0 {
                        break;
                    }
                    t = (t - 1) / 2;
                }
                path.reverse();
                let mut member = SupSet::new(nsup);
                let mut supers = Vec::new();
                for (k, &t) in sup_node.iter().enumerate() {
                    if path.contains(&(t as usize)) {
                        member.insert(k);
                        supers.push(k as u32);
                    }
                }
                // Liveness: a member is live when its RHS originates on
                // this grid or a live column has an L-block into it. One
                // ascending sweep suffices — `blocks_below(k)` only names
                // supernodes greater than `k`.
                let min_z_of = |t: usize| {
                    let l = (t + 1).ilog2() as usize;
                    (t - ((1 << l) - 1)) << (depth - l)
                };
                let mut live = SupSet::new(nsup);
                let mut incoming = SupSet::new(nsup);
                for &k in &supers {
                    let ku = k as usize;
                    if min_z_of(sup_node[ku] as usize) == z || incoming.contains(ku) {
                        live.insert(ku);
                        for &i in sym.blocks_below(ku) {
                            incoming.insert(i as usize);
                        }
                    }
                }
                GridSet {
                    z,
                    path,
                    supers,
                    member,
                    live,
                }
            })
            .collect();

        Plan {
            fact,
            px,
            py,
            pz,
            depth,
            layout,
            sup_node,
            grids,
            trim,
            schedules: Mutex::new(HashMap::new()),
            compile_count: AtomicUsize::new(0),
        }
    }

    /// The inter-grid exchange layout policy this plan compiles under.
    pub fn trim(&self) -> ZTrim {
        self.trim
    }

    /// The compiled communication schedule for `key`, compiling and
    /// caching it on first use. Executors call this from their rank
    /// programs; `Solver3d` pre-warms the cache at planning time so
    /// solves perform zero schedule setup.
    pub fn schedule(&self, key: ScheduleKey) -> Arc<Schedule> {
        let mut cache = self.schedules.lock().unwrap();
        if let Some(s) = cache.get(&key) {
            return Arc::clone(s);
        }
        let s = Arc::new(Schedule::compile(self, key));
        cache.insert(key, Arc::clone(&s));
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        s
    }

    /// How many schedule compilations this plan has performed — the
    /// "compile once, solve many" telltale asserted by the tests.
    pub fn schedule_compiles(&self) -> usize {
        self.compile_count.load(Ordering::Relaxed)
    }

    /// Total rank count.
    pub fn nranks(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// `(x, y, z)` coordinates of a world rank (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let x = rank % self.px;
        let y = (rank / self.px) % self.py;
        let z = rank / (self.px * self.py);
        (x, y, z)
    }

    /// World rank of coordinates `(x, y, z)`.
    pub fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.px * (y + self.py * z)
    }

    /// The calling rank's grid and z communicators — the `MPI_Cart_sub`
    /// pair every rank program starts from — built from the layout alone,
    /// without a message: grid `z`'s ranks in `x + Px·y` order, and the
    /// `Pz` ranks at `(x, y)` in `z` order. `world` must have
    /// [`nranks`](Plan::nranks) ranks.
    pub fn cart_comms<T: Transport>(&self, world: &T) -> (T, T) {
        debug_assert_eq!(world.size(), self.nranks());
        let (x, y, z) = self.coords(world.rank());
        let grid: Vec<usize> = (0..self.py)
            .flat_map(|gy| (0..self.px).map(move |gx| self.rank_of(gx, gy, z)))
            .collect();
        let column: Vec<usize> = (0..self.pz).map(|gz| self.rank_of(x, y, gz)).collect();
        (
            world.subgroup(&grid, z),
            world.subgroup(&column, x + self.px * y),
        )
    }

    /// Diagonal-owner process of supernode `k` within any 2D grid.
    pub fn owner_xy(&self, k: usize) -> (usize, usize) {
        (k % self.px, k % self.py)
    }

    /// Level (depth below root) of a layout heap id.
    pub fn node_level(&self, t: usize) -> usize {
        (t + 1).ilog2() as usize
    }

    /// Smallest grid index replicating layout node `t` — the paper's RHS
    /// owner convention.
    pub fn min_z(&self, t: usize) -> usize {
        let l = self.node_level(t);
        let first_in_level = (1 << l) - 1;
        (t - first_in_level) << (self.depth - l)
    }

    /// Number of grids replicating layout node `t`.
    pub fn n_grids_of(&self, t: usize) -> usize {
        1 << (self.depth - self.node_level(t))
    }

    /// Whether grid `z` supplies the real RHS for supernode `k` (Alg. 1
    /// lines 3–10: the smallest replicating grid keeps `b`, others zero it).
    pub fn rhs_active(&self, z: usize, k: usize) -> bool {
        self.min_z(self.sup_node[k] as usize) == z
    }

    /// Supernodes of layout node `t`, ascending.
    pub fn node_supers(&self, t: usize) -> Vec<u32> {
        let node = &self.layout[t];
        if node.cols.is_empty() {
            return Vec::new();
        }
        let sym = self.fact.lu.sym();
        let k0 = sym.col_sup(node.cols.start);
        let k1 = sym.col_sup(node.cols.end - 1);
        (k0 as u32..=k1 as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lufactor::factorize;
    use ordering::SymbolicOptions;
    use sparse::gen;

    fn plan(px: usize, py: usize, pz: usize) -> Plan {
        let a = gen::poisson2d_5pt(12, 12);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        Plan::new(f, px, py, pz)
    }

    #[test]
    fn coords_roundtrip() {
        let p = plan(2, 3, 4);
        for r in 0..p.nranks() {
            let (x, y, z) = p.coords(r);
            assert_eq!(p.rank_of(x, y, z), r);
        }
    }

    #[test]
    fn min_z_of_heap_nodes() {
        let p = plan(1, 1, 4);
        assert_eq!(p.min_z(0), 0); // root shared by all
        assert_eq!(p.min_z(1), 0); // left level-1 node: grids 0,1
        assert_eq!(p.min_z(2), 2); // right level-1 node: grids 2,3
        assert_eq!(p.min_z(3), 0);
        assert_eq!(p.min_z(4), 1);
        assert_eq!(p.min_z(5), 2);
        assert_eq!(p.min_z(6), 3);
        assert_eq!(p.n_grids_of(0), 4);
        assert_eq!(p.n_grids_of(2), 2);
        assert_eq!(p.n_grids_of(6), 1);
    }

    #[test]
    fn grid_paths_share_ancestors() {
        let p = plan(1, 1, 4);
        assert_eq!(p.grids[0].path, vec![0, 1, 3]);
        assert_eq!(p.grids[3].path, vec![0, 2, 6]);
        // Every grid contains all root supernodes.
        for k in p.node_supers(0) {
            for g in &p.grids {
                assert!(g.member.contains(k as usize));
            }
        }
        // Leaf supernodes belong to exactly one grid.
        for k in p.node_supers(3) {
            assert!(p.grids[0].member.contains(k as usize));
            assert!(!p.grids[1].member.contains(k as usize));
            assert!(!p.grids[2].member.contains(k as usize));
        }
    }

    #[test]
    fn rhs_active_exactly_once_per_supernode() {
        let p = plan(2, 2, 4);
        let nsup = p.fact.lu.sym().n_supernodes();
        for k in 0..nsup {
            let active: Vec<usize> = (0..4).filter(|&z| p.rhs_active(z, k)).collect();
            assert_eq!(active.len(), 1, "supernode {k} active in {active:?}");
            // The active grid must replicate the supernode.
            assert!(p.grids[active[0]].member.contains(k));
        }
    }

    #[test]
    fn grid_supers_cover_every_supernode() {
        let p = plan(1, 1, 8);
        let nsup = p.fact.lu.sym().n_supernodes();
        let mut covered = vec![false; nsup];
        for g in &p.grids {
            for &k in &g.supers {
                covered[k as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn grid_set_closed_under_blocks_below() {
        // L^z closure: every below-diagonal block of a member column has its
        // row supernode in the same grid (the paper's path-closure property).
        let p = plan(2, 2, 8);
        let sym = p.fact.lu.sym();
        for g in &p.grids {
            for &k in &g.supers {
                for &i in sym.blocks_below(k as usize) {
                    assert!(
                        g.member.contains(i as usize),
                        "grid {} column {} row-block {} outside grid",
                        g.z,
                        k,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn live_set_contains_rhs_active_and_is_upward_closed() {
        let p = plan(2, 2, 8);
        let sym = p.fact.lu.sym();
        for g in &p.grids {
            for &k in &g.supers {
                let ku = k as usize;
                // Every supernode is live on the grid supplying its RHS —
                // in particular every leaf column of this grid.
                if p.rhs_active(g.z, ku) {
                    assert!(g.live.contains(ku), "grid {} sup {} not live", g.z, ku);
                }
                // Live sets are upward-closed under L-blocks: a live
                // column's partials land in supernodes that are live too.
                if g.live.contains(ku) {
                    assert!(g.member.contains(ku));
                    for &i in sym.blocks_below(ku) {
                        assert!(
                            g.live.contains(i as usize),
                            "grid {} live col {} feeds dead row {}",
                            g.z,
                            ku,
                            i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dead_ancestors_exist_at_deep_pz() {
        // The point of the trim: at Pz = 8 some grid replicates an
        // ancestor supernode it can never contribute to. If this ever
        // fails the trim is vacuous and the PR 9 bench gate would too.
        // R-MAT's uneven separators leave deep grids dead for much of the
        // top separators; a PDE stencil or pure band couples every subtree
        // to its whole ancestor chain and trims nothing.
        let a = gen::rmat(9, 8, 7);
        let f = Arc::new(factorize(&a, 8, &SymbolicOptions::default()).unwrap());
        let p = Plan::new(f, 1, 1, 8);
        let dead = p
            .grids
            .iter()
            .flat_map(|g| g.supers.iter().map(move |&k| (g, k)))
            .filter(|(g, k)| !g.live.contains(*k as usize))
            .count();
        assert!(dead > 0, "no dead replicated supernodes at Pz=8");
    }

    #[test]
    fn trim_knob_round_trips_and_defaults_live() {
        let p = plan(2, 2, 2);
        assert_eq!(p.trim(), ZTrim::Live);
        assert_eq!("dense".parse::<ZTrim>().unwrap(), ZTrim::Dense);
        assert_eq!("live".parse::<ZTrim>().unwrap(), ZTrim::Live);
        assert!("sparse".parse::<ZTrim>().is_err());
        let a = gen::poisson2d_5pt(12, 12);
        let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).unwrap());
        let pd = Plan::with_trim(f, 2, 2, 2, ZTrim::Dense);
        assert_eq!(pd.trim(), ZTrim::Dense);
    }

    #[test]
    fn pz_one_single_grid_owns_everything() {
        let p = plan(3, 2, 1);
        assert_eq!(p.grids.len(), 1);
        assert_eq!(p.grids[0].supers.len(), p.fact.lu.sym().n_supernodes());
        for k in 0..p.fact.lu.sym().n_supernodes() {
            assert!(p.rhs_active(0, k));
        }
    }
}
