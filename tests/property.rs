//! Property-based tests (proptest) on the core invariants: random sparse
//! systems, random grid shapes, and the building blocks (nested dissection,
//! sparse allreduce semantics, block-cyclic coverage).

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sptrsv::schedule::{
    run_pass, PassEngine, PassSched, RecvEvent, RowSched, Schedule, ScheduleKey, SlotLayout,
    SolveStep, NO_ROW,
};
use sptrsv::{Plan, ZTrim};
use sptrsv_repro::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A random structurally symmetric, strictly diagonally dominant matrix.
fn random_sym_dd(n: usize, extra_edges: usize, seed: u64) -> CsrMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = sparse::CooMatrix::new(n);
    let mut rowsum = vec![0.0f64; n];
    let push_sym =
        |coo: &mut sparse::CooMatrix, rowsum: &mut Vec<f64>, i: usize, j: usize, v: f64| {
            coo.push(i, j, v);
            coo.push(j, i, v);
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        };
    // Chain for irreducibility.
    for i in 0..n - 1 {
        let v = -(0.2 + rng.gen::<f64>());
        push_sym(&mut coo, &mut rowsum, i, i + 1, v);
    }
    for _ in 0..extra_edges {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        let v = -(0.1 + rng.gen::<f64>());
        push_sym(&mut coo, &mut rowsum, i.min(j), i.max(j), v);
    }
    for (i, &s) in rowsum.iter().enumerate() {
        coo.push(i, i, 1.0 + s);
    }
    coo.to_csr().symmetrized_pattern()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Any random system, any (small) grid shape, both 3D algorithms:
    /// distributed solutions must match the sequential reference.
    #[test]
    fn distributed_solves_match_reference(
        n in 24usize..90,
        extra in 10usize..80,
        seed in 0u64..1000,
        px in 1usize..4,
        py in 1usize..4,
        logpz in 0u32..3,
        baseline in proptest::bool::ANY,
    ) {
        let pz = 1usize << logpz;
        let a = random_sym_dd(n, extra, seed);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(n, 1);
        let want = f.solve(&b, 1);
        let cfg = SolverConfig {
            px, py, pz,
            nrhs: 1,
            algorithm: if baseline { Algorithm::Baseline3d } else { Algorithm::New3d },
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: seed,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let out = solve_distributed(&f, &b, &cfg);
        prop_assert!(sparse::max_abs_diff(&out.x, &want) < 1e-9);
        prop_assert!(sparse::rel_residual_inf(&a, &out.x, &b, 1) < 1e-9);
    }

    /// The GPU execution model must compute the same numbers as the CPU
    /// path (only its virtual timing differs).
    #[test]
    fn gpu_numerics_equal_cpu(
        n in 24usize..70,
        extra in 10usize..50,
        seed in 0u64..1000,
        px in 1usize..4,
        logpz in 0u32..3,
    ) {
        let pz = 1usize << logpz;
        let a = random_sym_dd(n, extra, seed);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(n, 2);
        let mk = |arch| SolverConfig {
            px, py: 1, pz,
            nrhs: 2,
            algorithm: Algorithm::New3d,
            arch,
            machine: MachineModel::perlmutter_gpu(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let cpu = solve_distributed(&f, &b, &mk(Arch::Cpu));
        let gpu = solve_distributed(&f, &b, &mk(Arch::Gpu));
        prop_assert!(sparse::max_abs_diff(&cpu.x, &gpu.x) < 1e-10);
    }

    /// Nested dissection on random graphs: valid permutation, separators
    /// disconnect, spans nest.
    #[test]
    fn nested_dissection_invariants(
        n in 10usize..150,
        extra in 5usize..120,
        seed in 0u64..1000,
        forced in 0usize..3,
    ) {
        let a = random_sym_dd(n, extra, seed);
        let g = ordering::Graph::from_csr_pattern(&a);
        let nd = ordering::nd::nested_dissection(&g, &ordering::NdOptions {
            forced_depth: forced,
            ..Default::default()
        });
        // Permutation validity.
        let mut seen = vec![false; n];
        for &v in &nd.perm {
            prop_assert!(!seen[v]);
            seen[v] = true;
        }
        // Separator property: children spans never share an edge.
        let mut newidx = vec![0usize; n];
        for (new, &old) in nd.perm.iter().enumerate() {
            newidx[old] = new;
        }
        for node in &nd.tree.nodes {
            if let Some((l, r)) = node.children {
                let ls = nd.tree.nodes[l].span.clone();
                let rs = nd.tree.nodes[r].span.clone();
                for old in 0..n {
                    if !ls.contains(&newidx[old]) { continue; }
                    for &w in g.neighbors(old) {
                        prop_assert!(!rs.contains(&newidx[w as usize]));
                    }
                }
            }
        }
        // Layout covers all columns exactly once.
        let layout = nd.tree.layout(forced);
        let total: usize = layout.iter().map(|t| t.cols.len()).sum();
        prop_assert_eq!(total, n);
    }

    /// The symbolic pattern contains A and every solve-relevant block; the
    /// numeric factorization then reproduces A = L·U through the reference
    /// solve with small residual.
    #[test]
    fn factorization_residual(
        n in 20usize..100,
        extra in 10usize..90,
        seed in 0u64..1000,
        nrhs in 1usize..4,
    ) {
        let a = random_sym_dd(n, extra, seed);
        let f = factorize(&a, 1, &SymbolicOptions::default()).unwrap();
        let b = gen::standard_rhs(n, nrhs);
        let x = f.solve(&b, nrhs);
        prop_assert!(sparse::rel_residual_inf(&a, &x, &b, nrhs) < 1e-9);
    }

    /// Compiled-schedule execution is layout-complete: for a fixed world
    /// of P = 8 ranks, *every* (Px, Py, Pz) factorization with power-of-two
    /// Pz must reproduce the sequential reference — on the CPU path and on
    /// the GPU execution model alike. All ten layouts interpret schedule
    /// IRs compiled by the same `Schedule::compile`, so this sweeps each
    /// degenerate corner (pure-2D Pz = 1, pure-Z 1x1x8, single-column
    /// Px = 1, single-row Py = 1) per random matrix.
    #[test]
    fn all_p8_layouts_match_reference(
        n in 24usize..56,
        extra in 10usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_sym_dd(n, extra, seed);
        let b = gen::standard_rhs(n, 1);
        for logpz in 0u32..4 {
            let pz = 1usize << logpz;
            let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
            let want = f.solve(&b, 1);
            let grid = 8 / pz;
            for px in 1..=grid {
                if !grid.is_multiple_of(px) {
                    continue;
                }
                let py = grid / px;
                for arch in [Arch::Cpu, Arch::Gpu] {
                    let cfg = SolverConfig {
                        px, py, pz,
                        nrhs: 1,
                        algorithm: Algorithm::New3d,
                        arch,
                        machine: MachineModel::perlmutter_gpu(),
                        chaos_seed: seed,
                        fault: Default::default(),
                        backend: Default::default(),
                        executor: Default::default(),
                    };
                    let out = solve_distributed(&f, &b, &cfg);
                    let err = sparse::max_abs_diff(&out.x, &want);
                    prop_assert!(
                        err < 1e-9,
                        "layout {px}x{py}x{pz} ({arch:?}) diverged: max |dx| = {err:e}"
                    );
                }
            }
        }
    }

    /// The schedule IR survives serialization: for random systems and grid
    /// shapes, every compiled variant round-trips through JSON to an
    /// identical `Schedule` (the IR is pure data — no closures, no
    /// pointers into the plan).
    #[test]
    fn schedule_serde_roundtrip_is_identity(
        n in 24usize..70,
        extra in 10usize..60,
        seed in 0u64..1000,
        px in 1usize..4,
        py in 1usize..3,
        logpz in 0u32..3,
    ) {
        let pz = 1usize << logpz;
        let a = random_sym_dd(n, extra, seed);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let plan = Plan::new(Arc::clone(&f), px, py, pz);
        for key in [
            ScheduleKey { baseline: true, tree_comm: false },
            ScheduleKey { baseline: false, tree_comm: false },
            ScheduleKey { baseline: false, tree_comm: true },
        ] {
            let s = plan.schedule(key);
            let json = serde_json::to_string(&*s).unwrap();
            let back: Schedule = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&*s, &back);
        }
    }

    /// Accumulator slots are laid out soundly for every rank and phase of
    /// every schedule family (the four algorithms run three: New3d and
    /// its naive-allreduce ablation share one) under both exchange
    /// layouts, on `P ≤ 64`: see [`check_slot_layout`].
    #[test]
    fn accumulator_slots_tile_every_phase(
        n in 24usize..70,
        extra in 10usize..60,
        seed in 0u64..1000,
        px in 1usize..5,
        py in 1usize..5,
        logpz in 0u32..3,
    ) {
        let pz = 1usize << logpz;
        let a = random_sym_dd(n, extra, seed);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        for trim in [ZTrim::Live, ZTrim::Dense] {
            let plan = Plan::with_trim(Arc::clone(&f), px, py, pz, trim);
            for key in [
                ScheduleKey { baseline: true, tree_comm: false },
                ScheduleKey { baseline: false, tree_comm: false },
                ScheduleKey { baseline: false, tree_comm: true },
            ] {
                for rs in &plan.schedule(key).ranks {
                    check_slot_layout(&plan, &rs.l_steps, &rs.l_slots, true)?;
                    check_slot_layout(&plan, &rs.u_steps, &rs.u_slots, false)?;
                }
            }
        }
    }

    /// The paper's sparse allreduce must sum correctly even when every
    /// message may be duplicated and the any-source queue is drained in an
    /// adversarial order — for arbitrary (Pz, nrhs).
    #[test]
    fn sparse_allreduce_survives_duplicates_and_reorder(
        logpz in 0u32..4,
        nrhs in 1usize..4,
        seed in 1u64..10_000,
        reorder_idx in 0usize..4,
    ) {
        let pz = 1usize << logpz;
        let a = gen::poisson2d_9pt(12, 12);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let plan = Arc::new(Plan::new(Arc::clone(&f), 1, 1, pz));
        let sched = plan.schedule(ScheduleKey { baseline: false, tree_comm: true });
        let fault = FaultPlan {
            seed,
            reorder: [
                Reorder::EarliestArrival,
                Reorder::Random,
                Reorder::NewestQueued,
                Reorder::LatestArrival,
            ][reorder_idx],
            jitter_max: 20e-6,
            duplicate_prob: 0.5,
            ..Default::default()
        };
        let opts = simgrid::ClusterOptions { fault: fault.clone(), ..Default::default() };
        let plan2 = Arc::clone(&plan);
        let rep = simgrid::run(pz, MachineModel::cori_haswell(), &opts, move |world| {
            let plan = &plan2;
            let z = world.rank();
            let rs = &sched.ranks[plan.rank_of(0, 0, z)];
            let (_grid, zcomm) = plan.cart_comms(&world);
            // Synthetic partials: supernode k contributes (k + z·1000) per
            // entry on its replicating grids (exact in f64, so the reduced
            // sums admit equality checks).
            let sym = plan.fact.lu.sym();
            let mut y_vals: HashMap<u32, Vec<f64>> = HashMap::new();
            for &k in &plan.grids[z].supers {
                let w = sym.sup_width(k as usize) * nrhs;
                y_vals.insert(k, vec![k as f64 + z as f64 * 1000.0; w]);
            }
            sptrsv::allreduce::sparse_allreduce(plan, &zcomm, &rs.zsteps, nrhs, &mut y_vals);
            (z, y_vals)
        });
        for (z, y_vals) in rep.results {
            for (&k, v) in &y_vals {
                let node = plan.sup_node[k as usize] as usize;
                let zs: Vec<usize> = (0..pz)
                    .filter(|&g| plan.grids[g].path.contains(&node))
                    .collect();
                let want: f64 = zs.iter().map(|&g| k as f64 + g as f64 * 1000.0).sum();
                for &got in v {
                    prop_assert!(
                        got == want,
                        "sup {} grid {}: got {} want {} under fault plan {:?}",
                        k, z, got, want, fault
                    );
                }
            }
        }
    }

    /// The pass interpreter's duplicate detection must never decrement an
    /// `fmod` counter twice for one logical message: for arbitrary trigger
    /// rows, source sets, duplication factors, and delivery orders, every
    /// `(row, src)` contribution is applied exactly once and every row
    /// still completes exactly once.
    #[test]
    fn dedup_never_double_decrements_fmod(
        nrows in 1usize..6,
        srcs_per_row in 1u32..4,
        extra_copies in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let rows: Vec<RowSched> = (0..nrows as u32)
            .map(|i| RowSched {
                sup: i * 3,
                fmod0: srcs_per_row,
                parent: if i % 2 == 0 { None } else { Some(0) },
                children: (10..10 + srcs_per_row).collect(),
                acc: i,
                part: 0,
            })
            .collect();
        // One logical partial per (row, src), plus adversarial duplicates,
        // in a random delivery order.
        let mut script: Vec<RecvEvent> = Vec::new();
        let mut expected = 0u32;
        for r in &rows {
            for s in 0..srcs_per_row {
                let ev = RecvEvent {
                    vector: false,
                    sup: r.sup,
                    src: 10 + s,
                    payload: vec![r.sup as f64].into(),
                };
                expected += 1;
                for _ in 0..=extra_copies {
                    script.push(ev.clone());
                }
            }
        }
        script.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let pass = PassSched {
            epoch: 0x5 << 48,
            lower: true,
            expected,
            cols: vec![],
            rows: rows.clone(),
            ext_roots: vec![],
            scatter: vec![],
            // All rows are mutually independent here: one level.
            level_order: (0..rows.len() as u32).collect(),
            level_ptr: vec![0, rows.len() as u32],
        };

        #[derive(Default)]
        struct CountingEngine {
            script: Vec<RecvEvent>,
            next: usize,
            partial_adds: HashMap<(u32, u32), u32>,
            diag_solved: Vec<u32>,
            partials_sent: Vec<u32>,
        }
        impl PassEngine for CountingEngine {
            fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
                self.diag_solved.push(row.sup);
                vec![0.0].into()
            }
            fn store_solved(&mut self, _sup: u32, _v: &[f64]) {}
            fn solved(&self, _sup: u32) -> Arc<[f64]> {
                vec![].into()
            }
            fn forward(&mut self, _col: &sptrsv::schedule::ColSched, _v: &Arc<[f64]>) {}
            fn send_partial(&mut self, row: &RowSched, _parent: u32) {
                self.partials_sent.push(row.sup);
            }
            fn apply_column(
                &mut self,
                _col: &sptrsv::schedule::ColSched,
                _v: &[f64],
                _scatter: &[u32],
            ) {
            }
            fn add_partial(&mut self, row: &RowSched, src: u32, _payload: &[f64]) {
                *self.partial_adds.entry((row.sup, src)).or_insert(0) += 1;
            }
            fn recv(&mut self, _epoch: u64) -> RecvEvent {
                let ev = self.script[self.next].clone();
                self.next += 1;
                ev
            }
        }

        let mut eng = CountingEngine { script, ..Default::default() };
        run_pass(&mut eng, &pass); // panics on unmet deps or excess partials
        for r in &rows {
            for s in 0..srcs_per_row {
                prop_assert!(
                    eng.partial_adds.get(&(r.sup, 10 + s)).copied() == Some(1),
                    "contribution (sup {}, src {}) applied {:?} times, want exactly 1",
                    r.sup, 10 + s, eng.partial_adds.get(&(r.sup, 10 + s))
                );
            }
            if r.parent.is_none() {
                prop_assert_eq!(eng.diag_solved.iter().filter(|&&s| s == r.sup).count(), 1);
            } else {
                prop_assert_eq!(eng.partials_sent.iter().filter(|&&s| s == r.sup).count(), 1);
            }
        }
    }

    /// Simulator allreduce (binomial) equals the dense sum for any size.
    #[test]
    fn simulator_allreduce_sums(p in 1usize..12, len in 1usize..20) {
        let rep = simgrid::run(
            p,
            MachineModel::uniform("t", 1e9, 1e-6, 1e9, 4),
            &simgrid::ClusterOptions::default(),
            move |c| {
                let mut v: Vec<f64> = (0..len).map(|k| (c.rank() * 31 + k) as f64).collect();
                c.allreduce_sum(&mut v, Category::ZComm);
                v
            },
        );
        for k in 0..len {
            let want: f64 = (0..p).map(|r| (r * 31 + k) as f64).sum();
            for r in &rep.results {
                prop_assert_eq!(r[k], want);
            }
        }
    }
}

/// One phase's compiled accumulator slots must
/// - tile its slab: rows ascend by supernode, and their slots lie side by
///   side, in row order, over `[0, width)` exactly;
/// - give each row contiguous slots whose keys strictly ascend;
/// - put every block's slot inside its target row, covering exactly the
///   rows the block touches (and name that row's pass position, if any);
/// - give every reduction child of a row exactly one slot.
fn check_slot_layout(
    plan: &Plan,
    steps: &[SolveStep],
    layout: &SlotLayout,
    lower: bool,
) -> Result<(), TestCaseError> {
    let sym = plan.fact.lu.sym();
    let w = |sup: u32| sym.sup_width(sup as usize) as u32;
    // Slot start offset -> (row, slot index in row); slots tile the slab.
    let mut at = std::collections::BTreeMap::new();
    let mut end = 0;
    for (r, row) in layout.rows.iter().enumerate() {
        prop_assert!(
            r == 0 || layout.rows[r - 1].sup < row.sup,
            "rows not ascending"
        );
        prop_assert_eq!((row.off, row.slot as usize), (end, at.len()));
        for (i, &[first, len]) in layout.cover[row.slot as usize..][..row.n as usize]
            .iter()
            .enumerate()
        {
            prop_assert!(
                len > 0 && first + len <= w(row.sup),
                "cover outside row {}",
                row.sup
            );
            at.insert(end, (r, i));
            end += len;
        }
    }
    prop_assert_eq!((end, at.len()), (layout.width, layout.cover.len()));

    // Every slot a writer addresses, as (row, slot index, key).
    let mut claims: Vec<(usize, usize, u64)> = Vec::new();
    let mut claim = |sup: u32, off: u32, key: u64, cover: [u32; 2]| -> Result<(), TestCaseError> {
        let Some(&(r, i)) = at.get(&off) else {
            return Err(TestCaseError::fail(format!(
                "slot {off} (key {key:#x}) starts no slot"
            )));
        };
        let row = &layout.rows[r];
        prop_assert!(
            row.sup == sup,
            "slot {off} of row {sup} lies in row {}",
            row.sup
        );
        prop_assert_eq!(layout.cover[row.slot as usize + i], cover);
        claims.push((r, i, key));
        Ok(())
    };
    for pass in steps.iter().filter_map(|s| s.pass.as_ref()) {
        for c in &pass.cols {
            for b in &c.blocks {
                // An L block covers its own rows, a U block all of `K`.
                let cover = if lower {
                    let rows = &sym.rows_below(c.sup as usize)[b.lo as usize..b.hi as usize];
                    let start = sym.sup_cols(b.sup as usize).start as u32;
                    [rows[0] - start, rows[rows.len() - 1] - rows[0] + 1]
                } else {
                    [0, w(b.sup)]
                };
                claim(b.sup, b.slot, SlotLayout::key_local(c.sup), cover)?;
                let row = pass.row_index(b.sup).map_or(NO_ROW, |i| i as u32);
                prop_assert_eq!(b.row, row);
            }
        }
        for r in &pass.rows {
            prop_assert_eq!(layout.rows[r.acc as usize].sup, r.sup);
            for (j, &c) in r.children.iter().enumerate() {
                let off = r.part + j as u32 * w(r.sup);
                claim(r.sup, off, SlotLayout::key_partial(c), [0, w(r.sup)])?;
            }
        }
    }
    for x in steps.iter().filter_map(|s| s.exchange.as_ref()) {
        if lower && !x.send {
            prop_assert_eq!(x.slots.len(), x.sups.len());
            for (&s, &off) in x.sups.iter().zip(&x.slots) {
                claim(s, off, SlotLayout::key_exchange(x.tag), [0, w(s)])?;
            }
        } else {
            prop_assert!(x.slots.is_empty(), "slots on a non-lsum exchange");
        }
    }
    // Exactly one key per slot, every slot used, keys ascending in a row.
    claims.sort_unstable();
    claims.dedup();
    prop_assert_eq!(claims.len(), layout.cover.len());
    for k in 1..claims.len() {
        let ((r0, i0, k0), (r1, i1, k1)) = (claims[k - 1], claims[k]);
        prop_assert!((r0, i0) != (r1, i1), "two keys share slot {i1} of row {r1}");
        prop_assert!(r0 != r1 || k0 < k1, "keys out of order in row {r1}");
    }
    Ok(())
}

/// Shared random-block generator for the kernel bit-identity properties:
/// one off-diagonal block shape (panel dims, row-offset list, zero masks)
/// drawn from a seeded RNG so failures replay exactly.
struct KernelCase {
    /// Row offsets of the block's rows within the target supernode
    /// (sorted, unique, in `0..wi`).
    offsets: Vec<usize>,
    /// Global row ids as the symbolic structure stores them.
    rows: Vec<u32>,
    istart: usize,
    lo: usize,
    hi: usize,
    r: usize,
    panel_l: Vec<f64>,
    panel_u: Vec<f64>,
    y: Vec<f64>,
    x: Vec<f64>,
    acc_l: Vec<f64>,
    acc_u: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn random_kernel_case(
    w: usize,
    wi: usize,
    lo: usize,
    tail: usize,
    nrhs: usize,
    contiguous: bool,
    rng: &mut ChaCha8Rng,
) -> KernelCase {
    let len = rng.gen_range(1..=wi);
    let offsets: Vec<usize> = if contiguous {
        let start = rng.gen_range(0..=wi - len);
        (start..start + len).collect()
    } else {
        let mut all: Vec<usize> = (0..wi).collect();
        all.shuffle(rng);
        let mut picked = all[..len].to_vec();
        picked.sort_unstable();
        picked
    };
    let istart = 100;
    let r = lo + len + tail;
    let mut rows = vec![0u32; r];
    for (q, &off) in offsets.iter().enumerate() {
        rows[lo + q] = (istart + off) as u32;
    }
    // Sprinkle exact zeros to exercise the skip-on-zero fallback paths.
    let masked = |rng: &mut ChaCha8Rng, n: usize, p: f64| -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < p {
                    0.0
                } else {
                    rng.gen::<f64>() * 4.0 - 2.0
                }
            })
            .collect()
    };
    KernelCase {
        istart,
        lo,
        hi: lo + len,
        r,
        panel_l: masked(rng, r * w, 0.25),
        panel_u: masked(rng, r * w, 0.25),
        y: masked(rng, w * nrhs, 0.35),
        x: masked(rng, wi * nrhs, 0.35),
        acc_l: masked(rng, wi * nrhs, 0.0),
        acc_u: masked(rng, w * nrhs, 0.0),
        offsets,
        rows,
    }
}

/// Mirror of the schedule compiler's dense-run detection: a block whose
/// offsets are one contiguous run gets the `Dense` fast path, anything
/// else gets the precompiled scatter list.
fn targets_of<'a>(offsets: &[usize], scatter: &'a mut Vec<u32>) -> sptrsv::kernels::Targets<'a> {
    let dense = offsets.windows(2).all(|p| p[1] == p[0] + 1);
    if dense {
        sptrsv::kernels::Targets::Dense(offsets[0])
    } else {
        scatter.clear();
        scatter.extend(offsets.iter().map(|&o| o as u32));
        sptrsv::kernels::Targets::Scatter(&scatter[..])
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// The register-blocked scatter kernels must be **bit-identical** to
    /// the scalar reference loops for every supernode shape, every nrhs
    /// remainder class, both Dense and Scatter addressing, and in the
    /// presence of exact-zero values (the skip-on-zero fast path). The
    /// chaos-conformance suite relies on this equivalence being exact,
    /// not merely within rounding.
    #[test]
    fn blocked_apply_kernels_bit_identical_to_reference(
        w in 1usize..9,
        wi in 1usize..9,
        lo in 0usize..4,
        tail in 0usize..3,
        nrhs_i in 0usize..6,
        seed in 0u64..1_000_000,
        contiguous in proptest::bool::ANY,
    ) {
        let nrhs = [1usize, 2, 3, 4, 7, 8][nrhs_i];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let c = random_kernel_case(w, wi, lo, tail, nrhs, contiguous, &mut rng);
        let mut scatter = Vec::new();

        // L: lsum(I) += L(I,K) · y(K), scatter into the target rows.
        let mut got = c.acc_l.clone();
        let mut want = c.acc_l.clone();
        let tg = targets_of(&c.offsets, &mut scatter);
        let fb = sptrsv::kernels::apply_l(
            &c.panel_l, c.r, c.lo, c.hi, tg, &c.y, w, &mut got, wi, nrhs,
        );
        let fr = sptrsv::kernels::reference::apply_l(
            &c.panel_l, c.r, &c.rows, c.istart, c.lo, c.hi, &c.y, w, &mut want, wi, nrhs,
        );
        prop_assert!(fb == fr, "apply_l flop counts differ: {} vs {}", fb, fr);
        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == e.to_bits(),
                "apply_l drifts at {} (blocked {} vs reference {})", i, g, e,
            );
        }

        // U: usum(K) += U(K,J) · x(J), gather from the source rows.
        let mut got = c.acc_u.clone();
        let mut want = c.acc_u.clone();
        let tg = targets_of(&c.offsets, &mut scatter);
        let fb = sptrsv::kernels::apply_u(
            &c.panel_u, w, c.lo, c.hi, tg, &c.x, wi, &mut got, nrhs,
        );
        let fr = sptrsv::kernels::reference::apply_u(
            &c.panel_u, w, &c.rows, c.istart, c.lo, c.hi, &c.x, wi, &mut want, nrhs,
        );
        prop_assert!(fb == fr, "apply_u flop counts differ: {} vs {}", fb, fr);
        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == e.to_bits(),
                "apply_u drifts at {} (blocked {} vs reference {})", i, g, e,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Level-set construction invariants and the level executor end to end.
// ---------------------------------------------------------------------------

/// Longest dependency path lengths (in nodes) of a strictly-lower CSR
/// pattern — the reference depth the unbatched level assignment must hit.
fn dag_depth(row_ptr: &[usize], col_idx: &[usize]) -> u32 {
    let n = row_ptr.len() - 1;
    let mut depth = vec![1u32; n];
    let mut max = if n == 0 { 0 } else { 1 };
    for i in 0..n {
        for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
            depth[i] = depth[i].max(depth[j] + 1);
        }
        max = max.max(depth[i]);
    }
    max
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Unbatched level sets on a random lower-triangular factor pattern:
    /// every dependency sits on a strictly earlier level, sources sit on
    /// level zero, and the level count equals the DAG depth (no level
    /// assignment can do better, and the greedy construction never does
    /// worse).
    #[test]
    fn level_sets_invariants_on_random_lower(
        n in 1usize..120,
        max_deps in 0usize..8,
        seed in 0u64..1000,
    ) {
        let (row_ptr, col_idx) = gen::random_lower_csr(n, max_deps, seed);
        let ls = ordering::levels::level_sets_csr(
            &row_ptr, &col_idx, ordering::levels::ChainPolicy::none(),
        );
        prop_assert_eq!(ls.level_of.len(), n);
        prop_assert_eq!(ls.n_levels, dag_depth(&row_ptr, &col_idx));
        for i in 0..n {
            let deps = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            if deps.is_empty() {
                prop_assert!(ls.level_of[i] == 0, "source row {} off level 0", i);
            }
            let maxdep = deps.iter().map(|&j| ls.level_of[j] + 1).max().unwrap_or(0);
            // Greedy: exactly one past the deepest dependency.
            prop_assert!(ls.level_of[i] == maxdep, "row {} mis-leveled", i);
            prop_assert!(ls.level_of[i] < ls.n_levels);
        }
    }

    /// Chain batching may only merge single-successor chains: dependencies
    /// never land on a *later* level, the level count never grows, and it
    /// stays at least `ceil(depth / batch_width)` (a chain of `k` nodes
    /// compresses at most `batch_width`-fold).
    #[test]
    fn chain_batching_compresses_soundly(
        n in 1usize..120,
        max_deps in 0usize..6,
        seed in 0u64..1000,
        batch in 2u32..9,
    ) {
        let (row_ptr, col_idx) = gen::random_lower_csr(n, max_deps, seed);
        let pure = ordering::levels::level_sets_csr(
            &row_ptr, &col_idx, ordering::levels::ChainPolicy::none(),
        );
        let batched = ordering::levels::level_sets_csr(
            &row_ptr, &col_idx, ordering::levels::ChainPolicy { batch_width: batch },
        );
        prop_assert!(batched.n_levels <= pure.n_levels);
        prop_assert!(batched.n_levels >= pure.n_levels.div_ceil(batch));
        for i in 0..n {
            for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                // Within-level chains keep ascending order, so firing a
                // level in elimination order still respects every edge.
                prop_assert!(
                    batched.level_of[j] <= batched.level_of[i],
                    "dep {} (L{}) later than row {} (L{})",
                    j, batched.level_of[j], i, batched.level_of[i],
                );
            }
        }
    }

    /// The level executor, end to end on random systems and grids: its
    /// distributed solution must be bit-identical to the tree executor's
    /// and match the sequential reference solve.
    #[test]
    fn level_executor_matches_tree_and_reference(
        n in 24usize..90,
        extra in 10usize..80,
        seed in 0u64..1000,
        px in 1usize..4,
        py in 1usize..3,
        logpz in 0u32..3,
        baseline in proptest::bool::ANY,
    ) {
        let pz = 1usize << logpz;
        let a = random_sym_dd(n, extra, seed);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let b = gen::standard_rhs(n, 1);
        let want = f.solve(&b, 1);
        let mk = |executor| SolverConfig {
            px, py, pz,
            nrhs: 1,
            algorithm: if baseline { Algorithm::Baseline3d } else { Algorithm::New3d },
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor,
        };
        let tree = solve_distributed(&f, &b, &mk(ExecutorKind::Tree));
        let level = solve_distributed(&f, &b, &mk(ExecutorKind::Level));
        prop_assert!(sparse::max_abs_diff(&level.x, &want) < 1e-9);
        for (i, (t, l)) in tree.x.iter().zip(&level.x).enumerate() {
            prop_assert!(
                t.to_bits() == l.to_bits(),
                "x[{}] differs across executors: tree {:e}, level {:e}", i, t, l,
            );
        }
    }
}
