//! Sparse inter-grid allreduce of the partial ancestor solutions
//! (paper Algorithm 2), with compile-time live-support trimming.
//!
//! After the masked 2D L-solves, each grid `z` holds *partial* `y(K)` for
//! every replicated ancestor supernode `K` (complete values for its own
//! leaf). Summing the partials over the replicating grids yields the true
//! `y` everywhere. The paper's scheme does this with `O(log Pz)` pairwise
//! packed messages per rank: a binomial *sparse reduce* toward the smallest
//! replicating grid followed by a binomial *sparse broadcast* back — each
//! rank `(x, y, z)` exchanging only with `(x, y, z ± 2^l)` and packing only
//! the supernode pieces it owns diagonally (the 2D layout of `y` matches
//! `L`, so partners pack identical supernode lists).
//!
//! The partner and pack list of every step come precompiled in the plan's
//! schedule IR ([`crate::schedule::ZStep`]). Under [`ZTrim::Live`] those
//! lists are already trimmed to the supernodes the step's sender subtree
//! can contribute a nonzero partial for, and a step whose list compiled to
//! empty is *elided* here — no message, no span. Liveness on this path is
//! fully static (every listed supernode has a piece in the rank's value
//! slab), so the trimmed list alone determines the exact payload width —
//! no presence bitmap on the wire — and `check_layout` validates it on
//! receipt. The presence-bitmap wire format (DESIGN.md §15) lives in
//! [`pack_present_with`]/[`unpack_present_with`] for the residual case where
//! liveness is runtime-dependent: the baseline's lsum exchange, whose
//! occupancy depends on which partials the ledger actually accumulated.
//!
//! The naive alternative the paper compares against — one `MPI_Allreduce`
//! per elimination-tree node — is provided as [`naive_allreduce`] for the
//! ablation benchmark, over the same (live-trimmed) node lists.

use crate::arena::SupStore;
use crate::plan::{Plan, ZTrim};
use crate::schedule::{NaiveNode, ZStep};
use simgrid::{Category, SpanDetail, Transport, TreeRole};

const TAG_R: u64 = 7 << 40;
const TAG_B: u64 = 8 << 40;

/// Doubles on the wire for one packed step list: the listed supernode
/// widths, nothing else. Exact — every listed supernode has a piece, so
/// the payload width is a compile-time constant `analysis.rs` uses for
/// the volume prediction.
pub(crate) fn payload_doubles(plan: &Plan, sups: &[u32], nrhs: usize) -> u64 {
    let sym = plan.fact.lu.sym();
    sups.iter()
        .map(|&k| (sym.sup_width(k as usize) * nrhs) as u64)
        .sum()
}

/// Pack the listed supernode pieces into `buf` (cleared first), in list
/// order. A piece this rank never computed a partial for is zero (the
/// dense layout's pre-trim wire bytes the live layout deletes). The
/// caller hoists `buf` across rounds and pre-reserves it, so the audited
/// packing below never allocates.
fn pack_into(plan: &Plan, sups: &[u32], vals: &mut impl SupStore, nrhs: usize, buf: &mut Vec<f64>) {
    let _audit = crate::audit::pass_scope();
    let sym = plan.fact.lu.sym();
    buf.clear();
    for &k in sups {
        buf.extend_from_slice(vals.piece(k, sym.sup_width(k as usize) * nrhs));
    }
}

/// Defensive pack-layout validation on receipt: the received buffer must
/// be exactly as wide as the local (trimmed) sup list implies, or sender
/// and receiver compiled different pack lists for this step — fail loudly
/// with a layout diagnostic instead of silently mis-assigning values.
fn check_layout(plan: &Plan, sups: &[u32], buf: &[f64], nrhs: usize, what: &str) {
    let sym = plan.fact.lu.sym();
    let want: usize = sups.iter().map(|&k| sym.sup_width(k as usize) * nrhs).sum();
    assert_eq!(
        buf.len(),
        want,
        "sparse-allreduce {what} layout mismatch: got {} doubles, want {} \
         ({} sups, nrhs {nrhs}, first sups {:?})",
        buf.len(),
        want,
        sups.len(),
        &sups[..sups.len().min(8)],
    );
}

/// Unpack a received pack into the listed pieces: summed in (reduce) or
/// overwriting them (broadcast). Pieces exist before the exchange, so
/// this never allocates mid-solve.
fn unpack(
    plan: &Plan,
    sups: &[u32],
    buf: &[f64],
    vals: &mut impl SupStore,
    nrhs: usize,
    add: bool,
) {
    let _audit = crate::audit::pass_scope();
    check_layout(
        plan,
        sups,
        buf,
        nrhs,
        if add { "reduce pack" } else { "broadcast pack" },
    );
    let sym = plan.fact.lu.sym();
    let mut off = 0;
    for &k in sups {
        let w = sym.sup_width(k as usize) * nrhs;
        let piece = vals.piece(k, w);
        if add {
            for (a, &v) in piece.iter_mut().zip(&buf[off..off + w]) {
                *a += v;
            }
        } else {
            piece.copy_from_slice(&buf[off..off + w]);
        }
        off += w;
    }
}

#[inline]
pub(crate) fn bit_set(words: &[f64], i: usize) -> bool {
    words[i / 64].to_bits() >> (i % 64) & 1 == 1
}

/// Presence-bitmap packing (DESIGN.md §15) for exchanges whose liveness is
/// *runtime*-dependent — the baseline's lsum exchange, where a rank only
/// holds partials its ledger accumulated this solve. The payload is a
/// `ceil(len/64)`-word presence bitmap (u64 bit patterns carried as f64),
/// then the values of each *present* supernode in list order; absent
/// supernodes ship no bytes at all. `piece(k, buf)` appends supernode
/// `k`'s values when the rank holds them this solve and says whether it
/// did. `buf` is cleared first; the caller hoists it.
pub(crate) fn pack_present_with(
    sups: &[u32],
    buf: &mut Vec<f64>,
    mut piece: impl FnMut(u32, &mut Vec<f64>) -> bool,
) {
    buf.clear();
    buf.resize(sups.len().div_ceil(64), 0.0);
    for (i, &k) in sups.iter().enumerate() {
        if piece(k, buf) {
            buf[i / 64] = f64::from_bits(buf[i / 64].to_bits() | 1 << (i % 64));
        }
    }
}

/// Validate a presence-bitmap payload against the local list: the bitmap
/// must address only listed supernodes and the buffer must be exactly as
/// wide as the set bits imply. Returns the bitmap word count.
pub(crate) fn check_present_layout(
    plan: &Plan,
    sups: &[u32],
    buf: &[f64],
    nrhs: usize,
    what: &str,
) -> usize {
    let sym = plan.fact.lu.sym();
    let nwords = sups.len().div_ceil(64);
    assert!(
        buf.len() >= nwords,
        "{what}: {} doubles cannot hold the {nwords}-word presence bitmap \
         of a {}-sup list",
        buf.len(),
        sups.len(),
    );
    let tail = sups.len() % 64;
    if tail != 0 {
        let stray = buf[nwords - 1].to_bits() >> tail;
        assert_eq!(
            stray,
            0,
            "{what}: {} stray presence bits past the {}-sup list",
            stray.count_ones(),
            sups.len(),
        );
    }
    let want: usize = nwords
        + sups
            .iter()
            .enumerate()
            .filter(|&(i, _)| bit_set(buf, i))
            .map(|(_, &k)| sym.sup_width(k as usize) * nrhs)
            .sum::<usize>();
    assert_eq!(
        buf.len(),
        want,
        "{what} layout mismatch: got {} doubles, want {} ({} sups, \
         nrhs {nrhs}, first sups {:?})",
        buf.len(),
        want,
        sups.len(),
        &sups[..sups.len().min(8)],
    );
    nwords
}

/// Unpack a presence-bitmap payload, handing each *present* supernode's
/// list position and values to `add`; absent supernodes are untouched.
pub(crate) fn unpack_present_with(
    plan: &Plan,
    sups: &[u32],
    buf: &[f64],
    nrhs: usize,
    what: &str,
    mut add: impl FnMut(usize, &[f64]),
) {
    let nwords = check_present_layout(plan, sups, buf, nrhs, what);
    let sym = plan.fact.lu.sym();
    let mut off = nwords;
    for (i, &k) in sups.iter().enumerate() {
        if !bit_set(buf, i) {
            continue;
        }
        let w = sym.sup_width(k as usize) * nrhs;
        add(i, &buf[off..off + w]);
        off += w;
    }
}

/// Sender-side wire accounting: actual bytes shipped plus the bytes the
/// trim removed relative to the dense layout of the same step.
pub(crate) fn note_sent<T: Transport>(
    zcomm: &T,
    dense_doubles: u64,
    nrhs: usize,
    sent_doubles: usize,
) {
    zcomm.metric_inc("comm.z.bytes", 8 * sent_doubles as u64);
    zcomm.metric_inc(
        "comm.z.bytes_saved",
        8 * (dense_doubles * nrhs as u64).saturating_sub(sent_doubles as u64),
    );
}

/// Presize, outside the audited regions: every listed supernode gets a
/// piece and the returned pack buffer is reserved to the widest list, so
/// the audited pack/unpack never allocates — already on the first solve.
fn presize<'a>(
    plan: &Plan,
    lists: impl Iterator<Item = &'a [u32]>,
    nrhs: usize,
    vals: &mut impl SupStore,
) -> Vec<f64> {
    let sym = plan.fact.lu.sym();
    let mut max_doubles = 0;
    for sups in lists {
        let mut doubles = 0;
        for &k in sups {
            let w = sym.sup_width(k as usize) * nrhs;
            vals.piece(k, w);
            doubles += w;
        }
        max_doubles = max_doubles.max(doubles);
    }
    Vec::with_capacity(max_doubles)
}

/// Run the sparse allreduce over `y_vals` from my compiled step roles
/// (`zsteps[l]` is my role at step `l`, `None` when I sit out). `zcomm`
/// is the communicator over the `Pz` grids at fixed `(x, y)`, ranked by
/// `z`. On return, every diagonal owner holds the fully reduced `y(K)`
/// for all supernodes its grid is live for (under [`ZTrim::Dense`], for
/// all its replicated supernodes).
pub fn sparse_allreduce<T: Transport>(
    plan: &Plan,
    zcomm: &T,
    zsteps: &[Option<ZStep>],
    nrhs: usize,
    y_vals: &mut impl SupStore,
) {
    let mut buf = presize(
        plan,
        zsteps.iter().flatten().map(|s| &s.sups[..]),
        nrhs,
        y_vals,
    );
    // Touch the counters (alloc-free `inc` later, and the trim shows in a
    // scrape even when it saves nothing).
    zcomm.metric_inc("comm.z.bytes", 0);
    zcomm.metric_inc("comm.z.bytes_saved", 0);

    let detail = |l: usize, role: TreeRole, step: &ZStep| match plan.trim() {
        ZTrim::Live => SpanDetail::ZExchangeTrim {
            round: l as u32,
            role,
            saved_doubles: (step.dense_doubles * nrhs as u64)
                .saturating_sub(payload_doubles(plan, &step.sups, nrhs)),
        },
        ZTrim::Dense => SpanDetail::Allreduce {
            round: l as u32,
            role,
        },
    };

    // Sparse reduce, leaf to root (partial sums flow toward smaller z),
    // then sparse broadcast, root to leaf, with the roles mirrored.
    let reduce = zsteps.iter().enumerate().map(|s| (s, true));
    let bcast = zsteps.iter().enumerate().rev().map(|s| (s, false));
    for ((l, step), up) in reduce.chain(bcast) {
        let Some(step) = step else { continue };
        let sends = step.to_smaller == up;
        if step.sups.is_empty() && plan.trim() == ZTrim::Live {
            // Round elided: nothing live crosses this cut. No message, no
            // span — not even the envelope of the zero-payload message the
            // dense layout would still ship. The dense payload (zero when
            // the list was empty by ownership alone) is saved wire bytes.
            if sends {
                zcomm.metric_inc("comm.z.bytes_saved", 8 * step.dense_doubles * nrhs as u64);
            }
            continue;
        }
        let (role, tag) = if up {
            (TreeRole::Reduce, TAG_R + l as u64)
        } else {
            (TreeRole::Bcast, TAG_B + l as u64)
        };
        zcomm.set_span_detail(Some(detail(l, role, step)));
        if sends {
            pack_into(plan, &step.sups, y_vals, nrhs, &mut buf);
            note_sent(zcomm, step.dense_doubles, nrhs, buf.len());
            zcomm.send(step.peer as usize, tag, &buf, Category::ZComm);
        } else {
            let msg = zcomm.recv(Some(step.peer as usize), Some(tag), Category::ZComm);
            unpack(plan, &step.sups, &msg.payload, y_vals, nrhs, up);
        }
    }
    zcomm.set_span_detail(None);
}

/// The straightforward alternative (paper §3.2): one dense `MPI_Allreduce`
/// over the replicating grids for every ancestor layout node (pack lists
/// precompiled root-first in `naive`, live-trimmed under [`ZTrim::Live`]).
/// Used by the ablation bench to show why the sparse scheme wins.
pub fn naive_allreduce<T: Transport>(
    plan: &Plan,
    zcomm: &T,
    naive: &[NaiveNode],
    nrhs: usize,
    y_vals: &mut impl SupStore,
) {
    let mut buf = presize(plan, naive.iter().map(|n| &n.sups[..]), nrhs, y_vals);
    zcomm.metric_inc("comm.z.bytes", 0);
    zcomm.metric_inc("comm.z.bytes_saved", 0);

    // All grids of a subtree call in the same order (root first).
    for nn in naive {
        // The trimmed list is identical on every grid replicating the
        // node, so they all skip it or all reduce it.
        if nn.sups.is_empty() && plan.trim() == ZTrim::Live {
            zcomm.metric_inc("comm.z.bytes_saved", 8 * nn.dense_doubles * nrhs as u64);
            continue;
        }
        // The grids replicating a node are consecutive, and a rank of
        // `zcomm` is its grid index.
        let node = nn.node as usize;
        let first = plan.min_z(node);
        let grids: Vec<usize> = (first..first + plan.n_grids_of(node)).collect();
        let sub = zcomm.subgroup(&grids, node);
        pack_into(plan, &nn.sups, y_vals, nrhs, &mut buf);
        note_sent(zcomm, nn.dense_doubles, nrhs, buf.len());
        sub.set_span_detail(Some(SpanDetail::NaiveAllreduce { node: nn.node }));
        sub.allreduce_sum(&mut buf, Category::ZComm);
        unpack(plan, &nn.sups, &buf, y_vals, nrhs, false);
    }
    zcomm.set_span_detail(None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::schedule::ScheduleKey;
    use lufactor::factorize;
    use ordering::SymbolicOptions;
    use simgrid::{Category, ClusterOptions, MachineModel};
    use sparse::gen;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Run just the allreduce over synthetic per-grid partials — one
    /// contribution per grid that is *live* for the supernode — and check
    /// every live diagonal owner ends up with the full live sum.
    fn allreduce_only(pz: usize, naive: bool) {
        let a = gen::poisson2d_9pt(12, 12);
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let plan = Arc::new(Plan::new(Arc::clone(&f), 2, 2, pz));
        let sched = plan.schedule(ScheduleKey {
            baseline: false,
            tree_comm: true,
        });
        let nrhs = 2;
        let plan2 = Arc::clone(&plan);
        let rep = simgrid::run(
            plan.nranks(),
            MachineModel::cori_haswell(),
            &ClusterOptions::default(),
            move |world| {
                let plan = &plan2;
                let (x, y, z) = plan.coords(world.rank());
                let rs = &sched.ranks[plan.rank_of(x, y, z)];
                let (_grid, zcomm) = plan.cart_comms(&world);
                // Synthetic partials: supernode k contributes (k + z·1000)
                // per entry on each grid live for it (dead replicas hold
                // exact zeros in the real solver and are trimmed away).
                let sym = plan.fact.lu.sym();
                let mut y_vals: HashMap<u32, Vec<f64>> = HashMap::new();
                for &k in &plan.grids[z].supers {
                    let ku = k as usize;
                    if ku % plan.px == x && ku % plan.py == y && plan.grids[z].live.contains(ku) {
                        let w = sym.sup_width(ku) * nrhs;
                        y_vals.insert(k, vec![k as f64 + z as f64 * 1000.0; w]);
                    }
                }
                if naive {
                    naive_allreduce(plan, &zcomm, &rs.naive, nrhs, &mut y_vals);
                } else {
                    sparse_allreduce(plan, &zcomm, &rs.zsteps, nrhs, &mut y_vals);
                }
                (x, y, z, y_vals)
            },
        );
        // Expected on every live diagonal owner: the sum over the live
        // replicating grids of (k + g·1000).
        let sym = plan.fact.lu.sym();
        for (x, y, z, y_vals) in rep.results {
            for &k in &plan.grids[z].supers {
                let ku = k as usize;
                if ku % plan.px != x || ku % plan.py != y || !plan.grids[z].live.contains(ku) {
                    continue;
                }
                let zs: Vec<usize> = (0..pz)
                    .filter(|&g| plan.grids[g].live.contains(ku))
                    .collect();
                let want: f64 = zs.iter().map(|&g| k as f64 + g as f64 * 1000.0).sum();
                let w = sym.sup_width(ku) * nrhs;
                let v = y_vals
                    .get(&k)
                    .unwrap_or_else(|| panic!("live sup {k} missing on grid {z}"));
                assert_eq!(v.len(), w);
                for &got in v {
                    assert_eq!(got, want, "sup {k} grid {z}");
                }
            }
        }
    }

    #[test]
    fn sparse_allreduce_sums_partials_pz2() {
        allreduce_only(2, false);
    }

    #[test]
    fn sparse_allreduce_sums_partials_pz8() {
        allreduce_only(8, false);
    }

    #[test]
    fn naive_allreduce_agrees() {
        allreduce_only(4, true);
    }

    /// The presence bitmap round-trips runtime-partial maps: absent
    /// supernodes pack no bytes, the unpacker visits only present entries,
    /// and the layout check rejects nothing on a well-formed payload.
    #[test]
    fn bitmap_partial_presence_roundtrip() {
        let a = gen::poisson2d_9pt(12, 12);
        let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).unwrap());
        let plan = Plan::new(Arc::clone(&f), 1, 1, 2);
        let sym = plan.fact.lu.sym();
        let nrhs = 2;
        let sups = plan.grids[0].supers.clone();
        assert!(sups.len() > 3, "test wants a multi-sup list");
        let width = |k: u32| sym.sup_width(k as usize) * nrhs;

        let mut vals: HashMap<u32, Vec<f64>> = HashMap::new();
        for (i, &k) in sups.iter().enumerate() {
            if i % 2 == 0 {
                vals.insert(k, vec![k as f64 + 0.5; width(k)]);
            }
        }
        let mut buf = Vec::new();
        pack_present_with(&sups, &mut buf, |k, buf| {
            vals.get(&k).map(|v| buf.extend_from_slice(v)).is_some()
        });
        let present: usize = sups
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 2 == 0)
            .map(|(_, &k)| width(k))
            .sum();
        assert_eq!(buf.len(), sups.len().div_ceil(64) + present);

        // Only present supernodes are visited, each with its own values.
        let mut seen: HashMap<u32, Vec<f64>> = HashMap::new();
        unpack_present_with(&plan, &sups, &buf, nrhs, "test pack", |i, v| {
            seen.insert(sups[i], v.to_vec());
        });
        assert_eq!(seen.len(), vals.len());
        for (k, v) in &vals {
            assert_eq!(&seen[k], v);
        }

        // A truncated payload trips the layout check.
        let short = &buf[..buf.len() - 1];
        let r = std::panic::catch_unwind(|| {
            check_present_layout(&plan, &sups, short, nrhs, "test pack")
        });
        assert!(r.is_err(), "layout check accepted a truncated payload");
    }

    /// The sparse allreduce must use exactly 2·log2(Pz) message rounds per
    /// diagonal rank column and far less volume than the naive scheme.
    #[test]
    fn sparse_beats_naive_in_volume() {
        let a = gen::poisson2d_9pt(16, 16);
        let pz = 8;
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let plan = Arc::new(Plan::new(Arc::clone(&f), 1, 1, pz));
        let nrhs = 1;
        let vol = |naive: bool| {
            let plan2 = Arc::clone(&plan);
            let sched = plan.schedule(ScheduleKey {
                baseline: false,
                tree_comm: true,
            });
            let rep = simgrid::run(
                pz,
                MachineModel::cori_haswell(),
                &ClusterOptions::default(),
                move |world| {
                    let plan = &plan2;
                    let z = world.rank();
                    let rs = &sched.ranks[plan.rank_of(0, 0, z)];
                    let (_grid, zcomm) = plan.cart_comms(&world);
                    let sym = plan.fact.lu.sym();
                    let mut y_vals: HashMap<u32, Vec<f64>> = HashMap::new();
                    for &k in &plan.grids[z].supers {
                        let w = sym.sup_width(k as usize) * nrhs;
                        y_vals.insert(k, vec![1.0; w]);
                    }
                    if naive {
                        naive_allreduce(plan, &zcomm, &rs.naive, nrhs, &mut y_vals);
                    } else {
                        sparse_allreduce(plan, &zcomm, &rs.zsteps, nrhs, &mut y_vals);
                    }
                },
            );
            (
                rep.total_msgs(Category::ZComm),
                rep.total_bytes(Category::ZComm),
            )
        };
        let (sm, sb) = vol(false);
        let (nm, nb) = vol(true);
        assert!(sm < nm, "sparse {sm} msgs vs naive {nm}");
        assert!(sb <= nb, "sparse {sb} bytes vs naive {nb}");
    }

    /// The trimmed layout ships strictly fewer z bytes than the dense
    /// layout of the same plan shape, and reports the delta through the
    /// `comm.z.*` counters.
    #[test]
    fn trimmed_layout_saves_wire_bytes() {
        // R-MAT: uneven separators leave many replicated ancestors dead on
        // deep grids (a PDE stencil couples everything and trims nothing).
        let a = gen::rmat(9, 8, 7);
        let pz = 8;
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let run_with = |trim: ZTrim| {
            let plan = Arc::new(Plan::with_trim(Arc::clone(&f), 1, 1, pz, trim));
            let sched = plan.schedule(ScheduleKey {
                baseline: false,
                tree_comm: true,
            });
            let plan2 = Arc::clone(&plan);
            let rep = simgrid::run(
                pz,
                MachineModel::cori_haswell(),
                &ClusterOptions::default(),
                move |world| {
                    let plan = &plan2;
                    let z = world.rank();
                    let rs = &sched.ranks[plan.rank_of(0, 0, z)];
                    let (_grid, zcomm) = plan.cart_comms(&world);
                    let sym = plan.fact.lu.sym();
                    let mut y_vals: HashMap<u32, Vec<f64>> = HashMap::new();
                    for &k in &plan.grids[z].supers {
                        if plan.grids[z].live.contains(k as usize) {
                            let w = sym.sup_width(k as usize);
                            y_vals.insert(k, vec![1.0; w]);
                        }
                    }
                    sparse_allreduce(plan, &zcomm, &rs.zsteps, 1, &mut y_vals);
                },
            );
            (
                rep.total_bytes(Category::ZComm),
                rep.metrics.counter("comm.z.bytes"),
                rep.metrics.counter("comm.z.bytes_saved"),
            )
        };
        let (live_wire, live_bytes, live_saved) = run_with(ZTrim::Live);
        let (dense_wire, dense_bytes, dense_saved) = run_with(ZTrim::Dense);
        assert!(
            live_wire < dense_wire,
            "trim saved nothing: live {live_wire} vs dense {dense_wire}"
        );
        assert!(live_saved > 0, "comm.z.bytes_saved stayed zero");
        assert_eq!(dense_saved, 0, "dense layout reported savings");
        assert!(live_bytes < dense_bytes);
    }
}
