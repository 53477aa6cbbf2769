//! Flat per-rank solve state for the solve hot path.
//!
//! * [`SolveArena`]: one `f64` buffer, sized once during pass setup and
//!   handed out as zeroed slices from offset 0 on every use — a bump
//!   allocator that resets per operation, backing diagonal-solve
//!   temporaries (masked RHS, folded partial sums, GEMV scratch).
//! * [`SupVals`]: a rank's solved `y` or `x`, one slab over the dense
//!   supernode index its schedule compiled ([`SupIndex`]).
//! * [`Ledger`]: a phase's partial sums, one slab over the accumulator
//!   slots its schedule compiled ([`SlotLayout`]).
//!
//! None of them hashes, and each costs one allocation per solve, so the
//! steady-state loop never allocates and pass setup stays cheap.

use crate::schedule::{RowSched, SlotLayout, SupIndex};
use std::collections::HashMap;

/// A reusable scratch buffer handing out zeroed `f64` slices.
#[derive(Default)]
pub struct SolveArena {
    buf: Vec<f64>,
}

impl SolveArena {
    /// Empty arena; size it with [`ensure`](Self::ensure) during setup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the backing buffer to at least `n` doubles. Call during pass
    /// setup, before the audited steady-state region.
    pub fn ensure(&mut self, n: usize) {
        if self.buf.len() < n {
            self.buf.resize(n, 0.0);
        }
    }

    /// Two disjoint zeroed slices of `a` and `b` doubles.
    pub fn slices2(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        self.ensure(a + b);
        let (sa, rest) = self.buf.split_at_mut(a);
        let (sb, _) = rest.split_at_mut(b);
        sa.fill(0.0);
        sb.fill(0.0);
        (sa, sb)
    }

    /// Three disjoint zeroed slices of `a`, `b`, and `c` doubles.
    #[allow(clippy::type_complexity)]
    pub fn slices3(
        &mut self,
        a: usize,
        b: usize,
        c: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64]) {
        self.ensure(a + b + c);
        let (sa, rest) = self.buf.split_at_mut(a);
        let (sb, rest) = rest.split_at_mut(b);
        let (sc, _) = rest.split_at_mut(c);
        sa.fill(0.0);
        sb.fill(0.0);
        sc.fill(0.0);
        (sa, sb, sc)
    }
}

/// Solved values of one rank (`y` or `x`): `w × nrhs` col-major per
/// supernode of its [`SupIndex`], in one zeroed slab.
pub struct SupVals<'s> {
    index: &'s SupIndex,
    nrhs: usize,
    vals: Vec<f64>,
    /// Pieces written this solve, by index position.
    written: Vec<bool>,
}

impl<'s> SupVals<'s> {
    /// A zeroed slab over `index` for `nrhs` right-hand sides.
    pub fn new(index: &'s SupIndex, nrhs: usize) -> Self {
        SupVals {
            index,
            nrhs,
            vals: vec![0.0; index.off[index.sups.len()] as usize * nrhs],
            written: vec![false; index.sups.len()],
        }
    }

    /// The index this slab is laid out over.
    pub fn index(&self) -> &'s SupIndex {
        self.index
    }

    /// Index position of `sup`.
    fn pos(&self, sup: u32) -> usize {
        self.index
            .sups
            .binary_search(&sup)
            .unwrap_or_else(|_| panic!("supernode {sup} is not in the rank's value index"))
    }

    /// Slab range of index position `i`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.index.off[i] as usize * self.nrhs..self.index.off[i + 1] as usize * self.nrhs
    }

    /// The piece of `sup`.
    pub fn get(&self, sup: u32) -> &[f64] {
        &self.vals[self.span(self.pos(sup))]
    }

    /// The piece of `sup`, for writing.
    pub fn slot(&mut self, sup: u32) -> &mut [f64] {
        let i = self.pos(sup);
        self.written[i] = true;
        let span = self.span(i);
        &mut self.vals[span]
    }

    /// Overwrite the piece of `sup` with `v`.
    pub fn set(&mut self, sup: u32, v: &[f64]) {
        self.slot(sup).copy_from_slice(v);
    }

    /// Copies of the written pieces `keep` selects, ascending.
    pub fn pieces(&self, keep: impl Fn(u32) -> bool) -> Vec<(u32, Vec<f64>)> {
        let sups = &self.index.sups;
        (0..sups.len())
            .filter(|&i| self.written[i] && keep(sups[i]))
            .map(|i| (sups[i], self.vals[self.span(i)].to_vec()))
            .collect()
    }
}

/// Supernode-keyed storage the inter-grid allreduce packs from and
/// unpacks into: a rank's [`SupVals`], or a plain map for standalone
/// callers (the layered benchmark's allreduce probe, unit tests).
pub trait SupStore {
    /// The `len`-double piece of `sup`, zeroed if it did not exist.
    fn piece(&mut self, sup: u32, len: usize) -> &mut [f64];
}

impl SupStore for SupVals<'_> {
    fn piece(&mut self, sup: u32, len: usize) -> &mut [f64] {
        let s = self.slot(sup);
        debug_assert_eq!(s.len(), len, "piece width of supernode {sup}");
        s
    }
}

impl SupStore for HashMap<u32, Vec<f64>> {
    fn piece(&mut self, sup: u32, len: usize) -> &mut [f64] {
        self.entry(sup).or_insert_with(|| vec![0.0; len])
    }
}

/// Order-independent partial-sum accumulator of one phase.
///
/// Floating-point addition is not associative, so accumulating incoming
/// contributions in arrival order would make the solve's bits depend on
/// the message schedule. Instead every contribution a row can receive —
/// a local column block, a reduction child's partial, a baseline
/// z-exchange piece — has its own slot, fixed at compile time
/// ([`SlotLayout`]), and a row folds its slots in ascending key order.
/// The folded sum is bit-identical under *any* delivery order the network
/// (or the fault injector) produces.
pub struct Ledger<'s> {
    layout: &'s SlotLayout,
    nrhs: usize,
    slab: Vec<f64>,
    /// Passes of the phase begun so far.
    passes: u32,
    /// Rows a z-exchange delivered a piece for, by layout position.
    exchanged: Vec<bool>,
}

impl<'s> Ledger<'s> {
    /// A zeroed ledger over `layout` for `nrhs` right-hand sides.
    pub fn new(layout: &'s SlotLayout, nrhs: usize) -> Self {
        Ledger {
            layout,
            nrhs,
            slab: vec![0.0; layout.width as usize * nrhs],
            passes: 0,
            exchanged: vec![false; layout.rows.len()],
        }
    }

    /// Enter the phase's next pass.
    pub fn begin_pass(&mut self) {
        self.passes += 1;
    }

    /// The `len`-double slot at `off`.
    #[inline]
    pub fn slot(&mut self, off: u32, len: usize) -> &mut [f64] {
        let start = off as usize * self.nrhs;
        &mut self.slab[start..start + len]
    }

    /// Add `payload` elementwise into the slab from double `start` on.
    fn add_at(&mut self, start: usize, payload: &[f64]) {
        for (a, &v) in self.slab[start..start + payload.len()]
            .iter_mut()
            .zip(payload)
        {
            *a += v;
        }
    }

    /// Add reduction child `src`'s partial for `row` into its slot.
    pub fn add_partial(&mut self, row: &RowSched, src: u32, payload: &[f64]) {
        let j = row.children.iter().position(|&c| c == src);
        let j = j.expect("partial from a reduction child");
        self.add_at(row.part as usize * self.nrhs + j * payload.len(), payload);
    }

    /// Add a z-exchange piece for row `sup` into its slot at `off`.
    pub fn add_exchange(&mut self, sup: u32, off: u32, payload: &[f64]) {
        self.add_at(off as usize * self.nrhs, payload);
        let r = self.layout.find(sup).expect("exchange row laid out");
        self.exchanged[r] = true;
    }

    /// Fold the slots of layout row `acc` into `out` (`w × nrhs`
    /// col-major, zero-filled first) in ascending key order, each slot
    /// onto the part of the row it covers. Elements a slot covers but
    /// nothing wrote hold `+0.0`, and adding `+0.0` to a sum that starts at
    /// `+0.0` never changes its bits (only `-0.0 + +0.0` would, and such a
    /// sum cannot reach `-0.0`), so every element is the sum of the
    /// contributions it received, in key order. Allocation-free.
    pub fn fold_into(&self, acc: u32, out: &mut [f64]) {
        out.fill(0.0);
        let row = &self.layout.rows[acc as usize];
        let w = out.len() / self.nrhs;
        let mut at = row.off as usize * self.nrhs;
        for &[first, len] in &self.layout.cover[row.slot as usize..][..row.n as usize] {
            let (first, len) = (first as usize, len as usize);
            let slot = &self.slab[at..at + len * self.nrhs];
            for (o, s) in out.chunks_exact_mut(w).zip(slot.chunks_exact(len)) {
                for (o, &v) in o[first..first + len].iter_mut().zip(s) {
                    *o += v;
                }
            }
            at += len * self.nrhs;
        }
    }

    /// Layout row of `sup` if it holds a contribution slot yet this solve:
    /// from the first pass writing one of its local or child slots, or
    /// from its first z-exchange piece. This is the runtime presence test
    /// behind the baseline z-exchange's bitmap (DESIGN.md §15): rows
    /// nothing touched ship no bytes.
    pub fn present(&self, sup: u32) -> Option<u32> {
        let r = self.layout.find(sup)?;
        let row = &self.layout.rows[r];
        (row.first_pass < self.passes || self.exchanged[r]).then_some(r as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SlotRow;

    /// Rows `(sup, first_pass)` of whole-row slots `w` wide, `n` each.
    fn layout(rows: &[(u32, u32)], w: u32, n: u32) -> SlotLayout {
        let rows = rows.iter().enumerate().map(|(i, &(sup, first_pass))| {
            let i = i as u32;
            SlotRow {
                sup,
                off: i * n * w,
                slot: i * n,
                n,
                first_pass,
            }
        });
        let rows: Vec<SlotRow> = rows.collect();
        let slots = rows.len() * n as usize;
        SlotLayout {
            cover: vec![[0, w]; slots],
            width: slots as u32 * w,
            rows,
        }
    }

    #[test]
    fn slices_are_zeroed_disjoint_and_grow() {
        let mut a = SolveArena::new();
        let (x, y) = a.slices2(3, 5);
        x.fill(1.0);
        y.fill(2.0);
        assert_eq!((x.len(), y.len()), (3, 5));
        let (x, _, z) = a.slices3(4, 1, 16);
        assert!(x.iter().all(|&v| v == 0.0), "handed-out slices are zeroed");
        assert_eq!(z.len(), 16);
    }

    /// The whole point of the ledger: sums whose value depends on the
    /// addition order when accumulated naively fold bit-identically for
    /// every arrival order, to the key-order sum — an unwritten slot (the
    /// fifth) leaves the bits alone.
    #[test]
    fn ledger_fold_is_order_independent() {
        let layout = layout(&[(5, 0)], 2, 5);
        let parts = [
            (0, [1e16, -1.0]),
            (2, [0.1, -0.0]),
            (4, [-1e16, 0.5]),
            (6, [1.0, 1e-8]),
        ];
        let fold_in = |order: [usize; 4]| {
            let mut l = Ledger::new(&layout, 1);
            for i in order {
                l.add_at(parts[i].0, &parts[i].1);
            }
            let mut out = [f64::NAN; 2];
            l.fold_into(0, &mut out);
            out.map(f64::to_bits)
        };
        let key_order = parts
            .iter()
            .fold([0.0f64; 2], |s, (_, v)| [s[0] + v[0], s[1] + v[1]]);
        for perm in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]] {
            assert_eq!(fold_in(perm), key_order.map(f64::to_bits), "{perm:?}");
        }
    }

    #[test]
    fn presence_starts_at_the_first_writing_pass_or_exchange() {
        let layout = layout(&[(3, 1), (8, u32::MAX)], 1, 1);
        let mut l = Ledger::new(&layout, 1);
        l.begin_pass();
        assert_eq!(
            (l.present(3), l.present(8), l.present(9)),
            (None, None, None)
        );
        l.begin_pass();
        l.add_exchange(8, 1, &[2.0]);
        assert_eq!((l.present(3), l.present(8)), (Some(0), Some(1)));
    }
}
