//! The level-set execution engine.
//!
//! [`run_level_pass`] interprets the same compiled [`PassSched`] as the
//! message-driven tree walk ([`crate::schedule::run_pass_with`]), but
//! fires trigger rows in the pass's precompiled level program
//! ([`PassSched::level_order`] / [`PassSched::level_ptr`]) instead of a
//! reactive ready queue: sweep the levels in order, and before firing
//! each row, block on the transport until the row's remaining
//! contributions have arrived. Because the levels are computed on the
//! factor's *global* dependency DAG and the within-level order is a
//! linear extension of it, a parked rank can only ever wait on rows that
//! other ranks fire strictly earlier in their own programs (or on
//! same-supernode reduction partials, which flow down a tree) — so the
//! barriers cannot deadlock, even under adversarial message reordering.
//!
//! Everything message-shaped is shared with the tree executor
//! (`recv_and_dispatch`, `fire_row`, the duplicate-delivery dedup and
//! excess-partial validation), so the two engines cannot drift apart
//! semantically; and because every contribution still lands in the same
//! order-independent ledger slots, the solution bits are identical to the
//! tree engine's no matter which engine ran (asserted by
//! `tests/executor_conformance.rs`).
//!
//! The engine reuses the caller's [`PassScratch`] and performs no heap
//! allocation after [`PassScratch::reset`] — the steady-state audit
//! (`tests/alloc_audit.rs`) brackets this loop exactly like the tree
//! walk. The `work` queue the shared helpers push completed rows into is
//! ignored here (the firing order is precompiled); its capacity is
//! reserved up front, so the pushes never allocate.

use crate::schedule::{
    announce_ext_roots, fire_row, pass_report, recv_and_dispatch, PassEngine, PassSched,
    PassScratch,
};

/// Interpret one compiled 2D pass with the level-set engine.
pub fn run_level_pass<E: PassEngine>(engine: &mut E, pass: &PassSched, scratch: &mut PassScratch) {
    scratch.reset(pass);
    // Steady-state region: no heap allocation past this point.
    let _audit = crate::audit::pass_scope();
    let PassScratch { fmod, work, seen } = scratch;

    announce_ext_roots(engine, pass, fmod, work);

    let mut received = 0u32;
    for (lev, rows) in pass.levels().enumerate() {
        for &ri in rows {
            let idx = ri as usize;
            while fmod[idx] > 0 {
                engine.on_level_wait(lev as u32, &pass.rows[idx], fmod[idx]);
                recv_and_dispatch(engine, pass, fmod, work, seen, &mut received, true);
            }
            fire_row(engine, pass, idx, fmod, work);
        }
    }
    // All rows fired; drain the remaining receive budget — this rank may
    // still owe broadcast forwards to its tree children.
    while received < pass.expected {
        recv_and_dispatch(engine, pass, fmod, work, seen, &mut received, true);
    }
    if fmod.iter().any(|&c| c != 0) {
        panic!(
            "level pass exhausted its receive budget with unmet dependencies{}",
            pass_report(pass, fmod, received)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ColSched, RecvEvent, RowSched};
    use std::sync::Arc;

    /// Script-driven engine mirroring the schedule-module mock, plus
    /// level-wait observation.
    struct MockEngine {
        script: Vec<RecvEvent>,
        next: usize,
        fired: Vec<u32>,
        waits: Vec<(u32, u32)>,
    }

    impl MockEngine {
        fn new(script: Vec<RecvEvent>) -> Self {
            MockEngine {
                script,
                next: 0,
                fired: Vec::new(),
                waits: Vec::new(),
            }
        }
    }

    impl PassEngine for MockEngine {
        fn solve_diag(&mut self, row: &RowSched) -> Arc<[f64]> {
            self.fired.push(row.sup);
            vec![0.0].into()
        }
        fn store_solved(&mut self, _sup: u32, _v: &[f64]) {}
        fn solved(&self, _sup: u32) -> Arc<[f64]> {
            vec![0.0].into()
        }
        fn forward(&mut self, _col: &ColSched, _v: &Arc<[f64]>) {}
        fn send_partial(&mut self, row: &RowSched, _parent: u32) {
            self.fired.push(row.sup);
        }
        fn apply_column(&mut self, _col: &ColSched, _v: &[f64], _scatter: &[u32]) {}
        fn add_partial(&mut self, _row: &RowSched, _src: u32, _payload: &[f64]) {}
        fn recv(&mut self, _epoch: u64) -> RecvEvent {
            let ev = self.script[self.next].clone();
            self.next += 1;
            ev
        }
        fn on_level_wait(&mut self, level: u32, row: &RowSched, _outstanding: u32) {
            self.waits.push((level, row.sup));
        }
    }

    /// Two rows in two levels; the second row waits at its barrier for a
    /// partial, and the wait is attributed to the right level and row.
    #[test]
    fn fires_in_level_order_and_attributes_barrier_waits() {
        let pass = PassSched {
            epoch: 0x3 << 48,
            lower: true,
            expected: 1,
            cols: vec![],
            rows: vec![
                RowSched {
                    sup: 2,
                    fmod0: 0,
                    parent: None,
                    children: vec![],
                    acc: 0,
                    part: 0,
                },
                RowSched {
                    sup: 9,
                    fmod0: 1,
                    parent: Some(3),
                    children: vec![1],
                    acc: 1,
                    part: 0,
                },
            ],
            ext_roots: vec![],
            scatter: vec![],
            level_order: vec![0, 1],
            level_ptr: vec![0, 1, 2],
        };
        let script = vec![RecvEvent {
            vector: false,
            sup: 9,
            src: 1,
            payload: vec![0.0].into(),
        }];
        let mut eng = MockEngine::new(script);
        let mut scratch = PassScratch::new();
        run_level_pass(&mut eng, &pass, &mut scratch);
        assert_eq!(eng.fired, vec![2, 9], "precompiled firing order");
        assert_eq!(eng.waits, vec![(1, 9)], "barrier wait at level 1, row 9");
        assert_eq!(eng.next, 1, "the one expected message was consumed");
    }

    /// Duplicated deliveries are dropped without consuming receive budget,
    /// exactly as in the tree executor (shared dispatch path).
    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let pass = PassSched {
            epoch: 0x4 << 48,
            lower: true,
            expected: 2,
            cols: vec![],
            rows: vec![RowSched {
                sup: 5,
                fmod0: 2,
                parent: Some(2),
                children: vec![1, 4],
                acc: 0,
                part: 0,
            }],
            ext_roots: vec![],
            scatter: vec![],
            level_order: vec![0],
            level_ptr: vec![0, 1],
        };
        let dup = RecvEvent {
            vector: false,
            sup: 5,
            src: 1,
            payload: vec![0.0].into(),
        };
        let script = vec![
            dup.clone(),
            dup, // replayed delivery of the same partial
            RecvEvent {
                vector: false,
                sup: 5,
                src: 4,
                payload: vec![0.0].into(),
            },
        ];
        let mut eng = MockEngine::new(script);
        let mut scratch = PassScratch::new();
        run_level_pass(&mut eng, &pass, &mut scratch);
        // The replay is dropped without consuming budget; the second
        // child's partial still lands and the row fires once.
        assert_eq!(eng.fired, vec![5]);
        assert_eq!(eng.next, 3, "all three deliveries consumed");
    }
}
