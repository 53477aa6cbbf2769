//! Golden snapshot of the compiled communication-schedule IR.
//!
//! The schedule is the contract between the compiler and all four solver
//! interpreters: broadcast/reduction trees, pass specs, pack lists, and
//! z-exchange roles. This test pins the full serde JSON of one small but
//! non-trivial compile (2 × 2 × 2 grid, tree communication) against a
//! committed fixture, so an accidental change to tag layout, tree shape,
//! or pack ordering shows up as a readable JSON diff instead of a numeric
//! mystery three layers downstream.
//!
//! Intentional IR changes: regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test schedule_golden` and commit the diff.
//!
//! Migration note (PR 9, sparsity-aware inter-grid exchange): `ZStep` and
//! `NaiveNode` gained a `dense_doubles` field (the untrimmed payload width
//! the `comm.z.bytes_saved` accounting is measured against), and under the
//! default `ZTrim::Live` plan the `sups` pack lists carry only supernodes
//! some grid of the step's sender subtree is live for. On this fixture
//! (2 × 2 × 2 over a 9-point Poisson grid) every replicated ancestor is
//! live, so the expected diff is the new field alone — list contents and
//! ordering are unchanged. Pre-PR9 serialized schedules lack the field and
//! must be regenerated (the vendored serde stand-in has no `#[serde
//! (default)]`).
//!
//! Migration note (flat per-rank solve state): the compiler now lays out
//! each rank's solve state. `BlockSched` gained `slot` (its accumulator
//! slot) and `row` (its target's position in the pass), `RowSched` gained
//! `acc` and `part` (its accumulator row and first child-partial slot),
//! `ZExchange` gained `slots`, and `RankSchedule` gained `vals` (the dense
//! supernode index) and `l_slots`/`u_slots` (the per-phase slot layouts).
//! One existing field changed meaning: an L block's slot spans only the
//! rows the block touches, so its `dense_start` and `scatter` indices now
//! count from the block's first row instead of its row supernode's first
//! column (U blocks are unchanged). The fixture was regenerated once; with
//! the new fields stripped it differs from the previous one in exactly
//! those L-pass offsets — trees, tags, pack lists and ordering are
//! unchanged. Older serialized schedules must be regenerated.

use sptrsv::schedule::ScheduleKey;
use sptrsv::Plan;
use sptrsv_repro::prelude::*;
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/schedule_new3d_2x2x2.json"
);

#[test]
fn compiled_schedule_matches_golden_fixture() {
    let a = gen::poisson2d_9pt(8, 8);
    let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).expect("factorize"));
    let plan = Plan::new(Arc::clone(&f), 2, 2, 2);
    let sched = plan.schedule(ScheduleKey {
        baseline: false,
        tree_comm: true,
    });
    let mut got = serde_json::to_string_pretty(&*sched).expect("schedule serializes");
    got.push('\n');

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("updated {FIXTURE}");
        return;
    }

    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("cannot read {FIXTURE}: {e}\nrun with UPDATE_GOLDEN=1 once"));
    assert!(
        got == want,
        "compiled schedule IR drifted from the golden fixture.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test --test schedule_golden\n\
         and review the JSON diff. Fixture: {FIXTURE}"
    );
}
