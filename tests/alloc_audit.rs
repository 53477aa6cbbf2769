//! Steady-state allocation audit.
//!
//! The solve hot paths are bracketed by [`sptrsv::audit::pass_scope`]
//! regions (the pass-interpreter loop and the single-GPU column sweeps).
//! A counting global allocator reports every heap allocation made by a
//! thread while inside such a region; after one warm-up solve — which is
//! allowed to grow interpreter scratch — a second solve of the same system
//! must perform **zero** heap allocations inside the audited regions, for
//! all four solver variants. Pass setup, outside those regions, has a
//! budget of its own that does not grow with the pass's block count.
//!
//! This is the enforcement teeth behind the zero-copy/arena design: any
//! regression that sneaks a `Vec` or `HashMap` insert back into the
//! steady-state loop fails here with a count, not a silent slowdown.

use lufactor::factorize;
use ordering::SymbolicOptions;
use simgrid::MachineModel;
use sparse::gen;
use sptrsv::{
    Algorithm, Arch, BatchPolicy, ExecutorKind, QueueFullPolicy, ServiceConfig, Solver3d,
    SolverConfig, SolverService,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The audit counter is process-global, so the audit tests must not run
/// concurrently with each other.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counting hook allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        sptrsv::audit::on_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        sptrsv::audit::on_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        sptrsv::audit::on_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn audited_allocs_on_second_solve(
    name: &str,
    algorithm: Algorithm,
    arch: Arch,
    executor: ExecutorKind,
    px: usize,
    py: usize,
    pz: usize,
) -> u64 {
    let a = gen::poisson2d_9pt(12, 12);
    let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
    let nrhs = 2;
    let b = gen::standard_rhs(a.nrows(), nrhs);
    let machine = match arch {
        Arch::Cpu => MachineModel::cori_haswell(),
        Arch::Gpu => MachineModel::perlmutter_gpu(),
    };
    let cfg = SolverConfig {
        px,
        py,
        pz,
        nrhs,
        algorithm,
        arch,
        machine,
        chaos_seed: 0,
        fault: Default::default(),
        backend: Default::default(),
        executor,
    };
    let solver = Solver3d::new(Arc::clone(&f), cfg);
    let want = f.solve(&b, nrhs);

    // Warm-up: metric names and transport routes appear, interpreter
    // scratch grows to the high-water mark.
    let warm = solver.solve(&b, nrhs);
    assert!(
        sparse::max_abs_diff(&warm.x, &want) < 1e-11,
        "{name}: warm-up solve wrong"
    );
    let _warmup = sptrsv::audit::take_scoped_allocs();

    // Steady state: same plan, same schedule, reused state.
    let out = solver.solve(&b, nrhs);
    assert!(
        sparse::max_abs_diff(&out.x, &want) < 1e-11,
        "{name}: steady-state solve wrong"
    );
    sptrsv::audit::take_scoped_allocs()
}

#[test]
fn steady_state_solves_never_allocate_in_audited_regions() {
    let _serial = AUDIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Liveness check first: the hook must actually count an in-scope
    // allocation, or the zero assertions below would pass vacuously.
    {
        let _ = sptrsv::audit::take_scoped_allocs();
        let scope = sptrsv::audit::pass_scope();
        let v: Vec<u64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        drop(v);
        drop(scope);
        assert!(
            sptrsv::audit::take_scoped_allocs() >= 1,
            "counting allocator hook is not live"
        );
    }
    use ExecutorKind::{Level, Tree};
    for (name, algorithm, arch, executor, px, py, pz) in [
        ("new3d/cpu/tree", Algorithm::New3d, Arch::Cpu, Tree, 2, 2, 2),
        (
            "new3d/cpu/level",
            Algorithm::New3d,
            Arch::Cpu,
            Level,
            2,
            2,
            2,
        ),
        (
            "baseline3d/cpu/tree",
            Algorithm::Baseline3d,
            Arch::Cpu,
            Tree,
            2,
            2,
            2,
        ),
        (
            "baseline3d/cpu/level",
            Algorithm::Baseline3d,
            Arch::Cpu,
            Level,
            2,
            2,
            2,
        ),
        (
            "new3d/gpu-multi/tree",
            Algorithm::New3d,
            Arch::Gpu,
            Tree,
            2,
            2,
            2,
        ),
        (
            "new3d/gpu-multi/level",
            Algorithm::New3d,
            Arch::Gpu,
            Level,
            2,
            2,
            2,
        ),
        (
            "new3d/gpu-single/tree",
            Algorithm::New3d,
            Arch::Gpu,
            Tree,
            1,
            1,
            2,
        ),
        // Pz = 4 exercises multi-round trimmed allreduces: the pack slots
        // are pre-sized inside `sparse_allreduce`/`naive_allreduce`, so
        // the audited (un)packing must stay allocation-free across rounds
        // under the live-trimmed layouts too (the pre-PR9 `unpack_set`
        // heap-allocated brand-new broadcast slots mid-solve here).
        (
            "new3d/cpu/tree/pz4",
            Algorithm::New3d,
            Arch::Cpu,
            Tree,
            2,
            1,
            4,
        ),
        (
            "new3d-naive/cpu/tree/pz4",
            Algorithm::New3dNaiveAllreduce,
            Arch::Cpu,
            Tree,
            2,
            1,
            4,
        ),
        (
            "baseline3d/cpu/tree/pz4",
            Algorithm::Baseline3d,
            Arch::Cpu,
            Tree,
            2,
            1,
            4,
        ),
    ] {
        let n = audited_allocs_on_second_solve(name, algorithm, arch, executor, px, py, pz);
        assert_eq!(
            n, 0,
            "{name}: {n} heap allocations inside audited steady-state regions \
             on the second solve (expected none)"
        );
    }
}

/// Pass setup has a budget that does not grow with the work: building one
/// pass's engine state costs one allocation per `Arc` send payload (one
/// per trigger row, plus one per announced external column in the
/// baseline) and at most 16 more, while the KKT fixture's busiest passes
/// apply 500 to 1800 blocks. Every accumulator slot and solved-value piece
/// lives in per-solve slabs the schedule laid out, never in per-block
/// buffers.
#[test]
fn pass_setup_allocations_do_not_scale_with_blocks() {
    let _serial = AUDIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let a = gen::kkt3d_irregular(16, 11, 7, 0.3, 17);
    let nrhs = 8;
    let b = gen::standard_rhs(a.nrows(), nrhs);
    for (algorithm, (px, py, pz)) in [
        (Algorithm::New3d, (1, 1, 2)),
        (Algorithm::New3d, (2, 2, 2)),
        (Algorithm::Baseline3d, (1, 1, 2)),
    ] {
        let f = Arc::new(factorize(&a, pz, &SymbolicOptions::default()).unwrap());
        let cfg = SolverConfig {
            px,
            py,
            pz,
            nrhs,
            algorithm,
            arch: Arch::Cpu,
            machine: MachineModel::cori_haswell(),
            chaos_seed: 0,
            fault: Default::default(),
            backend: Default::default(),
            executor: Default::default(),
        };
        let solver = Solver3d::new(Arc::clone(&f), cfg);
        let key = sptrsv::schedule::ScheduleKey {
            baseline: algorithm == Algorithm::Baseline3d,
            tree_comm: algorithm != Algorithm::Baseline3d,
        };
        let most_blocks = solver
            .plan()
            .schedule(key)
            .ranks
            .iter()
            .flat_map(|rs| rs.l_steps.iter().chain(&rs.u_steps))
            .filter_map(|s| s.pass.as_ref())
            .map(|p| p.cols.iter().map(|c| c.blocks.len()).sum::<usize>())
            .max()
            .unwrap();
        assert!(most_blocks > 500, "fixture too small: {most_blocks} blocks");

        let _ = sptrsv::audit::take_setup_excess();
        let out = solver.solve(&b, nrhs);
        assert!(sparse::rel_residual_inf(&a, &out.x, &b, nrhs) < 1e-10);
        let excess = sptrsv::audit::take_setup_excess().expect("pass setups were audited");
        assert!(
            excess <= 16,
            "{algorithm:?} {px}x{py}x{pz}: a pass setup made {excess} allocations beyond \
             its payloads (budget 16; busiest pass applies {most_blocks} blocks)"
        );
    }
}

/// Steady-state serving: after one warm-up batch, every further batch
/// through a [`SolverService`] — submit copy-in, mux, demux, collect
/// copy-out — performs zero heap allocations inside the audited regions.
/// Batches are deterministically width-4 (width-triggered flushes), so
/// the warm-up covers the exact steady-state shape.
#[test]
fn steady_state_serving_never_allocates_in_audited_regions() {
    let _serial = AUDIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let a = gen::poisson2d_9pt(12, 12);
    let n = a.nrows();
    let f = Arc::new(factorize(&a, 2, &SymbolicOptions::default()).unwrap());
    let cfg = SolverConfig {
        px: 2,
        py: 2,
        pz: 2,
        nrhs: 1,
        algorithm: Algorithm::New3d,
        arch: Arch::Cpu,
        machine: MachineModel::cori_haswell(),
        chaos_seed: 0,
        fault: Default::default(),
        backend: Default::default(),
        executor: Default::default(),
    };
    let solver = Solver3d::new(Arc::clone(&f), cfg);

    // Bit-exact references: each column solved standalone on the same plan.
    let b = gen::standard_rhs(n, 4);
    let mut want = vec![0.0; 4 * n];
    for r in 0..4 {
        let out = solver.solve(&b[r * n..(r + 1) * n], 1);
        want[r * n..(r + 1) * n].copy_from_slice(&out.x);
    }

    let svc = SolverService::start(
        solver,
        ServiceConfig {
            // A long window makes every flush width-triggered at exactly 4.
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_secs(10),
            },
            queue_capacity: 16,
            max_request_width: 1,
            on_full: QueueFullPolicy::Block,
        },
    );
    let round = |svc: &SolverService| {
        let tickets: Vec<_> = (0..4)
            .map(|r| svc.submit(&b[r * n..(r + 1) * n], 1).unwrap())
            .collect();
        for (r, t) in tickets.into_iter().enumerate() {
            assert_eq!(
                t.wait(),
                &want[r * n..(r + 1) * n],
                "serving audit: request {r} not bit-identical"
            );
        }
    };

    // Warm-up batch: service scratch and solver arenas hit high water.
    round(&svc);
    let _warmup = sptrsv::audit::take_scoped_allocs();

    // Steady state: three more batches, all allocation-free in scope.
    // Live observability reads (scrape-style metrics snapshot, span
    // profile, flight-recorder dump) run between batches: they allocate
    // on the reader's thread — outside any audited region — and must not
    // leak allocations into the recorder/metric update paths they share
    // state with.
    for _ in 0..3 {
        round(&svc);
        std::hint::black_box(svc.metrics().to_openmetrics());
        std::hint::black_box(svc.span_profile().to_collapsed());
        std::hint::black_box(svc.dump_flight_recorder());
    }
    let scoped = sptrsv::audit::take_scoped_allocs();
    assert_eq!(
        scoped, 0,
        "serving steady state: {scoped} heap allocations inside audited \
         regions across three batches (expected none)"
    );
    svc.shutdown();
}

/// The always-on observability primitives are themselves allocation-free
/// once warm: recording spans into a flight recorder (through both the
/// fill and wraparound regimes) and updating pre-touched counters and
/// log2 latency histograms never touch the heap.
#[test]
fn recorder_and_live_metric_updates_never_allocate() {
    use simgrid::{latency_buckets, Category, FlightRecorder, Metrics, TraceEvent};
    let _serial = AUDIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut recorder = FlightRecorder::new(64);
    let mut metrics = Metrics::new();
    metrics.touch_counter("service.requests");
    metrics.touch_histogram("service.solve_seconds", latency_buckets());
    let _ = sptrsv::audit::take_scoped_allocs();
    {
        let _scope = sptrsv::audit::pass_scope();
        for i in 0..1000u64 {
            let t = i as f64 * 1e-3;
            recorder.record(TraceEvent::compute(t, t + 5e-4, Category::Flop));
            metrics.inc("service.requests", 1);
            metrics.observe(
                "service.solve_seconds",
                latency_buckets(),
                1e-6 * (i + 1) as f64,
            );
        }
    }
    let scoped = sptrsv::audit::take_scoped_allocs();
    assert_eq!(
        scoped, 0,
        "observability steady state: {scoped} heap allocations recording \
         1000 spans and metric updates (expected none)"
    );
    // The loop really exercised both regimes and the series really moved.
    assert_eq!(recorder.len(), 64);
    assert_eq!(recorder.overwritten(), 1000 - 64);
    assert_eq!(metrics.counter("service.requests"), 1000);
    assert_eq!(
        metrics.histogram("service.solve_seconds").unwrap().count(),
        1000
    );
}
