//! Transport conformance: one suite of [`Transport`] contract cases,
//! instantiated once per backend.
//!
//! The real backends share one rank runtime (`simgrid::runtime`) and differ
//! only in their `Link`, so they are held to literally the same cases; the
//! simulator runs every case that does not measure the real clock. What is
//! specific to one backend — distinct PIDs, exit codes and failed launches
//! on proc; virtual time and faults on the simulator — is tested in that
//! backend's crate.

use simgrid::wire::WirePack;
use simgrid::{
    Category, ClusterOptions, EventKind, MachineModel, RealOptions, RunReport, Transport,
};
use std::sync::{PoisonError, RwLock};
use std::time::Duration;

/// Proc cases run alone; sim and native cases may share the process.
///
/// `fork` copies every lock in the state it is in. A thread that std spawns
/// takes a std-internal lock as it starts and as it exits, and a panic
/// takes another while its message is printed; a rank process forked at
/// such an instant inherits the lock held by a thread it does not have,
/// and hangs the first time it spawns a thread or panics itself. So a
/// launcher that forks holds this gate exclusively, launchers that spawn
/// rank threads (and may panic in them) hold it shared.
static FORK_GATE: RwLock<()> = RwLock::new(());

/// A backend under test: how to run a rank program on it.
trait Cluster {
    type Comm: Transport;

    /// A stalled rank's watchdog can drain every rank's flight ring.
    const ONE_ADDRESS_SPACE: bool = true;

    fn run<R, F>(nranks: usize, opts: &RealOptions, f: F) -> RunReport<R>
    where
        R: WirePack + Send,
        F: Fn(Self::Comm) -> R + Send + Sync;
}

fn toy_model() -> MachineModel {
    MachineModel::uniform("toy", 1e9, 1e-6, 1e9, 4)
}

struct Sim;
struct Native;
struct Proc;

impl Cluster for Sim {
    type Comm = simgrid::Comm;

    fn run<R, F>(nranks: usize, opts: &RealOptions, f: F) -> RunReport<R>
    where
        R: WirePack + Send,
        F: Fn(Self::Comm) -> R + Send + Sync,
    {
        let opts = ClusterOptions {
            stall_timeout: opts.stall_timeout,
            flight_dump_path: opts.flight_dump_path.clone(),
            ..ClusterOptions::default()
        };
        let _shared = FORK_GATE.read().unwrap_or_else(PoisonError::into_inner);
        simgrid::run(nranks, toy_model(), &opts, f)
    }
}

impl Cluster for Native {
    type Comm = comm_native::NativeComm;

    fn run<R, F>(nranks: usize, opts: &RealOptions, f: F) -> RunReport<R>
    where
        R: WirePack + Send,
        F: Fn(Self::Comm) -> R + Send + Sync,
    {
        let _shared = FORK_GATE.read().unwrap_or_else(PoisonError::into_inner);
        comm_native::run(nranks, toy_model(), opts, f)
    }
}

impl Cluster for Proc {
    type Comm = comm_proc::ProcComm;
    const ONE_ADDRESS_SPACE: bool = false;

    fn run<R, F>(nranks: usize, opts: &RealOptions, f: F) -> RunReport<R>
    where
        R: WirePack + Send,
        F: Fn(Self::Comm) -> R + Send + Sync,
    {
        let opts = comm_proc::ProcOptions {
            runtime: opts.clone(),
            ..Default::default()
        };
        // Poisoned by the watchdog case, whose parent-side panic unwinds
        // through this guard; the gate guards no data.
        let _alone = FORK_GATE.write().unwrap_or_else(PoisonError::into_inner);
        comm_proc::run(nranks, toy_model(), &opts, f)
    }
}

/// Run with the default options.
fn run<C: Cluster, R, F>(nranks: usize, f: F) -> RunReport<R>
where
    R: WirePack + Send,
    F: Fn(C::Comm) -> R + Send + Sync,
{
    C::run(nranks, &RealOptions::default(), f)
}

fn ping_pong_delivers_payloads<C: Cluster>() {
    let rep = run::<C, _, _>(2, |c| {
        if c.rank() == 0 {
            c.send(1, 7, &[1.0, 2.0], Category::XyComm);
            let m = c.recv(Some(1), Some(8), Category::XyComm);
            assert_eq!(&m.payload[..], &[3.0]);
        } else {
            let m = c.recv(Some(0), Some(7), Category::XyComm);
            assert_eq!(&m.payload[..], &[1.0, 2.0]);
            c.send(0, 8, &[3.0], Category::XyComm);
        }
        c.now()
    });
    assert!(rep.makespan > 0.0, "time passed");
    assert_eq!(rep.metrics.counter("msgs.received"), 2);
}

fn fifo_non_overtaking_per_source<C: Cluster>() {
    let rep = run::<C, _, _>(2, |c| {
        if c.rank() == 0 {
            for v in [1.0, 2.0, 3.0] {
                c.send(1, 5, &[v], Category::XyComm);
            }
            Vec::new()
        } else {
            (0..3)
                .map(|_| c.recv(Some(0), Some(5), Category::XyComm).payload[0])
                .collect::<Vec<f64>>()
        }
    });
    assert_eq!(rep.results[1], vec![1.0, 2.0, 3.0]);
}

fn tag_masked_receives_leave_other_phases_queued<C: Cluster>() {
    let rep = run::<C, _, _>(2, |c| {
        if c.rank() == 0 {
            // Epoch 1 message sent *before* the epoch 0 message.
            c.send(1, (1 << 48) | 7, &[10.0], Category::XyComm);
            c.send(1, 7, &[1.0], Category::XyComm);
            (0.0, 0.0)
        } else {
            let mask = !((1u64 << 48) - 1);
            let e0 = c.recv_tag_masked(mask, 0, Category::XyComm).payload[0];
            let e1 = c.recv_tag_masked(mask, 1 << 48, Category::XyComm).payload[0];
            (e0, e1)
        }
    });
    assert_eq!(rep.results[1], (1.0, 10.0));
}

/// The reduction order is pinned by the shared binomial shape: allreduce
/// results are bit-identical to the simulator's on every backend.
fn allreduce_bits_match_the_simulator<C: Cluster>() {
    // Values chosen so summation order matters in f64.
    fn program<T: Transport>(c: T) -> Vec<f64> {
        let r = c.rank() as f64;
        let mut v = vec![1.0 + 1e-16 * r, (r + 0.1).ln(), 3e300];
        c.allreduce_sum(&mut v, Category::ZComm);
        v
    }
    for p in [1usize, 2, 3, 4, 7, 8] {
        let got = run::<C, _, _>(p, program);
        let want = run::<Sim, _, _>(p, program);
        for r in 0..p {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(&got.results[r]),
                bits(&want.results[r]),
                "rank {r} of {p}"
            );
        }
    }
}

fn split_creates_disjoint_comms<C: Cluster>() {
    let rep = run::<C, _, _>(6, |c| {
        let sub = c.split(c.rank() % 2, c.rank());
        let mut v = [c.rank() as f64];
        sub.allreduce_sum(&mut v, Category::ZComm);
        (sub.rank() as u64, sub.size() as u64, v[0])
    });
    // color 0: world {0,2,4} sum 6; color 1: {1,3,5} sum 9.
    for wr in 0..6 {
        let want_sum = if wr % 2 == 0 { 6.0 } else { 9.0 };
        assert_eq!(rep.results[wr], (wr as u64 / 2, 3, want_sum));
    }
}

/// The driver's shape: the world split into rows, and again into columns.
fn nested_split_rows_and_cols<C: Cluster>() {
    let (px, py) = (2usize, 3usize);
    let rep = run::<C, _, _>(px * py, move |c| {
        let (x, y) = (c.rank() / py, c.rank() % py);
        let row = c.split(x, y);
        let col = c.split(y, x);
        assert_eq!((row.size(), col.size()), (py, px));
        let mut rv = [c.rank() as f64];
        row.allreduce_sum(&mut rv, Category::XyComm);
        let mut cv = [c.rank() as f64];
        col.allreduce_sum(&mut cv, Category::XyComm);
        (rv[0], cv[0])
    });
    for r in 0..px * py {
        let (x, y) = (r / py, r % py);
        let row_sum: usize = (0..py).map(|j| x * py + j).sum();
        let col_sum: usize = (0..px).map(|i| i * py + y).sum();
        assert_eq!(rep.results[r], (row_sum as f64, col_sum as f64), "rank {r}");
    }
}

/// Two halves of the world split into leaves at the same time, under two
/// different roots, with no shared id counter; then allreduces interleave
/// on leaves, halves and the world. Each sum is a bitmask of who took
/// part, so a message crossing between communicators shows as a wrong set.
fn sibling_comms_split_concurrently_do_not_cross_talk<C: Cluster>() {
    let rep = run::<C, _, _>(8, |c| {
        let me = c.rank();
        let half = c.split(me / 4, me);
        let leaf = half.split(half.rank() % 2, half.rank());
        let members = |comm: &C::Comm| {
            let mut v = [(1u64 << me) as f64];
            comm.allreduce_sum(&mut v, Category::ZComm);
            v[0] as u64
        };
        let first = (members(&leaf), members(&half), members(&c));
        // Same communicators again, other order: collective tags advance
        // per communicator, not per rank.
        let second = (members(&leaf), members(&c), members(&half));
        assert_eq!(first, (second.0, second.2, second.1));
        first
    });
    for r in 0..8usize {
        let base = 4 * (r / 4);
        let leaf = (1u64 << (base + r % 2)) | (1u64 << (base + r % 2 + 2));
        let half = 0b1111u64 << base;
        assert_eq!(rep.results[r], (leaf, half, 0xff), "rank {r}");
    }
}

fn bcast_from_nonzero_root<C: Cluster>() {
    let rep = run::<C, _, _>(5, |c| {
        let mut v = if c.rank() == 3 { [42.0] } else { [0.0] };
        c.bcast(3, &mut v, Category::XyComm);
        v[0]
    });
    assert!(rep.results.iter().all(|&v| v == 42.0));
}

/// Flight rings are always on, and sends pair with receives by `seq`.
fn flight_spans_pair_by_seq<C: Cluster>() {
    let rep = run::<C, _, _>(2, |c| {
        if c.rank() == 0 {
            c.compute(1e-6, Category::Flop);
            c.send(1, 7, &[1.0, 2.0], Category::XyComm);
        } else {
            c.recv(Some(0), Some(7), Category::XyComm);
        }
    });
    assert_eq!(rep.flight.len(), 2);
    let kinds: Vec<EventKind> = rep.flight[0].iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Compute));
    assert!(kinds.contains(&EventKind::Send));
    let send_seq = rep.flight[0]
        .iter()
        .find(|e| e.kind == EventKind::Send)
        .and_then(|e| e.msg.map(|m| m.seq))
        .expect("the send carries message info");
    assert!(rep.flight[1]
        .iter()
        .any(|e| e.kind == EventKind::Recv && e.msg.is_some_and(|m| m.seq == send_seq)));
}

/// A receive nothing will ever satisfy ends the run with a diagnostic that
/// names the stalled rank, instead of hanging it — after dumping the
/// flight rings that rank can see: every rank's in one address space, its
/// own (as `<stem>.rank<r>.<ext>`) across processes.
fn watchdog_names_the_stalled_rank_and_dumps_flight<C: Cluster>() {
    let tmp = std::env::temp_dir();
    let stem = format!("transport_conformance_stall_{}", std::process::id());
    let opts = RealOptions {
        stall_timeout: Some(Duration::from_millis(200)),
        flight_dump_path: Some(tmp.join(format!("{stem}.json"))),
    };
    let (dump, dumped_ranks) = if C::ONE_ADDRESS_SPACE {
        (tmp.join(format!("{stem}.json")), 0..2)
    } else {
        (tmp.join(format!("{stem}.rank0.json")), 0..1)
    };
    let err = std::panic::catch_unwind(|| {
        C::run(2, &opts, |c| {
            // Real traffic first so both ranks hold flight spans.
            c.allreduce_sum(&mut [c.rank() as f64], Category::ZComm);
            if c.rank() == 0 {
                c.recv(Some(1), Some(99), Category::XyComm);
            }
        });
    })
    .expect_err("stalled run must panic, not hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("rank 0"), "diagnostic missing: {msg}");

    let json = std::fs::read_to_string(&dump).expect("flight dump written on stall");
    let _ = std::fs::remove_file(&dump);
    let v: serde_json::Value = serde_json::from_str(&json).expect("dump is valid JSON");
    let Some(serde_json::Value::Array(events)) = v.get("traceEvents") else {
        panic!("traceEvents missing: {v:?}");
    };
    for rank in dumped_ranks {
        let has_span = events.iter().any(|e| {
            e.get("ph") == Some(&serde_json::Value::Str("X".into()))
                && e.get("tid") == Some(&serde_json::Value::Int(rank))
        });
        assert!(has_span, "rank {rank} has no spans in the stall dump");
    }
}

/// Real clock only: compute and blocked-receive time are charged as
/// measured, so category times tile each rank's runtime.
fn category_times_tile_the_rank_runtime<C: Cluster>() {
    let rep = run::<C, _, _>(2, |c| {
        if c.rank() == 0 {
            std::thread::sleep(Duration::from_millis(20));
            c.compute(0.0, Category::Flop); // charges the real 20ms
            c.send(1, 1, &[1.0], Category::XyComm);
        } else {
            c.recv(Some(0), Some(1), Category::ZComm);
        }
    });
    let flop = rep.stats[0].time[Category::Flop as usize];
    assert!(flop >= 0.015, "measured compute time charged: {flop}");
    // Rank 1 blocked on the receive for ~as long; charged to ZComm.
    let z = rep.stats[1].time[Category::ZComm as usize];
    assert!(z >= 0.015, "blocked receive time charged: {z}");
    assert!(rep.makespan >= 0.015);
    for s in &rep.stats {
        let charged: f64 = s.time.iter().sum();
        assert!(
            charged <= s.final_clock,
            "rank {}: charged {charged} of a {} s run",
            s.rank,
            s.final_clock
        );
    }
}

macro_rules! suite {
    ($backend:ident, $cluster:ty $(, $real_clock_case:ident)*) => {
        mod $backend {
            use super::*;
            suite!(@cases $cluster:
                ping_pong_delivers_payloads,
                fifo_non_overtaking_per_source,
                tag_masked_receives_leave_other_phases_queued,
                allreduce_bits_match_the_simulator,
                split_creates_disjoint_comms,
                nested_split_rows_and_cols,
                sibling_comms_split_concurrently_do_not_cross_talk,
                bcast_from_nonzero_root,
                flight_spans_pair_by_seq,
                watchdog_names_the_stalled_rank_and_dumps_flight
                $(, $real_clock_case)*
            );
        }
    };
    (@cases $cluster:ty: $($case:ident),*) => {
        $(
            #[test]
            fn $case() {
                super::$case::<$cluster>()
            }
        )*
    };
}

suite!(sim, Sim);
suite!(native, Native, category_times_tile_the_rank_runtime);
suite!(proc, Proc, category_times_tile_the_rank_runtime);
