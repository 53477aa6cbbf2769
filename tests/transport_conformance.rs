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
use sptrsv_repro::{lufactor, sparse, sptrsv::Plan};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, PoisonError, RwLock};
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

/// One rank's view of a communicator: size, own rank, world rank of each
/// member.
fn shape<T: Transport>(c: &T) -> (usize, usize, Vec<usize>) {
    let members = (0..c.size()).map(|r| c.world_rank(r)).collect();
    (c.size(), c.rank(), members)
}

/// For every `Px·Py·Pz <= 16` layout, the grid and z communicators a rank
/// program builds from its plan are the ones `split(z, x + Px·y)` and
/// `split(x + Px·y, z)` would have negotiated.
fn plan_time_comms_equal_the_split_ones_on_every_layout<C: Cluster>() {
    let a = sparse::gen::poisson2d_9pt(12, 12);
    let fact = Arc::new(lufactor::factorize(&a, 16, &Default::default()).expect("factorizes"));
    for pz in [1usize, 2, 4, 8, 16] {
        for py in 1..=16 / pz {
            for px in 1..=16 / (pz * py) {
                let plan = Plan::new(Arc::clone(&fact), px, py, pz);
                run::<C, _, _>(plan.nranks(), |world| {
                    let (x, y, z) = plan.coords(world.rank());
                    let (grid, zcomm) = plan.cart_comms(&world);
                    let at = format!("{px}x{py}x{pz} rank {}", world.rank());
                    assert_eq!(shape(&grid), shape(&world.split(z, x + px * y)), "{at}");
                    assert_eq!(shape(&zcomm), shape(&world.split(x + px * y, z)), "{at}");
                });
            }
        }
    }
}

/// Three groupings of an 8-rank world, each built by `subgroup` or by the
/// `split` that yields the same members in the same order: the two halves,
/// inside each half the two leaves of equal parity (nested), and on the
/// world again the four neighbour pairs (siblings of the halves).
fn family<T: Transport>(c: &T, plan_time: bool) -> [T; 3] {
    let me = c.rank();
    let base = 4 * (me / 4);
    if plan_time {
        let half = c.subgroup(&[base, base + 1, base + 2, base + 3], me / 4);
        let parity = half.rank() % 2;
        let leaf = half.subgroup(&[parity, parity + 2], parity);
        let pair = c.subgroup(&[me & !1, me | 1], me / 2);
        [half, leaf, pair]
    } else {
        let half = c.split(me / 4, me);
        let leaf = half.split(half.rank() % 2, half.rank());
        let pair = c.split(me / 2, me);
        [half, leaf, pair]
    }
}

/// Members of one group derive one id; any two different groups — world,
/// nested, sibling, negotiated by `split`, or the same members built a
/// second time — get different ones.
fn subgroup_ids_are_pairwise_distinct<C: Cluster>() {
    let rep = run::<C, _, _>(8, |c| {
        let me = c.rank();
        let base = 4 * (me / 4);
        let mut comms = Vec::from(family(&c, true));
        comms.extend(family(&c, false));
        comms.push(c.subgroup(&[base, base + 1, base + 2, base + 3], me / 4));
        comms.push(c);
        comms
            .iter()
            .map(|g| {
                let mask: u64 = (0..g.size()).map(|r| 1u64 << g.world_rank(r)).sum();
                (g.id(), mask)
            })
            .collect::<Vec<(u64, u64)>>()
    });
    // A group is (which construction, which members).
    let mut id_of: HashMap<(usize, u64), u64> = HashMap::new();
    for views in &rep.results {
        for (kind, &(id, mask)) in views.iter().enumerate() {
            let agreed = *id_of.entry((kind, mask)).or_insert(id);
            assert_eq!(agreed, id, "members of group {kind}/{mask:#b} disagree");
        }
    }
    // 2 halves + 4 leaves + 4 pairs twice over, 2 halves again, world.
    assert_eq!(id_of.len(), 2 * 10 + 2 + 1);
    let distinct: HashSet<u64> = id_of.values().copied().collect();
    assert_eq!(distinct.len(), id_of.len(), "two groups share an id");
}

/// Allreduces interleaved on leaves, pairs, halves and the world give the
/// bits the `split`-built communicators give: same members, same order,
/// same binomial shape, and no message strays between sibling groups.
fn interleaved_allreduce_on_subgroups_matches_split<C: Cluster>() {
    fn sums<T: Transport>(world: &T, [half, leaf, pair]: &[T; 3]) -> Vec<u64> {
        let r = world.rank() as f64;
        let mut out = Vec::new();
        // Twice, in two orders: collective tags advance per communicator.
        for order in [[leaf, pair, half, world], [world, half, leaf, pair]] {
            for comm in order {
                // Values chosen so summation order matters in f64.
                let mut v = [1.0 + 1e-16 * r, (r + 0.1).ln(), 3e300 * (r - 3.0)];
                comm.allreduce_sum(&mut v, Category::ZComm);
                out.extend(v.iter().map(|x| x.to_bits()));
            }
        }
        out
    }
    let rep = run::<C, _, _>(8, |c| {
        (sums(&c, &family(&c, true)), sums(&c, &family(&c, false)))
    });
    for (r, (plan_time, split)) in rep.results.iter().enumerate() {
        assert_eq!(plan_time, split, "rank {r}");
    }
}

/// Building subgroups moves nothing: no send, no receive, no settle wait
/// on any rank — while the `split`s of the same groups do show up in the
/// same counters.
fn subgroups_cost_no_messages<C: Cluster>() {
    let traffic = |plan_time: bool| {
        let rep = run::<C, _, _>(8, move |c| {
            family(&c, plan_time);
        });
        let counted: u64 = rep
            .stats
            .iter()
            .map(|s| s.msgs_sent.iter().chain(&s.bytes_sent).sum::<u64>())
            .sum();
        let m = &rep.metrics;
        // Set-up sends are never "counted" traffic; the real runtime's
        // `msgs.sent` and the simulator's settle waits see them anyway.
        (
            counted + m.counter("msgs.received"),
            m.counter("msgs.sent") + m.counter("recv.settle_waits"),
        )
    };
    assert_eq!(traffic(true), (0, 0));
    let (counted, seen) = traffic(false);
    assert_eq!(counted, 0);
    assert!(seen > 0, "the counters would not have seen set-up traffic");
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
                plan_time_comms_equal_the_split_ones_on_every_layout,
                subgroup_ids_are_pairwise_distinct,
                interleaved_allreduce_on_subgroups_matches_split,
                subgroups_cost_no_messages,
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
