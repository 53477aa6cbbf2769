//! The real-clock rank runtime: everything a backend that moves real
//! messages needs *except* how the bytes move.
//!
//! A rank on a real backend is an [`Endpoint`] (the inbox other ranks
//! deliver into, plus its flight ring) and a [`RealComm`] handle: arrival-
//! ordered matching on `(comm, src, tag)` or a masked tag, elapsed-time
//! category accounting, message sequence ids, flight recording, the stall
//! watchdog, collective-tag sequencing, `split`/`subgroup`, and the one
//! `impl Transport`. A backend supplies a [`Link`] — *deliver this
//! `(header, payload)` to world rank `d`* — and a launcher that puts one
//! rank program on each thread or process. `comm_native` and `comm_proc`
//! are those two things and nothing else.
//!
//! ## Clock and attribution
//!
//! [`now`](Transport::now) is real seconds since the cluster's shared
//! epoch. Time attribution is by *elapsed real time since the rank's
//! previous attribution point*: when a solver calls `compute(modeled, cat)`
//! after running a kernel, the runtime charges the time the kernel actually
//! took, not the model's estimate. Category times therefore tile each
//! rank's real runtime, and a run's makespan is the wall-clock of its
//! slowest rank.

use crate::collectives;
use crate::trace::dump_flight;
use crate::wire::FrameHeader;
use crate::{
    envelope_bytes, Category, EventKind, FaultMark, FlightRecorder, MachineModel, Metrics, MsgInfo,
    Payload, RankStats, RecvMsg, TraceEvent, Transport, BYTE_BUCKETS, N_CATEGORIES, WAIT_BUCKETS,
};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of each rank's always-on flight recorder on the real backends
/// (most recent spans, overwrite-oldest).
pub const FLIGHT_CAPACITY: usize = 512;

/// Options of a run on a real-clock backend.
#[derive(Clone, Debug)]
pub struct RealOptions {
    /// Real-time cap on a blocking receive before the watchdog panics with
    /// a diagnostic dump instead of hanging. `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// When set, a stalling rank drains the flight rings its [`Link`] can
    /// see into a Perfetto trace here before panicking.
    pub flight_dump_path: Option<PathBuf>,
}

impl Default for RealOptions {
    fn default() -> Self {
        RealOptions {
            stall_timeout: Some(Duration::from_secs(30)),
            flight_dump_path: None,
        }
    }
}

/// Next id from a rank's private counter, as `(world_rank + 1) << 32 | n`,
/// reserving `take` consecutive values. Unique across the cluster without
/// any shared state, and deterministic: each rank's allocation order is
/// fixed by its program, unlike a shared atomic whose order would race
/// between ranks. Message sequence ids and communicator ids both use it
/// (0 stays reserved: setup sends and the world communicator).
pub(crate) fn rank_scoped_id(counter: &Cell<u64>, world_rank: usize, take: u64) -> u64 {
    let first = counter.get() + 1;
    counter.set(counter.get() + take);
    ((world_rank as u64 + 1) << 32) | first
}

/// Real-time stall watchdog of one blocking receive.
pub(crate) struct Watchdog(Option<(Instant, Duration)>);

impl Watchdog {
    /// Start the clock; `None` never fires.
    pub(crate) fn start(limit: Option<Duration>) -> Self {
        Watchdog(limit.map(|l| (Instant::now(), l)))
    }

    /// Block on `cv` until notified, waking at least every 100 ms so every
    /// stalled rank eventually times out (not only the ones that get
    /// notified). `Err(waited)` once the receive has been blocked for the
    /// limit.
    pub(crate) fn wait<T>(&self, cv: &Condvar, q: &mut MutexGuard<'_, T>) -> Result<(), Duration> {
        match self.0 {
            None => cv.wait(q),
            Some((t0, limit)) => {
                let waited = t0.elapsed();
                if waited >= limit {
                    return Err(waited);
                }
                cv.wait_for(q, (limit - waited).min(Duration::from_millis(100)));
            }
        }
        Ok(())
    }
}

/// The queued-message part of a stall report: one line per unmatched
/// message `(comm, src, tag, arrival, payload words)`, capped.
pub(crate) fn write_queue_dump(
    s: &mut String,
    queued: impl ExactSizeIterator<Item = (u64, u32, u64, f64, usize)>,
) {
    use std::fmt::Write;
    const CAP: usize = 32;
    let total = queued.len();
    let _ = writeln!(s, "  queued-but-unmatched messages: {total}");
    for (comm_id, src, tag, arrival, len) in queued.take(CAP) {
        let _ = writeln!(
            s,
            "    comm {comm_id:>3} src {src:>4} tag {tag:#018x} arrival {arrival:>12.6e} len {len}"
        );
    }
    if total > CAP {
        let _ = writeln!(s, "    ... {} more", total - CAP);
    }
}

/// A delivered message waiting to be matched.
struct Queued {
    header: FrameHeader,
    /// Real arrival time (seconds since the cluster epoch).
    arrival: f64,
    payload: Payload,
}

/// A rank's inbox: links push, the rank program scans in arrival order
/// and waits.
pub struct Inbox {
    queue: Mutex<VecDeque<Queued>>,
    cv: Condvar,
}

impl Inbox {
    /// Queue a delivered message and wake the rank. `arrival` is stamped
    /// by whoever makes the message visible to the receiver (see [`Link`]).
    pub fn push(&self, header: FrameHeader, payload: Payload, arrival: f64) {
        self.queue.lock().push_back(Queued {
            header,
            arrival,
            payload,
        });
        self.cv.notify_all();
    }
}

/// What the rest of the cluster may touch of one rank: its inbox, and its
/// flight ring so a stalled peer can drain it.
pub struct Endpoint {
    inbox: Inbox,
    flight: Mutex<FlightRecorder>,
}

impl Endpoint {
    /// A rank's endpoint. Queue and ring are fully reserved here, at
    /// set-up, so steady-state deliveries and records never allocate.
    pub fn new() -> Self {
        Endpoint {
            inbox: Inbox {
                queue: Mutex::new(VecDeque::with_capacity(1024)),
                cv: Condvar::new(),
            },
            flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
        }
    }

    /// The inbox links deliver into.
    pub fn inbox(&self) -> &Inbox {
        &self.inbox
    }

    /// The flight ring's retained spans, oldest first (non-consuming).
    pub fn flight(&self) -> Vec<TraceEvent> {
        self.flight.lock().drain()
    }
}

impl Default for Endpoint {
    fn default() -> Self {
        Endpoint::new()
    }
}

/// How bytes move between ranks — the only thing a real backend defines.
///
/// Contract:
///
/// * **Per-destination FIFO.** Two `deliver` calls from one rank to one
///   destination reach that destination's [`Inbox`] in call order.
/// * **`arrival`** is stamped by whoever pushes into the inbox: a link that
///   pushes from the sending thread uses the `now` it was handed; a link
///   with a receive side stamps when the message is decoded there.
/// * `deliver` must not block on the receiver's *program* (a receiver that
///   is computing still gets its messages queued).
pub trait Link {
    /// Backend name for watchdog diagnostics.
    const NAME: &'static str;

    /// Deliver `(header, payload)` to world rank `dst`. `now` is the
    /// sender's clock reading for this send.
    fn deliver(&self, dst: usize, header: &FrameHeader, payload: &Payload, now: f64);

    /// Every rank's endpoint, when this link can see them (one address
    /// space): a stalled rank then dumps every flight ring. `None` across
    /// processes, where a rank dumps only its own ring, to
    /// `<stem>.rank<r>.<ext>`.
    fn peers(&self) -> Option<&[Arc<Endpoint>]> {
        None
    }
}

/// Per-rank mutable context; owned by the rank's thread, shared by all of
/// that rank's communicator handles.
struct RankCtx<L> {
    world_rank: usize,
    epoch: Instant,
    model: Arc<MachineModel>,
    me: Arc<Endpoint>,
    link: L,
    opts: RealOptions,
    stats: RefCell<RankStats>,
    /// Elapsed seconds at the last time attribution (see `charge`).
    last_stamp: Cell<f64>,
    /// Per-communicator collective sequence numbers.
    coll_seq: RefCell<HashMap<u64, u64>>,
    metrics: RefCell<Metrics>,
    /// Messages sent and communicator ids allocated so far (see
    /// [`rank_scoped_id`]).
    sent_seq: Cell<u64>,
    comm_seq: Cell<u64>,
    /// Ids of the communicators this rank built without messages.
    subgroup_ids: RefCell<collectives::SubgroupIds>,
}

impl<L> RankCtx<L> {
    #[inline]
    fn elapsed(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Handle to a communicator from one rank of a real-clock backend.
/// Clonable within the owning rank; never crosses a thread or process
/// boundary.
pub struct RealComm<L: Link> {
    ctx: Rc<RankCtx<L>>,
    id: u64,
    /// World ranks of the members, ordered by communicator rank.
    members: Arc<Vec<u32>>,
    my_idx: usize,
}

impl<L: Link> Clone for RealComm<L> {
    fn clone(&self) -> Self {
        RealComm {
            ctx: Rc::clone(&self.ctx),
            id: self.id,
            members: Arc::clone(&self.members),
            my_idx: self.my_idx,
        }
    }
}

impl<L: Link> RealComm<L> {
    /// The world communicator of rank `rank` of `nranks`, receiving at `me`
    /// and sending through `link`. `epoch` must be the same instant on
    /// every rank so clocks are comparable.
    pub fn world(
        rank: usize,
        nranks: usize,
        epoch: Instant,
        model: Arc<MachineModel>,
        me: Arc<Endpoint>,
        link: L,
        opts: &RealOptions,
    ) -> Self {
        let ctx = RankCtx {
            world_rank: rank,
            epoch,
            model,
            me,
            link,
            opts: opts.clone(),
            stats: RefCell::new(RankStats::new(rank)),
            last_stamp: Cell::new(epoch.elapsed().as_secs_f64()),
            coll_seq: RefCell::new(HashMap::new()),
            metrics: RefCell::new(Metrics::new()),
            sent_seq: Cell::new(0),
            comm_seq: Cell::new(0),
            subgroup_ids: RefCell::default(),
        };
        RealComm {
            ctx: Rc::new(ctx),
            id: 0,
            members: Arc::new((0..nranks as u32).collect()),
            my_idx: rank,
        }
    }

    /// The rank's statistics (final clock stamped now) and metrics, once
    /// its program has returned.
    pub fn finish(self) -> (RankStats, Metrics) {
        let mut stats = self.ctx.stats.borrow().clone();
        stats.final_clock = self.ctx.elapsed();
        (stats, self.ctx.metrics.borrow().clone())
    }

    /// Attribute the real time elapsed since this rank's previous
    /// attribution point to `cat`, and move the point to now. This makes
    /// the per-category times tile the rank's wall-clock runtime.
    fn charge(&self, cat: Category) -> f64 {
        let now = self.ctx.elapsed();
        let dt = now - self.ctx.last_stamp.get();
        self.ctx.last_stamp.set(now);
        self.ctx.stats.borrow_mut().time[cat as usize] += dt;
        dt
    }

    /// [`charge`](Self::charge) plus a flight span covering the charged
    /// interval.
    fn charge_span(&self, cat: Category) {
        let dt = self.charge(cat);
        let t1 = self.ctx.last_stamp.get();
        self.ctx
            .me
            .flight
            .lock()
            .record(TraceEvent::compute(t1 - dt, t1, cat));
    }

    /// This rank's handle on the subcommunicator `group`.
    fn child(&self, group: collectives::SplitGroup) -> Self {
        RealComm {
            ctx: Rc::clone(&self.ctx),
            id: group.id,
            members: Arc::new(group.members),
            my_idx: group.my_idx,
        }
    }

    /// Hand one message to the link. `counted` selects whether the send
    /// appears in traffic statistics (`split` traffic does not, like the
    /// simulator's zero-cost setup sends).
    fn post(&self, dst: usize, tag: u64, payload: &Payload, cat: Category, counted: bool) {
        let ctx = &*self.ctx;
        let dst_world = self.members[dst] as usize;
        let bytes = envelope_bytes(payload.len());
        if counted {
            let mut st = ctx.stats.borrow_mut();
            st.bytes_sent[cat as usize] += bytes as u64;
            st.msgs_sent[cat as usize] += 1;
        }
        {
            let mut m = ctx.metrics.borrow_mut();
            m.inc("msgs.sent", 1);
            m.observe("msgs.bytes", BYTE_BUCKETS, bytes as f64);
        }
        let header = FrameHeader {
            comm_id: self.id,
            src: self.my_idx as u32,
            bitmap_words: 0,
            tag,
            seq: rank_scoped_id(&ctx.sent_seq, ctx.world_rank, 1),
        };
        let now = ctx.elapsed();
        ctx.link.deliver(dst_world, &header, payload, now);
        // Flight-record the send as an instant: sender-side time lands in
        // the surrounding charge.
        ctx.me.flight.lock().record(TraceEvent {
            t0: now,
            t1: now,
            kind: EventKind::Send,
            category: cat,
            msg: Some(MsgInfo {
                peer: dst_world,
                bytes,
                tag,
                seq: header.seq,
                arrival: now,
                faults: FaultMark::default(),
            }),
            detail: None,
        });
    }

    /// Blocking receive of the first queued message (in real arrival
    /// order) matching `matches` on this communicator. Does not touch the
    /// statistics.
    fn recv_matching(&self, matches: impl Fn(usize, u64) -> bool) -> RecvMsg {
        let inbox = &self.ctx.me.inbox;
        let mut q = inbox.queue.lock();
        let watchdog = Watchdog::start(self.ctx.opts.stall_timeout);
        loop {
            let pick = q.iter().position(|m| {
                m.header.comm_id == self.id && matches(m.header.src as usize, m.header.tag)
            });
            if let Some(idx) = pick {
                let m = q.remove(idx).expect("picked index in bounds");
                return RecvMsg {
                    src: m.header.src as usize,
                    tag: m.header.tag,
                    arrival: m.arrival,
                    payload: m.payload,
                    seq: m.header.seq,
                    dup: false,
                    jittered: false,
                };
            }
            if let Err(waited) = watchdog.wait(&inbox.cv, &mut q) {
                let report = self.stall_report(&q, waited);
                // Release the inbox before draining flight rings and
                // writing a file, none of which needs the queue.
                drop(q);
                self.dump_flight_on_stall();
                panic!("{report}");
            }
        }
    }

    /// Count a delivery and attribute the receive (including the blocked
    /// wait) to `cat`.
    fn charge_recv(&self, msg: &RecvMsg, cat: Category) {
        let dt = self.charge(cat).max(0.0);
        {
            let mut m = self.ctx.metrics.borrow_mut();
            m.inc("msgs.received", 1);
            m.observe("recv.wait_seconds", WAIT_BUCKETS, dt);
        }
        // The receive span covers the whole blocked wait, ending now.
        let t1 = self.ctx.last_stamp.get();
        self.ctx.me.flight.lock().record(TraceEvent {
            t0: t1 - dt,
            t1,
            kind: EventKind::Recv,
            category: cat,
            msg: Some(MsgInfo {
                peer: self.members[msg.src] as usize,
                bytes: envelope_bytes(msg.payload.len()),
                tag: msg.tag,
                seq: msg.seq,
                arrival: msg.arrival,
                faults: FaultMark::default(),
            }),
            detail: None,
        });
    }

    /// Watchdog diagnostic for a stalled receive, mirroring the
    /// simulator's report shape.
    fn stall_report(&self, q: &VecDeque<Queued>, waited: Duration) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} watchdog: world rank {} (comm {} rank {}/{}) stalled in recv for {:.2?}",
            L::NAME,
            self.ctx.world_rank,
            self.id,
            self.my_idx,
            self.members.len(),
            waited,
        );
        let _ = writeln!(s, "  wall clock: {:.6e} s", self.ctx.elapsed());
        write_queue_dump(
            &mut s,
            q.iter().map(|m| {
                let h = &m.header;
                (h.comm_id, h.src, h.tag, m.arrival, m.payload.len())
            }),
        );
        s
    }

    /// Dump the flight rings this rank can see (see [`Link::peers`]).
    /// Single-ring dumps are padded with empty ranks so the span `tid`
    /// still equals the world rank.
    fn dump_flight_on_stall(&self) {
        let Some(path) = &self.ctx.opts.flight_dump_path else {
            return;
        };
        let rank = self.ctx.world_rank;
        match self.ctx.link.peers() {
            Some(all) => {
                let timelines: Vec<_> = all.iter().map(|e| e.flight()).collect();
                dump_flight(L::NAME, path, &timelines);
            }
            None => {
                let mut timelines = vec![Vec::new(); rank];
                timelines.push(self.ctx.me.flight());
                dump_flight(L::NAME, &rank_dump_path(path, rank), &timelines);
            }
        }
    }
}

/// `<dir>/<stem>.rank<r>.<ext>` (or appended when the path has no
/// extension): one flight-dump file per rank process.
fn rank_dump_path(path: &Path, rank: usize) -> PathBuf {
    match (path.file_stem(), path.extension()) {
        (Some(stem), Some(ext)) => path.with_file_name(format!(
            "{}.rank{rank}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            path.with_file_name(format!("{name}.rank{rank}"))
        }
    }
}

impl<L: Link> Transport for RealComm<L> {
    fn rank(&self) -> usize {
        self.my_idx
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn world_rank(&self, r: usize) -> usize {
        self.members[r] as usize
    }

    fn model(&self) -> &MachineModel {
        &self.ctx.model
    }

    fn id(&self) -> u64 {
        self.id
    }

    /// `MPI_Comm_split` over real messages (see [`collectives::split`]).
    /// Ids come from the root's own counter, so no cluster-wide state is
    /// needed: two roots differ in the high half, two splits by one root in
    /// the low half.
    fn split(&self, color: usize, key: usize) -> Self {
        let ctx = &self.ctx;
        self.child(collectives::split(
            &self.members,
            self.my_idx,
            color,
            key,
            |dst, tag, payload| self.post(dst, tag, payload, Category::Setup, false),
            |src, tag| self.recv_matching(|s, t| src.is_none_or(|want| s == want) && t == tag),
            |n| rank_scoped_id(&ctx.comm_seq, ctx.world_rank, n),
        ))
    }

    fn subgroup(&self, members: &[usize], color: usize) -> Self {
        self.child(collectives::subgroup(
            self.id,
            &self.members,
            self.my_idx,
            members,
            color,
            &self.ctx.subgroup_ids,
        ))
    }

    fn now(&self) -> f64 {
        self.ctx.elapsed()
    }

    /// The real clock advances by itself.
    fn advance_to(&self, _t: f64) {}

    /// The modeled duration is ignored: the kernel already ran on this
    /// rank, so the *measured* time since the last attribution point is
    /// what gets charged.
    fn compute(&self, _seconds: f64, cat: Category) {
        self.charge_span(cat);
    }

    /// Same substitution as [`compute`](Transport::compute). Back-to-back
    /// `account` calls (the GPU executor's busy/idle split) charge the real
    /// elapsed time once and ~0 thereafter.
    fn account(&self, _seconds: f64, cat: Category) {
        self.charge_span(cat);
    }

    fn time_snapshot(&self) -> [f64; N_CATEGORIES] {
        self.ctx.stats.borrow().time
    }

    fn send_shared(&self, dst: usize, tag: u64, payload: &Payload, cat: Category) {
        self.charge(cat);
        self.post(dst, tag, payload, cat, true);
    }

    /// The modeled departure and wire times belong to the simulator's
    /// clock domain; on real hardware the put is an immediate delivery.
    /// Not subject to any ordering rule (NVSHMEM-style), which the link's
    /// FIFO already satisfies.
    fn send_timed_shared(
        &self,
        _depart: f64,
        _wire: f64,
        dst: usize,
        tag: u64,
        payload: &Payload,
        cat: Category,
    ) {
        self.post(dst, tag, payload, cat, true);
    }

    fn recv(&self, src: Option<usize>, tag: Option<u64>, cat: Category) -> RecvMsg {
        let msg = self.recv_matching(|s, t| {
            src.is_none_or(|want| s == want) && tag.is_none_or(|want| t == want)
        });
        self.charge_recv(&msg, cat);
        msg
    }

    fn recv_tag_masked(&self, mask: u64, value: u64, cat: Category) -> RecvMsg {
        let msg = self.recv_matching(|_, t| t & mask == value);
        self.charge_recv(&msg, cat);
        msg
    }

    fn recv_raw_tag_masked(&self, mask: u64, value: u64) -> RecvMsg {
        self.recv_matching(|_, t| t & mask == value)
    }

    fn barrier(&self, cat: Category) {
        self.allreduce_sum(&mut [0.0], cat);
    }

    fn allreduce_sum(&self, data: &mut [f64], cat: Category) {
        let tag = collectives::coll_tag(&self.ctx.coll_seq, self.id);
        collectives::reduce_bcast(self, tag, data, cat);
    }

    fn bcast(&self, root: usize, data: &mut [f64], cat: Category) {
        let tag = collectives::coll_tag(&self.ctx.coll_seq, self.id);
        collectives::bcast_from(self, root, tag, data, cat);
    }

    fn metric_inc(&self, name: &str, by: u64) {
        self.ctx.metrics.borrow_mut().inc(name, by);
    }

    fn metric_observe(&self, name: &str, bounds: &[f64], v: f64) {
        self.ctx.metrics.borrow_mut().observe(name, bounds, v);
    }
}
