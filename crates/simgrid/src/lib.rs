//! Virtual-time message-passing cluster simulator.
//!
//! The paper's experiments run MPI (+ NVSHMEM) on Cori, Perlmutter and
//! Crusher. None of that exists in this environment, so this crate provides
//! the substitute substrate: every *rank* is an OS thread carrying a
//! **virtual clock**; messages move real data between rank mailboxes and
//! advance virtual time according to an α–β (latency + bandwidth) machine
//! model with distinct intra-node and inter-node links.
//!
//! Key property: timing is *passive*. A send stamps its arrival time from
//! the sender's clock and the link cost; a receive sets the receiver's clock
//! to `max(own clock, arrival)`. No global scheduler exists, so thousands of
//! ranks simulate on one core, and the numerics are bit-for-bit real — the
//! same run validates correctness and produces the paper's timing shapes.
//!
//! Approximation (documented in DESIGN.md): an any-source receive takes the
//! earliest-arrival message among those *currently queued*; a message still
//! in flight in real time with an earlier virtual arrival may be passed
//! over. This mirrors the nondeterminism of real `MPI_ANY_SOURCE`.

pub mod collectives;
pub mod fault;
pub mod gpu;
pub mod machine;
pub mod metrics;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod wire;

pub use fault::{FaultPlan, Reorder, PROFILE_NAMES};
pub use gpu::GpuExecutor;
pub use machine::{GpuModel, MachineModel};
pub use metrics::{
    latency_buckets, log2_buckets, Histogram, Metrics, BYTE_BUCKETS, DEPTH_BUCKETS, WAIT_BUCKETS,
    WIDTH_BUCKETS,
};
pub use runtime::{Endpoint, Inbox, Link, RealComm, RealOptions};
pub use stats::{Category, RankStats, RunReport, CATEGORIES, N_CATEGORIES};
pub use trace::{
    export_perfetto, render_timeline, span_name, EventKind, FaultMark, FlightRecorder, MsgInfo,
    SpanDetail, TraceEvent, TreeRole,
};
pub use transport::{envelope_bytes, Payload, Transport};

use parking_lot::{Condvar, Mutex};
use runtime::{rank_scoped_id, write_queue_dump, Watchdog};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// A message in flight (or queued at the destination).
struct Msg {
    comm_id: u64,
    src: u32,
    tag: u64,
    arrival: f64,
    /// Shared payload: enqueuing a send is a refcount bump on the sender's
    /// buffer, not a copy (see [`Comm::send_shared`]).
    payload: Arc<[f64]>,
    /// Cluster-unique id; a duplicate copy shares its original's id.
    seq: u64,
    /// Injected duplicate copy.
    dup: bool,
    /// Arrival was pushed back by injected jitter.
    jittered: bool,
}

/// A received message.
pub struct RecvMsg {
    /// Source rank *within the communicator* the receive was posted on.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Virtual arrival time at the receiver.
    pub arrival: f64,
    /// Message data — a borrowed view of the sender's shared buffer; clone
    /// the `Arc` (not the floats) to retain it.
    pub payload: Arc<[f64]>,
    /// Cluster-unique message id (pairs the receive with its send in
    /// traces; a duplicate delivery carries its original's id).
    pub seq: u64,
    /// True when this delivery is an injected duplicate copy.
    pub dup: bool,
    /// True when injected jitter pushed the arrival back.
    pub jittered: bool,
}

struct Mailbox {
    queue: Mutex<Vec<Msg>>,
    cv: Condvar,
}

struct ClusterShared {
    mailboxes: Vec<Mailbox>,
    model: Arc<MachineModel>,
    /// Effective fault plan for this run (inert when fault injection is off).
    fault: FaultPlan,
    /// Real-time cap on a blocking receive before the watchdog fires.
    stall_timeout: Option<Duration>,
    /// Real-time settle window for any-source receives (see
    /// [`ClusterOptions::settle_window`]).
    settle_window: Duration,
    /// Per-rank flight recorders (always on; see [`FlightRecorder`]).
    /// `Arc<Mutex<..>>` so a stalling rank's watchdog can drain *every*
    /// rank's ring, including ranks currently blocked or asleep.
    flight: Vec<Arc<Mutex<FlightRecorder>>>,
    /// Where the watchdog writes the Perfetto flight dump on a stall.
    flight_dump_path: Option<PathBuf>,
}

impl ClusterShared {
    /// Drain every rank's flight recorder into a Perfetto trace at the
    /// configured dump path. Called by the stall watchdog right before it
    /// panics; non-consuming, so concurrent stalls write the same dump.
    fn dump_flight_on_stall(&self) {
        let Some(path) = &self.flight_dump_path else {
            return;
        };
        let timelines: Vec<Vec<TraceEvent>> =
            self.flight.iter().map(|f| f.lock().drain()).collect();
        trace::dump_flight("simgrid", path, &timelines);
    }
}

/// Per-rank mutable context. Owned by the rank's thread; `Comm` handles on
/// the same thread share it.
struct RankCtx {
    world_rank: usize,
    clock: Cell<f64>,
    stats: RefCell<RankStats>,
    /// Per-destination last arrival, enforcing MPI's non-overtaking rule.
    fifo: RefCell<HashMap<(u64, u32), f64>>,
    /// xorshift state for this rank's fault-sampling stream; 0 = inert plan.
    fault_rng: Cell<u64>,
    /// Compute-time multiplier (straggler injection; 1.0 = normal).
    compute_mult: f64,
    /// Per-communicator collective sequence numbers, so successive
    /// collectives on one communicator use distinct tags and a duplicated
    /// delivery from an earlier collective can never satisfy a later one.
    coll_seq: RefCell<HashMap<u64, u64>>,
    /// Event timeline, recorded when tracing is enabled.
    trace: Option<RefCell<Vec<TraceEvent>>>,
    /// This rank's always-on flight recorder (shared with the cluster so
    /// stall watchdogs on other ranks can drain it).
    flight: Arc<Mutex<FlightRecorder>>,
    /// Solver-semantic annotation stamped onto spans recorded while set
    /// (see [`Comm::set_span_detail`]).
    span_detail: Cell<Option<SpanDetail>>,
    /// This rank's metrics registry (merged across ranks after the run).
    metrics: RefCell<crate::metrics::Metrics>,
    /// Messages sent and communicator ids allocated so far (see
    /// [`rank_scoped_id`]).
    sent_seq: Cell<u64>,
    comm_seq: Cell<u64>,
    /// Ids of the communicators this rank built without messages.
    subgroup_ids: RefCell<collectives::SubgroupIds>,
}

impl RankCtx {
    #[inline]
    fn record(&self, t0: f64, t1: f64, kind: EventKind, cat: Category, msg: Option<MsgInfo>) {
        let e = TraceEvent {
            t0,
            t1,
            kind,
            category: cat,
            msg,
            detail: self.span_detail.get(),
        };
        // Always-on bounded ring (in-place write, never allocates); the
        // unbounded trace only when tracing was requested.
        self.flight.lock().record(e);
        if let Some(tr) = &self.trace {
            tr.borrow_mut().push(e);
        }
    }

    /// Next value of this rank's fault stream (xorshift64; state nonzero).
    #[inline]
    fn draw(&self) -> u64 {
        let mut s = self.fault_rng.get();
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.fault_rng.set(s);
        s
    }

    /// Uniform sample in `[0, 1)` from the fault stream.
    #[inline]
    fn draw_unit(&self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Handle to a communicator from one rank. Clonable within the owning rank's
/// thread; not shareable across threads.
pub struct Comm {
    shared: Arc<ClusterShared>,
    ctx: Rc<RankCtx>,
    id: u64,
    /// World ranks of the members, ordered by communicator rank.
    members: Arc<Vec<u32>>,
    my_idx: usize,
}

impl Clone for Comm {
    fn clone(&self) -> Self {
        Comm {
            shared: Arc::clone(&self.shared),
            ctx: Rc::clone(&self.ctx),
            id: self.id,
            members: Arc::clone(&self.members),
            my_idx: self.my_idx,
        }
    }
}

impl Comm {
    /// My rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Id of this communicator (0 is the world).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The machine model of the cluster.
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.ctx.clock.get()
    }

    /// Advance this rank's clock to at least `t`.
    pub fn advance_to(&self, t: f64) {
        if t > self.ctx.clock.get() {
            self.ctx.clock.set(t);
        }
    }

    /// Spend `seconds` of computation, attributed to `cat`. Straggler
    /// ranks (fault injection) pay a multiple of the nominal time.
    pub fn compute(&self, seconds: f64, cat: Category) {
        debug_assert!(seconds >= 0.0);
        let seconds = seconds * self.ctx.compute_mult;
        let t0 = self.ctx.clock.get();
        self.ctx.clock.set(t0 + seconds);
        self.ctx.stats.borrow_mut().time[cat as usize] += seconds;
        self.ctx
            .record(t0, t0 + seconds, EventKind::Compute, cat, None);
    }

    /// Record `seconds` in `cat` without advancing the clock (used by the
    /// GPU executor, which tracks task times itself).
    pub fn account(&self, seconds: f64, cat: Category) {
        self.ctx.stats.borrow_mut().time[cat as usize] += seconds;
    }

    /// Snapshot of this rank's per-category times so far. Rank programs use
    /// deltas of this to attribute time to algorithm phases.
    pub fn time_snapshot(&self) -> [f64; N_CATEGORIES] {
        self.ctx.stats.borrow().time
    }

    /// Stamp `detail` onto every span recorded from now on (until cleared
    /// with `None`). Interpreter layers bracket operations with this so the
    /// simulator's compute/send/recv spans carry solver semantics.
    pub fn set_span_detail(&self, detail: Option<SpanDetail>) {
        self.ctx.span_detail.set(detail);
    }

    /// Attach `detail` to the most recently recorded span (no-op when
    /// tracing is off or nothing was recorded). Used where the annotation
    /// is only known *after* the span exists — e.g. a receive whose
    /// supernode/role is decoded from the received tag.
    pub fn annotate_last(&self, detail: SpanDetail) {
        if let Some(tr) = &self.ctx.trace {
            if let Some(last) = tr.borrow_mut().last_mut() {
                last.detail = Some(detail);
            }
        }
    }

    /// Mark the most recent receive span as a recognised-and-dropped
    /// duplicate and count it in the metrics registry.
    pub fn mark_last_dropped_duplicate(&self) {
        self.metric_inc("msgs.dropped_duplicates", 1);
        if let Some(tr) = &self.ctx.trace {
            if let Some(last) = tr.borrow_mut().last_mut() {
                if last.kind == EventKind::Recv {
                    if let Some(m) = &mut last.msg {
                        m.faults.dropped_duplicate = true;
                    }
                }
            }
        }
    }

    /// Record a span with explicit bounds and annotation, without touching
    /// the clock or the statistics. The GPU paths use this to emit one
    /// covering span per event-driven pass (their internal puts/receives
    /// bypass per-message tracing), preserving the per-rank tiling
    /// invariant the critical-path analysis relies on.
    pub fn trace_span(
        &self,
        t0: f64,
        t1: f64,
        kind: EventKind,
        cat: Category,
        detail: Option<SpanDetail>,
    ) {
        let e = TraceEvent {
            t0,
            t1,
            kind,
            category: cat,
            msg: None,
            detail,
        };
        self.ctx.flight.lock().record(e);
        if let Some(tr) = &self.ctx.trace {
            tr.borrow_mut().push(e);
        }
    }

    /// Add `by` to this rank's counter `name`.
    pub fn metric_inc(&self, name: &str, by: u64) {
        self.ctx.metrics.borrow_mut().inc(name, by);
    }

    /// Record `v` into this rank's histogram `name` (created with `bounds`
    /// on first use).
    pub fn metric_observe(&self, name: &str, bounds: &[f64], v: f64) {
        self.ctx.metrics.borrow_mut().observe(name, bounds, v);
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.members[r] as usize
    }

    /// Send `payload` to communicator rank `dst` with the default p2p cost
    /// model. The sender pays the software overhead on its own clock.
    ///
    /// The slice is copied once into a shared buffer at this API boundary;
    /// hot paths that already own an `Arc<[f64]>` use [`Comm::send_shared`]
    /// to skip even that copy.
    pub fn send(&self, dst: usize, tag: u64, payload: &[f64], cat: Category) {
        self.send_shared(dst, tag, &Arc::from(payload), cat)
    }

    /// Zero-copy send: enqueue a refcount bump of `payload`. Timing, fault
    /// injection, and statistics are identical to [`Comm::send`].
    pub fn send_shared(&self, dst: usize, tag: u64, payload: &Arc<[f64]>, cat: Category) {
        let bytes = envelope_bytes(payload.len());
        let (overhead, wire) =
            self.shared
                .model
                .p2p_cost(self.world_rank(self.my_idx), self.world_rank(dst), bytes);
        let t0 = self.ctx.clock.get();
        self.ctx.clock.set(t0 + overhead);
        {
            let mut st = self.ctx.stats.borrow_mut();
            st.time[cat as usize] += overhead;
        }
        let depart = self.ctx.clock.get();
        let (seq, arrival, faults) =
            self.send_raw(depart, wire, dst, tag, payload, cat, bytes, true);
        self.ctx.record(
            t0,
            depart,
            EventKind::Send,
            cat,
            Some(MsgInfo {
                peer: self.world_rank(dst),
                bytes,
                tag,
                seq,
                arrival,
                faults,
            }),
        );
    }

    /// Send with an explicit departure time and wire cost (used by the GPU
    /// path, where tasks complete at arbitrary virtual times and one-sided
    /// puts have their own cost model). Does not touch the sender's clock,
    /// and — like NVSHMEM puts — is not subject to the MPI non-overtaking
    /// rule.
    pub fn send_timed(
        &self,
        depart: f64,
        wire: f64,
        dst: usize,
        tag: u64,
        payload: &[f64],
        cat: Category,
    ) {
        self.send_timed_shared(depart, wire, dst, tag, &Arc::from(payload), cat)
    }

    /// Zero-copy form of [`Comm::send_timed`].
    pub fn send_timed_shared(
        &self,
        depart: f64,
        wire: f64,
        dst: usize,
        tag: u64,
        payload: &Arc<[f64]>,
        cat: Category,
    ) {
        let bytes = envelope_bytes(payload.len());
        let _ = self.send_raw(depart, wire, dst, tag, payload, cat, bytes, false);
    }

    /// Pre-create the FIFO bookkeeping for sends to `dst` on this
    /// communicator, so the first steady-state send to that destination
    /// does not allocate a map node. Solvers call this while compiling
    /// their per-pass state.
    pub fn warm_route(&self, dst: usize) {
        let dst_world = self.members[dst];
        self.ctx
            .fifo
            .borrow_mut()
            .entry((self.id, dst_world))
            .or_insert(f64::NEG_INFINITY);
    }

    /// Inject a message, applying the fault plan. Returns the sequence id,
    /// the (post-fault) arrival time, and the fault marks for tracing.
    #[allow(clippy::too_many_arguments)]
    fn send_raw(
        &self,
        depart: f64,
        mut wire: f64,
        dst: usize,
        tag: u64,
        payload: &Arc<[f64]>,
        cat: Category,
        bytes: usize,
        fifo: bool,
    ) -> (u64, f64, FaultMark) {
        let dst_world = self.members[dst];
        let fault = &self.shared.fault;
        let mut marks = FaultMark::default();
        // Link degradation: inflate the wire time (β) and add latency (α)
        // when either endpoint is a degraded rank.
        if !fault.degraded_ranks.is_empty()
            && fault.link_degraded(self.ctx.world_rank, dst_world as usize)
        {
            wire = wire * fault.degrade_wire_mult + fault.degrade_extra_latency;
        }
        let mut arrival = depart + wire;
        // In-flight jitter, sampled in sender program order (deterministic
        // per seed). Applied before the FIFO clamp so two-sided sends stay
        // non-overtaking even under jitter.
        if fault.jitter_max > 0.0 && self.ctx.fault_rng.get() != 0 {
            arrival += self.ctx.draw_unit() * fault.jitter_max;
            marks.jitter_delayed = true;
        }
        // Non-overtaking: per (comm, dst) FIFO on arrival times.
        if fifo {
            let mut fifo = self.ctx.fifo.borrow_mut();
            let last = fifo
                .entry((self.id, dst_world))
                .or_insert(f64::NEG_INFINITY);
            if arrival <= *last {
                arrival = *last + 1e-12;
            }
            *last = arrival;
        }
        {
            let mut st = self.ctx.stats.borrow_mut();
            st.bytes_sent[cat as usize] += bytes as u64;
            st.msgs_sent[cat as usize] += 1;
        }
        {
            let mut m = self.ctx.metrics.borrow_mut();
            m.inc("msgs.sent", 1);
            m.observe("msgs.bytes", crate::metrics::BYTE_BUCKETS, bytes as f64);
            if marks.jitter_delayed {
                m.inc("msgs.jitter_delayed", 1);
            }
        }
        let seq = rank_scoped_id(&self.ctx.sent_seq, self.ctx.world_rank, 1);
        let msg = Msg {
            comm_id: self.id,
            src: self.my_idx as u32,
            tag,
            arrival,
            payload: Arc::clone(payload),
            seq,
            dup: false,
            jittered: marks.jitter_delayed,
        };
        let mb = &self.shared.mailboxes[dst_world as usize];
        mb.queue.lock().push(msg);
        mb.cv.notify_all();
        // Duplicate delivery: the copy arrives strictly after the original
        // with fresh jitter, exercising receiver-side idempotence. The copy
        // keeps the original's sequence id (it is the same logical message).
        if fault.duplicate_prob > 0.0
            && self.ctx.fault_rng.get() != 0
            && self.ctx.draw_unit() < fault.duplicate_prob
        {
            let extra = self.ctx.draw_unit() * fault.jitter_max.max(1e-6);
            let dup = Msg {
                comm_id: self.id,
                src: self.my_idx as u32,
                tag,
                arrival: arrival + 1e-12 + extra,
                // The one remaining payload copy in the transport: a
                // duplicate models an independent second copy on the wire,
                // so it must not share the original's buffer.
                payload: Arc::from(&payload[..]),
                seq,
                dup: true,
                jittered: marks.jitter_delayed,
            };
            {
                let mut st = self.ctx.stats.borrow_mut();
                st.bytes_sent[cat as usize] += bytes as u64;
                st.msgs_sent[cat as usize] += 1;
            }
            self.ctx.metrics.borrow_mut().inc("msgs.dup_injected", 1);
            marks.duplicate = true;
            mb.queue.lock().push(dup);
            mb.cv.notify_all();
        }
        (seq, arrival, marks)
    }

    /// Blocking receive. `src`/`tag` of `None` match anything (the paper's
    /// `MPI_Recv(MPI_ANY_SOURCE)` pattern). The receiver's clock advances to
    /// the arrival time; waiting time is attributed to `cat`.
    pub fn recv(&self, src: Option<usize>, tag: Option<u64>, cat: Category) -> RecvMsg {
        let msg = self.recv_raw(src, tag);
        self.arrive(&msg, cat);
        msg
    }

    /// Advance the clock to the arrival time plus the receive-side software
    /// overhead, attributing the wait to `cat`.
    fn arrive(&self, msg: &RecvMsg, cat: Category) {
        let before = self.ctx.clock.get();
        let after = msg.arrival.max(before) + self.shared.model.recv_overhead;
        self.ctx.stats.borrow_mut().time[cat as usize] += after - before;
        self.ctx.clock.set(after);
        {
            let mut m = self.ctx.metrics.borrow_mut();
            m.inc("msgs.received", 1);
            m.observe(
                "recv.wait_seconds",
                crate::metrics::WAIT_BUCKETS,
                (msg.arrival - before).max(0.0),
            );
        }
        self.ctx.record(
            before,
            after,
            EventKind::Recv,
            cat,
            Some(MsgInfo {
                peer: self.world_rank(msg.src),
                bytes: envelope_bytes(msg.payload.len()),
                tag: msg.tag,
                seq: msg.seq,
                arrival: msg.arrival,
                faults: FaultMark {
                    duplicate: msg.dup,
                    jitter_delayed: msg.jittered,
                    ..FaultMark::default()
                },
            }),
        );
    }

    /// Blocking any-source receive matching `tag & mask == value` — the
    /// "any message of this solve phase" pattern: phases stamp an epoch
    /// into the high tag bits so that an early message from a neighbour
    /// already in the *next* phase stays queued instead of being consumed
    /// by the current phase's any-source loop.
    pub fn recv_tag_masked(&self, mask: u64, value: u64, cat: Category) -> RecvMsg {
        let msg = self.recv_raw_matching(|_, t| t & mask == value, false);
        self.arrive(&msg, cat);
        msg
    }

    /// Like [`Comm::recv_tag_masked`] but without touching the clock or
    /// statistics (GPU path: arrival times drive the executor instead).
    pub fn recv_raw_tag_masked(&self, mask: u64, value: u64) -> RecvMsg {
        self.recv_raw_matching(|_, t| t & mask == value, false)
    }

    /// Blocking receive that does not touch the clock or the statistics.
    /// The GPU path uses this and performs its own time accounting.
    pub fn recv_raw(&self, src: Option<usize>, tag: Option<u64>) -> RecvMsg {
        // A fully specified (src, tag) receive has exactly one logical
        // message that can satisfy it: sends are FIFO per destination, so
        // any later match from the same source arrives strictly later, and
        // no other source can match. The settle window exists only to make
        // the *choice among* concurrent candidates stable, so an exact
        // receive can commit the first match immediately.
        let exact = src.is_some() && tag.is_some();
        self.recv_raw_matching(
            |s, t| src.is_none_or(|want| s == want) && tag.is_none_or(|want| t == want),
            exact,
        )
    }

    fn recv_raw_matching(&self, matches: impl Fn(usize, u64) -> bool, exact: bool) -> RecvMsg {
        let mb = &self.shared.mailboxes[self.ctx.world_rank];
        let mut q = mb.queue.lock();
        let watchdog = Watchdog::start(self.shared.stall_timeout);
        // The pick below is what makes runs reproducible: among queued
        // matches, earliest *virtual* arrival wins. But the queue fills in
        // *real* time — a racing sender can be microseconds behind the
        // notifier yet earlier on the virtual clock. One bounded settle
        // wait before committing the first candidate lets such in-flight
        // sends land, making the choice (and with it clocks, traces, and
        // the critical path) stable against OS scheduling. Exact (src, tag)
        // receives skip it: their match is unique (see [`Comm::recv_raw`]),
        // so there is no choice to stabilize — short-circuiting avoids a
        // 100 µs real-time stall per receive on src/tag-addressed paths.
        let mut settle = !exact;
        loop {
            let policy = if self.ctx.fault_rng.get() == 0 {
                Reorder::EarliestArrival
            } else {
                self.shared.fault.reorder
            };
            let pick: Option<usize> = match policy {
                Reorder::EarliestArrival => {
                    // Faithful behavior: earliest virtual arrival among the
                    // currently queued matches, no allocation.
                    let mut best: Option<(usize, f64)> = None;
                    for (i, m) in q.iter().enumerate() {
                        if m.comm_id != self.id || !matches(m.src as usize, m.tag) {
                            continue;
                        }
                        if best.is_none_or(|(_, a)| m.arrival < a) {
                            best = Some((i, m.arrival));
                        }
                    }
                    best.map(|(i, _)| i)
                }
                _ => {
                    let idxs: Vec<usize> = q
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.comm_id == self.id && matches(m.src as usize, m.tag))
                        .map(|(i, _)| i)
                        .collect();
                    if idxs.is_empty() {
                        None
                    } else {
                        Some(match policy {
                            Reorder::NewestQueued => *idxs.last().unwrap(),
                            Reorder::LatestArrival => idxs
                                .iter()
                                .copied()
                                .max_by(|&a, &b| q[a].arrival.total_cmp(&q[b].arrival))
                                .unwrap(),
                            Reorder::Random => idxs[(self.ctx.draw() % idxs.len() as u64) as usize],
                            Reorder::EarliestArrival => unreachable!(),
                        })
                    }
                }
            };
            if let Some(idx) = pick {
                if settle {
                    settle = false;
                    self.ctx.metrics.borrow_mut().inc("recv.settle_waits", 1);
                    mb.cv.wait_for(&mut q, self.shared.settle_window);
                    continue; // re-evaluate over the settled queue
                }
                let m = q.swap_remove(idx);
                return RecvMsg {
                    src: m.src as usize,
                    tag: m.tag,
                    arrival: m.arrival,
                    payload: m.payload,
                    seq: m.seq,
                    dup: m.dup,
                    jittered: m.jittered,
                };
            }
            if let Err(waited) = watchdog.wait(&mb.cv, &mut q) {
                let report = self.stall_report(&q, waited);
                // Release the mailbox before draining the flight
                // recorders: the dump touches every rank's ring and
                // writes a file, none of which needs the queue.
                drop(q);
                self.shared.dump_flight_on_stall();
                panic!("{report}");
            }
        }
    }

    /// Watchdog diagnostic for a stalled receive: who we are, how long we
    /// waited, the active fault plan, and every queued-but-unmatched
    /// message in our mailbox.
    fn stall_report(&self, q: &[Msg], waited: Duration) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "simgrid watchdog: world rank {} (comm {} rank {}/{}) stalled in recv for {:.2?}",
            self.ctx.world_rank,
            self.id,
            self.my_idx,
            self.size(),
            waited,
        );
        let _ = writeln!(s, "  virtual clock: {:.6e} s", self.ctx.clock.get());
        let _ = writeln!(s, "  fault plan: {:?}", self.shared.fault);
        write_queue_dump(
            &mut s,
            q.iter()
                .map(|m| (m.comm_id, m.src, m.tag, m.arrival, m.payload.len())),
        );
        s
    }

    /// Split into disjoint subcommunicators by `color`; members are ordered
    /// by `(key, world rank)`. Like `MPI_Comm_split`, but as a zero-cost
    /// setup operation (grid construction is not timed in the paper either).
    ///
    /// All members of this communicator must call `split` collectively and
    /// in the same program order.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        // The protocol is the shared one; the simulator's part is that its
        // setup messages consume no virtual time.
        let ctx = &self.ctx;
        self.child(collectives::split(
            &self.members,
            self.my_idx,
            color,
            key,
            |dst, tag, payload| self.send_setup(dst, tag, payload),
            |src, tag| self.recv_raw(src, Some(tag)),
            |n| rank_scoped_id(&ctx.comm_seq, ctx.world_rank, n),
        ))
    }

    /// The subcommunicator of ranks `members` (in that order), built
    /// without a message; see [`Transport::subgroup`].
    pub fn subgroup(&self, members: &[usize], color: usize) -> Comm {
        self.child(collectives::subgroup(
            self.id,
            &self.members,
            self.my_idx,
            members,
            color,
            &self.ctx.subgroup_ids,
        ))
    }

    /// This rank's handle on the subcommunicator `group`.
    fn child(&self, group: collectives::SplitGroup) -> Comm {
        Comm {
            shared: Arc::clone(&self.shared),
            ctx: Rc::clone(&self.ctx),
            id: group.id,
            members: Arc::new(group.members),
            my_idx: group.my_idx,
        }
    }

    /// Zero-virtual-cost setup send (used by `split`): arrival = -inf, so
    /// no virtual time is consumed and FIFO stamps are unaffected.
    fn send_setup(&self, dst: usize, tag: u64, payload: &Payload) {
        let dst_world = self.members[dst];
        let msg = Msg {
            comm_id: self.id,
            src: self.my_idx as u32,
            tag,
            arrival: f64::NEG_INFINITY,
            payload: Arc::clone(payload),
            seq: 0,
            dup: false,
            jittered: false,
        };
        let mb = &self.shared.mailboxes[dst_world as usize];
        mb.queue.lock().push(msg);
        mb.cv.notify_all();
    }

    /// Barrier: binomial fan-in to rank 0, binomial fan-out. All clocks end
    /// at a common time plus the fan-out latency skew.
    pub fn barrier(&self, cat: Category) {
        let mut token = [0.0f64];
        self.reduce_bcast(&mut token, cat);
    }

    /// Allreduce (sum) over `data`: binomial reduction to rank 0 followed by
    /// a binomial broadcast.
    pub fn allreduce_sum(&self, data: &mut [f64], cat: Category) {
        self.reduce_bcast(data, cat);
    }

    fn reduce_bcast(&self, data: &mut [f64], cat: Category) {
        let tag = collectives::coll_tag(&self.ctx.coll_seq, self.id);
        collectives::reduce_bcast(self, tag, data, cat);
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree).
    pub fn bcast(&self, root: usize, data: &mut [f64], cat: Category) {
        let tag = collectives::coll_tag(&self.ctx.coll_seq, self.id);
        collectives::bcast_from(self, root, tag, data, cat);
    }
}

/// Options for a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Legacy knob: when nonzero and `fault` is inert, behaves like
    /// `fault = FaultPlan::random_reorder(chaos_seed)` — any-source
    /// receives pick a random (seeded) matching message instead of the
    /// earliest arrival. Ignored when `fault` injects anything.
    pub chaos_seed: u64,
    /// Record per-rank event timelines (see [`trace`]).
    pub trace: bool,
    /// Fault-injection plan; the default is inert (no faults).
    pub fault: FaultPlan,
    /// Real-time watchdog: a receive blocked longer than this panics with
    /// a per-rank diagnostic dump instead of hanging the process. `None`
    /// disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// Real-time window an any-source receive waits before committing its
    /// earliest-virtual-arrival pick, letting racing in-flight sends land
    /// so the choice is stable against OS scheduling. Slow or heavily
    /// oversubscribed runners can raise it; latency-sensitive callers can
    /// lower it (the pick may then depend on thread timing). The
    /// `recv.settle_waits` metric counts one wait per any-source receive
    /// regardless of the window length, so metric assertions stay
    /// deterministic under any setting.
    pub settle_window: Duration,
    /// Capacity of each rank's always-on flight recorder (most recent
    /// spans, overwrite-oldest). 0 disables recording.
    pub flight_capacity: usize,
    /// When set, a stall watchdog drains every rank's flight recorder into
    /// a Perfetto trace at this path before panicking.
    pub flight_dump_path: Option<PathBuf>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            chaos_seed: 0,
            trace: false,
            fault: FaultPlan::default(),
            stall_timeout: Some(Duration::from_secs(30)),
            settle_window: Duration::from_micros(100),
            flight_capacity: 512,
            flight_dump_path: None,
        }
    }
}

/// Run `f` on `nranks` simulated ranks of the given machine and collect the
/// per-rank results and statistics.
pub fn run<F, R>(nranks: usize, model: MachineModel, opts: &ClusterOptions, f: F) -> RunReport<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    assert!(nranks > 0);
    // Back-compat: a bare `chaos_seed` (no explicit plan) means the old
    // random any-source reorder fault.
    let fault = if opts.fault.is_inert() && opts.chaos_seed != 0 {
        FaultPlan::random_reorder(opts.chaos_seed)
    } else {
        opts.fault.clone()
    };
    let shared = Arc::new(ClusterShared {
        mailboxes: (0..nranks)
            .map(|_| Mailbox {
                // Pre-sized so steady-state enqueues don't reallocate the
                // queue (a realloc inside `push` would be a heap allocation
                // at an OS-scheduling-dependent moment).
                queue: Mutex::new(Vec::with_capacity(1024)),
                cv: Condvar::new(),
            })
            .collect(),
        model: Arc::new(model),
        fault,
        stall_timeout: opts.stall_timeout,
        settle_window: opts.settle_window,
        // Rings are fully reserved here, at setup: steady-state records
        // write in place and never allocate.
        flight: (0..nranks)
            .map(|_| Arc::new(Mutex::new(FlightRecorder::new(opts.flight_capacity))))
            .collect(),
        flight_dump_path: opts.flight_dump_path.clone(),
    });
    let world_members: Arc<Vec<u32>> = Arc::new((0..nranks as u32).collect());

    let trace_on = opts.trace;
    type RankOut<R> = (RankStats, R, Vec<TraceEvent>, crate::metrics::Metrics);
    let mut out: Vec<Option<RankOut<R>>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let shared = Arc::clone(&shared);
            let members = Arc::clone(&world_members);
            let f = &f;
            let h = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(1 << 20)
                .spawn_scoped(scope, move || {
                    let ctx = Rc::new(RankCtx {
                        world_rank: rank,
                        clock: Cell::new(0.0),
                        stats: RefCell::new(RankStats::new(rank)),
                        fifo: RefCell::new(HashMap::new()),
                        fault_rng: Cell::new(shared.fault.rank_stream(rank)),
                        compute_mult: shared.fault.compute_mult(rank),
                        coll_seq: RefCell::new(HashMap::new()),
                        trace: trace_on.then(|| RefCell::new(Vec::new())),
                        flight: Arc::clone(&shared.flight[rank]),
                        span_detail: Cell::new(None),
                        metrics: RefCell::new(crate::metrics::Metrics::new()),
                        sent_seq: Cell::new(0),
                        comm_seq: Cell::new(0),
                        subgroup_ids: RefCell::default(),
                    });
                    {
                        // Pre-create the standard per-message series so the
                        // steady-state send/recv paths never insert a map
                        // node (BTreeMap insertion allocates).
                        let mut m = ctx.metrics.borrow_mut();
                        m.touch_counter("msgs.sent");
                        m.touch_counter("msgs.received");
                        m.touch_counter("recv.settle_waits");
                        m.touch_histogram("msgs.bytes", crate::metrics::BYTE_BUCKETS);
                        m.touch_histogram("recv.wait_seconds", crate::metrics::WAIT_BUCKETS);
                    }
                    let world = Comm {
                        shared,
                        ctx: Rc::clone(&ctx),
                        id: 0,
                        members,
                        my_idx: rank,
                    };
                    let r = f(world);
                    let mut stats = ctx.stats.borrow().clone();
                    stats.final_clock = ctx.clock.get();
                    let tr = ctx
                        .trace
                        .as_ref()
                        .map(|t| t.borrow().clone())
                        .unwrap_or_default();
                    let metrics = ctx.metrics.borrow().clone();
                    (stats, r, tr, metrics)
                })
                .expect("spawn rank thread");
            handles.push(h);
        }
        for (rank, h) in handles.into_iter().enumerate() {
            out[rank] = Some(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });

    let mut stats = Vec::with_capacity(nranks);
    let mut results = Vec::with_capacity(nranks);
    let mut traces = Vec::with_capacity(nranks);
    let mut metrics = crate::metrics::Metrics::new();
    for slot in out {
        let (s, r, t, m) = slot.expect("every rank completed");
        stats.push(s);
        results.push(r);
        traces.push(t);
        metrics.merge_from(&m);
    }
    let mut rep = RunReport::new(stats, results);
    rep.traces = traces;
    rep.flight = shared.flight.iter().map(|f| f.lock().drain()).collect();
    rep.metrics = metrics;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;

    fn toy_model() -> MachineModel {
        MachineModel::uniform("toy", 1e9, 1e-6, 1e9, 4)
    }

    #[test]
    fn ping_pong_advances_clocks() {
        let rep = run(2, toy_model(), &ClusterOptions::default(), |c| {
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
        assert!(rep.results[0] > 0.0);
        assert!(rep.results[1] > 0.0);
        // Round trip at rank 0 covers two latencies.
        assert!(rep.results[0] >= 2e-6);
    }

    #[test]
    fn compute_advances_only_own_clock() {
        let rep = run(2, toy_model(), &ClusterOptions::default(), |c| {
            if c.rank() == 0 {
                c.compute(1.0, Category::Flop);
            }
            c.now()
        });
        assert!(rep.results[0] >= 1.0);
        assert_eq!(rep.results[1], 0.0);
    }

    #[test]
    fn recv_any_takes_earliest_arrival() {
        let rep = run(3, toy_model(), &ClusterOptions::default(), |c| {
            match c.rank() {
                1 => {
                    c.compute(5.0, Category::Flop); // late sender
                    c.send(0, 1, &[1.0], Category::XyComm);
                }
                2 => {
                    c.send(0, 1, &[2.0], Category::XyComm); // early sender
                }
                0 => {
                    // Wait until both messages are definitely queued.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    let m1 = c.recv(None, Some(1), Category::XyComm);
                    let m2 = c.recv(None, Some(1), Category::XyComm);
                    assert_eq!(m1.payload[0], 2.0, "earliest virtual arrival first");
                    assert_eq!(m2.payload[0], 1.0);
                    assert!(m1.arrival < m2.arrival);
                }
                _ => unreachable!(),
            }
            c.now()
        });
        assert!(rep.results[0] >= 5.0, "rank 0 waited for the late message");
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let rep = run(p, toy_model(), &ClusterOptions::default(), |c| {
                let mut v = [c.rank() as f64, 1.0];
                c.allreduce_sum(&mut v, Category::ZComm);
                v
            });
            let want0 = (p * (p - 1) / 2) as f64;
            for r in &rep.results {
                assert_eq!(r[0], want0);
                assert_eq!(r[1], p as f64);
            }
        }
    }

    #[test]
    fn barrier_synchronizes_virtual_time() {
        let rep = run(4, toy_model(), &ClusterOptions::default(), |c| {
            if c.rank() == 2 {
                c.compute(3.0, Category::Flop);
            }
            c.barrier(Category::ZComm);
            c.now()
        });
        for r in &rep.results {
            assert!(*r >= 3.0, "barrier must not complete before slowest rank");
        }
    }

    #[test]
    fn fifo_non_overtaking_per_destination() {
        let rep = run(2, toy_model(), &ClusterOptions::default(), |c| {
            if c.rank() == 0 {
                // Large then tiny message, same tag: arrival order must hold.
                let big = vec![0.5; 100_000];
                c.send(1, 5, &big, Category::XyComm);
                c.send(1, 5, &[9.0], Category::XyComm);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let m1 = c.recv(Some(0), Some(5), Category::XyComm);
                let m2 = c.recv(Some(0), Some(5), Category::XyComm);
                assert_eq!(m1.payload.len(), 100_000);
                assert_eq!(m2.payload[0], 9.0);
                assert!(m1.arrival <= m2.arrival);
            }
        });
        drop(rep);
    }

    #[test]
    fn stats_track_bytes_and_messages() {
        let rep = run(2, toy_model(), &ClusterOptions::default(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[1.0; 10], Category::ZComm);
            } else {
                c.recv(Some(0), Some(1), Category::ZComm);
            }
        });
        let s0 = &rep.stats[0];
        assert_eq!(s0.msgs_sent[Category::ZComm as usize], 1);
        assert!(s0.bytes_sent[Category::ZComm as usize] >= 80);
    }

    #[test]
    fn chaos_mode_still_delivers_everything() {
        let rep = run(
            4,
            toy_model(),
            &ClusterOptions {
                chaos_seed: 1234,
                ..ClusterOptions::default()
            },
            |c| {
                if c.rank() == 0 {
                    let mut sum = 0.0;
                    for _ in 0..3 {
                        let m = c.recv(None, Some(2), Category::XyComm);
                        sum += m.payload[0];
                    }
                    sum
                } else {
                    c.send(0, 2, &[c.rank() as f64], Category::XyComm);
                    0.0
                }
            },
        );
        assert_eq!(rep.results[0], 6.0);
    }

    fn faulty_opts(fault: FaultPlan) -> ClusterOptions {
        ClusterOptions {
            fault,
            ..ClusterOptions::default()
        }
    }

    #[test]
    fn straggler_rank_is_slowed_by_the_multiplier() {
        let fault = FaultPlan {
            seed: 1,
            straggler_ranks: vec![1],
            straggler_factor: 8.0,
            ..FaultPlan::default()
        };
        let rep = run(2, toy_model(), &faulty_opts(fault), |c| {
            c.compute(1.0, Category::Flop);
            c.now()
        });
        assert_eq!(rep.results[0], 1.0);
        assert_eq!(rep.results[1], 8.0);
    }

    #[test]
    fn degraded_link_inflates_arrival_times() {
        let arrival_with = |fault: FaultPlan| {
            let rep = run(2, toy_model(), &faulty_opts(fault), |c| {
                if c.rank() == 0 {
                    c.send(1, 1, &[1.0; 1000], Category::XyComm);
                    0.0
                } else {
                    c.recv(Some(0), Some(1), Category::XyComm).arrival
                }
            });
            rep.results[1]
        };
        let clean = arrival_with(FaultPlan::default());
        let degraded = arrival_with(FaultPlan {
            seed: 1,
            degraded_ranks: vec![1],
            degrade_wire_mult: 20.0,
            degrade_extra_latency: 20e-6,
            ..FaultPlan::default()
        });
        assert!(
            degraded > clean + 19e-6,
            "degraded {degraded:e} vs clean {clean:e}"
        );
    }

    #[test]
    fn duplicates_and_jitter_still_deliver_correct_payloads() {
        let fault = FaultPlan {
            seed: 99,
            jitter_max: 5e-6,
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        };
        let rep = run(4, toy_model(), &faulty_opts(fault), |c| {
            if c.rank() == 0 {
                let mut sum = 0.0;
                for src in 1..4 {
                    sum += c
                        .recv(Some(src), Some(src as u64), Category::XyComm)
                        .payload[0];
                }
                sum
            } else {
                c.send(0, c.rank() as u64, &[c.rank() as f64], Category::XyComm);
                0.0
            }
        });
        // Duplicates stay queued behind the src/tag-specific receives.
        assert_eq!(rep.results[0], 6.0);
    }

    #[test]
    fn fault_sampling_is_deterministic_per_seed() {
        let arrivals = || {
            let fault = FaultPlan {
                seed: 4242,
                jitter_max: 10e-6,
                duplicate_prob: 0.5,
                ..FaultPlan::default()
            };
            let rep = run(2, toy_model(), &faulty_opts(fault), |c| {
                if c.rank() == 0 {
                    for k in 0..20u64 {
                        c.send(1, k, &[k as f64], Category::XyComm);
                    }
                    Vec::new()
                } else {
                    (0..20u64)
                        .map(|k| c.recv(Some(0), Some(k), Category::XyComm).arrival)
                        .collect::<Vec<f64>>()
                }
            });
            rep.results[1].clone()
        };
        assert_eq!(arrivals(), arrivals());
    }

    #[test]
    fn repeated_collectives_survive_duplicate_deliveries() {
        // Without per-collective tag sequencing, a duplicated reduction
        // message from the first allreduce would satisfy the second one
        // with a stale payload.
        let fault = FaultPlan {
            seed: 7,
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        };
        let rep = run(4, toy_model(), &faulty_opts(fault), |c| {
            let mut a = [c.rank() as f64];
            c.allreduce_sum(&mut a, Category::ZComm);
            let mut b = [10.0 * c.rank() as f64];
            c.allreduce_sum(&mut b, Category::ZComm);
            (a[0], b[0])
        });
        for r in &rep.results {
            assert_eq!(r.0, 6.0);
            assert_eq!(r.1, 60.0);
        }
    }

    #[test]
    fn adversarial_reorder_policies_deliver_everything() {
        for reorder in [
            Reorder::Random,
            Reorder::NewestQueued,
            Reorder::LatestArrival,
        ] {
            let fault = FaultPlan {
                seed: 31337,
                reorder,
                ..FaultPlan::default()
            };
            let rep = run(4, toy_model(), &faulty_opts(fault), |c| {
                if c.rank() == 0 {
                    let mut sum = 0.0;
                    for _ in 0..3 {
                        sum += c.recv(None, Some(2), Category::XyComm).payload[0];
                    }
                    sum
                } else {
                    c.send(0, 2, &[c.rank() as f64], Category::XyComm);
                    0.0
                }
            });
            assert_eq!(rep.results[0], 6.0, "reorder {reorder:?} lost a message");
        }
    }

    /// Exact (src, tag) receives commit their unique match immediately;
    /// only any-source receives pay the settle window. Counted via the
    /// `recv.settle_waits` metric so the assertion is deterministic (no
    /// wall-clock timing).
    #[test]
    fn exact_receives_skip_the_settle_window() {
        let rep = run(3, toy_model(), &ClusterOptions::default(), |c| {
            match c.rank() {
                1 => c.send(0, 5, &[1.0], Category::XyComm),
                2 => c.send(0, 6, &[2.0], Category::XyComm),
                0 => {
                    // Let both messages land first.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    let m = c.recv(Some(1), Some(5), Category::XyComm);
                    assert_eq!(m.payload[0], 1.0);
                    let m = c.recv(None, Some(6), Category::XyComm);
                    assert_eq!(m.payload[0], 2.0);
                }
                _ => unreachable!(),
            }
        });
        assert_eq!(
            rep.metrics.counter("recv.settle_waits"),
            1,
            "only the any-source receive settles"
        );
    }

    /// The settle window is a tunable `ClusterOptions` knob. Even at zero
    /// (commit the first candidate immediately) the pick among *already
    /// queued* matches is still earliest-virtual-arrival, and the
    /// `recv.settle_waits` counter still counts one wait per any-source
    /// receive — assertions on it stay deterministic at any setting.
    #[test]
    fn settle_window_is_configurable() {
        for window_us in [0u64, 100, 2000] {
            let opts = ClusterOptions {
                settle_window: Duration::from_micros(window_us),
                ..ClusterOptions::default()
            };
            let rep = run(3, toy_model(), &opts, |c| match c.rank() {
                1 => {
                    c.compute(5.0, Category::Flop); // late virtual sender
                    c.send(0, 1, &[1.0], Category::XyComm);
                }
                2 => c.send(0, 1, &[2.0], Category::XyComm),
                0 => {
                    // Both messages are queued before the receive is posted,
                    // so the pick is window-independent.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    let m1 = c.recv(None, Some(1), Category::XyComm);
                    let m2 = c.recv(None, Some(1), Category::XyComm);
                    assert_eq!(m1.payload[0], 2.0, "earliest virtual arrival first");
                    assert_eq!(m2.payload[0], 1.0);
                }
                _ => unreachable!(),
            });
            assert_eq!(
                rep.metrics.counter("recv.settle_waits"),
                2,
                "one settle wait per any-source receive (window {window_us}us)"
            );
        }
    }

    #[test]
    fn flight_recorder_always_captures_recent_spans() {
        let run_once = || {
            run(2, toy_model(), &ClusterOptions::default(), |c| {
                if c.rank() == 0 {
                    c.compute(1e-6, Category::Flop);
                    c.send(1, 7, &[1.0, 2.0], Category::XyComm);
                } else {
                    c.recv(Some(0), Some(7), Category::XyComm);
                }
            })
        };
        let rep = run_once();
        // Tracing is off, yet the flight recorder kept every span.
        assert!(rep.traces.iter().all(Vec::is_empty));
        assert_eq!(rep.flight.len(), 2);
        assert_eq!(rep.flight[0].len(), 2); // compute + send
        assert_eq!(rep.flight[0][0].kind, EventKind::Compute);
        assert_eq!(rep.flight[0][1].kind, EventKind::Send);
        assert_eq!(rep.flight[1].len(), 1); // recv
        assert_eq!(rep.flight[1][0].kind, EventKind::Recv);
        // Bit-stable across identical runs.
        assert_eq!(rep.flight, run_once().flight);
    }

    #[test]
    fn watchdog_reports_stalled_ranks_instead_of_hanging() {
        let opts = ClusterOptions {
            stall_timeout: Some(Duration::from_millis(200)),
            ..ClusterOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, toy_model(), &opts, |c| {
                if c.rank() == 0 {
                    c.send(1, 1, &[1.0], Category::XyComm);
                    // Tag 99 is never sent: rank 0 stalls forever.
                    c.recv(Some(1), Some(99), Category::XyComm);
                }
            });
        }))
        .expect_err("stalled run must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("watchdog"), "diagnostic missing: {msg}");
        assert!(msg.contains("world rank 0"), "diagnostic missing: {msg}");
        assert!(msg.contains("fault plan"), "diagnostic missing: {msg}");
    }
}
