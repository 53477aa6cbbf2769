//! The transport contract the solver core programs against.
//!
//! The paper's thesis is that one communication structure — binary
//! broadcast/reduction trees plus a sparse allreduce — serves CPU clusters,
//! GPU clusters, and one-sided transports alike. The solver executors
//! therefore never name a concrete communicator type: they are generic over
//! [`Transport`], and a backend supplies the wire.
//!
//! Three backends exist in-tree:
//!
//! * [`Comm`](crate::Comm) — the virtual-time simulator of this crate
//!   (backend #1). Virtual clocks, the α–β machine model, fault injection,
//!   the any-source settle window, and span tracing are all *sim-private*:
//!   they live behind this trait, not in the solver core.
//! * `sptrsv-comm-native` — a real shared-memory transport (backend #2):
//!   one OS thread per rank, mailbox queues, wall-clock timing.
//! * `sptrsv-comm-proc` — a real distributed transport (backend #3): one
//!   OS *process* per rank over Unix-domain sockets, messages serialized
//!   through the [`wire`](crate::wire) envelope.
//!
//! ## Contract
//!
//! What every backend must provide (the solvers rely on these):
//!
//! * **Per-destination FIFO**: two [`send_shared`](Transport::send_shared)
//!   calls from one rank to one destination on one communicator are
//!   received in send order when matched by `(src, tag)`. One-sided
//!   [`send_timed_shared`](Transport::send_timed_shared) is exempt, like
//!   NVSHMEM puts.
//! * **Tag addressing**: receives match on exact `(src, tag)` or on a
//!   masked tag pattern; unmatched messages stay queued.
//! * **Fixed collective shape**: `allreduce_sum`/`bcast`/`barrier` use the
//!   binomial tree over communicator ranks, so the floating-point
//!   reduction *order* is identical on every backend — this is what makes
//!   solutions bit-identical across transports (together with the solver
//!   side's order-independent ledger accumulation).
//! * **Collective tag isolation**: successive collectives on one
//!   communicator must not confuse each other's messages, even when the
//!   network duplicates or delays deliveries.
//!
//! What a backend may choose:
//!
//! * **The clock.** [`now`](Transport::now) is virtual seconds under the
//!   simulator and real (monotonic, process-relative) seconds under the
//!   native backend. Solvers only form differences of it.
//! * **Any-source pick order** among queued matches. Solvers are built to
//!   be delivery-order-independent (chaos-tested under the simulator's
//!   fault plans), so this never changes the computed bits.
//! * **Observability.** The trace/metric hooks default to no-ops; the
//!   simulator records structured spans, the native backend counters only.

use crate::machine::MachineModel;
use crate::stats::{Category, N_CATEGORIES};
use crate::trace::{EventKind, SpanDetail};
use crate::RecvMsg;
use std::sync::Arc;

/// A message payload as the solver core sees it: a shared, immutable
/// buffer of `f64` words (numeric values, and — on the PR 9 occupancy
/// paths — presence-bitmap words smuggled as bit patterns).
///
/// In-process backends move a `Payload` by bumping the `Arc` refcount, so
/// a send is zero-copy end to end. Process-boundary backends serialize it
/// through the [`wire`](crate::wire) frame — bit-exactly, via
/// `f64::to_bits` — and materialize a fresh `Payload` on the receiving
/// side; that frame is the single point where zero-copy ends.
pub type Payload = Arc<[f64]>;

/// Accounted size in bytes of a message carrying `words` payload words:
/// the payload plus a fixed 64-byte envelope. This is the *nominal* size
/// every backend charges to `stats.bytes_sent`, the `msgs.bytes` histogram
/// and the machine model, so traffic statistics are bit-equal across
/// backends; it is not what a link physically moves (the process backend's
/// wire frame is `56 + 8·words` bytes, a refcount bump moves none).
#[inline]
pub fn envelope_bytes(words: usize) -> usize {
    8 * words + 64
}

/// A communicator handle of one rank on some message-passing backend.
///
/// Cloning semantics follow `MPI_Comm`: [`split`](Transport::split) and
/// [`subgroup`](Transport::subgroup) yield a subcommunicator of the same
/// concrete backend, which is why the trait is `Sized` and the solver core
/// is generic rather than trait-object-based.
pub trait Transport: Sized {
    // ---- topology ----

    /// My rank within this communicator.
    fn rank(&self) -> usize;

    /// Number of ranks in this communicator.
    fn size(&self) -> usize;

    /// World rank of communicator rank `r`.
    fn world_rank(&self, r: usize) -> usize;

    /// The machine cost model of the cluster. Backends that do not *apply*
    /// the model (the native backend pays real costs) still expose it: the
    /// solvers read structural parameters from it (GPU model, flop rate
    /// for modeled kernel times).
    fn model(&self) -> &MachineModel;

    /// Id of this communicator: what queued messages and wire frames are
    /// matched on. Distinct for any two communicators one rank holds.
    fn id(&self) -> u64;

    /// Split into disjoint subcommunicators by `color`, members ordered by
    /// `(key, world rank)`. Collective: all ranks of this communicator
    /// must call in the same program order. Costs a gather to rank 0 and a
    /// broadcast back; when every member can work out its group by itself,
    /// use [`subgroup`](Transport::subgroup).
    fn split(&self, color: usize, key: usize) -> Self;

    /// The subcommunicator whose rank `i` is this communicator's rank
    /// `members[i]`, built without sending or receiving anything: the
    /// `MPI_Cart_sub` case, where membership is a function of coordinates
    /// every rank holds. `members` must contain the caller, and every
    /// member must pass the same list and the same `color` (which tells
    /// sibling groups of one call apart). Ranks that belong to no group of
    /// a call do not make it; members of one group must build the groups
    /// they share on this communicator in the same program order.
    fn subgroup(&self, members: &[usize], color: usize) -> Self;

    // ---- clock & accounting ----

    /// Current time of this rank, in seconds. Virtual under the simulator,
    /// real (monotonic since cluster start) under the native backend.
    /// Solvers only form differences of this value.
    fn now(&self) -> f64;

    /// Advance this rank's clock to at least `t`. No-op on backends whose
    /// clock advances by itself.
    fn advance_to(&self, t: f64);

    /// Spend `seconds` of *modeled* computation, attributed to `cat`. The
    /// simulator advances the virtual clock by the model time; the native
    /// backend instead attributes the real time that elapsed since its
    /// last attribution point (the work already happened in this thread).
    fn compute(&self, seconds: f64, cat: Category);

    /// Attribute `seconds` to `cat` without advancing the clock (used by
    /// the GPU executor, which tracks task times itself). Like
    /// [`compute`](Transport::compute), real-time backends substitute
    /// measured elapsed time for the modeled value.
    fn account(&self, seconds: f64, cat: Category);

    /// Snapshot of this rank's per-category times so far. Solvers take
    /// deltas of this to attribute time to algorithm phases.
    fn time_snapshot(&self) -> [f64; N_CATEGORIES];

    // ---- point-to-point ----

    /// Send `payload` to communicator rank `dst`. Copies the slice into a
    /// shared buffer at this API boundary; hot paths that already own an
    /// `Arc<[f64]>` use [`send_shared`](Transport::send_shared).
    fn send(&self, dst: usize, tag: u64, payload: &[f64], cat: Category) {
        self.send_shared(dst, tag, &Arc::from(payload), cat)
    }

    /// Zero-copy send: enqueue a refcount bump of `payload`.
    fn send_shared(&self, dst: usize, tag: u64, payload: &Payload, cat: Category);

    /// One-sided put with an explicit departure time and wire cost, in the
    /// backend's clock domain (the GPU path's NVSHMEM-style messages).
    /// Exempt from the two-sided FIFO rule; must not block the caller.
    /// Backends with a real clock may ignore the modeled times and deliver
    /// immediately.
    fn send_timed_shared(
        &self,
        depart: f64,
        wire: f64,
        dst: usize,
        tag: u64,
        payload: &Payload,
        cat: Category,
    );

    /// Pre-create any per-destination bookkeeping for sends to `dst`, so
    /// the first steady-state send does not allocate. Optional.
    fn warm_route(&self, _dst: usize) {}

    /// Blocking receive. `src`/`tag` of `None` match anything (the
    /// `MPI_Recv(MPI_ANY_SOURCE)` pattern). Waiting time is attributed to
    /// `cat`.
    fn recv(&self, src: Option<usize>, tag: Option<u64>, cat: Category) -> RecvMsg;

    /// Blocking any-source receive matching `tag & mask == value` — the
    /// "any message of this solve phase" pattern. Messages of other phases
    /// stay queued.
    fn recv_tag_masked(&self, mask: u64, value: u64, cat: Category) -> RecvMsg;

    /// Like [`recv_tag_masked`](Transport::recv_tag_masked) but without
    /// touching the clock or the statistics (GPU path: arrival times drive
    /// the executor instead).
    fn recv_raw_tag_masked(&self, mask: u64, value: u64) -> RecvMsg;

    // ---- collectives (fixed binomial shape on every backend) ----

    /// Barrier over this communicator.
    fn barrier(&self, cat: Category);

    /// Allreduce (sum): binomial reduction to rank 0, binomial broadcast
    /// back. The reduction order is fixed by the tree, not by arrival, so
    /// results are bit-identical across backends.
    fn allreduce_sum(&self, data: &mut [f64], cat: Category);

    /// Broadcast `data` from `root` to all ranks (binomial tree).
    fn bcast(&self, root: usize, data: &mut [f64], cat: Category);

    // ---- observability hooks (default: no-op) ----

    /// Stamp `detail` onto every span recorded from now on (until cleared
    /// with `None`). Backends without tracing ignore this.
    fn set_span_detail(&self, _detail: Option<SpanDetail>) {}

    /// Attach `detail` to the most recently recorded span.
    fn annotate_last(&self, _detail: SpanDetail) {}

    /// Mark the most recent receive as a recognised-and-dropped duplicate.
    fn mark_last_dropped_duplicate(&self) {}

    /// Record a span with explicit bounds and annotation, without touching
    /// the clock or the statistics (GPU covering spans).
    fn trace_span(
        &self,
        _t0: f64,
        _t1: f64,
        _kind: EventKind,
        _cat: Category,
        _detail: Option<SpanDetail>,
    ) {
    }

    /// Add `by` to this rank's counter `name`.
    fn metric_inc(&self, _name: &str, _by: u64) {}

    /// Record `v` into this rank's histogram `name`.
    fn metric_observe(&self, _name: &str, _bounds: &[f64], _v: f64) {}
}

/// Backend #1: the virtual-time simulator. Every method delegates to the
/// inherent [`Comm`](crate::Comm) API; the trait adds nothing the
/// simulator did not already provide — it *subtracts* what is sim-private
/// (fault injection, settle window, raw any-source receives).
impl Transport for crate::Comm {
    fn rank(&self) -> usize {
        crate::Comm::rank(self)
    }

    fn size(&self) -> usize {
        crate::Comm::size(self)
    }

    fn world_rank(&self, r: usize) -> usize {
        crate::Comm::world_rank(self, r)
    }

    fn model(&self) -> &MachineModel {
        crate::Comm::model(self)
    }

    fn id(&self) -> u64 {
        crate::Comm::id(self)
    }

    fn split(&self, color: usize, key: usize) -> Self {
        crate::Comm::split(self, color, key)
    }

    fn subgroup(&self, members: &[usize], color: usize) -> Self {
        crate::Comm::subgroup(self, members, color)
    }

    fn now(&self) -> f64 {
        crate::Comm::now(self)
    }

    fn advance_to(&self, t: f64) {
        crate::Comm::advance_to(self, t)
    }

    fn compute(&self, seconds: f64, cat: Category) {
        crate::Comm::compute(self, seconds, cat)
    }

    fn account(&self, seconds: f64, cat: Category) {
        crate::Comm::account(self, seconds, cat)
    }

    fn time_snapshot(&self) -> [f64; N_CATEGORIES] {
        crate::Comm::time_snapshot(self)
    }

    fn send(&self, dst: usize, tag: u64, payload: &[f64], cat: Category) {
        crate::Comm::send(self, dst, tag, payload, cat)
    }

    fn send_shared(&self, dst: usize, tag: u64, payload: &Payload, cat: Category) {
        crate::Comm::send_shared(self, dst, tag, payload, cat)
    }

    fn send_timed_shared(
        &self,
        depart: f64,
        wire: f64,
        dst: usize,
        tag: u64,
        payload: &Payload,
        cat: Category,
    ) {
        crate::Comm::send_timed_shared(self, depart, wire, dst, tag, payload, cat)
    }

    fn warm_route(&self, dst: usize) {
        crate::Comm::warm_route(self, dst)
    }

    fn recv(&self, src: Option<usize>, tag: Option<u64>, cat: Category) -> RecvMsg {
        crate::Comm::recv(self, src, tag, cat)
    }

    fn recv_tag_masked(&self, mask: u64, value: u64, cat: Category) -> RecvMsg {
        crate::Comm::recv_tag_masked(self, mask, value, cat)
    }

    fn recv_raw_tag_masked(&self, mask: u64, value: u64) -> RecvMsg {
        crate::Comm::recv_raw_tag_masked(self, mask, value)
    }

    fn barrier(&self, cat: Category) {
        crate::Comm::barrier(self, cat)
    }

    fn allreduce_sum(&self, data: &mut [f64], cat: Category) {
        crate::Comm::allreduce_sum(self, data, cat)
    }

    fn bcast(&self, root: usize, data: &mut [f64], cat: Category) {
        crate::Comm::bcast(self, root, data, cat)
    }

    fn set_span_detail(&self, detail: Option<SpanDetail>) {
        crate::Comm::set_span_detail(self, detail)
    }

    fn annotate_last(&self, detail: SpanDetail) {
        crate::Comm::annotate_last(self, detail)
    }

    fn mark_last_dropped_duplicate(&self) {
        crate::Comm::mark_last_dropped_duplicate(self)
    }

    fn trace_span(
        &self,
        t0: f64,
        t1: f64,
        kind: EventKind,
        cat: Category,
        detail: Option<SpanDetail>,
    ) {
        crate::Comm::trace_span(self, t0, t1, kind, cat, detail)
    }

    fn metric_inc(&self, name: &str, by: u64) {
        crate::Comm::metric_inc(self, name, by)
    }

    fn metric_observe(&self, name: &str, bounds: &[f64], v: f64) {
        crate::Comm::metric_observe(self, name, bounds, v)
    }
}
