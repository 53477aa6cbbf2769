//! Optional per-rank event tracing with structured solver semantics.
//!
//! When [`crate::ClusterOptions::trace`] is set, every compute, send, and
//! receive interval is recorded with its virtual start/end times. The
//! resulting timelines explain *why* a solve has the makespan it does —
//! the closest offline equivalent to the Vampir/Score-P traces used when
//! tuning the real SuperLU_DIST solver.
//!
//! Spans carry two optional attachments:
//!
//! * [`MsgInfo`] — the wire-level facts of a send/receive (peer, bytes,
//!   tag, a cluster-unique sequence id that pairs each receive with its
//!   send, the virtual arrival time, and fault-injection marks).
//! * [`SpanDetail`] — what the *solver* was doing (supernode, schedule
//!   step, broadcast/reduction-tree role, allreduce round, z-exchange
//!   level, GPU pass), stamped by the interpreter layers in `core`.
//!
//! On CPU ranks the recorded spans exactly tile `[0, final_clock]`: every
//! clock advance happens inside a recorded interval, so the spans of each
//! rank are non-overlapping and gap-free. Event-driven GPU passes record
//! one covering span per pass instead of per-task spans (their internal
//! puts/receives deliberately bypass tracing); the covering span preserves
//! the tiling invariant, which is what lets the critical-path walk in
//! `core::analysis` telescope exactly to the makespan.
//!
//! [`export_perfetto`] serialises timelines into the Chrome trace-event
//! JSON format (one *process* per 2D grid, one *thread* per rank, flow
//! arrows linking each send to its matching receive), loadable directly
//! in <https://ui.perfetto.dev>.

use crate::stats::Category;

/// What a traced interval was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Local computation.
    Compute,
    /// Sender-side overhead of a message.
    Send,
    /// Waiting for + receiving a message.
    Recv,
}

/// Position of an operation inside a communication tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeRole {
    /// Solving the diagonal block (root work of a broadcast tree).
    Diag,
    /// Applying an off-diagonal block column update.
    Apply,
    /// Moving a solved vector down a broadcast tree.
    Bcast,
    /// Moving a partial sum up a reduction tree.
    Reduce,
}

impl TreeRole {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            TreeRole::Diag => "diag",
            TreeRole::Apply => "apply",
            TreeRole::Bcast => "bcast",
            TreeRole::Reduce => "reduce",
        }
    }
}

/// Solver-semantic annotation attached to a span by the interpreter
/// layers in `core` (the simulator itself never fabricates one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanDetail {
    /// Activity inside a 2D schedule pass driven by `run_pass`.
    Pass {
        /// Pass epoch (L/U, possibly per z-step for the baseline).
        epoch: u64,
        /// Monotone per-pass step index on this rank.
        step: u32,
        /// Supernode the operation concerns.
        sup: u32,
        /// Tree role of the operation.
        role: TreeRole,
    },
    /// One round of the sparse z-line allreduce.
    Allreduce {
        /// Butterfly/tree round index (reduce counts up, bcast back down).
        round: u32,
        /// `Reduce` on the way up, `Bcast` on the way down.
        role: TreeRole,
    },
    /// One round of the sparse z-line allreduce under the live-support
    /// trimmed layout: same role as [`SpanDetail::Allreduce`], plus the
    /// payload doubles the trim removed from this round, so the critical-
    /// path walk can attribute makespan wins per round.
    ZExchangeTrim {
        /// Butterfly/tree round index (reduce counts up, bcast back down).
        round: u32,
        /// `Reduce` on the way up, `Bcast` on the way down.
        role: TreeRole,
        /// Doubles removed from this round's payload vs the dense layout.
        saved_doubles: u64,
    },
    /// Dense per-node allreduce of the naive fallback path.
    NaiveAllreduce {
        /// Layout-node heap id being reduced.
        node: u32,
    },
    /// Baseline-3D z-exchange of packed lsum/x buffers.
    ZExchange {
        /// Exchange level (low bits of the compile-time tag).
        level: u32,
        /// True for the lsum reduction leg, false for solved-x forwarding.
        reduce: bool,
    },
    /// Covering span of one event-driven GPU pass.
    GpuPass {
        /// Pass epoch.
        epoch: u64,
        /// Kernel launches retired by the pass.
        tasks: u64,
    },
    /// Blocking receive entered while the level-set executor is parked at
    /// a level barrier: the waited-on row's dependencies are incomplete,
    /// so the span's stall time is level-synchronization cost.
    LevelBarrier {
        /// Pass epoch.
        epoch: u64,
        /// Level the executor is parked at.
        level: u32,
        /// Supernode of the row waiting at the barrier.
        sup: u32,
    },
}

/// Fault-injection marks stamped on message spans, so chaos runs can be
/// audited from the trace alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultMark {
    /// The message's arrival was pushed back by injected jitter.
    pub jitter_delayed: bool,
    /// This delivery is an injected duplicate copy.
    pub duplicate: bool,
    /// The receiver recognised this delivery as a duplicate and dropped it.
    pub dropped_duplicate: bool,
}

impl FaultMark {
    /// Any mark set?
    pub fn any(self) -> bool {
        self.jitter_delayed || self.duplicate || self.dropped_duplicate
    }
}

/// Wire-level facts of a send/receive span. Replaces the old
/// `peer = usize::MAX` / `bytes = 0` sentinel convention: compute spans
/// simply carry no `MsgInfo`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MsgInfo {
    /// World rank of the other endpoint.
    pub peer: usize,
    /// Bytes on the wire (payload + envelope).
    pub bytes: usize,
    /// Message tag (epoch/kind/supernode encoding of `core`).
    pub tag: u64,
    /// Cluster-unique message id; a receive span carries the id of the
    /// send that produced it, which is how flow arrows and the
    /// critical-path walk pair the two.
    pub seq: u64,
    /// Virtual arrival time at the receiver (post fault injection).
    pub arrival: f64,
    /// Fault-injection marks.
    pub faults: FaultMark,
}

/// One traced interval on a rank's virtual timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Interval start (virtual seconds).
    pub t0: f64,
    /// Interval end (virtual seconds, `t1 ≥ t0`).
    pub t1: f64,
    /// Interval kind.
    pub kind: EventKind,
    /// Attribution category.
    pub category: Category,
    /// Message facts (`None` for compute spans).
    pub msg: Option<MsgInfo>,
    /// Solver-semantic annotation, if the interpreter stamped one.
    pub detail: Option<SpanDetail>,
}

impl TraceEvent {
    /// A compute span (no message payload).
    pub fn compute(t0: f64, t1: f64, category: Category) -> Self {
        TraceEvent {
            t0,
            t1,
            kind: EventKind::Compute,
            category,
            msg: None,
            detail: None,
        }
    }
}

/// Always-on flight recorder: a fixed-capacity ring buffer of the most
/// recent [`TraceEvent`]s on one rank, overwriting the oldest entry when
/// full.
///
/// Unlike the opt-in full trace (which grows unboundedly and is off by
/// default), a recorder is bounded and allocation-free after construction:
/// the backing store is reserved up front and [`FlightRecorder::record`]
/// only ever writes in place. Both backends feed every compute/send/recv
/// span into it, so when a rank stalls the watchdog can drain the last N
/// spans of *every* rank into a Perfetto dump — a replayable
/// last-few-milliseconds timeline instead of a point-in-time report.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    /// Index of the oldest entry once the ring is full; next write slot.
    head: usize,
    overwritten: u64,
}

impl FlightRecorder {
    /// Recorder holding the most recent `capacity` events (0 disables it).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            overwritten: 0,
        }
    }

    /// Record one event, overwriting the oldest if the ring is full.
    /// Never allocates: the buffer grows only up to its reserved capacity.
    pub fn record(&mut self, e: TraceEvent) {
        let cap = self.buf.capacity();
        if cap == 0 {
            return;
        }
        if self.buf.len() < cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % cap;
            self.overwritten += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events evicted to make room since construction.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Copy out the retained events, oldest first. Non-consuming, so a
    /// stall dump and an end-of-run drain can both read the same ring.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Write `timelines` (indexed by world rank) as a Perfetto trace at `path`
/// — the stall watchdog's flight dump. Best effort: it runs right before
/// the watchdog panics, so failures are reported, not raised.
pub(crate) fn dump_flight(who: &str, path: &std::path::Path, timelines: &[Vec<TraceEvent>]) {
    match std::fs::write(path, export_perfetto(timelines, 0)) {
        Ok(()) => eprintln!(
            "{who} watchdog: flight recorder dumped to {}",
            path.display()
        ),
        Err(e) => eprintln!(
            "{who} watchdog: failed to write flight dump {}: {e}",
            path.display()
        ),
    }
}

/// Render per-rank timelines as an ASCII Gantt chart of `width` columns.
/// `timelines[r]` is rank r's event list; `makespan` scales the time axis.
/// Glyphs: `#` compute, `>` send, `.` recv/wait, (space) idle.
pub fn render_timeline(timelines: &[Vec<TraceEvent>], makespan: f64, width: usize) -> String {
    let mut out = String::new();
    let scale = width as f64 / makespan.max(f64::MIN_POSITIVE);
    for (rank, events) in timelines.iter().enumerate() {
        let mut row = vec![' '; width];
        for e in events {
            let c0 = ((e.t0 * scale) as usize).min(width.saturating_sub(1));
            let c1 = ((e.t1 * scale).ceil() as usize).clamp(c0 + 1, width);
            let glyph = match e.kind {
                EventKind::Compute => '#',
                EventKind::Send => '>',
                EventKind::Recv => '.',
            };
            for c in row.iter_mut().take(c1).skip(c0) {
                // Compute wins over send wins over recv when overlapping.
                let rank_of = |g: char| match g {
                    '#' => 3,
                    '>' => 2,
                    '.' => 1,
                    _ => 0,
                };
                if rank_of(glyph) > rank_of(*c) {
                    *c = glyph;
                }
            }
        }
        out.push_str(&format!("rank {rank:>4} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

/// Human-readable span name for exports and reports.
pub fn span_name(e: &TraceEvent) -> String {
    match (e.kind, &e.detail) {
        (_, Some(SpanDetail::Pass { sup, role, .. })) => match e.kind {
            EventKind::Compute => format!("{} sup {}", role.label(), sup),
            EventKind::Send => format!("{} sup {} send", role.label(), sup),
            EventKind::Recv => format!("{} sup {} recv", role.label(), sup),
        },
        (_, Some(SpanDetail::Allreduce { round, role })) => match e.kind {
            EventKind::Recv => format!("z-{} r{} recv", role.label(), round),
            _ => format!("z-{} r{} send", role.label(), round),
        },
        (_, Some(SpanDetail::ZExchangeTrim { round, role, .. })) => match e.kind {
            EventKind::Recv => format!("z-{} r{} recv (trim)", role.label(), round),
            _ => format!("z-{} r{} send (trim)", role.label(), round),
        },
        (_, Some(SpanDetail::NaiveAllreduce { node })) => format!("z-allreduce node {node}"),
        (_, Some(SpanDetail::ZExchange { level, reduce })) => {
            let leg = if *reduce { "lsum" } else { "x" };
            format!("z-xchg {leg} L{level}")
        }
        (_, Some(SpanDetail::GpuPass { epoch, .. })) => match e.kind {
            EventKind::Compute => format!("gpu pass e{epoch}"),
            _ => format!("gpu drain e{epoch}"),
        },
        (_, Some(SpanDetail::LevelBarrier { level, sup, .. })) => {
            format!("level barrier L{level} sup {sup}")
        }
        (EventKind::Compute, None) => "compute".to_string(),
        (EventKind::Send, None) => match &e.msg {
            Some(m) => format!("send -> {}", m.peer),
            None => "send".to_string(),
        },
        (EventKind::Recv, None) => match &e.msg {
            Some(m) => format!("recv <- {}", m.peer),
            None => "recv".to_string(),
        },
    }
}

/// Append a JSON-escaped string literal (with quotes) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one `"key":value` pair where the value is already rendered.
fn push_kv_raw(out: &mut String, key: &str, value: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_json_str(out, key);
    out.push(':');
    out.push_str(value);
}

/// Microseconds, rendered with shortest-roundtrip float formatting (the
/// Chrome trace format counts `ts`/`dur` in microseconds).
fn us(t: f64) -> String {
    format!("{:?}", t * 1e6)
}

/// Append the `args` object of a span.
fn push_args(out: &mut String, e: &TraceEvent) {
    out.push('{');
    let mut first = true;
    if let Some(m) = &e.msg {
        push_kv_raw(out, "peer", &m.peer.to_string(), &mut first);
        push_kv_raw(out, "bytes", &m.bytes.to_string(), &mut first);
        push_kv_raw(out, "tag", &format!("\"0x{:x}\"", m.tag), &mut first);
        push_kv_raw(out, "seq", &m.seq.to_string(), &mut first);
        push_kv_raw(out, "arrival_us", &us(m.arrival), &mut first);
        if m.faults.jitter_delayed {
            push_kv_raw(out, "jitter_delayed", "true", &mut first);
        }
        if m.faults.duplicate {
            push_kv_raw(out, "duplicate", "true", &mut first);
        }
        if m.faults.dropped_duplicate {
            push_kv_raw(out, "dropped_duplicate", "true", &mut first);
        }
    }
    match &e.detail {
        Some(SpanDetail::Pass {
            epoch,
            step,
            sup,
            role,
        }) => {
            push_kv_raw(out, "epoch", &epoch.to_string(), &mut first);
            push_kv_raw(out, "step", &step.to_string(), &mut first);
            push_kv_raw(out, "sup", &sup.to_string(), &mut first);
            push_kv_raw(out, "role", &format!("\"{}\"", role.label()), &mut first);
        }
        Some(SpanDetail::Allreduce { round, role }) => {
            push_kv_raw(out, "round", &round.to_string(), &mut first);
            push_kv_raw(out, "role", &format!("\"{}\"", role.label()), &mut first);
        }
        Some(SpanDetail::ZExchangeTrim {
            round,
            role,
            saved_doubles,
        }) => {
            push_kv_raw(out, "round", &round.to_string(), &mut first);
            push_kv_raw(out, "role", &format!("\"{}\"", role.label()), &mut first);
            push_kv_raw(out, "saved_doubles", &saved_doubles.to_string(), &mut first);
        }
        Some(SpanDetail::NaiveAllreduce { node }) => {
            push_kv_raw(out, "node", &node.to_string(), &mut first);
        }
        Some(SpanDetail::ZExchange { level, reduce }) => {
            push_kv_raw(out, "level", &level.to_string(), &mut first);
            push_kv_raw(
                out,
                "reduce",
                if *reduce { "true" } else { "false" },
                &mut first,
            );
        }
        Some(SpanDetail::GpuPass { epoch, tasks }) => {
            push_kv_raw(out, "epoch", &epoch.to_string(), &mut first);
            push_kv_raw(out, "tasks", &tasks.to_string(), &mut first);
        }
        Some(SpanDetail::LevelBarrier { epoch, level, sup }) => {
            push_kv_raw(out, "epoch", &epoch.to_string(), &mut first);
            push_kv_raw(out, "level", &level.to_string(), &mut first);
            push_kv_raw(out, "sup", &sup.to_string(), &mut first);
        }
        None => {}
    }
    let _ = first;
    out.push('}');
}

/// Export timelines in the Chrome/Perfetto trace-event JSON format.
///
/// * one *process* per 2D grid (`pid = rank / ranks_per_grid`, pass
///   `ranks_per_grid = px * py`; 0 means "everything in one process"),
/// * one *thread* per world rank,
/// * `"X"` complete events for every span (`ts`/`dur` in microseconds),
/// * flow events (`"s"`/`"f"`) pairing each traced send with its traced
///   receive via the message sequence id.
///
/// The returned string is self-contained JSON loadable in
/// <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn export_perfetto(timelines: &[Vec<TraceEvent>], ranks_per_grid: usize) -> String {
    let rpg = if ranks_per_grid == 0 {
        timelines.len().max(1)
    } else {
        ranks_per_grid
    };
    // Only pair flows whose both endpoints were traced.
    let mut recv_seqs: Vec<u64> = timelines
        .iter()
        .flatten()
        .filter(|e| e.kind == EventKind::Recv)
        .filter_map(|e| e.msg.as_ref().map(|m| m.seq))
        .collect();
    recv_seqs.sort_unstable();
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first_ev = true;
    let mut emit = |out: &mut String, body: &str| {
        if !first_ev {
            out.push(',');
        }
        first_ev = false;
        out.push_str("\n  ");
        out.push_str(body);
    };
    for (rank, _) in timelines.iter().enumerate() {
        let pid = rank / rpg;
        if rank % rpg == 0 {
            emit(
                &mut out,
                &format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"grid {pid}\"}}}}"
                ),
            );
        }
        emit(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ),
        );
    }
    for (rank, events) in timelines.iter().enumerate() {
        let pid = rank / rpg;
        for e in events {
            let mut body = String::new();
            body.push('{');
            let mut first = true;
            push_kv_raw(&mut body, "name", "", &mut first);
            push_json_str(&mut body, &span_name(e));
            push_kv_raw(
                &mut body,
                "cat",
                &format!("\"{}\"", e.category.label()),
                &mut first,
            );
            push_kv_raw(&mut body, "ph", "\"X\"", &mut first);
            push_kv_raw(&mut body, "pid", &pid.to_string(), &mut first);
            push_kv_raw(&mut body, "tid", &rank.to_string(), &mut first);
            push_kv_raw(&mut body, "ts", &us(e.t0), &mut first);
            push_kv_raw(&mut body, "dur", &us((e.t1 - e.t0).max(0.0)), &mut first);
            push_kv_raw(&mut body, "args", "", &mut first);
            push_args(&mut body, e);
            body.push('}');
            emit(&mut out, &body);
            if let Some(m) = &e.msg {
                match e.kind {
                    EventKind::Send if recv_seqs.binary_search(&m.seq).is_ok() => {
                        emit(
                            &mut out,
                            &format!(
                                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\
                                 \"id\":{},\"pid\":{pid},\"tid\":{rank},\"ts\":{}}}",
                                m.seq,
                                us(e.t1)
                            ),
                        );
                    }
                    EventKind::Recv => {
                        // Bind the arrow inside the receive span.
                        let ts = m.arrival.clamp(e.t0, e.t1);
                        emit(
                            &mut out,
                            &format!(
                                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                                 \"id\":{},\"pid\":{pid},\"tid\":{rank},\"ts\":{}}}",
                                m.seq,
                                us(ts)
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_event(kind: EventKind, t0: f64, t1: f64, peer: usize, seq: u64) -> TraceEvent {
        TraceEvent {
            t0,
            t1,
            kind,
            category: Category::XyComm,
            msg: Some(MsgInfo {
                peer,
                bytes: 72,
                tag: 0x1_0000_0000_0007,
                seq,
                arrival: t1,
                faults: FaultMark::default(),
            }),
            detail: None,
        }
    }

    #[test]
    fn renderer_places_glyphs() {
        let timelines = vec![
            vec![
                TraceEvent::compute(0.0, 0.5, Category::Flop),
                msg_event(EventKind::Recv, 0.5, 1.0, 1, 3),
            ],
            vec![],
        ];
        let s = render_timeline(&timelines, 1.0, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('.'));
        assert!(!lines[1].contains('#'));
    }

    #[test]
    fn renderer_glyph_priority() {
        // A send and a recv sharing a column: '>' outranks '.'.
        let timelines = vec![vec![
            msg_event(EventKind::Recv, 0.0, 1.0, 1, 1),
            msg_event(EventKind::Send, 0.0, 1.0, 1, 2),
        ]];
        let s = render_timeline(&timelines, 1.0, 4);
        assert!(s.contains('>'));
        assert!(!s.contains('.'));
    }

    #[test]
    fn renderer_handles_zero_makespan() {
        let s = render_timeline(&[vec![]], 0.0, 5);
        assert!(s.contains("rank    0"));
    }

    #[test]
    fn perfetto_export_pairs_flows() {
        let timelines = vec![
            vec![msg_event(EventKind::Send, 0.0, 1e-6, 1, 42)],
            vec![msg_event(EventKind::Recv, 0.0, 2e-6, 0, 42)],
        ];
        let json = export_perfetto(&timelines, 1);
        // Parses as a value tree.
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents") {
            Some(serde_json::Value::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 2 process metas + 2 thread metas + 2 spans + 1 flow start + 1 flow end.
        assert_eq!(events.len(), 8);
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"id\":42"));
        assert!(json.contains("\"name\":\"grid 0\""));
        assert!(json.contains("\"name\":\"grid 1\""));
    }

    #[test]
    fn perfetto_export_skips_unpaired_flows() {
        // A send whose receive was never traced must not emit a dangling
        // flow-start (Perfetto renders those as arrows to nowhere).
        let timelines = vec![vec![msg_event(EventKind::Send, 0.0, 1e-6, 1, 7)], vec![]];
        let json = export_perfetto(&timelines, 2);
        assert!(!json.contains("\"ph\":\"s\""));
        // Single grid: 2x2 grid would be pid 0 for both ranks.
        assert!(json.contains("\"name\":\"grid 0\""));
        assert!(!json.contains("\"name\":\"grid 1\""));
    }

    #[test]
    fn flight_recorder_wraparound_keeps_spans_well_formed() {
        let mut fr = FlightRecorder::new(4);
        assert!(fr.is_empty());
        for i in 0..11u64 {
            fr.record(msg_event(EventKind::Send, i as f64, i as f64 + 0.5, 1, i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.overwritten(), 7);
        let drained = fr.drain();
        // Oldest-first, contiguous tail of the stream, spans intact.
        let seqs: Vec<u64> = drained.iter().map(|e| e.msg.unwrap().seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        for e in &drained {
            assert!(e.t1 > e.t0);
            assert_eq!(e.t1 - e.t0, 0.5);
        }
        // Drain is non-consuming and stable.
        assert_eq!(fr.drain(), drained);
    }

    #[test]
    fn flight_recorder_zero_capacity_is_inert() {
        let mut fr = FlightRecorder::new(0);
        fr.record(TraceEvent::compute(0.0, 1.0, Category::Flop));
        assert!(fr.is_empty());
        assert_eq!(fr.overwritten(), 0);
        assert!(fr.drain().is_empty());
    }

    #[test]
    fn flight_recorder_partial_fill_drains_in_order() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..3u64 {
            fr.record(msg_event(EventKind::Recv, i as f64, i as f64 + 1.0, 0, i));
        }
        let seqs: Vec<u64> = fr.drain().iter().map(|e| e.msg.unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(fr.overwritten(), 0);
    }

    #[test]
    fn span_names_reflect_detail() {
        let mut e = msg_event(EventKind::Send, 0.0, 1.0, 3, 1);
        assert_eq!(span_name(&e), "send -> 3");
        e.detail = Some(SpanDetail::Pass {
            epoch: 1,
            step: 4,
            sup: 12,
            role: TreeRole::Bcast,
        });
        assert_eq!(span_name(&e), "bcast sup 12 send");
        e.kind = EventKind::Recv;
        assert_eq!(span_name(&e), "bcast sup 12 recv");
        e.detail = Some(SpanDetail::Allreduce {
            round: 2,
            role: TreeRole::Reduce,
        });
        assert_eq!(span_name(&e), "z-reduce r2 recv");
        let g = TraceEvent {
            detail: Some(SpanDetail::GpuPass { epoch: 0, tasks: 9 }),
            ..TraceEvent::compute(0.0, 1.0, Category::Flop)
        };
        assert_eq!(span_name(&g), "gpu pass e0");
    }
}
