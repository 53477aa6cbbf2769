//! The benchmark's own in-memory spans: one around every call into a
//! layer, written as Chrome-trace JSON at exit. Nothing is recorded inside
//! the crates (that is ROADMAP item F); a layer's self time is its span
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the log's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `driver.solve`; the layer is the part before the dot.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Solve / request / set-up repetition the span belongs to.
    pub id: u64,
    /// Benchmark thread that recorded it (0 main, 1 submitter).
    pub tid: u32,
}

/// Span recorder of one thread. Disabled, it runs the closures and records
/// nothing, so the untraced window pays no clock reads for it.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(on: bool, epoch: Instant) -> Self {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Seconds since the epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// log it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.at(Instant::now()),
            end: f64::NAN,
            parent: self.open.last().copied(),
            id,
            tid: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Record a span whose bounds were measured elsewhere (request spans
    /// are assembled from the submitter's and collector's time stamps).
    /// Returns its index, usable as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: calls, total seconds, self seconds (total minus the
/// time covered by direct children).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // A child may outlive a cross-thread parent's bounds by clock
            // skew of nanoseconds; only the overlap is the parent's loss.
            let overlap = s.end.min(spans[p].end) - s.start.max(spans[p].start);
            child_time[p] += overlap.max(0.0);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_time) {
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur;
        e.2 += (dur - kids).max(0.0);
    }
    out
}

/// Chrome-trace ("Trace Event Format") JSON: one complete event per span,
/// category = layer, `args` carrying the id and the parent's name.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("", |p| spans[p].name);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            s.name,
            layer,
            s.tid,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.id,
            parent
        ));
    }
    out.push_str("\n]}\n");
    out
}
