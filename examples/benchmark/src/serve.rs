//! Open-loop load on `SolverService`: one submitter thread sends width-1
//! requests on a fixed schedule, the calling thread collects them in
//! submit order (one dispatcher and FIFO batch cuts complete them in that
//! order), and every latency runs from the time the request was *due*.

use crate::stats::{latency, open_loop_rate, Latency};
use crate::trace::{Span, SpanLog};
use sptrsv::{BatchPolicy, QueueFullPolicy, ServiceConfig, SolverService};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A request answered later than this misses (`service.ok_frac`).
pub const DEADLINE: Duration = Duration::from_millis(20);

/// Offered rate, requests per second, and share of the window of the
/// three phases: light (the latency floor; it has the fewest requests per
/// second and the noisiest statistic, so the most time), moderate (the
/// deadline), saturating (the throughput).
pub const PHASES: [(f64, f64); 3] = [(500.0, 0.5), (1500.0, 0.2), (4000.0, 0.3)];

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        batch: BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
        },
        queue_capacity: 64,
        max_request_width: 1,
        on_full: QueueFullPolicy::Block,
    }
}

/// Time stamps of one request, seconds since the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub due: f64,
    pub submit_start: f64,
    pub submit_end: f64,
    pub wait_start: f64,
    pub done: f64,
    /// Answer bit-identical to the reference column.
    pub ok: bool,
}

pub struct Phase {
    pub window: f64,
    /// Requests whose due time fell inside the window.
    pub scheduled: usize,
    /// Requests the service refused (counted failed).
    pub refused: usize,
    /// Every request sent, in submit order.
    pub requests: Vec<Request>,
}

impl Phase {
    /// Latency of the requests, each placed at the time it was due.
    pub fn latency(&self) -> Latency {
        let samples: Vec<_> = self
            .requests
            .iter()
            .map(|r| (r.due, (r.done - r.due) * 1e3))
            .collect();
        latency(&samples, self.window)
    }

    pub fn gen_lag_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| (r.submit_start - r.due) * 1e3)
            .collect()
    }

    /// Correct answers per second inside the window.
    pub fn rate(&self) -> f64 {
        let done: Vec<f64> = self
            .requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.done)
            .collect();
        open_loop_rate(&done, self.window)
    }

    /// Share of the requests *scheduled* that were answered correctly
    /// within the deadline; unsent and refused requests miss.
    pub fn ok_frac(&self) -> f64 {
        let ok = self
            .requests
            .iter()
            .filter(|r| r.ok && r.done - r.due <= DEADLINE.as_secs_f64())
            .count();
        ok as f64 / self.scheduled.max(1) as f64
    }

    pub fn wrong(&self) -> usize {
        self.requests.iter().filter(|r| !r.ok).count()
    }
}

/// Offer `rate` requests per second for `window`, then drain. Request `i`
/// carries column `i % cols` of `pool` and is checked against the same
/// column of `reference`.
pub fn run_phase(
    svc: &SolverService,
    pool: &[f64],
    reference: &[f64],
    rate: f64,
    window: Duration,
) -> Phase {
    let n = svc.n();
    let cols = pool.len() / n;
    let period = 1.0 / rate;
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_secs_f64();
    let mut requests = Vec::with_capacity((rate * window.as_secs_f64()) as usize + 1);
    let mut x = vec![0.0; n];
    let refused = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut refused = 0usize;
            for i in 0.. {
                let due = start + Duration::from_secs_f64(i as f64 * period);
                let now = Instant::now();
                if now >= start + window || due >= start + window {
                    break;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                let col = i % cols;
                let submit_start = Instant::now();
                match svc.submit(&pool[col * n..(col + 1) * n], 1) {
                    Ok(ticket) => {
                        let stamps = (due, submit_start, Instant::now());
                        if tx.send((col, ticket, stamps)).is_err() {
                            break;
                        }
                    }
                    Err(_) => refused += 1,
                }
            }
            refused
        });
        for (col, ticket, (due, submit_start, submit_end)) in rx {
            let wait_start = Instant::now();
            ticket.wait_into(&mut x);
            let done = Instant::now();
            let want = &reference[col * n..(col + 1) * n];
            requests.push(Request {
                due: since(due),
                submit_start: since(submit_start),
                submit_end: since(submit_end),
                wait_start: since(wait_start),
                done: since(done),
                ok: crate::run::bits_equal(&x, want),
            });
        }
        submitter.join().expect("submitter thread panicked")
    });
    Phase {
        window: window.as_secs_f64(),
        scheduled: (rate * window.as_secs_f64()).ceil() as usize,
        refused,
        requests,
    }
}

/// `bench.request#i ▸ service.submit | ticket.wait` for every request of a
/// phase that started at `phase_start`, assembled from its time stamps.
pub fn record_spans(log: &mut SpanLog, phase: &Phase, phase_start: Instant, first_id: u64) {
    if !log.enabled() {
        return;
    }
    let t0 = log.at(phase_start);
    for (i, r) in phase.requests.iter().enumerate() {
        let id = first_id + i as u64;
        let span = |name, start: f64, end: f64, parent, tid| Span {
            name,
            start: t0 + start,
            end: t0 + end,
            parent,
            id,
            tid,
        };
        // A request starts when it was due; a late generator shows as the
        // gap before `service.submit`.
        let root = log.push(span("bench.request", r.due, r.done, None, 0));
        log.push(span(
            "service.submit",
            r.submit_start,
            r.submit_end,
            Some(root),
            1,
        ));
        log.push(span("ticket.wait", r.wait_start, r.done, Some(root), 0));
    }
}
