//! Real shared-memory transport backend (backend #2).
//!
//! Where `simgrid` simulates a cluster on virtual clocks, this crate runs
//! the *same* rank programs as real concurrent threads exchanging real
//! messages with wall-clock timing. Everything a rank does with a message
//! — matching, accounting, flight recording, the stall watchdog,
//! collectives, `split` — is the shared real-clock runtime
//! ([`simgrid::runtime`]); this crate is the two things that are specific
//! to one address space:
//!
//! * [`NativeLink`]: a send is a refcount bump of the `Arc<[f64]>` payload
//!   pushed into the destination rank's inbox, stamped with the sender's
//!   clock. One queue per destination, pushed in program order, is the
//!   per-destination FIFO the [`Transport`](simgrid::Transport) contract
//!   requires.
//! * [`run`]: one scoped OS thread per rank; nothing outlives the call.
//!
//! There is no machine model application, no fault injection, no settle
//! window, and no tracing — those are sim-private.

use simgrid::{
    wire::FrameHeader, Endpoint, Link, MachineModel, Metrics, Payload, RealComm, RealOptions,
    RunReport,
};
use std::sync::Arc;
use std::time::Instant;

/// In-process link: hand the payload `Arc` to the destination's inbox.
pub struct NativeLink {
    ranks: Arc<Vec<Arc<Endpoint>>>,
}

impl Link for NativeLink {
    const NAME: &'static str = "comm-native";

    fn deliver(&self, dst: usize, header: &FrameHeader, payload: &Payload, now: f64) {
        self.ranks[dst]
            .inbox()
            .push(*header, Arc::clone(payload), now);
    }

    /// Every rank lives in this address space, so a stalled rank's
    /// watchdog drains every ring, including ranks currently blocked.
    fn peers(&self) -> Option<&[Arc<Endpoint>]> {
        Some(&self.ranks)
    }
}

/// Handle to a communicator from one rank thread.
pub type NativeComm = RealComm<NativeLink>;

/// Run `f` on `nranks` real rank threads and collect per-rank results and
/// statistics. The returned report has the same shape as a simulator run;
/// its `makespan` is the real wall-clock of the slowest rank and its
/// traces are empty (tracing is sim-private). The per-rank flight
/// recorders are always on and their contents land in `report.flight`.
pub fn run<F, R>(nranks: usize, model: MachineModel, opts: &RealOptions, f: F) -> RunReport<R>
where
    F: Fn(NativeComm) -> R + Send + Sync,
    R: Send,
{
    assert!(nranks > 0);
    let ranks: Arc<Vec<Arc<Endpoint>>> =
        Arc::new((0..nranks).map(|_| Arc::new(Endpoint::new())).collect());
    let model = Arc::new(model);
    let epoch = Instant::now();

    let mut out = Vec::with_capacity(nranks);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let (ranks, model, f) = (Arc::clone(&ranks), Arc::clone(&model), &f);
            let h = std::thread::Builder::new()
                .name(format!("nrank-{rank}"))
                .stack_size(1 << 20)
                .spawn_scoped(scope, move || {
                    let me = Arc::clone(&ranks[rank]);
                    let link = NativeLink { ranks };
                    let world = RealComm::world(rank, nranks, epoch, model, me, link, opts);
                    let r = f(world.clone());
                    let (stats, metrics) = world.finish();
                    (stats, r, metrics)
                })
                .expect("spawn rank thread");
            handles.push(h);
        }
        for h in handles {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });

    let mut stats = Vec::with_capacity(nranks);
    let mut results = Vec::with_capacity(nranks);
    let mut metrics = Metrics::new();
    for (s, r, m) in out {
        stats.push(s);
        results.push(r);
        metrics.merge_from(&m);
    }
    let mut rep = RunReport::new(stats, results);
    rep.flight = ranks.iter().map(|e| e.flight()).collect();
    rep.metrics = metrics;
    rep
}
