//! Real process-per-rank transport backend (backend #3).
//!
//! Where `comm_native` runs every rank as a thread in one address space —
//! so a "send" is an `Arc` refcount bump — this crate runs each rank as a
//! separate **OS process** talking over Unix-domain sockets. Nothing is
//! shared: every message crosses the process boundary as a
//! [`simgrid::wire`] frame, which is exactly the regime of a real MPI
//! job on one node. The point is conformance pressure: the solver, the
//! collectives, and the tag protocol must survive genuine serialization,
//! process scheduling, and kernel socket buffering while still producing
//! solutions bit-identical to the simulator.
//!
//! Everything a rank does with a message — matching, accounting, flight
//! recording, the stall watchdog, collectives, `split` — is the shared
//! real-clock runtime ([`simgrid::runtime`]). This crate is [`ProcLink`]
//! (how a frame reaches another process) and the process plumbing around
//! it: fork, rendezvous, result blobs, exit codes, reaping.
//!
//! ## Topology and bootstrap
//!
//! The parent binds one listening socket per rank inside a fresh
//! rendezvous directory, writes a plain-text `manifest.txt` (rank count,
//! then one socket path per line), and only then forks the rank
//! processes; since every listener exists before any child runs, a
//! child's lazy `connect` to a peer can never race the peer's bind.
//! Children read the manifest for peer addresses, accept inbound
//! connections on their own listener, and push decoded frames into the
//! rank's inbox. One socket per ordered (sender, receiver) pair +
//! in-order frame decoding preserves the per-source FIFO the
//! [`Transport`](simgrid::Transport) contract requires.
//!
//! Results travel back out of band: each child gets a pre-forked
//! socketpair and writes one length-prefixed blob — its [`RankStats`],
//! merged [`Metrics`], flight-recorder spans, and the rank program's
//! [`WirePack`]-encoded return value — then `_exit`s without touching
//! inherited stdio buffers. A child that panics (including the stall
//! watchdog) exits with status 101, which the parent surfaces as a panic
//! naming the rank; the parent polls `waitpid` while reading results so a
//! dead child is reported within ~50 ms instead of hanging the run.
//! Whatever goes wrong — during set-up or after — the parent kills and
//! reaps every child it forked and removes the rendezvous directory
//! before it panics.
//!
//! ## Clock
//!
//! The parent captures the monotonic epoch *before* forking, so every
//! child inherits the same `Instant` and `now()` is comparable across
//! ranks (`CLOCK_MONOTONIC` is per-boot, not per-process).

use simgrid::wire::{self, FrameHeader, WireError, WirePack, WireReader};
use simgrid::{
    Endpoint, Link, MachineModel, Metrics, Payload, RankStats, RealComm, RealOptions, RunReport,
    TraceEvent,
};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Child exit status for a rank whose program (or stall watchdog)
/// panicked.
const EXIT_PANIC: i32 = 101;

/// Child exit status for a rank that finished but could not deliver its
/// result blob to the parent.
const EXIT_RESULT_LOST: i32 = 102;

/// Minimal libc surface for process management; the workspace vendors no
/// `libc` crate, so the handful of calls are declared directly.
mod sys {
    use std::os::raw::c_int;

    extern "C" {
        fn fork() -> c_int;
        fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        fn kill(pid: c_int, sig: c_int) -> c_int;
        fn _exit(code: c_int) -> !;
        fn getpid() -> c_int;
    }

    const WNOHANG: c_int = 1;
    const SIGKILL: c_int = 9;

    /// `fork(2)`: 0 in the child, the child's pid in the parent, negative
    /// on failure.
    pub fn fork_process() -> i32 {
        // SAFETY: no arguments and no memory handed over. The child is a
        // copy of the calling thread only; it runs the rank program and
        // leaves through `exit_now`, never returning into the parent's
        // control flow.
        unsafe { fork() }
    }

    fn wait(pid: i32, options: c_int) -> Option<i32> {
        let mut status: c_int = 0;
        // SAFETY: `status` is a live, writable `c_int` for the whole call.
        (unsafe { waitpid(pid, &mut status, options) } == pid).then_some(status)
    }

    /// Non-blocking reap: the raw wait status if `pid` has exited.
    pub fn wait_nohang(pid: i32) -> Option<i32> {
        wait(pid, WNOHANG)
    }

    /// Blocking reap of `pid`; returns the raw wait status.
    pub fn wait_blocking(pid: i32) -> i32 {
        wait(pid, 0).unwrap_or(0)
    }

    /// Decode a raw wait status into an exit-code-like value: the exit
    /// code for a clean exit, `128 + signal` for a signal death.
    pub fn exit_code(raw: i32) -> i32 {
        if raw & 0x7f == 0 {
            (raw >> 8) & 0xff
        } else {
            128 + (raw & 0x7f)
        }
    }

    /// SIGKILL `pid` (best effort).
    pub fn kill_hard(pid: i32) {
        // SAFETY: plain integers; `pid` is a child this process forked and
        // has not reaped yet, so it cannot name an unrelated process.
        unsafe { kill(pid, SIGKILL) };
    }

    /// Terminate immediately without running destructors or flushing
    /// inherited stdio buffers — mandatory in a forked child.
    pub fn exit_now(code: i32) -> ! {
        // SAFETY: never returns and touches no memory.
        unsafe { _exit(code) }
    }

    /// This process's pid.
    pub fn pid() -> i32 {
        // SAFETY: no arguments, cannot fail.
        unsafe { getpid() }
    }
}

/// Cross-process link: one lazily connected `UnixStream` per destination,
/// one [`wire`] frame per message.
pub struct ProcLink {
    world_rank: usize,
    /// Socket path per world rank, from the manifest.
    peers: Vec<PathBuf>,
    /// Outbound connections, indexed by world rank. One stream per
    /// destination keeps the per-source FIFO.
    conns: RefCell<Vec<Option<UnixStream>>>,
    /// Reused frame-encoding buffer: steady-state sends allocate nothing
    /// beyond payload growth.
    scratch: RefCell<Vec<u8>>,
}

impl Link for ProcLink {
    const NAME: &'static str = "comm-proc";

    /// Encode one frame and write it to `dst`'s socket, connecting on first
    /// use. `arrival` is stamped on the far side, by the reader thread
    /// that decodes the frame (see [`reader_loop`]).
    fn deliver(&self, dst: usize, header: &FrameHeader, payload: &Payload, _now: f64) {
        let me = self.world_rank;
        let mut conns = self.conns.borrow_mut();
        let conn = conns[dst].get_or_insert_with(|| {
            UnixStream::connect(&self.peers[dst]).unwrap_or_else(|e| {
                panic!("comm-proc: rank {me} cannot connect to world rank {dst}: {e}")
            })
        });
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        wire::encode_frame(&mut scratch, header, payload);
        conn.write_all(&scratch).unwrap_or_else(|e| {
            panic!("comm-proc: rank {me} failed sending to world rank {dst}: {e}")
        });
    }
}

/// Handle to a communicator from one rank process.
pub type ProcComm = RealComm<ProcLink>;

/// Options for a process-per-rank cluster run.
#[derive(Clone, Debug, Default)]
pub struct ProcOptions {
    /// Watchdog and flight-dump settings of the rank runtime. A rank whose
    /// watchdog fires exits with status 101; a stalling rank dumps only
    /// its own flight ring, with `.rank<r>` inserted before the extension.
    pub runtime: RealOptions,
    /// Directory to create the per-run rendezvous directory in. Defaults
    /// to `$SPTRSV_PROC_DIR`, then the system temp dir.
    pub rendezvous_root: Option<PathBuf>,
}

/// Distinguishes concurrent runs from one parent process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn rendezvous_dir(opts: &ProcOptions) -> PathBuf {
    let root = opts
        .rendezvous_root
        .clone()
        .or_else(|| std::env::var_os("SPTRSV_PROC_DIR").map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir);
    root.join(format!(
        "sptrsv-proc-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn read_manifest(dir: &Path) -> (usize, Vec<PathBuf>) {
    let text =
        std::fs::read_to_string(dir.join("manifest.txt")).expect("comm-proc: manifest readable");
    let mut lines = text.lines();
    let nranks: usize = lines
        .next()
        .and_then(|l| l.trim().parse().ok())
        .expect("comm-proc: manifest starts with the rank count");
    let peers: Vec<PathBuf> = lines.take(nranks).map(PathBuf::from).collect();
    assert_eq!(
        peers.len(),
        nranks,
        "comm-proc: manifest lists one socket per rank"
    );
    (nranks, peers)
}

/// Accept inbound connections on this rank's listener forever; one reader
/// thread per connection decodes frames into the inbox. The threads die
/// with the process (`_exit`), so nothing joins them.
fn spawn_acceptor(listener: UnixListener, me: Arc<Endpoint>, epoch: Instant) {
    std::thread::Builder::new()
        .name("proc-acceptor".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { break };
                let me = Arc::clone(&me);
                let _ = std::thread::Builder::new()
                    .name("proc-reader".into())
                    .spawn(move || reader_loop(conn, &me, epoch));
            }
        })
        .expect("comm-proc: spawn acceptor thread");
}

/// The receive side of [`ProcLink`]: decode frames off one connection and
/// push them, stamped with the decode time, into the rank's inbox.
fn reader_loop(mut conn: UnixStream, me: &Endpoint, epoch: Instant) {
    let mut scratch = Vec::with_capacity(4096);
    loop {
        match wire::read_frame(&mut conn, &mut scratch) {
            Ok((header, payload)) => {
                me.inbox()
                    .push(header, payload, epoch.elapsed().as_secs_f64())
            }
            // Peer hung up on a frame boundary: normal shutdown.
            Err(WireError::Closed) => break,
            Err(e) => {
                eprintln!("comm-proc: dropping connection after wire error: {e}");
                break;
            }
        }
    }
}

/// Rank-process body: run the rank program, pack the result blob, write
/// it to the parent, and `_exit`. Never returns.
#[allow(clippy::too_many_arguments)]
fn run_child<F, R>(
    rank: usize,
    dir: &Path,
    listener: &UnixListener,
    epoch: Instant,
    model: &MachineModel,
    mut result: UnixStream,
    opts: &RealOptions,
    f: &F,
) -> !
where
    F: Fn(ProcComm) -> R,
    R: WirePack,
{
    let blob = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (nranks, peers) = read_manifest(dir);
        assert!(rank < nranks, "comm-proc: rank within manifest bounds");
        let me = Arc::new(Endpoint::new());
        spawn_acceptor(
            listener.try_clone().expect("comm-proc: clone own listener"),
            Arc::clone(&me),
            epoch,
        );
        let link = ProcLink {
            world_rank: rank,
            peers,
            conns: RefCell::new((0..nranks).map(|_| None).collect()),
            scratch: RefCell::new(Vec::with_capacity(4096)),
        };
        let model = Arc::new(model.clone());
        let world = RealComm::world(rank, nranks, epoch, model, Arc::clone(&me), link, opts);
        let r = f(world.clone());
        let (stats, mut metrics) = world.finish();
        // Ship the pid as a per-rank counter: the conformance suite's
        // proof that ranks really ran in distinct OS processes.
        metrics.inc(&format!("proc.pid.rank{rank}"), sys::pid() as u64);
        let mut blob = Vec::with_capacity(4096);
        stats.pack(&mut blob);
        metrics.pack(&mut blob);
        me.flight().pack(&mut blob);
        r.pack(&mut blob);
        blob
    }));
    match blob {
        Ok(blob) => {
            let mut framed = Vec::with_capacity(8 + blob.len());
            framed.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            framed.extend_from_slice(&blob);
            if result.write_all(&framed).is_err() {
                sys::exit_now(EXIT_RESULT_LOST);
            }
            sys::exit_now(0);
        }
        // The default panic hook already printed the message (watchdog
        // report or rank panic) to the shared stderr.
        Err(_) => sys::exit_now(EXIT_PANIC),
    }
}

/// Tracks forked rank pids; caches wait statuses so no pid is reaped
/// twice.
#[derive(Default)]
struct Children {
    pids: Vec<i32>,
    statuses: Vec<Option<i32>>,
}

impl Children {
    fn push(&mut self, pid: i32) {
        self.pids.push(pid);
        self.statuses.push(None);
    }

    /// Non-blocking sweep; the first rank seen with a nonzero exit code.
    fn poll_failure(&mut self) -> Option<(usize, i32)> {
        for i in 0..self.pids.len() {
            if self.statuses[i].is_none() {
                if let Some(raw) = sys::wait_nohang(self.pids[i]) {
                    self.statuses[i] = Some(sys::exit_code(raw));
                }
            }
            if let Some(c) = self.statuses[i] {
                if c != 0 {
                    return Some((i, c));
                }
            }
        }
        None
    }

    /// Blocking reap of rank `i`; returns its exit code.
    fn wait_code(&mut self, i: usize) -> i32 {
        if let Some(c) = self.statuses[i] {
            return c;
        }
        let c = sys::exit_code(sys::wait_blocking(self.pids[i]));
        self.statuses[i] = Some(c);
        c
    }

    /// SIGKILL and reap every rank not yet reaped.
    fn kill_and_reap_all(&mut self) {
        for i in 0..self.pids.len() {
            if self.statuses[i].is_none() {
                sys::kill_hard(self.pids[i]);
                self.statuses[i] = Some(sys::exit_code(sys::wait_blocking(self.pids[i])));
            }
        }
    }
}

/// Abort the run: kill surviving children, tear down the rendezvous
/// directory, and panic with `why`.
fn fail_run(dir: &Path, kids: &mut Children, why: String) -> ! {
    kids.kill_and_reap_all();
    let _ = std::fs::remove_dir_all(dir);
    panic!("{why}");
}

/// Read exactly `buf.len()` result bytes, polling child liveness every
/// 50 ms so a dead rank is reported promptly instead of hanging the read.
fn read_exact_polled(
    s: &mut UnixStream,
    buf: &mut [u8],
    kids: &mut Children,
    deadline: Option<Instant>,
) -> Result<(), String> {
    let mut got = 0;
    while got < buf.len() {
        match s.read(&mut buf[got..]) {
            Ok(0) => {
                // The peer closed before delivering the full blob. The
                // exit status may land a beat after the EOF; give the
                // kernel a moment to publish it so the error names the
                // rank and status instead of just "closed".
                for _ in 0..100 {
                    if let Some((rank, code)) = kids.poll_failure() {
                        return Err(format!(
                            "comm-proc: rank {rank} exited with status {code} before \
                             delivering its result (stall watchdog or rank panic — see \
                             stderr above)"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                return Err("comm-proc: rank result channel closed early".to_string());
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if let Some((rank, code)) = kids.poll_failure() {
                    return Err(format!(
                        "comm-proc: rank {rank} exited with status {code} before delivering \
                         its result (stall watchdog or rank panic — see stderr above)"
                    ));
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err("comm-proc: timed out waiting for rank results".to_string());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("comm-proc: rank result read failed: {e}")),
        }
    }
    Ok(())
}

/// Set up the rendezvous directory and fork the rank processes, recording
/// every forked pid in `kids` as it appears so that a failure part-way
/// leaves the caller able to kill and reap exactly what exists. Returns
/// the listeners (kept open until the run ends) and the parent ends of the
/// result channels.
fn launch<F, R>(
    dir: &Path,
    nranks: usize,
    model: &MachineModel,
    opts: &RealOptions,
    f: &F,
    kids: &mut Children,
) -> Result<(Vec<UnixListener>, Vec<UnixStream>), String>
where
    F: Fn(ProcComm) -> R,
    R: WirePack,
{
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("comm-proc: create rendezvous dir {}: {e}", dir.display()))?;
    // Every listener is bound before any child exists, so a lazy connect
    // can never race the peer's bind.
    let mut listeners = Vec::with_capacity(nranks);
    let mut manifest = format!("{nranks}\n");
    for rank in 0..nranks {
        let path = dir.join(format!("rank{rank}.sock"));
        let bound = UnixListener::bind(&path)
            .map_err(|e| format!("comm-proc: bind {}: {e}", path.display()))?;
        listeners.push(bound);
        manifest.push_str(&path.to_string_lossy());
        manifest.push('\n');
    }
    std::fs::write(dir.join("manifest.txt"), manifest)
        .map_err(|e| format!("comm-proc: write manifest: {e}"))?;
    let mut pairs = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        pairs.push(UnixStream::pair().map_err(|e| format!("comm-proc: result socketpair: {e}"))?);
    }
    let epoch = Instant::now();
    // Flush inherited stdio so no buffered bytes are duplicated into the
    // children (children `_exit` and never flush, but they may print).
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    for (rank, pair) in pairs.iter().enumerate() {
        match sys::fork_process() {
            0 => {
                let child_end = pair.1.try_clone().expect("comm-proc: clone result end");
                run_child(
                    rank,
                    dir,
                    &listeners[rank],
                    epoch,
                    model,
                    child_end,
                    opts,
                    f,
                );
            }
            pid if pid > 0 => kids.push(pid),
            e => return Err(format!("comm-proc: fork of rank {rank} failed ({e})")),
        }
    }
    // Parent keeps only its ends; the child ends close with the children.
    let parents = pairs
        .into_iter()
        .map(|(parent_end, _)| parent_end)
        .collect();
    Ok((listeners, parents))
}

/// Run `f` on `nranks` rank **processes** and collect per-rank results
/// and statistics. The returned report has the same shape as the other
/// backends': `makespan` is the real wall-clock of the slowest rank,
/// `flight` holds each rank's recorder contents, and `metrics` merges
/// every rank's counters (including one `proc.pid.rank<r>` counter per
/// rank carrying the child's pid).
///
/// `R` must be [`WirePack`] because the results genuinely cross an
/// address-space boundary; no `Send`/`Sync` bounds are needed because
/// nothing is shared.
pub fn run<F, R>(nranks: usize, model: MachineModel, opts: &ProcOptions, f: F) -> RunReport<R>
where
    F: Fn(ProcComm) -> R,
    R: WirePack,
{
    assert!(nranks > 0);
    let dir = rendezvous_dir(opts);
    let mut kids = Children::default();
    let (listeners, mut parents) = launch(&dir, nranks, &model, &opts.runtime, &f, &mut kids)
        .unwrap_or_else(|why| fail_run(&dir, &mut kids, why));
    let deadline = opts
        .runtime
        .stall_timeout
        .map(|t| Instant::now() + t + Duration::from_secs(15));
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(nranks);
    for s in parents.iter_mut() {
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("comm-proc: set result read timeout");
        let mut len8 = [0u8; 8];
        if let Err(why) = read_exact_polled(s, &mut len8, &mut kids, deadline) {
            fail_run(&dir, &mut kids, why);
        }
        let len = u64::from_le_bytes(len8);
        if len > (1 << 30) {
            fail_run(
                &dir,
                &mut kids,
                format!("comm-proc: rank result blob of {len} bytes exceeds the 1 GiB cap"),
            );
        }
        let mut blob = vec![0u8; len as usize];
        if let Err(why) = read_exact_polled(s, &mut blob, &mut kids, deadline) {
            fail_run(&dir, &mut kids, why);
        }
        blobs.push(blob);
    }
    for rank in 0..nranks {
        let code = kids.wait_code(rank);
        if code != 0 {
            fail_run(
                &dir,
                &mut kids,
                format!(
                    "comm-proc: rank {rank} exited with status {code} after delivering \
                         its result"
                ),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    drop(listeners);

    let mut stats = Vec::with_capacity(nranks);
    let mut results = Vec::with_capacity(nranks);
    let mut flight = Vec::with_capacity(nranks);
    let mut metrics = Metrics::new();
    for (rank, blob) in blobs.iter().enumerate() {
        let mut r = WireReader::new(blob);
        let unpack_err = |e: WireError| -> ! {
            panic!("comm-proc: rank {rank} result blob corrupt: {e}");
        };
        let s = RankStats::unpack(&mut r).unwrap_or_else(|e| unpack_err(e));
        let m = Metrics::unpack(&mut r).unwrap_or_else(|e| unpack_err(e));
        let fl: Vec<TraceEvent> = Vec::unpack(&mut r).unwrap_or_else(|e| unpack_err(e));
        let res = R::unpack(&mut r).unwrap_or_else(|e| unpack_err(e));
        stats.push(s);
        metrics.merge_from(&m);
        flight.push(fl);
        results.push(res);
    }
    let mut rep = RunReport::new(stats, results);
    rep.flight = flight;
    rep.metrics = metrics;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::{Category, EventKind, Transport};

    fn toy_model() -> MachineModel {
        MachineModel::uniform("toy", 1e9, 1e-6, 1e9, 4)
    }

    /// Held by every test that panics on purpose. A rank forked while
    /// another test thread is printing a panic message inherits std's
    /// panic-output lock held, and would hang in its own watchdog panic
    /// instead of exiting — so deliberate panics run one test at a time.
    static ONE_PANIC_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The flight recorders cross the process boundary in the result
    /// blobs and still pair sends to receives by sequence id.
    #[test]
    fn flight_recorder_crosses_the_process_boundary() {
        let rep = run(2, toy_model(), &ProcOptions::default(), |c| {
            if c.rank() == 0 {
                c.compute(0.0, Category::Flop);
                Transport::send(&c, 1, 7, &[1.0, 2.0], Category::XyComm);
            } else {
                Transport::recv(&c, Some(0), Some(7), Category::XyComm);
            }
        });
        assert_eq!(rep.flight.len(), 2);
        let kinds: Vec<EventKind> = rep.flight[0].iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Compute));
        assert!(kinds.contains(&EventKind::Send));
        assert!(rep.flight[1].iter().any(|e| e.kind == EventKind::Recv));
        let send_seq = rep.flight[0]
            .iter()
            .find(|e| e.kind == EventKind::Send)
            .and_then(|e| e.msg.map(|m| m.seq))
            .unwrap();
        assert!(rep.flight[1]
            .iter()
            .any(|e| e.msg.is_some_and(|m| m.seq == send_seq)));
    }

    /// The acceptance gate of this backend: every rank really is a
    /// distinct OS process, proven by the pids it ships in its metrics.
    #[test]
    fn ranks_run_in_separate_processes() {
        let rep = run(4, toy_model(), &ProcOptions::default(), |c| {
            c.barrier(Category::Setup);
        });
        let me = std::process::id() as u64;
        let mut pids: Vec<u64> = (0..4)
            .map(|r| rep.metrics.counter(&format!("proc.pid.rank{r}")))
            .collect();
        assert!(
            pids.iter().all(|&p| p != 0 && p != me),
            "rank pids {pids:?} must be real and distinct from the parent {me}"
        );
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 4, "every rank ran in its own process");
    }

    /// A stalling (or panicking) rank surfaces as a parent panic naming
    /// the rank and its exit status instead of hanging the run.
    #[test]
    fn watchdog_failure_surfaces_as_nonzero_exit() {
        let _serial = ONE_PANIC_AT_A_TIME.lock().expect("no holder panics");
        let opts = ProcOptions {
            runtime: RealOptions {
                stall_timeout: Some(Duration::from_millis(200)),
                ..RealOptions::default()
            },
            ..ProcOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, toy_model(), &opts, |c| {
                if c.rank() == 0 {
                    // Tag 99 is never sent: rank 0 stalls forever.
                    Transport::recv(&c, Some(1), Some(99), Category::XyComm);
                }
            });
        }))
        .expect_err("stalled run must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("exited with status 101"),
            "diagnostic missing: {msg}"
        );
        assert!(msg.contains("rank 0"), "diagnostic missing: {msg}");
    }

    /// A set-up failure goes through the same kill-reap-remove path as a
    /// failed run: the panic names what failed and nothing is left behind.
    #[test]
    fn failed_launch_leaves_no_rendezvous_dir() {
        let _serial = ONE_PANIC_AT_A_TIME.lock().expect("no holder panics");
        // A socket path must fit `sun_path` (108 bytes); this root makes
        // `rank0.sock` too long to bind, after the directory was created.
        let root = std::env::temp_dir().join(format!("comm-proc-{}", "x".repeat(120)));
        let opts = ProcOptions {
            rendezvous_root: Some(root.clone()),
            ..ProcOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, toy_model(), &opts, |c| c.barrier(Category::Setup));
        }))
        .expect_err("an unbindable socket path must fail the launch");
        let left: Vec<_> = std::fs::read_dir(&root)
            .expect("the root itself was created")
            .map(|e| e.expect("readable entry").file_name())
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("comm-proc: bind"), "diagnostic missing: {msg}");
        assert!(left.is_empty(), "rendezvous entries left behind: {left:?}");
    }
}
