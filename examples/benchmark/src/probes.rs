//! Layer probes: each times calls into one layer's public functions, in
//! isolation, on the workload's own factor, plan and transport.

use crate::stats::{fit_line, median, quantile};
use lufactor::Factorized;
use simgrid::wire::{decode_frame, encode_frame, FrameHeader};
use simgrid::{Category, MachineModel, Payload, Transport};
use sptrsv::kernels::{self, Targets};
use sptrsv::schedule::{Schedule, ScheduleKey};
use sptrsv::solve2d::EPOCH_MASK;
use sptrsv::{Backend, Plan};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How much of each probe to run: 1.0 for a measured run, less for
/// `--quick`. Repetition counts scale with it, never below a floor that
/// still gives a median.
#[derive(Clone, Copy, Debug)]
pub struct Effort(pub f64);

impl Effort {
    pub fn reps(&self, full: usize) -> usize {
        ((full as f64 * self.0).ceil() as usize).max(3)
    }
}

// ---------------------------------------------------------------- kernels

/// One off-diagonal block `(I, K)` with its precomputed addressing, the
/// way the schedule IR bakes it.
struct Block {
    i: usize,
    lo: usize,
    hi: usize,
    /// `rows[q] − start(I)` for `q` in `lo..hi`.
    targets: Vec<u32>,
}

pub struct KernelSweep {
    pub sweep_ms: f64,
    pub flops: f64,
    pub bytes_computed: f64,
    /// Largest entrywise distance of the sweep's solution from `want`.
    pub error: f64,
}

/// Single-threaded supernodal L- then U-solve through the hot-path
/// kernels: `diag_solve_{l,u}_into` once per supernode and
/// `apply_l`/`apply_u` once per off-diagonal block, nothing else. `pb` is
/// the permuted right-hand side; `want` the permuted solution it must
/// reproduce.
pub fn kernel_sweep(
    fact: &Factorized,
    pb: &[f64],
    nrhs: usize,
    want: &[f64],
    effort: Effort,
) -> KernelSweep {
    let sym = fact.lu.sym();
    let ns = sym.n_supernodes();
    let n = sym.n();
    let blocks: Vec<Vec<Block>> = (0..ns)
        .map(|k| {
            let rows = sym.rows_below(k);
            sym.blocks_below(k)
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    let (lo, hi) = kernels::block_range(fact, k, i);
                    let start = sym.sup_cols(i).start as u32;
                    Block {
                        i,
                        lo,
                        hi,
                        targets: rows[lo..hi].iter().map(|&r| r - start).collect(),
                    }
                })
                .collect()
        })
        .collect();
    let width = |k: usize| sym.sup_width(k) * nrhs;
    let zeros = || -> Vec<Vec<f64>> { (0..ns).map(|k| vec![0.0; width(k)]).collect() };
    let (mut y, mut x, mut lsum, mut usum) = (zeros(), zeros(), zeros(), zeros());
    let wmax = (0..ns).map(width).max().unwrap_or(0);
    let (mut rhs, mut scratch) = (vec![0.0; wmax], vec![0.0; wmax]);

    let mut sweep = |flops: &mut usize| {
        for v in lsum.iter_mut().chain(usum.iter_mut()) {
            v.fill(0.0);
        }
        for k in 0..ns {
            let w = sym.sup_width(k);
            let p = fact.lu.panel(k);
            kernels::masked_rhs_into(fact, k, pb, nrhs, true, &mut rhs);
            *flops += kernels::diag_solve_l_into(
                fact,
                k,
                &rhs[..w * nrhs],
                Some(&lsum[k]),
                nrhs,
                &mut scratch,
                &mut y[k],
            );
            let r = sym.rows_below(k).len();
            for b in &blocks[k] {
                let wi = sym.sup_width(b.i);
                *flops += kernels::apply_l(
                    &p.l_below,
                    r,
                    b.lo,
                    b.hi,
                    Targets::Scatter(&b.targets),
                    &y[k],
                    w,
                    &mut lsum[b.i],
                    wi,
                    nrhs,
                );
            }
        }
        for k in (0..ns).rev() {
            let w = sym.sup_width(k);
            let p = fact.lu.panel(k);
            for b in &blocks[k] {
                let wj = sym.sup_width(b.i);
                *flops += kernels::apply_u(
                    &p.u_right,
                    w,
                    b.lo,
                    b.hi,
                    Targets::Scatter(&b.targets),
                    &x[b.i],
                    wj,
                    &mut usum[k],
                    nrhs,
                );
            }
            *flops += kernels::diag_solve_u_into(
                fact,
                k,
                &y[k],
                Some(&usum[k]),
                nrhs,
                &mut scratch,
                &mut x[k],
            );
        }
    };

    let mut flops = 0usize;
    sweep(&mut flops); // warm-up, and the flop count of one sweep
    let per_sweep = flops;
    let times: Vec<f64> = (0..effort.reps(40))
        .map(|_| {
            let t = Instant::now();
            sweep(&mut flops);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    black_box(flops);

    let mut error: f64 = 0.0;
    for (k, x_k) in x.iter().enumerate() {
        let cols = sym.sup_cols(k);
        let w = cols.len();
        for r in 0..nrhs {
            for j in 0..w {
                error = error.max((x_k[r * w + j] - want[r * n + cols.start + j]).abs());
            }
        }
    }

    // Computed, not measured: every panel value read once, plus the
    // vector operands each kernel call reads and writes.
    let mut doubles = 0usize;
    for (k, blocks_k) in blocks.iter().enumerate() {
        let p = fact.lu.panel(k);
        doubles += p.dinv_l.len() + p.dinv_u.len() + p.l_below.len() + p.u_right.len();
        doubles += 2 * 3 * width(k); // two diagonal solves: rhs, sum, out
        for b in blocks_k {
            // apply_l reads y(K), updates lsum rows; apply_u reads x rows,
            // updates usum(K).
            doubles += 2 * (width(k) + 2 * (b.hi - b.lo) * nrhs);
        }
    }
    KernelSweep {
        sweep_ms: median(&times),
        flops: per_sweep as f64,
        bytes_computed: 8.0 * doubles as f64,
        error,
    }
}

// -------------------------------------------------------------- transport

/// A rank program that runs on any backend and returns seconds it
/// measured on the real clock (`Transport::now` is virtual on the
/// simulator, and the probes report what the host pays).
trait RankBody: Sync {
    fn run<T: Transport>(&self, comm: T) -> f64;
}

/// Run `body` on `nranks` ranks of `backend` with the options the driver
/// uses; returns the per-rank results and the wall time of the whole run.
fn run_ranks<B: RankBody>(backend: Backend, nranks: usize, body: &B) -> (Vec<f64>, f64) {
    let model = MachineModel::cori_haswell();
    let t = Instant::now();
    let results = match backend {
        Backend::Sim => simgrid::run(nranks, model, &Default::default(), |c| body.run(c)).results,
        Backend::Native => {
            comm_native::run(nranks, model, &Default::default(), |c| body.run(c)).results
        }
        Backend::Proc => {
            comm_proc::run(nranks, model, &Default::default(), |c| body.run(c)).results
        }
    };
    (results, t.elapsed().as_secs_f64())
}

struct Noop;

impl RankBody for Noop {
    fn run<T: Transport>(&self, _comm: T) -> f64 {
        0.0
    }
}

/// The two `split`s every rank program starts with (grid, then z).
struct Split {
    px: usize,
    py: usize,
}

impl RankBody for Split {
    fn run<T: Transport>(&self, world: T) -> f64 {
        let rank = world.rank();
        let xy = rank % (self.px * self.py);
        let z = rank / (self.px * self.py);
        let grid = world.split(z, xy);
        let zcomm = world.split(xy, z);
        black_box((grid.size(), zcomm.size()));
        0.0
    }
}

/// Ping-pong between ranks 0 and 1; rank 0 returns the one-way time.
struct PingPong {
    words: usize,
    iters: usize,
}

impl RankBody for PingPong {
    fn run<T: Transport>(&self, comm: T) -> f64 {
        let payload: Payload = vec![1.0; self.words].into();
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let mut one_way = 0.0;
        // First lap warms routes, sockets and the inbox.
        for lap in 0..2 {
            let iters = if lap == 0 { 8 } else { self.iters };
            let t = Instant::now();
            for _ in 0..iters {
                if me == 0 {
                    comm.send_shared(peer, 1, &payload, Category::XyComm);
                    black_box(comm.recv(Some(peer), Some(2), Category::XyComm));
                } else {
                    black_box(comm.recv(Some(peer), Some(1), Category::XyComm));
                    comm.send_shared(peer, 2, &payload, Category::XyComm);
                }
            }
            one_way = t.elapsed().as_secs_f64() / (2 * iters) as f64;
        }
        one_way
    }
}

/// Every other rank sends its share of `total` one-word messages to rank
/// 0, which drains them through the solver's masked any-source receive;
/// rank 0 returns seconds per message received.
struct FanIn {
    total: usize,
}

const FANIN_EPOCH: u64 = 1 << 48;

impl RankBody for FanIn {
    fn run<T: Transport>(&self, comm: T) -> f64 {
        let each = (self.total / (comm.size() - 1)).max(1);
        comm.barrier(Category::Other);
        if comm.rank() != 0 {
            for i in 0..each {
                comm.send(0, FANIN_EPOCH | i as u64, &[1.0], Category::XyComm);
            }
            return 0.0;
        }
        let total = each * (comm.size() - 1);
        let t = Instant::now();
        for _ in 0..total {
            black_box(comm.recv_tag_masked(EPOCH_MASK, FANIN_EPOCH, Category::XyComm));
        }
        t.elapsed().as_secs_f64() / total as f64
    }
}

pub struct TransportProbe {
    pub spinup_ms: f64,
    pub split_ms: f64,
    pub hop_us_8b: f64,
    pub hop_us_64k: f64,
    pub alpha_us: f64,
    pub beta_ns_per_byte: f64,
    pub fanin_us: f64,
}

pub fn transport(
    backend: Backend,
    px: usize,
    py: usize,
    nranks: usize,
    effort: Effort,
) -> TransportProbe {
    let reps = effort.reps(12);
    let wall_ms = |body: &dyn Fn() -> f64| -> f64 {
        median(&(0..reps).map(|_| body() * 1e3).collect::<Vec<_>>())
    };
    let spinup_ms = wall_ms(&|| run_ranks(backend, nranks, &Noop).1);
    // What the two splits add to an empty run. (A rank's own view of its
    // splits would count the wait for later ranks to start a second time.)
    let split_ms = wall_ms(&|| run_ranks(backend, nranks, &Split { px, py }).1) - spinup_ms;
    // 8 B … 64 KiB payloads; α and β from a line through all of them. The
    // kernel puts the two ranks of a run on one core in some runs (hops of
    // ~1.6 µs on the native transport) and on two in others (~18 µs). A
    // solve's ranks span the cores, so each size reports the upper
    // quartile of its runs: the two-core figure whenever at least a
    // quarter of them ran that way, and no single slow run's.
    let mut points = Vec::new();
    let mut hop = |words: usize| {
        let iters = effort.reps(if words > 1024 { 100 } else { 300 });
        let mut one_way: Vec<f64> = (0..effort.reps(9))
            .map(|_| run_ranks(backend, 2, &PingPong { words, iters }).0[0])
            .collect();
        one_way.sort_by(f64::total_cmp);
        let t = quantile(&one_way, 0.75);
        points.push((8.0 * words as f64, t));
        t * 1e6
    };
    let hop_us_8b = hop(1);
    for words in [64, 512, 2048] {
        hop(words);
    }
    let hop_us_64k = hop(8192);
    let (alpha, beta) = fit_line(&points);
    let fanin: Vec<f64> = (0..effort.reps(5))
        .map(|_| run_ranks(backend, nranks, &FanIn { total: 512 }).0[0] * 1e6)
        .collect();
    TransportProbe {
        spinup_ms,
        split_ms,
        hop_us_8b,
        hop_us_64k,
        alpha_us: alpha * 1e6,
        beta_ns_per_byte: beta * 1e9,
        fanin_us: median(&fanin),
    }
}

// -------------------------------------------------------------- allreduce

/// `sparse_allreduce` back to back on the ranks of one z-column.
struct Allreduce<'a> {
    plan: &'a Plan,
    sched: &'a Schedule,
    nrhs: usize,
    iters: usize,
}

impl RankBody for Allreduce<'_> {
    fn run<T: Transport>(&self, zcomm: T) -> f64 {
        let z = zcomm.rank();
        let steps = &self.sched.ranks[self.plan.rank_of(0, 0, z)].zsteps;
        let mut y_vals = HashMap::new();
        // First call sizes the slots and the pack buffer.
        sptrsv::allreduce::sparse_allreduce(self.plan, &zcomm, steps, self.nrhs, &mut y_vals);
        zcomm.barrier(Category::Other);
        let t = Instant::now();
        for _ in 0..self.iters {
            sptrsv::allreduce::sparse_allreduce(self.plan, &zcomm, steps, self.nrhs, &mut y_vals);
        }
        t.elapsed().as_secs_f64() / self.iters as f64
    }
}

/// Microseconds per `sparse_allreduce` call over `Pz` native ranks on the
/// workload's plan (the slowest rank's mean, median over runs).
pub fn allreduce_call_us(plan: &Plan, nrhs: usize, effort: Effort) -> f64 {
    let sched = plan.schedule(NEW3D);
    let body = Allreduce {
        plan,
        sched: &sched,
        nrhs,
        iters: effort.reps(200),
    };
    let runs: Vec<f64> = (0..effort.reps(5))
        .map(|_| {
            let (per_rank, _) = run_ranks(Backend::Native, plan.pz, &body);
            per_rank.iter().copied().fold(0.0, f64::max) * 1e6
        })
        .collect();
    median(&runs)
}

// ------------------------------------------------------ plan and schedule

/// The schedule family `Algorithm::New3d` on CPU executes from.
pub const NEW3D: ScheduleKey = ScheduleKey {
    baseline: false,
    tree_comm: true,
};

/// `(plan.build_s, schedule.compile_s)`: `Plan::new`, then the first
/// `Plan::schedule` on it (later calls hit the plan's cache).
pub fn plan_and_schedule(
    fact: &Arc<Factorized>,
    px: usize,
    py: usize,
    pz: usize,
    effort: Effort,
) -> (f64, f64) {
    let mut build = Vec::new();
    let mut compile = Vec::new();
    for _ in 0..effort.reps(5) {
        let t = Instant::now();
        let plan = Plan::new(Arc::clone(fact), px, py, pz);
        build.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(plan.schedule(NEW3D));
        compile.push(t.elapsed().as_secs_f64());
    }
    (median(&build), median(&compile))
}

// ------------------------------------------------------------------- wire

pub struct WireProbe {
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Nanoseconds per `encode_frame` / `decode_frame` of a `words`-word body.
pub fn wire(words: usize, effort: Effort) -> WireProbe {
    let header = FrameHeader {
        comm_id: 3,
        src: 1,
        bitmap_words: 0,
        tag: 42,
        seq: 7,
    };
    let body: Vec<f64> = (0..words).map(|i| i as f64 * 0.5).collect();
    let calls = if words > 1024 { 200 } else { 20_000 };
    let mut frame = Vec::new();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..effort.reps(9) {
        let t = Instant::now();
        for _ in 0..calls {
            frame.clear();
            encode_frame(&mut frame, black_box(&header), black_box(&body));
        }
        encode.push(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
        let t = Instant::now();
        for _ in 0..calls {
            black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
        }
        decode.push(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    WireProbe {
        encode_ns: median(&encode),
        decode_ns: median(&decode),
    }
}
