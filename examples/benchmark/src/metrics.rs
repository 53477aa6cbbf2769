//! The metric registry — every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! readings of one run. `BENCHMARK.json` at the repository root mirrors
//! this table; `--self-test` checks that it does.

use crate::stats::Estimate;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics carry the share of the parent's median by which
    /// they may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// Repeats exactly from run to run (a count, or the simulator's clock).
    pub exact: bool,
    /// What it measures and which end-to-end metric it should move, where.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        note,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
        note,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    // ---- end to end: what a user of the solver sees ----
    e2e("setup_s", "s", Lower, 0.25,
        "median of the cold set-ups of a run: generate, order, factorize, plan, first solve"),
    e2e("solve_ms_p50", "ms", Lower, 0.25,
        "median wall of one Solver3d::solve (on sim_2x2x16 of the same plan run natively); on serve_2x2x2 of one request at 500 req/s, from its due time"),
    e2e("solves_per_s", "1/s", Higher, 0.25,
        "correct solves completed per second of the window; on serve_2x2x2 in the 4000 req/s phase"),
    e2e("seq_solve_ms", "ms", Lower, 0.15,
        "plain single-threaded Factorized::solve of the same right-hand sides, the baseline row: lower quartile per set-up, median over set-ups"),
    e2e("peak_rss_mb", "MiB", Lower, 0.20,
        "VmHWM of the benchmark process after the untraced window"),
    // ---- per layer, grouped by module ----
    layer("sparse.gen_s", "s", Lower, "matrix and right-hand sides from the seed -> setup_s"),
    layer("ordering.analyze_s", "s", Lower, "nested dissection + symbolic analysis -> setup_s"),
    layer("factor.factorize_s", "s", Lower, "permute + numeric factorization -> setup_s"),
    layer("plan.build_s", "s", Lower, "Plan::new -> setup_s"),
    layer("schedule.compile_s", "s", Lower, "first Plan::schedule -> setup_s"),
    layer("kernels.sweep_ms", "ms", Lower,
        "one thread, diag_solve_{l,u}_into + apply_l/apply_u over every block once -> solve_ms_p50 on flop_z2; none on proc_2x2x4"),
    exact("kernels.flops", "count", Lower, "flops of one sweep, as the kernels return them"),
    layer("kernels.gflops", "Gflop/s", Higher, "kernels.flops over kernels.sweep_ms"),
    exact("kernels.bytes_computed", "B", Lower, "panel values once + vector operands per call; computed, not measured"),
    exact("kernels.flops_per_byte", "flop/B", Higher, "kernels.flops over kernels.bytes_computed"),
    layer("solve2d.single_rank_ms", "ms", Lower, "1x1x1 native solve of the same factor -> solve_ms_p50 on flop_z2"),
    layer("solve2d.engine_overhead_ms", "ms", Lower,
        "single_rank_ms - kernels.sweep_ms: hash-keyed state, ledger, queue, one thread spawn -> solve_ms_p50 on flop_z2 (item E)"),
    layer("solve2d.grid_solve_ms", "ms", Lower, "Px x Py x 1 native solve of the same factor"),
    layer("solve2d.l_phase_ms", "ms", Lower, "rank-mean L-phase wall, real clock (native twin on sim_2x2x16)"),
    layer("solve2d.u_phase_ms", "ms", Lower, "rank-mean U-phase wall, real clock (native twin on sim_2x2x16)"),
    layer("allreduce.call_us", "us", Lower,
        "sparse_allreduce back to back on Pz native ranks of the workload's plan; <= 5 % of solve_ms_p50 off the simulator"),
    layer("allreduce.z_phase_ms", "ms", Lower, "rank-mean Z-phase wall, real clock (native twin on sim_2x2x16)"),
    exact("allreduce.z_msgs", "count", Lower, "inter-grid messages per solve -> sim_makespan_us on sim_2x2x16"),
    exact("allreduce.z_payload_bytes", "B", Lower, "comm.z.bytes of one solve -> sim_makespan_us on sim_2x2x16"),
    exact("allreduce.bytes_saved", "B", Higher, "comm.z.bytes_saved of one solve: what live-support trimming removed"),
    exact("schedule.msgs_per_solve", "count", Lower, "messages of one solve -> solve_ms_p50 on msg_2x2x4 and proc_2x2x4, sim_makespan_us"),
    exact("schedule.xy_msgs", "count", Lower, "intra-grid messages of one solve"),
    exact("schedule.payload_bytes_per_solve", "B", Lower, "bytes_sent of one solve minus its nominal 64 B envelopes"),
    exact("sim_makespan_us", "virt_us", Lower,
        "virtual makespan of the New3d solve on the cori-haswell model: the paper's quantity; headline of sim_2x2x16"),
    exact("sim_speedup_vs_baseline", "ratio", Higher, "Baseline3d over New3d virtual makespan: the paper's headline"),
    exact("simgrid.l_phase_virt_us", "virt_us", Lower, "rank-mean virtual L phase -> sim_makespan_us"),
    exact("simgrid.z_phase_virt_us", "virt_us", Lower, "rank-mean virtual Z phase (the sparse allreduce) -> sim_makespan_us"),
    exact("simgrid.u_phase_virt_us", "virt_us", Lower, "rank-mean virtual U phase -> sim_makespan_us"),
    layer("transport.spinup_ms", "ms", Lower,
        "run(nranks, |_| ()) on the workload's transport -> solve_ms_p50 on msg_2x2x4, proc_2x2x4, serve_2x2x2 (item C); none on flop_z2"),
    layer("transport.split_ms", "ms", Lower, "what the two splits of a rank program add to an empty run"),
    layer("transport.hop_us_8B", "us", Lower, "one-way ping-pong, 8 B, upper quartile of 9 runs -> solve_ms_p50 on msg_2x2x4 / proc_2x2x4 (item B)"),
    layer("transport.hop_us_64KiB", "us", Lower, "one-way ping-pong, 64 KiB"),
    layer("transport.alpha_us", "us", Lower, "latency term of t = alpha + beta * bytes over 8 B..64 KiB"),
    layer("transport.beta_ns_per_byte", "ns/B", Lower, "per-byte term of the same fit"),
    layer("transport.fanin_us", "us", Lower,
        "per message, nranks-1 senders into one recv_tag_masked loop: the linear inbox scan (item B)"),
    layer("wire.encode_ns_8w", "ns", Lower, "encode_frame, 8-word body -> solve_ms_p50 on proc_2x2x4 only"),
    layer("wire.decode_ns_8w", "ns", Lower, "decode_frame, 8-word body"),
    layer("wire.encode_ns_8kw", "ns", Lower, "encode_frame, 8192-word body"),
    layer("wire.decode_ns_8kw", "ns", Lower, "decode_frame, 8192-word body"),
    layer("driver.solve_ms_p50", "ms", Lower,
        "median direct solve of the traced run, the ledger's total; on sim_2x2x16 the simulator's host time"),
    layer("driver.makespan_ms", "ms", Lower, "median SolveOutcome.makespan, real clock (native twin on sim_2x2x16)"),
    layer("driver.outside_ms", "ms", Lower, "median solve wall - makespan: permute, spin-up, gather, teardown"),
    layer("driver.unattributed_ms", "ms", Lower,
        "median solve wall - spinup - split - rank-mean (L+Z+U): where the rest goes"),
    layer("driver.sim_over_measured", "ratio", Higher, "virtual makespan over measured makespan"),
    layer("driver.speedup_vs_seq", "ratio", Higher, "seq_solve_ms over median solve wall"),
    layer("driver.solve_ms_p99", "ms", Lower, "99th percentile of a direct solve: per one-second slice, median over slices"),
    layer("driver.solve_ms_iqr", "ms", Lower, "q3 - q1 of the same samples"),
    exact("driver.rank_oversub", "ratio", Lower, "ranks over cores; above 1, wall-clock scaling means nothing"),
    layer("service.queue_wait_ms_p50", "ms", Lower, "enqueue -> batch dispatch -> solve_ms_p50 on serve_2x2x2"),
    layer("service.batch_form_ms_p50", "ms", Lower, "dispatch -> mux complete"),
    layer("service.solve_ms_p50", "ms", Lower, "the batched solve itself: the floor is cluster spin-up (item C)"),
    layer("service.demux_ms_p50", "ms", Lower, "scatter results to slots"),
    layer("service.latency_ms_p99", "ms", Lower,
        "99th percentile of a request at 500 req/s, from its due time (of the probe loop elsewhere) -> the tail on serve_2x2x2"),
    layer("service.mean_batch_width", "count", Higher, "requests per batch -> solves_per_s on serve_2x2x2"),
    layer("service.batches", "count", Lower, "batched solves dispatched"),
    exact("service.refused", "count", Lower, "requests the service refused"),
    layer("service.gen_lag_ms_p99", "ms", Lower, "how late the load generator ran"),
    layer("service.ok_frac", "frac", Higher,
        "share of requests scheduled at 1500 req/s answered correctly within 20 ms (probe loop elsewhere)"),
    layer("bench.trace_overhead_frac", "frac", Lower, "traced p50 over untraced p50, minus 1"),
    layer("bench.samples", "count", Higher, "direct solves behind the ledger's median"),
    exact("fail_frac", "frac", Lower, "failed, refused, not bit-identical to the sim reference, over attempted"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

pub struct Reading {
    pub value: f64,
    /// Present for timings measured many times in the run.
    pub estimate: Option<Estimate>,
}

/// Readings of one run, by metric name.
#[derive(Default)]
pub struct Readings(Vec<(&'static str, Reading)>);

impl Readings {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.push(name, value, None);
    }

    /// A timing carries its samples' quartiles, count and supported tail,
    /// and the run's own spread, along with the value it reports.
    pub fn timing(&mut self, name: &'static str, e: &Estimate) {
        self.push(name, e.value, Some(e.clone()));
    }

    fn push(&mut self, name: &'static str, value: f64, estimate: Option<Estimate>) {
        assert!(def(name).is_some(), "metric {name} is not in the registry");
        assert!(self.get(name).is_none(), "metric {name} read twice");
        self.0.push((name, Reading { value, estimate }));
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, r)| r)
    }

    /// Readings in registry order, restricted to one kind.
    pub fn of_kind(
        &self,
        end_to_end: bool,
    ) -> impl Iterator<Item = (&'static MetricDef, &Reading)> {
        METRICS
            .iter()
            .filter(move |m| m.bound.is_some() == end_to_end)
            .filter_map(|m| self.get(m.name).map(|r| (m, r)))
    }

    /// Names of the registry's metrics of one kind this run did not read.
    pub fn missing(&self, end_to_end: bool) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| m.bound.is_some() == end_to_end && self.get(m.name).is_none())
            .map(|m| m.name)
            .collect()
    }
}
