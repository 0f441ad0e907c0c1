//! What every workload shares: the run context, the result record, the
//! per-call meter over the simulated devices, and the layer metrics that
//! every workload derives the same way.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{percentile, sorted, tail};
use gpu_sim::{CostModel, CounterSnapshot, Device, DeviceGroup, HistogramSnapshot, TraceSnapshot};
use slabgraph::{BatchOutcome, DynGraph, GraphError};
use std::collections::BTreeMap;

/// One pass of one workload.
pub struct Ctx<'t> {
    pub seed: u64,
    /// Nominal length of the measured phase; each workload converts it to
    /// a fixed operation count, so the work done never depends on how
    /// fast the host is.
    pub seconds: u64,
    pub tracer: &'t Tracer,
    /// Whether the gpu-sim profiler is installed on every device this pass
    /// builds (traced runs only).
    pub profiled: bool,
}

impl Ctx<'_> {
    /// Fresh structure builds timed for `core.build_s` (the median is
    /// reported); the last one is kept for the measured phase. A traced
    /// pass builds once.
    pub fn builds(&self) -> usize {
        if self.profiled {
            1
        } else {
            5
        }
    }
}

/// The result of one pass: every metric value, the operation tallies, and
/// every correctness failure observed.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u64,
    /// Host seconds of the measured phase, less an open loop's waits for
    /// its schedule: the base of the tracing-overhead ratio.
    pub measured_s: f64,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Run {
    pub fn new() -> Self {
        Run {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: 0,
            measured_s: 0.0,
            values: END_TO_END
                .iter()
                .chain(PER_LAYER)
                .map(|m| (m.name, 0.0))
                .collect(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            catalog::find(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Tally one batch outcome: unapplied items count as failed, and the
    /// structural changes must equal the oracle's `expect`. Returns the
    /// changes applied.
    pub fn outcome(
        &mut self,
        what: std::fmt::Arguments,
        out: Result<BatchOutcome, GraphError>,
        items: usize,
        expect: u64,
    ) -> u64 {
        match out {
            Ok(o) => {
                self.failed += o.pending.len() as u64;
                self.check(o.changed == expect, || {
                    format!("{what}: changed {}, oracle says {expect}", o.changed)
                });
                o.changed
            }
            Err(e) => {
                self.failed += items as u64;
                self.errors.push(format!("{what}: rejected: {e}"));
                0
            }
        }
    }

    /// Throughput on both clocks and per-call latency for one direction,
    /// with `busy_s` host seconds behind the host-clock items. End to end
    /// on the modeled clock; per-layer (`host.*`) on the host clock. A read
    /// of one probe costs one of a few exact counter totals, so modeled
    /// latency percentiles are reported for updates only.
    pub fn direction(&mut self, dir: Direction, busy_s: f64, calls: Calls) {
        let modeled_s = calls.modeled_us.iter().sum::<f64>() / 1e6;
        let modeled = ratio(calls.modeled_items as f64, modeled_s) / 1e6;
        let host = ratio(calls.host_items as f64, busy_s) / 1e6;
        match dir {
            Direction::Update => {
                self.set("update_meps_modeled", modeled);
                self.set("host.update_meps", host);
                self.latency(
                    "update_p50_us_modeled",
                    "update_tail_us_modeled",
                    calls.modeled_us,
                );
                self.latency("host.update_p50_ms", "host.update_tail_ms", calls.host_ms);
            }
            Direction::Read => {
                self.set("read_mops_modeled", modeled);
                self.set("host.read_mops", host);
                self.latency("host.read_p50_ms", "host.read_tail_ms", calls.host_ms);
            }
        }
    }

    /// Set a median/tail pair from raw samples and note which percentile
    /// the tail is and how many samples it rests on.
    pub fn latency(&mut self, p50: &'static str, tail_name: &'static str, samples: Vec<f64>) {
        let s = sorted(samples);
        let (q, t) = tail(&s);
        self.set(p50, percentile(&s, 0.5));
        self.set(tail_name, t);
        self.notes.push(format!(
            "{tail_name}: p{:.1} of {} samples",
            q * 100.0,
            s.len()
        ));
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Direction {
    Update,
    Read,
}

/// Per-call samples of one direction on both clocks, with the items
/// (edges or probes) those calls did.
#[derive(Default)]
pub struct Calls {
    /// Host milliseconds per call (for `serve_road` updates: from when the
    /// update was due to the return of the flush that acknowledged it).
    pub host_ms: Vec<f64>,
    pub host_items: u64,
    /// Modeled microseconds per call.
    pub modeled_us: Vec<f64>,
    pub modeled_items: u64,
}

impl Calls {
    pub fn push(&mut self, items: usize, host_s: f64, modeled_s: f64) {
        self.host_ms.push(host_s * 1e3);
        self.modeled_us.push(modeled_s * 1e6);
        self.host_items += items as u64;
        self.modeled_items += items as u64;
    }

    pub fn host_s(&self) -> f64 {
        self.host_ms.iter().sum::<f64>() / 1e3
    }
}

/// Time and cost every call into the program: host duration from the
/// tracer's stopwatch, modeled seconds from the counter delta of each
/// device the call touched. The deltas of all metered calls are summed
/// per kernel into `total`.
pub struct Meter<'d> {
    devs: Vec<&'d Device>,
    model: CostModel,
    pub total: TraceSnapshot,
    /// Modeled seconds per device, summed over metered calls.
    pub per_dev_s: Vec<f64>,
    pub host_s: f64,
    pub errors: Vec<String>,
    /// Check that each call's per-kernel rows sum to its global delta.
    /// Only sound when no other thread charges the devices mid-call: the
    /// two halves of a trace snapshot are not read atomically.
    pub check_rows: bool,
}

impl<'d> Meter<'d> {
    pub fn new(devs: Vec<&'d Device>) -> Self {
        let n = devs.len();
        Meter {
            devs,
            model: CostModel::titan_v(),
            total: TraceSnapshot::default(),
            per_dev_s: vec![0.0; n],
            host_s: 0.0,
            errors: Vec::new(),
            check_rows: true,
        }
    }

    /// Run `f` as one metered call recorded as span `name`. Returns the
    /// result, host seconds, and the modeled makespan (devices run
    /// concurrently, so the slowest device's time).
    pub fn call<R>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64, f64) {
        let before: Vec<TraceSnapshot> = self.devs.iter().map(|d| d.trace()).collect();
        let open = tr.start(name, parent, req);
        let out = f();
        let host = tr.finish(open).as_secs_f64();
        let mut makespan: f64 = 0.0;
        for (i, d) in self.devs.iter().enumerate() {
            let delta = d.trace().delta(&before[i]);
            if self.check_rows {
                if let Err(e) = rows_sum(&delta) {
                    self.errors.push(format!("{name}: {e}"));
                }
            }
            let s = self.model.seconds(&delta.global);
            self.per_dev_s[i] += s;
            makespan = makespan.max(s);
            self.total = DeviceGroup::merge_traces(&[std::mem::take(&mut self.total), delta]);
        }
        self.host_s += host;
        (out, host, makespan)
    }
}

/// The attribution invariant: per-kernel rows sum to the global delta.
pub fn rows_sum(delta: &TraceSnapshot) -> Result<(), String> {
    if delta.kernel_sum() == delta.global {
        Ok(())
    } else {
        Err(format!(
            "per-kernel rows {:?} do not sum to the global delta {:?}",
            delta.kernel_sum(),
            delta.global
        ))
    }
}

/// The counters one kernel accumulated in a merged trace (zero if it never
/// ran).
pub fn row(t: &TraceSnapshot, kernel: &str) -> CounterSnapshot {
    t.kernels
        .iter()
        .find(|k| k.name == kernel)
        .map(|k| k.counters)
        .unwrap_or_default()
}

/// The cost model's four terms for a counter delta, in seconds, in the
/// order launch, memory, atomics, warp intrinsics — the terms of
/// [`CostModel::seconds`], which they must add up to.
pub fn terms(m: &CostModel, c: &CounterSnapshot) -> [f64; 4] {
    [
        c.launches as f64 * m.launch_overhead,
        c.transactions as f64 * gpu_sim::TRANSACTION_BYTES as f64 / m.mem_bandwidth,
        c.atomics as f64 / m.atomic_throughput,
        (c.ballots + c.shuffles) as f64 / m.warp_instr_throughput,
    ]
}

/// Shares of modeled time per cost term; they sum to 1.
pub fn term_shares(m: &CostModel, c: &CounterSnapshot) -> [f64; 4] {
    let t = terms(m, c);
    let sum: f64 = t.iter().sum();
    if sum == 0.0 {
        return [0.0; 4];
    }
    t.map(|x| x / sum)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// gpu-sim layer metrics over the metered calls: cost-term shares, and
/// launches, transactions and host time per unit of work. Also carries
/// the meter's attribution failures into `run`.
pub fn gpu_layer(run: &mut Run, meter: &Meter, ops: u64) {
    let m = CostModel::titan_v();
    let g = meter.total.global;
    let shares = term_shares(&m, &g);
    let total: f64 = terms(&m, &g).iter().sum();
    run.check(
        (total - m.seconds(&g)).abs() <= 1e-9 * total.max(1e-12),
        || {
            format!(
                "cost terms sum to {total} s but the model says {} s",
                m.seconds(&g)
            )
        },
    );
    run.check(
        (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9 || total == 0.0,
        || format!("cost-term shares {shares:?} do not sum to 1"),
    );
    run.set("gpu.term_launch_share", shares[0]);
    run.set("gpu.term_mem_share", shares[1]);
    run.set("gpu.term_atomic_share", shares[2]);
    run.set("gpu.term_warp_share", shares[3]);
    run.set(
        "gpu.launches_per_kop",
        ratio(g.launches as f64, ops as f64 / 1e3),
    );
    run.set("gpu.tx_per_op", ratio(g.transactions as f64, ops as f64));
    run.set(
        "gpu.host_ns_per_warp",
        ratio(meter.host_s * 1e9, g.warps as f64),
    );
    for e in &meter.errors {
        run.errors.push(e.clone());
    }
}

/// Slab-hash work per item from the named kernel rows: per submitted edge
/// for inserts and deletes, per probe for lookups through `probe_kernel`.
pub fn slabhash_layer(
    run: &mut Run,
    t: &TraceSnapshot,
    inserted: u64,
    deleted: u64,
    probes: u64,
    probe_kernel: &str,
) {
    let (ins, del, probe) = (
        row(t, "edge_insert"),
        row(t, "edge_delete"),
        row(t, probe_kernel),
    );
    let per = |count: u64, items: u64| ratio(count as f64, items as f64);
    run.set(
        "slabhash.insert_tx_per_edge",
        per(ins.transactions, inserted),
    );
    run.set(
        "slabhash.insert_atomics_per_edge",
        per(ins.atomics, inserted),
    );
    run.set(
        "slabhash.delete_tx_per_edge",
        per(del.transactions, deleted),
    );
    run.set(
        "slabhash.query_tx_per_probe",
        per(probe.transactions, probes),
    );
}

/// Running maxima of the slab-hash chain shape, sampled between calls.
#[derive(Default)]
pub struct Peaks {
    pub avg_chain: f64,
    pub max_chain: f64,
    pub tombstones: f64,
}

impl Peaks {
    pub fn sample(&mut self, g: &DynGraph) {
        let s = g.stats(&g.pin_read());
        self.avg_chain = self.avg_chain.max(s.avg_chain());
        self.max_chain = self.max_chain.max(s.tables.max_chain as f64);
        self.tombstones = self.tombstones.max(s.tables.tombstones as f64);
    }

    pub fn report(&self, run: &mut Run) {
        run.set("slabhash.avg_chain_peak", self.avg_chain);
        run.set("slabhash.max_chain_peak", self.max_chain);
        run.set("slabhash.tombstones_peak", self.tombstones);
    }
}

/// End-of-run structure checks and footprint, over one graph or every
/// shard of one: `validate()`, utilization, live slabs, and device bytes
/// per live logical edge.
pub fn structure_end(run: &mut Run, shards: &[&DynGraph], live_edges: u64) {
    let mut bytes = 0u64;
    let mut tables = slabgraph::TableStats::default();
    let mut live_slabs = 0u64;
    for (i, g) in shards.iter().enumerate() {
        if let Err(e) = g.validate() {
            run.errors
                .push(format!("shard {i}: validate() failed: {e}"));
        }
        let s = g.stats(&g.pin_read());
        bytes += s.memory_bytes();
        tables.merge(&s.tables);
        live_slabs += g.allocator().live_slabs();
    }
    run.set("slabhash.utilization_end", tables.utilization());
    run.set("slaballoc.live_slabs_end", live_slabs as f64);
    run.set("bytes_per_edge", ratio(bytes as f64, live_edges as f64));
}

/// The gpu-sim profiler's registry, merged over devices: histograms
/// bucket-wise, gauges by high-water mark. Empty without a profiler.
#[derive(Default)]
pub struct Registry {
    hists: Vec<(String, HistogramSnapshot)>,
    gauge_high: Vec<(String, u64)>,
}

impl Registry {
    pub fn capture(devs: &[&Device]) -> Self {
        let mut r = Registry::default();
        for p in devs.iter().filter_map(|d| d.profiler()) {
            for (name, h) in p.metrics().histograms() {
                match r.hists.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, acc)) => acc.merge(&h),
                    None => r.hists.push((name, h)),
                }
            }
            for m in p.metric_summaries() {
                if m.kind == gpu_sim::MetricKind::Gauge {
                    match r.gauge_high.iter_mut().find(|(n, _)| *n == m.name) {
                        Some((_, v)) => *v = (*v).max(m.max),
                        None => r.gauge_high.push((m.name, m.max)),
                    }
                }
            }
        }
        r
    }

    /// Histogram `name` restricted to what was recorded since `earlier`.
    fn hist_since(&self, earlier: &Registry, name: &str) -> HistogramSnapshot {
        let find = |r: &Registry| {
            r.hists
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| *h)
                .unwrap_or_default()
        };
        let (now, then) = (find(self), find(earlier));
        let mut d = now;
        for (b, t) in d.buckets.iter_mut().zip(then.buckets.iter()) {
            *b -= t;
        }
        d.count -= then.count;
        d.sum -= then.sum;
        d
    }

    fn gauge_high(&self, name: &str) -> u64 {
        self.gauge_high
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Layer metrics read from the profiler's existing registry over the
/// measured phase (traced pass only; log2-bucketed as the registry keeps
/// them).
pub fn registry_layer(run: &mut Run, devs: &[&Device], before: &Registry) {
    let now = Registry::capture(devs);
    let probe = now.hist_since(before, "slab_hash.probe_depth");
    let chain = now.hist_since(before, "slab_hash.chain_at_insert");
    run.set("slabhash.probe_depth_p50", probe.quantile(0.5) as f64);
    run.set("slabhash.probe_depth_p99", probe.quantile(0.99) as f64);
    run.set("slabhash.chain_at_insert_p99", chain.quantile(0.99) as f64);
    run.set(
        "slaballoc.pin_depth_peak",
        now.gauge_high("read.pin_depth") as f64,
    );
    run.set(
        "router.journal_depth_peak",
        now.gauge_high("router.journal_depth") as f64,
    );
}

/// Generate catalog dataset `name` with `vertices` vertices (0 takes the
/// catalog's default scale).
pub fn generate(name: &str, vertices: u32, seed: u64) -> graph_gen::Dataset {
    let spec = graph_gen::dataset(name).expect("the dataset is in the catalog");
    let vertices = if vertices == 0 {
        spec.default_scale()
    } else {
        vertices
    };
    spec.generate(vertices, seed)
}

/// Build the graph `ctx.builds()` times, each timed as a `core.bulk_build`
/// span; report the host median as `core.build_s` and the modeled set-up
/// time as `setup_s`, and return the last build for the measured phase.
pub fn timed_builds(ctx: &Ctx, run: &mut Run, build: impl Fn() -> DynGraph) -> DynGraph {
    let (mut times, mut modeled) = (Vec::new(), Vec::new());
    let mut graph = None;
    for i in 0..ctx.builds() {
        drop(graph.take());
        let b = ctx.tracer.start("core.bulk_build", 0, i as u64);
        let g = build();
        times.push(ctx.tracer.finish(b).as_secs_f64());
        modeled.push(charged_s(&[g.device()]));
        graph = Some(g);
    }
    run.set("core.build_s", percentile(&sorted(times), 0.5));
    set_setup(run, &modeled);
    graph.expect("at least one build")
}

/// Modeled seconds charged so far to devices that run side by side: the
/// slowest device's total. On freshly built devices, the set-up time.
pub fn charged_s(devs: &[&Device]) -> f64 {
    let m = CostModel::titan_v();
    devs.iter()
        .map(|d| m.seconds(&d.counters().snapshot()))
        .fold(0.0, f64::max)
}

/// `setup_s` is the modeled set-up time. Host set-up time drifts with the
/// machine by more than the gate's largest bound between sets of runs
/// minutes apart, so it is reported per layer (`core.build_s`,
/// `router.checkpoint_s`). Every build of the same inputs must cost the
/// same on the modeled clock.
pub fn set_setup(run: &mut Run, per_build: &[f64]) {
    run.check(
        per_build
            .iter()
            .all(|s| s.to_bits() == per_build[0].to_bits()),
        || format!("builds of the same inputs cost {per_build:?} modeled seconds"),
    );
    run.set("setup_s", per_build[0]);
}

/// The graph configuration every workload sizes the same way from its
/// base edge count: device memory and slab pool scale with the edges.
pub fn sized(mut c: slabgraph::GraphConfig, edges: usize) -> slabgraph::GraphConfig {
    c.device_words = (edges * 12).max(1 << 20);
    c.pool_slabs = (edges / 64).max(1 << 10);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_terms_sum_to_the_model_and_shares_to_one() {
        let m = CostModel::titan_v();
        let c = CounterSnapshot {
            transactions: 123_456,
            atomics: 7_890,
            ballots: 4_321,
            shuffles: 1_234,
            launches: 17,
            warps: 999,
            words_allocated: 0,
        };
        let t = terms(&m, &c);
        assert!((t.iter().sum::<f64>() - m.seconds(&c)).abs() < 1e-15);
        let s = term_shares(&m, &c);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&x| x > 0.0));
        assert_eq!(term_shares(&m, &CounterSnapshot::default()), [0.0; 4]);
    }

    #[test]
    fn meter_sums_kernel_rows_over_calls() {
        let g = DynGraph::with_uniform_buckets(slabgraph::GraphConfig::directed_map(64), 64, 1);
        let tr = Tracer::new(false);
        let mut meter = Meter::new(vec![g.device()]);
        let edges: Vec<slabgraph::Edge> = (1..40).map(|v| slabgraph::Edge::new(0, v)).collect();
        let (n, _, modeled) = meter.call(&tr, "core.insert_edges", 0, 0, || g.insert_edges(&edges));
        assert_eq!(n, 39);
        assert!(modeled > 0.0);
        meter.call(&tr, "core.delete_edges", 0, 1, || {
            g.delete_edges(&edges[..5])
        });
        assert!(meter.errors.is_empty(), "{:?}", meter.errors);
        assert_eq!(meter.total.kernel_sum(), meter.total.global);
        assert!(row(&meter.total, "edge_insert").transactions > 0);
        assert!(row(&meter.total, "edge_delete").transactions > 0);
        assert_eq!(
            row(&meter.total, "no_such_kernel"),
            CounterSnapshot::default()
        );
    }
}
