//! Shared measurement, reporting, and workload-construction utilities.
//!
//! Every bench phase is priced the same way: [`Phase::begin`] over the
//! devices it runs on, the operation, then [`Phase::end`] for the
//! [`Measurement`]. The workload builders ([`dataset_for`],
//! [`stream_for`], [`slab_config`], [`build_slab`], [`build_sharded`],
//! [`build_backends`]) live here too — one definition shared by the paper
//! tables, the churn runner and the `profile`, `chaos`, and scaling
//! harnesses, so every replay of a stream builds byte-identical
//! structures.

use crate::churn::{ChurnConfig, Round};
use backend::GraphBackend;
use baselines::{Csr, FaimGraph, Hornet};
use gpu_sim::profiler::{default_profiler, set_default_profiler};
use gpu_sim::{
    CostModel, CounterSnapshot, Device, DeviceGroup, Json, ProfilerConfig, TraceReport,
    TraceSnapshot,
};
use graph_gen::catalog;
use router::ShardedGraph;
use slabgraph::{Direction, DynGraph, Edge, GraphConfig, TableKind};
use std::time::Instant;

/// One priced phase over a device set: the per-kernel counter delta
/// merged over the devices, and the modeled GPU time.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Per-kernel delta merged over the phase's devices; its `global` is
    /// the phase's counter total.
    pub trace: TraceSnapshot,
    /// Modeled makespan: devices run concurrently, so a phase costs the
    /// *maximum* per-device modeled delta, not the sum. For one device
    /// this is that device's modeled time.
    pub modeled_s: f64,
}

impl Measurement {
    /// Throughput in millions of items per *modeled* second — the unit of
    /// the paper's rate tables (MEdges/s, MVertex/s).
    pub fn mrate(&self, items: u64) -> f64 {
        mrate(items, self.modeled_s)
    }

    /// Modeled milliseconds (the unit of the paper's time tables).
    pub fn modeled_ms(&self) -> f64 {
        self.modeled_s * 1e3
    }

    /// The phase's per-kernel [`TraceReport`]: which named kernels ran and
    /// what each one cost.
    pub fn report(&self) -> TraceReport {
        TraceReport::new(&self.trace)
    }
}

/// Millions of items per modeled second; 0 for a phase that cost nothing.
pub fn mrate(items: u64, modeled_s: f64) -> f64 {
    if modeled_s <= 0.0 {
        return 0.0;
    }
    items as f64 / modeled_s / 1e6
}

/// A phase in progress: each device's trace when it began. It borrows
/// nothing, so the measured operation may take `&mut` access to the
/// structure that owns the devices.
pub struct Phase(Vec<TraceSnapshot>);

impl Phase {
    pub fn begin(devices: &[&Device]) -> Phase {
        Phase(devices.iter().map(|d| d.trace()).collect())
    }

    /// The phase that began when `n` devices were created: it ends with
    /// everything they have done (a build that creates its device).
    pub fn since_creation(n: usize) -> Phase {
        Phase(vec![TraceSnapshot::default(); n])
    }

    /// Close the phase over the same devices, in the same order, that
    /// began it.
    pub fn end(self, devices: &[&Device]) -> Measurement {
        assert_eq!(devices.len(), self.0.len(), "phase must end on its devices");
        let model = CostModel::titan_v();
        let deltas: Vec<TraceSnapshot> = devices
            .iter()
            .zip(&self.0)
            .map(|(d, before)| d.trace().delta(before))
            .collect();
        Measurement {
            modeled_s: deltas
                .iter()
                .map(|d| model.seconds(&d.global))
                .fold(0.0, f64::max),
            trace: DeviceGroup::merge_traces(&deltas),
        }
    }
}

/// Measure `f` as one phase over `devices`.
pub fn measure(devices: &[&Device], f: impl FnOnce()) -> Measurement {
    let phase = Phase::begin(devices);
    f();
    phase.end(devices)
}

/// Wall-clock bench case for the `cargo bench` mains: one warm-up call of
/// `f`, then `iters` timed calls; prints `label: min … mean …` in ms, or in
/// µs when the mean is under a millisecond.
pub fn bench_case(label: &str, iters: usize, mut f: impl FnMut()) {
    f();
    let times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let (scale, unit) = if mean < 1e-3 {
        (1e6, "µs")
    } else {
        (1e3, "ms")
    };
    println!(
        "{label}: min {:.3} {unit}  mean {:.3} {unit}",
        min * scale,
        mean * scale
    );
}

/// Global scale shift from `BENCH_SCALE_SHIFT` (each step doubles sizes).
pub fn scale_shift() -> u32 {
    std::env::var("BENCH_SCALE_SHIFT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The integer cost terms a [`Table`] records per priced phase, in JSON
/// key order: what `bench-gate` compares exactly against the parent
/// commit's `BENCH_tables.json`.
const COST_TERMS: [&str; 4] = ["transactions", "atomics", "ballots+shuffles", "launches"];

fn cost_terms(c: &CounterSnapshot) -> [u64; 4] {
    [
        c.transactions,
        c.atomics,
        c.ballots + c.shuffles,
        c.launches,
    ]
}

/// A printable experiment table that also serialises to JSON.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (scaling, substitutions) recorded with the data.
    pub notes: Vec<String>,
    /// Per-kernel breakdowns attached to named phases of the experiment,
    /// rendered after the table and embedded in the emitted JSON.
    pub breakdowns: Vec<(String, TraceReport)>,
    /// The cost terms (transactions, atomics, ballots + shuffles,
    /// launches) of every phase priced through [`Table::end`] or
    /// [`Table::measure`], under its label (unique in the table).
    pub costs: Vec<(String, [u64; 4])>,
}

impl Table {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            notes: vec![],
            breakdowns: vec![],
            costs: vec![],
        }
    }

    /// Close `phase` over `devices` ([`Phase::end`]) and record its cost
    /// terms under `label`. Every phase behind a cell is priced here.
    pub fn end(
        &mut self,
        label: impl Into<String>,
        phase: Phase,
        devices: &[&Device],
    ) -> Measurement {
        let (label, m) = (label.into(), phase.end(devices));
        assert!(
            self.costs.iter().all(|(l, _)| *l != label),
            "{}: phase {label:?} priced twice",
            self.id
        );
        self.costs.push((label, cost_terms(&m.trace.global)));
        m
    }

    /// [`measure`] `f` over `devices`, recording its cost terms under
    /// `label` as [`Table::end`] does.
    pub fn measure(
        &mut self,
        label: impl Into<String>,
        devices: &[&Device],
        f: impl FnOnce(),
    ) -> Measurement {
        let phase = Phase::begin(devices);
        f();
        self.end(label, phase, devices)
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Attach a per-kernel breakdown for one phase (e.g. the largest batch
    /// of one dataset).
    pub fn breakdown(&mut self, label: impl Into<String>, report: TraceReport) {
        self.breakdowns.push((label.into(), report));
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for (label, report) in &self.breakdowns {
            out.push_str(&format!("\n-- per-kernel breakdown: {label} --\n"));
            out.push_str(&report.render());
        }
        out
    }

    /// The table as a JSON value (the same structure `emit` persists).
    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::Obj(vec![
            ("id".into(), Json::str(&self.id)),
            ("title".into(), Json::str(&self.title)),
            ("headers".into(), strs(&self.headers)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(|r| strs(r)).collect()),
            ),
            ("notes".into(), strs(&self.notes)),
            (
                "breakdowns".into(),
                Json::Arr(
                    self.breakdowns
                        .iter()
                        .map(|(label, report)| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(label)),
                                ("trace".into(), report.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.costs
                        .iter()
                        .map(|(label, terms)| {
                            let terms = COST_TERMS.iter().zip(terms);
                            let terms = terms.map(|(k, &v)| (k.to_string(), Json::u64(v)));
                            (label.clone(), Json::Obj(terms.collect()))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Print to stdout and persist JSON under `target/experiments/`.
    pub fn emit(&self) {
        println!("{}", self.render());
        let dir = std::path::Path::new("target/experiments");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{}.json", self.id));
            let _ = std::fs::write(path, self.to_json().render_pretty());
        }
    }
}

/// Write a benchmark-trajectory artifact: one JSON file collecting the
/// given tables (`run_all` writes the committed `BENCH_tables.json`).
/// Table rows carry the workload/backend rates and modeled times, each
/// table's `counters` the cost terms of every phase behind them, and the
/// embedded per-kernel breakdowns (TraceReport JSON) the per-kernel
/// counter sums of selected phases.
///
/// `path` is relative to the invoking directory.
pub fn write_bench_artifact(path: &str, workload: &str, tables: &[&Table]) {
    let json = Json::Obj(vec![
        ("schema".into(), Json::str("bench-trajectory-v1")),
        ("workload".into(), Json::str(workload)),
        ("scale_shift".into(), Json::u64(u64::from(scale_shift()))),
        (
            "tables".into(),
            Json::Arr(tables.iter().map(|t| t.to_json()).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(path, json.render_pretty()) {
        eprintln!("warning: could not write bench artifact {path}: {e}");
    } else {
        eprintln!("bench artifact written to {path}");
    }
}

// ---------------------------------------------------------------------------
// Workload builders: one definition for the paper tables and every
// harness that replays a churn-family stream (the churn runner, the
// profile/chaos/trace-query bins, the sharded scaling study).
// ---------------------------------------------------------------------------

/// Generate the dataset a churn-family config names, honouring the
/// `--scale` override.
pub fn dataset_for(cfg: &ChurnConfig) -> graph_gen::Dataset {
    let spec = catalog::dataset(&cfg.dataset)
        .unwrap_or_else(|| panic!("unknown dataset {:?}", cfg.dataset));
    match cfg.scale {
        Some(n) => spec.generate(n, cfg.seed),
        None => spec.generate_default(cfg.seed),
    }
}

/// Generate the dataset and precomputed operation stream for a config —
/// the exact sequence [`crate::churn::churn`] replays, for external
/// harnesses (the `profile` bin) that need to drive backends themselves.
pub fn stream_for(cfg: &ChurnConfig) -> (graph_gen::Dataset, Vec<Round>) {
    let ds = dataset_for(cfg);
    let stream = crate::churn::make_stream(&ds, cfg);
    (ds, stream)
}

/// The slab-graph edges for raw pairs: every structure that stores
/// weights loads the same seed-99 weights.
pub fn weighted_edges(raw: &[(u32, u32)]) -> Vec<Edge> {
    graph_gen::weighted(raw, 99)
        .into_iter()
        .map(Edge::from)
        .collect()
}

/// Device words for a baseline holding `ds` (doubled by callers that
/// store the mirrored graph).
pub fn baseline_words(ds: &graph_gen::Dataset) -> usize {
    (ds.edges.len() * 8).max(1 << 20)
}

/// The `GraphConfig` a slab graph (sharded or not) uses for a dataset, so
/// every build of it sizes the structure identically.
pub fn slab_config(ds: &graph_gen::Dataset, kind: TableKind, direction: Direction) -> GraphConfig {
    let mut c = GraphConfig::directed_map(ds.n_vertices);
    c.kind = kind;
    c.direction = direction;
    c.device_words = (ds.edges.len() * 12).max(1 << 20);
    c.pool_slabs = (ds.edges.len() / 64).max(1 << 10);
    c
}

/// Build the single-device slab-graph contender (directed map),
/// bulk-loaded identically to how [`build_backends`] registers it. The
/// readers-vs-writers scenario and the chaos reference build through this
/// so they see byte-identical initial state.
pub fn build_slab(ds: &graph_gen::Dataset) -> DynGraph {
    DynGraph::bulk_build(
        slab_config(ds, TableKind::Map, Direction::Directed),
        &weighted_edges(&ds.edges),
    )
}

/// Build the hash-partitioned contender: `n_shards` slab graphs over a
/// device group, bulk-loaded with the dataset (cut edges replicated).
pub fn build_sharded(ds: &graph_gen::Dataset, n_shards: usize) -> ShardedGraph {
    ShardedGraph::bulk_build(
        n_shards,
        slab_config(ds, TableKind::Map, Direction::Directed),
        &weighted_edges(&ds.edges),
    )
}

/// Run `build` with `profiler` as the process default profiler, then
/// restore the previous default: devices created inside get `profiler`,
/// devices created elsewhere are untouched.
pub fn with_default_profiler<T>(profiler: Option<ProfilerConfig>, build: impl FnOnce() -> T) -> T {
    let prev = default_profiler();
    set_default_profiler(profiler);
    let built = build();
    set_default_profiler(prev);
    built
}

/// Construct the registered backend set for a dataset, identically to
/// [`crate::churn::churn`] — one instance per structure, sized for the
/// dataset. The `profile` bin uses this so its timelines cover the same
/// builds. `shards >= 1` appends the `ShardedSlabGraph` contender at that
/// shard count; 0 omits it, leaving exactly one device per backend.
pub fn build_backends(ds: &graph_gen::Dataset, shards: usize) -> Vec<Box<dyn GraphBackend>> {
    let dw = baseline_words(ds);
    let mut backends: Vec<Box<dyn GraphBackend>> = vec![
        Box::new(Hornet::bulk_build(ds.n_vertices, &ds.edges, dw)),
        Box::new(FaimGraph::build(ds.n_vertices, &ds.edges, dw)),
        Box::new(build_slab(ds)),
        Box::new(Csr::build(ds.n_vertices, &ds.edges, dw)),
    ];
    if shards >= 1 {
        backends.push(Box::new(build_sharded(ds, shards)));
    }
    backends
}

/// Format a float with sensible precision for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_captures_counters() {
        let dev = Device::new(1 << 12);
        let p = dev.alloc_words(32, 32);
        let m = measure(&[&dev], || {
            dev.memset("bench_fill", p, 32, 1);
        });
        assert_eq!(m.trace.global.transactions, 1);
        assert!(m.modeled_s > 0.0);
    }

    #[test]
    fn phase_breakdown_sums_to_global() {
        let dev = Device::new(1 << 12);
        let p = dev.alloc_words(64, 32);
        let m = measure(&[&dev], || {
            dev.memset("phase_a", p, 64, 1);
            dev.launch_tasks("phase_b", 64, |warp| {
                let _ = warp.read_word(p);
            });
        });
        let report = m.report();
        assert_eq!(report.kernel_sum(), m.trace.global);
        assert_eq!(report.total.counters, m.trace.global);
        assert_eq!(report.rows.len(), 2);
        let parsed = TraceReport::from_json(&report.to_json().render_pretty()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn phase_over_devices_costs_the_makespan() {
        // Two devices doing unequal work: the phase costs the busier one,
        // while its counters are the sum over both.
        let (a, b) = (Device::new(1 << 12), Device::new(1 << 12));
        let (pa, pb) = (a.alloc_words(64, 32), b.alloc_words(512, 32));
        let (a0, b0) = (a.counters().snapshot(), b.counters().snapshot());
        let m = measure(&[&a, &b], || {
            a.memset("fill", pa, 64, 1);
            b.memset("fill", pb, 512, 1);
            b.launch_tasks("scan", 512, |warp| {
                let _ = warp.read_word(pb);
            });
        });
        let (da, db) = (
            a.counters().snapshot().delta(&a0),
            b.counters().snapshot().delta(&b0),
        );
        let model = CostModel::titan_v();
        assert!(model.seconds(&db) > model.seconds(&da));
        assert_eq!(m.modeled_s, model.seconds(&db));
        assert_eq!(m.trace.global, da + db);
        assert_eq!(m.report().kernel_sum(), m.trace.global);
        assert_eq!(m.trace.kernels.len(), 2, "`fill` merges across devices");
    }

    #[test]
    fn mrate_inverts_modeled_time() {
        let m = Measurement {
            modeled_s: 0.5,
            ..Measurement::default()
        };
        assert_eq!(m.mrate(1_000_000), 2.0);
        assert_eq!(m.modeled_ms(), 500.0);
    }

    #[test]
    fn table_renders_and_guards_arity() {
        let mut t = Table::new("t0", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("scaled");
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("note: scaled"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fnum_precision() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(42.25), "42.2");
        assert_eq!(fnum(1.23456), "1.235");
    }
}
