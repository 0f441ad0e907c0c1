//! Integration fixtures for the device timeline profiler (DESIGN.md §14):
//! proof that an attached profiler never perturbs performance counters or
//! trace reports, span-per-launch accounting over a real graph workload,
//! exact Chrome-trace round-trips, and host-phase range recording.
//!
//! Tests that rely on the process-global default-profiler hook serialize
//! on one mutex: `DeviceConfig::default()` consults the global at
//! construction time, so concurrent tests would otherwise observe each
//! other's profilers.

use dynamic_graphs_gpu::backend::GraphBackend;
use dynamic_graphs_gpu::baselines::Hornet;
use dynamic_graphs_gpu::gpu_sim::profiler::set_default_profiler;
use dynamic_graphs_gpu::gpu_sim::{
    chrome_trace_json, parse_chrome_trace, Addr, CostModel, Device, DeviceConfig, ProfilerConfig,
    TraceReport,
};
use dynamic_graphs_gpu::graph_gen;
use dynamic_graphs_gpu::prelude::*;
use dynamic_graphs_gpu::slab_alloc::SlabAllocator;
use std::sync::Mutex;

/// Serializes every test in this file (see module docs).
static GLOBAL_PROFILER_LOCK: Mutex<()> = Mutex::new(());

/// Sets the global default profiler for a scope; always clears it on drop
/// so a failing test cannot leak a profiler into later constructions.
struct GlobalProfiler {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl GlobalProfiler {
    fn install(cfg: ProfilerConfig) -> Self {
        let guard = GLOBAL_PROFILER_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_default_profiler(Some(cfg));
        GlobalProfiler { _guard: guard }
    }
}

impl Drop for GlobalProfiler {
    fn drop(&mut self) {
        set_default_profiler(None);
    }
}

/// A mixed slab workload touching every counter class, identical to the
/// sanitizer parity fixture's shape.
fn mixed_workload(dev: &Device) {
    let alloc = SlabAllocator::new(dev, 256);
    let slabs = Mutex::new(Vec::new());
    let _phase = dev.phase("mix_phase");
    dev.launch_tasks("mix", 64, |warp| {
        let a = alloc.allocate(warp);
        let lanes = warp.read_slab(a);
        warp.write_slab(a, &lanes);
        warp.atomic_add(a, 1);
        slabs.lock().unwrap().push(a);
    });
    let frees: Vec<Addr> = slabs.into_inner().unwrap();
    dev.launch_warps("reclaim", 1, |warp| {
        for &a in &frees {
            alloc.free(warp, a).unwrap();
        }
    });
}

/// The profiler obeys the same discipline as the sanitizer: attaching it
/// must leave the global counters, every kernel's counters, the rendered
/// trace-report JSON, and the device's modeled clock identical.
#[test]
fn attached_profiler_never_perturbs_counters() {
    let _lock = GLOBAL_PROFILER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let run = |profile: bool| {
        let mut cfg = DeviceConfig::new(1 << 16);
        if profile {
            cfg = cfg.with_profiler(ProfilerConfig::default());
        }
        let dev = Device::with_config(cfg);
        mixed_workload(&dev);
        (dev.trace(), dev.clock_s())
    };
    let ((on, on_clock), (off, off_clock)) = (run(true), run(false));
    assert_eq!(on_clock, off_clock, "the clock runs without a profiler");
    assert_eq!(on.global, off.global);
    assert_eq!(on.kernels.len(), off.kernels.len());
    for (a, b) in on.kernels.iter().zip(off.kernels.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.counters, b.counters);
    }
    assert_eq!(
        TraceReport::new(&on).to_json().render_pretty(),
        TraceReport::new(&off).to_json().render_pretty(),
        "bench-facing report JSON must be byte-identical"
    );
}

/// Span-per-launch accounting over a real dynamic-graph workload: the
/// slab structure and a baseline, both picking the profiler up from the
/// process-global default exactly as the `profile` bin attaches it.
#[test]
fn graph_workload_spans_partition_modeled_time() {
    let _global = GlobalProfiler::install(ProfilerConfig::default());
    let ds = graph_gen::catalog::dataset("luxembourg_osm")
        .unwrap()
        .generate(512, 7);
    let batch: Vec<(u32, u32)> = (0..64).map(|i| (i as u32 % 500, 500 + i as u32)).collect();

    let check = |mut g: Box<dyn GraphBackend>| {
        let name = g.name();
        g.insert_edges(&batch);
        g.delete_edges(&batch[..32]);
        let _ = g.edges_exist(&g.pin_read(), &batch);
        let prof = g.device().profiler().expect("global default attached");
        let t = prof.timeline();
        let launches = g.device().counters().snapshot().launches;
        assert_eq!(
            t.stats.spans_recorded, launches,
            "{name}: one kernel span per launch"
        );
        assert_eq!(
            t.stats.spans_dropped + t.stats.host_spans_dropped,
            0,
            "{name}: nothing dropped at this scale"
        );
        let span_total: f64 = t.spans.iter().chain(&t.host_spans).map(|s| s.dur_s).sum();
        let modeled = CostModel::titan_v().seconds(&g.device().counters().snapshot());
        assert!(
            (span_total - modeled).abs() <= 5e-6,
            "{name}: spans sum to {span_total}s, model says {modeled}s"
        );
        assert!(
            (g.device().clock_s() - span_total).abs() <= 1e-12,
            "{name}: the modeled clock is exactly the span total"
        );
    };

    let cfg = slabgraph::GraphConfig::directed_map(ds.n_vertices);
    let edges: Vec<slabgraph::Edge> = graph_gen::weighted(&ds.edges, 3)
        .into_iter()
        .map(slabgraph::Edge::from)
        .collect();
    let slab = DynGraph::bulk_build(cfg, &edges);
    // The slab structure's phases arrive through the same profiler.
    let prof = slab.device().profiler().unwrap().clone();
    check(Box::new(slab));
    let phases: Vec<&str> = prof.timeline().phases.iter().map(|p| p.name).collect();
    for expected in ["bulk_build", "bulk_build.insert", "edge_insert_batch"] {
        assert!(
            phases.contains(&expected),
            "missing phase {expected}: {phases:?}"
        );
    }
    // The only lookups are the batch's `edges_exist` probes, grouped by
    // source into shared chain walks: still one depth sample per probe.
    let probes = prof
        .metric_summaries()
        .into_iter()
        .find(|m| m.name == "slab_hash.probe_depth")
        .expect("probe-depth histogram populated by queries");
    assert_eq!(probes.count, batch.len() as u64, "one sample per probe");

    check(Box::new(Hornet::bulk_build(
        ds.n_vertices,
        &ds.edges,
        1 << 20,
    )));
}

/// The Chrome Trace Event export round-trips exactly: every span, host
/// span, phase, and instant survives serialize → parse unchanged.
#[test]
fn chrome_trace_round_trips_exactly() {
    let _lock = GLOBAL_PROFILER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let dev =
        Device::with_config(DeviceConfig::new(1 << 16).with_profiler(ProfilerConfig::default()));
    mixed_workload(&dev); // spans + a phase + allocator instants
    let prof = dev.profiler().unwrap();
    let t = prof.timeline();
    assert!(!t.spans.is_empty() && !t.phases.is_empty() && !t.instants.is_empty());

    let events = prof.chrome_events(3);
    assert_eq!(
        events.len(),
        t.spans.len() + t.host_spans.len() + t.phases.len() + t.instants.len()
    );
    let json = chrome_trace_json(&events);
    let parsed = parse_chrome_trace(&json).expect("own export must parse");
    assert_eq!(parsed, events, "exact round-trip");
    assert!(parsed.iter().all(|e| e.pid == 3));

    // Malformed documents fail with named fields, never panic.
    assert!(parse_chrome_trace("{}").is_err());
    assert!(parse_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}")
        .unwrap_err()
        .contains("dur"));
    assert!(parse_chrome_trace("{\"traceEvents\": [{\"ph\": \"i\"}]}")
        .unwrap_err()
        .contains("name"));
}

/// Host-phase guards: nested ranges land on the timeline with their
/// durations folded into per-phase `phase.<name>` histograms, and the
/// metric summaries surface p50/p95/max through the trace report.
#[test]
fn phase_guards_record_ranges_and_histograms() {
    let _lock = GLOBAL_PROFILER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let dev =
        Device::with_config(DeviceConfig::new(1 << 14).with_profiler(ProfilerConfig::default()));
    let p = dev.alloc_words(64, 32);
    {
        let _outer = dev.phase("outer");
        for _ in 0..3 {
            let _inner = dev.phase("inner");
            dev.memset("fill", p, 64, 0);
        }
    }
    let prof = dev.profiler().unwrap();
    let t = prof.timeline();
    let inner: Vec<_> = t.phases.iter().filter(|p| p.name == "inner").collect();
    let outer: Vec<_> = t.phases.iter().filter(|p| p.name == "outer").collect();
    assert_eq!(inner.len(), 3);
    assert_eq!(outer.len(), 1);
    let inner_total: f64 = inner.iter().map(|p| p.dur_s).sum();
    assert!(
        outer[0].dur_s >= inner_total - 1e-12,
        "outer range covers its nested ranges"
    );

    let summaries = prof.metric_summaries();
    let hist = summaries
        .iter()
        .find(|m| m.name == "phase.inner")
        .expect("per-phase histogram");
    assert_eq!(hist.count, 3);
    assert!(hist.max >= hist.p50);

    // The report renders the phase statistics for the summary table.
    let report = TraceReport::new(&dev.trace()).with_metrics(summaries);
    let rendered = report.render();
    assert!(rendered.contains("phase.inner"), "{rendered}");
    assert!(rendered.contains("p95"), "{rendered}");
}
