//! Byte-exact goldens for the report and trace renderers.
//!
//! `TraceReport::render`, `TraceReport::to_json` and `chrome_trace_json`
//! feed committed artifacts and downstream parsers, so their output is
//! pinned byte for byte against files under `testdata/`. A renderer change
//! that alters any byte fails here; regenerate a golden only for an
//! intended format change.

use gpu_sim::sanitizer::NO_WARP;
use gpu_sim::{
    chrome_trace_json, CounterSnapshot, Device, DeviceConfig, Finding, FindingKind, KernelStats,
    MetricKind, MetricSummary, ProfilerConfig, TraceCtx, TraceReport, TraceSnapshot,
};

fn counters(seed: u64) -> CounterSnapshot {
    CounterSnapshot {
        transactions: 1000 * seed + 7,
        atomics: 30 * seed + 1,
        ballots: 200 * seed,
        shuffles: 5 * seed + 2,
        launches: seed,
        warps: 12 * seed + 3,
        words_allocated: 4096 * seed,
    }
}

/// A report with every section non-empty.
fn full_report() -> TraceReport {
    let (a, b, host) = (counters(3), counters(1), counters(0));
    let trace = TraceSnapshot {
        global: CounterSnapshot {
            transactions: a.transactions + b.transactions + host.transactions,
            atomics: a.atomics + b.atomics + host.atomics,
            ballots: a.ballots + b.ballots + host.ballots,
            shuffles: a.shuffles + b.shuffles + host.shuffles,
            launches: a.launches + b.launches + host.launches,
            warps: a.warps + b.warps + host.warps,
            words_allocated: a.words_allocated + b.words_allocated + host.words_allocated,
        },
        kernels: vec![
            KernelStats {
                name: "edge_delete",
                counters: b,
            },
            KernelStats {
                name: "(host)",
                counters: host,
            },
            KernelStats {
                name: "edge_insert",
                counters: a,
            },
        ],
    };
    TraceReport::new(&trace)
        .with_findings(vec![
            Finding {
                kind: FindingKind::RaceWriteWrite,
                addr: 0x40,
                kernel: "edge_insert".into(),
                warp: 3,
                era: 7,
                other_kernel: "edge_insert".into(),
                other_warp: 5,
                note: "plain write races with plain write by `edge_insert` (warp 5)".into(),
            },
            Finding {
                kind: FindingKind::UseAfterFree,
                addr: 0x80,
                kernel: "(host)".into(),
                warp: NO_WARP,
                era: 0,
                other_kernel: String::new(),
                other_warp: NO_WARP,
                note: "freed slab".into(),
            },
        ])
        .with_metrics(vec![
            MetricSummary {
                name: "slab_hash.probe_depth".into(),
                kind: MetricKind::Histogram,
                count: 1000,
                sum: 1700,
                max: 9,
                p50: 1,
                p95: 4,
                p99: 8,
            },
            MetricSummary {
                name: "slab_alloc.live_slabs".into(),
                kind: MetricKind::Gauge,
                count: 64,
                sum: 12,
                max: 48,
                p50: 12,
                p95: 12,
                p99: 12,
            },
        ])
}

#[test]
fn report_render_is_byte_identical_to_golden() {
    assert_eq!(
        full_report().render(),
        include_str!("../testdata/trace_report.txt")
    );
}

#[test]
fn report_json_is_byte_identical_to_golden() {
    let report = full_report();
    let json = report.to_json().render_pretty();
    assert_eq!(json, include_str!("../testdata/trace_report.json"));
    assert_eq!(TraceReport::from_json(&json).unwrap(), report);
}

/// Charge every event of `c` through one handle.
fn charge_all(dev: &Device, name: &'static str, c: CounterSnapshot) {
    let h = dev.charge(name);
    h.add_transactions(c.transactions);
    h.add_atomics(c.atomics);
    h.add_ballots(c.ballots);
    h.add_shuffles(c.shuffles);
    h.add_launches(c.launches);
    h.add_warps(c.warps);
    h.add_words_allocated(c.words_allocated);
}

#[test]
fn chrome_trace_is_byte_identical_to_golden() {
    let dev = Device::with_config(DeviceConfig::new(64).with_profiler(ProfilerConfig::default()));
    // One kernel span of `counters(2)`: the fused scope charges one of its
    // two launches, the nested charge the rest.
    let kernel = counters(2);
    dev.fused_scope("edge_insert", || {
        charge_all(
            &dev,
            "edge_insert",
            CounterSnapshot {
                launches: kernel.launches - 1,
                ..kernel
            },
        )
    });
    // Then one traced host span: a top-level charge carrying no launch.
    {
        let _trace = dev.trace_scope(TraceCtx::root(4, 9));
        charge_all(&dev, "(host)", counters(0));
    }
    let prof = dev.profiler().unwrap();
    assert_eq!(
        chrome_trace_json(&prof.chrome_events(7)),
        include_str!("../testdata/chrome_trace.json")
    );
}
