//! Attribution invariants for the named-kernel trace registry: per-kernel
//! counters must always partition the global counters exactly, and the
//! per-kernel profile of a batched workload must not depend on the
//! executor (sequential vs. racing host threads).

use dynamic_graphs_gpu::gpu_sim::{ExecPolicy, KernelStats, TraceReport};
use dynamic_graphs_gpu::prelude::*;

fn workload(policy: ExecPolicy) -> Vec<KernelStats> {
    let n = 128u32;
    let mut cfg = GraphConfig::directed_map(n);
    cfg.device_words = 1 << 20;
    let mut g = DynGraph::with_uniform_buckets(cfg, n, 1);
    g.device_mut().set_policy(policy);

    for round in 0..3u64 {
        let ins: Vec<Edge> = insert_batch(n, 800, round)
            .into_iter()
            .map(|(u, v)| Edge::weighted(u, v, u ^ v))
            .collect();
        g.insert_edges(&ins);
        let del: Vec<Edge> = insert_batch(n, 300, 90 + round)
            .into_iter()
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        g.delete_edges(&del);
    }
    g.delete_vertices(&[1, 5, 9]);
    let _ = g.read_neighbors(&g.pin_read(), &[3]);
    let _ = g.edge_exists(&g.pin_read(), 2, 7);
    g.device().trace().kernels
}

#[test]
fn kernel_counters_partition_the_global_counters() {
    let n = 64u32;
    let mut cfg = GraphConfig::undirected_map(n);
    cfg.device_words = 1 << 20;
    let g = DynGraph::with_uniform_buckets(cfg, n, 1);
    let edges: Vec<Edge> = insert_batch(n, 500, 7)
        .into_iter()
        .map(|(u, v)| Edge::weighted(u, v, 1))
        .collect();
    g.insert_edges(&edges);
    g.delete_edges(&edges[..100]);
    g.delete_vertices(&[2, 4]);
    g.check_invariants();

    let trace = g.device().trace();
    assert_eq!(
        trace.kernel_sum(),
        trace.global,
        "per-kernel counters must sum to the global counters"
    );

    // And the derived report preserves the partition through rendering,
    // JSON, and back.
    let report = TraceReport::new(&trace);
    assert_eq!(report.kernel_sum(), trace.global);
    let round = TraceReport::from_json(&report.to_json().render_pretty()).unwrap();
    assert_eq!(round, report);
    assert!(report.render().contains("edge_insert"));
}

#[test]
fn per_kernel_profile_is_executor_independent() {
    // Contention retries are charged per *logical* probe step (lost CAS
    // races abort their speculative charges and the re-probe charges what
    // a sequential loser would), so launches, warps, shuffles, and
    // allocation are exactly executor-independent. What remains is state
    // divergence, not retry charging: when racing warps claim slots in a
    // different order than the sequential executor, a key can settle one
    // slab earlier/later in its chain, shifting later walks to it by a
    // slab (±1 transaction, ±2 ballots each), and a cross-warp duplicate
    // race can move a group's two count-update atomics to a different
    // group (±2 atomics each). Both are bounded by the handful of
    // cross-warp duplicate keys per batch; we spec |Δ| ≤ max(16, 0.2 %)
    // per kernel for those three counters and require exact equality for
    // everything else.
    let bound = |seq: u64| 16u64.max(seq / 512);
    let within = |s: u64, t: u64| s.abs_diff(t) <= bound(s);
    let seq = workload(ExecPolicy::Sequential);
    for threads in [2, 4] {
        let thr = workload(ExecPolicy::Threaded(threads));
        assert_eq!(
            seq.len(),
            thr.len(),
            "threaded({threads}) registered a different kernel set"
        );
        for (s, t) in seq.iter().zip(&thr) {
            assert_eq!(s.name, t.name, "kernel registration order diverged");
            assert_eq!(
                (
                    s.counters.launches,
                    s.counters.warps,
                    s.counters.shuffles,
                    s.counters.words_allocated
                ),
                (
                    t.counters.launches,
                    t.counters.warps,
                    t.counters.shuffles,
                    t.counters.words_allocated
                ),
                "threaded({threads}) kernel {:?} launch-shape counters diverged",
                s.name
            );
            assert!(
                within(s.counters.transactions, t.counters.transactions)
                    && within(s.counters.atomics, t.counters.atomics)
                    && within(s.counters.ballots, t.counters.ballots),
                "threaded({threads}) kernel {:?} counters diverged beyond the \
                 placement-drift bound: seq {:?} vs threaded {:?}",
                s.name,
                s.counters,
                t.counters
            );
        }
    }
}

#[test]
fn every_launch_is_attributed_to_a_named_kernel() {
    // After a full workload, no counters may remain unattributed: the sum
    // of named-kernel launches equals the global launch count, and host
    // allocations are attributed to the designated host pseudo-kernel.
    let kernels = workload(ExecPolicy::Sequential);
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    for expected in ["graph_init", "edge_insert", "edge_delete", "vertex_delete"] {
        assert!(
            names.contains(&expected),
            "expected kernel {expected:?} in {names:?}"
        );
    }
    assert!(
        names.contains(&dynamic_graphs_gpu::gpu_sim::HOST_KERNEL),
        "host-side allocations must be attributed to {:?}",
        dynamic_graphs_gpu::gpu_sim::HOST_KERNEL
    );
}

#[test]
fn report_json_round_trips_sanitizer_findings_exactly() {
    // Findings from a real sanitized run (not hand-built structs) must
    // survive render → JSON → parse with every provenance field intact.
    use dynamic_graphs_gpu::gpu_sim::{Device, DeviceConfig, SanitizerConfig};
    let dev =
        Device::with_config(DeviceConfig::new(1 << 12).with_sanitizer(SanitizerConfig::default()));
    let c = dev.alloc_words(1, 1);
    dev.host_write(c, &[0]);
    dev.launch_tasks("torn", 64, |warp| {
        let v = warp.read_word(c);
        warp.write_word(c, v + 1);
    });
    let findings = dev.sanitizer_findings();
    assert!(!findings.is_empty());

    let report = TraceReport::new(&dev.trace()).with_findings(findings.clone());
    let json = report.to_json().render_pretty();
    assert!(json.contains("\"sanitizer_findings\""));
    let round = TraceReport::from_json(&json).unwrap();
    assert_eq!(round, report, "exact round-trip including findings");
    assert_eq!(round.findings, findings);
    assert!(report
        .render()
        .contains(&format!("sanitizer findings ({})", findings.len())));
}
