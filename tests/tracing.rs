//! Causal request tracing acceptance tests (DESIGN.md §18): every charged
//! kernel span that ran on behalf of client traffic names a submitted
//! client op, per-op latency attribution components sum to the end-to-end
//! modeled latency (and conserve the per-flush modeled time they were
//! apportioned from), the attribution reads the device clock and so does
//! not depend on a profiler being attached, flow events round-trip
//! through the Chrome-trace JSON across shard pids, and fault/rebuild
//! paths surface as backoff / `router.rebuild` components in the tail
//! exemplars.
//!
//! Tests that set the process-global default profiler serialize on one
//! mutex, same as tests/profiler.rs.

use dynamic_graphs_gpu::gpu_sim::profiler::set_default_profiler;
use dynamic_graphs_gpu::gpu_sim::{
    chrome_trace_json, op_flow_events, parse_chrome_trace, ProfilerConfig, TraceCtx,
};
use dynamic_graphs_gpu::graph_gen::splitmix64;
use dynamic_graphs_gpu::prelude::*;
use dynamic_graphs_gpu::router::OpTraceRecord;
use std::collections::BTreeSet;
use std::sync::Mutex;

const N: u32 = 256;

/// Serializes every test in this file (see module docs).
static GLOBAL_PROFILER_LOCK: Mutex<()> = Mutex::new(());

struct GlobalProfiler {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl GlobalProfiler {
    fn install(cfg: Option<ProfilerConfig>) -> Self {
        let guard = GLOBAL_PROFILER_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_default_profiler(cfg);
        GlobalProfiler { _guard: guard }
    }
}

impl Drop for GlobalProfiler {
    fn drop(&mut self) {
        set_default_profiler(None);
    }
}

fn cfg() -> GraphConfig {
    GraphConfig::directed_map(N)
        .with_device_words(1 << 18)
        .with_pool_slabs(1 << 8)
}

/// Seeded rounds of mixed traffic: inserts are fresh random pairs,
/// deletes target previously-inserted edges.
fn rounds(seed: u64, n_rounds: usize, per_round: usize) -> Vec<Vec<Update>> {
    let mut rng = seed;
    let mut live: Vec<(u32, u32)> = Vec::new();
    (0..n_rounds)
        .map(|_| {
            let mut round = Vec::with_capacity(per_round);
            for i in 0..per_round {
                if i % 4 == 3 && !live.is_empty() {
                    let (u, v) = live[(splitmix64(&mut rng) % live.len() as u64) as usize];
                    round.push(Update::Delete(Edge::new(u, v)));
                } else {
                    let u = (splitmix64(&mut rng) % N as u64) as u32;
                    let mut v = (splitmix64(&mut rng) % N as u64) as u32;
                    if v == u {
                        v = (v + 1) % N;
                    }
                    let w = (splitmix64(&mut rng) % 97 + 1) as u32;
                    live.push((u, v));
                    round.push(Update::Insert(Edge::weighted(u, v, w)));
                }
            }
            round
        })
        .collect()
}

fn component_sum(r: &OpTraceRecord) -> u64 {
    r.queue_ns + r.backoff_ns + r.kernel_ns + r.degraded_ns
}

/// The seeded mixed-churn acceptance scenario (4 shards, 8 writer
/// sessions, 2 reader sessions): every ctx-stamped charged span resolves
/// to a real client op, attribution components sum to the end-to-end
/// modeled latency,
/// and the kernel+backoff nanoseconds handed to ops conserve the
/// per-flush modeled time they were split from.
#[test]
fn churn_spans_resolve_to_client_ops_and_attribution_conserves() {
    let _prof = GlobalProfiler::install(Some(ProfilerConfig::default()));
    let shards = 4;
    let sessions = 8;
    let readers = 2;
    let g = ShardedGraph::new(shards, cfg());
    let router = BatchRouter::new(&g);

    let traffic = rounds(0x7A7A, 4, 160);
    let mut submitted: BTreeSet<u64> = BTreeSet::new();
    let mut flush_modeled_ns = 0.0f64;
    let mut rng = 0x51u64;
    for round in &traffic {
        for (i, &u) in round.iter().enumerate() {
            submitted.insert(router.submit(i % sessions, u));
        }
        // Traced reads between submit and flush: they advance the modeled
        // clock, so the flushed updates accrue nonzero queue latency. The
        // read sessions end before the flush.
        let pins: Vec<_> = (0..readers)
            .map(|r| router.pin_traced(sessions + r))
            .collect();
        for i in 0..4usize {
            let u = (splitmix64(&mut rng) % N as u64) as u32;
            let v = (splitmix64(&mut rng) % N as u64) as u32;
            let (_, q) = router.edge_exists_live(&pins[i % readers], u, v);
            assert_eq!(q, ReadQuality::Exact);
        }
        drop(pins);
        let report = router.flush();
        assert!(report.is_complete(), "healthy replay must fully apply");
        for so in &report.shards {
            flush_modeled_ns += so.modeled_s * 1e9;
        }
    }

    // Every submitted update completed and landed in the op log.
    let records = router.op_records();
    let done: BTreeSet<u64> = records.iter().map(|r| r.op).collect();
    for op in &submitted {
        assert!(done.contains(op), "op {op} never completed");
    }

    // Attribution: components sum to the op's end-to-end modeled latency,
    // and at least one flushed update observed nonzero queue time.
    for r in &records {
        assert_eq!(
            component_sum(r),
            r.total_ns(),
            "op {}: {{queue, backoff, kernel, degraded}} must sum \
             to the end-to-end total",
            r.op
        );
        assert!(!r.spans.is_empty(), "op {}: empty span chain", r.op);
    }
    assert!(
        records.iter().any(|r| r.queue_ns > 0),
        "reads between submit and flush advance the modeled clock, so \
         some update must accrue queue latency"
    );
    assert!(records.iter().any(|r| r.kind == "query"));

    // The per-component attribution is the report's `op.*_ns` metric
    // rows: with nothing evicted from the op log, each row counts every
    // logged op and sums that component over them exactly.
    let metrics = router.trace_report().metrics;
    let sum = |f: fn(&OpTraceRecord) -> u64| records.iter().map(f).sum::<u64>();
    for (name, want_sum) in [
        ("op.queue_ns", sum(|r| r.queue_ns)),
        ("op.backoff_ns", sum(|r| r.backoff_ns)),
        ("op.kernel_ns", sum(|r| r.kernel_ns)),
        ("op.degraded_ns", sum(|r| r.degraded_ns)),
        ("op.total_ns", sum(OpTraceRecord::total_ns)),
    ] {
        let row = metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name} row in the router's report"));
        assert_eq!(row.count, records.len() as u64, "{name} count");
        assert_eq!(row.sum, want_sum, "{name} sum");
    }

    // Conservation: the kernel+backoff nanoseconds distributed across
    // update ops equal the summed per-flush modeled time, up to 1 ns of
    // rounding per (op, shard) share handed out (an op waits on at most
    // two shards).
    let attributed: u64 = records
        .iter()
        .filter(|r| r.kind != "query")
        .map(|r| r.kernel_ns + r.backoff_ns)
        .sum();
    let slack = 2.0 * records.len() as f64;
    assert!(
        (attributed as f64 - flush_modeled_ns).abs() <= slack,
        "attributed {attributed} ns vs flushed {flush_modeled_ns:.1} ns \
         (slack {slack} ns)"
    );

    // Causality: every charged span stamped with a client session resolves
    // to an op from the log.
    let all_ops: BTreeSet<u64> = records.iter().map(|r| r.op).collect();
    let events = g.group().chrome_events(0);
    let mut traced_spans = 0usize;
    for e in events.iter().filter(|e| e.ph == "X") {
        let Some(op) = e.trace_arg("trace_op") else {
            continue;
        };
        if e.trace_arg("trace_session") == Some(TraceCtx::NO_SESSION) {
            continue; // router-internal direct dispatch (validate, counts)
        }
        traced_spans += 1;
        assert!(
            all_ops.contains(&op),
            "span {:?} claims op {op}, which no client submitted",
            e.name
        );
    }
    assert!(traced_spans > 0, "no ctx-stamped spans were charged");
}

/// The modeled clock belongs to the device, so attaching a profiler must
/// not change one op record: the same seeded traffic (a traced query
/// batch between submit and flush, then a shard kill and a journal
/// rebuild) yields identical records with and without profilers, with
/// nonzero queue time and nonzero rebuild time either way.
#[test]
fn op_records_do_not_depend_on_the_profiler() {
    let run = |profile: bool| {
        let _prof = GlobalProfiler::install(profile.then(ProfilerConfig::default));
        let victim = 1usize;
        let g = ShardedGraph::new(2, cfg());
        let router = BatchRouter::new(&g);
        let traffic = rounds(0xC10C, 2, 64);
        let mut rng = 0x9Eu64;
        for (r, round) in traffic.iter().enumerate() {
            if r == 1 {
                g.group()
                    .device(victim)
                    .set_fault_plan(FaultPlan::device_lost_at(1));
            }
            for (i, &u) in round.iter().enumerate() {
                router.submit(i % 4, u);
            }
            let pin = router.pin_traced(4);
            for _ in 0..8 {
                let u = (splitmix64(&mut rng) % N as u64) as u32;
                let v = (splitmix64(&mut rng) % N as u64) as u32;
                router.edge_exists_live(&pin, u, v);
            }
            drop(pin);
            assert_eq!(router.flush().is_complete(), r == 0);
        }
        assert_eq!(router.rebuild_downed().unwrap(), vec![victim]);
        router.op_records()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on, off, "a profiler must not change any op record");
    assert!(
        off.iter().any(|r| r.queue_ns > 0),
        "queries advance the clock"
    );
    let rebuilt: Vec<&OpTraceRecord> = off
        .iter()
        .filter(|r| r.spans.iter().any(|s| s.contains("router.rebuild")))
        .collect();
    assert!(!rebuilt.is_empty(), "the rebuild settles the held ops");
    for r in rebuilt {
        assert!(r.kernel_ns > 0, "op {}: rebuild replay costs time", r.op);
    }
}

/// Flow events synthesized from a real router run connect one op's spans
/// across shard pids, and the whole event stream (spans + flows)
/// round-trips exactly through the Chrome-trace JSON.
#[test]
fn flow_events_cross_shard_pids_and_round_trip() {
    let _prof = GlobalProfiler::install(Some(ProfilerConfig::default()));
    let g = ShardedGraph::new(3, cfg());
    let router = BatchRouter::new(&g);
    let traffic = rounds(0xF10, 2, 90);
    for round in &traffic {
        for (i, &u) in round.iter().enumerate() {
            router.submit(i % 4, u);
        }
        assert!(router.flush().is_complete());
    }
    // A fan-out read dispatches under one ctx on every shard: the flow for
    // that op must therefore hop across pids.
    let _ = g.num_edges();

    let mut events = g.group().chrome_events(0);
    let flows = op_flow_events(&events);
    assert!(!flows.is_empty(), "router traffic must produce flows");
    let mut cross_pid = false;
    for f in &flows {
        assert!(matches!(f.ph.as_str(), "s" | "t" | "f"));
        let op = f.flow_id.expect("flow events carry their op's flow id");
        let pids: BTreeSet<u64> = flows
            .iter()
            .filter(|g| g.flow_id == Some(op))
            .map(|g| g.pid)
            .collect();
        cross_pid |= pids.len() >= 2;
    }
    assert!(
        cross_pid,
        "at least one op's flow spans multiple shard pids"
    );

    events.extend(flows);
    let json = chrome_trace_json(&events);
    let parsed = parse_chrome_trace(&json).expect("trace JSON parses");
    assert_eq!(parsed, events, "Chrome-trace round-trip must be exact");
}

/// A transient kernel fault heals under the retry policy; the backoff the
/// router sat through is charged to the ops that were waiting, and the
/// slowest of them surfaces in the tail exemplars with a nonzero backoff
/// component.
#[test]
fn transient_fault_backoff_lands_in_tail_exemplars() {
    let _prof = GlobalProfiler::install(Some(ProfilerConfig::default()));
    let g = ShardedGraph::new(2, cfg());
    g.group()
        .device(1)
        .set_fault_plan(FaultPlan::transient_kernel(1, 3));
    let router = BatchRouter::with_policy(
        &g,
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 1e-4,
            multiplier: 2.0,
        },
    );
    let traffic = rounds(0xBAC0, 1, 80);
    for (i, &u) in traffic[0].iter().enumerate() {
        router.submit(i % 4, u);
    }
    let report = router.flush();
    assert!(report.is_complete(), "transient fault heals within budget");

    let exemplars = router.tail_exemplars();
    assert!(!exemplars.is_empty());
    let with_backoff = exemplars.iter().find(|r| r.backoff_ns > 0);
    let victim = with_backoff.expect("a tail exemplar shows the backoff component");
    assert_eq!(component_sum(victim), victim.total_ns());
    assert!(
        victim.spans.iter().any(|s| s.contains("backoff")),
        "the exemplar's span chain names the backoff: {:?}",
        victim.spans
    );

    // The backoff reaches the report's attribution rows, and the
    // exemplar's rendering carries its breakdown and whole span chain.
    let metrics = router.trace_report().metrics;
    let backoff = metrics.iter().find(|m| m.name == "op.backoff_ns");
    assert!(backoff.expect("an op.backoff_ns row").sum > 0);
    let rendered = victim.to_string();
    let header = format!(
        "op {} ({}, session {}): {} ns = queue {} + backoff {} + kernel {} + degraded {}",
        victim.op,
        victim.kind,
        victim.session,
        victim.total_ns(),
        victim.queue_ns,
        victim.backoff_ns,
        victim.kernel_ns,
        victim.degraded_ns
    );
    assert!(rendered.starts_with(&header), "{rendered}");
    for span in &victim.spans {
        assert!(rendered.contains(&format!("\n    {span}")), "{rendered}");
    }
}

/// A lost shard's held ops stay open across the outage and settle at
/// journal rebuild: the rebuild duration is charged to them and their
/// lifecycle records a `router.rebuild` span.
#[test]
fn rebuild_settles_held_ops_with_a_rebuild_span() {
    let _prof = GlobalProfiler::install(Some(ProfilerConfig::default()));
    let shards = 3;
    let victim = 1usize;
    let g = ShardedGraph::new(shards, cfg());
    let router = BatchRouter::new(&g);
    let traffic = rounds(0xDEAD, 3, 100);
    let mut submitted: BTreeSet<u64> = BTreeSet::new();
    for (r, round) in traffic.iter().enumerate() {
        if r == 1 {
            g.group()
                .device(victim)
                .set_fault_plan(FaultPlan::device_lost_at(1));
        }
        for (i, &u) in round.iter().enumerate() {
            submitted.insert(router.submit(i % 4, u));
        }
        let report = router.flush();
        if r >= 1 {
            assert!(!report.is_complete(), "victim work is held");
        }
    }
    let held_before: Vec<u64> = {
        let done: BTreeSet<u64> = router.op_records().iter().map(|r| r.op).collect();
        submitted
            .iter()
            .copied()
            .filter(|o| !done.contains(o))
            .collect()
    };
    assert!(!held_before.is_empty(), "the outage must strand some ops");

    let rebuilt = router.rebuild_downed().expect("rebuild passes the audit");
    assert_eq!(rebuilt, vec![victim]);

    let records = router.op_records();
    let done: BTreeSet<u64> = records.iter().map(|r| r.op).collect();
    for op in &held_before {
        assert!(done.contains(op), "op {op} still open after rebuild");
    }
    let rebuilt_ops: Vec<&OpTraceRecord> = records
        .iter()
        .filter(|r| r.spans.iter().any(|s| s.contains("router.rebuild")))
        .collect();
    assert!(
        !rebuilt_ops.is_empty(),
        "settled ops record the rebuild span that completed them"
    );
    for r in &rebuilt_ops {
        assert_eq!(component_sum(r), r.total_ns());
    }
    assert!(
        router.tail_exemplars().iter().any(|r| r
            .spans
            .iter()
            .any(|s| s.contains("router.rebuild"))
            || r.backoff_ns > 0),
        "a tail exemplar shows a backoff or rebuild component"
    );
}
