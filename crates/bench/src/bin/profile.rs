//! Profiled churn replay: run the churn operation stream against every
//! backend and through the batch router over a sharded graph (two shards
//! unless `--shards` says otherwise) with the device timeline profiler
//! attached, then export one merged Chrome Trace Event Format file (one
//! pid per backend and per shard) plus a rendered per-phase / per-metric
//! summary.
//!
//! ```text
//! cargo run -p bench --release --bin profile -- --scale 4096
//! ```
//!
//! The trace lands in `target/profile/churn.trace.json`; load it at
//! <https://ui.perfetto.dev> (or chrome://tracing) to inspect per-kernel
//! spans, host phases, and allocator instants on the modeled clock, with
//! flow arrows linking each client op's spans across shard pids.

use backend::GraphBackend;
use bench::churn::ChurnConfig;
use bench::harness::{build_backends, build_sharded, stream_for};
use bench::sharded::traffic_for;
use gpu_sim::profiler::{
    chrome_trace_json, op_flow_events, parse_chrome_trace, set_default_profiler,
};
use gpu_sim::{CostModel, Device, Profiler, ProfilerConfig, TraceCtx, TraceReport};
use router::BatchRouter;
use std::collections::{BTreeMap, BTreeSet};

/// Check `dev`'s span accounting and return its launch count: one
/// timeline span per kernel launch, no kernel or host span dropped, and
/// both the span durations and the device's modeled clock agreeing with
/// the cost model applied to the device's total counters to within one
/// launch quantum (kernel spans plus host spans partition all costed
/// work, and this replay has no waits).
fn check_spans(who: &str, dev: &Device, prof: &Profiler) -> u64 {
    let timeline = prof.timeline();
    let stats = timeline.stats;
    let launches = dev.counters().snapshot().launches;
    assert_eq!(
        stats.spans_recorded, launches,
        "{who}: one timeline span per kernel launch"
    );
    assert_eq!(
        stats.spans_dropped + stats.host_spans_dropped,
        0,
        "{who}: span rings must not drop at this scale"
    );
    let span_total: f64 = timeline
        .spans
        .iter()
        .chain(&timeline.host_spans)
        .map(|s| s.dur_s)
        .sum();
    let clock = dev.clock_s();
    assert!(
        (span_total - clock).abs() <= 5e-6,
        "{who}: span durations sum to {span_total}s but the device clock reads {clock}s"
    );
    let modeled = CostModel::titan_v().seconds(&dev.counters().snapshot());
    assert!(
        (span_total - modeled).abs() <= 5e-6,
        "{who}: span durations sum to {span_total}s but the cost model says {modeled}s"
    );
    launches
}

fn main() {
    // Two shards by default, so the routed replay has flows to draw
    // between shard pids.
    let mut cfg = ChurnConfig {
        shards: 2,
        ..ChurnConfig::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--dataset" => cfg.dataset = val("--dataset"),
            "--rounds" => cfg.rounds = val("--rounds").parse().expect("--rounds: integer"),
            "--ops" => cfg.ops_per_round = val("--ops").parse().expect("--ops: integer"),
            "--seed" => cfg.seed = val("--seed").parse().expect("--seed: integer"),
            "--scale" => cfg.scale = Some(val("--scale").parse().expect("--scale: vertices")),
            "--shards" => cfg.shards = val("--shards").parse().expect("--shards: integer"),
            "--sessions" => cfg.sessions = val("--sessions").parse().expect("--sessions: integer"),
            other => {
                eprintln!(
                    "unknown flag {other}; known: --dataset --rounds --ops --seed --scale --shards --sessions"
                );
                std::process::exit(2);
            }
        }
    }

    // Attach a profiler to every device built from here on — including the
    // ones baselines construct internally — before any backend exists.
    // Large rings so a full churn replay never drops span events.
    set_default_profiler(Some(ProfilerConfig::default().with_ring_capacity(1 << 20)));

    let (ds, stream) = stream_for(&cfg);
    let mut all_events = Vec::new();
    let mut total_launches = 0u64;
    let mut next_pid = 0u64;

    for (pid, mut g) in build_backends(&ds, 0).into_iter().enumerate() {
        let name = g.name();
        let caps = g.caps();
        if caps.insert_edges && caps.delete_edges {
            for round in &stream {
                {
                    let _p = g.device().phase("churn.insert");
                    g.insert_edges(&round.ins);
                }
                {
                    let _p = g.device().phase("churn.delete");
                    g.delete_edges(&round.del);
                }
                {
                    let _p = g.device().phase("churn.query");
                    let _ = g.edges_exist(&g.pin_read(), &round.qry);
                }
            }
        } else {
            println!(
                "[{name}] capabilities do not cover the churn stream; profiling the build only"
            );
        }

        let prof = g
            .device()
            .profiler()
            .expect("default profiler attached before backend construction")
            .clone();
        total_launches += check_spans(name, g.device(), &prof);

        let report = TraceReport::new(&g.device().trace()).with_metrics(prof.metric_summaries());
        println!("== {name}: profiled churn (build + stream) ==");
        println!("{}", report.render());

        all_events.extend(prof.chrome_events(pid as u64));
        next_pid = next_pid.max(pid as u64 + 1);
    }

    // Sharded replay through the batch router: multi-tenant traffic is
    // coalesced per shard and dispatched concurrently, so the per-shard
    // pids below show the flush kernels overlapping on the modeled clock.
    let shards = cfg.shards.max(1);
    let g = build_sharded(&ds, shards);
    let router = BatchRouter::new(&g);
    for round in &traffic_for(&cfg, &ds, shards) {
        round.submit(&router);
        let report = router.flush();
        assert!(
            report.is_complete(),
            "profiled flush hit the memory ceiling"
        );
        let _ = g.edges_exist(&g.pin_read(), &round.qry);
    }
    g.validate()
        .expect("cross-shard audit after profiled replay");

    for (s, dev) in g.group().devices().iter().enumerate() {
        let prof = dev
            .profiler()
            .expect("default profiler attached before shard construction");
        total_launches += check_spans(&format!("shard {s}"), dev, prof);
    }
    // One pid per shard, after the backend pids, so the overlap between
    // shards of one flush is visible side by side.
    let shard_events = g.group().chrome_events(next_pid);
    all_events.extend(shard_events);
    println!(
        "== ShardedSlabGraph ({shards} shard(s), {} session(s)): routed replay ==",
        cfg.sessions.max(1)
    );
    println!("{}", g.group().merged_report().render());
    println!("{}", router.report().render());

    // Flow arrows chain the spans of each (session, op) across pids. The
    // graph's session-less fan-outs (build, batched reads) run on every
    // shard, so with two or more shards some flow must span two shard
    // pids. Client ops stay on one shard here (each shard's flush carries
    // its own journal's first op), but they must still get flows, or the
    // routed replay lost its trace contexts.
    let mut op_span_pids: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    for e in all_events.iter().filter(|e| e.ph == "X") {
        if let (Some(session), Some(op)) = (e.trace_arg("trace_session"), e.trace_arg("trace_op")) {
            op_span_pids.entry((session, op)).or_default().push(e.pid);
        }
    }
    let cross_shard = op_span_pids
        .values()
        .filter(|pids| pids.iter().collect::<BTreeSet<_>>().len() >= 2)
        .count();
    assert!(
        shards < 2 || cross_shard > 0,
        "no op's spans span two shard pids"
    );
    let client_flows = op_span_pids
        .iter()
        .filter(|((session, _), pids)| *session != TraceCtx::NO_SESSION && pids.len() >= 2)
        .count();
    assert!(
        client_flows > 0,
        "no client op has a flow: the routed replay lost its trace contexts"
    );
    let flows = op_flow_events(&all_events);
    all_events.extend(flows);

    let json = chrome_trace_json(&all_events);
    let parsed = parse_chrome_trace(&json).expect("emitted trace must parse back");
    assert_eq!(parsed.len(), all_events.len(), "trace round-trip count");

    let dir = std::path::Path::new("target/profile");
    std::fs::create_dir_all(dir).expect("create target/profile");
    let path = dir.join("churn.trace.json");
    std::fs::write(&path, &json).expect("write trace file");
    println!(
        "trace OK: {total_launches} spans == {total_launches} launches, \
         {cross_shard} cross-shard flow(s), {client_flows} client-op flow(s), {} events -> {}",
        all_events.len(),
        path.display()
    );
    println!("load it at https://ui.perfetto.dev (Open trace file) or chrome://tracing");
}
