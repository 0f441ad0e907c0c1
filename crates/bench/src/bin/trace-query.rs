//! trace-query — replay the seeded multi-tenant churn stream through the
//! batch router and print causal op lifecycles.
//!
//! Every client update and traced query carries a `TraceCtx`; the router
//! folds each one into a lifecycle record with a per-component latency
//! breakdown `{queue, backoff, kernel, degraded}` on the
//! modeled clock. This bin is the CLI over that op log: reconstruct one
//! op (`--op`), one tenant's traffic (`--session`), or the tail
//! (`--slowest N`).
//!
//! ```text
//! cargo run -p bench --release --bin trace-query -- \
//!     --shards 4 --sessions 8 --readers 2 --slowest 5
//! ```

use bench::churn::ChurnConfig;
use bench::harness::{build_sharded, dataset_for, fnum, with_default_profiler};
use bench::sharded::traffic_for;
use gpu_sim::ProfilerConfig;
use router::{BatchRouter, OpTraceRecord};

fn main() {
    let mut cfg = ChurnConfig {
        shards: 4,
        sessions: 8,
        readers: 2,
        ..ChurnConfig::default()
    };
    let mut op_filter: Option<u64> = None;
    let mut session_filter: Option<u64> = None;
    let mut slowest: Option<usize> = None;
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
            "--readers" => cfg.readers = val("--readers").parse().expect("--readers: integer"),
            "--op" => op_filter = Some(val("--op").parse().expect("--op: op id")),
            "--session" => {
                session_filter = Some(val("--session").parse().expect("--session: session id"))
            }
            "--slowest" => slowest = Some(val("--slowest").parse().expect("--slowest: count")),
            other => {
                eprintln!(
                    "unknown flag {other}; known: --dataset --rounds --ops --seed --scale \
                     --shards --sessions --readers --op --session --slowest"
                );
                std::process::exit(2);
            }
        }
    }

    let ds = dataset_for(&cfg);
    let traffic = traffic_for(&cfg, &ds, cfg.shards);
    // Attach profilers so the merged report carries the shards' metric
    // rows next to the router's op attribution.
    let g = with_default_profiler(Some(ProfilerConfig::default()), || {
        build_sharded(&ds, cfg.shards)
    });
    let router = BatchRouter::new(&g);

    // Replay: each round submits every session's updates, flushes, then
    // the reader sessions (numbered after the writers) issue traced
    // membership queries against the round's query batch.
    let readers = cfg.readers.max(1);
    for round in &traffic {
        round.submit(&router);
        let report = router.flush();
        assert!(report.is_complete(), "trace-query replay hit a fault");
        let pins: Vec<_> = (0..readers)
            .map(|r| router.pin_traced(cfg.sessions + r))
            .collect();
        for (i, &(u, v)) in round.qry.iter().enumerate() {
            router.edge_exists_live(&pins[i % readers], u, v);
        }
    }

    let records = router.op_records();
    let total: u64 = records.iter().map(OpTraceRecord::total_ns).sum();
    println!(
        "trace-query: {} ops traced ({} ns modeled total) over {} rounds",
        records.len(),
        total,
        traffic.len()
    );

    let mut printed = 0usize;
    if let Some(op) = op_filter {
        for r in records.iter().filter(|r| r.op == op) {
            println!("{r}");
            printed += 1;
        }
        if printed == 0 {
            eprintln!("op {op} not found in the op log");
            std::process::exit(1);
        }
    } else if let Some(session) = session_filter {
        for r in records.iter().filter(|r| r.session == session) {
            println!("{r}");
            printed += 1;
        }
    } else {
        let n = slowest.unwrap_or(5);
        let mut sorted: Vec<&OpTraceRecord> = records.iter().collect();
        sorted.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.op.cmp(&b.op)));
        println!("-- {} slowest ops --", n.min(sorted.len()));
        for r in sorted.into_iter().take(n) {
            println!("{r}");
            printed += 1;
        }
    }

    // The merged report closes the run: kernels, findings and metrics,
    // whose `op.*_ns` rows are the per-component latency attribution;
    // then the shard health summary.
    let report = router.trace_report();
    println!();
    println!("{}", report.render());
    println!("{}", router.report().render());
    println!(
        "trace OK: {printed} lifecycle(s) printed, makespan {} ms",
        fnum(g.group().clock_s() * 1e3)
    );
}
