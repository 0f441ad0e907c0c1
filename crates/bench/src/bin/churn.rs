//! Churn workload runner: replay a seeded mixed insert/delete/query
//! stream against every backend that supports it (including the
//! hash-partitioned `ShardedSlabGraph`), then replay multi-tenant traffic
//! through the batch router at increasing shard counts to measure
//! modeled-throughput scaling. It prints each table and keeps its JSON
//! under `target/experiments/`; `run_all` records the churn, sharded and
//! chaos tables at fixed configs in `BENCH_tables.json`.
//!
//! ```text
//! cargo run -p bench --release --bin churn -- \
//!     --dataset rgg_n_2_20_s0 --rounds 4 --ops 2048 \
//!     --inserts 50 --deletes 30 --seed 71 \
//!     --shards 4 --sessions 8 --skew uniform
//! ```

use bench::chaos::chaos_churn;
use bench::churn::{churn, readers_vs_writers, ChurnConfig};
use bench::sharded::sharded_scaling;

fn main() {
    let mut cfg = ChurnConfig::default();
    let mut chaos = false;
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
            "--inserts" => cfg.insert_pct = val("--inserts").parse().expect("--inserts: percent"),
            "--deletes" => cfg.delete_pct = val("--deletes").parse().expect("--deletes: percent"),
            "--seed" => cfg.seed = val("--seed").parse().expect("--seed: integer"),
            "--scale" => cfg.scale = Some(val("--scale").parse().expect("--scale: vertices")),
            "--shards" => cfg.shards = val("--shards").parse().expect("--shards: integer"),
            "--sessions" => cfg.sessions = val("--sessions").parse().expect("--sessions: integer"),
            "--skew" => {
                cfg.skew = val("--skew").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--readers" => cfg.readers = val("--readers").parse().expect("--readers: integer"),
            "--chaos" => chaos = true,
            other => {
                eprintln!(
                    "unknown flag {other}; known: --dataset --rounds --ops --inserts --deletes --seed --scale --shards --sessions --skew --readers --chaos"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(
        cfg.insert_pct + cfg.delete_pct <= 100,
        "insert and delete percentages must sum to at most 100"
    );
    assert!(cfg.shards >= 1, "--shards must be at least 1");
    if chaos {
        // Fault-tolerance mode: seeded kill/revive schedule over the
        // sharded router replay, with the byte-identical-vs-unsharded
        // assertion and sanitizer check built in.
        chaos_churn(&cfg).emit();
        return;
    }
    let t = churn(&cfg);
    t.emit();

    // Mixed readers-vs-writers: pinned queries racing the mutation stream
    // on one slab graph, with tail latency from the metrics registry. The
    // oracle and sanitizer assertions run inside.
    let rw = readers_vs_writers(&cfg);
    rw.emit();

    // Scaling study: identical multi-tenant traffic at 1..=max(8, shards)
    // shards (powers of two), so the run always shows how modeled
    // throughput scales with the shard count.
    let mut counts: Vec<usize> = vec![1, 2, 4, 8];
    if !counts.contains(&cfg.shards) {
        counts.push(cfg.shards);
        counts.sort_unstable();
    }
    let (scaling, per_shard) = sharded_scaling(&cfg, &counts);
    scaling.emit();
    per_shard.emit();
}
