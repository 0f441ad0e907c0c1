//! Ablation of tombstone handling (paper §IV-C2). The paper skips
//! tombstones on insertion and offers a two-stage recycling insert as a
//! memory optimisation "on the expense of decreased insertion
//! throughput". With replace semantics a new key's insert walks to the
//! chain's last slab anyway, so here every insert launch claims the
//! chain's first free slot, tombstones included, at no extra traffic.
//! This harness compares that default against the same inserts plus an
//! explicit tombstone flush after every round, prices the flush per
//! call, and asserts that both hold the same graph after every round.

use bench::harness::{fnum, measure, mrate, Table};
use graph_gen::{insert_batch, weighted};
use slabgraph::{DynGraph, Edge, GraphConfig};

fn main() {
    let mut t = Table::new(
        "ablation_tombstones",
        "Tombstone handling: reuse on insert vs reuse plus a flush each round",
        &[
            "strategy",
            "reinsert MEdge/s",
            "slabs",
            "tombstones",
            "memory MB",
            "flush µs/call",
        ],
    );
    let n = 512u32;
    let rounds = 8;
    let batch = 1usize << 13;

    let run = |flush_every_round: bool| {
        let mut cfg = GraphConfig::directed_map(n);
        cfg.device_words = 1 << 22;
        let g = DynGraph::with_uniform_buckets(cfg, n, 1);
        // Churn workload: insert a batch, delete it, insert a different one.
        let mut rate_items = 0u64;
        let mut rate_seconds = 0.0f64;
        let mut flush_seconds = 0.0f64;
        let mut contents = Vec::new();
        for round in 0..rounds {
            let ins: Vec<Edge> = weighted(&insert_batch(n, batch, round), round)
                .into_iter()
                .map(Edge::from)
                .collect();
            let m = measure(&[g.device()], || {
                g.insert_edges(&ins);
            });
            rate_items += batch as u64;
            rate_seconds += m.modeled_s;
            contents.push(graph_contents(&g));
            let del: Vec<Edge> = ins.iter().map(|e| Edge::new(e.src, e.dst)).collect();
            g.delete_edges(&del);
            if flush_every_round {
                flush_seconds += measure(&[g.device()], || {
                    g.flush_tombstones();
                })
                .modeled_s;
            }
        }
        g.check_invariants();
        contents.push(graph_contents(&g));
        let stats = g.stats(&g.pin_read());
        (
            mrate(rate_items, rate_seconds),
            stats.tables.slabs,
            stats.tables.tombstones,
            stats.memory_bytes() as f64 / 1e6,
            flush_every_round.then(|| flush_seconds * 1e6 / rounds as f64),
            contents,
        )
    };

    let mut reference = None;
    for (name, flush) in [
        ("reuse tombstones", false),
        ("reuse + flush each round", true),
    ] {
        let (rate, slabs, tombs, mb, flush_us, contents) = run(flush);
        let reference = reference.get_or_insert_with(|| contents.clone());
        assert!(
            contents == *reference,
            "{name}: edge set, weights or degrees differ from the reuse-only graph"
        );
        t.row(vec![
            name.into(),
            fnum(rate),
            slabs.to_string(),
            tombs.to_string(),
            fnum(mb),
            flush_us.map_or_else(|| "-".into(), fnum),
        ]);
    }
    t.note("churn workload: 8 rounds of insert-then-delete 2^13 random edges over 512 vertices");
    t.note(
        "a new key's insert walks to the chain's last slab anyway (replace semantics), so \
claiming the first tombstone it saw costs no extra traffic; the flush buys shorter chains \
and fewer tombstones at its own price per call",
    );
    t.note("every row holds the same edge set, weights and degrees after each round's insert and at the end (asserted)");
    t.emit();
}

/// The graph's live edges as sorted ⟨src, dst, weight⟩ triples, and every
/// vertex's degree.
fn graph_contents(g: &DynGraph) -> (Vec<(u32, u32, u32)>, Vec<u32>) {
    let mut edges: Vec<_> = g
        .export_edges(&g.pin_read())
        .into_iter()
        .map(|e| (e.src, e.dst, e.weight))
        .collect();
    edges.sort_unstable();
    let degrees = (0..g.vertex_capacity()).map(|v| g.degree(v)).collect();
    (edges, degrees)
}
