//! Quickstart: build a weighted dynamic graph, update it, query it.
//!
//! Run with: `cargo run --release --example quickstart`

use dynamic_graphs_gpu::prelude::*;

fn main() {
    // A directed, weighted graph with room for 1024 vertices. Per-vertex
    // hash tables are created lazily (one bucket) on first touch.
    let g = DynGraph::new(GraphConfig::directed_map(1024));

    // Batched edge insertion (Algorithm 1): duplicates within the batch
    // and against the graph are allowed; the structure keeps unique
    // destinations with replace-on-duplicate semantics.
    let added = g.insert_edges(&[
        Edge::weighted(0, 1, 10),
        Edge::weighted(0, 2, 20),
        Edge::weighted(0, 2, 25), // duplicate: replaces the weight
        Edge::weighted(1, 2, 30),
        Edge::weighted(2, 0, 40),
    ]);
    println!("inserted {added} unique edges (one was a replacement)");
    assert_eq!(added, 4);

    // O(1) queries into the per-vertex hash tables.
    let pin = g.pin_read();
    println!("edge 0->2 exists: {}", g.edge_exists(&pin, 0, 2));

    // Adjacency iteration: one batched read of any vertex list, with
    // each edge's weight.
    let adj = g.read_neighbors(&pin, &[0]);
    let weight = adj.entries(0).find(|&(dst, _)| dst == 2).map(|(_, w)| w);
    println!("weight of 0->2:   {weight:?}");
    assert_eq!(weight, Some(25));
    let mut n: Vec<(u32, u32)> = adj.entries(0).collect();
    n.sort_unstable();
    println!("neighbors of 0:   {n:?}");

    // Batched deletion (tombstones; exact counts maintained).
    g.delete_edges(&[Edge::new(0, 1)]);
    assert!(!g.edge_exists(&pin, 0, 1));
    println!("after delete, degree(0) = {}", g.degree(0));

    // Vertex insertion: new vertex 100 arrives with its edges. Duplicate
    // ids or sentinel-colliding ids come back as a typed error.
    g.insert_vertices(
        &[100],
        &[Edge::weighted(100, 0, 1), Edge::weighted(100, 2, 2)],
    )
    .expect("vertex 100 is new");
    println!("degree(100) = {}", g.degree(100));

    // Vertex deletion (Algorithm 2).
    g.delete_vertices(&[100]);
    assert_eq!(g.degree(100), 0);
    println!("vertex 100 deleted; total edges = {}", g.num_edges());

    // The simulated-GPU bill for everything above.
    let c = g.device().counters().snapshot();
    println!(
        "device counters: {} transactions, {} atomics, {} kernel launches",
        c.transactions, c.atomics, c.launches
    );

    bounded_memory_demo();
}

/// Failure model & recovery: run a batch against a deliberately tight
/// device-memory budget, watch it apply a prefix instead of panicking,
/// audit the structure, raise the budget, and finish the suffix.
fn bounded_memory_demo() {
    println!("\n-- bounded device memory & recovery --");
    // One super-block of slabs (the batch will need more) and a budget
    // that admits construction and staging but not the pool's growth.
    let g = DynGraph::new(
        GraphConfig::directed_map(4096)
            .with_device_words(1 << 16)
            .with_pool_slabs(1024)
            .with_device_capacity(120_000),
    );
    let batch: Vec<Edge> = (0..16u32)
        .flat_map(|u| (0..1000u32).map(move |i| Edge::weighted(u, 16 + (u * 1000 + i), i)))
        .collect();

    let mut outcome = g.try_insert_edges(&batch).expect("batch is valid");
    let mut rounds = 1;
    while !outcome.is_complete() {
        println!(
            "  round {rounds}: applied {}/{} edges, suffix of {} pending ({})",
            outcome.completed,
            outcome.attempted,
            outcome.pending.len(),
            outcome.error.expect("partial outcomes carry the cause"),
        );
        // The structure is still consistent mid-recovery...
        g.validate()
            .expect("graph stays consistent after a failed batch");
        // ...so grow the budget and resume exactly where the batch stopped.
        let budget = g.device().capacity_words();
        g.device().set_capacity_words(budget + (1 << 20));
        outcome = g.retry_suffix(&outcome).expect("suffix is valid");
        rounds += 1;
    }
    g.validate().expect("final graph is consistent");
    println!(
        "  complete after {rounds} round(s): {} edges, {} live slabs",
        g.num_edges(),
        g.allocator().live_slabs()
    );
    assert_eq!(g.num_edges(), 16_000);
}
