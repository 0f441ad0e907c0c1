//! Wall-clock regression benches mirroring the paper's tables at reduced
//! scale — one group per table. These track *host* wall-clock of the
//! simulator (useful for regressions); the paper-shaped modeled numbers
//! come from the `table*` binaries.
//!
//! Run with `cargo bench --bench tables`. Each case reports min/mean over
//! a fixed number of iterations; no external bench framework is used.

use baselines::{FaimGraph, Hornet};
use bench::harness::bench_case;
use graph_gen::{catalog, insert_batch, vertex_batch};
use slabgraph::{Direction, DynGraph, Edge, GraphConfig, TableKind};

const ITERS: usize = 10;

fn ds() -> graph_gen::Dataset {
    catalog::dataset("coAuthorsDBLP").unwrap().generate(4096, 7)
}

fn build_ours(d: &graph_gen::Dataset, kind: TableKind, dir: Direction) -> DynGraph {
    let mut cfg = GraphConfig::directed_map(d.n_vertices);
    cfg.kind = kind;
    cfg.direction = dir;
    cfg.device_words = (d.edges.len() * 12).max(1 << 20);
    DynGraph::bulk_build(
        cfg,
        &d.edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>(),
    )
}

/// Table II/III: batched edge insertion and deletion per structure.
fn bench_edge_updates() {
    let d = ds();
    let batch = insert_batch(d.n_vertices, 1 << 12, 5);
    let edges: Vec<Edge> = batch.iter().map(|&p| Edge::from(p)).collect();

    bench_case("table2_insert/ours", ITERS, || {
        let gr = build_ours(&d, TableKind::Map, Direction::Directed);
        gr.insert_edges(&edges);
    });
    bench_case("table2_insert/hornet", ITERS, || {
        let mut h = Hornet::bulk_build(d.n_vertices, &d.edges, 1 << 22);
        h.insert_batch(&batch);
    });
    bench_case("table2_insert/faimgraph", ITERS, || {
        let f = FaimGraph::build(d.n_vertices, &d.edges, 1 << 22);
        f.insert_batch(&batch);
    });

    bench_case("table3_delete/ours", ITERS, || {
        let gr = build_ours(&d, TableKind::Map, Direction::Directed);
        gr.insert_edges(&edges);
        gr.delete_edges(&edges);
    });
    bench_case("table3_delete/hornet", ITERS, || {
        let mut h = Hornet::bulk_build(d.n_vertices, &d.edges, 1 << 22);
        h.insert_batch(&batch);
        h.delete_batch(&batch);
    });
}

/// Table IV: vertex deletion.
fn bench_vertex_deletion() {
    let d = catalog::dataset("delaunay_n20").unwrap().generate(2048, 7);
    let victims = vertex_batch(d.n_vertices, 128, 3);
    bench_case("table4_vertex_delete/ours", ITERS, || {
        let gr = build_ours(&d, TableKind::Map, Direction::Undirected);
        gr.delete_vertices(&victims);
    });
}

/// Table V/VI: bulk and incremental build.
fn bench_builds() {
    let d = ds();
    let edges: Vec<Edge> = d.edges.iter().map(|&p| Edge::from(p)).collect();
    bench_case("table5_bulk_build/ours", ITERS, || {
        build_ours(&d, TableKind::Map, Direction::Directed);
    });
    bench_case("table5_bulk_build/hornet", ITERS, || {
        Hornet::bulk_build(d.n_vertices, &d.edges, 1 << 22);
    });

    bench_case("table6_incremental/ours_1bucket", ITERS, || {
        let mut cfg = GraphConfig::directed_map(d.n_vertices);
        cfg.device_words = (d.edges.len() * 12).max(1 << 20);
        let gr = DynGraph::with_uniform_buckets(cfg, d.n_vertices, 1);
        for chunk in edges.chunks(1 << 12) {
            gr.insert_edges(chunk);
        }
    });
}

/// Table VII: static triangle counting.
fn bench_triangle_counting() {
    let d = catalog::dataset("coAuthorsDBLP").unwrap().generate(1024, 7);
    let gr = {
        let mut cfg = GraphConfig::undirected_set(d.n_vertices);
        cfg.device_words = (d.edges.len() * 16).max(1 << 20);
        let gr = DynGraph::with_uniform_buckets(cfg, d.n_vertices, 1);
        gr.insert_edges(&d.edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        gr
    };
    let sym = graph_gen::mirror(&d.edges);
    let mut h = Hornet::bulk_build(d.n_vertices, &sym, 1 << 22);
    h.sort_adjacencies();

    bench_case("table7_static_tc/ours_hash_probes", ITERS, || {
        algos::tc(&gr);
    });
    bench_case("table7_static_tc/hornet_sorted_intersect", ITERS, || {
        algos::tc(&h);
    });
}

fn main() {
    bench_edge_updates();
    bench_vertex_deletion();
    bench_builds();
    bench_triangle_counting();
}
