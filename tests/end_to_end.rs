//! Integration tests spanning the whole workspace: generators → dynamic
//! graph → baselines → algorithms, checking that every structure agrees.

use dynamic_graphs_gpu::algos;
use dynamic_graphs_gpu::baselines::{Csr, FaimGraph, Hornet};
use dynamic_graphs_gpu::graph_gen::mirror;
use dynamic_graphs_gpu::prelude::*;

#[test]
fn bulk_build_agrees_with_baselines_on_every_family() {
    for name in ["luxembourg_osm", "delaunay_n20", "coAuthorsDBLP"] {
        let spec = catalog::dataset(name).unwrap();
        let ds = spec.generate(2000, 5);

        let mut cfg = GraphConfig::directed_map(ds.n_vertices);
        cfg.device_words = (ds.edges.len() * 12).max(1 << 20);
        let edges: Vec<Edge> = ds.edges.iter().map(|&p| Edge::from(p)).collect();
        let g = DynGraph::bulk_build(cfg, &edges);

        let h = Hornet::bulk_build(ds.n_vertices, &ds.edges, 1 << 22);
        let c = Csr::build(ds.n_vertices, &ds.edges, 1 << 22);

        assert_eq!(g.num_edges(), h.num_edges(), "{name}: ours vs hornet");
        assert_eq!(g.num_edges(), c.num_edges(), "{name}: ours vs csr");

        // Spot-check per-vertex adjacency parity.
        for u in (0..ds.n_vertices).step_by((ds.n_vertices as usize / 50).max(1)) {
            let mut ours = g.read_neighbors(&g.pin_read(), &[u]).list(0).to_vec();
            ours.sort_unstable();
            let mut hs = h.read_adjacency(u);
            hs.sort_unstable();
            assert_eq!(ours, hs, "{name}: adjacency of {u}");
        }
        g.check_invariants();
    }
}

#[test]
fn mixed_update_stream_keeps_all_structures_in_sync() {
    let n = 512u32;
    let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(n), n, 1);
    let mut h = Hornet::new(n, 1 << 22);
    let f = FaimGraph::new(n, 1 << 22);

    for round in 0..6u64 {
        let ins = insert_batch(n, 800, 100 + round);
        let edges: Vec<Edge> = ins.iter().map(|&p| Edge::from(p)).collect();
        g.insert_edges(&edges);
        h.insert_batch(&ins);
        f.insert_batch(&ins);

        let del = insert_batch(n, 300, 200 + round);
        let del_edges: Vec<Edge> = del.iter().map(|&p| Edge::from(p)).collect();
        g.delete_edges(&del_edges);
        h.delete_batch(&del);
        f.delete_batch(&del);

        assert_eq!(
            g.num_edges(),
            h.num_edges(),
            "round {round}: ours vs hornet"
        );
        assert_eq!(
            g.num_edges(),
            f.num_edges(),
            "round {round}: ours vs faimgraph"
        );
    }
    // Full adjacency parity at the end.
    for u in 0..n {
        let mut ours = g.read_neighbors(&g.pin_read(), &[u]).list(0).to_vec();
        ours.sort_unstable();
        let mut hs = h.read_adjacency(u);
        hs.sort_unstable();
        let mut fs = f.read_adjacency(u);
        fs.sort_unstable();
        assert_eq!(ours, hs, "vertex {u} vs hornet");
        assert_eq!(ours, fs, "vertex {u} vs faimgraph");
    }
    g.check_invariants();
}

#[test]
fn triangle_counts_agree_across_structures_and_updates() {
    let spec = catalog::dataset("coAuthorsDBLP").unwrap();
    let ds = spec.generate(1024, 11);
    let n = ds.n_vertices;

    let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
    g.insert_edges(&ds.edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());

    let sym = mirror(&ds.edges);
    let mut h = Hornet::bulk_build(n, &sym, 1 << 22);
    h.sort_adjacencies();
    let fg = FaimGraph::build(n, &sym, 1 << 22);
    fg.sort_adjacencies();
    let c = Csr::build(n, &sym, 1 << 22);

    let expect = algos::tc_reference(n, &ds.edges);
    assert_eq!(algos::tc(&g), expect, "ours");
    assert_eq!(algos::tc(&h), expect, "hornet");
    assert_eq!(algos::tc(&fg), expect, "faimgraph");
    assert_eq!(algos::tc(&c), expect, "csr");

    // Dynamic round: insert a batch everywhere, counts must stay equal.
    let batch = insert_batch(n, 2000, 77);
    g.insert_edges(&batch.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
    h.insert_batch(&mirror(&batch));
    h.sort_adjacencies();
    let ours = algos::tc(&g);
    assert_eq!(ours, algos::tc(&h), "after dynamic batch");
    assert!(ours >= expect, "triangles cannot decrease on insertion");
}

#[test]
fn vertex_deletion_end_to_end() {
    let spec = catalog::dataset("rgg_n_2_20_s0").unwrap();
    let ds = spec.generate(1500, 13);
    let n = ds.n_vertices;
    let mut cfg = GraphConfig::undirected_map(n);
    cfg.device_words = (ds.edges.len() * 16).max(1 << 20);
    let g = DynGraph::bulk_build(
        cfg,
        &ds.edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>(),
    );
    g.check_invariants();

    let victims = vertex_batch(n, 200, 3);
    g.delete_vertices(&victims);

    for &v in &victims {
        assert_eq!(g.degree(v), 0, "victim {v}");
        assert!(g.read_neighbors(&g.pin_read(), &[v]).list(0).is_empty());
    }
    // No survivor may still point at a victim.
    let victim_set: std::collections::HashSet<u32> = victims.iter().copied().collect();
    for u in 0..n {
        for &d in g.read_neighbors(&g.pin_read(), &[u]).list(0) {
            assert!(
                !victim_set.contains(&d),
                "vertex {u} still points at deleted {d}"
            );
        }
    }
    g.check_invariants();
}

#[test]
fn bfs_agrees_with_reference_on_generated_graph() {
    let spec = catalog::dataset("delaunay_n20").unwrap();
    let ds = spec.generate(900, 19);
    let n = ds.n_vertices;
    let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
    g.insert_edges(&ds.edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());

    // Host-side reference BFS.
    let mut adj = vec![vec![]; n as usize];
    for &(u, v) in &ds.edges {
        if u != v {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    let mut expect = vec![u32::MAX; n as usize];
    expect[0] = 0;
    let mut q = std::collections::VecDeque::from([0u32]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u as usize] {
            if expect[v as usize] == u32::MAX {
                expect[v as usize] = expect[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    assert_eq!(algos::bfs_levels(&g, 0), expect);
}
