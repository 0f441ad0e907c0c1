//! Conformance suite for the `GraphBackend` trait layer: the single
//! generic triangle count and BFS must produce reference-correct results
//! over **all four** backends, on fixtures and generated datasets, and
//! the shared read surface (degree / membership / adjacency) must agree
//! across structures for identical logical graphs.

use dynamic_graphs_gpu::algos;
use dynamic_graphs_gpu::baselines::{Csr, FaimGraph, Hornet};
use dynamic_graphs_gpu::gpu_sim::CounterSnapshot;
use dynamic_graphs_gpu::graph_gen::{self, fixtures, mirror};
use dynamic_graphs_gpu::prelude::*;

/// Build every backend holding the same logical undirected graph —
/// including the hash-partitioned `ShardedGraph`, which must be
/// indistinguishable from the single-device structures through the trait.
fn all_backends(n: u32, undirected: &[(u32, u32)]) -> Vec<Box<dyn GraphBackend>> {
    let sym = mirror(undirected);
    let words = (sym.len() * 16).max(1 << 20);
    let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
    g.insert_edges(
        &undirected
            .iter()
            .map(|&p| Edge::from(p))
            .collect::<Vec<_>>(),
    );
    let edges: Vec<Edge> = undirected.iter().map(|&p| Edge::from(p)).collect();
    let mut cfg = GraphConfig::undirected_set(n);
    cfg.device_words = words;
    vec![
        Box::new(g),
        Box::new(Hornet::bulk_build(n, &sym, words)),
        Box::new(FaimGraph::build(n, &sym, words)),
        Box::new(Csr::build(n, &sym, words)),
        Box::new(ShardedGraph::bulk_build(3, cfg, &edges)),
    ]
}

/// Host-side reference BFS levels over an undirected edge list.
fn bfs_reference(n: u32, edges: &[(u32, u32)], src: u32) -> Vec<u32> {
    let mut adj = vec![vec![]; n as usize];
    for &(u, v) in edges {
        if u != v {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    let mut levels = vec![u32::MAX; n as usize];
    levels[src as usize] = 0;
    let mut q = std::collections::VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u as usize] {
            if levels[v as usize] == u32::MAX {
                levels[v as usize] = levels[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    levels
}

#[test]
fn generic_tc_matches_reference_on_fixture_for_every_backend() {
    let (n, e) = fixtures::fixture_edges();
    for mut b in all_backends(n, &e) {
        b.ensure_sorted();
        assert_eq!(
            algos::tc(b.as_ref()),
            fixtures::FIXTURE_TRIANGLES,
            "{}",
            b.name()
        );
    }
}

#[test]
fn generic_tc_matches_reference_on_generated_datasets() {
    for name in ["coAuthorsDBLP", "rgg_n_2_20_s0"] {
        let ds = catalog::dataset(name).unwrap().generate(700, 27);
        let expect = algos::tc_reference(ds.n_vertices, &ds.edges);
        for mut b in all_backends(ds.n_vertices, &ds.edges) {
            b.ensure_sorted();
            assert_eq!(
                algos::tc(b.as_ref()),
                expect,
                "{name}: backend {}",
                b.name()
            );
        }
    }
}

#[test]
fn generic_bfs_matches_reference_for_every_backend() {
    let ds = catalog::dataset("delaunay_n20").unwrap().generate(600, 33);
    let expect = bfs_reference(ds.n_vertices, &ds.edges, 0);
    for b in all_backends(ds.n_vertices, &ds.edges) {
        assert_eq!(
            algos::bfs_levels(b.as_ref(), 0),
            expect,
            "backend {}",
            b.name()
        );
    }
}

#[test]
fn read_surface_agrees_across_backends() {
    let edges = graph_gen::uniform_random(96, 700, 55);
    let n = 96u32;
    let backends = all_backends(n, &edges);
    let reference = &backends[0];
    let ref_pin = reference.pin_read();
    let probes: Vec<(u32, u32)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
    let expect_exist = reference.edges_exist(&ref_pin, &probes);
    for b in &backends[1..] {
        let name = b.name();
        let pin = b.pin_read();
        assert_eq!(b.num_vertices(), reference.num_vertices(), "{name}");
        assert_eq!(b.num_edges(), reference.num_edges(), "{name}");
        assert_eq!(b.edges_exist(&pin, &probes), expect_exist, "{name}");
        let us: Vec<u32> = (0..n).step_by(7).collect();
        let got = b.read_neighbors(&pin, &us);
        let want = reference.read_neighbors(&ref_pin, &us);
        for (i, &u) in us.iter().enumerate() {
            assert_eq!(b.degree(u), reference.degree(u), "{name}: degree({u})");
            let mut got = got.list(i).to_vec();
            let mut want = want.list(i).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{name}: adjacency of {u}");
        }
    }
}

/// A batched adjacency read answers every vertex exactly as a one-vertex
/// read of it does, on every backend: the batch comes in arbitrary order,
/// with duplicates, ids past the vertex range, and isolated vertices,
/// which have no table in the sharded graph and in a lazily built
/// SlabGraph.
#[test]
fn batched_reads_match_one_vertex_reads_on_every_backend() {
    let n = 96u32;
    // Vertices 80..96 are isolated.
    let edges = graph_gen::uniform_random(80, 500, 57);
    let mut backends = all_backends(n, &edges);
    let lazy = DynGraph::new(GraphConfig::undirected_set(n));
    lazy.insert_edges(&edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
    backends.push(Box::new(lazy));
    let batch = [
        40,
        3,
        3,
        95,
        17,
        16,
        200,
        81,
        0,
        63,
        n,
        17,
        40,
        64,
        79,
        u32::MAX,
    ];
    for b in backends {
        let name = b.name();
        let pin = b.pin_read();
        let adj = b.read_neighbors(&pin, &batch);
        assert_eq!(adj.lists().len(), batch.len(), "{name}");
        for (i, &u) in batch.iter().enumerate() {
            let one = b.read_neighbors(&pin, &[u]);
            assert_eq!(adj.list(i), one.list(0), "{name}: vertex {u}");
            assert_eq!(
                adj.list(i).is_empty(),
                !(0..80).contains(&u) || b.degree(u) == 0
            );
        }
    }
}

/// Epoch-pinned backends refuse a phase-separated backend's empty pin on
/// every query instead of reading unprotected.
#[test]
fn pinned_backends_reject_an_empty_pin() {
    let (n, e) = fixtures::fixture_edges();
    let backends = all_backends(n, &e);
    let empty = backends[3].pin_read(); // CSR: phase-separated
    assert!(!empty.is_pinned());
    let pinned: Vec<_> = backends
        .iter()
        .filter(|b| b.pin_read().is_pinned())
        .collect();
    assert_eq!(pinned.len(), 2, "SlabGraph and ShardedSlabGraph");
    for b in pinned {
        let queries: [&dyn Fn(); 2] = [
            &|| {
                let _ = b.edges_exist(&empty, &[(0, 1)]);
            },
            &|| {
                let _ = b.read_neighbors(&empty, &[0]);
            },
        ];
        for (i, q) in queries.into_iter().enumerate() {
            let Err(err) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(q)) else {
                panic!("{}: query {i} under an empty pin must panic", b.name());
            };
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("empty ReadPin"),
                "{}: query {i}: {msg}",
                b.name()
            );
        }
    }
}

#[test]
fn mutable_backends_track_updates_identically() {
    let n = 128u32;
    let base = graph_gen::uniform_random(n, 400, 61);
    let words = 1usize << 21;
    let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(n), n, 1);
    g.insert_edges(&base.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
    let mut sharded_cfg = GraphConfig::directed_map(n);
    sharded_cfg.device_words = words;
    let mut dynamic: Vec<Box<dyn GraphBackend>> = vec![
        Box::new(g),
        Box::new(Hornet::bulk_build(n, &base, words)),
        Box::new(FaimGraph::build(n, &base, words)),
        Box::new(ShardedGraph::bulk_build(
            2,
            sharded_cfg,
            &base.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>(),
        )),
    ];
    for round in 0..3u64 {
        let ins = insert_batch(n, 150, 900 + round);
        let del = insert_batch(n, 60, 950 + round);
        let mut counts = vec![];
        for b in &mut dynamic {
            assert!(
                b.caps().insert_edges && b.caps().delete_edges,
                "{}",
                b.name()
            );
            b.insert_edges(&ins);
            b.delete_edges(&del);
            counts.push(b.num_edges());
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "round {round}: edge counts diverged: {counts:?}"
        );
    }
}

/// Every read charges the same modeled work however the backend layer
/// routes it (DESIGN §12 "charge parity"): the exact counter delta,
/// summed over every device the backend spans, of a fixed probe batch,
/// one batched read of eight adjacency lists, a triangle count and a
/// BFS, per backend.
#[test]
fn read_charges_are_pinned() {
    let n = 64u32;
    let edges = graph_gen::uniform_random(n, 600, 71);
    let probes: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [(u, (u * 7 + 3) % n), (u, (u + 1) % n)])
        .collect();
    type Read = fn(&dyn GraphBackend, &[(u32, u32)]);
    let reads: [(&str, Read); 4] = [
        ("edges_exist", |b, probes| {
            let _ = b.edges_exist(&b.pin_read(), probes);
        }),
        ("read_neighbors", |b, _| {
            let _ = b.read_neighbors(&b.pin_read(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        }),
        ("tc", |b, _| {
            let _ = algos::tc(b);
        }),
        ("bfs_levels", |b, _| {
            let _ = algos::bfs_levels(b, 0);
        }),
    ];
    // [transactions, atomics, ballots, shuffles, launches, warps,
    // words_allocated] per read, in `reads` order. A slab-hash adjacency
    // read is one launch per device, with a warp per run of requested
    // vertices that share a 16-vertex dictionary line, which reads the
    // line's descriptors with one transaction (so `tc` reads all 64 lists
    // with 4 warps, and `bfs_levels`, which sorts each frontier, launches
    // once per level and device that holds part of the frontier and reads
    // each of its lines once); the slab-hash `tc` probes each closing edge in its
    // shorter table, grouped by table, so a table probed 32 times or more
    // is answered by run tiles, and it is one fused launch per device.
    // A slab walked with more than 30 keys open charges 30 broadcast
    // shuffles instead of a ballot per key (hence `tc`'s shuffles), and
    // each tile's keys are staged from the next slab boundary. Every walk
    // reads each slab once. An `edge_exist` chunk warp reads a dictionary
    // line once when its groups share it, and each later group shuffles
    // its descriptor pair out of it (2 shuffles for a transaction):
    // SlabGraph's 128 probes are 4 chunk warps of 16 sources, one line
    // each, so 4 line reads and 4 × 15 × 2 shuffles where 64 descriptor
    // reads were.
    // SlabGraph's tables have one bucket each; the sharded build sizes
    // each shard's tables from its degrees, so its hubs span more base
    // slabs.
    let expected: [(&str, [[u64; 7]; 4]); 5] = [
        (
            "SlabGraph",
            [
                [80, 0, 315, 184, 1, 4, 288],
                [9, 0, 0, 0, 1, 1, 0],
                [396, 0, 479, 1209, 1, 54, 4192],
                [74, 0, 0, 0, 4, 10, 0],
            ],
        ),
        (
            "Hornet",
            [
                [128, 0, 0, 0, 0, 0, 0],
                [8, 0, 0, 0, 0, 0, 0],
                [572, 0, 0, 0, 1, 0, 0],
                [64, 0, 0, 0, 0, 0, 0],
            ],
        ),
        (
            "faimGraph",
            [
                [384, 0, 0, 0, 0, 128, 0],
                [24, 0, 0, 0, 0, 8, 0],
                [1716, 0, 0, 0, 1, 572, 0],
                [192, 0, 0, 0, 0, 64, 0],
            ],
        ),
        (
            "CSR",
            [
                [256, 0, 0, 0, 0, 0, 0],
                [16, 0, 0, 0, 0, 0, 0],
                [1144, 0, 0, 0, 1, 0, 0],
                [128, 0, 0, 0, 0, 0, 0],
            ],
        ),
        (
            "ShardedSlabGraph",
            [
                [103, 0, 341, 162, 3, 6, 480],
                [14, 0, 0, 0, 3, 3, 0],
                [439, 0, 614, 1136, 3, 63, 4320],
                [100, 0, 0, 0, 8, 21, 0],
            ],
        ),
    ];
    let backends = all_backends(n, &edges);
    assert_eq!(backends.len(), expected.len());
    for (mut b, (name, want)) in backends.into_iter().zip(expected) {
        assert_eq!(b.name(), name);
        b.ensure_sorted();
        for ((read_name, read), want) in reads.iter().zip(want) {
            let before: Vec<_> = b
                .devices()
                .iter()
                .map(|d| d.counters().snapshot())
                .collect();
            read(b.as_ref(), &probes);
            let delta: CounterSnapshot = b
                .devices()
                .iter()
                .zip(&before)
                .map(|(d, s)| d.counters().snapshot().delta(s))
                .sum();
            let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
            assert_eq!(got, want, "{name}: {read_name}");
        }
    }
}

/// The single-kind update kernels charge exactly these counters: a fixed
/// insert batch (new edges, weight replacements, in-batch duplicates,
/// whose copies in one warp's group share one claim or replace, and a
/// self-loop) and a fixed delete batch (hits, misses and an untouched
/// source) on one `SlabGraph`, each measured alone. A change to the edge
/// kernel that moves a single-kind batch's modeled work fails here.
#[test]
fn update_charges_are_pinned() {
    let n = 64u32;
    let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(n), n, 1);
    let base: Vec<Edge> = graph_gen::uniform_random(n, 600, 73)
        .into_iter()
        .enumerate()
        .map(|(i, (u, v))| Edge::weighted(u, v, i as u32))
        .collect();
    let mut inserts: Vec<Edge> = base[..100]
        .iter()
        .map(|e| Edge::weighted(e.src, e.dst, e.weight + 1))
        .collect();
    inserts.extend(
        graph_gen::uniform_random(n, 200, 74)
            .into_iter()
            .map(|(u, v)| Edge::weighted(u, v, u ^ v)),
    );
    inserts.push(Edge::new(5, 5));
    let mut deletes: Vec<Edge> = base.iter().step_by(3).copied().collect();
    deletes.extend(
        graph_gen::uniform_random(n, 80, 75)
            .into_iter()
            .map(Edge::from),
    );
    deletes.push(Edge::new(n + 10, 1));
    // [transactions, atomics, ballots, shuffles, launches, warps,
    // words_allocated] and the changed count, per batch. Every walk,
    // insert and delete alike, charges one read per slab it reaches.
    let expected: [(&str, [u64; 7], u64); 3] = [
        ("base insert", [612, 1061, 2480, 1267, 1, 19, 1825], 552),
        ("insert", [312, 435, 1137, 607, 1, 10, 961], 164),
        ("delete", [337, 373, 1042, 595, 1, 9, 577], 201),
    ];
    let batches: [(&str, &[Edge], bool); 3] = [
        ("base insert", &base, true),
        ("insert", &inserts, true),
        ("delete", &deletes, false),
    ];
    for ((name, batch, insert), (want_name, want, want_changed)) in
        batches.into_iter().zip(expected)
    {
        assert_eq!(name, want_name);
        let before = g.device().counters().snapshot();
        let changed = if insert {
            g.insert_edges(batch)
        } else {
            g.delete_edges(batch)
        };
        let delta = g.device().counters().snapshot().delta(&before);
        let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
        assert_eq!((got, changed), (want.to_vec(), want_changed), "{name}");
    }
    g.validate().expect("audit after pinned updates");
}
