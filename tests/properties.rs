//! Property-style tests: the dynamic graph against a host reference model
//! under randomized operation sequences, and exact counting semantics under
//! duplicate-heavy batches. Each test runs many independently seeded cases;
//! seeds are fixed so failures reproduce.

use dynamic_graphs_gpu::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const N: u32 = 24;
const CASES: u64 = 24;

/// An abstract operation on a small graph.
#[derive(Debug, Clone)]
enum Op {
    InsertEdges(Vec<(u32, u32, u32)>),
    DeleteEdges(Vec<(u32, u32)>),
    DeleteVertex(u32),
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..3u32) {
        0 => {
            let n = rng.random_range(1..20usize);
            Op::InsertEdges(
                (0..n)
                    .map(|_| {
                        (
                            rng.random_range(0..N),
                            rng.random_range(0..N),
                            rng.random_range(1..100u32),
                        )
                    })
                    .collect(),
            )
        }
        1 => {
            let n = rng.random_range(1..10usize);
            Op::DeleteEdges(
                (0..n)
                    .map(|_| (rng.random_range(0..N), rng.random_range(0..N)))
                    .collect(),
            )
        }
        _ => Op::DeleteVertex(rng.random_range(0..N)),
    }
}

/// Host reference: directed weighted adjacency with replace semantics.
#[derive(Default)]
struct Reference {
    adj: HashMap<u32, HashMap<u32, u32>>,
}

impl Reference {
    fn insert(&mut self, u: u32, v: u32, w: u32) {
        if u != v {
            self.adj.entry(u).or_default().insert(v, w);
        }
    }
    fn delete(&mut self, u: u32, v: u32) {
        if let Some(m) = self.adj.get_mut(&u) {
            m.remove(&v);
        }
    }
}

#[test]
fn directed_graph_matches_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1A + seed);
        let n_ops = rng.random_range(1..12usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();

        let mut cfg = GraphConfig::directed_map(N);
        cfg.device_words = 1 << 18;
        let g = DynGraph::with_uniform_buckets(cfg, N, 1);
        let mut reference = Reference::default();

        for op in &ops {
            match op {
                Op::InsertEdges(es) => {
                    g.insert_edges(&es.iter().map(|&t| Edge::from(t)).collect::<Vec<_>>());
                    for &(u, v, w) in es {
                        reference.insert(u, v, w);
                    }
                }
                Op::DeleteEdges(es) => {
                    g.delete_edges(&es.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
                    for &(u, v) in es {
                        reference.delete(u, v);
                    }
                }
                // Directed vertex deletion frees the vertex's own list
                // only; incoming edges are purged explicitly.
                Op::DeleteVertex(v) => {
                    g.delete_vertices(&[*v]);
                    g.purge_deleted(&[*v]);
                    reference.adj.remove(v);
                    for m in reference.adj.values_mut() {
                        m.remove(v);
                    }
                }
            }
        }

        // Full-state comparison.
        for u in 0..N {
            let mut ours = g
                .read_neighbors(&g.pin_read(), &[u])
                .entries(0)
                .collect::<Vec<_>>();
            ours.sort_unstable();
            let mut want: Vec<(u32, u32)> = reference
                .adj
                .get(&u)
                .map(|m| m.iter().map(|(&d, &w)| (d, w)).collect())
                .unwrap_or_default();
            want.sort_unstable();
            assert_eq!(&ours, &want, "seed {seed}: vertex {u} adjacency");
            assert_eq!(
                g.degree(u) as usize,
                want.len(),
                "seed {seed}: vertex {u} count"
            );
        }
        g.check_invariants();
    }
}

#[test]
fn undirected_graph_stays_symmetric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E3D + seed);
        let n_batches = rng.random_range(1..6usize);
        let batches: Vec<Vec<(u32, u32, u32)>> = (0..n_batches)
            .map(|_| {
                let n = rng.random_range(1..15usize);
                (0..n)
                    .map(|_| {
                        (
                            rng.random_range(0..N),
                            rng.random_range(0..N),
                            rng.random_range(1..50u32),
                        )
                    })
                    .collect()
            })
            .collect();
        let n_victims = rng.random_range(0..3usize);
        let victims: Vec<u32> = (0..n_victims).map(|_| rng.random_range(0..N)).collect();

        let mut cfg = GraphConfig::undirected_map(N);
        cfg.device_words = 1 << 18;
        let g = DynGraph::with_uniform_buckets(cfg, N, 1);
        for b in &batches {
            g.insert_edges(&b.iter().map(|&t| Edge::from(t)).collect::<Vec<_>>());
        }
        let mut dedup: Vec<u32> = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        g.delete_vertices(&dedup);

        // Symmetry: u lists v  <=>  v lists u (with equal weight).
        let all: Vec<u32> = (0..N).collect();
        let adj = g.read_neighbors(&g.pin_read(), &all);
        let lists: Vec<std::collections::HashMap<u32, u32>> =
            (0..all.len()).map(|u| adj.entries(u).collect()).collect();
        for (u, list) in lists.iter().enumerate() {
            for (&v, &w) in list {
                assert_eq!(
                    lists[v as usize].get(&(u as u32)),
                    Some(&w),
                    "seed {seed}: asymmetry at ({u}, {v})"
                );
            }
        }
        // Deleted vertices are fully detached.
        for &v in &dedup {
            assert_eq!(g.degree(v), 0, "seed {seed}");
            for u in 0..N {
                assert!(
                    !g.edge_exists(&g.pin_read(), u, v),
                    "seed {seed}: edge ({u}, {v})"
                );
            }
        }
        g.check_invariants();
    }
}

#[test]
fn edge_counts_are_exact_under_duplicates() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD0B + seed);
        let n = rng.random_range(1..100usize);
        let raw: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.random_range(0..8u32), rng.random_range(0..8u32)))
            .collect();

        // Heavy duplication within one batch: exact counting must match
        // the number of *unique* non-self-loop edges.
        let mut cfg = GraphConfig::directed_set(8);
        cfg.device_words = 1 << 16;
        let g = DynGraph::with_uniform_buckets(cfg, 8, 1);
        let added = g.insert_edges(&raw.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        let unique: std::collections::HashSet<(u32, u32)> =
            raw.iter().copied().filter(|&(u, v)| u != v).collect();
        assert_eq!(added, unique.len() as u64, "seed {seed}");
        assert_eq!(g.num_edges(), unique.len() as u64, "seed {seed}");
    }
}

/// Tiled `edges_exist` answers every pair as per-pair `find` does (a
/// one-pair `edge_exists` batch), on both executors. Runs of 1 to 700
/// pairs of one source cross the 32-pair tile threshold and the 256-pair
/// tile cap; the tables have several buckets, multi-slab chains and
/// tombstones, so one tile walks several home buckets; and runs of
/// sources without a table or past the vertex capacity are mixed in.
#[test]
fn tiled_edges_exist_answers_like_per_pair_find() {
    use dynamic_graphs_gpu::gpu_sim::ExecPolicy;
    // Vertices 0..24 have tables, 24..32 none; 32..40 are past capacity.
    const CAP: u32 = 32;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x711E + seed);
        let cfg = if seed % 2 == 0 {
            GraphConfig::directed_map(CAP)
        } else {
            GraphConfig::directed_set(CAP)
        };
        // Hints of 60 give each table 6 buckets (map) or 3 (set); 300
        // edges then chain several slabs per bucket.
        let mut g = DynGraph::with_degree_hints(cfg, &[60; 24]);
        let edges: Vec<Edge> = (0..24u32)
            .flat_map(|u| (0..300u32).map(move |i| Edge::weighted(u, (i * 7 + u) % 1000, i)))
            .collect();
        g.insert_edges(&edges);
        let gone: Vec<Edge> = edges.iter().step_by(3).copied().collect();
        g.delete_edges(&gone);
        assert!(
            g.stats(&g.pin_read()).tables.tombstones > 0,
            "fixture has tombstones"
        );

        let mut lengths: Vec<usize> = vec![1, 2, 31, 32, 33, 255, 256, 257, 511, 512, 513, 700];
        lengths.extend((0..4).map(|_| rng.random_range(1..701usize)));
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut src = u32::MAX;
        for &len in &lengths {
            // A new source each run, so the runs stay apart.
            let next = loop {
                let s = rng.random_range(0..CAP + 8);
                if s != src {
                    break s;
                }
            };
            src = next;
            pairs.extend((0..len).map(|_| (src, rng.random_range(0..1000u32))));
        }
        let per_pair: Vec<bool> = {
            let pin = g.pin_read();
            pairs
                .iter()
                .map(|&(u, v)| g.edge_exists(&pin, u, v))
                .collect()
        };
        assert!(per_pair.iter().any(|&b| b) && per_pair.iter().any(|&b| !b));
        // Each run of 32 or more becomes ⌈len / 256⌉ tile warps; the
        // shorter runs share 32-lane chunk warps.
        let tiles: usize = lengths
            .iter()
            .filter(|&&l| l >= 32)
            .map(|&l| l.div_ceil(256))
            .sum();
        let rest: usize = lengths.iter().filter(|&&l| l < 32).sum();
        for policy in [ExecPolicy::Sequential, ExecPolicy::Threaded(4)] {
            g.device_mut().set_policy(policy);
            let pin = g.pin_read();
            let before = g.device().counters().snapshot();
            let tiled = g.edges_exist(&pin, &pairs);
            let delta = g.device().counters().snapshot().delta(&before);
            if let Some(i) = (0..pairs.len()).find(|&i| tiled[i] != per_pair[i]) {
                panic!(
                    "{policy:?} seed {seed}: pair {i} {:?}: tiled {}",
                    pairs[i], tiled[i]
                );
            }
            assert_eq!(
                delta.warps,
                (tiles + rest.div_ceil(32)) as u64,
                "{policy:?} seed {seed}"
            );
        }
    }
}
