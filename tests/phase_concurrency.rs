//! Phase-concurrency validation: the paper's operations are batched and
//! phase-concurrent, so the final structure state must be identical (up to
//! slot placement) whether kernels run on the deterministic sequential
//! executor or on racing host threads.

use dynamic_graphs_gpu::gpu_sim::ExecPolicy;
use dynamic_graphs_gpu::prelude::*;

fn canonical_state(g: &DynGraph) -> Vec<(u32, Vec<(u32, u32)>)> {
    (0..g.vertex_capacity())
        .map(|v| {
            let mut n = g
                .read_neighbors(&g.pin_read(), &[v])
                .entries(0)
                .collect::<Vec<_>>();
            n.sort_unstable();
            (g.degree(v), n)
        })
        .enumerate()
        .map(|(v, (d, n))| {
            assert_eq!(d as usize, n.len(), "vertex {v} count mismatch");
            (d, n)
        })
        .collect()
}

fn run_workload(policy: ExecPolicy, weights_matter: bool) -> Vec<(u32, Vec<(u32, u32)>)> {
    let n = 256u32;
    let mut cfg = if weights_matter {
        GraphConfig::directed_map(n)
    } else {
        GraphConfig::directed_set(n)
    };
    cfg.device_words = 1 << 20;
    let mut g = DynGraph::with_uniform_buckets(cfg, n, 1);
    g.device_mut().set_policy(policy);

    // Deterministic workload with duplicate-free weights so that even a
    // racy-but-correct executor must converge to the same state. (For the
    // map variant, each ⟨u,v⟩ appears with one weight only: replace races
    // are then value-neutral.)
    for round in 0..4u64 {
        let ins: Vec<Edge> = insert_batch(n, 2000, round)
            .into_iter()
            .map(|(u, v)| Edge::weighted(u, v, u ^ v))
            .collect();
        g.insert_edges(&ins);
        let del: Vec<Edge> = insert_batch(n, 700, 50 + round)
            .into_iter()
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        g.delete_edges(&del);
    }
    g.check_invariants();
    canonical_state(&g)
}

#[test]
fn sequential_and_threaded_executors_agree_map() {
    let seq = run_workload(ExecPolicy::Sequential, true);
    for threads in [2, 4] {
        let thr = run_workload(ExecPolicy::Threaded(threads), true);
        assert_eq!(seq, thr, "threaded({threads}) diverged from sequential");
    }
}

#[test]
fn sequential_and_threaded_executors_agree_set() {
    let seq = run_workload(ExecPolicy::Sequential, false);
    let thr = run_workload(ExecPolicy::Threaded(4), false);
    assert_eq!(seq, thr);
}

#[test]
fn threaded_vertex_deletion_is_complete() {
    // Vertex deletion under the threaded executor must still remove every
    // victim from every survivor's table.
    let n = 200u32;
    let mut cfg = GraphConfig::undirected_map(n);
    cfg.device_words = 1 << 20;
    let mut g = DynGraph::with_uniform_buckets(cfg, n, 1);
    let mut edges = vec![];
    for u in 0..n {
        for k in 1..=5 {
            edges.push(Edge::weighted(u, (u + k) % n, u + k));
        }
    }
    g.insert_edges(&edges);
    g.device_mut().set_policy(ExecPolicy::Threaded(4));
    let victims: Vec<u32> = (0..n).step_by(3).collect();
    g.delete_vertices(&victims);

    let victim_set: std::collections::HashSet<u32> = victims.iter().copied().collect();
    for &v in &victims {
        assert_eq!(g.degree(v), 0);
    }
    for u in 0..n {
        for &d in g.read_neighbors(&g.pin_read(), &[u]).list(0) {
            assert!(!victim_set.contains(&d), "{u} -> deleted {d} survived");
        }
    }
}

#[test]
fn concurrent_duplicate_heavy_batch_stays_unique() {
    // Stress the first-empty-CAS-retry uniqueness protocol: a batch where
    // every warp inserts the same few edges, on racing threads.
    let n = 8u32;
    let mut cfg = GraphConfig::directed_map(n);
    cfg.device_words = 1 << 18;
    let mut g = DynGraph::with_uniform_buckets(cfg, n, 1);
    g.device_mut().set_policy(ExecPolicy::Threaded(4));
    let batch: Vec<Edge> = (0..4096)
        .map(|i| Edge::weighted(i % 4, 4 + (i % 3), 1))
        .collect();
    g.insert_edges(&batch);
    g.check_invariants();
    for u in 0..4 {
        assert_eq!(g.degree(u), 3, "vertex {u} must store exactly 3 edges");
    }
}
