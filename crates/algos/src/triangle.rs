//! Triangle counting, static and dynamic (paper §VI-C).
//!
//! All counters assume an **undirected** graph stored with both edge
//! directions and count each triangle exactly once (smallest-vertex
//! convention: a triangle a<b<c is counted at `a` via the pair (b, c)).
//!
//! A single generic [`tc`] serves every structure through the
//! [`GraphBackend`] trait, dispatching on the backend's declared
//! [`IntersectionKind`]:
//!
//! - **Hash probe** (SlabGraph) — the paper's hash approach: "we perform
//!   an `edgeExist` query for all edges". For every vertex `u` and
//!   neighbour pair v<w (both > u), probe w in A_v. O(1) per probe, no
//!   sorting needed.
//! - **Sorted merge** (Hornet, faimGraph, CSR) — the list approach:
//!   intersect two *sorted* adjacency lists with a serial merge walk
//!   ("little parallelism, but cheaper and faster than a
//!   hash-table-based solution" — the paper's own Table VII finding).
//!   The required sorting is charged separately (Table VIII): call
//!   [`GraphBackend::ensure_sorted`] before counting.

use backend::{GraphBackend, IntersectionKind, ReadPin};

/// Host-side reference triangle count from a raw undirected edge list
/// (used by tests to validate every implementation).
pub fn tc_reference(n_vertices: u32, edges: &[(u32, u32)]) -> u64 {
    let mut adj: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n_vertices as usize];
    for &(u, v) in edges {
        if u != v && u < n_vertices && v < n_vertices {
            adj[u as usize].insert(v);
            adj[v as usize].insert(u);
        }
    }
    let mut count = 0u64;
    for u in 0..n_vertices {
        let nu: Vec<u32> = adj[u as usize].iter().copied().filter(|&v| v > u).collect();
        for (i, &v) in nu.iter().enumerate() {
            for &w in &nu[i + 1..] {
                if adj[v as usize].contains(&w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Triangle count over any [`GraphBackend`], using the intersection
/// strategy the backend declares in its capabilities. All device work is
/// fused under one `triangle_count` kernel scope for attribution.
///
/// # Panics
/// Sorted-merge backends must have sorted adjacency lists — call
/// [`GraphBackend::ensure_sorted`] first (its cost is Table VIII's
/// subject).
pub fn tc<B: GraphBackend + ?Sized>(g: &B) -> u64 {
    // The whole count is one read phase under one pin.
    let pin = g.pin_read();
    match g.caps().intersection {
        IntersectionKind::HashProbe => tc_hash_probe(g, &pin),
        IntersectionKind::SortedMerge => tc_sorted_merge(g, &pin),
    }
}

/// The hash approach: batched `edgeExist` probes for every candidate
/// closing edge, flushed through the backend's batched query kernel.
fn tc_hash_probe<B: GraphBackend + ?Sized>(g: &B, pin: &ReadPin) -> u64 {
    // One logical TC kernel: helper launches fuse under one named scope.
    g.device().fused_scope("triangle_count", || {
        let mut count = 0u64;
        let mut pending: Vec<(u32, u32)> = Vec::new();
        const FLUSH: usize = 1 << 16;
        let flush = |pairs: &mut Vec<(u32, u32)>| -> u64 {
            if pairs.is_empty() {
                return 0;
            }
            let hits = g.edges_exist(pin, pairs).into_iter().filter(|&b| b).count() as u64;
            pairs.clear();
            hits
        };
        for u in 0..g.num_vertices() {
            let mut nu: Vec<u32> = g
                .read_neighbors(pin, u)
                .into_iter()
                .filter(|&v| v > u)
                .collect();
            nu.sort_unstable();
            for (i, &v) in nu.iter().enumerate() {
                for &w in &nu[i + 1..] {
                    pending.push((v, w));
                    if pending.len() >= FLUSH {
                        count += flush(&mut pending);
                    }
                }
            }
        }
        count += flush(&mut pending);
        count
    })
}

/// The list approach: serial sorted-merge intersection of adjacency
/// lists.
fn tc_sorted_merge<B: GraphBackend + ?Sized>(g: &B, pin: &ReadPin) -> u64 {
    assert!(
        g.is_sorted(),
        "{} TC requires sorted adjacency lists",
        g.name()
    );
    g.device().fused_scope("triangle_count", || {
        let mut count = 0u64;
        for u in 0..g.num_vertices() {
            let adj_u = g.read_neighbors(pin, u);
            debug_assert!(adj_u.windows(2).all(|w| w[0] <= w[1]), "unsorted list");
            for &v in adj_u.iter().filter(|&&v| v > u) {
                let adj_v = g.read_neighbors(pin, v);
                count += intersect_above(&adj_u, &adj_v, v);
            }
        }
        count
    })
}

/// Serial sorted-merge intersection size over elements `> floor`.
fn intersect_above(a: &[u32], b: &[u32], floor: u32) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i] > floor {
                    n += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// One round of the dynamic triangle-counting scenario (Table IX):
/// timings for "insert a batch, then recount triangles".
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicTcRound {
    pub insert_seconds: f64,
    pub tc_seconds: f64,
    pub triangles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{Csr, FaimGraph, Hornet};
    use graph_gen::fixtures::{both_directions, fixture_edges, FIXTURE_TRIANGLES};
    use slabgraph::{DynGraph, Edge, GraphConfig};

    #[test]
    fn reference_counts_k5() {
        let (n, e) = fixture_edges();
        // K5 has C(5,3) = 10 triangles; the 4-cycle has none.
        assert_eq!(tc_reference(n, &e), FIXTURE_TRIANGLES);
    }

    #[test]
    fn slabgraph_matches_reference() {
        let (n, e) = fixture_edges();
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
        g.insert_edges(&e.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        assert_eq!(tc(&g), FIXTURE_TRIANGLES);
    }

    #[test]
    fn hornet_matches_reference() {
        let (n, e) = fixture_edges();
        let mut g = Hornet::bulk_build(n, &both_directions(&e), 1 << 18);
        g.sort_adjacencies();
        assert_eq!(tc(&g), FIXTURE_TRIANGLES);
    }

    #[test]
    fn faimgraph_matches_reference() {
        let (n, e) = fixture_edges();
        let g = FaimGraph::build(n, &both_directions(&e), 1 << 18);
        g.sort_adjacencies();
        assert_eq!(tc(&g), FIXTURE_TRIANGLES);
    }

    #[test]
    fn csr_matches_reference() {
        let (n, e) = fixture_edges();
        let g = Csr::build(n, &both_directions(&e), 1 << 18);
        assert_eq!(tc(&g), FIXTURE_TRIANGLES);
    }

    #[test]
    fn all_structures_agree_on_random_graph() {
        let edges = graph_gen::uniform_random(64, 600, 42);
        let n = 64u32;
        let expect = tc_reference(n, &edges);
        assert!(expect > 0, "fixture should contain triangles");

        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
        g.insert_edges(&edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        assert_eq!(tc(&g), expect, "slabgraph");

        let dir = both_directions(&edges);
        let mut h = Hornet::bulk_build(n, &dir, 1 << 20);
        h.sort_adjacencies();
        assert_eq!(tc(&h), expect, "hornet");

        let f = FaimGraph::build(n, &dir, 1 << 20);
        f.sort_adjacencies();
        assert_eq!(tc(&f), expect, "faimgraph");

        let c = Csr::build(n, &dir, 1 << 20);
        assert_eq!(tc(&c), expect, "csr");
    }

    #[test]
    fn tc_after_incremental_updates() {
        // Dynamic scenario: counts must track edge insertions/deletions.
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(8), 8, 1);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 2)]);
        assert_eq!(tc(&g), 0);
        g.insert_edges(&[Edge::new(0, 2)]);
        assert_eq!(tc(&g), 1, "closing the wedge makes a triangle");
        g.insert_edges(&[Edge::new(0, 3), Edge::new(1, 3)]);
        assert_eq!(tc(&g), 2);
        g.delete_edges(&[Edge::new(0, 1)]);
        assert_eq!(tc(&g), 0, "shared edge removal kills both");
    }

    #[test]
    fn tc_through_trait_objects() {
        // The whole point of the trait layer: one loop, four structures.
        let (n, e) = fixture_edges();
        let dir = both_directions(&e);
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
        g.insert_edges(&e.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        let backends: Vec<Box<dyn GraphBackend>> = vec![
            Box::new(g),
            Box::new(Hornet::bulk_build(n, &dir, 1 << 18)),
            Box::new(FaimGraph::build(n, &dir, 1 << 18)),
            Box::new(Csr::build(n, &dir, 1 << 18)),
        ];
        for mut b in backends {
            b.ensure_sorted();
            assert_eq!(tc(b.as_ref()), FIXTURE_TRIANGLES, "{}", b.name());
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn hornet_tc_requires_sort() {
        let mut g = Hornet::bulk_build(8, &[(0, 1), (1, 0)], 1 << 16);
        g.insert_batch(&[(0, 2)]); // unsorts
        tc(&g);
    }

    #[test]
    fn intersect_above_basics() {
        assert_eq!(intersect_above(&[1, 3, 5, 7], &[3, 5, 9], 0), 2);
        assert_eq!(intersect_above(&[1, 3, 5, 7], &[3, 5, 9], 3), 1);
        assert_eq!(intersect_above(&[], &[1], 0), 0);
    }
}
