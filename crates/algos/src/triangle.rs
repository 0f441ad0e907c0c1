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
//!   an `edgeExist` query for all edges". Every wedge v–u–w with u < v < w
//!   costs one probe of its closing edge {v, w}, issued in the table of
//!   the endpoint with the *shorter* adjacency list (ties on id): a miss
//!   walks its probe table's whole chain, so the short side is the cheap
//!   side. Probes are issued grouped by the table they probe, which fills
//!   each `edgeExist` warp with one source whose chain is walked once for
//!   all its lanes. O(1) per probe, no sorting of the device lists needed.
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

/// The hash approach: one batched `edgeExist` probe per wedge, flushed
/// through the backend's batched query kernel.
///
/// Every adjacency list is read once (through `read_neighbors`) and held,
/// sorted, on the host: O(E) words. A wedge v–u–w (u < v < w) probes its
/// closing edge in the table of whichever of v and w sorts first by
/// (list length, id) — the *target* t — for the other endpoint x: with
/// one bucket per vertex a hub's chain is many slabs long, and a miss
/// walks all of it, while the short side's chain is short. Either way
/// there is one probe per pair of a vertex's higher neighbours.
///
/// Probes are issued target-major: for each target t and each lower
/// neighbour u < t, the wedges t–u–x come from u's list (x > u, x ≠ t,
/// t sorting before x), so each wedge is issued exactly once and all of
/// t's probes are contiguous. `edges_exist` groups a warp's lanes by
/// source, so up to 32 probes share one descriptor read and one walk of
/// t's chain.
fn tc_hash_probe<B: GraphBackend + ?Sized>(g: &B, pin: &ReadPin) -> u64 {
    // One logical TC kernel: helper launches fuse under one named scope.
    g.device().fused_scope("triangle_count", || {
        let adj: Vec<Vec<u32>> = (0..g.num_vertices())
            .map(|u| {
                let mut list = g.read_neighbors(pin, u);
                list.sort_unstable();
                list
            })
            .collect();
        // A directed graph's destination may lie past the vertex range.
        let len = |v: u32| adj.get(v as usize).map_or(0, Vec::len);
        let sorts_first = |a: u32, b: u32| (len(a), a) < (len(b), b);
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
        for (t, list) in (0u32..).zip(&adj) {
            for &u in list.iter().take_while(|&&u| u < t) {
                let up = &adj[u as usize];
                for &x in &up[up.partition_point(|&x| x <= u)..] {
                    if x != t && sorts_first(t, x) {
                        pending.push((t, x));
                        if pending.len() >= FLUSH {
                            count += flush(&mut pending);
                        }
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
    use slabgraph::{CounterSnapshot, DynGraph, Edge, GraphConfig};

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

    /// Sorted, deduplicated undirected adjacency lists.
    fn host_adjacency(n: u32, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n as usize];
        for (u, v) in both_directions(edges) {
            if u != v {
                adj[u as usize].push(v);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// The id-ordered probe stream: for each apex u, every pair v < w of
    /// its higher neighbours probes w in v's table, whatever its length.
    fn per_apex_probes(adj: &[Vec<u32>]) -> Vec<(u32, u32)> {
        let mut probes = Vec::new();
        for (u, list) in (0u32..).zip(adj) {
            let up: Vec<u32> = list.iter().copied().filter(|&v| v > u).collect();
            for (i, &v) in up.iter().enumerate() {
                probes.extend(up[i + 1..].iter().map(|&w| (v, w)));
            }
        }
        probes
    }

    /// Build a one-bucket-per-vertex SlabGraph, count its triangles, and
    /// return the count with the `triangle_count` kernel's counters.
    fn counted(n: u32, edges: &[(u32, u32)]) -> (DynGraph, u64, CounterSnapshot) {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
        g.insert_edges(&edges.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        let before = g.device().trace();
        let count = tc(&g);
        let delta = g.device().trace().delta(&before);
        let row = delta
            .kernels
            .iter()
            .find(|k| k.name == "triangle_count")
            .map(|k| k.counters)
            .expect("tc runs under one triangle_count scope");
        assert_eq!(row, delta.global, "tc launches nothing outside its scope");
        (g, count, row)
    }

    #[test]
    fn hash_probe_issues_one_probe_per_wedge() {
        // Below one 2^16 flush: one read warp per vertex, then one
        // `edge_exist` launch of ⌈wedges / 32⌉ warps, all fused into one
        // `triangle_count` launch.
        let (n, edges) = (64u32, graph_gen::uniform_random(64, 600, 42));
        let wedges = per_apex_probes(&host_adjacency(n, &edges)).len() as u64;
        assert!(wedges < 1 << 16, "fixture fits one flush");
        let (_, count, row) = counted(n, &edges);
        assert_eq!(count, tc_reference(n, &edges));
        assert_eq!(row.warps, n as u64 + wedges.div_ceil(32));
        assert_eq!(row.launches, 1);
    }

    #[test]
    fn hash_probe_walks_the_shorter_chain() {
        // Vertex 100 is a hub joined to every other vertex: one bucket
        // holds its 255 edges in a long chain. In id order every wedge
        // u–100–w with u < 100 < w probes the hub's chain, and mostly
        // misses it end to end; probed from the short side, it costs the
        // short chain's walk.
        let n = 256u32;
        let mut edges = graph_gen::uniform_random(n, 1200, 7);
        edges.extend((0..n).filter(|&v| v != 100).map(|v| (100, v)));
        let adj = host_adjacency(n, &edges);
        assert!(adj[100].len() >= 200);
        let (g, count, row) = counted(n, &edges);
        assert_eq!(count, tc_reference(n, &edges));

        let probes = per_apex_probes(&adj);
        let pin = g.pin_read();
        let before = g.device().counters().snapshot();
        let hits = g
            .edges_exist(&pin, &probes)
            .into_iter()
            .filter(|&b| b)
            .count();
        let id_order = g.device().counters().snapshot().delta(&before);
        assert_eq!(hits as u64, count);
        assert!(
            row.transactions < id_order.transactions,
            "tc {} transactions (reads included) vs {} for the id-ordered probes alone",
            row.transactions,
            id_order.transactions
        );
    }

    #[test]
    fn hash_probe_tolerates_destinations_past_the_vertex_range() {
        // A directed graph stores destination 100 without growing its
        // eight-vertex dictionary; the wedge 1–0–100 must not index past
        // it.
        let g = DynGraph::new(GraphConfig::directed_set(8));
        g.insert_edges(&[Edge::new(0, 100), Edge::new(0, 1), Edge::new(1, 0)]);
        assert_eq!(tc(&g), 0);
    }

    #[test]
    fn intersect_above_basics() {
        assert_eq!(intersect_above(&[1, 3, 5, 7], &[3, 5, 9], 0), 2);
        assert_eq!(intersect_above(&[1, 3, 5, 7], &[3, 5, 9], 3), 1);
        assert_eq!(intersect_above(&[], &[1], 0), 0);
    }
}
