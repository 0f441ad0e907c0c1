//! Breadth-first search over any graph backend — a representative
//! read-only analytic exercising the adjacency iterator, included to show
//! the structures slot into a Gunrock-style frontier workflow.

use backend::GraphBackend;

/// Level (hop distance) of every vertex from `src`; `u32::MAX` for
/// unreachable vertices. Frontier-at-a-time traversal, one batched
/// adjacency read ([`GraphBackend::read_neighbors`]) of the whole
/// frontier per level. Each frontier is sorted by vertex id first (host
/// work between launches), so consecutive requested vertices share
/// dictionary lines and a slab-hash backend reads each line once.
pub fn bfs_levels<B: GraphBackend + ?Sized>(g: &B, src: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut levels = vec![u32::MAX; n as usize];
    if src >= n {
        return levels;
    }
    levels[src as usize] = 0;
    let pin = g.pin_read();
    let mut frontier = vec![src];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in g.read_neighbors(&pin, &frontier).lists().flatten() {
            let slot = &mut levels[v as usize];
            if *slot == u32::MAX {
                *slot = depth;
                next.push(v);
            }
        }
        next.sort_unstable();
        frontier = next;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{Csr, Hornet};
    use graph_gen::fixtures::mirror;
    use slabgraph::{DynGraph, Edge, GraphConfig};

    fn path_graph(n: u32) -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
        let edges: Vec<Edge> = (0..n - 1).map(|u| Edge::new(u, u + 1)).collect();
        g.insert_edges(&edges);
        g
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(6);
        let levels = bfs_levels(&g, 0);
        assert_eq!(levels, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_from_middle() {
        let g = path_graph(5);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_vertices_are_max() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(6), 6, 1);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(3, 4)]);
        let levels = bfs_levels(&g, 0);
        assert_eq!(levels[1], 1);
        assert_eq!(levels[3], u32::MAX);
        assert_eq!(levels[5], u32::MAX);
    }

    #[test]
    fn bfs_tracks_dynamic_updates() {
        let g = path_graph(5);
        assert_eq!(bfs_levels(&g, 0)[4], 4);
        // Shortcut edge halves the distance.
        g.insert_edges(&[Edge::new(0, 4)]);
        assert_eq!(bfs_levels(&g, 0)[4], 1);
        // Cutting the path after the shortcut keeps 4 reachable via it.
        g.delete_edges(&[Edge::new(2, 3)]);
        let l = bfs_levels(&g, 0);
        assert_eq!(l[3], 2, "3 now reached via 4");
    }

    #[test]
    fn bfs_out_of_range_source() {
        let g = path_graph(3);
        assert!(bfs_levels(&g, 99).iter().all(|&l| l == u32::MAX));
    }

    #[test]
    fn bfs_agrees_across_backends() {
        let path: Vec<(u32, u32)> = (0..5u32).map(|u| (u, u + 1)).collect();
        let dir = mirror(&path);
        let slab = path_graph(6);
        let hornet = Hornet::bulk_build(6, &dir, 1 << 16);
        let csr = Csr::build(6, &dir, 1 << 16);
        let expect = vec![0, 1, 2, 3, 4, 5];
        assert_eq!(bfs_levels(&slab, 0), expect, "slabgraph");
        assert_eq!(bfs_levels(&hornet, 0), expect, "hornet");
        assert_eq!(bfs_levels(&csr, 0), expect, "csr");
    }
}
