//! # dynamic-graphs-gpu
//!
//! Umbrella crate for the reproduction of **"Dynamic Graphs on the GPU"**
//! (Awad, Ashkiani, Porumbescu, Owens; 2020). It re-exports the workspace
//! crates so examples and downstream users need a single dependency:
//!
//! - [`slabgraph`] — the paper's contribution: a dynamic graph with one
//!   slab hash table per vertex adjacency list.
//! - [`gpu_sim`] — the simulated SIMT substrate (warps, device memory,
//!   transaction counters, TITAN V cost model).
//! - [`slab_alloc`] / [`slab_hash`] — the allocator and hash tables.
//! - [`baselines`] — Hornet / faimGraph / CSR / sort workalikes.
//! - [`backend`] — the [`backend::GraphBackend`] trait unifying all four
//!   structures behind one generic algorithm/benchmark surface.
//! - [`router`] — [`router::ShardedGraph`] hash-partitioning one logical
//!   graph across N shards on a [`gpu_sim::DeviceGroup`], plus the
//!   [`router::BatchRouter`] coalescing concurrent client sessions into
//!   per-shard batches.
//! - [`graph_gen`] — Table I dataset catalog and workload generators.
//! - [`algos`] — generic triangle counting (static + dynamic) and BFS
//!   over any [`backend::GraphBackend`].
//!
//! See README.md for a tour, DESIGN.md for the system inventory, and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! ```
//! use dynamic_graphs_gpu::prelude::*;
//!
//! let g = DynGraph::new(GraphConfig::undirected_map(128));
//! g.insert_edges(&[Edge::weighted(0, 1, 7), Edge::weighted(1, 2, 9)]);
//! assert_eq!(g.num_edges(), 4); // undirected: both half-edges counted
//! assert!(g.edge_exists(&g.pin_read(), 2, 1));
//! ```

pub use algos;
pub use backend;
pub use baselines;
pub use gpu_sim;
pub use graph_gen;
pub use router;
pub use slab_alloc;
pub use slab_hash;
pub use slabgraph;

/// The names most programs need.
pub mod prelude {
    pub use algos::{bfs_levels, tc};
    pub use backend::{Capabilities, GraphBackend, IntersectionKind};
    pub use graph_gen::{catalog, insert_batch, vertex_batch};
    pub use router::{
        shard_of, BatchRouter, FlushReport, ReadQuality, RetryPolicy, RouterError, RouterReport,
        ShardHealth, ShardedGraph, Update,
    };
    pub use slabgraph::{
        AllocError, BatchOp, BatchOutcome, Direction, DynGraph, Edge, FaultPlan, GraphConfig,
        GraphError, GraphStats, OomError, ReadGuard, TableKind, ValidationError,
        DEFAULT_LOAD_FACTOR,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_roundtrip() {
        let g = DynGraph::new(GraphConfig::directed_map(8));
        g.insert_edges(&[Edge::weighted(1, 2, 3)]);
        let adj = g.read_neighbors(&g.pin_read(), &[1]);
        assert_eq!(adj.entries(0).collect::<Vec<_>>(), [(2, 3)]);
    }
}
