//! # slabgraph — dynamic graphs on the (simulated) GPU
//!
//! A faithful Rust reproduction of the data structure from **"Dynamic
//! Graphs on the GPU"** (Awad, Ashkiani, Porumbescu, Owens; 2020): a
//! dynamic graph whose per-vertex adjacency lists are *slab hash tables*,
//! giving O(1) edge queries and extremely high batched update rates while
//! guaranteeing edge uniqueness without any sorting.
//!
//! ## Structure (paper §III)
//!
//! - A **vertex dictionary**: a flat device array indexed by vertex id,
//!   holding per vertex a pointer to its hash table, its bucket count, and
//!   an exact live-edge count.
//! - One **slab hash** per vertex ([`slab_hash`]): map variant when edges
//!   carry weights, set variant otherwise. Base slabs for all vertices are
//!   allocated in one contiguous bulk region; collision slabs come from a
//!   warp-cooperative [`slab_alloc::SlabAllocator`].
//!
//! ## Operations
//!
//! | paper | here |
//! |---|---|
//! | Algorithm 1 (batched edge insertion) | [`DynGraph::insert_edges`] |
//! | batched edge deletion (§IV-C2) | [`DynGraph::delete_edges`] |
//! | mixed insert/delete batch, one launch | [`DynGraph::try_update_edges`] |
//! | vertex insertion (§IV-D1) | [`DynGraph::insert_vertices`] |
//! | Algorithm 2 (vertex deletion) | [`DynGraph::delete_vertices`] |
//! | `edgeExist` (§IV-B) | [`DynGraph::edge_exists`], [`DynGraph::edges_exist`] |
//! | adjacency iterator (§IV-B), one vertex batch per launch | [`DynGraph::read_neighbors`] |
//! | bulk build (§V-B1) | [`DynGraph::bulk_build`] |
//! | incremental build (§V-B2) | [`DynGraph::with_uniform_buckets`] + batches |
//!
//! All operations run as phase-concurrent kernels over the [`gpu_sim`]
//! SIMT substrate and charge its transaction counters, from which the
//! benchmark harness derives modeled GPU time.
//!
//! ## Quickstart
//!
//! Queries run under an epoch-pinned [`ReadGuard`] (from
//! [`DynGraph::pin_read`]): while a guard is held, the slab allocator
//! recycles no slab freed at or after the pinned era, so reads stay
//! snapshot-consistent even while update batches land concurrently.
//!
//! ```
//! use slabgraph::{DynGraph, Edge, GraphConfig};
//!
//! // A directed weighted graph with capacity for 1024 vertices.
//! let g = DynGraph::new(GraphConfig::directed_map(1024));
//! g.insert_edges(&[
//!     Edge::weighted(0, 1, 10),
//!     Edge::weighted(0, 2, 20),
//!     Edge::weighted(1, 2, 30),
//! ]);
//! let pin = g.pin_read();
//! assert!(g.edge_exists(&pin, 0, 1));
//! // Weights come with the adjacency read: ⟨dst, weight⟩ per edge.
//! let adj = g.read_neighbors(&pin, &[1]);
//! assert_eq!(adj.entries(0).collect::<Vec<_>>(), [(2, 30)]);
//! assert_eq!(g.num_edges(), 3);
//!
//! g.delete_edges(&[Edge::new(0, 1)]);
//! // The guard pins *reclamation*, not the data: reads see current state.
//! assert!(!g.edge_exists(&pin, 0, 1));
//! ```

// A guard bound to `_` drops at once and pins nothing.
#![cfg_attr(not(test), deny(let_underscore_drop))]

mod batch;
mod config;
mod dict;
mod edge_ops;
mod graph;
mod maintenance;
mod query;
mod stats;
mod vertex_ops;

pub use batch::{BatchOp, BatchOutcome, GraphError};
pub use config::{Direction, GraphConfig, DEFAULT_LOAD_FACTOR};
pub use dict::{VertexDict, CERTIFIED, ENTRY_WORDS};
pub use edge_ops::Update;
pub use graph::{DynGraph, Edge};
pub use query::Adjacency;
pub use stats::{GraphStats, ValidationError};

// Re-export the substrate types callers need for instrumentation and
// failure-model configuration.
pub use gpu_sim::{
    CostModel, CounterSnapshot, Device, DeviceConfig, ExecPolicy, FaultPlan, OomError,
};
pub use slab_alloc::{AllocError, PinRegistry, ReadGuard};
pub use slab_hash::{TableKind, TableStats};
