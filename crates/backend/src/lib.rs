//! # backend — one trait over every dynamic-graph structure
//!
//! The paper compares four structures (SlabGraph §IV, Hornet, faimGraph,
//! and static CSR) on the same workloads. This crate captures the shared
//! surface as the object-safe [`GraphBackend`] trait so that algorithms
//! (`algos`) and benchmark drivers (`bench`) are written **once** and run
//! against any structure.
//!
//! Design notes:
//!
//! - The trait is object-safe: benchmark drivers hold
//!   `Box<dyn GraphBackend>` contenders and loop over them.
//! - Each read question has one batched verb: [`GraphBackend::edges_exist`]
//!   answers membership (the paper's `edgeExist`) and
//!   [`GraphBackend::read_neighbors`] reads a vertex batch's adjacency
//!   lists into one CSR-shaped [`Adjacency`]. Every backend implements
//!   both with its native read, so one read entry point per backend
//!   carries its charges.
//! - Not every structure supports every operation (CSR is static; Hornet
//!   has no vertex deletion). [`Capabilities`] advertises what a backend
//!   can do so generic drivers can skip unsupported contenders instead of
//!   panicking.
//! - Edges at the trait level are unweighted `(u32, u32)` pairs: none of
//!   the paper's cross-structure workloads exercise weights, and the
//!   SlabGraph map variant charges identically for any weight value.
//! - [`GraphBackend::device`] exposes the simulated [`Device`] so callers
//!   can snapshot counters and pull per-kernel attribution around any
//!   trait call.

// A guard bound to `_` drops at once and pins nothing.
#![cfg_attr(not(test), deny(let_underscore_drop))]

use baselines::{Csr, FaimGraph, Hornet};
use gpu_sim::Device;
use slabgraph::{DynGraph, Edge, ReadGuard};

pub use slabgraph::Adjacency;

/// An epoch pin over every allocator a backend reads from — the trait-level
/// form of [`slabgraph::ReadGuard`]. Backends with true epoch-based
/// reclamation (SlabGraph, sharded SlabGraph) return one guard per shard;
/// phase-separated backends (CSR, Hornet, faimGraph) return the empty
/// `ReadPin::default()` and rely on the caller keeping reads and writes in
/// separate phases. Holding a `ReadPin` across a mutation is only
/// snapshot-safe when [`Self::is_pinned`] is true.
#[must_use = "queries are only snapshot-safe while the pin is held"]
#[derive(Default)]
pub struct ReadPin {
    guards: Vec<ReadGuard>,
}

impl ReadPin {
    /// Wrap per-shard guards (shard order) into one trait-level pin.
    pub fn from_guards(guards: Vec<ReadGuard>) -> Self {
        ReadPin { guards }
    }

    /// Whether any era is actually pinned: true exactly for the backends
    /// whose queries may run concurrently with mutation batches (epoch
    /// reclamation plus validated chain walks); false for the empty pin
    /// of a phase-separated backend.
    pub fn is_pinned(&self) -> bool {
        !self.guards.is_empty()
    }

    /// The per-shard guards, in shard order.
    ///
    /// # Panics
    /// On the empty pin: an epoch-pinned backend handed another backend's
    /// pin must not read unprotected.
    pub fn guards(&self) -> &[ReadGuard] {
        assert!(
            self.is_pinned(),
            "empty ReadPin handed to an epoch-pinned backend; take the pin from its own pin_read()"
        );
        &self.guards
    }
}

/// Which adjacency-intersection strategy suits this backend's layout
/// (paper §VI-C): hash tables probe (`edgeExist`), sorted arrays merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectionKind {
    /// O(1) membership probes against a hash table; no sorting required.
    HashProbe,
    /// Serial merge-walk over two sorted adjacency arrays; requires
    /// [`GraphBackend::ensure_sorted`] first.
    SortedMerge,
}

/// What a backend supports. Generic drivers consult this to skip
/// contenders rather than panic on unsupported operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Batched edge insertion after construction.
    pub insert_edges: bool,
    /// Batched edge deletion.
    pub delete_edges: bool,
    /// Batched vertex deletion (with incident edges).
    pub delete_vertices: bool,
    /// Preferred triangle-counting intersection strategy.
    pub intersection: IntersectionKind,
}

/// The shared surface of every graph structure in the study.
///
/// Mutating operations take `&mut self` at the trait level even where a
/// concrete structure offers interior mutability (`DynGraph`,
/// `FaimGraph`): the trait models the logical host-side protocol, in
/// which updates are phase-exclusive.
///
/// # Panics
/// Calling a mutating operation whose [`Capabilities`] flag is `false`
/// panics. Check `caps()` first when driving heterogeneous backends.
pub trait GraphBackend {
    /// Short structure name for reports ("SlabGraph", "Hornet", ...).
    fn name(&self) -> &'static str;

    /// What this backend supports.
    fn caps(&self) -> Capabilities;

    /// The simulated device, for counter snapshots and per-kernel
    /// attribution around any trait call. Multi-device backends return
    /// their first shard here; see [`Self::devices`].
    fn device(&self) -> &Device;

    /// Every device this backend runs on, in shard order. Single-device
    /// backends (the default) return just [`Self::device`]; a sharded
    /// backend returns one device per shard so drivers can sum counter
    /// deltas across shards and take the per-shard *maximum* of modeled
    /// times (shards execute concurrently — the makespan is the slowest
    /// shard, not the sum).
    fn devices(&self) -> Vec<&Device> {
        vec![self.device()]
    }

    /// Number of vertex slots (IDs are `0..num_vertices()`).
    fn num_vertices(&self) -> u32;

    /// Current number of directed edges stored.
    fn num_edges(&self) -> u64;

    /// Out-degree of `u`.
    fn degree(&self, u: u32) -> u32;

    /// Pin the current era for snapshot reads; both queries below take
    /// the pin. Epoch-pinned backends return a live pin (one guard per
    /// shard) under which queries tolerate concurrent mutation; the
    /// default returns the empty pin, which phase-separated backends
    /// accept and ignore. Scope the pin to one read phase and drop it
    /// before the next mutation.
    fn pin_read(&self) -> ReadPin {
        ReadPin::default()
    }

    /// Batched `edgeExist` membership queries, one answer per pair in the
    /// caller's order.
    fn edges_exist(&self, pin: &ReadPin, pairs: &[(u32, u32)]) -> Vec<bool>;

    /// Read the adjacency lists of `us`, one per requested vertex in the
    /// caller's order (each in the structure's internal order; sorted
    /// only if [`Self::is_sorted`]). An id past [`Self::num_vertices`]
    /// reads an empty list.
    fn read_neighbors(&self, pin: &ReadPin, us: &[u32]) -> Adjacency;

    /// Insert a batch of directed edges; returns how many were new.
    fn insert_edges(&mut self, edges: &[(u32, u32)]) -> u64;

    /// Delete a batch of directed edges; returns how many were present.
    fn delete_edges(&mut self, edges: &[(u32, u32)]) -> u64;

    /// Delete vertices and their incident edges.
    fn delete_vertices(&mut self, vertices: &[u32]);

    /// Whether every adjacency list is currently sorted.
    fn is_sorted(&self) -> bool {
        true
    }

    /// Make every adjacency list sorted (no-op for hash-based and
    /// always-sorted backends). Charged separately from queries, as in
    /// the paper's Table VIII.
    fn ensure_sorted(&mut self) {}

    /// Restore sortedness after updates known to touch only `touched`
    /// vertices. Backends without incremental re-sort fall back to the
    /// full [`Self::ensure_sorted`].
    fn ensure_sorted_touched(&mut self, _touched: &[u32]) {
        self.ensure_sorted();
    }
}

/// The batched read of a structure that reads one list at a time: the
/// sum of its per-list reads; an id past `n` reads an empty list, free.
fn list_by_list(us: &[u32], n: u32, read: impl Fn(u32) -> Vec<u32>) -> Adjacency {
    let read = |u| if u < n { read(u) } else { Vec::new() };
    us.iter()
        .map(|&u| read(u).into_iter().map(|d| (d, 0)))
        .collect()
}

fn unsupported(name: &str, op: &str) -> ! {
    panic!("{name} does not support {op} (check Capabilities before calling)")
}

// ---------------------------------------------------------------------------
// SlabGraph (ours)
// ---------------------------------------------------------------------------

impl GraphBackend for DynGraph {
    fn name(&self) -> &'static str {
        "SlabGraph"
    }

    fn caps(&self) -> Capabilities {
        Capabilities {
            insert_edges: true,
            delete_edges: true,
            delete_vertices: true,
            intersection: IntersectionKind::HashProbe,
        }
    }

    fn device(&self) -> &Device {
        DynGraph::device(self)
    }

    fn pin_read(&self) -> ReadPin {
        ReadPin::from_guards(vec![DynGraph::pin_read(self)])
    }

    fn num_vertices(&self) -> u32 {
        self.vertex_capacity()
    }

    fn num_edges(&self) -> u64 {
        DynGraph::num_edges(self)
    }

    fn degree(&self, u: u32) -> u32 {
        DynGraph::degree(self, u)
    }

    fn edges_exist(&self, pin: &ReadPin, pairs: &[(u32, u32)]) -> Vec<bool> {
        DynGraph::edges_exist(self, &pin.guards()[0], pairs)
    }

    fn read_neighbors(&self, pin: &ReadPin, us: &[u32]) -> Adjacency {
        DynGraph::read_neighbors(self, &pin.guards()[0], us)
    }

    fn insert_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        let edges: Vec<Edge> = edges.iter().map(|&p| Edge::from(p)).collect();
        DynGraph::insert_edges(self, &edges)
    }

    fn delete_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        let edges: Vec<Edge> = edges.iter().map(|&p| Edge::from(p)).collect();
        DynGraph::delete_edges(self, &edges)
    }

    fn delete_vertices(&mut self, vertices: &[u32]) {
        DynGraph::delete_vertices(self, vertices)
    }
}

// ---------------------------------------------------------------------------
// Hornet
// ---------------------------------------------------------------------------

impl GraphBackend for Hornet {
    fn name(&self) -> &'static str {
        "Hornet"
    }

    fn caps(&self) -> Capabilities {
        Capabilities {
            insert_edges: true,
            delete_edges: true,
            // Hornet's published update API has no vertex deletion; the
            // paper's Table IV omits it for the same reason.
            delete_vertices: false,
            intersection: IntersectionKind::SortedMerge,
        }
    }

    fn device(&self) -> &Device {
        Hornet::device(self)
    }

    fn num_vertices(&self) -> u32 {
        Hornet::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Hornet::num_edges(self)
    }

    fn degree(&self, u: u32) -> u32 {
        Hornet::degree(self, u)
    }

    fn edges_exist(&self, _pin: &ReadPin, pairs: &[(u32, u32)]) -> Vec<bool> {
        pairs.iter().map(|&(u, v)| self.edge_exists(u, v)).collect()
    }

    fn read_neighbors(&self, _pin: &ReadPin, us: &[u32]) -> Adjacency {
        list_by_list(us, self.num_vertices(), |u| self.read_adjacency(u))
    }

    fn insert_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        self.insert_batch(edges)
    }

    fn delete_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        self.delete_batch(edges)
    }

    fn delete_vertices(&mut self, _vertices: &[u32]) {
        unsupported("Hornet", "delete_vertices")
    }

    fn is_sorted(&self) -> bool {
        Hornet::is_sorted(self)
    }

    fn ensure_sorted(&mut self) {
        self.sort_adjacencies()
    }

    fn ensure_sorted_touched(&mut self, touched: &[u32]) {
        self.sort_touched(touched)
    }
}

// ---------------------------------------------------------------------------
// faimGraph
// ---------------------------------------------------------------------------

impl GraphBackend for FaimGraph {
    fn name(&self) -> &'static str {
        "faimGraph"
    }

    fn caps(&self) -> Capabilities {
        Capabilities {
            insert_edges: true,
            delete_edges: true,
            delete_vertices: true,
            intersection: IntersectionKind::SortedMerge,
        }
    }

    fn device(&self) -> &Device {
        FaimGraph::device(self)
    }

    fn num_vertices(&self) -> u32 {
        FaimGraph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        FaimGraph::num_edges(self)
    }

    fn degree(&self, u: u32) -> u32 {
        FaimGraph::degree(self, u)
    }

    fn edges_exist(&self, _pin: &ReadPin, pairs: &[(u32, u32)]) -> Vec<bool> {
        // faimGraph has no dedicated membership kernel; each query is a
        // charged adjacency read plus a host-side scan.
        pairs
            .iter()
            .map(|&(u, v)| self.read_adjacency(u).contains(&v))
            .collect()
    }

    fn read_neighbors(&self, _pin: &ReadPin, us: &[u32]) -> Adjacency {
        list_by_list(us, self.num_vertices(), |u| self.read_adjacency(u))
    }

    fn insert_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        self.insert_batch(edges)
    }

    fn delete_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        self.delete_batch(edges)
    }

    fn delete_vertices(&mut self, vertices: &[u32]) {
        FaimGraph::delete_vertices(self, vertices)
    }

    fn ensure_sorted(&mut self) {
        self.sort_adjacencies()
    }
}

// ---------------------------------------------------------------------------
// CSR (static)
// ---------------------------------------------------------------------------

impl GraphBackend for Csr {
    fn name(&self) -> &'static str {
        "CSR"
    }

    fn caps(&self) -> Capabilities {
        Capabilities {
            insert_edges: false,
            delete_edges: false,
            delete_vertices: false,
            intersection: IntersectionKind::SortedMerge,
        }
    }

    fn device(&self) -> &Device {
        Csr::device(self)
    }

    fn num_vertices(&self) -> u32 {
        Csr::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Csr::num_edges(self)
    }

    fn degree(&self, u: u32) -> u32 {
        Csr::degree(self, u)
    }

    fn edges_exist(&self, _pin: &ReadPin, pairs: &[(u32, u32)]) -> Vec<bool> {
        pairs.iter().map(|&(u, v)| self.edge_exists(u, v)).collect()
    }

    fn read_neighbors(&self, _pin: &ReadPin, us: &[u32]) -> Adjacency {
        list_by_list(us, self.num_vertices(), |u| self.read_adjacency(u))
    }

    fn insert_edges(&mut self, _edges: &[(u32, u32)]) -> u64 {
        unsupported("CSR", "insert_edges")
    }

    fn delete_edges(&mut self, _edges: &[(u32, u32)]) -> u64 {
        unsupported("CSR", "delete_edges")
    }

    fn delete_vertices(&mut self, _vertices: &[u32]) {
        unsupported("CSR", "delete_vertices")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slabgraph::GraphConfig;

    fn edges() -> Vec<(u32, u32)> {
        vec![(0, 1), (0, 2), (1, 2), (2, 3)]
    }

    fn both_dirs(e: &[(u32, u32)]) -> Vec<(u32, u32)> {
        e.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    fn all_backends() -> Vec<Box<dyn GraphBackend>> {
        let dir = both_dirs(&edges());
        let mut g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(8), 8, 1);
        GraphBackend::insert_edges(&mut g, &edges());
        let mut h = Hornet::bulk_build(8, &dir, 1 << 16);
        h.sort_adjacencies();
        let f = FaimGraph::build(8, &dir, 1 << 16);
        f.sort_adjacencies();
        let c = Csr::build(8, &dir, 1 << 16);
        vec![Box::new(g), Box::new(h), Box::new(f), Box::new(c)]
    }

    #[test]
    fn all_backends_agree_on_membership_and_degree() {
        for b in all_backends() {
            let name = b.name();
            let pin = b.pin_read();
            assert_eq!(b.num_vertices(), 8, "{name}");
            assert_eq!(b.num_edges(), 8, "{name}: 4 undirected = 8 directed");
            assert_eq!(b.degree(0), 2, "{name}");
            assert_eq!(b.degree(2), 3, "{name}");
            assert_eq!(
                b.edges_exist(&pin, &[(0, 1), (1, 0), (0, 3), (2, 3)]),
                vec![true, true, false, true],
                "{name}: (1, 0) is the mirrored copy"
            );
            let mut read = b.read_neighbors(&pin, &[2]).list(0).to_vec();
            read.sort_unstable();
            assert_eq!(read, vec![0, 1, 3], "{name}");
        }
    }

    #[test]
    fn capability_flags_match_structure_semantics() {
        for b in all_backends() {
            let (name, c) = (b.name(), b.caps());
            match name {
                "CSR" => {
                    assert!(!c.insert_edges && !c.delete_edges && !c.delete_vertices);
                }
                "Hornet" => {
                    assert!(c.insert_edges && c.delete_edges && !c.delete_vertices);
                }
                _ => {
                    assert!(c.insert_edges && c.delete_edges && c.delete_vertices);
                }
            }
            let expect = if name == "SlabGraph" {
                IntersectionKind::HashProbe
            } else {
                IntersectionKind::SortedMerge
            };
            assert_eq!(c.intersection, expect, "{name}");
            assert_eq!(
                b.pin_read().is_pinned(),
                name == "SlabGraph",
                "{name}: only the epoch-pinned structure serves concurrent reads"
            );
        }
    }

    #[test]
    fn updates_through_the_trait() {
        let mut g: Box<dyn GraphBackend> = Box::new(DynGraph::with_uniform_buckets(
            GraphConfig::undirected_set(8),
            8,
            1,
        ));
        assert_eq!(g.insert_edges(&edges()), 8, "4 undirected = 8 directed");
        assert_eq!(g.delete_edges(&[(0, 1)]), 2);
        assert_eq!(g.edges_exist(&g.pin_read(), &[(0, 1)]), vec![false]);
        g.delete_vertices(&[2]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.edges_exist(&g.pin_read(), &[(1, 2)]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn csr_insert_panics() {
        let mut c: Box<dyn GraphBackend> = Box::new(Csr::build(4, &[(0, 1)], 1 << 14));
        c.insert_edges(&[(1, 2)]);
    }
}
