//! The dynamic graph structure itself (paper §III–IV).

use crate::batch::GraphError;
use crate::config::{Direction, GraphConfig};
use crate::dict::VertexDict;
use gpu_sim::{Device, DeviceConfig, ExecPolicy, KernelSpec, Warp, SLAB_WORDS};
use slab_alloc::{AllocError, ReadGuard, SlabAllocator};
use slab_hash::{buckets_for, TableDesc, EMPTY_KEY, MAX_KEY};
use std::sync::atomic::{AtomicBool, Ordering};

/// A weighted directed edge ⟨src, dst, weight⟩. For set-kind graphs the
/// weight is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    pub src: u32,
    pub dst: u32,
    pub weight: u32,
}

impl Edge {
    /// Unweighted edge (weight 0).
    pub fn new(src: u32, dst: u32) -> Self {
        Edge {
            src,
            dst,
            weight: 0,
        }
    }

    /// Weighted edge.
    pub fn weighted(src: u32, dst: u32, weight: u32) -> Self {
        Edge { src, dst, weight }
    }

    /// The same edge in the opposite direction (same weight).
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

impl From<(u32, u32)> for Edge {
    fn from((src, dst): (u32, u32)) -> Self {
        Edge::new(src, dst)
    }
}

impl From<(u32, u32, u32)> for Edge {
    fn from((src, dst, weight): (u32, u32, u32)) -> Self {
        Edge::weighted(src, dst, weight)
    }
}

/// The only way `slabgraph` code reaches the kernel API: handed out by
/// [`DynGraph::pinned`] (tied to a live [`ReadGuard`]) and by
/// [`DynGraph::batch`] (which advances the era after its launches).
/// `clippy.toml` disallows the `Device` launch methods everywhere else.
pub(crate) struct Launcher<'a> {
    dev: &'a Device,
}

#[allow(clippy::disallowed_methods)] // the doors' launch path
impl Launcher<'_> {
    /// [`Device::launch_tasks`] through a door.
    pub(crate) fn launch_tasks<F>(&self, name: &'static str, n_tasks: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.dev.launch(KernelSpec::tasks(name, n_tasks), kernel);
    }

    /// [`Device::launch_warps`] through a door.
    pub(crate) fn launch_warps<F>(&self, name: &'static str, n_warps: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.dev.launch(KernelSpec::warps(name, n_warps), kernel);
    }
}

/// The paper's dynamic graph: a vertex dictionary plus one slab hash table
/// per vertex adjacency list, over a simulated GPU.
///
/// All batched operations (edge/vertex insertion and deletion, queries) are
/// phase-concurrent kernels following the Warp Cooperative Work Sharing
/// strategy. See [`crate`] docs for an overview and the `edge_ops` /
/// `vertex_ops` / `query` modules for the algorithms.
pub struct DynGraph {
    pub(crate) dev: std::sync::Arc<Device>,
    pub(crate) alloc: SlabAllocator,
    pub(crate) dict: VertexDict,
    pub(crate) config: GraphConfig,
    /// Ids of deleted vertices available for reuse — the faimGraph
    /// feature the paper calls "straightforward to implement" (§VI-A3).
    pub(crate) free_ids: parking_lot::Mutex<Vec<u32>>,
    /// Set while a mutation batch runs: the batch door's one-writer flag.
    writing: AtomicBool,
}

impl DynGraph {
    /// Create an empty graph. Per-vertex hash tables are constructed
    /// lazily with a single bucket on first touch (paper §III-b: "if the
    /// connectivity information for a vertex is not available, we construct
    /// a hash table with a single bucket").
    pub fn new(config: GraphConfig) -> Self {
        let dev = Device::with_config(DeviceConfig {
            initial_words: config.device_words,
            capacity_words: config.device_capacity_words,
            policy: ExecPolicy::Sequential,
            ..DeviceConfig::default()
        });
        Self::on_device(std::sync::Arc::new(dev), config)
    }

    /// Create an empty graph on an existing device — the multi-shard path,
    /// where a `gpu_sim::DeviceGroup` owns the devices and each shard's
    /// graph co-owns its own. `config.device_words` /
    /// `device_capacity_words` are ignored here: the device was already
    /// sized by whoever built it.
    pub fn on_device(dev: std::sync::Arc<Device>, config: GraphConfig) -> Self {
        let alloc = SlabAllocator::new(&dev, config.pool_slabs);
        let dict = VertexDict::new(&dev, config.kind, config.vertex_capacity);
        DynGraph {
            dev,
            alloc,
            dict,
            config,
            free_ids: parking_lot::Mutex::new(Vec::new()),
            writing: AtomicBool::new(false),
        }
    }

    /// Create a graph whose first `degrees.len()` vertices get hash tables
    /// sized from the given expected degrees (paper §III-b: connectivity
    /// information + load factor determine bucket counts; base slabs for
    /// *all* vertices are allocated in one bulk region, §IV-A2). The
    /// tables are installed by [`Self::install_tables`]: one `graph_init`
    /// launch charging one transaction per base slab and one per
    /// dictionary line of descriptors.
    pub fn with_degree_hints(config: GraphConfig, degrees: &[u32]) -> Self {
        let g = Self::new(config);
        let buckets: Vec<u32> = degrees.iter().map(|&d| g.buckets_for(d)).collect();
        g.install_tables(&buckets);
        g
    }

    /// Create a graph where the first `n_vertices` vertices each get
    /// exactly `buckets` buckets — the incremental-build configuration
    /// (§V-B2: vertex bound known, edges unknown ⇒ one bucket each),
    /// installed as [`Self::with_degree_hints`] installs its tables.
    pub fn with_uniform_buckets(config: GraphConfig, n_vertices: u32, buckets: u32) -> Self {
        assert!(buckets >= 1);
        let g = Self::new(config);
        g.install_tables(&vec![buckets; n_vertices as usize]);
        g
    }

    /// Bulk-build from a COO edge list (§V-B1): degrees are counted on the
    /// host ([`Self::source_degrees`], uncharged input preparation), every
    /// vertex's base slabs are bulk-allocated and its descriptor written
    /// in one `graph_init` launch (one transaction per base slab and one
    /// per dictionary line), and all edges are inserted in one batch
    /// through the edge-insertion kernel.
    pub fn bulk_build(config: GraphConfig, edges: &[Edge]) -> Self {
        let g = Self::new(config);
        let _phase = g.dev.phase("bulk_build");
        let degrees = {
            let _p = g.dev.phase("bulk_build.degrees");
            g.source_degrees(edges)
        };
        {
            let _p = g.dev.phase("bulk_build.tables");
            let buckets: Vec<u32> = degrees.iter().map(|&d| g.buckets_for(d)).collect();
            g.install_tables(&buckets);
        }
        {
            let _p = g.dev.phase("bulk_build.insert");
            g.insert_edges(edges);
        }
        drop(_phase);
        g
    }

    /// The host degree count of a bulk build (§V-B1's input preparation,
    /// uncharged): for each vertex under capacity, how many of `edges`
    /// start at it once the graph's direction mirrors them, self-loops
    /// excluded (the insert kernel skips them).
    pub fn source_degrees(&self, edges: &[Edge]) -> Vec<u32> {
        let mut degrees = vec![0u32; self.config.vertex_capacity as usize];
        for e in self.apply_direction(edges) {
            if e.src != e.dst {
                if let Some(d) = degrees.get_mut(e.src as usize) {
                    *d += 1;
                }
            }
        }
        degrees
    }

    /// Buckets for a table expected to hold `degree` edges at the graph's
    /// load factor, minimum 1 (§IV-A2).
    pub fn buckets_for(&self, degree: u32) -> u32 {
        buckets_for(degree as usize, self.config.load_factor, self.config.kind)
    }

    /// The one table installer: vertex `v` gets a table of `buckets[v]`
    /// buckets, all base slabs in one contiguous region (§IV-A2) in
    /// vertex order; a count of 0 leaves `v` without a table, so its first
    /// insert builds a one-bucket table lazily (§III-b). One `graph_init`
    /// launch EMPTY-fills the region and writes the descriptors, charged
    /// one transaction per base slab and one coalesced store per
    /// dictionary line that receives a descriptor; nothing is launched
    /// when no table is installed. The vertices must have no table yet,
    /// and their edge counts stay zero.
    pub fn install_tables(&self, buckets: &[u32]) {
        assert!(
            buckets.len() as u64 <= self.dict.capacity() as u64,
            "table sizes exceed vertex capacity"
        );
        let total: usize = buckets.iter().map(|&b| b as usize).sum();
        if total == 0 {
            return;
        }
        let region = self.dev.alloc_words(total * SLAB_WORDS, SLAB_WORDS);
        self.dev.fused_scope("graph_init", || {
            self.dev
                .memset("graph_init", region, total * SLAB_WORDS, EMPTY_KEY);
            let tables = buckets.iter().zip(0u32..).filter(|&(&b, _)| b > 0);
            let mut cursor = region;
            self.dict.install_lines(
                &self.dev,
                tables.map(|(&b, v)| {
                    let base = cursor;
                    cursor += b * SLAB_WORDS as u32;
                    (v, base, b)
                }),
            );
        });
    }

    /// The graph's configuration.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// The simulated device (for counters, cost models, and policy).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Mutable device access (to switch execution policy between phases).
    ///
    /// # Panics
    /// Panics if the device is co-owned (a graph built via
    /// [`Self::on_device`] whose `Arc` has other holders, e.g. a
    /// `DeviceGroup`): policy changes on a shared shard device must go
    /// through whoever owns the group.
    pub fn device_mut(&mut self) -> &mut Device {
        std::sync::Arc::get_mut(&mut self.dev)
            .expect("device_mut on a co-owned (sharded) device; change policy via the group")
    }

    /// The dynamic slab allocator backing collision slabs.
    pub fn allocator(&self) -> &SlabAllocator {
        &self.alloc
    }

    /// Pin the current era for snapshot reads. Every query method takes
    /// the returned [`ReadGuard`]; while it lives, no slab freed at or
    /// after the pinned era is recycled, so queries observe a consistent
    /// snapshot even while insert/delete batches land concurrently
    /// (paper-adjacent: the epoch discipline of Peri et al.'s concurrent
    /// graph, layered over the quarantine ring). Drop the guard promptly —
    /// a long-lived pin delays slab reclamation.
    pub fn pin_read(&self) -> ReadGuard {
        self.alloc.pin(&self.dev)
    }

    /// The read door: every chain-walking query launches through the
    /// returned [`Launcher`], which borrows `pin` for its whole life, so
    /// dropping or moving the guard first is a borrow error.
    ///
    /// Asserts the guard pins *this* graph's allocator — a guard from a
    /// different graph would not block reclamation here, silently turning
    /// "snapshot read" into "use-after-free roulette". A hard assert even
    /// in release builds: the `Arc::ptr_eq` is negligible next to the
    /// kernel launch every query performs, and callers that legitimately
    /// hold possibly-stale guards (the router's degraded path) check
    /// `owns_guard` themselves and degrade instead of calling in.
    pub(crate) fn pinned<'a>(&'a self, pin: &'a ReadGuard) -> Launcher<'a> {
        assert!(
            self.alloc.owns_guard(pin),
            "ReadGuard pinned against a different graph's allocator"
        );
        Launcher { dev: &self.dev }
    }

    /// The batch door: run one mutation batch's launches, then advance the
    /// era exactly once — the release edge of the epoch protocol (DESIGN
    /// §17). Readers pinning after the advance do not cover slabs the
    /// batch quarantined, so those become reclaimable as soon as every
    /// older pin drops. The advance follows every return from `body`,
    /// error returns included.
    ///
    /// One writer at a time: a graph applies one batch at a time, and a
    /// second batch on the same graph, concurrent from another thread or
    /// nested inside `body`, panics. Chain walks rely on it: they read
    /// each slab once and follow its next pointer as read, which is sound
    /// only while no cut or rewrite of a chain races another batch's
    /// walk (DESIGN §17). Readers need no such exclusion. The flag is
    /// host bookkeeping, uncharged. Callers serialize their writers
    /// already: one writer thread, or the router's per-shard lock.
    #[allow(clippy::disallowed_methods)] // core's one era advance
    pub(crate) fn batch<R>(&self, body: impl FnOnce(&Launcher) -> R) -> R {
        assert!(
            !self.writing.swap(true, Ordering::AcqRel),
            "one batch at a time: a second batch started on this graph while one runs"
        );
        /// Clears the flag on every exit, unwinding included.
        struct Writer<'g>(&'g AtomicBool);
        impl Drop for Writer<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _writer = Writer(&self.writing);
        let out = body(&Launcher { dev: &self.dev });
        self.dev.advance_era();
        out
    }

    /// The vertex dictionary.
    pub fn dict(&self) -> &VertexDict {
        &self.dict
    }

    /// Current vertex capacity.
    pub fn vertex_capacity(&self) -> u32 {
        self.dict.capacity()
    }

    /// Ids of deleted vertices available for reuse by
    /// [`Self::take_reusable_id`] (paper §VI-A3: faimGraph's id-recycling
    /// strategy, implemented here as the paper suggests).
    pub fn reusable_ids(&self) -> Vec<u32> {
        self.free_ids.lock().clone()
    }

    /// Pop a reusable vertex id (its table is empty and ready), if any.
    pub fn take_reusable_id(&self) -> Option<u32> {
        self.free_ids.lock().pop()
    }

    /// Exact number of live edges (sum of per-vertex counts; for
    /// undirected graphs each edge is counted once per endpoint).
    pub fn num_edges(&self) -> u64 {
        (0..self.dict.capacity())
            .map(|v| self.dict.count_host(&self.dev, v) as u64)
            .sum()
    }

    /// Exact live-edge count of one vertex.
    pub fn degree(&self, v: u32) -> u32 {
        self.dict.count_host(&self.dev, v)
    }

    /// Host-side validation that a vertex id is storable.
    pub(crate) fn check_id(&self, v: u32) -> Result<(), GraphError> {
        if v > MAX_KEY {
            return Err(GraphError::InvalidVertexId { id: v, edge: None });
        }
        Ok(())
    }

    /// Validate both endpoints of an edge, reporting *which* edge
    /// referenced an unstorable vertex id.
    pub fn check_edge(&self, e: &Edge) -> Result<(), GraphError> {
        for id in [e.src, e.dst] {
            if id > MAX_KEY {
                return Err(GraphError::InvalidVertexId { id, edge: Some(*e) });
            }
        }
        Ok(())
    }

    /// Warp-side lazy construction of a single-bucket table (slab from
    /// the dynamic pool) for vertex `v`, whose descriptor the warp has
    /// just read without a table: one pool allocation and one pair-CAS
    /// install, no second descriptor read. A lost install returns the
    /// winner's table.
    ///
    /// Fails only if the pool cannot acquire the fresh slab; the failure
    /// precedes any dictionary mutation, so the vertex stays untouched and
    /// the operation can be retried.
    pub(crate) fn create_table(&self, warp: &Warp, v: u32) -> Result<TableDesc, AllocError> {
        // Speculative: a sequential loser would have found the winner's
        // descriptor above, so a lost install race must leave no charges.
        warp.begin_attempt();
        let fresh = match self.alloc.try_allocate(warp) {
            Ok(fresh) => fresh,
            Err(e) => {
                warp.commit_attempt();
                return Err(e);
            }
        };
        match self.dict.try_install(warp, v, fresh, 1) {
            Ok(t) => {
                warp.commit_attempt();
                Ok(t)
            }
            Err(winner) => {
                warp.abort_attempt();
                warp.uncharged(|w| self.alloc.free(w, fresh))
                    .expect("freshly allocated slab must be freeable");
                Ok(winner)
            }
        }
    }

    /// Mirror a batch for undirected semantics: every ⟨u,v⟩ gains ⟨v,u⟩.
    pub(crate) fn apply_direction(&self, edges: &[Edge]) -> Vec<Edge> {
        match self.config.direction {
            Direction::Directed => edges.to_vec(),
            Direction::Undirected => {
                let mut out = Vec::with_capacity(edges.len() * 2);
                for &e in edges {
                    out.push(e);
                    out.push(e.reversed());
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchOp, BatchOutcome};
    use crate::config::GraphConfig;

    #[test]
    fn edge_constructors() {
        let e = Edge::weighted(1, 2, 9);
        assert_eq!(e.reversed(), Edge::weighted(2, 1, 9));
        assert_eq!(Edge::from((3u32, 4u32)), Edge::new(3, 4));
        assert_eq!(Edge::from((3u32, 4u32, 5u32)), Edge::weighted(3, 4, 5));
    }

    #[test]
    fn new_graph_is_empty() {
        let g = DynGraph::new(GraphConfig::directed_map(10));
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertex_capacity(), 10);
        for v in 0..10 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn degree_hints_create_sized_tables() {
        let g = DynGraph::with_degree_hints(GraphConfig::directed_map(4), &[100, 0, 10, 1]);
        // lf=0.7, Bc=15 → 100 keys need ⌈100/10.5⌉=10 buckets.
        assert_eq!(g.dict().desc_host(g.device(), 0).unwrap().num_buckets, 10);
        assert_eq!(g.dict().desc_host(g.device(), 1).unwrap().num_buckets, 1);
        assert_eq!(g.dict().desc_host(g.device(), 2).unwrap().num_buckets, 1);
    }

    #[test]
    fn base_slabs_are_contiguous() {
        // §IV-A2: base slabs statically allocated in consecutive memory.
        let g = DynGraph::with_degree_hints(GraphConfig::directed_map(3), &[20, 20, 20]);
        let t0 = g.dict().desc_host(g.device(), 0).unwrap();
        let t1 = g.dict().desc_host(g.device(), 1).unwrap();
        let t2 = g.dict().desc_host(g.device(), 2).unwrap();
        assert_eq!(
            t1.base,
            t0.base + t0.num_buckets * SLAB_WORDS as u32,
            "vertex 1 base follows vertex 0"
        );
        assert_eq!(t2.base, t1.base + t1.num_buckets * SLAB_WORDS as u32);
    }

    #[test]
    fn uniform_buckets_builds_single_bucket_tables() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(8), 8, 1);
        for v in 0..8 {
            assert_eq!(g.dict().desc_host(g.device(), v).unwrap().num_buckets, 1);
        }
    }

    /// `name`'s counters since the device was created.
    fn kernel(g: &DynGraph, name: &str) -> gpu_sim::CounterSnapshot {
        let trace = g.device().trace();
        let k = trace.kernels.iter().find(|k| k.name == name);
        k.map(|k| k.counters).unwrap_or_default()
    }

    /// ⟨launches, transactions, atomics⟩ of `graph_init`.
    fn init_charges(g: &DynGraph) -> (u64, u64, u64) {
        let c = kernel(g, "graph_init");
        (c.launches, c.transactions, c.atomics)
    }

    #[test]
    fn installer_charges_one_launch_a_slab_and_a_line() {
        // 40 vertices × 3 buckets: 120 base slabs, descriptors on 3 lines.
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(64), 40, 3);
        assert_eq!(init_charges(&g), (1, 120 + 3, 0));
        // Vertex 0's 29 edges take ⌈29/10.5⌉ = 3 buckets and the other 49
        // vertices one each; all 50 descriptors fill 4 lines.
        let edges: Vec<Edge> = (1..30).map(|v| Edge::new(0, v)).collect();
        let g = DynGraph::bulk_build(GraphConfig::directed_map(50), &edges);
        assert_eq!(g.dict().desc_host(g.device(), 0).unwrap().num_buckets, 3);
        assert_eq!(init_charges(&g), (1, 3 + 49 + 4, 0));
        let g = DynGraph::with_degree_hints(GraphConfig::directed_map(40), &[100, 0, 10]);
        assert_eq!(init_charges(&g), (1, 10 + 1 + 1 + 1, 0));
    }

    #[test]
    fn a_zero_bucket_count_installs_no_table() {
        let g = DynGraph::new(GraphConfig::directed_map(64));
        g.install_tables(&[0; 64]);
        assert_eq!(init_charges(&g), (0, 0, 0), "nothing to install");
        // Vertices 1 and 40 get tables, on descriptor lines 0 and 2.
        let mut buckets = vec![0; 41];
        buckets[1] = 2;
        buckets[40] = 1;
        g.install_tables(&buckets);
        assert_eq!(init_charges(&g), (1, 3 + 2, 0));
        let desc = |v| g.dict().desc_host(g.device(), v);
        assert_eq!(desc(1).unwrap().num_buckets, 2);
        assert_eq!(desc(40).unwrap().num_buckets, 1);
        assert_eq!(
            desc(1).unwrap().base + 2 * SLAB_WORDS as u32,
            desc(40).unwrap().base
        );
        assert!((0..64)
            .filter(|&v| v != 1 && v != 40)
            .all(|v| desc(v).is_none()));
        // Vertex 0's first insert builds a one-bucket table from the pool.
        assert_eq!(g.allocator().live_slabs(), 0);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 0)]);
        assert_eq!(desc(0).unwrap().num_buckets, 1);
        assert_eq!(g.allocator().live_slabs(), 1);
        assert_eq!(desc(1).unwrap().num_buckets, 2);
        g.validate().unwrap();
    }

    /// The launch-era sequence of every mutation and read. A kernel launch
    /// opens one era; a mutation batch then advances once more to publish
    /// its frees; a read never advances beyond its own launches.
    #[test]
    fn era_sequence_is_pinned_per_operation() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(16), 8, 1);
        let step = |what: &str, expect: u64, op: &dyn Fn()| {
            let before = g.device().launch_era();
            op();
            assert_eq!(g.device().launch_era() - before, expect, "{what}");
        };
        let edges: Vec<Edge> = (1..6).map(|v| Edge::weighted(0, v, v)).collect();
        step("empty insert", 0, &|| {
            g.try_insert_edges(&[]).unwrap();
        });
        step("insert", 2, &|| {
            g.try_insert_edges(&edges).unwrap();
        });
        step("empty delete", 0, &|| {
            g.try_delete_edges(&[]).unwrap();
        });
        step("delete", 2, &|| {
            g.try_delete_edges(&edges[..2]).unwrap();
        });
        step("vertex insert", 2, &|| {
            g.try_insert_vertices(&[9, 10], &[Edge::new(9, 10)])
                .unwrap();
        });
        step("vertex insert, no ids", 2, &|| {
            g.try_insert_vertices(&[], &[Edge::new(2, 3)]).unwrap();
        });
        step("empty vertex delete", 0, &|| {
            g.try_delete_vertices(&[]).unwrap();
        });
        step("vertex delete", 2, &|| {
            g.try_delete_vertices(&[10]).unwrap();
        });
        step("empty purge", 0, &|| g.try_purge_deleted(&[]).unwrap());
        step("purge", 4, &|| g.try_purge_deleted(&[10]).unwrap());
        // Out of memory building the scratch set: the insert and the
        // scratch-set free still end in the batch's one advance.
        g.device()
            .set_fault_plan(gpu_sim::FaultPlan::fail_in_kernel("purge_deleted"));
        let many: Vec<u32> = (0..2000).collect();
        step("purge, out of memory", 3, &|| {
            assert!(g.try_purge_deleted(&many).is_err());
        });
        g.device().clear_fault_plan();
        step("flush", 2, &|| {
            g.flush_tombstones();
        });
        step("rehash", 2, &|| {
            g.rehash_overloaded(4.0);
        });
        g.device()
            .set_fault_plan(gpu_sim::FaultPlan::fail_in_kernel("edge_insert"));
        let partial = g.try_insert_edges(&[Edge::new(12, 1)]).unwrap();
        assert!(!partial.is_complete());
        g.device().clear_fault_plan();
        step("retry", 2, &|| {
            assert!(g.retry_suffix(&partial).unwrap().is_complete());
        });
        step("empty retry", 0, &|| {
            g.retry_suffix(&BatchOutcome::complete(BatchOp::InsertEdges, 0, 0))
                .unwrap();
        });

        let pin = g.pin_read();
        step("pin", 0, &|| drop(g.pin_read()));
        step("empty probe", 0, &|| {
            g.edges_exist(&pin, &[]);
        });
        step("probe", 1, &|| {
            g.edges_exist(&pin, &[(0, 3), (1, 0)]);
        });
        step("neighbors", 1, &|| {
            g.read_neighbors(&pin, &[0]);
        });
        step("export", 1, &|| {
            g.export_edges(&pin);
        });
        step("stats", 1, &|| {
            g.stats(&pin);
        });
        step("validate", 1, &|| g.validate().unwrap());
    }

    #[test]
    fn a_nested_batch_panics_and_leaves_the_door_open() {
        let g = DynGraph::new(GraphConfig::directed_set(8));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.batch(|_| g.batch(|_| ()));
        }));
        let msg = nested.expect_err("a nested batch must panic");
        let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.starts_with("one batch at a time"), "{msg}");
        // The outer batch's unwinding cleared the flag.
        g.insert_edges(&[Edge::new(1, 2)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn apply_direction_mirrors_for_undirected() {
        let g = DynGraph::new(GraphConfig::undirected_map(4));
        let out = g.apply_direction(&[Edge::weighted(0, 1, 7)]);
        assert_eq!(out, vec![Edge::weighted(0, 1, 7), Edge::weighted(1, 0, 7)]);
        let g = DynGraph::new(GraphConfig::directed_map(4));
        assert_eq!(g.apply_direction(&[Edge::new(0, 1)]).len(), 1);
    }
}
