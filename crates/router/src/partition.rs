//! The sharded graph: hash partitioning by source vertex, the cut-edge
//! routing rule, the cross-shard audit, and the `GraphBackend` impl.

use crate::shard_of;
use gpu_sim::{Device, DeviceConfig, DeviceGroup, ExecPolicy, TraceCtx};
use parking_lot::RwLock;
use slabgraph::{Direction, DynGraph, Edge, GraphConfig, ValidationError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-shard edge batches produced by partitioning one logical batch:
/// `primary[s]` holds edges whose src shard `s` owns, `replica[s]` the cut
/// edges mirrored to `s` because it owns the dst.
struct ShardBatches {
    primary: Vec<Vec<Edge>>,
    replica: Vec<Vec<Edge>>,
}

/// A dynamic graph hash-partitioned across N [`DynGraph`] shards, one per
/// device of a [`DeviceGroup`]. See the crate docs for the cut-edge
/// protocol and determinism guarantees.
pub struct ShardedGraph {
    group: DeviceGroup,
    /// Per-shard graphs behind rwlocks: ordinary operation takes read
    /// guards (all `DynGraph` methods are `&self`), a rebuild takes the
    /// write guard to swap in a fresh graph after a device reset.
    shards: Vec<RwLock<DynGraph>>,
    /// The per-shard config, kept so [`Self::reset_shard`] can rebuild a
    /// structurally identical graph on the reset device.
    shard_cfg: GraphConfig,
    direction: Direction,
    /// Op-id source for direct (router-less) dispatches, so every shard
    /// dispatch carries a [`TraceCtx`] even outside a [`BatchRouter`].
    ops: AtomicU64,
}

// The shard dispatch path shares `&DynGraph` across scoped threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<DynGraph>();
    assert_sync::<Device>();
};

impl ShardedGraph {
    /// Build an empty sharded graph. `config` describes the *aggregate*
    /// structure: the device budget and slab pool are split evenly across
    /// shards (so scaling the shard count compares like-for-like), every
    /// shard keeps the full vertex-id range (any id can own primaries or
    /// host replicas), and undirected semantics are applied here — shards
    /// are always directed, because the two half-edges of an undirected
    /// pair can have different owners.
    pub fn new(n_shards: usize, config: GraphConfig) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let per_shard_words = (config.device_words / n_shards).max(1 << 14);
        let group = DeviceGroup::new(
            n_shards,
            DeviceConfig {
                initial_words: per_shard_words,
                capacity_words: config.device_capacity_words,
                policy: ExecPolicy::Sequential,
                ..DeviceConfig::default()
            },
        );
        let shard_cfg = GraphConfig {
            direction: Direction::Directed,
            device_words: per_shard_words,
            pool_slabs: (config.pool_slabs / n_shards).max(1 << 6),
            ..config
        };
        let shards = (0..n_shards)
            .map(|s| RwLock::new(DynGraph::on_device(group.device(s).clone(), shard_cfg)))
            .collect();
        ShardedGraph {
            group,
            shards,
            shard_cfg,
            direction: config.direction,
            ops: AtomicU64::new(0),
        }
    }

    /// Mint a root [`TraceCtx`] for one direct dispatch: no client
    /// session, op ids from the graph's own counter. Sharing one ctx
    /// across every shard of a dispatch ties the per-shard spans into a
    /// single op in the merged trace (Perfetto draws the flow arrows).
    pub(crate) fn dispatch_ctx(&self) -> TraceCtx {
        TraceCtx::root(
            TraceCtx::NO_SESSION,
            self.ops.fetch_add(1, Ordering::AcqRel),
        )
    }

    /// The one shard fan-out: run `f(s, shard)` on every shard
    /// concurrently under a fresh dispatch [`TraceCtx`] (see
    /// [`Self::dispatch_ctx`]), returning the results in shard order.
    fn fan_out<R: Send>(&self, f: impl Fn(usize, &DynGraph) -> R + Sync) -> Vec<R> {
        let ctxs = vec![Some(self.dispatch_ctx()); self.shards.len()];
        self.group
            .dispatch(&ctxs, |s, _| f(s, &self.shards[s].read()))
    }

    /// The one read routing: `read` each shard's share of `keys` (by the
    /// owner of a key's vertex) under its guard, the shards concurrently,
    /// and return one answer per key, in the caller's order.
    fn routed_read<K: Copy + Sync, T: Send>(
        &self,
        pin: &backend::ReadPin,
        keys: &[K],
        vertex: impl Fn(&K) -> u32,
        read: impl Fn(&DynGraph, &slabgraph::ReadGuard, &[K]) -> Vec<T> + Sync,
    ) -> Vec<T> {
        let (pins, n) = (pin.guards(), self.shards.len());
        let owner = |key: &K| shard_of(vertex(key), n);
        let mut per: Vec<Vec<K>> = vec![Vec::new(); n];
        for key in keys {
            per[owner(key)].push(*key);
        }
        let answers = self.fan_out(|s, g| read(g, &pins[s], &per[s]));
        let mut answers: Vec<_> = answers.into_iter().map(Vec::into_iter).collect();
        keys.iter()
            .filter_map(|key| answers[owner(key)].next())
            .collect()
    }

    /// Build and populate from an edge list in one step, each shard as
    /// `DynGraph::bulk_build` builds one graph (§V-B1). The batch is routed
    /// once. Each shard counts its source degrees over its primaries and
    /// replicas on the host (`DynGraph::source_degrees`, uncharged) and
    /// installs a table of `buckets_for(degree)` buckets for every vertex
    /// it holds an edge of, in one `graph_init` launch charging one
    /// transaction per base slab and one per dictionary line of
    /// descriptors; every other vertex gets no table. It then inserts its
    /// primaries and replicas as one `edge_insert` batch. The shards build
    /// concurrently; an empty shard launches nothing.
    pub fn bulk_build(n_shards: usize, config: GraphConfig, edges: &[Edge]) -> Self {
        let g = Self::new(n_shards, config);
        let parts = g.partition(edges);
        g.fan_out(|s, shard| {
            let batch = [&parts.primary[s][..], &parts.replica[s][..]].concat();
            let buckets: Vec<u32> = shard
                .source_degrees(&batch)
                .into_iter()
                .map(|d| if d == 0 { 0 } else { shard.buckets_for(d) })
                .collect();
            shard.install_tables(&buckets);
            shard.insert_edges(&batch);
        });
        g
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The device group the shards run on (per-shard devices, merged
    /// traces, Chrome export).
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// Shard `s`'s graph (owner-side tables plus replicas it hosts). The
    /// returned read guard derefs to [`DynGraph`]; it blocks only against
    /// an in-flight [`Self::reset_shard`] on the same shard.
    pub fn shard(&self, s: usize) -> impl std::ops::Deref<Target = DynGraph> + '_ {
        self.shards[s].read()
    }

    /// Tear shard `s` down to an empty graph on a freshly reset device:
    /// the device arena is wiped (freeing its whole budget), the
    /// sanitizer's shadow state is discarded (findings survive), and a
    /// structurally identical empty [`DynGraph`] replaces the old one.
    /// Blocks until every outstanding [`Self::shard`] guard is released.
    /// The caller owns repopulation — see `BatchRouter::rebuild_downed`
    /// for the journal-replay path.
    pub fn reset_shard(&self, s: usize) {
        let mut guard = self.shards[s].write();
        let dev = self.group.device(s).clone();
        dev.reset();
        *guard = DynGraph::on_device(dev, self.shard_cfg);
    }

    /// The owner shard of vertex `v`.
    pub fn owner_of(&self, v: u32) -> usize {
        shard_of(v, self.shards.len())
    }

    /// Vertex capacity (ids are `0..vertex_capacity`): the largest shard
    /// dictionary's. Like a `DynGraph`'s, it grows past the configured
    /// capacity when an edge's source needs it.
    pub fn vertex_capacity(&self) -> u32 {
        self.shards
            .iter()
            .map(|g| g.read().vertex_capacity())
            .fold(0, u32::max)
    }

    /// The one routing rule for an update's edge: mirror it for undirected
    /// semantics, then send each copy to its source's owner as a primary
    /// and, for a cut edge, to its destination's owner as a replica. Calls
    /// `f(shard, copy, is_replica)` once per routed copy, in that order.
    pub(crate) fn route(&self, e: Edge, mut f: impl FnMut(usize, Edge, bool)) {
        let n = self.shards.len();
        let mut one = |e: Edge| {
            let su = shard_of(e.src, n);
            let sv = shard_of(e.dst, n);
            f(su, e, false);
            if sv != su {
                f(sv, e, true);
            }
        };
        one(e);
        if self.direction == Direction::Undirected {
            one(e.reversed());
        }
    }

    /// Split a batch into per-shard primary and replica batches via
    /// [`Self::route`], preserving batch order within each shard.
    fn partition(&self, edges: &[Edge]) -> ShardBatches {
        let n = self.shards.len();
        let mut primary: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut replica: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for &e in edges {
            self.route(e, |s, copy, is_replica| {
                if is_replica {
                    replica[s].push(copy);
                } else {
                    primary[s].push(copy);
                }
            });
        }
        ShardBatches { primary, replica }
    }

    /// Insert a batch of edges; returns how many were new (summed over
    /// undirected mirror copies, exactly like `DynGraph::insert_edges`).
    /// Shards run concurrently; the count comes from primary copies only,
    /// so it matches an unsharded replay.
    pub fn insert_edges(&self, edges: &[Edge]) -> u64 {
        let parts = self.partition(edges);
        self.fan_out(|s, g| {
            let changed = g.insert_edges(&parts.primary[s]);
            g.insert_edges(&parts.replica[s]);
            changed
        })
        .iter()
        .sum()
    }

    /// Delete a batch of edges; returns how many were present (primary
    /// copies only — see [`Self::insert_edges`]).
    pub fn delete_edges(&self, edges: &[Edge]) -> u64 {
        let parts = self.partition(edges);
        self.fan_out(|s, g| {
            let changed = g.delete_edges(&parts.primary[s]);
            g.delete_edges(&parts.replica[s]);
            changed
        })
        .iter()
        .sum()
    }

    /// Delete vertices and every incident edge. Every shard runs the
    /// deletion: the owner drops the vertex's primary tables, shards
    /// hosting replicas of its out-edges drop those tables too, and the
    /// dst-side sweep on each shard tombstones incoming copies — so no
    /// cross-shard scatter is needed.
    pub fn delete_vertices(&self, vertices: &[u32]) {
        self.fan_out(|_, g| g.delete_vertices(vertices));
    }

    /// Out-degree of `u`, from its owner shard (a dictionary counter, so
    /// no pin).
    pub fn degree(&self, u: u32) -> u32 {
        self.shards[self.owner_of(u)].read().degree(u)
    }

    /// Exact live-edge count: the sum of owned-vertex degrees across
    /// shards (replicas are bookkeeping, not extra edges).
    pub fn num_edges(&self) -> u64 {
        self.fan_out(|s, g| {
            (0..g.vertex_capacity())
                .filter(|&v| shard_of(v, self.shards.len()) == s)
                .map(|v| g.degree(v) as u64)
                .sum::<u64>()
        })
        .iter()
        .sum()
    }

    /// Every shard's full contents — primaries and replicas — in shard
    /// order: one `neighbors` launch over every vertex per non-empty
    /// shard, the shards running concurrently.
    pub(crate) fn shard_exports(&self) -> Vec<Vec<Edge>> {
        self.fan_out(|_, g| g.export_edges(&g.pin_read()))
    }

    /// Every live edge once, as its primary copy ⟨src, dst, weight⟩:
    /// shard by shard, each shard's part vertex-ascending (see
    /// `DynGraph::export_edges`). Costs one launch per non-empty shard.
    pub fn export_edges(&self) -> Vec<Edge> {
        let n = self.shards.len();
        self.shard_exports()
            .into_iter()
            .enumerate()
            .flat_map(|(s, edges)| edges.into_iter().filter(move |e| shard_of(e.src, n) == s))
            .collect()
    }

    /// Full validation: every shard's structural invariants
    /// (`DynGraph::validate`), then the cross-shard audit — every cut edge
    /// present on both owners, no orphan or misrouted replicas, and the
    /// global counts reconcile (`Σ per-shard edges = owned + cut`). The
    /// audit reads one export per shard, so the whole check charges
    /// O(shards) launches.
    pub fn validate(&self) -> Result<(), ShardedValidationError> {
        let n = self.shards.len();
        for (s, r) in self.fan_out(|_, g| g.validate()).into_iter().enumerate() {
            r.map_err(|source| ShardedValidationError::Shard { shard: s, source })?;
        }
        // The cross-shard audit runs on the host over one export per
        // shard, with membership answered by per-shard set lookups.
        let exports = self.shard_exports();
        let present: Vec<HashSet<(u32, u32)>> = exports
            .iter()
            .map(|edges| edges.iter().map(|e| (e.src, e.dst)).collect())
            .collect();
        // Each export is vertex-ascending, so a stable sort by source over
        // the shard-major concatenation visits edges by vertex, then shard,
        // then table order: the first violation reported is the lowest
        // vertex's.
        let mut all: Vec<(usize, u32, u32)> = exports
            .iter()
            .enumerate()
            .flat_map(|(s, edges)| edges.iter().map(move |e| (s, e.src, e.dst)))
            .collect();
        all.sort_by_key(|&(_, u, _)| u);
        let mut cut = 0u64;
        let mut replicas = 0u64;
        let mut owned = 0u64;
        let stored = all.len() as u64;
        for (s, u, v) in all {
            let su = shard_of(u, n);
            let sv = shard_of(v, n);
            if s == su {
                owned += 1;
                // Primary side: every cut edge must have its replica.
                if sv != su {
                    cut += 1;
                    if !present[sv].contains(&(u, v)) {
                        return Err(ShardedValidationError::MissingReplica {
                            src: u,
                            dst: v,
                            src_shard: su,
                            dst_shard: sv,
                        });
                    }
                }
            } else {
                // Replica side: must be dst-owned here and backed by a
                // live primary on the src's owner.
                replicas += 1;
                if sv != s || !present[su].contains(&(u, v)) {
                    return Err(ShardedValidationError::OrphanReplica {
                        src: u,
                        dst: v,
                        shard: s,
                    });
                }
            }
        }
        if replicas != cut || stored != owned + cut {
            return Err(ShardedValidationError::CountMismatch {
                owned,
                cut,
                replicas,
                stored,
            });
        }
        Ok(())
    }
}

/// What [`ShardedGraph::validate`] can find beyond a single shard's own
/// invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedValidationError {
    /// A shard failed its own `DynGraph::validate`.
    Shard {
        shard: usize,
        source: ValidationError,
    },
    /// A cut edge's primary exists but its replica is missing on the dst
    /// owner.
    MissingReplica {
        src: u32,
        dst: u32,
        src_shard: usize,
        dst_shard: usize,
    },
    /// A replica with no backing primary, or stored on a shard that owns
    /// neither endpoint.
    OrphanReplica { src: u32, dst: u32, shard: usize },
    /// Global reconciliation failed: stored entries must equal owned
    /// primaries plus cut-edge replicas, and replicas must equal cut edges.
    CountMismatch {
        owned: u64,
        cut: u64,
        replicas: u64,
        stored: u64,
    },
}

impl std::fmt::Display for ShardedValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedValidationError::Shard { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ShardedValidationError::MissingReplica {
                src,
                dst,
                src_shard,
                dst_shard,
            } => write!(
                f,
                "cut edge {src}\u{2192}{dst}: primary on shard {src_shard} but no replica on shard {dst_shard}"
            ),
            ShardedValidationError::OrphanReplica { src, dst, shard } => write!(
                f,
                "shard {shard}: replica {src}\u{2192}{dst} has no backing primary (or wrong owner)"
            ),
            ShardedValidationError::CountMismatch {
                owned,
                cut,
                replicas,
                stored,
            } => write!(
                f,
                "counts do not reconcile: stored {stored} != owned {owned} + cut {cut} (replicas {replicas})"
            ),
        }
    }
}

impl std::error::Error for ShardedValidationError {}

// ---------------------------------------------------------------------------
// GraphBackend: the sharded graph drops into every existing driver.
// ---------------------------------------------------------------------------

impl backend::GraphBackend for ShardedGraph {
    fn name(&self) -> &'static str {
        "ShardedSlabGraph"
    }

    fn caps(&self) -> backend::Capabilities {
        backend::Capabilities {
            insert_edges: true,
            delete_edges: true,
            delete_vertices: true,
            intersection: backend::IntersectionKind::HashProbe,
        }
    }

    fn device(&self) -> &Device {
        self.group.device(0).as_ref()
    }

    fn devices(&self) -> Vec<&Device> {
        self.group.devices().iter().map(|d| d.as_ref()).collect()
    }

    fn num_vertices(&self) -> u32 {
        self.vertex_capacity()
    }

    fn num_edges(&self) -> u64 {
        ShardedGraph::num_edges(self)
    }

    fn degree(&self, u: u32) -> u32 {
        ShardedGraph::degree(self, u)
    }

    /// One guard per shard, in shard order. While the pin lives no shard
    /// recycles a slab freed at or after its pinned era, so queries run
    /// safely concurrent with in-flight update batches. Guards pin
    /// *reclamation*, not data: reads observe the newest published state.
    fn pin_read(&self) -> backend::ReadPin {
        backend::ReadPin::from_guards(self.shards.iter().map(|s| s.read().pin_read()).collect())
    }

    /// Pairs route to their src's owner (`routed_read`):
    /// answers bit-identical to an unsharded replay.
    fn edges_exist(&self, pin: &backend::ReadPin, pairs: &[(u32, u32)]) -> Vec<bool> {
        self.routed_read(pin, pairs, |p| p.0, DynGraph::edges_exist)
    }

    /// Each list comes from its vertex's owner, whose primary copy holds
    /// the complete adjacency (`routed_read`).
    fn read_neighbors(&self, pin: &backend::ReadPin, us: &[u32]) -> backend::Adjacency {
        let lists = self.routed_read(
            pin,
            us,
            |&u| u,
            |g, guard, us| {
                let adj = g.read_neighbors(guard, us);
                (0..us.len())
                    .map(|i| adj.entries(i).collect::<Vec<_>>())
                    .collect()
            },
        );
        lists.into_iter().collect()
    }

    fn insert_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        let edges: Vec<Edge> = edges.iter().map(|&p| Edge::from(p)).collect();
        ShardedGraph::insert_edges(self, &edges)
    }

    fn delete_edges(&mut self, edges: &[(u32, u32)]) -> u64 {
        let edges: Vec<Edge> = edges.iter().map(|&p| Edge::from(p)).collect();
        ShardedGraph::delete_edges(self, &edges)
    }

    fn delete_vertices(&mut self, vertices: &[u32]) {
        ShardedGraph::delete_vertices(self, vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg, pairs};
    use backend::GraphBackend;

    #[test]
    fn sharded_matches_unsharded_queries() {
        let n_vertices = 256;
        let edges: Vec<Edge> = pairs(400, 7, n_vertices)
            .into_iter()
            .map(Edge::from)
            .collect();
        let reference = DynGraph::new(cfg(n_vertices));
        reference.insert_edges(&edges);
        for shards in [1, 2, 4] {
            let g = ShardedGraph::bulk_build(shards, cfg(n_vertices), &edges);
            assert_eq!(g.num_edges(), reference.num_edges(), "{shards} shards");
            let qry = pairs(300, 99, n_vertices);
            let ref_pin = reference.pin_read();
            let pin = g.pin_read();
            assert_eq!(pin.guards().len(), shards);
            assert_eq!(
                g.edges_exist(&pin, &qry),
                reference.edges_exist(&ref_pin, &qry)
            );
            for v in 0..n_vertices {
                assert_eq!(g.degree(v), reference.degree(v), "degree({v})");
                let mut a = g.read_neighbors(&pin, &[v]).list(0).to_vec();
                let mut b = reference.read_neighbors(&ref_pin, &[v]).list(0).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "neighbors({v})");
            }
            g.validate().expect("cross-shard audit");
        }
    }

    #[test]
    fn insert_and_delete_counts_match_unsharded() {
        let n_vertices = 128;
        let batch: Vec<Edge> = pairs(200, 3, n_vertices)
            .into_iter()
            .map(Edge::from)
            .collect();
        let reference = DynGraph::new(cfg(n_vertices));
        let g = ShardedGraph::new(2, cfg(n_vertices));
        assert_eq!(g.insert_edges(&batch), reference.insert_edges(&batch));
        // Re-insert: zero new either way.
        assert_eq!(g.insert_edges(&batch), reference.insert_edges(&batch));
        let del: Vec<Edge> = batch[..50].to_vec();
        assert_eq!(g.delete_edges(&del), reference.delete_edges(&del));
        g.validate().expect("audit after churn");
    }

    #[test]
    fn undirected_mirroring_routes_both_halves() {
        let config = GraphConfig {
            direction: Direction::Undirected,
            ..cfg(64)
        };
        let g = ShardedGraph::new(4, config);
        let changed = g.insert_edges(&[Edge::new(1, 2)]);
        assert_eq!(changed, 2, "both half-edges counted");
        assert_eq!(
            g.edges_exist(&g.pin_read(), &[(1, 2), (2, 1)]),
            vec![true, true]
        );
        g.validate().expect("mirrored cut edges audited");
    }

    #[test]
    fn vertex_deletion_sweeps_all_shards() {
        let n_vertices = 64;
        let edges: Vec<Edge> = pairs(150, 11, n_vertices)
            .into_iter()
            .map(Edge::from)
            .collect();
        let reference = DynGraph::new(cfg(n_vertices));
        reference.insert_edges(&edges);
        let g = ShardedGraph::bulk_build(4, cfg(n_vertices), &edges);
        let victims = [3u32, 17, 40];
        reference.delete_vertices(&victims);
        g.delete_vertices(&victims);
        assert_eq!(g.num_edges(), reference.num_edges());
        for v in 0..n_vertices {
            assert_eq!(g.degree(v), reference.degree(v), "degree({v})");
        }
        g.validate().expect("audit after vertex deletion");
    }

    #[test]
    fn shard_stats_count_each_lazy_base_once() {
        // Every table here is created lazily from its shard's pool, so the
        // shards' footprint is exactly their live pool slabs plus their
        // dictionaries: no base slab is counted twice.
        let g = ShardedGraph::new(2, cfg(64));
        g.insert_edges(
            &pairs(100, 5, 64)
                .into_iter()
                .map(Edge::from)
                .collect::<Vec<_>>(),
        );
        for s in 0..g.num_shards() {
            let shard = g.shard(s);
            let stats = shard.stats(&shard.pin_read());
            assert!(stats.touched_vertices > 0, "shard {s} holds tables");
            assert_eq!(stats.base_slab_words, 0, "shard {s}");
            assert_eq!(
                stats.memory_bytes(),
                (shard.allocator().live_slabs() * gpu_sim::SLAB_WORDS as u64 + stats.dict_words)
                    * 4,
                "shard {s}"
            );
        }
    }

    #[test]
    fn backend_trait_is_object_safe_over_shards() {
        let mut g: Box<dyn GraphBackend> = Box::new(ShardedGraph::new(3, cfg(32)));
        assert_eq!(g.name(), "ShardedSlabGraph");
        assert_eq!(g.devices().len(), 3);
        assert_eq!(g.insert_edges(&[(1, 2), (2, 3)]), 2);
        assert_eq!(g.edges_exist(&g.pin_read(), &[(1, 2)]), vec![true]);
        assert_eq!(g.delete_edges(&[(1, 2)]), 1);
        assert_eq!(g.num_edges(), 1);
    }
}
