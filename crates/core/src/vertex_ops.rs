//! Vertex insertion and deletion (paper §IV-D, Algorithm 2).
//!
//! Vertex insertion (§IV-D1) is "the operation of inserting edges connected
//! to a vertex that has an empty adjacency list": grow the dictionary if
//! needed, install sized tables, then run Algorithm 1 on the attached edges.
//!
//! Vertex deletion (§IV-D2, Algorithm 2) assigns one *warp* per vertex via
//! a device-memory atomic work queue to fight load imbalance: a lane-0
//! `atomicAdd` claims the next vertex, a shuffle broadcasts it, and the
//! warp iterates the victim's slabs deleting it from every neighbour's
//! table before freeing the victim's collision slabs and zeroing its count.

use crate::batch::{BatchOp, BatchOutcome, GraphError};
use crate::config::Direction;
use crate::graph::{DynGraph, Edge, Launcher};
use gpu_sim::iter_bits;
use slab_alloc::AllocError;
use slab_hash::{TableDesc, TableKind};

impl DynGraph {
    /// Insert new vertices with their attached edges (§IV-D1).
    ///
    /// `ids` are the new vertex ids (tables are installed sized to the
    /// number of attached edges in `edges` whose source is the id); the
    /// dictionary grows (shallow pointer copy) if an id exceeds capacity.
    /// Returns the number of new edges added, or
    /// [`GraphError::DuplicateVertex`] / [`GraphError::InvalidVertexId`]
    /// (checked before any mutation). Panics if device memory runs out;
    /// use [`Self::try_insert_vertices`] to recover instead.
    pub fn insert_vertices(&self, ids: &[u32], edges: &[Edge]) -> Result<u64, GraphError> {
        let outcome = self.try_insert_vertices(ids, edges)?;
        if let Some(e) = outcome.error {
            panic!(
                "insert_vertices: device memory exhausted after {} of {} items: {e}",
                outcome.completed, outcome.attempted
            );
        }
        Ok(outcome.changed)
    }

    /// Fallible [`Self::insert_vertices`]: installs a prefix of the new
    /// vertices (and then a prefix of the edges) when device memory runs
    /// out, reporting the unapplied suffix for [`Self::retry_suffix`].
    ///
    /// Validation errors are still returned as `Err` — they are detected
    /// before anything is mutated.
    pub fn try_insert_vertices(
        &self,
        ids: &[u32],
        edges: &[Edge],
    ) -> Result<BatchOutcome, GraphError> {
        if ids.is_empty() {
            return self.try_insert_edges(edges);
        }
        // Validate everything up front so errors never leave a half-done
        // batch behind.
        for e in edges {
            self.check_edge(e)?;
        }
        let mut seen = std::collections::HashSet::new();
        for &v in ids {
            self.check_id(v)?;
            if !seen.insert(v) {
                return Err(GraphError::DuplicateVertex { id: v });
            }
            let recycled = self.free_ids.lock().contains(&v);
            if !recycled && self.dict.desc_host(&self.dev, v).is_some() {
                return Err(GraphError::DuplicateVertex { id: v });
            }
        }

        // A failure at vertex i leaves ids[..i] installed and usable;
        // the suffix (and all edges) is reported for retry.
        let partial = |installed: usize, e: AllocError| BatchOutcome {
            op: BatchOp::InsertVertices,
            attempted: ids.len() + edges.len(),
            completed: installed,
            changed: 0,
            pending: edges.to_vec(),
            pending_vertices: ids[installed..].to_vec(),
            error: Some(e),
        };

        let max_id = ids.iter().copied().max().unwrap();
        if let Err(e) = self.dict.try_grow(&self.dev, max_id + 1) {
            return Ok(partial(0, AllocError::Oom(e)));
        }

        // Size each new vertex's table from the batch's degree information
        // (§III-b: use connectivity information when available).
        let mirrored = self.apply_direction(edges);
        let mut deg: std::collections::HashMap<u32, u32> = ids.iter().map(|&v| (v, 0)).collect();
        for e in &mirrored {
            if e.src != e.dst {
                if let Some(d) = deg.get_mut(&e.src) {
                    *d += 1;
                }
            }
        }
        for (i, &v) in ids.iter().enumerate() {
            let recycled = {
                let mut free = self.free_ids.lock();
                if let Some(pos) = free.iter().position(|&f| f == v) {
                    free.swap_remove(pos);
                    true
                } else {
                    false
                }
            };
            if recycled {
                // The recycled slot keeps its (reset) table; just insert.
                continue;
            }
            let buckets =
                slab_hash::buckets_for(deg[&v] as usize, self.config.load_factor, self.config.kind);
            let base = match self
                .dev
                .try_alloc_words(TableDesc::base_words(buckets), gpu_sim::SLAB_WORDS)
            {
                Ok(b) => b,
                Err(e) => return Ok(partial(i, AllocError::Oom(e))),
            };
            self.dev.memset(
                "vertex_insert",
                base,
                TableDesc::base_words(buckets),
                slab_hash::EMPTY_KEY,
            );
            self.dict.install_host(&self.dev, v, base, buckets);
        }
        let mut outcome = self.try_insert_edges(edges)?;
        outcome.op = BatchOp::InsertVertices;
        outcome.attempted += ids.len();
        outcome.completed += ids.len();
        Ok(outcome)
    }

    /// Batched vertex deletion (§IV-D2, Algorithm 2).
    ///
    /// For undirected graphs, each deleted vertex is removed from all of
    /// its neighbours' adjacency lists (found via the slab iterator), its
    /// dynamically allocated collision slabs are freed, its base slabs are
    /// reset, and its edge count is zeroed. Vertex ids are *not* reused
    /// (the paper notes faimGraph recycles ids; ours does not).
    ///
    /// For directed graphs only the vertex's own memory is freed; incoming
    /// edges from arbitrary vertices are cleaned either lazily on query or
    /// eagerly via [`Self::purge_deleted`] (the paper's "follow-up lookup
    /// and delete ... in all of the hash tables").
    pub fn delete_vertices(&self, vertices: &[u32]) {
        let outcome = self
            .try_delete_vertices(vertices)
            .unwrap_or_else(|e| panic!("delete_vertices: {e}"));
        if let Some(e) = outcome.error {
            panic!("delete_vertices: device memory exhausted staging the batch: {e}");
        }
    }

    /// Fallible [`Self::delete_vertices`]. Deletion frees memory rather
    /// than allocating it, so the only recoverable failure is staging the
    /// victim list on a budget-exhausted device — in which case nothing is
    /// applied and every vertex is reported pending.
    pub fn try_delete_vertices(&self, vertices: &[u32]) -> Result<BatchOutcome, GraphError> {
        if vertices.is_empty() {
            return Ok(BatchOutcome::complete(BatchOp::DeleteVertices, 0, 0));
        }
        for &v in vertices {
            self.check_id(v)?;
        }
        let count = vertices.len() as u32;
        let undirected = self.config.direction == Direction::Undirected;
        let staged = (|| -> Result<_, gpu_sim::OomError> {
            let verts_buf = self.dev.try_upload(vertices, u32::MAX)?;
            // Line 1: the shared work-queue counter lives in device memory.
            let queue = self.dev.try_alloc_words(1, 1)?;
            // Victim bitmap (undirected only): warps must skip destinations
            // that are themselves victims — their tables are torn down
            // wholesale by their owning warp, and deleting from them here
            // would race with that teardown (and underflow a just-zeroed
            // edge count).
            let victim_bits = if undirected {
                let bm_words = (self.dict.capacity() as usize).div_ceil(32).max(1);
                let bm = self.dev.try_alloc_words(bm_words, 1)?;
                let mut bits = vec![0u32; bm_words];
                for &v in vertices {
                    // An id past the dictionary owns no table to tear down.
                    if let Some(w) = bits.get_mut((v / 32) as usize) {
                        *w |= 1 << (v % 32);
                    }
                }
                self.dev.host_write(bm, &bits);
                bm
            } else {
                gpu_sim::NULL_ADDR
            };
            Ok((verts_buf, queue, victim_bits))
        })();
        let (verts_buf, queue, victim_bits) = match staged {
            Ok(bufs) => bufs,
            Err(e) => {
                return Ok(BatchOutcome {
                    op: BatchOp::DeleteVertices,
                    attempted: vertices.len(),
                    completed: 0,
                    changed: 0,
                    pending: Vec::new(),
                    pending_vertices: vertices.to_vec(),
                    error: Some(AllocError::Oom(e)),
                })
            }
        };
        self.dev.host_write(queue, &[0]);

        let _phase = self.dev.phase("vertex_delete_batch");
        if let Some(p) = self.dev.profiler() {
            p.metrics()
                .record("vertex_delete.queue_depth", count as u64);
        }
        let n_warps = (count as usize).min(128);
        self.batch(|k| {
            k.launch_warps("vertex_delete", n_warps, |warp| {
                loop {
                    // Lines 3–6: lane 0 claims a queue slot, broadcast to warp.
                    let queue_id = warp.atomic_add(queue, 1);
                    let _ = warp.shuffle(&gpu_sim::Lanes::splat(queue_id), 0);
                    // Lines 7–9: all work claimed → warp exits.
                    if queue_id >= count {
                        return;
                    }
                    // Line 10: fetch the vertex id.
                    let victim = warp.read_word(verts_buf + queue_id);
                    let Some(desc) = self.dict.desc(warp, victim) else {
                        continue;
                    };
                    // Lines 11–21: iterate the victim's slabs.
                    if undirected {
                        desc.for_each_slab(warp, |view| {
                            // Lines 13–17: lanes hold destinations; loop over
                            // the valid lanes, broadcasting each destination.
                            let valid = view.valid_mask();
                            for lane in iter_bits(valid) {
                                let dst = view.words.get(lane as usize);
                                if dst == victim {
                                    continue;
                                }
                                // Fellow victims are skipped: their owning warp
                                // frees the whole table (racing with it here
                                // would touch memory mid-teardown).
                                let bits = warp.read_word(victim_bits + dst / 32);
                                if bits & (1 << (dst % 32)) != 0 {
                                    continue;
                                }
                                // Line 16: delete victim from dst's table,
                                // revoking its clean certificate.
                                if let Some((dst_desc, certified)) =
                                    self.dict.desc_certified(warp, dst)
                                {
                                    if dst_desc.delete(warp, victim) {
                                        warp.atomic_sub(self.dict.count_addr(dst), 1);
                                        if certified {
                                            self.dict.revoke(warp, dst);
                                        }
                                    }
                                }
                            }
                        });
                    }
                    // Lines 18–20: free dynamically allocated slabs (base
                    // slabs are statically allocated and not reclaimed).
                    desc.free_dynamic_slabs(warp, &self.alloc)
                        .expect("victim's collision slabs must be freeable");
                    // Line 22: zero the victim's edge count.
                    warp.write_word(self.dict.count_addr(victim), 0);
                    // Recycle the id (faimGraph's strategy, §VI-A3).
                    self.free_ids.lock().push(victim);
                }
            })
        });
        Ok(BatchOutcome::complete(
            BatchOp::DeleteVertices,
            vertices.len(),
            0,
        ))
    }

    /// Eager cleanup after *directed* vertex deletion: scan every vertex's
    /// table and delete any destination in `deleted` (the paper's
    /// "follow-up lookup and delete all of the deleted vertices in all of
    /// the hash tables"). The deleted set itself is stored in a device-side
    /// slab-hash set so each membership test is an O(1) probe.
    pub fn purge_deleted(&self, deleted: &[u32]) {
        self.try_purge_deleted(deleted)
            .unwrap_or_else(|e| panic!("purge_deleted: {e}"));
    }

    /// Fallible [`Self::purge_deleted`]. Building the device-side scratch
    /// set of deleted ids can exhaust the slab pool; in that case the
    /// scratch slabs are released, nothing is purged, and the whole call
    /// can simply be repeated (purging is idempotent).
    pub fn try_purge_deleted(&self, deleted: &[u32]) -> Result<(), GraphError> {
        if deleted.is_empty() {
            return Ok(());
        }
        let dead_set = TableDesc::create(
            &self.dev,
            TableKind::Set,
            slab_hash::buckets_for(deleted.len(), self.config.load_factor, TableKind::Set),
        );
        // The scratch set's dynamic slabs go back to the pool (on the
        // out-of-memory path too) so the validate() slab audit never
        // mistakes them for a leak.
        let release_dead_set = |k: &Launcher| {
            k.launch_warps("purge_deleted", 1, |warp| {
                dead_set
                    .free_dynamic_slabs(warp, &self.alloc)
                    .expect("scratch-set slabs must be freeable");
            });
        };
        self.batch(|k| {
            let first_err = parking_lot::Mutex::new(None);
            k.launch_warps("purge_deleted", 1, |warp| {
                for &v in deleted {
                    if let Err(e) = dead_set.insert(warp, &self.alloc, v, 0, true) {
                        let mut slot = first_err.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        break;
                    }
                }
            });
            if let Some(e) = first_err.into_inner() {
                release_dead_set(k);
                return Err(GraphError::Alloc(e));
            }

            // One warp per dictionary line (16 vertices): its descriptors
            // are one read.
            k.launch_warps("purge_deleted", self.dict.lines() as usize, |warp| {
                let line = warp.warp_id();
                self.dict
                    .for_each_table_in_lines(warp, line..line + 1, |u, desc, certified| {
                        // Collect victims first (iterators must not observe
                        // their own tombstoning mid-walk), then delete.
                        let mut victims = Vec::new();
                        desc.for_each_slab(warp, |view| {
                            for dst in view.keys() {
                                if dead_set.find(warp, dst).is_some() {
                                    victims.push(dst);
                                }
                            }
                        });
                        let mut removed = 0u32;
                        for dst in victims {
                            if desc.delete(warp, dst) {
                                removed += 1;
                            }
                        }
                        if removed > 0 {
                            warp.atomic_sub(self.dict.count_addr(u), removed);
                            if certified {
                                self.dict.revoke(warp, u);
                            }
                        }
                    });
            });
            release_dead_set(k);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};

    /// Small undirected clique graph for deletion tests.
    fn clique(n: u32) -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(n * 2), n * 2, 1);
        let mut batch = vec![];
        for u in 0..n {
            for v in (u + 1)..n {
                batch.push(Edge::weighted(u, v, u * 100 + v));
            }
        }
        g.insert_edges(&batch);
        g
    }

    #[test]
    fn delete_vertex_removes_from_neighbors() {
        let g = clique(6);
        assert_eq!(g.degree(0), 5);
        g.delete_vertices(&[3]);
        assert_eq!(g.degree(3), 0, "victim emptied");
        let pin = g.pin_read();
        for v in [0u32, 1, 2, 4, 5] {
            assert_eq!(g.degree(v), 4, "neighbor {v} lost one edge");
            assert!(!g.edge_exists(&pin, v, 3), "edge {v}→3 gone");
            assert!(!g.edge_exists(&pin, 3, v), "edge 3→{v} gone");
        }
    }

    #[test]
    fn delete_multiple_vertices() {
        let g = clique(8);
        g.delete_vertices(&[1, 2, 5]);
        let pin = g.pin_read();
        for v in [1u32, 2, 5] {
            assert_eq!(g.degree(v), 0);
            assert!(g.read_neighbors(&pin, &[v]).list(0).is_empty());
        }
        for v in [0u32, 3, 4, 6, 7] {
            assert_eq!(g.degree(v), 4, "survivor {v} keeps edges to survivors");
        }
        // Total: 5 survivors × 4 = 20 half-edges.
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn delete_vertex_frees_collision_slabs() {
        let n = 200u32;
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(n + 1), n + 1, 1);
        let batch: Vec<Edge> = (1..=n).map(|v| Edge::new(0, v)).collect();
        g.insert_edges(&batch);
        let live_before = g.allocator().live_slabs();
        assert!(live_before > 10, "hub vertex chained many slabs");
        g.delete_vertices(&[0]);
        assert!(
            g.allocator().live_slabs() < live_before,
            "collision slabs reclaimed"
        );
        assert_eq!(g.degree(0), 0);
        for v in 1..=n {
            assert_eq!(g.degree(v), 0, "spoke {v} lost its only edge");
        }
    }

    #[test]
    fn deleted_vertex_queries_return_nothing() {
        let g = clique(5);
        g.delete_vertices(&[2]);
        let pin = g.pin_read();
        assert!(g.read_neighbors(&pin, &[2]).list(0).is_empty());
        let pairs: Vec<(u32, u32)> = (0..5).map(|v| (2, v)).collect();
        assert!(
            g.edges_exist(&pin, &pairs).iter().all(|&b| !b),
            "no false positives"
        );
    }

    #[test]
    fn deleting_nonexistent_vertex_is_noop() {
        let g = clique(4);
        let edges_before = g.num_edges();
        g.delete_vertices(&[7]); // in capacity, never touched
        assert_eq!(g.num_edges(), edges_before);
        g.delete_vertices(&[]);
        assert_eq!(g.num_edges(), edges_before);
    }

    #[test]
    fn insert_vertices_installs_sized_tables_and_edges() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(4), 4, 1);
        g.insert_edges(&[Edge::new(0, 1)]);
        let edges: Vec<Edge> = (0..50).map(|i| Edge::weighted(10, i % 8, i)).collect();
        let added = g.insert_vertices(&[10], &edges).unwrap();
        assert_eq!(added, 8, "50 edges to 8 unique destinations");
        assert_eq!(g.degree(10), 8);
        assert!(g.vertex_capacity() >= 11, "dictionary grew");
        // Sized table: 8 unique dsts but hinted with 50 ⇒ ≥ 1 buckets.
        assert!(g.dict().desc_host(g.device(), 10).unwrap().num_buckets >= 4);
        // Old entries survived the shallow copy.
        assert!(g.edge_exists(&g.pin_read(), 0, 1));
    }

    #[test]
    fn insert_existing_vertex_returns_typed_error() {
        use crate::batch::GraphError;
        let g = DynGraph::new(GraphConfig::directed_map(4));
        g.insert_vertices(&[2], &[]).unwrap();
        assert_eq!(
            g.insert_vertices(&[2], &[]),
            Err(GraphError::DuplicateVertex { id: 2 })
        );
        // Duplicates within one batch are rejected before any mutation.
        assert_eq!(
            g.insert_vertices(&[5, 5], &[]),
            Err(GraphError::DuplicateVertex { id: 5 })
        );
        assert!(g.dict().desc_host(g.device(), 5).is_none(), "untouched");
    }

    #[test]
    fn invalid_edge_endpoint_reports_the_edge() {
        use crate::batch::GraphError;
        let g = DynGraph::new(GraphConfig::directed_map(4));
        let bad = Edge::new(0, u32::MAX - 1);
        assert_eq!(
            g.try_insert_edges(&[Edge::new(0, 1), bad]),
            Err(GraphError::InvalidVertexId {
                id: u32::MAX - 1,
                edge: Some(bad),
            })
        );
        assert_eq!(g.num_edges(), 0, "validation precedes mutation");
    }

    #[test]
    fn directed_delete_frees_memory_and_purge_cleans_incoming() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(8), 8, 1);
        g.insert_edges(&[
            Edge::new(0, 3),
            Edge::new(1, 3),
            Edge::new(3, 0),
            Edge::new(2, 1),
        ]);
        g.delete_vertices(&[3]);
        assert_eq!(g.degree(3), 0, "outgoing edges freed");
        // Incoming edges still physically present until purge...
        assert!(g.edge_exists(&g.pin_read(), 0, 3));
        g.purge_deleted(&[3]);
        assert!(
            !g.edge_exists(&g.pin_read(), 0, 3),
            "purge removed incoming edge"
        );
        assert!(!g.edge_exists(&g.pin_read(), 1, 3));
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 0);
        assert!(
            g.edge_exists(&g.pin_read(), 2, 1),
            "unrelated edge survives purge"
        );
    }

    #[test]
    fn reinserting_edges_to_deleted_vertex_id_works() {
        // Ids are not recycled, but the slot remains usable: the paper's
        // structure keeps the (reset) base slabs.
        let g = clique(4);
        g.delete_vertices(&[1]);
        g.insert_edges(&[Edge::weighted(1, 0, 5)]);
        assert_eq!(g.degree(1), 1);
        assert!(g.edge_exists(&g.pin_read(), 1, 0));
        assert!(
            g.edge_exists(&g.pin_read(), 0, 1),
            "undirected mirror restored"
        );
    }

    #[test]
    fn purge_reads_the_dictionary_by_the_line() {
        // One deleted vertex on a 4 096-vertex directed graph of
        // one-bucket tables. Vertices 1 and 2 point at it; 7 → 8 is
        // unrelated.
        let n = 4096u32;
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(n), n, 1);
        g.insert_edges(&[
            Edge::new(1, 0),
            Edge::new(2, 0),
            Edge::new(0, 5),
            Edge::new(7, 8),
        ]);
        g.delete_vertices(&[0]);
        let before = g.device().counters().snapshot();
        g.purge_deleted(&[0]);
        let d = g.device().counters().snapshot().delta(&before);
        let pin = g.pin_read();
        assert!(!g.edge_exists(&pin, 1, 0) && !g.edge_exists(&pin, 2, 0));
        assert!(g.edge_exists(&pin, 7, 8));
        assert_eq!((g.degree(1), g.degree(2), g.degree(7)), (0, 0, 1));
        assert_eq!(g.num_edges(), 1);
        // Transactions: 256 descriptor lines, 4 096 one-slab walks, three
        // dead-set finds (keys 0, 0, 8), two delete reads, and the dead
        // set's base memset, insert read, and release read and reset.
        // Atomics: the dead-set claim, two tombstone CASes and two count
        // decrements: the line warps take no work-queue atomic. Warps:
        // the dead-set insert, one per line, and the release.
        let lines = n / 16;
        let transactions = lines + n + 3 + 2 + 4;
        let atomics = 1 + 2 + 2;
        assert_eq!(
            (d.transactions, d.atomics, d.launches, d.warps),
            (u64::from(transactions), atomics, 4, u64::from(lines) + 2)
        );
    }
}
