//! Structure maintenance: tombstone flushing and rehashing.
//!
//! The paper points at both operations without implementing them in the
//! measured path: "Tombstones can later be completely flushed out of the
//! data structure, if required" (§IV-C2) and "in practice we can maintain
//! low-cost metrics per vertex to determine the chain-length and
//! periodically perform rehashing if it exceeds a given threshold" (§III).
//! This module provides both, over one dense chain writer: a flush
//! rewrites each tombstoned chain in place, a rehash writes a table's live
//! entries into a fresh base of a new size.
//!
//! The flush's cost follows the tables deletes touched, not the
//! structure: it certifies every table it leaves clean in the table's
//! descriptor ([`crate::CERTIFIED`]), the first delete that tombstones a
//! key after it revokes that, and the next flush walks only uncertified
//! tables. A graph that never flushes certifies nothing, so its deletes
//! never pay a revoke.

use crate::dict::TABLES_PER_LINE;
use crate::graph::DynGraph;
use gpu_sim::SLAB_WORDS;
use slab_hash::{buckets_for, TableDesc};
use std::sync::atomic::{AtomicU64, Ordering};

impl DynGraph {
    /// Flush tombstones from every vertex's hash table in one pass
    /// ([`TableDesc::compact`]): each tombstoned chain is rewritten in
    /// place with its live entries packed densely, in their chain order,
    /// and its surplus collision slabs return to the pool. Counts are
    /// unchanged; queries see the same graph with shorter chains and zero
    /// tombstones.
    ///
    /// One warp per dictionary line (16 vertices) reads the line's
    /// descriptors with one transaction, compacts the line's uncertified
    /// tables, and, if it compacted any, stores their bucket words back
    /// certified clean with one more ([`crate::CERTIFIED`]). A certified
    /// table holds no tombstone and is not walked, so a flush costs
    /// ⌈capacity/16⌉ line reads plus the walks and stores of the tables
    /// deletes touched since the last one. The rewrite and the
    /// certificate stores are plain writes: neither is safe next to
    /// concurrent readers.
    ///
    /// Returns the number of tombstones removed.
    pub fn flush_tombstones(&self) -> u64 {
        let _phase = self.dev.phase("flush_tombstones");
        let removed = AtomicU64::new(0);
        self.batch(|k| {
            k.launch_warps("flush_tombstones", self.dict.lines() as usize, |warp| {
                let line = warp.warp_id();
                // ⟨vertex, bucket count⟩ of the line's walked tables.
                let mut walked = [(0, 0); TABLES_PER_LINE as usize];
                let mut n_walked = 0;
                self.dict
                    .for_each_table_in_lines(warp, line..line + 1, |v, desc, certified| {
                        if certified {
                            return;
                        }
                        let n = desc
                            .compact(warp, &self.alloc)
                            .expect("flushed chains must be freeable");
                        removed.fetch_add(n, Ordering::AcqRel);
                        walked[n_walked] = (v, desc.num_buckets);
                        n_walked += 1;
                    });
                if n_walked > 0 {
                    self.dict.certify(warp, &walked[..n_walked]);
                }
            })
        });
        removed.into_inner()
    }

    /// Rehash every vertex whose average chain length exceeds
    /// `max_chain` slabs into a table sized for its *current* degree at
    /// the configured load factor ([`TableDesc::fill`]). New base slabs
    /// are bulk-allocated; old bulk-allocated base slabs are abandoned
    /// (static memory is never reclaimed, matching §IV-D2), while old
    /// collision slabs and the pool slab a lazily created table used as
    /// its base return to the pool. The new table is published with the vertex's
    /// edge count untouched.
    ///
    /// Returns the number of vertices rehashed.
    pub fn rehash_overloaded(&self, max_chain: f64) -> u64 {
        let _phase = self.dev.phase("rehash_overloaded");
        assert!(max_chain >= 1.0, "chains cannot be shorter than one slab");
        let rehashed = AtomicU64::new(0);
        self.batch(|k| {
            k.launch_warps("rehash", 1, |warp| {
                self.dict.for_each_table(warp, |v, desc, _| {
                    if desc.stats(warp).avg_chain() <= max_chain {
                        return;
                    }
                    rehashed.fetch_add(1, Ordering::AcqRel);
                    let entries = self.collect_entries(warp, &desc);
                    let buckets = buckets_for(entries.len(), self.config.load_factor, desc.kind);
                    let fresh = TableDesc {
                        kind: desc.kind,
                        base: self
                            .dev
                            .alloc_words(TableDesc::base_words(buckets), SLAB_WORDS),
                        num_buckets: buckets,
                    };
                    // Maintenance is not a recoverable batch: the rebuild
                    // allocates only the overflow slabs its live entries
                    // need, so it can fail only under a fault plan or a
                    // budget tighter than the structure it rebuilds.
                    fresh
                        .fill(warp, &self.alloc, &entries)
                        .expect("rehash must not exhaust the pool");
                    desc.free_dynamic_slabs(warp, &self.alloc)
                        .expect("rehashed chains must be freeable");
                    // A lazily created table's base is a pool slab.
                    if self.alloc.owns(desc.base) {
                        self.alloc
                            .free(warp, desc.base)
                            .expect("a pool base must be freeable");
                    }
                    self.dict.publish(warp, v, &fresh);
                });
            })
        });
        rehashed.into_inner()
    }

    pub(crate) fn collect_entries(
        &self,
        warp: &gpu_sim::Warp,
        desc: &TableDesc,
    ) -> Vec<(u32, u32)> {
        let mut entries = Vec::new();
        desc.for_each_entry(warp, |k, v| entries.push((k, v)));
        entries
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};
    use gpu_sim::{CounterSnapshot, Device, DeviceConfig, SanitizerConfig, NULL_ADDR};

    fn churned_graph() -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(64), 64, 1);
        let ins: Vec<Edge> = (0..8u32)
            .flat_map(|u| (0..50u32).map(move |i| Edge::weighted(u, 8 + (u + i) % 56, i)))
            .collect();
        g.insert_edges(&ins);
        let del: Vec<Edge> = (0..8u32)
            .flat_map(|u| (0..25u32).map(move |i| Edge::new(u, 8 + (u + i * 2) % 56)))
            .collect();
        g.delete_edges(&del);
        g
    }

    /// The counters `op` charges on `g`'s device.
    fn charges(g: &DynGraph, op: impl FnOnce()) -> CounterSnapshot {
        let before = g.device().counters().snapshot();
        op();
        g.device().counters().snapshot().delta(&before)
    }

    /// Per bucket chain of `v`'s table: (live keys, tombstones, slabs).
    fn chain_shapes(g: &DynGraph, v: u32) -> Vec<(u64, u64, u64)> {
        let pin = g.pin_read();
        let Some(desc) = g.dict.desc_host(&g.dev, v) else {
            return vec![];
        };
        let shapes = parking_lot::Mutex::new(vec![(0, 0, 0)]);
        g.pinned(&pin).launch_warps("chain_shapes", 1, |warp| {
            desc.for_each_slab(warp, |view| {
                let mut shapes = shapes.lock();
                let last = shapes.last_mut().expect("one open chain");
                let key_lanes = desc.kind.key_lanes();
                last.0 += view.keys().count() as u64;
                last.1 += (0..gpu_sim::WARP_SIZE)
                    .filter(|&i| key_lanes & (1 << i) != 0)
                    .filter(|&i| view.words.get(i) == slab_hash::TOMBSTONE_KEY)
                    .count() as u64;
                last.2 += 1;
                if view.next() == NULL_ADDR {
                    shapes.push((0, 0, 0));
                }
            });
        });
        let mut shapes = shapes.into_inner();
        shapes.pop();
        shapes
    }

    /// Every chain of every table is dense: no tombstones, and
    /// max(1, ⌈live/Bc⌉) slabs long (empties only in the tail slab is
    /// `validate`'s check).
    fn assert_dense(g: &DynGraph) {
        let bc = g.config.kind.slab_capacity() as u64;
        for v in 0..g.vertex_capacity() {
            for (live, tombstones, slabs) in chain_shapes(g, v) {
                assert_eq!(tombstones, 0, "vertex {v}");
                assert_eq!(slabs, live.div_ceil(bc).max(1), "vertex {v}");
            }
        }
    }

    #[test]
    fn flush_removes_all_tombstones_and_preserves_graph() {
        let g = churned_graph();
        let before_stats = g.stats(&g.pin_read());
        assert!(before_stats.tables.tombstones > 0, "fixture has tombstones");
        let snapshot: Vec<Vec<(u32, u32)>> = (0..64)
            .map(|v| {
                let mut n = g
                    .read_neighbors(&g.pin_read(), &[v])
                    .entries(0)
                    .collect::<Vec<_>>();
                n.sort_unstable();
                n
            })
            .collect();

        let removed = g.flush_tombstones();
        assert_eq!(removed, before_stats.tables.tombstones);
        let after = g.stats(&g.pin_read());
        assert_eq!(after.tables.tombstones, 0);
        assert_eq!(after.tables.live_keys, before_stats.tables.live_keys);
        assert!(
            after.tables.slabs < before_stats.tables.slabs,
            "chains shrank"
        );

        for v in 0..64 {
            let mut n = g
                .read_neighbors(&g.pin_read(), &[v])
                .entries(0)
                .collect::<Vec<_>>();
            n.sort_unstable();
            assert_eq!(n, snapshot[v as usize], "vertex {v} changed");
            assert_eq!(g.degree(v), n.len() as u32, "vertex {v} count");
        }
        g.check_invariants();
        assert_dense(&g);

        // Idempotent: the first flush certified every table clean, so
        // the second reads the dictionary line by line and nothing else.
        assert_second_flush_reads_only_the_lines(&g);
        g.validate().unwrap();
    }

    /// Flush `g` (removing any tombstones and certifying every table
    /// clean), then flush again: the second flush launches one warp per
    /// 128 B line of descriptors, ⌈capacity/16⌉, each charged its one
    /// line read; it walks no certified table and stores nothing.
    fn assert_second_flush_reads_only_the_lines(g: &DynGraph) {
        g.flush_tombstones();
        let lines = u64::from(g.vertex_capacity().div_ceil(16));
        let second = charges(g, || assert_eq!(g.flush_tombstones(), 0, "idempotent"));
        assert_eq!(
            (second.transactions, second.launches, second.warps),
            (lines, 1, lines),
            "line reads only, at capacity {}",
            g.vertex_capacity()
        );
        assert_eq!((second.atomics, second.ballots, second.shuffles), (0, 0, 0));
    }

    /// A directed map graph on a device with its own shadow-memory
    /// sanitizer, so a dictionary read past the descriptor array is a
    /// finding (the words after it are the count array's end, alignment
    /// padding or past the arena's bump cursor) with or without the
    /// `sanitize` feature.
    fn sanitized_graph(vertex_capacity: u32) -> DynGraph {
        let config = GraphConfig::directed_map(vertex_capacity);
        let dev = Device::with_config(
            DeviceConfig::new(config.device_words).with_sanitizer(SanitizerConfig::default()),
        );
        DynGraph::on_device(std::sync::Arc::new(dev), config)
    }

    /// Insert two edges per vertex in `vertices`, then delete one.
    fn churn(g: &DynGraph, vertices: std::ops::Range<u32>) {
        let cap = g.vertex_capacity();
        let ins: Vec<Edge> = vertices
            .clone()
            .flat_map(|u| {
                [
                    Edge::weighted(u, (u + 1) % cap, 1),
                    Edge::weighted(u, (u + 2) % cap, 2),
                ]
            })
            .collect();
        g.insert_edges(&ins);
        let del: Vec<Edge> = vertices.map(|u| Edge::new(u, (u + 1) % cap)).collect();
        g.delete_edges(&del);
    }

    #[test]
    fn flush_reads_a_partial_last_dictionary_line_within_the_array() {
        // 21 descriptors fill one line and 5 pairs of the next: an
        // unmasked read of the whole second line would run one word past
        // the dictionary's 63.
        let g = sanitized_graph(21);
        g.install_tables(&[1; 21]);
        churn(&g, 0..21);
        assert_second_flush_reads_only_the_lines(&g);
        assert_eq!(g.vertex_capacity().div_ceil(16), 2);
        assert!(g.device().sanitizer_findings().is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn flush_reads_a_grown_dictionary_by_the_line() {
        // Vertex insertion grows the dictionary from 10 to 20 entries
        // (`VertexDict::try_grow`); the flush walks the new allocation,
        // whose second line holds 4 descriptor pairs.
        let g = sanitized_graph(10);
        g.install_tables(&[1; 10]);
        churn(&g, 0..10);
        let ids: Vec<u32> = (10..20).collect();
        g.insert_vertices(&ids, &[]).unwrap();
        assert_eq!(g.vertex_capacity(), 20);
        churn(&g, 10..20);
        assert_second_flush_reads_only_the_lines(&g);
        assert!(g.device().sanitizer_findings().is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn rehash_shortens_chains_and_preserves_graph() {
        // Single-bucket tables with high degree → long chains.
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(16), 16, 1);
        let ins: Vec<Edge> = (0..200u32)
            .map(|i| Edge::weighted(0, 1 + i % 15, i))
            .collect();
        g.insert_edges(&ins);
        let before = g.stats(&g.pin_read());
        let chain_before = before.tables.max_chain;
        assert!(chain_before >= 1);
        let mut expect: std::collections::BTreeMap<u32, u32> =
            g.read_neighbors(&g.pin_read(), &[0]).entries(0).collect();

        // Vertex 0 has 15 unique dsts in 1 bucket (1 slab chain of 1): add
        // enough churn to force multi-slab chains first. Replace
        // semantics: the last weight inserted for a destination wins.
        let more: Vec<Edge> = (0..300u32)
            .map(|i| Edge::weighted(0, 100 + i % 200, i))
            .collect();
        g.insert_edges(&more);
        expect.extend(more.iter().map(|e| (e.dst, e.weight)));
        let loaded = g.stats(&g.pin_read());
        assert!(loaded.tables.max_chain > 2, "chain built up");

        let rehashed = g.rehash_overloaded(2.0);
        assert!(rehashed >= 1, "vertex 0 rehashed");
        let after = g.stats(&g.pin_read());
        assert!(after.tables.max_chain <= loaded.tables.max_chain);
        assert!(after.avg_chain() < loaded.avg_chain());
        assert!(g.dict().desc_host(g.device(), 0).unwrap().num_buckets > 1);

        let mut n0 = g
            .read_neighbors(&g.pin_read(), &[0])
            .entries(0)
            .collect::<Vec<_>>();
        n0.sort_unstable();
        assert_eq!(n0, expect.into_iter().collect::<Vec<_>>(), "weights kept");
        assert_eq!(g.degree(0), n0.len() as u32, "exact count preserved");
        g.check_invariants();
        assert_dense(&g);
    }

    #[test]
    fn rehash_returns_a_lazy_tables_pool_base() {
        // Vertex 0's table is created lazily, so its base is a pool slab;
        // 19 edges chain a second slab onto it.
        let g = DynGraph::new(GraphConfig::directed_map(20));
        let edges: Vec<Edge> = (1..20).map(|v| Edge::weighted(0, v, v)).collect();
        assert_eq!(g.insert_edges(&edges), 19);
        assert_eq!(g.allocator().live_slabs(), 2);
        assert_eq!(g.rehash_overloaded(1.0), 1);
        g.validate().expect("the old base went back to the pool");
        assert_eq!(
            g.allocator().live_slabs(),
            0,
            "the new table is bulk-allocated"
        );
        let mut n0 = g
            .read_neighbors(&g.pin_read(), &[0])
            .entries(0)
            .collect::<Vec<_>>();
        n0.sort_unstable();
        assert_eq!(n0, (1..20).map(|v| (v, v)).collect::<Vec<_>>());
    }

    #[test]
    fn insert_after_delete_churn_allocates_no_slab_beyond_the_live_size() {
        // Each round inserts 60 destinations of vertex 0 (one bucket) and
        // deletes them again: inserts reuse the round before's
        // tombstones, so the chain stays at the ⌈60/15⌉ = 4 slabs the
        // live edges need and no other slab is ever allocated.
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(8), 8, 1);
        for round in 0..6u32 {
            let ins: Vec<Edge> = (0..60u32)
                .map(|i| Edge::weighted(0, 1 + ((round * 60 + i) % 200), i))
                .collect();
            assert_eq!(g.insert_edges(&ins), 60, "round {round}");
            let tables = g.stats(&g.pin_read()).tables;
            assert_eq!(
                (tables.max_chain, tables.slabs),
                (4, 8 + 3),
                "round {round}"
            );
            assert_eq!(tables.tombstones, 0, "round {round}");
            assert_eq!(g.allocator().live_slabs(), 3, "round {round}");
            let del: Vec<Edge> = ins.iter().map(|e| Edge::new(e.src, e.dst)).collect();
            assert_eq!(g.delete_edges(&del), 60, "round {round}");
        }
        g.check_invariants();
    }
    /// `n` one-bucket map tables, vertex `u` pointing at the 20
    /// vertices after it: two slabs per chain (15 + 5), no tombstone.
    fn two_slab_tables(n: u32) -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(n), n, 1);
        let ins: Vec<Edge> = (0..n)
            .flat_map(|u| (1..=20).map(move |i| Edge::weighted(u, (u + i) % n, i)))
            .collect();
        g.insert_edges(&ins);
        g
    }

    #[test]
    fn flush_after_deletes_on_k_tables_walks_only_them() {
        // 100 tables, certified by a first flush that rewrites nothing.
        // Deletes then touch k = 4 tables on 3 of the 7 dictionary lines:
        // one edge of tables 3, 40 and 99 (19 live keys keep 2 slabs)
        // and six of table 4 (14 live keys fit 1 slab, 1 is freed).
        let n = 100;
        let g = two_slab_tables(n);
        let first = charges(&g, || assert_eq!(g.flush_tombstones(), 0));
        assert_eq!(first.shuffles, 0, "the certifying flush rewrites nothing");
        assert!((0..n).all(|v| g.dict().certified_host(g.device(), v)));
        let del: Vec<Edge> = [(3, 1), (4, 6), (40, 1), (99, 1)]
            .into_iter()
            .flat_map(|(u, k)| (1..=k).map(move |i| Edge::new(u, (u + i) % n)))
            .collect();
        assert_eq!(g.delete_edges(&del), 9);
        let touched = [3, 4, 40, 99];
        for v in 0..n {
            let certified = g.dict().certified_host(g.device(), v);
            assert_eq!(certified, !touched.contains(&v), "vertex {v}");
        }

        let flush = charges(&g, || assert_eq!(g.flush_tombstones(), 9));
        // ⌈100/16⌉ line reads, the k tables' 8 slabs walked, 2 + 1 + 2
        // + 2 slabs rewritten, one certificate store on each of lines
        // 0, 2 and 6; one atomic frees table 4's surplus slab.
        let (lines, walked, rewritten, stores) = (7, 4 * 2, 7, 3);
        assert_eq!(
            (flush.transactions, flush.atomics, flush.shuffles),
            (lines + walked + rewritten + stores, 1, rewritten)
        );
        assert_eq!((flush.launches, flush.warps), (1, lines));
        assert!((0..n).all(|v| g.dict().certified_host(g.device(), v)));
        assert_eq!(g.stats(&g.pin_read()).tables.tombstones, 0);
        assert_dense(&g);
        g.validate().unwrap();
    }

    #[test]
    fn a_delete_revokes_each_certificate_it_breaks_with_one_atomic() {
        // Two graphs with the same chains, one certified by a flush that
        // rewrites nothing: the same delete batch costs the certified
        // graph one `atomicAnd` per table it tombstones, and nothing
        // else; a graph that never flushed pays no revoke.
        let (certified, plain) = (two_slab_tables(64), two_slab_tables(64));
        certified.flush_tombstones();
        let del: Vec<Edge> = (0..64)
            .step_by(8)
            .flat_map(|u| [Edge::new(u, (u + 1) % 64), Edge::new(u, (u + 7) % 64)])
            .collect();
        let a = charges(&certified, || assert_eq!(certified.delete_edges(&del), 16));
        let b = charges(&plain, || assert_eq!(plain.delete_edges(&del), 16));
        assert_eq!(a.atomics, b.atomics + 8, "one revoke per touched table");
        assert_eq!(
            (a.transactions, a.ballots, a.shuffles, a.launches, a.warps),
            (b.transactions, b.ballots, b.shuffles, b.launches, b.warps)
        );
        // A second delete on the same tables finds them revoked already.
        let more: Vec<Edge> = (0..64)
            .step_by(8)
            .map(|u| Edge::new(u, (u + 2) % 64))
            .collect();
        let a = charges(&certified, || assert_eq!(certified.delete_edges(&more), 8));
        let b = charges(&plain, || assert_eq!(plain.delete_edges(&more), 8));
        assert_eq!(a.atomics, b.atomics);
        for g in [&certified, &plain] {
            g.validate().unwrap();
            g.flush_tombstones();
            assert_eq!(g.stats(&g.pin_read()).tables.tombstones, 0);
            g.validate().unwrap();
        }
    }

    /// Certify every table of `g` with a flush, run `op`, and check that
    /// the certificates it broke were revoked: `validate` (which rejects
    /// a certified table holding a tombstone) passes, and the next flush
    /// leaves no tombstone and passes it too.
    fn assert_op_revokes(g: &DynGraph, op: impl FnOnce()) {
        g.flush_tombstones();
        let tombstones = g.stats(&g.pin_read()).tables.tombstones;
        assert_eq!(tombstones, 0);
        op();
        let tombstones = g.stats(&g.pin_read()).tables.tombstones;
        assert!(tombstones > 0, "the op tombstones keys");
        g.validate().unwrap();
        assert_eq!(g.flush_tombstones(), tombstones);
        assert_eq!(g.stats(&g.pin_read()).tables.tombstones, 0);
        assert_dense(g);
        g.validate().unwrap();
    }

    #[test]
    fn edge_delete_revokes_before_the_flush() {
        let g = two_slab_tables(48);
        assert_op_revokes(&g, || {
            let del: Vec<Edge> = (0..48)
                .step_by(5)
                .map(|u| Edge::new(u, (u + 3) % 48))
                .collect();
            g.delete_edges(&del);
        });
    }

    #[test]
    fn mixed_edge_update_revokes_before_the_flush() {
        use crate::edge_ops::Update;
        let g = two_slab_tables(48);
        assert_op_revokes(&g, || {
            let updates: Vec<Update> = (0..48)
                .step_by(3)
                .flat_map(|u| {
                    [
                        Update::Delete(Edge::new(u, (u + 4) % 48)),
                        Update::Insert(Edge::weighted(u, (u + 30) % 48, 7)),
                    ]
                })
                .collect();
            let (ins, del) = g.try_update_edges(&updates).unwrap();
            assert_eq!((ins.changed, del.changed), (16, 16));
        });
    }

    #[test]
    fn undirected_vertex_delete_sweep_revokes_before_the_flush() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(40), 40, 1);
        let ins: Vec<Edge> = (0..40)
            .flat_map(|u| (1..=6).map(move |i| Edge::weighted(u, (u + i) % 40, i)))
            .collect();
        g.insert_edges(&ins);
        assert_op_revokes(&g, || g.delete_vertices(&[5, 17, 30]));
    }

    #[test]
    fn purge_deleted_revokes_before_the_flush() {
        let g = two_slab_tables(48);
        g.delete_vertices(&[10, 11]);
        assert_op_revokes(&g, || g.purge_deleted(&[10, 11]));
    }

    #[test]
    fn new_and_republished_tables_start_uncertified() {
        // Lazily created tables: the first insert into an untouched vertex.
        let g = DynGraph::new(GraphConfig::directed_map(20));
        g.insert_edges(&[Edge::new(0, 1), Edge::new(2, 3)]);
        g.flush_tombstones();
        g.insert_edges(&[Edge::new(4, 5)]);
        let cert = |g: &DynGraph, v| g.dict().certified_host(g.device(), v);
        assert!(cert(&g, 0) && cert(&g, 2), "flushed tables are certified");
        assert!(!cert(&g, 4), "a lazy install is uncertified");
        // `insert_vertices` installs into a grown dictionary: the shallow
        // copy moves each certificate with its untouched table, and the
        // new entries start uncertified.
        g.insert_vertices(&[40, 41], &[Edge::new(40, 0)]).unwrap();
        assert!(g.vertex_capacity() > 20);
        assert!(cert(&g, 0) && cert(&g, 2));
        assert!(!cert(&g, 40) && !cert(&g, 41));
        assert!((20..g.vertex_capacity()).all(|v| !cert(&g, v)));
        g.validate().unwrap();

        // A rehash publishes an uncertified table.
        let g = two_slab_tables(20);
        g.flush_tombstones();
        assert!(cert(&g, 0));
        assert_eq!(g.rehash_overloaded(1.5), 20);
        assert!(
            (0..20).all(|v| !cert(&g, v)),
            "a rehash's publish is uncertified"
        );
        g.validate().unwrap();
    }
}
