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
    /// tombstones. The rewrite is not safe next to concurrent readers.
    ///
    /// Returns the number of tombstones removed.
    pub fn flush_tombstones(&self) -> u64 {
        let _phase = self.dev.phase("flush_tombstones");
        let removed = AtomicU64::new(0);
        self.batch(|k| {
            k.launch_warps("flush_tombstones", 1, |warp| {
                self.dict.for_each_table(warp, |_, desc| {
                    let n = desc
                        .compact(warp, &self.alloc)
                        .expect("flushed chains must be freeable");
                    removed.fetch_add(n, Ordering::AcqRel);
                });
            })
        });
        removed.into_inner()
    }

    /// Rehash every vertex whose average chain length exceeds
    /// `max_chain` slabs into a table sized for its *current* degree at
    /// the configured load factor ([`TableDesc::fill`]). New base slabs
    /// are bulk-allocated; the old base slabs are abandoned (static memory
    /// is never reclaimed, matching §IV-D2), and old collision slabs
    /// return to the pool. The new table is published with the vertex's
    /// edge count untouched.
    ///
    /// Returns the number of vertices rehashed.
    pub fn rehash_overloaded(&self, max_chain: f64) -> u64 {
        let _phase = self.dev.phase("rehash_overloaded");
        assert!(max_chain >= 1.0, "chains cannot be shorter than one slab");
        let rehashed = AtomicU64::new(0);
        self.batch(|k| {
            k.launch_warps("rehash", 1, |warp| {
                self.dict.for_each_table(warp, |v, desc| {
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

        // Idempotent: the second flush reads the dictionary line by line
        // and every slab, and writes nothing.
        assert_second_flush_only_reads(&g);
        g.validate().unwrap();
    }

    /// Flush `g` (removing any tombstones), then flush again: the second
    /// flush charges one transaction per 128 B line of descriptors,
    /// ⌈capacity/16⌉, plus one per slab, and no atomic or shuffle.
    fn assert_second_flush_only_reads(g: &DynGraph) {
        g.flush_tombstones();
        let slabs = g.stats(&g.pin_read()).tables.slabs;
        let second = charges(g, || assert_eq!(g.flush_tombstones(), 0, "idempotent"));
        assert_eq!(
            second.transactions,
            u64::from(g.vertex_capacity().div_ceil(16)) + slabs,
            "reads only, at capacity {}",
            g.vertex_capacity()
        );
        assert_eq!((second.atomics, second.shuffles), (0, 0));
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
        assert_second_flush_only_reads(&g);
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
        assert_second_flush_only_reads(&g);
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
}
