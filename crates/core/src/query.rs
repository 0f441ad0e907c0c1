//! Query operations (paper §IV-B): `edgeExist`, weight lookup, and the
//! adjacency-list iterator.
//!
//! Every query takes a [`ReadGuard`] pinned via [`DynGraph::pin_read`] and
//! launches through the read door (`DynGraph::pinned`), whose launcher
//! borrows the guard: queries need no phase separation from updates. The
//! guard pins the launch era so the slab allocator cannot recycle any slab
//! freed at or after the pin, and the slab-hash walks validate
//! next-pointers as they hop, so a query running concurrently with an
//! insert/delete batch observes a consistent snapshot. Batched queries use
//! the same WCWS grouping as Algorithm 1 so lookups hitting the same source
//! vertex are coalesced.

use crate::graph::{DynGraph, Edge};
use gpu_sim::{Lanes, WARP_SIZE};
use slab_alloc::ReadGuard;
use slab_hash::TableKind;

impl DynGraph {
    /// Single edge-existence query (`edgeExist`, §IV-B). Runs a one-warp
    /// kernel; prefer [`Self::edges_exist`] for batches.
    pub fn edge_exists(&self, pin: &ReadGuard, src: u32, dst: u32) -> bool {
        self.edges_exist(pin, &[(src, dst)])[0]
    }

    /// Single edge-weight lookup (map graphs). The kernel reads `src`'s
    /// descriptor itself (charged, as in [`Self::edges_exist`]).
    pub fn edge_weight(&self, pin: &ReadGuard, src: u32, dst: u32) -> Option<u32> {
        let k = self.pinned(pin);
        assert_eq!(
            self.config.kind,
            TableKind::Map,
            "edge weights require the map variant"
        );
        let out = parking_lot::Mutex::new(None);
        k.launch_warps("edge_weight", 1, |warp| {
            *out.lock() = self
                .dict
                .desc(warp, src)
                .and_then(|desc| desc.find(warp, dst));
        });
        out.into_inner()
    }

    /// Batched edge-existence queries: one lane per ⟨src,dst⟩ pair, grouped
    /// by source exactly like Algorithm 1's insertion work queue. Each
    /// same-source group is answered by one
    /// [`TableDesc::find_lanes`](slab_hash::TableDesc::find_lanes) call,
    /// which walks every home bucket's chain once for all the group's
    /// probes that hash there; a one-pair batch charges exactly one
    /// `find`. Each group's hit mask is kept in the warp's lane
    /// registers, and the warp writes all its answers with one coalesced
    /// store once its queue drains: one result transaction per warp, not
    /// per group.
    pub fn edges_exist(&self, pin: &ReadGuard, pairs: &[(u32, u32)]) -> Vec<bool> {
        let k = self.pinned(pin);
        if pairs.is_empty() {
            return vec![];
        }
        let srcs: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let dsts: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let src_buf = self.dev.upload(&srcs, u32::MAX);
        let dst_buf = self.dev.upload(&dsts, u32::MAX);
        let out_buf = self.dev.upload(&vec![0u32; pairs.len()], 0);

        k.launch_tasks("edge_exist", pairs.len(), |warp| {
            let base = warp.warp_id() * WARP_SIZE as u32;
            let srcs = warp.read_slab(src_buf + base);
            let dsts = warp.read_slab(dst_buf + base);
            let mut pending = Lanes::from_fn(|i| warp.is_active(i));
            // Each lane's answer stays in its register (one bit here)
            // until the queue drains.
            let mut found = 0u32;
            loop {
                let queue = warp.ballot(&pending);
                let Some(current_lane) = gpu_sim::ffs(queue) else {
                    break;
                };
                let current_src = warp.shuffle(&srcs, current_lane);
                let same_src = pending.zip_with(&srcs, |p, s| p && s == current_src);
                let group = warp.ballot(&same_src);
                if let Some(desc) = self.dict.desc(warp, current_src) {
                    found |= desc.find_lanes(warp, &dsts, group).0;
                }
                pending = pending.zip_with(&same_src, |p, s| p && !s);
            }
            // One coalesced store of the warp's answers.
            let addrs = Lanes::from_fn(|i| out_buf + base + i as u32);
            let vals = Lanes::from_fn(|i| (found >> i) & 1);
            warp.write_lanes(&addrs, &vals, warp.active_mask());
        });

        let mut found = vec![0; pairs.len()];
        self.dev.host_read(out_buf, &mut found);
        found.into_iter().map(|w| w != 0).collect()
    }

    /// Retrieve vertex `u`'s adjacency list as ⟨dst, weight⟩ pairs (weight
    /// is 0 for set graphs). Uses the slab iterator (§IV-B); order is the
    /// table's internal order, not sorted. The kernel reads `u`'s
    /// descriptor itself, so a vertex without a table still costs one
    /// launch and one dictionary transaction.
    pub fn neighbors(&self, pin: &ReadGuard, u: u32) -> Vec<(u32, u32)> {
        let k = self.pinned(pin);
        let out = parking_lot::Mutex::new(Vec::new());
        k.launch_warps("neighbors", 1, |warp| {
            if let Some(desc) = self.dict.desc(warp, u) {
                *out.lock() = self.collect_entries(warp, &desc);
            }
        });
        out.into_inner()
    }

    /// Export every live edge as ⟨src, dst, weight⟩ (weight 0 for set
    /// graphs) in one `edge_export` kernel: a single warp walks every
    /// constructed table with the slab iterator (§IV-B), exactly as
    /// [`Self::neighbors`] walks one. Tombstoned slots are skipped.
    /// Edges come out vertex-ascending by source, each vertex's
    /// destinations in table order (not sorted). An edgeless graph
    /// returns without a launch.
    ///
    /// Like every query this needs a [`ReadGuard`] pinned on *this*
    /// graph, so no slab the walk reaches is recycled under it. The
    /// guard pins reclamation, not data: the export sees each table as
    /// it stands when the walk reaches it (snapshot-at-walk), so a batch
    /// landing mid-export may show up for some vertices and not others.
    pub fn export_edges(&self, pin: &ReadGuard) -> Vec<Edge> {
        let k = self.pinned(pin);
        if self.num_edges() == 0 {
            return vec![];
        }
        let cap = self.dict.capacity();
        let out = parking_lot::Mutex::new(Vec::new());
        k.launch_warps("edge_export", 1, |warp| {
            let mut local = Vec::new();
            for u in 0..cap {
                if let Some(desc) = self.dict.desc_host(&self.dev, u) {
                    let entries = self.collect_entries(warp, &desc);
                    local.extend(entries.into_iter().map(|(v, w)| Edge::weighted(u, v, w)));
                }
            }
            *out.lock() = local;
        });
        out.into_inner()
    }

    /// Destination-only adjacency list.
    pub fn neighbor_ids(&self, pin: &ReadGuard, u: u32) -> Vec<u32> {
        self.neighbors(pin, u).into_iter().map(|(d, _)| d).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};
    use slab_alloc::ReadGuard;

    fn graph_with_star() -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(64), 64, 1);
        let batch: Vec<Edge> = (1..40).map(|v| Edge::weighted(0, v, 100 + v)).collect();
        g.insert_edges(&batch);
        g
    }

    #[test]
    fn edges_exist_batch_mixed() {
        let g = graph_with_star();
        g.insert_edges(&[Edge::new(5, 6)]);
        let pin = g.pin_read();
        let res = g.edges_exist(&pin, &[(0, 1), (0, 39), (0, 40), (5, 6), (6, 5), (63, 0)]);
        assert_eq!(res, vec![true, true, false, true, false, false]);
    }

    #[test]
    fn edges_exist_large_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (0, i % 64)).collect();
        let res = g.edges_exist(&pin, &pairs);
        for (i, &(_, d)) in pairs.iter().enumerate() {
            assert_eq!(res[i], (1..40).contains(&d), "pair {i} dst {d}");
        }
    }

    #[test]
    fn neighbors_returns_all_pairs() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let mut n = g.neighbors(&pin, 0);
        n.sort_unstable();
        let expect: Vec<(u32, u32)> = (1..40).map(|v| (v, 100 + v)).collect();
        assert_eq!(n, expect);
    }

    #[test]
    fn neighbors_of_untouched_vertex_is_empty() {
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.neighbors(&pin, 63).is_empty());
        assert!(g.neighbor_ids(&pin, 62).is_empty());
    }

    #[test]
    fn reads_of_a_vertex_without_a_table_charge_its_descriptor() {
        // Tables are built lazily on insert, so vertex 2 has none: the
        // read still launches, and its kernel pays the one dictionary
        // transaction that finds no table.
        let g = DynGraph::new(GraphConfig::directed_map(8));
        g.insert_edges(&[Edge::weighted(1, 2, 5)]);
        let pin = g.pin_read();
        let charge = |read: &dyn Fn()| {
            let before = g.device().counters().snapshot();
            read();
            let delta = g.device().counters().snapshot().delta(&before);
            (delta.transactions, delta.launches)
        };
        assert_eq!(charge(&|| assert!(g.neighbors(&pin, 2).is_empty())), (1, 1));
        assert_eq!(
            charge(&|| assert_eq!(g.edge_weight(&pin, 2, 1), None)),
            (1, 1)
        );
    }

    #[test]
    fn neighbors_reflect_deletions() {
        let g = graph_with_star();
        g.delete_edges(&[Edge::new(0, 1), Edge::new(0, 2)]);
        let pin = g.pin_read();
        let ids = g.neighbor_ids(&pin, 0);
        assert!(!ids.contains(&1));
        assert!(!ids.contains(&2));
        assert_eq!(ids.len(), 37);
    }

    #[test]
    fn empty_query_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edges_exist(&pin, &[]).is_empty());
    }

    #[test]
    fn set_graph_neighbors_have_zero_weights() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(8), 8, 1);
        g.insert_edges(&[Edge::new(1, 2), Edge::new(1, 3)]);
        let pin = g.pin_read();
        let mut n = g.neighbors(&pin, 1);
        n.sort_unstable();
        assert_eq!(n, vec![(2, 0), (3, 0)]);
    }

    #[test]
    fn export_edges_is_the_union_of_adjacency_lists() {
        for cfg in [GraphConfig::directed_map(64), GraphConfig::directed_set(64)] {
            let g = DynGraph::with_uniform_buckets(cfg, 64, 1);
            let before = g.device().counters().snapshot().launches;
            assert!(g.export_edges(&g.pin_read()).is_empty());
            assert_eq!(
                g.device().counters().snapshot().launches,
                before,
                "an edgeless graph exports without a launch"
            );
            let ins: Vec<Edge> = (0..8u32)
                .flat_map(|u| (1..40u32).map(move |i| Edge::weighted(u, (u + i) % 64, u * 100 + i)))
                .collect();
            g.insert_edges(&ins);
            let del: Vec<Edge> = ins
                .iter()
                .step_by(3)
                .map(|e| Edge::new(e.src, e.dst))
                .collect();
            g.delete_edges(&del);
            let pin = g.pin_read();
            assert!(
                g.stats(&pin).tables.tombstones > 0,
                "fixture has tombstones"
            );

            let before = g.device().counters().snapshot().launches;
            let export = g.export_edges(&pin);
            assert_eq!(g.device().counters().snapshot().launches, before + 1);
            let mut union: Vec<Edge> = (0..64u32)
                .flat_map(|u| {
                    g.neighbors(&pin, u)
                        .into_iter()
                        .map(move |(v, w)| Edge::weighted(u, v, w))
                })
                .collect();
            // Vertex-ascending with table order inside a vertex, exactly
            // the order of the per-vertex walks.
            assert_eq!(export, union);
            union.sort_unstable_by_key(|e| (e.src, e.dst));
            assert_eq!(union.len() as u64, g.num_edges());
            assert!(union
                .iter()
                .all(|e| !del.iter().any(|d| (d.src, d.dst) == (e.src, e.dst))));
        }
    }

    #[test]
    fn pin_spanning_mutation_still_reads_current_state() {
        // A guard taken before a batch doesn't freeze the *data* — it only
        // protects reclamation. Reads through an old guard see the newest
        // published state (snapshot-at-walk, not snapshot-at-pin).
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edge_exists(&pin, 0, 1));
        g.delete_edges(&[Edge::new(0, 1)]);
        assert!(!g.edge_exists(&pin, 0, 1));
        assert!(g.allocator().pinned_readers() >= 1);
        drop(pin);
        assert_eq!(g.allocator().pinned_readers(), 0);
    }

    #[test]
    fn guard_era_is_monotonic_across_batches() {
        let g = graph_with_star();
        let before = g.pin_read().era();
        g.insert_edges(&[Edge::new(40, 41)]);
        let after = g.pin_read().era();
        assert!(
            after > before,
            "mutation batches must advance the era ({before} → {after})"
        );
    }

    #[test]
    fn edges_exist_stores_once_per_warp() {
        // 33 probes over the distinct sources 0..33: two warps, the
        // second holding one lane, every group a singleton. Every
        // descriptor read is one transaction, vertex 21's included (a
        // descriptor is a pair-aligned word pair). Probe i hits for
        // i % 3 == 0, misses in a one-slab table for i % 3 == 1, and
        // finds no table for i % 3 == 2 (tables are built lazily on
        // insert).
        let g = DynGraph::new(GraphConfig::directed_set(128));
        let ins: Vec<Edge> = (0..33)
            .filter(|i| i % 3 != 2)
            .map(|i| Edge::new(i, i + 1))
            .collect();
        g.insert_edges(&ins);
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..33)
            .map(|i| (i, i + if i % 3 == 0 { 1 } else { 3 }))
            .collect();
        let before = g.device().counters().snapshot();
        let res = g.edges_exist(&pin, &pairs);
        let delta = g.device().counters().snapshot().delta(&before);
        let want: Vec<bool> = (0..33).map(|i| i % 3 == 0).collect();
        assert_eq!(res, want);

        let (warps, groups, hits, misses) = (2, 33, 11, 11);
        // Per warp: the staged src and dst slabs and one result store.
        // Per group: one descriptor read, and one base-slab read when the
        // source has a table.
        let transactions = warps * 2 + groups + (hits + misses) + warps;
        // Per group: the queue and group ballots; per warp, the ballot
        // that finds the queue empty; per walk, a match ballot, plus an
        // EMPTY ballot for a miss.
        let ballots = groups * 2 + warps + hits + misses * 2;
        let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
        // [transactions, atomics, ballots, shuffles, launches, warps,
        // words_allocated]: three 33-word buffers padded to two slabs.
        assert_eq!(got, [transactions, 0, ballots, groups, 1, warps, 3 * 64]);
    }

    #[test]
    fn single_probe_charges_are_pinned() {
        // One-probe reads (the router's live reads, `serve_road`,
        // `mixed_rw`) must charge exactly one key's walk: the grouped
        // membership walk saves only on groups of two or more probes.
        // Vertex 0's 39 edges fill a three-slab chain in one bucket. Every
        // read charges its source's descriptor read, one transaction.
        let g = graph_with_star();
        g.insert_edges(&[Edge::weighted(5, 6, 7)]);
        let pin = g.pin_read();
        type Read = fn(&DynGraph, &ReadGuard);
        // [transactions, atomics, ballots, shuffles, launches, warps,
        // words_allocated] per read.
        let reads: [(&str, Read, [u64; 7]); 7] = [
            (
                "exist base hit",
                |g, p| assert!(g.edge_exists(p, 0, 1)),
                [5, 0, 4, 1, 1, 1, 96],
            ),
            (
                "exist deep hit",
                |g, p| assert!(g.edge_exists(p, 0, 39)),
                [9, 0, 8, 1, 1, 1, 96],
            ),
            (
                "exist miss",
                |g, p| assert!(!g.edge_exists(p, 0, 40)),
                [9, 0, 9, 1, 1, 1, 96],
            ),
            (
                "exist short chain",
                |g, p| assert!(g.edge_exists(p, 5, 6)),
                [5, 0, 4, 1, 1, 1, 96],
            ),
            (
                "exist no table",
                |g, p| assert!(!g.edge_exists(p, 63, 0)),
                [5, 0, 5, 1, 1, 1, 96],
            ),
            (
                "weight deep hit",
                |g, p| assert_eq!(g.edge_weight(p, 0, 39), Some(139)),
                [6, 0, 5, 0, 1, 1, 0],
            ),
            (
                "weight miss",
                |g, p| assert_eq!(g.edge_weight(p, 0, 40), None),
                [6, 0, 6, 0, 1, 1, 0],
            ),
        ];
        for (name, read, want) in reads {
            let before = g.device().counters().snapshot();
            read(&g, &pin);
            let delta = g.device().counters().snapshot().delta(&before);
            let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
            assert_eq!(got, want, "{name}");
        }
    }
}
