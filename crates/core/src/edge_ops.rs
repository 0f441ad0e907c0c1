//! Batched edge insertion and deletion — the paper's Algorithm 1.
//!
//! Each thread (lane) owns one edge and one op bit (insert or delete). A
//! warp-level work queue built from a `ballot` repeatedly elects the first
//! unfinished lane, broadcasts its source vertex (and, in a mixed batch,
//! its op) with a `shuffle`, and groups every lane holding the same source
//! and op so their updates hit the same hash table in coalesced fashion.
//! A group takes its descriptor from its source's dictionary line, read
//! once per warp when other pending sources share it
//! (`VertexDict::desc_in_lines`); an insert group is one
//! chain walk per home bucket ([`slab_hash::TableDesc::insert_lanes`]),
//! a delete group one walk per key. The added and deleted masks feed a
//! `popc` over their ballot, which maintains exact per-vertex edge counts
//! (Algorithm 1, line 10).

use crate::batch::{BatchOp, BatchOutcome, GraphError};
use crate::dict::LineRegisters;
use crate::graph::{DynGraph, Edge};
use gpu_sim::iter_bits;
use gpu_sim::{Lanes, OomError, WARP_SIZE};
use slab_alloc::AllocError;
use slab_hash::TableKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One edge update: the unit of a mixed batch ([`DynGraph::try_update_edges`])
/// and of the router's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Insert one edge (weight carried through on map-kind graphs).
    Insert(Edge),
    /// Delete one edge.
    Delete(Edge),
}

impl Update {
    /// The edge this update inserts or deletes.
    pub fn edge(self) -> Edge {
        match self {
            Update::Insert(e) | Update::Delete(e) => e,
        }
    }

    /// Whether this update inserts.
    pub fn is_insert(self) -> bool {
        matches!(self, Update::Insert(_))
    }

    /// Collapse `updates` per ⟨src, dst⟩ key in submit order: the last
    /// update to a key decides it. Returns the deciding updates, one per
    /// key in the order keys first appear, and for each update the index
    /// of its key's decider among them. The deciders touch distinct keys,
    /// so their inserts and deletes commute: applying them in one batch
    /// leaves the state that applying `updates` one by one would.
    pub fn collapse(updates: &[Update]) -> (Vec<Update>, Vec<usize>) {
        let mut slot_of: HashMap<(u32, u32), usize> = HashMap::with_capacity(updates.len());
        let mut deciders: Vec<Update> = Vec::new();
        let mut slots = Vec::with_capacity(updates.len());
        for &u in updates {
            let e = u.edge();
            let slot = *slot_of.entry((e.src, e.dst)).or_insert(deciders.len());
            if slot == deciders.len() {
                deciders.push(u);
            } else {
                deciders[slot] = u;
            }
            slots.push(slot);
        }
        (deciders, slots)
    }
}

impl DynGraph {
    /// Batched edge insertion (§IV-C1, Algorithm 1).
    ///
    /// Duplicates are permitted both within the batch and against the graph;
    /// the structure keeps unique destinations per vertex, retaining the most
    /// recent weight (`replace` semantics). Self-loops are skipped. For
    /// undirected graphs the reverse edges are inserted in the same batch.
    ///
    /// Returns the number of edges that were *new* (not replacements),
    /// summed over direction-mirrored copies. Panics if device memory runs
    /// out; use [`Self::try_insert_edges`] to recover instead.
    pub fn insert_edges(&self, edges: &[Edge]) -> u64 {
        let outcome = self
            .try_insert_edges(edges)
            .unwrap_or_else(|e| panic!("insert_edges: {e}"));
        Self::expect_complete("insert_edges", outcome)
    }

    /// Batched edge deletion (§IV-C2).
    ///
    /// Deletion tombstones the destination key in the source's table; the
    /// returned boolean per edge decrements the exact edge count. Returns
    /// the number of edges actually deleted. Panics if device memory runs
    /// out; use [`Self::try_delete_edges`] to recover instead.
    pub fn delete_edges(&self, edges: &[Edge]) -> u64 {
        let outcome = self
            .try_delete_edges(edges)
            .unwrap_or_else(|e| panic!("delete_edges: {e}"));
        Self::expect_complete("delete_edges", outcome)
    }

    /// Fallible [`Self::insert_edges`]: on device-memory exhaustion (a
    /// bounded budget or an injected fault) a *prefix* of the batch is
    /// applied and the unapplied suffix is reported in the returned
    /// [`BatchOutcome`] for [`Self::retry_suffix`].
    pub fn try_insert_edges(&self, edges: &[Edge]) -> Result<BatchOutcome, GraphError> {
        let updates: Vec<Update> = edges.iter().copied().map(Update::Insert).collect();
        Ok(self.try_update_edges(&updates)?.0)
    }

    /// Fallible [`Self::delete_edges`]. Deletion itself never allocates,
    /// but staging the batch on the device can exhaust a bounded budget.
    pub fn try_delete_edges(&self, edges: &[Edge]) -> Result<BatchOutcome, GraphError> {
        let updates: Vec<Update> = edges.iter().copied().map(Update::Delete).collect();
        Ok(self.try_update_edges(&updates)?.1)
    }

    fn expect_complete(what: &str, outcome: BatchOutcome) -> u64 {
        if let Some(e) = outcome.error {
            panic!(
                "{what}: device memory exhausted after {} of {} edges: {e}",
                outcome.completed, outcome.attempted
            );
        }
        outcome.changed
    }

    /// One launch of Algorithm 1 over a batch of inserts and deletes,
    /// one op bit per lane. Returns the outcomes of the batch's inserts
    /// and of its deletes, each over the caller's own edges (before
    /// undirected mirroring) in batch order, so
    /// `completed + pending.len() == attempted` holds per kind.
    ///
    /// A single-kind batch launches as `edge_insert` or `edge_delete`
    /// and stages no op buffer; a mixed one launches as `edge_update`.
    /// A delete-only batch also stages no weights. `edge_insert` claims
    /// tombstones; `edge_update`, whose deletes free slots while its
    /// inserts claim them, claims only EMPTY slots.
    /// Lanes are grouped by source and op, so an insert and a delete of
    /// the same key in one batch land in either order: callers that need
    /// submit order collapse the batch first ([`Update::collapse`]).
    ///
    /// On device-memory exhaustion a prefix is applied and each kind's
    /// unapplied edges are reported as pending; only inserts allocate
    /// inside the kernel, so an in-kernel failure is the insert outcome's
    /// `error`.
    pub fn try_update_edges(
        &self,
        updates: &[Update],
    ) -> Result<(BatchOutcome, BatchOutcome), GraphError> {
        let mut outcomes =
            [BatchOp::InsertEdges, BatchOp::DeleteEdges].map(|op| BatchOutcome::complete(op, 0, 0));
        if updates.is_empty() {
            let [ins, del] = outcomes;
            return Ok((ins, del));
        }
        for u in updates {
            self.check_edge(&u.edge())?;
        }
        let original: Vec<Edge> = updates.iter().map(|u| u.edge()).collect();
        let work = self.apply_direction(&original);
        let per_edge = work.len() / original.len();
        let n = work.len();
        // A single-kind batch keeps its op out of the lanes.
        let uniform = updates[0].is_insert();
        let mixed = updates.iter().any(|u| u.is_insert() != uniform);
        let has_inserts = mixed || uniform;
        let is_insert = |i: usize| updates[i / per_edge].is_insert();

        // Stage the batch on the device. A failure here applies nothing:
        // the whole batch is the pending suffix.
        let staged = (|| -> Result<_, OomError> {
            // A source past the dictionary needs an entry to install its
            // table in: grow first (a shallow copy, §IV-A1).
            let max_src = (0..n).filter(|&i| is_insert(i)).map(|i| work[i].src).max();
            if let Some(max_src) = max_src {
                self.dict.try_grow(&self.dev, max_src + 1)?;
            }
            let srcs: Vec<u32> = work.iter().map(|e| e.src).collect();
            let dsts: Vec<u32> = work.iter().map(|e| e.dst).collect();
            let src_buf = self.dev.try_upload(&srcs, u32::MAX)?;
            let dst_buf = self.dev.try_upload(&dsts, u32::MAX)?;
            // Only inserts carry weights: a delete-only batch stages none,
            // and its warps read none.
            let weight_buf = if self.config.kind == TableKind::Map && has_inserts {
                let ws: Vec<u32> = work.iter().map(|e| e.weight).collect();
                Some(self.dev.try_upload(&ws, 0)?)
            } else {
                None
            };
            // Op bits (1 = delete) and a second changed word only when
            // the batch mixes kinds.
            let op_buf = if mixed {
                let ops: Vec<u32> = (0..n).map(|i| u32::from(!is_insert(i))).collect();
                Some(self.dev.try_upload(&ops, 0)?)
            } else {
                None
            };
            let totals = 1 + usize::from(mixed);
            let changed_total = self.dev.try_alloc_words(totals, 1)?;
            self.dev.host_write(changed_total, &vec![0; totals]);
            Ok((src_buf, dst_buf, weight_buf, op_buf, changed_total))
        })();
        let (src_buf, dst_buf, weight_buf, op_buf, changed_total) = match staged {
            Ok(bufs) => bufs,
            Err(e) => {
                for u in updates {
                    let out = &mut outcomes[usize::from(!u.is_insert())];
                    out.attempted += 1;
                    out.pending.push(u.edge());
                    out.error = Some(AllocError::Oom(e));
                }
                let [ins, del] = outcomes;
                return Ok((ins, del));
            }
        };

        let (kernel_name, phase) = match (mixed, uniform) {
            (true, _) => ("edge_update", "edge_update_batch"),
            (false, true) => ("edge_insert", "edge_insert_batch"),
            (false, false) => ("edge_delete", "edge_delete_batch"),
        };
        let _phase = self.dev.phase(phase);
        // First allocation failure observed inside the kernel, if any.
        let first_err: parking_lot::Mutex<Option<AllocError>> = parking_lot::Mutex::new(None);
        let record = |e: AllocError| {
            let mut slot = first_err.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        // Whether each work item was applied: bookkeeping for the
        // host-side outcome, not part of the modelled kernel, so it stays
        // on the host and per-kernel attribution is unchanged by the
        // recovery machinery.
        let applied: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        self.batch(|k| {
            k.launch_tasks(kernel_name, n, |warp| {
                let base = warp.warp_id() * WARP_SIZE as u32;
                // Coalesced loads of this warp's 32 edges.
                let srcs = warp.read_slab(src_buf + base);
                let dsts = warp.read_slab(dst_buf + base);
                let weights = weight_buf
                    .map(|wb| warp.read_slab(wb + base))
                    .unwrap_or_default();
                let ops = op_buf.map(|ob| warp.read_slab(ob + base));
                let mark = |i: usize| applied[base as usize + i].store(true, Ordering::Release);

                // Line 3: no self-edges (skipping one counts as applying it).
                let mut pending =
                    Lanes::from_fn(|i| warp.is_active(i) && srcs.get(i) != dsts.get(i));
                for i in 0..WARP_SIZE {
                    if warp.is_active(i) && srcs.get(i) == dsts.get(i) {
                        mark(i);
                    }
                }

                // Descriptor lines kept in registers for later groups.
                let mut lines = LineRegisters::default();

                // Edges this warp changed, per kind ([insert, delete]):
                // summed in a register, added to `changed_total` once.
                let mut changed = [0u32; 2];

                // Lines 4–14: warp work queue.
                loop {
                    let work_queue = warp.ballot(&pending);
                    let Some(current_lane) = gpu_sim::ffs(work_queue) else {
                        break;
                    };
                    let current_src = warp.shuffle(&srcs, current_lane);
                    let (insert, same_src) = match &ops {
                        None => (
                            uniform,
                            pending.zip_with(&srcs, |p, s| p && s == current_src),
                        ),
                        Some(ops) => {
                            let current_op = warp.shuffle(ops, current_lane);
                            let same = Lanes::from_fn(|i| {
                                pending.get(i)
                                    && srcs.get(i) == current_src
                                    && ops.get(i) == current_op
                            });
                            (current_op == 0, same)
                        }
                    };
                    let group = warp.ballot(&same_src);
                    // Lines 11–13: the lanes left once the group retires.
                    let rest = pending.zip_with(&same_src, |p, s| p && !s);

                    // The group's descriptor, from its source's dictionary
                    // line: read once when other pending lanes' sources
                    // share the line, then shuffled out of the kept line.
                    let entry =
                        self.dict
                            .desc_in_lines(warp, current_src, &mut lines, &srcs, &rest);
                    // A delete revokes the clean certificate of the table
                    // it tombstones (an insert never adds a tombstone).
                    let (desc, certified) = match entry {
                        Some(entry) => entry,
                        None if insert => match self.create_table(warp, current_src) {
                            Ok(desc) => {
                                lines.install(current_src, &desc);
                                (desc, false)
                            }
                            Err(e) => {
                                // Lazy table construction failed: the whole
                                // group stays unapplied.
                                record(e);
                                pending = rest;
                                continue;
                            }
                        },
                        None => {
                            // Nothing to delete from an untouched vertex.
                            for lane in iter_bits(group) {
                                mark(lane as usize);
                            }
                            pending = rest;
                            continue;
                        }
                    };

                    // Lines 8–9: coalesced group operation + success ballot.
                    // An insert group is one walk per home bucket
                    // (`insert_lanes`); a lane whose insert fails on
                    // allocation stays unapplied, while later keys still
                    // try (under e.g. an every-Nth fault plan some of them
                    // succeed, guaranteeing progress).
                    let mut success = Lanes::splat(false);
                    if insert {
                        // Only a mixed launch frees slots while it claims
                        // them, so only it leaves tombstones unclaimed.
                        let done =
                            desc.insert_lanes(warp, &self.alloc, &dsts, &weights, group, !mixed);
                        if let Some(e) = done.error {
                            record(e);
                        }
                        for lane in iter_bits(done.applied) {
                            success.set(lane as usize, done.added & (1 << lane) != 0);
                            mark(lane as usize);
                        }
                    } else {
                        for lane in iter_bits(group) {
                            let li = lane as usize;
                            success.set(li, desc.delete(warp, dsts.get(li)));
                            mark(li);
                        }
                    }

                    // Line 10: exact count via popc(ballot(success)).
                    let added_count = gpu_sim::popc(warp.ballot(&success));
                    if added_count > 0 {
                        let count_addr = self.dict.count_addr(current_src);
                        if insert {
                            warp.atomic_add(count_addr, added_count);
                        } else {
                            warp.atomic_sub(count_addr, added_count);
                            if certified {
                                self.dict.revoke(warp, current_src);
                            }
                        }
                        changed[usize::from(!insert)] += added_count;
                    }

                    pending = rest;
                }

                // A mixed batch counts its deletes in the second word.
                for (kind, count) in (0u32..).zip(changed) {
                    if count > 0 {
                        let word = if mixed { kind } else { 0 };
                        warp.atomic_add(changed_total + word, count);
                    }
                }
            })
        });

        // An edge is complete only when every direction-mirrored copy was
        // applied; half-applied undirected edges go back in the suffix
        // (re-inserting the applied half is an uncounted replace/no-op).
        let mut changed = vec![0; 1 + usize::from(mixed)];
        self.dev.host_read(changed_total, &mut changed);
        let applied: Vec<bool> = applied.into_iter().map(AtomicBool::into_inner).collect();
        for (u, s) in updates.iter().zip(applied.chunks(per_edge)) {
            let out = &mut outcomes[usize::from(!u.is_insert())];
            out.attempted += 1;
            if s.contains(&false) {
                out.pending.push(u.edge());
            } else {
                out.completed += 1;
            }
        }
        for (k, out) in outcomes.iter_mut().enumerate() {
            let word = if mixed { k } else { 0 };
            if out.attempted > 0 {
                out.changed = changed[word] as u64;
            }
        }
        outcomes[0].error = first_err.into_inner();
        let [ins, del] = outcomes;
        Ok((ins, del))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphConfig;

    fn graph(cap: u32) -> DynGraph {
        DynGraph::with_uniform_buckets(GraphConfig::directed_map(cap), cap, 1)
    }

    /// The weight of ⟨u, v⟩, if present, from `u`'s adjacency read.
    fn weight(g: &DynGraph, pin: &slab_alloc::ReadGuard, u: u32, v: u32) -> Option<u32> {
        g.read_neighbors(pin, &[u])
            .entries(0)
            .find(|&(d, _)| d == v)
            .map(|(_, w)| w)
    }

    /// One name per launch since `before`.
    fn launched_since(g: &DynGraph, before: &gpu_sim::TraceSnapshot) -> Vec<&'static str> {
        let delta = g.device().trace().delta(before);
        delta
            .kernels
            .iter()
            .flat_map(|k| std::iter::repeat_n(k.name, k.counters.launches as usize))
            .collect()
    }

    #[test]
    fn sources_past_the_dictionary_read_nothing_until_inserted() {
        let g = DynGraph::new(GraphConfig::directed_set(64));
        g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 2)]);
        let pin = g.pin_read();
        assert_eq!(g.edges_exist(&pin, &[(64, 1), (70, 1)]), vec![false, false]);
        assert!(g.read_neighbors(&pin, &[64]).list(0).is_empty());
        drop(pin);
        assert_eq!(g.delete_edges(&[Edge::new(64, 1)]), 0);
        // Inserting grows the dictionary to cover the new sources.
        assert_eq!(g.insert_edges(&[Edge::new(64, 1)]), 1);
        assert_eq!(g.insert_edges(&[Edge::new(70, 1)]), 1);
        assert!(g.vertex_capacity() > 70);
        assert_eq!(g.num_edges(), 4);
        let pin = g.pin_read();
        assert_eq!(
            g.edges_exist(&pin, &[(64, 1), (70, 1), (65, 1)]),
            vec![true, true, false]
        );
        assert_eq!(g.read_neighbors(&pin, &[70]).list(0), [1]);
        g.validate()
            .expect("every pool slab reachable from a table");
    }

    /// The dictionary's last line is partial: a delete source past the
    /// capacity finds no table even when a source in its line had the
    /// line read and kept.
    #[test]
    fn sources_past_the_capacity_share_no_kept_line() {
        let g = graph(20);
        assert_eq!(g.dict().capacity(), 20);
        g.insert_edges(&[Edge::new(17, 1), Edge::new(18, 2)]);
        let before = g.device().counters().snapshot();
        let deleted = g.delete_edges(&[
            Edge::new(17, 1),
            Edge::new(25, 1),
            Edge::new(18, 2),
            Edge::new(31, 2),
        ]);
        assert_eq!(deleted, 2);
        let d = g.device().counters().snapshot().delta(&before);
        // Four groups elect their source with a shuffle each; the kept
        // line serves vertex 18 with 2 more, and 25 and 31 cost nothing
        // to look up. Transactions: the warp's source and destination
        // loads, one line read for all four, one slab per delete.
        assert_eq!((d.shuffles, d.transactions), (4 + 2, 2 + 1 + 2));
        g.validate().expect("nothing but the two edges deleted");
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn insert_single_edge() {
        let g = graph(4);
        assert_eq!(g.insert_edges(&[Edge::weighted(0, 1, 5)]), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(weight(&g, &g.pin_read(), 0, 1), Some(5));
    }

    #[test]
    fn self_loops_are_skipped() {
        let g = graph(4);
        assert_eq!(g.insert_edges(&[Edge::new(2, 2)]), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_in_batch_stored_once() {
        let g = graph(4);
        let batch = vec![
            Edge::weighted(0, 1, 1),
            Edge::weighted(0, 1, 2),
            Edge::weighted(0, 1, 3),
        ];
        let added = g.insert_edges(&batch);
        assert_eq!(added, 1, "one unique edge");
        assert_eq!(g.degree(0), 1, "exact count maintained");
        // The surviving weight is one of the batch's weights (the batch is
        // unordered on a GPU; with the sequential executor it is the last
        // group member processed).
        let w = weight(&g, &g.pin_read(), 0, 1).unwrap();
        assert!((1..=3).contains(&w));
    }

    #[test]
    fn duplicates_against_graph_replace_weight() {
        let g = graph(4);
        g.insert_edges(&[Edge::weighted(1, 2, 10)]);
        let added = g.insert_edges(&[Edge::weighted(1, 2, 99)]);
        assert_eq!(added, 0, "replacement is not a new edge");
        assert_eq!(g.degree(1), 1);
        assert_eq!(
            weight(&g, &g.pin_read(), 1, 2),
            Some(99),
            "most recent weight kept"
        );
    }

    #[test]
    fn batch_larger_than_one_warp() {
        let cap = 100u32;
        let g = graph(cap);
        let batch: Vec<Edge> = (0..cap)
            .flat_map(|u| {
                (0..cap)
                    .filter(move |&v| v != u)
                    .map(move |v| Edge::new(u, v))
            })
            .collect();
        let added = g.insert_edges(&batch);
        assert_eq!(added, (cap as u64) * (cap as u64 - 1));
        for v in 0..cap {
            assert_eq!(g.degree(v), cap - 1, "vertex {v}");
        }
    }

    #[test]
    fn mixed_sources_within_one_warp_group_correctly() {
        let g = graph(8);
        // 32 edges alternating between 4 sources → the work-queue loop must
        // group each source's lanes together.
        let batch: Vec<Edge> = (0..32u32)
            .map(|i| Edge::weighted(i % 4, 4 + (i / 4) % 4, i))
            .collect();
        g.insert_edges(&batch);
        for src in 0..4 {
            assert_eq!(g.degree(src), 4, "source {src} has 4 unique dsts");
        }
    }

    #[test]
    fn delete_removes_and_counts() {
        let g = graph(4);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 3)]);
        let removed = g.delete_edges(&[Edge::new(0, 2)]);
        assert_eq!(removed, 1);
        assert_eq!(g.degree(0), 2);
        assert!(!g.edge_exists(&g.pin_read(), 0, 2));
        assert!(g.edge_exists(&g.pin_read(), 0, 1));
    }

    #[test]
    fn deleting_absent_edge_is_noop() {
        let g = graph(4);
        g.insert_edges(&[Edge::new(0, 1)]);
        assert_eq!(g.delete_edges(&[Edge::new(0, 3)]), 0);
        assert_eq!(g.delete_edges(&[Edge::new(2, 1)]), 0, "untouched source");
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn duplicate_deletes_in_batch_count_once() {
        let g = graph(4);
        g.insert_edges(&[Edge::new(0, 1)]);
        let removed = g.delete_edges(&[Edge::new(0, 1), Edge::new(0, 1)]);
        assert_eq!(removed, 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn undirected_inserts_both_directions() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(4), 4, 1);
        let added = g.insert_edges(&[Edge::weighted(0, 1, 7)]);
        assert_eq!(added, 2, "both half-edges new");
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert!(g.edge_exists(&g.pin_read(), 0, 1));
        assert!(g.edge_exists(&g.pin_read(), 1, 0));
        let removed = g.delete_edges(&[Edge::new(1, 0)]);
        assert_eq!(removed, 2, "undirected delete removes both half-edges");
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn set_variant_ignores_weights() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(4), 4, 1);
        assert_eq!(g.insert_edges(&[Edge::weighted(0, 1, 42)]), 1);
        assert_eq!(g.insert_edges(&[Edge::weighted(0, 1, 43)]), 0);
        assert!(g.edge_exists(&g.pin_read(), 0, 1));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn insert_after_delete_reinserts() {
        let g = graph(4);
        g.insert_edges(&[Edge::weighted(0, 1, 1)]);
        g.delete_edges(&[Edge::new(0, 1)]);
        let added = g.insert_edges(&[Edge::weighted(0, 1, 2)]);
        assert_eq!(added, 1, "tombstoned key reinserted as new");
        assert_eq!(g.degree(0), 1);
        assert_eq!(weight(&g, &g.pin_read(), 0, 1), Some(2));
    }

    #[test]
    fn lazy_vertex_table_creation_on_insert() {
        // A graph built with NO pre-installed tables: first insert must
        // construct a single-bucket table from the dynamic pool.
        let g = DynGraph::new(GraphConfig::directed_map(4));
        assert!(g.dict().desc_host(g.device(), 0).is_none());
        g.insert_edges(&[Edge::new(0, 1)]);
        let t = g.dict().desc_host(g.device(), 0).unwrap();
        assert_eq!(t.num_buckets, 1);
        assert!(g.edge_exists(&g.pin_read(), 0, 1));
    }

    #[test]
    fn empty_batch_is_noop() {
        let g = graph(4);
        assert_eq!(g.insert_edges(&[]), 0);
        assert_eq!(g.delete_edges(&[]), 0);
    }

    #[test]
    fn mixed_batch_is_one_edge_update_launch_with_per_kind_outcomes() {
        let g = graph(8);
        g.insert_edges(&[Edge::weighted(0, 1, 1), Edge::weighted(0, 2, 2)]);
        let before = g.device().trace();
        let (ins, del) = g
            .try_update_edges(&[
                Update::Delete(Edge::new(0, 1)),
                Update::Insert(Edge::weighted(0, 3, 3)),
                Update::Delete(Edge::new(5, 6)),
                Update::Insert(Edge::weighted(0, 2, 9)),
                Update::Insert(Edge::new(4, 4)),
            ])
            .unwrap();
        assert_eq!(launched_since(&g, &before), vec!["edge_update"]);
        assert_eq!((ins.attempted, ins.completed, ins.changed), (3, 3, 1));
        assert_eq!((del.attempted, del.completed, del.changed), (2, 2, 1));
        assert_eq!(
            (ins.op, del.op),
            (BatchOp::InsertEdges, BatchOp::DeleteEdges)
        );
        let pin = g.pin_read();
        assert_eq!(
            g.edges_exist(&pin, &[(0, 1), (0, 2), (0, 3)]),
            vec![false, true, true]
        );
        assert_eq!(weight(&g, &pin, 0, 2), Some(9));
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn single_kind_update_batches_keep_their_kernel_names() {
        let g = graph(8);
        for (batch, name) in [
            (vec![Update::Insert(Edge::new(0, 1))], "edge_insert"),
            (vec![Update::Delete(Edge::new(0, 1))], "edge_delete"),
        ] {
            let before = g.device().trace();
            let (ins, del) = g.try_update_edges(&batch).unwrap();
            assert_eq!(ins.changed + del.changed, 1);
            assert_eq!(launched_since(&g, &before), vec![name]);
        }
    }

    /// Atomics of one warp's batch: a new map edge is one pair CAS and a
    /// delete one tombstone CAS; each same-source group adds its vertex
    /// count once (Algorithm 1, line 10); `changed_total` takes one add
    /// per kind the warp changed.
    #[test]
    fn a_warp_adds_changed_total_once_per_kind() {
        let g = graph(64);
        let atomics = |updates: &[Update]| {
            let before = g.device().counters().snapshot();
            let (ins, del) = g.try_update_edges(updates).unwrap();
            assert!(ins.is_complete() && del.is_complete());
            g.device().counters().snapshot().delta(&before).atomics
        };
        // 32 distinct sources, one new edge each: 32 pair CAS, 32 count
        // adds, 1 `changed_total` add.
        let inserts: Vec<Update> = (0..32)
            .map(|v| Update::Insert(Edge::weighted(v, v + 32, v)))
            .collect();
        assert_eq!(atomics(&inserts), 32 + 32 + 1);
        // 16 deletes of those edges and 16 new edges, in one warp: 16
        // tombstone CAS, 16 pair CAS, 32 count updates, 2 `changed_total`
        // adds (one per kind).
        let mixed: Vec<Update> = (0..16)
            .map(|v| Update::Delete(Edge::new(v, v + 32)))
            .chain((16..32).map(|v| Update::Insert(Edge::weighted(v, v + 1, v))))
            .collect();
        assert_eq!(atomics(&mixed), 16 + 16 + 32 + 2);
        assert_eq!(g.num_edges(), 32);
    }

    /// A mixed batch on the threaded executor: 90 deletes empty vertex
    /// 0's six-slab chain while 160 inserts, four copies each of 40 new
    /// destinations, land on the same chain in the same launch. Its
    /// inserts claim only EMPTY slots, so every tombstone survives and no
    /// destination is stored twice.
    #[test]
    fn threaded_mixed_batch_claims_no_tombstone() {
        use gpu_sim::{Device, DeviceConfig, ExecPolicy};
        let dev = Device::with_config(
            DeviceConfig::new(1 << 18).with_exec_policy(ExecPolicy::Threaded(4)),
        );
        let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_map(1024));
        let old: Vec<Edge> = (1..=90).map(|v| Edge::weighted(0, v, v)).collect();
        g.insert_edges(&old);
        assert_eq!(g.stats(&g.pin_read()).tables.max_chain, 6);
        let updates: Vec<Update> = (0..160u32)
            .flat_map(|i| {
                let insert = Update::Insert(Edge::weighted(0, 500 + i % 40, i));
                let delete = (i < 90).then(|| Update::Delete(old[i as usize]));
                std::iter::once(insert).chain(delete)
            })
            .collect();
        let (ins, del) = g.try_update_edges(&updates).unwrap();
        assert!(ins.is_complete() && del.is_complete());
        assert_eq!((ins.changed, del.changed), (40, 90));
        let pin = g.pin_read();
        let mut dsts = g.read_neighbors(&pin, &[0]).list(0).to_vec();
        dsts.sort_unstable();
        assert_eq!(
            dsts,
            (500..540).collect::<Vec<_>>(),
            "each destination once"
        );
        assert_eq!(g.stats(&pin).tables.tombstones, 90, "no tombstone claimed");
        drop(pin);
        assert_eq!(g.degree(0), 40);
        g.validate().expect("mixed batch leaves a valid chain");
    }

    #[test]
    fn undirected_mixed_batch_mirrors_each_update() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_map(8), 8, 1);
        g.insert_edges(&[Edge::new(0, 1)]);
        let (ins, del) = g
            .try_update_edges(&[
                Update::Delete(Edge::new(1, 0)),
                Update::Insert(Edge::new(2, 3)),
            ])
            .unwrap();
        assert_eq!((ins.changed, del.changed), (2, 2), "both half-edges");
        let pin = g.pin_read();
        assert_eq!(
            g.edges_exist(&pin, &[(0, 1), (1, 0), (2, 3), (3, 2)]),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn collapse_keeps_the_last_update_per_edge_in_submit_order() {
        let (a, b, c) = (Edge::weighted(0, 1, 1), Edge::new(0, 2), Edge::new(1, 0));
        let updates = [
            Update::Insert(a),
            Update::Delete(b),
            Update::Insert(c),
            Update::Delete(a),
            Update::Insert(b),
            Update::Insert(Edge::weighted(0, 1, 7)),
        ];
        let (last, slots) = Update::collapse(&updates);
        assert_eq!(
            last,
            vec![
                Update::Insert(Edge::weighted(0, 1, 7)),
                Update::Insert(b),
                Update::Insert(c)
            ]
        );
        assert_eq!(slots, vec![0, 1, 2, 0, 1, 0]);
        assert_eq!(Update::collapse(&[]), (vec![], vec![]));
    }

    /// Insert batches full of repeated edges, self-loops and sources that
    /// share dictionary lines, some sources tableless, against a map
    /// applied in batch order: on the sequential executor the last copy
    /// of an edge in a batch sets its weight and the edge counts once.
    #[test]
    fn insert_groups_apply_in_batch_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let g = DynGraph::new(GraphConfig::directed_map(48));
        let mut oracle: HashMap<(u32, u32), u32> = HashMap::new();
        for round in 0..6 {
            let batch: Vec<Edge> = (0..300)
                .map(|_| {
                    let (u, v) = (rng.random_range(0..40u32), rng.random_range(0..12u32));
                    Edge::weighted(u, v, rng.random_range(0..1000u32))
                })
                .collect();
            let before = oracle.len();
            for e in batch.iter().filter(|e| e.src != e.dst) {
                oracle.insert((e.src, e.dst), e.weight);
            }
            let added = g.insert_edges(&batch);
            assert_eq!(added, (oracle.len() - before) as u64, "round {round}");
            if round % 2 == 1 {
                let del: Vec<Edge> = batch.iter().step_by(3).copied().collect();
                for e in &del {
                    oracle.remove(&(e.src, e.dst));
                }
                g.delete_edges(&del);
            }
        }
        let pin = g.pin_read();
        let got: HashMap<(u32, u32), u32> = (0..48)
            .flat_map(|u| {
                let adj = g.read_neighbors(&pin, &[u]);
                adj.entries(0)
                    .map(move |(v, w)| ((u, v), w))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, oracle);
        drop(pin);
        g.validate().expect("audit after the batches");
    }

    /// [transactions, atomics, ballots, shuffles, launches, warps] of one
    /// `try_update_edges` call.
    fn update_charges(g: &DynGraph, updates: &[Update]) -> [u64; 6] {
        let before = g.device().counters().snapshot();
        let (ins, del) = g.try_update_edges(updates).unwrap();
        assert!(ins.is_complete() && del.is_complete());
        let d = g.device().counters().snapshot().delta(&before);
        [
            d.transactions,
            d.atomics,
            d.ballots,
            d.shuffles,
            d.launches,
            d.warps,
        ]
    }

    /// A dictionary line shared by s of a warp's sources is read once:
    /// its groups cost 1 descriptor transaction plus 2 shuffles for each
    /// later group, where s sources in s lines cost s transactions.
    #[test]
    fn a_shared_line_costs_one_read_and_two_shuffles_a_group() {
        for s in [1u32, 2, 5, 16] {
            let charge = |src: &dyn Fn(u32) -> u32| {
                let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(512), 512, 1);
                let batch: Vec<Update> = (0..s)
                    .map(|i| Update::Insert(Edge::weighted(src(i), 500, i)))
                    .collect();
                update_charges(&g, &batch)
            };
            let [tx, atomics, ballots, shuffles, launches, warps] = charge(&|i| 16 * i);
            let extra = u64::from(s - 1);
            assert_eq!(
                charge(&|i| i),
                [
                    tx - extra,
                    atomics,
                    ballots,
                    shuffles + 2 * extra,
                    launches,
                    warps
                ],
                "s = {s}"
            );
        }
    }

    /// Batches whose warps hold one edge per source and one source per
    /// dictionary line: inserts (new edges, replaces, and tableless
    /// sources that create their table), deletes (hits, misses, a
    /// tableless source and one past capacity) and a mixed batch. No
    /// group has a second key or a line to share, so each charges what
    /// the per-key walk and the per-group descriptor read charged.
    #[test]
    fn batches_without_shared_lines_charge_the_per_key_walk() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(4096), 2048, 1);
        let src = |i: u32| 16 * i;
        let inserts: Vec<Update> = (0..256)
            .map(|i| Update::Insert(Edge::weighted(src(i), 1 + i % 7, i)))
            .collect();
        let again: Vec<Update> = (0..256)
            .map(|i| Update::Insert(Edge::weighted(src(i), 1 + (i + i % 2) % 7, i + 1)))
            .collect();
        let deletes: Vec<Update> = (0..256)
            .map(|i| Update::Delete(Edge::new(src(i) + (i % 5 == 0) as u32, 1 + i % 3)))
            .chain([Update::Delete(Edge::new(5000, 1))])
            .collect();
        let mixed: Vec<Update> = (0..256)
            .map(|i| {
                let e = Edge::weighted(src(i), 1 + i % 4, 7);
                if i % 2 == 0 {
                    Update::Insert(e)
                } else {
                    Update::Delete(e)
                }
            })
            .collect();
        // Recorded on the per-key walk with per-group descriptor reads.
        let expected: [(&str, &[Update], [u64; 6]); 4] = [
            ("insert", &inserts, [792, 776, 1288, 256, 1, 8]),
            ("insert again", &again, [536, 392, 1160, 256, 1, 8]),
            ("delete", &deletes, [502, 102, 1161, 256, 1, 9]),
            ("mixed", &mixed, [544, 322, 1242, 512, 1, 8]),
        ];
        for (name, batch, want) in expected {
            assert_eq!(update_charges(&g, batch), want, "{name}");
        }
        g.validate().expect("audit after the pinned batches");
    }

    #[test]
    fn high_degree_vertex_chains_slabs() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(2000), 2000, 1);
        let batch: Vec<Edge> = (1..1000).map(|v| Edge::weighted(0, v, v)).collect();
        g.insert_edges(&batch);
        assert_eq!(g.degree(0), 999);
        let pin = g.pin_read();
        for v in (1..1000).step_by(97) {
            assert_eq!(weight(&g, &pin, 0, v), Some(v), "dst {v}");
        }
        assert!(g.allocator().live_slabs() >= 60, "chained many slabs");
    }
}
