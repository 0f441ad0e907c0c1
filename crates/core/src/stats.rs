//! Graph-wide statistics: the measurements behind Fig. 2 (insertion rate /
//! memory utilization / memory usage vs. average chain length) and general
//! invariant checking in tests.

use crate::graph::DynGraph;
use gpu_sim::{Addr, NULL_ADDR, SLAB_WORDS, WARP_SIZE};
use slab_alloc::ReadGuard;
use slab_hash::{TableStats, EMPTY_KEY};

/// Aggregated statistics over every vertex's hash table plus the memory
/// footprint of the whole structure.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    /// Merged per-table chain statistics.
    pub tables: TableStats,
    /// Words in statically allocated base slabs (bulk-built tables; a
    /// lazily created table's base is a pool slab, counted below).
    pub base_slab_words: u64,
    /// Words in live slabs of the dynamic pool: collision slabs and the
    /// bases of lazily created tables.
    pub dynamic_slab_words: u64,
    /// Words in the vertex dictionary.
    pub dict_words: u64,
    /// Vertices with a constructed table.
    pub touched_vertices: u64,
}

impl GraphStats {
    /// Total device memory attributable to the graph, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.base_slab_words + self.dynamic_slab_words + self.dict_words) * 4
    }

    /// Fraction of key slots holding live keys (Fig. 2b).
    pub fn utilization(&self) -> f64 {
        self.tables.utilization()
    }

    /// Average bucket chain length in slabs (Fig. 2/3 x-axis).
    pub fn avg_chain(&self) -> f64 {
        self.tables.avg_chain()
    }
}

impl DynGraph {
    /// Collect [`GraphStats`] by walking every constructed table under a
    /// pinned [`ReadGuard`] — safe to run while update batches land.
    ///
    /// Host-side instrumentation: runs as a kernel (so slab walks are
    /// charged) but is intended for use *between* measured phases.
    pub fn stats(&self, pin: &ReadGuard) -> GraphStats {
        let k = self.pinned(pin);
        let cap = self.dict.capacity();
        let out = parking_lot::Mutex::new(GraphStats::default());
        k.launch_warps("graph_stats", 1, |warp| {
            let mut agg = GraphStats::default();
            for v in 0..cap {
                if let Some(desc) = self.dict.desc_host(&self.dev, v) {
                    let s = desc.stats(warp);
                    agg.tables.merge(&s);
                    agg.touched_vertices += 1;
                    if !self.alloc.owns(desc.base) {
                        agg.base_slab_words += desc.num_buckets as u64 * SLAB_WORDS as u64;
                    }
                }
            }
            *out.lock() = agg;
        });
        let mut stats = out.into_inner();
        stats.dynamic_slab_words = self.alloc.live_slabs() * SLAB_WORDS as u64;
        stats.dict_words = self.dict.capacity() as u64 * crate::dict::ENTRY_WORDS as u64;
        stats
    }

    /// Debug-check the structure's core invariants; panics on violation.
    /// Delegates to [`Self::validate`] — use that directly for a typed,
    /// non-panicking report.
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("graph invariant violated: {e}");
        }
    }

    /// Full consistency audit of the structure. Intended to be cheap
    /// enough to run after every recovered batch: a partial
    /// [`crate::BatchOutcome`] guarantees the graph still passes.
    ///
    /// Checks, in order of detection:
    /// - sanitizer findings: when the device carries a shadow-memory
    ///   sanitizer (see `gpu_sim::sanitizer`), any recorded race,
    ///   lifetime, or initialization violation fails the audit first;
    /// - epoch reclamation: the allocator's quarantine audit — the ring is
    ///   era-monotonic, quarantined slabs still hold their occupancy bit,
    ///   and no slab was recycled while a reader era ≤ its free era was
    ///   pinned;
    /// - slot accounting: every key slot classifies as exactly one of
    ///   live / tombstone / empty, and empty slots only appear in a
    ///   chain's tail slab (deletion writes tombstones, never empties);
    /// - no slab is linked into more than one chain position;
    /// - no table stores duplicate destinations or self-loops;
    /// - the per-vertex exact edge count equals the live (non-tombstoned)
    ///   keys actually stored;
    /// - every live pool slab is reachable from some table chain (no
    ///   leaks, including after failed or retried batches).
    pub fn validate(&self) -> Result<(), ValidationError> {
        if let Some(san) = self.dev.sanitizer() {
            let count = san.finding_count();
            if count > 0 {
                return Err(ValidationError::SanitizerFindings { count });
            }
        }
        if let Err(detail) = self.alloc.audit_quarantine(&self.dev) {
            return Err(ValidationError::EpochReclamation { detail });
        }
        // The structural walk itself runs under a pin: validation may run
        // while readers and writers are live, and its own chain walks must
        // not race reclamation.
        let pin = self.pin_read();
        let cap = self.dict.capacity();
        let first: parking_lot::Mutex<Option<ValidationError>> = parking_lot::Mutex::new(None);
        let reachable = parking_lot::Mutex::new(std::collections::HashSet::new());
        self.pinned(&pin).launch_warps("validate", 1, |warp| {
            for v in 0..cap {
                let Some(desc) = self.dict.desc_host(&self.dev, v) else {
                    continue;
                };
                let key_lanes = desc.kind.key_lanes();
                let mut seen = std::collections::HashSet::new();
                let mut live = 0u32;
                let mut err = None;
                desc.for_each_slab(warp, |view| {
                    if err.is_some() {
                        return;
                    }
                    if self.alloc.owns(view.addr) && !reachable.lock().insert(view.addr) {
                        err = Some(ValidationError::SlabReuse { addr: view.addr });
                        return;
                    }
                    let has_empty = (0..WARP_SIZE)
                        .any(|i| key_lanes & (1 << i) != 0 && view.words.get(i) == EMPTY_KEY);
                    if has_empty && view.next() != NULL_ADDR {
                        err = Some(ValidationError::EmptyBeforeTail {
                            vertex: v,
                            slab: view.addr,
                        });
                        return;
                    }
                    for k in view.keys() {
                        live += 1;
                        if k == v {
                            err = Some(ValidationError::SelfLoop { vertex: v });
                            return;
                        }
                        if !seen.insert(k) {
                            err = Some(ValidationError::DuplicateDestination { vertex: v, dst: k });
                            return;
                        }
                    }
                });
                if err.is_none() {
                    let count = self.dict.count_host(&self.dev, v);
                    if count != live {
                        err = Some(ValidationError::CountMismatch {
                            vertex: v,
                            count,
                            live,
                        });
                    }
                }
                if let Some(e) = err {
                    let mut slot = first.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    return;
                }
            }
        });
        if let Some(e) = first.into_inner() {
            return Err(e);
        }
        let reachable = reachable.into_inner().len() as u64;
        let live = self.alloc.live_slabs();
        if reachable != live {
            return Err(ValidationError::SlabLeak { reachable, live });
        }
        Ok(())
    }
}

/// A violated structural invariant reported by [`DynGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A vertex's exact edge count disagrees with its table's live keys.
    CountMismatch { vertex: u32, count: u32, live: u32 },
    /// A table stores the same destination twice.
    DuplicateDestination { vertex: u32, dst: u32 },
    /// A table stores its own vertex id.
    SelfLoop { vertex: u32 },
    /// A non-tail slab has empty key slots — deletion must tombstone.
    EmptyBeforeTail { vertex: u32, slab: Addr },
    /// The same pool slab is linked into more than one chain position.
    SlabReuse { addr: Addr },
    /// Live pool slabs and table-reachable pool slabs disagree (a slab
    /// leaked, or a freed slab is still linked).
    SlabLeak { reachable: u64, live: u64 },
    /// The device's shadow-memory sanitizer recorded violations.
    SanitizerFindings { count: u64 },
    /// The allocator's epoch-reclamation audit failed: a quarantined slab
    /// was recycled out from under a pinned reader, or the quarantine
    /// ring's bookkeeping is inconsistent.
    EpochReclamation { detail: String },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ValidationError::CountMismatch {
                vertex,
                count,
                live,
            } => write!(f, "vertex {vertex}: edge count {count} != live keys {live}"),
            ValidationError::DuplicateDestination { vertex, dst } => {
                write!(f, "vertex {vertex}: duplicate destination {dst}")
            }
            ValidationError::SelfLoop { vertex } => {
                write!(f, "vertex {vertex}: stored self-loop")
            }
            ValidationError::EmptyBeforeTail { vertex, slab } => write!(
                f,
                "vertex {vertex}: slab {slab:#x} has empty slots before the chain tail"
            ),
            ValidationError::SlabReuse { addr } => {
                write!(f, "slab {addr:#x} linked into more than one chain")
            }
            ValidationError::SlabLeak { reachable, live } => write!(
                f,
                "{live} live pool slabs but {reachable} reachable from tables"
            ),
            ValidationError::SanitizerFindings { count } => {
                write!(f, "sanitizer recorded {count} violation(s)")
            }
            ValidationError::EpochReclamation { ref detail } => {
                write!(f, "epoch reclamation invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};

    fn populated() -> DynGraph {
        let g = DynGraph::with_degree_hints(GraphConfig::directed_map(32), &[10u32; 32]);
        let batch: Vec<Edge> = (0..32u32)
            .flat_map(|u| (0..10u32).map(move |i| Edge::new(u, (u + i + 1) % 32)))
            .collect();
        g.insert_edges(&batch);
        g
    }

    #[test]
    fn stats_count_live_keys() {
        let g = populated();
        let s = g.stats(&g.pin_read());
        assert_eq!(s.tables.live_keys, g.num_edges());
        assert_eq!(s.touched_vertices, 32);
        assert!(s.memory_bytes() > 0);
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
    }

    #[test]
    fn stats_on_empty_graph() {
        // Regression guard: utilization() and avg_chain() divide by slot and
        // bucket totals that are all zero on a freshly created graph — both
        // must report 0.0, not NaN or a panic.
        let g = DynGraph::new(GraphConfig::directed_map(8));
        let s = g.stats(&g.pin_read());
        assert_eq!(s.tables.live_keys, 0);
        assert_eq!(s.touched_vertices, 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.avg_chain(), 0.0);
        // The zero-denominator guards hold at the per-table level too.
        let empty = slab_hash::TableStats::default();
        assert_eq!(empty.utilization(), 0.0);
        assert_eq!(empty.avg_chain(), 0.0);
    }

    #[test]
    fn lazily_created_bases_are_counted_once() {
        // Vertex 0's table is built on insert from one pool slab, which
        // `dynamic_slab_words` already counts: one 128 B slab plus the
        // eight-entry dictionary's 96 B.
        let g = DynGraph::new(GraphConfig::directed_set(8));
        g.insert_edges(&[Edge::new(0, 1), Edge::new(0, 2)]);
        let s = g.stats(&g.pin_read());
        assert_eq!((s.base_slab_words, s.dynamic_slab_words), (0, 32));
        assert_eq!(s.memory_bytes(), 224);
    }

    #[test]
    fn invariants_hold_after_mixed_workload() {
        let g = populated();
        g.delete_edges(&[Edge::new(0, 1), Edge::new(5, 6)]);
        g.insert_edges(&[Edge::new(0, 20), Edge::new(0, 20)]);
        g.check_invariants();
    }

    #[test]
    fn higher_load_factor_uses_less_memory() {
        // Fig. 2c: memory usage decreases as chain length (load factor)
        // increases, because fewer buckets are allocated.
        let degrees = vec![50u32; 64];
        let build = |lf: f64| {
            let g = DynGraph::with_degree_hints(
                GraphConfig::directed_map(64).with_load_factor(lf),
                &degrees,
            );
            let batch: Vec<Edge> = (0..64u32)
                .flat_map(|u| (0..50u32).map(move |i| Edge::new(u, (u + i + 1) % 64)))
                .collect();
            g.insert_edges(&batch);
            g.stats(&g.pin_read())
        };
        let low = build(0.3);
        let high = build(2.0);
        assert!(
            high.memory_bytes() < low.memory_bytes(),
            "lf=2.0 ({} B) should use less memory than lf=0.3 ({} B)",
            high.memory_bytes(),
            low.memory_bytes()
        );
        assert!(
            high.utilization() > low.utilization(),
            "higher load factor packs slots more tightly"
        );
        assert!(high.avg_chain() > low.avg_chain());
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn invariant_check_detects_corruption() {
        let g = populated();
        // Corrupt an edge count behind the structure's back.
        g.device().host_write(g.dict().count_addr(3), &[999]);
        g.check_invariants();
    }
}
