//! Graph construction configuration.

use slab_hash::TableKind;

/// Default load factor — the paper's experimentally optimal value (§VI-D,
/// Fig. 3: "our data structure achieves its optimal performance when the
/// load factor is around 0.7").
pub const DEFAULT_LOAD_FACTOR: f64 = 0.7;

/// Directedness of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Edge ⟨u,v⟩ only updates `A_u`.
    Directed,
    /// Edge ⟨u,v⟩ updates both `A_u` and `A_v` (paper §IV-C).
    Undirected,
}

/// Configuration for a [`crate::DynGraph`].
///
/// Tombstone handling is not configurable: insert launches claim the
/// first free slot of a chain, a deleted one included, while a mixed
/// insert/delete batch claims only never-used slots (see
/// [`slab_hash::TableDesc::insert_lanes`]). [`crate::DynGraph::flush_tombstones`]
/// compacts the tombstones left over.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Map (weighted edges) or set (destinations only) adjacency tables.
    pub kind: TableKind,
    /// Directed or undirected edge semantics.
    pub direction: Direction,
    /// Number of vertex slots pre-allocated in the vertex dictionary.
    /// Exceeding it triggers a (shallow) dictionary reallocation.
    pub vertex_capacity: u32,
    /// Hash-table load factor used to size per-vertex bucket counts.
    pub load_factor: f64,
    /// Initial words of simulated device memory to commit.
    pub device_words: usize,
    /// Optional hard budget on total device words. `None` (the default)
    /// means unbounded; with a budget set, allocations past it fail and
    /// batched operations return partial [`crate::BatchOutcome`]s instead
    /// of panicking. Can be raised later via
    /// [`gpu_sim::Device::set_capacity_words`].
    pub device_capacity_words: Option<u64>,
    /// Initial dynamic-pool capacity in slabs.
    pub pool_slabs: usize,
}

impl GraphConfig {
    /// A directed, weighted (map) graph with the given vertex capacity and
    /// paper-default load factor.
    pub fn directed_map(vertex_capacity: u32) -> Self {
        GraphConfig {
            kind: TableKind::Map,
            direction: Direction::Directed,
            vertex_capacity,
            load_factor: DEFAULT_LOAD_FACTOR,
            device_words: 1 << 22,
            device_capacity_words: None,
            pool_slabs: 1 << 12,
        }
    }

    /// An undirected, weighted (map) graph.
    pub fn undirected_map(vertex_capacity: u32) -> Self {
        GraphConfig {
            direction: Direction::Undirected,
            ..Self::directed_map(vertex_capacity)
        }
    }

    /// A directed, unweighted (set) graph.
    pub fn directed_set(vertex_capacity: u32) -> Self {
        GraphConfig {
            kind: TableKind::Set,
            ..Self::directed_map(vertex_capacity)
        }
    }

    /// An undirected, unweighted (set) graph — the variant the paper uses
    /// for triangle counting (§VI-C1).
    pub fn undirected_set(vertex_capacity: u32) -> Self {
        GraphConfig {
            kind: TableKind::Set,
            direction: Direction::Undirected,
            ..Self::directed_map(vertex_capacity)
        }
    }

    /// Override the load factor (Fig. 2/3 sweeps).
    pub fn with_load_factor(mut self, lf: f64) -> Self {
        assert!(lf > 0.0, "load factor must be positive");
        self.load_factor = lf;
        self
    }

    /// Override the initial device memory commitment.
    pub fn with_device_words(mut self, words: usize) -> Self {
        self.device_words = words;
        self
    }

    /// Bound total device memory to `words` (see
    /// [`Self::device_capacity_words`]).
    pub fn with_device_capacity(mut self, words: u64) -> Self {
        self.device_capacity_words = Some(words);
        self
    }

    /// Override the initial dynamic slab-pool size.
    pub fn with_pool_slabs(mut self, slabs: usize) -> Self {
        self.pool_slabs = slabs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let c = GraphConfig::directed_map(100);
        assert_eq!(c.kind, TableKind::Map);
        assert_eq!(c.direction, Direction::Directed);
        assert_eq!(c.vertex_capacity, 100);
        assert_eq!(c.load_factor, DEFAULT_LOAD_FACTOR);

        let c = GraphConfig::undirected_set(5);
        assert_eq!(c.kind, TableKind::Set);
        assert_eq!(c.direction, Direction::Undirected);
    }

    #[test]
    fn with_load_factor_overrides() {
        let c = GraphConfig::directed_map(10).with_load_factor(1.5);
        assert_eq!(c.load_factor, 1.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_load_factor_rejected() {
        let _ = GraphConfig::directed_map(10).with_load_factor(0.0);
    }
}
