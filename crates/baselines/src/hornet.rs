//! Hornet workalike (Busato et al., "Hornet: An efficient data structure
//! for dynamic sparse graphs and matrices on GPUs", HPEC 2018).
//!
//! Adjacency lists live in power-of-two *blocks*: a vertex's list occupies
//! the smallest block that fits it; when an insertion overflows the block,
//! the whole list is copied into the next power-of-two size. Freed blocks
//! are recycled through per-size free lists (the original tracks them with
//! B-trees; memory management is host-side, as in the original).
//!
//! Updates deduplicate by **sorting** — the batch is sorted, and every
//! touched vertex's (list + additions) is dedup-checked with a sort-shaped
//! pass. That cost is exactly what the paper measures against (§VI-B1:
//! "45% of Hornet's insertion time is spent in duplication checking").

use crate::sort::{charge_radix_sort, charge_sort_traffic, radix_sort_pairs};
use gpu_sim::{Addr, Device, SLAB_WORDS};
use std::collections::BTreeMap;

/// Per-vertex block record (host-side, like Hornet's CPU-managed blocks).
#[derive(Debug, Clone, Copy)]
struct VInfo {
    block: Addr,
    capacity: u32,
    used: u32,
}

/// The Hornet-style dynamic graph store.
pub struct Hornet {
    dev: Device,
    vertices: Vec<VInfo>,
    /// Free blocks per capacity class (B-tree keyed by block size).
    free_blocks: BTreeMap<u32, Vec<Addr>>,
    /// Whether every adjacency list is currently sorted (needed by the
    /// intersection-based triangle counting).
    sorted: bool,
}

impl Hornet {
    /// An empty graph over `n_vertices` (each with a minimal block).
    pub fn new(n_vertices: u32, device_words: usize) -> Self {
        let dev = Device::new(device_words);
        Hornet {
            dev,
            vertices: vec![
                VInfo {
                    block: gpu_sim::NULL_ADDR,
                    capacity: 0,
                    used: 0
                };
                n_vertices as usize
            ],
            free_blocks: BTreeMap::new(),
            sorted: true,
        }
    }

    /// Bulk build: sort + dedup the COO input, then write each vertex's
    /// list into its block (§VI-B1 / Table V).
    pub fn bulk_build(n_vertices: u32, edges: &[(u32, u32)], device_words: usize) -> Self {
        let mut g = Self::new(n_vertices, device_words);
        let _phase = g.dev.phase("bulk_build");
        let mut batch: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && u < n_vertices && v < n_vertices)
            .collect();
        // Device-wide sort + dedup: the dominant bulk-build cost.
        radix_sort_pairs(&g.dev, &mut batch);
        charge_radix_sort(&g.dev, batch.len()); // duplicate-flagging pass
        batch.dedup();
        let mut i = 0;
        while i < batch.len() {
            let u = batch[i].0;
            let mut j = i;
            while j < batch.len() && batch[j].0 == u {
                j += 1;
            }
            let dsts: Vec<u32> = batch[i..j].iter().map(|&(_, v)| v).collect();
            // Bulk build runs through the same per-vertex duplicate-check
            // machinery as batch insertion (§VI-B1: 45% of hollywood's
            // build time is duplicate checking alone).
            charge_sort_traffic(&g.dev, dsts.len() * 4);
            g.write_new_list(u, &dsts);
            i = j;
        }
        g.sorted = true;
        g
    }

    /// The simulated device (counters, cost model).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.vertices.len() as u32
    }

    /// Total stored (unique) edges.
    pub fn num_edges(&self) -> u64 {
        self.vertices.iter().map(|v| v.used as u64).sum()
    }

    /// Live degree of `u`.
    pub fn degree(&self, u: u32) -> u32 {
        self.vertices[u as usize].used
    }

    /// Whether adjacency lists are currently sorted.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Amortized cost of one CPU-side block-manager operation (B-tree
    /// lookup/insert + pointer upload), expressed in 128 B transactions.
    /// Calibrated so the paper's Table V ratios reproduce: Hornet's bulk
    /// build over road networks (one block per vertex) pays heavily, while
    /// edge-heavy graphs amortize it (germany_osm: 330 ms over 11.5 M
    /// vertices ≈ 30 ns/block ≈ 150 transactions of HBM2 time).
    const BLOCK_MGMT_TX: u64 = 150;

    fn alloc_block(&mut self, capacity: u32) -> Addr {
        self.dev
            .charge("hornet_block_mgmt")
            .add_transactions(Self::BLOCK_MGMT_TX);
        if let Some(list) = self.free_blocks.get_mut(&capacity) {
            if let Some(a) = list.pop() {
                return a;
            }
        }
        self.dev
            .alloc_words(capacity as usize, SLAB_WORDS.min(capacity as usize).max(1))
    }

    fn free_block(&mut self, addr: Addr, capacity: u32) {
        if capacity > 0 {
            self.free_blocks.entry(capacity).or_default().push(addr);
        }
    }

    /// Write a brand-new adjacency list for `u` (charged coalesced write).
    fn write_new_list(&mut self, u: u32, dsts: &[u32]) {
        let capacity = (dsts.len() as u32).next_power_of_two().max(1);
        let block = self.alloc_block(capacity);
        self.dev
            .charge("hornet_write_list")
            .add_transactions((dsts.len() as u64).div_ceil(32).max(1));
        self.dev.host_write(block, dsts);
        let old = self.vertices[u as usize];
        self.free_block(old.block, old.capacity);
        self.vertices[u as usize] = VInfo {
            block,
            capacity,
            used: dsts.len() as u32,
        };
    }

    /// Read `u`'s adjacency list with charged coalesced reads.
    pub fn read_adjacency(&self, u: u32) -> Vec<u32> {
        let v = self.vertices[u as usize];
        self.dev
            .charge("hornet_read")
            .add_transactions((v.used as u64).div_ceil(32).max(1));
        let mut adj = vec![0; v.used as usize];
        self.dev.host_read(v.block, &mut adj);
        adj
    }

    /// Batched edge insertion. Hornet semantics: duplicates neither within
    /// the batch nor against the graph are stored. Returns new-edge count.
    pub fn insert_batch(&mut self, edges: &[(u32, u32)]) -> u64 {
        let mut batch: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && u < self.num_vertices() && v < self.num_vertices())
            .collect();
        if batch.is_empty() {
            return 0;
        }
        // 1. Sort the batch and drop in-batch duplicates (charged).
        radix_sort_pairs(&self.dev, &mut batch);
        batch.dedup();
        let mut added = 0u64;
        // 2. Per touched vertex: read the list, dedup against it via a
        //    sort-shaped pass, append / grow block.
        let mut i = 0;
        while i < batch.len() {
            let u = batch[i].0;
            let mut j = i;
            while j < batch.len() && batch[j].0 == u {
                j += 1;
            }
            let existing = self.read_adjacency(u);
            // Duplicate check over (existing + new): Hornet stages the
            // list + additions through scratch, sorts them as key-value
            // pairs, flags duplicates, scans, and compacts — ~4 sort-shaped
            // passes over 2-word elements, fused into the batch kernel
            // (the cost §VI-B1 attributes 45% of build time to).
            charge_sort_traffic(&self.dev, (existing.len() + (j - i)) * 4);
            let have: std::collections::HashSet<u32> = existing.iter().copied().collect();
            let fresh: Vec<u32> = batch[i..j]
                .iter()
                .map(|&(_, v)| v)
                .filter(|d| !have.contains(d))
                .collect();
            if !fresh.is_empty() {
                added += fresh.len() as u64;
                let info = self.vertices[u as usize];
                if info.used + fresh.len() as u32 <= info.capacity {
                    // Append in place; the compaction pass rewrites the
                    // deduplicated list (charged as a full-list write).
                    self.dev.charge("hornet_edge_insert").add_transactions(
                        ((info.used as u64 + fresh.len() as u64).div_ceil(32)).max(1),
                    );
                    self.dev.host_write(info.block + info.used, &fresh);
                    self.vertices[u as usize].used += fresh.len() as u32;
                } else {
                    // Grow: copy whole list into next power-of-two block
                    // (the §VI-B2 incremental-build cost).
                    let mut all = existing.clone();
                    all.extend_from_slice(&fresh);
                    self.write_new_list(u, &all);
                }
                self.sorted = false;
            }
            i = j;
        }
        added
    }

    /// Batched edge deletion: sort batch, then filter each touched list in
    /// one compaction pass. "Deletion is a simple process and does not
    /// require cross-duplicate checking" — hence Hornet's competitive
    /// deletion rates (Table III).
    pub fn delete_batch(&mut self, edges: &[(u32, u32)]) -> u64 {
        let mut batch: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, _)| u < self.num_vertices())
            .collect();
        if batch.is_empty() {
            return 0;
        }
        radix_sort_pairs(&self.dev, &mut batch);
        batch.dedup();
        let mut removed = 0u64;
        let mut i = 0;
        while i < batch.len() {
            let u = batch[i].0;
            let mut j = i;
            while j < batch.len() && batch[j].0 == u {
                j += 1;
            }
            let victims: std::collections::HashSet<u32> =
                batch[i..j].iter().map(|&(_, v)| v).collect();
            let existing = self.read_adjacency(u);
            let kept: Vec<u32> = existing
                .iter()
                .copied()
                .filter(|d| !victims.contains(d))
                .collect();
            if kept.len() != existing.len() {
                removed += (existing.len() - kept.len()) as u64;
                // Compacted write-back into the same block (charged).
                let info = self.vertices[u as usize];
                self.dev
                    .charge("hornet_edge_delete")
                    .add_transactions((kept.len() as u64).div_ceil(32).max(1));
                self.dev.host_write(info.block, &kept);
                self.vertices[u as usize].used = kept.len() as u32;
            }
            i = j;
        }
        removed
    }

    /// Sort every adjacency list with the CUB-style segmented sort
    /// (required before intersection-based triangle counting; charged
    /// separately, as in Table VIII).
    pub fn sort_adjacencies(&mut self) {
        let mut lists: Vec<Vec<u32>> = (0..self.num_vertices())
            .map(|u| self.read_adjacency(u))
            .collect();
        let mut flat = Vec::new();
        let mut segs = Vec::new();
        for l in &lists {
            let s = flat.len();
            flat.extend_from_slice(l);
            segs.push((s, flat.len()));
        }
        crate::sort::segmented_sort(&self.dev, &segs, &mut flat);
        for (u, seg) in segs.iter().enumerate() {
            lists[u].copy_from_slice(&flat[seg.0..seg.1]);
            let info = self.vertices[u];
            self.dev
                .charge("hornet_sort")
                .add_transactions((info.used as u64).div_ceil(32).max(1));
            self.dev.host_write(info.block, &lists[u]);
        }
        self.sorted = true;
    }

    /// Re-sort only the given (batch-touched) vertices: each list's sorted
    /// prefix is merged with its freshly-appended suffix — the incremental
    /// maintenance a dynamic application would use (Table IX) instead of a
    /// full segmented re-sort. Charged as suffix-sort + merge traffic.
    pub fn sort_touched(&mut self, vertices: &[u32]) {
        let mut seen = std::collections::HashSet::new();
        for &u in vertices {
            if u >= self.num_vertices() || !seen.insert(u) {
                continue;
            }
            let mut list = self.read_adjacency(u);
            charge_sort_traffic(&self.dev, list.len().min(64));
            self.dev
                .charge("hornet_sort")
                .add_transactions(2 * (list.len() as u64).div_ceil(32).max(1));
            list.sort_unstable();
            let info = self.vertices[u as usize];
            self.dev.host_write(info.block, &list);
        }
        self.sorted = true;
    }

    /// Does `u` have `v` as a neighbour? (Binary search if sorted, linear
    /// scan otherwise — both read the block with charged transactions.)
    pub fn edge_exists(&self, u: u32, v: u32) -> bool {
        let adj = self.read_adjacency(u);
        if self.sorted {
            adj.binary_search(&v).is_ok()
        } else {
            adj.contains(&v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_build_dedups_and_stores() {
        let g = Hornet::bulk_build(8, &[(0, 1), (0, 2), (0, 1), (3, 3), (1, 0)], 1 << 16);
        assert_eq!(g.degree(0), 2, "duplicate (0,1) stored once");
        assert_eq!(g.degree(3), 0, "self-loop dropped");
        assert_eq!(g.num_edges(), 3);
        let mut a = g.read_adjacency(0);
        a.sort_unstable();
        assert_eq!(a, vec![1, 2]);
    }

    #[test]
    fn insert_appends_and_dedups() {
        let mut g = Hornet::bulk_build(8, &[(0, 1)], 1 << 16);
        let added = g.insert_batch(&[(0, 1), (0, 2), (0, 2), (0, 3)]);
        assert_eq!(added, 2);
        assert_eq!(g.degree(0), 3);
        assert!(g.edge_exists(0, 3));
        assert!(!g.edge_exists(0, 7));
    }

    #[test]
    fn block_grows_by_doubling() {
        let mut g = Hornet::new(256, 1 << 18);
        for k in 0..100u32 {
            g.insert_batch(&[(0, k + 1)]);
        }
        assert_eq!(g.degree(0), 100);
        assert_eq!(g.vertices[0].capacity, 128, "next power of two");
        let adj = g.read_adjacency(0);
        assert_eq!(adj.len(), 100);
    }

    #[test]
    fn freed_blocks_are_recycled() {
        let mut g = Hornet::new(16, 1 << 18);
        g.insert_batch(&[(0, 1), (0, 2), (0, 3)]); // capacity 4 block
        g.insert_batch(&[(0, 4), (0, 5)]); // grows to 8, frees the 4-block
        assert!(!g.free_blocks.get(&4).is_none_or(|l| l.is_empty()));
        g.insert_batch(&[(1, 2), (1, 3), (1, 4)]); // reuses the 4-block
        assert!(g.free_blocks.get(&4).is_none_or(|l| l.is_empty()));
    }

    #[test]
    fn delete_compacts() {
        let mut g = Hornet::bulk_build(16, &[(0, 1), (0, 2), (0, 3)], 1 << 16);
        let removed = g.delete_batch(&[(0, 2), (0, 9)]);
        assert_eq!(removed, 1);
        assert_eq!(g.degree(0), 2);
        assert!(!g.edge_exists(0, 2));
        assert!(g.edge_exists(0, 1));
        assert!(g.edge_exists(0, 3));
    }

    #[test]
    fn insertion_charges_more_than_deletion_per_edge() {
        // The paper's Table II vs III asymmetry: insertion carries the
        // dedup-sort cost, deletion does not.
        let base: Vec<(u32, u32)> = (0..64u32)
            .flat_map(|u| (0..16u32).map(move |i| (u, (u + i + 1) % 64)))
            .collect();
        let batch: Vec<(u32, u32)> = (0..64u32).map(|u| (u, (u + 40) % 64)).collect();

        let mut g = Hornet::bulk_build(64, &base, 1 << 18);
        let before = g.device().counters().snapshot();
        g.insert_batch(&batch);
        let ins = g.device().counters().snapshot().delta(&before);

        let mut g = Hornet::bulk_build(64, &base, 1 << 18);
        g.insert_batch(&batch);
        let before = g.device().counters().snapshot();
        g.delete_batch(&batch);
        let del = g.device().counters().snapshot().delta(&before);

        assert!(
            ins.transactions > del.transactions,
            "insert {} should out-cost delete {}",
            ins.transactions,
            del.transactions
        );
    }

    #[test]
    fn sort_adjacencies_enables_binary_search() {
        let mut g = Hornet::bulk_build(16, &[(0, 5), (0, 1), (0, 3)], 1 << 16);
        g.insert_batch(&[(0, 2)]);
        assert!(!g.is_sorted());
        g.sort_adjacencies();
        assert!(g.is_sorted());
        assert_eq!(g.read_adjacency(0), vec![1, 2, 3, 5]);
    }
}
