//! Static CSR (Compressed Sparse Row) — the packed representation used by
//! static GPU graph frameworks (Gunrock \[4\]); paper §II-A. Building it
//! requires a full sort + dedup of the COO input, and it cannot be updated
//! without rebuilding — which is precisely the motivation for the dynamic
//! structure.

use crate::sort::radix_sort_pairs;
use gpu_sim::{Addr, Device, SLAB_WORDS};

/// A device-resident CSR graph.
pub struct Csr {
    dev: Device,
    n_vertices: u32,
    n_edges: u32,
    /// Row-pointer array (`n_vertices + 1` words) in device memory.
    row_offsets: Addr,
    /// Column-index array (`n_edges` words) in device memory.
    col_indices: Addr,
}

impl Csr {
    /// Build from COO edges: charged sort + dedup + prefix-sum + scatter.
    /// Self-loops and duplicates are dropped; adjacency lists end sorted.
    pub fn build(n_vertices: u32, edges: &[(u32, u32)], device_words: usize) -> Self {
        let dev = Device::new(device_words);
        let _phase = dev.phase("bulk_build");
        let mut batch: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && u < n_vertices && v < n_vertices)
            .collect();
        radix_sort_pairs(&dev, &mut batch);
        batch.dedup();
        let n_edges = batch.len() as u32;

        let row_offsets = dev.alloc_words(n_vertices as usize + 1, SLAB_WORDS);
        let col_indices = dev.alloc_words((n_edges as usize).max(1), SLAB_WORDS);
        // Prefix-sum + scatter, charged as coalesced sweeps.
        {
            let charge = dev.charge("csr_build");
            charge.add_launches(2);
            charge.add_transactions(
                (n_vertices as u64 + 1).div_ceil(32) + (n_edges as u64).div_ceil(32),
            );
        }
        let mut offsets = vec![0u32; n_vertices as usize + 1];
        for &(u, _) in &batch {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n_vertices as usize {
            offsets[i + 1] += offsets[i];
        }
        dev.host_write(row_offsets, &offsets);
        let cols: Vec<u32> = batch.iter().map(|&(_, v)| v).collect();
        dev.host_write(col_indices, &cols);
        Csr {
            dev,
            n_vertices,
            n_edges,
            row_offsets,
            col_indices,
        }
    }

    pub fn device(&self) -> &Device {
        &self.dev
    }

    pub fn num_vertices(&self) -> u32 {
        self.n_vertices
    }

    pub fn num_edges(&self) -> u64 {
        self.n_edges as u64
    }

    /// Degree of `u` (two row-pointer reads, charged).
    pub fn degree(&self, u: u32) -> u32 {
        self.dev.charge("csr_read").add_transactions(1);
        let [s, e] = self.row(u);
        e - s
    }

    /// Host read of `u`'s row-pointer pair `[start, end)`.
    fn row(&self, u: u32) -> [u32; 2] {
        let mut row = [0; 2];
        self.dev.host_read(self.row_offsets + u, &mut row);
        row
    }

    /// Read `u`'s (sorted) adjacency list with charged coalesced reads.
    pub fn read_adjacency(&self, u: u32) -> Vec<u32> {
        let [s, e] = self.row(u);
        self.dev
            .charge("csr_read")
            .add_transactions(1 + ((e - s) as u64).div_ceil(32));
        let mut adj = vec![0; (e - s) as usize];
        self.dev.host_read(self.col_indices + s, &mut adj);
        adj
    }

    /// Binary-search membership query over the sorted row.
    pub fn edge_exists(&self, u: u32, v: u32) -> bool {
        self.read_adjacency(u).binary_search(&v).is_ok()
    }

    /// The segment ranges of every adjacency list (for segmented sorts).
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut offsets = vec![0; self.n_vertices as usize + 1];
        self.dev.host_read(self.row_offsets, &mut offsets);
        offsets
            .windows(2)
            .map(|w| (w[0] as usize, w[1] as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let g = Csr::build(4, &[(0, 2), (0, 1), (0, 2), (2, 2), (1, 3)], 1 << 16);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.read_adjacency(0), vec![1, 2], "sorted, deduped");
        assert_eq!(g.read_adjacency(1), vec![3]);
        assert_eq!(g.read_adjacency(2), vec![], "self-loop dropped");
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn edge_exists_via_binary_search() {
        let edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        let g = Csr::build(128, &edges, 1 << 18);
        assert!(g.edge_exists(0, 57));
        assert!(!g.edge_exists(0, 101));
        assert!(!g.edge_exists(5, 0));
    }

    #[test]
    fn segments_cover_all_edges() {
        let g = Csr::build(4, &[(0, 1), (1, 2), (1, 3), (3, 0)], 1 << 16);
        let segs = g.segments();
        assert_eq!(segs.len(), 4);
        let total: usize = segs.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(total as u64, g.num_edges());
    }

    #[test]
    fn build_charges_sort_cost() {
        let edges: Vec<(u32, u32)> = (0..1000u32).map(|i| (i % 32, (i * 7) % 32)).collect();
        let g = Csr::build(32, &edges, 1 << 18);
        assert!(
            g.device().counters().snapshot().transactions > 100,
            "sort sweeps charged"
        );
    }
}
