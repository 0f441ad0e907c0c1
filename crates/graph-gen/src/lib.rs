//! # graph-gen — deterministic workload generators for the evaluation
//!
//! The paper benchmarks on twelve public datasets (Table I) spanning three
//! families — road networks (degree ≈ 2, tiny variance), meshes/geometric
//! graphs (degree 6–16, small variance), and scale-free social/web graphs
//! (heavy-tailed, max degree in the tens of thousands). The datasets
//! themselves are not load-bearing; their *degree distributions* are, since
//! they determine adjacency-list sizes and hence data-structure behaviour.
//!
//! This crate provides seeded, dependency-light generators for each family
//! plus a [`catalog`] mirroring Table I at configurable scale, and the
//! update-batch generators defined by the paper's evaluation strategy
//! (§V-A: random edges between existing vertices, duplicates allowed).

pub mod batch;
pub mod catalog;
pub mod fixtures;
pub mod rmat;
pub mod stats;
pub mod synthetic;

pub use batch::{delete_batch, insert_batch, vertex_batch, weighted};
pub use catalog::{dataset, datasets, Dataset, DatasetSpec};
pub use fixtures::{both_directions, fixture_edges, mirror, FIXTURE_TRIANGLES};
pub use rmat::{rmat_edges, RmatParams};
pub use stats::{degree_stats, DegreeStats};
pub use synthetic::{delaunay_like, grid_road, random_geometric, uniform_random};

/// An unweighted directed edge as produced by every generator.
pub type RawEdge = (u32, u32);

/// One step of the SplitMix64 generator: advance `state` and return the
/// next 64-bit output. The seeded op streams of the churn, chaos and
/// sharded workloads (and of the integration tests) all draw from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_matches_reference_stream() {
        let mut state = 0;
        assert_eq!(super::splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(super::splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
    }
}
