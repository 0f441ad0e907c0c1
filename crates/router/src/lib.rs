//! # router — a sharded dynamic graph behind an async batch router
//!
//! The paper's structure is a single-GPU graph; the roadmap's north star is
//! a service. This crate bridges the two: a [`ShardedGraph`] hash-partitions
//! the vertex dictionary across N `DynGraph` shards, each on its own device
//! of a [`gpu_sim::DeviceGroup`], and a [`BatchRouter`] coalesces updates
//! from concurrent client sessions into per-shard batches dispatched
//! concurrently — CUDA-streams style, with the overlap visible in a merged
//! Chrome trace.
//!
//! ## Partitioning and the cut-edge protocol
//!
//! Vertex `v` is *owned* by shard [`shard_of`]`(v, n)` (a splitmix64
//! finalizer, so ownership is balanced regardless of id structure and
//! deterministic across runs). A directed edge ⟨u,v⟩ has its **primary**
//! copy on `owner(u)` — the shard that answers every query about `u` — and,
//! when `owner(v) != owner(u)` (a *cut edge*), a **replica** copy on
//! `owner(v)`, stored under the same ⟨u → v⟩ key; an undirected graph
//! mirrors each edge first, and both half-edges follow the same rule, for
//! direct batches and journaled router updates alike. Replicas keep each
//! shard self-contained for dst-side work: vertex deletion can tombstone
//! incoming edges without a cross-shard scatter, and
//! [`ShardedGraph::validate`] can audit consistency pairwise. Because
//! every query routes to the owner and
//! `changed` counts come from primary sub-batches only, results are
//! *identical* to an unsharded `DynGraph` replaying the same stream —
//! `tests/sharding.rs` asserts this at 1/2/4 shards.
//!
//! ## The router
//!
//! Client sessions [`BatchRouter::submit`] updates concurrently (each
//! session's order is preserved; sessions are drained in id order, so a
//! flush is deterministic regardless of arrival interleaving).
//! [`BatchRouter::flush`] journals the queue into each shard's write-ahead
//! log (one list per shard, in submit order), dispatches every shard with
//! pending work concurrently through the device group's executor, and
//! returns per-shard [`BatchOutcome`](slabgraph::BatchOutcome)s plus
//! per-shard modeled times. Each shard applies its whole unapplied log in
//! one mixed insert/delete launch, collapsed per ⟨src, dst⟩ key so the
//! last update to an edge decides it: a flush's result is the
//! submit-order result. The log is the only record of unapplied work: a
//! shard that runs out of memory (capacity budget or injected fault)
//! applies part of its log and keeps the pending entries logged while the
//! other shards complete unaffected,
//! and after the caller raises the budget (or clears the fault plan) the
//! next `flush` — with or without new updates — resumes it.
//!
//! ## Checked by the compiler
//!
//! A dispatch outcome is never unwrapped or discarded: outside tests the
//! crate denies clippy's `unwrap_used`, `expect_used` and
//! `let_underscore_must_use`. Shard devices come only from the
//! [`gpu_sim::DeviceGroup`]: `clippy.toml` disallows the `Device`
//! constructors. Every dispatch names each shard's [`gpu_sim::TraceCtx`],
//! because [`gpu_sim::DeviceGroup::dispatch`] takes them.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use
    )
)]

mod batch;
mod health;
mod partition;
mod tracing;

pub use batch::{BatchRouter, FlushReport, LiveReadPin, ReadQuality, ShardOutcome};
pub use health::{RetryPolicy, RouterError, RouterReport, ShardHealth, ShardHealthRow};
pub use partition::{ShardedGraph, ShardedValidationError};
pub use slabgraph::Update;
pub use tracing::OpTraceRecord;

/// The owner shard of vertex `v` among `n_shards`: a splitmix64 finalizer
/// over the id, reduced mod `n_shards`. Deterministic, balanced, and
/// independent of insertion order.
pub fn shard_of(v: u32, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut z = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % n_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use slabgraph::GraphConfig;

    pub(crate) fn cfg(n_vertices: u32) -> GraphConfig {
        GraphConfig::directed_map(n_vertices)
            .with_device_words(1 << 18)
            .with_pool_slabs(1 << 8)
    }

    pub(crate) fn pairs(n: usize, seed: u64, n_vertices: u32) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let u = (next() % n_vertices as u64) as u32;
                let mut v = (next() % n_vertices as u64) as u32;
                if v == u {
                    v = (v + 1) % n_vertices;
                }
                (u, v)
            })
            .collect()
    }

    #[test]
    fn shard_of_is_balanced_and_stable() {
        let mut counts = [0usize; 4];
        for v in 0..4000u32 {
            counts[shard_of(v, 4)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "unbalanced: {counts:?}");
        }
        assert_eq!(shard_of(42, 1), 0);
        assert_eq!(shard_of(42, 4), shard_of(42, 4));
    }
}
