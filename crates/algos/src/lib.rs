//! # algos — generic graph algorithms over the [`backend`] trait layer
//!
//! The paper's application study (§VI-C) is triangle counting, chosen to
//! exercise the data structures' *query* operation (`intersect`): sorted
//! list-based structures intersect two adjacency lists with a serial merge
//! walk; the hash-based structure probes one table per candidate edge
//! (`edgeExist`). Both strategies live behind **one** generic [`tc`],
//! dispatched by each backend's declared
//! [`backend::IntersectionKind`] — there is exactly one triangle-counting
//! and one BFS implementation for all four structures, plus a host-side
//! reference counter for validation.

// A guard bound to `_` drops at once and pins nothing.
#![cfg_attr(not(test), deny(let_underscore_drop))]

pub mod bfs;
pub mod triangle;

pub use bfs::bfs_levels;
pub use triangle::{tc, tc_reference, DynamicTcRound};
