//! # bench — harness regenerating every table and figure of the paper
//!
//! Each experiment from the evaluation section (§VI) is a library function
//! returning a [`Table`]; thin binaries (`paper_tables <id>…`, `run_all`)
//! print them and dump JSON rows under `target/experiments/`. See
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! Methodology (matching §VI): measured time covers the operation only —
//! no host↔device transfer; every phase is priced by one [`Measurement`]
//! of **modeled GPU time** (the transaction-level TITAN V cost model,
//! [`gpu_sim::CostModel`]). Host wall-clock never enters a table rate: it
//! is reported by the `cargo bench` mains ([`harness::bench_case`]), the
//! readers-vs-writers probe latencies, and dgbench's `host.*` metrics.
//! Datasets are the Table I catalog at scaled size (DESIGN.md §8); scale
//! with `BENCH_SCALE_SHIFT=n` (each step doubles dataset/batch sizes).

pub mod chaos;
pub mod churn;
pub mod experiments;
pub mod harness;
pub mod sharded;

pub use harness::{measure, scale_shift, Measurement, Phase, Table};
