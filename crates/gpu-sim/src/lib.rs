//! # gpu-sim — deterministic SIMT execution substrate
//!
//! This crate stands in for CUDA in the reproduction of *Dynamic Graphs on
//! the GPU* (Awad et al., 2020). The paper's data structures are
//! warp-synchronous: their correctness and performance follow from 32-lane
//! lockstep execution, warp ballots/shuffles, word-level atomics in global
//! memory, and coalesced 128-byte memory transactions. All four are modelled
//! here:
//!
//! - [`Lanes`] / [`lanes`] — 32-wide lane vectors and pure warp intrinsics
//!   (`ballot`, `shuffle`, `popc`, `ffs`).
//! - [`memory`] — global memory as a growable arena of atomic `u32` words
//!   addressed by plain `u32` device pointers ([`Addr`]). The arena is
//!   private to this crate.
//! - [`Device`] / [`Warp`] — kernel launch (sequential deterministic or
//!   multi-threaded) and the charged warp-level memory/intrinsic API, plus
//!   the uncharged host transfers ([`Device::upload`],
//!   [`Device::host_write`], [`Device::host_read`]): the paper does not
//!   time host↔device copies, and this is the one place that policy lives.
//!   They run between launches: inside a warp body they panic.
//! - [`PerfCounters`] / [`CounterSnapshot`] / [`CostModel`] — the seven
//!   hardware events (named once, in [`CounterSnapshot::NAMES`]), charged
//!   only by the simulator (read-only outside this crate; manual charge
//!   sites use [`Device::charge`]), and a TITAN V-like analytic timing
//!   model that drives each device's modeled clock ([`Device::clock_s`])
//!   and prices the benchmark harness's counter deltas.
//! - [`KernelSpec`] / [`TraceReport`] — named kernel launches with
//!   per-kernel counter attribution, and the renderable/serializable report
//!   of what a device (or [`DeviceGroup`]) knows about a phase: per-kernel
//!   rows, their total, sanitizer findings and metric summaries (see
//!   [`trace`]). Layers above the device report their own records through
//!   their own types; they reach this report only as metric rows.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, Lanes};
//!
//! let dev = Device::new(1 << 10);
//! let out = dev.alloc_words(1, 1);
//! dev.host_write(out, &[0]); // device memory is not implicitly initialized
//! // 1000 tasks, one per lane, warp-cooperatively summed.
//! dev.launch_tasks("warp_sum", 1000, |warp| {
//!     let preds = Lanes::from_fn(|lane| warp.is_active(lane));
//!     let active = warp.ballot(&preds);
//!     // Lane 0 adds the warp's active-task count in one atomic.
//!     warp.atomic_add(out, active.count_ones());
//! });
//! let mut sum = [0];
//! dev.host_read(out, &mut sum);
//! assert_eq!(sum, [1000]);
//! ```

pub mod cost;
pub mod counters;
pub mod device;
pub mod fault;
pub mod group;
pub mod json;
pub mod lanes;
pub mod memory;
pub mod metrics;
pub mod profiler;
pub mod sanitizer;
pub mod trace;

pub use cost::{CostModel, TRANSACTION_BYTES};
pub use counters::{CounterSnapshot, PerfCounters};
pub use device::{Device, DeviceConfig, ExecPolicy, Warp};
pub use fault::{DeviceFault, FaultPlan, OomError};
pub use group::DeviceGroup;
pub use json::Json;
pub use lanes::{
    ballot, ffs, iter_bits, lanemask_lt, popc, shuffle, shuffle_idx, Lanes, FULL_MASK, WARP_SIZE,
};
pub use memory::{Addr, NULL_ADDR, SLAB_WORDS};
pub use metrics::{
    Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSummary, MetricsRegistry, StatCounter,
};
pub use profiler::{
    chrome_trace_json, op_flow_events, parse_chrome_trace, ChromeEvent, PhaseGuard, Profiler,
    ProfilerConfig, Timeline, TraceCtx, TraceScope,
};
pub use sanitizer::{Finding, FindingKind, Sanitizer, SanitizerConfig};
pub use trace::{
    Charge, KernelSpec, KernelStats, LaunchShape, TraceReport, TraceRow, TraceSnapshot, HOST_KERNEL,
};
