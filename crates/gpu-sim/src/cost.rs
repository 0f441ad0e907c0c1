//! Transaction-level GPU cost model.
//!
//! The paper's kernels are bandwidth-bound: performance is governed by how
//! many 128-byte global-memory transactions each operation issues. The cost
//! model turns a [`crate::CounterSnapshot`] into *modeled
//! time* on a TITAN V-like device: the device's modeled clock
//! ([`crate::Device::clock_s`]) and the benchmark harness both price counter
//! deltas with [`CostModel::titan_v`]. Absolute numbers are not expected to
//! match the paper's testbed; relative ordering (who wins, by what factor)
//! is — see DESIGN.md §2.

use crate::counters::CounterSnapshot;

/// Bytes per coalesced global-memory transaction (one 128 B cache line,
/// equivalently one 32-lane × 4-byte coalesced access).
pub const TRANSACTION_BYTES: usize = 128;

/// A simple analytic GPU timing model.
///
/// `modeled_time = launches·launch_overhead
///               + transactions·128 B / mem_bandwidth
///               + atomics / atomic_throughput
///               + (ballots+shuffles) / warp_instr_throughput`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sustained global-memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Device-wide atomic operations per second.
    pub atomic_throughput: f64,
    /// Warp-wide intrinsic instructions (ballot/shuffle) per second,
    /// aggregated over all SMs.
    pub warp_instr_throughput: f64,
    /// Fixed overhead per kernel launch in seconds.
    pub launch_overhead: f64,
}

impl CostModel {
    /// Parameters approximating the paper's NVIDIA TITAN V (Volta, HBM2).
    ///
    /// 652 GB/s sustained bandwidth, ~10 G atomics/s to distinct addresses
    /// (Volta atomics resolve in L2), 80 SMs × 4 schedulers × ~1.2 GHz of
    /// warp-instruction issue, 5 µs per launch.
    pub fn titan_v() -> Self {
        CostModel {
            mem_bandwidth: 652.0e9,
            atomic_throughput: 10.0e9,
            warp_instr_throughput: 384.0e9,
            launch_overhead: 5.0e-6,
        }
    }

    /// Modeled execution time in seconds for the given counter delta.
    pub fn seconds(&self, c: &CounterSnapshot) -> f64 {
        let mem = (c.transactions as f64) * (TRANSACTION_BYTES as f64) / self.mem_bandwidth;
        let atomics = (c.atomics as f64) / self.atomic_throughput;
        let warp_instrs = ((c.ballots + c.shuffles) as f64) / self.warp_instr_throughput;
        let launch = (c.launches as f64) * self.launch_overhead;
        mem + atomics + warp_instrs + launch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(transactions: u64, atomics: u64, launches: u64) -> CounterSnapshot {
        CounterSnapshot {
            transactions,
            atomics,
            launches,
            ..Default::default()
        }
    }

    #[test]
    fn zero_counters_cost_nothing() {
        let m = CostModel::titan_v();
        assert_eq!(m.seconds(&CounterSnapshot::default()), 0.0);
    }

    #[test]
    fn memory_traffic_dominates_when_large() {
        let m = CostModel::titan_v();
        // 1e9 transactions = 128 GB => ~0.196 s on 652 GB/s.
        let t = m.seconds(&snap(1_000_000_000, 0, 0));
        assert!((t - 128.0e9 / 652.0e9).abs() < 1e-9);
    }

    #[test]
    fn launch_overhead_charged_per_launch() {
        let m = CostModel::titan_v();
        let t = m.seconds(&snap(0, 0, 10));
        assert!((t - 50.0e-6).abs() < 1e-12);
    }

    #[test]
    fn cost_is_monotone_in_transactions() {
        let m = CostModel::titan_v();
        assert!(m.seconds(&snap(1000, 0, 0)) < m.seconds(&snap(2000, 0, 0)));
    }
}
