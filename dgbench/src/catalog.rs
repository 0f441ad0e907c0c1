//! Every metric the benchmark reports: name, unit, direction, clock, and
//! (end-to-end only) the regression bound. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps the two in
//! step. Which end-to-end metric each per-layer metric should move, and on
//! which workload, is tabulated in this directory's README.

/// Which clock (or neither) a metric is read from. Modeled and count
/// metrics repeat exactly for a seed on the single-threaded workloads;
/// host metrics carry the machine's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Modeled,
    Count,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer).
    pub bound: f64,
    /// Read from the gpu-sim profiler's registry, so only the traced run
    /// measures it.
    pub traced_only: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound,
        traced_only: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
        traced_only: false,
    }
}

const fn traced(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        traced_only: true,
        ..layer(name, unit, better, clock)
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Modeled};

/// What a user of the graph sees: the simulated GPU's throughput and time
/// per update call, the footprint, and the set-up time. Every workload reports
/// every one of these, each from its own traffic (see the README's
/// workload table). Bounds are at least three times the spread measured
/// across seeds; `setup_s` gets the largest.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, Modeled, 0.25),
    e2e("update_meps_modeled", "MEdge/s", Higher, Modeled, 0.03),
    e2e("read_mops_modeled", "Mop/s", Higher, Modeled, 0.05),
    e2e("update_p50_us_modeled", "us", Lower, Modeled, 0.03),
    e2e("update_tail_us_modeled", "us", Lower, Modeled, 0.15),
    e2e("bytes_per_edge", "B/edge", Lower, Count, 0.03),
];

/// One layer each, named by the layer's prefix. A workload that does not
/// exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[Metric] = &[
    // The host clock, demoted from end-to-end: on the reference host the
    // same run's host timings move 10–40 % within minutes, wider than any
    // bound the gate allows, while the modeled ones repeat exactly.
    layer("host.update_meps", "MEdge/s", Higher, Host),
    layer("host.read_mops", "Mop/s", Higher, Host),
    layer("host.update_p50_ms", "ms", Lower, Host),
    layer("host.update_tail_ms", "ms", Lower, Host),
    layer("host.read_p50_ms", "ms", Lower, Host),
    layer("host.read_tail_ms", "ms", Lower, Host),
    // gpu-sim: the cost model's four terms and the simulator's own speed.
    layer("gpu.term_launch_share", "frac", Lower, Modeled),
    layer("gpu.term_mem_share", "frac", Lower, Modeled),
    layer("gpu.term_atomic_share", "frac", Lower, Modeled),
    layer("gpu.term_warp_share", "frac", Lower, Modeled),
    layer("gpu.launches_per_kop", "count", Lower, Count),
    layer("gpu.tx_per_op", "count", Lower, Count),
    layer("gpu.host_ns_per_warp", "ns", Lower, Host),
    // slab-hash: per-kernel work, chain shape, and the profiler's probes.
    layer("slabhash.insert_tx_per_edge", "count", Lower, Count),
    layer("slabhash.delete_tx_per_edge", "count", Lower, Count),
    layer("slabhash.query_tx_per_probe", "count", Lower, Count),
    layer("slabhash.insert_atomics_per_edge", "count", Lower, Count),
    layer("slabhash.avg_chain_peak", "slabs", Lower, Count),
    layer("slabhash.max_chain_peak", "slabs", Lower, Count),
    layer("slabhash.tombstones_peak", "count", Lower, Count),
    layer("slabhash.utilization_end", "frac", Higher, Count),
    traced("slabhash.probe_depth_p50", "slabs", Lower, Count),
    traced("slabhash.probe_depth_p99", "slabs", Lower, Count),
    traced("slabhash.chain_at_insert_p99", "slabs", Lower, Count),
    // slab-alloc: collision slabs, reclamation, and read pins.
    layer("slaballoc.slabs_per_kedge", "count", Lower, Count),
    layer("slaballoc.live_slabs_end", "count", Lower, Count),
    layer("slaballoc.quarantine_peak", "count", Lower, Count),
    layer("slaballoc.pin_us_p50", "us", Lower, Host),
    layer("slaballoc.pin_us_tail", "us", Lower, Host),
    traced("slaballoc.pin_depth_peak", "count", Lower, Count),
    // core (slabgraph): build and per-call latency of the batch API.
    layer("core.build_s", "s", Lower, Host),
    layer("core.insert_call_ms_p50", "ms", Lower, Host),
    layer("core.insert_call_ms_tail", "ms", Lower, Host),
    layer("core.delete_call_ms_p50", "ms", Lower, Host),
    layer("core.delete_call_ms_tail", "ms", Lower, Host),
    layer("core.query_call_ms_p50", "ms", Lower, Host),
    layer("core.query_call_ms_tail", "ms", Lower, Host),
    layer("core.flush_call_ms_p50", "ms", Lower, Host),
    layer("core.flush_call_ms_tail", "ms", Lower, Host),
    layer("core.insert_new_frac", "frac", Higher, Count),
    layer("core.delete_hit_frac", "frac", Higher, Count),
    layer("core.query_hit_frac", "frac", Higher, Count),
    // router: set-up, the host path of submit/flush, and live reads.
    layer("router.checkpoint_s", "s", Lower, Host),
    layer("router.submit_ns_p50", "ns", Lower, Host),
    layer("router.flush_ms_p50", "ms", Lower, Host),
    layer("router.flush_ms_tail", "ms", Lower, Host),
    layer("router.replica_frac", "frac", Lower, Count),
    layer("router.shard_imbalance", "ratio", Lower, Modeled),
    traced("router.journal_depth_peak", "count", Lower, Count),
    layer("router.degraded_reads", "count", Lower, Count),
    // algos: the triangle-counting pass.
    layer("algos.tc_tx_per_round", "count", Lower, Count),
    layer("algos.tc_launches_per_round", "count", Lower, Count),
    layer("algos.triangles", "count", Higher, Count),
    // The benchmark's own generator and tracer.
    layer("bench.gen_inputs_s", "s", Lower, Host),
    layer("bench.serve_late_tail_ms", "ms", Lower, Host),
    traced("bench.trace_overhead_frac", "frac", Lower, Host),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Input fingerprints recorded for the default ten-second length:
/// `(workload, seed, FNV-1a of generated graph and op stream)`. Seed 1 is
/// the development seed and seed 2 the held-out seed; a mismatch means a
/// generator now produces different inputs, so results are not
/// comparable with runs made before it.
pub const FINGERPRINTS: &[(&str, u64, u64)] = &[
    ("churn_rmat", 1, 0xb3e0_5948_e0e3_3443),
    ("churn_rmat", 2, 0xe11c_f667_59f1_e1c3),
    ("serve_road", 1, 0x1752_4b64_23f4_b592),
    ("serve_road", 2, 0x55c5_a123_917e_3dd1),
    ("mixed_rw", 1, 0x91d3_c0c7_13cd_a505),
    ("mixed_rw", 2, 0x7532_9ac8_f426_cb9e),
    ("dynamic_tc", 1, 0x3fa1_8cef_1185_82e7),
    ("dynamic_tc", 2, 0x872f_5fd5_af78_0d57),
];

/// The recorded fingerprint for a run, if one exists.
pub fn recorded_fingerprint(workload: &str, seed: u64, seconds: u64) -> Option<u64> {
    if seconds != 10 {
        return None;
    }
    FINGERPRINTS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_charset() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        assert!(!valid_name("p99 latency"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn names_are_unique_and_bounded() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s listed");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` names exactly these metrics, with these units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let json = include_str!("../../BENCHMARK.json");
        let entries = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{').skip(1).map(|e| e.to_string()).collect()
        };
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("field present");
            let rest = entry[at + key.len() + 2..].trim_start_matches([':', ' ']);
            rest.split([',', '}', '\n'])
                .next()
                .expect("value")
                .trim()
                .trim_matches('"')
                .to_string()
        };
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(section);
            assert_eq!(listed.len(), table.len(), "{section} length");
            for (entry, m) in listed.iter().zip(table.iter()) {
                assert_eq!(field(entry, "name"), m.name);
                assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
                if section == "end_to_end" {
                    let bound: f64 = field(entry, "bound").parse().expect("numeric bound");
                    assert_eq!(bound, m.bound, "{}", m.name);
                }
            }
        }
    }
}
