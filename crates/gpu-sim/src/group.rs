//! Multi-device coordination: N simulated devices driven as one group.
//!
//! A [`DeviceGroup`] models a multi-GPU node the way the rest of this crate
//! models one card: deterministically, with exact accounting. The group owns
//! `n` [`Device`]s built from a single [`DeviceConfig`] (so every shard gets
//! the same budget, policy, sanitizer, and profiler configuration), runs
//! per-shard work concurrently on host threads — the CUDA-streams overlap a
//! real driver would give you — and merges per-shard observability into one
//! view:
//!
//! - **One modeled clock.** Each shard's device advances its own modeled
//!   clock; the group's clock ([`DeviceGroup::clock_s`]) is the *maximum*
//!   across shards, i.e. the makespan under perfect overlap. This is the
//!   multi-device analogue of the single-device span invariant: per-shard
//!   spans still partition per-shard time, and the group finishes when its
//!   slowest shard does.
//! - **Deterministic merges.** [`DeviceGroup::merged_trace`] sums per-shard
//!   kernel tallies by name (shard-major, first-launch order preserved), so
//!   the attribution invariant `kernel_sum() == global` survives the merge.
//!   [`DeviceGroup::merged_report`] folds in sanitizer findings (kernel
//!   names prefixed `shard<i>/` so a finding still names its device) and
//!   metric summaries (histograms merged bucket-wise — percentiles of the
//!   *union*, not averages of percentiles). The result is an ordinary
//!   [`TraceReport`] with the single-device schema: it renders and JSON
//!   round-trips exactly.
//! - **Per-shard timelines.** [`DeviceGroup::chrome_events`] exports shard
//!   `i` under `pid = base + i`, so a merged Chrome trace shows the shards
//!   as parallel process rows and dispatch overlap is visible directly.
//!
//! Sharded code paths construct devices *only* through a group — the
//! router crate's `clippy.toml` disallows the `Device` constructors — so
//! capacity budgets, fault plans, and profiler attachment stay uniform
//! across shards.

use crate::counters::CounterSnapshot;
use crate::device::{Device, DeviceConfig};
use crate::metrics::{HistogramSnapshot, MetricKind, MetricSummary};
use crate::profiler::{ChromeEvent, TraceCtx};
use crate::sanitizer::Finding;
use crate::trace::{KernelStats, TraceReport, TraceSnapshot};
use std::sync::Arc;

/// A fixed set of simulated devices sharing one configuration and driven
/// concurrently as shards of a larger structure. See the module docs for
/// the clock and merge semantics.
pub struct DeviceGroup {
    devices: Vec<Arc<Device>>,
}

impl DeviceGroup {
    /// Build a group of `n` devices, each from its own copy of `config`.
    /// Every shard gets an independent arena, counter set, fault injector,
    /// and (if configured) sanitizer and profiler — observability is
    /// per-shard and merged on demand, never shared mid-run.
    pub fn new(n: usize, config: DeviceConfig) -> Self {
        assert!(n >= 1, "a device group needs at least one device");
        DeviceGroup {
            devices: (0..n)
                .map(|_| Arc::new(Device::with_config(config)))
                .collect(),
        }
    }

    /// Number of devices in the group.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: groups hold at least one device.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Shard `i`'s device. The `Arc` lets structures built on the shard
    /// (e.g. a graph) co-own the device with the group.
    pub fn device(&self, shard: usize) -> &Arc<Device> {
        &self.devices[shard]
    }

    /// All devices, in shard order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Run `f(shard, device)` for every shard concurrently, one host
    /// thread per shard, and return the results in shard order. This is
    /// the group's executor: per-shard kernel streams overlap exactly as
    /// concurrent CUDA streams on separate cards would, and because each
    /// closure only touches its own shard's device, the result is
    /// deterministic regardless of thread interleaving.
    ///
    /// `ctxs[shard]` is the [`TraceCtx`] installed on the shard's device
    /// for the whole call ([`Device::trace_scope`]), so every span and
    /// instant `f` records there names the op it runs for; `None` means
    /// `f` does no device work on that shard. One slot per device.
    pub fn dispatch<R, F>(&self, ctxs: &[Option<TraceCtx>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &Device) -> R + Sync,
    {
        assert_eq!(ctxs.len(), self.len(), "one trace context slot per shard");
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .devices
                .iter()
                .zip(ctxs)
                .enumerate()
                .map(|(i, (d, ctx))| {
                    s.spawn(move || {
                        let _trace = ctx.map(|ctx| d.trace_scope(ctx));
                        f(i, d.as_ref())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard dispatch panicked"))
                .collect()
        })
    }

    /// The group's modeled clock: the maximum of the per-shard device
    /// clocks (makespan under perfect overlap).
    pub fn clock_s(&self) -> f64 {
        self.devices.iter().map(|d| d.clock_s()).fold(0.0, f64::max)
    }

    /// Merge per-shard trace snapshots: globals are summed event-wise and
    /// same-named kernels are summed, keeping shard-major first-launch
    /// order. Each input satisfies `kernel_sum() == global`, so the merge
    /// does too.
    pub fn merge_traces(traces: &[TraceSnapshot]) -> TraceSnapshot {
        let mut global = CounterSnapshot::default();
        let mut kernels: Vec<KernelStats> = Vec::new();
        for t in traces {
            global += t.global;
            for k in &t.kernels {
                match kernels.iter_mut().find(|e| e.name == k.name) {
                    Some(e) => e.counters += k.counters,
                    None => kernels.push(*k),
                }
            }
        }
        TraceSnapshot { global, kernels }
    }

    /// [`Self::merge_traces`] over every device's live tally.
    pub fn merged_trace(&self) -> TraceSnapshot {
        let traces: Vec<TraceSnapshot> = self.devices.iter().map(|d| d.trace()).collect();
        Self::merge_traces(&traces)
    }

    /// Sanitizer findings from every shard, in shard order, with kernel
    /// names prefixed `shard<i>/` so a merged report still names the
    /// offending device.
    pub fn merged_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            for mut f in d.sanitizer_findings() {
                f.kernel = format!("shard{i}/{}", f.kernel);
                if !f.other_kernel.is_empty() {
                    f.other_kernel = format!("shard{i}/{}", f.other_kernel);
                }
                out.push(f);
            }
        }
        out
    }

    /// Merge per-shard metrics registries into one summary list, sorted by
    /// name. Histograms with the same name are merged *bucket-wise*, so the
    /// reported p50/p95 are true quantiles of the union of observations —
    /// identical to what one registry recording every shard's observations
    /// would report. Gauges sum their current values and update counts and
    /// keep the largest high-water mark.
    pub fn merged_metric_summaries(&self) -> Vec<MetricSummary> {
        let mut hists: Vec<(String, HistogramSnapshot)> = Vec::new();
        let mut gauges: Vec<MetricSummary> = Vec::new();
        for d in &self.devices {
            let Some(p) = d.profiler() else { continue };
            for (name, snap) in p.metrics().histograms() {
                match hists.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, h)) => h.merge(&snap),
                    None => hists.push((name, snap)),
                }
            }
            for m in p.metric_summaries() {
                if m.kind != MetricKind::Gauge {
                    continue;
                }
                match gauges.iter_mut().find(|g| g.name == m.name) {
                    Some(g) => {
                        g.count += m.count;
                        g.sum += m.sum;
                        g.max = g.max.max(m.max);
                        g.p50 = g.sum;
                        g.p95 = g.sum;
                        g.p99 = g.sum;
                    }
                    None => gauges.push(m),
                }
            }
        }
        let mut out: Vec<MetricSummary> = hists
            .into_iter()
            .map(|(name, h)| h.summary(name))
            .chain(gauges)
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// One [`TraceReport`] for the whole group: merged kernels, merged
    /// findings, merged metrics, in the ordinary single-device schema (it
    /// JSON round-trips exactly).
    pub fn merged_report(&self) -> TraceReport {
        TraceReport::new(&self.merged_trace())
            .with_findings(self.merged_findings())
            .with_metrics(self.merged_metric_summaries())
    }

    /// Chrome trace events for every profiled shard, shard `i` under
    /// `pid = base_pid + i` — parallel process rows in the viewer, so
    /// dispatch overlap across shards is directly visible.
    pub fn chrome_events(&self, base_pid: u64) -> Vec<ChromeEvent> {
        let mut out = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            if let Some(p) = d.profiler() {
                out.extend(p.chrome_events(base_pid + i as u64));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;

    fn group_with_profilers(n: usize) -> DeviceGroup {
        DeviceGroup::new(
            n,
            DeviceConfig::new(1 << 12).with_profiler(ProfilerConfig::default()),
        )
    }

    #[test]
    fn dispatch_returns_results_in_shard_order() {
        let g = DeviceGroup::new(4, DeviceConfig::new(1 << 10));
        let out = g.dispatch(&[None; 4], |i, dev| {
            dev.launch_tasks("shard_touch", 32 * (i + 1), |_warp| {});
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        for (i, d) in g.devices().iter().enumerate() {
            assert_eq!(d.counters().snapshot().warps, (i + 1) as u64);
        }
    }

    #[test]
    fn dispatch_installs_each_shards_trace_ctx() {
        let g = group_with_profilers(2);
        let ctxs = [TraceCtx::root(1, 10), TraceCtx::root(2, 20)];
        g.dispatch(&ctxs.map(Some), |_, dev| {
            dev.launch_tasks("traced", 32, |_| {});
            dev.wait("traced_wait", 1e-6);
            dev.launch_tasks("traced", 64, |_| {});
        });
        // Shard 1 gets no context: its work stays unstamped.
        let ctx = TraceCtx::root(3, 30);
        g.dispatch(&[Some(ctx), None], |_, dev| {
            dev.launch_tasks("second", 32, |_| {});
        });
        for (s, d) in g.devices().iter().enumerate() {
            d.launch_tasks("after", 32, |_| {});
            let t = d.profiler().unwrap().timeline();
            let stamps = |name: &str| -> Vec<Option<TraceCtx>> {
                t.spans
                    .iter()
                    .chain(&t.host_spans)
                    .filter(|e| e.name == name)
                    .map(|e| e.ctx)
                    .collect()
            };
            assert_eq!(stamps("traced"), vec![Some(ctxs[s]); 2], "shard {s}");
            assert_eq!(stamps("traced_wait"), vec![Some(ctxs[s])], "shard {s}");
            let second = if s == 0 { Some(ctx) } else { None };
            assert_eq!(stamps("second"), vec![second], "shard {s}");
            assert_eq!(stamps("after"), vec![None], "scope ends with dispatch");
        }
    }

    #[test]
    fn merged_trace_sums_kernels_by_name_and_keeps_invariant() {
        let g = DeviceGroup::new(3, DeviceConfig::new(1 << 10));
        g.dispatch(&[None; 3], |i, dev| {
            dev.launch_tasks("common", 32, |_| {});
            if i == 1 {
                dev.launch_tasks("only_one", 64, |_| {});
            }
        });
        let merged = g.merged_trace();
        assert_eq!(merged.kernel_sum(), merged.global);
        let common = merged
            .kernels
            .iter()
            .find(|k| k.name == "common")
            .expect("common kernel merged");
        assert_eq!(common.counters.launches, 3, "one launch per shard, summed");
        assert!(merged.kernels.iter().any(|k| k.name == "only_one"));
    }

    #[test]
    fn merged_report_roundtrips_json_exactly() {
        let g = group_with_profilers(2);
        g.dispatch(&[None; 2], |_, dev| {
            let out = dev.alloc_words(32, 32);
            dev.memset("init", out, 32, 0);
            dev.launch_tasks("edge_insert", 128, move |warp| {
                warp.atomic_add(out, 1);
            })
        });
        let report = g.merged_report();
        let parsed = TraceReport::from_json(&report.to_json().render_pretty())
            .expect("merged report parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn merged_histograms_are_union_quantiles() {
        let g = group_with_profilers(2);
        // Shard 0 records small values, shard 1 records large ones; the
        // merged p95 must see the large tail a per-shard average would lose.
        let p0 = g.device(0).profiler().unwrap().metrics();
        let p1 = g.device(1).profiler().unwrap().metrics();
        for _ in 0..94 {
            p0.record("probe.depth", 1);
        }
        for _ in 0..6 {
            p1.record("probe.depth", 1024);
        }
        let merged = g.merged_metric_summaries();
        let m = merged.iter().find(|m| m.name == "probe.depth").unwrap();
        assert_eq!(m.count, 100);
        assert_eq!(m.sum, 94 + 6 * 1024);
        assert_eq!(m.p50, 1);
        assert_eq!(m.p95, 1024, "p95 of the union reaches the shard-1 tail");
    }

    #[test]
    fn merged_gauges_sum_values_and_keep_high_water() {
        let g = group_with_profilers(2);
        g.device(0)
            .profiler()
            .unwrap()
            .metrics()
            .gauge("pool")
            .set(7);
        g.device(1)
            .profiler()
            .unwrap()
            .metrics()
            .gauge("pool")
            .set(5);
        let merged = g.merged_metric_summaries();
        let m = merged.iter().find(|m| m.name == "pool").unwrap();
        assert_eq!(m.kind, MetricKind::Gauge);
        assert_eq!(m.sum, 12);
        assert_eq!(m.max, 7);
        assert_eq!(m.p50, 12);
    }

    #[test]
    fn clock_is_makespan_across_shards() {
        let g = DeviceGroup::new(2, DeviceConfig::new(1 << 12));
        g.dispatch(&[None; 2], |i, dev| {
            // Shard 1 does 4x the work of shard 0.
            let buf = dev.alloc_words(32, 32);
            dev.memset("init", buf, 32, 0);
            dev.launch_tasks("work", 32 << (2 * i), move |warp| {
                let _ = warp.read_word(buf);
            });
        });
        let clocks: Vec<f64> = g.devices().iter().map(|d| d.clock_s()).collect();
        assert!(clocks[1] > clocks[0]);
        assert_eq!(g.clock_s(), clocks[1], "group clock is the slowest shard");
    }

    #[test]
    fn chrome_events_use_one_pid_per_shard() {
        let g = group_with_profilers(2);
        g.dispatch(&[None; 2], |_, dev| dev.launch_tasks("k", 32, |_| {}));
        let events = g.chrome_events(10);
        assert!(!events.is_empty());
        let pids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.pid).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn findings_are_prefixed_with_their_shard() {
        use crate::sanitizer::SanitizerConfig;
        let g = DeviceGroup::new(
            2,
            DeviceConfig::new(1 << 10).with_sanitizer(SanitizerConfig::default()),
        );
        // An uninitialized read on shard 1 only.
        let addr = g.device(1).alloc_words(32, 32);
        g.device(1).launch_tasks("bad_read", 1, move |warp| {
            let _ = warp.read_word(addr);
        });
        let findings = g.merged_findings();
        assert!(!findings.is_empty());
        assert!(
            findings.iter().all(|f| f.kernel.starts_with("shard1/")),
            "{findings:?}"
        );
    }
}
