//! Named kernels and per-kernel performance attribution.
//!
//! Every launch on a [`crate::Device`] names the kernel it runs
//! ([`KernelSpec`]); every charged event — transactions, atomics, ballots,
//! shuffles, launches, warps, allocations — is tallied twice: once into the
//! device-wide [`crate::PerfCounters`] and once into the named kernel's
//! counters in a [`KernelRegistry`]. The two views are kept exactly
//! consistent (per-kernel counters sum to the global tally), so a
//! [`TraceReport`] can break any measured phase down by kernel without
//! perturbing the global numbers existing tests and benches assert on.
//!
//! Host-side work that is conceptually one kernel but implemented as many
//! helper launches runs under [`crate::Device::fused_scope`]: the scope's
//! name wins over inner launch names, and only the outermost scope charges
//! a launch. Host-side charges outside any kernel or scope (e.g. arena
//! allocation bookkeeping) fall into the reserved [`HOST_KERNEL`] bucket.

use crate::cost::CostModel;
use crate::counters::{CounterSnapshot, Event, PerfCounters, EVENTS};
use crate::json::Json;
use crate::metrics::{MetricKind, MetricSummary};
use crate::sanitizer::{Finding, FindingKind};
use std::sync::Arc;

/// Reserved kernel name for host-side charges issued outside any named
/// launch or fused scope (keeps per-kernel sums equal to the global tally).
pub const HOST_KERNEL: &str = "(host)";

/// The launch shape of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchShape {
    /// One *thread* (lane) per task, grouped into warps of 32 — the Warp
    /// Cooperative Work Sharing launch shape.
    Tasks(usize),
    /// Exactly `n` warps, all 32 lanes active (warp-per-work-item kernels
    /// that pull work from a device queue).
    Warps(usize),
}

/// A named kernel launch: what to call it and how to shape it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Static kernel name — the attribution key. Use stable, short,
    /// snake_case names (`"edge_insert"`, `"vertex_delete"`).
    pub name: &'static str,
    pub shape: LaunchShape,
}

impl KernelSpec {
    /// One lane per task (`⌈n/32⌉` warps, partial last warp masked).
    pub fn tasks(name: &'static str, n_tasks: usize) -> Self {
        KernelSpec {
            name,
            shape: LaunchShape::Tasks(n_tasks),
        }
    }

    /// Exactly `n_warps` warps with all 32 lanes active.
    pub fn warps(name: &'static str, n_warps: usize) -> Self {
        KernelSpec {
            name,
            shape: LaunchShape::Warps(n_warps),
        }
    }
}

/// Registry of per-kernel counters, keyed by static name, in first-launch
/// order.
#[derive(Debug, Default)]
pub struct KernelRegistry {
    entries: parking_lot::Mutex<Vec<(&'static str, Arc<PerfCounters>)>>,
}

impl KernelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Find or insert the counters for `name`.
    pub fn counters(&self, name: &'static str) -> Arc<PerfCounters> {
        let mut entries = self.entries.lock();
        if let Some((_, c)) = entries.iter().find(|(n, _)| *n == name) {
            return c.clone();
        }
        let c = Arc::new(PerfCounters::default());
        entries.push((name, c.clone()));
        c
    }

    /// Snapshot every kernel's counters, in first-launch order.
    pub fn snapshot(&self) -> Vec<KernelStats> {
        self.entries
            .lock()
            .iter()
            .map(|(name, c)| KernelStats {
                name,
                counters: c.snapshot(),
            })
            .collect()
    }
}

/// A dual-charging handle returned by [`crate::Device::charge`]: every
/// `add_*` call lands in both the device-wide tally and the named kernel's
/// tally, preserving the attribution invariant at manual charge sites.
///
/// A *top-level* handle (no enclosing launch or scope) is itself an
/// attribution unit: it tallies its own charges and advances the device's
/// modeled clock by them when dropped (one timeline span per launch on a
/// profiled device). Charges issued under an active scope are covered by
/// the enclosing unit instead.
pub struct Charge<'d> {
    pub(crate) global: &'d PerfCounters,
    pub(crate) kernel: Arc<PerfCounters>,
    /// The device and attribution name, present iff this handle is
    /// top-level.
    pub(crate) unit: Option<(&'d crate::Device, &'static str)>,
    /// Self-tally for the drop-time clock advance; only maintained when
    /// `unit` is set.
    pub(crate) tally: std::cell::Cell<CounterSnapshot>,
}

impl Charge<'_> {
    pub fn add_transactions(&self, n: u64) {
        self.tally_event(Event::Transactions, n);
    }

    pub fn add_atomics(&self, n: u64) {
        self.tally_event(Event::Atomics, n);
    }

    pub fn add_ballots(&self, n: u64) {
        self.tally_event(Event::Ballots, n);
    }

    pub fn add_shuffles(&self, n: u64) {
        self.tally_event(Event::Shuffles, n);
    }

    pub fn add_launches(&self, n: u64) {
        self.tally_event(Event::Launches, n);
    }

    pub fn add_warps(&self, n: u64) {
        self.tally_event(Event::Warps, n);
    }

    pub fn add_words_allocated(&self, n: u64) {
        self.tally_event(Event::WordsAllocated, n);
    }

    /// The one tally path: global, kernel, and (top-level) the handle's
    /// own tally.
    fn tally_event(&self, event: Event, n: u64) {
        self.global.add_event(event, n);
        self.kernel.add_event(event, n);
        if self.unit.is_some() {
            let mut t = self.tally.get();
            t.add_event(event, n);
            self.tally.set(t);
        }
    }
}

impl Drop for Charge<'_> {
    fn drop(&mut self) {
        if let Some((dev, name)) = self.unit {
            let tally = self.tally.get();
            if tally != CounterSnapshot::default() {
                dev.end_charge(name, tally);
            }
        }
    }
}

/// One kernel's counter totals at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    pub name: &'static str,
    pub counters: CounterSnapshot,
}

/// A point-in-time capture of the global tally plus every kernel's tally.
///
/// The usual pattern mirrors [`CounterSnapshot`]: take one before a phase,
/// one after, and [`TraceSnapshot::delta`] them.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    pub global: CounterSnapshot,
    pub kernels: Vec<KernelStats>,
}

impl TraceSnapshot {
    /// Per-kernel and global difference `self - earlier`. Kernels whose
    /// delta is all-zero are dropped; kernels absent from `earlier` keep
    /// their full counts (the registry only grows).
    pub fn delta(&self, earlier: &TraceSnapshot) -> TraceSnapshot {
        let zero = CounterSnapshot::default();
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let before = earlier
                    .kernels
                    .iter()
                    .find(|e| e.name == k.name)
                    .map(|e| e.counters)
                    .unwrap_or_default();
                KernelStats {
                    name: k.name,
                    counters: k.counters.delta(&before),
                }
            })
            .filter(|k| k.counters != zero)
            .collect();
        TraceSnapshot {
            global: self.global.delta(&earlier.global),
            kernels,
        }
    }

    /// Event-wise sum of every kernel's counters. Equals [`Self::global`]
    /// by construction — the attribution invariant tests assert it.
    pub fn kernel_sum(&self) -> CounterSnapshot {
        self.kernels.iter().map(|k| k.counters).sum()
    }
}

/// One row of a [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    pub name: String,
    pub counters: CounterSnapshot,
    /// Modeled GPU seconds for this kernel's counters.
    pub modeled_s: f64,
}

/// A renderable, serializable per-kernel breakdown of a measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-kernel rows, heaviest (by modeled time) first.
    pub rows: Vec<TraceRow>,
    /// The phase's global totals.
    pub total: TraceRow,
    /// Sanitizer violations recorded during the phase (empty when the
    /// sanitizer is off or the run was clean). See [`crate::sanitizer`].
    pub findings: Vec<Finding>,
    /// Metric summaries (histogram p50/p95/p99/max, gauge high-waters) from
    /// an attached profiler (empty when no profiler ran). See
    /// [`crate::metrics`].
    pub metrics: Vec<MetricSummary>,
}

impl TraceReport {
    /// Build a report from a (usually delta'd) snapshot, priced by
    /// [`CostModel::titan_v`] like the device clock.
    pub fn new(trace: &TraceSnapshot) -> Self {
        let model = CostModel::titan_v();
        let mut rows: Vec<TraceRow> = trace
            .kernels
            .iter()
            .map(|k| TraceRow {
                name: k.name.to_string(),
                counters: k.counters,
                modeled_s: model.seconds(&k.counters),
            })
            .collect();
        rows.sort_by(|a, b| b.modeled_s.total_cmp(&a.modeled_s));
        TraceReport {
            rows,
            total: TraceRow {
                name: "total".to_string(),
                counters: trace.global,
                modeled_s: model.seconds(&trace.global),
            },
            findings: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Attach sanitizer findings (e.g. from
    /// [`crate::Device::sanitizer_findings`]) to the report.
    pub fn with_findings(mut self, findings: Vec<Finding>) -> Self {
        self.findings = findings;
        self
    }

    /// Attach metric summaries (e.g. from
    /// [`crate::profiler::Profiler::metric_summaries`]) to the report.
    pub fn with_metrics(mut self, metrics: Vec<MetricSummary>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Event-wise sum over the per-kernel rows (excluding the total row).
    pub fn kernel_sum(&self) -> CounterSnapshot {
        self.rows.iter().map(|r| r.counters).sum()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        const COLUMNS: [(&str, Event); 7] = [
            ("launches", Event::Launches),
            ("warps", Event::Warps),
            ("transactions", Event::Transactions),
            ("atomics", Event::Atomics),
            ("ballots", Event::Ballots),
            ("shuffles", Event::Shuffles),
            ("alloc words", Event::WordsAllocated),
        ];
        let mut headers = vec!["kernel"];
        headers.extend(COLUMNS.map(|(header, _)| header));
        headers.push("modeled ms");
        let row_cells = |r: &TraceRow| {
            let mut cells = vec![r.name.clone()];
            cells.extend(COLUMNS.map(|(_, e)| r.counters.count(e).to_string()));
            cells.push(format!("{:.4}", r.modeled_s * 1e3));
            cells
        };
        let mut body: Vec<Vec<String>> = self.rows.iter().map(row_cells).collect();
        body.push(row_cells(&self.total));
        let (lines, rule) = aligned_table(&headers, &body, 1, "");
        let (header, rows) = lines.split_first().expect("a header line");
        let (total, kernels) = rows.split_last().expect("a total line");
        let mut out = header.clone() + &rule;
        out.extend(kernels.iter().map(String::as_str));
        out.push_str(&rule);
        out.push_str(total);
        if !self.metrics.is_empty() {
            out.push_str(&format!("\nmetrics ({}):\n", self.metrics.len()));
            let rows: Vec<Vec<String>> = self
                .metrics
                .iter()
                .map(|m| {
                    let mut cells = vec![m.name.clone(), m.kind.as_str().to_string()];
                    cells.extend(
                        [m.count, m.sum, m.max, m.p50, m.p95, m.p99].map(|n| n.to_string()),
                    );
                    cells
                })
                .collect();
            let headers = ["metric", "kind", "count", "sum", "max", "p50", "p95", "p99"];
            out.push_str(&aligned_table(&headers, &rows, 2, "  ").0.concat());
        }
        if !self.findings.is_empty() {
            out.push_str(&format!(
                "\nsanitizer findings ({}):\n",
                self.findings.len()
            ));
            for f in &self.findings {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out
    }

    /// Serialize to a JSON value; its rendering (compact or pretty)
    /// round-trips exactly through [`Self::from_json`].
    pub fn to_json(&self) -> Json {
        let row_json = |r: &TraceRow| {
            let mut fields = vec![("name".into(), Json::str(&r.name))];
            fields.extend(r.counters.iter().map(|(k, n)| (k.into(), Json::u64(n))));
            fields.push(("modeled_s".into(), Json::f64(r.modeled_s)));
            Json::Obj(fields)
        };
        let finding_json = |f: &Finding| {
            Json::Obj(vec![
                ("kind".into(), Json::str(f.kind.as_str())),
                ("addr".into(), Json::u64(f.addr as u64)),
                ("kernel".into(), Json::str(&f.kernel)),
                ("warp".into(), Json::u64(f.warp as u64)),
                ("era".into(), Json::u64(f.era)),
                ("other_kernel".into(), Json::str(&f.other_kernel)),
                ("other_warp".into(), Json::u64(f.other_warp as u64)),
                ("note".into(), Json::str(&f.note)),
            ])
        };
        let metric_json = |m: &MetricSummary| {
            Json::Obj(vec![
                ("name".into(), Json::str(&m.name)),
                ("kind".into(), Json::str(m.kind.as_str())),
                ("count".into(), Json::u64(m.count)),
                ("sum".into(), Json::u64(m.sum)),
                ("max".into(), Json::u64(m.max)),
                ("p50".into(), Json::u64(m.p50)),
                ("p95".into(), Json::u64(m.p95)),
                ("p99".into(), Json::u64(m.p99)),
            ])
        };
        Json::Obj(vec![
            (
                "kernels".into(),
                Json::Arr(self.rows.iter().map(row_json).collect()),
            ),
            ("total".into(), row_json(&self.total)),
            (
                "sanitizer_findings".into(),
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            (
                "metrics".into(),
                Json::Arr(self.metrics.iter().map(metric_json).collect()),
            ),
        ])
    }

    /// Parse a report rendered from [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<TraceReport, String> {
        let v = Json::parse(text)?;
        let parse_row = |j: &Json| -> Result<TraceRow, String> {
            let name = j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("missing 'name'")?
                .to_string();
            let mut events = [0; EVENTS];
            for (n, key) in events.iter_mut().zip(CounterSnapshot::NAMES) {
                *n = j
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("missing counter '{key}'"))?;
            }
            Ok(TraceRow {
                name,
                counters: CounterSnapshot::from_array(events),
                modeled_s: j
                    .get("modeled_s")
                    .and_then(Json::as_f64)
                    .ok_or("missing 'modeled_s'")?,
            })
        };
        let rows = v
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("missing 'kernels' array")?
            .iter()
            .map(parse_row)
            .collect::<Result<Vec<_>, _>>()?;
        let total = parse_row(v.get("total").ok_or("missing 'total'")?)?;
        let parse_finding = |j: &Json| -> Result<Finding, String> {
            let s = |key| field(j, "finding", key, Json::as_str).map(str::to_string);
            let n = |key| field(j, "finding", key, Json::as_u64);
            let kind_str = s("kind")?;
            Ok(Finding {
                kind: FindingKind::parse(&kind_str)
                    .ok_or_else(|| format!("unknown finding kind '{kind_str}'"))?,
                addr: n("addr")? as crate::memory::Addr,
                kernel: s("kernel")?,
                warp: n("warp")? as u32,
                era: n("era")?,
                other_kernel: s("other_kernel")?,
                other_warp: n("other_warp")? as u32,
                note: s("note")?,
            })
        };
        let findings = field(&v, "report", "sanitizer_findings", Json::as_arr)?
            .iter()
            .map(parse_finding)
            .collect::<Result<_, _>>()?;
        let parse_metric = |j: &Json| -> Result<MetricSummary, String> {
            let s = |key| field(j, "metric", key, Json::as_str).map(str::to_string);
            let n = |key| field(j, "metric", key, Json::as_u64);
            let kind_str = s("kind")?;
            Ok(MetricSummary {
                name: s("name")?,
                kind: MetricKind::parse(&kind_str)
                    .ok_or_else(|| format!("unknown metric kind '{kind_str}'"))?,
                count: n("count")?,
                sum: n("sum")?,
                max: n("max")?,
                p50: n("p50")?,
                p95: n("p95")?,
                p99: n("p99")?,
            })
        };
        let metrics = field(&v, "report", "metrics", Json::as_arr)?
            .iter()
            .map(parse_metric)
            .collect::<Result<_, _>>()?;
        Ok(TraceReport {
            rows,
            total,
            findings,
            metrics,
        })
    }
}

/// Field `key` of the report section entry `j`, read by `as_t`; the error
/// names the section and the field.
fn field<'j, T>(
    j: &'j Json,
    section: &str,
    key: &str,
    as_t: fn(&'j Json) -> Option<T>,
) -> Result<T, String> {
    j.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("missing {section} field '{key}'"))
}

/// Lay `rows` out under `headers` in columns two spaces apart, each as
/// wide as its widest cell: the first `left` columns left-aligned, the
/// rest right-aligned, every line prefixed by `indent`. Returns the header
/// line and one line per row, plus a rule line of dashes.
fn aligned_table(
    headers: &[&str],
    rows: &[Vec<String>],
    left: usize,
    indent: &str,
) -> (Vec<String>, String) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut line = indent.to_string();
        for (i, (cell, w)) in cells.into_iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i < left {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("{cell:>w$}"));
            }
        }
        line.push('\n');
        line
    };
    let mut lines = vec![line(headers.to_vec())];
    lines.extend(
        rows.iter()
            .map(|r| line(r.iter().map(String::as_str).collect())),
    );
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let rule = line(dashes.iter().map(String::as_str).collect());
    (lines, rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(transactions: u64, launches: u64) -> CounterSnapshot {
        CounterSnapshot {
            transactions,
            launches,
            ..Default::default()
        }
    }

    #[test]
    fn registry_keeps_first_launch_order() {
        let r = KernelRegistry::new();
        r.counters("b").add_event(Event::Transactions, 1);
        r.counters("a").add_event(Event::Transactions, 2);
        r.counters("b").add_event(Event::Transactions, 3);
        let s = r.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "b");
        assert_eq!(s[0].counters.transactions, 4);
        assert_eq!(s[1].name, "a");
    }

    #[test]
    fn snapshot_delta_drops_idle_kernels() {
        let before = TraceSnapshot {
            global: snap(10, 1),
            kernels: vec![KernelStats {
                name: "x",
                counters: snap(10, 1),
            }],
        };
        let after = TraceSnapshot {
            global: snap(25, 2),
            kernels: vec![
                KernelStats {
                    name: "x",
                    counters: snap(10, 1),
                },
                KernelStats {
                    name: "y",
                    counters: snap(15, 1),
                },
            ],
        };
        let d = after.delta(&before);
        assert_eq!(d.global, snap(15, 1));
        assert_eq!(d.kernels.len(), 1, "idle kernel 'x' dropped");
        assert_eq!(d.kernels[0].name, "y");
        assert_eq!(d.kernel_sum(), d.global);
    }

    #[test]
    fn report_sorts_rows_by_modeled_time() {
        let trace = TraceSnapshot {
            global: snap(1100, 2),
            kernels: vec![
                KernelStats {
                    name: "cheap",
                    counters: snap(100, 1),
                },
                KernelStats {
                    name: "hot",
                    counters: snap(1000, 1),
                },
            ],
        };
        let report = TraceReport::new(&trace);
        assert_eq!(report.rows[0].name, "hot");
        assert_eq!(report.kernel_sum(), trace.global);
        let rendered = report.render();
        assert!(rendered.contains("hot"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let trace = TraceSnapshot {
            global: CounterSnapshot {
                transactions: 12345,
                atomics: 67,
                ballots: 89,
                shuffles: 10,
                launches: 3,
                warps: 40,
                words_allocated: u64::MAX,
            },
            kernels: vec![
                KernelStats {
                    name: "edge_insert",
                    counters: snap(12000, 2),
                },
                KernelStats {
                    name: "(host)",
                    counters: snap(345, 1),
                },
            ],
        };
        let report = TraceReport::new(&trace);
        let parsed = TraceReport::from_json(&report.to_json().render_pretty()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn findings_roundtrip_and_render() {
        use crate::sanitizer::NO_WARP;
        let trace = TraceSnapshot {
            global: snap(10, 1),
            kernels: vec![KernelStats {
                name: "edge_insert",
                counters: snap(10, 1),
            }],
        };
        let finding = Finding {
            kind: FindingKind::RaceWriteWrite,
            addr: 0x40,
            kernel: "edge_insert".into(),
            warp: 3,
            era: 7,
            other_kernel: "edge_insert".into(),
            other_warp: 5,
            note: "plain write races with plain write by `edge_insert` (warp 5)".into(),
        };
        let clean = Finding {
            kind: FindingKind::UseAfterFree,
            addr: 0x80,
            kernel: "(host)".into(),
            warp: NO_WARP,
            era: 0,
            other_kernel: String::new(),
            other_warp: NO_WARP,
            note: "freed slab".into(),
        };
        let report = TraceReport::new(&trace).with_findings(vec![finding, clean]);
        let parsed = TraceReport::from_json(&report.to_json().render_pretty()).unwrap();
        assert_eq!(parsed, report);
        let rendered = report.render();
        assert!(rendered.contains("sanitizer findings (2):"));
        assert!(rendered.contains("race-write-write"));
    }

    #[test]
    fn metrics_roundtrip_and_render() {
        use crate::metrics::MetricKind;
        let trace = TraceSnapshot {
            global: snap(10, 1),
            kernels: vec![KernelStats {
                name: "edge_insert",
                counters: snap(10, 1),
            }],
        };
        let metrics = vec![
            MetricSummary {
                name: "slab_hash.probe_depth".into(),
                kind: MetricKind::Histogram,
                count: 1000,
                sum: 1700,
                max: 9,
                p50: 1,
                p95: 4,
                p99: 8,
            },
            MetricSummary {
                name: "slab_alloc.live_slabs".into(),
                kind: MetricKind::Gauge,
                count: 64,
                sum: 12,
                max: 48,
                p50: 12,
                p95: 12,
                p99: 12,
            },
        ];
        let report = TraceReport::new(&trace).with_metrics(metrics);
        let parsed = TraceReport::from_json(&report.to_json().render_pretty()).unwrap();
        assert_eq!(parsed, report);
        let rendered = report.render();
        assert!(rendered.contains("metrics (2):"));
        assert!(rendered.contains("slab_hash.probe_depth"));
        assert!(rendered.contains("histogram"));
        assert!(rendered.contains("gauge"));
        assert!(rendered.contains("p95"));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(TraceReport::from_json("{}").is_err());
        assert!(TraceReport::from_json("[1, 2]").is_err());
        assert!(TraceReport::from_json(r#"{"kernels": [{"name": "x"}]}"#).is_err());
    }

    /// Every malformed-input path returns an `Err` naming the offending
    /// field — never panics, never silently defaults.
    #[test]
    fn from_json_errors_name_the_offending_field() {
        let good = TraceReport::new(&TraceSnapshot {
            global: snap(10, 1),
            kernels: vec![KernelStats {
                name: "edge_insert",
                counters: snap(10, 1),
            }],
        })
        .to_json()
        .render_pretty();

        // Truncated document: the JSON parser itself reports it.
        let truncated = &good[..good.len() / 2];
        assert!(TraceReport::from_json(truncated).is_err());

        // Wrong-type counter field (string where a u64 belongs).
        let wrong_type = good.replacen(r#""atomics": 0"#, r#""atomics": "zero""#, 1);
        assert_ne!(wrong_type, good, "replacement must have applied");
        let err = TraceReport::from_json(&wrong_type).unwrap_err();
        assert!(err.contains("'atomics'"), "{err}");

        // Negative counter value: rejected as non-u64, naming the field.
        let negative = good.replacen(r#""launches": 1"#, r#""launches": -1"#, 1);
        assert_ne!(negative, good);
        let err = TraceReport::from_json(&negative).unwrap_err();
        assert!(err.contains("'launches'"), "{err}");

        // A kernel row that is not an object at all.
        let err = TraceReport::from_json(r#"{"kernels": [42], "total": {}}"#).unwrap_err();
        assert!(err.contains("'name'"), "{err}");

        // A kernel row missing its counters entirely.
        let err = TraceReport::from_json(
            r#"{"kernels": [{"name": "mystery", "modeled_s": 0.5}], "total": {}}"#,
        )
        .unwrap_err();
        assert!(err.contains("counter"), "{err}");

        // Missing total row.
        let err = TraceReport::from_json(r#"{"kernels": []}"#).unwrap_err();
        assert!(err.contains("'total'"), "{err}");

        // Malformed metric entries: wrong-kind string and missing field.
        let base = r#"{"kernels": [], "total": {"name": "total", "transactions": 0,
            "atomics": 0, "ballots": 0, "shuffles": 0, "launches": 0, "warps": 0,
            "words_allocated": 0, "modeled_s": 0.0}, "sanitizer_findings": [],
            "metrics": [METRIC]}"#;
        let bad_kind = base.replace(
            "METRIC",
            r#"{"name": "m", "kind": "exotic", "count": 0, "sum": 0, "max": 0, "p50": 0, "p95": 0}"#,
        );
        let err = TraceReport::from_json(&bad_kind).unwrap_err();
        assert!(err.contains("unknown metric kind 'exotic'"), "{err}");
        let no_p95 = base.replace(
            "METRIC",
            r#"{"name": "m", "kind": "gauge", "count": 0, "sum": 0, "max": 0, "p50": 0}"#,
        );
        let err = TraceReport::from_json(&no_p95).unwrap_err();
        assert!(err.contains("missing metric field 'p95'"), "{err}");

        // Every section `to_json` writes is required, even when empty.
        for key in ["sanitizer_findings", "metrics"] {
            let missing = good.replacen(&format!("\"{key}\""), "\"absent\"", 1);
            assert_ne!(missing, good);
            let err = TraceReport::from_json(&missing).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{err}");
        }
    }
}
