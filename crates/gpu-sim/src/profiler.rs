//! Device timeline profiler: modeled-clock spans, host phases, allocator
//! instants, and Chrome Trace Event export.
//!
//! Attached opt-in via [`crate::DeviceConfig::with_profiler`] (or a
//! process-wide default, see [`set_default_profiler`]) with the same
//! discipline as the sanitizer: when off it costs one `Option` check per
//! hook and charges nothing; when on it still charges nothing — counters
//! are byte-identical either way.
//!
//! ## The modeled clock
//!
//! The profiler keeps no clock of its own: it stamps events from the
//! device's modeled clock ([`crate::Device::clock_s`]), which runs whether
//! or not a profiler is attached. Every **top-level attribution unit** — a
//! named launch, a [`crate::Device::fused_scope`], a top-level `memset`, or
//! a dropped top-level [`crate::trace::Charge`] — deltas the global
//! counters around itself and advances the clock by
//! `CostModel::titan_v().seconds(delta)`; on a profiled device the same
//! interval is appended as one span. Launch scopes are host-serial (the
//! scope stack guarantees units never overlap), and every cost-bearing
//! charge lands inside some unit, so the sum of span durations equals the
//! clock up to float rounding — far below one 5 µs launch-overhead
//! quantum. A `Charge` carrying `n > 1` launches (e.g. a multi-pass sort
//! charged manually) advances the clock in `n` equal steps, one span each,
//! so spans and kernel launches stay 1:1. [`crate::Device::wait`] advances
//! it by an explicit duration (retry backoff), recorded as a host span with
//! zero counters.
//!
//! Host [`PhaseEvent`] ranges (`device.phase("bulk_build")` guards) and
//! [`InstantEvent`]s ([`crate::Device::instant`]: allocator, fault and
//! shard-health events) are stamped from the same clock: an instant
//! recorded *inside* a launch carries the enclosing span's start time,
//! because the modeled clock only advances between units.
//!
//! Each event class lives in its own bounded ring (oldest events are
//! overwritten past [`ProfilerConfig::ring_capacity`]; drops are counted),
//! so a flood of allocator instants can never evict kernel spans.
//!
//! ## Export
//!
//! [`Profiler::chrome_events`] renders the timeline as Chrome Trace Event
//! Format objects — `ph:"X"` complete spans with microsecond `ts`/`dur`,
//! `ph:"i"` instants — loadable in `chrome://tracing` or Perfetto.
//! [`chrome_trace_json`] / [`parse_chrome_trace`] round-trip exactly
//! through [`crate::json`]. Distribution metrics live in the attached
//! [`MetricsRegistry`] (see [`crate::metrics`]); phase durations are also
//! folded into it as `phase.<name>` histograms in microseconds.

use crate::counters::CounterSnapshot;
use crate::device::Clock;
use crate::json::Json;
use crate::metrics::{MetricSummary, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Construction-time profiler parameters. Plain `Copy` data so it can ride
/// in [`crate::DeviceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilerConfig {
    /// Maximum retained events *per class* (spans, phases, instants).
    /// Older events are overwritten once a class's ring is full; the drop
    /// count is reported per class.
    pub ring_capacity: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            ring_capacity: 1 << 16,
        }
    }
}

impl ProfilerConfig {
    /// Set the per-class event ring capacity.
    pub fn with_ring_capacity(mut self, ring_capacity: usize) -> Self {
        self.ring_capacity = ring_capacity.max(1);
        self
    }
}

/// Process-wide default profiler config, consulted by
/// [`crate::DeviceConfig::default`]. Code that builds its devices
/// internally (the graph backends) picks this up without API changes —
/// the runtime analogue of the `sanitize` cargo feature's compile-time
/// default.
static DEFAULT_PROFILER: std::sync::Mutex<Option<ProfilerConfig>> = std::sync::Mutex::new(None);

/// Install (or clear, with `None`) the process-wide default profiler
/// config picked up by every subsequently constructed default
/// [`crate::DeviceConfig`]. Intended for profiling binaries; tests should
/// prefer the explicit [`crate::DeviceConfig::with_profiler`].
pub fn set_default_profiler(cfg: Option<ProfilerConfig>) {
    *DEFAULT_PROFILER.lock().unwrap() = cfg;
}

/// The current process-wide default profiler config, if any.
pub fn default_profiler() -> Option<ProfilerConfig> {
    *DEFAULT_PROFILER.lock().unwrap()
}

/// Causal trace context: identifies the client operation on whose behalf
/// subsequently recorded spans and instants run. Minted per client op by
/// the batch router; [`crate::DeviceGroup::dispatch`] takes one per shard
/// and installs it for the dispatch ([`crate::Device::trace_scope`]), so
/// every span a coalesced batch charges can be walked back to client
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Submitting session (client identity). [`TraceCtx::NO_SESSION`] for
    /// traffic not tied to a session (bulk builds, maintenance).
    pub session: u64,
    /// Client op id (or batch node id for coalesced dispatch), unique for
    /// the minting router's lifetime.
    pub op: u64,
}

impl TraceCtx {
    /// Session id used for traffic that no client session submitted.
    pub const NO_SESSION: u64 = u64::MAX;

    /// The context for `op` submitted by `session`.
    pub fn root(session: u64, op: u64) -> Self {
        TraceCtx { session, op }
    }
}

/// One kernel-launch span on the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// The device clock when the unit started.
    pub start_s: f64,
    /// `CostModel::seconds` of this unit's counter delta (or the explicit
    /// duration of a [`crate::Device::wait`]).
    pub dur_s: f64,
    /// The unit's counter delta (carried into Chrome trace `args`).
    pub counters: CounterSnapshot,
    /// The trace context active when the span was recorded, if any.
    pub ctx: Option<TraceCtx>,
}

/// One host-phase range opened by [`crate::Device::phase`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEvent {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
}

/// One point event (allocator activity, OOM, injected fault).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    pub name: &'static str,
    pub at_s: f64,
    pub detail: String,
    /// The trace context active when the instant was stamped, if any —
    /// fault instants inherit the op whose dispatch tripped them.
    pub ctx: Option<TraceCtx>,
}

/// A bounded overwrite-oldest event ring.
#[derive(Debug)]
struct Ring<T> {
    events: VecDeque<T>,
    cap: usize,
    recorded: u64,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring {
            events: VecDeque::new(),
            cap,
            recorded: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, e: T) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
        self.recorded += 1;
    }

    fn to_vec(&self) -> Vec<T> {
        self.events.iter().cloned().collect()
    }
}

#[derive(Debug)]
struct ProfState {
    spans: Ring<SpanEvent>,
    host_spans: Ring<SpanEvent>,
    phases: Ring<PhaseEvent>,
    instants: Ring<InstantEvent>,
    /// Active trace-context stack; the top stamps recorded events.
    ctx_stack: Vec<TraceCtx>,
}

/// Retained-event counts and drop counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineStats {
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    pub host_spans_recorded: u64,
    pub host_spans_dropped: u64,
    pub phases_recorded: u64,
    pub phases_dropped: u64,
    pub instants_recorded: u64,
    pub instants_dropped: u64,
}

/// A copy of the retained timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Kernel-launch spans — exactly one per charged launch.
    pub spans: Vec<SpanEvent>,
    /// Host-side costed work that is not a kernel launch: top-level
    /// charges carrying no launch (baseline per-element traffic models)
    /// top-level [`crate::Device::unlaunched_scope`] sections, and
    /// [`crate::Device::wait`]s. Each records one advance of the modeled
    /// clock, as a kernel span does, so kernel spans plus host spans
    /// together account for all modeled time.
    pub host_spans: Vec<SpanEvent>,
    pub phases: Vec<PhaseEvent>,
    pub instants: Vec<InstantEvent>,
    pub stats: TimelineStats,
}

/// The device timeline profiler. One per [`crate::Device`] when attached;
/// all hooks are reached through `device.profiler()`.
#[derive(Debug)]
pub struct Profiler {
    state: Mutex<ProfState>,
    metrics: MetricsRegistry,
}

impl Profiler {
    pub fn new(cfg: ProfilerConfig) -> Self {
        Profiler {
            state: Mutex::new(ProfState {
                spans: Ring::new(cfg.ring_capacity),
                host_spans: Ring::new(cfg.ring_capacity),
                phases: Ring::new(cfg.ring_capacity),
                instants: Ring::new(cfg.ring_capacity),
                ctx_stack: Vec::new(),
            }),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The attached metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Append one span covering `[start_s, start_s + dur_s)` on the device
    /// clock, stamped with the active trace context: a kernel span, or a
    /// host span (see [`Timeline::host_spans`]) when `host`. Called by the
    /// device as it advances its clock.
    pub(crate) fn record_span(
        &self,
        host: bool,
        name: &'static str,
        start_s: f64,
        dur_s: f64,
        counters: CounterSnapshot,
    ) {
        let mut st = self.state.lock();
        let ctx = st.ctx_stack.last().copied();
        let ring = if host {
            &mut st.host_spans
        } else {
            &mut st.spans
        };
        ring.push(SpanEvent {
            name,
            start_s,
            dur_s,
            counters,
            ctx,
        });
    }

    /// Push `ctx` onto the context stack. Prefer the RAII
    /// [`crate::Device::trace_scope`]; this low-level pair exists for
    /// guards that outlive a borrow.
    pub fn push_ctx(&self, ctx: TraceCtx) {
        self.state.lock().ctx_stack.push(ctx);
    }

    /// Pop the top of the context stack (no-op when empty).
    pub fn pop_ctx(&self) {
        self.state.lock().ctx_stack.pop();
    }

    /// Close a phase opened at device time `start_s` and ending at
    /// `end_s`: appends the range and folds its duration into the
    /// `phase.<name>` histogram (µs). Called by [`PhaseGuard::drop`].
    pub(crate) fn end_phase(&self, name: &'static str, start_s: f64, end_s: f64) {
        let dur_s = (end_s - start_s).max(0.0);
        self.state.lock().phases.push(PhaseEvent {
            name,
            start_s,
            dur_s,
        });
        self.metrics
            .record(&format!("phase.{name}"), (dur_s * 1e6).round() as u64);
    }

    /// Record a point event at device time `at_s`, stamped with the active
    /// trace context (fault instants inherit the dispatching op). Called by
    /// [`crate::Device::instant`], which supplies the device clock.
    pub(crate) fn instant(&self, at_s: f64, name: &'static str, detail: impl Into<String>) {
        let mut st = self.state.lock();
        let ctx = st.ctx_stack.last().copied();
        st.instants.push(InstantEvent {
            name,
            at_s,
            detail: detail.into(),
            ctx,
        });
    }

    /// Copy out the retained timeline.
    pub fn timeline(&self) -> Timeline {
        let st = self.state.lock();
        Timeline {
            spans: st.spans.to_vec(),
            host_spans: st.host_spans.to_vec(),
            phases: st.phases.to_vec(),
            instants: st.instants.to_vec(),
            stats: TimelineStats {
                spans_recorded: st.spans.recorded,
                spans_dropped: st.spans.dropped,
                host_spans_recorded: st.host_spans.recorded,
                host_spans_dropped: st.host_spans.dropped,
                phases_recorded: st.phases.recorded,
                phases_dropped: st.phases.dropped,
                instants_recorded: st.instants.recorded,
                instants_dropped: st.instants.dropped,
            },
        }
    }

    /// Summaries of every attached metric (see
    /// [`crate::trace::TraceReport::with_metrics`]).
    pub fn metric_summaries(&self) -> Vec<MetricSummary> {
        self.metrics.summaries()
    }

    /// Render the retained timeline as Chrome Trace events under process
    /// id `pid` (one pid per device/backend when merging timelines):
    /// tid 0 = host phases, tid 1 = kernel spans (counter deltas in
    /// `args`), tid 2 = allocator/fault instants, tid 3 = host-side
    /// costed work that is not a kernel launch.
    pub fn chrome_events(&self, pid: u64) -> Vec<ChromeEvent> {
        let t = self.timeline();
        let mut out = Vec::with_capacity(
            t.spans.len() + t.host_spans.len() + t.phases.len() + t.instants.len(),
        );
        for p in &t.phases {
            out.push(ChromeEvent {
                name: p.name.to_string(),
                ph: "X".to_string(),
                ts_us: p.start_s * 1e6,
                dur_us: p.dur_s * 1e6,
                pid,
                tid: TID_PHASES,
                args: Vec::new(),
                flow_id: None,
            });
        }
        let span_event = |s: &SpanEvent, tid: u64| {
            let mut args: Vec<(String, Json)> = s
                .counters
                .iter()
                .map(|(event, n)| (event.into(), Json::u64(n)))
                .collect();
            if let Some(ctx) = s.ctx {
                args.push(("trace_session".into(), Json::u64(ctx.session)));
                args.push(("trace_op".into(), Json::u64(ctx.op)));
            }
            ChromeEvent {
                name: s.name.to_string(),
                ph: "X".to_string(),
                ts_us: s.start_s * 1e6,
                dur_us: s.dur_s * 1e6,
                pid,
                tid,
                args,
                flow_id: None,
            }
        };
        for s in &t.spans {
            out.push(span_event(s, TID_SPANS));
        }
        for s in &t.host_spans {
            out.push(span_event(s, TID_HOST));
        }
        for i in &t.instants {
            let mut args = vec![("detail".into(), Json::str(&i.detail))];
            if let Some(ctx) = i.ctx {
                args.push(("trace_session".into(), Json::u64(ctx.session)));
                args.push(("trace_op".into(), Json::u64(ctx.op)));
            }
            out.push(ChromeEvent {
                name: i.name.to_string(),
                ph: "i".to_string(),
                ts_us: i.at_s * 1e6,
                dur_us: 0.0,
                pid,
                tid: TID_INSTANTS,
                args,
                flow_id: None,
            });
        }
        out
    }
}

/// Thread row for host-phase ranges in the Chrome trace.
pub const TID_PHASES: u64 = 0;
/// Thread row for kernel spans in the Chrome trace.
pub const TID_SPANS: u64 = 1;
/// Thread row for allocator/fault instants in the Chrome trace.
pub const TID_INSTANTS: u64 = 2;
/// Thread row for host-side costed work that is not a kernel launch.
pub const TID_HOST: u64 = 3;

/// Closes a phase range on drop. Returned by [`crate::Device::phase`];
/// inert (and free) when the device has no profiler. Bind it —
/// `let _phase = dev.phase("bulk_build");` — a discarded guard closes the
/// phase immediately (`#[must_use]`; clippy's `-D warnings` rejects it).
#[must_use = "binding the guard keeps the phase open; a discarded guard closes it immediately"]
pub struct PhaseGuard {
    /// The profiler, the device clock, the phase name and its start time.
    pub(crate) inner: Option<(std::sync::Arc<Profiler>, Clock, &'static str, f64)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((prof, clock, name, start_s)) = self.inner.take() {
            let end_s = *clock.lock();
            prof.end_phase(name, start_s, end_s);
        }
    }
}

/// Installs a [`TraceCtx`] on a profiler's context stack for its lifetime:
/// every span and instant recorded while the scope is live is stamped with
/// the context. Returned by [`crate::Device::trace_scope`]; inert (and
/// free) when the device has no profiler. Bind it — a discarded scope
/// closes immediately and nothing gets stamped.
#[must_use = "binding the scope keeps the trace context installed; a discarded scope removes it immediately"]
pub struct TraceScope {
    inner: Option<std::sync::Arc<Profiler>>,
}

impl TraceScope {
    /// Install `ctx` on `prof` (when present) until the scope drops.
    pub fn new(prof: Option<std::sync::Arc<Profiler>>, ctx: TraceCtx) -> Self {
        if let Some(p) = &prof {
            p.push_ctx(ctx);
        }
        TraceScope { inner: prof }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(p) = self.inner.take() {
            p.pop_ctx();
        }
    }
}

/// One Chrome Trace Event Format entry, as exported and re-parsed here.
/// `ph` is `"X"` (complete span, `dur` serialized), `"i"` (instant), or a
/// flow event `"s"`/`"t"`/`"f"` (start/step/finish, `id` serialized) —
/// the arrows Perfetto draws between an op's spans across shard pids.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    pub ph: String,
    pub ts_us: f64,
    /// 0.0 for instants (not serialized for `ph != "X"`).
    pub dur_us: f64,
    pub pid: u64,
    pub tid: u64,
    /// Event arguments, rendered under `args` when non-empty.
    pub args: Vec<(String, Json)>,
    /// Flow binding id (serialized as `id`); `Some` exactly for flow
    /// events (`ph` in `"s"`/`"t"`/`"f"`).
    pub flow_id: Option<u64>,
}

impl ChromeEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::str(&self.name)),
            ("ph".to_string(), Json::str(&self.ph)),
            ("ts".to_string(), Json::f64(self.ts_us)),
            ("pid".to_string(), Json::u64(self.pid)),
            ("tid".to_string(), Json::u64(self.tid)),
        ];
        if self.ph == "X" {
            fields.push(("dur".to_string(), Json::f64(self.dur_us)));
        }
        if self.ph == "i" {
            // Instant scope: thread-scoped tick marks.
            fields.push(("s".to_string(), Json::str("t")));
        }
        if let Some(id) = self.flow_id {
            fields.push(("id".to_string(), Json::u64(id)));
        }
        if self.ph == "f" {
            // Bind the flow finish to the enclosing slice, not the next.
            fields.push(("bp".to_string(), Json::str("e")));
        }
        if !self.args.is_empty() {
            fields.push(("args".to_string(), Json::Obj(self.args.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(idx: usize, j: &Json) -> Result<ChromeEvent, String> {
        let s = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event {idx}: missing '{key}'"))
        };
        let ph = s("ph")?;
        let dur_us = if ph == "X" {
            j.get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {idx}: missing 'dur'"))?
        } else {
            0.0
        };
        let flow_id = if matches!(ph.as_str(), "s" | "t" | "f") {
            Some(
                j.get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {idx}: flow event missing 'id'"))?,
            )
        } else {
            None
        };
        Ok(ChromeEvent {
            name: s("name")?,
            ph,
            ts_us: j
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {idx}: missing 'ts'"))?,
            dur_us,
            pid: j
                .get("pid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {idx}: missing 'pid'"))?,
            tid: j
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {idx}: missing 'tid'"))?,
            args: match j.get("args") {
                Some(Json::Obj(fields)) => fields.clone(),
                Some(_) => return Err(format!("event {idx}: 'args' is not an object")),
                None => Vec::new(),
            },
            flow_id,
        })
    }

    /// The value of a `trace_*` arg stamped by [`Profiler::chrome_events`].
    pub fn trace_arg(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }
}

/// Serialize events as a Chrome Trace Event Format document
/// (`{"traceEvents": [...]}`); round-trips exactly through
/// [`parse_chrome_trace`].
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    Json::Obj(vec![
        (
            "traceEvents".to_string(),
            Json::Arr(events.iter().map(ChromeEvent::to_json).collect()),
        ),
        ("displayTimeUnit".to_string(), Json::str("ms")),
    ])
    .render_pretty()
}

/// Parse a document written by [`chrome_trace_json`]. Errors name the
/// offending event and field; never panics.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let v = Json::parse(text)?;
    v.get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing 'traceEvents' array")?
        .iter()
        .enumerate()
        .map(|(idx, j)| ChromeEvent::from_json(idx, j))
        .collect()
}

/// Synthesize Chrome flow events (`ph` `"s"`/`"t"`/`"f"`, named `op#<op>`,
/// one flow id per `(session, op)`) from ctx-stamped spans, so Perfetto draws an arrow chain across every
/// span — on any shard pid — that ran on a given client op's behalf. Ops
/// that touched fewer than two spans get no flow (nothing to connect).
/// Append the result to the span events before [`chrome_trace_json`].
pub fn op_flow_events(events: &[ChromeEvent]) -> Vec<ChromeEvent> {
    use std::collections::BTreeMap;
    // Keyed by (session, op): a router's client ops and its graph's
    // session-less direct dispatches draw op ids from separate counters.
    let mut by_op: BTreeMap<(u64, u64), Vec<&ChromeEvent>> = BTreeMap::new();
    for e in events {
        if e.ph == "X" {
            if let (Some(session), Some(op)) =
                (e.trace_arg("trace_session"), e.trace_arg("trace_op"))
            {
                by_op.entry((session, op)).or_default().push(e);
            }
        }
    }
    let mut out = Vec::new();
    for (flow_id, ((_, op), mut spans)) in (1..).zip(by_op) {
        if spans.len() < 2 {
            continue;
        }
        spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then(a.pid.cmp(&b.pid)));
        let last = spans.len() - 1;
        for (i, s) in spans.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            out.push(ChromeEvent {
                name: format!("op#{op}"),
                ph: ph.to_string(),
                ts_us: s.ts_us,
                dur_us: 0.0,
                pid: s.pid,
                tid: s.tid,
                args: Vec::new(),
                flow_id: Some(flow_id),
            });
        }
    }
    out
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
    fn ring_overwrites_oldest_and_counts_drops() {
        let p = Profiler::new(ProfilerConfig::default().with_ring_capacity(2));
        p.record_span(false, "a", 0.0, 1e-6, snap(1, 1));
        p.record_span(false, "b", 1e-6, 1e-6, snap(1, 1));
        p.record_span(false, "c", 2e-6, 1e-6, snap(1, 1));
        let t = p.timeline();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "b");
        assert_eq!(t.stats.spans_recorded, 3);
        assert_eq!(t.stats.spans_dropped, 1);
    }

    #[test]
    fn phases_record_ranges_and_feed_metrics() {
        let p = Profiler::new(ProfilerConfig::default());
        p.end_phase("bulk_build", 5e-6, 15e-6);
        let t = p.timeline();
        assert_eq!(t.phases.len(), 1);
        assert!((t.phases[0].start_s - 5e-6).abs() < 1e-12);
        assert!((t.phases[0].dur_s - 10e-6).abs() < 1e-12);
        let s = p.metric_summaries();
        let ph = s.iter().find(|m| m.name == "phase.bulk_build").unwrap();
        assert_eq!(ph.count, 1);
        assert_eq!(ph.sum, 10, "10 µs rounded");
    }

    #[test]
    fn chrome_trace_roundtrips_exactly() {
        let p = Profiler::new(ProfilerConfig::default());
        p.record_span(false, "edge_insert", 0.0, 5.2e-6, snap(1000, 1));
        p.instant(5.2e-6, "slab_alloc", "slab 0x40");
        p.record_span(false, "edge_delete", 5.2e-6, 5e-6, snap(10, 1));
        p.end_phase("churn_round", 0.0, 10.2e-6);
        let events = p.chrome_events(7);
        assert_eq!(events.len(), 4);
        let text = chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed, events);
        // Classes land on their designated thread rows.
        assert!(parsed
            .iter()
            .any(|e| e.tid == TID_PHASES && e.name == "churn_round"));
        assert_eq!(
            parsed
                .iter()
                .filter(|e| e.tid == TID_SPANS && e.ph == "X")
                .count(),
            2
        );
        assert!(parsed.iter().any(|e| e.tid == TID_INSTANTS && e.ph == "i"));
    }

    #[test]
    fn ctx_scopes_stamp_spans_and_instants() {
        let p = Profiler::new(ProfilerConfig::default());
        p.record_span(false, "untraced", 0.0, 1e-6, snap(1, 1));
        let ctx = TraceCtx::root(3, 42);
        p.push_ctx(ctx);
        p.record_span(true, "traced", 1e-6, 1e-6, snap(1, 0));
        p.instant(2e-6, "fault_injected", "kernel fault");
        p.pop_ctx();
        p.record_span(false, "after", 2e-6, 1e-6, snap(1, 1));
        let t = p.timeline();
        assert_eq!(t.spans[0].ctx, None);
        assert_eq!(t.host_spans[0].ctx, Some(ctx));
        assert_eq!(t.spans[1].ctx, None, "scope popped");
        assert_eq!(t.instants[0].ctx, Some(ctx), "instants inherit the op");
        // Chrome export carries the trace args only for stamped spans.
        let events = p.chrome_events(0);
        let traced = events.iter().find(|e| e.name == "traced").unwrap();
        assert_eq!(traced.tid, TID_HOST);
        assert_eq!(traced.trace_arg("trace_op"), Some(42));
        assert_eq!(traced.trace_arg("trace_session"), Some(3));
        let untraced = events.iter().find(|e| e.name == "untraced").unwrap();
        assert_eq!(untraced.trace_arg("trace_op"), None);
    }

    #[test]
    fn flow_events_roundtrip_across_shard_pids() {
        // Two profilers = two shards; the same op dispatches on both.
        let ctx = TraceCtx::root(1, 99);
        let mut events = Vec::new();
        for pid in [10u64, 11] {
            let p = Profiler::new(ProfilerConfig::default());
            p.push_ctx(ctx);
            p.record_span(
                false,
                "edge_insert",
                (pid - 10) as f64 * 1e-6,
                5e-6,
                snap(1, 1),
            );
            p.pop_ctx();
            events.extend(p.chrome_events(pid));
        }
        let flows = op_flow_events(&events);
        assert_eq!(flows.len(), 2, "start + finish for a two-span op");
        assert_eq!(flows[0].ph, "s");
        assert_eq!(flows[1].ph, "f");
        assert_eq!(flows[0].flow_id, Some(1));
        assert_eq!(flows[0].name, "op#99");
        assert_eq!(flows[0].pid, 10);
        assert_eq!(flows[1].pid, 11, "flow crosses shard pids");
        // The merged document (spans + flows) round-trips exactly.
        events.extend(flows);
        let text = chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed, events);
        let pids: std::collections::BTreeSet<u64> = parsed.iter().map(|e| e.pid).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![10, 11]);
        // A flow event serialized without its id is rejected.
        let no_id = text.replacen(r#""id": 1"#, r#""note": 1"#, 1);
        assert_ne!(no_id, text);
        assert!(parse_chrome_trace(&no_id).unwrap_err().contains("'id'"));
    }

    #[test]
    fn single_span_ops_get_no_flow() {
        // Op 5 of session 0 and op 5 of a session-less dispatch are two
        // ops of one span each.
        let p = Profiler::new(ProfilerConfig::default());
        for session in [0, TraceCtx::NO_SESSION] {
            p.push_ctx(TraceCtx::root(session, 5));
            p.record_span(false, "edge_insert", 0.0, 5e-6, snap(1, 1));
            p.pop_ctx();
        }
        assert!(op_flow_events(&p.chrome_events(0)).is_empty());
    }

    #[test]
    fn parse_chrome_trace_rejects_malformed() {
        assert!(parse_chrome_trace("{").is_err());
        assert!(parse_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        let no_ts = r#"{"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 2}]}"#;
        assert!(parse_chrome_trace(no_ts).unwrap_err().contains("'ts'"));
        let no_dur = r#"{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 1}]}"#;
        assert!(parse_chrome_trace(no_dur).unwrap_err().contains("'dur'"));
        let bad_args = r#"{"traceEvents": [{"name": "x", "ph": "i", "ts": 0, "pid": 0, "tid": 2, "args": 3}]}"#;
        assert!(parse_chrome_trace(bad_args).unwrap_err().contains("args"));
    }

    #[test]
    fn default_profiler_config_roundtrips() {
        // Serialized with other tests in this binary that may also touch
        // the global — keep the touch-and-restore window tight.
        let prev = default_profiler();
        set_default_profiler(Some(ProfilerConfig::default().with_ring_capacity(4)));
        assert_eq!(
            default_profiler().map(|c| c.ring_capacity),
            Some(4),
            "global default visible"
        );
        set_default_profiler(prev);
    }
}
