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
//! The profiler keeps a clock in *modeled seconds* (see
//! [`crate::CostModel`]), not wall time. Every **top-level attribution
//! unit** — a named launch, a [`crate::Device::fused_scope`], a top-level
//! `memset`, or a dropped top-level [`crate::trace::Charge`] — deltas the
//! global counters around itself and appends one span whose duration is
//! `CostModel::seconds(delta)`; the clock advances by exactly that span.
//! Launch scopes are host-serial (the scope stack guarantees units never
//! overlap), and every cost-bearing charge lands inside some unit, so the
//! sum of span durations equals the modeled time of the whole run up to
//! float rounding — far below one 5 µs launch-overhead quantum. A `Charge`
//! carrying `n > 1` launches (e.g. a multi-pass sort charged manually) is
//! split into `n` equal spans so spans and kernel launches stay 1:1.
//!
//! Host [`PhaseEvent`] ranges (`device.phase("bulk_build")` guards) and
//! allocator [`InstantEvent`]s are stamped from the same clock: an instant
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

use crate::cost::CostModel;
use crate::counters::CounterSnapshot;
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

/// Causal trace context: identifies the client operation (and its parent
/// span, if any) on whose behalf subsequently recorded spans and instants
/// run. Minted per client op by the batch router and installed around each
/// per-shard dispatch via [`crate::Device::trace_scope`], so every span a
/// coalesced batch charges can be walked back to client traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Submitting session (client identity). [`TraceCtx::NO_SESSION`] for
    /// traffic not tied to a session (bulk builds, maintenance).
    pub session: u64,
    /// Client op id (or batch node id for coalesced dispatch), unique for
    /// the minting router's lifetime.
    pub op: u64,
    /// Span id of the causal parent span (0 = the virtual client-op root).
    pub parent_span: u64,
}

impl TraceCtx {
    /// Session id used for traffic that no client session submitted.
    pub const NO_SESSION: u64 = u64::MAX;

    /// A root context for `op` submitted by `session`.
    pub fn root(session: u64, op: u64) -> Self {
        TraceCtx {
            session,
            op,
            parent_span: 0,
        }
    }

    /// The same context reparented under span `parent_span`.
    pub fn under(self, parent_span: u64) -> Self {
        TraceCtx {
            parent_span,
            ..self
        }
    }
}

/// One kernel-launch span on the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Modeled seconds since profiler attach.
    pub start_s: f64,
    /// `CostModel::seconds` of this unit's counter delta.
    pub dur_s: f64,
    /// The unit's counter delta (carried into Chrome trace `args`).
    pub counters: CounterSnapshot,
    /// Monotonic span id, unique within this profiler (first span = 1).
    pub id: u64,
    /// Causal parent span id (`ctx.parent_span` at record time; 0 = root).
    pub parent: u64,
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
    /// The modeled clock, in seconds since attach.
    now_s: f64,
    spans: Ring<SpanEvent>,
    host_spans: Ring<SpanEvent>,
    phases: Ring<PhaseEvent>,
    instants: Ring<InstantEvent>,
    /// Next span id (kernel and host spans share the namespace).
    next_span_id: u64,
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
    /// and top-level [`crate::Device::unlaunched_scope`] sections. These
    /// advance the modeled clock like kernel spans, so kernel spans plus
    /// host spans together account for all modeled time.
    pub host_spans: Vec<SpanEvent>,
    pub phases: Vec<PhaseEvent>,
    pub instants: Vec<InstantEvent>,
    pub stats: TimelineStats,
}

/// The device timeline profiler. One per [`crate::Device`] when attached;
/// all hooks are reached through `device.profiler()`.
#[derive(Debug)]
pub struct Profiler {
    /// Drives the modeled clock (fixed to [`CostModel::titan_v`], matching
    /// the bench harness).
    model: CostModel,
    state: Mutex<ProfState>,
    metrics: MetricsRegistry,
}

impl Profiler {
    pub fn new(cfg: ProfilerConfig) -> Self {
        Profiler {
            model: CostModel::titan_v(),
            state: Mutex::new(ProfState {
                now_s: 0.0,
                spans: Ring::new(cfg.ring_capacity),
                host_spans: Ring::new(cfg.ring_capacity),
                phases: Ring::new(cfg.ring_capacity),
                instants: Ring::new(cfg.ring_capacity),
                next_span_id: 1,
                ctx_stack: Vec::new(),
            }),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The attached metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The modeled clock, in seconds since attach.
    pub fn now_s(&self) -> f64 {
        self.state.lock().now_s
    }

    /// Append one span for a completed top-level unit, stamped with the
    /// active trace context, and advance the clock by its modeled
    /// duration. Returns the span's id.
    pub fn record_span(&self, name: &'static str, delta: CounterSnapshot) -> u64 {
        self.push_span(|st| &mut st.spans, name, self.model.seconds(&delta), delta)
    }

    /// Append one *host* span — costed work outside any kernel launch
    /// (see [`Timeline::host_spans`]) — and advance the clock by its
    /// modeled duration. Returns the span's id.
    pub fn record_host_span(&self, name: &'static str, delta: CounterSnapshot) -> u64 {
        self.push_span(
            |st| &mut st.host_spans,
            name,
            self.model.seconds(&delta),
            delta,
        )
    }

    /// Charge `dur_s` seconds of pure *wait* onto the modeled clock: a
    /// host span with zero counters and an explicit duration. Retry
    /// backoff uses this so waiting for a flaky shard is as visible in the
    /// timeline — and as costly to the makespan — as the work itself.
    /// Returns the span's id.
    pub fn charge_wait(&self, name: &'static str, dur_s: f64) -> u64 {
        self.push_span(
            |st| &mut st.host_spans,
            name,
            dur_s,
            CounterSnapshot::default(),
        )
    }

    /// Append a span to the ring `ring` selects, stamped with the active
    /// trace context, and advance the clock by `dur_s`.
    fn push_span(
        &self,
        ring: fn(&mut ProfState) -> &mut Ring<SpanEvent>,
        name: &'static str,
        dur_s: f64,
        counters: CounterSnapshot,
    ) -> u64 {
        let mut st = self.state.lock();
        let start_s = st.now_s;
        let ctx = st.ctx_stack.last().copied();
        let id = st.next_span_id;
        st.next_span_id += 1;
        ring(&mut st).push(SpanEvent {
            name,
            start_s,
            dur_s,
            counters,
            id,
            parent: ctx.map_or(0, |c| c.parent_span),
            ctx,
        });
        st.now_s += dur_s;
        id
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

    /// Record a dropped top-level [`crate::trace::Charge`]'s tally as
    /// spans. A tally carrying `n > 1` launches models `n` physical
    /// launches and is split into `n` near-equal spans (remainders fold
    /// into the earliest spans) so spans stay 1:1 with kernel launches;
    /// the split is exact event-wise, so total modeled time is preserved.
    /// A tally carrying *no* launch is host-side traffic and lands in the
    /// host-span ring instead, keeping the kernel rows 1:1 with launches.
    pub fn record_charge(&self, name: &'static str, tally: CounterSnapshot) {
        if tally.launches == 0 {
            self.record_host_span(name, tally);
            return;
        }
        for part in tally.split(tally.launches) {
            self.record_span(name, part);
        }
    }

    /// Close a phase opened at modeled time `start_s`: appends the range
    /// and folds its duration into the `phase.<name>` histogram (µs).
    /// Called by [`PhaseGuard::drop`].
    pub fn end_phase(&self, name: &'static str, start_s: f64) {
        let mut st = self.state.lock();
        let dur_s = (st.now_s - start_s).max(0.0);
        st.phases.push(PhaseEvent {
            name,
            start_s,
            dur_s,
        });
        drop(st);
        self.metrics
            .record(&format!("phase.{name}"), (dur_s * 1e6).round() as u64);
    }

    /// Record a point event at the current modeled time, stamped with the
    /// active trace context (fault instants inherit the dispatching op).
    pub fn instant(&self, name: &'static str, detail: impl Into<String>) {
        let mut st = self.state.lock();
        let at_s = st.now_s;
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
                args.push(("trace_span".into(), Json::u64(s.id)));
                args.push(("trace_parent".into(), Json::u64(s.parent)));
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
                args.push(("trace_parent".into(), Json::u64(ctx.parent_span)));
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
    pub(crate) inner: Option<(std::sync::Arc<Profiler>, &'static str, f64)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((prof, name, start_s)) = self.inner.take() {
            prof.end_phase(name, start_s);
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

/// Synthesize Chrome flow events (`ph` `"s"`/`"t"`/`"f"`, flow id = op id)
/// from ctx-stamped spans, so Perfetto draws an arrow chain across every
/// span — on any shard pid — that ran on a given client op's behalf. Ops
/// that touched fewer than two spans get no flow (nothing to connect).
/// Append the result to the span events before [`chrome_trace_json`].
pub fn op_flow_events(events: &[ChromeEvent]) -> Vec<ChromeEvent> {
    use std::collections::BTreeMap;
    let mut by_op: BTreeMap<u64, Vec<&ChromeEvent>> = BTreeMap::new();
    for e in events {
        if e.ph == "X" {
            if let Some(op) = e.trace_arg("trace_op") {
                by_op.entry(op).or_default().push(e);
            }
        }
    }
    let mut out = Vec::new();
    for (op, mut spans) in by_op {
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
                flow_id: Some(op),
            });
        }
    }
    out
}

/// One client op's reconstructed lifecycle: every ctx-stamped span and
/// instant that ran on its behalf, time-ordered across shard pids.
#[derive(Debug, Clone, PartialEq)]
pub struct OpLifecycle {
    pub op: u64,
    pub session: u64,
    /// The op's spans (`ph == "X"`), sorted by `(ts, pid)`.
    pub spans: Vec<ChromeEvent>,
    /// Instants (faults, health transitions) stamped with the op's ctx.
    pub instants: Vec<ChromeEvent>,
}

impl OpLifecycle {
    /// Total modeled microseconds across the op's spans.
    pub fn span_total_us(&self) -> f64 {
        self.spans.iter().map(|s| s.dur_us).sum()
    }
}

/// Reconstruct per-op lifecycles from a (possibly multi-shard, merged)
/// Chrome event stream, validating span parenting as it ingests: within
/// each pid, every span's `trace_parent` chain must terminate at the
/// virtual root (0) without revisiting a span. A cycle — which would make
/// "walk to the causal root" diverge — is rejected with an error naming
/// the offending span. Events without trace args are skipped (untraced
/// setup work).
pub fn assemble_lifecycles(events: &[ChromeEvent]) -> Result<Vec<OpLifecycle>, String> {
    use std::collections::BTreeMap;
    // (pid, span id) → parent span id, for cycle checking.
    let mut parents: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        if e.ph != "X" {
            continue;
        }
        if let (Some(id), Some(parent)) = (e.trace_arg("trace_span"), e.trace_arg("trace_parent")) {
            parents.insert((e.pid, id), parent);
        }
    }
    for &(pid, id) in parents.keys() {
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = id;
        while cur != 0 {
            if !seen.insert(cur) {
                return Err(format!(
                    "span parent cycle at pid {pid} span {cur}: the causal chain never reaches a client op"
                ));
            }
            cur = parents.get(&(pid, cur)).copied().unwrap_or(0);
        }
    }
    let mut by_op: BTreeMap<u64, OpLifecycle> = BTreeMap::new();
    for e in events {
        let Some(op) = e.trace_arg("trace_op") else {
            continue;
        };
        let session = e.trace_arg("trace_session").unwrap_or(TraceCtx::NO_SESSION);
        let life = by_op.entry(op).or_insert_with(|| OpLifecycle {
            op,
            session,
            spans: Vec::new(),
            instants: Vec::new(),
        });
        match e.ph.as_str() {
            "X" => life.spans.push(e.clone()),
            "i" => life.instants.push(e.clone()),
            _ => {}
        }
    }
    let mut out: Vec<OpLifecycle> = by_op.into_values().collect();
    for life in &mut out {
        life.spans
            .sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then(a.pid.cmp(&b.pid)));
        life.instants
            .sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then(a.pid.cmp(&b.pid)));
    }
    Ok(out)
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
    fn spans_advance_the_modeled_clock() {
        let p = Profiler::new(ProfilerConfig::default());
        p.record_span("a", snap(0, 1));
        p.record_span("b", snap(0, 2));
        let t = p.timeline();
        assert_eq!(t.spans.len(), 2);
        assert!((t.spans[0].dur_s - 5e-6).abs() < 1e-12);
        assert!((t.spans[1].start_s - 5e-6).abs() < 1e-12);
        assert!((p.now_s() - 15e-6).abs() < 1e-12);
        assert_eq!(t.stats.spans_recorded, 2);
        assert_eq!(t.stats.spans_dropped, 0);
    }

    #[test]
    fn charge_with_many_launches_splits_into_equal_spans() {
        let p = Profiler::new(ProfilerConfig::default());
        let tally = CounterSnapshot {
            transactions: 10,
            launches: 3,
            atomics: 2,
            ..Default::default()
        };
        p.record_charge("radix", tally);
        let t = p.timeline();
        assert_eq!(t.spans.len(), 3);
        let mut sum = CounterSnapshot::default();
        let mut dur = 0.0;
        for s in &t.spans {
            assert_eq!(s.name, "radix");
            assert_eq!(s.counters.launches, 1);
            sum.transactions += s.counters.transactions;
            sum.atomics += s.counters.atomics;
            sum.launches += s.counters.launches;
            dur += s.dur_s;
        }
        assert_eq!(sum.transactions, 10);
        assert_eq!(sum.atomics, 2);
        assert_eq!(sum.launches, 3);
        let total = CostModel::titan_v().seconds(&tally);
        assert!((dur - total).abs() < 1e-15, "split preserves modeled time");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let p = Profiler::new(ProfilerConfig::default().with_ring_capacity(2));
        p.record_span("a", snap(1, 1));
        p.record_span("b", snap(1, 1));
        p.record_span("c", snap(1, 1));
        let t = p.timeline();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "b");
        assert_eq!(t.stats.spans_recorded, 3);
        assert_eq!(t.stats.spans_dropped, 1);
    }

    #[test]
    fn phases_record_ranges_and_feed_metrics() {
        let p = Profiler::new(ProfilerConfig::default());
        let start = p.now_s();
        p.record_span("k", snap(0, 2));
        p.end_phase("bulk_build", start);
        let t = p.timeline();
        assert_eq!(t.phases.len(), 1);
        assert!((t.phases[0].dur_s - 10e-6).abs() < 1e-12);
        let s = p.metric_summaries();
        let ph = s.iter().find(|m| m.name == "phase.bulk_build").unwrap();
        assert_eq!(ph.count, 1);
        assert_eq!(ph.sum, 10, "10 µs rounded");
    }

    #[test]
    fn instants_stamp_current_time() {
        let p = Profiler::new(ProfilerConfig::default());
        p.record_span("k", snap(0, 1));
        p.instant("oom", "slab pool exhausted");
        let t = p.timeline();
        assert_eq!(t.instants.len(), 1);
        assert!((t.instants[0].at_s - 5e-6).abs() < 1e-12);
        assert_eq!(t.instants[0].detail, "slab pool exhausted");
    }

    #[test]
    fn chrome_trace_roundtrips_exactly() {
        let p = Profiler::new(ProfilerConfig::default());
        let start = p.now_s();
        p.record_span("edge_insert", snap(1000, 1));
        p.instant("slab_alloc", "slab 0x40");
        p.record_span("edge_delete", snap(10, 1));
        p.end_phase("churn_round", start);
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
        p.record_span("untraced", snap(1, 1));
        let ctx = TraceCtx::root(3, 42);
        p.push_ctx(ctx);
        let id = p.record_span("traced", snap(1, 1));
        p.instant("fault_injected", "kernel fault");
        p.pop_ctx();
        p.record_span("after", snap(1, 1));
        let t = p.timeline();
        assert_eq!(t.spans[0].ctx, None);
        assert_eq!(t.spans[1].ctx, Some(ctx));
        assert_eq!(t.spans[1].id, id);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].ctx, None, "scope popped");
        assert_eq!(t.instants[0].ctx, Some(ctx), "instants inherit the op");
        // Ids are monotonic and unique across kernel and host spans.
        assert_eq!(t.spans.iter().map(|s| s.id).collect::<Vec<_>>(), [1, 2, 3]);
        // Chrome export carries the trace args only for stamped spans.
        let events = p.chrome_events(0);
        let traced = events.iter().find(|e| e.name == "traced").unwrap();
        assert_eq!(traced.trace_arg("trace_op"), Some(42));
        assert_eq!(traced.trace_arg("trace_session"), Some(3));
        assert_eq!(traced.trace_arg("trace_span"), Some(id));
        let untraced = events.iter().find(|e| e.name == "untraced").unwrap();
        assert_eq!(untraced.trace_arg("trace_op"), None);
    }

    #[test]
    fn nested_ctx_reparenting_builds_chains() {
        let p = Profiler::new(ProfilerConfig::default());
        let root = TraceCtx::root(0, 7);
        p.push_ctx(root);
        let dispatch = p.record_span("router.dispatch", snap(0, 1));
        p.push_ctx(root.under(dispatch));
        p.record_span("edge_insert", snap(10, 1));
        p.pop_ctx();
        p.pop_ctx();
        let t = p.timeline();
        assert_eq!(t.spans[0].parent, 0);
        assert_eq!(t.spans[1].parent, dispatch, "child chains to the dispatch");
        assert_eq!(t.spans[1].ctx.unwrap().op, 7, "op identity propagates");
    }

    #[test]
    fn flow_events_roundtrip_across_shard_pids() {
        // Two profilers = two shards; the same op dispatches on both.
        let ctx = TraceCtx::root(1, 99);
        let mut events = Vec::new();
        for pid in [10u64, 11] {
            let p = Profiler::new(ProfilerConfig::default());
            p.push_ctx(ctx);
            p.record_span("edge_insert", snap(100 * (pid - 9), 1));
            p.pop_ctx();
            events.extend(p.chrome_events(pid));
        }
        let flows = op_flow_events(&events);
        assert_eq!(flows.len(), 2, "start + finish for a two-span op");
        assert_eq!(flows[0].ph, "s");
        assert_eq!(flows[1].ph, "f");
        assert_eq!(flows[0].flow_id, Some(99));
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
        let no_id = text.replacen(r#""id": 99"#, r#""note": 99"#, 1);
        assert_ne!(no_id, text);
        assert!(parse_chrome_trace(&no_id).unwrap_err().contains("'id'"));
    }

    #[test]
    fn single_span_ops_get_no_flow() {
        let p = Profiler::new(ProfilerConfig::default());
        p.push_ctx(TraceCtx::root(0, 5));
        p.record_span("edge_insert", snap(1, 1));
        p.pop_ctx();
        assert!(op_flow_events(&p.chrome_events(0)).is_empty());
    }

    #[test]
    fn lifecycles_assemble_per_op_and_reject_parent_cycles() {
        let p = Profiler::new(ProfilerConfig::default());
        let a = TraceCtx::root(0, 1);
        let b = TraceCtx::root(1, 2);
        p.push_ctx(a);
        let root_span = p.record_span("router.dispatch", snap(0, 1));
        p.push_ctx(a.under(root_span));
        p.record_span("edge_insert", snap(5, 1));
        p.instant("fault_injected", "boom");
        p.pop_ctx();
        p.pop_ctx();
        p.push_ctx(b);
        p.record_span("edge_delete", snap(5, 1));
        p.pop_ctx();
        let events = p.chrome_events(0);
        let lives = assemble_lifecycles(&events).unwrap();
        assert_eq!(lives.len(), 2);
        assert_eq!(lives[0].op, 1);
        assert_eq!(lives[0].session, 0);
        assert_eq!(lives[0].spans.len(), 2);
        assert_eq!(lives[0].instants.len(), 1);
        assert_eq!(lives[1].op, 2);
        assert!(lives[0].span_total_us() > 0.0);
        // A forged parent cycle (span 1 → span 2 → span 1) is rejected.
        let mut forged = events.clone();
        for e in &mut forged {
            for (k, v) in &mut e.args {
                if k == "trace_parent" {
                    *v = Json::u64(if matches!(v.as_u64(), Some(0)) { 2 } else { 1 });
                }
            }
        }
        let err = assemble_lifecycles(&forged).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
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
