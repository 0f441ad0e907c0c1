//! The benchmark's own span recorder. Spans are recorded from benchmark
//! code around each call into a layer (`core.insert_edges`,
//! `router.flush`, `algos.tc`, …) and around the rounds that group those
//! calls; nothing inside the program is instrumented. Spans stay in memory
//! and are written once, at the end, as a Chrome trace.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 for a root).
    pub parent: u64,
    /// The request the span serves: round, flush window or read number.
    pub req: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: `Tracer::finish` closes it and returns its duration. It
/// is also the benchmark's stopwatch, so untraced runs time every call the
/// same way and only skip the recording.
pub struct Open {
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::SeqCst);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn start(&self, name: &'static str, parent: u64, req: u64) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::SeqCst)
        } else {
            0
        };
        Open {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    pub fn finish(&self, open: Open) -> Duration {
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                tid: TID.with(|t| *t),
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
        end - open.start
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// One row of the per-layer table: calls, total and self time of every
/// span with the same name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name. A span's self time is its duration minus its
/// children's; children run on the parent's thread inside its interval,
/// so every self time is ≥ 0 and a parent's self time plus its children's
/// durations equals its own duration. Returns an error naming the first
/// span that breaks that containment.
pub fn layer_table(spans: &[Span]) -> Result<Vec<LayerRow>, String> {
    let index: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = index
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has no recorded parent", s.id, s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.tid != p.tid {
            return Err(format!(
                "span {} ({}) escapes parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
        *child_ns.entry(p.id).or_default() += s.dur_ns();
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        let self_ns = s
            .dur_ns()
            .checked_sub(children)
            .ok_or_else(|| format!("children of span {} ({}) outlast it", s.id, s.name))?;
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.calls += 1;
                r.total_ns += s.dur_ns();
                r.self_ns += self_ns;
            }
            None => rows.push(LayerRow {
                name: s.name,
                calls: 1,
                total_ns: s.dur_ns(),
                self_ns,
            }),
        }
    }
    Ok(rows)
}

/// Spans kept per name in the written trace; the per-layer table always
/// covers every span. Open-loop workloads issue a million submits, and a
/// trace of each would not open in a viewer.
pub const MAX_EVENTS_PER_NAME: usize = 20_000;

/// Render spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete (`"ph": "X"`) event per span, times in µs, with the span's
/// id, parent and request in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str, seed: u64) -> String {
    let mut kept: std::collections::HashMap<&str, usize> = Default::default();
    let mut dropped = 0usize;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for s in spans {
        let n = kept.entry(s.name).or_default();
        if *n >= MAX_EVENTS_PER_NAME {
            dropped += 1;
            continue;
        }
        *n += 1;
        if !first {
            out.push(',');
        }
        first = false;
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            cat,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"dropped_spans\":{dropped}}}}}\n",
        spans.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            tid: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "round", 0, 100),
            span(2, 1, "core.insert_edges", 10, 40),
            span(3, 1, "core.delete_edges", 50, 90),
        ];
        let rows = layer_table(&spans).unwrap();
        let round = rows.iter().find(|r| r.name == "round").unwrap();
        assert_eq!(round.self_ns, 30);
        let children: u64 = rows
            .iter()
            .filter(|r| r.name != "round")
            .map(|r| r.total_ns)
            .sum();
        assert_eq!(round.self_ns + children, round.total_ns);
        assert!(rows.iter().all(|r| r.self_ns <= r.total_ns));
    }

    #[test]
    fn escaping_children_are_rejected() {
        let spans = [
            span(1, 0, "round", 0, 100),
            span(2, 1, "core.insert_edges", 90, 120),
        ];
        assert!(layer_table(&spans).is_err());
        assert!(layer_table(&[span(2, 7, "orphan", 0, 1)]).is_err());
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        let off = Tracer::new(false);
        let o = off.start("x", 0, 0);
        assert_eq!(o.id, 0);
        off.finish(o);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let outer = on.start("round", 0, 3);
        let inner = on.start("core.insert_edges", outer.id, 3);
        on.finish(inner);
        on.finish(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(layer_table(&spans).is_ok());
        let json = chrome_trace(&spans, "w", 1);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"core.insert_edges\""));
        assert!(json.trim_end().ends_with('}'));
    }
}
