//! Per-op latency attribution: the lifecycle record of one client op and
//! the router-side bookkeeping that settles, rings and ranks them.

use gpu_sim::MetricsRegistry;
use std::collections::{HashMap, VecDeque};

/// The reconstructed lifecycle of one client operation: its identity,
/// the flush that carried it, a latency breakdown on the modeled clock,
/// and the span chain (human-readable, in causal order). `total_ns` is
/// *defined* as the sum of the four components, and `tests/tracing.rs`
/// asserts the kernel component is conserved against the flush's actual
/// kernel time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTraceRecord {
    /// Router-wide op id (monotonic, minted at submit).
    pub op: u64,
    /// Submitting session, or
    /// [`TraceCtx::NO_SESSION`](gpu_sim::TraceCtx::NO_SESSION) for
    /// internal ops.
    pub session: u64,
    /// `"insert"`, `"delete"`, or `"query"`.
    pub kind: String,
    /// The flush sequence number that drained this op (0 for queries).
    pub flush: u64,
    /// Modeled ns spent queued between submit and flush drain.
    pub queue_ns: u64,
    /// This op's share of retry backoff charged on its shards.
    pub backoff_ns: u64,
    /// This op's share of kernel time on its shards (rebuild replay
    /// folds in here, flagged by a `router.rebuild` span).
    pub kernel_ns: u64,
    /// Modeled ns answering this op from replicas while the owner was
    /// down (queries only).
    pub degraded_ns: u64,
    /// Causal span chain, e.g. `flush#3 queue 12 ns` then
    /// `shard1/dispatch kernel 40 ns backoff 0 ns`.
    pub spans: Vec<String>,
}

impl OpTraceRecord {
    /// End-to-end modeled latency: the sum of the four components.
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.backoff_ns + self.kernel_ns + self.degraded_ns
    }
}

/// The op's latency breakdown on one line, then one indented line per
/// span (no trailing newline), e.g.
///
/// ```text
/// op 17 (insert, session 3): 612 ns = queue 112 + backoff 100 + kernel 400 + degraded 0
///     flush#2 queue 112 ns
///     shard1/dispatch kernel 400 ns backoff 100 ns
/// ```
impl std::fmt::Display for OpTraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op {} ({}, session {}): {} ns = queue {} + backoff {} + kernel {} + degraded {}",
            self.op,
            self.kind,
            self.session,
            self.total_ns(),
            self.queue_ns,
            self.backoff_ns,
            self.kernel_ns,
            self.degraded_ns
        )?;
        self.spans.iter().try_for_each(|s| write!(f, "\n    {s}"))
    }
}

/// One in-flight op: its record plus how many of its journal entries (one
/// per routed copy of its edge) are not yet acked.
pub(crate) struct OpenOp {
    pub(crate) rec: OpTraceRecord,
    pub(crate) unacked: usize,
}

/// Completed-op ring capacity (matches the profiler's event rings).
const OPLOG_CAP: usize = 1 << 16;
/// Slowest-op exemplars kept with full span chains.
const TAIL_EXEMPLARS: usize = 8;

/// Router-side op bookkeeping: in-flight ops, the bounded completed-op
/// ring, and the K-slowest exemplar ring.
#[derive(Default)]
pub(crate) struct OpTracker {
    pub(crate) open: HashMap<u64, OpenOp>,
    pub(crate) completed: VecDeque<OpTraceRecord>,
    pub(crate) exemplars: Vec<OpTraceRecord>,
    pub(crate) flushes: u64,
}

impl OpTracker {
    /// Move a finished record into the completed ring and the exemplar
    /// ring, folding its components into the router metrics.
    pub(crate) fn finalize(&mut self, rec: OpTraceRecord, metrics: &MetricsRegistry) {
        metrics.record("op.total_ns", rec.total_ns());
        metrics.record("op.queue_ns", rec.queue_ns);
        metrics.record("op.backoff_ns", rec.backoff_ns);
        metrics.record("op.kernel_ns", rec.kernel_ns);
        metrics.record("op.degraded_ns", rec.degraded_ns);
        self.exemplars.push(rec.clone());
        self.exemplars
            .sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.op.cmp(&b.op)));
        self.exemplars.truncate(TAIL_EXEMPLARS);
        self.completed.push_back(rec);
        if self.completed.len() > OPLOG_CAP {
            self.completed.pop_front();
        }
    }
}

/// Round modeled seconds to whole nanoseconds for attribution. The
/// modeled clock resolves sub-microsecond shares (one op's slice of a
/// coalesced dispatch is typically tens to hundreds of ns), so
/// nanoseconds keep the breakdown informative where whole µs would
/// round nearly every component to zero.
pub(crate) fn as_ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}
