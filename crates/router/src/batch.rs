//! The async batch router: session queues, the write-ahead flush round,
//! journal rebuild of downed shards, and live reads that degrade to
//! replicas.

use crate::health::{
    replay, JournalEntry, RetryPolicy, RouterError, RouterReport, ShardHealth, ShardHealthRow,
    ShardState,
};
use crate::partition::{ShardedGraph, ShardedValidationError};
use crate::tracing::{as_ns, OpTraceRecord, OpTracker, OpenOp};
use gpu_sim::{Device, DeviceFault, MetricsRegistry, TraceCtx, TraceReport};
use parking_lot::Mutex;
use slabgraph::{BatchOutcome, DynGraph, Edge, ReadGuard, Update};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether a read was answered by the authoritative owner shard or
/// best-effort from surviving replicas while the owner is Down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadQuality {
    /// Answered by the owner shard: identical to an unsharded replay.
    Exact,
    /// Owner unavailable; answered from cut-edge replicas on surviving
    /// shards. Correct for edges whose replica survives, silent about
    /// shard-internal edges.
    Degraded,
}

/// One queued client update, carrying the [`TraceCtx`] minted at
/// [`BatchRouter::submit`] and the modeled clock at submission (queue
/// latency is measured from here to the flush that drains it).
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    ctx: TraceCtx,
    update: Update,
    submitted_s: f64,
}

/// One shard's view of a flush: its batch outcomes, health, and modeled
/// time.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    pub shard: usize,
    /// Outcome of the insert entries in the shard's journal log: work
    /// still pending from earlier flushes, then this flush's entries in
    /// submit order, so `attempted` counts carried-over entries too and
    /// `completed + pending.len() == attempted`. An entry completes when
    /// the last update to its ⟨src, dst⟩ key applies; `changed` counts
    /// the edges the flush's one launch newly inserted. A shard whose
    /// circuit breaker is open reports only this flush's entries, all
    /// held. `None` when there were no inserts to report.
    pub insert: Option<BatchOutcome>,
    /// Outcome of the delete entries in the shard's journal log, counted
    /// the same way; `changed` is the edges the launch deleted.
    pub delete: Option<BatchOutcome>,
    /// Modeled GPU seconds this shard spent on the flush: its device
    /// clock's advance across admission and replay, so retry backoff is
    /// included.
    pub modeled_s: f64,
    /// The retry-backoff portion of [`Self::modeled_s`] — kernel time is
    /// `modeled_s - backoff_s`. Latency attribution splits per-op shares
    /// along exactly this seam.
    pub backoff_s: f64,
    /// The shard's health after this dispatch.
    pub health: ShardHealth,
    /// Typed failure: the first update rejected for this shard (it owns
    /// the update's source vertex), or else the device fault that refused
    /// admission. A refused shard applied nothing and its [`Self::health`]
    /// is Down, even when a rejection takes this slot. Orthogonal to the
    /// recoverable OOM inside a partial [`BatchOutcome`].
    pub error: Option<RouterError>,
}

impl ShardOutcome {
    /// Whether every batch routed to this shard was fully applied.
    pub fn is_complete(&self) -> bool {
        self.error.is_none()
            && self.insert.as_ref().is_none_or(BatchOutcome::is_complete)
            && self.delete.as_ref().is_none_or(BatchOutcome::is_complete)
    }
}

/// What one [`BatchRouter::flush`] did.
#[derive(Debug, Clone)]
pub struct FlushReport {
    /// Updates drained from the session queues.
    pub updates: usize,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
}

impl FlushReport {
    /// Whether every shard applied its batches fully.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardOutcome::is_complete)
    }

    /// Shards with unapplied or rejected work.
    pub fn incomplete_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| !s.is_complete())
            .map(|s| s.shard)
            .collect()
    }

    /// The flush's modeled makespan: shards run concurrently, so this is
    /// the *maximum* per-shard modeled time, not the sum.
    pub fn modeled_s(&self) -> f64 {
        self.shards.iter().map(|s| s.modeled_s).fold(0.0, f64::max)
    }
}

/// Host-side async batch router over a [`ShardedGraph`]. Concurrent
/// sessions [`Self::submit`] updates; [`Self::flush`] coalesces and
/// dispatches them. See the crate docs for ordering semantics.
///
/// The router is also the graph's fault-tolerance layer: it write-ahead
/// journals every routed op, runs a per-shard health state machine
/// ([`ShardHealth`]) driven by launch-admission faults and a
/// [`RetryPolicy`], opens a circuit breaker on Down shards (no device
/// access at all while open), serves degraded reads from surviving
/// replicas, and rebuilds a Down shard from its journal
/// ([`Self::rebuild_downed`]).
pub struct BatchRouter<'g> {
    graph: &'g ShardedGraph,
    /// Per-session FIFO queues, indexed by session id. A `Mutex` (not a
    /// channel) so that draining is session-major — deterministic no
    /// matter how submission threads interleaved.
    sessions: Mutex<Vec<Vec<PendingOp>>>,
    policy: RetryPolicy,
    /// Op-id source for [`TraceCtx`] minting (monotonic from 1).
    next_op: AtomicU64,
    /// Per-op lifecycle bookkeeping (open ops, completed ring, tail
    /// exemplars).
    tracker: Mutex<OpTracker>,
    /// Router-level metrics (`op.*_ns` component histograms). Kept
    /// separate from the per-device registries so per-op attribution
    /// does not perturb the device-side metric sets.
    op_metrics: MetricsRegistry,
    /// Per-shard health + journal. Each dispatch closure locks only its
    /// own shard's state, so the per-shard mutexes never contend across
    /// shards.
    states: Vec<Mutex<ShardState>>,
    /// Lock-free mirror of each shard's dispatchability. A flush dispatch
    /// holds its shard's state mutex for the whole batch, so the read
    /// path consults this mirror instead — reads are *served during*
    /// in-flight flushes rather than fenced behind them.
    serving: Vec<AtomicBool>,
}

impl<'g> BatchRouter<'g> {
    pub fn new(graph: &'g ShardedGraph) -> Self {
        Self::with_policy(graph, RetryPolicy::default())
    }

    /// Build a router with an explicit [`RetryPolicy`]. Seeds each
    /// shard's journal checkpoint from the shard's *current* contents
    /// (primaries and replicas alike, one `neighbors` launch over every
    /// vertex per non-empty shard), so graphs assembled via
    /// [`ShardedGraph::bulk_build`] — which bypasses the router — are
    /// still rebuildable.
    pub fn with_policy(graph: &'g ShardedGraph, policy: RetryPolicy) -> Self {
        let states = graph
            .shard_exports()
            .into_iter()
            .map(|edges| {
                let mut st = ShardState::default();
                st.journal.checkpoint = edges.iter().map(|e| ((e.src, e.dst), e.weight)).collect();
                Mutex::new(st)
            })
            .collect();
        BatchRouter {
            graph,
            sessions: Mutex::new(Vec::new()),
            policy,
            next_op: AtomicU64::new(1),
            tracker: Mutex::new(OpTracker::default()),
            op_metrics: MetricsRegistry::new(),
            states,
            serving: (0..graph.num_shards())
                .map(|_| AtomicBool::new(true))
                .collect(),
        }
    }

    /// The router's modeled clock: the group makespan (max of the
    /// per-shard device clocks). Queue latency is measured on it.
    fn clock_s(&self) -> f64 {
        self.graph.group().clock_s()
    }

    /// Enqueue one update for `session` and return the op id of the
    /// [`TraceCtx`] minted for it. Safe to call from any thread; order
    /// *within* a session is the caller's submission order.
    pub fn submit(&self, session: usize, update: Update) -> u64 {
        let op = self.next_op.fetch_add(1, Ordering::AcqRel);
        let pending = PendingOp {
            ctx: TraceCtx::root(session as u64, op),
            update,
            submitted_s: self.clock_s(),
        };
        let mut q = self.sessions.lock();
        if q.len() <= session {
            q.resize_with(session + 1, Vec::new);
        }
        q[session].push(pending);
        op
    }

    /// Updates currently queued across all sessions.
    pub fn queued(&self) -> usize {
        self.sessions.lock().iter().map(Vec::len).sum()
    }

    /// Current health of shard `s`.
    pub fn health(&self, s: usize) -> ShardHealth {
        self.states[s].lock().health
    }

    /// Shards whose health is anything other than Healthy (the
    /// health-state analogue of [`FlushReport::incomplete_shards`]).
    pub fn unhealthy_shards(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&s| self.health(s) != ShardHealth::Healthy)
            .collect()
    }

    /// Snapshot the per-shard health machine into a [`RouterReport`].
    pub fn report(&self) -> RouterReport {
        let rows = (0..self.states.len())
            .map(|s| {
                let st = self.states[s].lock();
                ShardHealthRow {
                    shard: s as u64,
                    state: st.health,
                    retries: st.retries,
                    backoff_s: st.backoff_s,
                    journal_depth: st.journal.depth() as u64,
                    rebuilds: st.rebuilds,
                }
            })
            .collect();
        RouterReport { rows }
    }

    /// Unacknowledged journal entries for shard `s` (held writes that a
    /// rebuild would replay).
    pub fn journal_depth(&self, s: usize) -> usize {
        self.states[s].lock().journal.depth()
    }

    /// Transition a shard's health, emitting a trace instant and a
    /// transition count so the path is visible in the profiler timeline.
    fn set_health(&self, st: &mut ShardState, s: usize, to: ShardHealth) {
        let from = st.health;
        if from == to {
            return;
        }
        st.health = to;
        self.serving[s].store(to.is_dispatchable(), Ordering::Release);
        let dev = self.graph.group().device(s);
        if let Some(p) = dev.profiler() {
            dev.instant("shard_health", format!("shard {s}: {from} -> {to}"));
            p.metrics().record("router.health_transitions", 1);
        }
    }

    /// Launch-admission gate with bounded retry. Charges exponential
    /// backoff on the modeled clock between attempts and drives the
    /// health machine; returns the accumulated backoff seconds, or the
    /// final fault (with the backoff spent getting there) after marking
    /// the shard Down.
    fn admit(
        &self,
        st: &mut ShardState,
        s: usize,
        dev: &Device,
    ) -> Result<f64, (f64, DeviceFault)> {
        let mut backoff = 0.0;
        let mut attempt = 0u32;
        loop {
            match dev.launch_check() {
                Ok(()) => {
                    if attempt > 0 {
                        // Recovered within the retry budget.
                        self.set_health(st, s, ShardHealth::Healthy);
                    }
                    return Ok(backoff);
                }
                Err(fault) => {
                    self.set_health(st, s, ShardHealth::Suspect);
                    if fault.is_terminal() || attempt >= self.policy.max_retries {
                        self.set_health(st, s, ShardHealth::Down);
                        return Err((backoff, fault));
                    }
                    let wait = self.policy.backoff_s(attempt);
                    st.retries += 1;
                    st.backoff_s += wait;
                    backoff += wait;
                    dev.wait("router.backoff", wait);
                    if let Some(p) = dev.profiler() {
                        p.metrics()
                            .record("router.retry_backoff_us", (wait * 1e6) as u64);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Drain every session queue (session-major, submission order within a
    /// session), journal every update on each shard it routes to —
    /// primaries and cut-edge replicas, of both half-edges when the graph
    /// is undirected — as one list per shard in submit order, and run
    /// one dispatch round. An update whose edge fails
    /// [`DynGraph::check_edge`] is rejected on its own: it is never
    /// journaled, and the shard owning its source reports it as
    /// [`RouterError::Poisoned`] while its batch-mates apply.
    ///
    /// In the round, every dispatchable shard with a non-empty journal log
    /// applies the log in one launch: collapsed per ⟨src, dst⟩ key (work
    /// still pending from earlier flushes first, then this flush's
    /// entries), the last update to a key decides it, so the result is
    /// the submit-order one. The shard acks exactly the entries whose key
    /// applied; the shards run concurrently. A shard that exhausts its
    /// device budget reports a partial [`BatchOutcome`] and keeps the
    /// unapplied entries logged, so a later flush — with or without new
    /// updates — resumes them, while the other shards proceed to
    /// completion. A shard whose device
    /// refuses launch admission is retried per the [`RetryPolicy`]
    /// (backoff charged on the modeled clock) and, once exhausted, marked
    /// Down: its log is held, its [`ShardOutcome::error`] carries the
    /// fault, and subsequent flushes skip it entirely (open circuit
    /// breaker — zero device access) until [`Self::rebuild_downed`]
    /// re-admits it.
    pub fn flush(&self) -> FlushReport {
        let drained: Vec<Vec<PendingOp>> = std::mem::take(&mut *self.sessions.lock());
        let updates: usize = drained.iter().map(Vec::len).sum();
        let n = self.graph.num_shards();
        let drain_s = self.clock_s();
        // Per shard, its journal entries in submit order.
        let mut routed: Vec<Vec<JournalEntry>> = vec![Vec::new(); n];
        let mut rejected: Vec<Option<RouterError>> = vec![None; n];
        {
            // Open one lifecycle record per routed op; it settles when its
            // last journal entry is acked.
            let mut t = self.tracker.lock();
            t.flushes += 1;
            let flush_id = t.flushes;
            for p in drained.iter().flatten() {
                let (kind, e, wrap): (_, _, fn(Edge) -> Update) = match p.update {
                    Update::Insert(e) => ("insert", e, Update::Insert),
                    Update::Delete(e) => ("delete", e, Update::Delete),
                };
                let su = self.graph.owner_of(e.src);
                if let Err(source) = self.graph.shard(su).check_edge(&e) {
                    rejected[su].get_or_insert(RouterError::Poisoned { shard: su, source });
                    continue;
                }
                let mut unacked = 0;
                self.graph.route(e, |s, copy, _| {
                    routed[s].push(JournalEntry {
                        ctx: p.ctx,
                        update: wrap(copy),
                    });
                    unacked += 1;
                });
                let queue_ns = as_ns((drain_s - p.submitted_s).max(0.0));
                t.open.insert(
                    p.ctx.op,
                    OpenOp {
                        rec: OpTraceRecord {
                            op: p.ctx.op,
                            session: p.ctx.session,
                            kind: kind.to_string(),
                            flush: flush_id,
                            queue_ns,
                            backoff_ns: 0,
                            kernel_ns: 0,
                            degraded_ns: 0,
                            spans: vec![format!("flush#{flush_id} queue {queue_ns} ns")],
                        },
                        unacked,
                    },
                );
            }
        }
        // Write-ahead: journal every routed update before any dispatch, so
        // a shard that dies mid-flush can be rebuilt without losing writes.
        // Everything a shard's dispatch records — kernel spans, backoff
        // waits, health instants — is stamped with the first op in its
        // journal, so the merged trace chains back to client traffic.
        let mut appended = vec![0; n];
        let mut ctxs = vec![None; n];
        for (s, entries) in routed.into_iter().enumerate() {
            let mut st = self.states[s].lock();
            appended[s] = entries.len();
            st.journal.log.extend(entries);
            ctxs[s] = st.journal.first_op();
            if let Some(p) = self.graph.group().device(s).profiler() {
                p.metrics()
                    .gauge("router.journal_depth")
                    .set(st.journal.depth() as u64);
            }
        }
        let dispatched = self.graph.group().dispatch(&ctxs, |s, dev| {
            let mut st = self.states[s].lock();
            let mut outcome = ShardOutcome {
                shard: s,
                insert: None,
                delete: None,
                modeled_s: 0.0,
                backoff_s: 0.0,
                health: st.health,
                error: rejected[s],
            };
            if !st.health.is_dispatchable() {
                // Circuit breaker open: hold the log without touching the
                // device at all, and report only this flush's entries as
                // held, so a long outage costs each flush only its own
                // entries.
                let log = &st.journal.log;
                let held = replay(None, &log[log.len() - appended[s]..]);
                outcome.insert = held.insert;
                outcome.delete = held.delete;
                return (outcome, Vec::new(), Vec::new());
            }
            if st.journal.log.is_empty() {
                // No work: no launch admission consumed, so fault plans
                // keyed on launch index stay deterministic w.r.t. work.
                return (outcome, Vec::new(), Vec::new());
            }
            let log = st.journal.log.clone();
            let t0 = dev.clock_s();
            let done = match self.admit(&mut st, s, dev) {
                Err((backoff, fault)) => {
                    outcome.backoff_s = backoff;
                    // A rejected update keeps its report; the fault still
                    // shows as the shard's Down health.
                    outcome.error.get_or_insert(RouterError::Fault {
                        shard: s,
                        source: fault,
                    });
                    replay(None, &log)
                }
                Ok(backoff) => {
                    let g = self.graph.shard(s);
                    let _phase = dev.phase("router.flush");
                    let done = replay(Some(&g), &log);
                    drop(_phase);
                    outcome.backoff_s = backoff;
                    // A clean dispatch heals a Suspect shard.
                    self.set_health(&mut st, s, ShardHealth::Healthy);
                    st.journal.ack(&done.applied);
                    if let Some(p) = dev.profiler() {
                        p.metrics()
                            .gauge("router.journal_depth")
                            .set(st.journal.depth() as u64);
                    }
                    done
                }
            };
            outcome.modeled_s = dev.clock_s() - t0;
            outcome.health = st.health;
            outcome.insert = done.insert;
            outcome.delete = done.delete;
            (outcome, log, done.applied)
        });
        let shards = dispatched
            .into_iter()
            .map(|(o, log, applied)| {
                let kernel_s = (o.modeled_s - o.backoff_s).max(0.0);
                self.charge(o.shard, &log, &applied, kernel_s, o.backoff_s, false);
                o
            })
            .collect();
        FlushReport { updates, shards }
    }

    /// Charge shard `s`'s replay of `entries` to their ops, an even share
    /// of `kernel_s` and `backoff_s` each. An applied entry is acked: its
    /// op gains a `dispatch` span (`router.rebuild` for a rebuild) and
    /// settles once its last entry is acked. An unapplied one stays open
    /// and gains a `retry` span for whatever it was charged.
    fn charge(
        &self,
        s: usize,
        entries: &[JournalEntry],
        applied: &[bool],
        kernel_s: f64,
        backoff_s: f64,
        rebuild: bool,
    ) {
        if entries.is_empty() {
            return;
        }
        let kernel = as_ns(kernel_s / entries.len() as f64);
        let backoff = as_ns(backoff_s / entries.len() as f64);
        let mut t = self.tracker.lock();
        for (entry, &acked) in entries.iter().zip(applied) {
            if !acked && kernel == 0 && backoff == 0 {
                continue;
            }
            let Some(open) = t.open.get_mut(&entry.ctx.op) else {
                continue;
            };
            open.rec.kernel_ns += kernel;
            open.rec.backoff_ns += backoff;
            open.rec.spans.push(match (rebuild, acked) {
                (true, _) => format!("shard{s}/router.rebuild {kernel} ns"),
                (false, true) => {
                    format!("shard{s}/dispatch kernel {kernel} ns backoff {backoff} ns")
                }
                (false, false) => format!("shard{s}/retry kernel {kernel} ns backoff {backoff} ns"),
            });
            if acked {
                open.unacked -= 1;
                if open.unacked == 0 {
                    let Some(open) = t.open.remove(&entry.ctx.op) else {
                        continue;
                    };
                    t.finalize(open.rec, &self.op_metrics);
                }
            }
        }
    }

    /// Rebuild every Down shard from its journal: reset the device
    /// ([`gpu_sim::Device::reset`] clears the lost latch and fault
    /// plans), replay the checkpoint and then a snapshot of the log into a
    /// fresh shard through the same apply step a flush uses, audit the
    /// whole sharded graph with [`ShardedGraph::validate`], and only then
    /// ack the replayed entries and re-admit the shard as Healthy. Updates
    /// journaled while the replay runs stay logged for the next flush.
    /// Returns the rebuilt shard ids.
    ///
    /// If any replay runs out of device memory, every shard of the pass
    /// goes back to Down with nothing acked, unaudited, and nothing is
    /// returned; a later call retries them all. If the audit fails, no
    /// rebuilt shard is re-admitted (they stay in `Rebuilding`) and the
    /// audit error is returned.
    pub fn rebuild_downed(&self) -> Result<Vec<usize>, ShardedValidationError> {
        let mut replayed: Vec<(usize, Vec<JournalEntry>, f64)> = Vec::new();
        let mut out_of_memory = false;
        for s in 0..self.graph.num_shards() {
            // Snapshot the replay image, then release the state lock for
            // the device-side replay (degraded reads stay responsive).
            let (first, mut checkpoint, log) = {
                let mut st = self.states[s].lock();
                if st.health != ShardHealth::Down {
                    continue;
                }
                self.set_health(&mut st, s, ShardHealth::Rebuilding);
                let checkpoint: Vec<Edge> = st
                    .journal
                    .checkpoint
                    .iter()
                    .map(|(&(u, v), &w)| Edge::weighted(u, v, w))
                    .collect();
                (st.journal.first_op(), checkpoint, st.journal.log.clone())
            };
            let dev = self.graph.group().device(s).clone();
            // Replay spans chain to the first op in the shard's journal —
            // the oldest write the rebuild is recovering.
            let ctx = first.unwrap_or_else(|| self.graph.dispatch_ctx());
            let _trace = dev.trace_scope(ctx);
            let t0 = dev.clock_s();
            // The checkpoint is a map; sort for a deterministic replay.
            checkpoint.sort_unstable_by_key(|e| (e.src, e.dst));
            let base: Vec<JournalEntry> = checkpoint
                .into_iter()
                .map(|e| JournalEntry {
                    ctx,
                    update: Update::Insert(e),
                })
                .collect();
            self.graph.reset_shard(s);
            let done = {
                let g = self.graph.shard(s);
                let _phase = dev.phase("router.rebuild");
                let base = replay(Some(&g), &base);
                if base.is_complete() {
                    replay(Some(&g), &log)
                } else {
                    base
                }
            };
            if !done.is_complete() {
                out_of_memory = true;
                self.set_health(&mut self.states[s].lock(), s, ShardHealth::Down);
                continue;
            }
            replayed.push((s, log, dev.clock_s() - t0));
        }
        if out_of_memory || replayed.is_empty() {
            // A half-replayed shard would fail the audit: after an OOM the
            // whole pass goes back to Down, nothing acked, for a later
            // retry.
            for &(s, ..) in &replayed {
                self.set_health(&mut self.states[s].lock(), s, ShardHealth::Down);
            }
            return Ok(Vec::new());
        }
        // Cross-shard audit before re-admitting anything: a rebuild that
        // fails the audit leaves its shard un-admitted in Rebuilding.
        self.graph.validate()?;
        let mut rebuilt = Vec::new();
        for (s, log, dur) in replayed {
            // The replay applied every snapshot entry.
            let applied = vec![true; log.len()];
            let mut st = self.states[s].lock();
            st.journal.ack(&applied);
            st.rebuilds += 1;
            self.set_health(&mut st, s, ShardHealth::Healthy);
            let dev = self.graph.group().device(s);
            if let Some(p) = dev.profiler() {
                p.metrics()
                    .gauge("router.journal_depth")
                    .set(st.journal.depth() as u64);
                p.metrics().record("router.rebuild_us", (dur * 1e6) as u64);
                dev.instant("shard_rebuilt", format!("shard {s}"));
            }
            // Each replayed op is charged an even share of the rebuild as
            // kernel time.
            self.charge(s, &log, &applied, dur, 0.0, true);
            rebuilt.push(s);
        }
        Ok(rebuilt)
    }

    /// Whether shard `s` currently serves dispatches and exact reads.
    /// Reads the lock-free health mirror, never the state mutex: a flush
    /// dispatch holds the mutex for its whole batch, and reads must not
    /// fence behind it.
    fn is_serving(&self, s: usize) -> bool {
        self.serving[s].load(Ordering::Acquire)
    }

    /// Pin every serving shard for a read session that runs concurrently
    /// with in-flight [`Self::flush`]es. Shards that are Down or
    /// Rebuilding at pin time get no guard; reads routed to them degrade.
    /// Nothing on this path touches the per-shard state mutex, so a flush
    /// mid-dispatch never blocks a pinned read (and vice versa). Reads
    /// under this pin are untraced: they mint no op, read no clock, and
    /// never lock the op tracker.
    pub fn pin_read(&self) -> LiveReadPin {
        self.pin(None)
    }

    /// [`Self::pin_read`] for a traced session: every read under the
    /// returned pin mints a client op for `session`, stamps the answering
    /// shards' spans with its [`TraceCtx`], and folds a completed
    /// `"query"` lifecycle into the op log, its modeled cost charged to
    /// the `kernel` component when the read is exact and to `degraded`
    /// otherwise.
    pub fn pin_traced(&self, session: usize) -> LiveReadPin {
        self.pin(Some(session as u64))
    }

    fn pin(&self, session: Option<u64>) -> LiveReadPin {
        let guards = (0..self.graph.num_shards())
            .map(|s| self.is_serving(s).then(|| self.graph.shard(s).pin_read()))
            .collect();
        LiveReadPin { guards, session }
    }

    /// Run `query` on shard `s` under its pinned guard. `None` when the
    /// shard holds no guard (it was not serving at pin time), has since
    /// stopped serving, or was reset since the pin — a rebuilt shard's
    /// fresh allocator no longer owns the guard, so the guard cannot
    /// block its reclamation and the read would be unprotected.
    fn pinned_query<T>(
        &self,
        pin: &LiveReadPin,
        s: usize,
        query: impl FnOnce(&DynGraph, &ReadGuard) -> T,
    ) -> Option<T> {
        let guard = pin.guards.get(s)?.as_ref()?;
        if !self.is_serving(s) {
            return None;
        }
        let g = self.graph.shard(s);
        if !g.allocator().owns_guard(guard) {
            return None;
        }
        Some(query(&g, guard))
    }

    /// The one read path behind every `*_live` query. The owner answers
    /// under its pinned guard, tagged [`ReadQuality::Exact`]; with the
    /// owner unavailable (or its pin staled by a rebuild) every serving
    /// shard in `replicas` answers instead, tagged
    /// [`ReadQuality::Degraded`], and the caller folds their answers. The
    /// epoch pins compose with the degraded-read protocol rather than
    /// replacing it. Under a traced pin the read becomes one `"query"` op
    /// whose spans are named `shard{s}/{what}`.
    fn read<T>(
        &self,
        pin: &LiveReadPin,
        what: &str,
        owner: usize,
        replicas: impl IntoIterator<Item = usize>,
        query: impl Fn(&DynGraph, &ReadGuard) -> T,
    ) -> (Vec<T>, ReadQuality) {
        let ctx = pin
            .session
            .map(|session| TraceCtx::root(session, self.next_op.fetch_add(1, Ordering::AcqRel)));
        // (shard, modeled ns) for every shard that answered a traced read.
        let mut answered: Vec<(usize, u64)> = Vec::new();
        let mut ask = |s: usize| -> Option<T> {
            let Some(ctx) = ctx else {
                return self.pinned_query(pin, s, &query);
            };
            let dev = self.graph.group().device(s);
            let _trace = dev.trace_scope(ctx);
            let t0 = dev.clock_s();
            let answer = self.pinned_query(pin, s, &query)?;
            answered.push((s, as_ns(dev.clock_s() - t0)));
            Some(answer)
        };
        let (answers, quality) = match ask(owner) {
            Some(a) => (vec![a], ReadQuality::Exact),
            None => (
                replicas.into_iter().filter_map(&mut ask).collect(),
                ReadQuality::Degraded,
            ),
        };
        if let Some(ctx) = ctx {
            let cost_ns: u64 = answered.iter().map(|&(_, ns)| ns).sum();
            let (kernel_ns, degraded_ns, q) = match quality {
                ReadQuality::Exact => (cost_ns, 0, "exact"),
                ReadQuality::Degraded => (0, cost_ns, "degraded"),
            };
            let mut spans: Vec<String> = answered
                .iter()
                .map(|&(s, ns)| format!("shard{s}/{what} {ns} ns ({q})"))
                .collect();
            if spans.is_empty() {
                spans.push("unanswerable (owner down, no replica)".to_string());
            }
            let rec = OpTraceRecord {
                op: ctx.op,
                session: ctx.session,
                kind: "query".to_string(),
                flush: 0,
                queue_ns: 0,
                backoff_ns: 0,
                kernel_ns,
                degraded_ns,
                spans,
            };
            self.tracker.lock().finalize(rec, &self.op_metrics);
        }
        (answers, quality)
    }

    /// Point membership under a read session: `src`'s owner answers
    /// exactly; with the owner unavailable, a cut edge's replica on
    /// `owner(dst)` answers, degraded (the replica is kept under the same
    /// `u→v` key, so it is authoritative for that edge). A shard-internal
    /// edge of an unavailable owner is unanswerable and reports
    /// best-effort absence.
    pub fn edge_exists_live(&self, pin: &LiveReadPin, src: u32, dst: u32) -> (bool, ReadQuality) {
        let owner = self.graph.owner_of(src);
        let replica = Some(self.graph.owner_of(dst)).filter(|&r| r != owner);
        let (hits, quality) = self.read(pin, "edge_exists", owner, replica, |g, p| {
            g.edge_exists(p, src, dst)
        });
        (hits.contains(&true), quality)
    }

    /// `u`'s neighbours under a read session: exact from the owner; else
    /// the sorted union of `u`'s cut out-edges replicated on the other
    /// serving shards, degraded (it misses `u`'s shard-internal edges).
    pub fn neighbor_ids_live(&self, pin: &LiveReadPin, u: u32) -> (Vec<u32>, ReadQuality) {
        let owner = self.graph.owner_of(u);
        let others = (0..self.graph.num_shards()).filter(|&s| s != owner);
        let (lists, quality) = self.read(pin, "neighbor_ids", owner, others, |g, p| {
            g.read_neighbors(p, &[u]).list(0).to_vec()
        });
        let mut out = lists.concat();
        if quality == ReadQuality::Degraded {
            out.sort_unstable();
            out.dedup();
        }
        (out, quality)
    }

    /// Out-degree under a read session: exact from the owner; else the
    /// sum of the replica degrees on the other serving shards, degraded
    /// (it undercounts by `u`'s shard-internal edges).
    pub fn degree_live(&self, pin: &LiveReadPin, u: u32) -> (u32, ReadQuality) {
        let owner = self.graph.owner_of(u);
        let others = (0..self.graph.num_shards()).filter(|&s| s != owner);
        let (degrees, quality) = self.read(pin, "degree", owner, others, |g, _| g.degree(u));
        (degrees.iter().sum(), quality)
    }

    /// Completed op lifecycles, oldest first (bounded ring).
    pub fn op_records(&self) -> Vec<OpTraceRecord> {
        self.tracker.lock().completed.iter().cloned().collect()
    }

    /// The slowest completed ops by total modeled latency, slowest
    /// first, full span chains retained (a bounded ring of eight).
    pub fn tail_exemplars(&self) -> Vec<OpTraceRecord> {
        self.tracker.lock().exemplars.clone()
    }

    /// One merged [`TraceReport`] for the whole router: the group's
    /// [`DeviceGroup::merged_report`](gpu_sim::DeviceGroup::merged_report)
    /// with the router's op-latency summaries merged into its metric rows,
    /// sorted by name. The
    /// `op.{queue,backoff,kernel,degraded,total}_ns` rows are the
    /// per-component attribution (p50/p95/p99 over completed ops).
    pub fn trace_report(&self) -> TraceReport {
        let mut report = self.graph.group().merged_report();
        report.metrics.extend(self.op_metrics.summaries());
        report.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }
}

/// An era-pinned read session over a [`BatchRouter`]'s serving shards,
/// from [`BatchRouter::pin_read`] or [`BatchRouter::pin_traced`]. One
/// guard per shard (`None` for shards not serving at pin time). A shard
/// rebuilt while the pin is held stales its guard — subsequent `*_live`
/// reads routed there degrade until a fresh pin is taken.
#[must_use = "reads are only pinned while the session is held"]
pub struct LiveReadPin {
    guards: Vec<Option<ReadGuard>>,
    /// The client session traced reads are attributed to; `None` for an
    /// untraced session.
    session: Option<u64>,
}

impl LiveReadPin {
    /// How many shards this session actually pinned.
    pub fn pinned_shards(&self) -> usize {
        self.guards.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg, pairs};
    use backend::GraphBackend;
    use gpu_sim::FaultPlan;
    use slabgraph::GraphConfig;

    #[test]
    fn router_flush_is_deterministic_and_complete() {
        let g = ShardedGraph::new(2, cfg(128));
        let router = BatchRouter::new(&g);
        // Two sessions submitting from threads: arrival order is racy,
        // flush order is not.
        let updates = pairs(60, 21, 128);
        std::thread::scope(|sc| {
            for session in 0..2usize {
                let router = &router;
                let updates = &updates;
                sc.spawn(move || {
                    for &(u, v) in &updates[session * 30..(session + 1) * 30] {
                        router.submit(session, Update::Insert(Edge::new(u, v)));
                    }
                });
            }
        });
        assert_eq!(router.queued(), 60);
        let report = router.flush();
        assert_eq!(report.updates, 60);
        assert!(report.is_complete());
        assert!(report.modeled_s() > 0.0);
        assert_eq!(router.queued(), 0, "flush drains the queues");
        // The graph now matches a direct insert of the same updates.
        let reference = DynGraph::new(cfg(128));
        reference.insert_edges(&updates.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        assert_eq!(g.num_edges(), reference.num_edges());
        g.validate().expect("audit after routed flush");
    }

    #[test]
    fn partial_oom_on_one_shard_recovers_while_others_proceed() {
        let g = ShardedGraph::new(2, cfg(256));
        let faulty = 1usize;
        g.group()
            .device(faulty)
            .set_fault_plan(FaultPlan::fail_nth(1));
        let router = BatchRouter::new(&g);
        let updates = pairs(120, 5, 256);
        for (i, &(u, v)) in updates.iter().enumerate() {
            router.submit(i % 3, Update::Insert(Edge::new(u, v)));
        }
        let report = router.flush();
        assert!(!report.is_complete());
        assert_eq!(report.incomplete_shards(), vec![faulty]);
        let healthy = &report.shards[1 - faulty];
        assert!(healthy.is_complete(), "other shard proceeds unaffected");
        let broken = report.shards[faulty].insert.as_ref().unwrap();
        assert!(broken.error.is_some());
        assert!(!broken.pending.is_empty());
        // Clear the fault: an empty flush resumes exactly the pending suffix.
        g.group().device(faulty).clear_fault_plan();
        let recovered = router.flush();
        assert!(recovered.is_complete(), "{recovered:?}");
        assert_eq!(recovered.updates, 0);
        let resumed = recovered.shards[faulty].insert.as_ref().unwrap();
        assert_eq!(resumed.attempted, broken.pending.len());
        assert!(recovered.shards[1 - faulty].insert.is_none());
        assert_eq!(router.journal_depth(faulty), 0);
        let reference = DynGraph::new(cfg(256));
        reference.insert_edges(&updates.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        assert_eq!(g.num_edges(), reference.num_edges());
        g.validate().expect("audit after recovery");
    }

    /// Submit `updates` from one session, flush, and return whether each
    /// of `probes` is present afterwards.
    fn flush_then_probe(g: &ShardedGraph, updates: &[Update], probes: &[(u32, u32)]) -> Vec<bool> {
        let router = BatchRouter::new(g);
        for &u in updates {
            router.submit(0, u);
        }
        let report = router.flush();
        assert!(report.is_complete(), "{report:?}");
        for s in 0..g.num_shards() {
            assert_eq!(router.journal_depth(s), 0);
        }
        g.edges_exist(&g.pin_read(), probes)
    }

    #[test]
    fn flush_applies_updates_in_submit_order() {
        let g = ShardedGraph::new(2, cfg(64));
        let e = Edge::new(1, 2);
        assert_eq!(
            flush_then_probe(&g, &[Update::Insert(e), Update::Delete(e)], &[(1, 2)]),
            vec![false],
            "insert-then-delete nets to absent"
        );
        assert_eq!(
            flush_then_probe(&g, &[Update::Delete(e), Update::Insert(e)], &[(1, 2)]),
            vec![true],
            "delete-then-insert nets to present"
        );
        g.validate().expect("audit after submit-order flushes");
    }

    #[test]
    fn last_insert_of_an_edge_keeps_its_weight() {
        let g = ShardedGraph::new(2, cfg(64));
        let updates = [
            Update::Insert(Edge::weighted(3, 40, 7)),
            Update::Insert(Edge::weighted(3, 40, 9)),
        ];
        assert_eq!(flush_then_probe(&g, &updates, &[(3, 40)]), vec![true]);
        let owner = g.shard(g.owner_of(3));
        let adj = owner.read_neighbors(&owner.pin_read(), &[3]);
        assert_eq!(adj.entries(0).collect::<Vec<_>>(), [(40, 9)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn undirected_delete_then_reversed_insert_keeps_both_halves() {
        let g = ShardedGraph::new(
            2,
            GraphConfig::undirected_map(64).with_device_words(1 << 18),
        );
        let (u, v) = (5, 60);
        let updates = [
            Update::Insert(Edge::new(u, v)),
            Update::Delete(Edge::new(v, u)),
            Update::Insert(Edge::new(u, v)),
        ];
        assert_eq!(
            flush_then_probe(&g, &updates, &[(u, v), (v, u)]),
            vec![true, true]
        );
        assert_eq!(g.num_edges(), 2);
        g.validate()
            .expect("both half-edges and their replicas agree");
    }

    #[test]
    fn delete_after_an_oom_pending_insert_nets_to_absent() {
        let g = ShardedGraph::new(2, cfg(64));
        let router = BatchRouter::new(&g);
        let e = Edge::new(9, 33);
        for dev in g.group().devices() {
            dev.set_fault_plan(FaultPlan::fail_nth(1));
        }
        router.submit(0, Update::Insert(e));
        let first = router.flush();
        assert!(!first.is_complete(), "the insert stays pending: {first:?}");
        let owner = g.owner_of(e.src);
        assert_eq!(router.journal_depth(owner), 1);
        for dev in g.group().devices() {
            dev.clear_fault_plan();
        }
        router.submit(0, Update::Delete(e));
        let second = router.flush();
        assert!(second.is_complete(), "{second:?}");
        let out = &second.shards[owner];
        let (ins, del) = (out.insert.as_ref().unwrap(), out.delete.as_ref().unwrap());
        assert_eq!(
            (ins.attempted, ins.completed),
            (1, 1),
            "acks with the delete"
        );
        assert_eq!((del.attempted, del.completed, del.changed), (1, 1, 0));
        for s in 0..g.num_shards() {
            assert_eq!(router.journal_depth(s), 0, "shard {s}");
        }
        assert_eq!(g.edges_exist(&g.pin_read(), &[(e.src, e.dst)]), vec![false]);
        g.validate().expect("audit after the netted flush");
    }

    #[test]
    fn mixed_flush_costs_one_launch_per_shard_with_work() {
        let g = ShardedGraph::new(3, cfg(256));
        let router = BatchRouter::new(&g);
        let base = pairs(90, 41, 256);
        for &(u, v) in &base {
            router.submit(0, Update::Insert(Edge::new(u, v)));
        }
        assert!(router.flush().is_complete());
        // Lose shard 2: its breaker opens on the next flush that reaches it.
        let down = 2usize;
        g.group()
            .device(down)
            .set_fault_plan(FaultPlan::device_lost_at(1));
        router.submit(0, Update::Insert(Edge::new(base[0].0, base[0].1)));
        for &(u, v) in base.iter().filter(|&&(u, _)| g.owner_of(u) == down) {
            router.submit(0, Update::Insert(Edge::new(u, v)));
        }
        router.flush();
        assert_eq!(router.health(down), ShardHealth::Down);
        // One mixed window: deletes of half the base, inserts of fresh
        // edges, interleaved.
        let fresh = pairs(90, 42, 256);
        for (i, (&(u, v), &(a, b))) in base.iter().zip(&fresh).enumerate() {
            router.submit(i % 2, Update::Delete(Edge::new(u, v)));
            router.submit(i % 2, Update::Insert(Edge::new(a, b)));
        }
        let before: Vec<u64> = (0..3)
            .map(|s| g.group().device(s).counters().snapshot().launches)
            .collect();
        let report = router.flush();
        for (s, (o, before)) in report.shards.iter().zip(before).enumerate() {
            let launches = g.group().device(s).counters().snapshot().launches - before;
            if s == down {
                assert_eq!(launches, 0, "open breaker never touches the device");
            } else {
                assert!(
                    o.insert.is_some() && o.delete.is_some(),
                    "shard {s} is mixed"
                );
                assert!(o.is_complete(), "{o:?}");
                assert_eq!(launches, 1, "shard {s}: one launch per flush");
            }
        }
    }

    #[test]
    fn transient_fault_retries_within_policy_and_heals() {
        let g = ShardedGraph::new(2, cfg(256));
        let flaky = 0usize;
        // First 2 launch admissions fail, then the device heals; the
        // default policy allows 3 retries, so the flush should succeed.
        g.group()
            .device(flaky)
            .set_fault_plan(FaultPlan::transient_kernel(1, 2));
        let router = BatchRouter::new(&g);
        for (i, &(u, v)) in pairs(60, 9, 256).iter().enumerate() {
            router.submit(i % 2, Update::Insert(Edge::new(u, v)));
        }
        let report = router.flush();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(router.health(flaky), ShardHealth::Healthy);
        let rows = router.report().rows;
        assert_eq!(rows[flaky].retries, 2);
        assert!(rows[flaky].backoff_s > 0.0, "backoff charged");
        assert!(
            report.shards[flaky].modeled_s >= rows[flaky].backoff_s,
            "backoff counts toward the shard's modeled time"
        );
        // Acknowledged apply truncates the journal.
        assert_eq!(router.journal_depth(flaky), 0);
    }

    #[test]
    fn lost_device_opens_breaker_and_journal_holds_writes() {
        let g = ShardedGraph::new(2, cfg(256));
        let victim = 1usize;
        g.group()
            .device(victim)
            .set_fault_plan(FaultPlan::device_lost_at(1));
        let router = BatchRouter::new(&g);
        for (i, &(u, v)) in pairs(80, 11, 256).iter().enumerate() {
            router.submit(i % 2, Update::Insert(Edge::new(u, v)));
        }
        let report = router.flush();
        assert!(!report.is_complete());
        assert_eq!(router.health(victim), ShardHealth::Down);
        assert_eq!(router.unhealthy_shards(), vec![victim]);
        assert!(matches!(
            report.shards[victim].error,
            Some(RouterError::Fault { .. })
        ));
        let held = router.journal_depth(victim);
        assert!(held > 0, "down shard's writes stay journaled");
        // Second flush: the breaker is open, so the victim's device sees
        // zero launches while the other shard keeps serving.
        let before = g.group().device(victim).counters().snapshot();
        for (i, &(u, v)) in pairs(40, 12, 256).iter().enumerate() {
            router.submit(i % 2, Update::Insert(Edge::new(u, v)));
        }
        let second = router.flush();
        let delta = g
            .group()
            .device(victim)
            .counters()
            .snapshot()
            .delta(&before);
        assert_eq!(delta.launches, 0, "open breaker never touches the device");
        assert_eq!(delta.transactions, 0);
        assert!(second.shards[1 - victim].is_complete());
        assert!(
            second.shards[victim].error.is_none(),
            "held, not re-faulted"
        );
        let routed_here = pairs(40, 12, 256)
            .iter()
            .filter(|&&(u, v)| g.owner_of(u) == victim || g.owner_of(v) == victim)
            .count();
        assert_eq!(
            second.shards[victim].insert.as_ref().map(|o| o.attempted),
            Some(routed_here),
            "an open breaker reports this flush's entries, not the backlog"
        );
        assert!(
            router.journal_depth(victim) > held,
            "holds keep accumulating"
        );
        // Rebuild: reset + journal replay + audit + re-admit.
        let rebuilt = router.rebuild_downed().expect("audit after rebuild");
        assert_eq!(rebuilt, vec![victim]);
        assert_eq!(router.health(victim), ShardHealth::Healthy);
        assert_eq!(router.journal_depth(victim), 0);
        // Final state matches an unsharded replay of every update.
        let reference = DynGraph::new(cfg(256));
        let mut all = pairs(80, 11, 256);
        all.extend(pairs(40, 12, 256));
        reference.insert_edges(&all.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
        assert_eq!(g.num_edges(), reference.num_edges());
        g.validate().expect("audit after re-admission");
    }

    type Pair = (u32, u32);

    /// Fill a two-shard router with seeded edges, then lose shard 0.
    /// Returns the updates, a cut edge out of shard 0, and one of its
    /// shard-internal edges.
    fn lose_shard_zero(g: &ShardedGraph, router: &BatchRouter<'_>) -> (Vec<Pair>, Pair, Pair) {
        let updates = pairs(100, 21, 128);
        for (i, &(u, v)) in updates.iter().enumerate() {
            router.submit(i % 2, Update::Insert(Edge::new(u, v)));
        }
        assert!(router.flush().is_complete());
        let out_of_zero = |cut: bool| {
            updates
                .iter()
                .find(|&&(u, v)| g.owner_of(u) == 0 && (g.owner_of(v) != 0) == cut)
                .copied()
                .expect("the seeded edges hold both kinds")
        };
        let (cut, internal) = (out_of_zero(true), out_of_zero(false));
        g.group()
            .device(0)
            .set_fault_plan(FaultPlan::device_lost_at(1));
        // Re-submit an edge shard 0 owns so the flush definitely
        // dispatches (and faults) there.
        router.submit(0, Update::Insert(Edge::new(internal.0, internal.1)));
        router.flush();
        assert_eq!(router.health(0), ShardHealth::Down);
        (updates, cut, internal)
    }

    #[test]
    fn router_report_renders_one_line_summary() {
        let g = ShardedGraph::new(3, cfg(64));
        let router = BatchRouter::new(&g);
        assert_eq!(router.report().render(), "router health: 3/3 healthy");
        g.group()
            .device(2)
            .set_fault_plan(FaultPlan::device_lost_at(1));
        router.submit(0, Update::Insert(Edge::new(5, 60)));
        router.submit(0, Update::Insert(Edge::new(60, 5)));
        router.flush();
        assert_eq!(router.unhealthy_shards(), vec![2]);
        let line = router.report().render();
        assert!(
            line.starts_with("router health: 2/3 healthy | shard 2: down"),
            "{line}"
        );
        assert!(line.contains("journal"), "{line}");
    }

    #[test]
    fn live_reads_serve_during_inflight_flushes() {
        let g = ShardedGraph::new(2, cfg(256));
        let router = BatchRouter::new(&g);
        // A stable baseline the concurrent flushes never touch.
        let stable = pairs(40, 31, 128); // ids < 128; churn uses 128..256
        for &(u, v) in &stable {
            router.submit(0, Update::Insert(Edge::new(u, v)));
        }
        assert!(router.flush().is_complete());
        // One thread keeps flushing fresh edges while this thread holds a
        // pinned session and reads the baseline: every read must answer
        // exactly, without fencing behind the in-flight dispatches.
        std::thread::scope(|sc| {
            let router = &router;
            sc.spawn(move || {
                for round in 0..8u64 {
                    for (i, &(u, v)) in pairs(30, 100 + round, 128).iter().enumerate() {
                        router.submit(
                            i % 2,
                            Update::Insert(Edge::new(128 + u % 128, 128 + v % 128)),
                        );
                    }
                    assert!(router.flush().is_complete());
                }
            });
            for _ in 0..8 {
                let pin = router.pin_read();
                assert_eq!(pin.pinned_shards(), 2);
                for &(u, v) in &stable {
                    assert_eq!(
                        router.edge_exists_live(&pin, u, v),
                        (true, ReadQuality::Exact)
                    );
                }
            }
        });
        g.validate()
            .expect("audit after concurrent read/flush churn");
    }

    #[test]
    fn live_reads_compose_with_degraded_protocol() {
        let g = ShardedGraph::new(2, cfg(128));
        let router = BatchRouter::new(&g);
        let (updates, cut, internal) = lose_shard_zero(&g, &router);
        let down = 0usize;
        // A session pinned now only covers the survivor.
        let pin = router.pin_read();
        assert_eq!(pin.pinned_shards(), 1);
        // Cut edge answers from the survivor's replica, degraded.
        assert_eq!(
            router.edge_exists_live(&pin, cut.0, cut.1),
            (true, ReadQuality::Degraded)
        );
        // Internal edge of the down shard: best-effort absence.
        assert_eq!(
            router.edge_exists_live(&pin, internal.0, internal.1),
            (false, ReadQuality::Degraded)
        );
        // Survivor-owned vertices stay exact.
        let survivor_v = updates
            .iter()
            .find(|&&(u, _)| g.owner_of(u) != down)
            .map(|&(u, _)| u)
            .unwrap();
        assert_eq!(router.degree_live(&pin, survivor_v).1, ReadQuality::Exact);
        // Degraded neighbours are exactly the surviving cut out-edges.
        let (nbrs, q) = router.neighbor_ids_live(&pin, cut.0);
        assert_eq!(q, ReadQuality::Degraded);
        let mut expected: Vec<u32> = updates
            .iter()
            .filter(|&&(a, b)| a == cut.0 && g.owner_of(b) != down)
            .map(|&(_, b)| b)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(nbrs, expected);
        // Degraded degree counts exactly those surviving cut out-edges.
        assert_eq!(
            router.degree_live(&pin, cut.0),
            (expected.len() as u32, ReadQuality::Degraded)
        );
        // Untraced reads leave the op log alone.
        assert!(router.op_records().iter().all(|r| r.kind != "query"));
    }

    #[test]
    fn traced_read_of_a_downed_owner_charges_degraded_time() {
        let g = ShardedGraph::new(2, cfg(128));
        let router = BatchRouter::new(&g);
        let (_, cut, _) = lose_shard_zero(&g, &router);
        let pin = router.pin_traced(5);
        assert_eq!(
            router.edge_exists_live(&pin, cut.0, cut.1),
            (true, ReadQuality::Degraded)
        );
        let reads: Vec<OpTraceRecord> = router
            .op_records()
            .into_iter()
            .filter(|r| r.kind == "query")
            .collect();
        assert_eq!(reads.len(), 1, "one op per traced read");
        let r = &reads[0];
        assert_eq!(r.session, 5);
        assert!(r.degraded_ns > 0, "{r:?}");
        assert_eq!(r.kernel_ns, 0, "{r:?}");
        assert_eq!(r.total_ns(), r.degraded_ns);
        assert_eq!(r.spans.len(), 1, "{r:?}");
        assert!(
            r.spans[0].starts_with("shard1/edge_exists ") && r.spans[0].ends_with(" ns (degraded)"),
            "{:?}",
            r.spans
        );
    }

    #[test]
    fn stale_pin_after_rebuild_degrades_until_repinned() {
        let g = ShardedGraph::new(2, cfg(128));
        let router = BatchRouter::new(&g);
        let updates = pairs(60, 17, 128);
        for (i, &(u, v)) in updates.iter().enumerate() {
            router.submit(i % 2, Update::Insert(Edge::new(u, v)));
        }
        assert!(router.flush().is_complete());
        let down = 1usize;
        let internal = updates
            .iter()
            .find(|&&(u, v)| g.owner_of(u) == down && g.owner_of(v) == down)
            .copied()
            .expect("an internal edge on the victim shard");
        // Pin while healthy, then lose and rebuild the shard: the rebuild
        // swaps in a fresh graph whose allocator does not own our guard.
        let pin = router.pin_read();
        assert_eq!(pin.pinned_shards(), 2);
        g.group()
            .device(down)
            .set_fault_plan(FaultPlan::device_lost_at(1));
        router.submit(0, Update::Insert(Edge::new(internal.0, internal.1)));
        router.flush();
        assert_eq!(router.health(down), ShardHealth::Down);
        assert_eq!(router.rebuild_downed().expect("rebuild"), vec![down]);
        assert_eq!(router.health(down), ShardHealth::Healthy);
        // The stale guard cannot protect the rebuilt shard: reads routed
        // there degrade instead of touching it unprotected.
        assert_eq!(
            router.edge_exists_live(&pin, internal.0, internal.1).1,
            ReadQuality::Degraded
        );
        // A fresh session pins the rebuilt shard and answers exactly.
        let fresh = router.pin_read();
        assert_eq!(fresh.pinned_shards(), 2);
        assert_eq!(
            router.edge_exists_live(&fresh, internal.0, internal.1),
            (true, ReadQuality::Exact)
        );
    }
}
