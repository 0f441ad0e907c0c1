//! Shard health and the write-ahead journal: the per-shard health
//! machine and retry policy, typed router errors, each shard's journal
//! and the one `replay` step that applies it, and the health report.

use gpu_sim::{DeviceFault, TraceCtx};
use slabgraph::{BatchOp, BatchOutcome, DynGraph, GraphError, Update};
use std::collections::HashMap;

/// One shard's position in the router's health state machine.
///
/// `Healthy → Suspect` on the first failed launch admission; `Suspect →
/// Healthy` on the next successful dispatch; `Suspect → Down` when the
/// [`RetryPolicy`] is exhausted or the fault is terminal
/// ([`DeviceFault::Lost`]). A Down shard's circuit breaker is *open*: the
/// router stops dispatching to it (batches are journaled and held, reads
/// degrade) until
/// [`BatchRouter::rebuild_downed`](crate::BatchRouter::rebuild_downed)
/// moves it through `Rebuilding` back to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// Dispatching normally.
    #[default]
    Healthy,
    /// At least one launch admission failed recently; still dispatching.
    Suspect,
    /// Circuit breaker open: no dispatch, reads degrade, writes are held
    /// in the journal.
    Down,
    /// Device reset and journal replay in progress; treated like Down for
    /// dispatch and reads.
    Rebuilding,
}

impl ShardHealth {
    /// Stable lowercase name (used in traces and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Down => "down",
            ShardHealth::Rebuilding => "rebuilding",
        }
    }

    /// Whether the router may dispatch batches to this shard.
    pub fn is_dispatchable(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Suspect)
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bounded-retry policy for failed launch admissions. Backoff is charged
/// on the shard device's *modeled* clock ([`gpu_sim::Device::wait`]), so
/// it lands in the shard's
/// [`ShardOutcome::modeled_s`](crate::ShardOutcome::modeled_s) and
/// waiting on a flaky shard costs makespan exactly like work does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Admission retries per dispatch before the shard is marked Down.
    pub max_retries: u32,
    /// Backoff before the first retry, in modeled seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 50e-6,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry number `attempt` (0-based).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.base_backoff_s * self.multiplier.powi(attempt as i32)
    }
}

/// A typed per-shard failure. Distinct from the recoverable OOM carried
/// inside a partial [`BatchOutcome`]: a `RouterError` means work was *not*
/// applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouterError {
    /// An update is bad (e.g. an out-of-range vertex id), reported on the
    /// shard that owns its source. It is rejected when the flush drains
    /// the queues — never journaled, routed, or retried, since retrying it
    /// could never succeed — while its batch-mates apply. Not a health
    /// event: the device is fine, the input is not.
    Poisoned { shard: usize, source: GraphError },
    /// The shard's device refused launch admission and the retry policy
    /// was exhausted (or the fault was terminal). The shard is now Down.
    Fault { shard: usize, source: DeviceFault },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Poisoned { shard, source } => {
                write!(f, "shard {shard}: poisoned batch: {source}")
            }
            RouterError::Fault { shard, source } => {
                write!(f, "shard {shard}: device fault: {source}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// One journaled update on one shard: the client op it belongs to (its
/// [`TraceCtx`]) and the edge it inserts or deletes there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JournalEntry {
    pub(crate) ctx: TraceCtx,
    pub(crate) update: Update,
}

/// Per-shard write-ahead journal: the acked entries folded into a compact
/// checkpoint (edge → weight, primaries and replicas alike) plus the
/// ordered log of every entry not yet applied — the only record of the
/// shard's pending work. Acking exactly what was applied keeps the depth
/// proportional to in-flight work, not history; a rebuild replays
/// checkpoint-then-log into a fresh shard.
#[derive(Debug, Default)]
pub(crate) struct ShardJournal {
    pub(crate) checkpoint: HashMap<(u32, u32), u32>,
    pub(crate) log: Vec<JournalEntry>,
}

impl ShardJournal {
    /// Unacknowledged entries.
    pub(crate) fn depth(&self) -> usize {
        self.log.len()
    }

    /// The first-submitted op with an entry in the log: the one rule for
    /// which op a shard's dispatch and rebuild spans are stamped with.
    pub(crate) fn first_op(&self) -> Option<TraceCtx> {
        self.log.iter().map(|e| e.ctx).min_by_key(|ctx| ctx.op)
    }

    /// Fold the entries of the log's first `applied.len()` flagged applied
    /// into the checkpoint, in log order; every other entry, including any
    /// appended since the replay snapshot, stays logged in order.
    pub(crate) fn ack(&mut self, applied: &[bool]) {
        let mut kept = Vec::new();
        for (i, entry) in self.log.drain(..).enumerate() {
            match (applied.get(i), entry.update) {
                (Some(true), Update::Insert(e)) => {
                    self.checkpoint.insert((e.src, e.dst), e.weight);
                }
                (Some(true), Update::Delete(e)) => {
                    self.checkpoint.remove(&(e.src, e.dst));
                }
                _ => kept.push(entry),
            }
        }
        self.log = kept;
    }
}

/// What one replay of journal entries did on one shard: per-kind outcomes
/// over the entries, and which entries were applied.
pub(crate) struct Replay {
    pub(crate) insert: Option<BatchOutcome>,
    pub(crate) delete: Option<BatchOutcome>,
    pub(crate) applied: Vec<bool>,
}

impl Replay {
    pub(crate) fn is_complete(&self) -> bool {
        self.applied.iter().all(|&a| a)
    }
}

/// The one apply step behind flush and rebuild: collapse `entries` per
/// ⟨src, dst⟩ key in log order ([`Update::collapse`]: the last update to
/// a key decides it) and apply the deciders, which touch distinct keys,
/// with one [`DynGraph::try_update_edges`] launch. Every entry acks with
/// its key's decider. With `g` `None` (breaker open, admission refused)
/// every entry is held pending. Replay is idempotent: re-inserting an
/// edge replaces its weight, re-deleting is a no-op.
///
/// The per-kind outcomes count journal entries: `attempted` is the
/// entries of that kind, `completed + pending.len() == attempted`, and
/// `changed` and `error` are the launch's for that kind.
pub(crate) fn replay(g: Option<&DynGraph>, entries: &[JournalEntry]) -> Replay {
    let updates: Vec<Update> = entries.iter().map(|e| e.update).collect();
    let kind = |u: &Update| usize::from(!u.is_insert());
    let (deciders, slots) = Update::collapse(&updates);
    // The launch's insert and delete outcomes.
    let launched: Option<[BatchOutcome; 2]> = g.map(|g| match g.try_update_edges(&deciders) {
        Ok((ins, del)) => [ins, del],
        // Flush checks every edge before journaling it.
        Err(e) => unreachable!("journaled edge failed validation: {e}"),
    });
    // Which deciders applied: each kind's `pending` lists its unapplied
    // deciders in batch order.
    let decided: Vec<bool> = match &launched {
        None => vec![false; deciders.len()],
        Some(launched) => {
            let mut pending = launched.each_ref().map(|o| o.pending.iter().peekable());
            deciders
                .iter()
                .map(|u| pending[kind(u)].next_if(|&&p| p == u.edge()).is_none())
                .collect()
        }
    };
    let applied: Vec<bool> = slots.iter().map(|&k| decided[k]).collect();
    let mut outcomes: [Option<BatchOutcome>; 2] = [None, None];
    for (u, &ok) in updates.iter().zip(&applied) {
        let k = kind(u);
        let out = outcomes[k].get_or_insert_with(|| {
            let launch = launched.as_ref().map(|l| &l[k]);
            BatchOutcome {
                op: [BatchOp::InsertEdges, BatchOp::DeleteEdges][k],
                attempted: 0,
                completed: 0,
                changed: launch.map_or(0, |o| o.changed),
                pending: Vec::new(),
                pending_vertices: Vec::new(),
                error: launch.and_then(|o| o.error),
            }
        });
        out.attempted += 1;
        if ok {
            out.completed += 1;
        } else {
            out.pending.push(u.edge());
        }
    }
    let [insert, delete] = outcomes;
    Replay {
        insert,
        delete,
        applied,
    }
}

/// Per-shard router state: health machine position, cumulative
/// fault-tolerance tallies, and the write-ahead journal.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    pub(crate) health: ShardHealth,
    pub(crate) retries: u64,
    pub(crate) backoff_s: f64,
    pub(crate) rebuilds: u64,
    pub(crate) journal: ShardJournal,
}

/// One shard's health at report time: its state-machine position plus
/// cumulative fault-tolerance tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealthRow {
    /// Shard index.
    pub shard: u64,
    /// Health-machine state.
    pub state: ShardHealth,
    /// Cumulative dispatch retries against this shard.
    pub retries: u64,
    /// Cumulative modeled backoff seconds charged waiting on this shard.
    pub backoff_s: f64,
    /// Unacknowledged write-ahead-journal entries for this shard.
    pub journal_depth: u64,
    /// Completed rebuild cycles (reset → replay → re-admit).
    pub rebuilds: u64,
}

/// One-line health summary of a router's shards.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterReport {
    /// Per-shard health rows, in shard order.
    pub rows: Vec<ShardHealthRow>,
}

impl RouterReport {
    /// One-line summary, e.g.
    /// `router health: 3/4 healthy | shard 2: down (retries 3, backoff 0.350 ms, journal 42, rebuilds 0)`.
    pub fn render(&self) -> String {
        let healthy = self
            .rows
            .iter()
            .filter(|r| r.state == ShardHealth::Healthy)
            .count();
        let mut line = format!("router health: {healthy}/{} healthy", self.rows.len());
        for r in self.rows.iter().filter(|r| r.state != ShardHealth::Healthy) {
            line.push_str(&format!(
                " | shard {}: {} (retries {}, backoff {:.3} ms, journal {}, rebuilds {})",
                r.shard,
                r.state,
                r.retries,
                r.backoff_s * 1e3,
                r.journal_depth,
                r.rebuilds
            ));
        }
        line
    }
}
