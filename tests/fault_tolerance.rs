//! Shard fault-tolerance tests: failure injection at launch admission,
//! the router's health state machine and circuit breaker, degraded reads
//! from surviving replicas, and journal-based rebuild of a lost shard.
//!
//! The failure model under test: a shard whose device refuses launch
//! admission is retried per the router's [`RetryPolicy`]; a terminal
//! fault marks it Down and opens its circuit breaker (no device access
//! at all); its traffic stays in the write-ahead journal; reads degrade
//! to cut-edge replicas on surviving owners; and a rebuild (device
//! reset + journal replay + cross-shard audit) re-admits the shard with
//! a final state byte-identical to an unsharded replay.

use dynamic_graphs_gpu::gpu_sim::DeviceFault;
use dynamic_graphs_gpu::graph_gen::splitmix64;
use dynamic_graphs_gpu::prelude::*;

const N: u32 = 256;

fn cfg() -> GraphConfig {
    GraphConfig::directed_map(N)
        .with_device_words(1 << 18)
        .with_pool_slabs(1 << 8)
}

/// Seeded rounds of mixed traffic: inserts are fresh random pairs,
/// deletes target previously-inserted edges.
fn rounds(seed: u64, n_rounds: usize, per_round: usize) -> Vec<Vec<Update>> {
    let mut rng = seed;
    let mut live: Vec<(u32, u32)> = Vec::new();
    (0..n_rounds)
        .map(|_| {
            let mut round = Vec::with_capacity(per_round);
            for i in 0..per_round {
                if i % 4 == 3 && !live.is_empty() {
                    let (u, v) = live[(splitmix64(&mut rng) % live.len() as u64) as usize];
                    round.push(Update::Delete(Edge::new(u, v)));
                } else {
                    let u = (splitmix64(&mut rng) % N as u64) as u32;
                    let mut v = (splitmix64(&mut rng) % N as u64) as u32;
                    if v == u {
                        v = (v + 1) % N;
                    }
                    let w = (splitmix64(&mut rng) % 97 + 1) as u32;
                    live.push((u, v));
                    round.push(Update::Insert(Edge::weighted(u, v, w)));
                }
            }
            round
        })
        .collect()
}

/// One round in the order the router drains it from `submit_round`:
/// session-major, and `submit_round` deals updates round-robin.
fn drained(round: &[Update], sessions: usize) -> Vec<Update> {
    (0..sessions)
        .flat_map(|s| round.iter().skip(s).step_by(sessions).copied())
        .collect()
}

/// Apply one round to the unsharded reference as the router does: in
/// drain order, the last update to an edge deciding it. The deciders
/// touch distinct edges, so their inserts and deletes commute and apply
/// as two plain batches.
fn apply_reference(reference: &DynGraph, round: &[Update], sessions: usize) {
    let (last, _) = Update::collapse(&drained(round, sessions));
    let (ins, del): (Vec<Update>, Vec<Update>) = last.into_iter().partition(|u| u.is_insert());
    reference.insert_edges(&ins.iter().map(|u| u.edge()).collect::<Vec<_>>());
    reference.delete_edges(&del.iter().map(|u| u.edge()).collect::<Vec<_>>());
}

fn submit_round(router: &BatchRouter<'_>, round: &[Update], sessions: usize) {
    for (i, &u) in round.iter().enumerate() {
        router.submit(i % sessions, u);
    }
}

/// Full-state comparison: every vertex's sorted adjacency and weights.
fn assert_state_identical(g: &ShardedGraph, reference: &DynGraph) {
    assert_eq!(g.num_edges(), reference.num_edges(), "edge counts diverge");
    let pin = g.pin_read();
    for u in 0..N {
        // The routed read answers from `u`'s owner shard, weights included.
        let mut got: Vec<(u32, u32)> = g.read_neighbors(&pin, &[u]).entries(0).collect();
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = reference
            .read_neighbors(&reference.pin_read(), &[u])
            .entries(0)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "vertex {u}: adjacency or weights diverged");
    }
}

/// The acceptance scenario: a shard dies mid-stream, traffic keeps
/// flowing (held for the dead shard, applied everywhere else), and after
/// journal rebuild + re-admission the final state is byte-identical to
/// an unsharded replay of the same stream.
#[test]
fn killed_shard_rebuilds_to_byte_identical_state() {
    let shards = 3;
    let g = ShardedGraph::new(shards, cfg());
    let router = BatchRouter::new(&g);
    let reference = DynGraph::new(cfg());
    let traffic = rounds(0xFEED, 6, 120);
    let victim = 1usize;

    for (r, round) in traffic.iter().enumerate() {
        if r == 2 {
            // Kill mid-stream: the next launch admission (and every one
            // after, until reset) fails terminally.
            g.group()
                .device(victim)
                .set_fault_plan(FaultPlan::device_lost_at(1));
        }
        submit_round(&router, round, 4);
        let report = router.flush();
        apply_reference(&reference, round, 4);
        if r >= 2 {
            assert_eq!(router.health(victim), ShardHealth::Down, "round {r}");
            assert!(!report.is_complete(), "round {r}: victim work is held");
        }
        // Surviving shards apply their batches fully every round.
        for so in report.shards.iter().filter(|so| so.shard != victim) {
            assert!(so.is_complete(), "round {r} shard {}: {so:?}", so.shard);
        }
    }
    assert!(
        router.journal_depth(victim) > 0,
        "held writes are journaled"
    );

    // Rebuild: device reset, checkpoint + journal replay, audit, re-admit.
    let rebuilt = router.rebuild_downed().expect("rebuild passes the audit");
    assert_eq!(rebuilt, vec![victim]);
    assert_eq!(router.health(victim), ShardHealth::Healthy);
    assert_eq!(router.unhealthy_shards(), Vec::<usize>::new());
    assert_eq!(
        router.journal_depth(victim),
        0,
        "rebuild truncates the journal"
    );
    g.validate().expect("cross-shard audit after re-admission");
    assert_state_identical(&g, &reference);

    // The re-admitted shard serves normal traffic again.
    let extra = rounds(0xBEEF, 1, 60);
    submit_round(&router, &extra[0], 4);
    assert!(router.flush().is_complete());
    apply_reference(&reference, &extra[0], 4);
    assert_state_identical(&g, &reference);
}

/// Degraded reads are correct for *every* edge whose surviving replica
/// covers it: cut edges out of a Down owner answer from the
/// destination's owner; shard-internal edges report best-effort absence;
/// vertices owned by healthy shards stay Exact.
#[test]
fn degraded_reads_correct_for_every_replica_covered_edge() {
    let shards = 3;
    let g = ShardedGraph::new(shards, cfg());
    let router = BatchRouter::new(&g);
    let traffic = rounds(0xACE, 3, 150);
    let mut live: std::collections::HashMap<(u32, u32), bool> = std::collections::HashMap::new();
    for round in &traffic {
        submit_round(&router, round, 3);
        assert!(router.flush().is_complete());
        for u in drained(round, 3) {
            match u {
                Update::Insert(e) => {
                    live.insert((e.src, e.dst), true);
                }
                Update::Delete(e) => {
                    live.insert((e.src, e.dst), false);
                }
            }
        }
    }

    // Down shard 0 by faulting an edge it owns.
    let victim = 0usize;
    let internal = live
        .iter()
        .find(|(&(u, _), &alive)| alive && g.owner_of(u) == victim)
        .map(|(&k, _)| k)
        .expect("victim owns some live edge");
    g.group()
        .device(victim)
        .set_fault_plan(FaultPlan::device_lost_at(1));
    router.submit(0, Update::Insert(Edge::new(internal.0, internal.1)));
    router.flush();
    assert_eq!(router.health(victim), ShardHealth::Down);

    let pin = router.pin_read();
    for (&(u, v), &alive) in &live {
        let (found, quality) = router.edge_exists_live(&pin, u, v);
        if g.owner_of(u) != victim {
            assert_eq!(quality, ReadQuality::Exact, "{u}->{v}");
            assert_eq!(found, alive, "{u}->{v}: exact read diverged");
        } else if g.owner_of(v) != victim {
            // Replica survives on the destination's owner: the degraded
            // answer must still be correct.
            assert_eq!(quality, ReadQuality::Degraded, "{u}->{v}");
            assert_eq!(found, alive, "{u}->{v}: replica-covered read diverged");
        } else {
            // Internal edge of the down shard: unanswerable, best-effort
            // absence.
            assert_eq!((found, quality), (false, ReadQuality::Degraded), "{u}->{v}");
        }
    }

    // Degraded degree of a victim-owned vertex counts exactly its
    // surviving cut out-edges.
    let u = internal.0;
    let expected: u32 = live
        .iter()
        .filter(|(&(a, b), &alive)| alive && a == u && g.owner_of(b) != victim)
        .count() as u32;
    assert_eq!(
        router.degree_live(&pin, u),
        (expected, ReadQuality::Degraded)
    );
}

/// The circuit breaker provably stops dispatch: once a shard is Down,
/// repeated flushes charge *zero* launches (and zero transactions) to
/// its device, while the batches stay journaled for the rebuild.
#[test]
fn open_breaker_charges_zero_launches() {
    let shards = 2;
    let g = ShardedGraph::new(shards, cfg());
    let router = BatchRouter::new(&g);
    let victim = 0usize;
    g.group()
        .device(victim)
        .set_fault_plan(FaultPlan::device_lost_at(1));
    let traffic = rounds(0xD00D, 4, 80);

    // First flush trips the breaker (retries, then Down).
    submit_round(&router, &traffic[0], 2);
    let first = router.flush();
    assert_eq!(router.health(victim), ShardHealth::Down);
    match first.shards[victim].error {
        Some(RouterError::Fault {
            shard,
            source: DeviceFault::Lost { .. },
        }) => assert_eq!(shard, victim),
        ref other => panic!("expected a Lost fault, got {other:?}"),
    }

    // Every subsequent flush must leave the victim's counters untouched.
    let before = g.group().device(victim).counters().snapshot();
    let depth_before = router.journal_depth(victim);
    for round in &traffic[1..] {
        submit_round(&router, round, 2);
        let last = router.flush();
        let so = &last.shards[victim];
        assert_eq!(so.health, ShardHealth::Down);
        assert!(so.error.is_none(), "held, not re-faulted");
        assert!(!so.is_complete(), "victim work is pending");
        assert_eq!(so.modeled_s, 0.0, "no modeled time while open");
    }
    let delta = g
        .group()
        .device(victim)
        .counters()
        .snapshot()
        .delta(&before);
    assert_eq!(delta.launches, 0, "zero launches while the breaker is open");
    assert_eq!(delta.transactions, 0, "zero memory traffic while open");
    assert_eq!(delta.atomics, 0);
    assert!(
        router.journal_depth(victim) > depth_before,
        "held batches keep accumulating in the journal"
    );

    // An empty flush, which would resume pending work on a dispatchable
    // shard, also respects the open breaker (no device access): the
    // victim stays Down, applies nothing and keeps its held work logged.
    // Its report lists only this flush's entries, so here it is empty.
    let depth = router.journal_depth(victim);
    let resumed = router.flush();
    assert_eq!(resumed.updates, 0);
    let so = &resumed.shards[victim];
    assert_eq!(so.health, ShardHealth::Down);
    assert!(so.insert.is_none() && so.delete.is_none(), "{so:?}");
    assert_eq!(router.journal_depth(victim), depth);
    let still = g
        .group()
        .device(victim)
        .counters()
        .snapshot()
        .delta(&before);
    assert_eq!(
        still.launches, 0,
        "an empty flush must not dispatch to a Down shard"
    );
}

/// A transient kernel fault heals within the retry budget: the flush
/// completes, backoff is charged on the modeled clock, and the shard
/// returns to Healthy without ever tripping the breaker.
#[test]
fn transient_fault_heals_within_retry_budget() {
    let shards = 2;
    let g = ShardedGraph::new(shards, cfg());
    let flaky = 1usize;
    g.group()
        .device(flaky)
        .set_fault_plan(FaultPlan::transient_kernel(1, 3));
    let router = BatchRouter::with_policy(
        &g,
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 1e-4,
            multiplier: 2.0,
        },
    );
    let traffic = rounds(0xF1A2, 2, 100);
    submit_round(&router, &traffic[0], 2);
    let report = router.flush();
    assert!(report.is_complete(), "{report:?}");
    assert_eq!(router.health(flaky), ShardHealth::Healthy);
    let rows = router.report().rows;
    assert_eq!(rows[flaky].retries, 3, "one per failed admission");
    // Exponential backoff: 1e-4 + 2e-4 + 4e-4.
    let want_backoff = 7e-4;
    assert!((rows[flaky].backoff_s - want_backoff).abs() < 1e-12);
    assert!(
        report.shards[flaky].modeled_s >= want_backoff,
        "backoff shows up in the shard's modeled time"
    );

    // Exhausting the budget instead trips the breaker.
    let g2 = ShardedGraph::new(shards, cfg());
    g2.group()
        .device(flaky)
        .set_fault_plan(FaultPlan::transient_kernel(1, 10));
    let strict = BatchRouter::with_policy(
        &g2,
        RetryPolicy {
            max_retries: 2,
            base_backoff_s: 1e-4,
            multiplier: 2.0,
        },
    );
    submit_round(&strict, &traffic[1], 2);
    let report = strict.flush();
    assert_eq!(strict.health(flaky), ShardHealth::Down);
    assert!(matches!(
        report.shards[flaky].error,
        Some(RouterError::Fault {
            source: DeviceFault::TransientKernel { .. },
            ..
        })
    ));
}
