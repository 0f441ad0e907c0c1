//! Fault-injection and bounded-memory recovery tests.
//!
//! The failure model under test: with a device-memory budget or a
//! [`FaultPlan`] installed, batched mutations return partial
//! [`BatchOutcome`]s instead of panicking; the structure passes a full
//! [`DynGraph::validate`] audit immediately after every failure; and
//! retrying the reported suffix (after raising the budget / clearing the
//! plan) converges to exactly the state an unconstrained run produces.

use dynamic_graphs_gpu::gpu_sim::ExecPolicy;
use dynamic_graphs_gpu::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const N: u32 = 24;

/// Host reference: directed weighted adjacency with replace semantics.
#[derive(Default)]
struct Reference {
    adj: HashMap<u32, HashMap<u32, u32>>,
}

impl Reference {
    fn insert(&mut self, u: u32, v: u32, w: u32) {
        if u != v {
            self.adj.entry(u).or_default().insert(v, w);
        }
    }
    fn delete(&mut self, u: u32, v: u32) {
        if let Some(m) = self.adj.get_mut(&u) {
            m.remove(&v);
        }
    }
}

/// Drive `outcome` to completion, auditing the graph after every partial
/// round. Returns the total `changed` accumulated across all rounds.
fn retry_to_completion(g: &DynGraph, mut outcome: BatchOutcome) -> u64 {
    let mut changed = outcome.changed;
    let mut rounds = 0u32;
    while !outcome.is_complete() {
        rounds += 1;
        assert!(rounds < 200, "retry did not converge: {outcome:?}");
        assert!(
            outcome.error.is_some(),
            "partial outcomes must carry their cause"
        );
        assert_eq!(
            outcome.completed + outcome.pending.len() + outcome.pending_vertices.len(),
            outcome.attempted,
            "outcome accounting"
        );
        g.validate()
            .expect("graph must stay consistent after a failed batch");
        outcome = g.retry_suffix(&outcome).expect("suffix must stay valid");
        changed += outcome.changed;
    }
    changed
}

fn sorted_neighbors(g: &DynGraph, v: u32) -> Vec<(u32, u32)> {
    let mut n = g
        .read_neighbors(&g.pin_read(), &[v])
        .entries(0)
        .collect::<Vec<_>>();
    n.sort_unstable();
    n
}

/// Random insert/delete batches against a CPU oracle with OOM injected
/// every Nth slab allocation: every partial outcome must validate, and
/// retry-to-completion must land on the oracle's state.
#[test]
fn property_suite_every_nth_allocation_fails() {
    for every in [2u64, 3, 5] {
        let mut injected_total = 0;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + every);
            let g = DynGraph::new(GraphConfig::directed_map(N));
            let mut oracle = Reference::default();
            g.device().set_fault_plan(FaultPlan::fail_every_nth(every));

            for _ in 0..12 {
                if rng.random_range(0..10u32) < 7 {
                    let n = rng.random_range(1..24usize);
                    let mut batch: Vec<Edge> = (0..n)
                        .map(|_| {
                            // Bias sources onto a few vertices so chains
                            // exceed one slab and growth actually happens.
                            let u = rng.random_range(0..4u32);
                            let v = rng.random_range(0..N);
                            Edge::weighted(u, v, rng.random_range(1..100u32))
                        })
                        .collect();
                    // Intra-batch duplicates are order-ambiguous under
                    // partial retry (a pending early copy re-applies after
                    // a later copy already landed), so keep the last.
                    let mut keys = std::collections::HashSet::new();
                    batch.reverse();
                    batch.retain(|e| keys.insert((e.src, e.dst)));
                    batch.reverse();
                    let outcome = g.try_insert_edges(&batch).unwrap();
                    retry_to_completion(&g, outcome);
                    for e in &batch {
                        oracle.insert(e.src, e.dst, e.weight);
                    }
                } else {
                    let n = rng.random_range(1..10usize);
                    let batch: Vec<Edge> = (0..n)
                        .map(|_| Edge::new(rng.random_range(0..4u32), rng.random_range(0..N)))
                        .collect();
                    let outcome = g.try_delete_edges(&batch).unwrap();
                    retry_to_completion(&g, outcome);
                    for e in &batch {
                        oracle.delete(e.src, e.dst);
                    }
                }
            }

            g.device().clear_fault_plan();
            g.validate().expect("final audit");
            for v in 0..N {
                let mut want: Vec<(u32, u32)> = oracle
                    .adj
                    .get(&v)
                    .map(|m| m.iter().map(|(&d, &w)| (d, w)).collect())
                    .unwrap_or_default();
                want.sort_unstable();
                assert_eq!(
                    sorted_neighbors(&g, v),
                    want,
                    "every={every} seed={seed} vertex {v} diverged from oracle"
                );
            }
            injected_total += g.device().injected_faults();
        }
        assert!(injected_total > 0, "every={every}: the plan never fired");
    }
}

/// A probabilistic plan (p = 0.5) still converges under retry because each
/// allocation draws an independent (seeded, deterministic) coin.
#[test]
fn probability_plan_converges_under_retry() {
    let g = DynGraph::new(GraphConfig::directed_map(N));
    g.device()
        .set_fault_plan(FaultPlan::fail_with_probability(0.5, 0xDECAF));
    let batch: Vec<Edge> = (0..4u32)
        .flat_map(|u| (0..20u32).map(move |i| Edge::weighted(u, i, u + i)))
        .collect();
    let outcome = g.try_insert_edges(&batch).unwrap();
    let changed = retry_to_completion(&g, outcome);
    // 4 sources × 19 non-self-loop unique dsts (u == i once per source).
    assert_eq!(changed, 4 * 19);
    g.validate().expect("final audit");
}

/// `fail_nth` injects exactly one failure; the batch reports a suffix and
/// a single retry (no budget change needed) completes it.
#[test]
fn fail_nth_reports_suffix_then_single_retry_completes() {
    let g = DynGraph::new(GraphConfig::directed_map(16));
    g.device().set_fault_plan(FaultPlan::fail_nth(3));
    let batch: Vec<Edge> = (0..8u32)
        .flat_map(|u| [Edge::new(u, 15), Edge::new(u, 14)])
        .collect();
    let outcome = g.try_insert_edges(&batch).unwrap();
    assert!(!outcome.is_complete(), "third lazy table creation failed");
    assert_eq!(outcome.pending.len(), 2, "one source's group unapplied");
    assert_eq!(g.device().injected_faults(), 1);
    match outcome.error {
        Some(AllocError::Oom(OomError::Injected {
            alloc_index,
            kernel,
        })) => {
            assert_eq!(alloc_index, 3);
            assert_eq!(kernel, Some("edge_insert"));
        }
        other => panic!("expected an injected fault, got {other:?}"),
    }
    g.validate().expect("audit after the injected fault");

    let second = g.retry_suffix(&outcome).unwrap();
    assert!(second.is_complete());
    assert_eq!(outcome.changed + second.changed, 16);
    g.validate().expect("final audit");
}

/// `fail_in_kernel` only fails allocations made *inside* the named
/// kernel: allocation-free work under the same plan is untouched, and
/// clearing the plan makes the suffix retryable.
#[test]
fn fail_in_kernel_scopes_injection_to_named_kernel() {
    let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(16), 8, 1);
    g.device()
        .set_fault_plan(FaultPlan::fail_in_kernel("edge_insert"));

    // Pre-installed tables, few keys: no allocation, so nothing to inject.
    assert_eq!(g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 2)]), 2);

    // A lazy table for vertex 12 needs a pool slab → injected failure.
    let outcome = g.try_insert_edges(&[Edge::new(12, 1)]).unwrap();
    assert_eq!(outcome.completed, 0);
    assert!(matches!(
        outcome.error,
        Some(AllocError::Oom(OomError::Injected {
            kernel: Some("edge_insert"),
            ..
        }))
    ));
    g.validate().expect("audit after the injected fault");

    g.device().clear_fault_plan();
    let second = g.retry_suffix(&outcome).unwrap();
    assert!(second.is_complete());
    assert!(g.edge_exists(&g.pin_read(), 12, 1));
    g.validate().expect("final audit");
}

/// The acceptance scenario: a batch insert that exhausts a bounded device
/// budget mid-kernel returns a partial outcome (no panic), validates
/// immediately afterwards, and — after raising the budget — retrying the
/// suffix yields a graph identical to an unconstrained run. Checked for
/// both executors.
#[test]
fn bounded_budget_recovers_identically_sequential_and_threaded() {
    // 16 sources × 1100 unique destinations: needs ~1184 pool slabs, so
    // the 1024-slab pool must grow; the budget admits construction and
    // batch staging but not the pool's second super-block.
    let batch: Vec<Edge> = (0..16u32)
        .flat_map(|u| (0..1100u32).map(move |i| Edge::weighted(u, 16 + u * 1100 + i, i + 1)))
        .collect();
    let config = || {
        GraphConfig::directed_map(2048)
            .with_device_words(1 << 16)
            .with_pool_slabs(1024)
    };

    // Reference: the same batch against an unconstrained graph.
    let reference = DynGraph::new(config());
    let want_changed = reference.insert_edges(&batch);
    assert_eq!(want_changed, batch.len() as u64);
    reference.validate().expect("reference audit");

    for policy in [ExecPolicy::Sequential, ExecPolicy::Threaded(4)] {
        let mut g = DynGraph::new(config().with_device_capacity(112_400));
        g.device_mut().set_policy(policy);

        let outcome = g.try_insert_edges(&batch).unwrap();
        assert!(
            !outcome.is_complete(),
            "{policy:?}: the budget was supposed to exhaust mid-batch"
        );
        assert!(outcome.completed < outcome.attempted);
        assert!(matches!(
            outcome.error,
            Some(AllocError::Oom(OomError::Capacity { .. }))
        ));
        g.validate()
            .unwrap_or_else(|e| panic!("{policy:?}: audit after partial batch: {e}"));

        // Raise the budget and resume where the batch stopped.
        g.device().set_capacity_words(1 << 22);
        let total_changed = retry_to_completion(&g, outcome);
        assert_eq!(
            total_changed, want_changed,
            "{policy:?}: changed-counts must match the unconstrained run"
        );

        g.validate()
            .unwrap_or_else(|e| panic!("{policy:?}: final audit: {e}"));
        assert_eq!(g.num_edges(), reference.num_edges(), "{policy:?}");
        for v in 0..16 {
            assert_eq!(
                sorted_neighbors(&g, v),
                sorted_neighbors(&reference, v),
                "{policy:?}: vertex {v} diverged from the unconstrained run"
            );
        }
    }
}

/// Chain growth failing in the middle of an insert group: each warp holds
/// one source's 32 new keys for a one-bucket table with one free slot,
/// so its group walk claims that slot and then grows the chain three
/// times, and every second allocation fails. The keys whose growth
/// failed are left out and the rest of the group carries on; the graph
/// validates, the left-out edges are absent, and retrying the suffix
/// lands on the unconstrained run's graph. Checked for both executors.
#[test]
fn growth_failing_mid_group_recovers_identically_sequential_and_threaded() {
    let prefill: Vec<Edge> = (0..4u32)
        .flat_map(|u| (0..14u32).map(move |i| Edge::weighted(u, 100 + i, i)))
        .collect();
    let batch: Vec<Edge> = (0..4u32)
        .flat_map(|u| (0..32u32).map(move |i| Edge::weighted(u, 200 + i, u + i)))
        .collect();
    let build = || {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(256), 256, 1);
        g.insert_edges(&prefill);
        g
    };
    let reference = build();
    assert_eq!(reference.insert_edges(&batch), batch.len() as u64);

    for policy in [ExecPolicy::Sequential, ExecPolicy::Threaded(4)] {
        let mut g = build();
        g.device_mut().set_policy(policy);
        g.device().set_fault_plan(FaultPlan::fail_every_nth(2));
        let outcome = g.try_insert_edges(&batch).unwrap();
        assert!(
            matches!(
                outcome.error,
                Some(AllocError::Oom(OomError::Injected { .. }))
            ),
            "{policy:?}: {outcome:?}"
        );
        g.validate()
            .unwrap_or_else(|e| panic!("{policy:?}: audit after the failed growth: {e}"));
        // Source 0's group both applied and left out keys.
        let left_out = outcome.pending.iter().filter(|e| e.src == 0).count();
        assert!(
            left_out > 0 && left_out < 32,
            "{policy:?}: {left_out} of 32"
        );
        let pin = g.pin_read();
        let pending: Vec<(u32, u32)> = outcome.pending.iter().map(|e| (e.src, e.dst)).collect();
        assert!(
            g.edges_exist(&pin, &pending).iter().all(|&hit| !hit),
            "{policy:?}"
        );
        drop(pin);
        assert_eq!(
            outcome.changed,
            (batch.len() - outcome.pending.len()) as u64,
            "{policy:?}"
        );

        let changed = retry_to_completion(&g, outcome);
        assert_eq!(changed, batch.len() as u64, "{policy:?}");
        g.device().clear_fault_plan();
        g.validate()
            .unwrap_or_else(|e| panic!("{policy:?}: final audit: {e}"));
        assert_eq!(g.num_edges(), reference.num_edges(), "{policy:?}");
        for v in 0..4 {
            assert_eq!(
                sorted_neighbors(&g, v),
                sorted_neighbors(&reference, v),
                "{policy:?}: vertex {v} diverged from the unconstrained run"
            );
        }
    }
}

/// Vertex batches recover too: a budget-bounded `insert_vertices` installs
/// a prefix of the new vertices, reports the rest, and completes after the
/// budget is raised — matching an unconstrained run.
#[test]
fn vertex_batch_recovers_after_budget_raise() {
    let ids: Vec<u32> = (0..256u32).collect();
    let edges: Vec<Edge> = ids
        .iter()
        .flat_map(|&u| (0..40u32).map(move |i| Edge::weighted(u, 1000 + u * 40 + i, i + 1)))
        .collect();
    let config = || {
        GraphConfig::directed_map(16)
            .with_device_words(1 << 16)
            .with_pool_slabs(1024)
    };

    let reference = DynGraph::new(config());
    let want_changed = reference.insert_vertices(&ids, &edges).unwrap();
    assert_eq!(want_changed, edges.len() as u64);

    let g = DynGraph::new(config().with_device_capacity(50_000));
    let outcome = g.try_insert_vertices(&ids, &edges).unwrap();
    assert!(!outcome.is_complete());
    assert!(
        !outcome.pending_vertices.is_empty(),
        "table installation must be what ran out of budget"
    );
    assert_eq!(
        outcome.completed + outcome.pending.len() + outcome.pending_vertices.len(),
        outcome.attempted
    );
    g.validate().expect("audit after partial vertex batch");

    g.device().set_capacity_words(1 << 22);
    let total_changed = retry_to_completion(&g, outcome);
    assert_eq!(total_changed, want_changed);
    g.validate().expect("final audit");
    assert_eq!(g.num_edges(), reference.num_edges());
    for &v in &ids {
        assert_eq!(
            sorted_neighbors(&g, v),
            sorted_neighbors(&reference, v),
            "vertex {v} diverged from the unconstrained run"
        );
    }
}

/// The two fault families compose without perturbing each other: an
/// every-Nth OOM plan (allocation-level) layered with a transient kernel
/// fault (device-level, launch-admission) on the same device keeps both
/// retry schedules deterministic. Each family holds its own 1-based
/// index, so the OOM schedule — which allocations fail, how many retry
/// rounds, what lands where — is bit-identical with and without the
/// device-level plan in place.
#[test]
fn alloc_and_device_fault_plans_compose_deterministically() {
    use dynamic_graphs_gpu::gpu_sim::DeviceFault;

    // One run of the every-3rd-allocation OOM workload; optionally with a
    // transient kernel fault layered on the same device, drained through
    // launch-admission retries exactly like the router's retry loop.
    let run = |with_device_fault: bool| {
        let g = DynGraph::new(GraphConfig::directed_map(N));
        g.device().set_fault_plan(FaultPlan::fail_every_nth(3));
        if with_device_fault {
            // Routed to the launch-plan slot: must NOT reset or replace
            // the allocation plan already installed.
            g.device().set_fault_plan(FaultPlan::transient_kernel(1, 2));
            assert!(matches!(
                g.device().launch_check(),
                Err(DeviceFault::TransientKernel { remaining: 1, .. })
            ));
            assert!(matches!(
                g.device().launch_check(),
                Err(DeviceFault::TransientKernel { remaining: 0, .. })
            ));
            assert!(g.device().launch_check().is_ok(), "healed after its run");
        }
        // Deterministic biased batches (chains long enough to allocate).
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut schedule: Vec<(usize, usize)> = Vec::new();
        for _ in 0..6 {
            let batch: Vec<Edge> = (0..16)
                .map(|_| {
                    let u = rng.random_range(0..3u32);
                    let v = rng.random_range(0..N);
                    Edge::weighted(u, v, rng.random_range(1..50u32))
                })
                .collect();
            let mut outcome = g.try_insert_edges(&batch).unwrap();
            let mut retries = 0usize;
            while !outcome.is_complete() {
                retries += 1;
                assert!(retries < 100, "did not converge");
                outcome = g.retry_suffix(&outcome).unwrap();
            }
            schedule.push((retries, outcome.pending.len()));
        }
        g.validate().expect("audit");
        let mut state: Vec<Vec<(u32, u32)>> = (0..N).map(|v| sorted_neighbors(&g, v)).collect();
        state.sort();
        (schedule, g.device().injected_faults(), state)
    };

    let baseline = run(false);
    let layered = run(true);
    assert_eq!(
        baseline.0, layered.0,
        "OOM retry schedule must ignore the device-level plan"
    );
    assert_eq!(
        baseline.1, layered.1,
        "same allocations injected in both runs"
    );
    assert_eq!(baseline.2, layered.2, "final states identical");
    assert!(baseline.1 > 0, "the allocation plan never fired");
}

/// Budget exhaustion during *staging* (before the kernel runs) applies
/// nothing: the whole batch is the suffix and deletes report all vertices
/// pending.
#[test]
fn staging_failure_applies_nothing() {
    let g = DynGraph::new(
        GraphConfig::directed_map(64)
            .with_device_words(1 << 16)
            .with_pool_slabs(1024),
    );
    g.insert_edges(&[Edge::new(0, 1)]);
    // Tighten the budget below what is already allocated: any staging
    // allocation fails before the kernel gets to run.
    g.device().set_capacity_words(0);
    let batch: Vec<Edge> = (0..64u32).map(|i| Edge::new(1, 100 + i)).collect();
    let outcome = g.try_insert_edges(&batch).unwrap();
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.pending, batch);
    g.validate().expect("untouched graph still validates");
    // Queries stage scratch buffers too, so give them room again.
    g.device().set_capacity_words(1 << 20);
    assert!(g.edge_exists(&g.pin_read(), 0, 1), "previous state intact");
}
