//! Cross-layer sharding conformance: a seeded churn stream replayed at
//! 1/2/4 shards must be indistinguishable — byte-identical query results —
//! from the same stream on an unsharded `DynGraph`, the batch router must
//! commute with direct application, a single shard hitting its memory
//! ceiling must resume its journaled suffix on the next flush while the
//! other shards proceed, and a bad update must be rejected on its own.

use backend::GraphBackend;
use graph_gen::splitmix64;
use router::{
    shard_of, BatchRouter, RouterError, ShardHealth, ShardedGraph, ShardedValidationError, Update,
};
use slabgraph::{DynGraph, Edge, FaultPlan, GraphConfig};

const N_VERTICES: u32 = 512;

fn config() -> GraphConfig {
    GraphConfig::directed_map(N_VERTICES)
        .with_device_words(1 << 20)
        .with_pool_slabs(1 << 10)
}

fn random_pair(rng: &mut u64) -> (u32, u32) {
    let u = (splitmix64(rng) % N_VERTICES as u64) as u32;
    let mut v = (splitmix64(rng) % N_VERTICES as u64) as u32;
    if v == u {
        v = (v + 1) % N_VERTICES;
    }
    (u, v)
}

struct Round {
    ins: Vec<Edge>,
    del: Vec<Edge>,
    qry: Vec<(u32, u32)>,
}

/// A deterministic mixed stream: inserts are random, deletes and half the
/// queries sample previously-inserted edges.
fn stream(seed: u64, rounds: usize, ops: usize) -> Vec<Round> {
    let mut rng = seed;
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..rounds {
        let ins: Vec<Edge> = (0..ops / 2)
            .map(|_| Edge::from(random_pair(&mut rng)))
            .collect();
        live.extend(ins.iter().map(|e| (e.src, e.dst)));
        let del: Vec<Edge> = (0..ops / 4)
            .map(|_| Edge::from(live[(splitmix64(&mut rng) % live.len() as u64) as usize]))
            .collect();
        let qry: Vec<(u32, u32)> = (0..ops / 4)
            .map(|i| {
                if i % 2 == 0 {
                    live[(splitmix64(&mut rng) % live.len() as u64) as usize]
                } else {
                    random_pair(&mut rng)
                }
            })
            .collect();
        out.push(Round { ins, del, qry });
    }
    out
}

/// A round whose inserts all have sources past the configured vertex
/// capacity, so every graph grows its vertex dictionary; it deletes a
/// quarter of them and queries them all.
fn beyond_capacity_round(seed: u64, ops: usize) -> Round {
    let mut rng = seed;
    let ins: Vec<Edge> = (0..ops / 2)
        .map(|_| {
            let (u, v) = random_pair(&mut rng);
            Edge::new(N_VERTICES + u, v)
        })
        .collect();
    let del = ins[..ops / 8].to_vec();
    let qry = ins.iter().map(|e| (e.src, e.dst)).collect();
    Round { ins, del, qry }
}

#[test]
fn churn_replay_is_byte_identical_across_shard_counts() {
    let mut rounds = stream(0xB10C, 3, 400);
    rounds.push(beyond_capacity_round(0xB10C, 400));
    // Reference: the same stream on one unsharded graph, collecting every
    // query result round by round.
    let reference = DynGraph::new(config());
    let mut expected: Vec<Vec<bool>> = Vec::new();
    for r in &rounds {
        reference.insert_edges(&r.ins);
        reference.delete_edges(&r.del);
        expected.push(reference.edges_exist(&reference.pin_read(), &r.qry));
    }

    for shards in [1usize, 2, 4] {
        let g = ShardedGraph::new(shards, config());
        for (r, want) in rounds.iter().zip(&expected) {
            g.insert_edges(&r.ins);
            g.delete_edges(&r.del);
            assert_eq!(
                &g.edges_exist(&g.pin_read(), &r.qry),
                want,
                "{shards}-shard query results diverged from unsharded replay"
            );
        }
        assert_eq!(g.num_edges(), reference.num_edges(), "{shards} shards");
        assert_eq!(g.num_vertices(), reference.vertex_capacity());
        let pin = g.pin_read();
        for v in 0..g.num_vertices() {
            assert_eq!(
                g.degree(v),
                reference.degree(v),
                "degree({v}), {shards} shards"
            );
            let mut a = g.read_neighbors(&pin, &[v]).list(0).to_vec();
            let mut b = reference
                .read_neighbors(&reference.pin_read(), &[v])
                .list(0)
                .to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbors({v}), {shards} shards");
        }
        g.validate()
            .expect("cross-shard audit must pass after the replay");
    }
}

#[test]
fn routed_stream_matches_direct_application() {
    let undirected = GraphConfig::undirected_map(N_VERTICES)
        .with_device_words(1 << 20)
        .with_pool_slabs(1 << 10);
    for config in [config(), undirected] {
        let rounds = stream(0x5EED, 2, 300);
        let reference = DynGraph::new(config);
        let g = ShardedGraph::new(3, config);
        let router = BatchRouter::new(&g);
        for r in &rounds {
            reference.insert_edges(&r.ins);
            reference.delete_edges(&r.del);
            // Spread the same updates over 4 sessions: inserts on sessions
            // 0–1, deletes on 2–3. The router drains session-major and
            // applies in submit order, so its order is the direct one.
            for (i, &e) in r.ins.iter().enumerate() {
                router.submit(i % 2, Update::Insert(e));
            }
            for (i, &e) in r.del.iter().enumerate() {
                router.submit(2 + i % 2, Update::Delete(e));
            }
            let report = router.flush();
            assert!(report.is_complete(), "no memory pressure in this test");
            assert_eq!(report.updates, r.ins.len() + r.del.len());
            // Both orientations: an undirected flush mirrors each update.
            let qry: Vec<(u32, u32)> = r.qry.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
            assert_eq!(
                g.edges_exist(&g.pin_read(), &qry),
                reference.edges_exist(&reference.pin_read(), &qry),
                "{:?}",
                config.direction
            );
        }
        assert_eq!(g.num_edges(), reference.num_edges());
        let pin = g.pin_read();
        for v in 0..N_VERTICES {
            let mut a = g.read_neighbors(&pin, &[v]).list(0).to_vec();
            let mut b = reference
                .read_neighbors(&reference.pin_read(), &[v])
                .list(0)
                .to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbors({v}), {:?}", config.direction);
        }
        g.validate().expect("audit after routed stream");
    }
}

#[test]
fn single_shard_oom_recovers_while_others_proceed() {
    let rounds = stream(0xFA17, 1, 600);
    let round = &rounds[0];
    let reference = DynGraph::new(config());
    reference.insert_edges(&round.ins);

    let g = ShardedGraph::new(4, config());
    // Inject an allocation fault on shard 2 only: its first refill attempt
    // fails, leaving a pending suffix; shards 0/1/3 are untouched.
    let faulty = 2usize;
    g.group()
        .device(faulty)
        .set_fault_plan(FaultPlan::fail_nth(1));
    let router = BatchRouter::new(&g);
    for (i, &e) in round.ins.iter().enumerate() {
        router.submit(i % 3, Update::Insert(e));
    }
    let report = router.flush();
    assert!(!report.is_complete());
    assert_eq!(report.incomplete_shards(), vec![faulty]);
    for outcome in &report.shards {
        if outcome.shard != faulty {
            assert!(
                outcome.is_complete(),
                "shard {} must proceed despite shard {faulty}'s fault",
                outcome.shard
            );
        } else {
            let insert = outcome.insert.as_ref().expect("insert batch routed");
            assert!(insert.error.is_some(), "fault surfaces as an alloc error");
            assert!(!insert.pending.is_empty(), "unapplied suffix reported");
            assert_eq!(
                insert.completed + insert.pending.len(),
                insert.attempted,
                "outcome partitions the batch"
            );
        }
    }

    // Clear the fault: the next flush, with nothing new queued, resumes
    // exactly the pending suffix and dispatches no other shard.
    let pending = report.shards[faulty].insert.as_ref().unwrap().pending.len();
    g.group().device(faulty).clear_fault_plan();
    let recovered = router.flush();
    assert!(recovered.is_complete(), "{recovered:?}");
    for outcome in &recovered.shards {
        let attempted = outcome.insert.as_ref().map_or(0, |o| o.attempted);
        let want = if outcome.shard == faulty { pending } else { 0 };
        assert_eq!(attempted, want, "shard {}", outcome.shard);
    }

    assert_eq!(g.num_edges(), reference.num_edges());
    let qry: Vec<(u32, u32)> = round.ins.iter().map(|e| (e.src, e.dst)).collect();
    assert_eq!(
        g.edges_exist(&g.pin_read(), &qry),
        reference.edges_exist(&reference.pin_read(), &qry)
    );
    g.validate().expect("audit after recovery");
}

/// Seeded distinct weighted edges, no self-loops.
fn weighted_edges(seed: u64, n: usize) -> Vec<Edge> {
    let mut rng = seed;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < n {
        let (u, v) = random_pair(&mut rng);
        if seen.insert((u, v)) {
            out.push(Edge::weighted(
                u,
                v,
                (splitmix64(&mut rng) % 1000) as u32 + 1,
            ));
        }
    }
    out
}

/// Shard `s`'s full contents (primaries and replicas), sorted.
fn sorted_export(g: &ShardedGraph, s: usize) -> Vec<Edge> {
    let shard = g.shard(s);
    let mut edges = shard.export_edges(&shard.pin_read());
    edges.sort_unstable_by_key(|e| (e.src, e.dst));
    edges
}

/// `name`'s launches on shard `s`'s device since it was created.
fn kernel_launches(g: &ShardedGraph, s: usize, name: &str) -> u64 {
    let trace = g.group().device(s).trace();
    let k = trace.kernels.iter().find(|k| k.name == name);
    k.map_or(0, |k| k.counters.launches)
}

/// A bulk-build input: distinct weighted edges, repeats of some of them
/// with other weights, self-loops, a hub whose table needs several
/// buckets, and sources past the configured capacity.
fn bulk_input() -> Vec<Edge> {
    let mut edges = weighted_edges(0xB01D, 300);
    let repeats: Vec<Edge> = edges[..20]
        .iter()
        .map(|e| Edge::weighted(e.src, e.dst, e.weight + 1))
        .collect();
    edges.extend(repeats);
    edges.extend([Edge::new(7, 7), Edge::weighted(9, 9, 3)]);
    edges.extend((1..=48).map(|v| Edge::weighted(3, 5 * v + 100, v)));
    edges.extend([
        Edge::weighted(N_VERTICES + 5, 1, 8),
        Edge::weighted(N_VERTICES + 9, 2, 6),
    ]);
    edges
}

/// Each shard's copies of `edges` under the routing rule: every edge
/// (and, undirected, its reverse) on its source's owner, and a cut edge
/// also on its destination's owner.
fn routed_copies(edges: &[Edge], undirected: bool, shards: usize) -> Vec<Vec<Edge>> {
    let mut per = vec![Vec::new(); shards];
    for &e in edges {
        let mirrored = [Some(e), undirected.then(|| e.reversed())];
        for c in mirrored.into_iter().flatten() {
            let (su, sv) = (shard_of(c.src, shards), shard_of(c.dst, shards));
            per[su].push(c);
            if sv != su {
                per[sv].push(c);
            }
        }
    }
    per
}

#[test]
fn bulk_build_sizes_each_shards_tables_and_loads_it_with_one_launch() {
    let edges = bulk_input();
    for base in [
        GraphConfig::directed_map(N_VERTICES),
        GraphConfig::undirected_map(N_VERTICES),
    ] {
        let config = base.with_device_words(1 << 20).with_pool_slabs(1 << 10);
        let undirected = config.direction == slabgraph::Direction::Undirected;
        for shards in [1usize, 2, 4] {
            let g = ShardedGraph::bulk_build(shards, config, &edges);
            let reference = ShardedGraph::new(shards, config);
            reference.insert_edges(&edges);
            let copies = routed_copies(&edges, undirected, shards);
            for (s, copies) in copies.iter().enumerate() {
                let what = format!("{:?}, shard {s} of {shards}", config.direction);
                assert_eq!(
                    sorted_export(&g, s),
                    sorted_export(&reference, s),
                    "{what}: contents"
                );
                let shard = g.shard(s);
                let mut degree = vec![0u32; shard.vertex_capacity() as usize];
                for c in copies.iter().filter(|c| c.src != c.dst) {
                    degree[c.src as usize] += 1;
                }
                // Tables for exactly the sources the shard holds an edge
                // of, sized from its own degree. Past the configured
                // capacity the first insert builds a one-bucket table;
                // these sources have one edge per shard, so that size is
                // `buckets_for(1)` too.
                let mut next_base = None;
                for (v, &d) in (0u32..).zip(&degree) {
                    let desc = shard.dict().desc_host(shard.device(), v);
                    let want = (d > 0).then(|| shard.buckets_for(d));
                    assert_eq!(desc.map(|t| t.num_buckets), want, "{what}: vertex {v}");
                    // The installed tables lie back to back in one region.
                    if let Some(t) = desc.filter(|_| v < N_VERTICES) {
                        assert!(next_base.is_none_or(|b| b == t.base), "{what}: vertex {v}");
                        next_base = Some(t.base + t.num_buckets * 32);
                    }
                }
                let multi = degree.iter().any(|&d| shard.buckets_for(d) > 1);
                assert!(multi, "{what}: a table of several buckets");
                assert_eq!(kernel_launches(&g, s, "graph_init"), 1, "{what}");
                assert_eq!(kernel_launches(&g, s, "edge_insert"), 1, "{what}");
            }
            g.validate().expect("audit after the bulk build");
        }
    }
    let g = ShardedGraph::bulk_build(2, config(), &[]);
    for s in 0..2 {
        assert_eq!(kernel_launches(&g, s, "graph_init"), 0);
        assert_eq!(kernel_launches(&g, s, "edge_insert"), 0);
    }
    g.validate().expect("an empty build audits clean");
}

/// Lose `victim`'s device and drive the router's health machine to Down
/// with a flush that re-inserts `same` (an edge the victim already
/// holds, same weight), so the graph's contents do not change.
fn kill(g: &ShardedGraph, router: &BatchRouter<'_>, victim: usize, same: Edge) {
    assert_eq!(shard_of(same.src, g.num_shards()), victim);
    g.group()
        .device(victim)
        .set_fault_plan(FaultPlan::device_lost_at(1));
    router.submit(0, Update::Insert(same));
    assert!(!router.flush().is_complete());
    assert!(!router.unhealthy_shards().is_empty());
}

#[test]
fn router_over_set_graph_rebuilds_a_killed_shard() {
    // Set-kind shards store no weights; seeding the router's checkpoint
    // must not ask for them.
    for config in [
        GraphConfig::directed_set(N_VERTICES),
        GraphConfig::undirected_set(N_VERTICES),
    ] {
        let config = config.with_device_words(1 << 20).with_pool_slabs(1 << 10);
        let g = ShardedGraph::bulk_build(3, config, &weighted_edges(0x5E7, 400));
        let router = BatchRouter::new(&g);
        let mut before = g.export_edges();
        before.sort_unstable_by_key(|e| (e.src, e.dst));
        assert!(before.iter().all(|e| e.weight == 0));

        let victim = 1usize;
        let same = *before
            .iter()
            .find(|e| shard_of(e.src, 3) == victim)
            .expect("victim owns an edge");
        kill(&g, &router, victim, same);
        assert_eq!(router.rebuild_downed().expect("audit passes"), vec![victim]);

        let mut after = g.export_edges();
        after.sort_unstable_by_key(|e| (e.src, e.dst));
        assert_eq!(after, before, "{:?}: edge set changed", config.direction);
    }
}

#[test]
fn checkpoint_costs_one_launch_per_shard_and_rebuild_keeps_weights() {
    let shards = 4;
    let g = ShardedGraph::bulk_build(shards, config(), &weighted_edges(0xC4EC, 600));
    let launches = |s: usize| -> u64 { g.group().device(s).counters().snapshot().launches };

    // Launch budget: seeding every journal checkpoint is one launch per
    // non-empty shard, however many vertices and edges it holds.
    let before: Vec<u64> = (0..shards).map(launches).collect();
    let router = BatchRouter::new(&g);
    for (s, &b) in before.iter().enumerate() {
        assert!(g.shard(s).num_edges() > 0, "shard {s} holds edges");
        assert_eq!(launches(s), b + 1, "shard {s}: checkpoint launches");
    }
    // The cross-shard audit is O(shards) launches too: per shard, one
    // structural walk plus one export.
    let before: Vec<u64> = (0..shards).map(launches).collect();
    g.validate().expect("clean audit");
    for (s, &b) in before.iter().enumerate() {
        assert_eq!(launches(s), b + 2, "shard {s}: audit launches");
    }

    // Weight fidelity: a killed shard rebuilt from the checkpoint comes
    // back with every edge and weight it held.
    let exports: Vec<Vec<Edge>> = (0..shards).map(|s| sorted_export(&g, s)).collect();
    let victim = 2usize;
    let same = *exports[victim]
        .iter()
        .find(|e| shard_of(e.src, shards) == victim)
        .expect("victim owns an edge");
    kill(&g, &router, victim, same);
    assert_eq!(router.rebuild_downed().expect("audit passes"), vec![victim]);
    for (s, want) in exports.iter().enumerate() {
        assert_eq!(&sorted_export(&g, s), want, "shard {s} after rebuild");
    }
}

#[test]
fn flush_after_an_unrecovered_partial_oom_applies_the_suffix() {
    let shards = 4;
    let faulty = 2usize;
    let ins = stream(0x5AFF, 1, 600).remove(0).ins;
    let g = ShardedGraph::new(shards, config());
    g.group()
        .device(faulty)
        .set_fault_plan(FaultPlan::fail_nth(1));
    let router = BatchRouter::new(&g);
    for (i, &e) in ins.iter().enumerate() {
        router.submit(i % 3, Update::Insert(e));
    }
    assert_eq!(router.flush().incomplete_shards(), vec![faulty]);

    // Clear the fault but never resume explicitly: the next flush carries
    // one new update for the faulty shard and must apply the suffix too.
    g.group().device(faulty).clear_fault_plan();
    let mut rng = 0xF00Du64;
    let extra = std::iter::repeat_with(|| Edge::from(random_pair(&mut rng)))
        .find(|e| shard_of(e.src, shards) == faulty && !ins.contains(e))
        .unwrap();
    router.submit(0, Update::Insert(extra));
    assert!(router.flush().is_complete());
    assert_eq!(router.journal_depth(faulty), 0);
    let reference = DynGraph::new(config());
    reference.insert_edges(&ins);
    reference.insert_edges(&[extra]);
    assert_eq!(g.num_edges(), reference.num_edges(), "suffix applied");
    g.validate().expect("audit after the resumed flush");

    // The journal acked exactly what the shard applied: a rebuild from it
    // restores the live shard.
    let live = sorted_export(&g, faulty);
    kill(&g, &router, faulty, extra);
    assert_eq!(router.rebuild_downed().expect("audit passes"), vec![faulty]);
    assert_eq!(sorted_export(&g, faulty), live);
}

#[test]
fn rebuild_out_of_device_memory_stays_down_until_the_budget_allows() {
    let shards = 3;
    // Two shards go down; only the second is starved on its rebuild, so
    // the first replays cleanly in the same pass.
    let (victims, starved) = ([0usize, 1], 1usize);
    let g = ShardedGraph::new(shards, config());
    // Words a freshly reset shard needs before it holds any edge.
    let empty_words = ShardedGraph::new(shards, config())
        .group()
        .device(starved)
        .allocated_words();
    let router = BatchRouter::new(&g);
    for (i, &e) in weighted_edges(0x00D0, 300).iter().enumerate() {
        router.submit(i % 2, Update::Insert(e));
    }
    assert!(router.flush().is_complete());
    let live: Vec<Vec<Edge>> = victims.iter().map(|&s| sorted_export(&g, s)).collect();
    for (&victim, edges) in victims.iter().zip(&live) {
        let same = *edges
            .iter()
            .find(|e| shard_of(e.src, shards) == victim)
            .expect("victim owns an edge");
        kill(&g, &router, victim, same);
    }
    let depths: Vec<usize> = victims.iter().map(|&s| router.journal_depth(s)).collect();

    // A budget too small to stage the checkpoint: that replay stops, and
    // the whole pass — the cleanly replayed shard too — goes back to Down
    // unaudited, with nothing acked.
    let dev = g.group().device(starved);
    let budget = dev.capacity_words();
    dev.set_capacity_words(empty_words + 32);
    assert_eq!(router.rebuild_downed().expect("nothing to audit"), vec![]);
    for (&victim, &depth) in victims.iter().zip(&depths) {
        assert_eq!(router.health(victim), ShardHealth::Down, "shard {victim}");
        assert_eq!(router.journal_depth(victim), depth, "shard {victim}");
    }

    dev.set_capacity_words(budget);
    assert_eq!(router.rebuild_downed().expect("audit passes"), victims);
    for (&victim, edges) in victims.iter().zip(&live) {
        assert_eq!(&sorted_export(&g, victim), edges, "shard {victim}");
    }
}

/// The shard owning `u32::MAX - 1` among `shards`, and a valid vertex on
/// that shard: an edge between them fails `DynGraph::check_edge` and
/// routes to that shard alone.
fn poison_target(shards: usize) -> (usize, u32) {
    let bad_src = u32::MAX - 1;
    let owner = shard_of(bad_src, shards);
    let dst = (0..N_VERTICES)
        .find(|&v| shard_of(v, shards) == owner)
        .unwrap();
    (owner, dst)
}

fn assert_poisoned(report: &router::FlushReport, shard: usize) {
    assert!(
        matches!(
            report.shards[shard].error,
            Some(RouterError::Poisoned { shard: s, .. }) if s == shard
        ),
        "{:?}",
        report.shards[shard]
    );
}

#[test]
fn poisoned_update_is_never_journaled_and_rebuild_replays_cleanly() {
    let shards = 3;
    let (victim, dst) = poison_target(shards);
    let g = ShardedGraph::new(shards, config());
    let router = BatchRouter::new(&g);
    let valid = weighted_edges(0xBAD, 120);
    router.submit(0, Update::Insert(Edge::new(u32::MAX - 1, dst)));
    for (i, &e) in valid[..60].iter().enumerate() {
        router.submit(i % 2, Update::Insert(e));
    }
    let report = router.flush();
    assert_poisoned(&report, victim);
    assert_eq!(
        router.journal_depth(victim),
        0,
        "bad update never journaled"
    );

    // A clean flush, then lose and rebuild the poisoned shard: the replay
    // never sees the bad edge, and restores the live shard exactly.
    for (i, &e) in valid[60..].iter().enumerate() {
        router.submit(i % 2, Update::Insert(e));
    }
    assert!(router.flush().is_complete());
    let live = sorted_export(&g, victim);
    let same = *live
        .iter()
        .find(|e| shard_of(e.src, shards) == victim)
        .expect("victim owns an edge");
    kill(&g, &router, victim, same);
    assert_eq!(router.rebuild_downed().expect("audit passes"), vec![victim]);
    assert_eq!(sorted_export(&g, victim), live);
}

#[test]
fn poisoned_update_leaves_its_batch_mates_consistent() {
    let shards = 3;
    let (owner, dst) = poison_target(shards);
    let (u, c) = (0..N_VERTICES)
        .flat_map(|u| (0..N_VERTICES).map(move |c| (u, c)))
        .find(|&(u, c)| shard_of(u, shards) == owner && shard_of(c, shards) != owner)
        .unwrap();
    let g = ShardedGraph::new(shards, config());
    let router = BatchRouter::new(&g);
    router.submit(0, Update::Insert(Edge::new(u32::MAX - 1, dst)));
    router.submit(0, Update::Insert(Edge::new(u, c)));
    let report = router.flush();
    assert_poisoned(&report, owner);
    g.validate()
        .expect("the batch-mate's primary and replica both apply");
    for s in [owner, shard_of(c, shards)] {
        let shard = g.shard(s);
        assert!(shard.edge_exists(&shard.pin_read(), u, c), "shard {s}");
    }
}

#[test]
fn poisoned_update_stays_reported_when_its_shard_faults() {
    let shards = 3;
    let (owner, dst) = poison_target(shards);
    let g = ShardedGraph::new(shards, config());
    let router = BatchRouter::new(&g);
    g.group()
        .device(owner)
        .set_fault_plan(FaultPlan::device_lost_at(1));
    router.submit(0, Update::Insert(Edge::new(u32::MAX - 1, dst)));
    router.submit(0, Update::Insert(Edge::new(dst, (dst + 1) % N_VERTICES)));
    let report = router.flush();
    assert_poisoned(&report, owner);
    assert_eq!(router.health(owner), ShardHealth::Down);
    assert_eq!(report.shards[owner].health, ShardHealth::Down);
}

#[test]
fn audit_reports_the_lowest_vertex_missing_replica_first() {
    let g = ShardedGraph::bulk_build(4, config(), &weighted_edges(0xA0D1, 300));
    g.validate().expect("clean after normal inserts");
    let mut cut: Vec<Edge> = g
        .export_edges()
        .into_iter()
        .filter(|e| shard_of(e.src, 4) != shard_of(e.dst, 4))
        .collect();
    cut.sort_unstable_by_key(|e| (e.src, e.dst));
    // Two broken cut edges whose shard order disagrees with their vertex
    // order: the lower source's primary lives on the last shard, the
    // higher source's on an earlier one. The audit must name the lower.
    let lowest = *cut
        .iter()
        .find(|e| shard_of(e.src, 4) == 3)
        .expect("a cut edge out of shard 3");
    let higher = *cut
        .iter()
        .rev()
        .find(|e| e.src > lowest.src && shard_of(e.src, 4) < 3)
        .expect("a later cut edge out of an earlier shard");
    for e in [higher, lowest] {
        g.shard(shard_of(e.dst, 4)).delete_edges(&[e]);
    }
    assert_eq!(
        g.validate(),
        Err(ShardedValidationError::MissingReplica {
            src: lowest.src,
            dst: lowest.dst,
            src_shard: shard_of(lowest.src, 4),
            dst_shard: shard_of(lowest.dst, 4),
        })
    );
}

#[test]
fn audit_detects_orphan_replicas() {
    let g = ShardedGraph::new(4, config());
    g.insert_edges(&[Edge::new(1, 2), Edge::new(3, 4)]);
    g.validate().expect("clean after normal inserts");

    // Bypass the router and write a stray edge directly into a shard that
    // owns neither endpoint — the audit must catch it.
    let src = 5u32;
    let dst = 6u32;
    let stranger = (0..4)
        .find(|&s| s != shard_of(src, 4) && s != shard_of(dst, 4))
        .expect("some shard owns neither endpoint");
    g.shard(stranger).insert_edges(&[Edge::new(src, dst)]);
    match g.validate() {
        Err(ShardedValidationError::OrphanReplica {
            src: s,
            dst: d,
            shard,
        }) => {
            assert_eq!((s, d, shard), (src, dst, stranger));
        }
        other => panic!("audit should flag the stray replica, got {other:?}"),
    }
}
