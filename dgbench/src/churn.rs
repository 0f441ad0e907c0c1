//! `churn_rmat`: paper-sized batches on a scale-free graph, closed loop.
//!
//! Each round inserts a batch whose sources are drawn in proportion to
//! out-degree (so hubs grow long chains) with uniform destinations, runs
//! as many `edges_exist` queries (half live edges, half random pairs), and
//! deletes the previous round's batch; `flush_tombstones` runs every eight
//! rounds and counts as delete time. The slab hash, the slab allocator and
//! the warp executor do most of the work; there is no router and launches
//! are rare.

use crate::run::{
    generate, gpu_layer, ratio, registry_layer, sized, slabhash_layer, structure_end, timed_builds,
    Calls, Ctx, Direction, Meter, Peaks, Registry, Run,
};
use crate::stats::{Fnv, Rng};
use slabgraph::{DynGraph, Edge, GraphConfig};
use std::collections::HashSet;

pub const NAME: &str = "churn_rmat";
const DATASET: &str = "soc-LiveJournal1";
const FLUSH_EVERY: usize = 8;
/// Rounds of the measured phase per nominal second, from the reference
/// host (2 cores): a 2^16-edge round takes about 0.14 s there.
const ROUNDS_PER_SECOND: f64 = 7.2;

pub struct Size {
    /// Vertex count for the dataset generator; 0 takes its default scale.
    pub vertices: u32,
    pub batch: usize,
    pub rounds: usize,
}

impl Size {
    pub fn nominal(seconds: u64) -> Self {
        let flushes = ((seconds as f64 * ROUNDS_PER_SECOND) / FLUSH_EVERY as f64).round();
        Size {
            vertices: 0,
            batch: 1 << 16,
            rounds: FLUSH_EVERY * (flushes as usize).max(1),
        }
    }
}

struct Inputs {
    n: u32,
    base: Vec<Edge>,
    base_set: HashSet<(u32, u32)>,
    inserts: Vec<Vec<Edge>>,
    queries: Vec<Vec<(u32, u32)>>,
    digest: u64,
}

fn inputs(seed: u64, size: &Size) -> Inputs {
    let ds = generate(DATASET, size.vertices, seed);
    let n = ds.n_vertices;
    let base_set: HashSet<(u32, u32)> = ds.edges.iter().copied().filter(|(u, v)| u != v).collect();
    let mut rng = Rng::new(seed, 1);
    let mut inserts = Vec::with_capacity(size.rounds);
    let mut queries = Vec::with_capacity(size.rounds);
    for _ in 0..size.rounds {
        let batch: Vec<(u32, u32)> = (0..size.batch)
            .map(|_| loop {
                // A random edge's source: drawn in proportion to degree.
                let src = ds.edges[rng.below(ds.edges.len())].0;
                let dst = rng.below(n as usize) as u32;
                if src != dst && !base_set.contains(&(src, dst)) {
                    break (src, dst);
                }
            })
            .collect();
        let q: Vec<(u32, u32)> = (0..size.batch)
            .map(|i| match (i % 2, rng.below(2)) {
                (0, 0) => ds.edges[rng.below(ds.edges.len())],
                (0, _) => batch[rng.below(batch.len())],
                _ => rng.pair(n),
            })
            .collect();
        inserts.push(batch);
        queries.push(q);
    }
    let mut h = Fnv::default();
    h.u32(n);
    h.pairs(&ds.edges);
    for (b, q) in inserts.iter().zip(&queries) {
        h.pairs(b);
        h.pairs(q);
    }
    Inputs {
        n,
        base: ds.edges.iter().map(|&p| Edge::from(p)).collect(),
        base_set,
        inserts: inserts
            .into_iter()
            .map(|b| b.into_iter().map(Edge::from).collect())
            .collect(),
        queries,
        digest: h.finish(),
    }
}

pub fn run(ctx: &Ctx, size: &Size) -> Run {
    let tr = ctx.tracer;
    let mut run = Run::new();
    let gen = tr.start("bench.gen_inputs", 0, 0);
    let inp = inputs(ctx.seed, size);
    run.set("bench.gen_inputs_s", tr.finish(gen).as_secs_f64());
    run.digest = inp.digest;

    let config = sized(GraphConfig::directed_map(inp.n), inp.base.len());
    let g = timed_builds(ctx, &mut run, || DynGraph::bulk_build(config, &inp.base));

    let registry = Registry::capture(&[g.device()]);
    let mut meter = Meter::new(vec![g.device()]);
    let mut peaks = Peaks::default();
    let mut live: HashSet<(u32, u32)> = HashSet::new();
    let (mut inserted, mut deleted, mut new_edges, mut hits_deleted, mut queried, mut hits) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut updates, mut reads) = (Calls::default(), Calls::default());
    let (mut ins_ms, mut del_ms, mut flush_ms, mut pin_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut quarantine_peak = 0usize;
    let alloc0 = g.allocator().total_allocated();

    let phase = tr.start(NAME, 0, 0);
    for r in 0..size.rounds {
        let req = r as u64;
        let round = tr.start("churn.round", phase.id, req);
        let batch = &inp.inserts[r];
        let (out, host, modeled) = meter.call(tr, "core.insert_edges", round.id, req, || {
            g.try_insert_edges(batch)
        });
        let expect = batch.iter().filter(|e| live.insert((e.src, e.dst))).count() as u64;
        new_edges += run.outcome(format_args!("round {r} insert"), out, batch.len(), expect);
        inserted += batch.len() as u64;
        updates.push(batch.len(), host, modeled);
        ins_ms.push(host * 1e3);

        let p = tr.start("core.pin_read", round.id, req);
        let pin = g.pin_read();
        pin_us.push(tr.finish(p).as_secs_f64() * 1e6);
        let pairs = &inp.queries[r];
        let (answers, host, modeled) = meter.call(tr, "core.edges_exist", round.id, req, || {
            g.edges_exist(&pin, pairs)
        });
        drop(pin);
        let wrong = pairs
            .iter()
            .zip(&answers)
            .filter(|(p, &a)| a != (inp.base_set.contains(p) || live.contains(p)))
            .count();
        run.check(wrong == 0 && answers.len() == pairs.len(), || {
            format!(
                "round {r}: {wrong} of {} query answers disagree with the oracle",
                pairs.len()
            )
        });
        hits += answers.iter().filter(|&&a| a).count() as u64;
        queried += pairs.len() as u64;
        reads.push(pairs.len(), host, modeled);

        // The delete call and the flush after it are one update call.
        let (mut host, mut modeled, mut items) = (0.0, 0.0, 0);
        if r > 0 {
            let prev = &inp.inserts[r - 1];
            let (out, h, m) = meter.call(tr, "core.delete_edges", round.id, req, || {
                g.try_delete_edges(prev)
            });
            let expect = prev.iter().filter(|e| live.remove(&(e.src, e.dst))).count() as u64;
            hits_deleted += run.outcome(format_args!("round {r} delete"), out, prev.len(), expect);
            deleted += prev.len() as u64;
            del_ms.push(h * 1e3);
            (host, modeled, items) = (host + h, modeled + m, prev.len());
        }
        if (r + 1) % FLUSH_EVERY == 0 {
            peaks.sample(&g);
            let (_, h, m) = meter.call(tr, "core.flush_tombstones", round.id, req, || {
                g.flush_tombstones()
            });
            flush_ms.push(h * 1e3);
            (host, modeled) = (host + h, modeled + m);
        }
        if r > 0 {
            updates.push(items, host, modeled);
        }
        quarantine_peak = quarantine_peak.max(g.allocator().quarantined_slabs());
        tr.finish(round);
    }
    run.measured_s = tr.finish(phase).as_secs_f64();
    peaks.sample(&g);

    run.attempted = inserted + deleted + queried;
    run.latency(
        "core.query_call_ms_p50",
        "core.query_call_ms_tail",
        reads.host_ms.clone(),
    );
    run.direction(Direction::Update, updates.host_s(), updates);
    run.direction(Direction::Read, reads.host_s(), reads);
    run.latency(
        "core.insert_call_ms_p50",
        "core.insert_call_ms_tail",
        ins_ms,
    );
    run.latency(
        "core.delete_call_ms_p50",
        "core.delete_call_ms_tail",
        del_ms,
    );
    run.latency(
        "core.flush_call_ms_p50",
        "core.flush_call_ms_tail",
        flush_ms,
    );
    run.latency("slaballoc.pin_us_p50", "slaballoc.pin_us_tail", pin_us);
    run.set(
        "core.insert_new_frac",
        ratio(new_edges as f64, inserted as f64),
    );
    run.set(
        "core.delete_hit_frac",
        ratio(hits_deleted as f64, deleted as f64),
    );
    run.set("core.query_hit_frac", ratio(hits as f64, queried as f64));
    slabhash_layer(
        &mut run,
        &meter.total,
        inserted,
        deleted,
        queried,
        "edge_exist",
    );
    let allocated = g.allocator().total_allocated() - alloc0;
    run.set(
        "slaballoc.slabs_per_kedge",
        ratio(allocated as f64, inserted as f64 / 1e3),
    );
    run.set("slaballoc.quarantine_peak", quarantine_peak as f64);
    peaks.report(&mut run);
    let ops = run.attempted;
    gpu_layer(&mut run, &meter, ops);
    if ctx.profiled {
        registry_layer(&mut run, &[g.device()], &registry);
    }
    structure_end(&mut run, &[&g], (inp.base_set.len() + live.len()) as u64);
    run
}
