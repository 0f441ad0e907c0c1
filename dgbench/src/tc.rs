//! `dynamic_tc`: insert a batch, then recount triangles (the paper's
//! Table IX scenario) on a scale-free graph stored as an undirected set
//! with one bucket per vertex. This is the `algos` layer: batched
//! `edgeExist` probes over a structure that no one writes while they run,
//! with no router and almost no allocation.
//!
//! A "read" here is one probe the counter issues: every pair of a
//! vertex's higher-numbered neighbours, whose closing edge it looks up.

use crate::run::{
    generate, gpu_layer, ratio, registry_layer, row, slabhash_layer, structure_end, timed_builds,
    Calls, Ctx, Direction, Meter, Peaks, Registry, Run,
};
use crate::stats::{Fnv, Rng};
use slabgraph::{DynGraph, Edge, GraphConfig};
use std::collections::BTreeSet;

pub const NAME: &str = "dynamic_tc";
const DATASET: &str = "hollywood-2009";
/// Rounds of the measured phase per nominal second, from the reference
/// host (2 cores): one recount of the 512-vertex graph takes 0.7–0.9 s.
const ROUNDS_PER_SECOND: f64 = 1.0;

pub struct Size {
    pub vertices: u32,
    pub batch: usize,
    pub rounds: usize,
}

impl Size {
    /// 512 vertices (about 50 k edges): at 2048 a single recount takes
    /// 18 s on the reference host.
    pub fn nominal(seconds: u64) -> Self {
        Size {
            vertices: 512,
            batch: 1 << 10,
            rounds: ((seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1),
        }
    }
}

struct Inputs {
    n: u32,
    base: Vec<(u32, u32)>,
    batches: Vec<Vec<(u32, u32)>>,
    digest: u64,
}

fn inputs(seed: u64, size: &Size) -> Inputs {
    let ds = generate(DATASET, size.vertices, seed);
    let mut rng = Rng::new(seed, 4);
    let batches: Vec<Vec<(u32, u32)>> = (0..size.rounds)
        .map(|_| (0..size.batch).map(|_| rng.pair(ds.n_vertices)).collect())
        .collect();
    let mut h = Fnv::default();
    h.u32(ds.n_vertices);
    h.pairs(&ds.edges);
    for b in &batches {
        h.pairs(b);
    }
    Inputs {
        n: ds.n_vertices,
        base: ds.edges,
        batches,
        digest: h.finish(),
    }
}

/// Undirected adjacency kept on the host: the oracle for `changed`
/// counts, the probe count, and the live-edge total.
struct Oracle {
    adj: Vec<BTreeSet<u32>>,
    edges: u64,
}

impl Oracle {
    /// Add an undirected edge; returns the half-edges that were new.
    fn insert(&mut self, (u, v): (u32, u32)) -> u64 {
        if u == v || !self.adj[u as usize].insert(v) {
            return 0;
        }
        self.adj[v as usize].insert(u);
        self.edges += 1;
        2
    }

    /// Probes `algos::tc` issues: for each vertex, one per pair of its
    /// higher-numbered neighbours.
    fn wedges(&self) -> u64 {
        self.adj
            .iter()
            .enumerate()
            .map(|(u, a)| {
                let up = a.range(u as u32 + 1..).count() as u64;
                up * up.saturating_sub(1) / 2
            })
            .sum()
    }
}

pub fn run(ctx: &Ctx, size: &Size) -> Run {
    let tr = ctx.tracer;
    let mut run = Run::new();
    let gen = tr.start("bench.gen_inputs", 0, 0);
    let inp = inputs(ctx.seed, size);
    run.set("bench.gen_inputs_s", tr.finish(gen).as_secs_f64());
    run.digest = inp.digest;

    let mut config = GraphConfig::undirected_set(inp.n);
    config.device_words = (inp.base.len() * 24).max(1 << 20);
    config.pool_slabs = (inp.base.len() / 32).max(1 << 10);
    let base: Vec<Edge> = inp.base.iter().map(|&p| Edge::from(p)).collect();
    let g = timed_builds(ctx, &mut run, || {
        let g = DynGraph::with_uniform_buckets(config, inp.n, 1);
        g.insert_edges(&base);
        g
    });

    let mut oracle = Oracle {
        adj: vec![BTreeSet::new(); inp.n as usize],
        edges: 0,
    };
    for &p in &inp.base {
        oracle.insert(p);
    }
    let mut all_edges = inp.base.clone();
    let registry = Registry::capture(&[g.device()]);
    let mut meter = Meter::new(vec![g.device()]);
    let mut peaks = Peaks::default();
    let (mut inserted, mut new_halves, mut triangles) = (0u64, 0u64, 0u64);
    let (mut updates, mut reads) = (Calls::default(), Calls::default());
    let alloc0 = g.allocator().total_allocated();

    let phase = tr.start(NAME, 0, 0);
    for (r, batch) in inp.batches.iter().enumerate() {
        let req = r as u64;
        let edges: Vec<Edge> = batch.iter().map(|&p| Edge::from(p)).collect();
        let round = tr.start("tc.round", phase.id, req);
        let (out, host, modeled) = meter.call(tr, "core.insert_edges", round.id, req, || {
            g.try_insert_edges(&edges)
        });
        let (count, tc_host, tc_modeled) =
            meter.call(tr, "algos.tc", round.id, req, || algos::tc(&g));
        tr.finish(round);

        let expect: u64 = batch.iter().map(|&p| oracle.insert(p)).sum();
        new_halves += run.outcome(format_args!("round {r} insert"), out, batch.len(), expect);
        all_edges.extend_from_slice(batch);
        inserted += batch.len() as u64;
        updates.push(batch.len(), host, modeled);
        peaks.sample(&g);

        let reference = algos::tc_reference(inp.n, &all_edges);
        run.check(count == reference, || {
            format!("round {r}: counted {count} triangles, the reference counts {reference}")
        });
        triangles = count;
        reads.push(oracle.wedges() as usize, tc_host, tc_modeled);
    }
    run.measured_s = tr.finish(phase).as_secs_f64();

    let rounds = inp.batches.len() as f64;
    let probes = reads.host_items;
    run.attempted = inserted + probes;
    run.latency(
        "core.insert_call_ms_p50",
        "core.insert_call_ms_tail",
        updates.host_ms.clone(),
    );
    run.direction(Direction::Update, updates.host_s(), updates);
    run.direction(Direction::Read, reads.host_s(), reads);
    run.set(
        "core.insert_new_frac",
        ratio(new_halves as f64, 2.0 * inserted as f64),
    );
    run.set("algos.triangles", triangles as f64);
    let tc_row = row(&meter.total, "triangle_count");
    run.set("algos.tc_tx_per_round", tc_row.transactions as f64 / rounds);
    run.set(
        "algos.tc_launches_per_round",
        tc_row.launches as f64 / rounds,
    );
    slabhash_layer(
        &mut run,
        &meter.total,
        inserted,
        0,
        probes,
        "triangle_count",
    );
    let allocated = g.allocator().total_allocated() - alloc0;
    run.set(
        "slaballoc.slabs_per_kedge",
        ratio(allocated as f64, inserted as f64 / 1e3),
    );
    peaks.report(&mut run);
    let ops = run.attempted;
    gpu_layer(&mut run, &meter, ops);
    if ctx.profiled {
        registry_layer(&mut run, &[g.device()], &registry);
    }
    structure_end(&mut run, &[&g], oracle.edges);
    run
}
