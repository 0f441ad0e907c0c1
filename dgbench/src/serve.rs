//! `serve_road`: an open-loop update service on a road network.
//!
//! One generator thread submits updates on a fixed schedule (70 % inserts
//! of new edges, 30 % deletes of live ones) from eight logical sessions to
//! a two-shard `ShardedGraph` behind a `BatchRouter`, flushes every
//! `window` updates, and between flushes issues one pinned
//! `edge_exists_live` per four updates. Road degree is about 2.4, so
//! chains stay near one slab and the slab allocator idles: launch
//! overhead, the router's host path, journaling and per-shard dispatch
//! dominate. Each update's latency runs from when it was due to the return
//! of the flush that acknowledged it.

use crate::run::{
    charged_s, generate, gpu_layer, ratio, registry_layer, set_setup, sized, slabhash_layer,
    structure_end, Calls, Ctx, Direction, Meter, Peaks, Registry, Run,
};
use crate::stats::{percentile, sorted, tail, Fnv, Rng};
use router::{shard_of, BatchRouter, ReadQuality, ShardedGraph, Update};
use slabgraph::{DynGraph, Edge, GraphConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_road";
const DATASET: &str = "road_usa";
const SHARDS: usize = 2;
const SESSIONS: usize = 8;
const INSERT_PCT: usize = 70;

pub struct Size {
    /// Vertex count for the dataset generator; 0 takes its default scale.
    pub vertices: u32,
    /// Updates submitted over the measured phase.
    pub updates: usize,
    /// Arrival rate of the open loop, updates per second.
    pub rate: f64,
    /// Updates per flush.
    pub window: usize,
    /// One live read per this many updates.
    pub read_every: usize,
}

impl Size {
    pub fn nominal(seconds: u64) -> Self {
        let rate = 100_000.0;
        Size {
            vertices: 0,
            updates: (rate * seconds as f64) as usize,
            rate,
            window: 500,
            read_every: 4,
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert((u32, u32)),
    Delete((u32, u32)),
}

struct Inputs {
    n: u32,
    base: Vec<Edge>,
    ops: Vec<Op>,
    /// Read issued after update `i` (every `read_every`-th), with the
    /// answer the last flush makes exact.
    reads: Vec<((u32, u32), bool)>,
    /// Live edges after the final flush.
    live_end: usize,
    digest: u64,
}

/// Draw the op stream against a host copy of the flushed state. Within a
/// window an edge is touched at most once, so the router's
/// inserts-before-deletes order within a flush cannot change the outcome,
/// and every read's answer is the state at the window's start.
fn inputs(seed: u64, size: &Size) -> Inputs {
    let ds = generate(DATASET, size.vertices, seed);
    let n = ds.n_vertices;
    let mut live_vec: Vec<(u32, u32)> = Vec::new();
    let mut live: HashSet<(u32, u32)> = HashSet::new();
    for &(u, v) in &ds.edges {
        if u != v && live.insert((u, v)) {
            live_vec.push((u, v));
        }
    }
    let mut rng = Rng::new(seed, 2);
    let mut ops = Vec::with_capacity(size.updates);
    let mut reads = Vec::with_capacity(size.updates / size.read_every);
    for w0 in (0..size.updates).step_by(size.window) {
        let mut inserted: Vec<(u32, u32)> = Vec::new();
        let mut pending_ins: HashSet<(u32, u32)> = HashSet::new();
        let mut pending_del: HashSet<(u32, u32)> = HashSet::new();
        for i in w0..(w0 + size.window).min(size.updates) {
            if rng.percent(INSERT_PCT) || live_vec.is_empty() {
                let p = loop {
                    let p = rng.pair(n);
                    if p.0 != p.1
                        && !live.contains(&p)
                        && !pending_del.contains(&p)
                        && pending_ins.insert(p)
                    {
                        break p;
                    }
                };
                inserted.push(p);
                ops.push(Op::Insert(p));
            } else {
                let p = live_vec.swap_remove(rng.below(live_vec.len()));
                live.remove(&p);
                pending_del.insert(p);
                ops.push(Op::Delete(p));
            }
            if (i + 1) % size.read_every == 0 {
                let q = if rng.below(2) == 0 && !live_vec.is_empty() {
                    live_vec[rng.below(live_vec.len())]
                } else {
                    rng.pair(n)
                };
                // The flushed state: live now or deleted in this window;
                // this window's inserts are not visible yet.
                reads.push((q, live.contains(&q) || pending_del.contains(&q)));
            }
        }
        for p in inserted {
            live.insert(p);
            live_vec.push(p);
        }
    }
    let mut h = Fnv::default();
    h.u32(n);
    h.pairs(&ds.edges);
    for op in &ops {
        match *op {
            Op::Insert(p) => {
                h.u32(1);
                h.pair(p);
            }
            Op::Delete(p) => {
                h.u32(2);
                h.pair(p);
            }
        }
    }
    for &(q, e) in &reads {
        h.pair(q);
        h.u32(e as u32);
    }
    Inputs {
        n,
        base: ds.edges.iter().map(|&p| Edge::from(p)).collect(),
        ops,
        reads,
        live_end: live.len(),
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
    let (mut build_s, mut checkpoint_s, mut modeled) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..ctx.builds() {
        // The last build is kept: `BatchRouter` borrows its graph, so the
        // measured phase runs inside the closure.
        let last = i + 1 == ctx.builds();
        let (b, c, m) = build(ctx, &config, &inp.base, i, |sg, router| {
            if last {
                measure(ctx, size, &inp, sg, router, &mut run)
            }
        });
        build_s.push(b);
        checkpoint_s.push(c);
        modeled.push(m);
    }
    let median = |v: Vec<f64>| percentile(&sorted(v), 0.5);
    set_setup(&mut run, &modeled);
    run.set("core.build_s", median(build_s));
    run.set("router.checkpoint_s", median(checkpoint_s));
    run
}

/// Build the sharded graph and its router, hand both to `then`, and return
/// the host seconds of each and the modeled set-up time of the two.
fn build(
    ctx: &Ctx,
    config: &GraphConfig,
    base: &[Edge],
    i: usize,
    then: impl FnOnce(&ShardedGraph, &BatchRouter),
) -> (f64, f64, f64) {
    let tr = ctx.tracer;
    let b = tr.start("core.bulk_build", 0, i as u64);
    let sg = ShardedGraph::bulk_build(SHARDS, *config, base);
    let build_s = tr.finish(b).as_secs_f64();
    let c = tr.start("router.new", 0, i as u64);
    let router = BatchRouter::new(&sg);
    let checkpoint_s = tr.finish(c).as_secs_f64();
    let modeled = charged_s(&devices(&sg));
    then(&sg, &router);
    (build_s, checkpoint_s, modeled)
}

fn devices(sg: &ShardedGraph) -> Vec<&gpu_sim::Device> {
    sg.group().devices().iter().map(|d| d.as_ref()).collect()
}

fn measure(
    ctx: &Ctx,
    size: &Size,
    inp: &Inputs,
    sg: &ShardedGraph,
    router: &BatchRouter,
    run: &mut Run,
) {
    let tr = ctx.tracer;
    let devs = devices(sg);
    let registry = Registry::capture(&devs);
    let mut meter = Meter::new(devs.clone());
    let interval = Duration::from_secs_f64(1.0 / size.rate);
    let (mut late, mut submit_ns, mut pin_us, mut flush_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // An update's modeled latency is its flush's: the modeled clock has no
    // queue, since arrivals follow the host schedule.
    let (mut updates, mut live_reads) = (Calls::default(), Calls::default());
    let mut busy_s = 0.0;
    let (mut hits, mut degraded, mut inserts, mut deletes) = (0u64, 0u64, 0u64, 0u64);
    let (mut ins_new, mut ins_items, mut del_hit, mut del_items) = (0u64, 0u64, 0u64, 0u64);
    let mut reads = 0usize;
    let allocated = || -> u64 {
        (0..SHARDS)
            .map(|s| sg.shard(s).allocator().total_allocated())
            .sum()
    };
    let quarantined = || -> usize {
        (0..SHARDS)
            .map(|s| sg.shard(s).allocator().quarantined_slabs())
            .sum()
    };
    let alloc0 = allocated();
    let mut quarantine_peak = 0usize;

    let phase = tr.start(NAME, 0, 0);
    let start = Instant::now();
    // Time spent waiting for the schedule: the open loop's wall time is
    // fixed, so tracing overhead shows only in the busy remainder.
    let mut idle = Duration::ZERO;
    for (w, w0) in (0..size.updates).step_by(size.window).enumerate() {
        let req = w as u64;
        let window = tr.start("serve.window", phase.id, req);
        let p = tr.start("router.pin_read", window.id, req);
        let pin = router.pin_read();
        pin_us.push(tr.finish(p).as_secs_f64() * 1e6);
        let end = (w0 + size.window).min(size.updates);
        let mut due = Vec::with_capacity(end - w0);
        for i in w0..end {
            let due_at = start + interval * i as u32;
            let mut now = Instant::now();
            idle += due_at.saturating_duration_since(now);
            while now < due_at {
                std::hint::spin_loop();
                now = Instant::now();
            }
            late.push((now - due_at).as_secs_f64() * 1e3);
            let s = tr.start("router.submit", window.id, req);
            let update = match inp.ops[i] {
                Op::Insert(p) => {
                    inserts += 1;
                    Update::Insert(Edge::from(p))
                }
                Op::Delete(p) => {
                    deletes += 1;
                    Update::Delete(Edge::from(p))
                }
            };
            router.submit(i % SESSIONS, update);
            let took = tr.finish(s);
            submit_ns.push(took.as_secs_f64() * 1e9);
            busy_s += took.as_secs_f64();
            due.push(due_at);
            if (i + 1) % size.read_every == 0 {
                let ((u, v), expect) = inp.reads[reads];
                let ((hit, quality), host, modeled) =
                    meter.call(tr, "router.edge_exists_live", window.id, req, || {
                        router.edge_exists_live(&pin, u, v)
                    });
                if quality != ReadQuality::Exact {
                    degraded += 1;
                }
                run.check(hit == expect, || {
                    format!("read {reads} ({u},{v}): answered {hit}, oracle says {expect}")
                });
                hits += hit as u64;
                live_reads.push(1, host, modeled);
                reads += 1;
            }
        }
        drop(pin);
        let (report, host, modeled) =
            meter.call(tr, "router.flush", window.id, req, || router.flush());
        let ack = Instant::now();
        updates
            .host_ms
            .extend(due.iter().map(|&d| (ack - d).as_secs_f64() * 1e3));
        updates.modeled_us.push(modeled * 1e6);
        updates.host_items += due.len() as u64;
        updates.modeled_items += due.len() as u64;
        run.check(report.updates == end - w0, || {
            format!(
                "flush {w} drained {} updates, {} were submitted",
                report.updates,
                end - w0
            )
        });
        for s in &report.shards {
            for (o, is_insert) in [(&s.insert, true), (&s.delete, false)] {
                let Some(o) = o else { continue };
                run.failed += o.pending.len() as u64;
                if is_insert {
                    ins_new += o.changed;
                    ins_items += o.attempted as u64;
                } else {
                    del_hit += o.changed;
                    del_items += o.attempted as u64;
                }
            }
            run.check(s.error.is_none(), || {
                format!("flush {w}: shard {} failed: {:?}", s.shard, s.error)
            });
        }
        flush_ms.push(host * 1e3);
        busy_s += host;
        quarantine_peak = quarantine_peak.max(quarantined());
        tr.finish(window);
    }
    run.measured_s = (tr.finish(phase) - idle).as_secs_f64();

    run.attempted = inserts + deletes + reads as u64;
    run.failed += degraded;
    run.check(degraded == 0, || {
        format!("{degraded} live reads were not exact")
    });
    run.direction(Direction::Update, busy_s, updates);
    run.direction(Direction::Read, live_reads.host_s(), live_reads);
    run.latency("router.flush_ms_p50", "router.flush_ms_tail", flush_ms);
    run.latency("slaballoc.pin_us_p50", "slaballoc.pin_us_tail", pin_us);
    run.set("router.submit_ns_p50", percentile(&sorted(submit_ns), 0.5));
    run.set("bench.serve_late_tail_ms", tail(&sorted(late)).1);
    run.set("router.degraded_reads", degraded as f64);
    let cut = inp.ops.iter().filter(|op| {
        let (Op::Insert((u, v)) | Op::Delete((u, v))) = **op;
        shard_of(u, SHARDS) != shard_of(v, SHARDS)
    });
    run.set(
        "router.replica_frac",
        ratio(cut.count() as f64, inp.ops.len() as f64),
    );
    let mean = meter.per_dev_s.iter().sum::<f64>() / meter.per_dev_s.len() as f64;
    let max = meter.per_dev_s.iter().copied().fold(0.0, f64::max);
    run.set("router.shard_imbalance", ratio(max, mean));
    run.set(
        "core.insert_new_frac",
        ratio(ins_new as f64, ins_items as f64),
    );
    run.set(
        "core.delete_hit_frac",
        ratio(del_hit as f64, del_items as f64),
    );
    run.set("core.query_hit_frac", ratio(hits as f64, reads as f64));
    slabhash_layer(
        run,
        &meter.total,
        inserts,
        deletes,
        reads as u64,
        "edge_exist",
    );
    let slabs = (allocated() - alloc0) as f64;
    run.set(
        "slaballoc.slabs_per_kedge",
        ratio(slabs, inserts as f64 / 1e3),
    );
    run.set("slaballoc.quarantine_peak", quarantine_peak as f64);
    let ops = run.attempted;
    gpu_layer(run, &meter, ops);
    if ctx.profiled {
        registry_layer(run, &devs, &registry);
    }
    let shards: Vec<_> = (0..SHARDS).map(|s| sg.shard(s)).collect();
    let mut peaks = Peaks::default();
    let refs: Vec<&DynGraph> = shards.iter().map(|g| &**g).collect();
    for g in &refs {
        peaks.sample(g);
    }
    peaks.report(run);
    if let Err(e) = sg.validate() {
        run.errors.push(format!("sharded validate() failed: {e}"));
    }
    let edges = sg.num_edges();
    run.check(edges == inp.live_end as u64, || {
        format!(
            "{edges} live edges after the last flush, oracle says {}",
            inp.live_end
        )
    });
    structure_end(run, &refs, inp.live_end as u64);
}
