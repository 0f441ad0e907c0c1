//! `mixed_rw`: reads next to writes on one graph.
//!
//! The main thread writes batches (inserts, then deletes, drawn from a
//! bounded universe of dynamic edges so the graph reaches a steady state)
//! and flushes tombstones every eight batches. One reader thread runs a
//! closed loop of pinned `edge_exists` calls, re-pinning every 64 reads,
//! until the writer finishes. It probes a stable universe — base edges,
//! which are never deleted, and pairs that are never inserted — so every
//! answer has an exact oracle while epoch pins race the flushes' frees.
//!
//! The reader spins for a fixed think time between reads. Every query
//! stages its pairs in device memory that the simulator's bump allocator
//! never reclaims, so an unpaced reader would grow the arena by gigabytes
//! in one run; spinning rather than sleeping keeps the reader's core
//! awake, so a read does not pay for waking it.
//!
//! Reads are held off while `flush_tombstones` runs (a pin taken before a
//! flush stays held across it, so pins still race the flush's frees):
//! the flush empties each table's base slabs before it reinserts the live
//! keys, so a read during a flush can miss an edge that was never
//! deleted.
//!
//! Host metrics come from the concurrent phase. Modeled metrics come from
//! a single-threaded replay of the same writes on a fresh graph, then of
//! the reader's first probes: gpu-sim attributes charges through one
//! launch-scope stack per device, so while two host threads launch at once
//! a read that starts inside a write batch is charged to the batch and its
//! launch goes uncounted, and the concurrent phase has no exact modeled
//! cost to report.

use crate::run::{
    generate, gpu_layer, ratio, registry_layer, sized, slabhash_layer, structure_end, timed_builds,
    Calls, Ctx, Direction, Meter, Peaks, Registry, Run,
};
use crate::spans::Tracer;
use crate::stats::{Fnv, Rng};
use slabgraph::{DynGraph, Edge, GraphConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Duration;

pub const NAME: &str = "mixed_rw";
const DATASET: &str = "rgg_n_2_20_s0";
const FLUSH_EVERY: usize = 8;
const READS_PER_PIN: usize = 64;
const REPLAY_PROBES: usize = 4096;
/// Writer batches per nominal second, from the reference host (2 cores):
/// the concurrent phase and the replay each take about 20 ms a batch.
const BATCHES_PER_SECOND: f64 = 20.0;

pub struct Size {
    /// Vertex count for the dataset generator; 0 takes its default scale.
    pub vertices: u32,
    pub batches: usize,
    pub inserts: usize,
    pub deletes: usize,
    /// Distinct dynamic edges the batches draw from.
    pub universe: usize,
    /// Stable probes (half base edges, half never-inserted pairs).
    pub probes: usize,
    pub think: Duration,
}

impl Size {
    pub fn nominal(seconds: u64) -> Self {
        Size {
            vertices: 0,
            batches: ((seconds as f64 * BATCHES_PER_SECOND) as usize).max(FLUSH_EVERY),
            inserts: 1 << 14,
            deletes: 1 << 13,
            universe: 1 << 16,
            probes: 1 << 16,
            think: Duration::from_micros(50),
        }
    }
}

struct Inputs {
    n: u32,
    base: Vec<Edge>,
    /// Distinct base edges (self-loops are not stored).
    base_live: usize,
    batches: Vec<(Vec<Edge>, Vec<Edge>)>,
    probes: Vec<((u32, u32), bool)>,
    digest: u64,
}

fn inputs(seed: u64, size: &Size) -> Inputs {
    let ds = generate(DATASET, size.vertices, seed);
    let n = ds.n_vertices;
    let base: HashSet<(u32, u32)> = ds.edges.iter().copied().filter(|(u, v)| u != v).collect();
    let mut rng = Rng::new(seed, 3);
    let mut taken = base.clone();
    let mut fresh = |count: usize, rng: &mut Rng| -> Vec<(u32, u32)> {
        (0..count)
            .map(|_| loop {
                let p = rng.pair(n);
                if p.0 != p.1 && taken.insert(p) {
                    break p;
                }
            })
            .collect()
    };
    let universe = fresh(size.universe, &mut rng);
    let absent = fresh(size.probes / 2, &mut rng);
    let draw = |count: usize, rng: &mut Rng| -> Vec<Edge> {
        (0..count)
            .map(|_| Edge::from(universe[rng.below(universe.len())]))
            .collect()
    };
    let batches: Vec<(Vec<Edge>, Vec<Edge>)> = (0..size.batches)
        .map(|_| (draw(size.inserts, &mut rng), draw(size.deletes, &mut rng)))
        .collect();
    let probes: Vec<((u32, u32), bool)> = (0..size.probes)
        .map(|i| {
            let p = if i % 2 == 0 {
                ds.edges[rng.below(ds.edges.len())]
            } else {
                absent[i / 2]
            };
            (p, base.contains(&p))
        })
        .collect();
    let mut h = Fnv::default();
    h.u32(n);
    h.pairs(&ds.edges);
    for (ins, del) in &batches {
        for e in ins.iter().chain(del) {
            h.pair((e.src, e.dst));
        }
    }
    for &(p, e) in &probes {
        h.pair(p);
        h.u32(e as u32);
    }
    Inputs {
        n,
        base: ds.edges.iter().map(|&p| Edge::from(p)).collect(),
        base_live: base.len(),
        batches,
        probes,
        digest: h.finish(),
    }
}

/// What the writer did, call by call, checked against a host oracle.
#[derive(Default)]
struct Writes {
    inserted: u64,
    deleted: u64,
    new_edges: u64,
    hits_deleted: u64,
    /// Inserts, and deletes with the flush after them, as update calls.
    updates: Calls,
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    quarantine_peak: usize,
    /// Dynamic edges live at the end.
    live: HashSet<(u32, u32)>,
}

/// Apply every batch (inserts, deletes, a tombstone flush every eight)
/// through `meter`, checking each `changed` count against the oracle.
/// Each flush holds `gate` for writing, so no read runs during it.
#[allow(clippy::too_many_arguments)]
fn write(
    g: &DynGraph,
    gate: &RwLock<()>,
    meter: &mut Meter,
    tr: &Tracer,
    parent: u64,
    inp: &Inputs,
    run: &mut Run,
    peaks: &mut Peaks,
) -> Writes {
    let mut w = Writes::default();
    for (b, (ins, del)) in inp.batches.iter().enumerate() {
        let req = b as u64;
        let batch = tr.start("mixed.batch", parent, req);
        let (out, host, modeled) = meter.call(tr, "core.insert_edges", batch.id, req, || {
            g.try_insert_edges(ins)
        });
        let expect = ins.iter().filter(|e| w.live.insert((e.src, e.dst))).count() as u64;
        w.new_edges += run.outcome(format_args!("batch {b} insert"), out, ins.len(), expect);
        w.inserted += ins.len() as u64;
        w.updates.push(ins.len(), host, modeled);
        w.insert_ms.push(host * 1e3);

        let (out, host, modeled) = meter.call(tr, "core.delete_edges", batch.id, req, || {
            g.try_delete_edges(del)
        });
        let expect = del
            .iter()
            .filter(|e| w.live.remove(&(e.src, e.dst)))
            .count() as u64;
        w.hits_deleted += run.outcome(format_args!("batch {b} delete"), out, del.len(), expect);
        w.deleted += del.len() as u64;
        w.delete_ms.push(host * 1e3);
        let (mut host, mut modeled) = (host, modeled);
        if (b + 1) % FLUSH_EVERY == 0 {
            peaks.sample(g);
            let held = gate
                .write()
                .expect("reader panicked holding the flush gate");
            let (_, h, m) = meter.call(tr, "core.flush_tombstones", batch.id, req, || {
                g.flush_tombstones()
            });
            drop(held);
            w.flush_ms.push(h * 1e3);
            (host, modeled) = (host + h, modeled + m);
        }
        w.updates.push(del.len(), host, modeled);
        w.quarantine_peak = w.quarantine_peak.max(g.allocator().quarantined_slabs());
        tr.finish(batch);
    }
    w
}

/// What the reader thread observed.
struct Reads {
    latency_ms: Vec<f64>,
    pin_us: Vec<f64>,
    wrong: usize,
    hits: u64,
}

fn reader(
    g: &DynGraph,
    gate: &RwLock<()>,
    tr: &Tracer,
    probes: &[((u32, u32), bool)],
    think: Duration,
    done: &AtomicBool,
) -> Reads {
    let mut out = Reads {
        latency_ms: Vec::new(),
        pin_us: Vec::new(),
        wrong: 0,
        hits: 0,
    };
    let session = tr.start("mixed.reader", 0, 0);
    let mut k = 0usize;
    while !done.load(Ordering::Acquire) {
        let req = out.pin_us.len() as u64;
        let p = tr.start("core.pin_read", session.id, req);
        let pin = g.pin_read();
        out.pin_us.push(tr.finish(p).as_secs_f64() * 1e6);
        for _ in 0..READS_PER_PIN {
            let ((u, v), expect) = probes[k % probes.len()];
            k += 1;
            let open = gate.read().expect("writer panicked holding the flush gate");
            let o = tr.start("core.edge_exists", session.id, req);
            let hit = g.edge_exists(&pin, u, v);
            out.latency_ms.push(tr.finish(o).as_secs_f64() * 1e3);
            drop(open);
            out.wrong += (hit != expect) as usize;
            out.hits += hit as u64;
            let until = std::time::Instant::now() + think;
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
    tr.finish(session);
    out
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

    // The concurrent phase: host metrics and every correctness check.
    let registry = Registry::capture(&[g.device()]);
    let mut meter = Meter::new(vec![g.device()]);
    meter.check_rows = false;
    let trace0 = g.device().trace();
    let mut peaks = Peaks::default();
    let alloc0 = g.allocator().total_allocated();
    let done = AtomicBool::new(false);
    let gate = RwLock::new(());
    let phase = tr.start(NAME, 0, 0);
    let (writes, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(&g, &gate, tr, &inp.probes, size.think, &done));
        let writes = write(
            &g, &gate, &mut meter, tr, phase.id, &inp, &mut run, &mut peaks,
        );
        done.store(true, Ordering::Release);
        (writes, reader.join().expect("reader thread panicked"))
    });
    run.measured_s = tr.finish(phase).as_secs_f64();
    // Both threads are quiet here, so the phase's rows must add up even
    // though individual calls could not be checked.
    if let Err(e) = crate::run::rows_sum(&g.device().trace().delta(&trace0)) {
        run.errors.push(format!("concurrent phase: {e}"));
    }
    let n_reads = reads.latency_ms.len() as u64;
    run.check(reads.wrong == 0, || {
        format!(
            "{} of {n_reads} concurrent reads disagree with the stable-universe oracle",
            reads.wrong
        )
    });
    run.check(n_reads > 0, || "the reader made no reads".to_string());

    // The replay: the same writes alone on a fresh graph, then the
    // reader's first probes, for the modeled clock.
    let quiet = Tracer::new(false);
    let solo = DynGraph::bulk_build(config, &inp.base);
    let mut solo_meter = Meter::new(vec![solo.device()]);
    let solo_writes = write(
        &solo,
        &RwLock::new(()),
        &mut solo_meter,
        &quiet,
        0,
        &inp,
        &mut run,
        &mut Peaks::default(),
    );
    let pin = solo.pin_read();
    let replayed = REPLAY_PROBES.min(inp.probes.len());
    let mut replay_reads = Calls::default();
    for &((u, v), expect) in &inp.probes[..replayed] {
        let (hit, _, modeled) = solo_meter.call(&quiet, "core.edge_exists", 0, 0, || {
            solo.edge_exists(&pin, u, v)
        });
        run.check(hit == expect, || {
            format!("replayed probe ({u},{v}) answered {hit}")
        });
        replay_reads.push(1, 0.0, modeled);
    }
    drop(pin);

    // Host samples from the concurrent phase, modeled ones from the replay.
    run.attempted = writes.inserted + writes.deleted + n_reads;
    let busy = writes.updates.host_s();
    let updates = Calls {
        modeled_us: solo_writes.updates.modeled_us,
        modeled_items: solo_writes.updates.modeled_items,
        ..writes.updates
    };
    run.direction(Direction::Update, busy, updates);
    run.latency(
        "core.query_call_ms_p50",
        "core.query_call_ms_tail",
        reads.latency_ms.clone(),
    );
    let reads_calls = Calls {
        host_items: n_reads,
        host_ms: reads.latency_ms,
        ..replay_reads
    };
    run.direction(Direction::Read, reads_calls.host_s(), reads_calls);
    run.latency(
        "core.insert_call_ms_p50",
        "core.insert_call_ms_tail",
        writes.insert_ms,
    );
    run.latency(
        "core.delete_call_ms_p50",
        "core.delete_call_ms_tail",
        writes.delete_ms,
    );
    run.latency(
        "core.flush_call_ms_p50",
        "core.flush_call_ms_tail",
        writes.flush_ms,
    );
    run.latency(
        "slaballoc.pin_us_p50",
        "slaballoc.pin_us_tail",
        reads.pin_us,
    );
    let frac = |a: u64, b: u64| ratio(a as f64, b as f64);
    run.set(
        "core.insert_new_frac",
        frac(writes.new_edges, writes.inserted),
    );
    run.set(
        "core.delete_hit_frac",
        frac(writes.hits_deleted, writes.deleted),
    );
    run.set("core.query_hit_frac", frac(reads.hits, n_reads));
    let (ins, del, probes) = (writes.inserted, writes.deleted, replayed as u64);
    slabhash_layer(&mut run, &solo_meter.total, ins, del, probes, "edge_exist");
    let allocated = g.allocator().total_allocated() - alloc0;
    run.set(
        "slaballoc.slabs_per_kedge",
        ratio(allocated as f64, writes.inserted as f64 / 1e3),
    );
    run.set("slaballoc.quarantine_peak", writes.quarantine_peak as f64);
    peaks.sample(&g);
    peaks.report(&mut run);
    let ops = writes.inserted + writes.deleted + replayed as u64;
    gpu_layer(&mut run, &solo_meter, ops);
    if ctx.profiled {
        registry_layer(&mut run, &[g.device()], &registry);
    }
    let live = inp.base_live + writes.live.len();
    structure_end(&mut run, &[&g], live as u64);
    run
}
