//! Integration fixtures for the shadow-memory sanitizer (DESIGN.md §13):
//! negative kernels that **must** be flagged with full provenance, clean
//! runs over all four backends that must not be, and proof that an
//! attached sanitizer never perturbs performance counters.
//!
//! These fixtures attach their own non-escalating sanitizer at runtime,
//! so they pass with and without the `sanitize` feature. The clean-run
//! tests get their teeth from the sanitized CI stage, where every device
//! in the workspace carries an escalating sanitizer.

use dynamic_graphs_gpu::algos;
use dynamic_graphs_gpu::baselines::{Csr, FaimGraph, Hornet};
use dynamic_graphs_gpu::gpu_sim::{
    self, Addr, Device, DeviceConfig, ExecPolicy, FindingKind, SanitizerConfig,
};
use dynamic_graphs_gpu::graph_gen::{fixtures, mirror};
use dynamic_graphs_gpu::prelude::*;
use dynamic_graphs_gpu::slab_alloc::SlabAllocator;
use dynamic_graphs_gpu::slab_hash;

fn sanitized_device(words: usize) -> Device {
    Device::with_config(DeviceConfig::new(words).with_sanitizer(SanitizerConfig::default()))
}

/// Negative fixture 1: a torn read-modify-write counter. Every warp does
/// a plain read followed by a plain write of the same word; the model
/// must flag the conflict even under the sequential executor, with both
/// sides' provenance.
#[test]
fn torn_counter_fixture_is_flagged_with_provenance() {
    let dev = sanitized_device(1 << 12);
    let c = dev.alloc_words(1, 1);
    dev.host_write(c, &[0]);
    dev.launch_tasks("torn_counter", 96, |warp| {
        let v = warp.read_word(c);
        warp.write_word(c, v + 1);
    });
    let f = dev.sanitizer_findings();
    assert!(!f.is_empty(), "torn counter must be detected");
    for x in &f {
        assert_eq!(x.addr, c, "{x}");
        assert_eq!(x.kernel, "torn_counter", "{x}");
        assert_eq!(x.other_kernel, "torn_counter", "{x}");
        assert_ne!(x.warp, x.other_warp, "races are cross-warp: {x}");
        assert!(
            matches!(
                x.kind,
                FindingKind::RaceReadWrite | FindingKind::RaceWriteWrite
            ),
            "{x}"
        );
    }
}

/// Negative fixture 2: reading a dynamic slab after it was freed. The
/// slab sits in quarantine (bit still claimed), so only the shadow state
/// can catch the access — with the allocating and freeing kernels named.
#[test]
fn freed_slab_read_is_flagged_as_use_after_free() {
    let dev = sanitized_device(1 << 16);
    let alloc = SlabAllocator::new(&dev, 64);
    let slab = std::sync::Mutex::new(0u32);
    dev.launch_warps("writer_kernel", 1, |warp| {
        *slab.lock().unwrap() = alloc.allocate(warp);
    });
    let a = *slab.lock().unwrap();
    dev.launch_warps("free_kernel", 1, |warp| {
        alloc.free(warp, a).unwrap();
    });
    dev.launch_warps("reader_kernel", 1, |warp| {
        let _ = warp.read_slab(a);
    });
    let f = dev.sanitizer_findings();
    let uaf: Vec<_> = f
        .iter()
        .filter(|x| x.kind == FindingKind::UseAfterFree)
        .collect();
    assert!(!uaf.is_empty(), "freed-slab read must be detected: {f:?}");
    let x = uaf[0];
    assert_eq!(x.addr, a);
    assert_eq!(x.kernel, "reader_kernel");
    assert_eq!(x.other_kernel, "writer_kernel", "allocation provenance");
    assert!(
        x.note.contains("free_kernel"),
        "free provenance: {}",
        x.note
    );
}

/// A double free is reported through the allocator's typed error *and*
/// recorded as a finding with both free sites' kernels.
#[test]
fn double_free_is_flagged_with_both_kernels() {
    let dev = sanitized_device(1 << 16);
    let alloc = SlabAllocator::new(&dev, 64);
    dev.launch_warps("df_kernel", 1, |warp| {
        let a = alloc.allocate(warp);
        alloc.free(warp, a).unwrap();
        assert!(matches!(
            alloc.free(warp, a),
            Err(AllocError::DoubleFree { addr }) if addr == a
        ));
    });
    let f = dev.sanitizer_findings();
    let df: Vec<_> = f
        .iter()
        .filter(|x| x.kind == FindingKind::DoubleFree)
        .collect();
    assert_eq!(df.len(), 1, "{f:?}");
    assert_eq!(df[0].kernel, "df_kernel");
    assert!(df[0].note.contains("df_kernel"), "{}", df[0].note);
}

/// Clean runs: the full read/compute surface of all four backends over
/// the shared fixture graph must produce zero findings. Under the
/// `sanitize` feature every backend's device escalates, so a violation
/// would also abort the run outright.
#[test]
fn clean_runs_of_all_four_backends_report_zero_findings() {
    let (n, e) = fixtures::fixture_edges();
    let sym = mirror(&e);
    let words = 1 << 20;
    let g = DynGraph::with_uniform_buckets(GraphConfig::undirected_set(n), n, 1);
    g.insert_edges(&e.iter().map(|&p| Edge::from(p)).collect::<Vec<_>>());
    let backends: Vec<Box<dyn GraphBackend>> = vec![
        Box::new(g),
        Box::new(Hornet::bulk_build(n, &sym, words)),
        Box::new(FaimGraph::build(n, &sym, words)),
        Box::new(Csr::build(n, &sym, words)),
    ];
    for mut b in backends {
        b.ensure_sorted();
        let _ = algos::tc(b.as_ref());
        let _ = algos::bfs_levels(b.as_ref(), 0);
        assert_eq!(
            b.device().sanitizer_findings(),
            vec![],
            "backend {}",
            b.name()
        );
    }
}

/// Clean run under churn: repeated insert/delete cycles over the dynamic
/// graph (exercising lazy table install, slab recycling through
/// quarantine, and rehashing) stay sanitizer-clean.
#[test]
fn dyn_graph_update_churn_is_sanitizer_clean() {
    let g = DynGraph::new(GraphConfig::directed_map(128));
    let edges: Vec<Edge> = (0..512u32)
        .map(|i| Edge::weighted(i % 97, (i * 31 + 7) % 97, i % 13))
        .collect();
    g.insert_edges(&edges);
    g.delete_edges(&edges[..256]);
    g.insert_edges(&edges[..128]);
    g.delete_vertices(&[3, 17, 41]);
    g.validate().expect("churned graph validates");
    assert_eq!(g.device().sanitizer_findings(), vec![]);
}

/// The mixed update kernel's race pair: one batch deletes and inserts
/// distinct keys of a single multi-slab chain, every warp holding both
/// kinds, on the threaded executor. A tombstone CAS in one warp races an
/// EMPTY-slot claim in another on the same chain; the sanitizer must
/// report nothing and the graph must validate.
#[test]
fn mixed_batch_on_one_chain_is_sanitizer_clean_threaded() {
    let dev = Device::with_config(
        DeviceConfig::new(1 << 18)
            .with_sanitizer(SanitizerConfig::default())
            .with_exec_policy(ExecPolicy::Threaded(4)),
    );
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_map(1024));
    let old: Vec<Edge> = (1..=256).map(|v| Edge::weighted(0, v, v)).collect();
    g.insert_edges(&old);
    assert!(
        g.stats(&g.pin_read()).tables.max_chain > 1,
        "vertex 0's single bucket spans several slabs"
    );
    let updates: Vec<Update> = old
        .iter()
        .enumerate()
        .flat_map(|(i, &e)| {
            let fresh = Edge::weighted(0, 300 + i as u32, i as u32);
            [Update::Delete(e), Update::Insert(fresh)]
        })
        .collect();
    let (ins, del) = g.try_update_edges(&updates).expect("valid ids");
    assert!(ins.is_complete() && del.is_complete(), "{ins:?} {del:?}");
    assert_eq!((ins.changed, del.changed), (256, 256));
    assert_eq!(g.degree(0), 256);
    let pin = g.pin_read();
    assert_eq!(g.read_neighbors(&pin, &[0]).list(0).len(), 256);
    assert!(g
        .edges_exist(&pin, &[(0, 1), (0, 256)])
        .iter()
        .all(|&hit| !hit));
    drop(pin);
    assert_eq!(g.device().sanitizer_findings(), vec![]);
    g.validate().expect("mixed batch leaves a valid chain");
}

/// Insert groups racing on one chain, on the threaded executor: every
/// warp of each batch holds one 32-key group for vertex 0's single
/// bucket, and neighbouring warps' groups overlap in half their keys, so
/// group walks claim free slots of one chain concurrently and lose
/// claims to each other. Every key stays stored once, the changed counts
/// and the vertex count are exact, and the sanitizer reports nothing.
#[test]
fn overlapping_insert_groups_on_one_chain_are_clean_threaded() {
    let dev = Device::with_config(
        DeviceConfig::new(1 << 20)
            .with_sanitizer(SanitizerConfig::default())
            .with_exec_policy(ExecPolicy::Threaded(4)),
    );
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_map(4096));
    let mut stored = std::collections::BTreeSet::new();
    for round in 0..4u32 {
        // 16 warps; warp w holds keys 16w .. 16w + 32 of this round's range.
        let batch: Vec<Edge> = (0..16u32)
            .flat_map(|w| {
                (0..32u32).map(move |i| Edge::weighted(0, 1 + round * 300 + 16 * w + i, w))
            })
            .collect();
        let before = stored.len();
        stored.extend(batch.iter().map(|e| e.dst));
        let outcome = g.try_insert_edges(&batch).expect("valid ids");
        assert!(outcome.is_complete(), "{outcome:?}");
        assert_eq!(
            outcome.changed,
            (stored.len() - before) as u64,
            "round {round}"
        );
    }
    assert_eq!(g.degree(0) as usize, stored.len());
    let pin = g.pin_read();
    let mut dsts = g.read_neighbors(&pin, &[0]).list(0).to_vec();
    drop(pin);
    dsts.sort_unstable();
    assert_eq!(
        dsts,
        stored.into_iter().collect::<Vec<_>>(),
        "each key once"
    );
    assert_eq!(g.device().sanitizer_findings(), vec![]);
    g.validate().expect("racing groups leave a valid chain");
}

/// Map writes racing pinned readers on one chain, on the threaded
/// executor: each round's batch deletes, replaces and inserts distinct
/// keys of vertex 0's single multi-slab bucket while reader threads probe
/// it. A slot's ⟨key, value⟩ is claimed or replaced with one pair CAS, so
/// a reader that finds a key reads a value written for that key, never
/// the EMPTY filler of a just-claimed slot.
#[test]
fn map_writes_racing_pinned_readers_on_one_chain_are_clean_threaded() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const ROUNDS: u32 = 16;
    let dev = Device::with_config(
        DeviceConfig::new(1 << 18)
            .with_sanitizer(SanitizerConfig::default())
            .with_exec_policy(ExecPolicy::Threaded(4)),
    );
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_map(2048));
    // Key k's value written in round r: a reader can tell whose it is.
    let value = |k: u32, round: u32| k * 1000 + round;
    let old: Vec<Edge> = (1..=128)
        .map(|k| Edge::weighted(0, k, value(k, 0)))
        .collect();
    g.insert_edges(&old);
    assert!(
        g.stats(&g.pin_read()).tables.max_chain > 1,
        "vertex 0's single bucket spans several slabs"
    );
    let fresh = |round: u32| (1000 + 16 * (round - 1))..(1000 + 16 * round);
    let probes: Vec<(u32, u32)> = (1..=128)
        .chain(fresh(1).start..fresh(ROUNDS).end)
        .map(|k| (0, k))
        .collect();
    let (stop, ready) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u32)
            .map(|_| {
                let (g, stop, ready, probes) = (&g, &stop, &ready, &probes);
                s.spawn(move || {
                    let (mut seen, mut first) = (0u64, true);
                    while !stop.load(Ordering::Acquire) {
                        let pin = g.pin_read();
                        let hits = g.edges_exist(&pin, probes).iter().filter(|&&h| h).count();
                        assert!(hits >= 64, "a live key went missing: {hits} hits");
                        for (k, w) in g.read_neighbors(&pin, &[0]).entries(0) {
                            assert_ne!(w, slab_hash::EMPTY_KEY, "key {k} read before its value");
                            assert!(
                                w / 1000 == k && w % 1000 <= ROUNDS,
                                "key {k} read value {w}, never written for it"
                            );
                            seen += 1;
                        }
                        if std::mem::replace(&mut first, false) {
                            ready.fetch_add(1, Ordering::Release);
                        }
                    }
                    seen
                })
            })
            .collect();
        // Write only once every reader is live.
        while ready.load(Ordering::Acquire) < readers.len() {
            std::thread::yield_now();
        }
        for round in 1..=ROUNDS {
            let deleted = (4 * (round - 1) + 1)..=(4 * round);
            let updates: Vec<Update> = deleted
                .map(|k| Update::Delete(Edge::new(0, k)))
                .chain((65..=128).map(|k| Update::Insert(Edge::weighted(0, k, value(k, round)))))
                .chain(fresh(round).map(|k| Update::Insert(Edge::weighted(0, k, value(k, round)))))
                .collect();
            let (ins, del) = g.try_update_edges(&updates).expect("valid ids");
            assert!(ins.is_complete() && del.is_complete(), "{ins:?} {del:?}");
            assert_eq!((ins.changed, del.changed), (16, 4));
        }
        stop.store(true, Ordering::Release);
        for h in readers {
            assert!(h.join().unwrap() > 0, "every reader saw some values");
        }
    });
    assert_eq!(g.degree(0), 128 - 4 * ROUNDS + 16 * ROUNDS);
    let pin = g.pin_read();
    let weights: std::collections::HashMap<u32, u32> =
        g.read_neighbors(&pin, &[0]).entries(0).collect();
    for k in 65..=128 {
        assert_eq!(weights.get(&k), Some(&value(k, ROUNDS)));
    }
    for round in 1..=ROUNDS {
        for k in fresh(round) {
            assert_eq!(weights.get(&k), Some(&value(k, round)));
        }
    }
    drop(pin);
    assert_eq!(g.device().sanitizer_findings(), vec![]);
    g.validate().expect("racing map writes leave a valid chain");
}

/// Run tiles racing an insert batch, on the threaded executor: a pinned
/// reader asks 512 probes of vertex 0's single multi-slab bucket in one
/// call (two 256-probe run tiles, so every slab is matched by broadcast)
/// while insert batches grow that chain. Every old key is always found,
/// no key outside the inserted ones ever is, and the sanitizer reports
/// nothing.
#[test]
fn run_tiles_racing_an_insert_batch_are_sanitizer_clean_threaded() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dev = Device::with_config(
        DeviceConfig::new(1 << 19)
            .with_sanitizer(SanitizerConfig::default())
            .with_exec_policy(ExecPolicy::Threaded(4)),
    );
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_set(4096));
    let old: Vec<Edge> = (1..=100).map(|v| Edge::new(0, v)).collect();
    g.insert_edges(&old);
    assert!(
        g.stats(&g.pin_read()).tables.max_chain > 3,
        "vertex 0's single bucket spans several slabs"
    );
    // Old keys, keys the batches insert, and keys nobody inserts.
    let probes: Vec<(u32, u32)> = (1..=100)
        .chain(1000..1312)
        .chain(3000..3100)
        .map(|k| (0, k))
        .collect();
    assert_eq!(probes.len(), 512);
    let (stop, ready) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut calls = 0u32;
            while !stop.load(Ordering::Acquire) {
                let pin = g.pin_read();
                let hits = g.edges_exist(&pin, &probes);
                for (&(_, k), &hit) in probes.iter().zip(&hits) {
                    assert!(hit || k > 100, "old key {k} went missing");
                    assert!(!hit || k < 3000, "key {k} was never inserted");
                }
                calls += 1;
                ready.store(true, Ordering::Release);
            }
            calls
        });
        while !ready.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for batch in (1000..1312).collect::<Vec<u32>>().chunks(104) {
            let edges: Vec<Edge> = batch.iter().map(|&k| Edge::new(0, k)).collect();
            g.insert_edges(&edges);
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
    });
    assert_eq!(g.degree(0), 412);
    let pin = g.pin_read();
    let hits = g.edges_exist(&pin, &probes);
    assert!(probes
        .iter()
        .zip(&hits)
        .all(|(&(_, k), &hit)| hit == (k < 3000)));
    drop(pin);
    assert_eq!(g.device().sanitizer_findings(), vec![]);
    g.validate()
        .expect("inserts racing run tiles leave a valid chain");
}

/// Delete batches revoking clean certificates beside pinned readers, on
/// the threaded executor: a flush certifies every table, then a reader
/// probes edges no batch deletes (and pairs never inserted) while
/// delete batches tombstone keys in every table, each group's first
/// delete clearing its table's certificate with one `atomicAnd` next to
/// the readers' plain descriptor reads. The sanitizer reports nothing,
/// the certificates are gone from every table a batch touched, and the
/// next flush removes every tombstone.
#[test]
fn delete_batches_revoking_certificates_beside_pinned_readers_are_clean_threaded() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dev = Device::with_config(
        DeviceConfig::new(1 << 19)
            .with_sanitizer(SanitizerConfig::default())
            .with_exec_policy(ExecPolicy::Threaded(4)),
    );
    let n = 96u32;
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_set(n));
    // Vertex u points at the 40 vertices after it: keys 1..=20 after u
    // stay, keys 21..=40 after u are deleted, four per batch.
    let edge = |u: u32, i: u32| Edge::new(u, (u + i) % n);
    let all: Vec<Edge> = (0..n)
        .flat_map(|u| (1..=40).map(move |i| edge(u, i)))
        .collect();
    g.insert_edges(&all);
    assert_eq!(g.flush_tombstones(), 0);
    assert!((0..n).all(|v| g.dict().certified_host(g.device(), v)));
    let probes: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), (u, (u + 20) % n), (u, (u + 41) % n)])
        .collect();
    let (stop, ready) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut calls = 0u32;
            while !stop.load(Ordering::Acquire) {
                let pin = g.pin_read();
                let hits = g.edges_exist(&pin, &probes);
                for (&(u, v), &hit) in probes.iter().zip(&hits) {
                    assert_eq!(hit, (v + n - u) % n <= 20, "probe {u} -> {v}");
                }
                calls += 1;
                ready.store(true, Ordering::Release);
            }
            calls
        });
        while !ready.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for batch in 0..5u32 {
            let del: Vec<Edge> = (0..n)
                .flat_map(|u| (21 + 4 * batch..25 + 4 * batch).map(move |i| edge(u, i)))
                .collect();
            assert_eq!(g.delete_edges(&del), u64::from(4 * n));
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
    });
    assert_eq!(g.device().sanitizer_findings(), vec![]);
    assert!((0..n).all(|v| !g.dict().certified_host(g.device(), v)));
    g.validate().expect("revoked tables validate");
    assert_eq!(g.flush_tombstones(), u64::from(20 * n));
    assert_eq!(g.stats(&g.pin_read()).tables.tombstones, 0);
    g.validate().expect("the flush leaves no tombstone");
}

/// A known deviation, pinned: `flush_tombstones` rewrites a tombstoned
/// chain in place, so a pinned reader paused mid-walk races the rewrite
/// (ROADMAP item 1). The reader reads the chain's first slab, waits while
/// another host thread flushes, then follows the link it read. Racecheck
/// compares the overlapping launches and names the flush. Item 1's
/// copy-and-publish rebuild inverts this test: the reader then walks the
/// old chain the rebuild leaves untouched, and the findings are empty.
#[test]
fn flush_under_a_paused_pinned_reader_races_known_deviation() {
    let dev = sanitized_device(1 << 18);
    let g = DynGraph::on_device(std::sync::Arc::new(dev), GraphConfig::directed_set(64));
    let edges: Vec<Edge> = (1..=120).map(|v| Edge::new(0, v)).collect();
    g.insert_edges(&edges);
    g.delete_edges(&edges.iter().copied().step_by(2).collect::<Vec<_>>());
    let desc = g
        .dict()
        .desc_host(g.device(), 0)
        .expect("vertex 0 has a table");
    assert_eq!(desc.num_buckets, 1);
    let (paused, flushed) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            let _pin = g.pin_read();
            g.device().launch_warps("pinned_reader", 1, |warp| {
                let mut slab = desc.base;
                let mut slabs = 0;
                while slab != gpu_sim::NULL_ADDR {
                    let words = warp.read_slab(slab);
                    slabs += 1;
                    if slabs == 1 {
                        paused.wait();
                        flushed.wait();
                    }
                    slab = words.get(slab_hash::NEXT_LANE);
                }
                assert!(slabs > 1, "the walk crosses the rewritten chain");
            });
        });
        paused.wait();
        assert_eq!(g.flush_tombstones(), 60);
        flushed.wait();
    });
    let f = g.device().sanitizer_findings();
    assert!(
        f.iter().any(|x| matches!(
            x.kind,
            FindingKind::RaceReadWrite | FindingKind::RaceWriteWrite
        ) && [&x.kernel, &x.other_kernel]
            .contains(&&"flush_tombstones".to_string())),
        "{f:?}"
    );
}

/// The sanitizer charges nothing: an identical allocator-heavy workload
/// run with and without an attached sanitizer produces byte-identical
/// global and per-kernel counters.
#[test]
fn attached_sanitizer_never_perturbs_counters() {
    let run = |sanitize: bool| {
        let mut cfg = DeviceConfig::new(1 << 16);
        if sanitize {
            cfg = cfg.with_sanitizer(SanitizerConfig::default());
        }
        let dev = Device::with_config(cfg);
        let alloc = SlabAllocator::new(&dev, 256);
        let slabs = std::sync::Mutex::new(Vec::new());
        dev.launch_tasks("mix", 64, |warp| {
            let a = alloc.allocate(warp);
            let lanes = warp.read_slab(a);
            warp.write_slab(a, &lanes);
            warp.atomic_add(a, 1);
            slabs.lock().unwrap().push(a);
        });
        let frees: Vec<Addr> = slabs.into_inner().unwrap();
        dev.launch_warps("reclaim", 1, |warp| {
            for &a in &frees {
                alloc.free(warp, a).unwrap();
            }
        });
        dev.trace()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.global, off.global);
    assert_eq!(on.kernels.len(), off.kernels.len());
    for (a, b) in on.kernels.iter().zip(off.kernels.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.counters, b.counters);
    }
}
