//! Concurrent readers vs writers over the epoch-pinned read path
//! (DESIGN.md §17): property tests that every snapshot a pinned reader
//! observes while mutation batches land is *prefix-consistent* — equal to
//! the graph state after some prefix of the writer's operation sequence,
//! whether read one probe at a time or in one run-tile walk —
//! plus negative fixtures proving the sanitizer catches a quarantined-slab
//! read that is not covered by a live [`ReadGuard`].
//!
//! The prefix argument rides on probe ordering: each writer batch is a
//! single operation, so operation visibility times are strictly ordered,
//! and a reader that probes the operation sequence in *reverse* order can
//! only observe downward-closed result sets. Any observed snapshot that is
//! not a prefix state is therefore a genuine snapshot violation, not an
//! artifact of non-atomic multi-probe reads.

use dynamic_graphs_gpu::gpu_sim::{Device, DeviceConfig, FindingKind, SanitizerConfig};
use dynamic_graphs_gpu::graph_gen::splitmix64;
use dynamic_graphs_gpu::prelude::*;
use dynamic_graphs_gpu::slab_alloc::SlabAllocator;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

const READERS: usize = 3;
const EDGES: usize = 96;

fn graph(n: u32) -> DynGraph {
    let mut c = GraphConfig::directed_map(n);
    c.device_words = 1 << 20;
    c.pool_slabs = 1 << 12;
    DynGraph::new(c)
}

/// A seeded sequence of `EDGES` distinct directed edges.
fn edge_sequence(seed: u64) -> Vec<Edge> {
    let mut rng = seed;
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::with_capacity(EDGES);
    while edges.len() < EDGES {
        let x = splitmix64(&mut rng);
        let (src, dst) = ((x % 251) as u32, ((x >> 32) % 251) as u32);
        if src != dst && seen.insert((src, dst)) {
            edges.push(Edge::weighted(src, dst, 1 + (x % 100) as u32));
        }
    }
    edges
}

/// Probe the operation sequence in reverse order under one pin and return
/// the results in sequence order. See the module doc for why reverse
/// probing makes prefix violations observable.
fn snapshot(g: &DynGraph, pin: &ReadGuard, edges: &[Edge]) -> Vec<bool> {
    let mut obs: Vec<bool> = edges
        .iter()
        .rev()
        .map(|e| g.edge_exists(pin, e.src, e.dst))
        .collect();
    obs.reverse();
    obs
}

/// Writer inserts one edge per batch, in sequence order; concurrent
/// pinned readers may only ever observe `{e_0 .. e_m}` for some `m` —
/// a `true` at index `j` forces `true` at every `i < j`.
#[test]
fn concurrent_inserts_observe_only_prefix_states() {
    for seed in [3u64, 17, 91] {
        let edges = edge_sequence(seed);
        let g = graph(256);
        let stop = AtomicBool::new(false);
        let ready = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (g, stop, ready, edges) = (&g, &stop, &ready, &edges);
            let handles: Vec<_> = (0..READERS)
                .map(|r| {
                    s.spawn(move || {
                        let mut snaps = 0u64;
                        loop {
                            let pin = g.pin_read();
                            let obs = snapshot(g, &pin, edges);
                            let head = obs.iter().position(|&b| !b).unwrap_or(obs.len());
                            assert!(
                                obs[head..].iter().all(|&b| !b),
                                "seed {seed} reader {r}: snapshot is not a prefix of the \
                                 insertion order: {obs:?}"
                            );
                            snaps += 1;
                            if snaps == 1 {
                                ready.fetch_add(1, Ordering::Release);
                            }
                            // Checked *after* the probe so every reader
                            // completes at least one snapshot however the
                            // threads are scheduled.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        snaps
                    })
                })
                .collect();
            // Gate the writer on every reader's first completed snapshot:
            // inserts then genuinely interleave with live readers instead
            // of racing them, and the snapshot count below cannot be zero.
            while ready.load(Ordering::Acquire) < READERS {
                std::thread::yield_now();
            }
            for e in edges {
                g.insert_edges(std::slice::from_ref(e));
            }
            stop.store(true, Ordering::Release);
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(
                total >= READERS as u64,
                "every reader must observe at least one snapshot"
            );
        });
        // Quiescent end state: the full sequence, a valid structure, and a
        // clean sanitizer (escalating under `--features sanitize`).
        let pin = g.pin_read();
        assert!(edges.iter().all(|e| g.edge_exists(&pin, e.src, e.dst)));
        drop(pin);
        g.validate().unwrap();
        assert_eq!(g.device().sanitizer_findings(), vec![]);
    }
}

/// The mirror property for deletion: the writer deletes one edge per
/// batch in sequence order, so a reader may only observe `false` on a
/// prefix of the deletion order — reclamation (the part a stale snapshot
/// could trip over) is held back by the reader's pinned era.
#[test]
fn concurrent_deletes_observe_only_prefix_states() {
    for seed in [5u64, 23, 77] {
        let edges = edge_sequence(seed);
        let g = graph(256);
        g.insert_edges(&edges);
        let stop = AtomicBool::new(false);
        let ready = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (g, stop, ready, edges) = (&g, &stop, &ready, &edges);
            let handles: Vec<_> = (0..READERS)
                .map(|r| {
                    s.spawn(move || {
                        let mut snaps = 0u64;
                        loop {
                            let pin = g.pin_read();
                            let obs = snapshot(g, &pin, edges);
                            let head = obs.iter().position(|&b| b).unwrap_or(obs.len());
                            assert!(
                                obs[head..].iter().all(|&b| b),
                                "seed {seed} reader {r}: snapshot is not a prefix of the \
                                 deletion order: {obs:?}"
                            );
                            snaps += 1;
                            if snaps == 1 {
                                ready.fetch_add(1, Ordering::Release);
                            }
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    })
                })
                .collect();
            // As in the insert test: wait for live readers before deleting
            // so reclamation runs under real concurrent pins.
            while ready.load(Ordering::Acquire) < READERS {
                std::thread::yield_now();
            }
            for e in edges {
                g.delete_edges(std::slice::from_ref(e));
            }
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
        });
        let pin = g.pin_read();
        assert!(edges.iter().all(|e| !g.edge_exists(&pin, e.src, e.dst)));
        drop(pin);
        g.validate().unwrap();
        assert_eq!(g.device().sanitizer_findings(), vec![]);
    }
}

/// The run-shaped case: the writer inserts `(HUB, d_i)` one edge per
/// batch, and each pinned reader asks for all of the hub's 250 edges in
/// one `edges_exist` call. One source and at most 256 pairs make one run
/// tile, so each answer is one walk of the hub's chain (a lazily built
/// table has one bucket) racing the inserts. Inserts fill the chain's
/// slots in insertion order, and the walk reads them in slot order and
/// stops at the first EMPTY one, so each answer must be a prefix of the
/// insertion order; a slab copy torn by a claim would break that, and
/// the walk re-reads it.
#[test]
fn run_tile_reads_racing_inserts_observe_only_prefix_states() {
    const HUB: u32 = 7;
    for seed in [2u64, 29] {
        let mut rng = seed;
        let mut dsts: Vec<u32> = (0..251).filter(|&d| d != HUB).collect();
        for i in (1..dsts.len()).rev() {
            dsts.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
        }
        let probes: Vec<(u32, u32)> = dsts.iter().map(|&d| (HUB, d)).collect();
        let g = graph(256);
        let stop = AtomicBool::new(false);
        let ready = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (g, stop, ready, probes) = (&g, &stop, &ready, &probes);
            let handles: Vec<_> = (0..READERS)
                .map(|r| {
                    s.spawn(move || {
                        let mut snaps = 0u64;
                        loop {
                            let pin = g.pin_read();
                            let obs = g.edges_exist(&pin, probes);
                            let head = obs.iter().position(|&b| !b).unwrap_or(obs.len());
                            assert!(
                                obs[head..].iter().all(|&b| !b),
                                "seed {seed} reader {r}: tile answer is not a prefix of the \
                                 insertion order: {obs:?}"
                            );
                            snaps += 1;
                            if snaps == 1 {
                                ready.fetch_add(1, Ordering::Release);
                            }
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        snaps
                    })
                })
                .collect();
            while ready.load(Ordering::Acquire) < READERS {
                std::thread::yield_now();
            }
            for &(u, v) in probes {
                g.insert_edges(&[Edge::weighted(u, v, v + 1)]);
            }
            stop.store(true, Ordering::Release);
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total >= READERS as u64);
        });
        let pin = g.pin_read();
        assert!(g.edges_exist(&pin, &probes).into_iter().all(|b| b));
        assert!(
            g.stats(&pin).tables.max_chain > 8,
            "the hub's chain is long"
        );
        drop(pin);
        g.validate().unwrap();
        assert_eq!(g.device().sanitizer_findings(), vec![]);
    }
}

/// Full mixed churn under concurrent pinned readers running the whole
/// read surface (membership, batched adjacency reads, stats): must stay
/// sanitizer-clean and structurally valid. Each adjacency batch holds
/// nine sources in arbitrary order, so its warps read dictionary lines
/// that insert batches are installing tables in. Deleting and reinserting the
/// same edges drives slabs through quarantine while reader pins are live,
/// which is exactly the window epoch-based reclamation protects.
#[test]
fn mixed_churn_with_pinned_readers_is_clean_and_valid() {
    let edges = edge_sequence(41);
    let g = graph(256);
    g.insert_edges(&edges);
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (g, stop, ready, edges) = (&g, &stop, &ready, &edges);
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                s.spawn(move || {
                    let mut rng = 1000 + r as u64;
                    let mut probes = 0u64;
                    loop {
                        let pin = g.pin_read();
                        let e = &edges[(splitmix64(&mut rng) as usize) % edges.len()];
                        let _ = g.edge_exists(&pin, e.src, e.dst);
                        let mut srcs = vec![e.src];
                        srcs.extend((0..8).map(|_| (splitmix64(&mut rng) % 256) as u32));
                        let adj = g.read_neighbors(&pin, &srcs);
                        assert_eq!(adj.lists().len(), srcs.len());
                        let _ = g.stats(&pin);
                        probes += 1;
                        if probes == 1 {
                            ready.fetch_add(1, Ordering::Release);
                        }
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                })
            })
            .collect();
        // Churn only once every reader is live, so slabs pass through
        // quarantine under genuinely concurrent pins.
        while ready.load(Ordering::Acquire) < READERS {
            std::thread::yield_now();
        }
        for round in 0..6 {
            let (a, b) = edges.split_at(edges.len() / 2);
            let (del, ins) = if round % 2 == 0 { (a, b) } else { (b, a) };
            g.delete_edges(del);
            g.insert_edges(del);
            g.delete_edges(ins);
            g.insert_edges(ins);
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    });
    g.validate().unwrap();
    assert_eq!(g.device().sanitizer_findings(), vec![]);
}

fn sanitized_device(words: usize) -> Device {
    Device::with_config(DeviceConfig::new(words).with_sanitizer(SanitizerConfig::default()))
}

/// Negative fixture: a quarantined slab read with *no* live `ReadGuard`
/// must be flagged as an unpinned read, with the reader's kernel and the
/// allocation/free provenance attached. This is the runtime counterpart
/// of `slabgraph`'s read door, which will not launch without a guard.
#[test]
fn unpinned_quarantined_read_is_flagged() {
    let dev = sanitized_device(1 << 16);
    let alloc = SlabAllocator::new(&dev, 64);
    let slab = Mutex::new(0u32);
    dev.launch_warps("alloc_kernel", 1, |warp| {
        *slab.lock().unwrap() = alloc.allocate(warp);
    });
    let a = *slab.lock().unwrap();
    dev.launch_warps("free_kernel", 1, |warp| {
        alloc.free(warp, a).unwrap();
    });
    assert_eq!(alloc.quarantined_slabs(), 1, "slab must sit in quarantine");
    // No pin is live: the quarantined slab has no covering era.
    dev.launch_warps("unpinned_reader", 1, |warp| {
        let _ = warp.read_slab(a);
    });
    let f = dev.sanitizer_findings();
    let uaf: Vec<_> = f
        .iter()
        .filter(|x| x.kind == FindingKind::UseAfterFree)
        .collect();
    assert!(!uaf.is_empty(), "unpinned read must be flagged: {f:?}");
    assert_eq!(uaf[0].kernel, "unpinned_reader");
    assert!(
        uaf[0].note.contains("unpinned read"),
        "finding must name the protocol violation: {}",
        uaf[0].note
    );
    assert!(uaf[0].note.contains("free_kernel"), "{}", uaf[0].note);
}

/// Positive contrast for the fixture above: the same quarantined read is
/// *certified* while a `ReadGuard` pinned before the free is live, and
/// flagged again the moment the guard drops (the epoch certificate is
/// withdrawn, and with it the reclamation guarantee).
#[test]
fn pinned_quarantined_read_is_certified_until_unpin() {
    let dev = sanitized_device(1 << 16);
    let alloc = SlabAllocator::new(&dev, 64);
    let slab = Mutex::new(0u32);
    dev.launch_warps("alloc_kernel", 1, |warp| {
        *slab.lock().unwrap() = alloc.allocate(warp);
    });
    let a = *slab.lock().unwrap();
    let pin = alloc.pin(&dev);
    dev.launch_warps("free_kernel", 1, |warp| {
        alloc.free(warp, a).unwrap();
    });
    dev.launch_warps("pinned_reader", 1, |warp| {
        let _ = warp.read_slab(a);
    });
    assert_eq!(
        dev.sanitizer_findings(),
        vec![],
        "a pin predating the free certifies the quarantined read"
    );
    drop(pin);
    dev.launch_warps("late_reader", 1, |warp| {
        let _ = warp.read_slab(a);
    });
    let f = dev.sanitizer_findings();
    assert!(
        f.iter()
            .any(|x| x.kind == FindingKind::UseAfterFree && x.note.contains("unpinned read")),
        "dropping the guard must withdraw the certificate: {f:?}"
    );
}
