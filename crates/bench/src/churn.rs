//! Churn workload: a seeded, mixed insert/delete/query stream driven
//! through the [`GraphBackend`](backend::GraphBackend) trait against
//! every registered structure.
//!
//! The paper's update tables measure inserts and deletes in isolation; a
//! dynamic-graph deployment interleaves them with queries. This runner
//! replays one deterministic operation stream — identical for every
//! backend — and reports per-class throughput plus a per-kernel breakdown
//! of where each structure spends its modeled time. Backends whose
//! [`Capabilities`](backend::Capabilities) cannot run the stream (static
//! CSR) are skipped via their capability flags rather than special-cased.

use crate::harness::{
    build_backends, build_slab, fnum, mrate, scale_shift, stream_for, with_default_profiler, Phase,
    Table,
};
use gpu_sim::ProfilerConfig;
use graph_gen::{insert_batch, splitmix64};

/// Key distribution of generated traffic — how update endpoints are drawn
/// from the vertex space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Skew {
    /// Endpoints uniform over the vertex range (the paper's rMAT-free
    /// batches): edges cut shards with probability (N-1)/N but load stays
    /// balanced.
    #[default]
    Uniform,
    /// Power-law endpoints (a cubed uniform sample): a hot head of the id
    /// space absorbs most traffic, as in social-network streams.
    Skewed,
    /// Worst case for a hash-partitioned graph: every src is owned by
    /// shard 0, so routing cannot spread the primary-copy work at all.
    Adversarial,
}

impl std::str::FromStr for Skew {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(Skew::Uniform),
            "skewed" => Ok(Skew::Skewed),
            "adversarial" => Ok(Skew::Adversarial),
            other => Err(format!(
                "unknown skew {other:?}; known: uniform skewed adversarial"
            )),
        }
    }
}

impl std::fmt::Display for Skew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Skew::Uniform => "uniform",
            Skew::Skewed => "skewed",
            Skew::Adversarial => "adversarial",
        })
    }
}

/// Parameters of a churn run. Percentages are of `ops_per_round`; the
/// remainder after inserts and deletes are membership queries.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Table I dataset name providing the initial graph.
    pub dataset: String,
    /// Number of mixed rounds to replay.
    pub rounds: usize,
    /// Operations per round (scaled by `BENCH_SCALE_SHIFT`).
    pub ops_per_round: usize,
    /// Percent of each round that inserts new random edges.
    pub insert_pct: u32,
    /// Percent of each round that deletes previously-live edges.
    pub delete_pct: u32,
    /// Stream seed: same seed, same stream, every backend.
    pub seed: u64,
    /// Override the dataset's default vertex scale. The sanitized CI
    /// smoke uses this: shadow-memory tracking multiplies the cost of
    /// every word access, so it runs a small instance of the same
    /// stream rather than the full benchmark scale.
    pub scale: Option<u32>,
    /// Shard count for the `ShardedSlabGraph` contender and the sharded
    /// scaling section (`--shards`).
    pub shards: usize,
    /// Concurrent client sessions feeding the batch router (`--sessions`).
    pub sessions: usize,
    /// Key distribution of the multi-tenant traffic generator (`--skew`).
    pub skew: Skew,
    /// Concurrent pinned-reader threads racing the writer in the mixed
    /// readers-vs-writers scenario (`--readers`).
    pub readers: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            dataset: "rgg_n_2_20_s0".into(),
            rounds: 4,
            ops_per_round: 2048,
            insert_pct: 50,
            delete_pct: 30,
            seed: 71,
            scale: None,
            shards: 1,
            sessions: 1,
            skew: Skew::Uniform,
            readers: 2,
        }
    }
}

/// One precomputed round of the stream. Public so external replays (the
/// `profile` bin) can drive the identical operation sequence.
pub struct Round {
    pub ins: Vec<(u32, u32)>,
    pub del: Vec<(u32, u32)>,
    pub qry: Vec<(u32, u32)>,
}

/// Build the operation stream host-side, independent of any backend:
/// deletes and half the queries sample edges inserted in earlier rounds,
/// so every backend sees the identical sequence regardless of its own
/// state.
pub(crate) fn make_stream(ds: &graph_gen::Dataset, cfg: &ChurnConfig) -> Vec<Round> {
    let ops = cfg.ops_per_round << scale_shift();
    let n_ins = ops * cfg.insert_pct as usize / 100;
    let n_del = ops * cfg.delete_pct as usize / 100;
    let n_qry = ops - n_ins - n_del;
    let mut live: Vec<(u32, u32)> = ds.edges.clone();
    let mut rng = cfg.seed;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for r in 0..cfg.rounds as u64 {
        let ins = insert_batch(ds.n_vertices, n_ins, cfg.seed + 10 * r);
        let del: Vec<(u32, u32)> = (0..n_del)
            .map(|_| live[(splitmix64(&mut rng) % live.len() as u64) as usize])
            .collect();
        let random_qry = insert_batch(ds.n_vertices, n_qry, cfg.seed + 10 * r + 5);
        let qry: Vec<(u32, u32)> = random_qry
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i % 2 == 0 {
                    live[(splitmix64(&mut rng) % live.len() as u64) as usize]
                } else {
                    p
                }
            })
            .collect();
        live.extend_from_slice(&ins);
        rounds.push(Round { ins, del, qry });
    }
    rounds
}

/// Run the churn stream over every registered backend and tabulate
/// per-class throughput with per-kernel breakdowns.
pub fn churn(cfg: &ChurnConfig) -> Table {
    let (ds, stream) = stream_for(cfg);

    let mut t = Table::new(
        "churn",
        "Churn stream: mixed insert/delete/query throughput per structure",
        &[
            "structure",
            "shards",
            "inserts MEdge/s",
            "deletes MEdge/s",
            "queries Mq/s",
            "total modeled ms",
            "query hits",
        ],
    );

    let backends = build_backends(&ds, cfg.shards.max(1));

    let mut hit_counts: Vec<u64> = vec![];
    for mut g in backends {
        let caps = g.caps();
        if !(caps.insert_edges && caps.delete_edges) {
            t.note(format!(
                "{} skipped: capabilities do not cover the churn stream",
                g.name()
            ));
            continue;
        }
        let name = g.name();
        // Each row carries its own device/shard count: one for the classic
        // single-device structures, N for `ShardedSlabGraph`.
        let n_shards = g.devices().len();
        let stream_phase = Phase::begin(&g.devices());
        let (mut ins_s, mut del_s, mut qry_s) = (0.0f64, 0.0f64, 0.0f64);
        let (mut n_ins, mut n_del, mut n_qry, mut hits) = (0u64, 0u64, 0u64, 0u64);
        for (r, round) in stream.iter().enumerate() {
            let phase = Phase::begin(&g.devices());
            g.insert_edges(&round.ins);
            ins_s += t
                .end(format!("{name} r{r} inserts"), phase, &g.devices())
                .modeled_s;
            n_ins += round.ins.len() as u64;

            let phase = Phase::begin(&g.devices());
            g.delete_edges(&round.del);
            del_s += t
                .end(format!("{name} r{r} deletes"), phase, &g.devices())
                .modeled_s;
            n_del += round.del.len() as u64;

            let phase = Phase::begin(&g.devices());
            let found = g.edges_exist(&g.pin_read(), &round.qry);
            qry_s += t
                .end(format!("{name} r{r} queries"), phase, &g.devices())
                .modeled_s;
            n_qry += round.qry.len() as u64;
            hits += found.iter().filter(|&&b| b).count() as u64;
        }
        // One deterministic per-kernel report for the stream, merged over
        // every device the backend spans (one for the classic structures,
        // one per shard for `ShardedSlabGraph`). The attribution invariant
        // must survive the merge: named kernels sum to the global delta.
        let stream_m = stream_phase.end(&g.devices());
        let report = stream_m.report();
        assert_eq!(
            report.kernel_sum(),
            stream_m.trace.global,
            "{name}: churn per-kernel counters must sum to the stream's delta"
        );
        // Under `--features sanitize` every backend device carries the
        // shadow-memory checker; a churn stream must finish clean on every
        // shard (the escalation hook would also have aborted mid-launch).
        for dev in g.devices() {
            let findings = dev.sanitizer_findings();
            assert!(
                findings.is_empty(),
                "{name}: churn must be sanitizer-clean, got {findings:?}"
            );
        }
        hit_counts.push(hits);
        t.row(vec![
            name.into(),
            n_shards.to_string(),
            fnum(mrate(n_ins, ins_s)),
            fnum(mrate(n_del, del_s)),
            fnum(mrate(n_qry, qry_s)),
            fnum((ins_s + del_s + qry_s) * 1e3),
            hits.to_string(),
        ]);
        t.breakdown(format!("churn, {name}"), report);
    }
    assert!(
        hit_counts.windows(2).all(|w| w[0] == w[1]),
        "backends disagree on query results: {hit_counts:?}"
    );
    t.note(format!(
        "dataset {} | {} rounds x {} ops ({}% insert / {}% delete / {}% query), seed {}",
        cfg.dataset,
        cfg.rounds,
        cfg.ops_per_round << scale_shift(),
        cfg.insert_pct,
        cfg.delete_pct,
        100 - cfg.insert_pct - cfg.delete_pct,
        cfg.seed
    ));
    t.note(
        "modeled time per step is the max over each row's devices (shards dispatch concurrently)",
    );
    t
}

/// Default-parameter churn run, for `run_all` and smoke tests.
pub fn churn_default() -> Table {
    churn(&ChurnConfig::default())
}

/// Mixed readers-vs-writers scenario: `cfg.readers` threads issue pinned
/// membership probes against one `DynGraph` while the main thread lands
/// the churn stream's insert/delete batches concurrently. Per-probe host
/// wall-clock latency flows through the device metrics registry
/// (`query.latency_us`), and the table reports the bucketed p50/p95/p99
/// tail alongside the pin high-water mark.
///
/// Probes draw from a *stable* universe — edges present from the initial
/// build that no round deletes, and pairs no round ever inserts — so every
/// result is independent of where the writer happens to be. That makes the
/// correctness bar exact: the collected result vectors must be
/// byte-identical to a phase-separated oracle that first lands the whole
/// stream, then replays the identical probe sequences quiescently. The run
/// must also finish sanitizer-clean on both devices (under
/// `--features sanitize` the shadow checker watches every slab word the
/// pinned walks touch while the writer publishes and retires slabs).
pub fn readers_vs_writers(cfg: &ChurnConfig) -> Table {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let readers = cfg.readers.max(1);
    let (ds, stream) = stream_for(cfg);

    // Stable probe universe: membership the stream never disturbs.
    let deleted: HashSet<(u32, u32)> = stream.iter().flat_map(|r| r.del.iter().copied()).collect();
    let ever_inserted: HashSet<(u32, u32)> = ds
        .edges
        .iter()
        .copied()
        .chain(stream.iter().flat_map(|r| r.ins.iter().copied()))
        .collect();
    let present: Vec<(u32, u32)> = ds
        .edges
        .iter()
        .copied()
        .filter(|e| !deleted.contains(e))
        .take(1024)
        .collect();
    let absent: Vec<(u32, u32)> = insert_batch(ds.n_vertices, 4096, cfg.seed ^ 0x5eed)
        .into_iter()
        .filter(|p| !ever_inserted.contains(p) && p.0 != p.1)
        .take(1024)
        .collect();
    assert!(
        !present.is_empty() && !absent.is_empty(),
        "stable probe pools must be non-empty (dataset too small or stream deletes everything)"
    );

    // The scenario needs the metrics registry, which rides on the device
    // profiler; attach one for the graphs built here without disturbing
    // the process default the other runners see.
    let g = with_default_profiler(Some(ProfilerConfig::default()), || build_slab(&ds));
    let prof = g
        .device()
        .profiler()
        .expect("profiler attached at build")
        .clone();

    // Each reader's probe sequence is a pure function of (seed, reader
    // index), so the oracle can replay it exactly. Readers re-pin every
    // PIN_BATCH probes: eras advance under them, which is what forces the
    // allocator's coverage rule (no recycle while a reader era is pinned)
    // to actually carry the run.
    const PIN_BATCH: usize = 64;
    // Mutations go through the same pair→Edge conversion the backend
    // trait applies, so graph and oracle land byte-identical batches.
    let to_edges = |pairs: &[(u32, u32)]| -> Vec<slabgraph::Edge> {
        pairs.iter().map(|&p| slabgraph::Edge::from(p)).collect()
    };
    let probe_at = |rng: &mut u64| -> (u32, u32) {
        let x = splitmix64(rng);
        if x & 1 == 0 {
            present[(x >> 1) as usize % present.len()]
        } else {
            absent[(x >> 1) as usize % absent.len()]
        }
    };
    let quota = cfg.ops_per_round << scale_shift();
    let stop = AtomicBool::new(false);
    let observed: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers as u64)
            .map(|r| {
                let (g, stop, prof) = (&g, &stop, &prof);
                let probe_at = &probe_at;
                s.spawn(move || {
                    let hist = prof.metrics().histogram("query.latency_us");
                    let mut rng = cfg.seed ^ (0x9e3779b9 + r);
                    let mut out = Vec::with_capacity(quota);
                    // Run at least the quota, and keep the pressure on
                    // until the writer has landed its final batch.
                    while out.len() < quota || !stop.load(Ordering::Acquire) {
                        let pin = g.pin_read();
                        for _ in 0..PIN_BATCH {
                            let (u, v) = probe_at(&mut rng);
                            let t0 = Instant::now();
                            let hit = g.edge_exists(&pin, u, v);
                            hist.record(t0.elapsed().as_micros() as u64);
                            out.push(hit);
                        }
                    }
                    out
                })
            })
            .collect();
        // The writer: the stream's mutation batches, back to back, racing
        // the pinned readers the whole way.
        for round in &stream {
            g.insert_edges(&to_edges(&round.ins));
            g.delete_edges(&to_edges(&round.del));
        }
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Phase-separated oracle: identical build, whole stream landed with no
    // reader in flight, then the identical probe sequences replayed
    // against the quiescent graph.
    let oracle = with_default_profiler(None, || build_slab(&ds));
    for round in &stream {
        oracle.insert_edges(&to_edges(&round.ins));
        oracle.delete_edges(&to_edges(&round.del));
    }
    let pin = oracle.pin_read();
    for (r, obs) in observed.iter().enumerate() {
        let mut rng = cfg.seed ^ (0x9e3779b9 + r as u64);
        let expect: Vec<bool> = (0..obs.len())
            .map(|_| {
                let (u, v) = probe_at(&mut rng);
                oracle.edge_exists(&pin, u, v)
            })
            .collect();
        assert_eq!(
            obs, &expect,
            "reader {r}: concurrent results must be byte-identical to the phase-separated oracle"
        );
    }
    for dev in [g.device(), oracle.device()] {
        let findings = dev.sanitizer_findings();
        assert!(
            findings.is_empty(),
            "readers-vs-writers must be sanitizer-clean, got {findings:?}"
        );
    }

    let snap = prof.metrics().histogram("query.latency_us").snapshot();
    let n_queries: usize = observed.iter().map(Vec::len).sum();
    assert_eq!(
        snap.count as usize, n_queries,
        "every probe must land one latency observation"
    );
    let mut t = Table::new(
        "readers_vs_writers",
        "Mixed readers vs writers: pinned query latency under concurrent mutation",
        &[
            "readers",
            "queries",
            "p50 us",
            "p95 us",
            "p99 us",
            "max us",
            "mean us",
            "writer batches",
        ],
    );
    t.row(vec![
        readers.to_string(),
        snap.count.to_string(),
        snap.quantile(0.50).to_string(),
        snap.quantile(0.95).to_string(),
        snap.quantile(0.99).to_string(),
        snap.max.to_string(),
        fnum(snap.sum as f64 / snap.count.max(1) as f64),
        (stream.len() * 2).to_string(),
    ]);
    t.note(format!(
        "{} reader thread(s) re-pin every {PIN_BATCH} probes while the writer lands {} insert/delete batches; \
         latency is host wall-clock per pinned membership probe (log2-bucketed, quantiles are bucket floors)",
        readers,
        stream.len() * 2
    ));
    t.note(
        "probes target stream-invariant membership; results asserted byte-identical to a \
         phase-separated oracle replay, both devices asserted sanitizer-clean",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_gen::catalog;

    #[test]
    fn stream_is_deterministic_and_sized() {
        let ds = catalog::dataset("luxembourg_osm").unwrap().generate(512, 3);
        let cfg = ChurnConfig {
            dataset: "luxembourg_osm".into(),
            rounds: 3,
            ops_per_round: 100,
            insert_pct: 40,
            delete_pct: 30,
            seed: 9,
            scale: None,
            ..ChurnConfig::default()
        };
        let a = make_stream(&ds, &cfg);
        let b = make_stream(&ds, &cfg);
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.ins, rb.ins);
            assert_eq!(ra.del, rb.del);
            assert_eq!(ra.qry, rb.qry);
            assert_eq!(ra.ins.len(), 40);
            assert_eq!(ra.del.len(), 30);
            assert_eq!(ra.qry.len(), 30);
        }
    }

    #[test]
    fn readers_vs_writers_smoke() {
        let cfg = ChurnConfig {
            dataset: "luxembourg_osm".into(),
            rounds: 3,
            ops_per_round: 256,
            insert_pct: 50,
            delete_pct: 25,
            seed: 17,
            scale: Some(512),
            readers: 3,
            ..ChurnConfig::default()
        };
        // The oracle byte-equality and sanitizer assertions live inside;
        // the table must report one row with every probe counted.
        let t = readers_vs_writers(&cfg);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "3");
        let queries: usize = t.rows[0][1].parse().unwrap();
        assert!(
            queries >= 3 * 256,
            "each reader must at least exhaust its probe quota, got {queries}"
        );
    }

    #[test]
    fn deletes_target_previously_live_edges() {
        let ds = catalog::dataset("luxembourg_osm").unwrap().generate(512, 3);
        let cfg = ChurnConfig {
            dataset: "luxembourg_osm".into(),
            rounds: 2,
            ops_per_round: 50,
            insert_pct: 60,
            delete_pct: 20,
            seed: 5,
            scale: None,
            ..ChurnConfig::default()
        };
        let stream = make_stream(&ds, &cfg);
        let mut live: std::collections::HashSet<(u32, u32)> = ds.edges.iter().copied().collect();
        for r in &stream {
            for d in &r.del {
                assert!(live.contains(d), "delete of never-inserted edge {d:?}");
            }
            live.extend(r.ins.iter().copied());
        }
    }
}
