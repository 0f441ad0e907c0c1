//! Multi-tenant sharded churn: a traffic generator simulating `M`
//! concurrent client sessions feeding the [`router::BatchRouter`], and a
//! scaling study replaying identical traffic at increasing shard counts.
//!
//! The single-structure churn runner ([`crate::churn`]) measures one
//! device; this module measures the *fleet*: per-flush modeled time is the
//! maximum over shards (they dispatch concurrently through the device
//! group's executor), so the headline metric is the makespan a perfectly
//! overlapped multi-GPU run would see. Per-shard rows expose the balance —
//! uniform traffic spreads, [`Skew::Adversarial`] traffic funnels every
//! primary copy through shard 0 and the makespan degrades accordingly.

use crate::churn::{ChurnConfig, Skew};
use crate::harness::{build_sharded, dataset_for, fnum, mrate, scale_shift, Phase, Table};
use backend::GraphBackend;
use gpu_sim::Device;
use graph_gen::splitmix64;
use router::{shard_of, BatchRouter, Update};
use slabgraph::Edge;

/// Draw one vertex id under the configured key distribution.
fn sample_vertex(rng: &mut u64, n_vertices: u32, skew: Skew, shards: usize) -> u32 {
    match skew {
        Skew::Uniform => (splitmix64(rng) % n_vertices as u64) as u32,
        Skew::Skewed => {
            // Cube a uniform sample: ~12.5% of the id space absorbs half
            // the traffic.
            let u = splitmix64(rng) as f64 / u64::MAX as f64;
            ((u * u * u * n_vertices as f64) as u32).min(n_vertices - 1)
        }
        Skew::Adversarial => {
            // Rejection-sample until shard 0 owns the id: the router has
            // no freedom left, every primary copy lands on one shard.
            loop {
                let v = (splitmix64(rng) % n_vertices as u64) as u32;
                if shard_of(v, shards) == 0 {
                    return v;
                }
            }
        }
    }
}

/// One round of multi-tenant traffic: per-session update lists (what each
/// client submits before the round's flush) plus a query batch.
pub struct TrafficRound {
    pub sessions: Vec<Vec<Update>>,
    pub qry: Vec<(u32, u32)>,
}

impl TrafficRound {
    /// Submit every session's updates to `router` from this thread,
    /// session-major in submission order, so op ids are minted
    /// deterministically (they appear in op traces and trace exports).
    pub fn submit(&self, router: &BatchRouter) {
        for (sid, updates) in self.sessions.iter().enumerate() {
            for &u in updates {
                router.submit(sid, u);
            }
        }
    }
}

/// Generate the seeded multi-tenant stream for `shards` shards: `rounds`
/// rounds of `sessions` clients, splitting the configured insert/delete
/// budget evenly across sessions. Deletes target previously-live edges;
/// insert endpoints follow `cfg.skew` (adversarial skew is defined
/// relative to `shards`).
pub fn traffic_for(cfg: &ChurnConfig, ds: &graph_gen::Dataset, shards: usize) -> Vec<TrafficRound> {
    let ops = cfg.ops_per_round << scale_shift();
    let n_ins = ops * cfg.insert_pct as usize / 100;
    let n_del = ops * cfg.delete_pct as usize / 100;
    let n_qry = ops - n_ins - n_del;
    let sessions = cfg.sessions.max(1);
    let mut live: Vec<(u32, u32)> = ds.edges.clone();
    let mut rng = cfg.seed ^ 0x5ba4_7c15;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        let mut session_updates: Vec<Vec<Update>> = vec![Vec::new(); sessions];
        let mut inserted: Vec<(u32, u32)> = Vec::with_capacity(n_ins);
        for i in 0..n_ins {
            let src = sample_vertex(&mut rng, ds.n_vertices, cfg.skew, shards);
            let mut dst = sample_vertex(&mut rng, ds.n_vertices, cfg.skew, shards);
            if dst == src {
                dst = (dst + 1) % ds.n_vertices;
            }
            inserted.push((src, dst));
            session_updates[i % sessions].push(Update::Insert(Edge::new(src, dst)));
        }
        for i in 0..n_del {
            let (u, v) = live[(splitmix64(&mut rng) % live.len() as u64) as usize];
            session_updates[i % sessions].push(Update::Delete(Edge::new(u, v)));
        }
        let qry: Vec<(u32, u32)> = (0..n_qry)
            .map(|i| {
                if i % 2 == 0 {
                    live[(splitmix64(&mut rng) % live.len() as u64) as usize]
                } else {
                    let u = sample_vertex(&mut rng, ds.n_vertices, cfg.skew, shards);
                    let v = sample_vertex(&mut rng, ds.n_vertices, cfg.skew, shards);
                    (u, v)
                }
            })
            .collect();
        live.extend_from_slice(&inserted);
        rounds.push(TrafficRound {
            sessions: session_updates,
            qry,
        });
    }
    rounds
}

/// What one shard-count replay measured.
struct ScalePoint {
    updates: u64,
    queries: u64,
    hits: u64,
    /// Sum over rounds of the flush makespan (max over shards per flush).
    update_s: f64,
    /// Sum over rounds of the query makespan.
    query_s: f64,
    /// Per-shard (ops routed, modeled seconds) over the whole run.
    per_shard: Vec<(u64, f64)>,
}

/// Replay the traffic at `shards` shards. Each flush is priced through a
/// phase over every shard device (recorded in `scaling`) and one per shard
/// device (recorded in `per_shard`); each query batch through one over
/// every shard device.
fn replay_at(
    cfg: &ChurnConfig,
    ds: &graph_gen::Dataset,
    shards: usize,
    scaling: &mut Table,
    per_shard: &mut Table,
) -> ScalePoint {
    let traffic = traffic_for(cfg, ds, shards);
    let g = build_sharded(ds, shards);
    let router = BatchRouter::new(&g);
    let devices: Vec<&Device> = g.group().devices().iter().map(|d| &**d).collect();
    let mut point = ScalePoint {
        updates: 0,
        queries: 0,
        hits: 0,
        update_s: 0.0,
        query_s: 0.0,
        per_shard: vec![(0, 0.0); shards],
    };
    for (r, round) in traffic.iter().enumerate() {
        // Sessions submit concurrently — arrival interleaving is racy on
        // purpose; the router's flush order is deterministic regardless.
        std::thread::scope(|sc| {
            for (sid, updates) in round.sessions.iter().enumerate() {
                let router = &router;
                sc.spawn(move || {
                    for &u in updates {
                        router.submit(sid, u);
                    }
                });
            }
        });
        let shard_phases: Vec<Phase> = devices.iter().map(|d| Phase::begin(&[d])).collect();
        let phase = Phase::begin(&devices);
        let report = router.flush();
        scaling.end(format!("{shards} shards r{r} flush"), phase, &devices);
        for (s, (phase, d)) in shard_phases.into_iter().zip(&devices).enumerate() {
            per_shard.end(format!("{shards} shards, shard {s} r{r}"), phase, &[d]);
        }
        assert!(
            report.is_complete(),
            "scaling replay must not hit the memory ceiling (shards {shards})"
        );
        point.updates += report.updates as u64;
        point.update_s += report.modeled_s();
        for so in &report.shards {
            let routed = so.insert.as_ref().map_or(0, |o| o.attempted as u64)
                + so.delete.as_ref().map_or(0, |o| o.attempted as u64);
            point.per_shard[so.shard].0 += routed;
            point.per_shard[so.shard].1 += so.modeled_s;
        }

        let phase = Phase::begin(&devices);
        let found = g.edges_exist(&g.pin_read(), &round.qry);
        let label = format!("{shards} shards r{r} queries");
        point.query_s += scaling.end(label, phase, &devices).modeled_s;
        point.queries += round.qry.len() as u64;
        point.hits += found.iter().filter(|&&b| b).count() as u64;
    }
    g.validate()
        .expect("cross-shard audit must pass after the scaling replay");
    point
}

/// Replay identical multi-tenant traffic at each shard count and tabulate
/// the modeled-throughput scaling, plus a per-shard load table. Returns
/// `(scaling, per_shard)`.
pub fn sharded_scaling(cfg: &ChurnConfig, shard_counts: &[usize]) -> (Table, Table) {
    let ds = dataset_for(cfg);

    let mut scaling = Table::new(
        "churn_sharded",
        "Sharded churn: multi-tenant batch-router throughput vs shard count",
        &[
            "shards",
            "sessions",
            "skew",
            "updates MUps",
            "queries Mq/s",
            "update modeled ms",
            "query hits",
            "speedup vs 1 shard",
        ],
    );
    let mut per_shard = Table::new(
        "churn_shard_throughput",
        "Sharded churn: per-shard routed load and modeled time",
        &["shards", "shard", "ops routed", "modeled ms", "MUps"],
    );

    let mut base_rate: Option<f64> = None;
    let mut hit_counts: Vec<u64> = Vec::new();
    for &n in shard_counts {
        let p = replay_at(cfg, &ds, n, &mut scaling, &mut per_shard);
        let ups = mrate(p.updates, p.update_s);
        let speedup = match base_rate {
            None => {
                base_rate = Some(ups);
                1.0
            }
            Some(b) => {
                if b > 0.0 {
                    ups / b
                } else {
                    0.0
                }
            }
        };
        hit_counts.push(p.hits);
        scaling.row(vec![
            n.to_string(),
            cfg.sessions.max(1).to_string(),
            cfg.skew.to_string(),
            fnum(ups),
            fnum(mrate(p.queries, p.query_s)),
            fnum(p.update_s * 1e3),
            p.hits.to_string(),
            fnum(speedup),
        ]);
        for (s, &(ops, secs)) in p.per_shard.iter().enumerate() {
            per_shard.row(vec![
                n.to_string(),
                s.to_string(),
                ops.to_string(),
                fnum(secs * 1e3),
                fnum(mrate(ops, secs)),
            ]);
        }
    }
    // Identical traffic must produce identical query results at every
    // shard count (adversarial skew regenerates per count, where hit
    // parity is still expected because the stream itself is identical
    // whenever the sampler ignores the shard count).
    if cfg.skew != Skew::Adversarial {
        assert!(
            hit_counts.windows(2).all(|w| w[0] == w[1]),
            "shard counts disagree on query results: {hit_counts:?}"
        );
    }
    scaling.note(format!(
        "dataset {} | {} rounds x {} ops, {} session(s), skew {}; modeled flush time = max over shards (concurrent dispatch)",
        cfg.dataset,
        cfg.rounds,
        cfg.ops_per_round << scale_shift(),
        cfg.sessions.max(1),
        cfg.skew,
    ));
    (scaling, per_shard)
}

/// The scaling study `run_all` records: the default churn config at 1, 2,
/// 4 and 8 shards.
pub fn sharded_default() -> (Table, Table) {
    sharded_scaling(&ChurnConfig::default(), &[1, 2, 4, 8])
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_gen::catalog;

    fn small_cfg() -> ChurnConfig {
        ChurnConfig {
            dataset: "luxembourg_osm".into(),
            rounds: 2,
            ops_per_round: 200,
            insert_pct: 50,
            delete_pct: 25,
            seed: 13,
            scale: Some(512),
            shards: 2,
            sessions: 3,
            skew: Skew::Uniform,
            readers: 0,
        }
    }

    #[test]
    fn traffic_is_deterministic_and_splits_sessions() {
        let cfg = small_cfg();
        let ds = catalog::dataset("luxembourg_osm")
            .unwrap()
            .generate(512, 13);
        let a = traffic_for(&cfg, &ds, 2);
        let b = traffic_for(&cfg, &ds, 2);
        assert_eq!(a.len(), 2);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.sessions.len(), 3);
            assert_eq!(ra.sessions, rb.sessions);
            assert_eq!(ra.qry, rb.qry);
            let total: usize = ra.sessions.iter().map(Vec::len).sum();
            assert_eq!(total, 100 + 50, "insert + delete budget");
            assert_eq!(ra.qry.len(), 50);
        }
    }

    #[test]
    fn adversarial_traffic_targets_shard_zero() {
        let cfg = ChurnConfig {
            skew: Skew::Adversarial,
            ..small_cfg()
        };
        let ds = catalog::dataset("luxembourg_osm")
            .unwrap()
            .generate(512, 13);
        for round in traffic_for(&cfg, &ds, 4) {
            for session in &round.sessions {
                for u in session {
                    if let Update::Insert(e) = u {
                        assert_eq!(shard_of(e.src, 4), 0, "src must be shard-0-owned");
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_replays_are_consistent() {
        let (scaling, per_shard) = sharded_scaling(&small_cfg(), &[1, 2]);
        assert_eq!(scaling.rows.len(), 2);
        assert_eq!(per_shard.rows.len(), 1 + 2);
        // Same traffic, same hits at both shard counts (asserted inside),
        // and the 1-shard row is the speedup baseline.
        assert_eq!(scaling.rows[0][7], "1.000");
    }
}
