//! Chaos-churn: the multi-tenant router stream replayed while a seeded
//! schedule kills and revives shards mid-stream.
//!
//! Each kill arms [`gpu_sim::FaultPlan::device_lost_at`] on a victim
//! shard's device, so the next flush drives the router's health machine
//! to Down and opens the circuit breaker; the shard's traffic is held in
//! the write-ahead journal while reads degrade to surviving replicas.
//! Each revive calls [`router::BatchRouter::rebuild_downed`] — device
//! reset, journal replay, cross-shard audit, re-admission. The run ends
//! by reviving everything and asserting the sharded graph's final state
//! is byte-identical to an unsharded replay of the same stream, that the
//! audit passes, and that every device is sanitizer-clean.

use crate::churn::ChurnConfig;
use crate::harness::{build_sharded, build_slab, dataset_for, fnum, Phase, Table};
use crate::sharded::traffic_for;
use gpu_sim::{Device, FaultPlan};
use graph_gen::splitmix64;
use router::{BatchRouter, ReadQuality, Update};
use slabgraph::Edge;

fn mix(h: u64, x: u64) -> u64 {
    let mut s = h ^ x;
    s = splitmix64(&mut s);
    s
}

/// Digest of a graph's full state from an edge export: every
/// `(u, v, weight)` triple in `(u, v)` order. Two graphs digest equal iff
/// their edge sets and weights are byte-identical.
fn state_digest(mut edges: Vec<Edge>) -> u64 {
    edges.sort_unstable_by_key(|e| (e.src, e.dst));
    edges.iter().fold(0xd6e8_feb8_6659_fd93u64, |h, e| {
        let h = mix(h, ((e.src as u64) << 32) | e.dst as u64);
        mix(h, e.weight as u64)
    })
}

/// What the chaos schedule did before one round's flush.
enum Action {
    None,
    Kill(usize),
    Revive(Vec<usize>),
}

/// Run the chaos-churn replay and tabulate per-round fault-tolerance
/// behavior. Panics (deliberately — this is the correctness harness the
/// CI smoke leans on) if the breaker charges launches to a Down shard,
/// the final state diverges from the unsharded replay, the cross-shard
/// audit fails, or any device reports sanitizer findings.
pub fn chaos_churn(cfg: &ChurnConfig) -> Table {
    let shards = cfg.shards.max(2);
    let ds = dataset_for(cfg);
    let traffic = traffic_for(cfg, &ds, shards);
    let g = build_sharded(&ds, shards);
    let router = BatchRouter::new(&g);
    let devices: Vec<&Device> = g.group().devices().iter().map(|d| &**d).collect();

    // Unsharded reference: same bulk load, each round applied in the
    // router's drain order (the last update to an edge decides it).
    let reference = build_slab(&ds);

    let mut table = Table::new(
        "churn_chaos",
        "Chaos churn: seeded shard kill/revive under multi-tenant router traffic",
        &[
            "round",
            "action",
            "updates",
            "down shards",
            "journal depth",
            "degraded reads",
            "flush ms",
        ],
    );

    let mut rng = cfg.seed ^ 0xc4a0_5e97;
    let mut kills = 0u64;
    let mut revives = 0u64;
    for (r, round) in traffic.iter().enumerate() {
        // Seeded schedule: kill a healthy shard on rounds 1 mod 3, try a
        // revive on rounds 0 mod 3 (after the first), otherwise leave the
        // fleet alone. Victims are drawn from the seeded stream.
        let action = if router.unhealthy_shards().is_empty() {
            if r % 3 == 1 {
                let victim = (splitmix64(&mut rng) % shards as u64) as usize;
                g.group()
                    .device(victim)
                    .set_fault_plan(FaultPlan::device_lost_at(1));
                kills += 1;
                Action::Kill(victim)
            } else {
                Action::None
            }
        } else if r % 3 == 0 {
            let revived = router
                .rebuild_downed()
                .expect("mid-stream rebuild must pass the cross-shard audit");
            revives += revived.len() as u64;
            Action::Revive(revived)
        } else {
            Action::None
        };

        round.submit(&router);
        // Snapshot Down shards' counters: the open breaker must not
        // charge a single launch to them during the flush. (Suspect
        // shards still dispatch, so only non-dispatchable ones count.)
        let down_before: Vec<(usize, u64)> = router
            .unhealthy_shards()
            .into_iter()
            .filter(|&s| !router.health(s).is_dispatchable())
            .map(|s| (s, g.group().device(s).counters().snapshot().launches))
            .collect();
        let phase = Phase::begin(&devices);
        let report = router.flush();
        table.end(format!("round {r} flush"), phase, &devices);
        for (s, launches) in down_before {
            assert_eq!(
                g.group().device(s).counters().snapshot().launches,
                launches,
                "shard {s}: open circuit breaker must not charge launches"
            );
        }

        // Degraded-read sampling: the round's query batch through the
        // fault-aware read path.
        let mut degraded = 0u64;
        let pin = router.pin_read();
        for &(u, v) in &round.qry {
            if router.edge_exists_live(&pin, u, v).1 == ReadQuality::Degraded {
                degraded += 1;
            }
        }
        drop(pin);

        // Reference replay in the router's drain order (session-major,
        // the last update to an edge deciding it). The deciders touch
        // distinct edges, so their inserts and deletes commute and apply
        // as two plain batches.
        let drained: Vec<Update> = round.sessions.concat();
        let (last, _) = Update::collapse(&drained);
        let (ins, del): (Vec<Update>, Vec<Update>) = last.into_iter().partition(|u| u.is_insert());
        reference.insert_edges(&ins.iter().map(|u| u.edge()).collect::<Vec<_>>());
        reference.delete_edges(&del.iter().map(|u| u.edge()).collect::<Vec<_>>());

        let max_journal = (0..shards)
            .map(|s| router.journal_depth(s))
            .max()
            .unwrap_or(0);
        table.row(vec![
            r.to_string(),
            match action {
                Action::None => "-".to_string(),
                Action::Kill(s) => format!("kill {s}"),
                Action::Revive(ref v) => format!("revive {v:?}"),
            },
            report.updates.to_string(),
            router.unhealthy_shards().len().to_string(),
            max_journal.to_string(),
            degraded.to_string(),
            fnum(report.modeled_s() * 1e3),
        ]);
    }

    // End of stream: revive whatever is still down, then the final state
    // must be byte-identical to the unsharded replay.
    let revived = router
        .rebuild_downed()
        .expect("final rebuild must pass the cross-shard audit");
    revives += revived.len() as u64;
    assert!(
        router.unhealthy_shards().is_empty(),
        "all shards re-admitted at end of chaos run"
    );
    g.validate().expect("post-rebuild cross-shard audit");
    let sharded_digest = state_digest(g.export_edges());
    let reference_digest = state_digest(reference.export_edges(&reference.pin_read()));
    assert_eq!(
        g.num_edges(),
        reference.num_edges(),
        "sharded and unsharded replays disagree on edge count"
    );
    assert_eq!(
        sharded_digest, reference_digest,
        "final state must be byte-identical to the unsharded replay"
    );
    for (s, dev) in g.group().devices().iter().enumerate() {
        let findings = dev.sanitizer_findings();
        assert!(
            findings.is_empty(),
            "shard {s}: chaos churn must be sanitizer-clean, got {findings:?}"
        );
    }
    table.note(format!(
        "dataset {} | {} rounds x {} ops, {} shard(s), seed {}; {} kill(s), {} revive(s); {} | final state digest {:#018x} == unsharded replay",
        cfg.dataset,
        cfg.rounds,
        traffic.first().map_or(0, |r| r.sessions.iter().map(Vec::len).sum::<usize>() + r.qry.len()),
        shards,
        cfg.seed,
        kills,
        revives,
        router.report().render(),
        sharded_digest,
    ));
    table
}

/// The chaos run `run_all` records: four shards fed by four sessions over
/// the default churn dataset, five rounds (two kills, two revives).
pub fn chaos_default() -> Table {
    chaos_churn(&ChurnConfig {
        rounds: 5,
        shards: 4,
        sessions: 4,
        seed: 41,
        ..ChurnConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::Skew;

    #[test]
    fn chaos_run_converges_to_reference() {
        let cfg = ChurnConfig {
            dataset: "luxembourg_osm".into(),
            rounds: 5,
            ops_per_round: 160,
            insert_pct: 50,
            delete_pct: 25,
            seed: 37,
            scale: Some(256),
            shards: 3,
            sessions: 3,
            skew: Skew::Uniform,
            readers: 0,
        };
        // All the correctness assertions live inside chaos_churn; the
        // table must cover every round and record at least one kill.
        let t = chaos_churn(&cfg);
        assert_eq!(t.rows.len(), 5);
        assert!(
            t.rows.iter().any(|r| r[1].starts_with("kill")),
            "schedule must kill at least one shard: {:?}",
            t.rows
        );
    }
}
