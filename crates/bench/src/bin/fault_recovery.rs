//! Cost of the failure model: what does a bounded device budget *cost*
//! when a batch trips it? One batch is run three ways — unconstrained,
//! budget-bounded with retry-after-raise, and under an every-Nth injected
//! fault plan — and the modeled time, rounds to converge, and per-kernel
//! bill are compared. The recovered runs must land on the same graph as
//! the unconstrained one; this harness also quantifies the overhead of
//! getting there.

use bench::harness::{fnum, measure, Table};
use slabgraph::{DynGraph, Edge, FaultPlan, GraphConfig};

const SOURCES: u32 = 16;
const PER_SOURCE: u32 = 1100;

fn batch() -> Vec<Edge> {
    (0..SOURCES)
        .flat_map(|u| {
            (0..PER_SOURCE).map(move |i| Edge::weighted(u, SOURCES + u * PER_SOURCE + i, i + 1))
        })
        .collect()
}

fn config() -> GraphConfig {
    GraphConfig::directed_map(2048)
        .with_device_words(1 << 16)
        .with_pool_slabs(1024)
}

fn main() {
    let mut t = Table::new(
        "fault_recovery",
        "Recovery overhead: bounded budget and injected faults vs unconstrained",
        &["scenario", "rounds", "modeled ms", "overhead", "edges"],
    );
    let edges = batch();

    // Baseline: one unconstrained round.
    let g = DynGraph::new(config());
    let base = measure(&[g.device()], || {
        assert_eq!(g.insert_edges(&edges), edges.len() as u64);
    });
    g.check_invariants();
    let base_edges = g.num_edges();
    t.row(vec![
        "unconstrained".into(),
        "1".into(),
        fnum(base.modeled_ms()),
        "1.00x".into(),
        base_edges.to_string(),
    ]);
    t.breakdown("unconstrained insert", base.report());

    // Bounded budget: the batch exhausts 130k words mid-kernel, the suffix
    // retries after each budget raise until it converges.
    let g = DynGraph::new(config().with_device_capacity(130_000));
    let m = measure(&[g.device()], || {
        let mut outcome = g.try_insert_edges(&edges).expect("valid batch");
        let mut rounds = 1u32;
        while !outcome.is_complete() {
            g.validate().expect("consistent after partial batch");
            let budget = g.device().capacity_words();
            g.device().set_capacity_words(budget + (1 << 17));
            outcome = g.retry_suffix(&outcome).expect("valid suffix");
            rounds += 1;
        }
        assert_eq!(g.num_edges(), base_edges);
        println!("# bounded budget converged in {rounds} round(s)");
    });
    g.check_invariants();
    t.row(vec![
        "budget 130k words, +128k/round".into(),
        "measured".into(),
        fnum(m.modeled_ms()),
        format!("{:.2}x", m.modeled_ms() / base.modeled_ms()),
        g.num_edges().to_string(),
    ]);
    t.breakdown("bounded-budget recovery (validate each round)", m.report());

    // Injected faults: every 4th slab acquisition fails; retries converge
    // because the suffix shrinks every round.
    let g = DynGraph::new(config());
    g.device().set_fault_plan(FaultPlan::fail_every_nth(4));
    let m = measure(&[g.device()], || {
        let mut outcome = g.try_insert_edges(&edges).expect("valid batch");
        let mut rounds = 1u32;
        while !outcome.is_complete() {
            g.validate().expect("consistent after injected fault");
            outcome = g.retry_suffix(&outcome).expect("valid suffix");
            rounds += 1;
        }
        assert_eq!(g.num_edges(), base_edges);
        println!("# every-4th fault plan converged in {rounds} round(s)");
    });
    g.device().clear_fault_plan();
    g.check_invariants();
    t.row(vec![
        format!(
            "fault plan: every 4th alloc ({} injected)",
            g.device().injected_faults()
        ),
        "measured".into(),
        fnum(m.modeled_ms()),
        format!("{:.2}x", m.modeled_ms() / base.modeled_ms()),
        g.num_edges().to_string(),
    ]);
    t.breakdown("every-4th-alloc fault recovery", m.report());

    t.note(format!(
        "one batch of {} edges over {SOURCES} sources; recovered runs must reach the \
unconstrained graph exactly (asserted), so 'overhead' is the full price of partial \
application, per-round validate() audits, and re-staged suffixes",
        edges.len()
    ));
    t.emit();
}
