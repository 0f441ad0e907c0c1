//! Wall-clock benches for the figure experiments: the load-factor sweeps of
//! Fig. 2 (insertion) and Fig. 3 (triangle-counting queries).
//!
//! Run with `cargo bench --bench figures`.

use bench::harness::bench_case;
use graph_gen::{rmat_edges, RmatParams};
use slabgraph::{DynGraph, Edge, GraphConfig};

const ITERS: usize = 10;

/// Fig. 2a: insertion throughput as the load factor (≈ chain length) grows.
fn bench_fig2_insertion_vs_load_factor() {
    let v_exp = 10;
    let n = 1u32 << v_exp;
    let raw = rmat_edges(v_exp, n as usize * 16, RmatParams::flat(), 3);
    let edges: Vec<Edge> = raw.iter().map(|&p| Edge::from(p)).collect();
    let mut degrees = vec![0u32; n as usize];
    for e in &edges {
        if e.src != e.dst {
            degrees[e.src as usize] += 1;
        }
    }
    for lf in [0.35, 0.7, 1.5, 3.0] {
        bench_case(&format!("fig2_insert_rate/lf={lf}"), ITERS, || {
            let cfg = GraphConfig::directed_map(n)
                .with_load_factor(lf)
                .with_device_words(edges.len() * 12);
            let gr = DynGraph::with_degree_hints(cfg, &degrees);
            gr.insert_edges(&edges);
        });
    }
}

/// Fig. 3: query (TC) cost as the load factor grows — the optimum near
/// 0.7 shows as minimal time per probe.
fn bench_fig3_tc_vs_load_factor() {
    let v_exp = 9;
    let n = 1u32 << v_exp;
    let raw = rmat_edges(v_exp, n as usize * 8, RmatParams::flat(), 5);
    let edges: Vec<Edge> = raw.iter().map(|&p| Edge::from(p)).collect();
    let mut degrees = vec![0u32; n as usize];
    for e in &edges {
        if e.src != e.dst {
            degrees[e.src as usize] += 1;
            degrees[e.dst as usize] += 1;
        }
    }
    for lf in [0.35, 0.7, 2.0] {
        let cfg = GraphConfig::undirected_set(n)
            .with_load_factor(lf)
            .with_device_words(edges.len() * 16);
        let gr = DynGraph::with_degree_hints(cfg, &degrees);
        gr.insert_edges(&edges);
        bench_case(&format!("fig3_tc_time/lf={lf}"), ITERS, || {
            algos::tc(&gr);
        });
    }
}

fn main() {
    bench_fig2_insertion_vs_load_factor();
    bench_fig3_tc_vs_load_factor();
}
