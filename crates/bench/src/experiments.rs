//! The paper's evaluation, experiment by experiment (§VI, Tables I–IX and
//! Figures 2–3). Every function returns a [`Table`]; binaries print them.
//!
//! Since every structure implements [`backend::GraphBackend`], each
//! experiment is a **generic driver**: it registers a list of
//! `Contender`s (label + build recipe) and loops one measurement body
//! over them. Adding a structure to a table means adding one contender
//! line, not a new measurement arm.
//!
//! Throughputs/times are from modeled GPU time (DESIGN.md §2), each phase
//! priced by one [`Measurement`](crate::Measurement).

use crate::harness::{
    baseline_words, fnum, scale_shift, slab_config, weighted_edges, Phase, Table,
};
use algos::tc;
use backend::GraphBackend;
use baselines::{sort, Csr, FaimGraph, Hornet};
use graph_gen::{catalog, insert_batch, mirror, rmat_edges, vertex_batch, RmatParams};
use slabgraph::{Direction, DynGraph, Edge, GraphConfig, TableKind};

/// An experiment id (as the bins accept it) and the function that runs it.
pub type Experiment = (&'static str, fn() -> Table);

/// Every paper experiment, in evaluation order.
pub const ALL: [Experiment; 11] = [
    ("table1", table1),
    ("table2", table2_edge_insertion),
    ("table3", table3_edge_deletion),
    ("table4", table4_vertex_deletion),
    ("table5", table5_bulk_build),
    ("table6", table6_incremental_build),
    ("table7", table7_static_tc),
    ("table8", table8_sort_cost),
    ("table9", table9_dynamic_tc),
    ("fig2", fig2_load_factor),
    ("fig3", fig3_tc_load_factor),
];

/// Datasets used by the update-rate tables (a representative spread of
/// Table I's families, kept small enough for the single-core simulator).
const UPDATE_DATASETS: [&str; 6] = [
    "luxembourg_osm",
    "road_usa",
    "delaunay_n20",
    "rgg_n_2_20_s0",
    "coAuthorsDBLP",
    "soc-LiveJournal1",
];

/// Paper Table IV's four datasets.
const VDEL_DATASETS: [&str; 4] = [
    "soc-orkut",
    "soc-LiveJournal1",
    "delaunay_n23",
    "germany_osm",
];

fn build_ours(ds: &graph_gen::Dataset, kind: TableKind, direction: Direction) -> DynGraph {
    DynGraph::bulk_build(slab_config(ds, kind, direction), &weighted_edges(&ds.edges))
}

type BuildFn = Box<dyn Fn(&graph_gen::Dataset) -> Box<dyn GraphBackend>>;

/// One registered structure in a generic benchmark driver: a column
/// label plus a recipe turning a dataset into a boxed backend. Each
/// experiment registers the contenders the corresponding paper table
/// compares (with the experiment's own sizing/symmetrisation knobs baked
/// into the recipe) and runs a single measurement body over them.
struct Contender {
    label: &'static str,
    build: BuildFn,
}

impl Contender {
    fn new(
        label: &'static str,
        build: impl Fn(&graph_gen::Dataset) -> Box<dyn GraphBackend> + 'static,
    ) -> Self {
        Contender {
            label,
            build: Box::new(build),
        }
    }
}

/// Table I — dataset catalog: paper stats vs. generated scaled stats.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "Datasets (paper scale vs. generated scale)",
        &[
            "dataset",
            "paper |V|",
            "paper |E|",
            "paper avg",
            "paper σ",
            "gen |V|",
            "gen |E|",
            "gen avg",
            "gen σ",
            "gen max",
        ],
    );
    for spec in catalog::datasets() {
        let ds = spec.generate_default(17);
        let s = ds.stats();
        t.row(vec![
            spec.name.into(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            fnum(spec.paper_avg_degree),
            fnum(spec.paper_degree_sigma),
            s.vertices.to_string(),
            s.edges.to_string(),
            fnum(s.avg),
            fnum(s.stddev),
            s.max.to_string(),
        ]);
    }
    t.note("generated instances are degree-matched synthetics (DESIGN.md §2)");
    t
}

/// Mean over per-dataset rates.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Table II — mean edge-insertion rates (MEdge/s) per batch size, for
/// Hornet, faimGraph, and ours.
pub fn table2_edge_insertion() -> Table {
    update_rate_table(false)
}

/// Table III — mean edge-deletion rates (MEdge/s) per batch size.
pub fn table3_edge_deletion() -> Table {
    update_rate_table(true)
}

fn update_rate_table(deletion: bool) -> Table {
    let (id, title) = if deletion {
        ("table3", "Mean edge deletion rates (MEdge/s)")
    } else {
        ("table2", "Mean edge insertion rates (MEdge/s)")
    };
    // Registered contenders, in column order. Every measurement below is
    // one generic body: build, run the batched update through the trait,
    // attribute the counter delta per kernel.
    let contenders = [
        Contender::new("Hornet", |ds| {
            Box::new(Hornet::bulk_build(
                ds.n_vertices,
                &ds.edges,
                baseline_words(ds),
            ))
        }),
        Contender::new("faimGraph", |ds| {
            Box::new(FaimGraph::build(
                ds.n_vertices,
                &ds.edges,
                baseline_words(ds),
            ))
        }),
        Contender::new("Ours", |ds| {
            Box::new(build_ours(ds, TableKind::Map, Direction::Directed))
        }),
    ];
    let mut headers = vec!["batch"];
    headers.extend(contenders.iter().map(|c| c.label));
    let mut t = Table::new(id, title, &headers);
    let shift = scale_shift();
    let batch_exps: Vec<u32> = (12..=15).map(|e| e + shift).collect();
    let specs: Vec<_> = UPDATE_DATASETS
        .iter()
        .map(|n| catalog::dataset(n).unwrap())
        .collect();
    let datasets: Vec<_> = specs.iter().map(|s| s.generate_default(21)).collect();

    for (bi, &be) in batch_exps.iter().enumerate() {
        let bsz = 1usize << be;
        let mut rates: Vec<Vec<f64>> = vec![vec![]; contenders.len()];
        for (di, ds) in datasets.iter().enumerate() {
            let batch = insert_batch(ds.n_vertices, bsz, 1000 + bi as u64);
            for (ci, c) in contenders.iter().enumerate() {
                let mut g = (c.build)(ds);
                let phase = Phase::begin(&[g.device()]);
                if deletion {
                    g.delete_edges(&batch);
                } else {
                    g.insert_edges(&batch);
                }
                let label = format!("{}, {} 2^{be}", c.label, specs[di].name);
                let m = t.end(label, phase, &[g.device()]);
                let report = m.report();
                assert_eq!(
                    report.kernel_sum(),
                    m.trace.global,
                    "per-kernel counters must sum to the phase's global delta"
                );
                if c.label == "Ours" && bi == batch_exps.len() - 1 && di == 0 {
                    t.breakdown(format!("ours, {} batch 2^{be}", specs[di].name), report);
                }
                rates[ci].push(m.mrate(bsz as u64));
            }
        }
        let mut cells = vec![format!("2^{be}")];
        cells.extend(rates.iter().map(|r| fnum(mean(r))));
        t.row(cells);
    }
    t.note(format!(
        "mean over {:?}; batches are random pairs over existing vertices, duplicates allowed",
        UPDATE_DATASETS
    ));
    t
}

/// Table IV — vertex-deletion throughput (MVertex/s), faimGraph vs ours,
/// averaged over the paper's four datasets, undirected graphs.
pub fn table4_vertex_deletion() -> Table {
    let contenders = [
        Contender::new("faimGraph", |ds| {
            Box::new(FaimGraph::build(
                ds.n_vertices,
                &mirror(&ds.edges),
                baseline_words(ds) * 2,
            ))
        }),
        Contender::new("Ours", |ds| {
            Box::new(build_ours(ds, TableKind::Map, Direction::Undirected))
        }),
    ];
    let mut headers = vec!["batch"];
    headers.extend(contenders.iter().map(|c| c.label));
    let mut t = Table::new(
        "table4",
        "Mean vertex deletion throughput (MVertex/s)",
        &headers,
    );
    let shift = scale_shift();
    let batch_exps: Vec<u32> = (6..=9).map(|e| e + shift).collect();
    let specs: Vec<_> = VDEL_DATASETS
        .iter()
        .map(|n| catalog::dataset(n).unwrap())
        .collect();
    // Smaller instances: vertex deletion is the heaviest op to simulate.
    let datasets: Vec<_> = specs
        .iter()
        .map(|s| s.generate(s.default_scale() / 4, 23))
        .collect();

    for (bi, &be) in batch_exps.iter().enumerate() {
        let bsz = 1usize << be;
        let mut rates: Vec<Vec<f64>> = vec![vec![]; contenders.len()];
        for (spec, ds) in specs.iter().zip(&datasets) {
            let victims = vertex_batch(
                ds.n_vertices,
                bsz.min(ds.n_vertices as usize / 2),
                77 + bi as u64,
            );
            for (ci, c) in contenders.iter().enumerate() {
                let mut g = (c.build)(ds);
                assert!(
                    g.caps().delete_vertices,
                    "{} cannot delete vertices",
                    g.name()
                );
                let phase = Phase::begin(&[g.device()]);
                g.delete_vertices(&victims);
                let label = format!("{}, {} 2^{be}", c.label, spec.name);
                let m = t.end(label, phase, &[g.device()]);
                rates[ci].push(m.mrate(victims.len() as u64));
            }
        }
        let mut cells = vec![format!("2^{be}")];
        cells.extend(rates.iter().map(|r| fnum(mean(r))));
        t.row(cells);
    }
    t.note("Hornet omitted: it does not implement vertex deletion (paper §VI-A3)");
    t
}

/// Table V — bulk-build elapsed time (modeled ms), Hornet vs ours.
pub fn table5_bulk_build() -> Table {
    let contenders = vec![
        Contender::new("Hornet", |ds| {
            Box::new(Hornet::bulk_build(
                ds.n_vertices,
                &ds.edges,
                baseline_words(ds),
            ))
        }),
        Contender::new("Ours", |ds| {
            Box::new(build_ours(ds, TableKind::Map, Direction::Directed))
        }),
    ];
    let mut headers = vec!["dataset"];
    headers.extend(contenders.iter().map(|c| c.label));
    let mut t = Table::new("table5", "Bulk build elapsed time (modeled ms)", &headers);
    for spec in catalog::datasets() {
        let ds = spec.generate_default(29);

        // The build *is* the measured operation: construct each structure
        // and price everything its device did since creation.
        let mut cells = vec![spec.name.to_string()];
        let mut edge_counts: Vec<u64> = vec![];
        for c in &contenders {
            let g = (c.build)(&ds);
            let label = format!("{}, {}", c.label, spec.name);
            let m = t.end(label, Phase::since_creation(1), &[g.device()]);
            edge_counts.push(g.num_edges());
            cells.push(fnum(m.modeled_ms()));
        }
        assert!(
            edge_counts.windows(2).all(|w| w[0] == w[1]),
            "{}: structures disagree on unique edges: {edge_counts:?}",
            spec.name
        );
        t.row(cells);
    }
    t.note("build = COO batch -> structure, including sort/dedup (Hornet) and table init (ours)");
    t
}

/// Table VI — incremental build mean insertion rates (MEdge/s): empty
/// graph, known vertex bound, single-bucket tables; batched inserts.
pub fn table6_incremental_build() -> Table {
    let contenders = [
        Contender::new("Hornet", |ds| {
            Box::new(Hornet::new(ds.n_vertices, baseline_words(ds)))
        }),
        // Ours: one bucket per vertex (§V-B2's worst case for us).
        Contender::new("Ours", |ds| {
            Box::new(DynGraph::with_uniform_buckets(
                slab_config(ds, TableKind::Map, Direction::Directed),
                ds.n_vertices,
                1,
            ))
        }),
    ];
    let mut headers = vec!["batch"];
    headers.extend(contenders.iter().map(|c| c.label));
    let mut t = Table::new(
        "table6",
        "Incremental build mean edge insertion rates (MEdge/s)",
        &headers,
    );
    let shift = scale_shift();
    let names = ["ldoor", "delaunay_n23", "road_usa", "soc-LiveJournal1"];
    let datasets: Vec<_> = names
        .iter()
        .map(|n| catalog::dataset(n).unwrap().generate_default(31))
        .collect();
    for be in [12 + shift, 13 + shift, 14 + shift] {
        let bsz = 1usize << be;
        let mut rates: Vec<Vec<f64>> = vec![vec![]; contenders.len()];
        for (name, ds) in names.iter().zip(&datasets) {
            for (ci, c) in contenders.iter().enumerate() {
                let mut g = (c.build)(ds);
                let phase = Phase::begin(&[g.device()]);
                for chunk in ds.edges.chunks(bsz) {
                    g.insert_edges(chunk);
                }
                let m = t.end(format!("{}, {name} 2^{be}", c.label), phase, &[g.device()]);
                rates[ci].push(m.mrate(ds.edges.len() as u64));
            }
        }
        let mut cells = vec![format!("2^{be}")];
        cells.extend(rates.iter().map(|r| fnum(mean(r))));
        t.row(cells);
    }
    t.note(format!(
        "mean over {names:?}; ours starts with 1 bucket/vertex"
    ));
    t
}

/// TC-specific scale: intersection workloads grow with Σ deg², so the
/// heavy-tailed datasets run at reduced vertex counts.
fn tc_scale(spec: &catalog::DatasetSpec) -> u32 {
    let base = match spec.family {
        catalog::Family::ScaleFree | catalog::Family::Mesh => 2048,
        catalog::Family::Geometric => 4096,
        _ => spec.default_scale() / 2,
    };
    (base << scale_shift()).min(spec.default_scale().max(4096))
}

/// Table VII — static triangle counting time (modeled ms), Hornet /
/// faimGraph / ours (set variant). One generic `tc` serves all three;
/// the backend's capabilities choose hash-probe vs sorted-merge.
pub fn table7_static_tc() -> Table {
    let contenders = vec![
        Contender::new("Hornet", |ds| {
            Box::new(Hornet::bulk_build(
                ds.n_vertices,
                &mirror(&ds.edges),
                baseline_words(ds) * 2,
            ))
        }),
        Contender::new("faimGraph", |ds| {
            Box::new(FaimGraph::build(
                ds.n_vertices,
                &mirror(&ds.edges),
                baseline_words(ds) * 2,
            ))
        }),
        Contender::new("Ours", |ds| {
            Box::new(build_ours(ds, TableKind::Set, Direction::Undirected))
        }),
    ];
    let mut headers = vec!["dataset"];
    headers.extend(contenders.iter().map(|c| c.label));
    headers.push("triangles");
    let mut t = Table::new(
        "table7",
        "Static triangle counting time (modeled ms)",
        &headers,
    );
    for spec in catalog::datasets() {
        let ds = spec.generate(tc_scale(&spec), 37);
        let mut cells = vec![spec.name.to_string()];
        let mut counts: Vec<u64> = vec![];
        for c in &contenders {
            let mut g = (c.build)(&ds);
            g.ensure_sorted(); // sort cost reported in Table VIII
            let mut count = 0;
            let label = format!("{}, {}", c.label, spec.name);
            let m = t.measure(label, &[g.device()], || {
                count = tc(g.as_ref());
            });
            // Integer counts pin what the rounded ms cell can hide.
            if c.label == "Ours" && matches!(spec.name, "soc-LiveJournal1" | "luxembourg_osm") {
                t.breakdown(format!("ours TC, {}", spec.name), m.report());
            }
            counts.push(count);
            cells.push(fnum(m.modeled_ms()));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: TC mismatch across structures: {counts:?}",
            spec.name
        );
        cells.push(counts[0].to_string());
        t.row(cells);
    }
    t.note("list baselines intersect pre-sorted lists; sort cost excluded here (Table VIII)");
    t
}

/// Table VIII — adjacency sort cost (modeled ms): CUB-style segmented sort
/// of a CSR vs faimGraph's per-adjacency sort.
pub fn table8_sort_cost() -> Table {
    let mut t = Table::new(
        "table8",
        "Adjacency sort time (modeled ms)",
        &["dataset", "Sort CSR (CUB-style)", "Sort faimGraph"],
    );
    for spec in catalog::datasets() {
        // Sort cost needs no triangle counting, so run at full bench scale
        // (the Σ deg² effect needs real hub degrees to show).
        let ds = spec.generate_default(41);
        let sym = mirror(&ds.edges);

        let csr = Csr::build(ds.n_vertices, &sym, baseline_words(&ds) * 2);
        let segs = csr.segments();
        let mut vals: Vec<u32> = (0..csr.num_edges() as u32).collect();
        let m_c = t.measure(format!("CSR, {}", spec.name), &[csr.device()], || {
            sort::segmented_sort(csr.device(), &segs, &mut vals);
        });

        let f = FaimGraph::build(ds.n_vertices, &sym, baseline_words(&ds) * 2);
        let m_f = t.measure(format!("faimGraph, {}", spec.name), &[f.device()], || {
            f.sort_adjacencies();
        });

        t.row(vec![
            spec.name.into(),
            fnum(m_c.modeled_ms()),
            fnum(m_f.modeled_ms()),
        ]);
    }
    t.note("faimGraph's sort wins on small max-degree graphs, loses badly on scale-free ones");
    t
}

/// Table IX — dynamic TC: five rounds of (insert batch, recount), ours vs
/// Hornet (which must re-sort each round), on a road-like and a
/// hollywood-like dataset.
pub fn table9_dynamic_tc() -> Table {
    let mut t = Table::new(
        "table9",
        "Dynamic TC cumulative time (modeled ms): insert batch then count",
        &[
            "dataset",
            "iter",
            "ours insert",
            "ours TC",
            "ours total",
            "hornet insert",
            "hornet TC(+sort)",
            "hornet total",
            "speedup",
        ],
    );
    let shift = scale_shift();
    for name in ["road_usa", "hollywood-2009"] {
        let spec = catalog::dataset(name).unwrap();
        let ds = spec.generate(tc_scale(&spec) / 2, 43);
        let batch_size = 1usize << (11 + shift);

        // Persistent structures, updated round by round. Ours stores the
        // undirected graph internally; Hornet needs explicitly mirrored
        // batches and incremental re-sort maintenance before counting.
        struct Dynamic {
            label: &'static str,
            g: Box<dyn GraphBackend>,
            mirror_batches: bool,
            ins_ms: f64,
            tc_ms: f64,
        }
        let mut contenders = [
            Dynamic {
                label: "ours",
                g: Box::new(DynGraph::with_uniform_buckets(
                    slab_config(&ds, TableKind::Set, Direction::Undirected),
                    ds.n_vertices,
                    1,
                )),
                mirror_batches: false,
                ins_ms: 0.0,
                tc_ms: 0.0,
            },
            Dynamic {
                label: "hornet",
                g: Box::new(Hornet::new(ds.n_vertices, baseline_words(&ds) * 2)),
                mirror_batches: true,
                ins_ms: 0.0,
                tc_ms: 0.0,
            },
        ];

        for iter in 1..=5u32 {
            let batch = insert_batch(ds.n_vertices, batch_size, 500 + iter as u64);
            let mut tris: Vec<u64> = vec![];
            for (ci, c) in contenders.iter_mut().enumerate() {
                let (edges, touched): (Vec<(u32, u32)>, Vec<u32>) = if c.mirror_batches {
                    let sym = mirror(&batch);
                    let touched = sym.iter().map(|&(u, _)| u).collect();
                    (sym, touched)
                } else {
                    (batch.clone(), vec![])
                };

                let label = format!("{}, {name} round {iter}", c.label);
                let phase = Phase::begin(&[c.g.device()]);
                c.g.insert_edges(&edges);
                c.ins_ms += t
                    .end(format!("{label} insert"), phase, &[c.g.device()])
                    .modeled_ms();

                let phase = Phase::begin(&[c.g.device()]);
                // Incremental sort maintenance: only batch-touched lists
                // (a no-op for the hash-based structure).
                c.g.ensure_sorted_touched(&touched);
                let tri = tc(c.g.as_ref());
                let m = t.end(format!("{label} TC"), phase, &[c.g.device()]);
                c.tc_ms += m.modeled_ms();
                // Integer counts pin what the rounded ms cell can hide.
                if ci == 0 && iter == 5 && name == "hollywood-2009" {
                    t.breakdown(format!("ours TC, {name} round {iter}"), m.report());
                }
                tris.push(tri);
            }
            assert!(
                tris.windows(2).all(|w| w[0] == w[1]),
                "{name}: iter {iter} TC mismatch: {tris:?}"
            );
            let (o, h) = (&contenders[0], &contenders[1]);
            t.row(vec![
                name.into(),
                iter.to_string(),
                fnum(o.ins_ms),
                fnum(o.tc_ms),
                fnum(o.ins_ms + o.tc_ms),
                fnum(h.ins_ms),
                fnum(h.tc_ms),
                fnum(h.ins_ms + h.tc_ms),
                fnum((h.ins_ms + h.tc_ms) / (o.ins_ms + o.tc_ms)),
            ]);
        }
    }
    t.note("cumulative over rounds, as in the paper; Hornet TC includes per-round re-sort");
    t
}

/// Fig. 2 — load-factor sweep on directed RMAT graphs: insertion rate,
/// memory utilization, and memory usage vs. average chain length.
pub fn fig2_load_factor() -> Table {
    let mut t = Table::new(
        "fig2",
        "Load-factor sweep (RMAT): rate / utilization / memory vs chain length",
        &[
            "avg degree",
            "load factor",
            "avg chain",
            "MEdge/s",
            "utilization",
            "memory MB",
        ],
    );
    let shift = scale_shift();
    let v_exp = 11 + shift;
    let n_vertices = 1u32 << v_exp;
    for avg_deg in [15usize, 45, 90, 135] {
        let raw = rmat_edges(v_exp, n_vertices as usize * avg_deg, RmatParams::flat(), 53);
        let edges = weighted_edges(&raw);
        let mut degrees = vec![0u32; n_vertices as usize];
        for e in &edges {
            if e.src != e.dst {
                degrees[e.src as usize] += 1;
            }
        }
        for lf in [0.35, 0.7, 1.5, 3.0, 5.0] {
            let cfg = GraphConfig::directed_map(n_vertices)
                .with_load_factor(lf)
                .with_device_words(edges.len() * 12)
                .with_pool_slabs((edges.len() / 64).max(1 << 10));
            let g = DynGraph::with_degree_hints(cfg, &degrees);
            let label = format!("avg degree {avg_deg} lf {lf}");
            let m = t.measure(label, &[g.device()], || {
                g.insert_edges(&edges);
            });
            let stats = g.stats(&g.pin_read());
            t.row(vec![
                avg_deg.to_string(),
                fnum(lf),
                fnum(stats.avg_chain()),
                fnum(m.mrate(edges.len() as u64)),
                fnum(stats.utilization()),
                fnum(stats.memory_bytes() as f64 / 1e6),
            ]);
        }
    }
    t.note("paper: 2^20-vertex RMAT, 15M-135M edges; here scaled per DESIGN.md §8");
    t
}

/// Fig. 3 — static TC time vs chain length (load-factor sweep) on
/// undirected RMAT graphs; the optimum sits near load factor 0.7.
pub fn fig3_tc_load_factor() -> Table {
    let mut t = Table::new(
        "fig3",
        "Static TC time vs chain length (load-factor sweep, RMAT)",
        &[
            "avg degree",
            "load factor",
            "avg chain",
            "TC modeled ms",
            "triangles",
        ],
    );
    let shift = scale_shift();
    let v_exp = 10 + shift;
    let n_vertices = 1u32 << v_exp;
    for avg_deg in [32usize, 64] {
        let raw = rmat_edges(
            v_exp,
            n_vertices as usize * avg_deg / 2,
            RmatParams::flat(),
            59,
        );
        let edges: Vec<Edge> = raw.iter().map(|&p| Edge::from(p)).collect();
        let mut degrees = vec![0u32; n_vertices as usize];
        for e in &edges {
            if e.src != e.dst {
                degrees[e.src as usize] += 1;
                degrees[e.dst as usize] += 1;
            }
        }
        for lf in [0.2, 0.35, 0.5, 0.7, 1.0, 1.5, 2.5, 4.0] {
            let mut cfg = GraphConfig::undirected_set(n_vertices)
                .with_load_factor(lf)
                .with_device_words(edges.len() * 12)
                .with_pool_slabs((edges.len() / 64).max(1 << 10));
            cfg.kind = TableKind::Set;
            let g = DynGraph::with_degree_hints(cfg, &degrees);
            g.insert_edges(&edges);
            let stats = g.stats(&g.pin_read());
            let mut tri = 0;
            let label = format!("avg degree {avg_deg} lf {lf}");
            let m = t.measure(label, &[g.device()], || {
                tri = tc(&g);
            });
            // Integer counts pin what the rounded ms cell can hide.
            if lf == 0.7 || lf == 4.0 {
                t.breakdown(format!("ours TC, avg degree {avg_deg} lf {lf}"), m.report());
            }
            t.row(vec![
                avg_deg.to_string(),
                fnum(lf),
                fnum(stats.avg_chain()),
                fnum(m.modeled_ms()),
                tri.to_string(),
            ]);
        }
    }
    t.note("paper Fig. 3: optimum near load factor 0.7");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: each experiment runs end-to-end at tiny scale and
    // produces a well-formed table. (Full-scale runs are the binaries.)

    #[test]
    fn table1_has_all_datasets() {
        let t = table1();
        assert_eq!(t.rows.len(), 12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn mirror_doubles() {
        assert_eq!(mirror(&[(1, 2)]), vec![(1, 2), (2, 1)]);
    }
}
