//! The paper's shape claims, checked against the committed
//! `BENCH_tables.json` (regenerated by `cargo run -p bench --release --bin
//! run_all`). EXPERIMENTS.md records each claim's verdict; this test keeps
//! a regenerated artifact from silently breaking one. Absolute rates are
//! not gated here, only orderings, trends and crossovers.

use dynamic_graphs_gpu::gpu_sim::json::Json;
use dynamic_graphs_gpu::graph_gen::catalog::{self, Family};

/// One rendered table: its headers and its rows of cell text.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Column index of `header`.
    fn col(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?} in {:?}", self.headers))
    }

    /// The numeric cells of column `header`, in row order.
    fn nums(&self, header: &str) -> Vec<f64> {
        let c = self.col(header);
        self.rows
            .iter()
            .map(|r| {
                r[c].parse()
                    .unwrap_or_else(|_| panic!("{header}: {:?} is not a number", r[c]))
            })
            .collect()
    }

    /// The dataset family of each row, from its first cell.
    fn families(&self) -> Vec<Family> {
        self.rows
            .iter()
            .map(|r| {
                catalog::dataset(&r[0])
                    .unwrap_or_else(|| panic!("{:?} is not a catalog dataset", r[0]))
                    .family
            })
            .collect()
    }
}

fn tables() -> Vec<(String, Table)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_tables.json");
    let text = std::fs::read_to_string(path).expect("BENCH_tables.json is committed");
    let doc = Json::parse(&text).expect("BENCH_tables.json parses");
    let strs = |v: &Json| -> Vec<String> {
        v.as_arr()
            .expect("an array")
            .iter()
            .map(|s| s.as_str().expect("a string cell").to_string())
            .collect()
    };
    doc.get("tables")
        .and_then(Json::as_arr)
        .expect("a `tables` array")
        .iter()
        .map(|t| {
            let id = t.get("id").and_then(Json::as_str).expect("an id");
            let table = Table {
                headers: strs(t.get("headers").expect("headers")),
                rows: t
                    .get("rows")
                    .and_then(Json::as_arr)
                    .expect("rows")
                    .iter()
                    .map(strs)
                    .collect(),
            };
            (id.to_string(), table)
        })
        .collect()
}

fn table(id: &str) -> Table {
    tables()
        .into_iter()
        .find(|(t, _)| t == id)
        .unwrap_or_else(|| panic!("BENCH_tables.json has no {id}"))
        .1
}

/// Table II: ours beats Hornet and faimGraph at every batch size, and all
/// three insertion rates grow with the batch.
#[test]
fn table2_ours_wins_every_batch_and_all_rates_grow() {
    let t = table("table2");
    let ours = t.nums("Ours");
    for rival in ["Hornet", "faimGraph"] {
        for (i, (o, r)) in ours.iter().zip(t.nums(rival)).enumerate() {
            assert!(*o > r, "batch {}: ours {o} vs {rival} {r}", t.rows[i][0]);
        }
    }
    for name in ["Hornet", "faimGraph", "Ours"] {
        let rates = t.nums(name);
        assert!(
            rates.windows(2).all(|w| w[0] < w[1]),
            "{name}'s rate does not grow with the batch: {rates:?}"
        );
    }
}

/// Table V: the Hornet/ours bulk-build ratio is larger on every road
/// network than on any scale-free graph.
#[test]
fn table5_speedup_is_larger_on_road_networks_than_scale_free() {
    let t = table("table5");
    let ratios: Vec<f64> = t
        .nums("Hornet")
        .iter()
        .zip(t.nums("Ours"))
        .map(|(h, o)| h / o)
        .collect();
    let of = |family: Family| -> Vec<f64> {
        ratios
            .iter()
            .zip(t.families())
            .filter(|(_, f)| *f == family)
            .map(|(r, _)| *r)
            .collect()
    };
    let (road, scale_free) = (of(Family::Road), of(Family::ScaleFree));
    assert!(!road.is_empty() && !scale_free.is_empty());
    let least_road = road.iter().copied().fold(f64::INFINITY, f64::min);
    let most_scale_free = scale_free.iter().copied().fold(0.0, f64::max);
    assert!(
        least_road > most_scale_free,
        "road ratios {road:?} vs scale-free ratios {scale_free:?}"
    );
}

/// Table VIII: faimGraph's per-list sort beats the CUB-style CSR sort on
/// every graph with a small maximum degree and loses on every scale-free
/// graph.
#[test]
fn table8_sort_crossover_holds() {
    let t = table("table8");
    let cub = t.nums("Sort CSR (CUB-style)");
    let faim = t.nums("Sort faimGraph");
    for (i, family) in t.families().into_iter().enumerate() {
        let faim_wins = faim[i] < cub[i];
        assert_eq!(
            faim_wins,
            family != Family::ScaleFree,
            "{} ({family:?}): CUB {} vs faimGraph {}",
            t.rows[i][0],
            cub[i],
            faim[i]
        );
    }
}

/// Fig. 2: within each average-degree series, the insertion rate does not
/// rise as the average chain grows.
#[test]
fn fig2_insert_rate_does_not_rise_with_chain_length() {
    let t = table("fig2");
    let (degree, chain, rate) = (t.col("avg degree"), t.nums("avg chain"), t.nums("MEdge/s"));
    let mut series: Vec<&str> = t.rows.iter().map(|r| r[degree].as_str()).collect();
    series.dedup();
    assert!(series.len() > 1);
    for s in series {
        let mut points: Vec<(f64, f64)> = (0..t.rows.len())
            .filter(|&i| t.rows[i][degree] == s)
            .map(|i| (chain[i], rate[i]))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            points.windows(2).all(|w| w[1].1 <= w[0].1),
            "degree-{s} series: rate rises with chain length: {points:?}"
        );
    }
}
