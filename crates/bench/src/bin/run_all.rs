//! Runs every table and figure experiment, then the churn-family tables
//! at fixed configs, printing each and persisting JSON under
//! target/experiments/; writes them all to `BENCH_tables.json`, the
//! artifact `bench-gate` compares with the parent commit's.
//! `BENCH_SCALE_SHIFT=n` scales every workload up by 2^n.
use bench::harness::write_bench_artifact;
use bench::{chaos, churn, experiments, sharded, Table};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut tables: Vec<Table> = vec![];
    let mut run = |name: &str, f: &dyn Fn() -> Vec<Table>| {
        let t = Instant::now();
        for table in f() {
            table.emit();
            tables.push(table);
        }
        eprintln!("[{name}] finished in {:.1}s\n", t.elapsed().as_secs_f64());
    };
    for (name, f) in experiments::ALL {
        run(name, &|| vec![f()]);
    }
    run("churn", &|| vec![churn::churn_default()]);
    run("churn_sharded", &|| {
        let (scaling, per_shard) = sharded::sharded_default();
        vec![scaling, per_shard]
    });
    run("churn_chaos", &|| vec![chaos::chaos_default()]);
    let refs: Vec<&Table> = tables.iter().collect();
    write_bench_artifact("BENCH_tables.json", "run_all", &refs);
    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f64());
    eprintln!("(standalone harnesses: cargo run -p bench --release --bin ablation_tombstones | fault_recovery)");
}
