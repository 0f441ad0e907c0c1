//! Runs every table and figure experiment in sequence, printing each and
//! persisting JSON under target/experiments/. `BENCH_SCALE_SHIFT=n` scales
//! every workload up by 2^n.
use bench::experiments;
use bench::harness::write_bench_artifact;

fn main() {
    let t0 = std::time::Instant::now();
    let mut tables: Vec<bench::Table> = vec![];
    let churn: experiments::Experiment = ("churn", bench::churn::churn_default);
    for (name, f) in experiments::ALL.into_iter().chain([churn]) {
        let t = std::time::Instant::now();
        let table = f();
        table.emit();
        tables.push(table);
        eprintln!("[{name}] finished in {:.1}s\n", t.elapsed().as_secs_f64());
    }
    let refs: Vec<&bench::Table> = tables.iter().collect();
    write_bench_artifact("BENCH_tables.json", "run_all", &refs);
    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f64());
    eprintln!("(standalone harnesses: cargo run -p bench --release --bin ablation_tombstones | fault_recovery)");
}
