//! One binary for every paper table and figure: pass one or more
//! experiment ids (`table1`..`table9`, `fig2`, `fig3`, or `all`) and each
//! is printed and persisted as JSON under `target/experiments/`.
//!
//!     cargo run -p bench --release --bin paper_tables -- table2 table3
//!     cargo run -p bench --release --bin paper_tables -- all

use bench::experiments::ALL;

fn main() {
    let ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: paper_tables <id>... where id is one of {ids:?} or 'all'");
        std::process::exit(2);
    }
    let wanted: Vec<&str> = if args.iter().any(|a| a == "all") {
        ids.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in wanted {
        match ALL.iter().find(|(known, _)| *known == id) {
            Some((_, run)) => run().emit(),
            None => {
                eprintln!("unknown experiment id {id:?}; known ids: {ids:?}");
                std::process::exit(2);
            }
        }
    }
}
