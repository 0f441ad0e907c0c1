//! # lint-kernels — where is a kernel launched?
//!
//! Lists every kernel launch site (a `launch_tasks` / `launch_warps` /
//! `memset` call outside test code) in the workspace, one line per
//! kernel name: `NAME  path:line in fn, …`. The runtime checks name
//! kernels — the device's panic on a host transfer inside a warp body,
//! and racecheck's findings — and this maps each name to its launch
//! sites. It reads the sources with a small self-contained lexer and
//! parser (`tools/lint/`; no external deps, the workspace builds
//! offline).
//!
//! ```text
//! cargo run --bin lint-kernels              # scan .
//! cargo run --bin lint-kernels -- ROOT      # scan ROOT
//! ```
//!
//! Exit status: 0 listed, 2 usage/IO error.

#[path = "lint/mod.rs"]
mod lint;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: lint-kernels [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                eprintln!("lint-kernels: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match lint::kernel_sites(&root) {
        Ok(sites) => {
            for (name, at) in &sites {
                println!("{name}  {}", at.join(", "));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lint-kernels: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}
