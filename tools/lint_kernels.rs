//! # lint-kernels — parse-based dataflow lint for the kernel protocols
//!
//! A small static-analysis engine (self-contained lexer + parser, no
//! external deps — the workspace builds offline) that extracts every
//! kernel closure passed to `launch_tasks` / `launch_warps` / `memset`,
//! computes a per-kernel **effect summary** (arena words read/written,
//! atomic ops, allocator calls, pin uses), and checks two rules over
//! the summaries and the enclosing host code:
//!
//! - **R1 `host-transfer-in-kernel`** — a `Device` host transfer
//!   (`upload` / `try_upload` / `host_write` / `host_read` /
//!   `host_atomic_and`) lexically inside a launch closure outside
//!   `crates/gpu-sim`: uncharged, and invisible to racecheck. Staging and
//!   read-back between launches needs no rule — the arena is private to
//!   gpu-sim, so uncharged access can only go through those named calls.
//!   R1 sees only transfers called directly in the closure: a helper
//!   that transfers for it (`VertexDict::desc_host`) is not reported.
//! - **R9 `publication-order`** — an arena word class (keyed by the named
//!   constants in its address expression, e.g. `NEXT_LANE`) written with a
//!   plain store in one kernel but read by a concurrently-running pinned
//!   reader kernel must be published atomically (`atomic_cas` /
//!   `atomic_exchange` / RMW).
//!
//! The compiler checks the rest, so no rule does:
//! - a kernel name is `&'static str`: a name borrowed from a caller
//!   does not compile (E0521), so attribution never sees a temporary;
//! - `slabgraph` launches only through `DynGraph::pinned`, which borrows
//!   a live `ReadGuard` for the launch, and `DynGraph::batch`, which
//!   advances the era once after its launches; `clippy.toml` disallows
//!   every other `Device` launch or era advance there and in the router;
//! - the guards are `#[must_use]` and the libraries deny
//!   `let_underscore_drop`, so a guard cannot be discarded at birth;
//! - a discarded `PhaseGuard` is `#[must_use]` too, and the `PerfCounters`
//!   mutators are crate-private;
//! - in the router, clippy rejects a `Device` constructor and an
//!   unwrapped or discarded dispatch outcome, and `DeviceGroup::dispatch`
//!   takes every shard's `TraceCtx`.
//!
//! ## Usage
//!
//! ```text
//! cargo run --bin lint-kernels              # scan ., human report
//! cargo run --bin lint-kernels -- --json    # machine report on stdout
//! cargo run --bin lint-kernels -- --write-allow   # regenerate lint-allow.txt
//! ```
//!
//! Every run also writes `target/lint/report.json` (pretty-printed
//! JSON). Exit
//! status: 0 clean/budgeted, 1 findings outside the budget (new findings,
//! stale allowlist entries, or a budget above the ratchet), 2 usage/IO
//! error.
//!
//! ## Allowlist ratchet
//!
//! `lint-allow.txt` budgets known findings with exact `RULE:path:line`
//! spans and a `# ratchet: N` ceiling; see `tools/lint/report.rs`. CI
//! fails when the budget grows — debt can only be paid down.

#[path = "lint/mod.rs"]
mod lint;

use lint::report::{Allowlist, LintReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut write_allow = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--write-allow" => write_allow = true,
            "--help" | "-h" => {
                eprintln!("usage: lint-kernels [ROOT] [--json] [--write-allow]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                eprintln!("lint-kernels: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let files = match lint::scan_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("lint-kernels: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = lint::analyze(&files);

    if write_allow {
        let text = Allowlist::write(&report.findings);
        let path = root.join("lint-allow.txt");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("lint-kernels: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "lint-kernels: wrote {} ({} entries)",
            path.display(),
            report.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let allow = match std::fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(allow) => allow,
            Err(e) => {
                eprintln!("lint-kernels: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => Allowlist::default(),
    };
    report.apply_allowlist(&allow);

    if let Err(e) = export_json(&report, &root) {
        eprintln!("lint-kernels: {e}");
        return ExitCode::from(2);
    }

    if json {
        println!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.render());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write `target/lint/report.json`.
fn export_json(report: &LintReport, root: &Path) -> Result<(), String> {
    let rendered = report.to_json().render_pretty();
    let dir = root.join("target/lint");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("report.json");
    std::fs::write(&path, rendered).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
