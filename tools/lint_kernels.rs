//! # lint-kernels — parse-based dataflow lint for the kernel protocols
//!
//! A small static-analysis engine (self-contained lexer + parser, no
//! external deps — the workspace builds offline) that extracts every
//! kernel closure passed to `launch_tasks` / `launch_warps` / `memset`,
//! computes a per-kernel **effect summary** (arena words read/written,
//! atomic ops, allocator calls, pin/guard uses), and checks six rules over
//! the summaries and the enclosing host code:
//!
//! - **R1 `host-transfer-in-kernel`** — a `Device` host transfer
//!   (`upload` / `try_upload` / `host_write` / `host_read` /
//!   `host_atomic_and`) lexically inside a launch closure outside
//!   `crates/gpu-sim`: uncharged, and invisible to racecheck. Staging and
//!   read-back between launches needs no rule — the arena is private to
//!   gpu-sim, so uncharged access can only go through those named calls.
//! - **R2 `relaxed-ordering`** — `Ordering::Relaxed` outside gpu-sim
//!   defeats the acquire/release discipline published device pointers rely
//!   on. Monotonic statistics counters are budgeted.
//! - **R3 `unnamed-launch`** — a launch whose kernel-name argument is not
//!   a string literal breaks per-kernel attribution and sanitizer
//!   provenance.
//!   (A discarded `PhaseGuard` or a `PerfCounters` mutation outside
//!   gpu-sim needs no rule: the guard is `#[must_use]` and clippy runs
//!   with `-D warnings`; the mutators are crate-private. Nor does the
//!   router: clippy rejects a `Device` constructor there, and an
//!   unwrapped or discarded dispatch outcome, and `DeviceGroup::dispatch`
//!   takes every shard's `TraceCtx`.)
//! - **R8 `pin-escape`** — flow-sensitive guard liveness: every
//!   chain-walking launch in the query path must be dominated by a live
//!   `ReadGuard`; a guard must not be discarded at birth, cross an
//!   `advance_era()`, or escape a function whose return type doesn't
//!   carry it.
//! - **R9 `publication-order`** — an arena word class (keyed by the named
//!   constants in its address expression, e.g. `NEXT_LANE`) written with a
//!   plain store in one kernel but read by a concurrently-running pinned
//!   reader kernel must be published atomically (`atomic_cas` /
//!   `atomic_exchange` / RMW) — statically catching the class of race PR
//!   4's sanitizer found dynamically.
//! - **R10 `era-advance`** — every mutation batch entry point in
//!   `crates/core` and `crates/router` must reach `advance_era()` on its
//!   success paths before acknowledging the batch, and no batch-boundary
//!   function may early-return success between its launch and its
//!   advance.
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
