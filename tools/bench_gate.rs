//! # bench-gate — modeled-performance regression gate for bench artifacts
//!
//! Compares fresh `BENCH_*.json` artifacts (the `bench-trajectory-v1`
//! schema written by `bench::harness::write_bench_artifact`) against
//! committed baselines in `benchmarks/baselines/`, and fails CI when a
//! modeled-throughput figure drops — or a modeled-latency figure rises —
//! beyond the per-metric noise tolerance. Self-contained on purpose: the
//! only dependency is the workspace's own [`gpu_sim::Json`], so the gate
//! builds offline and cannot drift out of sync with the artifact schema.
//!
//! ## Metric model
//!
//! Every numeric cell of every table becomes a metric keyed
//! `table-id/row-key/column-header` (the row key is the row's first
//! cell, suffixed `#n` on repeats). Whole words of the column header
//! (split on whitespace and brackets, case-insensitive) classify the cell:
//!
//! - **throughput** (higher is better): a word ending in `/s`, or the
//!   word `MUps` or `speedup` — a drop below `baseline * (1 - tolerance)`
//!   fails.
//! - **latency** (lower is better): the word `ms`, `us`, `ns`, or
//!   `latency` — a rise above `baseline * (1 + tolerance)` fails.
//! - anything else (row counts, hit counts, journal depths) is recorded
//!   for context but never gated.
//!
//! Wall-clock columns (header contains `wall`) and the
//! `readers_vs_writers` table are skipped entirely: they measure real
//! thread interleaving, which is not deterministic run to run. Everything
//! else in the artifacts runs on the modeled clock and reproduces
//! exactly, so the default 10% tolerance is pure headroom.
//!
//! ## Usage
//!
//! ```text
//! bench-gate [--baseline-dir DIR] [--tolerance FRAC] FILES...
//! bench-gate --write-baseline [--allow-regression] FILES...
//! bench-gate --selftest FILES...
//! ```
//!
//! `--write-baseline` regenerates `DIR/<workload>.json` from the given
//! artifacts, but **refuses to loosen**: if the fresh figures regress
//! beyond tolerance relative to the committed baseline it exits nonzero
//! (same ratchet discipline as `lint-allow.txt`), unless
//! `--allow-regression` records the regression deliberately.
//!
//! `--selftest` proves the gate has teeth: it checks that headers such as
//! `sessions` and `flush ms` class as info and latency, gates the
//! artifacts normally (must pass), then perturbs the first gated
//! throughput baseline beyond tolerance in memory and asserts the gate
//! now fails.

use gpu_sim::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tables whose figures depend on real thread interleaving, not the
/// modeled clock; gating them would flake.
const SKIP_TABLES: [&str; 1] = ["readers_vs_writers"];

const DEFAULT_TOLERANCE: f64 = 0.10;
const BASELINE_SCHEMA: &str = "bench-gate-baseline-v1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Throughput,
    Latency,
    Info,
}

impl Class {
    /// Classify a column by the whole unit tokens of its header, never by
    /// substrings: `sessions` ends in `ns` but is a count.
    fn of(header: &str) -> Class {
        let h = header.to_ascii_lowercase();
        let tokens: Vec<&str> = h
            .split(|c: char| c.is_whitespace() || "()[],".contains(c))
            .filter(|t| !t.is_empty())
            .collect();
        let any = |pred: fn(&str) -> bool| tokens.iter().any(|t| pred(t));
        if any(|t| t.ends_with("/s") || t == "mups" || t == "speedup") {
            Class::Throughput
        } else if any(|t| matches!(t, "ms" | "us" | "ns" | "latency")) {
            Class::Latency
        } else {
            Class::Info
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Class::Throughput => "throughput",
            Class::Latency => "latency",
            Class::Info => "info",
        }
    }

    fn parse(s: &str) -> Option<Class> {
        match s {
            "throughput" => Some(Class::Throughput),
            "latency" => Some(Class::Latency),
            "info" => Some(Class::Info),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    key: String,
    class: Class,
    value: f64,
}

/// Flatten a `bench-trajectory-v1` artifact into keyed metrics.
/// Returns `(workload, metrics)`.
fn extract(artifact: &Json, path: &Path) -> Result<(String, Vec<Metric>), String> {
    let schema = artifact.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "bench-trajectory-v1" {
        return Err(format!(
            "{}: unsupported schema {schema:?} (want bench-trajectory-v1)",
            path.display()
        ));
    }
    let workload = artifact
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: missing workload", path.display()))?
        .to_string();
    let tables = artifact
        .get("tables")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing tables", path.display()))?;
    let mut out = Vec::new();
    for table in tables {
        let id = table.get("id").and_then(Json::as_str).unwrap_or("?");
        if SKIP_TABLES.contains(&id) {
            continue;
        }
        let headers: Vec<&str> = table
            .get("headers")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let rows = table.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
        let mut seen_keys: Vec<String> = Vec::new();
        for row in rows {
            let cells: Vec<&str> = row
                .as_arr()
                .map(|a| a.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default();
            let first = cells.first().copied().unwrap_or("?");
            let repeats = seen_keys.iter().filter(|k| *k == first).count();
            seen_keys.push(first.to_string());
            let row_key = if repeats == 0 {
                first.to_string()
            } else {
                format!("{first}#{repeats}")
            };
            for (j, cell) in cells.iter().enumerate().skip(1) {
                let header = headers.get(j).copied().unwrap_or("?");
                if header.to_ascii_lowercase().contains("wall") {
                    continue;
                }
                let Ok(value) = cell.parse::<f64>() else {
                    continue;
                };
                out.push(Metric {
                    key: format!("{id}/{row_key}/{header}"),
                    class: Class::of(header),
                    value,
                });
            }
        }
    }
    Ok((workload, out))
}

fn baseline_to_json(workload: &str, source: &Path, metrics: &[Metric]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(BASELINE_SCHEMA)),
        ("workload".into(), Json::str(workload)),
        ("source".into(), Json::str(source.display().to_string())),
        (
            "metrics".into(),
            Json::Arr(
                metrics
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("key".into(), Json::str(m.key.clone())),
                            ("class".into(), Json::str(m.class.as_str())),
                            ("value".into(), Json::f64(m.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn baseline_from_json(v: &Json, path: &Path) -> Result<Vec<Metric>, String> {
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BASELINE_SCHEMA {
        return Err(format!(
            "{}: unsupported baseline schema {schema:?}",
            path.display()
        ));
    }
    let arr = v
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing metrics", path.display()))?;
    arr.iter()
        .map(|m| {
            let key = m
                .get("key")
                .and_then(Json::as_str)
                .ok_or("baseline metric missing key")?
                .to_string();
            let class = m
                .get("class")
                .and_then(Json::as_str)
                .and_then(Class::parse)
                .ok_or_else(|| format!("baseline metric {key}: bad class"))?;
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("baseline metric {key}: bad value"))?;
            Ok(Metric { key, class, value })
        })
        .collect::<Result<Vec<_>, String>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One gated metric that moved the wrong way beyond tolerance.
#[derive(Debug)]
struct Regression {
    key: String,
    class: Class,
    baseline: f64,
    fresh: f64,
}

/// Compare fresh metrics against a baseline. Returns `(gated, missing,
/// regressions)`: how many metrics were actually held to the tolerance,
/// baseline metrics absent from the fresh artifact (reported, not fatal —
/// table shapes legitimately vary with bench flags), and the failures.
fn compare(
    baseline: &[Metric],
    fresh: &[Metric],
    tolerance: f64,
) -> (usize, Vec<String>, Vec<Regression>) {
    let lookup: std::collections::BTreeMap<&str, &Metric> =
        fresh.iter().map(|m| (m.key.as_str(), m)).collect();
    let mut gated = 0usize;
    let mut missing = Vec::new();
    let mut regressions = Vec::new();
    for b in baseline {
        if b.class == Class::Info {
            continue;
        }
        let Some(f) = lookup.get(b.key.as_str()) else {
            missing.push(b.key.clone());
            continue;
        };
        if b.value == 0.0 {
            continue; // no meaningful relative bound
        }
        gated += 1;
        let fails = match b.class {
            Class::Throughput => f.value < b.value * (1.0 - tolerance),
            Class::Latency => f.value > b.value * (1.0 + tolerance),
            Class::Info => false,
        };
        if fails {
            regressions.push(Regression {
                key: b.key.clone(),
                class: b.class,
                baseline: b.value,
                fresh: f.value,
            });
        }
    }
    (gated, missing, regressions)
}

fn report_regressions(regressions: &[Regression], tolerance: f64) {
    for r in regressions {
        let delta = (r.fresh - r.baseline) / r.baseline * 100.0;
        eprintln!(
            "REGRESSION [{}] {}: {} -> {} ({:+.1}%, tolerance {:.0}%)",
            r.class.as_str(),
            r.key,
            r.baseline,
            r.fresh,
            delta,
            tolerance * 100.0
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-gate [--baseline-dir DIR] [--tolerance FRAC] \
         [--write-baseline] [--allow-regression] [--selftest] FILES..."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from("benchmarks/baselines");
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut write_baseline = false;
    let mut allow_regression = false;
    let mut selftest = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline-dir" => baseline_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--write-baseline" => write_baseline = true,
            "--allow-regression" => allow_regression = true,
            "--selftest" => selftest = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        usage();
    }

    let mut failed = false;
    if selftest {
        // Header classification must go by whole unit tokens.
        for (header, want) in [
            ("sessions", Class::Info),
            ("flush ms", Class::Latency),
            ("inserts MEdge/s", Class::Throughput),
            ("speedup vs 1 shard", Class::Throughput),
        ] {
            let got = Class::of(header);
            if got != want {
                eprintln!(
                    "bench-gate: selftest FAILED: {header:?} classed {}, want {}",
                    got.as_str(),
                    want.as_str()
                );
                failed = true;
            }
        }
    }
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-gate: cannot read {}: {e}", file.display());
                failed = true;
                continue;
            }
        };
        let artifact = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-gate: {}: {e}", file.display());
                failed = true;
                continue;
            }
        };
        let (workload, fresh) = match extract(&artifact, file) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("bench-gate: {e}");
                failed = true;
                continue;
            }
        };
        let baseline_path = baseline_dir.join(format!("{workload}.json"));

        if write_baseline {
            // Ratchet: a new baseline must not silently record a
            // regression against the committed one.
            if !allow_regression {
                if let Ok(old_text) = std::fs::read_to_string(&baseline_path) {
                    let old = Json::parse(&old_text)
                        .map_err(|e| format!("{}: {e}", baseline_path.display()))
                        .and_then(|v| baseline_from_json(&v, &baseline_path));
                    match old {
                        Ok(old) => {
                            let (_, _, regressions) = compare(&old, &fresh, tolerance);
                            if !regressions.is_empty() {
                                report_regressions(&regressions, tolerance);
                                eprintln!(
                                    "bench-gate: refusing to loosen {} ({} regressed \
                                     metric(s)); rerun with --allow-regression to \
                                     record this deliberately",
                                    baseline_path.display(),
                                    regressions.len()
                                );
                                failed = true;
                                continue;
                            }
                        }
                        Err(e) => eprintln!("bench-gate: ignoring unreadable baseline: {e}"),
                    }
                }
            }
            if let Some(parent) = baseline_path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let json = baseline_to_json(&workload, file, &fresh).render_pretty();
            if let Err(e) = std::fs::write(&baseline_path, json + "\n") {
                eprintln!("bench-gate: cannot write {}: {e}", baseline_path.display());
                failed = true;
                continue;
            }
            println!(
                "bench-gate: wrote {} ({} metrics from {})",
                baseline_path.display(),
                fresh.len(),
                file.display()
            );
            continue;
        }

        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "bench-gate: no baseline for workload {workload:?} at {}: {e} \
                     (generate one with --write-baseline)",
                    baseline_path.display()
                );
                failed = true;
                continue;
            }
        };
        let baseline = match Json::parse(&baseline_text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))
            .and_then(|v| baseline_from_json(&v, &baseline_path))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench-gate: {e}");
                failed = true;
                continue;
            }
        };

        let (gated, missing, regressions) = compare(&baseline, &fresh, tolerance);
        for key in &missing {
            eprintln!("bench-gate: note: baseline metric {key} absent from fresh artifact");
        }
        if !regressions.is_empty() {
            report_regressions(&regressions, tolerance);
            eprintln!(
                "bench-gate: {}: {} regression(s) across {gated} gated metric(s)",
                file.display(),
                regressions.len()
            );
            failed = true;
            continue;
        }
        println!(
            "bench-gate: {}: OK ({gated} gated metric(s), {} informational, \
             tolerance {:.0}%)",
            file.display(),
            fresh.len() - gated,
            tolerance * 100.0
        );

        if selftest {
            // Teeth check: shift the first gated baseline figure
            // (throughput preferred, latency otherwise) so the fresh
            // value reads as a regression beyond tolerance — the
            // comparison must now fail.
            let mut perturbed = baseline.clone();
            let Some(victim) = perturbed
                .iter_mut()
                .filter(|m| m.value > 0.0)
                .min_by_key(|m| match m.class {
                    Class::Throughput => 0,
                    Class::Latency => 1,
                    Class::Info => 2,
                })
                .filter(|m| m.class != Class::Info)
            else {
                eprintln!(
                    "bench-gate: selftest: {} has no gated metric",
                    baseline_path.display()
                );
                failed = true;
                continue;
            };
            let key = victim.key.clone();
            match victim.class {
                // Raise the throughput bar / lower the latency bar far
                // enough that the unchanged fresh figure violates it.
                Class::Throughput => victim.value *= 1.0 / (1.0 - tolerance) + 1.0,
                Class::Latency => victim.value *= (1.0 - tolerance) / (1.0 + tolerance) / 2.0,
                Class::Info => unreachable!(),
            }
            let (_, _, regressions) = compare(&perturbed, &fresh, tolerance);
            if regressions.iter().any(|r| r.key == key) {
                println!("bench-gate: selftest OK (perturbing {key} beyond tolerance fails)");
            } else {
                eprintln!("bench-gate: selftest FAILED: perturbed {key} was not caught");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
