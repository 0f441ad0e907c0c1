//! # bench-gate — exact counter gate for `BENCH_tables.json`
//!
//! ```text
//! bench-gate PARENT CURRENT ACCEPT
//! ```
//!
//! Compares the cost counters of `CURRENT` (the committed
//! `BENCH_tables.json`) with those of `PARENT` (the parent commit's, from
//! `git show HEAD^1:BENCH_tables.json`). Every table records, per priced
//! phase, the integer terms transactions, atomics, ballots+shuffles and
//! launches; a counter is keyed `table/label term`. Run to run they
//! reproduce exactly (the modeled clock), so the comparison is exact:
//!
//! - a counter that rose, or a key that vanished, fails the gate, unless
//!   the reviewed `ACCEPT` file holds its change line verbatim:
//!   `table/label term old -> new` (`new` is `-` for a vanished key);
//! - an `ACCEPT` line that matches no such change fails too, so the file
//!   holds exactly the current commit's accepted rises;
//! - a counter that fell passes and is printed; a new key passes.
//!
//! `ACCEPT` ignores blank lines and `#` comments. Every failure prints
//! its change line, ready to be accepted.

use gpu_sim::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every counter of an artifact, keyed `table/label term`.
type Counters = BTreeMap<String, u64>;

/// The counters of every table of a `BENCH_tables.json` document. A
/// table without `counters` contributes none.
fn counters(doc: &Json) -> Result<Counters, String> {
    let mut out = Counters::new();
    let tables = doc
        .get("tables")
        .and_then(Json::as_arr)
        .ok_or("no `tables` array")?;
    for table in tables {
        let id = table
            .get("id")
            .and_then(Json::as_str)
            .ok_or("a table without an id")?;
        let Some(Json::Obj(phases)) = table.get("counters") else {
            continue;
        };
        for (label, terms) in phases {
            let Json::Obj(terms) = terms else {
                return Err(format!("{id}/{label}: not an object of counters"));
            };
            for (term, value) in terms {
                let value = value
                    .as_u64()
                    .ok_or_else(|| format!("{id}/{label} {term}: not an integer"))?;
                out.insert(format!("{id}/{label} {term}"), value);
            }
        }
    }
    Ok(out)
}

/// What the comparison found: lines to print, and the failures among them.
#[derive(Default)]
struct Verdict {
    report: Vec<String>,
    failures: Vec<String>,
}

fn gate(parent: &Counters, current: &Counters, accept: &str) -> Verdict {
    let mut accepted: BTreeMap<&str, bool> = accept
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| (l, false))
        .collect();
    let mut v = Verdict::default();
    for (key, &old) in parent {
        let line = match current.get(key) {
            Some(&new) if new < old => {
                v.report.push(format!("fell: {key} {old} -> {new}"));
                continue;
            }
            Some(&new) if new == old => continue,
            Some(&new) => format!("{key} {old} -> {new}"),
            None => format!("{key} {old} -> -"),
        };
        if let Some(used) = accepted.get_mut(line.as_str()) {
            *used = true;
            v.report.push(format!("accepted: {line}"));
        } else {
            v.failures.push(format!("rose or vanished: {line}"));
        }
    }
    for (line, used) in accepted {
        if !used {
            v.failures
                .push(format!("stale accept entry (matches no rise): {line}"));
        }
    }
    let new_keys = current.keys().filter(|k| !parent.contains_key(*k)).count();
    v.report.push(format!(
        "{} counters compared, {new_keys} new",
        current.len() - new_keys
    ));
    v
}

fn read_counters(path: &str) -> Result<Counters, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    counters(&doc).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, current, accept] = args.as_slice() else {
        eprintln!("usage: bench-gate PARENT CURRENT ACCEPT");
        return ExitCode::from(2);
    };
    let inputs = read_counters(parent).and_then(|p| {
        let accept = std::fs::read_to_string(accept).map_err(|e| format!("{accept}: {e}"))?;
        Ok((p, read_counters(current)?, accept))
    });
    let (parent, current, accept) = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let v = gate(&parent, &current, &accept);
    for line in &v.report {
        println!("bench-gate: {line}");
    }
    for line in &v.failures {
        eprintln!("bench-gate: FAIL {line}");
    }
    if v.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters of the committed `BENCH_tables.json`.
    fn committed() -> Counters {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_tables.json");
        read_counters(path).expect("BENCH_tables.json is committed with counters")
    }

    /// One counter of the `churn` table's sharded row.
    const KEY: &str = "churn/ShardedSlabGraph r1 inserts transactions";

    fn fails_with(v: &Verdict, what: &str) -> bool {
        v.failures.iter().any(|f| f.contains(what))
    }

    #[test]
    fn committed_file_passes_against_itself() {
        let c = committed();
        let v = gate(&c, &c, "");
        assert!(v.failures.is_empty(), "{:?}", v.failures);
    }

    #[test]
    fn every_table_the_rounded_gate_covered_records_counters() {
        let c = committed();
        for table in [
            "churn",
            "churn_sharded",
            "churn_shard_throughput",
            "churn_chaos",
        ] {
            let prefix = format!("{table}/");
            assert!(c.keys().any(|k| k.starts_with(&prefix)), "{table}");
        }
        assert!(c.contains_key(KEY));
    }

    #[test]
    fn a_counter_rise_fails() {
        let parent = committed();
        let mut current = parent.clone();
        *current.get_mut(KEY).unwrap() += 1;
        assert!(fails_with(&gate(&parent, &current, ""), KEY));
    }

    #[test]
    fn a_vanished_key_fails() {
        let parent = committed();
        let mut current = parent.clone();
        let old = current.remove(KEY).unwrap();
        let v = gate(&parent, &current, "");
        assert!(fails_with(&v, &format!("{KEY} {old} -> -")));
    }

    #[test]
    fn a_stale_accept_entry_fails() {
        let c = committed();
        let old = c[KEY];
        let line = format!("{KEY} {old} -> {}", old + 1);
        let v = gate(&c, &c, &format!("# accepted rises\n{line}\n"));
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        assert!(fails_with(
            &v,
            &format!("stale accept entry (matches no rise): {line}")
        ));
    }

    #[test]
    fn an_accepted_rise_passes() {
        let parent = committed();
        let mut current = parent.clone();
        let old = parent[KEY];
        current.insert(KEY.to_string(), old + 48);
        let v = gate(&parent, &current, &format!("{KEY} {old} -> {}\n", old + 48));
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert!(v
            .report
            .iter()
            .any(|l| l.starts_with("accepted: ") && l.contains(KEY)));
    }

    #[test]
    fn a_decrease_passes_and_is_printed() {
        let parent = committed();
        let mut current = parent.clone();
        *current.get_mut(KEY).unwrap() -= 1;
        let v = gate(&parent, &current, "");
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        let old = parent[KEY];
        let fell = format!("fell: {KEY} {old} -> {}", old - 1);
        assert!(v.report.contains(&fell), "{:?}", v.report);
    }

    #[test]
    fn a_parent_without_counters_passes_every_key_as_new() {
        let current = committed();
        let v = gate(&Counters::new(), &current, "");
        assert!(v.failures.is_empty());
        let summary = format!("0 counters compared, {} new", current.len());
        assert_eq!(v.report, [summary]);
    }
}
