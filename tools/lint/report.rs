//! Lint report: rendering, JSON export, and the allowlist ratchet.
//!
//! ## Allowlist format
//!
//! `lint-allow.txt` carries one entry per *budgeted* finding, with a
//! precise span:
//!
//! ```text
//! # ratchet: 42
//! R1:crates/core/src/edge_ops.rs:161  # status marks are host bookkeeping
//! ```
//!
//! The check is three-sided:
//! - a finding with no matching entry is **new** → fail;
//! - an entry with no matching finding is **stale** → fail (the debt was
//!   paid; the entry must be deleted so the budget shrinks);
//! - an entry count other than the `# ratchet:` header's → fail. A ratchet
//!   above the count would be silent headroom for new debt, so paying an
//!   entry down means lowering the ratchet with it.
//!
//! `--write-allow` regenerates the file from the current findings with the
//! ratchet set to exactly that count.

use super::effects::Effects;
use super::rules::{rule_meta, Finding, RULES};
use gpu_sim::Json;

/// One kernel's effect summary, as exported in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Literal kernel name, or `<dynamic>` when the name argument is not a
    /// string literal.
    pub name: String,
    pub path: String,
    pub line: u32,
    pub func: String,
    pub launcher: String,
    /// Direct accesses: (kind, key, method, line).
    pub accesses: Vec<(String, String, String, u32)>,
    /// Allocator calls (name, line).
    pub allocs: Vec<(String, u32)>,
    /// Pin-protocol calls (name, line).
    pub pins: Vec<(String, u32)>,
}

impl KernelSummary {
    pub fn new(
        name: &str,
        path: &str,
        line: u32,
        func: &str,
        launcher: &str,
        fx: &Effects,
    ) -> Self {
        KernelSummary {
            name: name.to_string(),
            path: path.to_string(),
            line,
            func: func.to_string(),
            launcher: launcher.to_string(),
            accesses: fx
                .accesses
                .iter()
                .map(|a| {
                    (
                        a.kind.as_str().to_string(),
                        a.key.clone(),
                        a.method.clone(),
                        a.line,
                    )
                })
                .collect(),
            allocs: fx.alloc_calls.clone(),
            pins: fx.pin_calls.clone(),
        }
    }
}

/// One allowlist entry: an exact finding span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub note: String,
}

impl AllowEntry {
    pub fn spelling(&self) -> String {
        if self.note.is_empty() {
            format!("{}:{}:{}", self.rule, self.path, self.line)
        } else {
            format!("{}:{}:{}  # {}", self.rule, self.path, self.line, self.note)
        }
    }
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub ratchet: usize,
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse `lint-allow.txt` text. Unparseable lines are reported as
    /// errors, not ignored: a typo must not silently widen the budget.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut list = Allowlist::default();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if let Some(v) = rest.trim().strip_prefix("ratchet:") {
                    list.ratchet = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("lint-allow.txt:{}: bad ratchet", n + 1))?;
                }
                continue;
            }
            let (span, note) = match line.split_once('#') {
                Some((s, c)) => (s.trim(), c.trim().to_string()),
                None => (line, String::new()),
            };
            let mut parts = span.splitn(3, ':');
            let (rule, path, lineno) = (parts.next(), parts.next(), parts.next());
            let entry = match (rule, path, lineno) {
                (Some(r), Some(p), Some(l)) if RULES.iter().any(|m| m.id == r) => AllowEntry {
                    rule: r.to_string(),
                    path: p.to_string(),
                    line: l
                        .trim()
                        .parse()
                        .map_err(|_| format!("lint-allow.txt:{}: bad line number", n + 1))?,
                    note,
                },
                _ => {
                    return Err(format!(
                        "lint-allow.txt:{}: expected `RULE:path:line[  # note]`, got `{line}`",
                        n + 1
                    ))
                }
            };
            list.entries.push(entry);
        }
        Ok(list)
    }

    /// Regenerate the allowlist text from the current findings.
    pub fn write(findings: &[Finding]) -> String {
        let mut out = String::new();
        out.push_str(
            "# Kernel-lint budget: every entry is one known finding, pinned to an exact\n",
        );
        out.push_str(
            "# `RULE:path:line` span. The ratchet must equal the entry count — CI fails if\n",
        );
        out.push_str(
            "# they differ, if a finding has no entry, or if an entry goes stale (pay down\n",
        );
        out.push_str("# debt by deleting the entry AND lowering the ratchet).\n");
        out.push_str("# Regenerate with `cargo run --bin lint-kernels -- --write-allow`.\n");
        out.push_str(&format!("# ratchet: {}\n", findings.len()));
        for f in findings {
            out.push_str(&format!("{}:{}:{}\n", f.rule, f.path, f.line));
        }
        out
    }
}

/// The full lint report.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: u32,
    pub kernels: Vec<KernelSummary>,
    pub findings: Vec<Finding>,
    /// `findings[i]` is budgeted by an allowlist entry.
    pub allowed: Vec<bool>,
    pub ratchet: u32,
    pub allow_entries: u32,
    /// Allowlist entries that matched no finding (their spelling).
    pub stale: Vec<String>,
}

impl LintReport {
    /// Match findings against the allowlist and record the verdict inputs.
    pub fn apply_allowlist(&mut self, allow: &Allowlist) {
        let mut used = vec![false; allow.entries.len()];
        self.allowed = self
            .findings
            .iter()
            .map(|f| {
                match allow.entries.iter().enumerate().find(|(i, e)| {
                    !used[*i] && e.rule == f.rule && e.path == f.path && e.line == f.line
                }) {
                    Some((i, _)) => {
                        used[i] = true;
                        true
                    }
                    None => false,
                }
            })
            .collect();
        self.stale = allow
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.spelling())
            .collect();
        self.ratchet = allow.ratchet as u32;
        self.allow_entries = allow.entries.len() as u32;
    }

    pub fn new_findings(&self) -> usize {
        self.allowed.iter().filter(|a| !**a).count()
    }

    /// The overall verdict: every finding budgeted, no stale entry, and
    /// the ratchet equal to the entry count.
    pub fn ok(&self) -> bool {
        self.new_findings() == 0 && self.stale.is_empty() && self.allow_entries == self.ratchet
    }

    /// Human rendering, `TraceReport`-style: an aligned findings table
    /// followed by the budget line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lint-kernels: {} files, {} kernels, {} findings ({} budgeted, {} new)\n",
            self.files_scanned,
            self.kernels.len(),
            self.findings.len(),
            self.findings.len() - self.new_findings(),
            self.new_findings(),
        ));
        if !self.findings.is_empty() {
            const HEADERS: [&str; 4] = ["rule", "where", "kernel/fn", "finding"];
            let rows: Vec<[String; 4]> = self
                .findings
                .iter()
                .zip(&self.allowed)
                .map(|(f, allowed)| {
                    let meta = rule_meta(&f.rule);
                    [
                        format!(
                            "{} {}{}",
                            f.rule,
                            meta.name,
                            if *allowed { " (budgeted)" } else { "" }
                        ),
                        format!("{}:{}", f.path, f.line),
                        if f.kernel.is_empty() {
                            f.func.clone()
                        } else {
                            format!("`{}`", f.kernel)
                        },
                        f.message.clone(),
                    ]
                })
                .collect();
            let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.len()).collect();
            for row in &rows {
                for (w, cell) in widths.iter_mut().zip(row.iter()) {
                    *w = (*w).max(cell.len());
                }
            }
            let fmt_row = |cells: &[String]| {
                let mut line = String::new();
                for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                    if i > 0 {
                        line.push_str("  ");
                    }
                    line.push_str(&format!("{cell:<w$}"));
                }
                line.truncate(line.trim_end().len());
                line.push('\n');
                line
            };
            let header: Vec<String> = HEADERS.iter().map(|h| h.to_string()).collect();
            out.push_str(&fmt_row(&header));
            out.push_str(&fmt_row(
                &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
            ));
            for row in &rows {
                out.push_str(&fmt_row(row));
            }
            for (f, allowed) in self.findings.iter().zip(&self.allowed) {
                if !*allowed && !f.excerpt.is_empty() {
                    out.push_str(&format!("  {}:{}  >  {}\n", f.path, f.line, f.excerpt));
                }
            }
        }
        if !self.stale.is_empty() {
            out.push_str(
                "stale allowlist entries (finding fixed; delete the entry, lower the ratchet):\n",
            );
            for s in &self.stale {
                out.push_str(&format!("  {s}\n"));
            }
        }
        out.push_str(&format!(
            "budget: {} entries / ratchet {}{} — {}\n",
            self.allow_entries,
            self.ratchet,
            if self.allow_entries == self.ratchet {
                ""
            } else {
                " (mismatch: set the ratchet to the entry count)"
            },
            if self.ok() { "OK" } else { "FAIL" }
        ));
        out
    }

    /// Export as a JSON value (written to `target/lint/report.json`).
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .zip(&self.allowed)
            .map(|(f, allowed)| {
                Json::Obj(vec![
                    ("rule".into(), Json::str(&f.rule)),
                    ("name".into(), Json::str(rule_meta(&f.rule).name)),
                    ("path".into(), Json::str(&f.path)),
                    ("line".into(), Json::u64(f.line as u64)),
                    ("kernel".into(), Json::str(&f.kernel)),
                    ("func".into(), Json::str(&f.func)),
                    ("message".into(), Json::str(&f.message)),
                    ("excerpt".into(), Json::str(&f.excerpt)),
                    ("allowed".into(), Json::Bool(*allowed)),
                ])
            })
            .collect();
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&k.name)),
                    ("path".into(), Json::str(&k.path)),
                    ("line".into(), Json::u64(k.line as u64)),
                    ("func".into(), Json::str(&k.func)),
                    ("launcher".into(), Json::str(&k.launcher)),
                    (
                        "accesses".into(),
                        Json::Arr(
                            k.accesses
                                .iter()
                                .map(|(kind, key, method, line)| {
                                    Json::Obj(vec![
                                        ("kind".into(), Json::str(kind)),
                                        ("key".into(), Json::str(key)),
                                        ("method".into(), Json::str(method)),
                                        ("line".into(), Json::u64(*line as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("allocs".into(), named_lines(&k.allocs)),
                    ("pins".into(), named_lines(&k.pins)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("tool".into(), Json::str("lint-kernels")),
            ("schema".into(), Json::u64(1)),
            ("files_scanned".into(), Json::u64(self.files_scanned as u64)),
            ("kernels".into(), Json::Arr(kernels)),
            ("findings".into(), Json::Arr(findings)),
            (
                "allow".into(),
                Json::Obj(vec![
                    ("ratchet".into(), Json::u64(self.ratchet as u64)),
                    ("entries".into(), Json::u64(self.allow_entries as u64)),
                    (
                        "stale".into(),
                        Json::Arr(self.stale.iter().map(Json::str).collect()),
                    ),
                ]),
            ),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("findings".into(), Json::u64(self.findings.len() as u64)),
                    ("new".into(), Json::u64(self.new_findings() as u64)),
                    ("ok".into(), Json::Bool(self.ok())),
                ]),
            ),
        ])
    }
}

fn named_lines(pairs: &[(String, u32)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(name, line)| {
                Json::Obj(vec![
                    ("call".into(), Json::str(name)),
                    ("line".into(), Json::u64(*line as u64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport {
            files_scanned: 3,
            kernels: vec![KernelSummary {
                name: "edge_insert".into(),
                path: "crates/core/src/edge_ops.rs".into(),
                line: 150,
                func: "run_edge_kernel".into(),
                launcher: "launch_warps".into(),
                accesses: vec![(
                    "cas".into(),
                    "const:NEXT_LANE".into(),
                    "atomic_cas".into(),
                    795,
                )],
                allocs: vec![("try_allocate".into(), 700)],
                pins: vec![],
            }],
            findings: vec![Finding {
                rule: "R2".into(),
                path: "crates/bench/benches/structures.rs".into(),
                line: 47,
                kernel: String::new(),
                func: "bench_insert".into(),
                message: "Ordering::Relaxed outside gpu-sim".into(),
                excerpt: "x.fetch_add(1, Ordering::Relaxed);".into(),
            }],
            ..Default::default()
        };
        r.apply_allowlist(
            &Allowlist::parse("# ratchet: 1\nR2:crates/bench/benches/structures.rs:47\n").unwrap(),
        );
        r
    }

    #[test]
    fn allowlist_matches_spans_and_flags_stale() {
        let allow =
            Allowlist::parse("# ratchet: 2\nR2:a.rs:10\nR1:b.rs:20  # staged writes\n").unwrap();
        assert_eq!(allow.ratchet, 2);
        assert_eq!(allow.entries[1].note, "staged writes");
        let mut report = LintReport {
            findings: vec![Finding {
                rule: "R2".into(),
                path: "a.rs".into(),
                line: 10,
                kernel: String::new(),
                func: String::new(),
                message: String::new(),
                excerpt: String::new(),
            }],
            ..Default::default()
        };
        report.apply_allowlist(&allow);
        assert_eq!(report.new_findings(), 0);
        assert_eq!(
            report.stale,
            vec!["R1:b.rs:20  # staged writes".to_string()]
        );
        assert!(!report.ok());
    }

    #[test]
    fn allowlist_rejects_typos() {
        assert!(Allowlist::parse("R99:a.rs:1\n").is_err());
        assert!(Allowlist::parse("R2:a.rs:notaline\n").is_err());
        assert!(Allowlist::parse("just some words\n").is_err());
    }

    #[test]
    fn write_allow_pins_the_ratchet_to_the_finding_count() {
        let report = sample();
        let text = Allowlist::write(&report.findings);
        let parsed = Allowlist::parse(&text).unwrap();
        assert_eq!(parsed.ratchet, 1);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].rule, "R2");
        assert_eq!(parsed.entries[0].line, 47);
    }

    #[test]
    fn ratchet_must_equal_the_entry_count() {
        for (ratchet, ok) in [(1, true), (2, false), (0, false)] {
            let mut report = sample();
            let text = format!("# ratchet: {ratchet}\nR2:crates/bench/benches/structures.rs:47\n");
            report.apply_allowlist(&Allowlist::parse(&text).unwrap());
            assert_eq!(report.ok(), ok, "ratchet {ratchet}");
            assert_eq!(
                report.render().contains("mismatch"),
                !ok,
                "ratchet {ratchet}"
            );
        }
    }
}
