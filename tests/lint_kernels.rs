//! Integration tests for the kernel-lint static-analysis engine.
//!
//! The engine (`tools/lint/`) is mounted directly, the same way the
//! `lint-kernels` binary mounts it, so these tests exercise the real
//! lexer → parser → effects → rules → report pipeline:
//!
//! - every seeded fixture under `tests/fixtures/lint/` must produce
//!   *exactly* the findings its `//@ expect: RULE@LINE` directives
//!   declare (negative fixtures), or none at all (`//@ expect-clean`
//!   compliant twins);
//! - the workspace report must stay within the `lint-allow.txt` ratchet
//!   and its JSON export must round-trip byte-identically.

#[path = "../tools/lint/mod.rs"]
mod lint;

use lint::report::Allowlist;
use lint::rules::ScannedFile;
use std::collections::BTreeSet;
use std::path::Path;

/// One parsed fixture: the virtual workspace path it claims (rule scopes
/// key off the path), the findings it declares, and its source.
struct Fixture {
    file: String,
    path: String,
    expects: BTreeSet<(String, u32)>,
    expect_clean: bool,
    src: String,
}

fn load_fixtures() -> Vec<Fixture> {
    let dir = Path::new("tests/fixtures/lint");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/fixtures/lint must exist")
        .map(|e| e.expect("readable fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no lint fixtures found");
    let mut fixtures = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(&p).expect("readable fixture");
        let mut path = String::new();
        let mut expects = BTreeSet::new();
        let mut expect_clean = false;
        for line in src.lines() {
            let Some(rest) = line.strip_prefix("//@") else {
                continue;
            };
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("path:") {
                path = v.trim().to_string();
            } else if let Some(v) = rest.strip_prefix("expect:") {
                let (rule, at) = v
                    .trim()
                    .split_once('@')
                    .expect("directive form is `//@ expect: RULE@LINE`");
                expects.insert((rule.to_string(), at.parse().expect("line number")));
            } else if rest == "expect-clean" {
                expect_clean = true;
            } else {
                panic!("{}: unknown directive `//@ {rest}`", p.display());
            }
        }
        let file = p.file_name().unwrap().to_string_lossy().to_string();
        assert!(!path.is_empty(), "{file}: missing `//@ path:` directive");
        assert!(
            expect_clean == expects.is_empty(),
            "{file}: declare either `//@ expect:` findings or `//@ expect-clean`"
        );
        fixtures.push(Fixture {
            file,
            path,
            expects,
            expect_clean,
            src,
        });
    }
    fixtures
}

/// Analyze one fixture in isolation (its own effect index) and return the
/// (rule, line) set of findings.
fn findings_of(fx: &Fixture) -> BTreeSet<(String, u32)> {
    let sf = ScannedFile::new(&fx.path, &fx.src);
    let report = lint::analyze(&[sf]);
    for f in &report.findings {
        assert_eq!(
            f.path, fx.path,
            "{}: finding attributed to the wrong path",
            fx.file
        );
    }
    report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect()
}

/// Every rule (R1, R9) has a negative fixture, every negative
/// fixture is flagged with exactly the declared rule ids at exactly the
/// declared lines — no misses, no extras.
#[test]
fn violating_fixtures_are_flagged_exactly() {
    let fixtures = load_fixtures();
    let mut rules_covered = BTreeSet::new();
    for fx in fixtures.iter().filter(|f| !f.expect_clean) {
        let got = findings_of(fx);
        assert_eq!(
            got, fx.expects,
            "{}: findings diverge from the fixture's directives",
            fx.file
        );
        rules_covered.extend(fx.expects.iter().map(|(r, _)| r.clone()));
    }
    for rule in lint::rules::RULES.iter() {
        assert!(
            rules_covered.contains(rule.id),
            "no negative fixture covers {}",
            rule.id
        );
    }
}

/// Every compliant twin passes completely clean: the rules must not flag
/// protocol-respecting code.
#[test]
fn compliant_twins_pass_clean() {
    let fixtures = load_fixtures();
    let twins: Vec<_> = fixtures.iter().filter(|f| f.expect_clean).collect();
    assert!(twins.len() >= 2, "expect compliant twins for R1/R9");
    for fx in twins {
        let got = findings_of(fx);
        assert!(
            got.is_empty(),
            "{}: compliant twin produced findings {got:?}",
            fx.file
        );
    }
}

/// The workspace itself stays within the ratcheted budget, and the
/// report's JSON export parses back and re-renders byte-identically.
#[test]
fn workspace_is_within_budget_and_report_round_trips() {
    let files = lint::scan_workspace(Path::new(".")).expect("workspace scan");
    assert!(files.len() > 50, "scan saw only {} files", files.len());
    let mut report = lint::analyze(&files);
    let allow_text = std::fs::read_to_string("lint-allow.txt").expect("lint-allow.txt");
    let allow = Allowlist::parse(&allow_text).expect("allowlist parses");
    report.apply_allowlist(&allow);
    assert!(
        report.ok(),
        "workspace lint outside the budget:\n{}",
        report.render()
    );

    let rendered = report.to_json().render_pretty();
    let parsed = gpu_sim::Json::parse(&rendered).expect("report JSON parses back");
    assert_eq!(
        parsed.render_pretty(),
        rendered,
        "report JSON round-trip is not byte-identical"
    );
}
