//! The kernel-lint static-analysis engine.
//!
//! Pipeline: [`lexer`] (token stream with line provenance) → [`parser`]
//! (token trees; function and kernel extraction) → [`effects`] (per-kernel
//! effect summaries and the name-keyed call graph) → [`rules`] (R1, R2,
//! R9) → [`report`] (rendering, JSON export, allowlist ratchet).
//!
//! This module is mounted both by the `lint-kernels` binary and by the
//! analyzer's own integration test (`tests/lint_kernels.rs`), so each
//! target only uses a slice of the public surface.
#![allow(dead_code)]

pub mod effects;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use effects::{effects_of, EffectIndex};
use report::{KernelSummary, LintReport};
use rules::ScannedFile;
use std::path::Path;

/// Collect the workspace's `.rs` sources under `root`, skipping build
/// output, VCS state, the lint's own sources, and the seeded lint fixtures
/// (which violate the rules on purpose).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<ScannedFile>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<ScannedFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | "tools") {
                continue;
            }
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if rel == Path::new("tests/fixtures") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            out.push(ScannedFile::new(&rel, &src));
        }
    }
    Ok(())
}

/// Run the analysis over a set of scanned files: build the effect index,
/// evaluate every rule, and summarize each kernel.
pub fn analyze(files: &[ScannedFile]) -> LintReport {
    let models: Vec<(String, parser::FileModel)> = files
        .iter()
        .map(|f| (f.path.clone(), parser::model_of(&f.trees)))
        .collect();
    let index = EffectIndex::build(&models);
    let findings = rules::run_rules(files, &index);
    let mut kernels = Vec::new();
    for file in files {
        for k in &file.model.kernels {
            if k.cfg_test {
                continue;
            }
            let fx = effects_of(&k.body);
            kernels.push(KernelSummary::new(
                k.name.as_deref().unwrap_or("<dynamic>"),
                &file.path,
                k.line,
                &k.in_func,
                &k.launcher,
                &fx,
            ));
        }
    }
    let allowed = vec![false; findings.len()];
    LintReport {
        files_scanned: files.len() as u32,
        kernels,
        findings,
        allowed,
        ..Default::default()
    }
}
