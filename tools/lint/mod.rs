//! The Rust lexer and parser behind `lint-kernels`, which lists every
//! kernel launch site in the workspace by kernel name.
//!
//! Pipeline: [`lexer`] (token stream with line provenance) → [`parser`]
//! (token trees; function and kernel extraction) → [`kernel_sites`].
//!
//! This module is mounted both by the `lint-kernels` binary and by its
//! own integration test (`tests/lint_kernels.rs`), so each target only
//! uses a slice of the public surface.
#![allow(dead_code)]

pub mod lexer;
pub mod parser;

use std::collections::BTreeMap;
use std::path::Path;

/// Every kernel launch site under `root` outside test code, keyed by
/// kernel name (`<dynamic>` when the name is not a literal), each as
/// `path:line in fn`. The runtime checks (the device's in-warp transfer
/// refusal, racecheck's findings) name kernels; this maps a name back to
/// its launch sites. Build output, VCS state and integration-test
/// directories (`tests/`) are skipped.
pub fn kernel_sites(root: &Path) -> std::io::Result<BTreeMap<String, Vec<String>>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (path, src) in &files {
        for k in parser::parse_file(src).kernels {
            if k.cfg_test {
                continue;
            }
            let name = k.name.unwrap_or_else(|| "<dynamic>".to_string());
            let site = format!("{path}:{} in {}", k.line, k.in_func);
            sites.entry(name).or_default().push(site);
        }
    }
    Ok(sites)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "target" | ".git" | "tests") {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}
