//! Integration test for the kernel-site lister (`tools/lint/`), mounted
//! the same way the `lint-kernels` binary mounts it, so the lexer and
//! parser unit tests run here too.

#[path = "../tools/lint/mod.rs"]
mod lint;

use std::path::Path;

/// The kernels that the runtime-check tests name in their findings
/// each map to one launch site, in the file that launches them; test
/// code (a `#[cfg(test)]` module, a `tests/` directory) is not listed.
#[test]
fn workspace_kernels_map_to_their_launch_sites() {
    let sites = lint::kernel_sites(Path::new(".")).expect("workspace scan");
    for (name, file) in [
        ("flush_tombstones", "crates/core/src/maintenance.rs:"),
        ("edge_exist", "crates/core/src/query.rs:"),
        ("neighbors", "crates/core/src/query.rs:"),
        ("faim_read_adj", "crates/baselines/src/faimgraph.rs:"),
    ] {
        let at = &sites[name];
        assert_eq!(at.len(), 1, "{name}: {at:?}");
        assert!(at[0].starts_with(file), "{name}: {at:?}");
    }
    let purge = &sites["purge_deleted"];
    assert_eq!(purge.len(), 3, "{purge:?}");
    assert!(!sites.contains_key("alloc_test"), "test kernels are listed");
    assert!(sites.values().flatten().all(|s| !s.starts_with("tests/")));
}
