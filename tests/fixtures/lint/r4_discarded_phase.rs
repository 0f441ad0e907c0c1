//@ path: crates/core/src/fixture_r4.rs
//@ expect: R4@5

fn run(dev: &Device) {
    dev.phase("bulk_build");
}
