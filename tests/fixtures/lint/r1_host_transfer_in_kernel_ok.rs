//@ path: crates/core/src/fixture_r1.rs
//@ expect-clean

fn stage(dev: &Device, base: u32) {
    dev.host_write(base, &[7]);
    dev.launch_tasks("stage", 32, |warp| {
        let _ = warp.read_word(base);
    });
}
