//@ path: crates/core/src/fixture_r1.rs
//@ expect: R1@7

fn stage(dev: &Device, base: u32) {
    dev.launch_tasks("stage", 32, |warp| {
        let v = warp.read_word(base);
        dev.host_write(base, &[v + 7]);
    });
}
