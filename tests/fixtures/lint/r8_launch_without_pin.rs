//@ path: crates/core/src/query.rs
//@ expect: R8@5

fn degree_scan(dev: &Device) -> u32 {
    dev.launch_warps("degree_scan", 1, |warp| {
        let _ = warp.read_word(4);
    });
    0
}
