//! The device's two runtime kernel checks, each with a violating kernel
//! and a compliant twin:
//!
//! - **No host transfer inside a warp.** `Device::host_read`,
//!   `host_write` and `upload` / `try_upload` panic when called from a
//!   warp body, helpers included, naming the kernel: a kernel reaches
//!   memory only through its charged `Warp` accessors.
//! - **Publication across overlapping launches.** Racecheck compares a
//!   launch with every launch that was running when it started, so a
//!   reader launch on one host thread sees a plain store made by another
//!   thread's launch while it runs. A word published with an atomic is
//!   clean.
//!
//! Each device attaches its own non-escalating sanitizer, so these pass
//! with and without the `sanitize` feature.

use dynamic_graphs_gpu::gpu_sim::{
    Addr, Device, DeviceConfig, Finding, FindingKind, SanitizerConfig, Warp, SLAB_WORDS,
};
use std::sync::Barrier;

/// A device with one zeroed slab.
fn device_with_slab() -> (Device, Addr) {
    let dev =
        Device::with_config(DeviceConfig::new(1 << 12).with_sanitizer(SanitizerConfig::default()));
    let base = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
    dev.host_write(base, &[0; SLAB_WORDS]);
    (dev, base)
}

/// A host read behind a helper, as `VertexDict::desc_host` is.
fn peek(dev: &Device, addr: Addr) -> u32 {
    let mut w = [0];
    dev.host_read(addr, &mut w);
    w[0]
}

#[test]
#[should_panic(expected = "`Device::host_write` called inside a warp of kernel `stage`")]
fn a_kernel_calling_host_write_panics() {
    let (dev, base) = device_with_slab();
    dev.launch_tasks("stage", 32, |warp| {
        let v = warp.read_word(base);
        dev.host_write(base, &[v + 7]);
    });
}

#[test]
#[should_panic(expected = "`Device::host_read` called inside a warp of kernel `stage`")]
fn a_kernel_reaching_host_read_through_a_helper_panics() {
    let (dev, base) = device_with_slab();
    dev.launch_tasks("stage", 32, |warp| {
        let v = peek(warp.device(), base);
        warp.write_word(base, v + 7);
    });
}

#[test]
#[should_panic(expected = "`Device::try_upload` called inside a warp of kernel `stage`")]
fn a_kernel_staging_an_upload_panics() {
    let (dev, _) = device_with_slab();
    dev.launch_warps("stage", 1, |_| {
        dev.upload(&[1, 2, 3], 0);
    });
}

#[test]
fn host_transfers_between_launches_work() {
    let (dev, base) = device_with_slab();
    dev.host_write(base, &[7]);
    let staged = dev.fused_scope("fused", || dev.upload(&[5], 0));
    dev.launch_tasks("stage", 32, |warp| {
        let v = warp.read_word(base) + warp.read_word(staged);
        warp.write_word(base, v);
        // The allocator drain's atomic host bookkeeping stays callable.
        dev.host_atomic_and(base + 1, 0);
    });
    assert_eq!(peek(&dev, base), 12);
    // A kernel that panicked leaves no thread marked as inside a warp.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch_warps("stage", 1, |_| panic!("kernel fault"));
    }));
    assert!(caught.is_err());
    assert_eq!(peek(&dev, base), 12);
}

/// A reader launch pauses inside its warp while a second host thread's
/// launch `publish`es the word, then reads it.
fn reader_paused_across(publish: impl Fn(&Warp, Addr) + Sync) -> Vec<Finding> {
    let (dev, word) = device_with_slab();
    let (running, published) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            dev.launch_warps("chain_walk", 1, |warp| {
                running.wait();
                published.wait();
                let _ = warp.read_word(word);
            })
        });
        running.wait();
        dev.launch_warps("chain_link", 1, |warp| publish(warp, word));
        published.wait();
    });
    dev.sanitizer_findings()
}

#[test]
fn a_plain_store_under_a_running_reader_launch_races() {
    let f = reader_paused_across(|warp, word| warp.write_word(word, 9));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].kind, FindingKind::RaceReadWrite);
    assert_eq!(f[0].kernel, "chain_walk");
    assert_eq!(f[0].other_kernel, "chain_link");
}

#[test]
fn an_atomic_store_under_a_running_reader_launch_is_clean() {
    let f = reader_paused_across(|warp, word| {
        warp.atomic_exchange(word, 9);
    });
    assert_eq!(f, vec![]);
}
