//! Wall-clock micro-benchmarks of the substrate primitives: slab-hash
//! operations, the slab allocator, and the warp intrinsics themselves.
//!
//! Run with `cargo bench --bench structures`.

use bench::harness::bench_case;
use gpu_sim::{Device, Lanes};
use slab_alloc::SlabAllocator;
use slab_hash::{buckets_for, TableDesc, TableKind};

const ITERS: usize = 1000;

fn bench_slab_hash_ops() {
    let dev = Device::new(1 << 20);
    let alloc = SlabAllocator::new(&dev, 4096);
    let n = 4096u32;
    let table = TableDesc::create(
        &dev,
        TableKind::Map,
        buckets_for(n as usize, 0.7, TableKind::Map),
    );
    dev.launch_warps("bench_setup", 1, |warp| {
        for k in 0..n {
            table.insert(warp, &alloc, k, k, true).unwrap();
        }
    });

    let mut k = 0u32;
    bench_case("slab_hash/find_hit", ITERS, || {
        let out = std::sync::atomic::AtomicU32::new(0);
        dev.launch_warps("bench_find", 1, |warp| {
            out.store(
                table.find(warp, k % n).unwrap_or(0),
                std::sync::atomic::Ordering::Release,
            );
        });
        k = k.wrapping_add(1);
    });
    bench_case("slab_hash/find_miss", ITERS, || {
        let out = std::sync::atomic::AtomicU32::new(0);
        dev.launch_warps("bench_find", 1, |warp| {
            out.store(
                table.find(warp, n + 17).is_some() as u32,
                std::sync::atomic::Ordering::Release,
            );
        });
    });
    let mut k2 = 0u32;
    bench_case("slab_hash/insert_existing", ITERS, || {
        dev.launch_warps("bench_insert", 1, |warp| {
            table.insert(warp, &alloc, k2 % n, 9, true).unwrap();
        });
        k2 = k2.wrapping_add(1);
    });
}

fn bench_allocator() {
    let dev = Device::new(1 << 22);
    let alloc = SlabAllocator::new(&dev, 1 << 14);
    bench_case("slab_alloc/allocate_free", ITERS, || {
        dev.launch_warps("bench_alloc", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
        });
    });
}

fn bench_warp_primitives() {
    let dev = Device::new(1 << 12);
    let slab = dev.alloc_words(32, 32);
    bench_case("warp/read_slab_ballot", ITERS, || {
        let out = std::sync::atomic::AtomicU32::new(0);
        dev.launch_warps("bench_ballot", 1, |warp| {
            let words = warp.read_slab(slab);
            let preds = Lanes::from_fn(|i| words.get(i) == 0);
            out.store(warp.ballot(&preds), std::sync::atomic::Ordering::Release);
        });
    });
}

fn main() {
    bench_slab_hash_ops();
    bench_allocator();
    bench_warp_primitives();
}
