//! Randomized model checking of the slab hash against a `BTreeMap`
//! reference under arbitrary operation streams, for both table kinds.
//! Each test runs many independently seeded cases; seeds are fixed so
//! failures reproduce.

use gpu_sim::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slab_alloc::SlabAllocator;
use slab_hash::{TableDesc, TableKind};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 32;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Delete(u32),
}

fn ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.random_range(1..120usize);
    (0..n)
        .map(|_| {
            // 3:1 insert:delete, matching the original generator weights.
            if rng.random_range(0..4u32) < 3 {
                Op::Insert(rng.random_range(0..200u32), rng.random_range(0..1000u32))
            } else {
                Op::Delete(rng.random_range(0..200u32))
            }
        })
        .collect()
}

/// Run each seeded op stream against a table of `kind` and a `BTreeMap`
/// reference. A set stores no values, so its reference values are 0 —
/// what `find` and `for_each_entry` report for a set. Odd seeds insert
/// without reusing tombstones, as a mixed update launch does.
fn check_against_btreemap(kind: TableKind) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA110 + seed);
        let ops = ops(&mut rng);
        let buckets = rng.random_range(1..6u32);
        let reuse = seed % 2 == 0;
        let dev = Device::new(1 << 18);
        let alloc = SlabAllocator::new(&dev, 1024);
        let table = TableDesc::create(&dev, kind, buckets);
        let reference = parking_lot::Mutex::new(BTreeMap::<u32, u32>::new());

        dev.launch_warps("model_check", 1, |warp| {
            let mut reference = reference.lock();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let added = table.insert(warp, &alloc, k, v, reuse).unwrap();
                        let stored = if kind == TableKind::Map { v } else { 0 };
                        let was_new = reference.insert(k, stored).is_none();
                        assert_eq!(added, was_new, "{kind:?} seed {seed}: insert({k}, {v})");
                    }
                    Op::Delete(k) => {
                        let removed = table.delete(warp, k);
                        assert_eq!(
                            removed,
                            reference.remove(&k).is_some(),
                            "{kind:?} seed {seed}: delete({k})"
                        );
                    }
                }
            }
            // Final state equality via lookup and iteration.
            for k in 0..200u32 {
                assert_eq!(
                    table.find(warp, k),
                    reference.get(&k).copied(),
                    "{kind:?} seed {seed}: find({k})"
                );
            }
            let mut iterated = BTreeMap::new();
            table.for_each_entry(warp, |k, v| {
                assert!(
                    iterated.insert(k, v).is_none(),
                    "{kind:?} seed {seed}: duplicate {k}"
                );
            });
            assert_eq!(&iterated, &*reference, "{kind:?} seed {seed}: iteration");
        });
    }
}

#[test]
fn table_matches_btreemap() {
    for kind in [TableKind::Map, TableKind::Set] {
        check_against_btreemap(kind);
    }
}

#[test]
fn stats_live_keys_always_match() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57A7 + seed);
        let n_keys = rng.random_range(1..200usize);
        let keys: Vec<u32> = (0..n_keys).map(|_| rng.random_range(0..500u32)).collect();
        let unique: BTreeSet<u32> = keys.iter().copied().collect();

        let dev = Device::new(1 << 18);
        let alloc = SlabAllocator::new(&dev, 1024);
        let table = TableDesc::create(&dev, TableKind::Map, 3);

        let stats = parking_lot::Mutex::new(None);
        dev.launch_warps("model_check", 1, |warp| {
            for &k in &keys {
                table.insert(warp, &alloc, k, k, true).unwrap();
            }
            *stats.lock() = Some(table.stats(warp));
        });
        let stats = stats.into_inner().unwrap();
        assert_eq!(stats.live_keys, unique.len() as u64, "seed {seed}");
        assert_eq!(stats.tombstones, 0, "seed {seed}");
        assert!(stats.utilization() <= 1.0, "seed {seed}");
    }
}
