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

/// Every slab of `table`'s chains, bucket by bucket, without its next
/// pointer: the table's exact layout, comparable across devices.
fn layout(dev: &Device, table: &TableDesc) -> Vec<Vec<u32>> {
    let slabs = parking_lot::Mutex::new(Vec::new());
    dev.launch_warps("model_check", 1, |warp| {
        table.for_each_slab(warp, |view| slabs.lock().push(view.words.0[..31].to_vec()));
    });
    slabs.into_inner()
}

/// `insert_lanes` against one-key inserts in lane order, on twin tables
/// that first take the same one-key op stream: the same added and
/// applied masks, and the same slabs holding the same entries in the same
/// slots. Groups draw keys from small ranges (so keys repeat within a
/// group: the last lane's value wins and the key counts once) and use
/// sparse masks (lanes outside the group, such as Algorithm 1's
/// self-loops, are ignored); tables have 1 to 3 buckets; odd seeds keep
/// tombstones; a 32-key group of new keys grows a chain mid-group.
#[test]
fn insert_lanes_equals_one_key_inserts_in_lane_order() {
    use gpu_sim::{Lanes, FULL_MASK, WARP_SIZE};
    for kind in [TableKind::Map, TableKind::Set] {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x1A9E + seed);
            let prefix = ops(&mut rng);
            let buckets = rng.random_range(1..4u32);
            let reuse = seed % 2 == 1;
            let groups: Vec<(Lanes<u32>, Lanes<u32>, u32)> = (0..12)
                .map(|g| {
                    let range = [6, 40, 300][g % 3];
                    let keys = Lanes::from_fn(|_| rng.random_range(0..range));
                    let values = Lanes::from_fn(|_| rng.random_range(0..1000u32));
                    let mask = match g % 4 {
                        0 => FULL_MASK,
                        1 => rng.random::<u32>(),
                        2 => 1 << rng.random_range(0..32u32),
                        _ => rng.random::<u32>() & rng.random::<u32>(),
                    };
                    (keys, values, mask)
                })
                .collect();
            let twins = [0, 1].map(|_| {
                let dev = Device::new(1 << 18);
                let alloc = SlabAllocator::new(&dev, 1024);
                let table = TableDesc::create(&dev, kind, buckets);
                (dev, alloc, table)
            });
            let outcomes = twins.each_ref().map(|(dev, alloc, table)| {
                let out = parking_lot::Mutex::new(Vec::new());
                dev.launch_warps("model_check", 1, |warp| {
                    for op in &prefix {
                        match *op {
                            Op::Insert(k, v) => {
                                table.insert(warp, alloc, k, v, reuse).unwrap();
                            }
                            Op::Delete(k) => {
                                table.delete(warp, k);
                            }
                        }
                    }
                    let lane_order = std::ptr::eq(table, &twins[1].2);
                    for (keys, values, group) in &groups {
                        let (added, applied) = if lane_order {
                            let mut added = 0;
                            for lane in gpu_sim::iter_bits(*group) {
                                let (k, v) = (keys.get(lane as usize), values.get(lane as usize));
                                if table.insert(warp, alloc, k, v, reuse).unwrap() {
                                    added |= 1 << lane;
                                }
                            }
                            (added, *group)
                        } else {
                            let done = table.insert_lanes(warp, alloc, keys, values, *group, reuse);
                            assert_eq!(done.error, None);
                            (done.added, done.applied)
                        };
                        out.lock().push((added, applied));
                    }
                    // A group of 32 new keys: more than the free slots seen.
                    let fresh = Lanes::from_fn(|i| 5000 + i as u32);
                    let added = if lane_order {
                        (0..WARP_SIZE).all(|i| {
                            table
                                .insert(warp, alloc, 5000 + i as u32, 1, reuse)
                                .unwrap()
                        })
                    } else {
                        table
                            .insert_lanes(warp, alloc, &fresh, &Lanes::splat(1), FULL_MASK, reuse)
                            .added
                            == FULL_MASK
                    };
                    assert!(added, "{kind:?} seed {seed}");
                });
                (out.into_inner(), layout(dev, table), alloc.live_slabs())
            });
            let [grouped, one_by_one] = outcomes;
            assert_eq!(grouped.0, one_by_one.0, "{kind:?} seed {seed}: masks");
            assert_eq!(grouped.1, one_by_one.1, "{kind:?} seed {seed}: slabs");
            assert_eq!(
                grouped.2, one_by_one.2,
                "{kind:?} seed {seed}: chained slabs"
            );
        }
    }
}
