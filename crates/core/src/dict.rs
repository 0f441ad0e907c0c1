//! The vertex dictionary (paper §III, §IV-A1).
//!
//! A device-resident array indexed by vertex id: three words per vertex,
//! laid out as a descriptor array followed by a count array.
//!
//! ```text
//! words 2v, 2v+1:       base address of the vertex's hash-table base
//!                       slabs (NULL_ADDR if the vertex's table has not
//!                       been constructed yet), number of buckets
//! word 2·capacity + v:  exact live-edge count
//! ```
//!
//! A descriptor is one even/odd word pair, so reading it never straddles
//! two 128 B segments and a lazy install publishes it with one 64-bit
//! CAS. Growing past capacity performs the paper's *shallow copy*: only
//! these three words per vertex move; the hash tables themselves stay put.

use gpu_sim::{Addr, Device, Lanes, OomError, Warp, NULL_ADDR, SLAB_WORDS};
use slab_hash::{TableDesc, TableKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Dictionary words per vertex: a descriptor pair and a count.
pub const ENTRY_WORDS: u32 = 3;

/// The packed ⟨base, capacity⟩ of a dictionary allocation.
fn pack(base: Addr, capacity: u32) -> u64 {
    (u64::from(base) << 32) | u64::from(capacity)
}

/// Device-resident vertex dictionary.
pub struct VertexDict {
    /// The current allocation's base address (high half) and vertex
    /// capacity (low half), published together: an address computed from
    /// one load never pairs a new base with an old capacity.
    layout: AtomicU64,
    kind: TableKind,
}

impl VertexDict {
    /// Allocate a dictionary for `capacity` vertices, all entries
    /// uninitialised (`NULL_ADDR` table pointer).
    pub fn new(dev: &Device, kind: TableKind, capacity: u32) -> Self {
        let capacity = capacity.max(1);
        let base = Self::alloc_entries(dev, capacity);
        VertexDict {
            layout: AtomicU64::new(pack(base, capacity)),
            kind,
        }
    }

    fn alloc_entries(dev: &Device, capacity: u32) -> Addr {
        Self::try_alloc_entries(dev, capacity)
            .unwrap_or_else(|e| panic!("vertex dictionary allocation failed: {e}"))
    }

    fn try_alloc_entries(dev: &Device, capacity: u32) -> Result<Addr, OomError> {
        let words = (capacity * ENTRY_WORDS) as usize;
        let base = dev.try_alloc_words(words, SLAB_WORDS)?;
        // Initialise every table pointer to NULL, bucket counts and edge
        // counts to zero. (Charged as a device memset — part of
        // construction cost.)
        dev.memset("dict_init", base, words, 0);
        for v in 0..capacity {
            dev.host_write(base + 2 * v, &[NULL_ADDR]);
        }
        Ok(base)
    }

    /// Current vertex capacity.
    pub fn capacity(&self) -> u32 {
        self.layout().1
    }

    /// The current ⟨base, capacity⟩.
    #[inline]
    fn layout(&self) -> (Addr, u32) {
        let l = self.layout.load(Ordering::Acquire);
        ((l >> 32) as Addr, l as u32)
    }

    /// The table kind stored in every entry.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// Device address of vertex `v`'s descriptor pair ⟨base, buckets⟩
    /// (even, so the pair sits in one 128 B segment).
    #[inline]
    pub fn desc_addr(&self, v: u32) -> Addr {
        let (base, capacity) = self.layout();
        debug_assert!(v < capacity, "vertex {v} out of capacity");
        base + 2 * v
    }

    /// Device address of vertex `v`'s edge-count word.
    #[inline]
    pub fn count_addr(&self, v: u32) -> Addr {
        let (base, capacity) = self.layout();
        debug_assert!(v < capacity, "vertex {v} out of capacity");
        base + 2 * capacity + v
    }

    /// Grow capacity to at least `needed`, shallow-copying entries
    /// (paper §IV-A1: "only requires shallow copying of the pointers").
    /// Charged as a coalesced device-to-device copy.
    pub fn grow(&self, dev: &Device, needed: u32) {
        self.try_grow(dev, needed)
            .unwrap_or_else(|e| panic!("vertex dictionary growth failed: {e}"))
    }

    /// Fallible [`Self::grow`]: on a budget-exhausted device the old
    /// dictionary is left fully intact and the growth can be retried.
    pub fn try_grow(&self, dev: &Device, needed: u32) -> Result<(), OomError> {
        let (old_base, old_cap) = self.layout();
        if needed <= old_cap {
            return Ok(());
        }
        let new_cap = needed.max(old_cap * 2);
        let new_base = Self::try_alloc_entries(dev, new_cap)?;
        let words = (old_cap * ENTRY_WORDS) as usize;
        // Copy kernel: read + write, coalesced.
        let charge = dev.charge("dict_grow");
        charge.add_launches(1);
        charge.add_transactions(2 * (words as u64).div_ceil(SLAB_WORDS as u64));
        let mut entries = vec![0; words];
        dev.host_read(old_base, &mut entries);
        // The descriptor pairs keep their offsets; the counts move to the
        // new count array.
        let (descs, counts) = entries.split_at(2 * old_cap as usize);
        dev.host_write(new_base, descs);
        dev.host_write(new_base + 2 * new_cap, counts);
        self.layout
            .store(pack(new_base, new_cap), Ordering::Release);
        Ok(())
    }

    /// Host-side (uncharged) read of vertex `v`'s table descriptor, or
    /// `None` if the vertex has no constructed table yet.
    pub fn desc_host(&self, dev: &Device, v: u32) -> Option<TableDesc> {
        if v >= self.capacity() {
            return None;
        }
        let mut entry = [0; 2];
        dev.host_read(self.desc_addr(v), &mut entry);
        let [base, num_buckets] = entry;
        if base == NULL_ADDR {
            return None;
        }
        Some(TableDesc {
            kind: self.kind,
            base,
            num_buckets,
        })
    }

    /// Host-side (uncharged) read of vertex `v`'s live-edge count.
    pub fn count_host(&self, dev: &Device, v: u32) -> u32 {
        if v >= self.capacity() {
            return 0;
        }
        let mut count = [0];
        dev.host_read(self.count_addr(v), &mut count);
        count[0]
    }

    /// Warp-side (charged) read of vertex `v`'s descriptor: one
    /// scattered read of its pair (base address and bucket count; the
    /// edge count is not read), one transaction for every `v`; `None`
    /// (uncharged) for an id past capacity, which has no entry.
    pub fn desc(&self, warp: &Warp, v: u32) -> Option<TableDesc> {
        if v >= self.capacity() {
            return None;
        }
        let e = self.desc_addr(v);
        let addrs = Lanes::from_fn(|i| e + (i as u32).min(1));
        let words = warp.read_lanes(&addrs, 0b11);
        let base = words.get(0);
        if base == NULL_ADDR {
            return None;
        }
        Some(TableDesc {
            kind: self.kind,
            base,
            num_buckets: words.get(1),
        })
    }

    /// Warp-side (charged) walk over every constructed table in vertex-id
    /// order, `f(v, desc)` for each. The descriptor array starts on a
    /// 128 B line and a line holds 16 descriptor pairs, so the walk reads
    /// them a line at a time: one masked read of 16 pairs (fewer on the
    /// last line, never past the descriptor array), ⌈capacity/16⌉
    /// transactions in all. The capacity is read once, at the start.
    pub fn for_each_table(&self, warp: &Warp, mut f: impl FnMut(u32, TableDesc)) {
        const PER_LINE: u32 = (SLAB_WORDS / 2) as u32;
        let (base, capacity) = self.layout();
        for first in (0..capacity).step_by(PER_LINE as usize) {
            let n = (capacity - first).min(PER_LINE);
            let line = base + 2 * first;
            let addrs = Lanes::from_fn(|i| line + i as u32);
            let words = warp.read_lanes(&addrs, gpu_sim::lanemask_lt(2 * n));
            for j in 0..n as usize {
                let table = words.get(2 * j);
                if table != NULL_ADDR {
                    let desc = TableDesc {
                        kind: self.kind,
                        base: table,
                        num_buckets: words.get(2 * j + 1),
                    };
                    f(first + j as u32, desc);
                }
            }
        }
    }

    /// Install a table for vertex `v` (bulk/incremental build, vertex
    /// insertion). Host-side store; the allocation itself is charged by
    /// the caller.
    pub fn install_host(&self, dev: &Device, v: u32, base: Addr, num_buckets: u32) {
        dev.host_write(self.desc_addr(v), &[base, num_buckets]);
        dev.host_write(self.count_addr(v), &[0]);
    }

    /// Warp-side (charged) republication of vertex `v`'s table after a
    /// rebuild: one scattered write of its base and bucket count. The
    /// live-edge count word is left alone — a rebuild keeps every edge.
    pub(crate) fn publish(&self, warp: &Warp, v: u32, desc: &TableDesc) {
        let e = self.desc_addr(v);
        let addrs = Lanes::from_fn(|i| e + (i as u32).min(1));
        let words = Lanes::from_fn(|i| if i == 0 { desc.base } else { desc.num_buckets });
        warp.write_lanes(&addrs, &words, 0b11);
    }

    /// Warp-side lazy table install: one 64-bit CAS of the descriptor
    /// pair from ⟨NULL, 0⟩, so a reader sees either no table or the whole
    /// descriptor. If the CAS is lost, the winner's descriptor is
    /// returned and `fresh_base` should be released by the caller.
    pub fn try_install(
        &self,
        warp: &Warp,
        v: u32,
        fresh_base: Addr,
        num_buckets: u32,
    ) -> Result<TableDesc, TableDesc> {
        let desc = |[base, num_buckets]: [u32; 2]| TableDesc {
            kind: self.kind,
            base,
            num_buckets,
        };
        warp.atomic_cas_pair(self.desc_addr(v), [NULL_ADDR, 0], [fresh_base, num_buckets])
            .map(|_| desc([fresh_base, num_buckets]))
            .map_err(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(1 << 18)
    }

    #[test]
    fn fresh_dict_has_null_entries() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 16);
        for v in 0..16 {
            assert!(dict.desc_host(&d, v).is_none());
            assert_eq!(dict.count_host(&d, v), 0);
        }
    }

    #[test]
    fn install_and_read_back() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        dict.install_host(&d, 2, 0x1000, 7);
        let t = dict.desc_host(&d, 2).unwrap();
        assert_eq!(t.base, 0x1000);
        assert_eq!(t.num_buckets, 7);
        assert_eq!(t.kind, TableKind::Map);
        assert!(dict.desc_host(&d, 1).is_none());
    }

    #[test]
    fn grow_preserves_entries() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Set, 2);
        dict.install_host(&d, 0, 0x40, 3);
        dict.install_host(&d, 1, 0x80, 5);
        d.host_write(dict.count_addr(1), &[99]);
        dict.grow(&d, 100);
        assert!(dict.capacity() >= 100);
        assert_eq!(dict.desc_host(&d, 0).unwrap().base, 0x40);
        assert_eq!(dict.desc_host(&d, 1).unwrap().num_buckets, 5);
        assert_eq!(dict.count_host(&d, 1), 99);
        assert!(dict.desc_host(&d, 50).is_none(), "new entries start null");
    }

    #[test]
    fn grow_is_noop_within_capacity() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 8);
        let before = dict.capacity();
        dict.grow(&d, 4);
        assert_eq!(dict.capacity(), before);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn warp_desc_reads_installed_entry() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        dict.install_host(&d, 3, 0x2000, 9);
        let got = parking_lot::Mutex::new(None);
        d.launch_warps("dict_test", 1, |warp| {
            *got.lock() = dict.desc(warp, 3);
        });
        let t = got.into_inner().unwrap();
        assert_eq!(t.base, 0x2000);
        assert_eq!(t.num_buckets, 9);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn try_install_races_resolve_to_one_winner() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        let results = parking_lot::Mutex::new(vec![]);
        d.launch_warps("dict_test", 8, |warp| {
            let fresh = 0x100 + warp.warp_id() * 0x20;
            let r = dict.try_install(warp, 1, fresh, 1);
            results.lock().push(r.is_ok());
        });
        let results = results.into_inner();
        assert_eq!(results.iter().filter(|r| **r).count(), 1, "one winner");
        assert!(dict.desc_host(&d, 1).is_some());
    }

    #[test]
    fn descriptors_are_pairs_and_counts_follow_them() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        assert_eq!(dict.desc_addr(0) % 2, 0);
        assert_eq!(dict.desc_addr(1) - dict.desc_addr(0), 2);
        assert_eq!(dict.count_addr(0), dict.desc_addr(0) + 2 * 4);
        assert_eq!(dict.count_addr(3) - dict.count_addr(0), 3);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn desc_costs_one_transaction_for_every_vertex() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 96);
        for v in 0..96 {
            dict.install_host(&d, v, 0x1000 + 32 * v, 1 + v % 3);
        }
        for v in 0..96 {
            let before = d.counters().snapshot();
            let got = parking_lot::Mutex::new(None);
            d.launch_warps("dict_test", 1, |warp| {
                *got.lock() = dict.desc(warp, v);
            });
            let charged = d.counters().snapshot().delta(&before);
            assert_eq!(charged.transactions, 1, "vertex {v}");
            let t = got.into_inner().unwrap();
            assert_eq!((t.base, t.num_buckets), (0x1000 + 32 * v, 1 + v % 3));
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn try_install_publishes_the_whole_descriptor_with_one_atomic() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        let before = d.counters().snapshot();
        d.launch_warps("dict_test", 1, |warp| {
            assert!(dict.try_install(warp, 2, 0x400, 1).is_ok());
            let lost = dict.try_install(warp, 2, 0x800, 1).unwrap_err();
            assert_eq!((lost.base, lost.num_buckets), (0x400, 1));
        });
        assert_eq!(d.counters().snapshot().delta(&before).atomics, 2);
        let t = dict.desc_host(&d, 2).unwrap();
        assert_eq!((t.base, t.num_buckets), (0x400, 1));
    }
}
