//! The vertex dictionary (paper §III, §IV-A1).
//!
//! A device-resident array indexed by vertex id: three words per vertex,
//! laid out as a descriptor array followed by a count array.
//!
//! ```text
//! word 2v:              base address of the vertex's hash-table base
//!                       slabs (NULL_ADDR if the vertex's table has not
//!                       been constructed yet)
//! word 2v+1:            bit 31: clean certificate; bits 0–30: number
//!                       of buckets
//! word 2·capacity + v:  exact live-edge count
//! ```
//!
//! A descriptor is one even/odd word pair, so reading it never straddles
//! two 128 B segments and a lazy install publishes it with one 64-bit
//! CAS. Growing past capacity performs the paper's *shallow copy*: only
//! these three words per vertex move; the hash tables themselves stay put.
//!
//! The clean certificate ([`CERTIFIED`]) says the table held no tombstone
//! when [`crate::DynGraph::flush_tombstones`] last walked it: the flush
//! sets it with one store per dictionary line it walked, and the first
//! delete that tombstones a key after it clears it with one `atomicAnd`
//! ([`VertexDict::revoke`]). Nothing else sets it: installs, lazy
//! installs and a rehash's publish write uncertified descriptors, and a
//! shallow copy moves each certificate with its untouched table. Every
//! decode ([`VertexDict::desc`], [`VertexDict::desc_host`],
//! [`VertexDict::for_each_table_in_lines`], a lost
//! [`VertexDict::try_install`]) masks the bit out of the bucket count.

use gpu_sim::{Addr, Device, Lanes, OomError, Warp, NULL_ADDR, SLAB_WORDS};
use slab_hash::{TableDesc, TableKind};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dictionary words per vertex: a descriptor pair and a count.
pub const ENTRY_WORDS: u32 = 3;

/// Descriptor pairs per 128 B line of the descriptor array.
pub(crate) const TABLES_PER_LINE: u32 = (SLAB_WORDS / 2) as u32;

/// Bit 31 of a descriptor's bucket word: the table is certified clean
/// (no tombstone since the flush that walked it).
pub const CERTIFIED: u32 = 1 << 31;

/// The table and certificate a descriptor pair ⟨base, bucket word⟩
/// encodes, or `None` for a vertex without a table.
fn decode(kind: TableKind, base: Addr, word: u32) -> Option<(TableDesc, bool)> {
    (base != NULL_ADDR).then(|| {
        let desc = TableDesc {
            kind,
            base,
            num_buckets: word & !CERTIFIED,
        };
        (desc, word & CERTIFIED != 0)
    })
}

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
        self.entry_host(dev, v).map(|(desc, _)| desc)
    }

    /// Host-side (uncharged): whether vertex `v` has a table certified
    /// clean ([`CERTIFIED`]).
    pub fn certified_host(&self, dev: &Device, v: u32) -> bool {
        self.entry_host(dev, v)
            .is_some_and(|(_, certified)| certified)
    }

    fn entry_host(&self, dev: &Device, v: u32) -> Option<(TableDesc, bool)> {
        if v >= self.capacity() {
            return None;
        }
        let mut entry = [0; 2];
        dev.host_read(self.desc_addr(v), &mut entry);
        let [base, word] = entry;
        decode(self.kind, base, word)
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
    /// scattered read of its pair (base address and bucket word; the
    /// edge count is not read), one transaction for every `v`; `None`
    /// (uncharged) for an id past capacity, which has no entry.
    pub fn desc(&self, warp: &Warp, v: u32) -> Option<TableDesc> {
        self.desc_certified(warp, v).map(|(desc, _)| desc)
    }

    /// [`Self::desc`] with the table's clean certificate, for the
    /// deletes that must [`Self::revoke`] it.
    pub(crate) fn desc_certified(&self, warp: &Warp, v: u32) -> Option<(TableDesc, bool)> {
        if v >= self.capacity() {
            return None;
        }
        let e = self.desc_addr(v);
        let addrs = Lanes::from_fn(|i| e + (i as u32).min(1));
        let words = warp.read_lanes(&addrs, 0b11);
        decode(self.kind, words.get(0), words.get(1))
    }

    /// Warp-side clear of vertex `v`'s clean certificate, by the first
    /// delete that tombstones a key in a table it read certified: one
    /// `atomicAnd` of the bucket word, which leaves the base and the
    /// bucket count alone.
    pub(crate) fn revoke(&self, warp: &Warp, v: u32) {
        warp.atomic_and(self.desc_addr(v) + 1, !CERTIFIED);
    }

    /// Warp-side certification of `tables`, ⟨vertex, bucket count⟩ of
    /// tables one dictionary line holds that a flush has just left without
    /// tombstones: their bucket words are stored with [`CERTIFIED`] set,
    /// one scattered write, charged one transaction. The rewrite is plain,
    /// so like the flush it is not safe next to concurrent readers or
    /// writers.
    pub(crate) fn certify(&self, warp: &Warp, tables: &[(u32, u32)]) {
        debug_assert!(tables.len() <= TABLES_PER_LINE as usize);
        let mask = gpu_sim::lanemask_lt(tables.len() as u32);
        let lane = |i: usize| {
            tables.get(i).map_or((0, 0), |&(v, num_buckets)| {
                (self.desc_addr(v) + 1, num_buckets | CERTIFIED)
            })
        };
        let addrs = Lanes::from_fn(|i| lane(i).0);
        let words = Lanes::from_fn(|i| lane(i).1);
        warp.write_lanes(&addrs, &words, mask);
    }

    /// Number of 128 B lines the descriptor array spans, ⌈capacity/16⌉:
    /// a line holds 16 descriptor pairs.
    pub fn lines(&self) -> u32 {
        self.capacity().div_ceil(TABLES_PER_LINE)
    }

    /// Warp-side (charged) walk over every constructed table in vertex-id
    /// order, `f(v, desc, certified)` for each:
    /// [`Self::for_each_table_in_lines`] over the whole array,
    /// ⌈capacity/16⌉ transactions.
    pub fn for_each_table(&self, warp: &Warp, f: impl FnMut(u32, TableDesc, bool)) {
        self.for_each_table_in_lines(warp, 0..u32::MAX, f);
    }

    /// Warp-side (charged) walk over the constructed tables of the
    /// descriptor lines in `lines` (clipped to the array's end), in
    /// vertex-id order, `f(v, desc, certified)` for each, the bucket
    /// count decoded and the clean certificate apart. The descriptor array
    /// starts on a 128 B line and a line holds 16 descriptor pairs, so
    /// the walk reads them a line at a time: one masked read of 16 pairs
    /// (fewer on the last line, never past the descriptor array) per
    /// line. The capacity is read once, at the start.
    pub fn for_each_table_in_lines(
        &self,
        warp: &Warp,
        lines: Range<u32>,
        mut f: impl FnMut(u32, TableDesc, bool),
    ) {
        let layout = self.layout();
        let end = lines.end.min(layout.1.div_ceil(TABLES_PER_LINE));
        for line in lines.start..end {
            let (first, words) = Self::read_line(warp, layout, line);
            let n = (layout.1 - first).min(TABLES_PER_LINE);
            for j in 0..n as usize {
                if let Some((desc, certified)) =
                    decode(self.kind, words.get(2 * j), words.get(2 * j + 1))
                {
                    f(first + j as u32, desc, certified);
                }
            }
        }
    }

    /// Warp-side (charged) read of descriptor line `line` of the
    /// dictionary laid out as `(base, capacity)`: one masked read of its
    /// 16 pairs (fewer on the last line, never past the descriptor
    /// array), one transaction. Returns the line's first vertex and its
    /// words, pair *j* on lanes 2j and 2j + 1.
    fn read_line(warp: &Warp, (base, capacity): (Addr, u32), line: u32) -> (u32, Lanes<u32>) {
        let first = line * TABLES_PER_LINE;
        let n = (capacity - first).min(TABLES_PER_LINE);
        let addrs = Lanes::from_fn(|i| base + 2 * first + i as u32);
        (first, warp.read_lanes(&addrs, gpu_sim::lanemask_lt(2 * n)))
    }

    /// Algorithm 1's descriptor read for the group of source `v`, with
    /// its clean certificate, in a warp whose lanes hold the sources
    /// `srcs` and still pend on `rest` once the group retires: from a
    /// line `lines` keeps, with 2 charged shuffles of its lanes 2j and
    /// 2j + 1; otherwise one transaction. When a lane of `rest` has a
    /// source in `v`'s line, the whole line is read and kept in `lines`
    /// for the rest of the warp; a source alone in its line reads only
    /// its pair, which costs the line's one transaction all the same.
    /// `None` for a vertex without a table; uncharged for an id past
    /// capacity.
    pub(crate) fn desc_in_lines(
        &self,
        warp: &Warp,
        v: u32,
        lines: &mut LineRegisters,
        srcs: &Lanes<u32>,
        rest: &Lanes<bool>,
    ) -> Option<(TableDesc, bool)> {
        let layout = self.layout();
        if v >= layout.1 {
            return None;
        }
        let (line, j) = (v / TABLES_PER_LINE, 2 * (v % TABLES_PER_LINE));
        if let Some(words) = lines.get(line) {
            let base = warp.shuffle(words, j);
            return decode(self.kind, base, warp.shuffle(words, j + 1));
        }
        let shared =
            (0..gpu_sim::WARP_SIZE).any(|i| rest.get(i) && srcs.get(i) / TABLES_PER_LINE == line);
        if !shared {
            return self.desc_certified(warp, v);
        }
        let (_, words) = Self::read_line(warp, layout, line);
        lines.keep(line, words);
        decode(self.kind, words.get(j as usize), words.get(j as usize + 1))
    }

    /// Install a table for vertex `v` (bulk/incremental build, vertex
    /// insertion). Host-side store; the allocation itself is charged by
    /// the caller.
    pub fn install_host(&self, dev: &Device, v: u32, base: Addr, num_buckets: u32) {
        dev.host_write(self.desc_addr(v), &[base, num_buckets]);
        dev.host_write(self.count_addr(v), &[0]);
    }

    /// Install the tables `tables` yields as ⟨v, base, buckets⟩, in
    /// ascending `v`, from inside a build launch: the descriptor pairs are
    /// written a 128 B line at a time, charged one coalesced store per
    /// line that receives a descriptor. The edge counts are left alone.
    pub(crate) fn install_lines(
        &self,
        dev: &Device,
        tables: impl IntoIterator<Item = (u32, Addr, u32)>,
    ) {
        let mut lines = 0u64;
        let mut last_line = None;
        for (v, base, num_buckets) in tables {
            dev.host_write(self.desc_addr(v), &[base, num_buckets]);
            let line = v / TABLES_PER_LINE;
            if last_line != Some(line) {
                last_line = Some(line);
                lines += 1;
            }
        }
        dev.charge("graph_init").add_transactions(lines);
    }

    /// Warp-side (charged) republication of vertex `v`'s table after a
    /// rebuild: one scattered write of its base and bucket count,
    /// uncertified. The live-edge count word is left alone — a rebuild
    /// keeps every edge.
    pub(crate) fn publish(&self, warp: &Warp, v: u32, desc: &TableDesc) {
        let e = self.desc_addr(v);
        let addrs = Lanes::from_fn(|i| e + (i as u32).min(1));
        let words = Lanes::from_fn(|i| if i == 0 { desc.base } else { desc.num_buckets });
        warp.write_lanes(&addrs, &words, 0b11);
    }

    /// Warp-side lazy table install: one 64-bit CAS of the descriptor
    /// pair from ⟨NULL, 0⟩, so a reader sees either no table or the whole
    /// descriptor, uncertified. If the CAS is lost, the winner's
    /// descriptor is returned decoded (its certificate masked) and
    /// `fresh_base` should be released by the caller.
    pub fn try_install(
        &self,
        warp: &Warp,
        v: u32,
        fresh_base: Addr,
        num_buckets: u32,
    ) -> Result<TableDesc, TableDesc> {
        let desc = |[base, word]: [u32; 2]| TableDesc {
            kind: self.kind,
            base,
            num_buckets: word & !CERTIFIED,
        };
        warp.atomic_cas_pair(self.desc_addr(v), [NULL_ADDR, 0], [fresh_base, num_buckets])
            .map(|_| desc([fresh_base, num_buckets]))
            .map_err(desc)
    }
}

/// The descriptor lines one warp keeps in lane registers while it works
/// through Algorithm 1's queue ([`VertexDict::desc_in_lines`]), an
/// update kernel's or an `edge_exist` chunk warp's. A line is
/// kept only when two or more of the warp's (at most 32) groups need it,
/// so 16 lines suffice; lanes 2j and 2j + 1 of a kept line hold pair j.
pub(crate) struct LineRegisters {
    lines: [(u32, Lanes<u32>); LineRegisters::MAX],
    kept: usize,
}

impl Default for LineRegisters {
    fn default() -> Self {
        LineRegisters {
            lines: [(0, Lanes::splat(0)); Self::MAX],
            kept: 0,
        }
    }
}

impl LineRegisters {
    const MAX: usize = gpu_sim::WARP_SIZE / 2;

    fn get(&self, line: u32) -> Option<&Lanes<u32>> {
        self.lines[..self.kept]
            .iter()
            .find_map(|(l, words)| (*l == line).then_some(words))
    }

    fn keep(&mut self, line: u32, words: Lanes<u32>) {
        debug_assert!(self.kept < Self::MAX, "a kept line serves two groups");
        self.lines[self.kept] = (line, words);
        self.kept += 1;
    }

    /// Record the table the warp has just installed for `v`, uncertified,
    /// in `v`'s line if it is kept: the lanes holding the pair take the
    /// descriptor every lane already knows, a register write.
    pub(crate) fn install(&mut self, v: u32, desc: &TableDesc) {
        let (line, j) = (v / TABLES_PER_LINE, 2 * (v % TABLES_PER_LINE) as usize);
        if let Some((_, words)) = self.lines[..self.kept].iter_mut().find(|(l, _)| *l == line) {
            words.set(j, desc.base);
            words.set(j + 1, desc.num_buckets);
        }
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
    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn certificate_is_set_by_a_line_store_masked_on_decode_and_revoked_by_one_atomic() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 40);
        for v in [1, 3, 17] {
            dict.install_host(&d, v, 0x1000 + 0x100 * v, 5);
        }
        let decoded = |d: &Device| {
            (0..40)
                .filter_map(|v| dict.desc_host(d, v).map(|t| (v, t.num_buckets)))
                .collect::<Vec<_>>()
        };
        assert_eq!(decoded(&d), [(1, 5), (3, 5), (17, 5)]);
        assert!(
            (0..40).all(|v| !dict.certified_host(&d, v)),
            "installs are uncertified"
        );
        let before = d.counters().snapshot();
        d.launch_warps("dict_test", 1, |warp| {
            let line0 = [1, 3].map(|v| (v, dict.desc(warp, v).unwrap().num_buckets));
            dict.certify(warp, &line0);
        });
        let charged = d.counters().snapshot().delta(&before);
        assert_eq!(
            (charged.transactions, charged.atomics),
            (2 + 1, 0),
            "one store per line"
        );
        assert!(dict.certified_host(&d, 1) && dict.certified_host(&d, 3));
        assert!(!dict.certified_host(&d, 17));
        assert_eq!(
            decoded(&d),
            [(1, 5), (3, 5), (17, 5)],
            "desc_host masks the bit"
        );
        let seen = parking_lot::Mutex::new(vec![]);
        d.launch_warps("dict_test", 1, |warp| {
            let (t, certified) = dict.desc_certified(warp, 3).unwrap();
            assert_eq!((t.num_buckets, certified), (5, true));
            assert_eq!(dict.desc(warp, 1).unwrap().num_buckets, 5);
            dict.for_each_table(warp, |v, t, certified| {
                seen.lock().push((v, t.num_buckets, certified));
            });
        });
        assert_eq!(
            seen.into_inner(),
            [(1, 5, true), (3, 5, true), (17, 5, false)]
        );
        let before = d.counters().snapshot();
        d.launch_warps("dict_test", 1, |warp| dict.revoke(warp, 3));
        let charged = d.counters().snapshot().delta(&before);
        assert_eq!((charged.transactions, charged.atomics), (0, 1));
        assert!(dict.certified_host(&d, 1) && !dict.certified_host(&d, 3));
        assert_eq!(dict.desc_host(&d, 3).unwrap().base, 0x1300);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a scratch kernel, no graph to launch through
    fn a_lost_install_race_returns_the_decoded_winner() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Map, 4);
        d.host_write(dict.desc_addr(2), &[0x400, 3 | CERTIFIED]);
        d.launch_warps("dict_test", 1, |warp| {
            let lost = dict.try_install(warp, 2, 0x800, 1).unwrap_err();
            assert_eq!((lost.base, lost.num_buckets), (0x400, 3));
            let won = dict.try_install(warp, 1, 0x800, 1).unwrap();
            assert_eq!((won.base, won.num_buckets), (0x800, 1));
        });
        assert!(dict.certified_host(&d, 2));
        assert!(!dict.certified_host(&d, 1), "a lazy install is uncertified");
    }

    #[test]
    fn grow_moves_each_certificate_with_its_table() {
        let d = dev();
        let dict = VertexDict::new(&d, TableKind::Set, 2);
        d.host_write(dict.desc_addr(0), &[0x40, 3 | CERTIFIED]);
        dict.install_host(&d, 1, 0x80, 5);
        dict.grow(&d, 40);
        assert!(dict.certified_host(&d, 0) && !dict.certified_host(&d, 1));
        assert_eq!(dict.desc_host(&d, 0).unwrap().num_buckets, 3);
        assert!((2..dict.capacity()).all(|v| !dict.certified_host(&d, v)));
    }
}
