//! Simulated device global memory.
//!
//! The crate-private `DeviceArena` is a flat, growable address space of
//! `u32` words with word-level atomics — the model of GPU global memory the
//! slab structures run on. Addresses are plain `u32` word indices, so a
//! "device pointer" fits in one lane register exactly as in the paper's
//! CUDA implementation. Outside this crate, memory is reached through the
//! charged [`crate::Warp`] accessors or the uncharged host transfers on
//! [`crate::Device`] (`upload`, `host_write`, `host_read`).
//!
//! Words are stored in pairs: each even/odd pair is one `AtomicU64`, so a
//! 64-bit CAS on a pair (a map slot's ⟨key, value⟩) is one atomic access
//! and a slab load sees every pair whole. Rust's memory model forbids
//! mixed-size atomics on one location, so the 32-bit accessors are built
//! on the pair too: a load shifts, and every 32-bit write is a
//! compare-and-swap loop on the pair that carries the other half through
//! unchanged (a carry never crosses halves).
//!
//! Growth is lock-free for readers: the arena is a table of lazily
//! allocated fixed-size segments; allocation bumps a cursor and publishes
//! new segments with a CAS. Because slabs are 32-word aligned and segments
//! are a multiple of 32 words, a slab never straddles two segments.

use crate::fault::OomError;
use crate::sanitizer::Sanitizer;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the segment size in words (2^20 words = 4 MiB per segment).
const SEGMENT_SHIFT: u32 = 20;
/// Words per segment.
pub const SEGMENT_WORDS: usize = 1 << SEGMENT_SHIFT;
/// 64-bit pairs per segment.
const SEGMENT_PAIRS: usize = SEGMENT_WORDS / 2;
/// Maximum number of segments (=> 16 GiB address space, ample for benches).
const MAX_SEGMENTS: usize = 4096;

/// Words per 128-byte slab / cache line.
pub const SLAB_WORDS: usize = 32;

/// A device-memory address: an index into the arena's word space.
pub type Addr = u32;

/// Sentinel for "null device pointer".
pub const NULL_ADDR: Addr = u32::MAX;

/// The 64-bit word holding an even/odd word pair (the even word low).
#[inline]
fn pack([lo, hi]: [u32; 2]) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// The even/odd word pair a 64-bit word holds.
#[inline]
fn unpack(p: u64) -> [u32; 2] {
    [p as u32, (p >> 32) as u32]
}

/// Growable atomic word arena modelling GPU global memory. Private to
/// this crate: [`crate::Device`] is its only owner and [`crate::Warp`]
/// its only charged client.
pub(crate) struct DeviceArena {
    segments: Box<[AtomicPtr<AtomicU64>]>,
    /// Bump cursor: next free word index.
    cursor: AtomicU64,
    /// Number of words for which segments have been published.
    committed_words: AtomicU64,
    /// Allocation budget in words; `u64::MAX` means unbounded. The budget
    /// models the fixed memory of a physical card: it caps the *cursor*,
    /// not segment commitment, and can be raised at runtime to model a
    /// re-provisioned pool.
    capacity_words: AtomicU64,
    /// Lock serialising segment publication (growth only, never reads).
    grow_lock: parking_lot::Mutex<()>,
    /// Optional shadow-memory sanitizer. At the arena layer every store
    /// path (host or kernel) marks words initialized; access
    /// classification (race/lifetime checks) happens in [`crate::Warp`]'s
    /// accessors, which know the kernel and warp provenance.
    san: Option<Arc<Sanitizer>>,
}

impl DeviceArena {
    /// Create an arena whose allocations may not exceed `capacity_words`
    /// in total (`u64::MAX` for unbounded).
    pub fn with_capacity(initial_words: usize, capacity_words: u64) -> Self {
        let arena = DeviceArena {
            segments: (0..MAX_SEGMENTS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            cursor: AtomicU64::new(0),
            committed_words: AtomicU64::new(0),
            capacity_words: AtomicU64::new(capacity_words),
            grow_lock: parking_lot::Mutex::new(()),
            san: None,
        };
        arena.ensure_committed(initial_words as u64);
        arena
    }

    /// Attach a shadow-memory sanitizer (construction-time only; see
    /// [`crate::DeviceConfig`]).
    pub(crate) fn attach_sanitizer(&mut self, san: Arc<Sanitizer>) {
        self.san = Some(san);
    }

    /// The allocation budget in words (`u64::MAX` when unbounded).
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words.load(Ordering::Relaxed)
    }

    /// Change the allocation budget. Raising it un-blocks future
    /// allocations; lowering it below the current cursor only affects
    /// future allocations (already-handed-out words stay valid).
    pub fn set_capacity_words(&self, capacity_words: u64) {
        self.capacity_words.store(capacity_words, Ordering::Relaxed);
    }

    /// Words handed out so far by [`Self::try_alloc_words`].
    pub fn allocated_words(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Commit segments so that word indices `< words` are addressable.
    fn ensure_committed(&self, words: u64) {
        if self.committed_words.load(Ordering::Acquire) >= words {
            return;
        }
        let _g = self.grow_lock.lock();
        let mut committed = self.committed_words.load(Ordering::Acquire);
        while committed < words {
            let seg_idx = (committed >> SEGMENT_SHIFT) as usize;
            assert!(
                seg_idx < MAX_SEGMENTS,
                "DeviceArena exhausted: requested {words} words, max {}",
                MAX_SEGMENTS * SEGMENT_WORDS
            );
            if self.segments[seg_idx].load(Ordering::Acquire).is_null() {
                let seg: Box<[AtomicU64]> = (0..SEGMENT_PAIRS).map(|_| AtomicU64::new(0)).collect();
                let ptr = Box::into_raw(seg).cast::<AtomicU64>();
                self.segments[seg_idx].store(ptr, Ordering::Release);
            }
            committed += SEGMENT_WORDS as u64;
        }
        self.committed_words.store(committed, Ordering::Release);
    }

    /// Bump-allocate `n` words aligned to `align` words; returns the base
    /// address, or a typed [`OomError`] when the request would exceed the
    /// capacity budget or the address space, leaving the cursor untouched.
    /// The slab allocator builds its pools on top of this (via
    /// [`crate::Device::try_alloc_words`], which charges the allocation).
    pub fn try_alloc_words(&self, n: usize, align: usize) -> Result<Addr, OomError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align as u64;
        let n = n as u64;
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            let base = (cur + align - 1) & !(align - 1);
            let end = base + n;
            if end > (MAX_SEGMENTS * SEGMENT_WORDS) as u64 {
                return Err(OomError::AddressSpace { requested: n });
            }
            let capacity = self.capacity_words.load(Ordering::Relaxed);
            if end > capacity {
                return Err(OomError::Capacity {
                    requested: n,
                    capacity,
                    allocated: cur,
                });
            }
            if self
                .cursor
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.ensure_committed(end);
                return Ok(base as Addr);
            }
        }
    }

    /// Borrow the 64-bit pair holding word `addr`, and the bit shift of
    /// `addr`'s half within it (the even word is the low half).
    #[inline]
    fn pair_of(&self, addr: Addr) -> (&AtomicU64, u32) {
        let seg_idx = (addr >> SEGMENT_SHIFT) as usize;
        let off = (addr as usize & (SEGMENT_WORDS - 1)) >> 1;
        let ptr = self.segments[seg_idx].load(Ordering::Acquire);
        assert!(
            !ptr.is_null(),
            "access to uncommitted device address {addr:#x}"
        );
        // SAFETY: segments are SEGMENT_PAIRS long, published once with
        // Release, never freed before the arena drops, and `off` is in
        // bounds by construction.
        (unsafe { &*ptr.add(off) }, (addr & 1) * 32)
    }

    /// Load one word.
    #[inline]
    pub fn load(&self, addr: Addr) -> u32 {
        let (pair, shift) = self.pair_of(addr);
        (pair.load(Ordering::Acquire) >> shift) as u32
    }

    /// Atomically replace word `addr` with `f(old)` unless `f` returns
    /// `None`: a compare-and-swap loop on the containing pair that
    /// carries the other half through unchanged. Returns `Ok(old)` when
    /// the word was written, `Err(old)` when `f` declined.
    #[inline]
    fn update(&self, addr: Addr, f: impl Fn(u32) -> Option<u32>) -> Result<u32, u32> {
        let (pair, shift) = self.pair_of(addr);
        let half = |p: u64| (p >> shift) as u32;
        let r = pair
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                f(half(p)).map(|v| p & !(0xFFFF_FFFF << shift) | u64::from(v) << shift)
            })
            .map(half)
            .map_err(half);
        if r.is_ok() {
            self.mark_init(addr);
        }
        r
    }

    /// Atomically replace word `addr` with `f(old)`; returns `old`.
    #[inline]
    fn rmw(&self, addr: Addr, f: impl Fn(u32) -> u32) -> u32 {
        match self.update(addr, |old| Some(f(old))) {
            Ok(old) | Err(old) => old,
        }
    }

    /// Store one word.
    #[inline]
    pub fn store(&self, addr: Addr, v: u32) {
        self.rmw(addr, |_| v);
    }

    /// Mark `addr` initialized in the sanitizer's shadow (no-op without
    /// an attached sanitizer).
    #[inline]
    fn mark_init(&self, addr: Addr) {
        if let Some(s) = &self.san {
            s.mark_init(addr);
        }
    }

    /// Compare-and-swap one word; returns `Ok(expected)` on success or
    /// `Err(actual)` on failure, like hardware `atomicCAS`.
    #[inline]
    pub fn cas(&self, addr: Addr, expected: u32, new: u32) -> Result<u32, u32> {
        self.update(addr, |old| (old == expected).then_some(new))
    }

    /// Compare-and-swap the pair of words at the even address `addr` as
    /// one 64-bit word; returns `Ok(expected)` on success or
    /// `Err(actual)` on failure, like a 64-bit `atomicCAS`.
    #[inline]
    pub fn cas_pair(
        &self,
        addr: Addr,
        expected: [u32; 2],
        new: [u32; 2],
    ) -> Result<[u32; 2], [u32; 2]> {
        assert_eq!(addr % 2, 0, "pair address {addr:#x} is odd");
        let (pair, _) = self.pair_of(addr);
        let r = pair
            .compare_exchange(
                pack(expected),
                pack(new),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(unpack)
            .map_err(unpack);
        if r.is_ok() {
            self.mark_init(addr);
            self.mark_init(addr + 1);
        }
        r
    }

    /// Atomic exchange.
    #[inline]
    pub fn exchange(&self, addr: Addr, v: u32) -> u32 {
        self.rmw(addr, |_| v)
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, v: u32) -> u32 {
        self.rmw(addr, |old| old.wrapping_add(v))
    }

    /// Atomic sub; returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, addr: Addr, v: u32) -> u32 {
        self.rmw(addr, |old| old.wrapping_sub(v))
    }

    /// Atomic bitwise OR; returns the previous value.
    #[inline]
    pub fn fetch_or(&self, addr: Addr, v: u32) -> u32 {
        self.rmw(addr, |old| old | v)
    }

    /// Atomic bitwise AND; returns the previous value.
    #[inline]
    pub fn fetch_and(&self, addr: Addr, v: u32) -> u32 {
        self.rmw(addr, |old| old & v)
    }

    /// Read `SLAB_WORDS` consecutive words starting at the slab-aligned
    /// `base` into an array (one coalesced 128 B read, each pair whole).
    #[inline]
    pub fn load_slab(&self, base: Addr) -> [u32; SLAB_WORDS] {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        let mut words = [0; SLAB_WORDS];
        for (i, w) in words.chunks_exact_mut(2).enumerate() {
            let (pair, _) = self.pair_of(base + 2 * i as u32);
            w.copy_from_slice(&unpack(pair.load(Ordering::Acquire)));
        }
        words
    }

    /// Write `SLAB_WORDS` consecutive words (one coalesced 128 B write,
    /// each pair whole).
    #[inline]
    pub fn store_slab(&self, base: Addr, words: &[u32; SLAB_WORDS]) {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        for (i, w) in words.chunks_exact(2).enumerate() {
            let (pair, _) = self.pair_of(base + 2 * i as u32);
            pair.store(pack([w[0], w[1]]), Ordering::Release);
        }
        if let Some(s) = &self.san {
            s.mark_init_range(base, SLAB_WORDS);
        }
    }

    /// Zero-fill `n` words from `base` (host-side helper for initialising
    /// freshly allocated regions with a sentinel pattern).
    pub fn fill(&self, base: Addr, n: usize, v: u32) {
        let end = base + n as u32;
        let mut addr = base;
        while addr < end {
            if addr.is_multiple_of(2) && addr + 1 < end {
                self.pair_of(addr).0.store(pack([v, v]), Ordering::Release);
                addr += 2;
            } else {
                self.store(addr, v);
                addr += 1;
            }
        }
        if let Some(s) = &self.san {
            s.mark_init_range(base, n);
        }
    }

    /// Wipe the arena back to an empty state: rewind the bump cursor to 0
    /// (freeing the entire capacity budget) and zero every previously
    /// handed-out word. Models a device reset after a fatal fault.
    /// Deliberately bypasses the sanitizer's `mark_init` — a reset device
    /// has *uninitialized* memory, and the caller is expected to also reset
    /// the sanitizer's shadow (see `Sanitizer::reset_shadow`) so initcheck
    /// semantics start fresh. Committed segments stay committed; only the
    /// allocation state is discarded.
    pub fn reset(&self) {
        let _g = self.grow_lock.lock();
        let cur = self.cursor.swap(0, Ordering::SeqCst);
        for addr in (0..cur).step_by(2) {
            self.pair_of(addr as Addr).0.store(0, Ordering::Release);
        }
    }
}

impl Drop for DeviceArena {
    fn drop(&mut self) {
        for seg in self.segments.iter() {
            let ptr = seg.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: pointer came from Box::into_raw of a
                // Box<[AtomicU64; SEGMENT_PAIRS]>-shaped slice in
                // ensure_committed; reconstitute and drop it. (A boxed
                // slice, unlike a forgotten Vec, carries no capacity
                // assumption to get wrong.)
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        ptr,
                        SEGMENT_PAIRS,
                    )));
                }
            }
        }
    }
}

// SAFETY: all interior state is atomic or lock-protected.
unsafe impl Send for DeviceArena {}
unsafe impl Sync for DeviceArena {}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(initial_words: usize) -> DeviceArena {
        DeviceArena::with_capacity(initial_words, u64::MAX)
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let a = arena(1024);
        let p1 = a.try_alloc_words(100, 32).unwrap();
        let p2 = a.try_alloc_words(100, 32).unwrap();
        assert_eq!(p1 % 32, 0);
        assert_eq!(p2 % 32, 0);
        assert!(p2 >= p1 + 100);
    }

    #[test]
    fn load_store_roundtrip() {
        let a = arena(1024);
        let p = a.try_alloc_words(4, 1).unwrap();
        a.store(p, 0xDEAD_BEEF);
        assert_eq!(a.load(p), 0xDEAD_BEEF);
        assert_eq!(a.load(p + 1), 0);
    }

    #[test]
    fn cas_semantics() {
        let a = arena(64);
        let p = a.try_alloc_words(1, 1).unwrap();
        assert_eq!(a.cas(p, 0, 5), Ok(0));
        assert_eq!(a.cas(p, 0, 9), Err(5));
        assert_eq!(a.load(p), 5);
    }

    #[test]
    fn fetch_ops() {
        let a = arena(64);
        let p = a.try_alloc_words(1, 1).unwrap();
        assert_eq!(a.fetch_add(p, 3), 0);
        assert_eq!(a.fetch_add(p, 4), 3);
        assert_eq!(a.fetch_sub(p, 2), 7);
        assert_eq!(a.load(p), 5);
        a.store(p, 0b0011);
        assert_eq!(a.fetch_or(p, 0b0100), 0b0011);
        assert_eq!(a.fetch_and(p, 0b0110), 0b0111);
        assert_eq!(a.load(p), 0b0110);
    }

    #[test]
    fn wrapping_add_and_sub_stay_in_their_half() {
        let a = arena(64);
        let p = a.try_alloc_words(2, 2).unwrap();
        for half in [p, p + 1] {
            let other = half ^ 1;
            a.store(half, u32::MAX);
            a.store(other, 0x1234_5678);
            assert_eq!(a.fetch_add(half, 2), u32::MAX);
            assert_eq!(a.load(half), 1);
            assert_eq!(a.fetch_sub(half, 3), 1);
            assert_eq!(a.load(half), u32::MAX - 1);
            assert_eq!(a.load(other), 0x1234_5678, "carry or borrow crossed halves");
        }
    }

    #[test]
    fn cas_on_the_high_half_leaves_the_low_half() {
        let a = arena(64);
        let p = a.try_alloc_words(2, 2).unwrap();
        a.store(p, 7);
        assert_eq!(a.cas(p + 1, 0, 9), Ok(0));
        assert_eq!(a.cas(p + 1, 0, 5), Err(9));
        assert_eq!((a.load(p), a.load(p + 1)), (7, 9));
    }

    #[test]
    fn concurrent_adds_on_both_halves_total_exactly() {
        let a = std::sync::Arc::new(arena(64));
        let p = a.try_alloc_words(2, 2).unwrap();
        std::thread::scope(|s| {
            for half in [p, p + 1] {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..100_000 {
                        a.fetch_add(half, 1);
                    }
                });
            }
        });
        assert_eq!((a.load(p), a.load(p + 1)), (100_000, 100_000));
    }

    #[test]
    fn cas_pair_swaps_both_words_or_returns_the_observed_pair() {
        let a = arena(64);
        let p = a.try_alloc_words(2, 2).unwrap();
        a.store(p, 3);
        a.store(p + 1, 4);
        assert_eq!(a.cas_pair(p, [3, 0], [5, 6]), Err([3, 4]));
        assert_eq!(a.cas_pair(p, [3, 4], [5, 6]), Ok([3, 4]));
        assert_eq!((a.load(p), a.load(p + 1)), (5, 6));
    }

    #[test]
    #[should_panic(expected = "is odd")]
    fn cas_pair_at_an_odd_address_panics() {
        let a = arena(64);
        let p = a.try_alloc_words(2, 2).unwrap();
        let _ = a.cas_pair(p + 1, [0, 0], [1, 1]);
    }

    #[test]
    fn slab_roundtrip() {
        let a = arena(1024);
        let p = a.try_alloc_words(SLAB_WORDS, SLAB_WORDS).unwrap();
        let words: [u32; SLAB_WORDS] = std::array::from_fn(|i| i as u32 * 7);
        a.store_slab(p, &words);
        assert_eq!(a.load_slab(p), words);
    }

    #[test]
    fn grows_past_one_segment() {
        let a = arena(64);
        // Allocate more than one 1M-word segment.
        let p = a.try_alloc_words(SEGMENT_WORDS + 128, 32).unwrap();
        let last = p + SEGMENT_WORDS as u32 + 100;
        a.store(last, 42);
        assert_eq!(a.load(last), 42);
    }

    #[test]
    fn fill_sets_range() {
        let a = arena(256);
        let p = a.try_alloc_words(64, 32).unwrap();
        a.fill(p, 64, u32::MAX);
        for i in 0..64 {
            assert_eq!(a.load(p + i), u32::MAX);
        }
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let a = std::sync::Arc::new(arena(64));
        let p = a.try_alloc_words(1, 1).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        a.fetch_add(p, 1);
                    }
                });
            }
        });
        assert_eq!(a.load(p), 40_000);
    }

    #[test]
    fn capacity_bounds_allocation_and_can_be_raised() {
        let a = DeviceArena::with_capacity(64, 100);
        let p = a.try_alloc_words(64, 32).unwrap();
        assert_eq!(p % 32, 0);
        let err = a.try_alloc_words(64, 32).unwrap_err();
        assert_eq!(
            err,
            OomError::Capacity {
                requested: 64,
                capacity: 100,
                allocated: 64
            }
        );
        // A smaller request that fits still succeeds...
        assert!(a.try_alloc_words(30, 1).is_ok());
        // ...and raising the budget unblocks the big one.
        a.set_capacity_words(200);
        assert!(a.try_alloc_words(64, 32).is_ok());
        assert!(a.allocated_words() <= 200);
    }

    #[test]
    fn failed_alloc_leaves_cursor_untouched() {
        let a = DeviceArena::with_capacity(64, 50);
        let before = a.allocated_words();
        assert!(a.try_alloc_words(64, 1).is_err());
        assert_eq!(a.allocated_words(), before);
    }

    #[test]
    fn reset_rewinds_cursor_and_zeroes_words() {
        let a = DeviceArena::with_capacity(256, 128);
        let p = a.try_alloc_words(100, 1).unwrap();
        a.fill(p, 100, 0xAB);
        assert!(a.try_alloc_words(100, 1).is_err(), "budget spent");
        a.reset();
        assert_eq!(a.allocated_words(), 0);
        // The full budget is available again and old contents are gone.
        let q = a.try_alloc_words(100, 1).unwrap();
        assert_eq!(a.load(q + 50), 0);
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let a = std::sync::Arc::new(arena(64));
        let mut all: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let a = a.clone();
                    s.spawn(move || {
                        (0..1000)
                            .map(|_| a.try_alloc_words(32, 32).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
