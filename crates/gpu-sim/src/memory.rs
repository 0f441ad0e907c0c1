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
//! Growth is lock-free for readers: the arena is a table of lazily
//! allocated fixed-size segments; allocation bumps a cursor and publishes
//! new segments with a CAS. Because slabs are 32-word aligned and segments
//! are a multiple of 32 words, a slab never straddles two segments.

use crate::fault::OomError;
use crate::sanitizer::Sanitizer;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the segment size in words (2^20 words = 4 MiB per segment).
const SEGMENT_SHIFT: u32 = 20;
/// Words per segment.
pub const SEGMENT_WORDS: usize = 1 << SEGMENT_SHIFT;
/// Maximum number of segments (=> 16 GiB address space, ample for benches).
const MAX_SEGMENTS: usize = 4096;

/// Words per 128-byte slab / cache line.
pub const SLAB_WORDS: usize = 32;

/// A device-memory address: an index into the arena's word space.
pub type Addr = u32;

/// Sentinel for "null device pointer".
pub const NULL_ADDR: Addr = u32::MAX;

/// Growable atomic word arena modelling GPU global memory. Private to
/// this crate: [`crate::Device`] is its only owner and [`crate::Warp`]
/// its only charged client.
pub(crate) struct DeviceArena {
    segments: Box<[AtomicPtr<AtomicU32>]>,
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
                let seg: Box<[AtomicU32]> = (0..SEGMENT_WORDS).map(|_| AtomicU32::new(0)).collect();
                let ptr = Box::into_raw(seg).cast::<AtomicU32>();
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

    /// Borrow the atomic word at `addr`.
    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU32 {
        let seg_idx = (addr >> SEGMENT_SHIFT) as usize;
        let off = (addr as usize) & (SEGMENT_WORDS - 1);
        let ptr = self.segments[seg_idx].load(Ordering::Acquire);
        assert!(
            !ptr.is_null(),
            "access to uncommitted device address {addr:#x}"
        );
        // SAFETY: segments are SEGMENT_WORDS long, published once with
        // Release, never freed before the arena drops, and `off` is in
        // bounds by construction.
        unsafe { &*ptr.add(off) }
    }

    /// Relaxed load of one word.
    #[inline]
    pub fn load(&self, addr: Addr) -> u32 {
        self.word(addr).load(Ordering::Acquire)
    }

    /// Store one word.
    #[inline]
    pub fn store(&self, addr: Addr, v: u32) {
        self.word(addr).store(v, Ordering::Release);
        self.mark_init(addr);
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
        let r =
            self.word(addr)
                .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire);
        if r.is_ok() {
            self.mark_init(addr);
        }
        r
    }

    /// Atomic exchange.
    #[inline]
    pub fn exchange(&self, addr: Addr, v: u32) -> u32 {
        let r = self.word(addr).swap(v, Ordering::AcqRel);
        self.mark_init(addr);
        r
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, v: u32) -> u32 {
        let r = self.word(addr).fetch_add(v, Ordering::AcqRel);
        self.mark_init(addr);
        r
    }

    /// Atomic sub; returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, addr: Addr, v: u32) -> u32 {
        let r = self.word(addr).fetch_sub(v, Ordering::AcqRel);
        self.mark_init(addr);
        r
    }

    /// Atomic bitwise OR; returns the previous value.
    #[inline]
    pub fn fetch_or(&self, addr: Addr, v: u32) -> u32 {
        let r = self.word(addr).fetch_or(v, Ordering::AcqRel);
        self.mark_init(addr);
        r
    }

    /// Atomic bitwise AND; returns the previous value.
    #[inline]
    pub fn fetch_and(&self, addr: Addr, v: u32) -> u32 {
        let r = self.word(addr).fetch_and(v, Ordering::AcqRel);
        self.mark_init(addr);
        r
    }

    /// Read `SLAB_WORDS` consecutive words starting at the slab-aligned
    /// `base` into an array (one coalesced 128 B read).
    #[inline]
    pub fn load_slab(&self, base: Addr) -> [u32; SLAB_WORDS] {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        std::array::from_fn(|i| self.load(base + i as u32))
    }

    /// Write `SLAB_WORDS` consecutive words (one coalesced 128 B write).
    #[inline]
    pub fn store_slab(&self, base: Addr, words: &[u32; SLAB_WORDS]) {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        for (i, w) in words.iter().enumerate() {
            self.store(base + i as u32, *w);
        }
    }

    /// Zero-fill `n` words from `base` (host-side helper for initialising
    /// freshly allocated regions with a sentinel pattern).
    pub fn fill(&self, base: Addr, n: usize, v: u32) {
        for i in 0..n {
            self.word(base + i as u32).store(v, Ordering::Release);
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
        for addr in 0..cur {
            self.word(addr as Addr).store(0, Ordering::Release);
        }
    }
}

impl Drop for DeviceArena {
    fn drop(&mut self) {
        for seg in self.segments.iter() {
            let ptr = seg.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: pointer came from Box::into_raw of a
                // Box<[AtomicU32; SEGMENT_WORDS]>-shaped slice in
                // ensure_committed; reconstitute and drop it. (A boxed
                // slice, unlike a forgotten Vec, carries no capacity
                // assumption to get wrong.)
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        ptr,
                        SEGMENT_WORDS,
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
