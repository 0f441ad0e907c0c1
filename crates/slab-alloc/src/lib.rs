//! # slab-alloc — warp-cooperative slab allocator (SlabAlloc workalike)
//!
//! The paper's hash tables resolve collisions by chaining 128-byte *slabs*,
//! allocated on demand by SlabAlloc (Ashkiani et al., IPDPS 2018). This
//! crate reproduces that allocator on the simulated device:
//!
//! - The pool grows in **super-blocks** of 32 **memory blocks**; each memory
//!   block holds 32 slabs tracked by one 32-bit occupancy bitmap word that
//!   lives in device memory.
//! - **Allocation** is warp-cooperative: a warp hashes to a home memory
//!   block and reads its super-block's 32 bitmap words in one coalesced
//!   load (lane *b* holds block *b*'s word). It claims a free bit of the
//!   home word with `atomicOr`, or else ballots for the first block with a
//!   free bit. A full super-block sends it to the others, newest first, one
//!   read and one ballot each; the pool grows only when all of them are
//!   full.
//! - **Freeing** clears the bit with `atomicAnd`. The paper frees collision
//!   slabs only during vertex deletion.
//!
//! Returned handles are raw device word addresses ([`gpu_sim::Addr`]), so a
//! slab pointer fits in a single `u32` lane register exactly as in CUDA.
//! Fresh slabs are initialised to the `EMPTY` sentinel pattern expected by
//! the slab hash.
//!
//! ## Epoch-based reclamation
//!
//! The quarantine ring doubles as a full epoch-based-reclamation scheme so
//! queries can run *concurrently* with mutation. A reader pins the current
//! launch era with [`SlabAllocator::pin`] and holds the returned
//! [`ReadGuard`] for the duration of its traversal; a quarantined slab is
//! recycled only once it is older than the current era **and** older than
//! every pinned era. A reader that
//! pinned era *P* can therefore chase any pointer it observed into a slab
//! freed at era *F ≥ P* — the slab's bytes are guaranteed intact until the
//! guard drops.

// A guard bound to `_` drops at once and pins nothing.
#![cfg_attr(not(test), deny(let_underscore_drop))]

use gpu_sim::{Addr, Device, Lanes, OomError, Profiler, Sanitizer, StatCounter, Warp, SLAB_WORDS};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Sentinel filled into newly allocated slabs (matches slab-hash `EMPTY`).
pub const SLAB_INIT_WORD: u32 = u32::MAX;

/// A typed slab-allocator failure.
///
/// Out-of-memory is recoverable (free slabs or raise the device budget and
/// retry); the misuse variants report what the old code paths panicked on,
/// so callers tearing down shared structures can surface corruption as an
/// error instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The device could not provide backing memory for pool growth, or a
    /// fault plan injected a failure.
    Oom(OomError),
    /// The freed address does not belong to the pool (e.g. a statically
    /// allocated base slab).
    NotPoolAddress {
        /// The offending address.
        addr: Addr,
    },
    /// The freed slab was not currently allocated.
    DoubleFree {
        /// The offending address.
        addr: Addr,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllocError::Oom(e) => write!(f, "slab pool out of memory: {e}"),
            AllocError::NotPoolAddress { addr } => {
                write!(f, "free of non-pool slab address {addr:#x}")
            }
            AllocError::DoubleFree { addr } => {
                write!(f, "double free of slab address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for AllocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllocError::Oom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OomError> for AllocError {
    fn from(e: OomError) -> Self {
        AllocError::Oom(e)
    }
}

/// Upper bound on quarantined slabs before the oldest are force-drained.
const QUARANTINE_SLABS: usize = 1024;

/// Source of unique allocator identities. The sanitizer keys its pin
/// model per allocator (see [`Sanitizer::on_pin`]) so a guard on one
/// graph cannot certify quarantined-slab reads of another graph sharing
/// the device.
static NEXT_ALLOC_ID: StatCounter = StatCounter::new(1);

/// Freed slabs whose occupancy bit is deliberately left claimed until it is
/// safe to recycle them.
///
/// Recycling a slab while a concurrent warp still traverses a stale pointer
/// into it is a classic GPU allocator hazard: the traverser reads another
/// structure's bytes and misparses them. The quarantine delays reuse until
/// the freeing *launch* has retired — a later launch is a device-wide
/// barrier, after which no stale pointer from the freeing launch can still
/// be in flight — or until the ring outgrows [`QUARANTINE_SLABS`]. In both
/// cases reuse additionally waits for every [`ReadGuard`] pinning an era ≤
/// the slab's free era to drop (epoch-based reclamation): pinned readers
/// may still be traversing pointers into the slab.
#[derive(Debug, Default)]
struct Quarantine {
    /// `(launch era at free time, slab base)` in free order.
    ring: VecDeque<(u64, Addr)>,
    /// Same addresses, for O(1) double-free membership checks.
    members: HashSet<Addr>,
}

/// Multiset of reader-pinned launch eras, shared between the allocator and
/// the [`ReadGuard`]s it hands out (guards are fully owned — no lifetime —
/// so callers can stash one across lock scopes and thread boundaries).
#[derive(Debug, Default)]
pub struct PinRegistry {
    /// era → live guard count.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl PinRegistry {
    fn register(&self, era: u64) {
        *self.pins.lock().entry(era).or_insert(0) += 1;
    }

    fn unregister(&self, era: u64) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&era) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&era);
            }
        }
    }

    /// Number of live guards across all eras.
    pub fn depth(&self) -> usize {
        self.pins.lock().values().sum()
    }

    /// Run `f` under the pin-table lock with the current minimum pinned
    /// era. The registry cannot change while `f` runs — `register` and
    /// `unregister` take the same lock — so a decision `f` makes (e.g.
    /// recycling a quarantined slab) cannot be invalidated by a
    /// concurrently registering pin.
    fn locked_min_pinned<R>(&self, f: impl FnOnce(Option<u64>) -> R) -> R {
        let pins = self.pins.lock();
        f(pins.keys().next().copied())
    }
}

/// An era pin: while this guard lives, no slab freed at or after the pinned
/// era can be recycled, so chain walks started under the guard stay valid
/// even while concurrent batches insert and delete.
///
/// Obtained from [`SlabAllocator::pin`]; dropping it releases the era (and
/// unregisters from the sanitizer's pin model when one is attached).
#[must_use = "queries are only snapshot-safe while the guard is held"]
pub struct ReadGuard {
    reg: Arc<PinRegistry>,
    era: u64,
    /// Id of the issuing allocator, for the sanitizer's per-allocator
    /// pin model.
    owner: u64,
    prof: Option<Arc<Profiler>>,
    san: Option<Arc<Sanitizer>>,
}

impl ReadGuard {
    /// The launch era this guard pins.
    pub fn era(&self) -> u64 {
        self.era
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        self.reg.unregister(self.era);
        if let Some(san) = &self.san {
            san.on_unpin(self.owner, self.era);
        }
        if let Some(p) = &self.prof {
            p.metrics().gauge("read.pin_depth").sub(1);
        }
    }
}

impl std::fmt::Debug for ReadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadGuard").field("era", &self.era).finish()
    }
}

/// Memory blocks per super-block.
const BLOCKS_PER_SUPER: usize = 32;
/// Slabs per memory block (one bit each in the block's bitmap word).
const SLABS_PER_BLOCK: usize = 32;
/// Slabs per super-block.
const SLABS_PER_SUPER: usize = BLOCKS_PER_SUPER * SLABS_PER_BLOCK;

/// Host-side record of one device-resident super-block.
#[derive(Debug, Clone, Copy)]
struct SuperBlock {
    /// Address of the 32 bitmap words (one per memory block).
    bitmaps: Addr,
    /// Address of the first slab's first word.
    slabs: Addr,
}

/// Warp-cooperative slab allocator over a [`Device`] arena.
///
/// Thread-safe: kernels running on the threaded executor may allocate and
/// free concurrently. Growth (adding super-blocks) takes a host-side write
/// lock; the hot path takes a read lock only.
pub struct SlabAllocator {
    supers: RwLock<Vec<SuperBlock>>,
    allocated: StatCounter,
    freed: StatCounter,
    quarantine: Mutex<Quarantine>,
    pins: Arc<PinRegistry>,
    /// Process-unique identity keying the sanitizer's pin model.
    id: u64,
}

impl SlabAllocator {
    /// Create an allocator with capacity for `initial_slabs` (rounded up to
    /// whole super-blocks, minimum one).
    pub fn new(dev: &Device, initial_slabs: usize) -> Self {
        let alloc = SlabAllocator {
            supers: RwLock::new(Vec::new()),
            allocated: StatCounter::default(),
            freed: StatCounter::default(),
            quarantine: Mutex::new(Quarantine::default()),
            pins: Arc::new(PinRegistry::default()),
            id: NEXT_ALLOC_ID.add(1),
        };
        let supers_needed = initial_slabs.div_ceil(SLABS_PER_SUPER).max(1);
        for seen in 0..supers_needed {
            alloc
                .try_grow(dev, seen)
                .unwrap_or_else(|e| panic!("initial slab pool allocation failed: {e}"));
        }
        alloc
    }

    /// Add one super-block to the pool, unless it already holds more than
    /// the `seen` super-blocks the caller found full (a racing warp grew
    /// it); returns the new super-block count. The bitmaps and slab storage
    /// come from a *single* arena allocation so a capacity failure can
    /// never strand a half-built super-block (the bump arena cannot free).
    fn try_grow(&self, dev: &Device, seen: usize) -> Result<usize, OomError> {
        let mut supers = self.supers.write();
        if supers.len() > seen {
            return Ok(supers.len());
        }
        // Layout: 32 bitmap words, then the 1024 slabs. BLOCKS_PER_SUPER is
        // a multiple of SLAB_WORDS' alignment, so both regions stay
        // slab-aligned.
        // Bitmaps start all-free. cudaMalloc'd memory is garbage, so the
        // zeros are written explicitly (the equivalent of the cudaMemset
        // SlabAlloc issues at pool setup) instead of leaning on the arena's
        // Rust-side zero-init — initcheck treats unwritten words as
        // uninitialised, so the slabs stay unwritten until claimed.
        let bitmaps = dev.try_alloc_filled(
            BLOCKS_PER_SUPER + SLABS_PER_SUPER * SLAB_WORDS,
            SLAB_WORDS,
            BLOCKS_PER_SUPER,
            0,
        )?;
        let slabs = bitmaps + BLOCKS_PER_SUPER as u32;
        supers.push(SuperBlock { bitmaps, slabs });
        if let Some(p) = dev.profiler() {
            let words = (supers.len() * (SLABS_PER_SUPER * SLAB_WORDS + BLOCKS_PER_SUPER)) as u64;
            p.metrics().gauge("slab_alloc.pool_words").set(words);
            dev.instant(
                "slab_pool_grow",
                format!("super-blocks: {}, pool words: {words}", supers.len()),
            );
        }
        Ok(supers.len())
    }

    /// Number of slabs currently live (allocated − freed).
    pub fn live_slabs(&self) -> u64 {
        self.allocated.get() - self.freed.get()
    }

    /// Total slabs ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.allocated.get()
    }

    /// Total pool capacity in slabs.
    pub fn capacity_slabs(&self) -> usize {
        self.supers.read().len() * SLABS_PER_SUPER
    }

    /// Device words consumed by the pool (slabs + bitmaps).
    pub fn pool_words(&self) -> u64 {
        (self.supers.read().len() * (SLABS_PER_SUPER * SLAB_WORDS + BLOCKS_PER_SUPER)) as u64
    }

    /// Warp-cooperative allocation of one slab; panics on out-of-memory.
    ///
    /// Thin wrapper over [`Self::try_allocate`] for paths where exhaustion
    /// is a programming error (tests, setup).
    pub fn allocate(&self, warp: &Warp) -> Addr {
        self.try_allocate(warp)
            .unwrap_or_else(|e| panic!("slab allocation failed: {e}"))
    }

    /// Warp-cooperative allocation of one slab.
    ///
    /// The returned address is slab-aligned and its 32 words are initialised
    /// to [`SLAB_INIT_WORD`]. The warp probes whole super-blocks: one probe
    /// is one coalesced read of a super-block's 32 bitmap words, lane *b*
    /// holding memory block *b*'s word. The probe order:
    ///
    /// 1. The **home block** `hash_block(warp id, nonce) % blocks`. If its
    ///    word has a free bit, the warp claims it without a ballot.
    /// 2. Otherwise one ballot over the home super-block's words picks the
    ///    first free block at or after the home block's lane (cyclically).
    /// 3. Then every other super-block, **newest to oldest**, one read and
    ///    one ballot each: the pool grows a super-block at a time, so the
    ///    newest one holds most of the free slabs.
    /// 4. Only when every super-block was read and none had a free bit
    ///    does the pool grow, and the warp probes the new super-block(s).
    ///
    /// Each super-block is read at most once per call. Charges: one
    /// transaction per super-block read, one ballot per probe that needs
    /// one, one atomic for the claim, one transaction for the init write —
    /// a home-word hit is 2 transactions, 1 atomic and no ballot. A claim
    /// lost to a racing warp is speculative and uncharged: the warp folds
    /// the returned bitmap into its copy and picks again from the same read.
    ///
    /// This is the fallible allocation site of the whole stack: it consults
    /// the device's fault plan (once per call) and propagates capacity
    /// failures from pool growth. On `Err` nothing was claimed — the pool
    /// and every table built on it are untouched.
    pub fn try_allocate(&self, warp: &Warp) -> Result<Addr, AllocError> {
        warp.device().fault_check()?;
        self.drain_quarantine(warp.device());
        // The home block is seeded by warp id and a per-call nonce derived
        // from the allocation counter, SlabAlloc's hashed resident block.
        let mut n_supers = self.supers.read().len();
        let home = hash_block(warp.warp_id(), self.allocated.get() as u32) as usize
            % (n_supers * BLOCKS_PER_SUPER);
        let (home_super, home_lane) = (home / BLOCKS_PER_SUPER, home % BLOCKS_PER_SUPER);
        let mut reads = 0;
        let mut probe = |s: usize| {
            reads += 1;
            self.claim_in(warp, s, home_lane, s == home_super)
        };
        let mut lo = 0;
        let addr = match probe(home_super) {
            Some(addr) => addr,
            None => loop {
                let mut newest_first = (lo..n_supers).rev().filter(|&s| s != home_super);
                if let Some(addr) = newest_first.find_map(&mut probe) {
                    break addr;
                }
                // A whole pass saw no free bit: grow (unless a racing warp
                // already did) and probe the super-blocks added since.
                lo = n_supers;
                n_supers = self.try_grow(warp.device(), n_supers)?;
            },
        };
        if let Some(p) = warp.device().profiler() {
            p.metrics().record("slab_alloc.bitmap_reads", reads);
        }
        Ok(addr)
    }

    /// One probe of super-block `s`: read its 32 bitmap words in one
    /// coalesced load and claim a free slab, trying `start_lane`'s word
    /// without a ballot when `home`, else balloting for the first free
    /// word at or after `start_lane`. Returns the initialised slab, or
    /// `None` when every word is full.
    fn claim_in(&self, warp: &Warp, s: usize, start_lane: usize, home: bool) -> Option<Addr> {
        let sb = self.supers.read()[s];
        let mut words = warp.read_slab(sb.bitmaps);
        loop {
            // The pick and the claim are one speculative attempt: a
            // sequential executor never issues a failing atomicOr (it
            // always sees the current bitmap), so a lost race must charge
            // neither.
            warp.begin_attempt();
            let lane = if home && words.0[start_lane] != u32::MAX {
                start_lane
            } else {
                let free = warp.ballot(&Lanes::from_fn(|b| words.0[b] != u32::MAX));
                if free == 0 {
                    warp.commit_attempt();
                    return None;
                }
                (start_lane + free.rotate_right(start_lane as u32).trailing_zeros() as usize)
                    % BLOCKS_PER_SUPER
            };
            let slot = (!words.0[lane]).trailing_zeros();
            let prev = warp.atomic_or(sb.bitmaps + lane as u32, 1 << slot);
            if prev & (1 << slot) == 0 {
                warp.commit_attempt();
                let slab_idx = lane * SLABS_PER_BLOCK + slot as usize;
                return Some(self.init_claimed(warp, sb.slabs, slab_idx));
            }
            // Raced: another warp took the bit; pick again on the updated word.
            warp.abort_attempt();
            words.0[lane] = prev | (1 << slot);
        }
    }

    /// Account for a claimed slab and initialise it to the EMPTY pattern.
    fn init_claimed(&self, warp: &Warp, slabs: Addr, slab_idx: usize) -> Addr {
        self.allocated.add(1);
        let addr = slabs + (slab_idx * SLAB_WORDS) as u32;
        if let Some(san) = warp.device().sanitizer() {
            san.on_slab_alloc(addr, warp.kernel_name(), self.id);
        }
        if let Some(p) = warp.device().profiler() {
            p.metrics().gauge("slab_alloc.live_slabs").add(1);
            warp.device().instant(
                "slab_alloc",
                format!("slab {addr:#x} by {}", warp.kernel_name()),
            );
        }
        warp.write_slab(addr, &Lanes::splat(SLAB_INIT_WORD));
        addr
    }

    /// Warp-cooperative free of a slab previously returned by
    /// [`Self::allocate`] (one atomic on the occupancy word).
    ///
    /// The slab enters *quarantine* rather than becoming immediately
    /// reusable: its occupancy bit stays claimed until the freeing launch
    /// has retired (see `Quarantine`), so a concurrent warp chasing a
    /// stale pointer into the slab can never observe it recycled as
    /// different data mid-launch. The charged atomic is a mask-preserving
    /// no-op RMW on the bitmap word — same cost as a direct clear, and it
    /// release-publishes the free for the eventual re-claimer to acquire.
    ///
    /// Returns [`AllocError::NotPoolAddress`] if `addr` does not belong to
    /// the pool (e.g. a statically allocated base slab) and
    /// [`AllocError::DoubleFree`] if the slab is not currently allocated —
    /// both indicate data-structure corruption, matching a debug assertion
    /// in SlabAlloc. Neither touches the free counter; double-frees are
    /// also recorded by the device sanitizer when one is attached.
    pub fn free(&self, warp: &Warp, addr: Addr) -> Result<(), AllocError> {
        let Some((bitmap_addr, slot)) = self.locate(addr) else {
            return Err(AllocError::NotPoolAddress { addr });
        };
        let dev = warp.device();
        let prev = warp.atomic_and(bitmap_addr, u32::MAX);
        let mut q = self.quarantine.lock();
        if prev & (1 << slot) == 0 || q.members.contains(&addr) {
            drop(q);
            if let Some(san) = dev.sanitizer() {
                san.report_double_free(addr, warp.kernel_name(), warp.warp_id(), dev.launch_era());
            }
            return Err(AllocError::DoubleFree { addr });
        }
        q.ring.push_back((dev.launch_era(), addr));
        q.members.insert(addr);
        drop(q);
        if let Some(san) = dev.sanitizer() {
            san.on_slab_free(addr, warp.kernel_name(), dev.launch_era(), self.id);
        }
        if let Some(p) = dev.profiler() {
            p.metrics().gauge("slab_alloc.live_slabs").sub(1);
            dev.instant(
                "slab_free",
                format!("slab {addr:#x} quarantined by {}", warp.kernel_name()),
            );
        }
        self.freed.add(1);
        Ok(())
    }

    /// Number of freed slabs currently held in quarantine.
    pub fn quarantined_slabs(&self) -> usize {
        self.quarantine.lock().ring.len()
    }

    /// Pin the current launch era for reading. While the returned
    /// [`ReadGuard`] lives, no slab freed at or after the pinned era is
    /// recycled, so concurrent chain walks stay snapshot-valid. Uncharged:
    /// pinning is host-side epoch bookkeeping, not simulated device work.
    pub fn pin(&self, dev: &Device) -> ReadGuard {
        // Register-then-validate, the classic EBR entry dance: if the era
        // advanced between the read and the registration, a concurrent
        // drain may have missed this pin — re-pin at the newer era (the
        // reader has observed nothing yet, so the newer snapshot is fine).
        // Once the re-read matches, any later drain that justifies itself
        // by an era advance must also observe this registration.
        let mut era = dev.launch_era();
        loop {
            self.pins.register(era);
            let now = dev.launch_era();
            if now == era {
                break;
            }
            self.pins.unregister(era);
            era = now;
        }
        if let Some(san) = dev.sanitizer() {
            san.on_pin(self.id, era);
        }
        if let Some(p) = dev.profiler() {
            p.metrics().gauge("read.pin_depth").add(1);
        }
        ReadGuard {
            reg: self.pins.clone(),
            era,
            owner: self.id,
            prof: dev.profiler().cloned(),
            san: dev.sanitizer().cloned(),
        }
    }

    /// Number of live [`ReadGuard`]s.
    pub fn pinned_readers(&self) -> usize {
        self.pins.depth()
    }

    /// True when `guard` was issued by this allocator's pin registry —
    /// a cheap identity check letting query layers reject guards pinned
    /// against a *different* graph (whose reclamation they don't block).
    pub fn owns_guard(&self, guard: &ReadGuard) -> bool {
        Arc::ptr_eq(&self.pins, &guard.reg)
    }

    /// Audit the epoch-reclamation invariants; returns a description of
    /// the first violation found. Checked: the quarantine ring is
    /// era-monotonic (free order), every ring entry is present in the
    /// member set, and every quarantined slab's occupancy bit is still
    /// claimed (it cannot have been handed out again). The pin-coverage
    /// guarantee — no entry leaves quarantine while a reader era ≤ its
    /// free era is pinned — is enforced structurally rather than audited
    /// post-hoc: the drain decides coverage and pops under the pin-table
    /// lock (see `drain_quarantine`), so there is no window in which a
    /// registering pin can be missed.
    pub fn audit_quarantine(&self, dev: &Device) -> Result<(), String> {
        let q = self.quarantine.lock();
        let mut prev_era = 0u64;
        for &(freed_era, addr) in &q.ring {
            if freed_era < prev_era {
                return Err(format!(
                    "quarantine ring out of era order: {freed_era} after {prev_era}"
                ));
            }
            prev_era = freed_era;
            if !q.members.contains(&addr) {
                return Err(format!("ring entry {addr:#x} missing from member set"));
            }
            let Some((bitmap_addr, slot)) = self.locate(addr) else {
                return Err(format!("quarantined slab {addr:#x} is not a pool address"));
            };
            let mut bits = [0];
            dev.host_read(bitmap_addr, &mut bits);
            if bits[0] & (1 << slot) == 0 {
                return Err(format!(
                    "quarantined slab {addr:#x} occupancy bit released while still ringed"
                ));
            }
        }
        Ok(())
    }

    /// Release quarantined slabs whose freeing launch has retired (a later
    /// launch began — a device-wide barrier, or the era was advanced
    /// explicitly at a batch boundary), plus the oldest entries whenever
    /// the ring overflows [`QUARANTINE_SLABS`]. In every case a slab is
    /// held while any live [`ReadGuard`] pins an era ≤ its free era — the
    /// epoch-reclamation guarantee — so even a force-drain cannot pull a
    /// slab out from under a reader; the ring simply grows past its soft
    /// cap until the guard drops. Uncharged: this is host-side reclamation
    /// bookkeeping off the allocation hot path.
    fn drain_quarantine(&self, dev: &Device) {
        let era = dev.launch_era();
        let mut q = self.quarantine.lock();
        let mut drained = 0u64;
        loop {
            let force = q.ring.len() > QUARANTINE_SLABS;
            let Some(&(freed_era, addr)) = q.ring.front() else {
                break;
            };
            if !force && freed_era >= era {
                break;
            }
            // Coverage is decided and the entry popped under the pin-table
            // lock, so a pin racing this drain cannot register between the
            // check and the pop: it either lands before the check (the
            // entry is held and the ring simply grows past its soft cap
            // until the guard drops) or after the pop, at an era from
            // which the already-unlinked slab is unreachable. Re-checked
            // per entry so a pin taken mid-drain stops the drain at its
            // first covered slab.
            let popped = self.pins.locked_min_pinned(|min| {
                if min.is_some_and(|p| p <= freed_era) {
                    return false;
                }
                q.ring.pop_front();
                true
            });
            if !popped {
                break;
            }
            q.members.remove(&addr);
            if let Some((bitmap_addr, slot)) = self.locate(addr) {
                dev.host_atomic_and(bitmap_addr, !(1 << slot));
            }
            if let Some(san) = dev.sanitizer() {
                san.on_slab_drain(addr);
            }
            drained += 1;
        }
        if drained > 0 && dev.profiler().is_some() {
            dev.instant(
                "slab_quarantine_drain",
                format!("{drained} slabs released, {} still held", q.ring.len()),
            );
        }
    }

    /// Whether `addr` lies inside the dynamic pool (vs. a static base slab).
    pub fn owns(&self, addr: Addr) -> bool {
        self.locate(addr).is_some()
    }

    /// Map a slab address to its (bitmap word address, bit index).
    fn locate(&self, addr: Addr) -> Option<(Addr, u32)> {
        let supers = self.supers.read();
        for sb in supers.iter() {
            let start = sb.slabs;
            let end = start + (SLABS_PER_SUPER * SLAB_WORDS) as u32;
            if addr >= start && addr < end {
                let slab_idx = ((addr - start) as usize) / SLAB_WORDS;
                debug_assert_eq!((addr - start) as usize % SLAB_WORDS, 0);
                let block = slab_idx / SLABS_PER_BLOCK;
                let slot = (slab_idx % SLABS_PER_BLOCK) as u32;
                return Some((sb.bitmaps + block as u32, slot));
            }
        }
        None
    }
}

/// Mixing hash for an allocation's home block (xorshift-multiply).
#[inline]
fn hash_block(warp_id: u32, nonce: u32) -> u32 {
    let mut x = warp_id
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(nonce.wrapping_mul(0x85EB_CA6B));
    x ^= x >> 16;
    x = x.wrapping_mul(0x7FEB_352D);
    x ^= x >> 15;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CounterSnapshot, Device, ExecPolicy};

    fn with_warp(dev: &Device, f: impl Fn(&Warp) + Sync) {
        dev.launch_warps("alloc_test", 1, |warp| f(warp));
    }

    #[test]
    fn allocate_returns_aligned_initialised_slab() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 64);
        with_warp(&dev, |warp| {
            let a = alloc.allocate(warp);
            assert_eq!(a as usize % SLAB_WORDS, 0);
            assert_eq!(warp.read_slab(a), Lanes::splat(SLAB_INIT_WORD));
        });
        assert_eq!(alloc.live_slabs(), 1);
    }

    #[test]
    fn allocations_are_distinct() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 1024);
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        with_warp(&dev, |warp| {
            for _ in 0..500 {
                let a = alloc.allocate(warp);
                assert!(seen.lock().unwrap().insert(a), "duplicate slab {a:#x}");
            }
        });
        assert_eq!(alloc.live_slabs(), 500);
    }

    #[test]
    fn free_allows_reuse() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 32);
        with_warp(&dev, |warp| {
            let first: Vec<Addr> = (0..100).map(|_| alloc.allocate(warp)).collect();
            for &a in &first {
                // Dirty the slab, then free it.
                warp.write_word(a, 123);
                alloc.free(warp, a).unwrap();
            }
            assert_eq!(alloc.live_slabs(), 0);
            // Reallocated slabs must be re-initialised.
            for _ in 0..100 {
                let a = alloc.allocate(warp);
                assert_eq!(warp.read_word(a), SLAB_INIT_WORD);
            }
        });
    }

    #[test]
    fn pool_grows_when_exhausted() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 1); // one super-block = 1024 slabs
        let initial_capacity = alloc.capacity_slabs();
        with_warp(&dev, |warp| {
            for _ in 0..initial_capacity + 10 {
                alloc.allocate(warp);
            }
        });
        assert!(alloc.capacity_slabs() > initial_capacity);
        assert_eq!(alloc.live_slabs() as usize, initial_capacity + 10);
    }

    #[test]
    fn freed_slab_is_quarantined_until_next_launch() {
        let dev = Device::new(1 << 17);
        let alloc = SlabAllocator::new(&dev, 32);
        let cap = alloc.capacity_slabs();
        let freed = parking_lot::Mutex::new(0);
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
            // Within the freeing launch the slab must NOT be recycled: a
            // concurrent warp could still hold a stale pointer into it.
            for _ in 0..8 {
                assert_ne!(alloc.allocate(warp), a, "slab recycled mid-launch");
            }
            *freed.lock() = a;
        });
        let a = freed.into_inner();
        assert_eq!(alloc.quarantined_slabs(), 1);
        // A later launch is a device-wide barrier; the quarantine drains
        // and the freed slab becomes claimable again.
        let reused = parking_lot::Mutex::new(false);
        dev.launch_warps("alloc_test", 1, |warp| {
            for _ in 0..cap {
                if alloc.allocate(warp) == a {
                    *reused.lock() = true;
                    break;
                }
            }
        });
        assert_eq!(alloc.quarantined_slabs(), 0);
        assert!(reused.into_inner(), "drained slab was never recycled");
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_guard_drops() {
        let dev = Device::new(1 << 17);
        let alloc = SlabAllocator::new(&dev, 32);
        let cap = alloc.capacity_slabs();
        // Pin the era *before* the free: the guard covers the slab.
        let guard = alloc.pin(&dev);
        assert_eq!(alloc.pinned_readers(), 1);
        let freed = parking_lot::Mutex::new(0);
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
            *freed.lock() = a;
        });
        let a = freed.into_inner();
        assert!(guard.era() <= dev.launch_era());
        // Later launches retire the freeing launch, but the pinned era
        // must still hold the slab in quarantine.
        dev.launch_warps("alloc_test", 1, |warp| {
            for _ in 0..8 {
                assert_ne!(alloc.allocate(warp), a, "slab recycled under a pin");
            }
        });
        assert_eq!(alloc.quarantined_slabs(), 1);
        alloc.audit_quarantine(&dev).unwrap();
        drop(guard);
        assert_eq!(alloc.pinned_readers(), 0);
        // With the guard gone the slab drains and is claimable again.
        let reused = parking_lot::Mutex::new(false);
        dev.launch_warps("alloc_test", 1, |warp| {
            for _ in 0..2 * cap {
                if alloc.allocate(warp) == a {
                    *reused.lock() = true;
                    break;
                }
            }
        });
        assert!(reused.into_inner(), "slab never recycled after unpin");
        alloc.audit_quarantine(&dev).unwrap();
    }

    #[test]
    fn force_drain_respects_pins() {
        let dev = Device::new(1 << 22);
        let alloc = SlabAllocator::new(&dev, 4 * QUARANTINE_SLABS);
        let guard = alloc.pin(&dev);
        // Overflow the quarantine soft cap while the guard is live: the
        // force path must hold every covered slab rather than recycle it.
        dev.launch_warps("alloc_test", 1, |warp| {
            let slabs: Vec<Addr> = (0..QUARANTINE_SLABS + 100)
                .map(|_| alloc.allocate(warp))
                .collect();
            for &a in &slabs {
                alloc.free(warp, a).unwrap();
            }
        });
        dev.launch_warps("alloc_test", 1, |warp| {
            // Allocation triggers drain attempts; nothing may leave.
            alloc.allocate(warp);
        });
        assert_eq!(alloc.quarantined_slabs(), QUARANTINE_SLABS + 100);
        alloc.audit_quarantine(&dev).unwrap();
        drop(guard);
        dev.launch_warps("alloc_test", 1, |warp| {
            alloc.allocate(warp);
        });
        assert_eq!(alloc.quarantined_slabs(), 0, "unpinned ring drains");
        alloc.audit_quarantine(&dev).unwrap();
    }

    #[test]
    fn pin_after_free_does_not_block_reclamation() {
        let dev = Device::new(1 << 17);
        let alloc = SlabAllocator::new(&dev, 32);
        let cap = alloc.capacity_slabs();
        let freed = parking_lot::Mutex::new(0);
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
            *freed.lock() = a;
        });
        let a = freed.into_inner();
        // The batch boundary bumps the era, *then* the reader pins: its
        // era strictly postdates the free, so it cannot hold a stale
        // pointer into the slab and must not delay its reuse. (A pin in
        // the *same* era as the free would conservatively cover it.)
        dev.advance_era();
        let _guard = alloc.pin(&dev);
        let reused = parking_lot::Mutex::new(false);
        dev.launch_warps("alloc_test", 1, |warp| {
            for _ in 0..cap {
                if alloc.allocate(warp) == a {
                    *reused.lock() = true;
                    break;
                }
            }
        });
        assert!(reused.into_inner(), "late pin wrongly blocked reclamation");
    }

    #[test]
    fn double_free_returns_error() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 32);
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
            assert_eq!(alloc.free(warp, a), Err(AllocError::DoubleFree { addr: a }));
        });
        // The failed free did not disturb the live-slab accounting.
        assert_eq!(alloc.live_slabs(), 0);
    }

    #[test]
    fn freeing_foreign_address_returns_error() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 32);
        let foreign = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        dev.launch_warps("alloc_test", 1, |warp| {
            assert_eq!(
                alloc.free(warp, foreign),
                Err(AllocError::NotPoolAddress { addr: foreign })
            );
        });
        // The pool is still usable after the misuse report.
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
        });
    }

    #[test]
    fn bounded_device_fails_growth_with_typed_error() {
        use gpu_sim::DeviceConfig;
        // Budget fits the initial super-block (32 + 1024*32 = 32800 words)
        // plus a little, but not a second one.
        let dev = Device::with_config(DeviceConfig::new(1 << 16).with_capacity_words(40_000));
        let alloc = SlabAllocator::new(&dev, 1);
        let capacity = alloc.capacity_slabs();
        let failed = parking_lot::Mutex::new(None);
        dev.launch_warps("alloc_test", 1, |warp| {
            for _ in 0..capacity {
                alloc.allocate(warp);
            }
            *failed.lock() = Some(alloc.try_allocate(warp));
        });
        let failed = failed.into_inner().unwrap();
        assert!(
            matches!(failed, Err(AllocError::Oom(OomError::Capacity { .. }))),
            "expected capacity OOM, got {failed:?}"
        );
        assert_eq!(alloc.live_slabs() as usize, capacity, "no slab leaked");
        // Raising the budget makes the same allocation succeed.
        dev.set_capacity_words(80_000);
        dev.launch_warps("alloc_test", 1, |warp| {
            alloc.try_allocate(warp).unwrap();
        });
    }

    #[test]
    fn fault_plan_injects_failure_without_corrupting_pool() {
        use gpu_sim::FaultPlan;
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 32);
        dev.set_fault_plan(FaultPlan::fail_nth(2));
        dev.launch_warps("alloc_test", 1, |warp| {
            let a = alloc.try_allocate(warp).unwrap();
            let err = alloc.try_allocate(warp).unwrap_err();
            assert!(matches!(err, AllocError::Oom(OomError::Injected { .. })));
            // The pool still works after the injected failure.
            let b = alloc.try_allocate(warp).unwrap();
            assert_ne!(a, b);
        });
        dev.clear_fault_plan();
        assert_eq!(alloc.live_slabs(), 2);
        assert_eq!(dev.injected_faults(), 1);
    }

    #[test]
    fn owns_distinguishes_pool_from_static() {
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 32);
        let foreign = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        with_warp(&dev, |warp| {
            let a = alloc.allocate(warp);
            assert!(alloc.owns(a));
            assert!(!alloc.owns(foreign));
        });
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, 4096);
        let seen = parking_lot::Mutex::new(std::collections::HashSet::new());
        dev.launch_warps("alloc_test", 64, |warp| {
            for _ in 0..16 {
                let a = alloc.allocate(warp);
                assert!(seen.lock().insert(a), "duplicate slab under threads");
            }
        });
        assert_eq!(alloc.live_slabs(), 64 * 16);
    }

    #[test]
    fn concurrent_fill_grows_the_pool_once() {
        // 64 racing warps claim exactly two super-blocks' worth of slabs
        // from a one-super-block pool. Nothing is freed, so a warp still
        // waiting for a slab can never see every bit taken: the pool must
        // grow exactly once, however many warps find the first one full.
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, SLABS_PER_SUPER);
        let seen = parking_lot::Mutex::new(std::collections::HashSet::new());
        dev.launch_warps("alloc_test", 64, |warp| {
            for _ in 0..2 * SLABS_PER_SUPER / 64 {
                let a = alloc.allocate(warp);
                assert!(seen.lock().insert(a), "duplicate slab under threads");
            }
        });
        assert_eq!(alloc.live_slabs() as usize, 2 * SLABS_PER_SUPER);
        assert_eq!(alloc.capacity_slabs(), 2 * SLABS_PER_SUPER);
    }

    #[test]
    fn profiler_observes_allocator_events() {
        use gpu_sim::{DeviceConfig, ProfilerConfig};
        let dev = Device::with_config(
            DeviceConfig::new(1 << 16).with_profiler(ProfilerConfig::default()),
        );
        let alloc = SlabAllocator::new(&dev, 32);
        with_warp(&dev, |warp| {
            let a = alloc.allocate(warp);
            alloc.free(warp, a).unwrap();
        });
        let p = dev.profiler().unwrap();
        let instants = p.timeline().instants;
        let has = |n: &str| instants.iter().any(|i| i.name == n);
        assert!(has("slab_pool_grow"), "pool growth not recorded");
        assert!(has("slab_alloc"), "allocation not recorded");
        assert!(has("slab_free"), "free not recorded");
        let sums = p.metric_summaries();
        let live = sums
            .iter()
            .find(|s| s.name == "slab_alloc.live_slabs")
            .expect("live-slab gauge missing");
        assert_eq!(live.max, 1, "high-water of one live slab");
        assert_eq!(live.sum, 0, "current value back to zero after free");
        let pool = sums
            .iter()
            .find(|s| s.name == "slab_alloc.pool_words")
            .expect("pool-words gauge missing");
        assert!(pool.max >= (SLABS_PER_SUPER * SLAB_WORDS) as u64);
    }

    /// The home block of the next allocation by warp `warp_id`, as
    /// (super-block, lane).
    fn home_of(alloc: &SlabAllocator, warp_id: u32) -> (usize, usize) {
        let blocks = alloc.supers.read().len() * BLOCKS_PER_SUPER;
        let home = hash_block(warp_id, alloc.allocated.get() as u32) as usize % blocks;
        (home / BLOCKS_PER_SUPER, home % BLOCKS_PER_SUPER)
    }

    /// Mark every slab of super-block `s` claimed, straight in its bitmaps.
    fn fill_super(dev: &Device, alloc: &SlabAllocator, s: usize) {
        dev.host_write(
            alloc.supers.read()[s].bitmaps,
            &[u32::MAX; BLOCKS_PER_SUPER],
        );
    }

    /// The charges of one allocation by warp 0.
    fn allocation_charges(dev: &Device, alloc: &SlabAllocator) -> CounterSnapshot {
        let before = dev.counters().snapshot();
        with_warp(dev, |warp| {
            alloc.allocate(warp);
        });
        dev.counters().snapshot().delta(&before)
    }

    #[test]
    fn allocation_charges_counters() {
        let charges = |d: CounterSnapshot| (d.transactions, d.atomics, d.ballots);
        // A home-word hit: one bitmap read, the claim, the init write.
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 64);
        assert_eq!(charges(allocation_charges(&dev, &alloc)), (2, 1, 0));

        // The home word is full but its super-block has room: the same
        // read, plus one ballot to pick another block.
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 64);
        let (s, lane) = home_of(&alloc, 0);
        dev.host_write(alloc.supers.read()[s].bitmaps + lane as u32, &[u32::MAX]);
        assert_eq!(charges(allocation_charges(&dev, &alloc)), (2, 1, 1));

        // Only the newest super-block has room: the home super-block's read
        // and ballot, then the newest one's; the middle one is never read.
        let dev = Device::new(1 << 16);
        let alloc = SlabAllocator::new(&dev, 3 * SLABS_PER_SUPER);
        let (home, _) = home_of(&alloc, 0);
        assert_ne!(home, 2, "the home super-block must not be the newest");
        fill_super(&dev, &alloc, 0);
        fill_super(&dev, &alloc, 1);
        assert_eq!(charges(allocation_charges(&dev, &alloc)), (3, 1, 2));
    }

    #[test]
    fn full_pool_reads_each_super_block_once_then_grows() {
        for k in [1, 4] {
            let dev = Device::new(1 << 16);
            let alloc = SlabAllocator::new(&dev, k * SLABS_PER_SUPER);
            for s in 0..k {
                fill_super(&dev, &alloc, s);
            }
            let d = allocation_charges(&dev, &alloc);
            assert_eq!(alloc.capacity_slabs(), (k + 1) * SLABS_PER_SUPER, "k = {k}");
            // k reads and k ballots find every super-block full; the pool
            // grows and one read and one ballot claim in the new one.
            let k = k as u64;
            assert_eq!(
                (d.transactions, d.atomics, d.ballots),
                (k + 2, 1, k + 1),
                "k = {k}"
            );
        }
    }

    /// Super-blocks an allocation by warp 0 reads, from the bitmaps: one
    /// when its home super-block has room, else one more per super-block
    /// tried newest first up to the first with room.
    fn expected_reads(dev: &Device, alloc: &SlabAllocator) -> u64 {
        let supers = alloc.supers.read().clone();
        let has_room = |s: usize| {
            let mut words = [0; BLOCKS_PER_SUPER];
            dev.host_read(supers[s].bitmaps, &mut words);
            words.iter().any(|&w| w != u32::MAX)
        };
        let (home, _) = home_of(alloc, 0);
        if has_room(home) {
            return 1;
        }
        let mut newest_first = (0..supers.len()).rev().filter(|&s| s != home);
        2 + newest_first.position(has_room).expect("the pool has room") as u64
    }

    #[test]
    fn filling_the_pool_grows_it_only_when_full() {
        for k in [1, 4] {
            let dev = Device::new(1 << 16);
            let alloc = SlabAllocator::new(&dev, k * SLABS_PER_SUPER);
            let cap = alloc.capacity_slabs();
            let total = dev.counters().snapshot();
            for live in 0..cap {
                let reads = expected_reads(&dev, &alloc);
                let d = allocation_charges(&dev, &alloc);
                assert_eq!(alloc.capacity_slabs(), cap, "grew at {live} live, k = {k}");
                assert_eq!(d.transactions, reads + 1, "allocation {live}, k = {k}");
            }
            let d = dev.counters().snapshot().delta(&total);
            assert_eq!(alloc.live_slabs() as usize, cap);
            if k == 1 {
                // One super-block: every allocation is one read and the init.
                assert_eq!(d.transactions as usize, 2 * cap);
            }
            with_warp(&dev, |warp| {
                alloc.allocate(warp);
            });
            assert_eq!(alloc.capacity_slabs(), cap + SLABS_PER_SUPER, "k = {k}");
        }
    }

    #[test]
    fn profiler_records_bitmap_reads_per_allocation() {
        use gpu_sim::{DeviceConfig, ProfilerConfig};
        let run = |dev: &Device| {
            let alloc = SlabAllocator::new(dev, 2 * SLABS_PER_SUPER);
            // A home-word hit reads one super-block; with both full, the
            // allocation reads both, grows, and reads the new one.
            allocation_charges(dev, &alloc);
            fill_super(dev, &alloc, 0);
            fill_super(dev, &alloc, 1);
            allocation_charges(dev, &alloc);
            dev.counters().snapshot()
        };
        let dev = Device::with_config(
            DeviceConfig::new(1 << 16).with_profiler(ProfilerConfig::default()),
        );
        let plain = Device::new(1 << 16);
        assert_eq!(run(&dev), run(&plain), "the histogram charges nothing");
        let reads = dev
            .profiler()
            .unwrap()
            .metric_summaries()
            .into_iter()
            .find(|s| s.name == "slab_alloc.bitmap_reads")
            .expect("bitmap-read histogram missing");
        assert_eq!((reads.count, reads.sum, reads.max), (2, 4, 3));
    }
}
