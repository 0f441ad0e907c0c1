//! Shadow-memory sanitizer: racecheck / memcheck / initcheck for the
//! simulated device, modelled on NVIDIA's `compute-sanitizer` tools.
//!
//! The sanitizer is opt-in (see [`crate::DeviceConfig::with_sanitizer`];
//! the `sanitize` cargo feature turns it on for every default-configured
//! device) and attaches to the device's memory arena: every word access
//! issued through a [`crate::Warp`] accessor is classified, while host
//! transfers ([`crate::Device::host_write`] and friends) only update the
//! initialization shadow. When
//! disabled it costs one `Option` check per access and **charges nothing**
//! either way — performance counters are byte-identical with the sanitizer
//! on or off.
//!
//! Three checkers, each individually switchable:
//!
//! - **racecheck** — FastTrack-style vector clocks keyed by
//!   (launch era, warp id). Every kernel launch is a global barrier
//!   (both executors join all warps before returning), so each launch
//!   opens a fresh era and only same-era accesses can race. Atomic RMWs
//!   acquire *and* release a per-word synchronization clock; plain reads
//!   acquire it too, modelling the GPU guarantee that a pointer published
//!   by `atomicCAS` makes the data it points at visible through the data
//!   dependency (the paper's slab-list link-CAS publication pattern).
//!   Flagged pairs: plain-write/plain-write, plain-write/plain-read, and
//!   plain-write/atomic on the same word from different warps of the same
//!   era with no happens-before path. Atomic/atomic and atomic/plain-read
//!   pairs are whitelisted: word loads are single-copy atomic on the
//!   device, so they cannot observe torn state.
//! - **memcheck** — per-slab shadow states (`Allocated` → `Quarantined` →
//!   `Free`) driven by the slab allocator's alloc/free hooks,
//!   flagging use-after-free of recycled slabs with both the allocating
//!   and freeing kernels' names, double-frees, and any warp access past
//!   the arena's bump cursor. The checker also models the release/acquire
//!   edges of *era publication* (epoch-based reclamation): a `ReadGuard`
//!   pin registers its era via [`Sanitizer::on_pin`], and an access to a
//!   **quarantined** slab is certified safe iff some live pin **on the
//!   allocator that owns the slab** has an era ≤ the slab's free era
//!   (the pin happened-before the free, so the reclamation protocol
//!   guarantees the slab's memory survives; a pin on a different
//!   allocator blocks nothing here and certifies nothing). A
//!   quarantined access with no covering pin is an *unpinned read* and is
//!   flagged as use-after-free; accesses to fully `Free` (drained) slabs
//!   are always flagged.
//! - **initcheck** — an initialization bitmap over the word space; warp
//!   reads (and atomic RMWs) of never-written words are flagged. Host
//!   stores, `fill`/`memset`, and kernel writes all mark words
//!   initialized; the simulated arena happens to be zero-initialized, but
//!   real `cudaMalloc` memory is not, so relying on implicit zeroes is
//!   exactly the bug class this checker exists for.
//!
//! Because racecheck is *model-based* (it reasons about happens-before,
//! not observed interleavings), the deterministic sequential executor
//! detects the same races as the threaded one — a race does not need to
//! manifest to be reported.

use crate::memory::{Addr, SLAB_WORDS};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of word-shadow shards; accesses hash by slab so one coalesced
/// slab access stays within a single shard.
const N_SHARDS: usize = 64;

/// Retain at most this many detailed findings (the total count keeps
/// incrementing past the cap).
const MAX_FINDINGS: usize = 64;

/// Configuration of the shadow-memory sanitizer. Racecheck, memcheck and
/// initcheck always run; only escalation is configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizerConfig {
    /// Panic at the end of the first launch that produced findings
    /// (regression-test mode; negative-test fixtures keep this off and
    /// inspect [`Sanitizer::findings`] instead).
    pub escalate: bool,
}

impl SanitizerConfig {
    pub fn with_escalation(mut self, escalate: bool) -> Self {
        self.escalate = escalate;
        self
    }
}

/// How a word was touched by a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Non-atomic load (`read_slab`, `read_lanes`, `read_word`).
    PlainRead,
    /// Non-atomic store (`write_slab`, `write_lanes`, `write_word`).
    PlainWrite,
    /// Atomic read-modify-write (`atomic_cas`/`exchange`/`add`/...).
    Atomic,
}

impl AccessKind {
    fn as_str(self) -> &'static str {
        match self {
            AccessKind::PlainRead => "plain read",
            AccessKind::PlainWrite => "plain write",
            AccessKind::Atomic => "atomic",
        }
    }
}

/// Classification of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Two unsynchronized writes (at least one non-atomic) to one word.
    RaceWriteWrite,
    /// Unsynchronized plain read / plain write pair on one word.
    RaceReadWrite,
    /// Access to a slab after it was freed (or while quarantined).
    UseAfterFree,
    /// Slab freed twice without an intervening allocation.
    DoubleFree,
    /// Read (or atomic RMW) of a never-written word.
    UninitRead,
    /// Access beyond the arena's allocation cursor.
    OutOfBounds,
}

impl FindingKind {
    /// Stable identifier used in JSON payloads and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::RaceWriteWrite => "race-write-write",
            FindingKind::RaceReadWrite => "race-read-write",
            FindingKind::UseAfterFree => "use-after-free",
            FindingKind::DoubleFree => "double-free",
            FindingKind::UninitRead => "uninit-read",
            FindingKind::OutOfBounds => "out-of-bounds",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "race-write-write" => FindingKind::RaceWriteWrite,
            "race-read-write" => FindingKind::RaceReadWrite,
            "use-after-free" => FindingKind::UseAfterFree,
            "double-free" => FindingKind::DoubleFree,
            "uninit-read" => FindingKind::UninitRead,
            "out-of-bounds" => FindingKind::OutOfBounds,
            _ => return None,
        })
    }
}

/// Sentinel warp id for "no conflicting warp" / host-side provenance.
pub const NO_WARP: u32 = u32::MAX;

/// One sanitizer violation, with full provenance: the accessing kernel and
/// warp, the address, the launch era, and — where applicable — the other
/// side of the conflict (racing warp, or allocating/freeing kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Device word address of the access.
    pub addr: Addr,
    /// Kernel that issued the flagged access.
    pub kernel: String,
    /// Warp id of the flagged access ([`NO_WARP`] for host).
    pub warp: u32,
    /// Launch era (global launch counter) of the flagged access.
    pub era: u64,
    /// Kernel on the other side of the conflict (racing writer, or the
    /// allocating kernel for lifetime findings); empty when not
    /// applicable.
    pub other_kernel: String,
    /// Warp id on the other side ([`NO_WARP`] when not applicable).
    pub other_warp: u32,
    /// Human-readable detail.
    pub note: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] addr {:#x} in `{}` (warp {}, launch {}): {}",
            self.kind.as_str(),
            self.addr,
            self.kernel,
            self.warp,
            self.era,
            self.note
        )
    }
}

/// Vector clock over (warp id → epoch) within one launch era.
type VClock = HashMap<u32, u64>;

fn clock_join(into: &mut VClock, from: &VClock) {
    for (&w, &e) in from {
        let slot = into.entry(w).or_insert(0);
        if *slot < e {
            *slot = e;
        }
    }
}

/// Happens-before: is the recorded access (warp, epoch) ordered before the
/// current access of `self_warp` holding `clock`?
fn ordered(clock: &VClock, self_warp: u32, rec: &Access) -> bool {
    rec.warp == self_warp || clock.get(&rec.warp).copied().unwrap_or(0) >= rec.epoch
}

/// Per-warp racecheck state, created at launch and owned by the `Warp`.
#[derive(Debug)]
pub struct WarpRace {
    era: u64,
    epoch: u64,
    clock: VClock,
    /// Last `sync_vers` of each word whose sync clock this warp already
    /// joined. Re-reading a hot word whose release history is unchanged
    /// then skips the O(|clock|) join — the dominant cost on chain walks.
    sync_seen: HashMap<Addr, u64>,
}

impl WarpRace {
    /// Fresh state for one warp of launch `era`.
    pub(crate) fn new(era: u64, warp_id: u32) -> Self {
        WarpRace {
            era,
            epoch: 0,
            clock: HashMap::from([(warp_id, 0)]),
            sync_seen: HashMap::new(),
        }
    }
}

/// One recorded access in a word's shadow.
#[derive(Debug, Clone)]
struct Access {
    warp: u32,
    epoch: u64,
    kernel: &'static str,
}

/// Racecheck shadow for one word, valid for a single era.
#[derive(Debug, Default)]
struct WordShadow {
    era: u64,
    /// Last plain write.
    write: Option<Access>,
    /// Last atomic RMW.
    atomic: Option<Access>,
    /// Latest plain read per warp since the last plain write.
    reads: HashMap<u32, Access>,
    /// Synchronization clock released into by atomics on this word.
    sync: VClock,
    /// Bumped on every release into `sync`; pairs with
    /// [`WarpRace::sync_seen`] to skip redundant joins.
    sync_vers: u64,
}

/// Shadow state for the 32 words of one slab, allocated on first touch.
/// Keying shards by slab base means a coalesced slab access takes one
/// lock and one hash lookup instead of 32 of each.
type SlabWords = Box<[WordShadow; SLAB_WORDS]>;

fn new_slab_words() -> SlabWords {
    Box::new(std::array::from_fn(|_| WordShadow::default()))
}

/// Lifetime state of one dynamic-pool slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlabStatus {
    Allocated,
    Quarantined,
    Free,
}

#[derive(Debug, Clone, Copy)]
struct SlabShadow {
    status: SlabStatus,
    alloc_kernel: &'static str,
    free_kernel: &'static str,
    /// Launch era in which the slab was freed (entered quarantine). A
    /// reader pin taken at era ≤ `free_era` happened-before the free and
    /// may legally read the quarantined slab.
    free_era: u64,
    /// Identity of the allocator that owns the slab: only pins registered
    /// against this allocator block its reclamation, so only they can
    /// certify a quarantined read.
    owner: u64,
}

/// The shadow-memory sanitizer attached to a device (see module docs).
pub struct Sanitizer {
    cfg: SanitizerConfig,
    /// Word shadows grouped per slab, sharded by slab index so a
    /// coalesced slab access takes one lock.
    shards: Box<[Mutex<HashMap<Addr, SlabWords>>]>,
    /// Slab lifetime shadows keyed by slab base (slab bases are 32-word
    /// aligned by construction).
    slabs: Mutex<HashMap<Addr, SlabShadow>>,
    /// Live reader pins, keyed by allocator id, each an era multiset
    /// (era → live guard count). Mirrors every allocator's pin registry
    /// so memcheck can certify quarantined-slab reads made under a
    /// covering `ReadGuard`. Keying per allocator matters: a guard on one
    /// graph does not block reclamation in another graph sharing the
    /// device, so it must not certify that graph's quarantined slabs.
    pins: Mutex<HashMap<u64, BTreeMap<u64, usize>>>,
    /// Initialization bitmap: bit per word, grown lazily.
    init: RwLock<Vec<AtomicU64>>,
    findings: Mutex<Vec<Finding>>,
    total: AtomicU64,
    escalated: AtomicU64,
}

impl Sanitizer {
    /// Build a sanitizer with the given configuration.
    pub fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            slabs: Mutex::new(HashMap::new()),
            pins: Mutex::new(HashMap::new()),
            init: RwLock::new(Vec::new()),
            findings: Mutex::new(Vec::new()),
            total: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
        }
    }

    /// Total number of violations detected (keeps counting past the
    /// retained-findings cap).
    pub fn finding_count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The retained findings (at most 64).
    pub fn findings(&self) -> Vec<Finding> {
        self.findings.lock().clone()
    }

    /// Drop all recorded findings and reset the counter (fixtures that
    /// deliberately trigger violations use this between scenarios).
    pub fn clear_findings(&self) {
        self.findings.lock().clear();
        self.total.store(0, Ordering::Relaxed);
        self.escalated.store(0, Ordering::Relaxed);
    }

    /// Discard all shadow state — word clocks, slab lifetimes, the
    /// initialization bitmap — without touching recorded findings. Called
    /// on a device reset: the rebuilt shard starts from genuinely fresh
    /// (uninitialized, unallocated) memory, but evidence gathered before
    /// the reset must survive for end-of-run assertions.
    pub fn reset_shadow(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
        self.slabs.lock().clear();
        self.init.write().clear();
    }

    fn report(&self, finding: Finding) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut f = self.findings.lock();
        if f.len() < MAX_FINDINGS {
            f.push(finding);
        }
    }

    // ---- initialization shadow ----

    /// Mark one word initialized (every arena store/atomic-write path).
    pub fn mark_init(&self, addr: Addr) {
        self.mark_init_range(addr, 1);
    }

    /// Mark `n` consecutive words initialized (arena `fill`).
    pub fn mark_init_range(&self, base: Addr, n: usize) {
        if n == 0 {
            return;
        }
        let last_idx = ((base as usize + n - 1) / 64) + 1;
        {
            let bits = self.init.read();
            if bits.len() >= last_idx {
                Self::set_bits(&bits, base, n);
                return;
            }
        }
        let mut bits = self.init.write();
        let target = last_idx.max(bits.len() * 2);
        while bits.len() < target {
            bits.push(AtomicU64::new(0));
        }
        Self::set_bits(&bits, base, n);
    }

    fn set_bits(bits: &[AtomicU64], base: Addr, n: usize) {
        let (start, end) = (base as usize, base as usize + n);
        let mut w = start / 64;
        while w * 64 < end {
            let lo = (w * 64).max(start) % 64;
            let hi = ((w * 64 + 63).min(end - 1)) % 64;
            let mask = if (hi - lo) == 63 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo + 1)) - 1) << lo
            };
            bits[w].fetch_or(mask, Ordering::Relaxed);
            w += 1;
        }
    }

    #[cfg(test)]
    fn is_init(&self, addr: Addr) -> bool {
        let bits = self.init.read();
        let w = addr as usize / 64;
        w < bits.len() && bits[w].load(Ordering::Relaxed) & (1 << (addr % 64)) != 0
    }

    // ---- slab lifetime hooks (called by the slab allocator) ----

    /// A pool slab at `base` was claimed by `kernel` on behalf of the
    /// allocator identified by `owner`.
    pub fn on_slab_alloc(&self, base: Addr, kernel: &'static str, owner: u64) {
        self.slabs.lock().insert(
            base,
            SlabShadow {
                status: SlabStatus::Allocated,
                alloc_kernel: kernel,
                free_kernel: "",
                free_era: 0,
                owner,
            },
        );
    }

    /// A pool slab at `base`, owned by allocator `owner`, was freed by
    /// `kernel` during launch `era` (enters quarantine).
    pub fn on_slab_free(&self, base: Addr, kernel: &'static str, era: u64, owner: u64) {
        let mut slabs = self.slabs.lock();
        let entry = slabs.entry(base).or_insert(SlabShadow {
            status: SlabStatus::Allocated,
            alloc_kernel: "(unknown)",
            free_kernel: "",
            free_era: 0,
            owner,
        });
        entry.status = SlabStatus::Quarantined;
        entry.free_kernel = kernel;
        entry.free_era = era;
        entry.owner = owner;
    }

    /// A quarantined slab at `base` left quarantine (reusable again).
    pub fn on_slab_drain(&self, base: Addr) {
        if let Some(s) = self.slabs.lock().get_mut(&base) {
            if s.status == SlabStatus::Quarantined {
                s.status = SlabStatus::Free;
            }
        }
    }

    /// A `ReadGuard` on allocator `owner` pinned era `era` (the acquire
    /// edge of era publication). While the pin lives, that allocator's
    /// quarantined slabs freed at or after `era` stay legal to read.
    pub fn on_pin(&self, owner: u64, era: u64) {
        *self
            .pins
            .lock()
            .entry(owner)
            .or_default()
            .entry(era)
            .or_insert(0) += 1;
    }

    /// The `ReadGuard` on allocator `owner` pinning `era` was dropped.
    pub fn on_unpin(&self, owner: u64, era: u64) {
        let mut pins = self.pins.lock();
        if let Some(eras) = pins.get_mut(&owner) {
            if let Some(n) = eras.get_mut(&era) {
                *n -= 1;
                if *n == 0 {
                    eras.remove(&era);
                }
            }
            if eras.is_empty() {
                pins.remove(&owner);
            }
        }
    }

    /// Smallest era currently pinned against allocator `owner`, if any
    /// of its reader guards is live.
    fn min_pinned(&self, owner: u64) -> Option<u64> {
        self.pins
            .lock()
            .get(&owner)
            .and_then(|eras| eras.keys().next().copied())
    }

    /// Record a double-free detected by the allocator, with the original
    /// allocation/free provenance from the shadow.
    pub fn report_double_free(&self, addr: Addr, kernel: &'static str, warp: u32, era: u64) {
        let (other, note) = match self.slabs.lock().get(&(addr & !(SLAB_WORDS as u32 - 1))) {
            Some(s) => (
                s.free_kernel,
                format!(
                    "slab allocated by `{}` was already freed by `{}`",
                    s.alloc_kernel, s.free_kernel
                ),
            ),
            None => ("", "freed address was never allocated from the pool".into()),
        };
        self.report(Finding {
            kind: FindingKind::DoubleFree,
            addr,
            kernel: kernel.to_string(),
            warp,
            era,
            other_kernel: other.to_string(),
            other_warp: NO_WARP,
            note,
        });
    }

    // ---- the per-access classifier ----

    /// Classify a contiguous warp access of `len` words at `base`.
    /// `cursor` is the arena's current bump cursor (for the out-of-bounds
    /// check). Called from every `Warp` memory accessor; never charges.
    #[allow(clippy::too_many_arguments)]
    pub fn on_warp_access(
        &self,
        st: &mut WarpRace,
        warp: u32,
        kernel: &'static str,
        base: Addr,
        len: u32,
        kind: AccessKind,
        cursor: u64,
    ) {
        let era = st.era;
        if base as u64 + len as u64 > cursor {
            self.report(Finding {
                kind: FindingKind::OutOfBounds,
                addr: base,
                kernel: kernel.to_string(),
                warp,
                era,
                other_kernel: String::new(),
                other_warp: NO_WARP,
                note: format!(
                    "{} of {} word(s) reaches past the allocation cursor ({})",
                    kind.as_str(),
                    len,
                    cursor
                ),
            });
            return;
        }
        // Use-after-free: check each distinct slab the range touches.
        let first_slab = base & !(SLAB_WORDS as u32 - 1);
        let last_slab = (base + len - 1) & !(SLAB_WORDS as u32 - 1);
        let slabs = self.slabs.lock();
        let mut s = first_slab;
        while s <= last_slab {
            if let Some(sh) = slabs.get(&s) {
                // Quarantined slabs are readable under epoch-based
                // reclamation iff some live pin **on the owning
                // allocator** predates the free (min pinned era ≤
                // free era): only that allocator's pins block the
                // slab's reclamation, so a guard on another graph
                // certifies nothing. Sampled per slab — one range can
                // span slabs with different owners. Drained (`Free`)
                // slabs are past every pin and always flag.
                let covered = sh.status == SlabStatus::Quarantined
                    && self.min_pinned(sh.owner).is_some_and(|p| p <= sh.free_era);
                if sh.status != SlabStatus::Allocated && !covered {
                    let why = if sh.status == SlabStatus::Quarantined {
                        "quarantined, read outside a live ReadGuard (unpinned read)"
                    } else {
                        "recycled"
                    };
                    self.report(Finding {
                        kind: FindingKind::UseAfterFree,
                        addr: base.max(s),
                        kernel: kernel.to_string(),
                        warp,
                        era,
                        other_kernel: sh.alloc_kernel.to_string(),
                        other_warp: NO_WARP,
                        note: format!(
                            "{} of slab {:#x} after free (allocated by `{}`, freed by `{}`; {})",
                            kind.as_str(),
                            s,
                            sh.alloc_kernel,
                            sh.free_kernel,
                            why
                        ),
                    });
                }
            }
            s += SLAB_WORDS as u32;
        }
        if kind != AccessKind::PlainWrite {
            // One bitmap-lock acquisition for the whole range, not per word.
            let (mut first, mut n) = (None, 0usize);
            {
                let bits = self.init.read();
                for a in base..base + len {
                    let w = a as usize / 64;
                    let init =
                        w < bits.len() && bits[w].load(Ordering::Relaxed) & (1 << (a % 64)) != 0;
                    if !init {
                        first.get_or_insert(a);
                        n += 1;
                    }
                }
            }
            if let Some(first) = first {
                self.report(Finding {
                    kind: FindingKind::UninitRead,
                    addr: first,
                    kernel: kernel.to_string(),
                    warp,
                    era,
                    other_kernel: String::new(),
                    other_warp: NO_WARP,
                    note: format!(
                        "{} of {} never-written word(s) starting at {:#x}",
                        kind.as_str(),
                        n,
                        first
                    ),
                });
            }
        }
        self.racecheck(st, warp, kernel, base, len, kind);
    }

    fn racecheck(
        &self,
        st: &mut WarpRace,
        warp: u32,
        kernel: &'static str,
        base: Addr,
        len: u32,
        kind: AccessKind,
    ) {
        let era = st.era;
        st.epoch += 1;
        st.clock.insert(warp, st.epoch);
        let first_slab = base & !(SLAB_WORDS as u32 - 1);
        let last_slab = (base + len - 1) & !(SLAB_WORDS as u32 - 1);
        // Pass 1 — acquire: plain reads and atomics join every touched
        // word's sync clock *before* any conflict check, so that a slab
        // read that covers both a CAS-published link word and the data it
        // publishes sees the publication regardless of word order.
        if kind != AccessKind::PlainWrite {
            let mut slab = first_slab;
            while slab <= last_slab {
                let shard = self.shards[(slab as usize >> 5) % N_SHARDS].lock();
                if let Some(words) = shard.get(&slab) {
                    let lo = base.max(slab);
                    let hi = (base + len).min(slab + SLAB_WORDS as u32);
                    for addr in lo..hi {
                        let e = &words[(addr - slab) as usize];
                        if e.era == era
                            && !e.sync.is_empty()
                            && st.sync_seen.get(&addr) != Some(&e.sync_vers)
                        {
                            clock_join(&mut st.clock, &e.sync);
                            st.sync_seen.insert(addr, e.sync_vers);
                        }
                    }
                }
                slab += SLAB_WORDS as u32;
            }
        }
        // Pass 2 — conflict checks + shadow update.
        let me = Access {
            warp,
            epoch: st.epoch,
            kernel,
        };
        let mut slab = first_slab;
        while slab <= last_slab {
            let mut shard = self.shards[(slab as usize >> 5) % N_SHARDS].lock();
            let words = shard.entry(slab).or_insert_with(new_slab_words);
            let lo = base.max(slab);
            let hi = (base + len).min(slab + SLAB_WORDS as u32);
            for addr in lo..hi {
                let e = &mut words[(addr - slab) as usize];
                if e.era != era {
                    *e = WordShadow {
                        era,
                        ..WordShadow::default()
                    };
                }
                let race = |kind2: FindingKind, rec: &Access, what: &str| {
                    self.report(Finding {
                        kind: kind2,
                        addr,
                        kernel: kernel.to_string(),
                        warp,
                        era,
                        other_kernel: rec.kernel.to_string(),
                        other_warp: rec.warp,
                        note: format!(
                            "{} races with {} by `{}` (warp {})",
                            kind.as_str(),
                            what,
                            rec.kernel,
                            rec.warp
                        ),
                    });
                };
                match kind {
                    AccessKind::PlainRead => {
                        if let Some(w) = &e.write {
                            if !ordered(&st.clock, warp, w) {
                                race(FindingKind::RaceReadWrite, w, "plain write");
                            }
                        }
                        e.reads.insert(warp, me.clone());
                    }
                    AccessKind::PlainWrite => {
                        if let Some(w) = &e.write {
                            if !ordered(&st.clock, warp, w) {
                                race(FindingKind::RaceWriteWrite, w, "plain write");
                            }
                        }
                        if let Some(a) = &e.atomic {
                            if !ordered(&st.clock, warp, a) {
                                race(FindingKind::RaceWriteWrite, a, "atomic update");
                            }
                        }
                        for r in e.reads.values() {
                            if !ordered(&st.clock, warp, r) {
                                race(FindingKind::RaceReadWrite, r, "plain read");
                            }
                        }
                        e.write = Some(me.clone());
                        e.reads.clear();
                    }
                    AccessKind::Atomic => {
                        if let Some(w) = &e.write {
                            if !ordered(&st.clock, warp, w) {
                                race(FindingKind::RaceWriteWrite, w, "plain write");
                            }
                        }
                        // Acquire + release on the word's sync clock. The
                        // acquire half already ran in pass 1; the release
                        // bumps the version so other warps re-join.
                        clock_join(&mut e.sync, &st.clock);
                        e.sync_vers += 1;
                        st.sync_seen.insert(addr, e.sync_vers);
                        e.atomic = Some(me.clone());
                    }
                }
            }
            slab += SLAB_WORDS as u32;
        }
    }

    /// Called by the device at the end of every launch: under
    /// `escalate`, panic the first time any findings exist, printing them.
    pub fn escalate_after_launch(&self) {
        if !self.cfg.escalate || self.total.load(Ordering::Relaxed) == 0 {
            return;
        }
        let msg = {
            let findings = self.findings.lock();
            // Double-frees already surface as a typed `Err` from the
            // allocator — callers asserting on that error must not die
            // here instead. They stay in the findings list and report.
            let hard: Vec<&Finding> = findings
                .iter()
                .filter(|f| f.kind != FindingKind::DoubleFree)
                .collect();
            if hard.is_empty() {
                return;
            }
            let mut msg = format!("sanitizer detected {} violation(s):\n", hard.len());
            for f in &hard {
                msg.push_str(&format!("  {f}\n"));
            }
            msg
        };
        if self.escalated.swap(1, Ordering::Relaxed) != 0 {
            return;
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> Sanitizer {
        Sanitizer::new(SanitizerConfig::default())
    }

    #[test]
    fn init_bitmap_marks_and_tests_ranges() {
        let s = san();
        assert!(!s.is_init(0));
        s.mark_init_range(62, 5);
        for a in 62..67 {
            assert!(s.is_init(a), "word {a}");
        }
        assert!(!s.is_init(61));
        assert!(!s.is_init(67));
        s.mark_init(1_000_000);
        assert!(s.is_init(1_000_000));
        assert!(!s.is_init(999_999));
    }

    #[test]
    fn same_warp_accesses_never_race() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(1, 0);
        s.on_warp_access(&mut w0, 0, "k", 0, 1, AccessKind::PlainWrite, 1024);
        s.on_warp_access(&mut w0, 0, "k", 0, 1, AccessKind::PlainRead, 1024);
        s.on_warp_access(&mut w0, 0, "k", 0, 1, AccessKind::PlainWrite, 1024);
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn unsynchronized_write_write_is_flagged() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(1, 0);
        let mut w1 = WarpRace::new(1, 1);
        s.on_warp_access(&mut w0, 0, "ka", 5, 1, AccessKind::PlainWrite, 1024);
        s.on_warp_access(&mut w1, 1, "kb", 5, 1, AccessKind::PlainWrite, 1024);
        let f = s.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::RaceWriteWrite);
        assert_eq!(f[0].addr, 5);
        assert_eq!(f[0].kernel, "kb");
        assert_eq!(f[0].other_kernel, "ka");
        assert_eq!(f[0].other_warp, 0);
    }

    #[test]
    fn atomic_publication_orders_plain_accesses() {
        // Warp 0 plain-writes data, releases via an atomic on a link
        // word; warp 1 plain-reads the link (acquire) then the data: no
        // race. Without the link access, the same read would race.
        let s = san();
        s.mark_init_range(0, 64);
        let mut w0 = WarpRace::new(1, 0);
        let mut w1 = WarpRace::new(1, 1);
        s.on_warp_access(&mut w0, 0, "wr", 10, 1, AccessKind::PlainWrite, 1024);
        s.on_warp_access(&mut w0, 0, "wr", 40, 1, AccessKind::Atomic, 1024);
        s.on_warp_access(&mut w1, 1, "rd", 40, 1, AccessKind::PlainRead, 1024);
        s.on_warp_access(&mut w1, 1, "rd", 10, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());

        // A third warp that never touched the link word *does* race.
        let mut w2 = WarpRace::new(1, 2);
        s.on_warp_access(&mut w2, 2, "rogue", 10, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.findings()[0].kind, FindingKind::RaceReadWrite);
    }

    #[test]
    fn atomics_are_whitelisted_but_plain_write_vs_atomic_is_not() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(1, 0);
        let mut w1 = WarpRace::new(1, 1);
        s.on_warp_access(&mut w0, 0, "a", 3, 1, AccessKind::Atomic, 1024);
        s.on_warp_access(&mut w1, 1, "b", 3, 1, AccessKind::Atomic, 1024);
        assert_eq!(s.finding_count(), 0, "atomic vs atomic is whitelisted");
        let mut w2 = WarpRace::new(2, 0);
        let mut w3 = WarpRace::new(2, 1);
        s.on_warp_access(&mut w2, 0, "a", 3, 1, AccessKind::Atomic, 1024);
        s.on_warp_access(&mut w3, 1, "b", 3, 1, AccessKind::PlainWrite, 1024);
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.findings()[0].kind, FindingKind::RaceWriteWrite);
    }

    #[test]
    fn new_era_clears_conflicts() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(1, 0);
        s.on_warp_access(&mut w0, 0, "ka", 7, 1, AccessKind::PlainWrite, 1024);
        // Same word, different warp, but a later launch: the launch
        // boundary is a barrier.
        let mut w1 = WarpRace::new(2, 1);
        s.on_warp_access(&mut w1, 1, "kb", 7, 1, AccessKind::PlainWrite, 1024);
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn uninit_read_and_oob_are_flagged() {
        let s = san();
        let mut w0 = WarpRace::new(1, 0);
        s.on_warp_access(&mut w0, 0, "k", 9, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.findings()[0].kind, FindingKind::UninitRead);
        s.clear_findings();
        s.on_warp_access(&mut w0, 0, "k", 2000, 4, AccessKind::PlainRead, 1024);
        assert_eq!(s.findings()[0].kind, FindingKind::OutOfBounds);
    }

    /// Allocator id used by single-allocator fixtures.
    const A1: u64 = 1;

    #[test]
    fn slab_lifecycle_flags_uaf_until_reallocated() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        let mut w0 = WarpRace::new(1, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0);
        s.on_slab_free(64, "free_k", 1, A1);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        let f = s.findings();
        assert_eq!(f[0].kind, FindingKind::UseAfterFree);
        assert_eq!(f[0].other_kernel, "alloc_k");
        assert!(f[0].note.contains("free_k"));
        s.on_slab_drain(64);
        s.clear_findings();
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.findings()[0].kind, FindingKind::UseAfterFree);
        s.on_slab_alloc(64, "alloc2", A1);
        s.clear_findings();
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn pinned_reader_may_touch_quarantined_slab() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        // Reader pins era 3, then the slab is freed at era 5: the pin
        // happened-before the free, so the quarantined read is certified.
        s.on_pin(A1, 3);
        s.on_slab_free(64, "free_k", 5, A1);
        let mut w0 = WarpRace::new(6, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        // Dropping the guard withdraws the certificate.
        s.on_unpin(A1, 3);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1);
        let f = s.findings();
        assert_eq!(f[0].kind, FindingKind::UseAfterFree);
        assert!(f[0].note.contains("unpinned read"), "{}", f[0].note);
    }

    #[test]
    fn pin_taken_after_free_does_not_cover_the_slab() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        s.on_slab_free(64, "free_k", 2, A1);
        // A pin at era 7 postdates the free: it cannot resurrect the slab.
        s.on_pin(A1, 7);
        let mut w0 = WarpRace::new(8, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.findings()[0].kind, FindingKind::UseAfterFree);
        s.on_unpin(A1, 7);
    }

    #[test]
    fn pin_never_covers_drained_slabs() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        s.on_pin(A1, 1);
        s.on_slab_free(64, "free_k", 4, A1);
        s.on_slab_drain(64);
        // Even a covering pin cannot excuse a read of fully drained
        // memory — the allocator only drains past every pin, so reaching
        // here means the protocol itself was violated.
        let mut w0 = WarpRace::new(5, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1);
        assert!(s.findings()[0].note.contains("recycled"));
        s.on_unpin(A1, 1);
    }

    #[test]
    fn pin_multiset_tracks_duplicate_eras() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        s.on_pin(A1, 2);
        s.on_pin(A1, 2);
        s.on_slab_free(64, "free_k", 3, A1);
        s.on_unpin(A1, 2);
        // One guard at era 2 is still live: the slab stays covered.
        let mut w0 = WarpRace::new(4, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        s.on_unpin(A1, 2);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1);
    }

    #[test]
    fn pin_on_another_allocator_certifies_nothing() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        // A guard on allocator 2 is live across allocator 1's free. It
        // does not block allocator 1's reclamation, so it must not
        // certify the quarantined read — this is the cross-graph hazard
        // `DynGraph::pinned` asserts against on the query side.
        s.on_pin(2, 3);
        s.on_slab_free(64, "free_k", 5, A1);
        let mut w0 = WarpRace::new(6, 0);
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 1, "{:?}", s.findings());
        assert!(s.findings()[0].note.contains("unpinned read"));
        // An equally-old pin on the owning allocator does certify.
        s.on_pin(A1, 3);
        s.clear_findings();
        s.on_warp_access(&mut w0, 0, "reader", 70, 1, AccessKind::PlainRead, 1024);
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        s.on_unpin(2, 3);
        s.on_unpin(A1, 3);
    }
}
