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
//!   (launch era, warp id). Every launch opens a fresh era and records
//!   the eras of the launches still running when it starts. Launches on
//!   one host thread never overlap: each joins its warps before
//!   returning, so the launch boundary is a barrier. A launch from a
//!   second host thread (a pinned reader next to a writer's batch) can
//!   overlap, and two accesses from different eras are unordered exactly
//!   when one launch was running when the other started. Atomic RMWs
//!   acquire *and* release a per-word synchronization clock; plain reads
//!   acquire it too, modelling the GPU guarantee that a pointer published
//!   by `atomicCAS` makes the data it points at visible through the data
//!   dependency (the paper's slab-list link-CAS publication pattern), in
//!   the same launch or across overlapping ones. Each access runs its
//!   arena operation under the word shadow's lock, so the shadow records
//!   accesses in the order memory saw them. A slab handed out again by
//!   the allocator starts with a fresh shadow: the quarantine, not launch
//!   order, orders its old readers before its new writer.
//!   Flagged pairs: plain-write/plain-write, plain-write/plain-read, and
//!   plain-write/atomic on the same word from different warps with no
//!   happens-before path. Atomic/atomic and atomic/plain-read
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
use std::sync::Arc;

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

/// A racecheck clock slot: one warp of one launch, as (era, warp id).
type WarpKey = (u64, u32);

/// Vector clock over (era, warp id) → epoch.
type VClock = HashMap<WarpKey, u64>;

fn clock_join(into: &mut VClock, from: &VClock) {
    for (&w, &e) in from {
        let slot = into.entry(w).or_insert(0);
        if *slot < e {
            *slot = e;
        }
    }
}

/// A launch as racecheck sees it: its era and the eras of the launches
/// still running when it started, the only ones it can race with.
#[derive(Debug)]
pub(crate) struct LaunchEras {
    era: u64,
    /// Ascending.
    overlaps: Vec<u64>,
}

/// Ends a launch's racecheck lifetime on drop, including panic unwinds
/// (a kernel that panics under test must not stay "running" and make
/// every later launch overlap it).
pub(crate) struct RunningLaunch<'s> {
    san: &'s Sanitizer,
    pub(crate) eras: Arc<LaunchEras>,
}

impl Drop for RunningLaunch<'_> {
    fn drop(&mut self) {
        let mut running = self.san.running.lock();
        running.remove(&self.eras.era);
        self.san.raise_horizon(&running);
    }
}

/// Per-warp racecheck state, created at launch and owned by the `Warp`.
#[derive(Debug)]
pub struct WarpRace {
    launch: Arc<LaunchEras>,
    warp: u32,
    epoch: u64,
    clock: VClock,
    /// Last `sync_vers` of each word whose sync clock this warp already
    /// joined. Re-reading a hot word whose release history is unchanged
    /// then skips the O(|clock|) join — the dominant cost on chain walks.
    sync_seen: HashMap<Addr, u64>,
}

impl WarpRace {
    /// Fresh state for warp `warp` of `launch`.
    pub(crate) fn new(launch: Arc<LaunchEras>, warp: u32) -> Self {
        WarpRace {
            clock: HashMap::from([((launch.era, warp), 0)]),
            launch,
            warp,
            epoch: 0,
            sync_seen: HashMap::new(),
        }
    }

    /// Happens-before: is the recorded access ordered before this warp's
    /// current access? Same warp (program order), a clock that covers it
    /// (a barrier-free publication), or a launch that had finished before
    /// this one started (the launch barrier).
    fn ordered(&self, rec: &Access) -> bool {
        let key = (rec.era, rec.warp);
        key == (self.launch.era, self.warp)
            || self.clock.get(&key).is_some_and(|&e| e >= rec.epoch)
            || (rec.era < self.launch.era && self.launch.overlaps.binary_search(&rec.era).is_err())
    }
}

/// One recorded access in a word's shadow.
#[derive(Debug, Clone)]
struct Access {
    era: u64,
    warp: u32,
    epoch: u64,
    kernel: &'static str,
}

/// Racecheck shadow for one word.
#[derive(Debug, Default)]
struct WordShadow {
    /// Oldest era among the records below; records older than the
    /// sanitizer's horizon can never race again and are dropped.
    oldest: u64,
    /// Last plain write.
    write: Option<Access>,
    /// Last atomic RMW.
    atomic: Option<Access>,
    /// Latest plain read per (era, warp) since the last plain write.
    reads: HashMap<WarpKey, Access>,
    /// Synchronization clock released into by atomics on this word.
    sync: VClock,
    /// Set on every release into `sync` from its shard's counter; pairs
    /// with [`WarpRace::sync_seen`] to skip redundant joins.
    sync_vers: u64,
}

impl WordShadow {
    /// Drop every record from an era below `horizon`.
    fn prune(&mut self, horizon: u64) {
        if self.oldest >= horizon {
            return;
        }
        self.write = self.write.take().filter(|a| a.era >= horizon);
        self.atomic = self.atomic.take().filter(|a| a.era >= horizon);
        self.reads.retain(|&(era, _), _| era >= horizon);
        self.sync.retain(|&(era, _), _| era >= horizon);
        self.oldest = (self.write.iter().chain(&self.atomic).map(|a| a.era))
            .chain(
                self.reads
                    .keys()
                    .chain(self.sync.keys())
                    .map(|&(era, _)| era),
            )
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// Shadow state for the 32 words of one slab, allocated on first touch.
/// Keying shards by slab base means a coalesced slab access takes one
/// lock and one hash lookup instead of 32 of each.
type SlabWords = Box<[WordShadow; SLAB_WORDS]>;

fn new_slab_words() -> SlabWords {
    Box::new(std::array::from_fn(|_| WordShadow::default()))
}

/// One shard of the word shadow.
#[derive(Default)]
struct Shard {
    slabs: HashMap<Addr, SlabWords>,
    /// Release counter: every release into a word's sync clock takes a
    /// fresh value, so a version is never reused for an address, even
    /// after its slab's shadow was dropped.
    vers: u64,
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
    shards: Box<[Mutex<Shard>]>,
    /// Running launches: era → the oldest era its accesses can race with
    /// (its own, or the oldest launch it overlaps).
    running: Mutex<BTreeMap<u64, u64>>,
    /// The oldest era any running or future launch can race with: word
    /// records from older eras are dropped. Only ever grows.
    horizon: AtomicU64,
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
                .map(|_| Mutex::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            running: Mutex::new(BTreeMap::new()),
            horizon: AtomicU64::new(0),
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
            shard.lock().slabs.clear();
        }
        self.slabs.lock().clear();
        self.init.write().clear();
    }

    /// The shard holding the word shadow of the slab at `slab`.
    fn shard(&self, slab: Addr) -> &Mutex<Shard> {
        &self.shards[(slab as usize >> 5) % N_SHARDS]
    }

    /// Register a launch whose era `next_era` assigns, together with the
    /// eras of the launches still running, under one lock: a launch that
    /// takes a later era always sees every earlier one that is still
    /// running. The launch counts as running until the returned handle
    /// drops.
    pub(crate) fn begin_launch(&self, next_era: impl FnOnce() -> u64) -> RunningLaunch<'_> {
        let mut running = self.running.lock();
        let era = next_era();
        let overlaps: Vec<u64> = running.keys().copied().collect();
        running.insert(era, overlaps.first().copied().unwrap_or(era));
        self.raise_horizon(&running);
        RunningLaunch {
            san: self,
            eras: Arc::new(LaunchEras { era, overlaps }),
        }
    }

    /// Move the horizon to the oldest era a running launch can race with
    /// (unchanged when none is running: the next launch sets it).
    fn raise_horizon(&self, running: &BTreeMap<u64, u64>) {
        if let Some(&oldest) = running.values().min() {
            self.horizon.store(oldest, Ordering::Relaxed);
        }
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
    /// allocator identified by `owner`. Its words start a fresh race
    /// shadow: the quarantine held the slab until every reader pinned
    /// before its free had dropped its guard.
    pub fn on_slab_alloc(&self, base: Addr, kernel: &'static str, owner: u64) {
        self.shard(base).lock().slabs.remove(&base);
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

    /// Classify a contiguous warp access of `len` words at `base` and run
    /// its arena operation `op` under the word shadow's lock. `cursor` is
    /// the arena's current bump cursor (for the out-of-bounds check).
    /// Called from every `Warp` memory accessor; never charges.
    #[allow(clippy::too_many_arguments)]
    pub fn on_warp_access<R>(
        &self,
        st: &mut WarpRace,
        kernel: &'static str,
        base: Addr,
        len: u32,
        kind: AccessKind,
        cursor: u64,
        op: impl FnOnce() -> R,
    ) -> R {
        let (warp, era) = (st.warp, st.launch.era);
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
            return op();
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
        drop(slabs);
        self.racecheck(st, kernel, base, len, kind, op)
    }

    fn racecheck<R>(
        &self,
        st: &mut WarpRace,
        kernel: &'static str,
        base: Addr,
        len: u32,
        kind: AccessKind,
        op: impl FnOnce() -> R,
    ) -> R {
        let (warp, era) = (st.warp, st.launch.era);
        st.epoch += 1;
        st.clock.insert((era, warp), st.epoch);
        // Lock every shard the range touches (one, or two when the range
        // straddles slabs), in shard order, then run the arena operation
        // under them: the shadow sees this access in memory order.
        let first_slab = base & !(SLAB_WORDS as u32 - 1);
        let last_slab = (base + len - 1) & !(SLAB_WORDS as u32 - 1);
        let slabs: Vec<Addr> = (first_slab..=last_slab).step_by(SLAB_WORDS).collect();
        let mut order: Vec<usize> = slabs
            .iter()
            .map(|&s| (s as usize >> 5) % N_SHARDS)
            .collect();
        order.sort_unstable();
        order.dedup();
        let mut guards: Vec<_> = order.iter().map(|&i| (i, self.shards[i].lock())).collect();
        let r = op();
        let horizon = self.horizon.load(Ordering::Relaxed);
        // Pass 1 — acquire: plain reads and atomics join every touched
        // word's sync clock *before* any conflict check, so that a slab
        // read that covers both a CAS-published link word and the data it
        // publishes sees the publication regardless of word order.
        for &slab in &slabs {
            let (_, words) = slab_shadow(&mut guards, slab);
            for addr in base.max(slab)..(base + len).min(slab + SLAB_WORDS as u32) {
                let e = &mut words[(addr - slab) as usize];
                e.prune(horizon);
                if kind != AccessKind::PlainWrite
                    && !e.sync.is_empty()
                    && st.sync_seen.get(&addr) != Some(&e.sync_vers)
                {
                    clock_join(&mut st.clock, &e.sync);
                    st.sync_seen.insert(addr, e.sync_vers);
                }
            }
        }
        // Pass 2 — conflict checks + shadow update.
        let me = Access {
            era,
            warp,
            epoch: st.epoch,
            kernel,
        };
        for &slab in &slabs {
            let (vers, words) = slab_shadow(&mut guards, slab);
            for addr in base.max(slab)..(base + len).min(slab + SLAB_WORDS as u32) {
                let e = &mut words[(addr - slab) as usize];
                e.oldest = e.oldest.min(era);
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
                            "{} races with {} by `{}` (warp {}, launch {})",
                            kind.as_str(),
                            what,
                            rec.kernel,
                            rec.warp,
                            rec.era
                        ),
                    });
                };
                match kind {
                    AccessKind::PlainRead => {
                        if let Some(w) = e.write.as_ref().filter(|w| !st.ordered(w)) {
                            race(FindingKind::RaceReadWrite, w, "plain write");
                        }
                        e.reads.insert((era, warp), me.clone());
                    }
                    AccessKind::PlainWrite => {
                        if let Some(w) = e.write.as_ref().filter(|w| !st.ordered(w)) {
                            race(FindingKind::RaceWriteWrite, w, "plain write");
                        }
                        if let Some(a) = e.atomic.as_ref().filter(|a| !st.ordered(a)) {
                            race(FindingKind::RaceWriteWrite, a, "atomic update");
                        }
                        for r in e.reads.values().filter(|r| !st.ordered(r)) {
                            race(FindingKind::RaceReadWrite, r, "plain read");
                        }
                        e.write = Some(me.clone());
                        e.reads.clear();
                    }
                    AccessKind::Atomic => {
                        if let Some(w) = e.write.as_ref().filter(|w| !st.ordered(w)) {
                            race(FindingKind::RaceWriteWrite, w, "plain write");
                        }
                        // Acquire + release on the word's sync clock. The
                        // acquire half already ran in pass 1; the release
                        // takes a fresh version so other warps re-join.
                        clock_join(&mut e.sync, &st.clock);
                        *vers += 1;
                        e.sync_vers = *vers;
                        st.sync_seen.insert(addr, *vers);
                        e.atomic = Some(me.clone());
                    }
                }
            }
        }
        r
    }
}

/// The shadow of the slab at `slab`, and its shard's release counter,
/// from the shard guards a racecheck holds.
fn slab_shadow<'a>(
    guards: &'a mut [(usize, std::sync::MutexGuard<'_, Shard>)],
    slab: Addr,
) -> (&'a mut u64, &'a mut SlabWords) {
    let i = (slab as usize >> 5) % N_SHARDS;
    let (_, shard) = guards
        .iter_mut()
        .find(|(j, _)| *j == i)
        .expect("the racecheck holds every shard its range touches");
    let Shard { slabs, vers } = &mut **shard;
    (vers, slabs.entry(slab).or_insert_with(new_slab_words))
}

impl Sanitizer {
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

    /// A launch at `era` that overlaps no other.
    fn launch(era: u64) -> Arc<LaunchEras> {
        Arc::new(LaunchEras {
            era,
            overlaps: vec![],
        })
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
        let mut w0 = WarpRace::new(launch(1), 0);
        s.on_warp_access(&mut w0, "k", 0, 1, AccessKind::PlainWrite, 1024, || ());
        s.on_warp_access(&mut w0, "k", 0, 1, AccessKind::PlainRead, 1024, || ());
        s.on_warp_access(&mut w0, "k", 0, 1, AccessKind::PlainWrite, 1024, || ());
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn unsynchronized_write_write_is_flagged() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(launch(1), 0);
        let mut w1 = WarpRace::new(launch(1), 1);
        s.on_warp_access(&mut w0, "ka", 5, 1, AccessKind::PlainWrite, 1024, || ());
        s.on_warp_access(&mut w1, "kb", 5, 1, AccessKind::PlainWrite, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(1), 0);
        let mut w1 = WarpRace::new(launch(1), 1);
        s.on_warp_access(&mut w0, "wr", 10, 1, AccessKind::PlainWrite, 1024, || ());
        s.on_warp_access(&mut w0, "wr", 40, 1, AccessKind::Atomic, 1024, || ());
        s.on_warp_access(&mut w1, "rd", 40, 1, AccessKind::PlainRead, 1024, || ());
        s.on_warp_access(&mut w1, "rd", 10, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());

        // A third warp that never touched the link word *does* race.
        let mut w2 = WarpRace::new(launch(1), 2);
        s.on_warp_access(&mut w2, "rogue", 10, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.findings()[0].kind, FindingKind::RaceReadWrite);
    }

    #[test]
    fn atomics_are_whitelisted_but_plain_write_vs_atomic_is_not() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(launch(1), 0);
        let mut w1 = WarpRace::new(launch(1), 1);
        s.on_warp_access(&mut w0, "a", 3, 1, AccessKind::Atomic, 1024, || ());
        s.on_warp_access(&mut w1, "b", 3, 1, AccessKind::Atomic, 1024, || ());
        assert_eq!(s.finding_count(), 0, "atomic vs atomic is whitelisted");
        let mut w2 = WarpRace::new(launch(2), 0);
        let mut w3 = WarpRace::new(launch(2), 1);
        s.on_warp_access(&mut w2, "a", 3, 1, AccessKind::Atomic, 1024, || ());
        s.on_warp_access(&mut w3, "b", 3, 1, AccessKind::PlainWrite, 1024, || ());
        assert_eq!(s.finding_count(), 1);
        assert_eq!(s.findings()[0].kind, FindingKind::RaceWriteWrite);
    }

    #[test]
    fn new_era_clears_conflicts() {
        let s = san();
        s.mark_init_range(0, 32);
        let mut w0 = WarpRace::new(launch(1), 0);
        s.on_warp_access(&mut w0, "ka", 7, 1, AccessKind::PlainWrite, 1024, || ());
        // Same word, different warp, but a later launch: the launch
        // boundary is a barrier.
        let mut w1 = WarpRace::new(launch(2), 1);
        s.on_warp_access(&mut w1, "kb", 7, 1, AccessKind::PlainWrite, 1024, || ());
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn overlapping_launches_race_and_later_ones_do_not() {
        let s = san();
        s.mark_init_range(0, 64);
        let reader = s.begin_launch(|| 1);
        let writer = s.begin_launch(|| 2);
        assert_eq!(writer.eras.overlaps, [1]);
        let mut r = WarpRace::new(reader.eras.clone(), 0);
        let mut w = WarpRace::new(writer.eras.clone(), 0);
        s.on_warp_access(&mut w, "writer", 7, 1, AccessKind::PlainWrite, 1024, || ());
        s.on_warp_access(&mut r, "reader", 7, 1, AccessKind::PlainRead, 1024, || ());
        let f = s.findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, FindingKind::RaceReadWrite);
        assert_eq!((f[0].kernel.as_str(), f[0].era), ("reader", 1));
        assert_eq!((f[0].other_kernel.as_str(), f[0].other_warp), ("writer", 0));
        drop((reader, writer));
        // A launch that starts after both ended is ordered after them.
        s.clear_findings();
        let later = s.begin_launch(|| 3);
        assert!(later.eras.overlaps.is_empty());
        let mut l = WarpRace::new(later.eras.clone(), 1);
        s.on_warp_access(&mut l, "later", 7, 1, AccessKind::PlainWrite, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
    }

    #[test]
    fn a_cas_published_link_orders_an_overlapping_readers_data_read() {
        let s = san();
        s.mark_init_range(0, 64);
        let reader = s.begin_launch(|| 1);
        let writer = s.begin_launch(|| 2);
        let mut r = WarpRace::new(reader.eras.clone(), 0);
        let mut w = WarpRace::new(writer.eras.clone(), 3);
        s.on_warp_access(&mut w, "fill", 40, 1, AccessKind::PlainWrite, 1024, || ());
        s.on_warp_access(&mut w, "fill", 10, 1, AccessKind::Atomic, 1024, || ());
        s.on_warp_access(&mut r, "walk", 10, 1, AccessKind::PlainRead, 1024, || ());
        s.on_warp_access(&mut r, "walk", 40, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
    }

    #[test]
    fn a_reallocated_slab_starts_a_fresh_race_shadow() {
        let s = san();
        s.mark_init_range(0, 128);
        let reader = s.begin_launch(|| 1);
        let writer = s.begin_launch(|| 2);
        let mut r = WarpRace::new(reader.eras.clone(), 0);
        let mut w = WarpRace::new(writer.eras.clone(), 0);
        s.on_warp_access(&mut r, "walk", 64, 32, AccessKind::PlainRead, 1024, || ());
        s.on_slab_alloc(64, "grow", A1);
        s.on_warp_access(&mut w, "grow", 64, 32, AccessKind::PlainWrite, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
    }

    #[test]
    fn records_older_than_every_running_launch_are_dropped() {
        let s = san();
        s.mark_init_range(0, 32);
        let first = s.begin_launch(|| 1);
        let mut a = WarpRace::new(first.eras.clone(), 0);
        s.on_warp_access(&mut a, "k", 5, 1, AccessKind::PlainRead, 1024, || ());
        drop(first);
        let second = s.begin_launch(|| 2);
        assert_eq!(s.horizon.load(Ordering::Relaxed), 2);
        let mut b = WarpRace::new(second.eras.clone(), 0);
        s.on_warp_access(&mut b, "k", 5, 1, AccessKind::PlainRead, 1024, || ());
        let shard = s.shard(0).lock();
        let e = &shard.slabs[&0][5];
        assert_eq!(e.reads.keys().copied().collect::<Vec<_>>(), [(2, 0)]);
    }

    #[test]
    fn uninit_read_and_oob_are_flagged() {
        let s = san();
        let mut w0 = WarpRace::new(launch(1), 0);
        s.on_warp_access(&mut w0, "k", 9, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.findings()[0].kind, FindingKind::UninitRead);
        s.clear_findings();
        s.on_warp_access(&mut w0, "k", 2000, 4, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.findings()[0].kind, FindingKind::OutOfBounds);
    }

    /// Allocator id used by single-allocator fixtures.
    const A1: u64 = 1;

    #[test]
    fn slab_lifecycle_flags_uaf_until_reallocated() {
        let s = san();
        s.mark_init_range(0, 256);
        s.on_slab_alloc(64, "alloc_k", A1);
        let mut w0 = WarpRace::new(launch(1), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0);
        s.on_slab_free(64, "free_k", 1, A1);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        let f = s.findings();
        assert_eq!(f[0].kind, FindingKind::UseAfterFree);
        assert_eq!(f[0].other_kernel, "alloc_k");
        assert!(f[0].note.contains("free_k"));
        s.on_slab_drain(64);
        s.clear_findings();
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.findings()[0].kind, FindingKind::UseAfterFree);
        s.on_slab_alloc(64, "alloc2", A1);
        s.clear_findings();
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(6), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        // Dropping the guard withdraws the certificate.
        s.on_unpin(A1, 3);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(8), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(5), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(4), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        s.on_unpin(A1, 2);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
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
        let mut w0 = WarpRace::new(launch(6), 0);
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 1, "{:?}", s.findings());
        assert!(s.findings()[0].note.contains("unpinned read"));
        // An equally-old pin on the owning allocator does certify.
        s.on_pin(A1, 3);
        s.clear_findings();
        s.on_warp_access(&mut w0, "reader", 70, 1, AccessKind::PlainRead, 1024, || ());
        assert_eq!(s.finding_count(), 0, "{:?}", s.findings());
        s.on_unpin(2, 3);
        s.on_unpin(A1, 3);
    }
}
