//! # slab-hash — warp-cooperative hash tables (SlabHash workalike)
//!
//! The paper stores each vertex's adjacency list in a *slab hash* (Ashkiani
//! et al., "A dynamic hash table for the GPU", IPDPS 2018), extended with
//! key-uniqueness (`replace` semantics), iterators, and a new **concurrent
//! set** variant. This crate reproduces those tables over the simulated
//! device.
//!
//! A table is `num_buckets` bucket chains. Each chain is a singly linked
//! list of 128-byte slabs (32 `u32` words):
//!
//! ```text
//! map slab:  lanes 0..30 hold 15 ⟨key,value⟩ pairs (key on even lane),
//!            lane 30 reserved, lane 31 = next-slab pointer
//! set slab:  lanes 0..30 hold 30 keys, lane 30 reserved, lane 31 = next
//! ```
//!
//! so the **bucket capacity per slab** `Bc` is 15 (map) or 30 (set),
//! matching §IV-A2 of the paper. The *base slabs* (one per bucket) are
//! allocated in bulk, contiguously; collision slabs come from the
//! [`slab_alloc::SlabAllocator`].
//!
//! The two variants differ only in which lanes hold keys and whether a
//! value word follows each key, so each verb is one operation over both:
//! [`TableDesc::insert`], [`TableDesc::find`], [`TableDesc::delete`] and
//! [`TableDesc::for_each_entry`] (a set's value reads as 0 and is ignored
//! on insert). [`TableDesc::insert_lanes`] is `insert` for a warp's
//! *group* of keys: one chain walk per home bucket for all of them,
//! claiming the absent keys into the free slots seen, in chain order;
//! `insert` is its one-key call. [`TableDesc::find_lanes`] is `find` for
//! a *tile* of keys:
//! up to several 32-lane chunks (one key register per lane per chunk),
//! answered with one chain walk per home bucket however many chunks the
//! tile spans; `find` is its one-lane call. At each slab it matches up to
//! 30 open keys with one ballot each and more by broadcasting the slab's
//! 30 data words to every lane instead. Maintenance rewrites whole
//! chains through one dense writer: [`TableDesc::compact`] flushes
//! tombstones in place, [`TableDesc::fill`] builds a fresh table.
//!
//! All operations are warp-cooperative: the whole warp reads one slab in a
//! single coalesced transaction, ballots over its lanes, and elects lanes to
//! perform atomics. Uniqueness under concurrent same-key insertion holds
//! because every successful claim CASes the *first* free slot of the
//! chain, a group's i-th claim included (its earlier claims took the free
//! slots before it), and a lost claim walks again: the loser finds the
//! winner's key.
//!
//! A map slot's ⟨key, value⟩ is one even/odd word pair, claimed or
//! replaced with one 64-bit pair CAS ([`gpu_sim::Warp::atomic_cas_pair`])
//! as in SlabHash: a new key costs one atomic, and a reader's slab load
//! never sees a key without its value. Set slots CAS the key alone. A
//! replace that would write the value the slot already holds issues no
//! CAS.
//!
//! Sentinels: [`EMPTY_KEY`] marks a never-used slot, [`TOMBSTONE_KEY`] a
//! deleted one. An insert of a new key walks to the chain's last slab
//! anyway (replace semantics must rule the key out), so it claims the
//! first free slot it saw, a tombstone included, in every launch that
//! frees no slot; a mixed insert/delete launch claims only EMPTY slots
//! (see [`TableDesc::insert_lanes`]). The paper (§IV-C2) never reuses
//! tombstones. Nothing turns a used slot back into EMPTY, so empties
//! only exist at the tail of a chain, which is what makes search
//! early-exit and uniqueness sound.

use gpu_sim::{iter_bits, Addr, Device, Lanes, Warp, NULL_ADDR, SLAB_WORDS, WARP_SIZE};
use slab_alloc::SlabAllocator;

pub use slab_alloc::AllocError;

/// Slot never written. Keys must be `< TOMBSTONE_KEY`.
pub const EMPTY_KEY: u32 = u32::MAX;
/// Slot whose key was deleted. Ignored by queries; free for inserts that
/// reuse tombstones.
pub const TOMBSTONE_KEY: u32 = u32::MAX - 1;
/// Largest storable key.
pub const MAX_KEY: u32 = u32::MAX - 2;

/// Lane index holding the next-slab pointer.
pub const NEXT_LANE: usize = 31;
/// Lane reserved for future metadata (kept to match the paper's layout).
pub const RESERVED_LANE: usize = 30;

/// Keys per slab for the map variant (pairs on lanes 0..30).
pub const MAP_SLAB_KEYS: usize = 15;
/// Keys per slab for the set variant (lanes 0..30).
pub const SET_SLAB_KEYS: usize = 30;

/// Bit set for every even lane `< 30`: the key lanes of a map slab.
const MAP_KEY_LANES: u32 = 0x1555_5555;
/// Bit set for every lane `< 30`: the key lanes of a set slab.
const SET_KEY_LANES: u32 = 0x3FFF_FFFF;

/// The slot on key lane `lane` of `words`: its key and the word after it
/// (a map's value; ignored for a set).
#[inline]
fn slot(words: &Lanes<u32>, lane: u32) -> [u32; 2] {
    [words.get(lane as usize), words.get(lane as usize + 1)]
}

/// Which slab-hash variant a table is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// ⟨key, value⟩ pairs — used when edges carry weights/meta-data.
    Map,
    /// Keys only — used when only destinations matter (e.g. triangle
    /// counting), doubling per-slab capacity.
    Set,
}

impl TableKind {
    /// Bucket capacity per slab (`Bc` in the paper): 15 for map, 30 for set.
    #[inline]
    pub fn slab_capacity(self) -> usize {
        match self {
            TableKind::Map => MAP_SLAB_KEYS,
            TableKind::Set => SET_SLAB_KEYS,
        }
    }

    /// Bitmask of the lanes that hold keys in a slab of this kind (the
    /// complement holds values / the next pointer). Public so auditors can
    /// classify every slot as live, tombstone, or empty.
    #[inline]
    pub fn key_lanes(self) -> u32 {
        match self {
            TableKind::Map => MAP_KEY_LANES,
            TableKind::Set => SET_KEY_LANES,
        }
    }

    /// The value stored with the key on `lane` of `words`: the word after
    /// it for a map, 0 for a set.
    #[inline]
    fn value_of(self, words: &Lanes<u32>, lane: usize) -> u32 {
        match self {
            TableKind::Map => words.get(lane + 1),
            TableKind::Set => 0,
        }
    }
}

/// Number of buckets for an expected key count at a given load factor:
/// `⌈n / (lf × Bc)⌉`, minimum 1 (paper §IV-A2).
pub fn buckets_for(expected_keys: usize, load_factor: f64, kind: TableKind) -> u32 {
    assert!(load_factor > 0.0, "load factor must be positive");
    let per_bucket = load_factor * kind.slab_capacity() as f64;
    ((expected_keys as f64 / per_bucket).ceil() as u32).max(1)
}

/// A slab hash table descriptor: where the base slabs live and how many
/// buckets there are. Pure value type — all table state is in device
/// memory, so descriptors can be rebuilt inside kernels from words stored
/// in a vertex dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDesc {
    pub kind: TableKind,
    /// Address of bucket 0's base slab; bucket *i* is at `base + 32·i`.
    pub base: Addr,
    pub num_buckets: u32,
}

/// One slab's worth of data plus its address, yielded by iteration.
#[derive(Debug, Clone, Copy)]
pub struct SlabView {
    pub addr: Addr,
    pub words: Lanes<u32>,
    pub kind: TableKind,
}

impl SlabView {
    /// The next-slab pointer ([`NULL_ADDR`] at end of chain).
    #[inline]
    pub fn next(&self) -> Addr {
        self.words.get(NEXT_LANE)
    }

    /// Live ⟨key, value⟩ entries stored in this slab (skipping empties and
    /// tombstones); the value is 0 for a set slab.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lanes = self.kind.key_lanes();
        (0..WARP_SIZE).filter_map(move |i| {
            let k = self.words.get(i);
            (lanes & (1 << i) != 0 && k < TOMBSTONE_KEY)
                .then(|| (k, self.kind.value_of(&self.words, i)))
        })
    }

    /// Live keys stored in this slab (skipping empties and tombstones).
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries().map(|(k, _)| k)
    }

    /// Per-lane key validity mask (bit *i* set iff lane *i* holds a live
    /// key) — the form Algorithm 2's warp loop consumes.
    pub fn valid_mask(&self) -> u32 {
        let mut m = 0u32;
        let lanes = self.kind.key_lanes();
        for i in 0..WARP_SIZE {
            if lanes & (1 << i) != 0 && self.words.get(i) < TOMBSTONE_KEY {
                m |= 1 << i;
            }
        }
        m
    }
}

/// What [`TableDesc::insert_lanes`] did with a group of lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inserted {
    /// Lanes whose key was added: the first lane of each new key.
    pub added: u32,
    /// Lanes whose insert took effect: added, replaced, or found holding
    /// its value already.
    pub applied: u32,
    /// The first chain growth that failed; the lanes of the keys it left
    /// out are in neither mask.
    pub error: Option<AllocError>,
}

/// One insert walk's state ([`TableDesc::insert_lanes`]): the group's
/// keys and values, one register per lane, the free slots the walk of the
/// current chain has seen, in chain order (address, contents as read, and
/// the slab and chain depth holding it), and the outcome so far.
struct GroupWalk<'k> {
    keys: &'k Lanes<u32>,
    values: &'k Lanes<u32>,
    reuse_tombstones: bool,
    free: [(Addr, [u32; 2], Addr, u32); WARP_SIZE],
    out: Inserted,
}

impl<'k> GroupWalk<'k> {
    fn new(keys: &'k Lanes<u32>, values: &'k Lanes<u32>, reuse_tombstones: bool) -> Self {
        GroupWalk {
            keys,
            values,
            reuse_tombstones,
            free: [(0, [0; 2], 0, 0); WARP_SIZE],
            out: Inserted::default(),
        }
    }
}

/// Hash a key to a bucket. SlabHash uses universal hashing
/// `((a·k + b) mod p) mod B`; we fix one well-mixed (a, b) pair for
/// determinism across runs (a per-table pair changes nothing measured here).
#[inline]
pub fn bucket_of(key: u32, num_buckets: u32) -> u32 {
    // 32-bit finaliser (murmur3-style) — full avalanche, then reduce.
    let mut h = key;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h % num_buckets
}

/// Record the number of slabs a lookup walked before answering. Metrics
/// never charge counters: with no profiler attached this is a no-op.
#[inline]
fn note_probe_depth(warp: &Warp, depth: u64) {
    if let Some(p) = warp.device().profiler() {
        p.metrics().record("slab_hash.probe_depth", depth);
    }
}

/// Record the chain position (in slabs) where a new key landed.
#[inline]
fn note_chain_at_insert(warp: &Warp, depth: u64) {
    if let Some(p) = warp.device().profiler() {
        p.metrics().record("slab_hash.chain_at_insert", depth);
    }
}

/// Record one chain-walk restart caused by a torn slab read.
#[inline]
fn note_walk_restart(warp: &Warp) {
    if let Some(p) = warp.device().profiler() {
        p.metrics().record("slab_hash.walk_restarts", 1);
    }
}

/// Bound on torn-read rewinds of one walk before it takes a slab copy as
/// read. Claims settle, so a rewound walk soon reads the slab whole.
const MAX_WALK_RESTARTS: u32 = 8;

/// Cursor over one bucket chain, shared by every reader and by `delete`:
/// one coalesced read per slab, following each slab's next pointer as
/// read, as the paper's `edgeExist` and slab iterator do (§IV-B).
///
/// No hop is re-validated, and none needs to be (DESIGN §17). Writers
/// apply one batch at a time, and inside a batch a reachable chain only
/// grows at its tail. A slab that a cut frees (`compact`,
/// [`TableDesc::free_dynamic_slabs`]) stays intact in the allocator's
/// quarantine while the reader's pin holds. So a walk finishes on the
/// chain it entered and answers the state that chain held when the walk
/// read its link.
///
/// A slab load copies its word pairs one after another, so a claim can
/// land between two of them: the copy then shows a used slot after an
/// EMPTY one, which no chain holds (empties only exist at the tail). Such
/// a torn read rewinds the cursor to the bucket, so a walk that answers
/// many keys from one slab answers them all from one instant of it. The
/// check is host work on the copy, uncharged: on hardware a slab is one
/// 128 B line, read whole.
///
/// The cursor only charges reads; it never opens or closes a speculative
/// attempt, so each caller keeps its own charging protocol around it.
struct ChainWalk<'a, 'd> {
    warp: &'a Warp<'d>,
    bucket: Addr,
    /// The table's key lanes, for the torn-read check.
    key_lanes: u32,
    /// The slab the next [`Self::read`] loads.
    addr: Addr,
    /// Slabs on the chain up to and including `addr`.
    depth: u64,
    restarts: u32,
}

impl<'a, 'd> ChainWalk<'a, 'd> {
    fn new(warp: &'a Warp<'d>, kind: TableKind, bucket: Addr) -> Self {
        ChainWalk {
            warp,
            bucket,
            key_lanes: kind.key_lanes(),
            addr: bucket,
            depth: 1,
            restarts: 0,
        }
    }

    /// Read the current slab: one transaction. On a torn read the cursor
    /// rewinds to the bucket and returns `None`; the walk continues from
    /// the base slab.
    fn read(&mut self) -> Option<Lanes<u32>> {
        let words = self.warp.read_slab(self.addr);
        if self.torn(&words) && self.restarts < MAX_WALK_RESTARTS {
            self.restarts += 1;
            note_walk_restart(self.warp);
            self.addr = self.bucket;
            self.depth = 1;
            return None;
        }
        Some(words)
    }

    /// Whether `words` shows a used key slot after an EMPTY one. A
    /// host-side check of the copy: on hardware a slab is one 128 B line,
    /// read whole.
    fn torn(&self, words: &Lanes<u32>) -> bool {
        let empties = gpu_sim::ballot(self.key_lanes, &words.map(|w| w == EMPTY_KEY));
        let used = self.key_lanes & !empties;
        empties != 0 && used >> empties.trailing_zeros() != 0
    }

    /// Step past the current slab, whose contents are `words`; `false` at
    /// the end of the chain.
    fn advance(&mut self, words: &Lanes<u32>) -> bool {
        let next = words.get(NEXT_LANE);
        if next == NULL_ADDR {
            return false;
        }
        self.addr = next;
        self.depth += 1;
        true
    }
}

impl TableDesc {
    /// Device words required for the base slabs of `num_buckets` buckets.
    pub fn base_words(num_buckets: u32) -> usize {
        num_buckets as usize * SLAB_WORDS
    }

    /// Allocate and initialise a standalone table with its own base slabs
    /// (tests, examples, and scratch tables such as `purge_deleted`'s
    /// dead-vertex set; the graph bulk-allocates base slabs for all
    /// vertices at once instead — see `slabgraph`).
    pub fn create(dev: &Device, kind: TableKind, num_buckets: u32) -> TableDesc {
        assert!(num_buckets >= 1);
        let base = dev.alloc_words(Self::base_words(num_buckets), SLAB_WORDS);
        dev.memset("table_init", base, Self::base_words(num_buckets), EMPTY_KEY);
        TableDesc {
            kind,
            base,
            num_buckets,
        }
    }

    /// Base-slab address of `bucket`.
    #[inline]
    pub fn bucket_addr(&self, bucket: u32) -> Addr {
        debug_assert!(bucket < self.num_buckets);
        self.base + bucket * SLAB_WORDS as u32
    }

    /// Base-slab address of the bucket `key` hashes to.
    #[inline]
    fn home(&self, key: u32) -> Addr {
        self.bucket_addr(bucket_of(key, self.num_buckets))
    }

    /// Ballot over this kind's key lanes: bit *i* set iff lane *i* of
    /// `words` holds `word` (a key or a sentinel).
    #[inline]
    fn match_lanes(&self, warp: &Warp, words: &Lanes<u32>, word: u32) -> u32 {
        let lanes = self.kind.key_lanes();
        warp.ballot(&Lanes::from_fn(|i| {
            lanes & (1 << i) != 0 && words.get(i) == word
        }))
    }

    /// Write ⟨`key`, `value`⟩ into the slot at `addr` iff it still holds
    /// `seen`, the slot's ⟨key, next word⟩ as last read: one 64-bit pair
    /// CAS for a map, so a reader never sees a key without its value; a
    /// CAS of the key alone for a set. `false` on a lost race.
    #[inline]
    fn claim(&self, warp: &Warp, addr: Addr, seen: [u32; 2], key: u32, value: u32) -> bool {
        match self.kind {
            TableKind::Map => warp.atomic_cas_pair(addr, seen, [key, value]).is_ok(),
            TableKind::Set => warp.atomic_cas(addr, seen[0], key).is_ok(),
        }
    }

    /// Give `key`, found on `lane` of the slab at `slab_addr` read as
    /// `words`, the value `value`: a pair CAS `(key, old) → (key, value)`
    /// for a map whose slot held another value, nothing for a set or a
    /// slot that already held `value`. `false` on a lost race (the pair
    /// changed or the key was deleted since the read).
    #[inline]
    fn replace(
        &self,
        warp: &Warp,
        slab_addr: Addr,
        words: &Lanes<u32>,
        lane: u32,
        value: u32,
    ) -> bool {
        let seen = slot(words, lane);
        self.kind == TableKind::Set
            || seen[1] == value
            || self.claim(warp, slab_addr + lane, seen, seen[0], value)
    }

    /// Insert `key` with `value`, or replace the value of an existing key
    /// (the paper's `replace` semantics, §IV-C1). `value` is ignored for
    /// sets. The one-key call of [`Self::insert_lanes`], charging exactly
    /// one key's walk: one read and one key ballot per slab walked and,
    /// until a free slot has been seen, one free-slot ballot; one CAS to
    /// claim or replace.
    ///
    /// Returns `Ok(true)` if the key was added (allocating a chained slab
    /// if needed), `Ok(false)` if it already existed. The boolean drives
    /// the caller's exact edge counting.
    ///
    /// Fails only when chain growth cannot acquire a slab. Allocation
    /// happens strictly *before* any table mutation, so on `Err` the table
    /// is untouched: still fully queryable, deletable, and retryable.
    pub fn insert(
        &self,
        warp: &Warp,
        alloc: &SlabAllocator,
        key: u32,
        value: u32,
        reuse_tombstones: bool,
    ) -> Result<bool, AllocError> {
        debug_assert!(key <= MAX_KEY, "key {key:#x} collides with sentinels");
        let (keys, values) = (Lanes::splat(key), Lanes::splat(value));
        let mut walk = GroupWalk::new(&keys, &values, reuse_tombstones);
        self.walk_chain(warp, alloc, &mut walk, 1, self.home(key));
        match walk.out.error {
            Some(e) => Err(e),
            None => Ok(walk.out.added != 0),
        }
    }

    /// Insert a warp's *group* of keys, one per lane of `group` (`keys`
    /// and `values` hold one register per lane), with `replace`
    /// semantics: the result equals inserting the lanes one at a time in
    /// lane order. A key repeated in the group is stored once, counts as
    /// added at most once (on its first lane), and keeps the value of its
    /// last lane.
    ///
    /// The group splits by home bucket as [`Self::find_lanes`]' tile does
    /// (one ballot per bucket, charged only when the table has more than
    /// one bucket and the group more than one key), and each bucket's
    /// chain is walked once for all of its keys:
    /// - every slab costs one read, one match ballot per key still open
    ///   (a repeated key is matched once: its later lanes compare equal
    ///   with it in registers when it is broadcast), and, until as many
    ///   free slots have been seen as keys remain open, one free-slot
    ///   ballot. A free slot is EMPTY, or with `reuse_tombstones` also
    ///   TOMBSTONE;
    /// - a key found is replaced on the spot with one `claim` CAS (none
    ///   for a set, or for a slot already holding the value);
    /// - when the walk has read the chain's last slab, the absent keys,
    ///   in lane order, claim the free slots seen, in chain order, with
    ///   one CAS each. Keys left over grow the chain by one slab and the
    ///   walk goes on there; the chain grows only when every free slot
    ///   seen is taken.
    ///
    /// A one-key group is [`Self::insert`], and charges what the per-key
    /// walk always did: a k-key group on a one-bucket chain of L slabs
    /// reads L slabs, not k·L.
    ///
    /// Uniqueness holds because every successful claim takes the first
    /// free slot of the chain as it stood at the claim. The walk saw
    /// every slot before its i-th free slot either non-free or as one of
    /// the free slots its earlier claims took, and a lost claim sends
    /// that key and every later one back to a per-key re-walk, so no
    /// claim skips a free slot. Without
    /// `reuse_tombstones` the free slots are the tail's EMPTY ones, and no
    /// operation turns a slot back into EMPTY. With it, pass `true` only
    /// in launches that free no slot (no delete runs concurrently): then
    /// a live slot stays live with the same key, so the first free slot
    /// only moves forward. Suppose two claims for one key succeeded, at
    /// slots s before t. t's claimer saw s non-free (a slot it took
    /// itself holds another key of its group, since the group claims each
    /// key once), so s then held a live key for good, and the claim of s
    /// could not succeed. The same argument rules out a claim beside a
    /// live copy: the copy's slot was either seen live before the claimed
    /// slot, and the walk's match ballot found it, or claimed later by a
    /// walker that saw the claimed slot live. A launch whose own deletes
    /// free slots while it claims them (a mixed update batch) must pass
    /// `false`.
    ///
    /// A key found already holding its value (every key of a set) is not
    /// written: no CAS; the key is applied and not added, and linearizes
    /// at the slab read that showed the slot, since a slab load reads each
    /// word pair whole. Writing nothing leaves the argument above as it
    /// is. If a delete of the same key runs in the same launch (a mixed
    /// update batch), it lands after the insert: one of the two orders
    /// such a batch already allows.
    ///
    /// Each slab step is speculative, as in SlabHash: a lost race
    /// discards its charges. A one-key walk that loses its replace
    /// re-reads the slab; one that loses its claim discards every charge
    /// from the free slot's slab on and walks again from there, so the
    /// committed profile is the sequential one (losers simply probe after
    /// winners). In a group walk a lost CAS discards only itself, and the
    /// keys it sends back pay their own re-walks from their home bucket;
    /// the sequential executor never loses a race.
    ///
    /// Only chain growth can fail. Allocation happens strictly *before*
    /// the slots it provides are claimed, so a key whose growth failed is
    /// not in the table, which stays fully queryable, deletable, and
    /// retryable; the later keys of its chain each try the growth again,
    /// as one-key inserts in lane order would.
    pub fn insert_lanes(
        &self,
        warp: &Warp,
        alloc: &SlabAllocator,
        keys: &Lanes<u32>,
        values: &Lanes<u32>,
        group: u32,
        reuse_tombstones: bool,
    ) -> Inserted {
        // Each key's first lane walks for it, with its last lane's value,
        // from the key's home bucket.
        let mut leaders = 0u32;
        let mut value = *values;
        let mut homes = Lanes::splat(0);
        for lane in iter_bits(group) {
            let key = keys.get(lane as usize);
            debug_assert!(key <= MAX_KEY, "key {key:#x} collides with sentinels");
            match iter_bits(leaders).find(|&l| keys.get(l as usize) == key) {
                Some(l) => value.set(l as usize, values.get(lane as usize)),
                None => {
                    leaders |= 1 << lane;
                    homes.set(lane as usize, bucket_of(key, self.num_buckets));
                }
            }
        }
        let split_charged = self.num_buckets > 1 && leaders.count_ones() > 1;
        let mut walk = GroupWalk::new(keys, &value, reuse_tombstones);
        let mut pending = leaders;
        while let Some(lead) = gpu_sim::ffs(pending) {
            let bucket = homes.get(lead as usize);
            let lanes = iter_bits(pending)
                .filter(|&l| homes.get(l as usize) == bucket)
                .fold(0, |mask, l| mask | 1 << l);
            if split_charged {
                warp.ballot(&Lanes::from_fn(|i| lanes & (1 << i) != 0));
            }
            pending &= !lanes;
            let home = self.bucket_addr(bucket);
            let sent_back = self.walk_chain(warp, alloc, &mut walk, lanes, home);
            for lane in iter_bits(sent_back) {
                let rest = self.walk_chain(warp, alloc, &mut walk, 1 << lane, home);
                debug_assert_eq!(rest, 0, "a one-key walk re-walks itself");
            }
        }
        let mut out = walk.out;
        // A repeated key's later lanes share its first lane's outcome.
        for lane in iter_bits(group & !leaders) {
            let key = keys.get(lane as usize);
            if iter_bits(out.applied & leaders).any(|l| keys.get(l as usize) == key) {
                out.applied |= 1 << lane;
            }
        }
        out
    }

    /// The walk of [`Self::insert_lanes`] for the distinct keys of
    /// `lanes`, all homed on the chain whose base slab is `home`. Returns
    /// the lanes a lost CAS sent back to the per-key re-walk from the home
    /// bucket; a one-key walk walks again itself, as the per-key walk
    /// always did: from the slab of a lost claim's slot (every slot before
    /// it stays non-free and without the key), or re-reading the slab of a
    /// lost replace.
    fn walk_chain(
        &self,
        warp: &Warp,
        alloc: &SlabAllocator,
        walk: &mut GroupWalk,
        lanes: u32,
        home: Addr,
    ) -> u32 {
        let (keys, values, free) = (walk.keys, walk.values, &mut walk.free);
        let out = &mut walk.out;
        let one_key = lanes.count_ones() == 1;
        let key_lanes = self.kind.key_lanes();
        let reuse_tombstones = walk.reuse_tombstones;
        let free_word = |w: u32| w == EMPTY_KEY || (reuse_tombstones && w == TOMBSTONE_KEY);
        let (mut slab_addr, mut depth) = (home, 1u32);
        let mut open = lanes;
        let mut sent_back = 0u32;
        // The free slots seen, in chain order, fill `free`; the step that
        // sees the first one stays open until the claims (`claims_open`).
        let mut seen = 0usize;
        let mut claims_open = false;
        loop {
            warp.begin_attempt();
            let words = warp.read_slab(slab_addr);
            let mut lost_replace = false;
            for lane in iter_bits(open) {
                let key_match = self.match_lanes(warp, &words, keys.get(lane as usize));
                let Some(slot) = gpu_sim::ffs(key_match) else {
                    continue;
                };
                // As for claims below: a one-key walk discards a lost
                // replace with its step, a group walk the replace alone.
                if !one_key {
                    warp.begin_attempt();
                }
                // A replace is lost when the pair changed or the key was
                // deleted since the read.
                let replaced =
                    self.replace(warp, slab_addr, &words, slot, values.get(lane as usize));
                match (one_key, replaced) {
                    (_, true) => out.applied |= 1 << lane,
                    (true, false) => lost_replace = true,
                    (false, false) => sent_back |= 1 << lane,
                }
                if !one_key {
                    if replaced {
                        warp.commit_attempt();
                    } else {
                        warp.abort_attempt();
                    }
                }
                open &= !(1 << lane);
            }
            if lost_replace {
                // A one-key walk re-reads the slab.
                warp.abort_attempt();
                open = lanes;
                continue;
            }
            if open == 0 {
                warp.commit_attempt();
                if claims_open {
                    warp.commit_attempt();
                }
                return sent_back;
            }
            let had_free = seen > 0;
            let needed = open.count_ones() as usize;
            if seen < needed {
                let free_lanes = warp.ballot(&Lanes::from_fn(|i| {
                    key_lanes & (1 << i) != 0 && free_word(words.get(i))
                }));
                for l in iter_bits(free_lanes).take(needed - seen) {
                    free[seen] = (slab_addr + l, slot(&words, l), slab_addr, depth);
                    seen += 1;
                }
            }
            // Close the step, or keep it open as the claims' attempt.
            if !had_free && seen > 0 {
                claims_open = true;
            } else {
                warp.commit_attempt();
            }
            let next = words.get(NEXT_LANE);
            if next != NULL_ADDR {
                slab_addr = next;
                depth += 1;
                continue;
            }
            // The last slab: every open key is absent.
            let mut claimed = 0usize;
            let mut restart = None;
            for lane in iter_bits(open) {
                let Some(&(addr, was, free_slab, free_depth)) = free[..seen].get(claimed) else {
                    break;
                };
                let key = keys.get(lane as usize);
                // A one-key walk discards a lost claim with its whole
                // claims attempt; a group walk discards the claim alone.
                if !one_key {
                    warp.begin_attempt();
                }
                if self.claim(warp, addr, was, key, values.get(lane as usize)) {
                    if !one_key {
                        warp.commit_attempt();
                    }
                    note_chain_at_insert(warp, u64::from(free_depth));
                    out.added |= 1 << lane;
                    out.applied |= 1 << lane;
                    open &= !(1 << lane);
                    claimed += 1;
                    continue;
                }
                // The winner may have inserted this very key: this key and
                // every later one walk again.
                if !one_key {
                    warp.abort_attempt();
                }
                restart = Some((free_slab, free_depth));
                break;
            }
            match restart {
                Some(from) if one_key => {
                    // Discard every charge from the free slot's slab on.
                    warp.abort_attempt();
                    claims_open = false;
                    seen = 0;
                    (slab_addr, depth) = from;
                    continue;
                }
                Some(_) => {
                    sent_back |= open;
                    open = 0;
                }
                None => {}
            }
            if claims_open {
                warp.commit_attempt();
                claims_open = false;
            }
            seen = 0;
            // Keys left over grow the chain; each key whose growth fails
            // is dropped and the next one tries again.
            while open != 0 {
                match self.advance_or_grow(warp, alloc, slab_addr, &words) {
                    Ok(next) => {
                        slab_addr = next;
                        depth += 1;
                        break;
                    }
                    Err(e) => {
                        out.error.get_or_insert(e);
                        open &= open - 1;
                    }
                }
            }
            if open == 0 {
                return sent_back;
            }
        }
    }

    /// Look up `key`: its value for a map, `Some(0)` for a set, `None` if
    /// absent. The one-lane call of [`Self::find_lanes`], charging exactly
    /// one key's walk.
    pub fn find(&self, warp: &Warp, key: u32) -> Option<u32> {
        let [(found, values)] = self.find_lanes(warp, &[Lanes::splat(key)], &[1]);
        (found != 0).then(|| values.get(0))
    }

    /// Look up a *tile* of `N` 32-lane chunks of keys: chunk *c* holds one
    /// key per lane in `tile[c]` (one register per lane per chunk) and
    /// looks up the lanes of `groups[c]`. Returns one `(mask, values)` per
    /// chunk: bit *i* of the mask is set iff lane *i*'s key is present,
    /// and lane *i* of the values holds its value (a map's stored value, 0
    /// for a set or a miss). Membership, `edgeExist`'s primitive, is the
    /// masks. A chunk with an empty group costs nothing, so a caller with
    /// a tile of fewer chunks pads it with empty groups. Every register,
    /// the result's included, is a fixed array: the walk allocates
    /// nothing on the host.
    ///
    /// The tile splits by home bucket: per bucket, one ballot for each
    /// chunk with keys still pending, charged only when the table has
    /// more than one bucket and the tile more than one key. Each bucket's
    /// chain is then walked once for all the tile's keys that hash there,
    /// one read per slab. At every slab the walk matches the still-open
    /// keys one of two ways, so the slab's match step charges the smaller
    /// of the open-key count and 30 warp intrinsics:
    /// - with 30 or fewer keys open (WCWS, §IV), one match ballot per
    ///   open key and, while keys remain open, one EMPTY ballot;
    /// - with more keys open than the slab's 30 data words, 30 broadcast
    ///   shuffles of those words and no ballot: every lane compares each
    ///   word with its own open keys (one register per chunk), takes a
    ///   map's value from the broadcast value word, and sees any EMPTY
    ///   itself.
    ///
    /// Either way a lane makes one compare per open key per key word.
    /// The walk stops when every key is resolved or the chain ends, so a
    /// tile costs the transactions of its deepest probe per bucket, not
    /// their sum, however many chunks it spans. A one-chunk tile is a
    /// warp's group of lanes; a one-key call is [`Self::find`].
    ///
    /// Under concurrent mutation each key is answered from the chain as
    /// the walk read it (see `ChainWalk`); a torn slab read re-probes the
    /// still-open keys from the bucket, and keys resolved before it stay
    /// resolved.
    pub fn find_lanes<const N: usize>(
        &self,
        warp: &Warp,
        tile: &[Lanes<u32>; N],
        groups: &[u32; N],
    ) -> [(u32, Lanes<u32>); N] {
        let homes: [Lanes<u32>; N] = std::array::from_fn(|c| match groups[c] {
            0 => Lanes::splat(0),
            _ => tile[c].map(|k| bucket_of(k, self.num_buckets)),
        });
        let keys_in_tile: u32 = groups.iter().map(|g| g.count_ones()).sum();
        let split_charged = self.num_buckets > 1 && keys_in_tile > 1;
        let mut out = [(0u32, Lanes::splat(0)); N];
        let mut pending = *groups;
        // The lowest pending lane of the first chunk holding one names
        // the next bucket to walk.
        while let Some(bucket) = pending
            .iter()
            .zip(&homes)
            .find_map(|(&p, h)| gpu_sim::ffs(p).map(|lead| h.get(lead as usize)))
        {
            let mut open = [0u32; N];
            for ((o, p), h) in open.iter_mut().zip(&mut pending).zip(&homes) {
                if *p == 0 {
                    continue;
                }
                let same_home = Lanes::from_fn(|i| *p & (1 << i) != 0 && h.get(i) == bucket);
                *o = if split_charged {
                    warp.ballot(&same_home)
                } else {
                    gpu_sim::ballot(*p, &same_home)
                };
                *p &= !*o;
            }
            let mut walk = ChainWalk::new(warp, self.kind, self.bucket_addr(bucket));
            while open.iter().any(|&o| o != 0) {
                let Some(words) = walk.read() else {
                    continue;
                };
                // With more keys open than the slab has data words (the
                // lanes below `RESERVED_LANE`), every lane takes a copy
                // of those words, one broadcast shuffle each, and
                // compares its own keys with them in registers.
                let open_keys: u32 = open.iter().map(|o| o.count_ones()).sum();
                let seen = (open_keys as usize > RESERVED_LANE).then(|| {
                    // The reserved lane and the next pointer hold no key.
                    Lanes::from_fn(|w| {
                        if w < RESERVED_LANE {
                            warp.shuffle(&words, w as u32)
                        } else {
                            0
                        }
                    })
                });
                let matches = |word: u32| match &seen {
                    Some(seen) => gpu_sim::ballot(self.kind.key_lanes(), &seen.map(|w| w == word)),
                    None => self.match_lanes(warp, &words, word),
                };
                for ((o, keys), (found, values)) in open.iter_mut().zip(tile).zip(&mut out) {
                    for lane in 0..WARP_SIZE {
                        if *o & (1 << lane) == 0 {
                            continue;
                        }
                        let Some(slot) = gpu_sim::ffs(matches(keys.get(lane))) else {
                            continue;
                        };
                        note_probe_depth(warp, walk.depth);
                        *found |= 1 << lane;
                        *o &= !(1 << lane);
                        let slab = seen.as_ref().unwrap_or(&words);
                        values.set(lane, self.kind.value_of(slab, slot as usize));
                    }
                }
                // Empties only exist at the tail ⇒ the open keys are absent.
                if open.iter().any(|&o| o != 0)
                    && (matches(EMPTY_KEY) != 0 || !walk.advance(&words))
                {
                    for o in &mut open {
                        for _ in 0..o.count_ones() {
                            note_probe_depth(warp, walk.depth);
                        }
                        *o = 0;
                    }
                }
            }
        }
        out
    }

    /// Delete `key` by tombstoning it (§IV-C2). Returns `true` iff this
    /// call deleted it (drives exact edge-count decrements). A tombstone
    /// stays until [`Self::compact`] or an insert that reuses tombstones
    /// claims it.
    pub fn delete(&self, warp: &Warp, key: u32) -> bool {
        let mut walk = ChainWalk::new(warp, self.kind, self.home(key));
        loop {
            warp.begin_attempt();
            let Some(words) = walk.read() else {
                // A torn read re-probes from the bucket. Tearing never
                // occurs sequentially, so the aborted step's charges are
                // discarded.
                warp.abort_attempt();
                continue;
            };
            if let Some(lane) = gpu_sim::ffs(self.match_lanes(warp, &words, key)) {
                // CAS so concurrent deletes of the same key count once; on
                // a lost race re-probe this slab like a sequential loser
                // (who would find a tombstone and keep scanning).
                if warp
                    .atomic_cas(walk.addr + lane, key, TOMBSTONE_KEY)
                    .is_ok()
                {
                    warp.commit_attempt();
                    return true;
                }
                warp.abort_attempt();
                continue;
            }
            let empties = self.match_lanes(warp, &words, EMPTY_KEY);
            warp.commit_attempt();
            if empties != 0 || !walk.advance(&words) {
                return false;
            }
        }
    }

    /// Walk each bucket chain in turn, one read per slab, and hand `f` its
    /// slab views. A chain's views are buffered and handed over once the
    /// walk reaches the chain's end, so a torn read's rewind never shows
    /// `f` a slab twice.
    fn for_each_chain(&self, warp: &Warp, mut f: impl FnMut(&[SlabView])) {
        let mut views = Vec::new();
        for b in 0..self.num_buckets {
            views.clear();
            let mut walk = ChainWalk::new(warp, self.kind, self.bucket_addr(b));
            loop {
                let Some(words) = walk.read() else {
                    views.clear();
                    continue;
                };
                views.push(SlabView {
                    addr: walk.addr,
                    words,
                    kind: self.kind,
                });
                if !walk.advance(&words) {
                    break;
                }
            }
            f(&views);
        }
    }

    /// Walk every slab of every bucket chain, calling `f` per slab — the
    /// paper's adjacency-list iterator (§IV-B). Each step is one coalesced
    /// slab read; each chain is seen as the walk read it.
    pub fn for_each_slab(&self, warp: &Warp, mut f: impl FnMut(SlabView)) {
        self.for_each_chain(warp, |chain| chain.iter().for_each(|view| f(*view)));
    }

    /// Iterate every live ⟨key, value⟩ entry (value 0 for sets).
    pub fn for_each_entry(&self, warp: &Warp, mut f: impl FnMut(u32, u32)) {
        self.for_each_slab(warp, |view| view.entries().for_each(|(k, v)| f(k, v)));
    }

    /// Free every dynamically allocated (collision) slab back to `alloc`
    /// and cut the chains back to their base slabs. Base slabs are reset to
    /// EMPTY. Used by vertex deletion (Algorithm 2 lines 18–20).
    ///
    /// Fails with the allocator's misuse errors if a chain links a slab
    /// the pool does not own (corruption); the chains freed before the
    /// faulty one stay freed.
    pub fn free_dynamic_slabs(&self, warp: &Warp, alloc: &SlabAllocator) -> Result<(), AllocError> {
        for b in 0..self.num_buckets {
            let base = self.bucket_addr(b);
            let mut addr = warp.read_slab(base).get(NEXT_LANE);
            while addr != NULL_ADDR {
                let next = warp.read_slab(addr).get(NEXT_LANE);
                alloc.free(warp, addr)?;
                addr = next;
            }
            // Reset the base slab to pristine EMPTY (including next ptr).
            warp.write_slab(base, &Lanes::splat(EMPTY_KEY));
        }
        Ok(())
    }

    /// Flush this table's tombstones in one pass (§IV-C2: "can later be
    /// completely flushed out"). Each bucket's chain is walked once. A
    /// chain holding tombstones has its live entries written back densely,
    /// in chain order, over its first max(1, ⌈live/Bc⌉) slabs; the last
    /// kept slab is NULL-terminated and the surplus slabs return to
    /// `alloc`. A chain without tombstones is only read.
    ///
    /// Charges one read and one live-lane ballot per slab walked, plus an
    /// EMPTY ballot on the tail slab (the only one that can hold empties);
    /// one shuffle and one store per slab written; one atomic per slab
    /// freed. No CAS, no value exchange, no allocation.
    ///
    /// The rewrite is in place: the table must not be read or written
    /// concurrently. Returns the number of tombstones removed. Fails with
    /// the allocator's misuse errors if a chain links a slab the pool does
    /// not own; the chains compacted before the faulty one stay compacted.
    pub fn compact(&self, warp: &Warp, alloc: &SlabAllocator) -> Result<u64, AllocError> {
        let key_lanes = self.kind.key_lanes();
        let mut removed = 0u64;
        let mut chain = Vec::new();
        let mut entries = Vec::new();
        for b in 0..self.num_buckets {
            chain.clear();
            entries.clear();
            let mut tombstones = 0u32;
            let mut addr = self.bucket_addr(b);
            loop {
                let view = SlabView {
                    addr,
                    words: warp.read_slab(addr),
                    kind: self.kind,
                };
                let live = warp.ballot(&Lanes::from_fn(|i| {
                    key_lanes & (1 << i) != 0 && view.words.get(i) < TOMBSTONE_KEY
                }));
                let dead = self.kind.slab_capacity() as u32 - live.count_ones();
                chain.push(addr);
                entries.extend(view.entries());
                addr = view.next();
                if addr == NULL_ADDR {
                    let empties = self.match_lanes(warp, &view.words, EMPTY_KEY);
                    tombstones += dead - empties.count_ones();
                    break;
                }
                tombstones += dead;
            }
            if tombstones == 0 {
                continue;
            }
            removed += u64::from(tombstones);
            let kept = self.write_dense(warp, &chain, &entries);
            for &slab in &chain[kept..] {
                alloc.free(warp, slab)?;
            }
        }
        Ok(removed)
    }

    /// Build this table from `entries` (distinct keys) over base slabs
    /// that hold nothing yet — a rehash's fresh base. The entries are
    /// grouped by home bucket, keeping their order; every overflow slab
    /// the groups need is allocated first, then each bucket's chain is
    /// written with the dense writer [`Self::compact`] uses. Every base
    /// slab is written, so the base needs no initialisation.
    ///
    /// On `Err` nothing was written and the slabs already taken are back
    /// in `alloc`.
    pub fn fill(
        &self,
        warp: &Warp,
        alloc: &SlabAllocator,
        entries: &[(u32, u32)],
    ) -> Result<(), AllocError> {
        let mut groups = vec![Vec::new(); self.num_buckets as usize];
        for &(k, v) in entries {
            groups[bucket_of(k, self.num_buckets) as usize].push((k, v));
        }
        let mut chains: Vec<Vec<Addr>> = Vec::with_capacity(groups.len());
        for (b, group) in (0..self.num_buckets).zip(&groups) {
            let mut chain = vec![self.bucket_addr(b)];
            while chain.len() < group.len().div_ceil(self.kind.slab_capacity()) {
                match alloc.try_allocate(warp) {
                    Ok(slab) => chain.push(slab),
                    Err(e) => {
                        for &slab in chains.iter().chain([&chain]).flat_map(|c| &c[1..]) {
                            alloc
                                .free(warp, slab)
                                .expect("freshly allocated slab must be freeable");
                        }
                        return Err(e);
                    }
                }
            }
            chains.push(chain);
        }
        for (chain, group) in chains.iter().zip(&groups) {
            self.write_dense(warp, chain, group);
        }
        Ok(())
    }

    /// Write `entries` densely over the chain `slabs`, in order: slab *i*
    /// takes entries `i·Bc..(i+1)·Bc` and links to slab *i* + 1, and the
    /// last of the max(1, ⌈n/Bc⌉) slabs written is NULL-terminated with
    /// its unused slots EMPTY. One shuffle (routing the entries to their
    /// lanes) and one store per slab. Returns the number of slabs written;
    /// `slabs` must hold at least that many.
    fn write_dense(&self, warp: &Warp, slabs: &[Addr], entries: &[(u32, u32)]) -> usize {
        let bc = self.kind.slab_capacity();
        let kept = entries.len().div_ceil(bc).max(1);
        let identity = Lanes::from_fn(|lane| lane as u32);
        // An empty chain still writes its one (all-EMPTY) slab.
        let chunks = entries.chunks(bc).chain(std::iter::once(&[][..]));
        for (i, (&addr, chunk)) in slabs[..kept].iter().zip(chunks).enumerate() {
            let next = if i + 1 < kept {
                slabs[i + 1]
            } else {
                NULL_ADDR
            };
            let packed = Lanes::from_fn(|lane| match lane {
                NEXT_LANE => next,
                RESERVED_LANE => EMPTY_KEY,
                _ => match self.kind {
                    TableKind::Map => chunk.get(lane / 2).map(|&(k, v)| [k, v][lane % 2]),
                    TableKind::Set => chunk.get(lane).map(|&(k, _)| k),
                }
                .unwrap_or(EMPTY_KEY),
            });
            // The buffered entries are already in lane order, so the
            // routing shuffle a warp issues is the identity here.
            warp.write_slab(addr, &warp.shuffle_idx(&packed, &identity));
        }
        kept
    }

    /// Statistics over the chains (used by the Fig. 2 experiments). Each
    /// chain is counted from the same buffered walk [`Self::for_each_slab`]
    /// does, so a torn read's rewind cannot double-count.
    pub fn stats(&self, warp: &Warp) -> TableStats {
        let mut s = TableStats {
            buckets: self.num_buckets as u64,
            ..TableStats::default()
        };
        let key_lanes = self.kind.key_lanes();
        self.for_each_chain(warp, |chain| {
            s.slabs += chain.len() as u64;
            s.max_chain = s.max_chain.max(chain.len() as u64);
            for view in chain {
                for i in (0..WARP_SIZE).filter(|i| key_lanes & (1 << i) != 0) {
                    match view.words.get(i) {
                        EMPTY_KEY => s.empty_slots += 1,
                        TOMBSTONE_KEY => s.tombstones += 1,
                        _ => s.live_keys += 1,
                    }
                }
            }
        });
        s
    }

    /// Advance past a full slab: follow `next`, or allocate and link a new
    /// slab if at the tail. On a lost link CAS the competing slab is freed
    /// and the winner's is followed, as in SlabHash.
    ///
    /// This is the *only* allocation point of [`Self::insert`]: a failure
    /// here surfaces before any slot is claimed, which is what keeps a
    /// table consistent when an insert fails mid-chain.
    fn advance_or_grow(
        &self,
        warp: &Warp,
        alloc: &SlabAllocator,
        slab_addr: Addr,
        words: &Lanes<u32>,
    ) -> Result<Addr, AllocError> {
        let next = words.get(NEXT_LANE);
        if next != NULL_ADDR {
            return Ok(next);
        }
        // Speculative: a sequential executor only reaches the allocation
        // when the link is genuinely NULL, so a loser's allocate + link
        // CAS + rollback free must leave no trace in the counters.
        warp.begin_attempt();
        let fresh = match alloc.try_allocate(warp) {
            Ok(fresh) => fresh,
            Err(e) => {
                warp.commit_attempt();
                return Err(e);
            }
        };
        match warp.atomic_cas(slab_addr + NEXT_LANE as u32, NULL_ADDR, fresh) {
            Ok(_) => {
                warp.commit_attempt();
                Ok(fresh)
            }
            Err(winner) => {
                warp.abort_attempt();
                warp.uncharged(|w| alloc.free(w, fresh))
                    .expect("freshly allocated slab must be freeable");
                Ok(winner)
            }
        }
    }
}

/// Aggregate table statistics (Fig. 2's memory metrics are derived from
/// these across all vertices).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    pub buckets: u64,
    pub slabs: u64,
    pub live_keys: u64,
    pub tombstones: u64,
    pub empty_slots: u64,
    pub max_chain: u64,
}

impl TableStats {
    /// Merge per-table stats into a running total.
    pub fn merge(&mut self, o: &TableStats) {
        self.buckets += o.buckets;
        self.slabs += o.slabs;
        self.live_keys += o.live_keys;
        self.tombstones += o.tombstones;
        self.empty_slots += o.empty_slots;
        self.max_chain = self.max_chain.max(o.max_chain);
    }

    /// Fraction of key slots holding live keys (Fig. 2b's utilization).
    pub fn utilization(&self) -> f64 {
        let total = self.live_keys + self.tombstones + self.empty_slots;
        if total == 0 {
            0.0
        } else {
            self.live_keys as f64 / total as f64
        }
    }

    /// Average chain length in slabs per bucket (Fig. 2/3's x-axis).
    pub fn avg_chain(&self) -> f64 {
        if self.buckets == 0 {
            0.0
        } else {
            self.slabs as f64 / self.buckets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    type Setup = (Device, SlabAllocator, TableDesc);

    fn setup(kind: TableKind, buckets: u32) -> Setup {
        let dev = Device::new(1 << 18);
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, kind, buckets);
        (dev, alloc, t)
    }

    fn on_warp<R: Send>(dev: &Device, f: impl Fn(&Warp) -> R + Sync) -> R {
        let out = parking_lot::Mutex::new(None);
        dev.launch_warps("hash_test", 1, |warp| {
            *out.lock() = Some(f(warp));
        });
        out.into_inner().unwrap()
    }

    #[test]
    fn buckets_for_matches_paper_formula() {
        // ⌈|Au| / (lf × Bc)⌉ with Bc = 15 (map) / 30 (set).
        assert_eq!(buckets_for(100, 0.7, TableKind::Map), 10);
        assert_eq!(buckets_for(100, 0.7, TableKind::Set), 5);
        assert_eq!(buckets_for(0, 0.7, TableKind::Map), 1);
        assert_eq!(buckets_for(1, 0.7, TableKind::Set), 1);
    }

    #[test]
    fn map_insert_and_find() {
        let (dev, alloc, t) = setup(TableKind::Map, 2);
        on_warp(&dev, |warp| {
            assert!(t.insert(warp, &alloc, 7, 70, true).unwrap());
            assert!(t.insert(warp, &alloc, 8, 80, true).unwrap());
            assert_eq!(t.find(warp, 7), Some(70));
            assert_eq!(t.find(warp, 8), Some(80));
            assert_eq!(t.find(warp, 9), None);
        });
    }

    #[test]
    fn insert_overwrites_and_reports_existing() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            assert!(t.insert(warp, &alloc, 42, 1, true).unwrap());
            assert!(
                !t.insert(warp, &alloc, 42, 2, true).unwrap(),
                "second insert replaces"
            );
            assert_eq!(t.find(warp, 42), Some(2));
            let stats = t.stats(warp);
            assert_eq!(stats.live_keys, 1, "no duplicate keys stored");
        });
    }

    #[test]
    fn map_chains_past_one_slab() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            // 100 keys in a single bucket => ⌈100/15⌉ = 7 slabs.
            for k in 0..100 {
                assert!(t.insert(warp, &alloc, k, k * 2, true).unwrap());
            }
            for k in 0..100 {
                assert_eq!(t.find(warp, k), Some(k * 2), "key {k}");
            }
            let stats = t.stats(warp);
            assert_eq!(stats.live_keys, 100);
            assert_eq!(stats.slabs, 7);
            assert_eq!(stats.max_chain, 7);
        });
        assert_eq!(alloc.live_slabs(), 6, "6 collision slabs chained");
    }

    #[test]
    fn set_insert_and_find() {
        let (dev, alloc, t) = setup(TableKind::Set, 2);
        on_warp(&dev, |warp| {
            assert!(t.insert(warp, &alloc, 5, 0, true).unwrap());
            assert!(!t.insert(warp, &alloc, 5, 0, true).unwrap());
            assert!(t.find(warp, 5).is_some());
            assert!(t.find(warp, 6).is_none());
        });
    }

    #[test]
    fn set_packs_30_keys_per_slab() {
        let (dev, alloc, t) = setup(TableKind::Set, 1);
        on_warp(&dev, |warp| {
            for k in 0..30 {
                assert!(t.insert(warp, &alloc, k, 0, true).unwrap());
            }
            assert_eq!(t.stats(warp).slabs, 1, "30 keys fit one set slab");
            assert!(t.insert(warp, &alloc, 30, 0, true).unwrap());
            assert_eq!(t.stats(warp).slabs, 2, "31st key chains a slab");
        });
    }

    #[test]
    fn delete_tombstones_and_reports() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            t.insert(warp, &alloc, 1, 10, true).unwrap();
            t.insert(warp, &alloc, 2, 20, true).unwrap();
            assert!(t.delete(warp, 1));
            assert!(!t.delete(warp, 1), "second delete is a no-op");
            assert!(!t.delete(warp, 99), "absent key");
            assert_eq!(t.find(warp, 1), None);
            assert_eq!(t.find(warp, 2), Some(20));
            let stats = t.stats(warp);
            assert_eq!(stats.tombstones, 1);
            assert_eq!(stats.live_keys, 1);
        });
    }

    #[test]
    fn inserts_that_keep_tombstones_append_at_the_tail() {
        // Without reuse (a mixed insert/delete launch) an insert claims
        // only EMPTY slots: tombstoned slots stay dead, as in the paper's
        // §IV-C2, so empties only exist at the tail.
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            for k in 0..10 {
                t.insert(warp, &alloc, k, k, false).unwrap();
            }
            for k in 0..5 {
                t.delete(warp, k);
            }
            t.insert(warp, &alloc, 100, 100, false).unwrap();
            assert!(
                t.insert(warp, &alloc, 3, 31, false).unwrap(),
                "reinsert is new"
            );
            let stats = t.stats(warp);
            assert_eq!(stats.tombstones, 5, "tombstones preserved");
            assert_eq!(stats.live_keys, 7);
            assert_eq!(t.find(warp, 100), Some(100));
            assert_eq!(t.find(warp, 3), Some(31));
        });
    }

    #[test]
    fn reinserting_a_deleted_key_takes_the_first_tombstone() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            t.insert(warp, &alloc, 3, 30, true).unwrap();
            t.delete(warp, 3);
            assert!(
                t.insert(warp, &alloc, 3, 31, true).unwrap(),
                "reinsert counts as new"
            );
            assert_eq!(t.find(warp, 3), Some(31));
            let stats = t.stats(warp);
            assert_eq!(stats.live_keys, 1);
            assert_eq!(stats.tombstones, 0);
        });
    }

    #[test]
    fn iteration_yields_all_pairs() {
        let (dev, alloc, t) = setup(TableKind::Map, 4);
        on_warp(&dev, |warp| {
            let mut expect = std::collections::BTreeMap::new();
            for k in 0..200 {
                t.insert(warp, &alloc, k, 1000 + k, true).unwrap();
                expect.insert(k, 1000 + k);
            }
            for k in (0..200).step_by(3) {
                t.delete(warp, k);
                expect.remove(&k);
            }
            let mut got = std::collections::BTreeMap::new();
            t.for_each_entry(warp, |k, v| {
                assert!(got.insert(k, v).is_none(), "duplicate key {k}");
            });
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn set_iteration_yields_all_keys() {
        let (dev, alloc, t) = setup(TableKind::Set, 3);
        on_warp(&dev, |warp| {
            for k in (0..500).step_by(2) {
                t.insert(warp, &alloc, k, 0, true).unwrap();
            }
            let mut got: Vec<u32> = vec![];
            t.for_each_entry(warp, |k, _| got.push(k));
            got.sort_unstable();
            let expect: Vec<u32> = (0..500).step_by(2).collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn free_dynamic_slabs_releases_collision_slabs_only() {
        let (dev, alloc, t) = setup(TableKind::Map, 2);
        on_warp(&dev, |warp| {
            for k in 0..200 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            assert!(alloc.live_slabs() > 0);
            t.free_dynamic_slabs(warp, &alloc).unwrap();
            assert_eq!(alloc.live_slabs(), 0, "all collision slabs freed");
            // Base slabs are reset: table reads as empty.
            assert_eq!(t.stats(warp).live_keys, 0);
            assert_eq!(t.stats(warp).slabs, 2, "base slabs remain");
        });
    }

    #[test]
    fn find_cost_is_constant_in_table_size() {
        // The headline property: queries are O(1) slab reads at a sane
        // load factor, regardless of how many keys the table holds.
        let dev = Device::new(1 << 20);
        let alloc = SlabAllocator::new(&dev, 4096);
        let n = 3000u32;
        let buckets = buckets_for(n as usize, 0.7, TableKind::Map);
        let t = TableDesc::create(&dev, TableKind::Map, buckets);
        on_warp(&dev, |warp| {
            for k in 0..n {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
        });
        let before = dev.counters().snapshot();
        on_warp(&dev, |warp| {
            for k in 0..100u32 {
                t.find(warp, k * 17 % n);
            }
        });
        let d = dev.counters().snapshot().delta(&before);
        assert!(
            d.transactions <= 300,
            "100 finds should read ≤3 slabs each, got {} transactions",
            d.transactions
        );
    }

    #[test]
    fn stats_utilization_tracks_load() {
        let (dev, alloc, t) = setup(TableKind::Set, 1);
        on_warp(&dev, |warp| {
            for k in 0..15 {
                t.insert(warp, &alloc, k, 0, true).unwrap();
            }
            let s = t.stats(warp);
            assert_eq!(s.live_keys, 15);
            assert!((s.utilization() - 0.5).abs() < 1e-9, "15/30 slots used");
            assert_eq!(s.avg_chain(), 1.0);
        });
    }

    #[test]
    fn insert_reuses_tombstones() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            for k in 0..20 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            for k in 0..5 {
                t.delete(warp, k);
            }
            // New keys land in the first tombstones: no growth.
            let slabs_before = t.stats(warp).slabs;
            assert!(t.insert(warp, &alloc, 100, 1, true).unwrap());
            assert!(t.insert(warp, &alloc, 101, 2, true).unwrap());
            let s = t.stats(warp);
            assert_eq!(s.slabs, slabs_before, "no new slabs needed");
            assert_eq!(s.tombstones, 3, "two tombstones consumed");
            let base = warp.read_slab(t.bucket_addr(0));
            assert_eq!((base.get(0), base.get(2)), (100, 101), "first two slots");
            assert_eq!(t.find(warp, 100), Some(1));
            assert_eq!(t.find(warp, 101), Some(2));
        });
    }

    #[test]
    fn insert_over_tombstones_keeps_uniqueness_and_replace_semantics() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            // Key 7 sits on the chain's second slab, behind tombstones.
            for k in 0..20 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            for k in 0..15 {
                t.delete(warp, k);
            }
            assert!(t.insert(warp, &alloc, 7, 1, true).unwrap(), "7 was deleted");
            assert!(!t.insert(warp, &alloc, 7, 2, true).unwrap(), "replaces");
            assert!(
                !t.insert(warp, &alloc, 17, 3, true).unwrap(),
                "found past a tombstone"
            );
            assert_eq!(t.find(warp, 7), Some(2));
            assert_eq!(t.find(warp, 17), Some(3));
            let s = t.stats(warp);
            assert_eq!((s.live_keys, s.tombstones), (6, 14));
            // Interleaves with inserts that keep tombstones.
            t.delete(warp, 7);
            assert!(t.insert(warp, &alloc, 7, 4, false).unwrap());
            assert_eq!(t.stats(warp).live_keys, 6);
            assert_eq!(t.find(warp, 7), Some(4));
        });
    }

    #[test]
    fn insert_reuses_tombstones_in_a_set() {
        let (dev, alloc, t) = setup(TableKind::Set, 1);
        on_warp(&dev, |warp| {
            for k in 0..40 {
                t.insert(warp, &alloc, k, 0, true).unwrap();
            }
            for k in 0..20 {
                t.delete(warp, k);
            }
            let slabs_before = t.stats(warp).slabs;
            for k in 100..115 {
                assert!(t.insert(warp, &alloc, k, 0, true).unwrap());
            }
            assert_eq!(t.stats(warp).slabs, slabs_before);
            assert_eq!(t.stats(warp).tombstones, 5);
            for k in 100..115 {
                assert!(t.find(warp, k).is_some());
            }
        });
    }

    #[test]
    fn insert_grows_when_no_slot_is_free() {
        for reuse in [false, true] {
            let (dev, alloc, t) = setup(TableKind::Map, 1);
            on_warp(&dev, |warp| {
                for k in 0..40 {
                    assert!(t.insert(warp, &alloc, k, k, reuse).unwrap(), "key {k}");
                }
                let s = t.stats(warp);
                assert_eq!(s.live_keys, 40);
                assert_eq!(s.slabs, 3, "⌈40/15⌉ slabs chained");
                for k in 0..40 {
                    assert_eq!(t.find(warp, k), Some(k));
                }
            });
        }
    }

    /// Delete every key of a one-bucket chain of `slabs` full slabs,
    /// leaving a chain that holds only tombstones.
    fn tombstoned_chain(kind: TableKind, slabs: usize, policy: gpu_sim::ExecPolicy) -> Setup {
        let dev = Device::with_policy(1 << 20, policy);
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, kind, 1);
        let n = (kind.slab_capacity() * slabs) as u32;
        dev.launch_warps("hash_test", 1, |warp| {
            for k in 0..n {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            for k in 0..n {
                assert!(t.delete(warp, k));
            }
        });
        (dev, alloc, t)
    }

    /// Every live key of `t` with its multiplicity.
    fn key_counts(dev: &Device, t: &TableDesc) -> std::collections::HashMap<u32, u32> {
        let counts = parking_lot::Mutex::new(std::collections::HashMap::new());
        dev.launch_warps("hash_test", 1, |warp| {
            t.for_each_entry(warp, |k, _| {
                *counts.lock().entry(k).or_insert(0u32) += 1;
            });
        });
        counts.into_inner()
    }

    #[test]
    fn concurrent_inserts_over_tombstones_stay_unique() {
        use gpu_sim::ExecPolicy;
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = tombstoned_chain(kind, 3, ExecPolicy::Threaded(4));
            let slabs = alloc.live_slabs();
            // 16 warps in one launch, each inserting 20 keys of 40 with
            // heavy overlap between warps: 40 new keys fit the chain's
            // tombstones without growing it.
            let added = std::sync::atomic::AtomicU32::new(0);
            dev.launch_warps("hash_test", 16, |warp| {
                for j in 0..20 {
                    let k = 1000 + (warp.warp_id() * 3 + j) % 40;
                    if t.insert(warp, &alloc, k, warp.warp_id(), true).unwrap() {
                        added.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    }
                }
            });
            let counts = key_counts(&dev, &t);
            assert_eq!(counts.len(), 40, "{kind:?}");
            for (k, c) in counts {
                assert_eq!(c, 1, "{kind:?}: key {k} stored {c} times");
            }
            assert_eq!(
                added.into_inner(),
                40,
                "{kind:?}: exactly one claim per key"
            );
            assert_eq!(alloc.live_slabs(), slabs, "{kind:?}: no new slab");
        }
    }

    #[test]
    fn concurrent_mixed_launch_claims_no_tombstone() {
        use gpu_sim::ExecPolicy;
        // One launch deletes keys and inserts duplicated new keys on one
        // chain, as a mixed update batch does: its inserts must not reuse
        // the tombstones its deletes leave, or two warps could claim one
        // key in two freed slots.
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Map, 1);
        dev.launch_warps("hash_test", 1, |warp| {
            for k in 0..45 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
        });
        let (added, deleted) = (
            std::sync::atomic::AtomicU32::new(0),
            std::sync::atomic::AtomicU32::new(0),
        );
        dev.launch_warps("hash_test", 16, |warp| {
            let w = warp.warp_id();
            for j in 0..6 {
                if t.delete(warp, (w * 3 + j) % 45) {
                    deleted.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                }
                if t.insert(warp, &alloc, 100 + (w + j) % 12, w, false)
                    .unwrap()
                {
                    added.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                }
            }
        });
        let counts = key_counts(&dev, &t);
        for (k, c) in &counts {
            assert_eq!(*c, 1, "key {k} stored {c} times");
        }
        assert_eq!(added.into_inner(), 12);
        let deleted = deleted.into_inner();
        dev.launch_warps("hash_test", 1, |warp| {
            let s = t.stats(warp);
            assert_eq!(s.tombstones, u64::from(deleted), "every tombstone kept");
            assert_eq!(s.live_keys, 45 + 12 - u64::from(deleted));
        });
    }

    #[test]
    fn concurrent_same_key_inserts_keep_uniqueness() {
        use gpu_sim::ExecPolicy;
        // Many warps all replace the same small key set concurrently; the
        // first-free-CAS-retry protocol must never produce duplicates.
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, 4096);
        let t = TableDesc::create(&dev, TableKind::Map, 2);
        dev.launch_warps("hash_test", 32, |warp| {
            for k in 0..20 {
                t.insert(warp, &alloc, k, warp.warp_id(), true).unwrap();
            }
        });
        let counts = key_counts(&dev, &t);
        assert_eq!(counts.len(), 20);
        for (k, c) in counts {
            assert_eq!(c, 1, "key {k} stored {c} times");
        }
    }

    #[test]
    fn concurrent_same_value_reinserts_replaces_and_new_keys_stay_exact() {
        use gpu_sim::ExecPolicy;
        use std::collections::{BTreeSet, HashMap};
        // Keys 0..30 start stored with themselves as value. One launch of
        // 16 warps writes keys 0..60 with heavy overlap: each write to an
        // old key either re-inserts its stored value (no CAS) or replaces
        // it; keys 30..60 are new.
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Map, 2);
        dev.launch_warps("hash_test", 1, |warp| {
            for k in 0..30 {
                assert!(t.insert(warp, &alloc, k, k, true).unwrap());
            }
        });
        let write = |w: u32, j: u32| {
            let k = (w * 7 + j) % 60;
            let v = if k < 30 && w.is_multiple_of(2) {
                k
            } else {
                1000 + w
            };
            (k, v)
        };
        let mut written: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        for w in 0..16 {
            for j in 0..20 {
                let (k, v) = write(w, j);
                written.entry(k).or_default().insert(v);
            }
        }
        assert_eq!(written.len(), 60, "every key is written");
        assert!(
            (0..30).all(|k| written[&k].contains(&k) && written[&k].len() > 1),
            "every old key gets same-value re-inserts and replaces"
        );
        let added = std::sync::atomic::AtomicU32::new(0);
        dev.launch_warps("hash_test", 16, |warp| {
            for j in 0..20 {
                let (k, v) = write(warp.warp_id(), j);
                if t.insert(warp, &alloc, k, v, true).unwrap() {
                    added.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                }
            }
        });
        assert_eq!(added.into_inner(), 30, "exactly one claim per new key");
        let counts = key_counts(&dev, &t);
        assert_eq!(counts.len(), 60);
        for (k, c) in counts {
            assert_eq!(c, 1, "key {k} stored {c} times");
        }
        dev.launch_warps("hash_test", 1, |warp| {
            assert_eq!(t.stats(warp).live_keys, 60);
            t.for_each_entry(warp, |k, v| {
                assert!(written[&k].contains(&v), "key {k}: {v} was never written");
            });
        });
    }

    #[test]
    fn profiler_histograms_track_probe_and_chain_depth() {
        use gpu_sim::{DeviceConfig, ProfilerConfig};
        let dev = Device::with_config(
            DeviceConfig::new(1 << 18).with_profiler(ProfilerConfig::default()),
        );
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Map, 1);
        on_warp(&dev, |warp| {
            // 100 keys in one bucket: chain grows to ⌈100/15⌉ = 7 slabs.
            for k in 0..100 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            for k in 0..100 {
                t.find(warp, k);
            }
        });
        let sums = dev.profiler().unwrap().metric_summaries();
        let probe = sums
            .iter()
            .find(|s| s.name == "slab_hash.probe_depth")
            .expect("probe-depth histogram missing");
        assert_eq!(probe.count, 100, "one sample per find");
        assert!(
            probe.max >= 4,
            "deep chain walks observed, max {}",
            probe.max
        );
        let chain = sums
            .iter()
            .find(|s| s.name == "slab_hash.chain_at_insert")
            .expect("chain-at-insert histogram missing");
        assert_eq!(chain.count, 100, "one sample per new key");
        assert_eq!(chain.max, 7, "last keys land on the 7th slab");
    }

    /// Probe groups over a table of several buckets with multi-slab
    /// chains and tombstones: present, deleted and absent keys, one key
    /// repeated within the warp, under full, sparse and one-lane masks.
    fn probe_groups() -> Vec<(Lanes<u32>, u32)> {
        let masks = [
            gpu_sim::FULL_MASK,
            0x5555_5555,
            1,
            1 << 31,
            0x8000_0001,
            0xF0F0_00FF,
        ];
        (0..8u32)
            .flat_map(|seed| {
                let mut keys = Lanes::from_fn(|i| (seed * 37 + i as u32 * 13) % 800);
                keys.set(31, keys.get(0));
                masks.map(|m| (keys, m))
            })
            .collect()
    }

    #[test]
    fn find_lanes_answers_like_per_key_find() {
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = setup(kind, 4);
            on_warp(&dev, |warp| {
                // Keys ≡ 1 (mod 3) below 720; every fifth one deleted.
                for k in 0..240u32 {
                    t.insert(warp, &alloc, k * 3 + 1, k * 10 + 7, true).unwrap();
                }
                for k in (0..240u32).step_by(5) {
                    assert!(t.delete(warp, k * 3 + 1));
                }
                let stats = t.stats(warp);
                assert!(stats.max_chain >= 2 && stats.tombstones > 0, "{stats:?}");
                // Tiles of 1 to 8 chunks, each chunk one probe group,
                // padded to 8 with empty groups.
                let probes = probe_groups();
                for (i, chunks) in (1..=8).cycle().take(probes.len()).enumerate() {
                    let chunk = |c: usize| {
                        if c < chunks {
                            probes[(i + c) % probes.len()]
                        } else {
                            (Lanes::splat(0), 0)
                        }
                    };
                    let keys: [Lanes<u32>; 8] = std::array::from_fn(|c| chunk(c).0);
                    let groups: [u32; 8] = std::array::from_fn(|c| chunk(c).1);
                    let answers = t.find_lanes(warp, &keys, &groups);
                    assert!(answers[chunks..].iter().all(|&(found, _)| found == 0));
                    for (c, (found, values)) in answers.into_iter().enumerate() {
                        for lane in 0..WARP_SIZE {
                            let want = if groups[c] & (1 << lane) != 0 {
                                t.find(warp, keys[c].get(lane))
                            } else {
                                None
                            };
                            let ctx = format!("{kind:?} tile {i} chunk {c} lane {lane}");
                            assert_eq!(found & (1 << lane) != 0, want.is_some(), "{ctx}");
                            assert_eq!(values.get(lane), want.unwrap_or(0), "{ctx}");
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn find_lanes_costs_the_deepest_probe() {
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = setup(kind, 1);
            let n = 100u32;
            on_warp(&dev, |warp| {
                for k in 0..n {
                    t.insert(warp, &alloc, k, k, true).unwrap();
                }
            });
            let charge = |f: &(dyn Fn(&Warp) + Sync)| {
                let before = dev.counters().snapshot();
                on_warp(&dev, f);
                dev.counters().snapshot().delta(&before)
            };
            for k in 1..=32u32 {
                // Keys at every depth of the chain, some of them absent.
                let keys = Lanes::from_fn(|i| (i as u32 * 37 + k * 11) % (n + 20));
                let group = gpu_sim::FULL_MASK >> (32 - k);
                let singles: Vec<_> = (0..k as usize)
                    .map(|i| {
                        charge(&|w| {
                            t.find(w, keys.get(i));
                        })
                    })
                    .collect();
                let grouped = charge(&|w| {
                    t.find_lanes(w, &[keys], &[group]);
                });
                let deepest = singles.iter().map(|c| c.transactions).max().unwrap();
                assert_eq!(grouped.transactions, deepest, "{kind:?}, k = {k}");
                let ballots: u64 = singles.iter().map(|c| c.ballots).sum();
                assert!(grouped.ballots <= ballots, "{kind:?}, k = {k}");
                // The same keys dealt over eight chunks still walk the
                // one chain once.
                let dealt: [u32; 8] = std::array::from_fn(|c| group & (0x0101_0101 << c));
                let tiled = charge(&|w| {
                    t.find_lanes(w, &[keys; 8], &dealt);
                });
                assert_eq!(tiled.transactions, deepest, "{kind:?}, k = {k}, 8 chunks");
            }
        }
    }

    #[test]
    fn find_lanes_records_one_probe_depth_per_probe() {
        use gpu_sim::{DeviceConfig, ProfilerConfig};
        let dev = Device::with_config(
            DeviceConfig::new(1 << 18).with_profiler(ProfilerConfig::default()),
        );
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Map, 1);
        // Keys 0..100 in one bucket: key k sits on slab k/15 + 1 of 7.
        let probes = [0, 14, 15, 99, 1000, 14];
        let keys = Lanes::from_fn(|i| probes[i % probes.len()]);
        on_warp(&dev, |warp| {
            for k in 0..100 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            t.find_lanes(warp, &[keys], &[(1 << probes.len()) - 1]);
        });
        let probe = dev
            .profiler()
            .unwrap()
            .metric_summaries()
            .into_iter()
            .find(|s| s.name == "slab_hash.probe_depth")
            .expect("probe-depth histogram missing");
        // Depths 1, 1, 2, 7, 7 (the miss resolves at the tail), 1.
        assert_eq!((probe.count, probe.sum, probe.max), (6, 19, 7));
    }

    /// A four-bucket table whose bucket *b* holds a chain of *b* + 1
    /// slabs, every seventh key deleted, and an 8-chunk tile over it:
    /// every stored key (so hits on every slab), every deleted key,
    /// absent keys, and keys repeated across chunks, under full and
    /// sparse group masks. A map stores `10k + 7` with key `k`, so some
    /// value words equal other keys.
    fn broadcast_fixture(kind: TableKind) -> (Setup, [Lanes<u32>; 8], [u32; 8]) {
        let (dev, alloc, t) = setup(kind, 4);
        let cap = kind.slab_capacity();
        // Bucket b gets b full slabs, then three keys on slab b + 1.
        let stored: Vec<u32> = (0..4u32)
            .flat_map(|b| {
                let keys = (0..1000u32).filter(move |&k| bucket_of(k, 4) == b);
                keys.take(cap * b as usize + 3)
            })
            .collect();
        let deleted: Vec<u32> = stored.iter().copied().skip(3).step_by(7).collect();
        on_warp(&dev, |warp| {
            for &k in &stored {
                t.insert(warp, &alloc, k, k * 10 + 7, true).unwrap();
            }
            for &k in &deleted {
                assert!(t.delete(warp, k));
            }
        });
        let depths: Vec<usize> = on_warp(&dev, |warp| {
            chains(&t, warp)
                .iter()
                .map(|(_, slabs)| slabs.len())
                .collect()
        });
        assert_eq!(depths, [1, 2, 3, 4], "{kind:?}");
        assert!(on_warp(&dev, |warp| t.stats(warp)).tombstones > 0);
        let mut pool = stored.clone();
        pool.extend(&deleted);
        pool.extend(1000..1040);
        // 256 lanes step through the pool 5 keys at a time, wrapping
        // around, so nearly every pool key lands in a lane and many land
        // in several chunks.
        let tile: [Lanes<u32>; 8] =
            std::array::from_fn(|c| Lanes::from_fn(|i| pool[(5 * (32 * c + i)) % pool.len()]));
        assert!((1..8).any(|c| tile[c].0.iter().any(|k| tile[0].0.contains(k))));
        let groups = [
            gpu_sim::FULL_MASK,
            gpu_sim::FULL_MASK,
            0x5555_5555,
            gpu_sim::FULL_MASK,
            0xF0F0_00FF,
            gpu_sim::FULL_MASK,
            1,
            gpu_sim::FULL_MASK,
        ];
        ((dev, alloc, t), tile, groups)
    }

    #[test]
    fn broadcast_matching_answers_like_per_key_find() {
        for kind in [TableKind::Map, TableKind::Set] {
            let ((dev, _alloc, t), tile, groups) = broadcast_fixture(kind);
            on_warp(&dev, |warp| {
                // Every slab of every chain holds a live key the tile asks.
                let asked = |k: u32| {
                    (0..8).any(|c| {
                        (0..WARP_SIZE).any(|i| groups[c] & (1 << i) != 0 && tile[c].get(i) == k)
                    })
                };
                for (_, slabs) in chains(&t, warp) {
                    assert!(slabs.iter().all(|view| view.keys().any(asked)), "{kind:?}");
                }
                let answers = t.find_lanes(warp, &tile, &groups);
                let mut hits = 0;
                for (c, (found, values)) in answers.into_iter().enumerate() {
                    for lane in 0..WARP_SIZE {
                        let want = if groups[c] & (1 << lane) != 0 {
                            t.find(warp, tile[c].get(lane))
                        } else {
                            None
                        };
                        let ctx = format!("{kind:?} chunk {c} lane {lane}");
                        assert_eq!(found & (1 << lane) != 0, want.is_some(), "{ctx}");
                        assert_eq!(values.get(lane), want.unwrap_or(0), "{ctx}");
                        hits += u32::from(want.is_some());
                    }
                }
                assert!(hits > 30, "{kind:?}: {hits} hits");
            });
        }
    }

    #[test]
    fn broadcast_charges_are_pinned() {
        // Exact charges of a one-warp launch running `f` on a one-bucket
        // set whose chain holds keys 0..n (30 per slab, in order).
        let charge = |n: u32, f: &(dyn Fn(&TableDesc, &Warp) + Sync)| {
            let (dev, alloc, t) = setup(TableKind::Set, 1);
            on_warp(&dev, |warp| {
                for k in 0..n {
                    t.insert(warp, &alloc, k, 0, true).unwrap();
                }
            });
            let before = dev.counters().snapshot();
            on_warp(&dev, |warp| f(&t, warp));
            let d = dev.counters().snapshot().delta(&before);
            [d.transactions, d.ballots, d.shuffles]
        };
        // Up to 8 chunks of 32 keys, padded with empty groups.
        let tile = |keys: &[u32]| -> ([Lanes<u32>; 8], [u32; 8]) {
            let chunk = |c: usize| keys.get(c * WARP_SIZE..).unwrap_or(&[]);
            (
                std::array::from_fn(|c| Lanes::from_fn(|i| chunk(c).get(i).copied().unwrap_or(0))),
                std::array::from_fn(|c| gpu_sim::lanemask_lt(chunk(c).len().min(WARP_SIZE) as u32)),
            )
        };
        // 256 misses stay open down an L-slab chain: L slab reads, 30
        // shuffles per slab and no ballot.
        let misses: Vec<u32> = (1000..1256).collect();
        let (keys, groups) = tile(&misses);
        for slabs in [1u32, 3] {
            let got = charge(30 * slabs, &|t, w| {
                let answers = t.find_lanes(w, &keys, &groups);
                assert!(answers.iter().all(|&(found, _)| found == 0));
            });
            let want = [u64::from(slabs), 0, u64::from(30 * slabs)];
            assert_eq!(got, want, "all-miss tile, L = {slabs}");
        }
        // 64 keys on a 3-slab chain: 30 hit on slab 1 and 10 on slab 2,
        // leaving 24 misses open at slab 3: 3 slab reads. Slabs 1 and 2
        // broadcast (64 then 34 keys open); slab 3 charges 24 match
        // ballots and the EMPTY ballot.
        let mixed: Vec<u32> = (0..40).chain(1000..1024).collect();
        let (keys, groups) = tile(&mixed);
        let got = charge(90, &|t, w| {
            let hits: u32 = t
                .find_lanes(w, &keys, &groups)
                .iter()
                .map(|(found, _)| found.count_ones())
                .sum();
            assert_eq!(hits, 40);
        });
        assert_eq!(got, [3, 25, 60], "tile that drops to ballots");
        // A one-key `find` never broadcasts: a miss on the 3-slab chain
        // charges 3 slab reads, and a match and an EMPTY ballot per slab.
        let got = charge(90, &|t, w| assert_eq!(t.find(w, 1000), None));
        assert_eq!(got, [3, 6, 0], "one-key find");
    }

    /// A walk needs no next-pointer re-read. A `ChainWalk`, driven by hand
    /// under an allocator pin, reads the base slab of a 3-slab chain;
    /// another host thread then cuts the chain with `free_dynamic_slabs`;
    /// the walk follows the link it read onto the quarantined slabs and
    /// returns exactly the keys the chain held before the cut.
    ///
    /// The sanitizer finds no use-after-free and no uninitialized read:
    /// the pin covers the quarantined slabs. Its one finding kind is the
    /// cut's plain store resetting the base slab under the running
    /// reader, a read-write race on the base slab's words: the in-place
    /// rewrite class of ROADMAP item 1, allowed here by kind and address.
    #[test]
    fn a_walk_finishes_on_the_chain_it_entered() {
        use gpu_sim::{DeviceConfig, FindingKind, SanitizerConfig};
        let dev = Device::with_config(
            DeviceConfig::new(1 << 18).with_sanitizer(SanitizerConfig::default()),
        );
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Set, 1);
        let n = 2 * SET_SLAB_KEYS as u32 + 5;
        on_warp(&dev, |warp| {
            for k in 0..n {
                t.insert(warp, &alloc, k, 0, true).unwrap();
            }
            assert_eq!(t.stats(warp).slabs, 3);
        });
        let pin = alloc.pin(&dev);
        let (read_base, cut) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let keys = std::thread::scope(|s| {
            s.spawn(|| {
                read_base.wait();
                dev.launch_warps("chain_cut", 1, |warp| {
                    t.free_dynamic_slabs(warp, &alloc).unwrap();
                });
                cut.wait();
            });
            on_warp(&dev, |warp| {
                let mut walk = ChainWalk::new(warp, t.kind, t.bucket_addr(0));
                let mut keys = Vec::new();
                loop {
                    let words = walk.read().expect("no claim races the walk");
                    let view = SlabView {
                        addr: walk.addr,
                        words,
                        kind: t.kind,
                    };
                    keys.extend(view.keys());
                    if walk.depth == 1 {
                        read_base.wait();
                        cut.wait();
                    }
                    if !walk.advance(&words) {
                        return (keys, walk.depth);
                    }
                }
            })
        });
        drop(pin);
        assert_eq!(keys, ((0..n).collect::<Vec<_>>(), 3));
        assert_eq!(alloc.live_slabs(), 0, "the cut freed both collision slabs");
        let base = t.bucket_addr(0)..t.bucket_addr(0) + SLAB_WORDS as u32;
        let findings = dev.sanitizer_findings();
        assert!(
            findings
                .iter()
                .all(|f| f.kind == FindingKind::RaceReadWrite && base.contains(&f.addr)),
            "{findings:?}"
        );
        assert!(!findings.is_empty(), "racecheck sees the base reset");
    }

    #[test]
    fn concurrent_deletes_count_once() {
        use gpu_sim::ExecPolicy;
        let dev = Device::with_policy(1 << 20, ExecPolicy::Threaded(4));
        let alloc = SlabAllocator::new(&dev, 1024);
        let t = TableDesc::create(&dev, TableKind::Set, 4);
        dev.launch_warps("hash_test", 1, |warp| {
            for k in 0..64 {
                t.insert(warp, &alloc, k, 0, true).unwrap();
            }
        });
        let deleted = std::sync::atomic::AtomicU32::new(0);
        dev.launch_warps("hash_test", 16, |warp| {
            for k in 0..64 {
                if t.delete(warp, k) {
                    deleted.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                }
            }
        });
        assert_eq!(
            deleted.load(std::sync::atomic::Ordering::Acquire),
            64,
            "each key deleted exactly once across 16 racing warps"
        );
    }

    /// A key no `op_charges` table holds.
    const NEW_KEY: u32 = 1000;

    /// Charges of `op` alone, in its own one-warp launch, on a fresh
    /// one-bucket table whose chain is `depth` slabs long. `op` gets the
    /// last key stored, which sits alone in the tail slab.
    fn op_charges(
        kind: TableKind,
        depth: usize,
        op: impl Fn(&TableDesc, &Warp, &SlabAllocator, u32) + Sync,
    ) -> gpu_sim::CounterSnapshot {
        let (dev, alloc, t) = setup(kind, 1);
        let n = (kind.slab_capacity() * (depth - 1) + 1) as u32;
        on_warp(&dev, |warp| {
            for k in 0..n {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
            assert_eq!(t.stats(warp).max_chain, depth as u64);
        });
        let before = dev.counters().snapshot();
        on_warp(&dev, |warp| op(&t, warp, &alloc, n - 1));
        dev.counters().snapshot().delta(&before)
    }

    /// Every op's exact modeled charges — transactions, atomics, ballots —
    /// on a one-bucket table at chain depth 1 and 3. Every walk charges
    /// one read per slab: L transactions on an L-slab chain, for writers,
    /// readers and `delete` alike.
    #[test]
    fn op_charges_are_pinned() {
        type Op = fn(&TableDesc, &Warp, &SlabAllocator, u32);
        let ops: [(&str, Op); 9] = [
            ("insert-new", |t, w, a, _| {
                assert!(t.insert(w, a, NEW_KEY, 7, true).unwrap())
            }),
            ("insert-existing", |t, w, a, last| {
                assert!(!t.insert(w, a, last, 7, true).unwrap())
            }),
            // `op_charges` stores every key with itself as its value.
            ("insert-same-value", |t, w, a, last| {
                assert!(!t.insert(w, a, last, last, true).unwrap())
            }),
            ("find-hit", |t, w, _, last| {
                assert!(t.find(w, last).is_some())
            }),
            ("find-miss", |t, w, _, _| {
                assert!(t.find(w, NEW_KEY).is_none())
            }),
            ("delete-hit", |t, w, _, last| assert!(t.delete(w, last))),
            ("delete-miss", |t, w, _, _| assert!(!t.delete(w, NEW_KEY))),
            ("for_each_entry", |t, w, _, _| {
                t.for_each_entry(w, |_, _| {})
            }),
            ("stats", |t, w, _, _| {
                t.stats(w);
            }),
        ];
        // [transactions, atomics, ballots] per op, in `ops` order.
        let expected: [(TableKind, usize, [[u64; 3]; 9]); 4] = [
            (
                TableKind::Map,
                1,
                [
                    [1, 1, 2],
                    [1, 1, 1],
                    [1, 0, 1],
                    [1, 0, 1],
                    [1, 0, 2],
                    [1, 1, 1],
                    [1, 0, 2],
                    [1, 0, 0],
                    [1, 0, 0],
                ],
            ),
            (
                TableKind::Map,
                3,
                [
                    [3, 1, 6],
                    [3, 1, 5],
                    [3, 0, 5],
                    [3, 0, 5],
                    [3, 0, 6],
                    [3, 1, 5],
                    [3, 0, 6],
                    [3, 0, 0],
                    [3, 0, 0],
                ],
            ),
            (
                TableKind::Set,
                1,
                [
                    [1, 1, 2],
                    [1, 0, 1],
                    [1, 0, 1],
                    [1, 0, 1],
                    [1, 0, 2],
                    [1, 1, 1],
                    [1, 0, 2],
                    [1, 0, 0],
                    [1, 0, 0],
                ],
            ),
            (
                TableKind::Set,
                3,
                [
                    [3, 1, 6],
                    [3, 0, 5],
                    [3, 0, 5],
                    [3, 0, 5],
                    [3, 0, 6],
                    [3, 1, 5],
                    [3, 0, 6],
                    [3, 0, 0],
                    [3, 0, 0],
                ],
            ),
        ];
        for (kind, depth, charges) in expected {
            for ((name, op), [transactions, atomics, ballots]) in ops.into_iter().zip(charges) {
                assert_eq!(
                    op_charges(kind, depth, op),
                    gpu_sim::CounterSnapshot {
                        transactions,
                        atomics,
                        ballots,
                        launches: 1,
                        warps: 1,
                        ..Default::default()
                    },
                    "{kind:?} at depth {depth}: {name}"
                );
            }
        }
    }

    /// A new key's exact charges on a one-bucket chain of 3 slabs whose
    /// first key was deleted: the walk reads every slab and ballots for
    /// the key on each, but for a free slot only until it sees one. With
    /// reuse the tombstone on the base slab is free; without, only the
    /// tail's EMPTY slots are.
    #[test]
    fn insert_over_a_tombstone_charges_are_pinned() {
        for kind in [TableKind::Map, TableKind::Set] {
            for (reuse, ballots, tombstones) in [(true, 4, 0), (false, 6, 1)] {
                let charges = op_charges(kind, 3, |t, w, a, _| {
                    w.uncharged(|w| assert!(t.delete(w, 0)));
                    assert!(t.insert(w, a, NEW_KEY, 7, reuse).unwrap());
                    w.uncharged(|w| assert_eq!(t.stats(w).tombstones, tombstones));
                });
                assert_eq!(
                    charges,
                    gpu_sim::CounterSnapshot {
                        transactions: 3,
                        atomics: 1,
                        ballots,
                        launches: 1,
                        warps: 1,
                        ..Default::default()
                    },
                    "{kind:?}, reuse {reuse}"
                );
            }
        }
    }

    /// A group of k new keys on a one-bucket set chain of 3 slabs whose
    /// tail holds one key walks the chain once: 3 reads, not 3k; one key
    /// ballot per key per slab; a free-slot ballot on each full slab and
    /// on the tail, where the 29 free slots take every key; one claim per
    /// key. k one-key inserts pay the whole walk k times.
    #[test]
    fn a_group_walks_its_chain_once() {
        for k in 1..=29u32 {
            let keys = Lanes::from_fn(|i| NEW_KEY + i as u32);
            let group = gpu_sim::FULL_MASK >> (32 - k);
            let grouped = op_charges(TableKind::Set, 3, |t, w, a, _| {
                let done = t.insert_lanes(w, a, &keys, &keys, group, true);
                assert_eq!((done.added, done.applied, done.error), (group, group, None));
            });
            let one_by_one = op_charges(TableKind::Set, 3, |t, w, a, _| {
                for lane in iter_bits(group) {
                    assert!(t.insert(w, a, keys.get(lane as usize), 0, true).unwrap());
                }
            });
            let k = u64::from(k);
            let charges = |c: gpu_sim::CounterSnapshot| [c.transactions, c.atomics, c.ballots];
            assert_eq!(charges(grouped), [3, k, 3 * k + 3], "k = {k}");
            assert_eq!(charges(one_by_one), [3 * k, k, 6 * k], "k = {k}");
        }
    }

    /// Groups that outgrow their chain: 32 new keys on a one-bucket map
    /// chain of 2 slabs whose tail holds one key claim its 14 free slots,
    /// then grow the chain by a slab for the next 15 and by another for
    /// the last 3, reading each new slab once; a group of 8 more then
    /// fits the new tail.
    #[test]
    fn a_group_grows_its_chain_once_per_slab() {
        let keys = Lanes::from_fn(|i| NEW_KEY + i as u32);
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        on_warp(&dev, |warp| {
            for k in 0..16 {
                t.insert(warp, &alloc, k, k, true).unwrap();
            }
        });
        let slabs = alloc.live_slabs();
        let before = dev.counters().snapshot();
        let done = on_warp(&dev, |warp| {
            let low = t.insert_lanes(warp, &alloc, &keys, &keys, gpu_sim::FULL_MASK, true);
            let more = Lanes::from_fn(|i| NEW_KEY + 32 + i as u32);
            let high = t.insert_lanes(warp, &alloc, &more, &more, 0xFF, true);
            (low, high)
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(done.0.added, gpu_sim::FULL_MASK);
        assert_eq!(done.1.added, 0xFF);
        assert_eq!(alloc.live_slabs() - slabs, 2, "two slabs grown");
        // Slab reads: the first group's 2-slab walk and its two new slabs,
        // the second group's 4-slab walk. Each allocation reads a bitmap
        // line and EMPTY-fills the slab (2 transactions) with one
        // `atomicOr`, and its link is one CAS; each key is one claim.
        assert_eq!(d.transactions, (2 + 2 + 4) + 2 * 2);
        assert_eq!(d.atomics, 40 + 2 * 2);
        on_warp(&dev, |warp| {
            assert_eq!(t.stats(warp).live_keys, 16 + 40);
            for k in (0..16).chain(NEW_KEY..NEW_KEY + 40) {
                assert!(t.find(warp, k).is_some(), "key {k}");
            }
        });
    }

    /// `compact`'s exact charges on a one-bucket table whose chain is
    /// `depth` slabs long, after deleting its first `deleted` keys: one
    /// read and one live-lane ballot per slab plus an EMPTY ballot on the
    /// tail; per slab written a shuffle and a store; an atomic per freed
    /// slab. A chain without tombstones is only read.
    #[test]
    fn compact_charges_are_pinned() {
        // (kind, depth, deleted, [transactions, atomics, ballots, shuffles]).
        let cases: [(TableKind, usize, u32, [u64; 4]); 10] = [
            (TableKind::Map, 1, 0, [1, 0, 2, 0]),
            (TableKind::Map, 1, 1, [2, 0, 2, 1]),
            (TableKind::Map, 3, 0, [3, 0, 4, 0]),
            (TableKind::Map, 3, 1, [5, 1, 4, 2]),
            (TableKind::Map, 3, 16, [4, 2, 4, 1]),
            (TableKind::Set, 1, 0, [1, 0, 2, 0]),
            (TableKind::Set, 1, 1, [2, 0, 2, 1]),
            (TableKind::Set, 3, 0, [3, 0, 4, 0]),
            (TableKind::Set, 3, 1, [5, 1, 4, 2]),
            (TableKind::Set, 3, 31, [4, 2, 4, 1]),
        ];
        for (kind, depth, deleted, [transactions, atomics, ballots, shuffles]) in cases {
            let charges = op_charges(kind, depth, |t, w, a, _| {
                for k in 0..deleted {
                    w.uncharged(|w| assert!(t.delete(w, k)));
                }
                assert_eq!(t.compact(w, a).unwrap(), u64::from(deleted));
            });
            assert_eq!(
                charges,
                gpu_sim::CounterSnapshot {
                    transactions,
                    atomics,
                    ballots,
                    shuffles,
                    launches: 1,
                    warps: 1,
                    ..Default::default()
                },
                "{kind:?} at depth {depth}, {deleted} deleted"
            );
        }
    }

    /// A bucket's live ⟨key, value⟩ sequence, in chain order, and its
    /// chain's slabs.
    type Chain = (Vec<(u32, u32)>, Vec<SlabView>);

    /// Every bucket's [`Chain`].
    fn chains(t: &TableDesc, warp: &Warp) -> Vec<Chain> {
        let mut out = Vec::new();
        t.for_each_chain(warp, |chain| {
            let live = chain.iter().flat_map(|view| view.entries()).collect();
            out.push((live, chain.to_vec()));
        });
        out
    }

    #[test]
    fn compact_packs_each_chain_densely_in_chain_order() {
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = setup(kind, 4);
            on_warp(&dev, |warp| {
                for k in 0..400u32 {
                    t.insert(warp, &alloc, k, 5 * k + 1, true).unwrap();
                }
                // Every third key, and a long run that empties whole slabs.
                for k in (0..400u32).filter(|k| k % 3 == 0 || (100..220).contains(k)) {
                    assert!(t.delete(warp, k));
                }
                let before_stats = t.stats(warp);
                let before = chains(&t, warp);
                assert!(before_stats.max_chain >= 3, "{before_stats:?}");
                let slabs_before = alloc.live_slabs();

                assert_eq!(t.compact(warp, &alloc).unwrap(), before_stats.tombstones);
                let after = chains(&t, warp);
                let bc = kind.slab_capacity();
                let mut freed = 0;
                for (b, ((live, old), (live_after, chain))) in before.iter().zip(&after).enumerate()
                {
                    let ctx = format!("{kind:?} bucket {b}");
                    assert_eq!(live_after, live, "{ctx}: live sequence changed");
                    assert_eq!(chain.len(), live.len().div_ceil(bc).max(1), "{ctx}");
                    assert_eq!(chain[0].addr, old[0].addr, "{ctx}: base slab kept");
                    for (i, view) in chain.iter().enumerate() {
                        let slots: Vec<u32> = (0..WARP_SIZE)
                            .filter(|l| kind.key_lanes() & (1 << l) != 0)
                            .map(|l| view.words.get(l))
                            .collect();
                        assert!(!slots.contains(&TOMBSTONE_KEY), "{ctx}: tombstone left");
                        let empties = slots.iter().filter(|&&w| w == EMPTY_KEY).count();
                        if i + 1 < chain.len() {
                            assert_eq!(empties, 0, "{ctx}: empty before the tail");
                        } else {
                            assert_eq!(empties, bc * chain.len() - live.len(), "{ctx}");
                        }
                    }
                    freed += (old.len() - chain.len()) as u64;
                }
                assert_eq!(alloc.live_slabs(), slabs_before - freed);
                let s = t.stats(warp);
                assert_eq!((s.tombstones, s.live_keys), (0, before_stats.live_keys));

                // A second pass finds nothing to do and writes nothing.
                let counters = dev.counters().snapshot();
                assert_eq!(t.compact(warp, &alloc).unwrap(), 0);
                let d = dev.counters().snapshot().delta(&counters);
                assert_eq!((d.transactions, d.atomics), (s.slabs, 0), "{kind:?}");
            });
        }
    }

    #[test]
    fn compacting_an_all_deleted_chain_leaves_an_empty_base_slab() {
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = setup(kind, 1);
            on_warp(&dev, |warp| {
                let n = 2 * kind.slab_capacity() as u32 + 5;
                for k in 0..n {
                    t.insert(warp, &alloc, k, k, true).unwrap();
                }
                for k in 0..n {
                    assert!(t.delete(warp, k));
                }
                assert_eq!(alloc.live_slabs(), 2);
                assert_eq!(t.compact(warp, &alloc).unwrap(), u64::from(n));
                assert_eq!(
                    alloc.live_slabs(),
                    0,
                    "{kind:?}: both collision slabs freed"
                );
                let base = warp.read_slab(t.bucket_addr(0));
                for lane in 0..WARP_SIZE {
                    let want = if lane == NEXT_LANE {
                        NULL_ADDR
                    } else {
                        EMPTY_KEY
                    };
                    assert_eq!(base.get(lane), want, "{kind:?} lane {lane}");
                }
                assert!(t.insert(warp, &alloc, 7, 70, true).unwrap(), "reusable");
                assert_eq!(
                    t.find(warp, 7),
                    Some(if kind == TableKind::Map { 70 } else { 0 })
                );
            });
        }
    }

    #[test]
    fn fill_writes_dense_chains_per_home_bucket() {
        for kind in [TableKind::Map, TableKind::Set] {
            let (dev, alloc, t) = setup(kind, 3);
            let entries: Vec<(u32, u32)> = (0..100u32)
                .map(|k| (k * 7, if kind == TableKind::Map { k } else { 0 }))
                .collect();
            on_warp(&dev, |warp| {
                t.fill(warp, &alloc, &entries).unwrap();
                let bc = kind.slab_capacity();
                let mut slabs = 0;
                for (b, (live, chain)) in chains(&t, warp).into_iter().enumerate() {
                    let want: Vec<(u32, u32)> = entries
                        .iter()
                        .copied()
                        .filter(|&(k, _)| bucket_of(k, 3) == b as u32)
                        .collect();
                    assert_eq!(live, want, "{kind:?} bucket {b}");
                    assert_eq!(chain.len(), want.len().div_ceil(bc).max(1));
                    slabs += chain.len() as u64 - 1;
                }
                assert_eq!(alloc.live_slabs(), slabs);
                for &(k, v) in &entries {
                    assert_eq!(t.find(warp, k), Some(v));
                }
            });
        }
    }

    #[test]
    fn fill_allocates_before_any_store() {
        let (dev, alloc, t) = setup(TableKind::Map, 1);
        // 40 entries in one bucket need two overflow slabs; the second
        // allocation fails.
        let entries: Vec<(u32, u32)> = (0..40).map(|k| (k, k + 1)).collect();
        dev.set_fault_plan(gpu_sim::FaultPlan::fail_nth(2));
        on_warp(&dev, |warp| {
            assert!(t.fill(warp, &alloc, &entries).is_err());
            assert_eq!(alloc.live_slabs(), 0, "the first slab went back");
            assert_eq!(
                warp.read_slab(t.bucket_addr(0)),
                Lanes::splat(EMPTY_KEY),
                "base untouched"
            );
        });
        dev.clear_fault_plan();
        on_warp(&dev, |warp| {
            t.fill(warp, &alloc, &entries).unwrap();
            assert_eq!(t.find(warp, 39), Some(40));
        });
        assert_eq!(alloc.live_slabs(), 2);
    }
}
