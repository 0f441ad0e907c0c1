//! faimGraph workalike (Winter et al., "faimGraph: High performance
//! management of fully-dynamic graphs under tight memory constraints on
//! the GPU", SC 2018).
//!
//! Adjacency lists are singly linked chains of fixed-size **pages** (128
//! bytes here, matching the paper's benchmark configuration), drawn from a
//! single device-side memory pool with a free-page queue. Deleted vertex
//! ids go into a reuse queue (the feature the paper notes our structure
//! lacks). Duplicate checking on insertion **traverses the page chain** —
//! an O(degree) scan per inserted edge, which is exactly the cost the
//! hash-based structure beats (Tables II–IV).

use gpu_sim::{Addr, Device, Lanes, Warp, NULL_ADDR, SLAB_WORDS};
use parking_lot::Mutex;

/// Destination slots per page (31 dsts + 1 next pointer = 32 words).
pub const PAGE_SLOTS: u32 = 31;
const NEXT_WORD: u32 = 31;
const EMPTY: u32 = u32::MAX;
/// A fresh page: every slot empty, no next page.
const EMPTY_PAGE: [u32; SLAB_WORDS] = {
    let mut page = [EMPTY; SLAB_WORDS];
    page[NEXT_WORD as usize] = NULL_ADDR;
    page
};

/// Per-vertex metadata layout in device memory: [head_page, degree, lock].
const META_WORDS: u32 = 3;
/// Offset of the per-vertex spin-lock word inside the metadata record.
const LOCK_WORD: u32 = 2;

/// The faimGraph-style dynamic graph store.
pub struct FaimGraph {
    dev: Device,
    n_vertices: u32,
    /// Device address of the per-vertex metadata array.
    meta: Addr,
    /// Free-page queue. The list itself is host-side bookkeeping, but every
    /// push/pop performs a real atomic on [`Self::qsync`] — the device
    /// queue's ticket counter — so page recycling is release/acquire
    /// ordered on the device, not smuggled through the host mutex.
    page_queue: Mutex<Vec<Addr>>,
    /// Device word backing the free-page queue's ticket atomic.
    qsync: Addr,
    /// Reusable vertex ids from deleted vertices.
    free_ids: Mutex<Vec<u32>>,
}

impl FaimGraph {
    /// An empty graph over `n_vertices`, each with one pre-linked page
    /// (faimGraph gives every vertex an initial page in its memory pool).
    pub fn new(n_vertices: u32, device_words: usize) -> Self {
        let dev = Device::new(device_words);
        let meta = dev.alloc_words((n_vertices * META_WORDS) as usize, SLAB_WORDS);
        let qsync = dev.alloc_words(1, 1);
        dev.host_write(qsync, &[0]);
        let g = FaimGraph {
            dev,
            n_vertices,
            meta,
            page_queue: Mutex::new(Vec::new()),
            qsync,
            free_ids: Mutex::new(Vec::new()),
        };
        let meta: Vec<u32> = (0..n_vertices)
            .flat_map(|_| [g.fresh_page_host(), 0, 0])
            .collect();
        g.dev.host_write(g.meta, &meta);
        g
    }

    /// Build from an edge list (host-side dedup, charged page writes) —
    /// initialisation path, not the measured update path.
    pub fn build(n_vertices: u32, edges: &[(u32, u32)], device_words: usize) -> Self {
        let g = Self::new(n_vertices, device_words);
        let _phase = g.dev.phase("bulk_build");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_vertices as usize];
        for &(u, v) in edges {
            if u != v && u < n_vertices && v < n_vertices && !adj[u as usize].contains(&v) {
                adj[u as usize].push(v);
            }
        }
        for (u, list) in adj.iter().enumerate() {
            g.write_list_host(u as u32, list);
        }
        g
    }

    fn fresh_page_host(&self) -> Addr {
        let page = self.dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        self.dev.host_write(page, &EMPTY_PAGE);
        page
    }

    /// Acquire `u`'s per-vertex spin lock — faimGraph's per-update mutual
    /// exclusion (one worker owns a vertex's list while updating it). The
    /// CAS is attempt-wrapped: the sequential executor never observes a
    /// held lock, so exactly one atomic is charged; the threaded executor
    /// really spins and really excludes.
    fn lock_vertex(&self, warp: &Warp, u: u32) {
        let lock = self.meta + u * META_WORDS + LOCK_WORD;
        loop {
            warp.begin_attempt();
            if warp.atomic_cas(lock, 0, 1).is_ok() {
                warp.commit_attempt();
                return;
            }
            warp.abort_attempt();
            std::hint::spin_loop();
        }
    }

    /// Release `u`'s spin lock (one atomic; release-publishes the list
    /// updates made under the lock).
    fn unlock_vertex(&self, warp: &Warp, u: u32) {
        warp.atomic_exchange(self.meta + u * META_WORDS + LOCK_WORD, 0);
    }

    /// Pop a page from the free queue or carve a new one. The queue ticket
    /// is a real device atomic on [`Self::qsync`] (1 atomic, like the
    /// device queue's ticket counter), which also acquire-orders this warp
    /// after whoever freed the recycled page.
    fn alloc_page(&self, warp: &Warp) -> Addr {
        warp.atomic_add(self.qsync, 1);
        let recycled = self.page_queue.lock().pop();
        let p = recycled.unwrap_or_else(|| self.dev.alloc_words(SLAB_WORDS, SLAB_WORDS));
        // (Re-)initialise the page (charged write).
        warp.write_slab(p, &Lanes(EMPTY_PAGE));
        p
    }

    fn free_page(&self, warp: &Warp, page: Addr) {
        warp.atomic_add(self.qsync, 1);
        self.page_queue.lock().push(page);
    }

    fn write_list_host(&self, u: u32, dsts: &[u32]) {
        let mut page = self.meta_host(u, 0);
        for (i, chunk) in dsts.chunks(PAGE_SLOTS as usize).enumerate() {
            if i > 0 {
                let next = self.fresh_page_host();
                self.dev.host_write(page + NEXT_WORD, &[next]);
                page = next;
            }
            self.dev.host_write(page, chunk);
        }
        self.dev
            .host_write(self.meta + u * META_WORDS + 1, &[dsts.len() as u32]);
        self.dev
            .charge("faim_build")
            .add_transactions((dsts.len() as u64).div_ceil(PAGE_SLOTS as u64).max(1));
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    pub fn num_vertices(&self) -> u32 {
        self.n_vertices
    }

    pub fn degree(&self, u: u32) -> u32 {
        self.meta_host(u, 1)
    }

    /// Host read of word `word` of `u`'s metadata record.
    fn meta_host(&self, u: u32, word: u32) -> u32 {
        let mut w = [0];
        self.dev
            .host_read(self.meta + u * META_WORDS + word, &mut w);
        w[0]
    }

    pub fn num_edges(&self) -> u64 {
        (0..self.n_vertices).map(|v| self.degree(v) as u64).sum()
    }

    /// Read `u`'s adjacency (charged page-chain walk). Part of whatever
    /// kernel the caller is running — no launch is charged here.
    pub fn read_adjacency(&self, u: u32) -> Vec<u32> {
        self.dev.unlaunched_scope("faim_read_adj", || {
            let out = Mutex::new(Vec::new());
            self.dev.launch_warps("faim_read_adj", 1, |warp| {
                let mut local = Vec::new();
                let deg = warp.read_word(self.meta + u * META_WORDS + 1);
                let mut page = warp.read_word(self.meta + u * META_WORDS);
                let mut remaining = deg;
                while page != NULL_ADDR && remaining > 0 {
                    let words = warp.read_slab(page);
                    for i in 0..PAGE_SLOTS.min(remaining) {
                        local.push(words.get(i as usize));
                    }
                    remaining = remaining.saturating_sub(PAGE_SLOTS);
                    page = words.get(NEXT_WORD as usize);
                }
                *out.lock() = local;
            });
            out.into_inner()
        })
    }

    /// Batched edge insertion. Each edge's duplicate check traverses the
    /// source's page chain (the O(degree) cost of list-based structures);
    /// the edge is appended at position `degree`, allocating a page when
    /// the tail fills. Returns the number of edges actually added.
    pub fn insert_batch(&self, edges: &[(u32, u32)]) -> u64 {
        let added = std::sync::atomic::AtomicU64::new(0);
        let work: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && u < self.n_vertices && v < self.n_vertices)
            .collect();
        let srcs: Vec<u32> = work.iter().map(|e| e.0).collect();
        let dsts: Vec<u32> = work.iter().map(|e| e.1).collect();
        let src_buf = self.dev.upload(&srcs, 0);
        let dst_buf = self.dev.upload(&dsts, 0);
        self.dev
            .launch_tasks("faim_edge_insert", work.len(), |warp| {
                let base = warp.warp_id() * 32;
                let s = warp.read_slab(src_buf + base);
                let d = warp.read_slab(dst_buf + base);
                for lane in 0..32usize {
                    if !warp.is_active(lane) {
                        continue;
                    }
                    if self.insert_one(warp, s.get(lane), d.get(lane)) {
                        added.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    }
                }
            });
        added.into_inner()
    }

    /// Traverse + append one edge. faimGraph processes each update with a
    /// single worker thread walking the page chain element by element, so
    /// the duplicate check is charged per *element* touched (uncoalesced
    /// 4-byte loads each occupy a transaction slot), plus the per-update
    /// lock acquire/release atomics.
    fn insert_one(&self, warp: &Warp, u: u32, v: u32) -> bool {
        self.lock_vertex(warp, u);
        let r = self.insert_one_locked(warp, u, v);
        self.unlock_vertex(warp, u);
        r
    }

    fn insert_one_locked(&self, warp: &Warp, u: u32, v: u32) -> bool {
        let deg = warp.read_word(self.meta + u * META_WORDS + 1);
        let head = warp.read_word(self.meta + u * META_WORDS);
        // Duplicate check: full chain traversal.
        let mut page = head;
        let mut tail = head;
        let mut remaining = deg;
        while page != NULL_ADDR {
            let words = warp.read_slab(page);
            let count = PAGE_SLOTS.min(remaining);
            // Thread-serial element scan over AoS ⟨dst, weight⟩ pairs:
            // each element is an uncoalesced load (2 words per element,
            // beyond the page fetch itself).
            self.dev
                .charge("faim_edge_insert")
                .add_transactions(2 * count.max(1) as u64 - 1);
            for i in 0..count {
                if words.get(i as usize) == v {
                    return false;
                }
            }
            remaining -= count;
            tail = page;
            page = words.get(NEXT_WORD as usize);
            if page == NULL_ADDR || remaining == 0 && !deg.is_multiple_of(PAGE_SLOTS) {
                break;
            }
        }
        // Append at position `deg`.
        let slot = deg % PAGE_SLOTS;
        if deg > 0 && slot == 0 {
            let fresh = self.alloc_page(warp);
            warp.write_word(tail + NEXT_WORD, fresh);
            tail = fresh;
        }
        warp.write_word(tail + slot, v);
        // AoS edge data: the weight word is written alongside the dst.
        self.dev.charge("faim_edge_insert").add_transactions(1);
        warp.write_word(self.meta + u * META_WORDS + 1, deg + 1);
        true
    }

    /// Batched edge deletion: traverse to find the edge, fill the hole
    /// with the last element, shrink. Returns edges removed.
    pub fn delete_batch(&self, edges: &[(u32, u32)]) -> u64 {
        let removed = std::sync::atomic::AtomicU64::new(0);
        let work: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(u, _)| u < self.n_vertices)
            .collect();
        self.dev
            .launch_tasks("faim_edge_delete", work.len(), |warp| {
                let base = (warp.warp_id() * 32) as usize;
                for lane in 0..32usize {
                    if !warp.is_active(lane) {
                        continue;
                    }
                    let (u, v) = work[base + lane];
                    if self.delete_one(warp, u, v) {
                        removed.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    }
                }
            });
        removed.into_inner()
    }

    fn delete_one(&self, warp: &Warp, u: u32, v: u32) -> bool {
        self.lock_vertex(warp, u);
        let r = self.delete_one_locked(warp, u, v);
        self.unlock_vertex(warp, u);
        r
    }

    fn delete_one_locked(&self, warp: &Warp, u: u32, v: u32) -> bool {
        let deg = warp.read_word(self.meta + u * META_WORDS + 1);
        if deg == 0 {
            return false;
        }
        let head = warp.read_word(self.meta + u * META_WORDS);
        // Locate v and the last element's page in one traversal.
        let mut page = head;
        let mut found: Option<Addr> = None;
        let mut idx = 0u32;
        let mut last_page = head;
        while page != NULL_ADDR && idx < deg {
            let words = warp.read_slab(page);
            let count = PAGE_SLOTS.min(deg - idx);
            self.dev
                .charge("faim_edge_delete")
                .add_transactions(count.max(1) as u64 - 1);
            for i in 0..count {
                if words.get(i as usize) == v && found.is_none() {
                    found = Some(page + i);
                }
            }
            idx += count;
            last_page = page;
            page = words.get(NEXT_WORD as usize);
        }
        let Some(hole) = found else {
            return false;
        };
        // Move the last element into the hole, shrink the list.
        let last_slot = (deg - 1) % PAGE_SLOTS;
        let last_addr = last_page + last_slot;
        if last_addr != hole {
            let moved = warp.read_word(last_addr);
            warp.write_word(hole, moved);
        }
        warp.write_word(last_addr, EMPTY);
        // Free the tail page if it emptied (and it is not the head page).
        if last_slot == 0 && deg > 1 && last_page != head {
            // Find the new tail's predecessor to cut the link.
            let mut p = head;
            loop {
                let words = warp.read_slab(p);
                let next = words.get(NEXT_WORD as usize);
                if next == last_page {
                    warp.write_word(p + NEXT_WORD, NULL_ADDR);
                    break;
                }
                p = next;
            }
            self.free_page(warp, last_page);
        }
        warp.write_word(self.meta + u * META_WORDS + 1, deg - 1);
        true
    }

    /// Batched vertex deletion: remove each victim from every neighbour's
    /// list (O(degree) traversal per neighbour — the cost Table IV
    /// measures), free its pages to the queue, and recycle its id.
    pub fn delete_vertices(&self, vertices: &[u32]) {
        self.dev
            .launch_warps("faim_vertex_delete", vertices.len().min(128), |warp| {
                // Work queue like Algorithm 2 (shared across warps via the
                // host-side iteration order under the sequential executor).
                for (i, &victim) in vertices.iter().enumerate() {
                    if i % 128 != warp.warp_id() as usize % 128 && vertices.len().min(128) > 1 {
                        continue;
                    }
                    // Snapshot the victim's neighbours under its own lock
                    // — another warp may concurrently be editing this list
                    // (e.g. removing *its* victim from it).
                    self.lock_vertex(warp, victim);
                    let neighbors = {
                        let deg = warp.read_word(self.meta + victim * META_WORDS + 1);
                        let mut page = warp.read_word(self.meta + victim * META_WORDS);
                        let mut out = Vec::new();
                        let mut remaining = deg;
                        while page != NULL_ADDR && remaining > 0 {
                            let words = warp.read_slab(page);
                            for k in 0..PAGE_SLOTS.min(remaining) {
                                out.push(words.get(k as usize));
                            }
                            remaining = remaining.saturating_sub(PAGE_SLOTS);
                            page = words.get(NEXT_WORD as usize);
                        }
                        out
                    };
                    self.unlock_vertex(warp, victim);
                    // Each neighbour edit takes that neighbour's lock; no
                    // lock is ever held across another acquisition, so the
                    // discipline is deadlock-free.
                    for n in neighbors {
                        if n != victim && n < self.n_vertices {
                            self.delete_one(warp, n, victim);
                        }
                    }
                    // Re-acquire the victim to tear down its chain: free
                    // all pages except the head (which stays, emptied).
                    self.lock_vertex(warp, victim);
                    let head = warp.read_word(self.meta + victim * META_WORDS);
                    let mut page = warp.read_slab(head).get(NEXT_WORD as usize);
                    while page != NULL_ADDR {
                        let next = warp.read_slab(page).get(NEXT_WORD as usize);
                        self.free_page(warp, page);
                        page = next;
                    }
                    warp.write_slab(head, &{
                        let mut init = Lanes::splat(EMPTY);
                        init.set(NEXT_WORD as usize, NULL_ADDR);
                        init
                    });
                    warp.write_word(self.meta + victim * META_WORDS + 1, 0);
                    self.unlock_vertex(warp, victim);
                    self.free_ids.lock().push(victim);
                }
            });
    }

    /// Ids available for reuse after vertex deletion (the memory-
    /// efficiency feature the paper credits faimGraph with).
    pub fn reusable_ids(&self) -> Vec<u32> {
        self.free_ids.lock().clone()
    }

    /// Sort every adjacency list with faimGraph's own per-list sort
    /// (Table VIII's right column; Σ deg² cost).
    pub fn sort_adjacencies(&self) {
        self.dev.fused_scope("faim_sort", || {
            let mut lists: Vec<Vec<u32>> = (0..self.n_vertices)
                .map(|u| self.read_adjacency(u))
                .collect();
            crate::sort::faimgraph_adjacency_sort(&self.dev, &mut lists);
            for (u, list) in lists.iter().enumerate() {
                self.write_list_host(u as u32, list);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read() {
        let g = FaimGraph::new(8, 1 << 18);
        assert_eq!(g.insert_batch(&[(0, 1), (0, 2), (0, 1), (3, 3)]), 2);
        assert_eq!(g.degree(0), 2);
        let mut a = g.read_adjacency(0);
        a.sort_unstable();
        assert_eq!(a, vec![1, 2]);
        assert_eq!(g.degree(3), 0, "self-loop rejected");
    }

    #[test]
    fn chains_pages_past_31_edges() {
        let g = FaimGraph::new(128, 1 << 18);
        let batch: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        assert_eq!(g.insert_batch(&batch), 99);
        assert_eq!(g.degree(0), 99);
        let mut a = g.read_adjacency(0);
        a.sort_unstable();
        assert_eq!(a, (1..100).collect::<Vec<u32>>());
    }

    #[test]
    fn delete_swaps_last_into_hole() {
        let g = FaimGraph::new(8, 1 << 18);
        g.insert_batch(&[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.delete_batch(&[(0, 2)]), 1);
        let mut a = g.read_adjacency(0);
        a.sort_unstable();
        assert_eq!(a, vec![1, 3]);
        assert_eq!(g.delete_batch(&[(0, 9)]), 0, "miss");
    }

    #[test]
    fn delete_frees_emptied_tail_pages() {
        let g = FaimGraph::new(128, 1 << 18);
        let batch: Vec<(u32, u32)> = (1..=62).map(|v| (0, v)).collect();
        g.insert_batch(&batch); // exactly 2 pages
        let del: Vec<(u32, u32)> = (32..=62).map(|v| (0, v)).collect();
        g.delete_batch(&del);
        assert_eq!(g.degree(0), 31);
        assert!(
            !g.page_queue.lock().is_empty(),
            "tail page returned to queue"
        );
    }

    #[test]
    fn vertex_deletion_cleans_neighbors_and_recycles_id() {
        let g = FaimGraph::new(8, 1 << 18);
        // Undirected-style symmetric edges.
        g.insert_batch(&[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]);
        g.delete_vertices(&[0]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.read_adjacency(1), vec![2]);
        assert_eq!(g.read_adjacency(2), vec![1]);
        assert_eq!(g.reusable_ids(), vec![0]);
    }

    #[test]
    fn insertion_cost_grows_with_degree() {
        // The O(degree) duplicate check: inserting into a high-degree
        // vertex costs far more transactions than into a low-degree one.
        let g = FaimGraph::new(4096, 1 << 20);
        let warmup: Vec<(u32, u32)> = (1..1000).map(|v| (0, v)).collect();
        g.insert_batch(&warmup);
        let before = g.device().counters().snapshot();
        g.insert_batch(&[(0, 2000)]);
        let high = g.device().counters().snapshot().delta(&before);
        let before = g.device().counters().snapshot();
        g.insert_batch(&[(1, 2000)]);
        let low = g.device().counters().snapshot().delta(&before);
        assert!(
            high.transactions > 4 * low.transactions,
            "deg-1000 insert ({}) must dwarf deg-0 insert ({})",
            high.transactions,
            low.transactions
        );
    }

    #[test]
    fn build_then_sort_adjacencies() {
        let g = FaimGraph::build(16, &[(0, 5), (0, 1), (0, 3), (1, 7)], 1 << 18);
        g.sort_adjacencies();
        assert_eq!(g.read_adjacency(0), vec![1, 3, 5]);
        assert_eq!(g.read_adjacency(1), vec![7]);
    }
}
