//! Query operations (paper §IV-B): `edgeExist` and the adjacency-list
//! iterator, which also answers weights. Adjacency has one read, batched
//! by vertex ([`DynGraph::read_neighbors`], one `neighbors` launch per
//! batch); the whole-graph export is that read over every vertex.
//!
//! Every query takes a [`ReadGuard`] pinned via [`DynGraph::pin_read`] and
//! launches through the read door (`DynGraph::pinned`), whose launcher
//! borrows the guard: queries need no phase separation from updates. The
//! guard pins the launch era so the slab allocator cannot recycle any slab
//! freed at or after the pin. A slab-hash walk reads each slab once and
//! follows its next pointer as read: with one writer batch at a time and
//! chains that only grow at their tails, a query running concurrently
//! with an insert/delete batch finishes on the chain it entered (DESIGN
//! §17). Batched queries use the same WCWS grouping as Algorithm 1 so
//! lookups hitting the same source vertex are coalesced and read a
//! dictionary line once, and a run of 32 or more probes of one source
//! shares one warp's descriptor read and chain walk (run tiles).

use crate::dict::{LineRegisters, TABLES_PER_LINE};
use crate::graph::{DynGraph, Edge};
use gpu_sim::{Addr, Lanes, Warp, WARP_SIZE};
use slab_alloc::ReadGuard;

/// Most chunks one run tile spans. A tile warp holds one key register per
/// lane per chunk, so the cap costs 8 registers per lane. At 8 chunks
/// `dynamic_tc` still yields about 4.9 k tiles per round, close to the
/// TITAN V's 5 120 resident warps (80 SMs × 64), so a longer tile would
/// idle warp slots to save little more.
const TILE_CHUNKS: usize = 8;
/// Most probes one run tile answers.
const TILE_PAIRS: usize = TILE_CHUNKS * WARP_SIZE;

/// A probe batch cut into warp work while staging: host work, uncharged
/// like the upload itself.
struct Tiling {
    /// Pairs outside every run of 32 or more, in batch order: the chunk
    /// warps' lanes.
    loose: Vec<usize>,
    /// Each run tile's first pair and length (at most [`TILE_PAIRS`]).
    tiles: Vec<(usize, usize)>,
}

impl Tiling {
    fn new(pairs: &[(u32, u32)]) -> Self {
        let mut plan = Tiling {
            loose: Vec::new(),
            tiles: Vec::new(),
        };
        let mut start = 0;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len();
            if run.len() >= WARP_SIZE {
                let tiles = (start..end).step_by(TILE_PAIRS);
                plan.tiles
                    .extend(tiles.map(|s| (s, TILE_PAIRS.min(end - s))));
            } else {
                plan.loose.extend(start..end);
            }
            start = end;
        }
        plan
    }
}

impl DynGraph {
    /// Single edge-existence query (`edgeExist`, §IV-B). Runs a one-warp
    /// kernel; prefer [`Self::edges_exist`] for batches.
    pub fn edge_exists(&self, pin: &ReadGuard, src: u32, dst: u32) -> bool {
        self.edges_exist(pin, &[(src, dst)])[0]
    }

    /// Batched edge-existence queries, answered by one `edge_exist`
    /// kernel of two kinds of warp. While staging, the host cuts the batch
    /// (uncharged, like the upload itself): every maximal run of at least
    /// 32 consecutive pairs with one source becomes *run tiles* of up to
    /// 8 chunks (256 probes), and the other pairs, packed in batch order,
    /// form 32-pair *chunks*.
    ///
    /// A chunk warp (these come first, found from `warp_id`) holds one
    /// pair per lane, grouped by source exactly like Algorithm 1's
    /// insertion work queue, reads each group's descriptor as Algorithm 1
    /// does (a dictionary line its groups share is read once, and each
    /// later group shuffles its pair out of it), and answers each
    /// same-source group with one one-chunk
    /// [`TableDesc::find_lanes`](slab_hash::TableDesc::find_lanes) call; a
    /// one-pair batch charges exactly one `find`. A run-tile warp
    /// reads its ⟨source, length, key offset⟩ header (one transaction),
    /// its key slabs and the source's descriptor once each, and answers
    /// the whole tile with one `find_lanes` call: one walk of each home
    /// bucket's chain for up to 256 probes. A tile's keys are staged from
    /// the slab boundary after the previous tile's, so a short tile
    /// stages ⌈len/32⌉ slabs, not 8. Either warp keeps its hits in lane
    /// registers and writes them as an answer bitmap with one store once
    /// done. A batch without runs reads no header and charges what
    /// per-chunk warps always did.
    pub fn edges_exist(&self, pin: &ReadGuard, pairs: &[(u32, u32)]) -> Vec<bool> {
        let k = self.pinned(pin);
        if pairs.is_empty() {
            return vec![];
        }
        let plan = Tiling::new(pairs);
        let chunks = plan.loose.len().div_ceil(WARP_SIZE);
        let chunk_words = chunks * WARP_SIZE;
        // Sources: the chunks', then one ⟨source, length, key offset⟩
        // header per tile, 4 words apart so no header straddles a 128 B
        // segment. Keys: the chunks' destinations, then each tile's from
        // the next slab boundary on. Answers: one bit per pair, a word
        // per chunk, then TILE_CHUNKS words per tile (one segment, so
        // one store).
        let mut srcs: Vec<u32> = plan.loose.iter().map(|&i| pairs[i].0).collect();
        let mut keys: Vec<u32> = plan.loose.iter().map(|&i| pairs[i].1).collect();
        srcs.resize(chunk_words, u32::MAX);
        for &(start, len) in &plan.tiles {
            keys.resize(keys.len().next_multiple_of(WARP_SIZE), u32::MAX);
            srcs.extend([pairs[start].0, len as u32, keys.len() as u32, u32::MAX]);
            keys.extend(pairs[start..start + len].iter().map(|p| p.1));
        }
        let tile_answers = chunks.next_multiple_of(TILE_CHUNKS);
        let src_buf = self.dev.upload(&srcs, u32::MAX);
        let key_buf = self.dev.upload(&keys, u32::MAX);
        let out_words = tile_answers + plan.tiles.len() * TILE_CHUNKS;
        let out_buf = self.dev.upload(&vec![0u32; out_words], 0);

        k.launch_warps("edge_exist", chunks + plan.tiles.len(), |warp| {
            let w = warp.warp_id() as usize;
            if w < chunks {
                let base = (w * WARP_SIZE) as u32;
                let live = (plan.loose.len() - w * WARP_SIZE).min(WARP_SIZE);
                let found = self.answer_chunk(warp, src_buf + base, key_buf + base, live);
                // One store of the warp's answers.
                warp.write_word(out_buf + w as u32, found);
                return;
            }
            let t = w - chunks;
            let head = src_buf + (chunk_words + 4 * t) as u32;
            let found = self.answer_tile(warp, head, key_buf);
            // One store of the tile's answer bitmap.
            let out = out_buf + (tile_answers + t * TILE_CHUNKS) as u32;
            let addrs = Lanes::from_fn(|i| out + (i % TILE_CHUNKS) as u32);
            let vals = Lanes::from_fn(|i| found[i % TILE_CHUNKS]);
            warp.write_lanes(&addrs, &vals, (1 << TILE_CHUNKS) - 1);
        });

        let mut bits = vec![0; out_words];
        self.dev.host_read(out_buf, &mut bits);
        let bit = |word: usize, lane: usize| bits[word] & (1 << lane) != 0;
        let mut found = vec![false; pairs.len()];
        for (j, &i) in plan.loose.iter().enumerate() {
            found[i] = bit(j / WARP_SIZE, j % WARP_SIZE);
        }
        for (t, &(start, len)) in plan.tiles.iter().enumerate() {
            for j in 0..len {
                found[start + j] = bit(
                    tile_answers + t * TILE_CHUNKS + j / WARP_SIZE,
                    j % WARP_SIZE,
                );
            }
        }
        found
    }

    /// A chunk warp: the `live` pairs staged at `srcs`/`dsts`, one per
    /// lane, answered one same-source group at a time. Each group's
    /// descriptor is read as Algorithm 1's update kernels read it
    /// (`VertexDict::desc_in_lines`): a dictionary line the warp's groups
    /// share is read once. Returns the hit mask.
    fn answer_chunk(&self, warp: &Warp, srcs: Addr, dsts: Addr, live: usize) -> u32 {
        let srcs = warp.read_slab(srcs);
        let dsts = warp.read_slab(dsts);
        let mut pending = Lanes::from_fn(|i| i < live);
        let mut lines = LineRegisters::default();
        // Each lane's answer stays in its register (one bit here) until
        // the queue drains.
        let mut found = 0u32;
        loop {
            let queue = warp.ballot(&pending);
            let Some(current_lane) = gpu_sim::ffs(queue) else {
                return found;
            };
            let current_src = warp.shuffle(&srcs, current_lane);
            let same_src = pending.zip_with(&srcs, |p, s| p && s == current_src);
            let group = warp.ballot(&same_src);
            pending = pending.zip_with(&same_src, |p, s| p && !s);
            let entry = self
                .dict
                .desc_in_lines(warp, current_src, &mut lines, &srcs, &pending);
            if let Some((desc, _)) = entry {
                let [(hits, _)] = desc.find_lanes(warp, &[dsts], &[group]);
                found |= hits;
            }
        }
    }

    /// A run-tile warp: the ⟨source, length, key offset⟩ header at
    /// `head` (one read) and the tile's keys from that offset into
    /// `key_buf` on, one slab per chunk. Returns the hit mask of each
    /// chunk, 0 past the tile's chunks.
    fn answer_tile(&self, warp: &Warp, head: Addr, key_buf: Addr) -> [u32; TILE_CHUNKS] {
        let head = warp.read_lanes(&Lanes::from_fn(|i| head + (i as u32).min(2)), 0b111);
        let (src, len) = (head.get(0), head.get(1) as usize);
        let keys = key_buf + head.get(2);
        // Chunks past the tile keep an empty group, which costs nothing.
        let mut tile = [Lanes::splat(0); TILE_CHUNKS];
        let mut groups = [0u32; TILE_CHUNKS];
        for c in 0..len.div_ceil(WARP_SIZE) {
            tile[c] = warp.read_slab(keys + (c * WARP_SIZE) as u32);
            groups[c] = u32::MAX >> (WARP_SIZE - (len - c * WARP_SIZE).min(WARP_SIZE));
        }
        match self.dict.desc(warp, src) {
            Some(desc) => desc.find_lanes(warp, &tile, &groups).map(|(hits, _)| hits),
            None => [0; TILE_CHUNKS],
        }
    }

    /// The adjacency lists of `us` (§IV-B's slab iterator) in batch order,
    /// each in table order with its weights (0 for set graphs); a vertex
    /// without a table, or past the capacity, reads an empty list. One
    /// `neighbors` launch gives each run of vertices that share a
    /// 16-vertex dictionary line one warp, which reads the line's
    /// descriptors with one transaction, then walks each requested table.
    /// Nothing is staged: one vertex costs one launch, one warp, one
    /// dictionary transaction (none past the capacity) and its walk.
    pub fn read_neighbors(&self, pin: &ReadGuard, us: &[u32]) -> Adjacency {
        let k = self.pinned(pin);
        let groups: Vec<&[u32]> = us
            .chunk_by(|a, b| a / TABLES_PER_LINE == b / TABLES_PER_LINE)
            .collect();
        let lists = parking_lot::Mutex::new(vec![Vec::new(); groups.len()]);
        if !groups.is_empty() {
            k.launch_warps("neighbors", groups.len(), |warp| {
                let w = warp.warp_id() as usize;
                let line = groups[w][0] / TABLES_PER_LINE;
                let mut tables = [None; TABLES_PER_LINE as usize];
                self.dict
                    .for_each_table_in_lines(warp, line..line + 1, |v, desc, _| {
                        tables[(v % TABLES_PER_LINE) as usize] = Some(desc);
                    });
                lists.lock()[w] = groups[w]
                    .iter()
                    .map(|&u| tables[(u % TABLES_PER_LINE) as usize])
                    .map(|t| t.map_or_else(Vec::new, |desc| self.collect_entries(warp, &desc)))
                    .collect();
            });
        }
        lists.into_inner().into_iter().flatten().collect()
    }

    /// Every live edge as ⟨src, dst, weight⟩: the batched read of every
    /// vertex, so vertex-ascending by source (an edgeless graph launches
    /// nothing). The guard pins reclamation, not data: a batch landing
    /// mid-export may show for some vertices only (snapshot-at-walk).
    pub fn export_edges(&self, pin: &ReadGuard) -> Vec<Edge> {
        let edgeless = self.num_edges() == 0;
        let n = if edgeless { 0 } else { self.dict.capacity() };
        let adj = self.read_neighbors(pin, &(0..n).collect::<Vec<_>>());
        (0..n)
            .flat_map(|u| {
                adj.entries(u as usize)
                    .map(move |(v, w)| Edge::weighted(u, v, w))
            })
            .collect()
    }
}

/// The adjacency lists of a vertex batch, CSR-shaped: list `i` is
/// `dsts[offsets[i]..offsets[i + 1]]`, with its weights alongside (0 for
/// set graphs and for structures without weights). Built by collecting
/// ⟨dst, weight⟩ lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<usize>,
    dsts: Vec<u32>,
    weights: Vec<u32>,
}

impl Adjacency {
    /// List `i`'s destinations.
    pub fn list(&self, i: usize) -> &[u32] {
        &self.dsts[self.offsets[i]..self.offsets[i + 1]]
    }

    /// List `i` as ⟨dst, weight⟩ pairs.
    pub fn entries(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let weights = &self.weights[self.offsets[i]..self.offsets[i + 1]];
        self.list(i).iter().copied().zip(weights.iter().copied())
    }

    /// Every list's destinations, in batch order.
    pub fn lists(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.dsts[w[0]..w[1]])
    }
}

impl<L: IntoIterator<Item = (u32, u32)>> FromIterator<L> for Adjacency {
    fn from_iter<I: IntoIterator<Item = L>>(lists: I) -> Self {
        let (mut offsets, mut dsts, mut weights) = (vec![0], Vec::new(), Vec::new());
        for list in lists {
            for (dst, weight) in list {
                dsts.push(dst);
                weights.push(weight);
            }
            offsets.push(dsts.len());
        }
        Adjacency {
            offsets,
            dsts,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GraphConfig;
    use crate::graph::{DynGraph, Edge};
    use slab_alloc::ReadGuard;

    fn graph_with_star() -> DynGraph {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_map(64), 64, 1);
        let batch: Vec<Edge> = (1..40).map(|v| Edge::weighted(0, v, 100 + v)).collect();
        g.insert_edges(&batch);
        g
    }

    #[test]
    fn edges_exist_batch_mixed() {
        let g = graph_with_star();
        g.insert_edges(&[Edge::new(5, 6)]);
        let pin = g.pin_read();
        let res = g.edges_exist(&pin, &[(0, 1), (0, 39), (0, 40), (5, 6), (6, 5), (63, 0)]);
        assert_eq!(res, vec![true, true, false, true, false, false]);
    }

    #[test]
    fn edges_exist_large_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (0, i % 64)).collect();
        let res = g.edges_exist(&pin, &pairs);
        for (i, &(_, d)) in pairs.iter().enumerate() {
            assert_eq!(res[i], (1..40).contains(&d), "pair {i} dst {d}");
        }
    }

    #[test]
    fn neighbors_returns_all_pairs() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let mut n: Vec<(u32, u32)> = g.read_neighbors(&pin, &[0]).entries(0).collect();
        n.sort_unstable();
        let expect: Vec<(u32, u32)> = (1..40).map(|v| (v, 100 + v)).collect();
        assert_eq!(n, expect);
    }

    #[test]
    fn neighbors_of_untouched_vertex_is_empty() {
        let g = graph_with_star();
        let pin = g.pin_read();
        let adj = g.read_neighbors(&pin, &[63, 62]);
        assert_eq!(adj.lists().len(), 2);
        assert!(adj.lists().all(<[u32]>::is_empty));
    }

    #[test]
    fn a_one_vertex_read_charges_one_line_and_its_walk() {
        // One launch, one warp, the vertex's descriptor (one transaction,
        // none past the capacity) and its table's walk, one read per slab.
        // Vertex 0's 38 live edges fill three slabs of one bucket (three
        // reads); 5 and 63 hold one slab each.
        let g = graph_with_star();
        g.insert_edges(&[Edge::weighted(5, 6, 7)]);
        g.delete_edges(&[Edge::new(0, 3)]);
        let pin = g.pin_read();
        for (u, len, transactions) in [(0, 38, 4), (5, 1, 2), (63, 0, 2), (600, 0, 0)] {
            let before = g.device().counters().snapshot();
            let adj = g.read_neighbors(&pin, &[u]);
            let delta = g.device().counters().snapshot().delta(&before);
            assert_eq!(adj.list(0).len(), len, "vertex {u}");
            let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
            // [transactions, atomics, ballots, shuffles, launches, warps,
            // words_allocated]
            assert_eq!(got, [transactions, 0, 0, 0, 1, 1, 0], "vertex {u}");
        }
    }

    #[test]
    fn a_read_of_every_vertex_charges_one_transaction_per_line() {
        // 100 vertices span seven dictionary lines (the last one partial):
        // seven warps, seven descriptor transactions, and each table's
        // walk exactly as a one-vertex read walks it. Vertices 7 and 90
        // have no table; 0, 40 and 80 have multi-slab chains.
        let g = DynGraph::new(GraphConfig::directed_set(100));
        let ins: Vec<Edge> = (0..100u32)
            .filter(|u| u % 83 != 7)
            .flat_map(|u| {
                let degree = if u % 40 == 0 { 71 } else { 1 };
                (0..degree).map(move |i| Edge::new(u, u + i + 1))
            })
            .collect();
        g.insert_edges(&ins);
        let pin = g.pin_read();
        let cap = g.vertex_capacity();
        assert_eq!(cap, 100);
        let mut walks = 0;
        for u in 0..cap {
            let before = g.device().counters().snapshot();
            g.read_neighbors(&pin, &[u]);
            walks += g.device().counters().snapshot().delta(&before).transactions - 1;
        }
        let all: Vec<u32> = (0..cap).collect();
        let before = g.device().counters().snapshot();
        let adj = g.read_neighbors(&pin, &all);
        let delta = g.device().counters().snapshot().delta(&before);
        let lines = u64::from(cap.div_ceil(16));
        assert_eq!(lines, 7);
        assert_eq!(
            (delta.transactions, delta.launches, delta.warps),
            (lines + walks, 1, lines)
        );
        assert_eq!(adj.lists().map(<[u32]>::len).sum::<usize>(), ins.len());
        assert!(adj.list(7).is_empty() && adj.list(90).is_empty());
        assert_eq!(adj.list(40).len(), 71);
    }

    #[test]
    fn a_batch_reads_each_vertex_as_a_one_vertex_read_does() {
        // Arbitrary order, duplicates, ids past the capacity, vertices
        // without a table, and runs that share a line and runs that
        // do not.
        let g = DynGraph::new(GraphConfig::directed_map(64));
        let ins: Vec<Edge> = (0..64u32)
            .filter(|u| u % 5 != 0)
            .flat_map(|u| (0..u % 7).map(move |i| Edge::weighted(u, (u * 3 + i) % 64, u + i)))
            .collect();
        g.insert_edges(&ins);
        let pin = g.pin_read();
        let batch = [9, 3, 3, 17, 16, 99, 63, 0, 5, 62, 1000, 17, 9];
        let adj = g.read_neighbors(&pin, &batch);
        assert_eq!(adj.lists().len(), batch.len());
        for (i, &u) in batch.iter().enumerate() {
            let one = g.read_neighbors(&pin, &[u]);
            assert_eq!(
                adj.entries(i).collect::<Vec<_>>(),
                one.entries(0).collect::<Vec<_>>(),
                "vertex {u}"
            );
        }
        let before = g.device().counters().snapshot();
        assert_eq!(g.read_neighbors(&pin, &[]).lists().len(), 0);
        let delta = g.device().counters().snapshot().delta(&before);
        assert_eq!(delta.launches, 0, "an empty batch launches nothing");
    }

    #[test]
    fn reads_of_a_vertex_without_a_table_charge_its_descriptor() {
        // Tables are built lazily on insert, so vertex 2 has none: the
        // read still launches, and its kernel pays the one dictionary
        // transaction that finds no table.
        let g = DynGraph::new(GraphConfig::directed_map(8));
        g.insert_edges(&[Edge::weighted(1, 2, 5)]);
        let pin = g.pin_read();
        let charge = |read: &dyn Fn()| {
            let before = g.device().counters().snapshot();
            read();
            let delta = g.device().counters().snapshot().delta(&before);
            (delta.transactions, delta.launches)
        };
        assert_eq!(
            charge(&|| assert!(g.read_neighbors(&pin, &[2]).list(0).is_empty())),
            (1, 1)
        );
    }

    #[test]
    fn neighbors_reflect_deletions() {
        let g = graph_with_star();
        g.delete_edges(&[Edge::new(0, 1), Edge::new(0, 2)]);
        let pin = g.pin_read();
        let ids = g.read_neighbors(&pin, &[0]).list(0).to_vec();
        assert!(!ids.contains(&1));
        assert!(!ids.contains(&2));
        assert_eq!(ids.len(), 37);
    }

    #[test]
    fn empty_query_batch() {
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edges_exist(&pin, &[]).is_empty());
    }

    #[test]
    fn set_graph_neighbors_have_zero_weights() {
        let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(8), 8, 1);
        g.insert_edges(&[Edge::new(1, 2), Edge::new(1, 3)]);
        let pin = g.pin_read();
        let mut n: Vec<(u32, u32)> = g.read_neighbors(&pin, &[1]).entries(0).collect();
        n.sort_unstable();
        assert_eq!(n, vec![(2, 0), (3, 0)]);
    }

    #[test]
    fn export_edges_is_the_union_of_adjacency_lists() {
        for cfg in [GraphConfig::directed_map(64), GraphConfig::directed_set(64)] {
            let g = DynGraph::with_uniform_buckets(cfg, 64, 1);
            let before = g.device().counters().snapshot().launches;
            assert!(g.export_edges(&g.pin_read()).is_empty());
            assert_eq!(
                g.device().counters().snapshot().launches,
                before,
                "an edgeless graph exports without a launch"
            );
            let ins: Vec<Edge> = (0..8u32)
                .flat_map(|u| (1..40u32).map(move |i| Edge::weighted(u, (u + i) % 64, u * 100 + i)))
                .collect();
            g.insert_edges(&ins);
            let del: Vec<Edge> = ins
                .iter()
                .step_by(3)
                .map(|e| Edge::new(e.src, e.dst))
                .collect();
            g.delete_edges(&del);
            let pin = g.pin_read();
            assert!(
                g.stats(&pin).tables.tombstones > 0,
                "fixture has tombstones"
            );

            let before = g.device().counters().snapshot();
            let export = g.export_edges(&pin);
            let delta = g.device().counters().snapshot().delta(&before);
            // One launch, a warp per dictionary line.
            assert_eq!((delta.launches, delta.warps), (1, 4));
            let mut union: Vec<Edge> = (0..64u32)
                .flat_map(|u| {
                    let adj = g.read_neighbors(&pin, &[u]);
                    let list: Vec<_> = adj.entries(0).collect();
                    list.into_iter().map(move |(v, w)| Edge::weighted(u, v, w))
                })
                .collect();
            // Vertex-ascending with table order inside a vertex, exactly
            // the order of the per-vertex walks.
            assert_eq!(export, union);
            union.sort_unstable_by_key(|e| (e.src, e.dst));
            assert_eq!(union.len() as u64, g.num_edges());
            assert!(union
                .iter()
                .all(|e| !del.iter().any(|d| (d.src, d.dst) == (e.src, e.dst))));
        }
    }

    #[test]
    fn pin_spanning_mutation_still_reads_current_state() {
        // A guard taken before a batch doesn't freeze the *data* — it only
        // protects reclamation. Reads through an old guard see the newest
        // published state (snapshot-at-walk, not snapshot-at-pin).
        let g = graph_with_star();
        let pin = g.pin_read();
        assert!(g.edge_exists(&pin, 0, 1));
        g.delete_edges(&[Edge::new(0, 1)]);
        assert!(!g.edge_exists(&pin, 0, 1));
        assert!(g.allocator().pinned_readers() >= 1);
        drop(pin);
        assert_eq!(g.allocator().pinned_readers(), 0);
    }

    #[test]
    fn guard_era_is_monotonic_across_batches() {
        let g = graph_with_star();
        let before = g.pin_read().era();
        g.insert_edges(&[Edge::new(40, 41)]);
        let after = g.pin_read().era();
        assert!(
            after > before,
            "mutation batches must advance the era ({before} → {after})"
        );
    }

    #[test]
    fn edges_exist_stores_once_per_warp() {
        // 33 probes over the distinct sources 0..33: two warps, the
        // second holding one lane, every group a singleton. The first
        // warp's 32 sources fill dictionary lines 0 and 1: each line is
        // read once, whole (one transaction), by its first group, and
        // its other 15 groups shuffle their descriptor pair out of it.
        // The second warp's source 32 is alone in its line and reads
        // only its pair, one transaction. Probe i hits for i % 3 == 0,
        // misses in a one-slab table for i % 3 == 1, and finds no table
        // for i % 3 == 2 (tables are built lazily on insert).
        let g = DynGraph::new(GraphConfig::directed_set(128));
        let ins: Vec<Edge> = (0..33)
            .filter(|i| i % 3 != 2)
            .map(|i| Edge::new(i, i + 1))
            .collect();
        g.insert_edges(&ins);
        let pin = g.pin_read();
        let pairs: Vec<(u32, u32)> = (0..33)
            .map(|i| (i, i + if i % 3 == 0 { 1 } else { 3 }))
            .collect();
        let before = g.device().counters().snapshot();
        let res = g.edges_exist(&pin, &pairs);
        let delta = g.device().counters().snapshot().delta(&before);
        let want: Vec<bool> = (0..33).map(|i| i % 3 == 0).collect();
        assert_eq!(res, want);

        let (warps, groups, hits, misses) = (2, 33, 11, 11);
        let (lines_read, groups_shuffled) = (3, 30);
        // Per warp: the staged src and dst slabs and one result store.
        // Per line read: one transaction. Per group: one base-slab read
        // when the source has a table.
        let transactions = warps * 2 + lines_read + (hits + misses) + warps;
        // Per group: the queue and group ballots; per warp, the ballot
        // that finds the queue empty; per walk, a match ballot, plus an
        // EMPTY ballot for a miss.
        let ballots = groups * 2 + warps + hits + misses * 2;
        let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
        // Per group: the shuffle naming its source; per group served
        // from a kept line: two shuffles of its descriptor pair.
        let shuffles = groups + 2 * groups_shuffled;
        // [transactions, atomics, ballots, shuffles, launches, warps,
        // words_allocated]: the 33-word source and key buffers padded to
        // two slabs, and the two-word answer bitmap padded to one.
        assert_eq!(
            got,
            [transactions, 0, ballots, shuffles, 1, warps, 2 * 64 + 32]
        );
    }

    #[test]
    fn run_tile_charges_are_pinned() {
        // 256 probes of one source: one run tile, so one warp reads the
        // ⟨source, length, key offset⟩ header (one transaction), 8 key slabs and the
        // descriptor once, walks the one-bucket chain once, and stores
        // its answer bitmap once. Vertex 0's chain is L full slabs of 30
        // keys (destinations 1..=30·L), so the 256 − 30·L misses walk it
        // to the end: L slab reads. Vertex 511 has no table; vertex 600
        // is past capacity.
        for slabs in [1u64, 3] {
            let g = DynGraph::new(GraphConfig::directed_set(512));
            let ins: Vec<Edge> = (1..=30 * slabs as u32).map(|d| Edge::new(0, d)).collect();
            g.insert_edges(&ins);
            let pin = g.pin_read();
            for (src, walk, hits) in [(0, slabs, 30 * slabs), (511, 0, 0), (600, 0, 0)] {
                let pairs: Vec<(u32, u32)> = (1..=256).map(|d| (src, d)).collect();
                let before = g.device().counters().snapshot();
                let res = g.edges_exist(&pin, &pairs);
                let delta = g.device().counters().snapshot().delta(&before);
                assert_eq!(res.iter().filter(|&&b| b).count() as u64, hits);
                let desc = u64::from(src < 512);
                let transactions = 1 + 8 + desc + walk + 1;
                // Every slab has more than 30 keys open (the misses stay
                // open to the end), so each charges 30 broadcast shuffles
                // and no ballot.
                let shuffles = if walk == 0 { 0 } else { 30 * slabs };
                let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
                // [transactions, atomics, ballots, shuffles, launches,
                // warps, words_allocated]: a one-slab header buffer, the
                // 256-key buffer and an eight-word bitmap padded to a slab.
                let want = [transactions, 0, 0, shuffles, 1, 1, 32 + 256 + 32];
                assert_eq!(got, want, "L = {slabs}, source {src}");
            }
        }
    }

    #[test]
    fn tile_keys_are_staged_on_slab_boundaries() {
        // Five loose probes of sources without a table, then three runs
        // of 40 probes (sources 1, 2, 3, each with the ten even
        // destinations 20..40 in a one-slab table). Keys: the chunk's 5 padded to a slab, then each tile's
        // 40 from the next slab boundary: 32 + 64 + 64 + 40, padded to
        // 224 words (a 256-word stride would stage 608). Sources: 32 for
        // the chunk and three 4-word headers, padded to 64. Answers: one
        // chunk word padded to 8, and 8 per tile, one slab in all.
        let g = DynGraph::new(GraphConfig::directed_set(128));
        let ins: Vec<Edge> = (1..4)
            .flat_map(|u| (10..20).map(move |i| Edge::new(u, 2 * i)))
            .collect();
        g.insert_edges(&ins);
        let pin = g.pin_read();
        let mut pairs: Vec<(u32, u32)> = (10..15).map(|u| (u, 1)).collect();
        pairs.extend((1..4).flat_map(|u| (0..40).map(move |d| (u, d))));
        let before = g.device().counters().snapshot();
        let res = g.edges_exist(&pin, &pairs);
        let delta = g.device().counters().snapshot().delta(&before);
        for (&(u, d), &hit) in pairs.iter().zip(&res) {
            let want = (1..4).contains(&u) && d >= 20 && d % 2 == 0;
            assert_eq!(hit, want, "({u}, {d})");
        }
        // Chunk warp: two staged slabs, one read of dictionary line 0
        // (sources 10..15 share it; the other four groups shuffle their
        // descriptors out of it), a store. Each tile: header, two key
        // slabs, descriptor, one slab, store.
        assert_eq!(delta.transactions, (2 + 1 + 1) + 3 * (1 + 2 + 1 + 1 + 1));
        assert_eq!(delta.words_allocated, 64 + 224 + 32);
    }

    #[test]
    fn a_one_key_find_charges_its_descriptor_and_one_read_per_slab() {
        // Vertex 0's one-bucket set table holds 30·(L − 1) + 1 keys, so
        // its chain is L slabs long and the last key sits alone in the
        // tail. A warp reading the descriptor and then finding the last
        // key (a hit on the tail) or an absent key (a miss at the tail)
        // charges 1 descriptor transaction plus L slab reads.
        for slabs in 1..=4u32 {
            let g = DynGraph::with_uniform_buckets(GraphConfig::directed_set(8), 8, 1);
            let n = 30 * (slabs - 1) + 1;
            let ins: Vec<Edge> = (1..=n).map(|d| Edge::new(0, d)).collect();
            g.insert_edges(&ins);
            let pin = g.pin_read();
            assert_eq!(g.stats(&pin).tables.max_chain, u64::from(slabs));
            for (key, hit) in [(n, true), (n + 1, false)] {
                let before = g.device().counters().snapshot();
                g.pinned(&pin).launch_warps("one_key_find", 1, |warp| {
                    let desc = g.dict.desc(warp, 0).expect("vertex 0 has a table");
                    assert_eq!(desc.find(warp, key).is_some(), hit, "L = {slabs}");
                });
                let delta = g.device().counters().snapshot().delta(&before);
                assert_eq!(
                    (delta.transactions, delta.launches, delta.warps),
                    (1 + u64::from(slabs), 1, 1),
                    "L = {slabs}, key {key}"
                );
            }
        }
    }

    #[test]
    fn single_probe_charges_are_pinned() {
        // One-probe reads (the router's live reads, `serve_road`,
        // `mixed_rw`) must charge exactly one key's walk: the grouped
        // membership walk saves only on groups of two or more probes.
        // Vertex 0's 39 edges fill a three-slab chain in one bucket. Every
        // read charges its source's descriptor read, one transaction, and
        // one read per slab its walk reaches: an `edge_exists` walking L
        // slabs charges 4 + L transactions (the staged source and key
        // slabs, the descriptor, L slab reads, the answer store). A
        // weight comes from its source's adjacency read: one launch reads
        // the whole chain (1 + 3 transactions) and answers every weight
        // in it.
        let g = graph_with_star();
        g.insert_edges(&[Edge::weighted(5, 6, 7)]);
        let pin = g.pin_read();
        type Read = fn(&DynGraph, &ReadGuard);
        // [transactions, atomics, ballots, shuffles, launches, warps,
        // words_allocated] per read.
        let reads: [(&str, Read, [u64; 7]); 6] = [
            (
                "exist base hit",
                |g, p| assert!(g.edge_exists(p, 0, 1)),
                [5, 0, 4, 1, 1, 1, 96],
            ),
            (
                "exist deep hit",
                |g, p| assert!(g.edge_exists(p, 0, 39)),
                [7, 0, 8, 1, 1, 1, 96],
            ),
            (
                "exist miss",
                |g, p| assert!(!g.edge_exists(p, 0, 40)),
                [7, 0, 9, 1, 1, 1, 96],
            ),
            (
                "exist short chain",
                |g, p| assert!(g.edge_exists(p, 5, 6)),
                [5, 0, 4, 1, 1, 1, 96],
            ),
            (
                "exist no table",
                |g, p| assert!(!g.edge_exists(p, 63, 0)),
                [5, 0, 5, 1, 1, 1, 96],
            ),
            (
                "weights of a chain",
                |g, p| {
                    let adj = g.read_neighbors(p, &[0]);
                    let weight = |v| adj.entries(0).find(|&(d, _)| d == v).map(|(_, w)| w);
                    assert_eq!((weight(39), weight(40)), (Some(139), None));
                },
                [4, 0, 0, 0, 1, 1, 0],
            ),
        ];
        for (name, read, want) in reads {
            let before = g.device().counters().snapshot();
            read(&g, &pin);
            let delta = g.device().counters().snapshot().delta(&before);
            let got: Vec<u64> = delta.iter().map(|(_, c)| c).collect();
            assert_eq!(got, want, "{name}");
        }
    }
}
