//! The fourth redundancy: each edge's features projected once, not once per
//! sample (DESIGN.md "Edge projection").
//!
//! At layer 1 over featureless nodes a neighbour slot's K/V lanes sum the
//! edge block `e · W[e-rows]` and then the `Φ` block, so the partial sum
//! after the edge block is a function of the edge alone. [`EdgeProjTable`]
//! keeps that projection `P[eid]` in a direct-mapped table shared by every
//! engine over one [`crate::LayerCaches`]; [`EdgeProjector`] turns one
//! layer-1 call's edge ids into attention seeds, reading hits from the
//! table and projecting misses in one fanned-out matmul. Seeded attention
//! continues each lane over `Φ` with the same bits as the full product.

use parking_lot::Mutex;
use tg_graph::INVALID_EDGE;
use tg_tensor::{Scratch, Tensor};
use tgat::attention::{zero_h_query, EdgeSeeds, KvWeights};
use tgat::TgatParams;

/// Slots of the table: 32k projections, 8 MB at 64 floats each. 64k hit
/// more but cost `replay-opt` +14.5% peak RSS against a 15% bound
/// (DESIGN.md "Edge projection").
pub const EDGE_PROJ_SLOTS: usize = 1 << 15;

/// The slot edge `eid` maps to: its low bits, so a window of consecutive
/// edge ids never collides with itself.
fn slot_of(eid: u32) -> usize {
    eid as usize & (EDGE_PROJ_SLOTS - 1)
}

/// Hit and size counters of an [`EdgeProjTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeProjStats {
    /// Distinct edge ids of layer-1 calls looked up.
    pub lookups: u64,
    /// Lookups whose projection was in the table.
    pub hits: u64,
    /// Slots whose row is stored.
    pub filled: usize,
    /// Bytes of the tags, the held bits and the allocated pages of rows.
    pub resident_bytes: usize,
}

impl EdgeProjStats {
    /// `hits / lookups`; 0 before the first lookup.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 { 0.0 } else { self.hits as f64 / self.lookups as f64 }
    }
}

/// Slots per page of an [`EdgeProjTable`], the unit it allocates: 64 KB
/// of rows at 64 floats, below glibc's initial 128 KB mmap threshold, so
/// pages come from and return to the heap and never raise the threshold
/// (one 16 MB block did: freeing it raised the trim threshold to 32 MB,
/// and the process then kept that much freed heap resident).
const PAGE_SLOTS: usize = 256;

/// A direct-mapped table of [`EDGE_PROJ_SLOTS`] edge projections tagged by
/// edge id, behind one leaf mutex (`edge_proj` in `concurrency.toml`) that
/// is held only to copy rows in or out, never across a matmul.
///
/// # Invariants
///
/// - A slot tagged `eid + 1` holds exactly `P[eid]` for the model and edge
///   features of the engines sharing the table; tag 0 is empty.
/// - A slot's row is read only while its held bit is set, and the bit is
///   set only as that row is stored.
/// - The tags (4 bytes and a bit a slot) are allocated on the first
///   insert and a page of [`PAGE_SLOTS`] rows on the first row stored in
///   it, so a table nobody fills twice costs 132 KB.
#[derive(Debug, Default)]
pub struct EdgeProjTable {
    edge_proj: Mutex<Slots>,
}

#[derive(Debug, Default)]
struct Slots {
    /// Floats per projection; 0 until the first insert.
    width: usize,
    /// `eid + 1` of each slot's edge, 0 if empty; `EDGE_PROJ_SLOTS` long
    /// once sized, so a lookup's tag checks stay in L2.
    tags: Vec<u32>,
    /// One bit per slot: its edge's row is stored (the edge has missed
    /// twice since it took the slot).
    held: Vec<u64>,
    /// `EDGE_PROJ_SLOTS / PAGE_SLOTS` pages of rows once sized, each
    /// `None` until a slot in it is filled.
    pages: Vec<Option<Box<[f32]>>>,
    lookups: u64,
    hits: u64,
    filled: usize,
}

impl Slots {
    /// The projection of `eid` at `width` floats, if the table holds it.
    fn get(&self, eid: u32, width: usize) -> Option<&[f32]> {
        let slot = slot_of(eid);
        if self.width != width || self.tags.get(slot) != Some(&eid.wrapping_add(1)) {
            return None;
        }
        if self.held[slot / 64] & 1 << (slot % 64) == 0 {
            return None;
        }
        let page = self.pages[slot / PAGE_SLOTS].as_deref()?;
        Some(&page[slot % PAGE_SLOTS * width..][..width])
    }
}

impl EdgeProjTable {
    /// An empty table; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the `width`-float projections the table holds for `eids`
    /// into `out`, hits first: the hits take rows `0..h` in `eids` order
    /// and the misses rows `h..eids.len()` in reverse order, `row[i]` is
    /// `eids[i]`'s row, and `h` is returned. Misses' rows are left as they
    /// were. A table filled at another width hits nothing.
    pub(crate) fn lookup(&self, eids: &[u32], width: usize, out: &mut [f32], row: &mut [u32]) -> usize {
        let t = &mut *self.edge_proj.lock();
        let (mut hits, mut misses) = (0, 0);
        for (&eid, row) in eids.iter().zip(row.iter_mut()) {
            let r = match t.get(eid, width) {
                Some(p) => {
                    out[hits * width..][..width].copy_from_slice(p);
                    hits += 1;
                    hits - 1
                }
                None => {
                    misses += 1;
                    eids.len() - misses
                }
            };
            *row = r as u32; // lint: allow(lossy-cast, rows of one call are u32-indexed like its slots)
        }
        t.lookups += eids.len() as u64;
        t.hits += hits as u64;
        hits
    }

    /// Offers row `i` of `rows` (`width` floats each), the projection of
    /// `eids[i]`, which missed. Two rules decide what is kept:
    ///
    /// - A slot keeps the newest edge id mapped to it, so the table
    ///   converges on the most recent [`EDGE_PROJ_SLOTS`] edges, the ones
    ///   sampled most; an older edge is not offered the slot.
    /// - An edge that takes a slot is only tagged; its row is stored when
    ///   it misses again. A one-off edge, or an engine that makes a single
    ///   call, then costs 4 bytes of tag and no row.
    ///
    /// The first insert sizes the table; rows of another width are not
    /// stored.
    pub(crate) fn insert(&self, eids: &[u32], width: usize, rows: &[f32]) {
        let t = &mut *self.edge_proj.lock();
        if t.width == 0 {
            t.width = width;
            t.tags = vec![0; EDGE_PROJ_SLOTS];
            t.held = vec![0; EDGE_PROJ_SLOTS / 64];
            t.pages.resize_with(EDGE_PROJ_SLOTS / PAGE_SLOTS, || None);
        }
        if t.width != width {
            return;
        }
        for (&eid, row) in eids.iter().zip(rows.chunks_exact(width)) {
            let (slot, tag) = (slot_of(eid), eid.wrapping_add(1));
            let (word, bit) = (slot / 64, 1u64 << (slot % 64));
            if t.tags[slot] > tag {
                continue;
            }
            if t.tags[slot] < tag {
                t.filled -= usize::from(t.held[word] & bit != 0);
                t.held[word] &= !bit;
                t.tags[slot] = tag;
                continue;
            }
            t.filled += 1;
            t.held[word] |= bit;
            let page = t.pages[slot / PAGE_SLOTS]
                .get_or_insert_with(|| vec![0.0; PAGE_SLOTS * width].into_boxed_slice());
            page[slot % PAGE_SLOTS * width..][..width].copy_from_slice(row);
        }
    }

    /// Lookup, hit and size counters.
    pub fn stats(&self) -> EdgeProjStats {
        let t = self.edge_proj.lock();
        let pages = t.pages.iter().flatten().count();
        let resident_bytes = t.tags.len() * std::mem::size_of::<u32>()
            + t.held.len() * std::mem::size_of::<u64>()
            + pages * PAGE_SLOTS * t.width * std::mem::size_of::<f32>();
        EdgeProjStats { lookups: t.lookups, hits: t.hits, filled: t.filled, resident_bytes }
    }
}

/// One engine's layer-1 edge-projection state: the query every target
/// shares and the per-call buffers of [`EdgeProjector::prepare`], reused
/// across calls. The weights are the layer's [`KvWeights`], which the
/// engine keeps.
#[derive(Debug)]
pub(crate) struct EdgeProjector {
    /// Layer 1's [`zero_h_query`].
    q: Tensor,
    /// Per table slot, the row of the edge last deduplicated there. A mark
    /// left by an earlier call is harmless: it counts only if the current
    /// call's row it names holds the same edge.
    seen: Vec<u32>,
    /// The call's distinct edge ids (padding as edge 0), in first-seen order.
    uniq: Vec<u32>,
    /// Per slot of the call, its edge's index in `uniq`, then its seed row.
    slot_row: Vec<u32>,
    /// Per edge of `uniq`, its seed row.
    row: Vec<u32>,
    /// The edges the table missed, in seed-row order.
    miss: Vec<u32>,
    /// `[uniq.len(), width]` seeds: the table's hits, then the misses.
    rows: Vec<f32>,
}

impl EdgeProjector {
    /// The projector for `params`' layer 1, if it applies: only when the
    /// node-feature table is all zero, so layer 1 never reads `h`.
    pub(crate) fn for_layer1(params: &TgatParams, node_features: &Tensor) -> Option<Self> {
        let layer = params.layers.first()?;
        node_features.as_slice().iter().all(|&v| v == 0.0).then(|| Self {
            q: zero_h_query(layer, &params.cfg, &params.time),
            seen: Vec::new(),
            uniq: Vec::new(),
            slot_row: Vec::new(),
            row: Vec::new(),
            miss: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// Deduplicates `eids` in O(1) per slot with no sort: an edge seen
    /// earlier in the call at its table slot reuses that index; two edges
    /// colliding on one slot each get one (the earlier may get a second).
    fn dedup(&mut self, eids: &[u32]) {
        if self.seen.is_empty() {
            self.seen = vec![0; EDGE_PROJ_SLOTS];
        }
        self.uniq.clear();
        self.slot_row.clear();
        for &eid in eids {
            // Padding reads edge 0's row unseeded; seeded it reads P[0].
            let eid = if eid == INVALID_EDGE { 0 } else { eid };
            let mark = &mut self.seen[slot_of(eid)];
            if self.uniq.get(*mark as usize) != Some(&eid) {
                *mark = self.uniq.len() as u32; // lint: allow(lossy-cast, rows of one call are u32-indexed like its slots)
                self.uniq.push(eid);
            }
            self.slot_row.push(*mark);
        }
    }

    /// Seeds for one layer-1 call's edges, one row per distinct edge: hits
    /// copied from `table` into the first rows, the misses projected from
    /// `edge_features` by layer 1's `kv` into the rest in one matmul fanned
    /// over `helpers`, and then offered to the table. Its lock is held for
    /// the two copies only. Read the seeds with [`Self::seeds`].
    pub(crate) fn prepare(
        &mut self,
        kv: &KvWeights,
        eids: &[u32],
        edge_features: &Tensor,
        table: &EdgeProjTable,
        scratch: &mut Scratch,
        helpers: &mut [Scratch],
    ) {
        self.dedup(eids);
        let (u, w) = (self.uniq.len(), kv.width());
        self.rows.resize(u * w, 0.0);
        self.row.resize(u, 0);
        let hits = table.lookup(&self.uniq, w, &mut self.rows, &mut self.row);
        for r in &mut self.slot_row {
            *r = self.row[*r as usize];
        }
        if hits == u {
            return;
        }
        // The misses take rows `hits..u`, the last of them first.
        self.miss.clear();
        let missed = self.uniq.iter().zip(&self.row).rev().filter(|&(_, &r)| r as usize >= hits);
        self.miss.extend(missed.map(|(&eid, _)| eid));
        let miss = &self.miss;
        let fresh = &mut self.rows[hits * w..];
        kv.project_edges_into(|r| edge_features.row(miss[r] as usize), fresh, scratch, helpers);
        table.insert(miss, w, fresh);
    }

    /// Attention seeds from the last [`Self::prepare`].
    pub(crate) fn seeds(&self) -> EdgeSeeds<'_> {
        EdgeSeeds { q: &self.q, rows: &self.rows, slot_row: &self.slot_row }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[f32], w: usize) -> Vec<f32> {
        vals.iter().flat_map(|&v| vec![v; w]).collect()
    }

    #[test]
    fn a_slot_holds_the_newest_edge_that_missed_twice() {
        let table = EdgeProjTable::new();
        assert_eq!(table.stats(), EdgeProjStats::default());
        let (a, b) = (3u32, 3 + EDGE_PROJ_SLOTS as u32); // one slot
        let (mut out, mut row) = (vec![-1.0; 12], [9; 3]);
        // A first miss only tags the slot.
        table.insert(&[a, 7], 4, &rows(&[1.0, 2.0], 4));
        assert_eq!(table.lookup(&[a, 7], 4, &mut out[..8], &mut row[..2]), 0);
        assert_eq!(table.stats().resident_bytes, EDGE_PROJ_SLOTS * 4 + EDGE_PROJ_SLOTS / 8);
        table.insert(&[a, 7], 4, &rows(&[1.0, 2.0], 4));
        // Hits first, in lookup order, then misses from the back; a miss's
        // row is left as it was.
        out.fill(-1.0);
        assert_eq!(table.lookup(&[a, b, 7], 4, &mut out, &mut row), 2);
        assert_eq!(row, [0, 2, 1]);
        assert_eq!(out, [rows(&[1.0, 2.0], 4), vec![-1.0; 4]].concat());

        // b, newer, takes the slot at its first miss, so a misses; a,
        // older, cannot take it back. The tag, not the slot, decides a hit.
        table.insert(&[b], 4, &rows(&[5.0], 4));
        table.insert(&[a], 4, &rows(&[6.0], 4));
        assert_eq!(table.lookup(&[a, b], 4, &mut out[..8], &mut row[..2]), 0);
        table.insert(&[b], 4, &rows(&[5.0], 4));
        assert_eq!(table.lookup(&[a, b], 4, &mut out[..8], &mut row[..2]), 1);
        assert_eq!(row[..2], [1, 0]);
        assert_eq!(out[..4], [5.0; 4]);
        // Edge 0 and the last edge id a u32 tag can hold are ordinary edges.
        for _ in 0..2 {
            table.insert(&[0, INVALID_EDGE - 1], 4, &rows(&[8.0, 9.0], 4));
        }
        assert_eq!(table.lookup(&[0, INVALID_EDGE - 1], 4, &mut out[..8], &mut row[..2]), 2);
        assert_eq!(out[..8], rows(&[8.0, 9.0], 4));

        let s = table.stats();
        assert_eq!((s.lookups, s.hits, s.filled), (11, 5, 4));
        // The tags and held bits, and two pages: edges 3, 7 and 0 share
        // page 0, and the last id's slot is on the last page.
        assert_eq!(s.resident_bytes, EDGE_PROJ_SLOTS * 4 + EDGE_PROJ_SLOTS / 8 + 2 * PAGE_SLOTS * 4 * 4);
        assert!((s.hit_ratio() - 5.0 / 11.0).abs() < 1e-12);
        // Another width neither hits nor stores.
        for _ in 0..2 {
            table.insert(&[11], 2, &rows(&[1.0], 2));
        }
        assert_eq!(table.lookup(&[11, 7], 2, &mut out[..4], &mut row[..2]), 0);
        assert_eq!(row[..2], [1, 0]);
        assert_eq!(table.stats().filled, 4);
    }

    #[test]
    fn dedup_gives_each_edge_one_row_and_colliding_edges_their_own() {
        let params = TgatParams::init(tgat::TgatConfig::tiny(), 1).unwrap();
        let nf = Tensor::zeros(4, params.cfg.dim);
        let mut p = EdgeProjector::for_layer1(&params, &nf).unwrap();
        let far = 9 + EDGE_PROJ_SLOTS as u32; // collides with 9
        for _ in 0..2 {
            // The second call must not see the first call's marks.
            p.dedup(&[9, 4, INVALID_EDGE, 9, 0, far, 4, far, 9]);
            assert_eq!(p.uniq, [9, 4, 0, far, 9]);
            assert_eq!(p.slot_row, [0, 1, 2, 0, 2, 3, 1, 3, 4]);
        }
    }
}
