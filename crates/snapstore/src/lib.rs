//! # lwsnap-snapstore — page-granular CoW snapshot store
//!
//! Stores solver snapshots on the persistent radix page table of
//! `lwsnap-mem`, so a snapshot costs O(pages dirtied since its parent)
//! instead of O(whole solver state) — the paper's core cost model
//! applied to the solver service's own snapshot cache.
//!
//! ## How a snapshot becomes pages
//!
//! [`CowStore::put`] encodes the solver through the sectioned codec of
//! `lwsnap_solver::snapshot` (essential state only, every field in its
//! own section; the solver's *snapshot normal form* makes semantically
//! equal states byte-equal), then lays the bytes over a **clone of the
//! parent snapshot's page table** — an O(1) persistent fork. Each 4 KiB
//! page is compared before it is written: a page whose bytes match the
//! parent's stays physically shared, a page of zeroes with no backing
//! frame stays demand-zero, and only genuinely dirtied pages get fresh
//! frames. The result is structural parent-delta storage without an
//! explicit delta chain.
//!
//! The sections are **interleaved page by page**: page `p` of section
//! `s` lives at vpn `p · 16 + s` (16 slots ≥ the codec's 13 sections).
//! One 512-entry leaf therefore holds pages 0–31 of *every* section, so
//! a solver whose sections fit in 32 pages each lives in one leaf under
//! one path of three interior nodes — 4 table nodes in all — and a
//! section's growth never shifts another's pages:
//!
//! ```text
//!   vpn      0    1      2          12    13–15  16     17      18
//!   root   [H ][arena][clauses]…[model]  free  [    ][arena][clauses]…
//!   child  [H'][arena][clauses]…[model]        [    ][A    ][clauses]…
//!            ▲ page 0 of each section ─┘        page 1 of each section
//!   every frame the child maps is the root's except H' and A
//! ```
//!
//! Removal (eviction or release) drops the victim's table; frames only
//! it referenced are freed by refcount, frames shared with relatives
//! survive. Releasing every intermediate of a linear chain therefore
//! *compacts* the chain automatically: the surviving descendant keeps
//! exactly the union of pages it still maps, nothing else.
//!
//! [`CowStore::resident_bytes`] counts **distinct frames** across all
//! resident snapshots — shared storage priced once — which is what the
//! service's `snapshot_budget_bytes` compares against; with sharing,
//! the same budget holds many times more snapshots than the deep-clone
//! baseline (the `snapstore_density` bench asserts ≥ 5×).
//!
//! ## What each operation costs
//!
//! The store's own bookkeeping follows the same cost model as its
//! storage — proportional to the pages that changed, not to the table:
//!
//! * `put` encodes into buffers it keeps, compares each page against
//!   the parent's frame, installs the `k` dirtied pages — path-copying
//!   each leaf they fall in and the interior nodes above it, so 4
//!   table nodes when they all fall in the first 32 pages of their
//!   sections — and discards a tail only where a section got shorter
//!   than the parent's header says it was.
//! * `get_into` decodes straight out of the mapped frames into the
//!   caller's solver, clearing and refilling its buffers, and rebuilds
//!   only the derived state: the image is already in normal form. Once
//!   the solver's buffers fit, it allocates nothing. `get` is the same
//!   into a fresh solver, which allocates every buffer.
//! * `remove` counts the frames the victim alone kept alive by walking
//!   only the table nodes private to it, then drops the table.
//! * `resident_bytes` is a running count those two maintain: O(1).
//!   The walk over every resident frame survives only behind
//!   [`CowStore::page_stats`], which also checks the running count
//!   against it in debug builds.
//!
//! Table nodes are **not** priced: `resident_bytes` counts frames only,
//! while every `put` also allocates the nodes it path-copies — 4 for a
//! small solver, each 120 B plus 8 B per entry it maps, since a node
//! holds only its present entries. `MemStats::node_copies` counts them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use lwsnap_mem::{MemStats, PageBuf, PageTable, PAGE_SIZE};
use lwsnap_solver::snapshot::{
    self, SnapId, SnapshotStore, StoreMemStats, StorePageStats, HEADER_LEN, NUM_SECTIONS,
};
use lwsnap_solver::Solver;

/// Vpns per page row: page `p` of section `s` lives at vpn `p · ROW +
/// s`. A power of two no smaller than `NUM_SECTIONS`, so each 512-entry
/// leaf holds the same 32 pages of every section, and a section's
/// growth never shifts another's pages.
const ROW: u64 = 16;
const _: () = assert!(NUM_SECTIONS as u64 <= ROW);

/// Where page `page` of section `sec_idx` lives.
fn vpn(sec_idx: usize, page: usize) -> u64 {
    page as u64 * ROW + sec_idx as u64
}

/// Page-granular copy-on-write snapshot store.
///
/// Each resident snapshot is one persistent [`PageTable`] holding the
/// snapshot's encoded state; tables forked from a parent share every
/// frame the child did not dirty. See the crate docs for the layout.
pub struct CowStore {
    slots: Vec<Option<PageTable>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    stats: MemStats,
    /// Distinct frames mapped by the resident tables, maintained by
    /// `put` (frames installed) and `remove` (frames that die with the
    /// victim) so that pricing never walks a table.
    frames: u64,
    /// `put`'s encode buffers, one per section, kept between calls.
    scratch: [Vec<u8>; NUM_SECTIONS],
}

impl Default for CowStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CowStore {
    /// An empty store.
    pub fn new() -> CowStore {
        CowStore {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            stats: MemStats::new(),
            frames: 0,
            scratch: Default::default(),
        }
    }

    /// Cumulative MMU counters: CoW page copies, zero fills and bytes
    /// written by snapshot encoding (the "what was copied, when" the
    /// benches assert on).
    pub fn mem_stats(&self) -> MemStats {
        self.stats
    }

    fn table(&self, id: SnapId) -> Option<&PageTable> {
        if *self.gens.get(id.idx() as usize)? != id.gen() {
            return None;
        }
        self.slots[id.idx() as usize].as_ref()
    }

    /// Lays one encoded section over `table` (a fork of `parent`) at
    /// its page slots. Pages whose bytes match the parent's stay shared
    /// with it, all-zero pages with no frame stay demand-zero, the rest
    /// get fresh frames. `parent_len` is the section's byte length in
    /// the parent (0 without one).
    fn write_section(
        parent: &PageTable,
        table: &mut PageTable,
        stats: &mut MemStats,
        sec_idx: usize,
        bytes: &[u8],
        parent_len: usize,
    ) {
        for (page, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
            let vpn = vpn(sec_idx, page);
            let frame = parent.frame(vpn);
            let clean = match frame {
                Some(frame) => {
                    // A frame is zero past its section's end, so its
                    // tail needs a look only where the parent's section
                    // reached further into this page than `chunk` does.
                    let (head, tail) = frame.bytes().split_at(chunk.len());
                    let end = page * PAGE_SIZE + chunk.len();
                    head == chunk && (parent_len <= end || tail.iter().all(|&b| b == 0))
                }
                None => chunk.iter().all(|&b| b == 0),
            };
            if clean {
                continue;
            }
            // `install` with a fresh frame rather than `with_frame_mut`:
            // the old shared frame must not be copied first just to be
            // overwritten. Bill the page copy / zero fill ourselves
            // (install only counts node copies).
            if frame.is_some() {
                stats.cow_page_copies += 1;
            } else {
                stats.zero_fills += 1;
            }
            stats.bytes_written += chunk.len() as u64;
            let mut buf = PageBuf::zeroed();
            buf.bytes_mut()[..chunk.len()].copy_from_slice(chunk);
            table.install(vpn, Arc::new(buf), stats);
        }
        // Pages past the section's new end are stale parent state (the
        // section shrank, e.g. a reduced learnt database): drop them so
        // reads see zeroes. The parent mapped nothing past its own end.
        for page in bytes.len().div_ceil(PAGE_SIZE)..parent_len.div_ceil(PAGE_SIZE) {
            let vpn = vpn(sec_idx, page);
            table.discard_range(vpn, vpn + 1, stats);
        }
    }

    /// Section `sec_idx`'s `len` bytes in `table`, page by page;
    /// unmapped (demand-zero) pages read as zeroes.
    fn section_pages(table: &PageTable, sec_idx: usize, len: usize) -> impl Iterator<Item = &[u8]> {
        static ZEROES: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        (0..len.div_ceil(PAGE_SIZE)).map(move |page| {
            let bytes = table
                .frame(vpn(sec_idx, page))
                .map_or(&ZEROES, |f| f.bytes());
            &bytes[..PAGE_SIZE.min(len - page * PAGE_SIZE)]
        })
    }

    /// The header section of a snapshot's table. Its length words are
    /// never zero, so every snapshot maps its header page.
    fn header(table: &PageTable) -> Option<&[u8]> {
        Some(&table.frame(vpn(0, 0))?.bytes()[..HEADER_LEN])
    }
}

impl SnapshotStore for CowStore {
    fn put(&mut self, parent: Option<SnapId>, solver: &Solver) -> SnapId {
        snapshot::encode_into(solver, &mut self.scratch);
        // Both O(1) forks: `parent` is what pages are compared against,
        // `table` is what the new snapshot keeps.
        let parent = parent
            .and_then(|id| self.table(id).cloned())
            .unwrap_or_default();
        let parent_lens = Self::header(&parent)
            .and_then(snapshot::section_lengths)
            .unwrap_or([0; NUM_SECTIONS]);
        let mut table = parent.clone();
        let before = self.stats;
        for (i, sec) in self.scratch.iter().enumerate() {
            Self::write_section(&parent, &mut table, &mut self.stats, i, sec, parent_lens[i]);
        }
        // Every installed frame is new; the frames it replaced, and the
        // ones a shrink discarded, are still the parent's.
        let wrote = self.stats.delta(&before);
        self.frames += wrote.cow_page_copies + wrote.zero_fills;
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(table);
                SnapId::new(idx, self.gens[idx as usize])
            }
            None => {
                self.slots.push(Some(table));
                self.gens.push(0);
                SnapId::new((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    fn get_into(&self, id: SnapId, solver: &mut Solver) -> bool {
        let Some(table) = self.table(id) else {
            return false;
        };
        Self::header(table).is_some_and(|header| {
            let pages = |sec_idx, len| Self::section_pages(table, sec_idx, len);
            snapshot::decode_from_into(header, pages, solver)
        })
    }

    fn remove(&mut self, id: SnapId) -> bool {
        let Some(&gen) = self.gens.get(id.idx() as usize) else {
            return false;
        };
        if gen != id.gen() || self.slots[id.idx() as usize].is_none() {
            return false;
        }
        // Dropping the table frees every frame only it referenced;
        // frames shared with parent/children survive by refcount —
        // chain compaction for free.
        let table = self.slots[id.idx() as usize].take().expect("checked above");
        self.frames -= table.private_frames();
        drop(table);
        self.gens[id.idx() as usize] = gen.wrapping_add(1);
        self.free.push(id.idx());
        self.live -= 1;
        // Debug builds check the running count against the full walk
        // (the assertion is `page_stats`' own).
        #[cfg(debug_assertions)]
        self.page_stats();
        true
    }

    fn len(&self) -> usize {
        self.live
    }

    fn resident_bytes(&self) -> usize {
        self.frames as usize * PAGE_SIZE
    }

    fn page_stats(&self) -> StorePageStats {
        // Key frames by allocation address: `Arc::ptr_eq` at scale.
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for table in self.slots.iter().flatten() {
            table.for_each_frame(|_, frame| {
                *counts.entry(Arc::as_ptr(frame) as usize).or_insert(0) += 1;
            });
        }
        let total = counts.len() as u64;
        let shared = counts.values().filter(|&&c| c > 1).count() as u64;
        debug_assert_eq!(total, self.frames, "running frame count drifted");
        StorePageStats {
            total_pages: total,
            shared_pages: shared,
            private_pages: total - shared,
        }
    }

    fn mem_stats(&self) -> StoreMemStats {
        StoreMemStats {
            cow_page_copies: self.stats.cow_page_copies,
            zero_fills: self.stats.zero_fills,
            bytes_written: self.stats.bytes_written,
            node_copies: self.stats.node_copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwsnap_mem::radix::{FANOUT, LEVELS};
    use lwsnap_solver::generators::{random_ksat, IncrementalFamily};
    use lwsnap_solver::snapshot::encode;
    use lwsnap_solver::{Lit, SolveResult};

    fn worked_solver(seed: u64) -> Solver {
        let fam = IncrementalFamily::new(80, 4, seed);
        let mut s = Solver::new();
        for c in &fam.combined(2).clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        s
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mut store = CowStore::new();
        let s = worked_solver(3);
        let id = store.put(None, &s);
        let back = store.get(id).expect("resident snapshot");
        assert_eq!(encode(&back), encode(&s), "store must be lossless");
    }

    #[test]
    fn stale_and_removed_handles_are_dead() {
        let mut store = CowStore::new();
        let s = worked_solver(4);
        let id = store.put(None, &s);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.get(id).is_none());
        let id2 = store.put(None, &s);
        assert_eq!(id2.idx(), id.idx(), "slot recycled");
        assert!(store.get(id).is_none(), "old generation stays dead");
        assert!(store.get(id2).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn child_shares_pages_with_parent() {
        let fam = IncrementalFamily::new(80, 4, 5);
        let mut store = CowStore::new();
        let mut s = worked_solver(5);
        let parent = store.put(None, &s);
        let parent_bytes = store.resident_bytes();

        for c in &fam.increment(2) {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let child = store.put(Some(parent), &s);

        let ps = store.page_stats();
        assert!(ps.shared_pages > 0, "child shares pages: {ps:?}");
        let both = store.resident_bytes();
        assert!(
            both - parent_bytes < parent_bytes,
            "child delta ({} bytes) must undercut a full copy ({parent_bytes})",
            both - parent_bytes
        );
        // Both read back exactly.
        assert_eq!(encode(&store.get(child).unwrap()), encode(&s));
        assert!(store.get(parent).is_some());
    }

    #[test]
    fn unrelated_put_without_parent_shares_nothing() {
        let mut store = CowStore::new();
        let a = store.put(None, &worked_solver(6));
        let _b = store.put(None, &worked_solver(7));
        let ps = store.page_stats();
        assert_eq!(ps.shared_pages, 0, "no parent hint, no sharing: {ps:?}");
        assert!(store.get(a).is_some());
    }

    #[test]
    fn removing_intermediate_compacts_the_chain() {
        // A → B → C, then drop B: C must stay bit-identical and the
        // pages private to B must be freed (resident shrinks).
        let fam = IncrementalFamily::new(80, 4, 8);
        let mut store = CowStore::new();
        let mut s = Solver::new();
        for c in &fam.base().clauses {
            s.add_clause(c);
        }
        s.solve();
        let a = store.put(None, &s);
        for c in &fam.increment(0) {
            s.add_clause(c);
        }
        s.solve();
        let b = store.put(Some(a), &s);
        for c in &fam.increment(1) {
            s.add_clause(c);
        }
        s.solve();
        let c_enc = {
            let id = store.put(Some(b), &s);
            let with_b = store.resident_bytes();
            assert!(store.remove(b));
            let without_b = store.resident_bytes();
            assert!(
                without_b <= with_b,
                "dropping an intermediate never grows residency"
            );
            encode(&store.get(id).unwrap())
        };
        assert_eq!(c_enc, encode(&s), "compacted chain still bit-identical");
        assert!(store.get(a).is_some(), "ancestor unaffected");
    }

    #[test]
    fn many_children_cost_deltas_not_copies() {
        // The density claim at unit scale: N children of one parent
        // must cost far less than N independent copies. Needs a state
        // big enough (dozens of pages) that the per-child floor of a
        // few pages — header, section tails, polarity, model — is small
        // against the whole; easy under-constrained 3-SAT keeps the
        // solving itself cheap.
        let vars = 1500;
        let mut store = CowStore::new();
        let mut base = Solver::new();
        for c in &random_ksat(vars, vars * 2, 3, 9).clauses {
            base.add_clause(c);
        }
        assert_eq!(base.solve(), SolveResult::Sat);
        let parent = store.put(None, &base);
        let one = store.resident_bytes();
        for i in 0..6 {
            let mut child = base.clone();
            for c in &random_ksat(vars, 4, 3, 1000 + i).clauses {
                child.add_clause(c);
            }
            assert_eq!(child.solve(), SolveResult::Sat);
            store.put(Some(parent), &child);
        }
        let all = store.resident_bytes();
        assert!(
            all < one * 3,
            "7 snapshots at {all} bytes vs {one} for one — deltas, not copies"
        );
        // Most of the parent's pages are mapped by every child: the
        // shared set must cover over half the single-snapshot size.
        // (Private pages legitimately accumulate too — each child owns
        // its few delta pages.)
        let ps = store.page_stats();
        assert!(
            ps.shared_pages as usize * PAGE_SIZE > one / 2,
            "parent bulk is shared: {ps:?}, one={one}"
        );
    }

    #[test]
    fn shrinking_sections_leave_no_stale_tail() {
        // Encode a big solver as parent, then a *smaller* one as its
        // child: pages past the child's section ends must read as
        // zeroes, not leftover parent bytes.
        let mut store = CowStore::new();
        let big = worked_solver(10);
        let parent = store.put(None, &big);
        let small = {
            let mut s = Solver::new();
            for c in &IncrementalFamily::new(10, 3, 11).base().clauses {
                s.add_clause(c);
            }
            s.solve();
            s
        };
        let child = store.put(Some(parent), &small);
        assert_eq!(encode(&store.get(child).unwrap()), encode(&small));

        // All the way down: every section but the header shrinks to
        // zero length, so the header page is all the child may map.
        let empty = Solver::new();
        let hollow = store.put(Some(parent), &empty);
        assert_eq!(encode(&store.get(hollow).unwrap()), encode(&empty));
        assert_eq!(store.table(hollow).unwrap().count_frames(), 1);
        // And back up: a grandchild regrows every section over the
        // hollow one, sharing nothing stale and nothing with `parent`.
        let regrown = store.put(Some(hollow), &big);
        assert_eq!(encode(&store.get(regrown).unwrap()), encode(&big));
        assert_eq!(
            store.table(regrown).unwrap().count_frames(),
            store.table(parent).unwrap().count_frames()
        );
        assert_eq!(encode(&store.get(parent).unwrap()), encode(&big));
        assert_eq!(
            store.resident_bytes(),
            store.page_stats().total_pages as usize * PAGE_SIZE
        );
    }

    #[test]
    fn child_put_copies_only_the_paths_to_its_dirty_pages() {
        // Big enough that sections span several pages each.
        let vars = 1500;
        let mut base = Solver::new();
        for c in &random_ksat(vars, vars * 2, 3, 12).clauses {
            base.add_clause(c);
        }
        assert_eq!(base.solve(), SolveResult::Sat);
        let mut store = CowStore::new();
        let parent = store.put(None, &base);

        let mut child = store.get(parent).unwrap();
        for c in &random_ksat(vars, 600, 3, 13).clauses {
            child.add_clause(c);
        }
        assert_eq!(child.solve(), SolveResult::Sat);
        let (old, new) = (encode(&base), encode(&child));
        let (mut pages, mut sections) = (0, 0);
        for (old, new) in old.iter().zip(&new) {
            assert!(
                new.len() >= old.len(),
                "nothing shrinks, nothing to discard"
            );
            let dirty = (0..new.len().div_ceil(PAGE_SIZE))
                .filter(|&p| page(old, p) != page(new, p))
                .count() as u64;
            pages += dirty;
            sections += u64::from(dirty > 0);
        }
        assert!(
            sections >= 2 && pages > sections,
            "{pages} pages, {sections} sections"
        );

        let before = store.mem_stats();
        let id = store.put(Some(parent), &child);
        let d = store.mem_stats().delta(&before);
        assert_eq!(
            d.cow_page_copies + d.zero_fills,
            pages,
            "exactly the pages that differ"
        );
        // Every section stays within its first 32 pages, which all share
        // one leaf: one path, however many sections were touched.
        assert!(
            d.node_copies <= u64::from(LEVELS),
            "{} node copies for {pages} pages in {sections} sections",
            d.node_copies
        );
        assert_eq!(d.pages_discarded, 0);
        assert_eq!(encode(&store.get(id).unwrap()), new);
    }

    /// Page `p` of an encoded section, zero-padded past its end.
    fn page(sec: &[u8], p: usize) -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        let bytes = sec.chunks(PAGE_SIZE).nth(p).unwrap_or(&[]);
        buf[..bytes.len()].copy_from_slice(bytes);
        buf
    }

    #[test]
    fn a_section_past_one_leaf_shares_and_shrinks_across_the_boundary() {
        // Ratio-3 3-SAT over 3000 variables: the clause arena runs past
        // the 32 pages of it one leaf holds.
        let vars = 3000;
        let mut base = Solver::new();
        for c in &random_ksat(vars, vars * 3, 3, 14).clauses {
            base.add_clause(c);
        }
        assert_eq!(base.solve(), SolveResult::Sat);
        let old = encode(&base);
        let leaf_pages = FANOUT / ROW as usize;
        assert!(old.iter().any(|sec| sec.len() > leaf_pages * PAGE_SIZE));
        let mut store = CowStore::new();
        let parent = store.put(None, &base);
        assert_eq!(encode(&store.get(parent).unwrap()), old);

        // A child with a few clauses more: in either leaf, a page is the
        // parent's frame exactly when its bytes are the parent's.
        let mut child = base.clone();
        for c in &random_ksat(vars, 8, 3, 15).clauses {
            child.add_clause(c);
        }
        assert_eq!(child.solve(), SolveResult::Sat);
        let new = encode(&child);
        let id = store.put(Some(parent), &child);
        assert_eq!(encode(&store.get(id).unwrap()), new);
        let (pt, ct) = (store.table(parent).unwrap(), store.table(id).unwrap());
        let mut shared_past_the_first_leaf = 0;
        for (s, (o, n)) in old.iter().zip(&new).enumerate() {
            for p in 0..n.len().div_ceil(PAGE_SIZE) {
                let v = vpn(s, p);
                let shared = match (pt.frame(v), ct.frame(v)) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    (None, None) => true,
                    _ => false,
                };
                assert_eq!(shared, page(o, p) == page(n, p), "section {s} page {p}");
                shared_past_the_first_leaf += usize::from(shared && p >= leaf_pages);
            }
        }
        assert!(shared_past_the_first_leaf > 0);

        // A smaller solver as the big one's child: every page past each
        // section's new end, the second leaf's included, is gone.
        let mut small = Solver::new();
        for c in &random_ksat(vars / 2, vars, 3, 16).clauses {
            small.add_clause(c);
        }
        assert_eq!(small.solve(), SolveResult::Sat);
        let small_enc = encode(&small);
        let one_leaf = leaf_pages * PAGE_SIZE;
        assert!(old
            .iter()
            .zip(&small_enc)
            .any(|(o, n)| o.len() > one_leaf && n.len() <= one_leaf));
        let shrunk = store.put(Some(parent), &small);
        assert_eq!(encode(&store.get(shrunk).unwrap()), small_enc);
        let st = store.table(shrunk).unwrap();
        for (s, (o, n)) in old.iter().zip(&small_enc).enumerate() {
            for p in n.len().div_ceil(PAGE_SIZE)..o.len().div_ceil(PAGE_SIZE) {
                assert!(st.frame(vpn(s, p)).is_none(), "stale section {s} page {p}");
            }
        }
        assert_eq!(
            store.resident_bytes(),
            store.page_stats().total_pages as usize * PAGE_SIZE
        );
    }

    /// (1 ∨ 2), (1 ∨ ¬2), then ¬1: `add_clause`'s own propagation
    /// meets the conflict, permuting clause literals on the way, and
    /// `solve` answers UNSAT without a search.
    fn unsat_solver() -> Solver {
        let mut s = Solver::new();
        for c in [&[1, 2][..], &[1, -2], &[-1]] {
            let lits: Vec<Lit> = c.iter().map(|&v| Lit::from_dimacs(v)).collect();
            s.add_clause(&lits);
        }
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
        s
    }

    #[test]
    fn a_solver_unsat_at_level_zero_roundtrips_bit_identically() {
        let s = unsat_solver();
        let mut store = CowStore::new();
        let id = store.put(None, &s);
        assert_eq!(encode(&store.get(id).unwrap()), encode(&s));
    }

    #[test]
    fn get_into_a_dirty_solver_matches_a_fresh_get() {
        // Sections over several pages against ones within a page.
        let mut big = Solver::new();
        for c in &random_ksat(1500, 3000, 3, 17).clauses {
            big.add_clause(c);
        }
        assert_eq!(big.solve(), SolveResult::Sat);
        let small = worked_solver(18);
        let mut store = CowStore::new();
        let ids = [
            store.put(None, &big),
            store.put(None, &small),
            store.put(None, &unsat_solver()),
            store.put(None, &Solver::new()),
        ];
        // Every snapshot restored over every other one, the working
        // solver carried along as the service carries its own.
        let mut work = Solver::new();
        for from in ids {
            for to in ids {
                assert!(store.get_into(from, &mut work));
                assert!(store.get_into(to, &mut work));
                let fresh = store.get(to).unwrap();
                assert_eq!(encode(&work), encode(&fresh), "{from:?} then {to:?}");
                // The derived state matches too: the same clauses on
                // top solve the same way.
                let (mut a, mut b) = (work.clone(), fresh);
                for c in &random_ksat(80, 6, 3, 19).clauses {
                    a.add_clause(c);
                    b.add_clause(c);
                }
                assert_eq!(a.solve(), b.solve());
                assert_eq!((a.model(), a.stats()), (b.model(), b.stats()));
            }
        }
        assert!(store.remove(ids[0]));
        assert!(
            !store.get_into(ids[0], &mut work),
            "a removed handle is dead"
        );
    }
}
