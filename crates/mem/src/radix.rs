//! The persistent radix page table.
//!
//! A 4-level, 512-way radix tree maps 36-bit virtual page numbers (48-bit
//! addresses) to [`Frame`]s — the same shape as an x86-64 hardware page
//! table, which is what the paper's Dune libOS manipulates through nested
//! paging.
//!
//! The tree is *persistent* (in the functional-data-structure sense):
//! interior nodes and frames are shared via `Arc`. Taking a snapshot of an
//! address space clones the root `Arc` — O(1) regardless of how much memory
//! is mapped. A subsequent write path-copies at most [`LEVELS`] nodes and
//! copies at most one 4 KiB frame; untouched subtrees remain shared between
//! all snapshots, byte-for-byte and pointer-for-pointer. This reproduces, in
//! software, the CoW fault behaviour the paper gets from hardware paging.
//!
//! A node holds only its present entries (an occupancy bitmap plus a packed
//! array, see `Slots`), so it costs 120 bytes plus 8 per entry rather
//! than 512 slots of 8 bytes. Copying a path therefore costs the entries
//! the copied nodes map — allocation, slot copies and reference-count
//! bumps alike — and so does freeing one: a fault in a small address space
//! copies a handful of entries next to its 4 KiB frame.

use std::ops::Range;
use std::sync::Arc;

use crate::page::{fresh_zero_frame, Frame, PageBuf};
use crate::stats::MemStats;

/// Number of radix levels (level 0 is the leaf level).
pub const LEVELS: u32 = 4;

/// Log2 of the node fan-out.
pub const FANOUT_SHIFT: u32 = 9;

/// Node fan-out (entries per node).
pub const FANOUT: usize = 1 << FANOUT_SHIFT;

/// Number of virtual-page-number bits the tree can map.
pub const VPN_BITS: u32 = LEVELS * FANOUT_SHIFT;

/// Highest mappable virtual page number (inclusive).
pub const MAX_VPN: u64 = (1u64 << VPN_BITS) - 1;

/// Returns the slot index of `vpn` at `level`.
#[inline]
fn slot(vpn: u64, level: u32) -> usize {
    ((vpn >> (FANOUT_SHIFT * level)) & (FANOUT as u64 - 1)) as usize
}

/// Number of pages covered by one entry of a node at `level`.
#[inline]
fn span(level: u32) -> u64 {
    1u64 << (FANOUT_SHIFT * level)
}

/// Words in a node's occupancy bitmap.
const WORDS: usize = FANOUT / 64;

/// The entries of one node, sized to what it holds: a [`FANOUT`]-bit
/// occupancy bitmap and the present entries packed in slot order. The
/// entry for slot `i` sits at index [`Slots::rank`]`(i)`, the number of
/// occupied slots below `i` (Bagwell's array-mapped trie). Cloning,
/// growing and dropping a node cost the entries it holds, never the
/// fan-out.
#[derive(Clone)]
pub(crate) struct Slots<T> {
    bits: [u64; WORDS],
    /// `below[w]`: occupied slots in the words before `w`, so a rank
    /// costs one popcount however high its slot.
    below: [u16; WORDS],
    items: Box<[T]>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            bits: [0; WORDS],
            below: [0; WORDS],
            items: Box::default(),
        }
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn has(&self, slot: usize) -> bool {
        self.bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Number of occupied slots below `slot`; `slot` may be [`FANOUT`].
    fn rank(&self, slot: usize) -> usize {
        let (word, bit) = (slot / 64, slot % 64);
        match self.bits.get(word) {
            Some(w) => usize::from(self.below[word]) + (w & ((1 << bit) - 1)).count_ones() as usize,
            None => self.items.len(),
        }
    }

    /// Recomputes `below` after `bits` changed.
    fn recount(&mut self) {
        let mut n = 0;
        for (below, word) in self.below.iter_mut().zip(self.bits) {
            *below = n;
            n += word.count_ones() as u16;
        }
    }

    fn get(&self, slot: usize) -> Option<&T> {
        self.has(slot).then(|| &self.items[self.rank(slot)])
    }

    /// The entry at `slot`, inserting `make()` there first if it is vacant.
    fn get_or_insert_with(&mut self, slot: usize, make: impl FnOnce() -> T) -> &mut T {
        let idx = self.rank(slot);
        if !self.has(slot) {
            self.insert_vacant(slot, idx, make());
        }
        &mut self.items[idx]
    }

    /// Puts `value` at `slot`, replacing any entry there.
    fn insert(&mut self, slot: usize, value: T) {
        let idx = self.rank(slot);
        if self.has(slot) {
            self.items[idx] = value;
        } else {
            self.insert_vacant(slot, idx, value);
        }
    }

    /// Grows the item array by exactly one, putting `value` at `idx`.
    fn insert_vacant(&mut self, slot: usize, idx: usize, value: T) {
        self.bits[slot / 64] |= 1 << (slot % 64);
        self.recount();
        let mut items = Vec::with_capacity(self.items.len() + 1);
        let mut old = std::mem::take(&mut self.items).into_vec().into_iter();
        items.extend(old.by_ref().take(idx));
        items.push(value);
        items.extend(old);
        self.items = items.into_boxed_slice();
    }

    /// Keeps only the entries for which `keep(slot, entry)` holds.
    fn retain(&mut self, mut keep: impl FnMut(usize, &mut T) -> bool) {
        let mut slots = occupied(self.bits);
        let mut items = std::mem::take(&mut self.items).into_vec();
        items.retain_mut(|item| {
            let slot = slots.next().expect("one occupied slot per entry");
            let kept = keep(slot, item);
            if !kept {
                self.bits[slot / 64] &= !(1 << (slot % 64));
            }
            kept
        });
        self.items = items.into_boxed_slice();
        self.recount();
    }

    /// The entries with their slots, in slot order.
    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        occupied(self.bits).zip(self.items.iter())
    }
}

/// The set bits of `bits`, ascending.
fn occupied(bits: [u64; WORDS]) -> impl Iterator<Item = usize> {
    (0..WORDS).flat_map(move |word| {
        let mut rest = bits[word];
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                word * 64 + bit
            })
        })
    })
}

/// One node of the radix tree.
#[derive(Clone)]
pub(crate) enum Node {
    /// Levels 3..1: pointers to child nodes.
    Interior(Slots<Arc<Node>>),
    /// Level 0: pointers to frames.
    Leaf(Slots<Frame>),
}

impl Node {
    fn new_for_level(level: u32) -> Node {
        if level == 0 {
            Node::Leaf(Slots::new())
        } else {
            Node::Interior(Slots::new())
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Interior(slots) => slots.is_empty(),
            Node::Leaf(frames) => frames.is_empty(),
        }
    }

    /// The frame a leaf maps at `slot`.
    pub(crate) fn frame(&self, slot: usize) -> Option<&Frame> {
        match self {
            Node::Leaf(frames) => frames.get(slot),
            Node::Interior(_) => unreachable!("frame lookup in an interior node"),
        }
    }
}

/// A persistent map from virtual page numbers to frames.
///
/// Cloning is O(1) and shares all structure; mutation copies only the
/// nodes along the touched path (and the touched frame, if shared).
#[derive(Clone)]
pub struct PageTable {
    root: Arc<Node>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            root: Arc::new(Node::new_for_level(LEVELS - 1)),
        }
    }

    /// Returns `true` if the two tables share their entire structure.
    pub fn same_root(&self, other: &PageTable) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// The leaf covering `vpn`, if that leaf exists.
    fn leaf(&self, vpn: u64) -> Option<&Arc<Node>> {
        debug_assert!(vpn <= MAX_VPN);
        let mut node: &Arc<Node> = &self.root;
        for level in (1..LEVELS).rev() {
            match &**node {
                Node::Interior(slots) => node = slots.get(slot(vpn, level))?,
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        Some(node)
    }

    /// Looks up the frame mapped at `vpn`, if one has been materialised.
    ///
    /// Demand-zero pages that were never written have no frame and return
    /// `None`; the caller reads zeroes for them.
    pub fn frame(&self, vpn: u64) -> Option<&Frame> {
        self.leaf(vpn)?.frame(slot(vpn, 0))
    }

    /// Returns the leaf node covering `vpn`, for the read-side leaf cache.
    pub(crate) fn leaf_for(&self, vpn: u64) -> Option<Arc<Node>> {
        self.leaf(vpn).cloned()
    }

    /// Gives mutable access to the frame at `vpn`, materialising the path
    /// and a zero frame as needed, with CoW on shared nodes/frames.
    ///
    /// `stats` records node copies, CoW page copies and zero fills.
    pub fn with_frame_mut<R>(
        &mut self,
        vpn: u64,
        stats: &mut MemStats,
        f: impl FnOnce(&mut PageBuf) -> R,
    ) -> R {
        let frame = self
            .leaf_mut(vpn, stats)
            .get_or_insert_with(slot(vpn, 0), || {
                stats.zero_fills += 1;
                fresh_zero_frame()
            });
        if Arc::strong_count(frame) > 1 {
            stats.cow_page_copies += 1;
        }
        f(Arc::make_mut(frame))
    }

    /// Maps `vpn` directly to `frame`, replacing any existing mapping.
    ///
    /// Used by loaders to install pre-built pages without a CoW copy.
    pub fn install(&mut self, vpn: u64, frame: Frame, stats: &mut MemStats) {
        self.leaf_mut(vpn, stats).insert(slot(vpn, 0), frame);
    }

    /// The frames of the leaf covering `vpn`, private to this table:
    /// materialises the path as needed and copies each shared node on it
    /// (counted in `stats.node_copies`).
    fn leaf_mut(&mut self, vpn: u64, stats: &mut MemStats) -> &mut Slots<Frame> {
        debug_assert!(vpn <= MAX_VPN);
        let mut cur: &mut Arc<Node> = &mut self.root;
        for level in (1..LEVELS).rev() {
            if Arc::strong_count(cur) > 1 {
                stats.node_copies += 1;
            }
            match Arc::make_mut(cur) {
                Node::Interior(slots) => {
                    cur = slots.get_or_insert_with(slot(vpn, level), || {
                        Arc::new(Node::new_for_level(level - 1))
                    });
                }
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        if Arc::strong_count(cur) > 1 {
            stats.node_copies += 1;
        }
        match Arc::make_mut(cur) {
            Node::Leaf(frames) => frames,
            Node::Interior(_) => unreachable!("interior at level 0"),
        }
    }

    /// Discards all frames with vpn in `[lo, hi)`, pruning empty subtrees.
    ///
    /// Costs the nodes on the paths to the range's two ends plus the
    /// slots between them; a node is copied (and its frames' reference
    /// counts touched) only if a frame under it is actually discarded,
    /// so a discard that finds nothing leaves the table sharing its
    /// whole structure with its clones.
    ///
    /// Returns the number of frames discarded (recorded in
    /// `stats.pages_discarded` as well).
    pub fn discard_range(&mut self, lo: u64, hi: u64, stats: &mut MemStats) -> u64 {
        let hi = hi.min(MAX_VPN + 1);
        if lo >= hi {
            return 0;
        }
        let discarded = discard_rec(&mut self.root, LEVELS - 1, 0, lo, hi, stats);
        stats.pages_discarded += discarded;
        discarded
    }

    /// Number of frames only this table keeps alive — exactly the frames
    /// dropping it would free.
    ///
    /// A node another table also references keeps everything beneath it
    /// alive, so shared subtrees are skipped whole: the cost is the
    /// nodes private to this table, not the table. (Exact while no
    /// reference to a node or frame is held outside a table.)
    pub fn private_frames(&self) -> u64 {
        private_rec(&self.root)
    }

    /// Calls `f` for every materialised frame, in ascending vpn order.
    pub fn for_each_frame(&self, mut f: impl FnMut(u64, &Frame)) {
        for_each_rec(&self.root, LEVELS - 1, 0, &mut f);
    }

    /// Number of materialised frames.
    pub fn count_frames(&self) -> u64 {
        let mut n = 0;
        self.for_each_frame(|_, _| n += 1);
        n
    }

    /// Number of frames whose storage is pointer-identical in `other` at the
    /// same vpn — i.e. physically shared between the two tables.
    pub fn shared_frames_with(&self, other: &PageTable) -> u64 {
        let mut n = 0;
        self.for_each_frame(|vpn, frame| {
            if let Some(o) = other.frame(vpn) {
                if Arc::ptr_eq(frame, o) {
                    n += 1;
                }
            }
        });
        n
    }

    /// Produces a deep copy in which every frame is freshly allocated.
    ///
    /// This is the "full checkpoint" baseline of experiment E3: cost is
    /// proportional to the number of resident pages.
    pub fn deep_copy(&self) -> PageTable {
        let mut out = PageTable::new();
        let mut scratch = MemStats::new();
        self.for_each_frame(|vpn, frame| {
            out.install(
                vpn,
                Arc::new(PageBuf((*frame.bytes()).to_owned())),
                &mut scratch,
            );
        });
        out
    }
}

/// The slots of a node at `level` based at `base` that `[lo, hi)`
/// overlaps. The caller guarantees the overlap is not empty.
fn slot_range(level: u32, base: u64, lo: u64, hi: u64) -> Range<usize> {
    let shift = FANOUT_SHIFT * level;
    let first = (lo.max(base) - base) >> shift;
    let last = (hi.min(base + span(level + 1)) - 1 - base) >> shift;
    first as usize..last as usize + 1
}

/// Whether any frame with vpn in `[lo, hi)` is mapped under `node`.
fn any_mapped(node: &Node, level: u32, base: u64, lo: u64, hi: u64) -> bool {
    let range = slot_range(level, base, lo, hi);
    match node {
        Node::Leaf(frames) => frames.rank(range.end) > frames.rank(range.start),
        Node::Interior(slots) => slots.iter().any(|(i, child)| {
            range.contains(&i)
                && any_mapped(child, level - 1, base + i as u64 * span(level), lo, hi)
        }),
    }
}

fn discard_rec(
    node: &mut Arc<Node>,
    level: u32,
    base: u64,
    lo: u64,
    hi: u64,
    stats: &mut MemStats,
) -> u64 {
    // Look before copying: a shared node is only worth a private copy
    // if something under it is going away.
    if !any_mapped(node, level, base, lo, hi) {
        return 0;
    }
    if Arc::strong_count(node) > 1 {
        stats.node_copies += 1;
    }
    let range = slot_range(level, base, lo, hi);
    let mut discarded = 0u64;
    match Arc::make_mut(node) {
        Node::Interior(slots) => {
            let child_span = span(level);
            slots.retain(|i, child| {
                if !range.contains(&i) {
                    return true;
                }
                let child_lo = base + i as u64 * child_span;
                if lo <= child_lo && child_lo + child_span <= hi {
                    discarded += count_rec(child);
                    return false;
                }
                let n = discard_rec(child, level - 1, child_lo, lo, hi, stats);
                discarded += n;
                n == 0 || !child.is_empty()
            });
        }
        Node::Leaf(frames) => frames.retain(|i, _| {
            let dropped = range.contains(&i);
            discarded += u64::from(dropped);
            !dropped
        }),
    }
    discarded
}

fn count_rec(node: &Node) -> u64 {
    match node {
        Node::Interior(slots) => slots.items.iter().map(|child| count_rec(child)).sum(),
        Node::Leaf(frames) => frames.items.len() as u64,
    }
}

fn private_rec(node: &Arc<Node>) -> u64 {
    if Arc::strong_count(node) > 1 {
        return 0;
    }
    match &**node {
        Node::Interior(slots) => slots.items.iter().map(private_rec).sum(),
        Node::Leaf(frames) => frames
            .items
            .iter()
            .filter(|frame| Arc::strong_count(frame) == 1)
            .count() as u64,
    }
}

fn for_each_rec(node: &Arc<Node>, level: u32, base: u64, f: &mut impl FnMut(u64, &Frame)) {
    match &**node {
        Node::Interior(slots) => {
            let child_span = span(level);
            for (i, child) in slots.iter() {
                for_each_rec(child, level - 1, base + i as u64 * child_span, f);
            }
        }
        Node::Leaf(frames) => {
            for (i, frame) in frames.iter() {
                f(base + i as u64, frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_byte(pt: &mut PageTable, vpn: u64, off: usize, val: u8, stats: &mut MemStats) {
        pt.with_frame_mut(vpn, stats, |page| page.bytes_mut()[off] = val);
    }

    fn read_byte(pt: &PageTable, vpn: u64, off: usize) -> u8 {
        pt.frame(vpn).map(|f| f.bytes()[off]).unwrap_or(0)
    }

    #[test]
    fn empty_table_reads_nothing() {
        let pt = PageTable::new();
        assert!(pt.frame(0).is_none());
        assert!(pt.frame(MAX_VPN).is_none());
        assert_eq!(pt.count_frames(), 0);
    }

    #[test]
    fn write_then_read_back() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 5, 100, 0xab, &mut stats);
        assert_eq!(read_byte(&pt, 5, 100), 0xab);
        assert_eq!(read_byte(&pt, 5, 101), 0);
        assert_eq!(stats.zero_fills, 1);
        assert_eq!(stats.cow_page_copies, 0);
        assert_eq!(pt.count_frames(), 1);
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        // vpns differing at the top level.
        let far = 1u64 << (FANOUT_SHIFT * 3);
        write_byte(&mut pt, 0, 0, 1, &mut stats);
        write_byte(&mut pt, far, 0, 2, &mut stats);
        assert_eq!(read_byte(&pt, 0, 0), 1);
        assert_eq!(read_byte(&pt, far, 0), 2);
        assert_eq!(pt.count_frames(), 2);
    }

    #[test]
    fn snapshot_is_o1_and_isolated() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 7, 0, 11, &mut stats);
        let snap = pt.clone();
        assert!(snap.same_root(&pt));

        write_byte(&mut pt, 7, 0, 99, &mut stats);
        assert_eq!(read_byte(&pt, 7, 0), 99);
        assert_eq!(read_byte(&snap, 7, 0), 11, "snapshot must be immutable");
        assert!(!snap.same_root(&pt));
        assert_eq!(stats.cow_page_copies, 1);
        assert_eq!(stats.node_copies, LEVELS as u64, "one copy per level");
    }

    #[test]
    fn untouched_pages_stay_shared_after_snapshot() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..100 {
            write_byte(&mut pt, vpn, 0, vpn as u8, &mut stats);
        }
        let snap = pt.clone();
        write_byte(&mut pt, 3, 0, 0xff, &mut stats);
        // 99 of 100 frames still physically shared.
        assert_eq!(pt.shared_frames_with(&snap), 99);
        // And the data of untouched pages matches.
        for vpn in 0..100 {
            if vpn != 3 {
                assert_eq!(read_byte(&pt, vpn, 0), vpn as u8);
            }
        }
    }

    #[test]
    fn second_write_after_cow_is_free() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 1, 0, 1, &mut stats);
        let _snap = pt.clone();
        write_byte(&mut pt, 1, 0, 2, &mut stats);
        let copies_after_first = stats.cow_page_copies;
        write_byte(&mut pt, 1, 1, 3, &mut stats);
        assert_eq!(
            stats.cow_page_copies, copies_after_first,
            "page now unique; no more copies"
        );
    }

    #[test]
    fn discard_range_removes_and_prunes() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..10 {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        let n = pt.discard_range(2, 5, &mut stats);
        assert_eq!(n, 3);
        assert_eq!(stats.pages_discarded, 3);
        assert_eq!(pt.count_frames(), 7);
        assert!(pt.frame(2).is_none());
        assert!(pt.frame(5).is_some());
    }

    #[test]
    fn discard_whole_subtree() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        let base = 1u64 << (FANOUT_SHIFT * 2);
        for i in 0..600u64 {
            write_byte(&mut pt, base + i, 0, 1, &mut stats);
        }
        // Covers more than one full leaf node.
        let n = pt.discard_range(base, base + 600, &mut stats);
        assert_eq!(n, 600);
        assert_eq!(pt.count_frames(), 0);
    }

    #[test]
    fn discard_does_not_affect_snapshot() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 4, 0, 7, &mut stats);
        let snap = pt.clone();
        pt.discard_range(0, 100, &mut stats);
        assert!(pt.frame(4).is_none());
        assert_eq!(read_byte(&snap, 4, 0), 7);
    }

    #[test]
    fn discard_of_the_whole_space_empties_the_table() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for &vpn in &[0u64, 513, 1 << 27, MAX_VPN] {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        assert_eq!(pt.discard_range(0, MAX_VPN + 1, &mut stats), 4);
        assert_eq!(pt.count_frames(), 0);
    }

    /// One frame in each of three leaves: under separate level-1 nodes
    /// (`near`, `far`) and under a separate level-2 node (`other`).
    fn three_leaf_table(stats: &mut MemStats) -> (PageTable, [u64; 3]) {
        let vpns = [7, 1 << (FANOUT_SHIFT * 2), 1 << (FANOUT_SHIFT * 3)];
        let mut pt = PageTable::new();
        for &vpn in &vpns {
            write_byte(&mut pt, vpn, 0, 1, stats);
        }
        (pt, vpns)
    }

    #[test]
    fn empty_discard_copies_nothing_and_keeps_the_root_shared() {
        let mut stats = MemStats::new();
        let (pt, [near, far, other]) = three_leaf_table(&mut stats);
        let mut fork = pt.clone();
        let before = stats;
        // Partially covers the root, both level-2 nodes, a level-1 node
        // and `near`'s leaf, and fully covers thousands of empty slots:
        // nothing mapped anywhere in it.
        assert_eq!(fork.discard_range(near + 1, far, &mut stats), 0);
        assert_eq!(fork.discard_range(far + 1, other, &mut stats), 0);
        assert_eq!(fork.discard_range(other + 1, MAX_VPN + 1, &mut stats), 0);
        assert_eq!(stats.delta(&before), MemStats::new());
        assert!(fork.same_root(&pt), "an empty discard must not fork");
        let held = Arc::strong_count(pt.frame(near).unwrap());
        assert_eq!(held, 1, "no leaf was copied, so no frame was re-counted");
    }

    #[test]
    fn partial_discard_copies_only_the_path_to_what_it_drops() {
        let mut stats = MemStats::new();
        let (pt, [near, far, other]) = three_leaf_table(&mut stats);
        let mut fork = pt.clone();
        let before = stats;
        // The range spans `near`'s whole level-1 node and stops just
        // short of `far`: only `near`'s frame is mapped inside it.
        assert_eq!(fork.discard_range(near, far, &mut stats), 1);
        let d = stats.delta(&before);
        // Root, `near`'s level-2 and level-1 nodes, and its leaf.
        assert_eq!(d.node_copies, u64::from(LEVELS));
        assert!(fork.frame(near).is_none());
        assert!(pt.frame(near).is_some(), "the original is untouched");
        for vpn in [far, other] {
            assert!(
                Arc::ptr_eq(fork.frame(vpn).unwrap(), pt.frame(vpn).unwrap()),
                "frames outside the range stay shared"
            );
        }
        // `far` sits under the copied level-2 node but its own level-1
        // node and leaf were not copied: still one reference per leaf.
        assert_eq!(Arc::strong_count(pt.frame(far).unwrap()), 1);
    }

    #[test]
    fn private_frames_are_what_a_drop_frees() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..10 {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        assert_eq!(pt.private_frames(), 10);
        let mut fork = pt.clone();
        assert_eq!(fork.private_frames(), 0, "shares its root");
        // One page diverges, one is new: the fork owns exactly those.
        write_byte(&mut fork, 3, 0, 2, &mut stats);
        write_byte(&mut fork, 600, 0, 2, &mut stats);
        assert_eq!(fork.private_frames(), 2);
        assert_eq!(pt.private_frames(), 1, "only the page the fork replaced");
        drop(fork);
        assert_eq!(pt.private_frames(), 10);
    }

    #[test]
    fn install_replaces_frame() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        let mut buf = PageBuf::zeroed();
        buf.bytes_mut()[0] = 0x55;
        pt.install(9, Arc::new(buf), &mut stats);
        assert_eq!(read_byte(&pt, 9, 0), 0x55);
        assert_eq!(stats.zero_fills, 0, "install is not a zero fill");
    }

    #[test]
    fn for_each_frame_in_order() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for &vpn in &[10u64, 2, 77, 3000] {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        let mut seen = Vec::new();
        pt.for_each_frame(|vpn, _| seen.push(vpn));
        assert_eq!(seen, vec![2, 10, 77, 3000]);
    }

    #[test]
    fn deep_copy_shares_nothing() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..20 {
            write_byte(&mut pt, vpn, 0, vpn as u8, &mut stats);
        }
        let copy = pt.deep_copy();
        assert_eq!(copy.count_frames(), 20);
        assert_eq!(copy.shared_frames_with(&pt), 0);
        for vpn in 0..20 {
            assert_eq!(read_byte(&copy, vpn, 0), vpn as u8);
        }
    }

    #[test]
    fn max_vpn_is_mappable() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, MAX_VPN, 4095, 0xee, &mut stats);
        assert_eq!(read_byte(&pt, MAX_VPN, 4095), 0xee);
    }
}
