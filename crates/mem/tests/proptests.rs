//! Property-based tests: the software MMU against a flat reference model.
//!
//! The reference model is a `HashMap<u64, u8>` (sparse byte store) plus the
//! set of mapped ranges. Any divergence between the model and the
//! `AddressSpace` under a random operation sequence is a soundness bug in
//! the page table or the region logic.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use lwsnap_mem::{AddressSpace, Fault, MemStats, PageBuf, PageTable, Prot, RegionKind, PAGE_SIZE};
use proptest::prelude::*;

const BASE: u64 = 0x10_0000;
const PAGES: u64 = 64;

/// Vpns just below a leaf boundary (512), a level-1 boundary (`1 << 18`),
/// a level-2 boundary (`1 << 27`), and a word of a node's occupancy
/// bitmap in a leaf (64) and in a level-1 node (`64 << 9`).
const ORIGINS: [u64; 6] = [
    0,
    64 - 12,
    512 - 12,
    (64 << 9) - 12,
    (1 << 18) - 12,
    (1 << 27) - 12,
];

/// Operations the fuzzer can apply.
#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, data: Vec<u8> },
    Read { off: u64, len: usize },
    Fill { off: u64, byte: u8, len: u64 },
    Snapshot,
    RestoreLatest,
    Unmap { page: u64, pages: u64 },
    Remap { page: u64, pages: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = PAGES * PAGE_SIZE as u64;
    prop_oneof![
        4 => (0..span - 64, proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(off, data)| Op::Write { off, data }),
        3 => (0..span - 64, 1..64usize).prop_map(|(off, len)| Op::Read { off, len }),
        1 => (0..span - 9000, any::<u8>(), 1..9000u64)
            .prop_map(|(off, byte, len)| Op::Fill { off, byte, len }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::RestoreLatest),
        1 => (0..PAGES, 1..4u64).prop_map(|(page, pages)| Op::Unmap { page, pages }),
        1 => (0..PAGES, 1..4u64).prop_map(|(page, pages)| Op::Remap { page, pages }),
    ]
}

/// Vpns 4 below where a node's occupancy bitmap changes word: leaf
/// slots 0, 63/64, 447/448 and 511 (then the next leaf), and level-1
/// slots 63/64.
const NODE_ORIGINS: [u64; 5] = [0, 64 - 4, 448 - 4, 512 - 4, (64 << 9) - 4];

/// Page-table operations for the map-model test.
#[derive(Debug, Clone)]
enum TableOp {
    Write { vpn: u64, byte: u8 },
    Install { vpn: u64, byte: u8 },
    Discard { lo: u64, len: u64 },
    Clone,
}

fn node_vpn() -> impl Strategy<Value = u64> {
    (0..NODE_ORIGINS.len(), 0u64..8).prop_map(|(origin, off)| NODE_ORIGINS[origin] + off)
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        4 => (node_vpn(), any::<u8>()).prop_map(|(vpn, byte)| TableOp::Write { vpn, byte }),
        2 => (node_vpn(), any::<u8>()).prop_map(|(vpn, byte)| TableOp::Install { vpn, byte }),
        2 => (node_vpn(), 0u64..12).prop_map(|(lo, len)| TableOp::Discard { lo, len }),
        1 => (node_vpn(), 0u64..(64 << 9)).prop_map(|(lo, len)| TableOp::Discard { lo, len }),
        1 => Just(TableOp::Clone),
    ]
}

/// Checks every frame's first byte, the walk order and the count.
fn assert_table_is(table: &PageTable, model: &BTreeMap<u64, u8>) {
    let mut walked = Vec::new();
    table.for_each_frame(|vpn, frame| walked.push((vpn, frame.bytes()[0])));
    let expected: Vec<(u64, u8)> = model.iter().map(|(&vpn, &byte)| (vpn, byte)).collect();
    assert_eq!(walked, expected, "for_each_frame order or contents");
    for (&vpn, &byte) in model {
        assert_eq!(
            table.frame(vpn).map(|f| f.bytes()[0]),
            Some(byte),
            "vpn {vpn}"
        );
    }
    assert_eq!(table.count_frames(), model.len() as u64);
}

/// Flat model of memory + mapping state.
#[derive(Clone, Default)]
struct Model {
    bytes: HashMap<u64, u8>,
    mapped: Vec<bool>,
}

impl Model {
    fn new() -> Self {
        Model {
            bytes: HashMap::new(),
            mapped: vec![true; PAGES as usize],
        }
    }

    fn is_mapped(&self, va: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let lo = (va - BASE) / PAGE_SIZE as u64;
        let hi = (va + len - 1 - BASE) / PAGE_SIZE as u64;
        (lo..=hi).all(|p| p < PAGES && self.mapped[p as usize])
    }

    fn read(&self, va: u64) -> u8 {
        *self.bytes.get(&va).unwrap_or(&0)
    }
}

fn apply(
    asp: &mut AddressSpace,
    model: &mut Model,
    snaps: &mut Vec<(AddressSpace, Model)>,
    op: &Op,
) {
    match op {
        Op::Write { off, data } => {
            let va = BASE + off;
            let ok = model.is_mapped(va, data.len() as u64);
            let res = asp.write_bytes(va, data);
            assert_eq!(res.is_ok(), ok, "write mapped-ness mismatch at {va:#x}");
            if ok {
                for (i, &b) in data.iter().enumerate() {
                    model.bytes.insert(va + i as u64, b);
                }
            }
        }
        Op::Read { off, len } => {
            let va = BASE + off;
            let mut buf = vec![0u8; *len];
            let ok = model.is_mapped(va, *len as u64);
            let res = asp.read_bytes(va, &mut buf);
            assert_eq!(res.is_ok(), ok, "read mapped-ness mismatch at {va:#x}");
            if ok {
                for (i, &b) in buf.iter().enumerate() {
                    assert_eq!(
                        b,
                        model.read(va + i as u64),
                        "byte mismatch at {:#x}",
                        va + i as u64
                    );
                }
            }
        }
        Op::Fill { off, byte, len } => {
            let va = BASE + off;
            let ok = model.is_mapped(va, *len);
            let res = asp.fill(va, *byte, *len);
            assert_eq!(res.is_ok(), ok, "fill mapped-ness mismatch at {va:#x}");
            if ok {
                for i in 0..*len {
                    model.bytes.insert(va + i, *byte);
                }
            }
        }
        Op::Snapshot => {
            snaps.push((asp.snapshot(), model.clone()));
        }
        Op::RestoreLatest => {
            if let Some((snap_asp, snap_model)) = snaps.last() {
                *asp = snap_asp.clone();
                *model = snap_model.clone();
            }
        }
        Op::Unmap { page, pages } => {
            let pages = (*pages).min(PAGES - page);
            let va = BASE + page * PAGE_SIZE as u64;
            let res = asp.unmap(va, pages * PAGE_SIZE as u64);
            assert!(res.is_ok(), "unmap of any sub-range must succeed: {res:?}");
            for p in *page..page + pages {
                model.mapped[p as usize] = false;
                let lo = BASE + p * PAGE_SIZE as u64;
                for a in lo..lo + PAGE_SIZE as u64 {
                    model.bytes.remove(&a);
                }
            }
        }
        Op::Remap { page, pages } => {
            let pages = (*pages).min(PAGES - page);
            let all_unmapped = (*page..page + pages).all(|p| !model.mapped[p as usize]);
            let va = BASE + page * PAGE_SIZE as u64;
            let res = asp.map_fixed(
                va,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                RegionKind::Anon,
                "re",
            );
            assert_eq!(
                res.is_ok(),
                all_unmapped,
                "remap success mismatch at page {page}"
            );
            if all_unmapped {
                for p in *page..page + pages {
                    model.mapped[p as usize] = true;
                }
            }
        }
    }
}

/// A fresh 64-page space and the model that matches it.
fn fresh_ram() -> (AddressSpace, Model) {
    let mut asp = AddressSpace::new();
    asp.map_fixed(
        BASE,
        PAGES * PAGE_SIZE as u64,
        Prot::RW,
        RegionKind::Anon,
        "ram",
    )
    .unwrap();
    (asp, Model::new())
}

/// Every page of the range reads through `read` what the model says:
/// its bytes where mapped, a fault where not.
fn assert_pages_match(model: &Model, mut read: impl FnMut(u64, &mut [u8]) -> Result<(), Fault>) {
    let mut image = vec![0u8; (PAGES as usize) * PAGE_SIZE];
    for (&va, &b) in &model.bytes {
        image[(va - BASE) as usize] = b;
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    for (p, expected) in image.chunks(PAGE_SIZE).enumerate() {
        let res = read(BASE + (p * PAGE_SIZE) as u64, &mut buf);
        assert_eq!(res.is_ok(), model.mapped[p], "page {p} mapped-ness");
        if res.is_ok() {
            assert!(buf == expected, "page {p} contents");
        }
    }
}

/// Checks `asp` against the model both ways: by peeking, which reads
/// the page table alone, and by the guest's reads, which go through the
/// leaf and region caches (and leave them warm).
fn assert_matches(asp: &mut AddressSpace, model: &Model) {
    assert_pages_match(model, |va, buf| asp.peek_bytes(va, buf));
    assert_pages_match(model, |va, buf| asp.read_bytes(va, buf));
}

/// The counters two handles must agree on after the same operations.
/// Read-cache hits and misses are left out: a restored handle may keep a
/// warm cache where a fresh clone starts cold.
fn work_done(asp: &AddressSpace) -> MemStats {
    MemStats {
        read_cache_hits: 0,
        read_cache_misses: 0,
        ..*asp.stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences keep the MMU and the flat model in agreement,
    /// including across snapshot/restore.
    #[test]
    fn mmu_matches_flat_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut asp = AddressSpace::new();
        asp.map_fixed(BASE, PAGES * PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "ram").unwrap();
        let mut model = Model::new();
        let mut snaps = Vec::new();
        for op in &ops {
            apply(&mut asp, &mut model, &mut snaps, op);
        }
        // Post: full sweep comparison over mapped pages.
        for p in 0..PAGES {
            if !model.mapped[p as usize] {
                continue;
            }
            let va = BASE + p * PAGE_SIZE as u64;
            let mut buf = vec![0u8; PAGE_SIZE];
            asp.read_bytes(va, &mut buf).unwrap();
            for (i, &b) in buf.iter().enumerate() {
                prop_assert_eq!(b, model.read(va + i as u64));
            }
        }
    }

    /// Every snapshot taken during a random write workload still reads back
    /// exactly the bytes it saw at capture time (immutability).
    #[test]
    fn snapshots_are_immutable(
        writes in proptest::collection::vec(
            (0u64..PAGES * PAGE_SIZE as u64 - 8, any::<u64>()), 1..200),
        snap_every in 1usize..20,
    ) {
        let mut asp = AddressSpace::new();
        asp.map_fixed(BASE, PAGES * PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "ram").unwrap();
        let mut snaps: Vec<(AddressSpace, Vec<(u64, u64)>)> = Vec::new();
        let mut log: Vec<(u64, u64)> = Vec::new();
        for (i, (off, val)) in writes.iter().enumerate() {
            asp.write_u64(BASE + off, *val).unwrap();
            log.push((BASE + off, *val));
            if i % snap_every == 0 {
                snaps.push((asp.snapshot(), log.clone()));
            }
        }
        for (snap, expected_log) in snaps {
            // Replay the log into a map to get last-writer-wins expectations.
            // Overlapping unaligned writes make per-address byte tracking
            // necessary.
            let mut bytes: HashMap<u64, u8> = HashMap::new();
            for (va, val) in &expected_log {
                for (k, b) in val.to_le_bytes().iter().enumerate() {
                    bytes.insert(va + k as u64, *b);
                }
            }
            let mut snap = snap.clone();
            for (&a, &b) in &bytes {
                prop_assert_eq!(snap.read_u8(a).unwrap(), b);
            }
        }
    }

    /// CoW accounting: after a snapshot, writing k distinct pages copies at
    /// most k pages (and exactly k when all pages were materialised).
    #[test]
    fn cow_copies_bounded_by_pages_touched(k in 1u64..40) {
        let mut asp = AddressSpace::new();
        asp.map_fixed(BASE, PAGES * PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "ram").unwrap();
        for p in 0..PAGES {
            asp.write_u64(BASE + p * PAGE_SIZE as u64, p).unwrap();
        }
        let _snap = asp.snapshot();
        let before = *asp.stats();
        for p in 0..k {
            asp.write_u64(BASE + p * PAGE_SIZE as u64, 0xffff).unwrap();
        }
        let d = asp.stats().delta(&before);
        prop_assert_eq!(d.cow_page_copies, k);
        prop_assert_eq!(d.zero_fills, 0);
    }

    /// `discard_range` descends by slot index; a brute-force sweep with
    /// `frame()` says what it must leave behind. Mapped pages cluster
    /// around leaf and level-1 boundaries, where the index arithmetic
    /// can go wrong, and a clone taken first must not notice.
    #[test]
    fn discard_range_matches_a_frame_sweep(
        pages in proptest::collection::vec((0..ORIGINS.len(), 0u64..24), 1..40),
        lo in (0..ORIGINS.len(), 0u64..24),
        len in 0u64..(1 << 18) + 30,
    ) {
        let at = |&(origin, off): &(usize, u64)| ORIGINS[origin] + off;
        let mut stats = MemStats::new();
        let mut table = PageTable::new();
        for page in &pages {
            table.with_frame_mut(at(page), &mut stats, |buf| buf.bytes_mut()[0] = 1);
        }
        let mut mapped: Vec<u64> = pages.iter().map(at).collect();
        mapped.sort_unstable();
        mapped.dedup();
        let (lo, hi) = (at(&lo), at(&lo) + len);
        let keep: Vec<u64> = mapped.iter().copied().filter(|v| !(lo..hi).contains(v)).collect();

        let original = table.clone();
        let discarded = table.discard_range(lo, hi, &mut stats);
        prop_assert_eq!(discarded as usize, mapped.len() - keep.len());
        prop_assert_eq!(table.same_root(&original), discarded == 0);
        let mut left = Vec::new();
        table.for_each_frame(|vpn, _| left.push(vpn));
        prop_assert_eq!(&left, &keep);
        for &vpn in &mapped {
            prop_assert_eq!(table.frame(vpn).is_some(), keep.contains(&vpn));
            prop_assert!(original.frame(vpn).is_some(), "the clone lost vpn {}", vpn);
        }
    }

    /// A node packs its entries by occupancy bitmap, so an entry's index
    /// is the count of occupied slots below it. A `BTreeMap` model says
    /// what every lookup and walk must see, at the slots where that count
    /// crosses a bitmap word; clones taken along the way keep what they
    /// saw, and the sharing queries agree with pointer identity.
    #[test]
    fn page_table_matches_a_map_model(
        ops in proptest::collection::vec(table_op_strategy(), 1..80),
    ) {
        let mut stats = MemStats::new();
        let mut table = PageTable::new();
        let mut model = BTreeMap::new();
        let mut clones: Vec<(PageTable, BTreeMap<u64, u8>)> = Vec::new();
        for op in &ops {
            match *op {
                TableOp::Write { vpn, byte } => {
                    table.with_frame_mut(vpn, &mut stats, |buf| buf.bytes_mut()[0] = byte);
                    model.insert(vpn, byte);
                }
                TableOp::Install { vpn, byte } => {
                    let mut buf = PageBuf::zeroed();
                    buf.bytes_mut()[0] = byte;
                    table.install(vpn, Arc::new(buf), &mut stats);
                    model.insert(vpn, byte);
                }
                TableOp::Discard { lo, len } => {
                    let gone = model.range(lo..lo + len).count() as u64;
                    prop_assert_eq!(table.discard_range(lo, lo + len, &mut stats), gone);
                    model.retain(|vpn, _| !(lo..lo + len).contains(vpn));
                }
                TableOp::Clone => clones.push((table.clone(), model.clone())),
            }
        }
        assert_table_is(&table, &model);
        for (clone, clone_model) in &clones {
            assert_table_is(clone, clone_model);
        }

        // Every frame lives in some table, so a frame is private to
        // `table` exactly when no clone maps the same storage.
        let mut elsewhere = HashSet::new();
        for (clone, _) in &clones {
            clone.for_each_frame(|_, frame| {
                elsewhere.insert(Arc::as_ptr(frame));
            });
        }
        let private = model
            .keys()
            .filter(|&&vpn| !elsewhere.contains(&Arc::as_ptr(table.frame(vpn).unwrap())))
            .count();
        prop_assert_eq!(table.private_frames(), private as u64);
        if let Some((last, _)) = clones.last() {
            let shared = model
                .keys()
                .filter(|&&vpn| {
                    last.frame(vpn)
                        .is_some_and(|f| Arc::ptr_eq(f, table.frame(vpn).unwrap()))
                })
                .count();
            prop_assert_eq!(table.shared_frames_with(last), shared as u64);
        }
        let fork = table.clone();
        prop_assert_eq!(table.private_frames(), 0, "a fresh clone shares everything");
        prop_assert_eq!(table.shared_frames_with(&fork), model.len() as u64);
    }

    /// Restoring a live handle in place from a snapshot leaves it
    /// indistinguishable from a fresh clone of that snapshot: same bytes,
    /// maps, break and counters, and the same behaviour under whatever
    /// comes next. Reads in the last sequence go through the caches the
    /// restore chose to keep, so a stale leaf or region cache shows as
    /// a byte mismatch against the model.
    #[test]
    fn restore_from_matches_a_fresh_clone(
        before in proptest::collection::vec(op_strategy(), 0..40),
        between in proptest::collection::vec(op_strategy(), 0..40),
        after in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let (mut live, mut model) = fresh_ram();
        let mut snaps = Vec::new();
        for op in &before {
            apply(&mut live, &mut model, &mut snaps, op);
        }
        let snap = live.snapshot();
        let snap_model = model.clone();
        let (snap_maps, snap_stats) = (snap.render_maps(), *snap.stats());
        for op in &between {
            apply(&mut live, &mut model, &mut snaps, op);
        }
        // Warm the live handle's caches on what it maps now.
        assert_matches(&mut live, &model);

        live.restore_from(&snap);
        let mut clone = snap.clone();
        prop_assert_eq!(live.render_maps(), clone.render_maps());
        prop_assert_eq!(live.current_brk(), clone.current_brk());
        prop_assert_eq!(live.stats(), clone.stats());
        assert_matches(&mut live, &snap_model);
        assert_matches(&mut clone, &snap_model);

        let (mut live_model, mut clone_model) = (snap_model.clone(), snap_model.clone());
        let (mut live_snaps, mut clone_snaps) = (Vec::new(), Vec::new());
        for op in &after {
            apply(&mut live, &mut live_model, &mut live_snaps, op);
            apply(&mut clone, &mut clone_model, &mut clone_snaps, op);
        }
        assert_matches(&mut live, &live_model);
        assert_matches(&mut clone, &clone_model);
        prop_assert_eq!(live.render_maps(), clone.render_maps());
        prop_assert_eq!(live.current_brk(), clone.current_brk());
        prop_assert_eq!(work_done(&live), work_done(&clone));

        assert_pages_match(&snap_model, |va, buf| snap.peek_bytes(va, buf));
        prop_assert_eq!(snap.render_maps(), snap_maps);
        prop_assert_eq!(*snap.stats(), snap_stats);
    }
}
