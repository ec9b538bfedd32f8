//! Snapshot storage behind the service: the [`SnapshotStore`] trait,
//! the deep-clone conformance baseline, and the **lossless sectioned
//! codec** page-granular stores build on.
//!
//! The paper's claim is that a snapshot should cost O(dirty state), not
//! O(whole state). [`crate::service::SolverService`] therefore talks to
//! its snapshots only through [`SnapshotStore`]: `put` a solved solver
//! (optionally as a delta against its parent snapshot), `get` it back
//! **bit-identical**, `remove` it when the eviction policy says so. The
//! in-crate [`DeepCloneStore`] keeps whole cloned solvers — exactly the
//! pre-store behaviour, retained as the conformance baseline — while
//! `lwsnap-snapstore`'s CoW store lays the encoded state onto the
//! persistent radix page table of `lwsnap-mem` so a child snapshot pays
//! only for the pages it dirtied.
//!
//! ## The codec
//!
//! [`encode`] serializes a [`Solver`] into [`NUM_SECTIONS`] independent
//! byte sections, one per field, so a page-granular store can give each
//! section its own pages: a field that did not change between parent
//! and child produces byte-identical pages at identical addresses, and
//! the store's compare-before-write keeps them physically shared. Three
//! layout rules protect that stability:
//!
//! * **Independent sections** — growth of one section never shifts
//!   another's bytes.
//! * **Essential state only** — purely derived state (watch lists, the
//!   decision heap, the `seen` scratch array) is not serialized at all.
//!   Those structures record the *search path*, not the state, and are
//!   reshuffled wholesale by every solve; [`decode`] rebuilds them with
//!   the derived half of the solver's normalization pass instead.
//! * **Snapshot normal form** — the solver canonicalizes its state after
//!   every solve, an early UNSAT included (clause literals sorted,
//!   watches picked deterministically, stale per-variable fields
//!   zeroed), so the sections that *are* serialized differ between
//!   parent and child only where the state genuinely differs. Every
//!   image is therefore already canonical, and [`decode`] does not
//!   canonicalize again: it returns the encoded solver itself.
//!
//! The encoding is exact for quiescent solvers (decision level 0,
//! propagation complete — the only states the service snapshots): every
//! essential field round-trips bit-for-bit (`f64`s travel as raw bits)
//! and the rebuilt derived state is byte-identical to the live solver's,
//! so a decoded solver replays decisions, propagations and conflicts
//! identically to the original — the property that keeps verdicts AND
//! witnesses bit-identical across store backends.
//!
//! ## One decode path
//!
//! [`decode_from_into`] is the only decoder. It clears and refills each
//! field of a solver the caller keeps, whatever state that held, then
//! rebuilds the derived state in the buffers already there;
//! [`decode_from`] and [`decode`] run it on a fresh solver. The store
//! trait has the same split. [`SnapshotStore::get_into`] restores into
//! the caller's solver; the page store's decodes with this decoder, so
//! once the solver's buffers have grown to fit, it allocates nothing.
//! That is why the service keeps one working solver. [`SnapshotStore::get`]
//! is `get_into` on a fresh solver, so it pays for every buffer again.

use crate::lit::{Lbool, Lit};
use crate::solver::{Solver, SolverStats};

/// Number of sections [`encode`] produces (section 0 is the header).
pub const NUM_SECTIONS: usize = 13;

/// Exact byte length of the header section (section 0): its own length
/// word, the per-section byte-length table, the scalar fields, and the
/// run counters.
pub const HEADER_LEN: usize = 8 + NUM_SECTIONS * 8 + 4 * 8 + 6 * 8 + 1;

// Section indices (section 0 is the header).
const SEC_ARENA: usize = 1;
const SEC_CLAUSES: usize = 2;
const SEC_LEARNTS: usize = 3;
const SEC_LEARNT_ACT: usize = 4;
const SEC_ASSIGNS: usize = 5;
const SEC_LEVEL: usize = 6;
const SEC_REASON: usize = 7;
const SEC_TRAIL: usize = 8;
const SEC_TRAIL_LIM: usize = 9;
const SEC_ACTIVITY: usize = 10;
const SEC_POLARITY: usize = 11;
const SEC_MODEL: usize = 12;

/// Generation-stamped handle to a snapshot inside a [`SnapshotStore`].
///
/// Slots are recycled; the generation makes a stale handle (kept across
/// a `remove`) a detectable dead reference instead of silently aliasing
/// whatever snapshot reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapId {
    idx: u32,
    gen: u32,
}

impl SnapId {
    /// Builds a handle from its raw parts (store implementations only).
    #[inline]
    pub fn new(idx: u32, gen: u32) -> SnapId {
        SnapId { idx, gen }
    }

    /// The slot index.
    #[inline]
    pub fn idx(self) -> u32 {
        self.idx
    }

    /// The slot generation the handle was minted under.
    #[inline]
    pub fn gen(self) -> u32 {
        self.gen
    }
}

/// Physical page accounting of a store, for the residency stats.
///
/// A page is *shared* if more than one resident snapshot maps it,
/// *private* if exactly one does. Stores without page granularity (the
/// deep-clone baseline) report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorePageStats {
    /// Distinct physical pages resident in the store.
    pub total_pages: u64,
    /// Distinct pages mapped by two or more snapshots.
    pub shared_pages: u64,
    /// Distinct pages mapped by exactly one snapshot.
    pub private_pages: u64,
}

/// Cumulative write-path accounting of a store: how much actual page
/// dirtying the snapshots cost. Counters only grow; stores without
/// page granularity report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMemStats {
    /// Shared pages copied on first divergent write (CoW breaks).
    pub cow_page_copies: u64,
    /// Fresh pages materialized from the zero page.
    pub zero_fills: u64,
    /// Bytes written into page frames by snapshot puts.
    pub bytes_written: u64,
    /// Page-table nodes path-copied by snapshot puts. This is memory
    /// `resident_bytes` does not price.
    pub node_copies: u64,
}

/// Storage backend for solver snapshots.
///
/// The contract the service relies on: `get(put(parent, s))` returns a
/// solver **bit-identical** to `s` — same verdicts, same witnesses,
/// same future behaviour — regardless of how the store represents it
/// internally. `parent` is a sharing hint: a page-granular store lays
/// the child over the parent's pages so only the dirtied ones cost
/// memory; a store may ignore it entirely.
pub trait SnapshotStore: Send {
    /// Stores a snapshot of `solver`, optionally as a delta against the
    /// (still-resident) `parent` snapshot.
    fn put(&mut self, parent: Option<SnapId>, solver: &Solver) -> SnapId;

    /// Restores the snapshot into `solver`, whatever it held before.
    /// A store that decodes with [`decode_from_into`] refills the
    /// solver's own buffers, so once they have grown to fit, a restore
    /// allocates nothing. `false` for stale or removed handles, which
    /// leave `solver` as it was.
    fn get_into(&self, id: SnapId, solver: &mut Solver) -> bool;

    /// Reconstructs the snapshot into a fresh solver. `None` for stale
    /// or removed handles.
    fn get(&self, id: SnapId) -> Option<Solver> {
        let mut solver = Solver::new();
        self.get_into(id, &mut solver).then_some(solver)
    }

    /// Drops the snapshot, freeing whatever storage was private to it.
    /// Returns `false` for stale or already-removed handles.
    fn remove(&mut self, id: SnapId) -> bool;

    /// Number of snapshots currently resident.
    fn len(&self) -> usize;

    /// `true` if no snapshots are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Actual bytes held by the store, counting storage shared between
    /// snapshots **once** — the number the eviction budget compares.
    fn resident_bytes(&self) -> usize;

    /// Physical page accounting (zeros for non-page-granular stores).
    fn page_stats(&self) -> StorePageStats {
        StorePageStats::default()
    }

    /// Cumulative write-path accounting (zeros for stores that don't
    /// track page dirtying).
    fn mem_stats(&self) -> StoreMemStats {
        StoreMemStats::default()
    }
}

// ---------------------------------------------------------------------
// Deep-clone baseline store.
// ---------------------------------------------------------------------

/// The conformance baseline: every snapshot is a whole cloned
/// [`Solver`], priced at [`Solver::footprint_bytes`] — exactly what the
/// service did before the store abstraction existed. No sharing, no
/// deltas; `resident_bytes` is the plain sum of footprints.
#[derive(Default)]
pub struct DeepCloneStore {
    slots: Vec<Option<(Solver, usize)>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    total: usize,
    live: usize,
}

impl DeepCloneStore {
    /// An empty store.
    pub fn new() -> DeepCloneStore {
        DeepCloneStore::default()
    }
}

impl SnapshotStore for DeepCloneStore {
    fn put(&mut self, _parent: Option<SnapId>, solver: &Solver) -> SnapId {
        let cost = solver.footprint_bytes();
        self.total += cost;
        self.live += 1;
        let entry = Some((solver.clone(), cost));
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = entry;
                SnapId::new(idx, self.gens[idx as usize])
            }
            None => {
                self.slots.push(entry);
                self.gens.push(0);
                SnapId::new((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    fn get_into(&self, id: SnapId, solver: &mut Solver) -> bool {
        let live = self.gens.get(id.idx() as usize) == Some(&id.gen());
        let slot = self.slots.get(id.idx() as usize).filter(|_| live);
        let Some((stored, _)) = slot.and_then(Option::as_ref) else {
            return false;
        };
        solver.clone_from(stored);
        true
    }

    fn remove(&mut self, id: SnapId) -> bool {
        let Some(&gen) = self.gens.get(id.idx() as usize) else {
            return false;
        };
        if gen != id.gen() {
            return false;
        }
        match self.slots[id.idx() as usize].take() {
            Some((_, cost)) => {
                self.total -= cost;
                self.live -= 1;
                self.gens[id.idx() as usize] = gen.wrapping_add(1);
                self.free.push(id.idx());
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn resident_bytes(&self) -> usize {
        self.total
    }
}

// ---------------------------------------------------------------------
// The sectioned codec.
// ---------------------------------------------------------------------

fn put_u32s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u32>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u64>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn lbool_to_u8(b: Lbool) -> u8 {
    match b {
        Lbool::Undef => 0,
        Lbool::True => 1,
        Lbool::False => 2,
    }
}

fn lbool_from_u8(b: u8) -> Option<Lbool> {
    match b {
        0 => Some(Lbool::Undef),
        1 => Some(Lbool::True),
        2 => Some(Lbool::False),
        _ => None,
    }
}

/// Serializes `solver` into [`NUM_SECTIONS`] byte sections. Section 0
/// is the header (its own length, the per-section length table, the
/// scalar fields); the rest are one field each, at fixed indices, so a
/// page-granular store can give each its own fixed pages.
///
/// The solver must be quiescent (decision level 0, propagation
/// complete) — the state every solve leaves behind and the only state
/// the service snapshots. Derived state (watch lists, decision heap,
/// `seen`) is deliberately not serialized; [`decode`] rebuilds it.
pub fn encode(solver: &Solver) -> Vec<Vec<u8>> {
    let mut sections: [Vec<u8>; NUM_SECTIONS] = Default::default();
    encode_into(solver, &mut sections);
    sections.into()
}

/// [`encode`] into buffers the caller keeps: each vector is cleared and
/// refilled, so a store that encodes on every `put` allocates only when
/// a section outgrows every earlier one.
pub fn encode_into(solver: &Solver, sections: &mut [Vec<u8>; NUM_SECTIONS]) {
    debug_assert!(solver.trail_lim.is_empty(), "encode mid-solve");
    debug_assert_eq!(solver.qhead, solver.trail.len(), "encode mid-propagation");
    for sec in sections.iter_mut() {
        sec.clear();
    }

    put_u32s(&mut sections[SEC_ARENA], solver.arena.iter().copied());
    put_u32s(&mut sections[SEC_CLAUSES], solver.clauses.iter().copied());
    put_u32s(&mut sections[SEC_LEARNTS], solver.learnts.iter().copied());
    put_f64s(&mut sections[SEC_LEARNT_ACT], &solver.learnt_act);
    sections[SEC_ASSIGNS].extend(solver.assigns.iter().map(|&b| lbool_to_u8(b)));
    put_u32s(&mut sections[SEC_LEVEL], solver.level.iter().copied());
    put_u32s(&mut sections[SEC_REASON], solver.reason.iter().copied());
    put_u32s(&mut sections[SEC_TRAIL], solver.trail.iter().map(|l| l.0));
    put_u64s(
        &mut sections[SEC_TRAIL_LIM],
        solver.trail_lim.iter().map(|&v| v as u64),
    );
    put_f64s(&mut sections[SEC_ACTIVITY], &solver.activity);
    sections[SEC_POLARITY].extend(solver.polarity.iter().map(|&b| b as u8));
    sections[SEC_MODEL].extend(solver.model.iter().map(|&b| lbool_to_u8(b)));

    // Header last: it carries every section's final byte length.
    let [header, fields @ ..] = sections;
    header.reserve(HEADER_LEN);
    put_u64s(header, [HEADER_LEN as u64]);
    put_u64s(header, [HEADER_LEN as u64]); // lengths[0] = header itself
    put_u64s(header, fields.iter().map(|sec| sec.len() as u64));
    put_u64s(header, [solver.qhead as u64]);
    put_u64s(header, [solver.var_inc.to_bits()]);
    put_u64s(header, [solver.cla_inc.to_bits()]);
    put_u64s(header, [solver.max_learnts.to_bits()]);
    let st = &solver.stats;
    put_u64s(
        header,
        [
            st.decisions,
            st.propagations,
            st.conflicts,
            st.restarts,
            st.learnt_clauses,
            st.removed_clauses,
        ],
    );
    header.push(solver.ok as u8);
    debug_assert_eq!(header.len(), HEADER_LEN);
}

/// Reads the header's self-declared byte length from its first bytes
/// (≥ 8 required). `None` if the prefix is too short or implausible.
pub fn header_len(prefix: &[u8]) -> Option<usize> {
    let len = u64::from_le_bytes(prefix.get(..8)?.try_into().ok()?) as usize;
    (len == HEADER_LEN).then_some(len)
}

/// Parses the per-section byte-length table out of a full header.
pub fn section_lengths(header: &[u8]) -> Option<[usize; NUM_SECTIONS]> {
    if header.len() < HEADER_LEN || header_len(header).is_none() {
        return None;
    }
    let mut lens = [0usize; NUM_SECTIONS];
    for (i, len) in lens.iter_mut().enumerate() {
        let at = 8 + i * 8;
        *len = u64::from_le_bytes(header[at..at + 8].try_into().unwrap()) as usize;
    }
    (lens[0] == HEADER_LEN).then_some(lens)
}

/// Refills `out` from one section of `W`-byte little-endian words:
/// its declared byte length and its bytes, handed over in consecutive
/// chunks. `false` unless the chunks deliver exactly `len` bytes, a
/// whole number of words, each one valid.
fn fill<'a, T, const W: usize>(
    out: &mut Vec<T>,
    (len, chunks): (usize, impl Iterator<Item = &'a [u8]>),
    word: impl Fn([u8; W]) -> Option<T>,
) -> bool {
    out.clear();
    out.reserve(len / W);
    let mut delivered = 0;
    for chunk in chunks {
        delivered += chunk.len();
        out.extend(
            chunk
                .chunks_exact(W)
                .map_while(|w| word(w.try_into().expect("chunks_exact yields W bytes"))),
        );
    }
    delivered == len && out.len() * W == len
}

/// Validates that every cref in `refs` points at a well-formed clause
/// record inside `arena` (in-bounds, length ≥ 2, the `learnt` header
/// bit matching the list it came from, all literals within `nvars`).
fn validate_crefs(arena: &[u32], refs: &[u32], learnt: bool, nvars: usize) -> bool {
    refs.iter().all(|&cref| {
        let at = cref as usize;
        let Some(&header) = arena.get(at) else {
            return false;
        };
        if (header & 1 != 0) != learnt {
            return false;
        }
        let len = (header >> 1) as usize;
        if len < 2 || at + 1 + len > arena.len() {
            return false;
        }
        arena[at + 1..at + 1 + len]
            .iter()
            .all(|&l| Lit(l).var().index() < nvars)
    })
}

/// Reconstructs a [`Solver`] from sections produced by [`encode`].
/// `None` if the sections are malformed or mutually inconsistent (a
/// corrupted store surfaces as a dead snapshot, never a panic or a
/// silently wrong solver).
///
/// The image must be in snapshot normal form, as every solve leaves a
/// solver (debug builds assert it). Only the derived state — watch
/// lists, the decision heap, the `seen` scratch array — is rebuilt, by
/// the derived half of the solver's normalization pass: a decoded
/// solver is byte-identical to the solver that was encoded.
pub fn decode(sections: &[Vec<u8>]) -> Option<Solver> {
    if sections.len() != NUM_SECTIONS {
        return None;
    }
    decode_from(&sections[0], |idx, _| {
        std::iter::once(sections[idx].as_slice())
    })
}

/// [`decode`] for a store that keeps sections in pieces: `header` is
/// section 0, and `section(idx, len)` yields section `idx`'s `len`
/// bytes (`len` being what the header declares) as consecutive chunks,
/// every chunk but the last a multiple of 8 bytes long — pages, for a
/// page-granular store, which then decodes straight out of its frames.
pub fn decode_from<'a, I>(header: &[u8], section: impl Fn(usize, usize) -> I) -> Option<Solver>
where
    I: Iterator<Item = &'a [u8]>,
{
    let mut solver = Solver::new();
    decode_from_into(header, section, &mut solver).then_some(solver)
}

/// [`decode_from`] into a solver the caller keeps, whatever state it
/// held: every field is cleared and refilled in place, so once the
/// solver's buffers have grown to fit, a restore allocates nothing.
/// `false` if the sections are malformed or mutually inconsistent;
/// `solver` then holds a state the next successful restore overwrites.
pub fn decode_from_into<'a, I>(
    header: &[u8],
    section: impl Fn(usize, usize) -> I,
    solver: &mut Solver,
) -> bool
where
    I: Iterator<Item = &'a [u8]>,
{
    let s = solver;
    let Some(lens) = section_lengths(header).filter(|_| header.len() == HEADER_LEN) else {
        return false;
    };
    // Past the length table: ten scalar words, then the `ok` byte.
    let mut words = header[8 + NUM_SECTIONS * 8..]
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
    let mut word = || words.next().expect("the header holds ten scalar words");
    s.qhead = word() as usize;
    s.var_inc = f64::from_bits(word());
    s.cla_inc = f64::from_bits(word());
    s.max_learnts = f64::from_bits(word());
    s.stats = SolverStats {
        decisions: word(),
        propagations: word(),
        conflicts: word(),
        restarts: word(),
        learnt_clauses: word(),
        removed_clauses: word(),
    };
    s.ok = match header[HEADER_LEN - 1] {
        0 => false,
        1 => true,
        _ => return false,
    };

    let src = |idx: usize| (lens[idx], section(idx, lens[idx]));
    let filled = fill(&mut s.assigns, src(SEC_ASSIGNS), |[b]| lbool_from_u8(b))
        && fill(&mut s.arena, src(SEC_ARENA), |w| {
            Some(u32::from_le_bytes(w))
        })
        && fill(&mut s.clauses, src(SEC_CLAUSES), |w| {
            Some(u32::from_le_bytes(w))
        })
        && fill(&mut s.learnts, src(SEC_LEARNTS), |w| {
            Some(u32::from_le_bytes(w))
        })
        && fill(&mut s.learnt_act, src(SEC_LEARNT_ACT), |w| {
            Some(f64::from_le_bytes(w))
        })
        && fill(&mut s.level, src(SEC_LEVEL), |w| {
            Some(u32::from_le_bytes(w))
        })
        && fill(&mut s.reason, src(SEC_REASON), |w| {
            Some(u32::from_le_bytes(w))
        })
        && fill(&mut s.trail, src(SEC_TRAIL), |w| {
            Some(Lit(u32::from_le_bytes(w)))
        })
        && fill(&mut s.trail_lim, src(SEC_TRAIL_LIM), |w| {
            Some(u64::from_le_bytes(w) as usize)
        })
        && fill(&mut s.activity, src(SEC_ACTIVITY), |w| {
            Some(f64::from_le_bytes(w))
        })
        && fill(&mut s.polarity, src(SEC_POLARITY), |[b]| Some(b != 0))
        && fill(&mut s.model, src(SEC_MODEL), |[b]| lbool_from_u8(b));
    // Cross-field sanity. Per-variable arrays must agree on the variable
    // count; the trail must be a quiescent level-0 prefix (encode only
    // accepts quiescent solvers); every clause reference must point at a
    // well-formed arena record, since the rebuild below walks them to
    // attach the watch lists.
    let nvars = s.assigns.len();
    if !filled
        || s.level.len() != nvars
        || s.reason.len() != nvars
        || s.activity.len() != nvars
        || s.polarity.len() != nvars
        || s.learnt_act.len() != s.learnts.len()
        || !s.trail_lim.is_empty()
        || s.qhead != s.trail.len()
        || s.trail.iter().any(|l| l.var().index() >= nvars)
        || !validate_crefs(&s.arena, &s.clauses, false, nvars)
        || !validate_crefs(&s.arena, &s.learnts, true, nvars)
    {
        return false;
    }
    debug_assert!(
        s.is_canonical(),
        "stored image is not in snapshot normal form"
    );
    // Derived state: sized here, then refilled from the essential
    // state. Watch lists are never dropped, so none loses its capacity.
    let lits = s.watches.len().max(2 * nvars);
    s.watches.resize_with(lits, Vec::new);
    s.seen.resize(nvars, false);
    s.rebuild_derived();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::IncrementalFamily;
    use crate::solver::SolveResult;

    fn worked_solver() -> Solver {
        // A solver with real search history: learnt clauses, bumped
        // activities, saved phases, a non-trivial heap.
        let fam = IncrementalFamily::new(60, 4, 23);
        let mut s = Solver::new();
        for c in &fam.combined(2).clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        s
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let s = worked_solver();
        let enc = encode(&s);
        let back = decode(&enc).expect("own encoding decodes");
        // Bit-identity is checked through the codec itself: identical
        // states must re-encode to identical bytes.
        assert_eq!(encode(&back), enc);
    }

    #[test]
    fn roundtrip_preserves_future_behaviour() {
        let fam = IncrementalFamily::new(60, 4, 23);
        let mut original = worked_solver();
        let mut restored = decode(&encode(&original)).unwrap();
        for i in 0..3 {
            for c in &fam.increment(i) {
                original.add_clause(c);
                restored.add_clause(c);
            }
            let (a, b) = (original.solve(), restored.solve());
            assert_eq!(a, b, "verdicts diverged at increment {i}");
            assert_eq!(original.model(), restored.model(), "witness diverged");
            assert_eq!(original.stats(), restored.stats(), "search diverged");
        }
        assert_eq!(encode(&original), encode(&restored));
    }

    #[test]
    fn empty_solver_roundtrips() {
        let s = Solver::new();
        let enc = encode(&s);
        assert_eq!(enc[0].len(), HEADER_LEN);
        let back = decode(&enc).unwrap();
        assert_eq!(encode(&back), enc);
    }

    #[test]
    fn equal_states_encode_equal() {
        // The point of the snapshot normal form: the same semantic state
        // reached through clone-then-solve re-encodes identically, so a
        // CoW child dirties only the pages of fields that truly changed.
        let s = worked_solver();
        let twice = {
            let mut t = s.clone();
            // Re-solving an already-satisfied formula at quiescence makes
            // no decisions and learns nothing...
            assert_eq!(t.solve(), SolveResult::Sat);
            t
        };
        // ...but does bump the stats; equality must hold section by
        // section for everything except the header.
        let (a, b) = (encode(&s), encode(&twice));
        for i in 1..NUM_SECTIONS {
            assert_eq!(a[i], b[i], "section {i} diverged");
        }
    }

    #[test]
    fn header_tables_are_consistent() {
        let s = worked_solver();
        let enc = encode(&s);
        assert_eq!(header_len(&enc[0]), Some(HEADER_LEN));
        let lens = section_lengths(&enc[0]).unwrap();
        for (sec, &len) in enc.iter().zip(&lens) {
            assert_eq!(sec.len(), len);
        }
    }

    /// [`decode_from_into`] over whole sections, as [`decode`] hands
    /// them on.
    fn decode_into(sections: &[Vec<u8>], target: &mut Solver) -> bool {
        decode_from_into(
            &sections[0],
            |idx, _| std::iter::once(&sections[idx][..]),
            target,
        )
    }

    /// A solver unsatisfiable at level 0: `add_clause`'s own propagation
    /// meets the conflict, and `solve` answers without a search.
    fn unsat_solver() -> Solver {
        let mut s = Solver::new();
        for c in [&[1, 2][..], &[1, -2], &[-1]] {
            let lits: Vec<Lit> = c.iter().map(|&v| Lit::from_dimacs(v)).collect();
            s.add_clause(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        s
    }

    /// The derived state `encode` leaves out: the live literals' watch
    /// lists, the decision heap and `seen`.
    fn derived(s: &Solver) -> String {
        let watches: Vec<Vec<(u32, u32)>> = s.watches[..2 * s.num_vars()]
            .iter()
            .map(|ws| ws.iter().map(|w| (w.cref, w.blocker.0)).collect())
            .collect();
        format!("{watches:?} {:?} {:?}", s.order, s.seen)
    }

    #[test]
    fn restore_into_a_dirty_solver_is_exact() {
        let big = worked_solver();
        let small = {
            let mut s = Solver::new();
            for c in &IncrementalFamily::new(12, 3, 5).combined(1).clauses {
                s.add_clause(c);
            }
            assert_eq!(s.solve(), SolveResult::Sat);
            s
        };
        assert!(big.num_vars() > small.num_vars() && big.learnts.len() > small.learnts.len());
        let cases = [
            ("bigger into smaller", &big, &small),
            ("smaller into bigger", &small, &big),
            ("unsat image", &big, &unsat_solver()),
            ("empty root", &big, &Solver::new()),
            ("into an unsat solver", &unsat_solver(), &big),
        ];
        let fam = IncrementalFamily::new(60, 4, 23);
        for (case, dirty, image) in cases {
            let enc = encode(image);
            let fresh = decode(&enc).unwrap();
            let mut store = DeepCloneStore::new();
            let id = store.put(None, image);
            let mut decoded = dirty.clone();
            let mut cloned = dirty.clone();
            assert!(decode_into(&enc, &mut decoded), "{case}");
            assert!(store.get_into(id, &mut cloned), "{case}");
            // Equal bytes, equal derived state, and so the same clauses
            // on top solve the same way.
            for mut restored in [decoded, cloned] {
                assert_eq!(encode(&restored), enc, "{case}");
                assert_eq!(derived(&restored), derived(&fresh), "{case}");
                let mut reference = fresh.clone();
                for c in &fam.increment(0) {
                    reference.add_clause(c);
                    restored.add_clause(c);
                }
                assert_eq!(reference.solve(), restored.solve(), "{case}");
                assert_eq!(reference.model(), restored.model(), "{case}");
                assert_eq!(reference.stats(), restored.stats(), "{case}");
                assert_eq!(encode(&reference), encode(&restored), "{case}");
            }
        }
    }

    #[test]
    fn corrupt_sections_decode_to_none() {
        let s = worked_solver();
        let enc = encode(&s);
        let corrupt = |f: fn(&mut Vec<Vec<u8>>)| {
            let mut enc = enc.clone();
            f(&mut enc);
            enc
        };
        let corruptions = [
            corrupt(|e| e[SEC_ASSIGNS].push(9)), // a byte past the declared length
            corrupt(|e| e[SEC_ASSIGNS][0] = 9),  // not a valid Lbool
            corrupt(|e| {
                e[SEC_LEVEL].pop(); // per-var array out of step
            }),
            corrupt(|e| e[0][0] = 0xff), // implausible header length
            // Dangling clause reference (same section length, so only
            // the cref validation can catch it).
            corrupt(|e| {
                let last = e[SEC_CLAUSES].len() - 4;
                e[SEC_CLAUSES][last..].copy_from_slice(&u32::MAX.to_le_bytes());
            }),
        ];
        let mut dirty = worked_solver();
        for bad in &corruptions {
            assert!(decode(bad).is_none());
            assert!(!decode_into(bad, &mut dirty));
        }
        assert!(decode(&[]).is_none());
        // A failed restore leaves nothing behind a good one keeps.
        assert!(decode_into(&enc, &mut dirty));
        assert_eq!(encode(&dirty), enc);
    }

    #[test]
    fn deep_clone_store_contract() {
        let mut store = DeepCloneStore::new();
        assert!(store.is_empty());
        let s = worked_solver();
        let id = store.put(None, &s);
        assert_eq!(store.len(), 1);
        assert_eq!(store.resident_bytes(), s.footprint_bytes());
        let back = store.get(id).unwrap();
        assert_eq!(encode(&back), encode(&s));
        assert!(store.remove(id));
        assert!(!store.remove(id), "double remove is detected");
        assert_eq!(store.resident_bytes(), 0);
        // Slot reuse bumps the generation: the stale handle stays dead.
        let id2 = store.put(None, &s);
        assert_eq!(id2.idx(), id.idx(), "slot recycled");
        assert_ne!(id2.gen(), id.gen());
        assert!(store.get(id).is_none(), "stale handle is dead");
        assert!(store.get(id2).is_some());
    }
}
