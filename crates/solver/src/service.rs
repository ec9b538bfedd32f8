//! The multi-path incremental solver service (paper §3.2).
//!
//! "One could use lightweight snapshots directly to create a multi-path
//! incremental SAT/SMT solver service, built using a single-path
//! incremental solver. The service waits for client requests consisting
//! of an opaque reference to a previously solved problem `p` and an
//! incremental constraint `q`, and returns the solution to `p∧q` together
//! with an opaque reference to that new problem."
//!
//! This module is that service. The "lightweight snapshot" of a solved
//! problem is a clone of the solver state — clause database, *learnt
//! clauses*, variable activities, saved phases — so every child query
//! starts from all the inference its parent already performed. The
//! from-scratch baseline (`solve_scratch`) re-derives everything, which is
//! exactly the waste experiment E5 quantifies.
//!
//! ## Memory bound and eviction
//!
//! Snapshots are cheap relative to solving but not free: a long-running
//! service accumulating one solver clone per query would grow without
//! bound. [`SolverService::set_snapshot_budget`] arms an LRU eviction
//! policy: while the bytes of *resident* solver snapshots exceed the
//! budget, the least-recently-used unpinned snapshot is dropped. The
//! node itself survives as a skeleton — its constraint edge, result and
//! parent link — so a later query against an evicted problem is answered
//! by **replaying its constraint path from the nearest resident
//! ancestor**: the paper's system-level-backtracking trick applied to the
//! service's own memory budget. The root is always resident, so replay
//! always terminates. [`SolverService::stats`] counts snapshot hits against
//! re-derivations (and the conflicts re-derivation cost), which is the
//! service-level analogue of experiment E5.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lwsnap_trace::{self as trace, StatsSummary};

use crate::lit::Lit;
use crate::snapshot::{DeepCloneStore, SnapId, SnapshotStore, StorePageStats};
use crate::solver::{SolveResult, Solver, SolverStats};

/// Opaque reference to a previously solved problem in the service's tree.
///
/// Problem slots are recycled once released, so the reference carries
/// the slot's generation beside the slot: a reference kept across its
/// slot's reuse is a detectable dead reference, not an alias of the
/// problem that took the slot over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemRef(u32);

/// Low bits of a [`ProblemRef`] naming its slot; the high bits carry
/// the slot's generation. Bounds a service to 2^16 problem slots.
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// The last generation a reference can carry. A slot released at it is
/// retired for good rather than wrapped back to generation 0.
const MAX_GEN: u32 = u32::MAX >> SLOT_BITS;

impl ProblemRef {
    fn new(slot: u32, gen: u32) -> ProblemRef {
        debug_assert!(slot <= SLOT_MASK && gen <= MAX_GEN);
        ProblemRef(gen << SLOT_BITS | slot)
    }

    fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }

    fn gen(self) -> u32 {
        self.0 >> SLOT_BITS
    }

    /// The slot and generation behind the reference, packed.
    ///
    /// Exposed so distributed front-ends (the sharded service) can embed
    /// the reference in a wire-level id; within one service instance the
    /// reference should stay opaque.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a reference from [`ProblemRef::index`]. The caller is
    /// responsible for only rebuilding indices obtained from the same
    /// service instance.
    #[inline]
    pub fn from_index(index: u32) -> ProblemRef {
        ProblemRef(index)
    }
}

struct ProblemNode {
    /// Handle to the solved snapshot in the store; `None` once evicted
    /// (re-derivable by replay).
    snap: Option<SnapId>,
    parent: Option<ProblemRef>,
    /// The constraint edge: clauses added on top of `parent` to form
    /// this problem. Retained after eviction and release so descendants
    /// stay derivable.
    constraint: Vec<Vec<Lit>>,
    result: SolveResult,
    depth: u32,
    /// Direct children still occupying slots (live or tombstoned).
    /// A released node with no children is reaped outright, cascading
    /// up through released ancestors — so leaf-release traffic does not
    /// accumulate tombstones.
    children: u32,
    /// Released nodes are tombstones: invisible to queries, but their
    /// constraint edge still carries replay for live descendants.
    released: bool,
    /// Pinned nodes are never evicted (the root is implicitly pinned).
    pinned: bool,
    /// LRU stamp (service-wide logical clock).
    last_use: u64,
}

/// A multi-path incremental SAT service.
pub struct SolverService {
    /// Problem slots: `None` once reaped, until the free list hands the
    /// slot to a new problem.
    nodes: Vec<Option<ProblemNode>>,
    /// Each slot's current generation; a retired slot's is past
    /// `MAX_GEN`, which no reference carries.
    gens: Vec<u32>,
    /// Reaped slots awaiting reuse, most recently freed last.
    free: Vec<u32>,
    /// Where resident snapshots actually live: the deep-clone baseline
    /// by default, or a page-granular CoW store
    /// ([`SolverService::with_store`]). Residency counts and the byte
    /// budget are the store's own accounting, so shared pages are
    /// priced once.
    store: Box<dyn SnapshotStore>,
    /// The counters this shard owns (queries, hits, re-derivations,
    /// evictions); [`SolverService::stats`] adds the store's levels.
    stats: StatsSummary,
    /// Maximum bytes of resident solver snapshots (`None` = unbounded).
    /// The LRU evicts by *cost*: a few huge snapshots go before many
    /// tiny ones.
    budget: Option<usize>,
    /// Logical clock for LRU stamps.
    clock: u64,
    /// Lazy-deletion min-heap of `(last_use, index)` eviction
    /// candidates: while a budget is set every residency touch pushes
    /// a fresh entry; stale entries (stamp no longer matching the node)
    /// are discarded on pop, and swept out whenever they outnumber the
    /// resident snapshots two to one. Keeps victim selection O(log n)
    /// amortised instead of a full-table scan per eviction, and the
    /// heap O(resident). Empty while no budget is set.
    lru: BinaryHeap<Reverse<(u64, u32)>>,
    /// The one working solver every query restores its parent into and
    /// solves in. Queries run one at a time, so one is enough. Its
    /// buffers outlive each query, so a store that refills them, as the
    /// page store does, restores a hit without allocating once they fit.
    work: Solver,
}

/// Whether heap entry `(stamp, index)` still names an eviction
/// candidate: a resident, unpinned node not touched since the push.
fn is_candidate(nodes: &[Option<ProblemNode>], stamp: u64, index: u32) -> bool {
    nodes
        .get(index as usize)
        .and_then(Option::as_ref)
        .is_some_and(|n| n.snap.is_some() && !n.pinned && n.last_use == stamp)
}

impl Default for SolverService {
    fn default() -> Self {
        Self::new()
    }
}

/// Reply to a [`SolverService::solve`] request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Opaque reference to the new problem `p∧q`.
    pub problem: ProblemRef,
    /// SAT/UNSAT.
    pub result: SolveResult,
    /// The model, if SAT.
    pub model: Option<Vec<bool>>,
    /// Conflicts this query cost (the incremental-saving metric).
    pub conflicts: u64,
    /// `true` if the parent snapshot had been evicted and was re-derived
    /// by constraint replay to serve this query.
    pub rederived: bool,
}

impl SolverService {
    /// Creates a service containing only the empty root problem, with no
    /// memory bound, backed by the deep-clone conformance store.
    pub fn new() -> Self {
        Self::with_store(Box::new(DeepCloneStore::new()))
    }

    /// Creates a service over an explicit snapshot store — the
    /// page-granular CoW store from `lwsnap-snapstore`, or anything
    /// else implementing [`SnapshotStore`].
    pub fn with_store(mut store: Box<dyn SnapshotStore>) -> Self {
        let root_snap = store.put(None, &Solver::new());
        let root = ProblemNode {
            snap: Some(root_snap),
            parent: None,
            constraint: Vec::new(),
            result: SolveResult::Sat,
            depth: 0,
            children: 0,
            released: false,
            pinned: true,
            last_use: 0,
        };
        SolverService {
            nodes: vec![Some(root)],
            gens: vec![0],
            free: Vec::new(),
            store,
            stats: StatsSummary {
                shards: 1,
                ..Default::default()
            },
            budget: None,
            clock: 0,
            lru: BinaryHeap::new(),
            work: Solver::new(),
        }
    }

    /// Sets (or clears) the resident-snapshot **byte budget**: the LRU
    /// then evicts until the summed [`Solver::footprint_bytes`] of
    /// resident snapshots fits, so eviction pressure tracks what
    /// snapshots actually cost rather than how many there are.
    /// Lowering the budget evicts immediately. Pinned snapshots (and
    /// the root) never count as victims, so the effective floor is
    /// whatever the pinned set occupies.
    pub fn set_snapshot_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
        self.rebuild_lru();
        self.enforce_budget(None);
    }

    /// Bytes currently held by the snapshot store (shared storage
    /// counted once).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Physical page accounting of the snapshot store (zeros for the
    /// deep-clone baseline).
    pub fn page_stats(&self) -> StorePageStats {
        self.store.page_stats()
    }

    /// Resets the candidate heap after the budget changed: every
    /// resident unpinned snapshot while one is set, nothing otherwise.
    fn rebuild_lru(&mut self) {
        self.lru.clear();
        if self.budget.is_some() {
            self.lru.extend(
                (0u32..)
                    .zip(&self.nodes)
                    .filter_map(|(index, node)| Some((index, node.as_ref()?)))
                    .filter(|(_, node)| node.snap.is_some() && !node.pinned)
                    .map(|(index, node)| Reverse((node.last_use, index))),
            );
        }
    }

    /// Makes resident node `index`, last used at `stamp`, an eviction
    /// candidate. Each push orphans the node's older entries, so sweep
    /// them once they outnumber the resident snapshots two to one.
    fn push_candidate(&mut self, stamp: u64, index: u32) {
        if self.budget.is_none() {
            return;
        }
        self.lru.push(Reverse((stamp, index)));
        if self.lru.len() > 3 * self.store.len() {
            let nodes = &self.nodes;
            self.lru
                .retain(|&Reverse((stamp, index))| is_candidate(nodes, stamp, index));
        }
    }

    /// The root (empty, trivially SAT) problem.
    pub fn root(&self) -> ProblemRef {
        ProblemRef::new(0, 0)
    }

    /// This shard's counters, with the snapshot store's levels and
    /// page accounting read off the store.
    pub fn stats(&self) -> StatsSummary {
        let mut s = self.stats;
        s.live_problems = self.nodes.iter().flatten().filter(|n| !n.released).count() as u64;
        s.resident_snapshots = self.store.len() as u64;
        s.resident_bytes = self.store.resident_bytes() as u64;
        let pages = self.store.page_stats();
        s.shared_pages = pages.shared_pages;
        s.private_pages = pages.private_pages;
        let mem = self.store.mem_stats();
        s.cow_page_copies = mem.cow_page_copies;
        s.zero_fills = mem.zero_fills;
        s.bytes_written = mem.bytes_written;
        s.node_copies = mem.node_copies;
        debug_assert_eq!(
            self.store.len(),
            self.nodes
                .iter()
                .flatten()
                .filter(|n| n.snap.is_some())
                .count(),
            "store residency drifted from the node table"
        );
        s
    }

    fn node(&self, r: ProblemRef) -> Option<&ProblemNode> {
        self.raw_node(r).filter(|n| !n.released)
    }

    /// Like [`SolverService::node`] but sees released tombstones too —
    /// replay walks through them.
    fn raw_node(&self, r: ProblemRef) -> Option<&ProblemNode> {
        self.nodes[self.slot_of(r)?].as_ref()
    }

    fn raw_node_mut(&mut self, r: ProblemRef) -> Option<&mut ProblemNode> {
        let slot = self.slot_of(r)?;
        self.nodes[slot].as_mut()
    }

    /// `r`'s slot, if `r` was minted for the slot's current generation.
    fn slot_of(&self, r: ProblemRef) -> Option<usize> {
        (*self.gens.get(r.slot())? == r.gen()).then_some(r.slot())
    }

    /// The reference the next new problem gets: the most recently freed
    /// slot, else a fresh one. `None` once all 2^16 slots are taken.
    fn next_problem(&self) -> Option<ProblemRef> {
        match self.free.last() {
            Some(&slot) => Some(ProblemRef::new(slot, self.gens[slot as usize])),
            None => {
                let slot = self.nodes.len();
                (slot <= SLOT_MASK as usize).then(|| ProblemRef::new(slot as u32, 0))
            }
        }
    }

    /// The cached result of an already-solved problem.
    pub fn result_of(&self, r: ProblemRef) -> Option<SolveResult> {
        self.node(r).map(|n| n.result)
    }

    /// Depth of a problem in the derivation tree.
    pub fn depth_of(&self, r: ProblemRef) -> Option<u32> {
        self.node(r).map(|n| n.depth)
    }

    /// Whether the problem's solver snapshot is currently resident (not
    /// evicted). `None` if the reference is dead.
    pub fn is_resident(&self, r: ProblemRef) -> Option<bool> {
        self.node(r).map(|n| n.snap.is_some())
    }

    /// Pins a problem: its snapshot is never evicted. No-op on dead refs.
    pub fn pin(&mut self, r: ProblemRef) {
        if let Some(node) = self.raw_node_mut(r) {
            if !node.released {
                node.pinned = true;
            }
        }
    }

    /// Unpins a problem (the root stays pinned regardless).
    pub fn unpin(&mut self, r: ProblemRef) {
        if r == self.root() {
            return;
        }
        if let Some(node) = self.raw_node_mut(r) {
            node.pinned = false;
            // Pinned entries are discarded from the LRU heap on pop, so
            // a freshly unpinned resident node needs a new candidacy.
            if node.snap.is_some() {
                let stamp = node.last_use;
                self.push_candidate(stamp, r.slot() as u32);
            }
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// A store put wrapped in its observability: a `SnapPut` span whose
    /// payload is the pages this put dirtied, plus the put-latency
    /// histogram. (The store counts the pages itself; [`Self::stats`]
    /// reads them.)
    fn put_traced(&mut self, parent: Option<SnapId>, solver: &Solver, problem: u32) -> SnapId {
        let t0 = trace::now_ns();
        let before = self.store.mem_stats();
        let snap = self.store.put(parent, solver);
        let after = self.store.mem_stats();
        let dirtied = (after.cow_page_copies - before.cow_page_copies)
            + (after.zero_fills - before.zero_fills);
        trace::span(trace::Kind::SnapPut, t0, problem as u64, dirtied);
        trace::Registry::global()
            .snap_put_ns
            .record(trace::now_ns().saturating_sub(t0));
        snap
    }

    /// A store restore into `solver`, timed into the restore-latency
    /// histogram.
    fn get_timed(&self, snap: SnapId, solver: &mut Solver) -> bool {
        let t0 = trace::now_ns();
        let found = self.store.get_into(snap, solver);
        trace::Registry::global()
            .snap_get_ns
            .record(trace::now_ns().saturating_sub(t0));
        found
    }

    /// Makes `solver` the solved state of `r`: restored from the
    /// resident snapshot, or re-derived by replaying constraint edges
    /// from the nearest resident ancestor. Returns whether it was
    /// re-derived, or `None` for dead references.
    fn materialize(&mut self, r: ProblemRef, solver: &mut Solver) -> Option<bool> {
        let snap = self.node(r)?.snap;
        let stamp = self.next_stamp();
        if let Some(snap) = snap {
            assert!(
                self.get_timed(snap, solver),
                "resident snapshot must be retrievable"
            );
            let node = self.raw_node_mut(r).expect("checked above");
            node.last_use = stamp;
            if !node.pinned {
                self.push_candidate(stamp, r.slot() as u32);
            }
            self.stats.snapshot_hits += 1;
            trace::instant(trace::Kind::SnapHit, r.0 as u64, 0);
            return Some(false);
        }
        // Metrics stay live even when the trace recorder is switched
        // off, so time with the raw clock (span() self-gates).
        let rederive_t0 = trace::now_ns();
        // Evicted: walk up to the nearest resident ancestor, then replay
        // the constraint edges downward. The root is always resident, so
        // the walk terminates even through released tombstones.
        let mut chain = vec![r];
        let mut cur = self.raw_node(r)?.parent?;
        loop {
            let node = self.raw_node(cur)?;
            if node.snap.is_some() {
                break;
            }
            chain.push(cur);
            cur = node.parent?;
        }
        let ancestor_snap = self.raw_node(cur)?.snap?;
        self.get_timed(ancestor_snap, solver).then_some(())?;
        let before = solver.stats();
        let mut replayed = 0u64;
        // One solve per edge, not one solve at the end: each original
        // state was produced by solving at its own derivation step, and
        // the witness model depends on that trajectory (learnt clauses,
        // activity, saved phases). Batching the clauses would reproduce
        // the verdicts but not the bit-identical intermediate states.
        let mut result = SolveResult::Sat;
        for &link in chain.iter().rev() {
            let node = self.raw_node(link)?;
            for clause in &node.constraint {
                solver.add_clause(clause);
                replayed += 1;
            }
            result = solver.solve();
        }
        debug_assert_eq!(
            result,
            self.raw_node(r).map(|n| n.result).unwrap(),
            "replay must reproduce the recorded result"
        );
        let after = solver.stats();
        self.stats.rederivations += 1;
        self.stats.replayed_clauses += replayed;
        self.stats.rederive_conflicts += after.conflicts - before.conflicts;
        trace::span(
            trace::Kind::SnapRederive,
            rederive_t0,
            r.0 as u64,
            chain.len() as u64,
        );
        trace::Registry::global()
            .rederive_ns
            .record(trace::now_ns().saturating_sub(rederive_t0));
        // Cache the re-derived snapshot back (as a delta against the
        // ancestor it was replayed from): the query touching it makes it
        // the most recently used node by definition.
        let snap = self.put_traced(Some(ancestor_snap), solver, r.0);
        let node = self.raw_node_mut(r)?;
        node.snap = Some(snap);
        node.last_use = stamp;
        if !node.pinned {
            self.push_candidate(stamp, r.slot() as u32);
        }
        self.enforce_budget(Some(r));
        Some(true)
    }

    /// Evicts LRU snapshots until the resident set fits the byte
    /// budget. `protect` shields one reference
    /// (the node a query is being served from) from immediate eviction.
    ///
    /// Victims come off the lazy-deletion heap: an entry is live only if
    /// its stamp still matches the node's `last_use` (newer touches push
    /// newer entries, orphaning the old ones). Pinned, evicted, reaped
    /// and stale entries are simply discarded, so the work per eviction
    /// is O(log n) amortised over touches — never a table scan.
    fn enforce_budget(&mut self, protect: Option<ProblemRef>) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut deferred: Option<Reverse<(u64, u32)>> = None;
        while self.store.resident_bytes() > budget {
            let Some(Reverse((stamp, index))) = self.lru.pop() else {
                break; // everything left is pinned/protected
            };
            if !is_candidate(&self.nodes, stamp, index) {
                continue; // stale heap entry
            }
            if protect.is_some_and(|p| p.slot() == index as usize) {
                // Still a valid candidate — put it back after the loop.
                deferred = Some(Reverse((stamp, index)));
                continue;
            }
            let node = self.nodes[index as usize].as_mut().unwrap();
            let snap = node.snap.take().expect("liveness checked above");
            let before = self.store.resident_bytes();
            self.store.remove(snap);
            self.stats.evictions += 1;
            trace::instant(
                trace::Kind::SnapEvict,
                index as u64,
                (before - self.store.resident_bytes()) as u64,
            );
        }
        if let Some(entry) = deferred {
            self.lru.push(entry);
        }
    }

    /// Solves `parent ∧ added`, returning the reply with an opaque
    /// reference to the new problem.
    ///
    /// The parent snapshot is immutable: solving a child never perturbs
    /// it, so any number of divergent `q`s can be layered on the same `p`
    /// — the "multi-path" in the name. If the parent snapshot was evicted
    /// it is re-derived transparently (see the module docs).
    ///
    /// `None` for a dead `parent`, or when every one of the service's
    /// 2^16 problem slots is taken.
    pub fn solve(&mut self, parent: ProblemRef, added: &[Vec<Lit>]) -> Option<Reply> {
        let mut solver = std::mem::take(&mut self.work);
        let reply = self.solve_in(&mut solver, parent, added);
        self.work = solver;
        reply
    }

    /// [`SolverService::solve`] in the working solver, taken out of
    /// `self` for the query.
    fn solve_in(
        &mut self,
        solver: &mut Solver,
        parent: ProblemRef,
        added: &[Vec<Lit>],
    ) -> Option<Reply> {
        let parent_depth = self.node(parent)?.depth;
        let problem = self.next_problem()?;
        // The lightweight snapshot: restore the solved parent state.
        let rederived = self.materialize(parent, solver)?;
        let before = solver.stats();
        for clause in added {
            solver.add_clause(clause);
        }
        let solve_t0 = trace::now_ns();
        let result = solver.solve();
        let after = solver.stats();
        let conflicts = after.conflicts - before.conflicts;
        self.stats.queries += 1;
        trace::span(
            trace::Kind::SolverRun,
            solve_t0,
            problem.0 as u64,
            conflicts,
        );
        trace::Registry::global()
            .solve_ns
            .record(trace::now_ns().saturating_sub(solve_t0));
        self.stats.total_conflicts += conflicts;
        self.stats.total_propagations += after.propagations - before.propagations;
        let model = (result == SolveResult::Sat).then(|| solver.model());
        let stamp = self.next_stamp();
        // Store the child as a delta against the parent snapshot
        // materialize() just touched (still resident — nothing evicts
        // between there and here), so a CoW store shares every page the
        // child did not dirty.
        let parent_snap = self.raw_node(parent).and_then(|n| n.snap);
        let snap = self.put_traced(parent_snap, solver, problem.0);
        let node = ProblemNode {
            snap: Some(snap),
            parent: Some(parent),
            constraint: added.to_vec(),
            result,
            depth: parent_depth + 1,
            children: 0,
            released: false,
            pinned: false,
            last_use: stamp,
        };
        // `problem` is still the next slot: nothing since `next_problem`
        // reaped or took one.
        if problem.slot() == self.nodes.len() {
            self.nodes.push(Some(node));
            self.gens.push(0);
        } else {
            debug_assert_eq!(self.free.last(), Some(&(problem.slot() as u32)));
            self.free.pop();
            self.nodes[problem.slot()] = Some(node);
        }
        if let Some(parent_node) = self.raw_node_mut(parent) {
            parent_node.children += 1;
        }
        self.push_candidate(stamp, problem.slot() as u32);
        self.enforce_budget(Some(problem));
        Some(Reply {
            problem,
            result,
            model,
            conflicts,
            rederived,
        })
    }

    /// Releases a problem: the heavy solver snapshot is freed immediately
    /// and the reference goes dead for queries. If the node still has
    /// children its constraint edge is retained as a tombstone so the
    /// descendants remain derivable (they replay through it if their own
    /// snapshots get evicted); a childless node is reaped outright,
    /// cascading up through released ancestors — so solve-then-release
    /// traffic does not accumulate per-query garbage.
    pub fn release(&mut self, r: ProblemRef) {
        if r == self.root() {
            return; // the root is permanent
        }
        let freed = match self.raw_node_mut(r) {
            Some(node) if !node.released => {
                node.released = true;
                node.pinned = false;
                node.snap.take()
            }
            _ => return,
        };
        if let Some(snap) = freed {
            self.store.remove(snap);
        }
        self.reap(r);
    }

    /// Frees `r`'s slot if it is a childless tombstone, then walks up
    /// freeing every released ancestor this leaves childless. Reaped
    /// nodes can never be needed again: replay only ever walks from a
    /// live descendant, and they have none. A freed slot's generation
    /// moves on, so references to the reaped node stay dead once the
    /// free list hands the slot out again.
    fn reap(&mut self, mut r: ProblemRef) {
        loop {
            if r == self.root() {
                return; // the root is never reaped
            }
            let Some(node) = self.raw_node(r) else {
                return;
            };
            if !node.released || node.children > 0 {
                return;
            }
            let parent = node.parent;
            let slot = r.slot();
            self.nodes[slot] = None;
            self.gens[slot] += 1;
            if self.gens[slot] <= MAX_GEN {
                self.free.push(slot as u32);
            }
            match parent {
                Some(p) => {
                    let Some(parent_node) = self.raw_node_mut(p) else {
                        return;
                    };
                    parent_node.children -= 1;
                    r = p;
                }
                None => return,
            }
        }
    }

    /// Chain of ancestors of `r`, nearest first (released ancestors
    /// included — the chain reflects derivation, not liveness).
    pub fn ancestry(&self, r: ProblemRef) -> Vec<ProblemRef> {
        let mut out = Vec::new();
        let mut cur = self.raw_node(r).and_then(|n| n.parent);
        while let Some(p) = cur {
            out.push(p);
            cur = self.raw_node(p).and_then(|n| n.parent);
        }
        out
    }

    /// The constraint clauses on the edge `parent(r) → r` (empty for the
    /// root). `None` for unknown references.
    pub fn constraint_of(&self, r: ProblemRef) -> Option<&[Vec<Lit>]> {
        self.raw_node(r).map(|n| n.constraint.as_slice())
    }

    /// Baseline: solve a whole clause set from scratch (no reuse).
    /// Returns the result and the solver stats it cost.
    pub fn solve_scratch(clauses: &[Vec<Lit>]) -> (SolveResult, SolverStats) {
        let mut solver = Solver::new();
        for clause in clauses {
            solver.add_clause(clause);
        }
        let result = solver.solve();
        (result, solver.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::IncrementalFamily;
    use crate::lit::Lit;

    fn lits(c: &[i64]) -> Vec<Lit> {
        c.iter().map(|&v| Lit::from_dimacs(v)).collect()
    }

    #[test]
    fn root_is_sat() {
        let svc = SolverService::new();
        assert_eq!(svc.result_of(svc.root()), Some(SolveResult::Sat));
        assert_eq!(svc.depth_of(svc.root()), Some(0));
    }

    #[test]
    fn incremental_chain() {
        let mut svc = SolverService::new();
        let p = svc
            .solve(svc.root(), &[lits(&[1, 2]), lits(&[-1, 2])])
            .unwrap();
        assert_eq!(p.result, SolveResult::Sat);
        // p ∧ ¬2 forces 1-related conflict: (1∨2), (¬1∨2), ¬2 → UNSAT.
        let q = svc.solve(p.problem, &[lits(&[-2])]).unwrap();
        assert_eq!(q.result, SolveResult::Unsat);
        // The parent is untouched and can branch again.
        let q2 = svc.solve(p.problem, &[lits(&[1])]).unwrap();
        assert_eq!(q2.result, SolveResult::Sat);
        assert_eq!(svc.depth_of(q2.problem), Some(2));
        assert_eq!(svc.ancestry(q2.problem), vec![p.problem, svc.root()]);
    }

    #[test]
    fn multi_path_divergence() {
        // Layer contradictory qs on the same p; each child is isolated.
        let mut svc = SolverService::new();
        let p = svc.solve(svc.root(), &[lits(&[1, 2, 3])]).unwrap();
        let a = svc.solve(p.problem, &[lits(&[1])]).unwrap();
        let b = svc.solve(p.problem, &[lits(&[-1]), lits(&[2])]).unwrap();
        assert_eq!(a.result, SolveResult::Sat);
        assert_eq!(b.result, SolveResult::Sat);
        let am = a.model.unwrap();
        let bm = b.model.unwrap();
        assert!(am[0], "branch a fixed x1=true");
        assert!(!bm[0] && bm[1], "branch b fixed x1=false, x2=true");
    }

    #[test]
    fn model_satisfies_whole_stack() {
        let fam = IncrementalFamily::new(25, 4, 3);
        let mut svc = SolverService::new();
        let base = svc.solve(svc.root(), &fam.base().clauses).unwrap();
        let mut cur = base;
        let mut all = fam.base().clauses;
        for i in 0..3 {
            let inc = fam.increment(i);
            all.extend(inc.clone());
            let reply = svc.solve(cur.problem, &inc).unwrap();
            if reply.result == SolveResult::Sat {
                let m = reply.model.as_ref().unwrap();
                assert!(
                    crate::solver::model_satisfies(&all, m),
                    "model unsatisfied after increment {i}"
                );
            }
            cur = reply;
        }
    }

    #[test]
    fn incremental_cheaper_than_scratch_on_related_queries() {
        // The E4 shape at test scale: a chain of increments solved
        // incrementally must not cost more total conflicts than solving
        // the final formula from scratch... on average. We assert the
        // weaker, deterministic property that the incremental *final
        // step* costs less than the scratch solve of the full stack,
        // which holds because most inference is inherited.
        let fam = IncrementalFamily::new(40, 6, 17);
        let mut svc = SolverService::new();
        let mut cur = svc.solve(svc.root(), &fam.base().clauses).unwrap();
        for i in 0..4 {
            cur = svc.solve(cur.problem, &fam.increment(i)).unwrap();
        }
        let (scratch_result, scratch_stats) =
            SolverService::solve_scratch(&fam.combined(4).clauses);
        assert_eq!(cur.result, scratch_result, "same answer both ways");
        assert!(
            cur.conflicts <= scratch_stats.conflicts.max(1) * 3,
            "final incremental step ({}) should not dwarf scratch ({})",
            cur.conflicts,
            scratch_stats.conflicts
        );
    }

    #[test]
    fn release_frees_but_children_survive() {
        let mut svc = SolverService::new();
        let p = svc.solve(svc.root(), &[lits(&[1])]).unwrap();
        let q = svc.solve(p.problem, &[lits(&[2])]).unwrap();
        svc.release(p.problem);
        assert_eq!(svc.result_of(p.problem), None);
        assert_eq!(svc.result_of(q.problem), Some(SolveResult::Sat));
        // Solving from a released ref fails gracefully.
        assert!(svc.solve(p.problem, &[lits(&[3])]).is_none());
        // Root cannot be released.
        svc.release(svc.root());
        assert!(svc.result_of(svc.root()).is_some());
    }

    #[test]
    fn stats_accumulate() {
        let mut svc = SolverService::new();
        let p = svc.solve(svc.root(), &[lits(&[1, 2])]).unwrap();
        svc.solve(p.problem, &[lits(&[-1])]).unwrap();
        let st = svc.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.live_problems, 3, "root + two children");
        assert_eq!(st.resident_snapshots, 3, "nothing evicted by default");
        assert_eq!(st.snapshot_hits, 2, "both parents were resident");
        assert_eq!(st.rederivations, 0);
    }

    /// Satellite: the release leak-audit. Freeing interior nodes that
    /// still have solved children must drop them from `live_problems`,
    /// leave every child answerable, and keep the tombstones replayable.
    #[test]
    fn release_interior_nodes_leak_audit() {
        let mut svc = SolverService::new();
        let a = svc.solve(svc.root(), &[lits(&[1, 2])]).unwrap();
        let b = svc.solve(a.problem, &[lits(&[2, 3])]).unwrap();
        let c = svc.solve(b.problem, &[lits(&[3, 4])]).unwrap();
        let d = svc.solve(b.problem, &[lits(&[-3]), lits(&[4])]).unwrap();
        assert_eq!(svc.stats().live_problems, 5, "root + a,b,c,d");

        // Free the interior chain a→b while c and d still hang off b.
        svc.release(a.problem);
        svc.release(b.problem);
        let st = svc.stats();
        assert_eq!(st.live_problems, 3, "root + c + d after interior frees");
        assert_eq!(
            st.resident_snapshots, 3,
            "released interior snapshots freed immediately"
        );

        // Released refs are dead for every query path.
        assert_eq!(svc.result_of(a.problem), None);
        assert_eq!(svc.depth_of(b.problem), None);
        assert!(svc.solve(b.problem, &[lits(&[5])]).is_none());
        assert_eq!(svc.is_resident(a.problem), None);

        // The children still answer — both from their own snapshots...
        let c2 = svc.solve(c.problem, &[lits(&[5])]).unwrap();
        assert_eq!(c2.result, SolveResult::Sat);
        assert!(!c2.rederived, "child snapshot was resident");
        // ...and after their own eviction, by replay *through* the
        // released tombstones down from the root.
        svc.set_snapshot_budget(Some(1));
        assert_eq!(svc.is_resident(d.problem), Some(false), "evicted by budget");
        svc.set_snapshot_budget(None);
        let d2 = svc.solve(d.problem, &[lits(&[5])]).unwrap();
        assert_eq!(d2.result, SolveResult::Sat);
        assert!(d2.rederived, "evicted child re-derived through tombstones");
        let m = d2.model.unwrap();
        // d's path pinned ¬3 ∧ 4; the replayed state must still honour it.
        assert!(!m[2] && m[3], "replayed constraints hold: {m:?}");
        assert!(svc.stats().rederivations >= 1);
        assert!(svc.stats().replayed_clauses >= 4, "a+b+d edges replayed");
    }

    #[test]
    fn eviction_rederives_transparently() {
        let fam = IncrementalFamily::new(20, 3, 9);
        let mut svc = SolverService::new();
        svc.set_snapshot_budget(Some(1));
        let base = svc.solve(svc.root(), &fam.base().clauses).unwrap();
        let mut refs = vec![base.problem];
        let mut cur = base.problem;
        for i in 0..5 {
            let reply = svc.solve(cur, &fam.increment(i)).unwrap();
            cur = reply.problem;
            refs.push(cur);
        }
        let st = svc.stats();
        assert!(st.evictions >= 4, "a 1-byte budget must evict on a 6-chain");
        assert!(
            st.resident_snapshots <= 3,
            "root + the served node (got {})",
            st.resident_snapshots
        );
        // Every historical ref still answers, with the recorded result
        // intact and a correct model for the *full* path.
        for (i, &r) in refs.iter().enumerate() {
            let reply = svc.solve(r, &[]).unwrap();
            assert_eq!(reply.result, svc.result_of(r).unwrap(), "ref {i}");
            if let Some(m) = &reply.model {
                let mut stack = fam.base().clauses;
                for j in 0..i as u64 {
                    stack.extend(fam.increment(j));
                }
                assert!(
                    crate::solver::model_satisfies(&stack, m),
                    "ref {i}: replayed model violates its path"
                );
            }
        }
        assert!(svc.stats().rederivations > 0, "the chain forced replays");
    }

    /// Solve-then-release traffic must not accumulate per-query garbage:
    /// childless tombstones are reaped outright, cascading up through
    /// released ancestors.
    #[test]
    fn leaf_release_reaps_slots_and_cascades() {
        let mut svc = SolverService::new();
        let a = svc.solve(svc.root(), &[lits(&[1])]).unwrap();
        let b = svc.solve(a.problem, &[lits(&[2])]).unwrap();
        // Releasing the interior node keeps a tombstone (b depends on it)…
        svc.release(a.problem);
        assert!(svc.constraint_of(a.problem).is_some(), "tombstone retained");
        // …but releasing the leaf reaps it AND cascades into a.
        svc.release(b.problem);
        assert!(svc.constraint_of(b.problem).is_none(), "leaf slot reaped");
        assert!(svc.constraint_of(a.problem).is_none(), "cascade freed a");
        let st = svc.stats();
        assert_eq!(st.live_problems, 1, "only the root remains");
        assert_eq!(st.resident_snapshots, 1, "only the root snapshot");
        // The classic one-shot client loop stays O(1) in retained nodes.
        for v in 1..=20i64 {
            let q = svc.solve(svc.root(), &[lits(&[v])]).unwrap();
            svc.release(q.problem);
        }
        assert_eq!(svc.stats().live_problems, 1, "no per-query garbage");
        // Double release is idempotent; the refs stay dead.
        svc.release(b.problem);
        assert_eq!(svc.result_of(b.problem), None);
    }

    /// Byte-budget eviction is cost-aware: a few huge snapshots blow
    /// the budget and get evicted while many tiny ones stay resident —
    /// a raw count cap over the same tree (9 resident snapshots) would
    /// have evicted nothing at all.
    #[test]
    fn byte_budget_evicts_huge_snapshots_before_many_tiny_ones() {
        let mut svc = SolverService::new();
        let root_cost = svc.stats().resident_bytes;
        // A couple of huge snapshots first (least recently used):
        // hundreds of clauses over 120 vars each.
        let fam = IncrementalFamily::new(120, 3, 5);
        let huge: Vec<ProblemRef> = (0..2)
            .map(|_| svc.solve(svc.root(), &fam.base().clauses).unwrap().problem)
            .collect();
        let huge_pair = svc.stats().resident_bytes - root_cost;
        // Then many tiny snapshots: one unit clause each.
        let tiny: Vec<ProblemRef> = (1..=8i64)
            .map(|v| svc.solve(svc.root(), &[lits(&[v])]).unwrap().problem)
            .collect();
        let full_cost = svc.stats().resident_bytes;
        assert!(
            huge_pair / 2 > (full_cost - root_cost - huge_pair),
            "one huge snapshot outweighs all eight tiny ones combined"
        );

        // Budget: the root and every tiny snapshot fit; the huge pair
        // does not. A count cap would need to drop to < 9 snapshots to
        // evict anything here — the byte budget evicts exactly the two
        // huge ones (also the LRU-oldest) and nothing else.
        let budget = full_cost - huge_pair;
        svc.set_snapshot_budget(Some(budget as usize));
        let st = svc.stats();
        assert_eq!(st.evictions, 2, "exactly the huge pair evicted");
        assert!(st.resident_bytes <= budget, "budget respected");
        assert!(
            huge.iter().all(|&r| svc.is_resident(r) == Some(false)),
            "both huge snapshots evicted"
        );
        assert!(
            tiny.iter().all(|&r| svc.is_resident(r) == Some(true)),
            "every tiny snapshot still resident"
        );
        assert_eq!(st.resident_snapshots, 9, "root + 8 tiny");

        // Evicted huge problems still answer by replay (which may evict
        // tiny LRU victims to make room for the re-derived snapshot).
        let reply = svc.solve(huge[0], &[]).unwrap();
        assert_eq!(reply.result, svc.result_of(huge[0]).unwrap());
        assert!(reply.rederived);
        assert!(svc.stats().resident_bytes <= budget + huge_pair);
    }

    /// The budget tracks releases and re-derivations without drifting.
    #[test]
    fn byte_budget_accounting_survives_release_and_rederive() {
        let mut svc = SolverService::new();
        let a = svc.solve(svc.root(), &[lits(&[1, 2])]).unwrap();
        let b = svc.solve(a.problem, &[lits(&[3])]).unwrap();
        let before = svc.stats().resident_bytes;
        assert!(before > 0);
        // Evict b via a 1-snapshot... use a tiny budget instead: only
        // pinned root survives.
        svc.set_snapshot_budget(Some(1));
        let st = svc.stats();
        assert_eq!(st.resident_snapshots, 1, "only the pinned root left");
        assert!(st.resident_bytes < before);
        // Re-derivation restores the cost, then release drops it again.
        svc.set_snapshot_budget(None);
        let b2 = svc.solve(b.problem, &[]).unwrap();
        assert!(b2.rederived);
        let mid = svc.stats().resident_bytes;
        assert!(mid > st.resident_bytes);
        svc.release(b.problem);
        svc.release(a.problem);
        assert!(svc.stats().resident_bytes < mid);
    }

    #[test]
    fn pinning_protects_from_eviction() {
        let mut svc = SolverService::new();
        svc.set_snapshot_budget(Some(1));
        let a = svc.solve(svc.root(), &[lits(&[1])]).unwrap();
        svc.pin(a.problem);
        let mut cur = a.problem;
        for v in 2..6 {
            cur = svc.solve(cur, &[lits(&[v])]).unwrap().problem;
        }
        assert_eq!(svc.is_resident(a.problem), Some(true), "pinned survives");
        svc.unpin(a.problem);
        cur = svc.solve(cur, &[lits(&[6])]).unwrap().problem;
        let _ = cur;
        assert_eq!(svc.is_resident(a.problem), Some(false), "unpinned evicts");
        // The root is never evictable even via unpin.
        svc.unpin(svc.root());
        assert_eq!(svc.is_resident(svc.root()), Some(true));
    }

    /// The candidate heap is lazy-deletion: hits and solves push, only
    /// evictions pop. It must stay O(resident) anyway — empty while no
    /// budget is set, and swept of orphaned entries while one is.
    #[test]
    fn lru_heap_stays_bounded_by_the_resident_set() {
        let mut svc = SolverService::new();
        let base = svc.solve(svc.root(), &[lits(&[1, 2])]).unwrap().problem;
        let round = |svc: &mut SolverService, v: i64| {
            // A hit on `base` plus a new leaf: two pushes per round.
            let q = svc.solve(base, &[lits(&[v % 7 + 3])]).unwrap();
            svc.release(q.problem);
        };
        for v in 0..10_000 {
            round(&mut svc, v);
        }
        assert!(svc.lru.is_empty(), "nothing can be evicted: no candidates");

        // Setting a budget that never binds makes the resident unpinned
        // nodes candidates, and every push keeps the heap within 3× the
        // resident set — here the root, `base` and the round's leaf.
        svc.set_snapshot_budget(Some(usize::MAX));
        assert_eq!(svc.lru.len(), 1, "`base` (the root is pinned)");
        for v in 0..10_000 {
            round(&mut svc, v);
            assert!(svc.lru.len() <= 3 * 3, "heap grew to {}", svc.lru.len());
        }
        assert_eq!(svc.stats().evictions, 0);
        // The bounded heap still finds the right victim.
        let leaf = svc.solve(base, &[lits(&[9])]).unwrap().problem;
        svc.set_snapshot_budget(Some(svc.resident_bytes() - 1));
        assert_eq!(svc.is_resident(base), Some(false), "LRU-older goes first");
        assert_eq!(svc.is_resident(leaf), Some(true));
        svc.set_snapshot_budget(None);
        assert!(svc.lru.is_empty(), "disarmed");
    }

    /// Solve-then-release traffic reuses its slot instead of growing the
    /// table, and a reference kept across its slot's reuse stays dead —
    /// through the generation wrap too, where the slot is retired.
    #[test]
    fn released_slots_are_reused_and_stale_refs_stay_dead() {
        let mut svc = SolverService::new();
        let base = svc.solve(svc.root(), &[lits(&[1, 2])]).unwrap().problem;
        let first = svc.solve(base, &[lits(&[3])]).unwrap().problem;
        svc.release(first);
        for v in 0..100_000i64 {
            let q = svc.solve(base, &[lits(&[v % 7 + 3])]).unwrap().problem;
            assert_eq!(svc.result_of(first), None, "round {v}");
            svc.release(q);
        }
        // Peak live: the root, `base` and one leaf.
        assert!(svc.nodes.len() <= 3 + 1, "{} slots", svc.nodes.len());

        let stale = svc.solve(base, &[lits(&[3])]).unwrap().problem;
        svc.release(stale);
        let fresh = svc.solve(base, &[lits(&[4])]).unwrap().problem;
        assert_eq!(fresh.slot(), stale.slot(), "slot reused");
        assert_eq!(ProblemRef::from_index(fresh.index()), fresh);
        assert!(svc.solve(stale, &[]).is_none());
        assert_eq!(svc.result_of(stale), None);
        svc.pin(stale);
        assert!(!svc.raw_node(fresh).unwrap().pinned, "pin was a no-op");
        svc.release(stale);
        assert_eq!(svc.result_of(fresh), Some(SolveResult::Sat));
    }

    #[test]
    fn a_full_slot_table_refuses_new_problems_until_one_is_released() {
        let mut svc = SolverService::new();
        let refs: Vec<ProblemRef> = (0..SLOT_MASK)
            .map(|_| svc.solve(svc.root(), &[]).unwrap().problem)
            .collect();
        assert!(svc.solve(svc.root(), &[]).is_none(), "every slot taken");
        svc.release(refs[7]);
        let reused = svc.solve(svc.root(), &[]).unwrap().problem;
        assert_eq!(reused.slot(), refs[7].slot());
    }

    #[test]
    fn problem_ref_index_roundtrip() {
        let mut svc = SolverService::new();
        let p = svc.solve(svc.root(), &[lits(&[1])]).unwrap();
        let r = ProblemRef::from_index(p.problem.index());
        assert_eq!(r, p.problem);
        assert_eq!(svc.result_of(r), Some(SolveResult::Sat));
    }
}
