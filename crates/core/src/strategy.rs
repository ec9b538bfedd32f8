//! Search strategies: the scheduler that replaces the OS scheduler.
//!
//! "The snapshots are not scheduled by a traditional OS scheduler, but
//! instead by one of the various well-understood search strategies, such as
//! DFS, BFS or A*" (paper §1). A [`Strategy`] owns the frontier of
//! unevaluated candidate extension steps and decides which one runs next.
//!
//! Strategies never touch snapshots directly — they queue
//! [`ExtensionRef`]s, each of which holds one pending reference on its
//! parent snapshot in the engine's [`crate::snapshot::SnapshotTree`]. A
//! strategy that discards entries (memory-bounded search) must surface the
//! discarded references through [`Strategy::take_dropped`] so the engine
//! can release the snapshots.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::guest::GuessHint;
use crate::snapshot::SnapshotId;

/// One unevaluated candidate extension step: "simply a reference to their
/// parent partial candidate and the extension number" (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionRef {
    /// The parent partial candidate.
    pub snapshot: SnapshotId,
    /// The extension number (delivered in `%rax`).
    pub index: u64,
    /// Depth of the parent candidate.
    pub depth: u64,
    /// Priority (f = g + h) for informed strategies; 0 otherwise.
    pub f: u64,
    /// Monotonic sequence number (tie-breaking, FIFO among equals).
    pub seq: u64,
}

/// A search strategy scheduling extension evaluation.
pub trait Strategy {
    /// Short human-readable name ("dfs", "bfs", ...).
    fn name(&self) -> &'static str;

    /// Called when a partial candidate `snap` with `n` extensions is
    /// created at `depth`. The strategy queues the extensions it wants
    /// evaluated later and may return `Some(i)` to direct the engine to
    /// continue *inline* with extension `i` (no snapshot restore) — the
    /// depth-first fast path.
    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64>;

    /// Pops the next extension to evaluate, or `None` when the search
    /// space is exhausted.
    fn next(&mut self) -> Option<ExtensionRef>;

    /// Entries currently queued.
    fn frontier_len(&self) -> usize;

    /// High-water mark of the frontier.
    fn peak_frontier(&self) -> usize;

    /// Extensions discarded by memory bounding since the last call
    /// (engine releases the snapshot references).
    fn take_dropped(&mut self) -> Vec<ExtensionRef> {
        Vec::new()
    }

    /// Total extensions ever discarded by memory bounding.
    fn total_dropped(&self) -> u64 {
        0
    }
}

/// A boxed strategy (say, one chosen at run time) schedules as itself.
impl<S: Strategy + ?Sized> Strategy for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        (**self).expand(snap, n, hint, depth)
    }
    fn next(&mut self) -> Option<ExtensionRef> {
        (**self).next()
    }
    fn frontier_len(&self) -> usize {
        (**self).frontier_len()
    }
    fn peak_frontier(&self) -> usize {
        (**self).peak_frontier()
    }
    fn take_dropped(&mut self) -> Vec<ExtensionRef> {
        (**self).take_dropped()
    }
    fn total_dropped(&self) -> u64 {
        (**self).total_dropped()
    }
}

fn f_of(hint: Option<&GuessHint>, depth: u64, i: u64) -> u64 {
    match hint {
        Some(h) => {
            h.g.saturating_add(h.h.get(i as usize).copied().unwrap_or(0))
        }
        None => depth,
    }
}

// ---------------------------------------------------------------------
// Depth-first search.
// ---------------------------------------------------------------------

/// LIFO strategy with the inline fast path: extension 0 continues without
/// a restore; siblings are pushed for later backtracking.
#[derive(Default)]
pub struct Dfs {
    stack: Vec<ExtensionRef>,
    seq: u64,
    peak: usize,
    no_inline: bool,
}

impl Dfs {
    /// Creates a DFS strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a DFS strategy with the inline fast path disabled: every
    /// extension — including extension 0 — is evaluated by restoring its
    /// parent snapshot. This is the ablation of the engine's "continue
    /// in place" optimisation (see the `ablations` bench).
    pub fn without_inline() -> Self {
        Dfs {
            no_inline: true,
            ..Dfs::default()
        }
    }
}

impl Strategy for Dfs {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        // Push siblings so extension 0 runs next (inline, or popped
        // first when the fast path is ablated).
        let queued_from = if self.no_inline { 0 } else { 1 };
        for i in (queued_from..n).rev() {
            self.seq += 1;
            self.stack.push(ExtensionRef {
                snapshot: snap,
                index: i,
                depth,
                f: f_of(hint, depth, i),
                seq: self.seq,
            });
        }
        self.peak = self.peak.max(self.stack.len());
        if self.no_inline {
            None
        } else {
            Some(0)
        }
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        self.stack.pop()
    }

    fn frontier_len(&self) -> usize {
        self.stack.len()
    }

    fn peak_frontier(&self) -> usize {
        self.peak
    }
}

// ---------------------------------------------------------------------
// Breadth-first search.
// ---------------------------------------------------------------------

/// FIFO strategy: evaluates all extensions at depth `d` before depth `d+1`.
/// No inline fast path — every evaluation restores a snapshot.
#[derive(Default)]
pub struct Bfs {
    queue: VecDeque<ExtensionRef>,
    seq: u64,
    peak: usize,
}

impl Bfs {
    /// Creates a BFS strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Strategy for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        for i in 0..n {
            self.seq += 1;
            self.queue.push_back(ExtensionRef {
                snapshot: snap,
                index: i,
                depth,
                f: f_of(hint, depth, i),
                seq: self.seq,
            });
        }
        self.peak = self.peak.max(self.queue.len());
        None
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        self.queue.pop_front()
    }

    fn frontier_len(&self) -> usize {
        self.queue.len()
    }

    fn peak_frontier(&self) -> usize {
        self.peak
    }
}

// ---------------------------------------------------------------------
// Best-first (A*).
// ---------------------------------------------------------------------

#[derive(PartialEq, Eq)]
struct HeapEntry(Reverse<(u64, u64)>, ExtensionRef);

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A*: pops the extension with the smallest `f = g + h(i)`, where `g` and
/// `h` come from the extended guess hint (`sys_guess_hint`). Without a
/// hint, `f` degrades to the depth, making this uniform-cost search.
#[derive(Default)]
pub struct BestFirst {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
    peak: usize,
}

impl BestFirst {
    /// Creates an A* strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Strategy for BestFirst {
    fn name(&self) -> &'static str {
        "astar"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        for i in 0..n {
            self.seq += 1;
            let f = f_of(hint, depth, i);
            let r = ExtensionRef {
                snapshot: snap,
                index: i,
                depth,
                f,
                seq: self.seq,
            };
            self.heap.push(HeapEntry(Reverse((f, self.seq)), r));
        }
        self.peak = self.peak.max(self.heap.len());
        None
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        self.heap.pop().map(|e| e.1)
    }

    fn frontier_len(&self) -> usize {
        self.heap.len()
    }

    fn peak_frontier(&self) -> usize {
        self.peak
    }
}

// ---------------------------------------------------------------------
// Memory-bounded best-first (SM-A* flavoured).
// ---------------------------------------------------------------------

/// Best-first search with a hard frontier capacity.
///
/// When the frontier exceeds `capacity`, the worst entries (largest `f`)
/// are discarded and reported through [`Strategy::take_dropped`] so the
/// engine can release their snapshots. This reproduces the *memory
/// behaviour* of SM-A* the paper cites (bounded live snapshots); the full
/// SM-A* value-backup/re-expansion machinery is intentionally out of
/// scope and noted in `DESIGN.md`.
pub struct SmaStar {
    inner: BestFirst,
    capacity: usize,
    dropped: Vec<ExtensionRef>,
    total_dropped: u64,
}

impl SmaStar {
    /// Creates a memory-bounded strategy keeping at most `capacity`
    /// frontier entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SmaStar {
            inner: BestFirst::new(),
            capacity,
            dropped: Vec::new(),
            total_dropped: 0,
        }
    }

    fn enforce_bound(&mut self) {
        if self.inner.heap.len() <= self.capacity {
            return;
        }
        // Rebuild keeping the best `capacity` entries; report the rest.
        let mut entries: Vec<HeapEntry> = std::mem::take(&mut self.inner.heap).into_vec();
        entries.sort_by(|a, b| a.0.cmp(&b.0).reverse()); // ascending f
        for e in entries.drain(self.capacity..) {
            self.total_dropped += 1;
            self.dropped.push(e.1);
        }
        self.inner.heap = entries.into_iter().collect();
    }
}

impl Strategy for SmaStar {
    fn name(&self) -> &'static str {
        "sma-star"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        let r = self.inner.expand(snap, n, hint, depth);
        self.enforce_bound();
        r
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        self.inner.next()
    }

    fn frontier_len(&self) -> usize {
        self.inner.frontier_len()
    }

    fn peak_frontier(&self) -> usize {
        // The enforced bound *is* the peak by construction.
        self.inner.peak_frontier().min(self.capacity)
    }

    fn take_dropped(&mut self) -> Vec<ExtensionRef> {
        std::mem::take(&mut self.dropped)
    }

    fn total_dropped(&self) -> u64 {
        self.total_dropped
    }
}

// ---------------------------------------------------------------------
// Externally controlled strategy.
// ---------------------------------------------------------------------

/// The callback type an [`External`] scheduler consults.
pub type Chooser = Box<dyn FnMut(&[ExtensionRef]) -> Option<usize> + Send>;

/// A pull-based strategy where "an external entity can generate new
/// extension steps for any given partial candidates, and schedule their
/// execution" (paper §3.1).
///
/// The external entity is modelled as a chooser callback over the visible
/// pool of pending extensions.
pub struct External {
    pool: Vec<ExtensionRef>,
    chooser: Chooser,
    seq: u64,
    peak: usize,
}

impl External {
    /// Creates an externally controlled strategy with the given chooser.
    ///
    /// The chooser receives the current pool and returns the index of the
    /// extension to evaluate next (or `None` to stop the search early).
    pub fn new(chooser: impl FnMut(&[ExtensionRef]) -> Option<usize> + Send + 'static) -> Self {
        External {
            pool: Vec::new(),
            chooser: Box::new(chooser),
            seq: 0,
            peak: 0,
        }
    }
}

impl Strategy for External {
    fn name(&self) -> &'static str {
        "external"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        for i in 0..n {
            self.seq += 1;
            self.pool.push(ExtensionRef {
                snapshot: snap,
                index: i,
                depth,
                f: f_of(hint, depth, i),
                seq: self.seq,
            });
        }
        self.peak = self.peak.max(self.pool.len());
        None
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        if self.pool.is_empty() {
            return None;
        }
        let idx = (self.chooser)(&self.pool)?;
        if idx >= self.pool.len() {
            return None;
        }
        Some(self.pool.swap_remove(idx))
    }

    fn frontier_len(&self) -> usize {
        self.pool.len()
    }

    fn peak_frontier(&self) -> usize {
        self.peak
    }
}

// ---------------------------------------------------------------------
// Random frontier exploration.
// ---------------------------------------------------------------------

/// Uniform-random frontier pops (the randomised baseline used by the
/// symbolic-execution experiments). Deterministic for a given seed.
pub struct RandomWalk {
    pool: Vec<ExtensionRef>,
    rng: u64,
    seq: u64,
    peak: usize,
}

impl RandomWalk {
    /// Creates a random strategy from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        RandomWalk {
            pool: Vec::new(),
            rng: seed.max(1),
            seq: 0,
            peak: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // Xorshift64: small, deterministic, dependency-free.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

impl Strategy for RandomWalk {
    fn name(&self) -> &'static str {
        "random"
    }

    fn expand(
        &mut self,
        snap: SnapshotId,
        n: u64,
        hint: Option<&GuessHint>,
        depth: u64,
    ) -> Option<u64> {
        for i in 0..n {
            self.seq += 1;
            self.pool.push(ExtensionRef {
                snapshot: snap,
                index: i,
                depth,
                f: f_of(hint, depth, i),
                seq: self.seq,
            });
        }
        self.peak = self.peak.max(self.pool.len());
        None
    }

    fn next(&mut self) -> Option<ExtensionRef> {
        if self.pool.is_empty() {
            return None;
        }
        let idx = (self.next_rand() % self.pool.len() as u64) as usize;
        Some(self.pool.swap_remove(idx))
    }

    fn frontier_len(&self) -> usize {
        self.pool.len()
    }

    fn peak_frontier(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(n: u32) -> SnapshotId {
        SnapshotId(n)
    }

    #[test]
    fn dfs_inline_and_lifo_order() {
        let mut s = Dfs::new();
        assert_eq!(
            s.expand(snap(0), 3, None, 1),
            Some(0),
            "ext 0 continues inline"
        );
        assert_eq!(s.frontier_len(), 2);
        // After the inline branch dies, extension 1 of the same snapshot
        // comes first (true depth-first order).
        let e = s.next().unwrap();
        assert_eq!((e.snapshot, e.index), (snap(0), 1));
        // A deeper expand interleaves correctly.
        s.expand(snap(1), 2, None, 2);
        let e = s.next().unwrap();
        assert_eq!((e.snapshot, e.index), (snap(1), 1), "deepest first");
        let e = s.next().unwrap();
        assert_eq!((e.snapshot, e.index), (snap(0), 2));
        assert!(s.next().is_none());
        // Peak: 2 siblings of snap(0) queued at once (ext 0 ran inline).
        assert_eq!(s.peak_frontier(), 2);
    }

    #[test]
    fn bfs_fifo_order() {
        let mut s = Bfs::new();
        assert_eq!(s.expand(snap(0), 2, None, 1), None, "no inline fast path");
        s.expand(snap(1), 2, None, 2);
        let order: Vec<_> = std::iter::from_fn(|| s.next())
            .map(|e| (e.snapshot, e.index))
            .collect();
        assert_eq!(
            order,
            vec![(snap(0), 0), (snap(0), 1), (snap(1), 0), (snap(1), 1)],
            "strict FIFO"
        );
    }

    #[test]
    fn best_first_orders_by_f() {
        let mut s = BestFirst::new();
        let hint = GuessHint {
            g: 10,
            h: vec![5, 1, 3],
        };
        s.expand(snap(0), 3, Some(&hint), 1);
        let fs: Vec<u64> = std::iter::from_fn(|| s.next()).map(|e| e.f).collect();
        assert_eq!(fs, vec![11, 13, 15]);
    }

    #[test]
    fn best_first_without_hint_uses_depth() {
        let mut s = BestFirst::new();
        s.expand(snap(0), 1, None, 7);
        s.expand(snap(1), 1, None, 2);
        assert_eq!(s.next().unwrap().snapshot, snap(1), "shallower first");
    }

    #[test]
    fn best_first_fifo_tiebreak() {
        let mut s = BestFirst::new();
        s.expand(
            snap(0),
            2,
            Some(&GuessHint {
                g: 5,
                h: vec![0, 0],
            }),
            1,
        );
        assert_eq!(s.next().unwrap().index, 0, "equal f: insertion order");
        assert_eq!(s.next().unwrap().index, 1);
    }

    #[test]
    fn sma_star_bounds_frontier_and_reports_drops() {
        let mut s = SmaStar::new(3);
        let hint = GuessHint {
            g: 0,
            h: vec![1, 2, 3, 4, 5],
        };
        s.expand(snap(0), 5, Some(&hint), 1);
        assert_eq!(s.frontier_len(), 3, "bounded at capacity");
        let dropped = s.take_dropped();
        assert_eq!(dropped.len(), 2);
        // Worst f values were dropped.
        let mut dropped_f: Vec<u64> = dropped.iter().map(|e| e.f).collect();
        dropped_f.sort_unstable();
        assert_eq!(dropped_f, vec![4, 5]);
        assert_eq!(s.total_dropped(), 2);
        // Remaining pops come out best-first.
        let fs: Vec<u64> = std::iter::from_fn(|| s.next()).map(|e| e.f).collect();
        assert_eq!(fs, vec![1, 2, 3]);
        // take_dropped drains.
        assert!(s.take_dropped().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn sma_star_zero_capacity_panics() {
        let _ = SmaStar::new(0);
    }

    #[test]
    fn external_chooser_controls_order() {
        // The "external entity" always picks the newest extension.
        let mut s = External::new(|pool| Some(pool.len() - 1));
        s.expand(snap(0), 3, None, 1);
        assert_eq!(s.next().unwrap().index, 2);
        assert_eq!(s.next().unwrap().index, 1);
        // A chooser returning None stops the search.
        let mut s = External::new(|_| None);
        s.expand(snap(0), 2, None, 1);
        assert!(s.next().is_none());
        assert_eq!(s.frontier_len(), 2, "pool intact after refusal");
    }

    #[test]
    fn random_walk_deterministic_and_complete() {
        let run = |seed| {
            let mut s = RandomWalk::new(seed);
            s.expand(snap(0), 8, None, 1);
            std::iter::from_fn(|| s.next())
                .map(|e| e.index)
                .collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..8).collect::<Vec<_>>(),
            "every extension visited once"
        );
        assert_ne!(run(1), run(99), "different seeds differ (overwhelmingly)");
    }
}
