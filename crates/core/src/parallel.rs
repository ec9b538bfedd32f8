//! Parallel search over shared immutable snapshots.
//!
//! The paper's pitch is that snapshot forks are cheap enough to explore
//! many candidate extensions *at once*. The sequential [`crate::Engine`]
//! evaluates one extension at a time; this module evaluates them on N
//! worker threads. It leans on the property the whole workspace is built
//! around: a [`Snapshot`] is an immutable, structurally shared value, so
//! handing one to another thread is an `Arc` clone — no copying, no
//! locking of guest state.
//!
//! ## Architecture
//!
//! * **One frontier monitor.** A [`Parking`] monitor guards one queue
//!   of `WorkItem`s per worker (one unevaluated extension step each:
//!   `Arc<Snapshot>` + extension index + tree path), the count of
//!   pending paths and the stop flag.
//! * A worker pushes the siblings of every guess at the back of its
//!   **own** queue, under the lock, and continues extension 0 inline
//!   without it — the same depth-first fast path as the sequential
//!   engine.
//! * A worker takes the back of its own queue (depth-first, cache-warm);
//!   when that is empty it takes the **front** of the next non-empty
//!   queue after its own (the shallowest entry: the largest unexplored
//!   subtree).
//! * When every queue is empty a worker parks on the monitor. A push
//!   and an early stop wake parked workers, a retire only when it was
//!   the last, and the monitor notifies only while a worker is parked,
//!   so none is lost and no worker polls. [`crate::schedule`] checks
//!   these wake rules on every schedule of a few model workers.
//! * A worker keeps the state of the path it just finished and restores
//!   the next item's snapshot into it in place
//!   ([`Snapshot::restore_into`]); only its first restore builds a fresh
//!   state.
//! * Termination: the pending count of paths queued or executing; the
//!   run is over when it reaches zero.
//! * A guest exit is handled by the same `step` as in [`crate::engine`]
//!   (fan-out cap, fault policy, depth/`gcost`, counts). A worker keeps
//!   only its frontier policy: the shared extension budget, the restore
//!   into its spare state, a capture only for a guess with `n > 1`, the
//!   sibling push, and the path tag of the inline continue.
//!
//! ## Determinism
//!
//! Execution order is racy by design, but results are not: every output
//! event is tagged with its **tree path** (the sequence of extension
//! indices from the root). Sorting events by path yields exactly the
//! depth-first discovery order, so an exhaustive parallel run produces a
//! transcript *byte-identical* to `Engine::run` with [`Dfs`] — regardless
//! of worker count or scheduling. Early-stop limits (`max_solutions`,
//! `max_extensions`) necessarily make coverage scheduling-dependent; only
//! exhaustive runs promise transcript equality.
//!
//! ```
//! use lwsnap_core::{Engine, ParallelEngine, strategy::Dfs};
//! # use lwsnap_core::{Exit, GuestState, Reg};
//! # fn guest() -> impl FnMut(&mut GuestState) -> Exit {
//! #     |st: &mut GuestState| match st.regs.get(Reg::Rbx) {
//! #         0 => { st.regs.set(Reg::Rbx, 1); Exit::Guess { n: 3, hint: None } }
//! #         1 => { let g = st.regs.get(Reg::Rax); st.regs.set(Reg::Rbx, 2);
//! #                Exit::Output { fd: 1, data: format!("{g} ").into_bytes() } }
//! #         _ => Exit::Fail,
//! #     }
//! # }
//! # fn root() -> GuestState { GuestState::new() }
//! let sequential = Engine::new(Dfs::new()).run(&mut guest(), root());
//! let parallel = ParallelEngine::new(4).run(guest, root());
//! assert_eq!(parallel.transcript, sequential.transcript);
//! ```
//!
//! [`Dfs`]: crate::strategy::Dfs

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::engine::{step, EngineStats, FaultPolicy, Segment, Sink, Solution, StopReason};
use crate::guest::{Guest, GuestState};
use crate::parking::{Parking, Wake};
use crate::registers::Reg;
use crate::snapshot::Snapshot;

// ---------------------------------------------------------------------
// Send/Sync audit.
// ---------------------------------------------------------------------
//
// The whole module rests on snapshots being shareable across threads.
// These compile-time assertions are the audit: they fail to compile if
// any constituent (persistent radix page tables in `lwsnap-mem`, CoW
// volumes in `lwsnap-fs`, register files, `ExtData`) regresses to a
// thread-unsafe representation (`Rc`, `Cell`, raw pointers, ...).
const _SEND_SYNC_AUDIT: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<GuestState>();
    assert_send_sync::<lwsnap_mem::AddressSpace>();
    assert_send_sync::<lwsnap_fs::FsView>();
    assert_send_sync::<lwsnap_fs::Volume>();
    assert_send_sync::<crate::registers::RegisterFile>();
};

/// Tuning knobs for a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Best-effort stop after this many solutions. Which solutions are
    /// found first is scheduling-dependent; see module docs.
    pub max_solutions: Option<u64>,
    /// Best-effort global budget of extension steps.
    pub max_extensions: Option<u64>,
    /// Fault handling policy (shared semantics with the sequential
    /// engine: `FailPath` discards the path, `Abort` stops the run).
    pub fault_policy: FaultPolicy,
}

impl ParallelConfig {
    /// A config with `workers` threads and no limits.
    pub fn new(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
            max_solutions: None,
            max_extensions: None,
            fault_policy: FaultPolicy::FailPath,
        }
    }
}

/// The result of a parallel run: a merged, deterministically ordered
/// [`RunResult`](crate::RunResult) plus per-worker statistics.
#[derive(Debug)]
pub struct ParallelRunResult {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Aggregated counters (sum over workers; peaks are global peaks).
    pub stats: EngineStats,
    /// Per-worker counters, indexed by worker id. The peak fields
    /// (`snapshots_peak`, `frontier_peak`) are run-global and reported
    /// only in [`ParallelRunResult::stats`]; here they stay zero.
    pub worker_stats: Vec<EngineStats>,
    /// Guest console output in depth-first discovery order.
    pub transcript: Vec<u8>,
    /// Solutions in depth-first discovery order.
    pub solutions: Vec<Solution>,
    /// Exit codes in depth-first discovery order.
    pub exit_codes: Vec<i64>,
}

impl ParallelRunResult {
    /// The transcript as lossy UTF-8.
    pub fn transcript_str(&self) -> String {
        String::from_utf8_lossy(&self.transcript).into_owned()
    }
}

/// One unevaluated extension step, shareable across workers.
struct WorkItem {
    /// `None` for the root item (a materialised state, no parent
    /// snapshot); `Some` for a queued extension of a snapshot.
    kind: ItemKind,
    /// Extension indices from the root to this path.
    path: Vec<u64>,
}

enum ItemKind {
    Root(Box<GuestState>),
    Ext {
        snap: Arc<TrackedSnapshot>,
        index: u64,
    },
}

/// A snapshot plus live-count bookkeeping so the run can report the
/// high-water mark of simultaneously live snapshots.
struct TrackedSnapshot {
    snap: Snapshot,
    live: Arc<AtomicUsize>,
}

impl Drop for TrackedSnapshot {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A path-tagged output event, merged and sorted after the run.
enum EventKind {
    Output(Vec<u8>),
    Solution { depth: u64 },
    Exit(i64),
}

struct PathEvent {
    path: Arc<[u64]>,
    seq: u32,
    kind: EventKind,
}

/// The work still to do: one queue of unevaluated items per worker,
/// under the run's one [`Parking`] monitor. Its transitions decide who
/// a change wakes: a push and a stop wake parked workers, a retire only
/// when it was the last.
#[derive(Clone)]
struct Frontier<T> {
    /// Indexed by worker id. The owner pushes and pops at the back
    /// (depth-first); any other worker takes from the front (the
    /// shallowest entry, the largest unexplored subtree).
    queues: Vec<VecDeque<T>>,
    /// Paths queued or executing. The run is over when this hits zero.
    pending: usize,
    /// Items in `queues`.
    queued: usize,
    /// High-water mark of `queued`: the run's `frontier_peak`.
    peak: usize,
    /// The first reason the run was stopped for; workers then take
    /// nothing more.
    stop: Option<StopReason>,
}

/// Hashes what decides a transition, which is what the schedule
/// checker keys its seen states by. `peak` is left out: no decision
/// reads it, so two states that differ only there behave alike.
impl<T: Hash> Hash for Frontier<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Frontier {
            queues,
            pending,
            queued,
            peak: _,
            stop,
        } = self;
        (queues, pending, queued, stop).hash(state);
    }
}

impl<T> Frontier<T> {
    /// A frontier holding `root` on worker 0's queue.
    fn new(workers: usize, root: T) -> Self {
        let mut queues: Vec<VecDeque<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        queues[0].push_back(root);
        Frontier {
            queues,
            pending: 1,
            queued: 1,
            peak: 1,
            stop: None,
        }
    }

    /// Queues `items` as new pending paths at the back of worker `me`'s
    /// queue.
    fn push(&mut self, me: usize, items: Vec<T>) -> ((), Wake) {
        self.pending += items.len();
        self.queued += items.len();
        self.peak = self.peak.max(self.queued);
        self.queues[me].extend(items);
        ((), Wake::Parked)
    }

    /// Worker `me`'s wait: its own newest item, else the oldest item of
    /// the first non-empty queue after its own; `Some(None)` once the
    /// run has stopped or drained; `None` while it must park.
    fn next(&mut self, me: usize) -> Option<Option<T>> {
        if self.stop.is_some() || self.pending == 0 {
            return Some(None);
        }
        let n = self.queues.len();
        let item = self.queues[me]
            .pop_back()
            .or_else(|| (1..n).find_map(|offset| self.queues[(me + offset) % n].pop_front()))?;
        self.queued -= 1;
        Some(Some(item))
    }

    /// Retires one pending path.
    fn retire(&mut self) -> ((), Wake) {
        self.pending -= 1;
        let last = self.pending == 0;
        ((), if last { Wake::Parked } else { Wake::Nobody })
    }

    /// Stops the run, keeping the first reason.
    fn stop(&mut self, reason: StopReason) -> ((), Wake) {
        self.stop.get_or_insert(reason);
        ((), Wake::Parked)
    }
}

/// State shared by all workers.
struct SharedState {
    frontier: Parking<Frontier<WorkItem>>,
    /// The stop as running paths see it, without the frontier lock.
    stop: AtomicBool,
    /// Global counters for limit enforcement.
    solutions: AtomicU64,
    extensions: AtomicU64,
    /// Live snapshots and their peak.
    live_snapshots: Arc<AtomicUsize>,
    peak_snapshots: AtomicUsize,
    config: ParallelConfig,
}

impl SharedState {
    /// A run of `config` with `root` queued on worker 0.
    fn new(config: ParallelConfig, root: GuestState) -> Self {
        let root = WorkItem {
            kind: ItemKind::Root(Box::new(root)),
            path: Vec::new(),
        };
        SharedState {
            frontier: Parking::new(Frontier::new(config.workers, root)),
            stop: AtomicBool::new(false),
            solutions: AtomicU64::new(0),
            extensions: AtomicU64::new(0),
            live_snapshots: Arc::new(AtomicUsize::new(0)),
            peak_snapshots: AtomicUsize::new(0),
            config,
        }
    }

    fn record_stop(&self, reason: StopReason) {
        self.stop.store(true, Ordering::Release);
        self.frontier.update(|f| f.stop(reason));
    }
}

/// The parallel search engine.
///
/// Exploration order is depth-first per worker; results are reported in
/// deterministic depth-first order (see module docs). Construct with
/// [`ParallelEngine::new`] and run with a *guest factory* — each worker
/// builds its own guest, so the guest type needs no thread-safety of its
/// own (the SVM-64 interpreter's decode cache, for example, stays
/// thread-local).
pub struct ParallelEngine {
    config: ParallelConfig,
}

impl ParallelEngine {
    /// An engine with `workers` threads and default limits.
    pub fn new(workers: usize) -> Self {
        ParallelEngine {
            config: ParallelConfig::new(workers),
        }
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: ParallelConfig) -> Self {
        ParallelEngine {
            config: ParallelConfig {
                workers: config.workers.max(1),
                ..config
            },
        }
    }

    /// Runs the search space of `root` to exhaustion (or a configured
    /// limit) on `self.config.workers` threads.
    ///
    /// `factory` is invoked once per worker, on that worker's thread.
    pub fn run<G, F>(&self, factory: F, root: GuestState) -> ParallelRunResult
    where
        G: Guest,
        F: Fn() -> G + Sync,
    {
        let shared = SharedState::new(self.config.clone(), root);

        let mut worker_outputs: Vec<(EngineStats, Vec<PathEvent>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.config.workers)
                .map(|id| {
                    let shared = &shared;
                    let factory = &factory;
                    scope.spawn(move || {
                        let mut guest = factory();
                        worker_loop(id, shared, &mut guest)
                    })
                })
                .collect();
            for handle in handles {
                worker_outputs.push(handle.join().expect("worker panicked"));
            }
        });

        finalize(shared, worker_outputs)
    }
}

/// One worker: take work, evaluate paths depth-first, park when idle.
fn worker_loop(
    id: usize,
    shared: &SharedState,
    guest: &mut dyn Guest,
) -> (EngineStats, Vec<PathEvent>) {
    let mut stats = EngineStats::default();
    let mut events: Vec<PathEvent> = Vec::new();
    // The state of the last path this worker finished: the next path's
    // snapshot is restored into it in place.
    let mut spare: Option<GuestState> = None;
    while let Some(item) = shared.frontier.wait_for(|f| f.next(id)) {
        spare = Some(evaluate_path(
            shared,
            id,
            guest,
            item,
            spare,
            &mut stats,
            &mut events,
        ));
    }
    (stats, events)
}

/// Where a worker's path results go: events tagged with the running
/// path, merged and sorted after the run.
struct PathSink<'a> {
    shared: &'a SharedState,
    events: &'a mut Vec<PathEvent>,
    /// Extension indices from the root to the running path.
    path: Vec<u64>,
    /// Events of one segment share one Arc'd copy of `path` (built
    /// lazily — failed paths, the overwhelming majority, never pay it).
    tag: Option<Arc<[u64]>>,
    seq: u32,
}

impl PathSink<'_> {
    fn push(&mut self, kind: EventKind) {
        let path = self.tag.get_or_insert_with(|| Arc::from(&self.path[..]));
        self.events.push(PathEvent {
            path: path.clone(),
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }
}

impl Sink for PathSink<'_> {
    fn output(&mut self, _fd: u32, data: Vec<u8>) {
        self.push(EventKind::Output(data));
    }

    fn solution(&mut self, depth: u64) -> bool {
        self.push(EventKind::Solution { depth });
        let shared = self.shared;
        let limit = shared.config.max_solutions;
        limit.is_some_and(|max| shared.solutions.fetch_add(1, Ordering::AcqRel) + 1 >= max)
    }

    fn exit(&mut self, code: i64) {
        self.push(EventKind::Exit(code));
    }

    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }
}

/// Evaluates one path to completion: restore, then [`step`] it, fork
/// siblings at guesses and continue extension 0 inline until the path
/// dies. Restores into `spare` in place when the worker has one, and
/// returns the finished path's state as the next spare.
fn evaluate_path(
    shared: &SharedState,
    me: usize,
    guest: &mut dyn Guest,
    item: WorkItem,
    spare: Option<GuestState>,
    stats: &mut EngineStats,
    events: &mut Vec<PathEvent>,
) -> GuestState {
    // Retire the path on every exit from this function — including an
    // unwind out of the guest or the engine itself. Without this, a
    // panicking worker would leave `pending` above zero and the
    // surviving workers parked forever; with it, the run drains and
    // the panic propagates through the scope join.
    struct RetireOnDrop<'a>(&'a SharedState);
    impl Drop for RetireOnDrop<'_> {
        fn drop(&mut self) {
            self.0.frontier.update(Frontier::retire);
        }
    }
    let _retire = RetireOnDrop(shared);

    let mut state = match item.kind {
        ItemKind::Root(state) => *state,
        ItemKind::Ext { snap, index } => {
            let mut st = match spare {
                Some(mut st) => {
                    snap.snap.restore_into(&mut st);
                    st
                }
                None => snap.snap.materialize(),
            };
            st.regs.set(Reg::Rax, index);
            stats.restores += 1;
            st
        }
    };
    let mut sink = PathSink {
        shared,
        events,
        path: item.path,
        tag: None,
        seq: 0,
    };

    loop {
        // The shared counter exists only to enforce a configured budget;
        // totals come from the per-worker stats, so an unbounded run
        // never touches this contended cache line.
        if let Some(max) = shared.config.max_extensions {
            if shared.extensions.fetch_add(1, Ordering::AcqRel) >= max {
                shared.record_stop(StopReason::ExtensionBudget);
                break;
            }
        }
        let policy = shared.config.fault_policy;
        let n = match step(guest, &mut state, policy, stats, &mut sink) {
            Segment::Died => break,
            Segment::Stop(reason) => {
                shared.record_stop(reason);
                break;
            }
            Segment::Forked { n, .. } => n,
        };
        if n > 1 {
            // Capture once; all siblings share the snapshot.
            let live = shared.live_snapshots.fetch_add(1, Ordering::Relaxed) + 1;
            shared.peak_snapshots.fetch_max(live, Ordering::Relaxed);
            let snap = Arc::new(TrackedSnapshot {
                snap: Snapshot::capture(&state, None),
                live: shared.live_snapshots.clone(),
            });
            stats.snapshots_created += 1;
            let siblings: Vec<WorkItem> = (1..n)
                .map(|i| {
                    let mut sibling_path = sink.path.clone();
                    sibling_path.push(i);
                    WorkItem {
                        kind: ItemKind::Ext {
                            snap: snap.clone(),
                            index: i,
                        },
                        path: sibling_path,
                    }
                })
                .collect();
            shared.frontier.update(|f| f.push(me, siblings));
        }
        // Depth-first fast path: continue extension 0 here.
        state.regs.set(Reg::Rax, 0);
        sink.path.push(0);
        sink.tag = None;
        sink.seq = 0;
        stats.inline_continues += 1;
    }
    state
}

/// Merges per-worker event logs into a deterministic result.
fn finalize(
    shared: SharedState,
    worker_outputs: Vec<(EngineStats, Vec<PathEvent>)>,
) -> ParallelRunResult {
    let mut worker_stats = Vec::with_capacity(worker_outputs.len());
    let mut all_events: Vec<PathEvent> = Vec::new();
    let mut total = EngineStats::default();
    for (stats, events) in worker_outputs {
        total.extensions_evaluated += stats.extensions_evaluated;
        total.snapshots_created += stats.snapshots_created;
        total.restores += stats.restores;
        total.inline_continues += stats.inline_continues;
        total.failures += stats.failures;
        total.exits += stats.exits;
        total.faults += stats.faults;
        total.solutions += stats.solutions;
        worker_stats.push(stats);
        all_events.extend(events);
    }
    total.snapshots_peak = shared.peak_snapshots.load(Ordering::Relaxed);
    let frontier = shared.frontier.into_inner();
    total.frontier_peak = frontier.peak;

    // Depth-first discovery order == lexicographic path order (a prefix
    // sorts before its extensions; sibling indices sort numerically).
    all_events.sort_by(|a, b| a.path.cmp(&b.path).then(a.seq.cmp(&b.seq)));

    let mut transcript = Vec::new();
    let mut solutions = Vec::new();
    let mut exit_codes = Vec::new();
    for event in all_events {
        match event.kind {
            EventKind::Output(data) => transcript.extend_from_slice(&data),
            EventKind::Solution { depth } => {
                solutions.push(Solution {
                    depth,
                    transcript_mark: transcript.len(),
                });
            }
            EventKind::Exit(code) => exit_codes.push(code),
        }
    }

    ParallelRunResult {
        stop: frontier.stop.unwrap_or(StopReason::Exhausted),
        stats: total,
        worker_stats,
        transcript,
        solutions,
        exit_codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MAX_FANOUT;
    use crate::guest::{Exit, GuestFault};
    use crate::schedule::{self, Model, Monitor};
    use crate::strategy::Dfs;
    use crate::{Engine, EngineConfig};
    use lwsnap_mem::{Prot, RegionKind, PAGE_SIZE};

    /// The bitstring-enumeration guest from the engine tests, as a
    /// factory so each worker gets its own copy.
    fn bit_guest(depth: u64) -> impl FnMut(&mut GuestState) -> Exit {
        move |st: &mut GuestState| loop {
            let phase = st.regs.get(Reg::Rbx);
            let count = st.regs.get(Reg::Rcx);
            match phase {
                0 => {
                    if count == depth {
                        let mut value = 0u64;
                        for i in 0..depth {
                            value = value << 1 | st.mem.read_u8(0x1000 + i).unwrap() as u64;
                        }
                        if value % 2 == 1 {
                            st.regs.set(Reg::Rbx, 2);
                            return Exit::Output {
                                fd: 1,
                                data: format!("{value} ").into_bytes(),
                            };
                        }
                        return Exit::Fail;
                    }
                    st.regs.set(Reg::Rbx, 1);
                    return Exit::Guess { n: 2, hint: None };
                }
                1 => {
                    let bit = st.regs.get(Reg::Rax) as u8;
                    st.mem.write_u8(0x1000 + count, bit).unwrap();
                    st.regs.set(Reg::Rcx, count + 1);
                    st.regs.set(Reg::Rbx, 0);
                }
                2 => {
                    st.regs.set(Reg::Rbx, 3);
                    return Exit::Emit;
                }
                _ => return Exit::Fail,
            }
        }
    }

    fn bit_root() -> GuestState {
        let mut st = GuestState::new();
        st.mem
            .map_fixed(0x1000, PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "bits")
            .unwrap();
        st
    }

    #[test]
    fn matches_sequential_dfs_transcript_exactly() {
        let sequential = Engine::new(Dfs::new()).run(&mut bit_guest(5), bit_root());
        for workers in [1, 2, 4, 7] {
            let parallel = ParallelEngine::new(workers).run(|| bit_guest(5), bit_root());
            assert_eq!(parallel.stop, StopReason::Exhausted);
            assert_eq!(
                parallel.transcript, sequential.transcript,
                "transcript differs at {workers} workers"
            );
            assert_eq!(parallel.solutions.len(), sequential.solutions.len());
            for (p, s) in parallel.solutions.iter().zip(&sequential.solutions) {
                assert_eq!(p, s, "solution records must match");
            }
        }
    }

    #[test]
    fn aggregate_stats_match_sequential_totals() {
        let sequential = Engine::new(Dfs::new()).run(&mut bit_guest(6), bit_root());
        let parallel = ParallelEngine::new(3).run(|| bit_guest(6), bit_root());
        let (p, s) = (parallel.stats, sequential.stats);
        assert_eq!(p.extensions_evaluated, s.extensions_evaluated);
        assert_eq!(p.snapshots_created, s.snapshots_created);
        assert_eq!(p.inline_continues, s.inline_continues);
        assert_eq!(p.restores, s.restores);
        assert_eq!(p.failures, s.failures);
        assert_eq!(p.solutions, s.solutions);
        // Per-worker stats decompose the totals.
        let sum: u64 = parallel
            .worker_stats
            .iter()
            .map(|w| w.extensions_evaluated)
            .sum();
        assert_eq!(sum, p.extensions_evaluated);
    }

    /// A guest whose root guesses 6 and whose extension `i` then takes
    /// the `i`-th way out of a path: output + emit + fail, an empty
    /// guess, an oversized guess, an exit, a fault, output + exit.
    fn every_exit_guest() -> impl FnMut(&mut GuestState) -> Exit {
        |st: &mut GuestState| {
            let phase = st.regs.get(Reg::Rbx);
            st.regs.set(Reg::Rbx, phase + 1);
            if phase == 0 {
                return Exit::Guess { n: 6, hint: None };
            }
            if phase == 1 {
                st.regs.set(Reg::R12, st.regs.get(Reg::Rax));
            }
            match (st.regs.get(Reg::R12), phase) {
                (0, 1) => Exit::Output {
                    fd: 1,
                    data: b"zero ".to_vec(),
                },
                (0, 2) => Exit::Emit,
                (1, _) => Exit::Guess { n: 0, hint: None },
                (2, _) => Exit::Guess {
                    n: MAX_FANOUT + 1,
                    hint: None,
                },
                (3, _) => Exit::Exit { code: 7 },
                (4, _) => Exit::Fault(GuestFault::IllegalInstruction { rip: 4 }),
                (5, 1) => Exit::Output {
                    fd: 2,
                    data: b"five ".to_vec(),
                },
                (5, _) => Exit::Exit { code: 9 },
                _ => Exit::Fail,
            }
        }
    }

    #[test]
    fn every_exit_arm_matches_across_engines() {
        let sequential = Engine::new(Dfs::new()).run(&mut every_exit_guest(), GuestState::new());
        let s = sequential.stats;
        assert_eq!(sequential.stop, StopReason::Exhausted);
        assert_eq!(sequential.transcript_str(), "zero five ");
        assert_eq!(sequential.exit_codes, [7, 9]);
        assert_eq!(sequential.solutions.len(), 1);
        assert_eq!(
            (
                s.extensions_evaluated,
                s.failures,
                s.exits,
                s.faults,
                s.solutions
            ),
            (7, 2, 2, 2, 1)
        );
        for workers in [1, 2, 4] {
            let parallel = ParallelEngine::new(workers).run(every_exit_guest, GuestState::new());
            let p = parallel.stats;
            assert_eq!(parallel.stop, sequential.stop);
            assert_eq!(parallel.transcript, sequential.transcript);
            assert_eq!(parallel.solutions, sequential.solutions);
            assert_eq!(parallel.exit_codes, sequential.exit_codes);
            assert_eq!(
                (
                    p.extensions_evaluated,
                    p.failures,
                    p.exits,
                    p.faults,
                    p.solutions
                ),
                (
                    s.extensions_evaluated,
                    s.failures,
                    s.exits,
                    s.faults,
                    s.solutions
                ),
                "stats differ at {workers} workers"
            );
        }

        // Under `Abort`, the first faulting path in DFS order is the
        // oversized guess; parallel runs stop at whichever fault comes first.
        let config = EngineConfig {
            fault_policy: FaultPolicy::Abort,
            ..Default::default()
        };
        let aborted =
            Engine::with_config(Dfs::new(), config).run(&mut every_exit_guest(), GuestState::new());
        assert_eq!(
            aborted.stop,
            StopReason::Aborted(GuestFault::Other(format!(
                "guess fan-out {} exceeds MAX_FANOUT",
                MAX_FANOUT + 1
            )))
        );
        for workers in [1, 2, 4] {
            let config = ParallelConfig {
                fault_policy: FaultPolicy::Abort,
                ..ParallelConfig::new(workers)
            };
            let parallel =
                ParallelEngine::with_config(config).run(every_exit_guest, GuestState::new());
            assert!(matches!(parallel.stop, StopReason::Aborted(_)));
        }
    }

    #[test]
    fn solution_limit_stops_early_with_partial_results() {
        let config = ParallelConfig {
            max_solutions: Some(2),
            ..ParallelConfig::new(4)
        };
        let result = ParallelEngine::with_config(config).run(|| bit_guest(6), bit_root());
        assert_eq!(result.stop, StopReason::SolutionLimit);
        assert!(result.solutions.len() >= 2, "at least the limit is found");
        assert!(
            result.solutions.len() < 32,
            "far fewer than the 32 exhaustive solutions"
        );
    }

    #[test]
    fn extension_budget_stops_early() {
        let config = ParallelConfig {
            max_extensions: Some(5),
            ..ParallelConfig::new(2)
        };
        let result = ParallelEngine::with_config(config).run(|| bit_guest(10), bit_root());
        assert_eq!(result.stop, StopReason::ExtensionBudget);
    }

    #[test]
    fn abort_policy_propagates_fault() {
        struct FaultingGuest;
        impl Guest for FaultingGuest {
            fn resume(&mut self, st: &mut GuestState) -> Exit {
                if st.depth == 0 && st.regs.get(Reg::Rbx) == 0 {
                    st.regs.set(Reg::Rbx, 1);
                    return Exit::Guess { n: 2, hint: None };
                }
                Exit::Fault(GuestFault::IllegalInstruction { rip: 0xbad })
            }
        }
        let config = ParallelConfig {
            fault_policy: FaultPolicy::Abort,
            ..ParallelConfig::new(2)
        };
        let result = ParallelEngine::with_config(config).run(|| FaultingGuest, GuestState::new());
        assert!(matches!(result.stop, StopReason::Aborted(_)));
    }

    #[test]
    fn single_worker_degenerates_to_sequential_order_live() {
        // With one worker and LIFO popping, even the *live* execution
        // order is depth-first; the sort is then a no-op.
        let sequential = Engine::new(Dfs::new()).run(&mut bit_guest(4), bit_root());
        let parallel = ParallelEngine::new(1).run(|| bit_guest(4), bit_root());
        assert_eq!(parallel.transcript, sequential.transcript);
        assert_eq!(parallel.stats.restores, sequential.stats.restores);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let result = ParallelEngine::new(0).run(|| bit_guest(3), bit_root());
        assert_eq!(result.worker_stats.len(), 1);
        assert_eq!(result.solutions.len(), 4);
    }

    /// A work item told apart by its one-step path.
    fn item(tag: u64) -> WorkItem {
        WorkItem {
            kind: ItemKind::Root(Box::default()),
            path: vec![tag],
        }
    }

    #[test]
    fn frontier_owner_takes_newest_others_take_oldest_of_next_queue() {
        let mut frontier = Frontier::new(3, 0);
        assert_eq!(
            (frontier.pending, frontier.queued, frontier.peak),
            (1, 1, 1)
        );
        assert_eq!(frontier.next(0), Some(Some(0)));
        frontier.push(1, vec![10, 11, 12]);
        frontier.push(2, vec![20]);
        assert_eq!(
            (frontier.pending, frontier.queued, frontier.peak),
            (5, 4, 4)
        );

        // The owner pops its newest item; worker 0's next queue after
        // its own is worker 1's, whose oldest item it takes.
        assert_eq!(frontier.next(1), Some(Some(12)));
        assert_eq!(frontier.next(0), Some(Some(10)));
        // Worker 2's own queue comes first; then it wraps round to 1.
        assert_eq!(frontier.next(2), Some(Some(20)));
        assert_eq!(frontier.next(2), Some(Some(11)));
        assert_eq!(frontier.next(0), None, "nothing queued: park");
        // Taking leaves `pending` to the retire; `peak` keeps the high water.
        assert_eq!(
            (frontier.pending, frontier.queued, frontier.peak),
            (5, 0, 4)
        );
        frontier.push(0, vec![1]);
        assert_eq!((frontier.queued, frontier.peak), (1, 4));
    }

    #[test]
    fn parked_worker_wakes_for_a_push_the_last_retire_and_a_stop() {
        use std::sync::mpsc;
        use std::time::Duration;

        // Worker 1 parks in its wait; the returned receiver yields
        // the path of what it was woken for. A worker that never wakes
        // stays parked, and `woken` fails the test instead of hanging.
        fn park(shared: &Arc<SharedState>) -> mpsc::Receiver<Option<Vec<u64>>> {
            let (done, woken) = mpsc::channel();
            let taker = Arc::clone(shared);
            std::thread::spawn(move || {
                let next = taker.frontier.wait_for(|f| f.next(1));
                let _ = done.send(next.map(|item| item.path));
            });
            while shared.frontier.parked() == 0 {
                std::thread::yield_now();
            }
            woken
        }
        fn woken(taker: mpsc::Receiver<Option<Vec<u64>>>) -> Option<Vec<u64>> {
            taker
                .recv_timeout(Duration::from_secs(10))
                .expect("the parked worker was never woken")
        }

        let shared = Arc::new(SharedState::new(ParallelConfig::new(2), GuestState::new()));
        let next = |shared: &SharedState| shared.frontier.wait_for(|f| f.next(0));
        assert_eq!(next(&shared).map(|item| item.path), Some(vec![]));
        let taker = park(&shared);
        shared.frontier.update(|f| f.push(0, vec![item(1)]));
        assert_eq!(woken(taker), Some(vec![1]));

        let taker = park(&shared);
        shared.frontier.update(Frontier::retire);
        shared.frontier.update(Frontier::retire);
        assert_eq!(woken(taker), None, "the run drained");

        let shared = Arc::new(SharedState::new(ParallelConfig::new(2), GuestState::new()));
        assert!(next(&shared).is_some());
        let taker = park(&shared);
        shared.record_stop(StopReason::SolutionLimit);
        assert_eq!(woken(taker), None, "the run stopped");
    }

    /// Where a model worker stands.
    #[derive(Clone, Copy, Hash, PartialEq)]
    enum Worker {
        Waiting,
        /// Evaluating a path, now at this node.
        At(u32),
        Ended,
    }

    /// `worker_loop`, `evaluate_path` and `record_stop` on a
    /// `Frontier<u32>`: the workers explore a complete binary tree in
    /// heap order (node `x` has children `2x + 1` and `2x + 2`), pushing
    /// the right child of each node and continuing the left inline, and
    /// the last thread, if there is a stopper, stops the run.
    #[derive(Clone, Hash)]
    struct Run {
        monitor: Monitor<Frontier<u32>>,
        workers: Vec<Worker>,
        stopper: bool,
        /// Leaves are `first_leaf..=2 * first_leaf`, one path each.
        first_leaf: u32,
        /// Bit `leaf - first_leaf` is set once that path retired.
        retired: u64,
        retired_twice: bool,
    }

    impl Run {
        fn new(workers: usize, depth: u32, stopper: bool) -> Self {
            Run {
                monitor: Monitor::new(Frontier::new(workers, 0), workers + usize::from(stopper)),
                workers: vec![Worker::Waiting; workers],
                stopper,
                first_leaf: (1 << depth) - 1,
                retired: 0,
                retired_twice: false,
            }
        }
    }

    impl Model for Run {
        fn threads(&self) -> usize {
            self.workers.len() + usize::from(self.stopper)
        }

        fn runnable(&self, thread: usize) -> bool {
            self.monitor.runnable(thread)
        }

        fn step(&mut self, me: usize) -> String {
            let Some(&worker) = self.workers.get(me) else {
                self.monitor.update(|f| f.stop(StopReason::SolutionLimit));
                self.monitor.end(me);
                return "stop".into();
            };
            match worker {
                Worker::Waiting => match self.monitor.wait_for(me, |f| f.next(me)) {
                    None => "park".into(),
                    Some(None) => {
                        self.workers[me] = Worker::Ended;
                        self.monitor.end(me);
                        "end".into()
                    }
                    Some(Some(node)) => {
                        self.workers[me] = Worker::At(node);
                        format!("take {node}")
                    }
                },
                Worker::At(node) if node < self.first_leaf => {
                    self.monitor.update(|f| f.push(me, vec![2 * node + 2]));
                    self.workers[me] = Worker::At(2 * node + 1);
                    format!("push {}", 2 * node + 2)
                }
                Worker::At(leaf) => {
                    self.monitor.update(Frontier::retire);
                    let bit = 1 << (leaf - self.first_leaf);
                    self.retired_twice |= self.retired & bit != 0;
                    self.retired |= bit;
                    self.workers[me] = Worker::Waiting;
                    format!("retire {leaf}")
                }
                Worker::Ended => unreachable!("an ended worker is not runnable"),
            }
        }

        fn check(&self, quiescent: bool) -> Result<(), String> {
            let f = self.monitor.state();
            let over = f.stop.is_some() || f.pending == 0;
            if self.monitor.stranded().next().is_some() && (over || f.queued > 0) {
                return Err("a worker is parked while an item is queued or the run is over".into());
            }
            if self.workers.contains(&Worker::Ended) && !over {
                return Err("a worker ended while the run has pending paths".into());
            }
            if self.retired_twice {
                return Err("a path retired twice".into());
            }
            if quiescent {
                if self.workers.iter().any(|&w| w != Worker::Ended) {
                    return Err("a worker is still parked when nothing can run".into());
                }
                let all = (1u64 << (self.first_leaf + 1)) - 1;
                if f.pending != f.queued || (f.stop.is_none() && self.retired != all) {
                    return Err("a path was never retired".into());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn frontier_wake_rules_hold_on_every_schedule() {
        for (workers, depth) in [(3, 2), (2, 3)] {
            for stopper in [false, true] {
                let started = std::time::Instant::now();
                let checked = schedule::check(&Run::new(workers, depth, stopper));
                eprintln!(
                    "frontier: {workers} workers, depth {depth}, stopper {stopper}: \
                     {checked:?} in {:?}",
                    started.elapsed()
                );
            }
        }
    }

    #[test]
    fn one_worker_reports_the_sequential_peaks() {
        for depth in [3, 6] {
            let sequential = Engine::new(Dfs::new()).run(&mut bit_guest(depth), bit_root());
            let parallel = ParallelEngine::new(1).run(|| bit_guest(depth), bit_root());
            let (p, s) = (parallel.stats, sequential.stats);
            assert_eq!(s.frontier_peak, depth as usize, "depth {depth}");
            assert_eq!(
                (p.frontier_peak, p.snapshots_peak),
                (s.frontier_peak, s.snapshots_peak),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn guest_panic_fails_the_run_instead_of_hanging() {
        // Panics on the last path of a depth-6 tree, after every other
        // worker has had work queued.
        fn guest() -> impl FnMut(&mut GuestState) -> Exit {
            let mut inner = bit_guest(6);
            move |st: &mut GuestState| {
                let ones = (0..6).all(|i| st.mem.read_u8(0x1000 + i).unwrap() == 1);
                assert!(
                    st.regs.get(Reg::Rcx) < 6 || !ones,
                    "guest bug on path 111111"
                );
                inner(st)
            }
        }
        for workers in [1, 2, 4] {
            let (done, finished) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    ParallelEngine::new(workers).run(guest, bit_root());
                });
                done.send(()).unwrap();
                run
            });
            // A hung run fails the test here instead of hanging it.
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("run hung at {workers} workers"));
            let run = runner.join().expect("the runner thread catches the panic");
            assert!(run.is_err(), "run returned at {workers} workers");
        }
    }
}
