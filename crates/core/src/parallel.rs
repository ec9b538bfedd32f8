//! Work-stealing parallel search over shared immutable snapshots.
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
//! * Each worker owns a **lock-free Chase–Lev deque** ([`crate::deque`])
//!   of `WorkItem`s (one unevaluated extension step each:
//!   `Arc<Snapshot>` + extension index + tree path).
//! * A worker pushes the siblings of every guess onto its **own** deque
//!   (bottom) and continues extension 0 inline — the same depth-first
//!   fast path as the sequential engine. An owner push is a plain store
//!   plus a `Release` publish: no lock, no read-modify-write.
//! * An idle worker pops its own deque LIFO (depth-first, cache-warm) and
//!   **steals from the top** of other workers' deques (the shallowest
//!   entry — the largest unexplored subtree, the classic work-stealing
//!   heuristic). A steal is one `compare_exchange`.
//! * Only when a full steal sweep finds nothing does a worker fall back
//!   to the **condvar slow path**: it registers in the idle count and
//!   parks on a timed wait, so an idle fleet sleeps instead of spinning.
//!   Producers skip the wakeup lock entirely while nobody is parked.
//! * Termination: a shared count of unevaluated paths; the run is over
//!   when it reaches zero.
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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::deque::{Deque, Steal, Stealer};
use crate::engine::{EngineStats, FaultPolicy, RunResult, Solution, StopReason, MAX_FANOUT};
use crate::guest::{Exit, Guest, GuestFault, GuestState};
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
/// [`RunResult`] plus per-worker statistics.
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

    /// Collapses into the sequential engine's result type (dropping the
    /// per-worker breakdown).
    pub fn into_run_result(self) -> RunResult {
        RunResult {
            stop: self.stop,
            stats: self.stats,
            transcript: self.transcript,
            solutions: self.solutions,
            exit_codes: self.exit_codes,
        }
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

/// State shared by all workers.
struct SharedState {
    /// Thief handles onto every worker's lock-free deque, indexed by
    /// worker id. The owning [`Deque`] handles live on the worker
    /// threads themselves.
    stealers: Vec<Stealer<WorkItem>>,
    /// Paths queued or executing. The run is over when this hits zero.
    pending: AtomicUsize,
    /// Sleep/wake coordination for idle workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Workers currently parked on `idle_cv`. Producers skip the wakeup
    /// lock entirely while this is zero, so wide fan-outs in a saturated
    /// run pay one deque lock per sibling batch and nothing else. A
    /// stale-zero read can miss a wakeup; the parked worker's timed wait
    /// bounds that miss at one tick.
    idle: AtomicUsize,
    /// Cooperative early-stop flag.
    stop: AtomicBool,
    /// First non-exhaustion stop reason, if any.
    stop_reason: Mutex<Option<StopReason>>,
    /// Global counters for limit enforcement.
    solutions: AtomicU64,
    extensions: AtomicU64,
    /// Live snapshots and peaks.
    live_snapshots: Arc<AtomicUsize>,
    peak_snapshots: AtomicUsize,
    frontier: AtomicUsize,
    peak_frontier: AtomicUsize,
    config: ParallelConfig,
}

impl SharedState {
    fn record_stop(&self, reason: StopReason) {
        let mut slot = self.stop_reason.lock().unwrap();
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.stop.store(true, Ordering::Release);
        let _guard = self.idle_lock.lock().unwrap();
        self.idle_cv.notify_all();
    }

    fn bump_peak(counter: &AtomicUsize, peak: &AtomicUsize, added: usize) {
        let now = counter.fetch_add(added, Ordering::Relaxed) + added;
        peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Pops local work (LIFO) or steals from a victim (FIFO).
    ///
    /// Lock-free fast path: the local pop is the owner side of a
    /// Chase–Lev deque, a steal is one CAS. `Steal::Retry` (a lost race)
    /// triggers a bounded number of re-sweeps; if work keeps slipping
    /// away the caller falls back to the condvar slow path, whose timed
    /// wait guarantees liveness.
    fn find_work(&self, me: usize, own: &mut Deque<WorkItem>) -> Option<WorkItem> {
        if let Some(item) = own.pop() {
            self.frontier.fetch_sub(1, Ordering::Relaxed);
            return Some(item);
        }
        let n = self.stealers.len();
        for _sweep in 0..4 {
            let mut contended = false;
            for offset in 1..n {
                let victim = (me + offset) % n;
                // Retry the same victim a few times: a Retry means work
                // is moving right here, the best place to look.
                for _attempt in 0..4 {
                    match self.stealers[victim].steal() {
                        Steal::Success(item) => {
                            self.frontier.fetch_sub(1, Ordering::Relaxed);
                            return Some(item);
                        }
                        Steal::Empty => break,
                        Steal::Retry => {
                            contended = true;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            if !contended {
                return None;
            }
        }
        None
    }

    /// Publishes a sibling batch onto the worker's own deque (wait-free
    /// owner pushes), then wakes sleepers only if any exist.
    fn push_work(&self, own: &mut Deque<WorkItem>, items: Vec<WorkItem>) {
        let added = items.len();
        if added == 0 {
            return;
        }
        // Count BEFORE publishing: a thief may pop (and decrement) the
        // moment an item is visible, so incrementing afterwards would
        // let the counter underflow.
        Self::bump_peak(&self.frontier, &self.peak_frontier, added);
        for item in items {
            own.push(item);
        }
        if self.idle.load(Ordering::Acquire) > 0 {
            let _guard = self.idle_lock.lock().unwrap();
            self.idle_cv.notify_all();
        }
    }

    /// Marks `n` new pending paths.
    fn add_pending(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::AcqRel);
    }

    /// Retires one pending path; wakes everyone when the run is over.
    fn retire_pending(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.idle_lock.lock().unwrap();
            self.idle_cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.pending.load(Ordering::Acquire) == 0
    }
}

/// The work-stealing parallel search engine.
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

    /// Read access to the configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
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
        let workers = self.config.workers;
        let mut deques: Vec<Deque<WorkItem>> = (0..workers).map(|_| Deque::new()).collect();
        let shared = SharedState {
            stealers: deques.iter().map(Deque::stealer).collect(),
            pending: AtomicUsize::new(1),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(None),
            solutions: AtomicU64::new(0),
            extensions: AtomicU64::new(0),
            live_snapshots: Arc::new(AtomicUsize::new(0)),
            peak_snapshots: AtomicUsize::new(0),
            frontier: AtomicUsize::new(0),
            peak_frontier: AtomicUsize::new(0),
            config: self.config.clone(),
        };
        SharedState::bump_peak(&shared.frontier, &shared.peak_frontier, 1);
        deques[0].push(WorkItem {
            kind: ItemKind::Root(Box::new(root)),
            path: Vec::new(),
        });

        let mut worker_outputs: Vec<(EngineStats, Vec<PathEvent>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = deques
                .into_iter()
                .enumerate()
                .map(|(id, mut own)| {
                    let shared = &shared;
                    let factory = &factory;
                    scope.spawn(move || {
                        let mut guest = factory();
                        worker_loop(id, shared, &mut own, &mut guest)
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

impl<S: crate::strategy::Strategy> crate::Engine<S> {
    /// Parallel counterpart of [`crate::Engine::run`]: explores the same
    /// search space on `workers` threads and reports results in
    /// deterministic depth-first order.
    ///
    /// The configured strategy is *not* consulted — parallel exploration
    /// is depth-first per worker by construction (see the module docs of
    /// [`crate::parallel`]). Limits and the fault policy carry over from
    /// the engine's [`crate::EngineConfig`]; `echo_output` and
    /// `keep_all_snapshots` are not supported in parallel runs (output
    /// arrives out of order until the final merge, and there is no
    /// shared snapshot tree to pin) and are ignored.
    pub fn run_parallel<G, F>(&mut self, workers: usize, factory: F, root: GuestState) -> RunResult
    where
        G: Guest,
        F: Fn() -> G + Sync,
    {
        let config = ParallelConfig {
            workers: workers.max(1),
            max_solutions: self.config().max_solutions,
            max_extensions: self.config().max_extensions,
            fault_policy: self.config().fault_policy,
        };
        ParallelEngine::with_config(config)
            .run(factory, root)
            .into_run_result()
    }
}

/// One worker: find work, evaluate paths depth-first, park when idle.
fn worker_loop(
    id: usize,
    shared: &SharedState,
    own: &mut Deque<WorkItem>,
    guest: &mut dyn Guest,
) -> (EngineStats, Vec<PathEvent>) {
    let mut stats = EngineStats::default();
    let mut events: Vec<PathEvent> = Vec::new();
    loop {
        if shared.done() {
            break;
        }
        match shared.find_work(id, own) {
            Some(item) => evaluate_path(shared, own, guest, item, &mut stats, &mut events),
            None => {
                let guard = shared.idle_lock.lock().unwrap();
                if shared.done() {
                    break;
                }
                // Timed wait guards against the (benign) races between
                // the emptiness check and a concurrent push, and between
                // a producer's idle-count read and this increment.
                shared.idle.fetch_add(1, Ordering::AcqRel);
                let _ = shared
                    .idle_cv
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .unwrap();
                shared.idle.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    (stats, events)
}

/// Evaluates one path to completion: materialise, resume, fork siblings
/// at guesses, continue extension 0 inline until the path dies.
fn evaluate_path(
    shared: &SharedState,
    own: &mut Deque<WorkItem>,
    guest: &mut dyn Guest,
    item: WorkItem,
    stats: &mut EngineStats,
    events: &mut Vec<PathEvent>,
) {
    // Retire the path on every exit from this function — including an
    // unwind out of the guest or the engine itself. Without this, a
    // panicking worker would leave `pending` above zero and the
    // surviving workers polling forever; with it, the run drains and
    // the panic propagates through the scope join.
    struct RetireOnDrop<'a>(&'a SharedState);
    impl Drop for RetireOnDrop<'_> {
        fn drop(&mut self) {
            self.0.retire_pending();
        }
    }
    let _retire = RetireOnDrop(shared);

    let mut path = item.path;
    let mut state = match item.kind {
        ItemKind::Root(state) => *state,
        ItemKind::Ext { snap, index } => {
            let mut st = snap.snap.materialize();
            st.regs.set(Reg::Rax, index);
            stats.restores += 1;
            st
        }
    };
    let mut seq: u32 = 0;
    // Events of one segment share one Arc'd copy of the path (built
    // lazily — failed paths, the overwhelming majority, never pay it).
    let mut path_tag: Option<Arc<[u64]>> = None;
    let mut push_event =
        |path: &[u64], tag: &mut Option<Arc<[u64]>>, seq: &mut u32, kind: EventKind| {
            let tag = tag.get_or_insert_with(|| Arc::from(path)).clone();
            events.push(PathEvent {
                path: tag,
                seq: *seq,
                kind,
            });
            *seq += 1;
        };

    'segment: loop {
        // The shared counter exists only to enforce a configured budget;
        // totals come from the per-worker stats, so an unbounded run
        // never touches this contended cache line.
        if let Some(max) = shared.config.max_extensions {
            if shared.extensions.fetch_add(1, Ordering::AcqRel) >= max {
                shared.record_stop(StopReason::ExtensionBudget);
                break 'segment;
            }
        }
        stats.extensions_evaluated += 1;

        loop {
            if shared.stop.load(Ordering::Acquire) {
                break 'segment;
            }
            match guest.resume(&mut state) {
                Exit::Output { fd: _, data } => {
                    push_event(&path, &mut path_tag, &mut seq, EventKind::Output(data));
                }
                Exit::Emit => {
                    push_event(
                        &path,
                        &mut path_tag,
                        &mut seq,
                        EventKind::Solution { depth: state.depth },
                    );
                    stats.solutions += 1;
                    if let Some(max) = shared.config.max_solutions {
                        let total = shared.solutions.fetch_add(1, Ordering::AcqRel) + 1;
                        if total >= max {
                            shared.record_stop(StopReason::SolutionLimit);
                            break 'segment;
                        }
                    }
                }
                Exit::Guess { n, hint } => {
                    if n == 0 {
                        stats.failures += 1;
                        break 'segment;
                    }
                    if n > MAX_FANOUT {
                        stats.faults += 1;
                        match shared.config.fault_policy {
                            FaultPolicy::FailPath => break 'segment,
                            FaultPolicy::Abort => {
                                shared.record_stop(StopReason::Aborted(GuestFault::Other(
                                    format!("guess fan-out {n} exceeds MAX_FANOUT"),
                                )));
                                break 'segment;
                            }
                        }
                    }
                    state.depth += 1;
                    if let Some(h) = &hint {
                        state.gcost = h.g;
                    }
                    if n > 1 {
                        // Capture once; all siblings share the snapshot.
                        SharedState::bump_peak(
                            shared.live_snapshots.as_ref(),
                            &shared.peak_snapshots,
                            1,
                        );
                        let snap = Arc::new(TrackedSnapshot {
                            snap: Snapshot::capture(&state, None),
                            live: shared.live_snapshots.clone(),
                        });
                        stats.snapshots_created += 1;
                        let siblings: Vec<WorkItem> = (1..n)
                            .map(|i| {
                                let mut sibling_path = path.clone();
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
                        shared.add_pending(siblings.len());
                        shared.push_work(own, siblings);
                    }
                    // Depth-first fast path: continue extension 0 here.
                    state.regs.set(Reg::Rax, 0);
                    path.push(0);
                    path_tag = None;
                    seq = 0;
                    stats.inline_continues += 1;
                    continue 'segment;
                }
                Exit::Fail => {
                    stats.failures += 1;
                    break 'segment;
                }
                Exit::Exit { code } => {
                    stats.exits += 1;
                    push_event(&path, &mut path_tag, &mut seq, EventKind::Exit(code));
                    break 'segment;
                }
                Exit::Fault(fault) => {
                    stats.faults += 1;
                    match shared.config.fault_policy {
                        FaultPolicy::FailPath => break 'segment,
                        FaultPolicy::Abort => {
                            shared.record_stop(StopReason::Aborted(fault));
                            break 'segment;
                        }
                    }
                }
            }
        }
    }
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
    total.frontier_peak = shared.peak_frontier.load(Ordering::Relaxed);

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
                    index: solutions.len() as u64,
                    depth,
                    transcript_mark: transcript.len(),
                });
            }
            EventKind::Exit(code) => exit_codes.push(code),
        }
    }

    let stop = shared
        .stop_reason
        .lock()
        .unwrap()
        .take()
        .unwrap_or(StopReason::Exhausted);

    ParallelRunResult {
        stop,
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
    use crate::strategy::Dfs;
    use crate::Engine;
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

    #[test]
    fn run_parallel_on_engine_is_equivalent() {
        let sequential = Engine::new(Dfs::new()).run(&mut bit_guest(4), bit_root());
        let parallel = Engine::new(Dfs::new()).run_parallel(2, || bit_guest(4), bit_root());
        assert_eq!(parallel.transcript, sequential.transcript);
        assert_eq!(parallel.stop, StopReason::Exhausted);
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
}
