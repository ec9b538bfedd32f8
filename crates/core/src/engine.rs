//! The backtracking engine: the libOS scheduler loop of paper §4.
//!
//! "The libOS's scheduler selects the next unevaluated extension, restores
//! the lightweight snapshot, sets the extension number into `%rax`, and
//! resumes execution at ring 3." — that sentence is this module's main
//! loop, with the [`crate::strategy::Strategy`] choosing the next
//! extension and the [`crate::snapshot::SnapshotTree`] holding the live
//! partial candidates.
//!
//! The engine adds one optimisation the paper implies for DFS: when the
//! strategy's [`expand`](crate::strategy::Strategy::expand) elects an
//! inline extension, the current state continues directly — no restore.
//! Backtracking to any *other* extension restores its parent snapshot in
//! O(1), in place: the finished path's state is the one the restore
//! writes into ([`Snapshot::restore_into`]), so a restore re-points only
//! what the path changed and a read-only path's sibling costs no
//! reference-count traffic at all.
//!
//! Acting on how the guest stopped is shared with [`crate::parallel`]:
//! both engines call this module's `step`, the one place a guest [`Exit`]
//! is handled. What stays here is the frontier policy: the extension
//! budget, the restore from the [`SnapshotTree`], and at a fork the
//! capture, [`Strategy::expand`] and the inline-or-queue choice.

use crate::guest::{Exit, GuessHint, Guest, GuestFault, GuestState};
use crate::registers::Reg;
use crate::snapshot::{Snapshot, SnapshotId, SnapshotTree};
use crate::strategy::Strategy;

/// Hard cap on guess fan-out (a guess larger than this is a guest bug).
pub const MAX_FANOUT: u64 = 1 << 20;

/// What to do when a guest faults mid-extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Treat the fault like `sys_guess_fail`: discard the path, continue
    /// the search (the default — faults are dead branches).
    #[default]
    FailPath,
    /// Abort the whole search, reporting the fault.
    Abort,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Stop after this many solutions (`sys_emit` calls).
    pub max_solutions: Option<u64>,
    /// Stop after evaluating this many extension steps.
    pub max_extensions: Option<u64>,
    /// Fault handling policy.
    pub fault_policy: FaultPolicy,
    /// Echo guest console output to the host's stdout/stderr as it
    /// arrives (in addition to the transcript).
    pub echo_output: bool,
    /// Ablation: pin every snapshot instead of reclaiming it when its
    /// last pending extension is consumed. Peak memory then grows with
    /// the whole search tree — the behaviour the paper's "rapid creation
    /// (and destruction) of snapshot trees" avoids.
    pub keep_all_snapshots: bool,
}

/// Counters describing one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Extension steps evaluated (root counts as one).
    pub extensions_evaluated: u64,
    /// Snapshots captured.
    pub snapshots_created: u64,
    /// High-water mark of live snapshots.
    pub snapshots_peak: usize,
    /// Snapshot restores: extensions resumed from a snapshot in the tree
    /// rather than continued inline.
    pub restores: u64,
    /// Inline depth-first continuations (no restore needed).
    pub inline_continues: u64,
    /// `sys_guess_fail` events.
    pub failures: u64,
    /// Normal guest exits.
    pub exits: u64,
    /// Guest faults.
    pub faults: u64,
    /// Solutions emitted.
    pub solutions: u64,
    /// High-water mark of the strategy frontier.
    pub frontier_peak: usize,
    /// Extensions discarded by memory-bounded strategies.
    pub dropped_extensions: u64,
}

/// A solution event (`sys_emit`). Its 0-based index in discovery order
/// is its position in [`RunResult::solutions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Guess depth of the emitting path.
    pub depth: u64,
    /// Transcript length at emission; `transcript[prev..here]` is the
    /// output this path produced since the previous solution.
    pub transcript_mark: usize,
}

/// Why the run ended.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Every extension was evaluated; the search space is exhausted.
    Exhausted,
    /// The configured solution limit was reached.
    SolutionLimit,
    /// The configured extension budget was exhausted.
    ExtensionBudget,
    /// A guest fault aborted the run (`FaultPolicy::Abort`).
    Aborted(GuestFault),
}

/// The result of one engine run.
#[derive(Debug)]
pub struct RunResult {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Run counters.
    pub stats: EngineStats,
    /// Concatenated guest console output (write-through channel).
    pub transcript: Vec<u8>,
    /// Solutions in discovery order.
    pub solutions: Vec<Solution>,
    /// Exit codes of paths that terminated via `exit`.
    pub exit_codes: Vec<i64>,
}

impl RunResult {
    /// The transcript as lossy UTF-8 (convenience for tests/examples).
    pub fn transcript_str(&self) -> String {
        String::from_utf8_lossy(&self.transcript).into_owned()
    }

    /// The output produced between solution `i-1` and solution `i`.
    pub fn solution_output(&self, i: usize) -> &[u8] {
        let end = self.solutions[i].transcript_mark;
        let start = if i == 0 {
            0
        } else {
            self.solutions[i - 1].transcript_mark
        };
        &self.transcript[start..end]
    }
}

/// How a path segment run by [`step`] ended.
pub(crate) enum Segment {
    /// The path is over: it failed, exited, faulted under
    /// [`FaultPolicy::FailPath`], or the sink reported the run stopped.
    Died,
    /// The guest guessed `n` (1..=[`MAX_FANOUT`]) extensions. The state
    /// is the new partial candidate: its depth and `gcost` are updated.
    Forked { n: u64, hint: Option<GuessHint> },
    /// The run must stop for this reason.
    Stop(StopReason),
}

/// Where a path segment's results go. Each engine supplies its own.
pub(crate) trait Sink {
    /// Console output from file descriptor `fd`.
    fn output(&mut self, fd: u32, data: Vec<u8>);
    /// A solution at guess depth `depth`; returns whether the run's
    /// solution limit is now reached.
    fn solution(&mut self, depth: u64) -> bool;
    /// A path's exit code.
    fn exit(&mut self, code: i64);
    /// Whether the run was stopped elsewhere (checked before each resume).
    fn stopped(&self) -> bool {
        false
    }
}

/// Evaluates one extension step: resumes `state` until the path dies,
/// forks or must stop. Console output, solutions and exit codes go to
/// `sink`; the fan-out cap, the fault policy, the depth/`gcost` upkeep
/// and the counts happen here, for both engines.
pub(crate) fn step<K: Sink>(
    guest: &mut dyn Guest,
    state: &mut GuestState,
    policy: FaultPolicy,
    stats: &mut EngineStats,
    sink: &mut K,
) -> Segment {
    stats.extensions_evaluated += 1;
    let fault = loop {
        if sink.stopped() {
            return Segment::Died;
        }
        match guest.resume(state) {
            Exit::Output { fd, data } => sink.output(fd, data),
            Exit::Emit => {
                stats.solutions += 1;
                if sink.solution(state.depth) {
                    return Segment::Stop(StopReason::SolutionLimit);
                }
            }
            Exit::Guess { n: 0, .. } | Exit::Fail => {
                stats.failures += 1;
                return Segment::Died;
            }
            Exit::Guess { n, .. } if n > MAX_FANOUT => {
                break GuestFault::Other(format!("guess fan-out {n} exceeds MAX_FANOUT"));
            }
            Exit::Guess { n, hint } => {
                state.depth += 1;
                if let Some(h) = &hint {
                    state.gcost = h.g;
                }
                return Segment::Forked { n, hint };
            }
            Exit::Exit { code } => {
                stats.exits += 1;
                sink.exit(code);
                return Segment::Died;
            }
            Exit::Fault(fault) => break fault,
        }
    };
    stats.faults += 1;
    match policy {
        FaultPolicy::FailPath => Segment::Died,
        FaultPolicy::Abort => Segment::Stop(StopReason::Aborted(fault)),
    }
}

/// The sequential engine's [`Sink`]: results in discovery order.
struct Results<'a> {
    config: &'a EngineConfig,
    transcript: Vec<u8>,
    solutions: Vec<Solution>,
    exit_codes: Vec<i64>,
}

impl Sink for Results<'_> {
    fn output(&mut self, fd: u32, data: Vec<u8>) {
        if self.config.echo_output {
            use std::io::Write as _;
            if fd == 2 {
                let _ = std::io::stderr().write_all(&data);
            } else {
                let _ = std::io::stdout().write_all(&data);
            }
        }
        self.transcript.extend_from_slice(&data);
    }

    fn solution(&mut self, depth: u64) -> bool {
        self.solutions.push(Solution {
            depth,
            transcript_mark: self.transcript.len(),
        });
        self.config
            .max_solutions
            .is_some_and(|max| self.solutions.len() as u64 >= max)
    }

    fn exit(&mut self, code: i64) {
        self.exit_codes.push(code);
    }
}

/// The system-level backtracking engine.
pub struct Engine<S: Strategy> {
    strategy: S,
    config: EngineConfig,
}

impl<S: Strategy> Engine<S> {
    /// Creates an engine with the given strategy and default config.
    pub fn new(strategy: S) -> Self {
        Engine {
            strategy,
            config: EngineConfig::default(),
        }
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(strategy: S, config: EngineConfig) -> Self {
        Engine { strategy, config }
    }

    /// Runs `guest` from `root` until the search space is exhausted or a
    /// configured limit is hit.
    pub fn run(&mut self, guest: &mut dyn Guest, root: GuestState) -> RunResult {
        let mut tree = SnapshotTree::new();
        let mut stats = EngineStats::default();
        let mut results = Results {
            config: &self.config,
            transcript: Vec::new(),
            solutions: Vec::new(),
            exit_codes: Vec::new(),
        };

        // The one guest state of the run: the root first, then whatever
        // path runs next. A finished path's state is restored into in
        // place rather than dropped for a fresh one.
        let mut state = root;
        // The snapshot `state` descends from (its parent candidate).
        let mut parent: Option<SnapshotId> = None;

        let stop = 'run: loop {
            // Evaluate the path in `state`, continuing it inline for as
            // long as the strategy elects to.
            loop {
                if let Some(max) = self.config.max_extensions {
                    if stats.extensions_evaluated >= max {
                        break 'run StopReason::ExtensionBudget;
                    }
                }
                let policy = self.config.fault_policy;
                let (n, hint) = match step(guest, &mut state, policy, &mut stats, &mut results) {
                    Segment::Died => break,
                    Segment::Stop(reason) => break 'run reason,
                    Segment::Forked { n, hint } => (n, hint),
                };
                // Captured even when `n == 1`: a strategy may queue that
                // one extension rather than continue it inline.
                let id = tree.insert(Snapshot::capture(&state, parent), n as u32);
                if self.config.keep_all_snapshots {
                    tree.pin(id);
                }
                let inline = self.strategy.expand(id, n, hint.as_ref(), state.depth);
                for dropped in self.strategy.take_dropped() {
                    tree.release(dropped.snapshot);
                }
                // Depth-first fast path: continue in place. Otherwise the
                // strategy queued everything and picks what runs next.
                let Some(ext) = inline else { break };
                state.regs.set(Reg::Rax, ext);
                tree.release(id);
                stats.inline_continues += 1;
                parent = Some(id);
            }
            let Some(ext) = self.strategy.next() else {
                break StopReason::Exhausted;
            };
            tree.get(ext.snapshot)
                .expect("queued snapshot must be live")
                .restore_into(&mut state);
            state.regs.set(Reg::Rax, ext.index);
            stats.restores += 1;
            tree.release(ext.snapshot);
            parent = Some(ext.snapshot);
        };

        stats.snapshots_peak = tree.peak_live();
        stats.snapshots_created = tree.total_created();
        stats.frontier_peak = self.strategy.peak_frontier();
        stats.dropped_extensions = self.strategy.total_dropped();
        RunResult {
            stop,
            stats,
            transcript: results.transcript,
            solutions: results.solutions,
            exit_codes: results.exit_codes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{BestFirst, Bfs, Dfs, SmaStar};
    use lwsnap_mem::{Prot, RegionKind, PAGE_SIZE};

    /// A scripted guest that enumerates bit strings of length `depth` and
    /// emits those whose value (big-endian bits) is odd.
    ///
    /// It is a state machine over guest memory: phase in `rbx`, collected
    /// bits at 0x1000.., bit count in `rcx`.
    struct BitGuest {
        depth: u64,
    }

    const PHASE_START: u64 = 0;
    const PHASE_AFTER_GUESS: u64 = 1;

    impl Guest for BitGuest {
        fn resume(&mut self, st: &mut GuestState) -> Exit {
            loop {
                let phase = st.regs.get(Reg::Rbx);
                let count = st.regs.get(Reg::Rcx);
                match phase {
                    PHASE_START => {
                        if count == self.depth {
                            // Compute value, emit if odd, then fail back.
                            let mut value = 0u64;
                            for i in 0..self.depth {
                                value = value << 1 | st.mem.read_u8(0x1000 + i).unwrap() as u64;
                            }
                            if value % 2 == 1 {
                                // Print it, then emit.
                                st.regs.set(Reg::Rbx, 2);
                                return Exit::Output {
                                    fd: 1,
                                    data: format!("{value} ").into_bytes(),
                                };
                            }
                            return Exit::Fail;
                        }
                        st.regs.set(Reg::Rbx, PHASE_AFTER_GUESS);
                        return Exit::Guess { n: 2, hint: None };
                    }
                    PHASE_AFTER_GUESS => {
                        let bit = st.regs.get(Reg::Rax) as u8;
                        st.mem.write_u8(0x1000 + count, bit).unwrap();
                        st.regs.set(Reg::Rcx, count + 1);
                        st.regs.set(Reg::Rbx, PHASE_START);
                    }
                    2 => {
                        st.regs.set(Reg::Rbx, 3);
                        return Exit::Emit;
                    }
                    3 => return Exit::Fail,
                    _ => unreachable!(),
                }
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
    fn dfs_enumerates_all_odd_bitstrings() {
        let mut engine = Engine::new(Dfs::new());
        let result = engine.run(&mut BitGuest { depth: 4 }, bit_root());
        assert_eq!(result.stop, StopReason::Exhausted);
        assert_eq!(result.stats.solutions, 8, "half of 16 bit strings are odd");
        // DFS explores extension 0 (bit 0) first: ascending order.
        assert_eq!(result.transcript_str(), "1 3 5 7 9 11 13 15 ");
        // 15 internal guesses for a complete binary tree of depth 4.
        assert_eq!(result.stats.snapshots_created, 15);
        // DFS uses the inline fast path for extension 0 everywhere.
        assert_eq!(result.stats.inline_continues, 15);
        assert_eq!(result.stats.restores, 15, "one restore per right branch");
        // All snapshots reclaimed by the end.
        assert_eq!(
            result.stats.failures,
            8 + 8,
            "even leaves + post-emit fails"
        );
    }

    #[test]
    fn bfs_finds_same_solutions_different_order() {
        let mut engine = Engine::new(Bfs::new());
        let result = engine.run(&mut BitGuest { depth: 3 }, bit_root());
        assert_eq!(result.stats.solutions, 4);
        let mut nums: Vec<u64> = result
            .transcript_str()
            .split_whitespace()
            .map(|s| s.parse().unwrap())
            .collect();
        nums.sort_unstable();
        assert_eq!(nums, vec![1, 3, 5, 7]);
        assert_eq!(result.stats.inline_continues, 0, "BFS has no fast path");
        // BFS frontier peak is the width of the last level.
        assert!(result.stats.frontier_peak >= 8);
    }

    #[test]
    fn dfs_frontier_smaller_than_bfs() {
        let run = |strategy: Box<dyn Strategy>| {
            let mut engine = Engine::new(strategy);
            engine.run(&mut BitGuest { depth: 6 }, bit_root()).stats
        };
        let dfs = run(Box::new(Dfs::new()));
        let bfs = run(Box::new(Bfs::new()));
        assert_eq!(dfs.solutions, bfs.solutions);
        assert!(
            dfs.frontier_peak < bfs.frontier_peak,
            "DFS frontier {} must be below BFS {}",
            dfs.frontier_peak,
            bfs.frontier_peak
        );
        assert!(dfs.snapshots_peak <= bfs.snapshots_peak);
    }

    #[test]
    fn solution_limit_stops_early() {
        let config = EngineConfig {
            max_solutions: Some(2),
            ..Default::default()
        };
        let mut engine = Engine::with_config(Dfs::new(), config);
        let result = engine.run(&mut BitGuest { depth: 4 }, bit_root());
        assert_eq!(result.stop, StopReason::SolutionLimit);
        assert_eq!(result.stats.solutions, 2);
        assert_eq!(result.transcript_str(), "1 3 ");
        assert_eq!(result.solution_output(0), b"1 ");
        assert_eq!(result.solution_output(1), b"3 ");
    }

    #[test]
    fn extension_budget_stops_early() {
        let config = EngineConfig {
            max_extensions: Some(5),
            ..Default::default()
        };
        let mut engine = Engine::with_config(Bfs::new(), config);
        let result = engine.run(&mut BitGuest { depth: 10 }, bit_root());
        assert_eq!(result.stop, StopReason::ExtensionBudget);
        assert_eq!(result.stats.extensions_evaluated, 5);
    }

    /// Guest whose first action faults.
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

    #[test]
    fn fault_policy_fail_path_continues() {
        let mut engine = Engine::new(Dfs::new());
        let result = engine.run(&mut FaultingGuest, GuestState::new());
        assert_eq!(result.stop, StopReason::Exhausted);
        assert_eq!(result.stats.faults, 2, "both branches faulted");
    }

    #[test]
    fn fault_policy_abort_stops() {
        let config = EngineConfig {
            fault_policy: FaultPolicy::Abort,
            ..Default::default()
        };
        let mut engine = Engine::with_config(Dfs::new(), config);
        let result = engine.run(&mut FaultingGuest, GuestState::new());
        assert_eq!(
            result.stop,
            StopReason::Aborted(GuestFault::IllegalInstruction { rip: 0xbad })
        );
    }

    /// A weighted search guest: walks a depth-3 binary tree where move 0
    /// costs 3 and move 1 costs 1, reporting each leaf it reaches. With
    /// guess hints (`g` = path cost, `h(i)` = move cost) best-first must
    /// reach the all-ones leaf first.
    struct WeightedGuest;
    impl Guest for WeightedGuest {
        fn resume(&mut self, st: &mut GuestState) -> Exit {
            loop {
                let phase = st.regs.get(Reg::Rbx);
                let depth = st.regs.get(Reg::Rcx);
                match phase {
                    // Apply the move chosen by the last guess.
                    1 => {
                        let choice = st.regs.get(Reg::Rax);
                        let cost = if choice == 0 { 3 } else { 1 };
                        st.regs.set(Reg::R12, st.regs.get(Reg::R12) + cost);
                        st.regs.set(Reg::R13, st.regs.get(Reg::R13) << 1 | choice);
                        st.regs.set(Reg::Rcx, depth + 1);
                        st.regs.set(Reg::Rbx, 0);
                    }
                    // Printed already: backtrack.
                    3 => return Exit::Fail,
                    // At a node: leaf → print; else guess the next move.
                    _ => {
                        if depth == 3 {
                            let path = st.regs.get(Reg::R13);
                            let total = st.regs.get(Reg::R12);
                            st.regs.set(Reg::Rbx, 3);
                            return Exit::Output {
                                fd: 1,
                                data: format!("path={path:03b} cost={total};").into_bytes(),
                            };
                        }
                        st.regs.set(Reg::Rbx, 1);
                        let g = st.regs.get(Reg::R12);
                        return Exit::Guess {
                            n: 2,
                            hint: Some(GuessHint { g, h: vec![3, 1] }),
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn best_first_visits_cheapest_first() {
        let mut engine = Engine::new(BestFirst::new());
        let result = engine.run(&mut WeightedGuest, GuestState::new());
        let t = result.transcript_str();
        let first = t.split(';').next().unwrap();
        // Greedy-cheapest path is 111 (cost 3+10=13 at the leaf), but A*
        // reaches *a* leaf guided by f; the first completed leaf must be
        // one reached through minimal f, which is 111's prefix... the
        // point of the test: the very first reported leaf is the one the
        // heuristic steers to (f-minimal), not DFS order 000.
        assert!(
            first.contains("path=111"),
            "best-first followed the h-minimal edges: {t}"
        );
        assert_eq!(result.stats.exits, 0);
        assert_eq!(result.stats.solutions, 0, "this guest only prints");
    }

    #[test]
    fn sma_star_bounds_live_snapshots() {
        let mut wide = Engine::new(BestFirst::new());
        let wide_stats = wide.run(&mut BitGuest { depth: 8 }, bit_root()).stats;
        let mut bounded = Engine::new(SmaStar::new(16));
        let bounded_result = bounded.run(&mut BitGuest { depth: 8 }, bit_root());
        assert!(
            bounded_result.stats.frontier_peak <= 16,
            "frontier bounded: {}",
            bounded_result.stats.frontier_peak
        );
        assert!(
            wide_stats.frontier_peak > 16,
            "unbounded frontier exceeds the cap"
        );
        assert!(
            bounded_result.stats.dropped_extensions > 0,
            "bounding dropped work"
        );
        assert!(
            bounded_result.stats.solutions < wide_stats.solutions,
            "dropped subtrees mean missed solutions (the SM-A* trade-off)"
        );
    }

    #[test]
    fn boxed_strategy_schedules_as_itself() {
        let boxed = Engine::new(Box::new(SmaStar::new(16)) as Box<dyn Strategy>)
            .run(&mut BitGuest { depth: 8 }, bit_root());
        let direct = Engine::new(SmaStar::new(16)).run(&mut BitGuest { depth: 8 }, bit_root());
        assert_eq!(boxed.transcript, direct.transcript);
        assert_eq!(boxed.stats, direct.stats);
        assert!(boxed.stats.dropped_extensions > 0, "the box forwards drops");
    }

    #[test]
    fn snapshots_all_reclaimed_after_exhaustion() {
        let mut engine = Engine::new(Dfs::new());
        let result = engine.run(&mut BitGuest { depth: 5 }, bit_root());
        // created == reclaimed is implied by peak tracking + exhaustion;
        // verify via stats: peak well below total.
        assert!(result.stats.snapshots_peak as u64 <= result.stats.snapshots_created);
        assert!(
            result.stats.snapshots_peak <= 6,
            "DFS keeps O(depth) snapshots live"
        );
    }
}
