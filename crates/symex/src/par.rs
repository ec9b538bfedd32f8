//! The parallel symbolic-execution driver: multi-path exploration on
//! the lock-free work-stealing engine.
//!
//! This is the ROADMAP's "parallel symex driver on top of the lock-free
//! deque": [`par_explore`] runs the same S2E-style exploration as a
//! sequential [`crate::SymExec`] run, but forks path-constraint
//! snapshots into [`lwsnap_core::ParallelEngine`] so that independent
//! paths execute — and, crucially, solve their feasibility queries — on
//! N worker threads at once.
//!
//! ## How the pieces fit
//!
//! * Concrete state forks for free: a path's registers/memory ride in
//!   the engine's immutable snapshots, exactly as in a sequential run.
//! * Symbolic state forks as data: the [`crate::Shadow`] (symbolic
//!   registers, memory bytes and the path condition) rides in the
//!   snapshot's `ext` slot. Its `ExprId`s are resolved against one
//!   [`SharedPool`] shared by every worker, so a stolen path's
//!   constraints mean the same thing on the thief as on the victim.
//! * Solver state forks the same way: the shadow names the backend
//!   problem of its nearest solved ancestor and carries the blast
//!   session that built it, so a stolen path solves its next branch as
//!   a child of that problem — in the victim's shard, the id being its
//!   own route — with the variable numbering it was stolen with. A path
//!   with no solved ancestor yet starts from the session root of
//!   whichever worker runs it; all roots are the same empty solver.
//! * Each worker owns a private [`crate::SymExec`] (interner handle +
//!   local counters + local test cases); when the run drains, per-worker
//!   verdicts are merged into one canonically ordered report.
//!
//! ## Determinism
//!
//! Which worker explores which path is racy; the *verdicts* are not.
//! A path's problem chain — which ancestors were solved, with which
//! clauses — is a function of its constraint sequence alone, and a
//! backend's reply is a function of the chain (resident or re-derived
//! after eviction, in-process or across the wire). So pruning and the
//! witness bytes of every test case are a function of the program: the
//! merged [`ParExploreResult::cases`] is the same multiset as a
//! sequential run's across worker counts, steal schedules, backends and
//! snapshot budgets — [`par_explore`] additionally sorts it into a
//! canonical order so equal explorations compare equal with `==`. The
//! full contract is in [`crate::blast`].
//!
//! ```
//! use lwsnap_symex::{par_explore, PathEnd, programs::linear_crash_source};
//! use lwsnap_vm::assemble_source;
//!
//! let prog = assemble_source(&linear_crash_source()).unwrap();
//! let report = par_explore(prog.boot().unwrap(), 4);
//! // The crashing input (x = 15, since 3x+7 == 52) is still found:
//! assert!(report
//!     .cases
//!     .iter()
//!     .any(|c| matches!(c.end, PathEnd::Fault(_)) && c.inputs == [15]));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lwsnap_core::{Exit, Guest, GuestState, ParallelConfig, ParallelEngine, ParallelRunResult};
use lwsnap_service::{ServiceConfig, ShardedService, SolverBackend};

use crate::expr::SharedPool;
use crate::machine::{SymExec, SymStats, TestCase};

/// The merged outcome of a parallel exploration.
#[derive(Debug)]
pub struct ParExploreResult {
    /// The engine-level result (stop reason, transcript, engine stats,
    /// per-worker engine stats).
    pub run: ParallelRunResult,
    /// Per-path verdicts from every worker, in canonical order (sorted
    /// by concrete inputs, then depth/constraints/end), so two runs of
    /// the same program compare equal regardless of scheduling.
    pub cases: Vec<TestCase>,
    /// Symbolic-execution counters summed over workers.
    pub stats: SymStats,
    /// The shared expression pool (e.g. for re-validating witnesses
    /// with [`SharedPool::eval`]).
    pub pool: SharedPool,
}

/// What each worker drops into the shared sink when it finishes.
#[derive(Default)]
struct Merged {
    cases: Vec<TestCase>,
    stats: SymStats,
}

impl Merged {
    fn absorb(&mut self, exec: &mut SymExec) {
        self.cases.append(&mut exec.cases);
        self.stats += exec.stats;
    }
}

/// A per-worker guest: a private [`SymExec`] on the shared pool, whose
/// verdicts drain into the run-wide sink when the worker retires.
struct ParWorker {
    exec: SymExec,
    sink: Arc<Mutex<Merged>>,
}

impl Guest for ParWorker {
    fn resume(&mut self, st: &mut GuestState) -> Exit {
        self.exec.resume(st)
    }
}

impl Drop for ParWorker {
    fn drop(&mut self) {
        self.sink.lock().unwrap().absorb(&mut self.exec);
    }
}

/// Explores every feasible path of the program booted into `root` on
/// `workers` threads, merging per-path verdicts. See the module docs.
///
/// Feasibility queries flow through the [`SolverBackend`] trait — by
/// default an in-process [`ShardedService`] sized so concurrent
/// workers' queries rarely share a shard lock. Swap the backend with
/// [`par_explore_on`] to solve on a worker pool or a remote `lwsnapd`
/// without touching the driver.
pub fn par_explore(root: GuestState, workers: usize) -> ParExploreResult {
    par_explore_with(ParallelConfig::new(workers), root)
}

/// [`par_explore`] with explicit engine limits / fault policy.
pub fn par_explore_with(config: ParallelConfig, root: GuestState) -> ParExploreResult {
    // One in-process backend shared by all workers; 2× shards so two
    // workers hashing onto the same shard stays the exception.
    let backend = Arc::new(ShardedService::new(ServiceConfig::new(config.workers * 2)));
    par_explore_on(config, root, backend)
}

/// [`par_explore_with`] against an arbitrary [`SolverBackend`]: every
/// worker's feasibility queries are solved by `backend` (each worker
/// under its own session id). The merged test cases are identical
/// across backends — see the module docs — so this is purely a
/// deployment knob: in-process for latency, a pool for parallelism
/// beyond the exploration workers, a remote daemon to move constraint
/// solving off-box entirely (the paper's solver-service vision closing
/// the loop). When it returns, every problem the exploration created
/// has been released: the backend holds what it held before.
pub fn par_explore_on(
    config: ParallelConfig,
    root: GuestState,
    backend: Arc<dyn SolverBackend>,
) -> ParExploreResult {
    let pool = SharedPool::new();
    let sink: Arc<Mutex<Merged>> = Arc::default();
    let next_session = AtomicU64::new(0);
    let run = ParallelEngine::with_config(config).run(
        || {
            let session = next_session.fetch_add(1, Ordering::Relaxed);
            ParWorker {
                exec: SymExec::with_backend(pool.clone(), Arc::clone(&backend), session),
                sink: Arc::clone(&sink),
            }
        },
        root,
    );
    // All workers have joined, so every ParWorker has dropped and the
    // sink holds the complete merge.
    let merged = std::mem::take(&mut *sink.lock().unwrap());
    let mut cases = merged.cases;
    TestCase::canonical_sort(&mut cases);
    ParExploreResult {
        run,
        cases,
        stats: merged.stats,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PathEnd;
    use crate::programs::{branch_tree_source, linear_crash_source, password_source};
    use lwsnap_core::{strategy::Dfs, Engine, StopReason};
    use lwsnap_vm::assemble_source;

    /// Sequential baseline: explore with one SymExec and return its
    /// canonically sorted cases.
    fn sequential_cases(src: &str) -> (Vec<TestCase>, SymStats) {
        let prog = assemble_source(src).unwrap();
        let mut exec = SymExec::new();
        Engine::new(Dfs::new()).run(&mut exec, prog.boot().unwrap());
        let mut cases = exec.cases;
        TestCase::canonical_sort(&mut cases);
        (cases, exec.stats)
    }

    #[test]
    fn par_explore_matches_sequential_verdicts() {
        let src = branch_tree_source(5);
        let (seq_cases, seq_stats) = sequential_cases(&src);
        assert!(!seq_cases.is_empty());
        for workers in [1usize, 2, 4] {
            let prog = assemble_source(&src).unwrap();
            let report = par_explore(prog.boot().unwrap(), workers);
            assert_eq!(report.run.stop, StopReason::Exhausted);
            assert_eq!(
                report.cases, seq_cases,
                "verdict set differs at {workers} workers"
            );
            assert_eq!(report.stats.forks, seq_stats.forks);
            assert_eq!(report.stats.tests_generated, seq_stats.tests_generated);
        }
    }

    #[test]
    fn par_explore_finds_the_crash() {
        let prog = assemble_source(&linear_crash_source()).unwrap();
        let report = par_explore(prog.boot().unwrap(), 3);
        assert!(report
            .cases
            .iter()
            .any(|c| matches!(c.end, PathEnd::Fault(_)) && c.inputs == [15]));
    }

    #[test]
    fn par_explore_cracks_the_password() {
        let password = b"hi!";
        let prog = assemble_source(&password_source(password)).unwrap();
        let report = par_explore(prog.boot().unwrap(), 4);
        // Exactly one accepting path (exit 42), and its synthesised
        // input is the password itself.
        let accepting: Vec<_> = report
            .cases
            .iter()
            .filter(|c| c.end == PathEnd::Exit(42))
            .collect();
        assert_eq!(accepting.len(), 1);
        assert_eq!(accepting[0].inputs, password);
    }

    /// The driver is written once against [`SolverBackend`]: the same
    /// exploration over a worker-pool backend and over a **remote**
    /// `lwsnapd` (pipelined TCP) yields the exact verdicts of the
    /// sequential local run.
    #[test]
    fn par_explore_is_backend_agnostic() {
        use lwsnap_service::{PipelinedClient, Server, WorkerPool};

        let src = branch_tree_source(4);
        let (seq_cases, _) = sequential_cases(&src);
        assert!(!seq_cases.is_empty());

        // Worker-pool backend.
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), 2);
        let prog = assemble_source(&src).unwrap();
        let report = par_explore_on(
            ParallelConfig::new(2),
            prog.boot().unwrap(),
            Arc::new(pool.client()),
        );
        assert_eq!(report.cases, seq_cases, "pool backend diverged");
        pool.shutdown();

        // Remote backend: symbolic execution whose feasibility queries
        // travel the pipelined wire to an lwsnapd over loopback.
        let server = Server::start("127.0.0.1:0", ServiceConfig::new(4), 2).unwrap();
        let remote = Arc::new(PipelinedClient::connect(server.local_addr()).unwrap());
        let prog = assemble_source(&src).unwrap();
        let report = par_explore_on(ParallelConfig::new(2), prog.boot().unwrap(), remote);
        assert_eq!(report.cases, seq_cases, "remote backend diverged");
        assert!(
            server.service().stats().queries >= report.stats.solver_checks,
            "remote service actually served the checks"
        );
        server.shutdown();
    }

    /// The cluster is just another backend: the same exploration with
    /// feasibility queries consistent-hashed over a 3-node in-process
    /// `lwsnapd` cluster yields the exact sequential verdicts, with
    /// every node actually serving traffic.
    #[test]
    fn par_explore_runs_unmodified_over_a_cluster() {
        use lwsnap_service::Cluster;

        let src = branch_tree_source(4);
        let (seq_cases, _) = sequential_cases(&src);
        assert!(!seq_cases.is_empty());

        let cluster = Cluster::start_local(3, ServiceConfig::new(4), 2).unwrap();
        let backend = Arc::new(cluster.connect().unwrap());
        let prog = assemble_source(&src).unwrap();
        let report = par_explore_on(
            ParallelConfig::new(3),
            prog.boot().unwrap(),
            backend.clone(),
        );
        assert_eq!(report.cases, seq_cases, "cluster backend diverged");
        let fleet = lwsnap_service::SolverBackend::node_stats(&*backend).unwrap();
        assert!(
            fleet.total().queries >= report.stats.solver_checks,
            "cluster actually served the checks"
        );
        cluster.shutdown();
    }

    #[test]
    fn workers_share_one_pool() {
        let prog = assemble_source(&branch_tree_source(4)).unwrap();
        let report = par_explore(prog.boot().unwrap(), 4);
        assert!(
            !report.pool.is_empty(),
            "interned nodes live in the shared pool"
        );
        // Every decision — two per fork, one per completed path — was
        // answered, by the backend or by an inherited witness.
        let stats = report.stats;
        assert_eq!(
            stats.solver_checks + stats.witness_hits,
            2 * stats.forks + report.cases.len() as u64
        );
    }

    /// Two bytes, each behind a contradictory inner check: forks whose
    /// solved child is UNSAT.
    const PRUNING: &str = r#"
.text
_start:
    mov  rdi, buf
    mov  rsi, 2
    mov  rax, 1100
    syscall
    mov  r12, buf
    ld1  rbx, [r12]
    cmp  rbx, 10
    jae  second
    cmp  rbx, 200
    jbe  second
    udiv rbx, 0        ; unreachable
second:
    ld1  rbx, [r12+1]
    cmp  rbx, 10
    jae  done
    cmp  rbx, 200
    jbe  done
    udiv rbx, 0        ; unreachable
done:
    mov  rdi, 0
    mov  rax, 60
    syscall
.data
buf: .space 2
"#;

    /// Solver state is snapshotted state: when the engine has dropped
    /// its last guest snapshot, every problem the exploration created
    /// has been released. Fails if `Solved`'s `Drop` stops releasing.
    #[test]
    fn exploration_leaves_the_backend_as_it_found_it() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let held = |service: &ShardedService| {
            let total = service.stats();
            (total.live_problems, total.resident_snapshots)
        };
        let before = held(&service);
        let mut queries = 0;
        for (src, limit) in [
            (branch_tree_source(6), None),
            (password_source(b"hi!"), None),
            (PRUNING.to_owned(), None),
            // Cut short, as the ledger's warm-up is on every set-up:
            // the frontier's states go with the engine.
            (branch_tree_source(6), Some(40)),
        ] {
            let prog = assemble_source(&src).unwrap();
            let config = ParallelConfig {
                max_extensions: limit,
                ..ParallelConfig::new(4)
            };
            let report = par_explore_on(config, prog.boot().unwrap(), service.clone());
            assert_eq!(held(&service), before, "problems or snapshots leaked");
            queries += report.stats.solver_checks;
            assert_eq!(service.stats().queries, queries);
            if limit.is_none() {
                assert_eq!(report.run.stop, StopReason::Exhausted);
                assert_eq!(report.stats.solver_checks, report.stats.forks);
            } else {
                assert!(report.stats.solver_checks <= report.stats.forks);
                assert!(report.cases.len() < 64, "the limit did cut the run short");
            }
        }
        assert!(queries > 0);
    }

    #[test]
    fn the_pruning_program_prunes() {
        let prog = assemble_source(PRUNING).unwrap();
        let report = par_explore(prog.boot().unwrap(), 2);
        // One contradiction under byte 0 < 10, one under byte 1 < 10 on
        // each side of the first check.
        assert_eq!(report.stats.infeasible_pruned, 3);
        assert_eq!(report.cases.len(), 4);
        assert!(report.cases.iter().all(|c| c.end == PathEnd::Exit(0)));
    }

    /// Two shards that keep two snapshots each: parents are evicted
    /// under the states that name them and come back by replay, on
    /// whichever worker — owner or thief — solves next. Same cases.
    #[test]
    fn solver_context_survives_eviction_and_theft() {
        let src = branch_tree_source(6);
        let (seq_cases, _) = sequential_cases(&src);
        let config = ServiceConfig::new(2).with_snapshot_capacity(2);
        let service = Arc::new(ShardedService::new(config));
        let prog = assemble_source(&src).unwrap();
        let report = par_explore_on(
            ParallelConfig::new(4),
            prog.boot().unwrap(),
            service.clone(),
        );
        assert_eq!(report.cases, seq_cases);
        let total = service.stats();
        assert!(total.rederivations > 0, "parents were evicted and replayed");
        assert_eq!(total.live_problems, 2, "only the roots remain");
    }

    #[test]
    fn repeated_parallel_runs_are_identical() {
        let prog = assemble_source(&branch_tree_source(5)).unwrap();
        let first = par_explore(prog.boot().unwrap(), 4).cases;
        assert_eq!(first.len(), 32);
        for run in 1..20 {
            let again = par_explore(prog.boot().unwrap(), 4).cases;
            assert_eq!(again, first, "run {run} differs");
        }
    }
}
