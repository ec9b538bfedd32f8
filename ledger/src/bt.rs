//! The `bt.*` workloads: system-level backtracking under the engine.
//!
//! A workload is a fixed guest program run to exhaustion in **passes**;
//! a pass is verified by its result count (solutions, leaves, paths).
//! An operation is one extension step evaluated (`bt.queens`, `bt.cow`)
//! or one path completed (`bt.symex`). The latency a user of the engine
//! observes is the wait for the next result, so `p50_us`/`p99_us` are
//! taken over the gaps between consecutive results, stamped by a
//! [`Probe`] wrapped around the guest.
//!
//! The traced run times every `Guest::resume` through the same probe,
//! wraps the solver backend of the symbolic executor, and times the
//! snapshot primitives on a state taken from the workload itself.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lwsnap_core::strategy::Dfs;
use lwsnap_core::{
    Engine, EngineConfig, EngineStats, Exit, Guest, GuestState, ParallelConfig, ParallelEngine,
    Snapshot, StopReason,
};
use lwsnap_mem::PAGE_SIZE;
use lwsnap_service::{
    ProblemId, ServiceConfig, ShardedService, SolveReply, SolverBackend, StatsSummary, Ticket,
};
use lwsnap_solver::Lit;
use lwsnap_symex::programs::branch_tree_with_state_source;
use lwsnap_symex::{PathEnd, SharedPool, SymExec, TestCase};
use lwsnap_vm::programs::{nqueens_source, search_workload_source};
use lwsnap_vm::{assemble_source, Interp, Program};

use crate::quantile;
use crate::spans::{LayerId, Spans};
use crate::spec::{Kind, SYMEX_WORKERS};
use crate::svc::{Tally, CONNS};

/// Times the workload is set up per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Extension steps of the warm-up exploration inside set-up: about a
/// tenth of a second of each workload's own kind of work.
fn warm_extensions(kind: &Kind) -> u64 {
    match kind {
        Kind::Cow { .. } => 20_000,
        Kind::Symex { .. } => 1_000,
        _ => 200_000,
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

// ---------------------------------------------------------------------
// The probe: a Guest wrapper that stamps results and, when tracing,
// times every resume.
// ---------------------------------------------------------------------

/// What a [`Probe`] collected.
#[derive(Default)]
pub struct ProbeLog {
    /// `(result time, gap since the previous result)` in ns since the
    /// run's origin.
    pub gaps: Vec<(u64, u64)>,
    /// Summed `resume` time, ns (traced runs only).
    pub resume_ns: u64,
    /// `resume` calls (traced runs only).
    pub resumes: u64,
    /// CoW page copies + zero fills the guest's writes caused, from
    /// `GuestState.mem.stats()` deltas (traced runs only).
    pub page_copies: u64,
    /// One span per `resume` (traced runs only).
    pub spans: Spans,
}

/// Wraps any guest. Always stamps every `stride`-th result (a
/// `sys_emit`, or a path's `exit`); with `traced`, also times each
/// `resume` and reads the MMU counters around it.
pub struct Probe<G> {
    inner: G,
    origin: Instant,
    last_result_ns: u64,
    stride: u64,
    results: u64,
    /// The `vm.resume` span layer, when tracing.
    traced: Option<LayerId>,
    pass: u32,
    log: ProbeLog,
}

impl<G: Guest> Probe<G> {
    /// Wraps `inner`; gaps are measured from now.
    pub fn new(inner: G, origin: Instant, traced: bool, pass: u32, stride: u64) -> Probe<G> {
        let mut log = ProbeLog::default();
        Probe {
            inner,
            origin,
            last_result_ns: ns(origin.elapsed()),
            stride,
            results: 0,
            traced: traced.then(|| log.spans.layer("vm.resume")),
            pass,
            log,
        }
    }

    /// The wrapped guest and what was collected.
    pub fn finish(self) -> (G, ProbeLog) {
        (self.inner, self.log)
    }
}

impl<G: Guest> Guest for Probe<G> {
    fn resume(&mut self, state: &mut GuestState) -> Exit {
        let exit = if let Some(layer) = self.traced {
            let before = *state.mem.stats();
            let t0 = ns(self.origin.elapsed());
            let exit = self.inner.resume(state);
            let t1 = ns(self.origin.elapsed());
            let mem = state.mem.stats().delta(&before);
            self.log.page_copies += mem.cow_page_copies + mem.zero_fills;
            self.log.resume_ns += t1 - t0;
            self.log
                .spans
                .record(layer, t0, t1, self.log.resumes as u32, self.pass);
            self.log.resumes += 1;
            exit
        } else {
            self.inner.resume(state)
        };
        if matches!(exit, Exit::Emit | Exit::Exit { .. }) {
            self.results += 1;
            if self.results.is_multiple_of(self.stride) {
                let now = ns(self.origin.elapsed());
                self.log.gaps.push((now, now - self.last_result_ns));
                self.last_result_ns = now;
            }
        }
        exit
    }
}

// ---------------------------------------------------------------------
// One pass of each workload.
// ---------------------------------------------------------------------

/// What one pass did.
#[derive(Default)]
pub struct Pass {
    /// Operations: extension steps, or completed paths for `bt.symex`.
    pub ops: u64,
    /// Results found, to verify: solutions, leaves or paths.
    pub results: u64,
    /// Extension steps evaluated.
    pub steps: u64,
    /// Wall time.
    pub wall: Duration,
    /// Engine counters (summed over workers on the parallel engine).
    pub engine: EngineStats,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Feasibility checks (`bt.symex`).
    pub solver_checks: u64,
    /// `None` if the pass verified; else what was wrong.
    pub wrong: Option<String>,
    /// The probes' logs, one per worker.
    pub probes: Vec<ProbeLog>,
}

/// A workload set up and ready to run passes.
pub struct Bench {
    kind: Kind,
    program: Program,
    /// `bt.symex`: the one in-process service every guest solves on.
    service: Option<Arc<ShardedService>>,
    origin: Instant,
}

/// Expected results of one full pass.
pub fn expected_results(kind: &Kind) -> u64 {
    match kind {
        Kind::Queens { solutions, .. } => *solutions,
        Kind::Cow { depth, fanout, .. } => fanout.pow(*depth),
        Kind::Symex { depth, .. } => 1 << depth,
        Kind::Svc(_) => unreachable!("not a bt workload"),
    }
}

/// Results per latency sample. `bt.cow`'s leaves come `fanout` to a
/// bottom node, the first one paying the node's page faults and the
/// rest a bare restore (~0.25 µs, too close to the clock's own cost to
/// time); one sample per bottom node measures what the workload is for.
fn result_stride(kind: &Kind) -> u64 {
    match kind {
        Kind::Cow { fanout, .. } => *fanout,
        _ => 1,
    }
}

/// The guest program of a `bt.*` workload, as assembler source.
pub fn source(kind: &Kind) -> String {
    match kind {
        Kind::Queens { n, .. } => nqueens_source(*n, false, true),
        Kind::Cow {
            depth,
            fanout,
            touch_pages,
            buffer_pages,
        } => search_workload_source(*depth as u64, *fanout, 0, *touch_pages, *buffer_pages),
        Kind::Symex { depth, state_pages } => {
            branch_tree_with_state_source(*depth as u64, *state_pages)
        }
        Kind::Svc(_) => unreachable!("not a bt workload"),
    }
}

impl Bench {
    /// Assembles the program, starts what it needs and runs a bounded
    /// warm-up exploration.
    pub fn set_up(kind: &Kind, origin: Instant) -> io::Result<Bench> {
        let program = assemble_source(&source(kind))
            .map_err(|e| io::Error::other(format!("guest program does not assemble: {e}")))?;
        let service = matches!(kind, Kind::Symex { .. })
            .then(|| Arc::new(ShardedService::new(ServiceConfig::new(2 * SYMEX_WORKERS))));
        let bench = Bench {
            kind: kind.clone(),
            program,
            service,
            origin,
        };
        bench.pass(false, 0, Some(warm_extensions(kind)), None)?;
        Ok(bench)
    }

    fn boot(&self) -> io::Result<GuestState> {
        self.program
            .boot()
            .map_err(|e| io::Error::other(format!("guest program does not boot: {e}")))
    }

    /// Runs one pass. `limit` bounds the extension steps (warm-up);
    /// `backend` swaps the symbolic executor's solver backend (traced).
    pub fn pass(
        &self,
        traced: bool,
        number: u32,
        limit: Option<u64>,
        backend: Option<Arc<dyn SolverBackend>>,
    ) -> io::Result<Pass> {
        let root = self.boot()?;
        let t0 = Instant::now();
        let mut pass = match &self.kind {
            Kind::Symex { depth, .. } => {
                let service = self.service.clone().expect("symex set-up starts a service");
                let backend = backend.unwrap_or(service);
                self.symex_pass(root, traced, number, limit, backend, *depth)
            }
            _ => {
                let config = EngineConfig {
                    max_extensions: limit,
                    ..EngineConfig::default()
                };
                let stride = result_stride(&self.kind);
                let mut probe = Probe::new(Interp::new(), self.origin, traced, number, stride);
                let result = Engine::with_config(Dfs::new(), config).run(&mut probe, root);
                let (interp, log) = probe.finish();
                Pass {
                    ops: result.stats.extensions_evaluated,
                    results: result.stats.solutions,
                    steps: result.stats.extensions_evaluated,
                    engine: result.stats,
                    instructions: interp.total_steps,
                    wrong: (limit.is_none() && result.stop != StopReason::Exhausted)
                        .then(|| format!("search stopped early: {:?}", result.stop)),
                    probes: vec![log],
                    ..Pass::default()
                }
            }
        };
        pass.wall = t0.elapsed();
        if limit.is_none() && pass.wrong.is_none() && pass.results != expected_results(&self.kind) {
            pass.wrong = Some(format!(
                "{} results, expected {}",
                pass.results,
                expected_results(&self.kind)
            ));
        }
        Ok(pass)
    }

    /// `par_explore_on`, with each worker's executor behind a [`Probe`].
    fn symex_pass(
        &self,
        root: GuestState,
        traced: bool,
        number: u32,
        limit: Option<u64>,
        backend: Arc<dyn SolverBackend>,
        depth: u32,
    ) -> Pass {
        struct Worker {
            probe: Option<Probe<SymExec>>,
            sink: Arc<Mutex<Vec<(SymExec, ProbeLog)>>>,
        }
        impl Guest for Worker {
            fn resume(&mut self, state: &mut GuestState) -> Exit {
                self.probe
                    .as_mut()
                    .expect("present until drop")
                    .resume(state)
            }
        }
        impl Drop for Worker {
            fn drop(&mut self) {
                if let (Some(probe), Ok(mut sink)) = (self.probe.take(), self.sink.lock()) {
                    sink.push(probe.finish());
                }
            }
        }

        let pool = SharedPool::new();
        let sink: Arc<Mutex<Vec<(SymExec, ProbeLog)>>> = Arc::default();
        let next_session = AtomicU64::new(0);
        let config = ParallelConfig {
            max_extensions: limit,
            ..ParallelConfig::new(SYMEX_WORKERS)
        };
        let run = ParallelEngine::with_config(config).run(
            || {
                let session = next_session.fetch_add(1, Ordering::Relaxed);
                let exec = SymExec::with_backend(pool.clone(), Arc::clone(&backend), session);
                Worker {
                    probe: Some(Probe::new(exec, self.origin, traced, number, 1)),
                    sink: Arc::clone(&sink),
                }
            },
            root,
        );
        // Every worker has joined and dropped, so the sink is complete.
        let workers = std::mem::take(&mut *sink.lock().expect("no worker panicked"));
        let mut cases: Vec<TestCase> = Vec::new();
        let mut probes = Vec::new();
        let (mut instructions, mut solver_checks) = (0, 0);
        for (exec, log) in workers {
            instructions += exec.stats.instructions;
            solver_checks += exec.stats.solver_checks;
            cases.extend(exec.cases);
            probes.push(log);
        }
        let wrong = if limit.is_some() {
            None
        } else if run.stop != StopReason::Exhausted {
            Some(format!("search stopped early: {:?}", run.stop))
        } else {
            check_branch_tree(&cases, depth)
        };
        Pass {
            ops: cases.len() as u64,
            results: cases.len() as u64,
            steps: run.stats.extensions_evaluated,
            engine: run.stats,
            instructions,
            solver_checks,
            wrong,
            probes,
            ..Pass::default()
        }
    }
}

/// The canonical case set of the branch tree: every path exits 0, and
/// the synthesised inputs cover each of the `2^depth` sign patterns
/// (`byte ≥ 128` per level) exactly once.
fn check_branch_tree(cases: &[TestCase], depth: u32) -> Option<String> {
    let mut patterns = BTreeSet::new();
    for case in cases {
        if case.end != PathEnd::Exit(0) {
            return Some(format!("a path ended {:?}, expected exit 0", case.end));
        }
        if case.inputs.len() != depth as usize {
            return Some(format!("a test case has {} inputs", case.inputs.len()));
        }
        let pattern: Vec<bool> = case.inputs.iter().map(|&b| b >= 128).collect();
        if !patterns.insert(pattern) {
            return Some("two test cases drive the same path".into());
        }
    }
    (patterns.len() != 1 << depth).then(|| format!("{} distinct paths", patterns.len()))
}

// ---------------------------------------------------------------------
// The untraced measured run.
// ---------------------------------------------------------------------

/// Everything the untraced run measured.
pub struct BtRun {
    /// Operations per second: the sum over load threads of each
    /// thread's median per-pass rate.
    pub ops_per_s: f64,
    /// Whole passes completed, all threads.
    pub passes: usize,
    /// `(result time, gap)` ns, in time order across threads.
    pub gaps: Vec<(u64, u64)>,
    /// Set-up times, one per repetition.
    pub setups: Vec<Duration>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

fn fold_pass(pass: &Pass, tally: &mut Tally) {
    tally.attempted += pass.ops.max(1);
    if let Some(why) = &pass.wrong {
        // A pass with the wrong result count fails as a whole: which of
        // its steps went wrong is not knowable from outside.
        tally.failed += pass.ops.max(1);
        if tally.causes.len() < 5 {
            tally.causes.push(why.clone());
        }
    }
}

/// Load-generating threads of a workload: the sequential engine runs
/// one independent search per thread (like the 2 connections of
/// `svc.*`, this keeps both cores of the calibration box busy — a lone
/// thread runs up to 20 % faster whenever the other core happens to be
/// idle, which is noise, not signal); `bt.symex` is one search on the
/// 2-worker parallel engine.
fn load_threads(kind: &Kind) -> usize {
    match kind {
        Kind::Symex { .. } => 1,
        _ => CONNS,
    }
}

/// `reps` timed set-ups, then whole passes on every load thread until
/// `window` has elapsed.
pub fn run_untraced(kind: &Kind, window: Duration, reps: usize) -> io::Result<BtRun> {
    let mut setups = Vec::with_capacity(reps);
    let mut bench = None;
    for _ in 0..reps.max(1) {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::set_up(kind, Instant::now())?);
        setups.push(t0.elapsed());
    }
    let bench = bench.expect("at least one set-up ran");
    let started = Instant::now();
    let per_thread: Vec<io::Result<Vec<Pass>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load_threads(kind))
            .map(|_| {
                scope.spawn(|| {
                    let mut passes = Vec::new();
                    while started.elapsed() < window || passes.is_empty() {
                        passes.push(bench.pass(false, passes.len() as u32, None, None)?);
                    }
                    Ok(passes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut run = BtRun {
        ops_per_s: 0.0,
        passes: 0,
        gaps: Vec::new(),
        setups,
        tally: Tally::default(),
    };
    for passes in per_thread {
        let passes = passes?;
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.ops as f64 / p.wall.as_secs_f64())
            .collect();
        run.ops_per_s += quantile::median(&rates);
        run.passes += passes.len();
        for pass in passes {
            fold_pass(&pass, &mut run.tally);
            for log in pass.probes {
                run.gaps.extend(log.gaps);
            }
        }
    }
    run.gaps.sort_unstable();
    Ok(run)
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

/// A `SolverBackend` that times every call into the backend it wraps.
struct TimedBackend {
    inner: Arc<dyn SolverBackend>,
    origin: Instant,
    calls: AtomicU64,
    total_ns: AtomicU64,
    spans: Mutex<Spans>,
}

impl TimedBackend {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = ns(self.origin.elapsed());
        let out = f();
        let t1 = ns(self.origin.elapsed());
        self.total_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        if let Ok(mut spans) = self.spans.lock() {
            let layer = spans.layer("symex.feasibility");
            let request = self.calls.load(Ordering::Relaxed) as u32;
            spans.record(layer, t0, t1, request, 0);
        }
        out
    }
}

impl SolverBackend for TimedBackend {
    fn session_root(&self, session: u64) -> io::Result<ProblemId> {
        self.inner.session_root(session)
    }

    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.timed(|| self.inner.submit(parent, clauses))
    }

    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>> {
        self.timed(|| self.inner.wait(ticket))
    }

    fn release(&self, id: ProblemId) -> io::Result<()> {
        self.timed(|| self.inner.release(id))
    }

    fn stats(&self) -> io::Result<StatsSummary> {
        self.inner.stats()
    }
}

/// Median of `reps` timings of `f`, ns.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            ns(t0.elapsed()) as f64
        })
        .collect();
    quantile::median(&samples)
}

/// Times the snapshot primitives on the workload's own state: the
/// booted guest run up to its first `sys_guess`.
fn primitives(bench: &Bench, metrics: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let mut state = bench.boot()?;
    let mut guest: Box<dyn Guest> = match &bench.kind {
        Kind::Symex { .. } => Box::new(SymExec::new()),
        _ => Box::new(Interp::new()),
    };
    for _ in 0..64 {
        if matches!(guest.resume(&mut state), Exit::Guess { .. }) {
            break;
        }
    }
    const REPS: usize = 2001;
    metrics.insert(
        "core.capture_ns",
        time_ns(REPS, || Snapshot::capture(&state, None)),
    );
    let snapshot = Snapshot::capture(&state, None);
    metrics.insert(
        "core.materialize_ns",
        time_ns(REPS, || snapshot.materialize()),
    );
    metrics.insert("mem.snapshot_ns", time_ns(REPS, || state.mem.snapshot()));
    metrics.insert("fs.fork_ns", time_ns(REPS, || state.fs.clone()));
    // First write to each page of `.data` after a snapshot: the CoW
    // fault, at the workload's own page count (up to 64 pages).
    let pages = (bench.program.data.len().div_ceil(PAGE_SIZE) as u64).clamp(1, 64);
    let base = bench.program.data_base;
    let per_page: Vec<f64> = (0..101)
        .map(|_| {
            let keep = state.mem.snapshot();
            let t0 = Instant::now();
            for page in 0..pages {
                let _ = state.mem.write_u8(base + page * PAGE_SIZE as u64, 1);
            }
            let spent = ns(t0.elapsed()) as f64 / pages as f64;
            drop(keep);
            spent
        })
        .collect();
    metrics.insert("mem.fault_ns", quantile::median(&per_page));
    Ok(())
}

/// Everything the traced run produced.
pub struct BtTrace {
    /// Per-layer metric values, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The recorded spans.
    pub spans: Spans,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Traced passes for about 0.6 × `seconds`, untraced ones for about
/// 0.3 × `seconds` (their ratio is the tracing overhead), then the
/// primitive timings.
pub fn run_traced(kind: &Kind, seconds: f64) -> io::Result<BtTrace> {
    let origin = Instant::now();
    let bench = Bench::set_up(kind, origin)?;
    let timed = bench.service.clone().map(|service| {
        Arc::new(TimedBackend {
            inner: service,
            origin,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            spans: Mutex::new(Spans::default()),
        })
    });
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    // The traced passes, summed.
    let mut total = Pass::default();
    let (mut resume_ns, mut page_copies) = (0u64, 0u64);
    let mut number = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 0.6 * seconds || number == 0 {
        let backend = timed.clone().map(|t| t as Arc<dyn SolverBackend>);
        let pass = bench.pass(true, number, None, backend)?;
        fold_pass(&pass, &mut tally);
        total.ops += pass.ops;
        total.steps += pass.steps;
        total.wall += pass.wall;
        total.instructions += pass.instructions;
        total.solver_checks += pass.solver_checks;
        total.engine.snapshots_created += pass.engine.snapshots_created;
        total.engine.restores += pass.engine.restores;
        for log in pass.probes {
            resume_ns += log.resume_ns;
            page_copies += log.page_copies;
            spans.absorb(log.spans);
        }
        number += 1;
    }
    let traced_rate = total.ops as f64 / total.wall.as_secs_f64();
    let (mut plain_ops, mut plain_wall) = (0u64, Duration::ZERO);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 0.3 * seconds || plain_ops == 0 {
        let pass = bench.pass(false, number, None, None)?;
        fold_pass(&pass, &mut tally);
        plain_ops += pass.ops;
        plain_wall += pass.wall;
        number += 1;
    }
    let plain_rate = plain_ops as f64 / plain_wall.as_secs_f64();

    let steps = total.steps.max(1) as f64;
    // On the parallel engine the workers' wall time is the pass's wall
    // time on each of them.
    let workers = if matches!(kind, Kind::Symex { .. }) {
        SYMEX_WORKERS as f64
    } else {
        1.0
    };
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("vm.resume_us_per_step", resume_ns as f64 / steps / 1e3);
    metrics.insert("vm.insns_per_step", total.instructions as f64 / steps);
    metrics.insert(
        "core.engine_self_us_per_step",
        (ns(total.wall) as f64 * workers - resume_ns as f64) / steps / 1e3,
    );
    metrics.insert(
        "core.snapshots_per_step",
        total.engine.snapshots_created as f64 / steps,
    );
    metrics.insert(
        "core.restores_per_step",
        total.engine.restores as f64 / steps,
    );
    metrics.insert("mem.cow_copies_per_step", page_copies as f64 / steps);
    if let Some(timed) = &timed {
        let paths = total.ops.max(1) as f64;
        metrics.insert(
            "symex.feasibility_us_per_path",
            timed.total_ns.load(Ordering::Relaxed) as f64 / paths / 1e3,
        );
        metrics.insert("symex.checks_per_path", total.solver_checks as f64 / paths);
        if let Ok(mut backend_spans) = timed.spans.lock() {
            spans.absorb(std::mem::take(&mut *backend_spans));
        }
    }
    metrics.insert(
        "trace.overhead_share",
        100.0 * (1.0 - traced_rate / plain_rate),
    );
    primitives(&bench, &mut metrics)?;
    Ok(BtTrace {
        metrics,
        spans,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn miniature(name: &str) -> Kind {
        Workload::by_name(name).unwrap().miniature().kind
    }

    #[test]
    fn miniature_passes_verify() {
        for name in ["bt.queens", "bt.cow", "bt.symex"] {
            let kind = miniature(name);
            let bench = Bench::set_up(&kind, Instant::now()).unwrap();
            let pass = bench.pass(false, 0, None, None).unwrap();
            assert_eq!(pass.wrong, None, "{name}");
            assert_eq!(pass.results, expected_results(&kind), "{name}");
            assert!(pass.ops >= 1 && pass.steps >= pass.results, "{name}");
            let samples: usize = pass.probes.iter().map(|p| p.gaps.len()).sum();
            assert_eq!(
                samples as u64 * result_stride(&kind),
                pass.results,
                "{name}: one gap per stride of results"
            );
        }
    }

    #[test]
    fn a_wrong_result_count_fails_the_pass() {
        let kind = Kind::Queens { n: 6, solutions: 5 };
        let bench = Bench::set_up(&kind, Instant::now()).unwrap();
        let pass = bench.pass(false, 0, None, None).unwrap();
        assert!(pass.wrong.as_deref().unwrap().contains("4 results"));
        let mut tally = Tally::default();
        fold_pass(&pass, &mut tally);
        assert_eq!(tally.failed, tally.attempted);
    }

    #[test]
    fn branch_tree_check_wants_every_pattern_once() {
        let case = |inputs: &[u8]| TestCase {
            end: PathEnd::Exit(0),
            inputs: inputs.to_vec(),
            constraints: 1,
            depth: 1,
        };
        assert_eq!(check_branch_tree(&[case(&[0]), case(&[200])], 1), None);
        assert!(check_branch_tree(&[case(&[0]), case(&[5])], 1).is_some());
        assert!(check_branch_tree(&[case(&[0])], 1).is_some());
        let mut crashed = case(&[0]);
        crashed.end = PathEnd::Fault("boom".into());
        assert!(check_branch_tree(&[crashed, case(&[200])], 1).is_some());
    }

    #[test]
    fn traced_run_reports_every_bt_layer() {
        for name in ["bt.queens", "bt.cow", "bt.symex"] {
            let trace = run_traced(&miniature(name), 0.05).unwrap();
            assert_eq!(trace.tally.failed, 0, "{name}: {:?}", trace.tally.causes);
            for key in [
                "vm.resume_us_per_step",
                "vm.insns_per_step",
                "core.engine_self_us_per_step",
                "core.snapshots_per_step",
                "core.restores_per_step",
                "core.capture_ns",
                "core.materialize_ns",
                "mem.cow_copies_per_step",
                "mem.fault_ns",
                "mem.snapshot_ns",
                "fs.fork_ns",
                "trace.overhead_share",
            ] {
                assert!(trace.metrics.contains_key(key), "{name}: {key}");
            }
            assert!(trace.metrics["vm.insns_per_step"] > 0.0, "{name}");
            assert_eq!(
                trace.metrics.contains_key("symex.checks_per_path"),
                name == "bt.symex"
            );
        }
        let cow = run_traced(&miniature("bt.cow"), 0.05).unwrap();
        assert!(cow.metrics["mem.cow_copies_per_step"] >= 10.0);
    }
}
