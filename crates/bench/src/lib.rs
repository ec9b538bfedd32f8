//! Shared helpers for the lwsnap benchmark and example harness.
//!
//! The real content of this crate lives in `benches/` (one Criterion
//! harness per experiment; the measured numbers live in the perf ledger,
//! `ledger/README.md`) and in the workspace `examples/` directory, which
//! this package hosts. The
//! [`service_workload`] module is the shared closed-loop workload used
//! by both `examples/service_loadgen.rs` and the `service_throughput`
//! bench, so the numbers they report describe the same traffic.

pub mod service_workload {
    //! A deterministic multi-session workload over a shared problem tree.
    //!
    //! Every session owns a plan: a sequence of solve steps, each
    //! extending a node it created earlier (or the shared base problem)
    //! with a few fresh clauses — the §3.2 traffic shape: mostly
    //! chain-deepening, sometimes branching an old reference
    //! (multi-path). Plans are built up front from a seeded RNG, so the
    //! same workload can be replayed against the sequential service, the
    //! sharded service, and the sharded service under eviction, and the
    //! verdicts compared step for step.

    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use lwsnap_service::{ProblemId, ServiceConfig, ShardedService, SolverBackend, WorkerPool};
    use lwsnap_solver::{model_satisfies, IncrementalFamily, Lit, SolveResult, SolverService};
    use lwsnap_trace::{Histogram, HistogramSnapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One solve step of a session.
    #[derive(Debug, Clone)]
    pub struct Step {
        /// Which session-local node to extend: 0 is the shared base,
        /// `k > 0` is the result of step `k-1`.
        pub parent: usize,
        /// The incremental constraint.
        pub clauses: Vec<Vec<Lit>>,
    }

    /// A session's full plan.
    #[derive(Debug, Clone)]
    pub struct SessionPlan {
        /// Session id (hashes onto a shard).
        pub session: u64,
        /// The solve steps, in order.
        pub steps: Vec<Step>,
    }

    /// A deterministic closed-loop workload.
    #[derive(Debug, Clone)]
    pub struct Workload {
        /// Variables in the shared 3-SAT base problem.
        pub vars: usize,
        /// The shared base clauses (solved once per shard, then pinned).
        pub base: Vec<Vec<Lit>>,
        /// Per-session plans.
        pub sessions: Vec<SessionPlan>,
    }

    impl Workload {
        /// Builds a workload of `sessions` sessions × `queries` steps
        /// over a shared base of `vars` variables. Deterministic in
        /// `seed`.
        pub fn build(sessions: usize, queries: usize, vars: usize, seed: u64) -> Workload {
            let fam = IncrementalFamily::new(vars, 5, seed);
            let plans = (0..sessions as u64)
                .map(|session| {
                    let mut rng = StdRng::seed_from_u64(seed ^ session.wrapping_mul(0xd1b5));
                    let steps = (0..queries)
                        .map(|step| {
                            // Mostly deepen the newest node; every 4th
                            // step or so branch an older reference.
                            let parent = if step == 0 || rng.gen_bool(0.75) {
                                step
                            } else {
                                rng.gen_range(0..step)
                            };
                            let inc = session * 100_000 + step as u64;
                            Step {
                                parent,
                                clauses: fam.increment(inc),
                            }
                        })
                        .collect();
                    SessionPlan { session, steps }
                })
                .collect();
            Workload {
                vars,
                base: fam.base().clauses,
                sessions: plans,
            }
        }

        /// Total solve queries (excluding the per-shard base solves).
        pub fn total_queries(&self) -> usize {
            self.sessions.iter().map(|s| s.steps.len()).sum()
        }

        /// The full constraint stack of each node of one session:
        /// `stacks[0]` is the base, `stacks[k]` the path of step `k-1`'s
        /// result.
        pub fn stacks(&self, plan: &SessionPlan) -> Vec<Vec<Vec<Lit>>> {
            let mut stacks = vec![self.base.clone()];
            for step in &plan.steps {
                let mut stack = stacks[step.parent].clone();
                stack.extend(step.clauses.iter().cloned());
                stacks.push(stack);
            }
            stacks
        }
    }

    /// Outcome of replaying a workload against some service flavour.
    pub struct RunOutcome {
        /// Per-session, per-step verdicts.
        pub verdicts: Vec<Vec<SolveResult>>,
        /// Wall-clock time for the whole run.
        pub wall: Duration,
        /// Per-query latencies (unordered; the histogram below is the
        /// summarised view — this keeps the raw samples for anyone who
        /// wants exact order statistics).
        pub latencies: Vec<Duration>,
        /// Per-query latency distribution, in the same mergeable
        /// log-linear buckets the service's own `solve_ns` histogram
        /// uses — so a loadgen report and a `/metrics` scrape of the
        /// same run quantise identically.
        pub latency_hist: HistogramSnapshot,
        /// SAT models verified against their constraint path.
        pub verified_models: u64,
    }

    /// Folds raw latency samples into the shared log-linear histogram.
    fn latency_histogram(latencies: &[Duration]) -> HistogramSnapshot {
        let hist = Histogram::new();
        for d in latencies {
            hist.record_duration(*d);
        }
        hist.snapshot()
    }

    impl RunOutcome {
        /// Queries per second over the run.
        pub fn throughput(&self) -> f64 {
            self.latencies.len() as f64 / self.wall.as_secs_f64().max(1e-9)
        }

        /// The `q`-quantile latency (e.g. 0.5, 0.99), read from the
        /// log-linear histogram (bucket upper bound, ≤ ~25% high).
        pub fn latency_quantile(&self, q: f64) -> Duration {
            Duration::from_nanos(self.latency_hist.quantile(q))
        }
    }

    /// Replays the workload on a single-threaded [`SolverService`]
    /// (everything in one shard, one caller) — the scaling baseline.
    ///
    /// # Panics
    ///
    /// Panics if any returned model fails verification against its
    /// constraint path.
    pub fn run_sequential(workload: &Workload) -> RunOutcome {
        let started = Instant::now();
        let mut service = SolverService::new();
        let base = service
            .solve(service.root(), &workload.base)
            .expect("root is live");
        let mut verdicts = Vec::with_capacity(workload.sessions.len());
        let mut latencies = Vec::with_capacity(workload.total_queries());
        let mut verified = 0u64;
        for plan in &workload.sessions {
            let stacks = workload.stacks(plan);
            let mut nodes = vec![base.problem];
            let mut session_verdicts = Vec::with_capacity(plan.steps.len());
            for (k, step) in plan.steps.iter().enumerate() {
                let t0 = Instant::now();
                let reply = service
                    .solve(nodes[step.parent], &step.clauses)
                    .expect("plan only references live nodes");
                latencies.push(t0.elapsed());
                if let Some(model) = &reply.model {
                    assert!(
                        model_satisfies(&stacks[k + 1], model),
                        "sequential model failed verification at session {} step {k}",
                        plan.session
                    );
                    verified += 1;
                }
                nodes.push(reply.problem);
                session_verdicts.push(reply.result);
            }
            verdicts.push(session_verdicts);
        }
        RunOutcome {
            verdicts,
            wall: started.elapsed(),
            latency_hist: latency_histogram(&latencies),
            latencies,
            verified_models: verified,
        }
    }

    /// One closed-loop session against any [`SolverBackend`]: replays
    /// the plan from `base`, verifying every SAT model against the
    /// node's full constraint stack. This is the single session loop
    /// every service flavour (in-process, pooled, remote blocking,
    /// remote pipelined) runs — written once against the trait.
    ///
    /// # Panics
    ///
    /// Panics on transport failure, a dead reference, or a model that
    /// fails verification.
    pub fn run_session(
        backend: &dyn SolverBackend,
        workload: &Workload,
        plan: &SessionPlan,
        base: ProblemId,
    ) -> (Vec<SolveResult>, Vec<Duration>, u64) {
        session_loop(backend, workload, plan, base, None)
    }

    /// [`run_session`], optionally pausing twice at one step boundary
    /// (the chaos hook: all sessions rendezvous, the controller acts,
    /// all sessions resume — so membership changes happen with no
    /// request in flight, keeping the closed loop closed).
    fn session_loop(
        backend: &dyn SolverBackend,
        workload: &Workload,
        plan: &SessionPlan,
        base: ProblemId,
        pause: Option<(usize, &std::sync::Barrier)>,
    ) -> (Vec<SolveResult>, Vec<Duration>, u64) {
        let pause = pause.map(|(at, barrier)| (at.min(plan.steps.len()), barrier));
        let stacks = workload.stacks(plan);
        let mut nodes = vec![base];
        let mut verdicts = Vec::with_capacity(plan.steps.len());
        let mut latencies = Vec::with_capacity(plan.steps.len());
        let mut verified = 0u64;
        for (k, step) in plan.steps.iter().enumerate() {
            if let Some((at, barrier)) = pause {
                if k == at {
                    barrier.wait();
                    barrier.wait();
                }
            }
            let t0 = Instant::now();
            let reply = backend
                .solve(nodes[step.parent], step.clauses.clone())
                .expect("backend transport failure")
                .expect("plan only references live nodes");
            latencies.push(t0.elapsed());
            if let Some(model) = &reply.model {
                assert!(
                    model_satisfies(&stacks[k + 1], model),
                    "model failed verification at session {} step {k}",
                    plan.session
                );
                verified += 1;
            }
            nodes.push(reply.problem);
            verdicts.push(reply.result);
        }
        if let Some((at, barrier)) = pause {
            if at == plan.steps.len() {
                barrier.wait();
                barrier.wait();
            }
        }
        (verdicts, latencies, verified)
    }

    /// Replays the whole workload: one concurrent closed-loop thread
    /// per session. `setup(i, plan)` picks the backend and base problem
    /// for session `i` — the knob that distinguishes "shared service",
    /// "one connection per session" and "everyone multiplexed on one
    /// pipelined connection" without touching the session loop.
    ///
    /// # Panics
    ///
    /// See [`run_session`].
    pub fn run_backend<'a>(
        workload: &Workload,
        setup: impl Fn(usize, &SessionPlan) -> (&'a dyn SolverBackend, ProblemId) + Sync,
    ) -> RunOutcome {
        let started = Instant::now();
        let mut outcomes: Vec<(usize, Vec<SolveResult>, Vec<Duration>, u64)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = workload
                    .sessions
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        let setup = &setup;
                        let workload = &workload;
                        scope.spawn(move || {
                            let (backend, base) = setup(i, plan);
                            let (v, l, n) = run_session(backend, workload, plan, base);
                            (i, v, l, n)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread panicked"))
                    .collect()
            });
        let wall = started.elapsed();
        outcomes.sort_by_key(|(i, ..)| *i);
        let mut verdicts = Vec::with_capacity(outcomes.len());
        let mut latencies = Vec::new();
        let mut verified = 0;
        for (_, v, l, n) in outcomes {
            verdicts.push(v);
            latencies.extend(l);
            verified += n;
        }
        RunOutcome {
            verdicts,
            wall,
            latency_hist: latency_histogram(&latencies),
            latencies,
            verified_models: verified,
        }
    }

    /// Replays the workload on a [`ShardedService`]: one concurrent
    /// closed-loop client thread per session, solve requests executed by
    /// a `workers`-thread [`WorkerPool`] through the [`SolverBackend`]
    /// trait, base problems pre-solved and pinned per shard. Returns
    /// the outcome plus the service (for stats inspection).
    ///
    /// # Panics
    ///
    /// Panics if any query fails (dead reference) or any returned model
    /// fails verification against its constraint path.
    pub fn run_sharded(
        workload: &Workload,
        shards: usize,
        workers: usize,
        snapshot_budget_bytes: Option<usize>,
    ) -> (
        RunOutcome,
        Arc<ShardedService>,
        Vec<lwsnap_service::WorkerStats>,
    ) {
        let mut config = ServiceConfig::new(shards);
        config.snapshot_budget_bytes = snapshot_budget_bytes;
        let service = Arc::new(ShardedService::new(config));
        // The shared problem tree: solve the base once per shard, pin it
        // so eviction can't drop the hottest node of all.
        let bases: Vec<_> = (0..service.num_shards())
            .map(|shard| {
                let root = service.root(shard).expect("shard exists");
                let reply = service.solve(root, &workload.base).expect("root is live");
                service.pin(reply.problem);
                reply.problem
            })
            .collect();
        let pool = WorkerPool::new(Arc::clone(&service), workers);
        let client = pool.client();
        let outcome = run_backend(workload, |_, plan| {
            (
                &client as &dyn SolverBackend,
                bases[service.session_root(plan.session).shard()],
            )
        });
        let worker_stats = pool.shutdown();
        (outcome, service, worker_stats)
    }

    /// Replays the workload against a remote backend (TCP): every
    /// session solves the shared base from its own session root first
    /// (the wire has no pin, so bases stay per-session), then runs the
    /// standard closed loop.
    ///
    /// # Panics
    ///
    /// See [`run_session`].
    pub fn run_remote(workload: &Workload, backend: &dyn SolverBackend) -> RunOutcome {
        run_backend(workload, |_, plan| {
            let root = backend
                .session_root(plan.session)
                .expect("backend transport failure");
            let base = backend
                .solve(root, workload.base.clone())
                .expect("backend transport failure")
                .expect("root is live")
                .problem;
            (backend, base)
        })
    }

    /// [`run_remote`] with a chaos hook: every session pauses at step
    /// `midpoint_step`, the `midpoint` closure runs (kill a node, join
    /// a node, …) with NO request in flight, and the sessions resume —
    /// their very next solves are the ones that discover the change.
    /// Verdicts and witnesses must still come out bit-identical to an
    /// undisturbed run; the wall clock includes the pause and is not
    /// comparable to [`run_remote`]'s.
    ///
    /// # Panics
    ///
    /// See [`run_session`]; additionally if the midpoint controller
    /// panics.
    pub fn run_remote_with_midpoint(
        workload: &Workload,
        backend: &dyn SolverBackend,
        midpoint_step: usize,
        midpoint: impl FnOnce() + Send,
    ) -> RunOutcome {
        let started = Instant::now();
        let barrier = std::sync::Barrier::new(workload.sessions.len() + 1);
        let mut outcomes: Vec<(usize, Vec<SolveResult>, Vec<Duration>, u64)> =
            std::thread::scope(|scope| {
                let controller = {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        midpoint();
                        barrier.wait();
                    })
                };
                let handles: Vec<_> = workload
                    .sessions
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let root = backend
                                .session_root(plan.session)
                                .expect("backend transport failure");
                            let base = backend
                                .solve(root, workload.base.clone())
                                .expect("backend transport failure")
                                .expect("root is live")
                                .problem;
                            let (v, l, n) = session_loop(
                                backend,
                                workload,
                                plan,
                                base,
                                Some((midpoint_step, barrier)),
                            );
                            (i, v, l, n)
                        })
                    })
                    .collect();
                let outcomes = handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread panicked"))
                    .collect();
                controller.join().expect("midpoint controller panicked");
                outcomes
            });
        let wall = started.elapsed();
        outcomes.sort_by_key(|(i, ..)| *i);
        let mut verdicts = Vec::with_capacity(outcomes.len());
        let mut latencies = Vec::new();
        let mut verified = 0;
        for (_, v, l, n) in outcomes {
            verdicts.push(v);
            latencies.extend(l);
            verified += n;
        }
        RunOutcome {
            verdicts,
            wall,
            latency_hist: latency_histogram(&latencies),
            latencies,
            verified_models: verified,
        }
    }
}
