//! The `svc.*` workloads: the closed-loop session driver, the system
//! under test (one `lwsnapd` server or a two-node cluster, in process),
//! and the untraced measured run.
//!
//! The driver is written once against [`Target`], the smallest surface
//! a session needs. The untraced run points it at a [`SolverBackend`];
//! the traced run (`ladder.rs`) points the *same loop, same requests* at
//! each rung of the backend ladder.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use lwsnap_service::{
    Cluster, ClusterBackend, PipelinedClient, ProblemId, Server, ServiceConfig, SolverBackend,
    StatsSummary,
};
use lwsnap_solver::{Lit, SolveResult};

use crate::gen::{self, PlanShape, SessionPlan};

/// Shards per node, every `svc.*` workload.
pub const SHARDS: usize = 4;
/// Load-generating threads (one connection each). Fixed, never scaled
/// by the machine: a number measured on 2 connections stays comparable.
pub const CONNS: usize = 2;
/// Times the system is set up per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Frozen parameters of one `svc.*` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SvcSpec {
    /// Session plan shape.
    pub shape: PlanShape,
    /// Sessions generated per connection (replayed cyclically).
    pub pool_sessions: usize,
    /// Sessions per connection run as warm-up inside set-up.
    pub warm_sessions: usize,
    /// Sessions a connection keeps open at once, stepped round-robin.
    pub live: usize,
    /// `true`: each round submits all `live` sessions' steps as one
    /// batch (`solve_batch`: corked write, batch push, coalesced wake);
    /// `false`: one request at a time, depth 1.
    pub batched: bool,
    /// Per-shard `snapshot_budget_bytes` (`None` = unbounded).
    pub budget_bytes: Option<usize>,
    /// Two-node cluster behind `ClusterBackend` instead of one server.
    pub cluster: bool,
    /// Sessions (of connection 0's pool) the traced run replays.
    pub trace_sessions: usize,
}

impl SvcSpec {
    /// The service configuration of one node.
    pub fn config(&self, budget_scale: f64) -> ServiceConfig {
        let config = ServiceConfig::new(SHARDS);
        match self.budget_bytes {
            Some(bytes) => config.with_snapshot_budget((bytes as f64 * budget_scale) as usize),
            None => config,
        }
    }
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// What a traced rung measured inside one solve call (all zero from an
/// untraced target). Times in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detail {
    /// The rung's own span for this request.
    pub span_ns: u64,
    /// `add_clause` + `Solver::solve`.
    pub run_ns: u64,
    /// `CowStore::get`.
    pub get_ns: u64,
    /// `CowStore::put`.
    pub put_ns: u64,
    /// `snapshot::encode` of the solved solver, timed on its own.
    pub encode_ns: u64,
    /// `snapshot::decode` of those sections, timed on its own.
    pub decode_ns: u64,
    /// Bytes `encode` produced (what `put` had to scan).
    pub encoded_bytes: u64,
    /// Request and response encode/frame/parse/decode, timed on its own.
    pub codec_ns: u64,
    /// Solver conflicts this request cost.
    pub conflicts: u64,
}

impl Detail {
    /// Field-wise `self += other`.
    pub fn add(&mut self, other: &Detail) {
        self.span_ns += other.span_ns;
        self.run_ns += other.run_ns;
        self.get_ns += other.get_ns;
        self.put_ns += other.put_ns;
        self.encode_ns += other.encode_ns;
        self.decode_ns += other.decode_ns;
        self.encoded_bytes += other.encoded_bytes;
        self.codec_ns += other.codec_ns;
        self.conflicts += other.conflicts;
    }
}

/// What one solve returned, reduced to what the ledger checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Handle of the new problem (meaning is the target's own).
    pub handle: u64,
    /// The verdict.
    pub sat: bool,
    /// The model, if SAT.
    pub model: Option<Vec<bool>>,
    /// Whether the parent snapshot had been evicted and was replayed.
    pub rederived: bool,
    /// Traced rungs' inner measurements.
    pub detail: Detail,
}

/// The surface a session needs from whatever serves it. `Ok(None)` is a
/// dead or refused reference; `Err` a transport failure.
pub trait Target {
    /// The root problem of `session`.
    fn root(&mut self, session: u64) -> io::Result<u64>;
    /// Solves `parent ∧ clauses`.
    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>>;
    /// Solves a batch; replies in request order.
    fn solve_batch(
        &mut self,
        requests: Vec<(u64, Vec<Vec<Lit>>)>,
    ) -> io::Result<Vec<Option<Outcome>>> {
        requests
            .into_iter()
            .map(|(parent, clauses)| self.solve(parent, clauses))
            .collect()
    }
    /// Releases a problem.
    fn release(&mut self, handle: u64) -> io::Result<()>;
}

/// Any [`SolverBackend`] as a [`Target`]; handles are wire ids.
pub struct BackendTarget<'a>(pub &'a dyn SolverBackend);

/// A service reply as an [`Outcome`] (no inner measurements).
pub fn outcome(reply: lwsnap_service::SolveReply) -> Outcome {
    Outcome {
        handle: reply.problem.to_wire(),
        sat: reply.result == SolveResult::Sat,
        model: reply.model,
        rederived: reply.rederived,
        detail: Detail {
            conflicts: reply.conflicts,
            ..Detail::default()
        },
    }
}

impl Target for BackendTarget<'_> {
    fn root(&mut self, session: u64) -> io::Result<u64> {
        Ok(self.0.session_root(session)?.to_wire())
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        Ok(self
            .0
            .solve(ProblemId::from_wire(parent), clauses)?
            .map(outcome))
    }

    fn solve_batch(
        &mut self,
        requests: Vec<(u64, Vec<Vec<Lit>>)>,
    ) -> io::Result<Vec<Option<Outcome>>> {
        let requests = requests
            .into_iter()
            .map(|(parent, clauses)| (ProblemId::from_wire(parent), clauses))
            .collect();
        Ok(self
            .0
            .solve_batch(requests)?
            .into_iter()
            .map(|r| r.map(outcome))
            .collect())
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        self.0.release(ProblemId::from_wire(handle))
    }
}

/// One operation as the driver saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpEvent {
    /// Position of the session in the pool.
    pub plan: usize,
    /// Step within the session.
    pub step: usize,
    /// Submit time, ns since the clock's origin.
    pub start_ns: u64,
    /// Reply time, ns since the clock's origin.
    pub end_ns: u64,
    /// Answered and verified.
    pub ok: bool,
    /// The service replayed an evicted parent to answer.
    pub rederived: bool,
    /// Traced rungs' inner measurements.
    pub detail: Detail,
}

/// Attempt and failure counts of one driver, with the first few causes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (plus one per failed set-up or release call).
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub causes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, cause: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.causes.len() < 5 {
            self.causes.push(cause());
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.causes.len());
        self.causes.extend(other.causes.into_iter().take(room));
    }
}

/// When a [`drive`] call stops opening session groups.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Stop (mid-session if need be) once this instant has passed.
    pub deadline: Option<Instant>,
    /// Stop after this many sessions.
    pub sessions: Option<usize>,
}

/// How a connection walks its pool.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    /// Sessions open at once.
    pub live: usize,
    /// Submit each round as one batch.
    pub batched: bool,
    /// Added to the running session count to form session ids, so every
    /// instantiation of a plan is a fresh session to the service.
    pub id_base: u64,
    /// Session ids advance by this (`CONNS`, so connections interleave).
    pub id_stride: u64,
}

struct Open<'a> {
    plan_index: usize,
    plan: &'a SessionPlan,
    /// `nodes[0]` is the base; `nodes[k]` the result of step `k-1`.
    nodes: Vec<u64>,
    alive: bool,
}

/// A reply as the driver keeps it: the transport error, if any, already
/// rendered (an `io::Error` cannot be cloned across a failed batch).
type Reply = Result<Option<Outcome>, String>;

/// Checks a reply for node `node` of `plan`; `Err` names the failure.
fn check(plan: &SessionPlan, node: usize, reply: &Reply) -> Result<(), String> {
    let outcome = match reply {
        Err(e) => return Err(format!("transport: {e}")),
        Ok(None) => return Err("dead or refused reference".into()),
        Ok(Some(outcome)) => outcome,
    };
    if !outcome.sat {
        return Err("wrong verdict: UNSAT on a planted-satisfiable node".into());
    }
    match &outcome.model {
        None => Err("SAT without a model".into()),
        Some(model) if !plan.path_satisfied(node, model) => {
            Err("model does not satisfy its constraint path".into())
        }
        Some(_) => Ok(()),
    }
}

/// Runs sessions of `plans` against `target` in a closed loop until
/// `stop`, calling `on_op` for every incremental solve. Keeps going
/// after a failure (the failed session is abandoned, the next one
/// opened).
///
/// Per session: root → base solve → `steps` incremental solves →
/// release every node. Base solves and releases are part of the traffic
/// but are not operations.
pub fn drive(
    target: &mut dyn Target,
    plans: &[SessionPlan],
    walk: Walk,
    stop: Stop,
    origin: Instant,
    tally: &mut Tally,
    on_op: &mut dyn FnMut(OpEvent),
) {
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let expired = || stop.deadline.is_some_and(|d| Instant::now() >= d);
    let mut done = 0usize;
    while !expired() && stop.sessions.is_none_or(|n| done < n) {
        let group = walk
            .live
            .min(stop.sessions.map_or(usize::MAX, |n| n - done));
        let mut open: Vec<Open> = (0..group)
            .map(|j| {
                let plan_index = (done + j) % plans.len();
                let plan = &plans[plan_index];
                let session = walk.id_base + (done + j) as u64 * walk.id_stride;
                let base: Reply = target
                    .root(session)
                    .and_then(|root| target.solve(root, gen::to_clauses(&plan.base)))
                    .map_err(|e| e.to_string());
                let mut nodes = Vec::with_capacity(plan.steps() + 1);
                if let Ok(Some(o)) = &base {
                    nodes.push(o.handle);
                }
                let checked = check(plan, 0, &base);
                if let Err(why) = &checked {
                    tally.fail(|| format!("session {session} base: {why}"));
                    if base.is_err() {
                        // A dead transport fails every call at once;
                        // don't let the loop spin on it.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Open {
                    plan_index,
                    plan,
                    nodes,
                    alive: checked.is_ok(),
                }
            })
            .collect();
        let steps = open.iter().map(|s| s.plan.steps()).max().unwrap_or(0);
        for step in 0..steps {
            if expired() {
                break;
            }
            let ready: Vec<usize> = (0..open.len())
                .filter(|&i| open[i].alive && step < open[i].plan.steps())
                .collect();
            let request = |s: &Open| {
                (
                    s.nodes[s.plan.parents[step] as usize],
                    gen::to_clauses(s.plan.step(step)),
                )
            };
            let mut replies: Vec<(usize, u64, u64, Reply)> = Vec::with_capacity(ready.len());
            if walk.batched {
                let requests = ready.iter().map(|&i| request(&open[i])).collect();
                let start = now_ns();
                let batch = target.solve_batch(requests);
                let end = now_ns();
                match batch {
                    Ok(outs) => {
                        replies.extend(ready.iter().zip(outs).map(|(&i, o)| (i, start, end, Ok(o))))
                    }
                    Err(e) => {
                        replies.extend(ready.iter().map(|&i| (i, start, end, Err(e.to_string()))))
                    }
                }
            } else {
                for &i in &ready {
                    let (parent, clauses) = request(&open[i]);
                    let start = now_ns();
                    let reply = target.solve(parent, clauses);
                    replies.push((i, start, now_ns(), reply.map_err(|e| e.to_string())));
                }
            }
            for (i, start_ns, end_ns, reply) in replies {
                let s = &mut open[i];
                let checked = check(s.plan, step + 1, &reply);
                let (mut rederived, mut detail) = (false, Detail::default());
                if let Ok(Some(o)) = &reply {
                    s.nodes.push(o.handle);
                    (rederived, detail) = (o.rederived, o.detail);
                }
                match &checked {
                    Ok(()) => tally.attempted += 1,
                    Err(why) => {
                        tally.fail(|| format!("plan {} step {step}: {why}", s.plan_index));
                        s.alive = false;
                    }
                }
                on_op(OpEvent {
                    plan: s.plan_index,
                    step,
                    start_ns,
                    end_ns,
                    ok: checked.is_ok(),
                    rederived,
                    detail,
                });
            }
        }
        for s in &open {
            for &node in &s.nodes {
                if let Err(e) = target.release(node) {
                    tally.fail(|| format!("release: transport: {e}"));
                }
            }
        }
        done += group;
    }
}

// ---------------------------------------------------------------------
// The system under test.
// ---------------------------------------------------------------------

/// One running system: a single server or a two-node cluster.
pub enum System {
    /// `Server::start_with` — 4 shards, 2 workers, 1 reactor.
    Single(Server),
    /// `Cluster::start_local_with(2, …, 1 worker, 1 reactor)`, both
    /// replication planes as shipped, no faults.
    Cluster(Cluster),
}

/// One load-generating connection.
pub enum Conn {
    /// A pipelined connection to the single server.
    Pipelined(Box<PipelinedClient>),
    /// A cluster router (one pipelined connection per node).
    Cluster(ClusterBackend),
}

impl Conn {
    /// The connection as the unified backend API.
    pub fn backend(&self) -> &dyn SolverBackend {
        match self {
            Conn::Pipelined(c) => c.as_ref(),
            Conn::Cluster(c) => c,
        }
    }
}

impl System {
    /// Starts the system `spec` describes on ephemeral loopback ports.
    pub fn start(spec: &SvcSpec) -> io::Result<System> {
        if spec.cluster {
            Cluster::start_local_with(2, spec.config(1.0), 1, 1).map(System::Cluster)
        } else {
            Server::start_with("127.0.0.1:0", spec.config(1.0), 2, 1).map(System::Single)
        }
    }

    /// Opens one load-generating connection.
    pub fn connect(&self) -> io::Result<Conn> {
        match self {
            System::Single(server) => connect_single(server.local_addr()),
            System::Cluster(cluster) => cluster.connect().map(Conn::Cluster),
        }
    }

    /// Service counters summed over nodes.
    pub fn stats(&self) -> StatsSummary {
        let mut total = StatsSummary::default();
        match self {
            System::Single(server) => total.absorb(&(&server.service().stats()).into()),
            System::Cluster(cluster) => {
                for node in 0..2 {
                    if let Some(service) = cluster.service(node) {
                        total.absorb(&(&service.stats()).into());
                    }
                }
            }
        }
        total
    }

    /// Receive bytes the reactors had to copy (block-spanning frames).
    pub fn rx_copy_bytes(&self) -> u64 {
        let of = |s: &Server| {
            s.reactor_stats()
                .iter()
                .map(|r| r.rx_copy_bytes)
                .sum::<u64>()
        };
        match self {
            System::Single(server) => of(server),
            System::Cluster(cluster) => (0..2).filter_map(|n| cluster.server(n)).map(of).sum(),
        }
    }

    /// Stops every node and joins its threads.
    pub fn shutdown(self) {
        match self {
            System::Single(server) => {
                server.shutdown();
            }
            System::Cluster(cluster) => cluster.shutdown(),
        }
    }
}

/// Connects a pipelined client, with a read timeout so a hung server
/// fails the run in bounded time instead of hanging it.
pub fn connect_single(addr: SocketAddr) -> io::Result<Conn> {
    let client = PipelinedClient::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(Conn::Pipelined(Box::new(client)))
}

// ---------------------------------------------------------------------
// The untraced measured run.
// ---------------------------------------------------------------------

/// One connection's raw window log.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// `(reply time, latency)` in ns, in completion order.
    pub samples: Vec<(u64, u64)>,
    /// Attempts and failures.
    pub tally: Tally,
}

/// Everything the untraced run measured.
pub struct SvcRun {
    /// Per-connection logs.
    pub logs: Vec<ConnLog>,
    /// Set-up times, one per repetition.
    pub setups: Vec<Duration>,
    /// Service counters over the window (after − before).
    pub stats: StatsSummary,
    /// Receive bytes copied during the window.
    pub rx_copy_bytes: u64,
}

/// A system set up and warmed: pools generated, nodes started,
/// connections open, `warm_sessions` sessions per connection replayed.
pub struct Ready {
    /// The running system.
    pub system: System,
    /// One connection per load thread (`Err` if it was refused).
    pub conns: Vec<io::Result<Conn>>,
    /// One pool per connection.
    pub pools: Vec<Vec<SessionPlan>>,
}

impl Ready {
    /// Closes the connections, stops every node and joins its threads.
    pub fn shutdown(self) {
        drop(self.conns);
        self.system.shutdown();
    }
}

/// Seed of the warm-up sessions (fixed; see [`set_up`]).
const WARM_SEED: u64 = 0;

/// Session ids of the warm-up live far above the window's.
const WARM_ID_BASE: u64 = 1 << 40;

/// Runs one `drive` per connection, each on its own thread, connection
/// `c` walking `pools[c]` from its head.
fn drive_all(
    conns: &[io::Result<Conn>],
    pools: &[Vec<SessionPlan>],
    spec: &SvcSpec,
    id_base: u64,
    stop: Stop,
    origin: Instant,
) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(pools)
            .enumerate()
            .map(|(c, (conn, pool))| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let conn = match conn {
                        Ok(conn) => conn,
                        Err(e) => {
                            log.tally.fail(|| format!("connection {c} refused: {e}"));
                            return log;
                        }
                    };
                    let walk = Walk {
                        live: spec.live,
                        batched: spec.batched,
                        id_base: id_base + c as u64,
                        id_stride: CONNS as u64,
                    };
                    let samples = &mut log.samples;
                    drive(
                        &mut BackendTarget(conn.backend()),
                        pool,
                        walk,
                        stop,
                        origin,
                        &mut log.tally,
                        &mut |op| {
                            if op.ok {
                                samples.push((op.end_ns, op.end_ns - op.start_ns));
                            }
                        },
                    );
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn pools(spec: &SvcSpec, seed: u64, sessions: usize) -> Vec<Vec<SessionPlan>> {
    (0..CONNS as u64)
        .map(|c| gen::pool(&spec.shape, seed, c, sessions))
        .collect()
}

/// Generates the pools, starts the system, connects and warms it up.
/// `connect` opens a connection (a test swaps in a refusing one).
pub fn set_up(
    spec: &SvcSpec,
    seed: u64,
    connect: &dyn Fn(&System) -> io::Result<Conn>,
) -> io::Result<(Ready, Tally)> {
    let pools_of_seed = pools(spec, seed, spec.pool_sessions);
    let system = System::start(spec)?;
    let conns: Vec<_> = (0..CONNS).map(|_| connect(&system)).collect();
    // The warm-up is the same sessions whatever the seed: it is there to
    // fill caches and finish lazy set-up, and a fixed one keeps `setup_s`
    // comparable across seeds.
    let warm_pools = pools(spec, WARM_SEED, spec.warm_sessions);
    let stop = Stop {
        deadline: None,
        sessions: Some(spec.warm_sessions),
    };
    let mut tally = Tally::default();
    for log in drive_all(
        &conns,
        &warm_pools,
        spec,
        WARM_ID_BASE,
        stop,
        Instant::now(),
    ) {
        tally.absorb(log.tally);
    }
    let ready = Ready {
        system,
        conns,
        pools: pools_of_seed,
    };
    Ok((ready, tally))
}

/// The measured run: `reps` timed set-ups (the last one's system is
/// kept), then a `window`-long closed loop on [`CONNS`] connections.
pub fn run_untraced(
    spec: &SvcSpec,
    seed: u64,
    window: Duration,
    reps: usize,
    connect: &dyn Fn(&System) -> io::Result<Conn>,
) -> io::Result<SvcRun> {
    let mut setups = Vec::with_capacity(reps);
    let mut kept: Option<Ready> = None;
    let mut warm = Tally::default();
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        let (ready, tally) = set_up(spec, seed, connect)?;
        setups.push(t0.elapsed());
        warm.absorb(tally);
        kept = Some(ready);
    }
    let ready = kept.expect("at least one set-up ran");
    let before = (ready.system.stats(), ready.system.rx_copy_bytes());
    let origin = Instant::now();
    let stop = Stop {
        deadline: Some(origin + window),
        sessions: None,
    };
    let mut logs = drive_all(&ready.conns, &ready.pools, spec, 0, stop, origin);
    // A failure while warming up is a failure of the run (its
    // successes are not operations of the window).
    logs[0].tally.absorb(Tally {
        attempted: warm.failed,
        ..warm
    });
    let after = (ready.system.stats(), ready.system.rx_copy_bytes());
    ready.shutdown();
    Ok(SvcRun {
        logs,
        setups,
        stats: stats_delta(&after.0, &before.0),
        rx_copy_bytes: after.1 - before.1,
    })
}

/// Counter-wise `after − before` for the cumulative fields the ledger
/// reads; level fields (`resident_*`, `replica_bytes`) keep `after`.
pub fn stats_delta(after: &StatsSummary, before: &StatsSummary) -> StatsSummary {
    StatsSummary {
        queries: after.queries - before.queries,
        snapshot_hits: after.snapshot_hits - before.snapshot_hits,
        rederivations: after.rederivations - before.rederivations,
        evictions: after.evictions - before.evictions,
        total_conflicts: after.total_conflicts - before.total_conflicts,
        ..*after
    }
}
