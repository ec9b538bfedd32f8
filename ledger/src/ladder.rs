//! The traced run of a `svc.*` workload: the **backend ladder**.
//!
//! The same requests — the first `trace_sessions` sessions of
//! connection 0's pool, one client — are replayed through each rung:
//!
//! ```text
//! Solver → CowStore → SolverService → ShardedService → PoolClient
//!        → PipelinedClient/Server → ClusterBackend (svc.repl only)
//! ```
//!
//! Inputs are identical per request index, so a rung's self time is its
//! span minus the span of the rung below, and the rows sum to the top
//! rung by construction. A rung's span for one request index is the
//! median over the cycles it was replayed; a rung's figure is the mean
//! of those over all request indices. Spans are taken here, around the
//! calls into each crate's public functions — no crate is edited.
//!
//! The ladder runs one client at depth 1, so it has no queueing; a short
//! untraced two-connection window in the same process supplies the
//! `p50_us` it is compared with (`ladder.coverage`, `ladder.queueing_us`)
//! and the service counters of the real configuration.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lwsnap_service::protocol::{
    lits_to_clauses, parse_frame_ref, put_tagged_frame, Request, Response,
};
use lwsnap_service::router::session_shard;
use lwsnap_service::{
    Cluster, ProblemId, Server, ServiceConfig, ShardedService, SolveReply, SolverBackend,
    WorkerPool,
};
use lwsnap_snapstore::CowStore;
use lwsnap_solver::snapshot::{self, SnapId, SnapshotStore};
use lwsnap_solver::{Lit, ProblemRef, SolveResult, Solver, SolverService};

use crate::gen::{self, SessionPlan};
use crate::quantile;
use crate::spans::Spans;
use crate::svc::{
    self, drive, Detail, OpEvent, Outcome, Stop, SvcSpec, Tally, Target, Walk, CONNS, SHARDS,
};

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn add_and_solve(solver: &mut Solver, clauses: &[Vec<Lit>]) -> (SolveResult, u64, u64) {
    let before = solver.stats().conflicts;
    let t0 = Instant::now();
    for clause in clauses {
        solver.add_clause(clause);
    }
    let result = solver.solve();
    (result, ns(t0.elapsed()), solver.stats().conflicts - before)
}

// ---------------------------------------------------------------------
// Rung 1: the bare solver.
// ---------------------------------------------------------------------

/// Forks problems by cloning the parent `Solver` in memory; its span is
/// `add_clause` + `Solver::solve` alone (the clone is scaffolding).
#[derive(Default)]
struct SolverRung {
    slots: Vec<Option<Solver>>,
    free: Vec<usize>,
}

impl SolverRung {
    fn keep(&mut self, solver: Solver) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(solver);
                i as u64
            }
            None => {
                self.slots.push(Some(solver));
                self.slots.len() as u64 - 1
            }
        }
    }
}

impl Target for SolverRung {
    fn root(&mut self, _session: u64) -> io::Result<u64> {
        Ok(self.keep(Solver::new()))
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        let Some(Some(parent)) = self.slots.get(parent as usize) else {
            return Ok(None);
        };
        let mut solver = parent.clone();
        let (result, run_ns, conflicts) = add_and_solve(&mut solver, &clauses);
        let sat = result == SolveResult::Sat;
        let model = sat.then(|| solver.model());
        Ok(Some(Outcome {
            handle: self.keep(solver),
            sat,
            model,
            rederived: false,
            detail: Detail {
                span_ns: run_ns,
                run_ns,
                conflicts,
                ..Detail::default()
            },
        }))
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        if let Some(slot) = self.slots.get_mut(handle as usize) {
            if slot.take().is_some() {
                self.free.push(handle as usize);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Rung 2: the CoW snapshot store.
// ---------------------------------------------------------------------

/// `CowStore::get` → solve → `CowStore::put`, each timed; `encode` and
/// `decode` are timed again on their own, outside the span.
struct StoreRung {
    store: CowStore,
    /// Over the solves' puts: how many, the bytes `encode` produced for
    /// them, and the pages and bytes the store actually dirtied.
    puts: u64,
    encoded_bytes: u64,
    pages_dirtied: u64,
    bytes_written: u64,
    /// `resident_bytes ÷ len`, sampled once per session group at its
    /// fullest (just before the group's releases).
    resident_per_snapshot: Vec<f64>,
    group_open: bool,
}

fn pack(id: SnapId) -> u64 {
    (id.idx() as u64) << 32 | id.gen() as u64
}

fn unpack(handle: u64) -> SnapId {
    SnapId::new((handle >> 32) as u32, handle as u32)
}

impl StoreRung {
    fn new() -> StoreRung {
        StoreRung {
            store: CowStore::new(),
            puts: 0,
            encoded_bytes: 0,
            pages_dirtied: 0,
            bytes_written: 0,
            resident_per_snapshot: Vec::new(),
            group_open: false,
        }
    }
}

impl Target for StoreRung {
    fn root(&mut self, _session: u64) -> io::Result<u64> {
        Ok(pack(self.store.put(None, &Solver::new())))
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        self.group_open = true;
        let parent = unpack(parent);
        let t0 = Instant::now();
        let Some(mut solver) = self.store.get(parent) else {
            return Ok(None);
        };
        let get_ns = ns(t0.elapsed());
        let (result, run_ns, conflicts) = add_and_solve(&mut solver, &clauses);
        let mem = self.store.mem_stats();
        let t1 = Instant::now();
        let id = self.store.put(Some(parent), &solver);
        let put_ns = ns(t1.elapsed());
        let span_ns = ns(t0.elapsed());
        let mem = self.store.mem_stats().delta(&mem);
        self.pages_dirtied += mem.cow_page_copies + mem.zero_fills;
        self.bytes_written += mem.bytes_written;
        // The codec on its own, on the same solver `put` just encoded.
        let t2 = Instant::now();
        let sections = snapshot::encode(&solver);
        let encode_ns = ns(t2.elapsed());
        let t3 = Instant::now();
        black_box(snapshot::decode(&sections));
        let decode_ns = ns(t3.elapsed());
        let encoded_bytes = sections.iter().map(|s| s.len() as u64).sum();
        self.puts += 1;
        self.encoded_bytes += encoded_bytes;
        let sat = result == SolveResult::Sat;
        Ok(Some(Outcome {
            handle: pack(id),
            sat,
            model: sat.then(|| solver.model()),
            rederived: false,
            detail: Detail {
                span_ns,
                run_ns,
                get_ns,
                put_ns,
                encode_ns,
                decode_ns,
                encoded_bytes,
                codec_ns: 0,
                conflicts,
            },
        }))
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        if std::mem::take(&mut self.group_open) && !self.store.is_empty() {
            self.resident_per_snapshot
                .push(self.store.resident_bytes() as f64 / self.store.len() as f64);
        }
        self.store.remove(unpack(handle));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Rung 3: the solver service, one instance per shard.
// ---------------------------------------------------------------------

/// [`SHARDS`] bare `SolverService`s, sessions placed by the same hash
/// `ShardedService` uses — so this rung holds exactly the per-shard
/// working set (and budget) of the rung above it, minus its locks and
/// id mapping. Handles are `shard << 32 | local`.
struct ServiceRung(Vec<SolverService>);

impl ServiceRung {
    fn new(budget: Option<usize>) -> ServiceRung {
        ServiceRung(
            (0..SHARDS)
                .map(|_| {
                    let mut service = SolverService::with_store(Box::new(CowStore::new()));
                    service.set_snapshot_budget(budget);
                    service
                })
                .collect(),
        )
    }
}

impl Target for ServiceRung {
    fn root(&mut self, session: u64) -> io::Result<u64> {
        let shard = session_shard(session, SHARDS);
        Ok((shard as u64) << 32 | self.0[shard].root().index() as u64)
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        let shard = parent >> 32;
        let Some(service) = self.0.get_mut(shard as usize) else {
            return Ok(None);
        };
        let t0 = Instant::now();
        let reply = service.solve(ProblemRef::from_index(parent as u32), &clauses);
        let span_ns = ns(t0.elapsed());
        Ok(reply.map(|r| Outcome {
            handle: shard << 32 | r.problem.index() as u64,
            sat: r.result == SolveResult::Sat,
            model: r.model,
            rederived: r.rederived,
            detail: Detail {
                span_ns,
                conflicts: r.conflicts,
                ..Detail::default()
            },
        }))
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        if let Some(service) = self.0.get_mut((handle >> 32) as usize) {
            service.release(ProblemRef::from_index(handle as u32));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Rungs 4–7: anything behind the SolverBackend API.
// ---------------------------------------------------------------------

/// Times `SolverBackend::solve`; on the wire rung also times the codec
/// on the same request and reply, outside the span.
struct BackendRung<'a> {
    backend: &'a dyn SolverBackend,
    codec: bool,
    /// Called once per session group just before its releases, with the
    /// solves (base ones included) the group made.
    group_end: Option<Box<dyn FnMut(u64) + 'a>>,
    group_solves: u64,
}

impl<'a> BackendRung<'a> {
    fn new(backend: &'a dyn SolverBackend) -> BackendRung<'a> {
        BackendRung {
            backend,
            codec: false,
            group_end: None,
            group_solves: 0,
        }
    }
}

/// Encodes, frames, parses and decodes one solve request and its reply
/// through the public protocol functions — what both ends of the wire
/// do for one operation.
fn codec_round_trip(parent: u64, clauses: &[Vec<Lit>], reply: &SolveReply) -> u64 {
    let t0 = Instant::now();
    let mut frame = Vec::new();
    let request = Request::Solve {
        parent,
        clauses: lits_to_clauses(clauses),
    };
    put_tagged_frame(&mut frame, 1, &request.encode()).expect("Vec write cannot fail");
    if let Ok(Some((parsed, _))) = parse_frame_ref(&frame) {
        black_box(Request::decode(parsed.payload).is_ok());
    }
    frame.clear();
    let response = Response::Solved {
        problem: reply.problem.to_wire(),
        sat: reply.result == SolveResult::Sat,
        rederived: reply.rederived,
        conflicts: reply.conflicts,
        model: reply.model.clone(),
    };
    put_tagged_frame(&mut frame, 1, &response.encode()).expect("Vec write cannot fail");
    if let Ok(Some((parsed, _))) = parse_frame_ref(&frame) {
        black_box(Response::decode(parsed.payload).is_ok());
    }
    ns(t0.elapsed())
}

impl Target for BackendRung<'_> {
    fn root(&mut self, session: u64) -> io::Result<u64> {
        Ok(self.backend.session_root(session)?.to_wire())
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        self.group_solves += 1;
        let for_codec = self.codec.then(|| clauses.clone());
        let t0 = Instant::now();
        let reply = self.backend.solve(ProblemId::from_wire(parent), clauses)?;
        let span_ns = ns(t0.elapsed());
        Ok(reply.map(|reply| {
            let codec_ns = for_codec.map_or(0, |c| codec_round_trip(parent, &c, &reply));
            let mut outcome = svc::outcome(reply);
            outcome.detail.span_ns = span_ns;
            outcome.detail.codec_ns = codec_ns;
            outcome
        }))
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        let solves = std::mem::take(&mut self.group_solves);
        if solves > 0 {
            if let Some(hook) = &mut self.group_end {
                hook(solves);
            }
        }
        self.backend.release(ProblemId::from_wire(handle))
    }
}

// ---------------------------------------------------------------------
// Replaying the trace pool through one rung.
// ---------------------------------------------------------------------

/// What one rung measured over its whole share of the run.
#[derive(Default)]
struct RungLog {
    /// Spans per request index, one entry per completed cycle.
    per_index: Vec<Vec<u64>>,
    /// Field-wise sums of the inner measurements.
    sums: Detail,
    ops: u64,
    /// `(count, summed span)` of requests answered from a resident
    /// parent, and of those that replayed an evicted one.
    hit: (u64, u64),
    rederived: (u64, u64),
    /// Wall time of the traced cycles.
    wall: Duration,
    /// `(operations, wall time)` of the untraced cycles interleaved with
    /// the traced ones (top rung only).
    plain: (u64, Duration),
}

impl RungLog {
    /// Each request index's median span over the cycles it ran, ns.
    fn index_medians(&self) -> Vec<f64> {
        self.per_index
            .iter()
            .filter(|spans| !spans.is_empty())
            .map(|spans| {
                let mut sorted = spans.clone();
                sorted.sort_unstable();
                quantile::exact(&sorted, 0.5) as f64
            })
            .collect()
    }

    /// The rung's figure: the mean over request indices, µs. A mean,
    /// because means subtract: rung − rung below is the mean self time.
    fn span_us(&self) -> f64 {
        let medians = self.index_medians();
        if medians.is_empty() {
            return 0.0;
        }
        medians.iter().sum::<f64>() / medians.len() as f64 / 1e3
    }

    /// The typical request: the median over request indices, µs — what
    /// the untraced `p50_us` is compared with.
    fn median_us(&self) -> f64 {
        let medians = self.index_medians();
        if medians.is_empty() {
            return 0.0;
        }
        quantile::median(&medians) / 1e3
    }

    fn mean_us(&self, total_ns: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total_ns as f64 / self.ops as f64 / 1e3
        }
    }
}

#[derive(Clone, Copy)]
struct Replay<'a> {
    pool: &'a [SessionPlan],
    spec: &'a SvcSpec,
    share: Duration,
    origin: Instant,
}

impl Replay<'_> {
    /// Replays the pool cyclically through `target` until the rung's
    /// share is used up (at least one whole cycle), recording each
    /// request's span (and the store rung's sub-spans) under `layer`.
    ///
    /// With `plain` — the same backend behind an untraced target — every
    /// other cycle runs untraced instead, so the two modes see the same
    /// machine state and their throughput ratio is the tracing overhead.
    fn run(
        &self,
        target: &mut dyn Target,
        mut plain: Option<&mut dyn Target>,
        layer: &str,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> RungLog {
        let steps = self.spec.shape.steps;
        let mut log = RungLog {
            per_index: vec![Vec::new(); self.pool.len() * steps],
            ..RungLog::default()
        };
        let (rung, get, run, put) = (
            spans.layer(layer),
            spans.layer("snapstore.get"),
            spans.layer("solver.run"),
            spans.layer("snapstore.put"),
        );
        let started = Instant::now();
        let mut cycle = 0u64;
        loop {
            let cycle_started = Instant::now();
            let walk = Walk {
                live: self.spec.live,
                batched: false,
                id_base: cycle * self.pool.len() as u64,
                id_stride: 1,
            };
            let stop = Stop {
                deadline: None,
                sessions: Some(self.pool.len()),
            };
            if let Some(plain) = plain.as_deref_mut().filter(|_| cycle % 2 == 1) {
                let mut ops = 0;
                drive(
                    plain,
                    self.pool,
                    walk,
                    stop,
                    self.origin,
                    tally,
                    &mut |op| ops += op.ok as u64,
                );
                log.plain = (log.plain.0 + ops, log.plain.1 + cycle_started.elapsed());
                cycle += 1;
                continue;
            }
            let mut on_op = |op: OpEvent| {
                if !op.ok {
                    return;
                }
                let d = op.detail;
                let index = op.plan * steps + op.step;
                log.per_index[index].push(d.span_ns);
                log.ops += 1;
                log.sums.add(&d);
                let bucket = if op.rederived {
                    &mut log.rederived
                } else {
                    &mut log.hit
                };
                *bucket = (bucket.0 + 1, bucket.1 + d.span_ns);
                let (req, parent) = (index as u32, op.plan as u32);
                // The driver's submit time anchors the spans.
                let t = op.start_ns;
                spans.record(rung, t, t + d.span_ns, req, parent);
                if d.get_ns + d.put_ns > 0 {
                    spans.record(get, t, t + d.get_ns, req, parent);
                    let t = t + d.get_ns;
                    spans.record(run, t, t + d.run_ns, req, parent);
                    let t = t + d.run_ns;
                    spans.record(put, t, t + d.put_ns, req, parent);
                }
            };
            drive(
                target,
                self.pool,
                walk,
                stop,
                self.origin,
                tally,
                &mut on_op,
            );
            log.wall += cycle_started.elapsed();
            cycle += 1;
            // With interleaving, both modes get at least one cycle.
            if started.elapsed() >= self.share && (plain.is_none() || cycle >= 2) {
                break;
            }
        }
        log
    }
}

/// The per-shard budget a rung gets so that its working set stands in
/// the same proportion to its budget as in the real configuration: the
/// real run spreads `CONNS × live` open sessions over `SHARDS × nodes`
/// shards, a rung spreads `live` over its own shard count.
fn budget_scale(spec: &SvcSpec, rung_shards: usize) -> f64 {
    let nodes = if spec.cluster { 2 } else { 1 };
    let real = (CONNS * spec.live) as f64 / (SHARDS * nodes) as f64;
    (spec.live as f64 / rung_shards as f64) / real
}

fn service_config(spec: &SvcSpec) -> ServiceConfig {
    spec.config(budget_scale(spec, SHARDS))
}

/// Everything the traced run produced.
pub struct LadderReport {
    /// Per-layer metric values, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(rung, span µs, self µs)` rows, bottom rung first.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// The recorded spans.
    pub spans: Spans,
    /// Attempts and failures across every rung.
    pub tally: Tally,
    /// Samples behind the reference window's `p50_us`.
    pub reference_samples: usize,
}

/// Runs the ladder for one `svc.*` workload in about `seconds`.
pub fn run_traced(spec: &SvcSpec, seed: u64, seconds: f64) -> io::Result<LadderReport> {
    let pool = gen::pool(&spec.shape, seed, 0, spec.trace_sessions);
    // Every rung gets an equal share of 0.7 × seconds; the top rung a
    // double one, half of it spent on the interleaved untraced cycles.
    let rungs = if spec.cluster { 7 } else { 6 };
    let share = Duration::from_secs_f64(0.7 * seconds / (rungs + 1) as f64);
    let replay = Replay {
        pool: &pool,
        spec,
        share,
        origin: Instant::now(),
    };
    let top = Replay {
        share: 2 * share,
        ..replay
    };
    // A cluster node runs 1 worker where the single server runs 2; the
    // pool and wire rungs below the cluster rung match its nodes.
    let workers = if spec.cluster { 1 } else { 2 };
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut logs: Vec<(&'static str, RungLog)> = Vec::new();

    // Rung 1: Solver.
    let mut rung = SolverRung::default();
    logs.push((
        "solver.run",
        replay.run(&mut rung, None, "rung.solver", &mut spans, &mut tally),
    ));

    // Rung 2: CowStore.
    let mut store = StoreRung::new();
    logs.push((
        "snapstore",
        replay.run(&mut store, None, "rung.snapstore", &mut spans, &mut tally),
    ));

    // Rung 3: SolverService over a CowStore, per shard.
    let budget = spec
        .budget_bytes
        .map(|b| (b as f64 * budget_scale(spec, SHARDS)) as usize);
    logs.push((
        "solver.service",
        replay.run(
            &mut ServiceRung::new(budget),
            None,
            "rung.solver_service",
            &mut spans,
            &mut tally,
        ),
    ));

    // Rung 4: ShardedService, in process.
    let sharded = ShardedService::new(service_config(spec));
    logs.push((
        "service.sharded",
        replay.run(
            &mut BackendRung::new(&sharded),
            None,
            "rung.sharded",
            &mut spans,
            &mut tally,
        ),
    ));

    // Rung 5: PoolClient over the worker pool.
    let pool_of_workers =
        WorkerPool::new(Arc::new(ShardedService::new(service_config(spec))), workers);
    let client = pool_of_workers.client();
    logs.push((
        "service.pool",
        replay.run(
            &mut BackendRung::new(&client),
            None,
            "rung.pool",
            &mut spans,
            &mut tally,
        ),
    ));
    pool_of_workers.shutdown();

    // Rung 6: PipelinedClient → Server over loopback TCP.
    let server = Server::start_with("127.0.0.1:0", service_config(spec), workers, 1)?;
    let conn = svc::connect_single(server.local_addr())?;
    let mut wire = BackendRung::new(conn.backend());
    wire.codec = true;
    let mut plain = svc::BackendTarget(conn.backend());
    let log = if spec.cluster {
        replay.run(&mut wire, None, "rung.wire", &mut spans, &mut tally)
    } else {
        top.run(
            &mut wire,
            Some(&mut plain),
            "rung.wire",
            &mut spans,
            &mut tally,
        )
    };
    logs.push(("service.net", log));
    drop(wire);
    drop(conn);
    server.shutdown();

    // Rung 7: ClusterBackend → two nodes, both replication planes.
    let mut replica = (0u64, 0u64, 0u64); // (edges, solves, peak bytes)
    if spec.cluster {
        let config = spec.config(budget_scale(spec, 2 * SHARDS));
        let cluster = Cluster::start_local_with(2, config, 1, 1)?;
        let backend = cluster.connect()?;
        let mut rung = BackendRung::new(&backend);
        rung.group_end = Some(Box::new(|solves| {
            let mut edges = 0;
            let mut bytes = 0;
            for server in (0..2).filter_map(|n| cluster.server(n)) {
                let replicas = server.replicas();
                edges += replicas
                    .sessions()
                    .iter()
                    .map(|&s| replicas.session_edges(s) as u64)
                    .sum::<u64>();
                bytes += replicas.counters().0;
            }
            replica = (replica.0 + edges, replica.1 + solves, replica.2.max(bytes));
        }));
        let mut plain = svc::BackendTarget(&backend);
        let log = top.run(
            &mut rung,
            Some(&mut plain),
            "rung.cluster",
            &mut spans,
            &mut tally,
        );
        logs.push(("service.cluster", log));
        drop(rung);
        drop(backend);
        cluster.shutdown();
    }
    let (top_traced, top_plain, top_median_us) = {
        let (_, log) = logs.last().expect("at least six rungs pushed");
        (
            log.ops as f64 / log.wall.as_secs_f64(),
            log.plain.0 as f64 / log.plain.1.as_secs_f64(),
            log.median_us(),
        )
    };

    // The real configuration, untraced: p50 and the service's counters.
    let window = Duration::from_secs_f64(0.2 * seconds);
    let reference = svc::run_untraced(spec, seed, window, 1, &|s| s.connect())?;
    let latencies: Vec<u64> = {
        let mut all: Vec<(u64, u64)> = reference
            .logs
            .iter()
            .flat_map(|l| l.samples.iter().copied())
            .collect();
        all.sort_unstable();
        all.into_iter().map(|(_, latency)| latency).collect()
    };
    for log in reference.logs {
        tally.absorb(log.tally);
    }
    let p50_us = quantile::slice_median(&latencies, 0.5).unwrap_or(0.0) / 1e3;
    let stats = reference.stats;

    // Assemble the ledger.
    let span: Vec<f64> = logs.iter().map(|(_, log)| log.span_us()).collect();
    let below = |i: usize| if i == 0 { 0.0 } else { span[i - 1] };
    let store_log = &logs[1].1;
    let service_log = &logs[2].1;
    let wire_log = &logs[5].1;
    let codec_us = wire_log.mean_us(wire_log.sums.codec_ns);
    let top_us = *span.last().expect("at least six rungs");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    // What replaying an evicted parent adds, averaged over all requests.
    let rederive_us = {
        let (hits, hit_ns) = service_log.hit;
        let (misses, miss_ns) = service_log.rederived;
        let extra = ratio(miss_ns as f64, misses as f64) - ratio(hit_ns as f64, hits as f64);
        (extra.max(0.0) * misses as f64 / service_log.ops.max(1) as f64) / 1e3
    };

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("solver.run_us", span[0]);
    metrics.insert(
        "solver.conflicts_per_op",
        ratio(logs[0].1.sums.conflicts as f64, logs[0].1.ops as f64),
    );
    metrics.insert(
        "solver.encode_us",
        store_log.mean_us(store_log.sums.encode_ns),
    );
    metrics.insert(
        "solver.decode_us",
        store_log.mean_us(store_log.sums.decode_ns),
    );
    metrics.insert("snapstore.self_us", span[1] - below(1));
    metrics.insert("snapstore.get_us", store_log.mean_us(store_log.sums.get_ns));
    metrics.insert("snapstore.put_us", store_log.mean_us(store_log.sums.put_ns));
    metrics.insert(
        "snapstore.pages_dirtied_per_put",
        ratio(store.pages_dirtied as f64, store.puts as f64),
    );
    metrics.insert(
        "snapstore.bytes_scanned_per_byte_dirtied",
        ratio(store.encoded_bytes as f64, store.bytes_written as f64),
    );
    metrics.insert(
        "snapstore.resident_bytes_per_snapshot",
        mean(&store.resident_per_snapshot),
    );
    metrics.insert("solver.service_self_us", span[2] - below(2));
    metrics.insert(
        "solver.service_hit_rate",
        100.0
            * ratio(
                stats.snapshot_hits as f64,
                (stats.snapshot_hits + stats.rederivations) as f64,
            ),
    );
    metrics.insert("solver.service_rederive_us", rederive_us);
    metrics.insert(
        "solver.service_evictions_per_op",
        ratio(stats.evictions as f64, stats.queries as f64),
    );
    metrics.insert("service.sharded_self_us", span[3] - below(3));
    metrics.insert("service.pool_self_us", span[4] - below(4));
    metrics.insert("service.protocol_codec_us", codec_us);
    metrics.insert("service.net_self_us", span[5] - below(5) - codec_us);
    metrics.insert(
        "service.rx_copy_bytes_per_op",
        ratio(reference.rx_copy_bytes as f64, stats.queries as f64),
    );
    let cluster_self = if spec.cluster {
        span[6] - below(6)
    } else {
        0.0
    };
    metrics.insert("service.cluster_self_us", cluster_self);
    metrics.insert(
        "service.repl_edges_per_op",
        ratio(replica.0 as f64, replica.1 as f64),
    );
    metrics.insert("service.replica_bytes", replica.2 as f64);
    metrics.insert("ladder.top_us", top_us);
    metrics.insert("ladder.top_median_us", top_median_us);
    metrics.insert("ladder.coverage", 100.0 * ratio(top_median_us, p50_us));
    metrics.insert("ladder.queueing_us", p50_us - top_median_us);
    metrics.insert(
        "trace.overhead_share",
        100.0 * (1.0 - ratio(top_traced, top_plain)),
    );

    let mut rows: Vec<(&'static str, f64, f64)> = logs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, span[i], span[i] - below(i)))
        .collect();
    // The wire rung's self time splits into codec and the rest.
    rows[5].2 -= codec_us;
    rows.insert(5, ("service.protocol_codec", span[4] + codec_us, codec_us));

    Ok(LadderReport {
        metrics,
        rows,
        spans,
        tally,
        reference_samples: latencies.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn miniature(name: &str) -> SvcSpec {
        match Workload::by_name(name).unwrap().miniature().kind {
            crate::spec::Kind::Svc(spec) => spec,
            _ => unreachable!("{name} is a service workload"),
        }
    }

    /// The three hand-written rungs answer exactly like the service:
    /// same verdicts, models that satisfy the same paths.
    #[test]
    fn rungs_agree_with_the_service_on_every_request() {
        let spec = miniature("svc.tree");
        let pool = gen::pool(&spec.shape, 5, 0, 3);
        let sharded = ShardedService::new(ServiceConfig::new(2));
        let mut targets: Vec<Box<dyn Target>> = vec![
            Box::new(SolverRung::default()),
            Box::new(StoreRung::new()),
            Box::new(ServiceRung::new(None)),
            Box::new(BackendRung::new(&sharded)),
        ];
        for target in &mut targets {
            let mut tally = Tally::default();
            let mut ops = 0;
            let walk = Walk {
                live: 2,
                batched: false,
                id_base: 0,
                id_stride: 1,
            };
            let stop = Stop {
                deadline: None,
                sessions: Some(3),
            };
            drive(
                target.as_mut(),
                &pool,
                walk,
                stop,
                Instant::now(),
                &mut tally,
                &mut |op| {
                    assert!(op.ok);
                    assert!(op.detail.span_ns > 0, "every rung reports its span");
                    ops += 1;
                },
            );
            assert_eq!(ops, 3 * spec.shape.steps);
            assert_eq!(tally.failed, 0, "{:?}", tally.causes);
        }
    }

    #[test]
    fn ladder_rows_sum_to_the_top_rung() {
        for name in ["svc.tree", "svc.repl", "svc.evict"] {
            let report = run_traced(&miniature(name), 2, 0.7).unwrap();
            assert_eq!(report.tally.failed, 0, "{name}: {:?}", report.tally.causes);
            let total: f64 = report.rows.iter().map(|r| r.2).sum();
            let top = report.metrics["ladder.top_us"];
            assert!(
                (total - top).abs() < 1e-6 * top.max(1.0),
                "{name}: {total} vs {top}"
            );
            for def in crate::spec::PER_LAYER {
                let on_path = !def.name.starts_with("vm.")
                    && !def.name.starts_with("core.")
                    && !def.name.starts_with("mem.")
                    && !def.name.starts_with("fs.")
                    && !def.name.starts_with("symex.");
                assert_eq!(
                    report.metrics.contains_key(def.name),
                    on_path,
                    "{name}: {}",
                    def.name
                );
            }
            assert!(report.metrics["solver.run_us"] > 0.0);
            assert!(report.metrics["snapstore.put_us"] > 0.0);
            assert!(report.metrics["service.protocol_codec_us"] > 0.0);
            assert_eq!(
                report.metrics["service.cluster_self_us"] != 0.0,
                name == "svc.repl"
            );
            if name == "svc.repl" {
                assert!(report.metrics["service.repl_edges_per_op"] > 0.0);
            }
        }
    }
}
