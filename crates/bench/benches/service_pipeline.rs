//! Pipelined vs blocking wire throughput against the epoll front end.
//!
//! Both benchmarks push the same stream of independent solve queries
//! through one loopback TCP connection; the only variable is the wire
//! discipline:
//!
//! * `tcp_blocking` — depth-1 [`PipelinedClient::call`]: one frame
//!   out, wait for the reply, repeat. Every query pays a full round
//!   trip plus a reactor wakeup.
//! * `tcp_pipelined/8` — the [`PipelinedClient`] keeping a depth-8
//!   window of tagged requests in flight: the round trips and reactor
//!   wakeups amortise across the window, and the worker pool sees the
//!   whole window at once instead of one query at a time.
//!
//! Expected shape: pipelined ≥ 1.5× blocking at depth 8 (the win grows
//! with round-trip cost — loopback is the *worst* case for pipelining,
//! any real network makes the gap wider).
//!
//! The `many_conns_reactors/{1,2}` legs measure the reactor fan-out
//! instead: 64 concurrent pipelined connections against the same
//! server bound with one vs two `SO_REUSEPORT` reactors. With
//! `REACTOR_GATE=1` the run additionally asserts the two regression
//! bars from the front-end rework: two reactors ≥ 1.3× one reactor on
//! multi-core hosts (≥ 4 CPUs — kernel accept sharding needs real
//! parallelism to show), and the zero-copy receive path holding on
//! every host: ≤ 64 spilled bytes per request, counted by the
//! per-reactor buffer pools.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lwsnap_service::{PipelinedClient, Request, Response, Server, ServiceConfig, SolverBackend};
use lwsnap_solver::Lit;

const DEPTH: usize = 8;
const WINDOWS: usize = 8;

/// Per-shard snapshot byte budget: room for about 32 of this bench's
/// snapshots, which average 19 968 B each on the CoW store (a full
/// shard's `resident_bytes / resident_snapshots`).
const SHARD_BUDGET: usize = 32 * 19_968;

/// Connections in the reactor fan-out legs: enough that the kernel's
/// `SO_REUSEPORT` sharding has something to spread.
const CONNS: usize = 64;

/// Pipelined queries each fan-out connection issues per run.
const CONN_QUERIES: usize = 4;

/// A small satisfiable query, distinct per step so nothing caches.
fn clauses(step: usize) -> Vec<Vec<Lit>> {
    let v = (step % 40 + 1) as i64;
    vec![
        vec![Lit::from_dimacs(v), Lit::from_dimacs(v + 1)],
        vec![Lit::from_dimacs(-v), Lit::from_dimacs(v + 2)],
    ]
}

fn wire_clauses(step: usize) -> Vec<Vec<i64>> {
    clauses(step)
        .iter()
        .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
        .collect()
}

/// Drives `conns` concurrent pipelined connections (one thread and one
/// session each, `queries` solves pipelined per connection) and returns
/// the wall time for the whole fan-out.
fn run_many(addr: SocketAddr, conns: usize, queries: usize) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..conns {
            scope.spawn(move || {
                let client = PipelinedClient::connect(addr).expect("connect");
                let root = client.session_root(1000 + i as u64).expect("root");
                let tickets: Vec<_> = (0..queries)
                    .map(|q| {
                        client
                            .submit(root, clauses(i * queries + q))
                            .expect("submit")
                    })
                    .collect();
                for ticket in tickets {
                    let reply = client.wait(ticket).expect("wait").expect("live root");
                    assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
                }
            });
        }
    });
    started.elapsed()
}

/// The front-end regression gate, run when `REACTOR_GATE=1`: measures
/// the 64-connection fan-out against a 1-reactor and a 2-reactor
/// server and asserts (a) two reactors ≥ 1.3× one reactor — on hosts
/// with ≥ 4 CPUs only, kernel accept sharding cannot speed up a single
/// core — and (b) the receive path stayed zero-copy: ≤ 64 spilled
/// bytes per request on average, from the per-reactor pool counters.
fn reactor_gate() {
    if std::env::var_os("REACTOR_GATE").is_none_or(|v| v != "1") {
        return;
    }
    let measure = |reactors: usize| {
        let config = ServiceConfig::new(8).with_snapshot_budget(SHARD_BUDGET);
        let server = Server::start_with("127.0.0.1:0", config, 4, reactors).expect("bind");
        run_many(server.local_addr(), CONNS, 1); // warm up listeners + pool
        let wall = run_many(server.local_addr(), CONNS, CONN_QUERIES);
        let stats = server.reactor_stats();
        server.shutdown();
        (wall, stats)
    };
    let (one, _) = measure(1);
    let (two, stats) = measure(2);

    // Both runs on the 2-reactor server: each connection sends one
    // session root plus its solves.
    let requests = (CONNS * (2 + 1 + CONN_QUERIES)) as u64;
    let rx_copy: u64 = stats.iter().map(|s| s.rx_copy_bytes).sum();
    assert!(
        rx_copy / requests <= 64,
        "REACTOR_GATE: receive path copied {rx_copy} bytes over {requests} requests \
         ({} B/req) — the zero-copy parse regressed",
        rx_copy / requests,
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let speedup = one.as_secs_f64() / two.as_secs_f64();
        assert!(
            speedup >= 1.3,
            "REACTOR_GATE: 2 reactors only {speedup:.2}× 1 reactor over {CONNS} \
             connections (bar: 1.3×) — 1-reactor {one:?}, 2-reactor {two:?}"
        );
        println!("REACTOR_GATE: 2 reactors = {speedup:.2}× 1 reactor ({CONNS} conns)");
    } else {
        println!("REACTOR_GATE: {cores} CPU(s) < 4, skipping the 1.3× scaling bar");
    }
    println!(
        "REACTOR_GATE: rx copies {rx_copy} B / {requests} requests = {} B/req",
        rx_copy / requests,
    );
}

fn bench_service_pipeline(c: &mut Criterion) {
    // Bound residency so the growing problem tree stays cheap; the
    // queries never revisit children, so eviction costs nothing here.
    let config = ServiceConfig::new(8).with_snapshot_budget(SHARD_BUDGET);
    let server = Server::start("127.0.0.1:0", config, 4).expect("bind loopback");
    let addr = server.local_addr();

    let mut group = c.benchmark_group("service_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements((DEPTH * WINDOWS) as u64));

    group.bench_function("tcp_blocking", |b| {
        let client = PipelinedClient::connect(addr).expect("connect");
        let root = client.session_root(1).expect("root").to_wire();
        let mut step = 0usize;
        b.iter(|| {
            for _ in 0..DEPTH * WINDOWS {
                let request = Request::Solve {
                    parent: root,
                    clauses: wire_clauses(step),
                };
                let response = client.call(&request).expect("solve");
                let Response::Solved { sat: true, .. } = response else {
                    panic!("expected SAT");
                };
                step += 1;
            }
        })
    });

    group.bench_with_input(
        BenchmarkId::new("tcp_pipelined", DEPTH),
        &DEPTH,
        |b, &depth| {
            let client = PipelinedClient::connect(addr).expect("connect");
            let root = client.session_root(2).expect("root");
            let mut step = 0usize;
            b.iter(|| {
                for _ in 0..WINDOWS {
                    let tickets: Vec<_> = (0..depth)
                        .map(|_| {
                            let t = client.submit(root, clauses(step)).expect("submit");
                            step += 1;
                            t
                        })
                        .collect();
                    for ticket in tickets {
                        let reply = client.wait(ticket).expect("wait").expect("live root");
                        assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
                    }
                }
            })
        },
    );

    // The reactor fan-out: the same server config bound with one vs
    // two SO_REUSEPORT reactors, 64 concurrent pipelined connections.
    group.throughput(Throughput::Elements((CONNS * CONN_QUERIES) as u64));
    for reactors in [1usize, 2] {
        let config = ServiceConfig::new(8).with_snapshot_budget(SHARD_BUDGET);
        let many = Server::start_with("127.0.0.1:0", config, 4, reactors).expect("bind");
        let many_addr = many.local_addr();
        group.bench_with_input(
            BenchmarkId::new("many_conns_reactors", reactors),
            &reactors,
            |b, _| b.iter(|| run_many(many_addr, CONNS, CONN_QUERIES)),
        );
        many.shutdown();
    }

    group.finish();
    drop(server);
    reactor_gate();
}

criterion_group!(benches, bench_service_pipeline);
criterion_main!(benches);
