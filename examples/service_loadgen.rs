//! Closed-loop load generator for the sharded solver service.
//!
//! Drives M concurrent client sessions over a shared problem tree and
//! reports throughput, p50/p99 latency and the snapshot-economy
//! counters, for seven service flavours — the last six all running the
//! SAME session loop against the `SolverBackend` trait:
//!
//! 1. the single-threaded `SolverService` baseline;
//! 2. the sharded service with a worker pool (unbounded memory);
//! 3. the same, with resident snapshots capped at 25% of the problem
//!    tree — exercising LRU eviction and constraint-path re-derivation;
//! 4. a remote `lwsnapd` over loopback TCP, one connection per
//!    session driven **serially** (submit, wait, repeat — a full
//!    round trip per query; tagged frames, same as phase 5, so the
//!    comparison isolates the wire discipline);
//! 5. the same daemon, all sessions multiplexed on ONE **pipelined**
//!    connection (out-of-order completions) — the epoll front end's
//!    reason to exist;
//! 6. a **3-node in-process cluster** behind the consistent-hash ring
//!    (`ClusterBackend` over one pipelined connection per node) —
//!    sessions partitioned across nodes, per-node hit/rederive/evict
//!    counters reported individually instead of silently summed;
//! 7. the same cluster under **chaos**: halfway through the run every
//!    session pauses, one node is KILLED (the one homing session 0)
//!    and a fresh node joins, then the sessions resume — the killed
//!    node's sessions fail over onto their ring-successor replicas by
//!    path-log replay, and the verdict/witness streams must still be
//!    bit-identical to the sequential baseline;
//! 8. the seeded **fault-injection harness**: a fresh 3-node cluster
//!    running a fixed workload of many small incremental steps under a
//!    [`ChaosPlan`] (`--chaos-seed` × `--chaos-mode`) — the home nodes'
//!    replication frames are dropped/duplicated/delayed content-keyed,
//!    and in `kill` mode the seeded victim dies at the midpoint barrier
//!    with **no request in flight**, and the sessions resume only once
//!    every survivor's heartbeat — the servers' one failure detector —
//!    has declared it dead. The phase asserts verdict bit-identity
//!    against its own sequential baseline and — under kill —
//!    `failovers > 0` and `dead_peers ≥ 1` on every survivor.
//!
//! Every SAT model returned in any phase is re-checked against the full
//! constraint path of its problem, and the SAT/UNSAT verdict streams of
//! all phases are compared step for step; any mismatch exits
//! non-zero. That is the "deterministically verifiable under
//! concurrency" property the paper's service sketch demands — now
//! across machine boundaries too.
//!
//! ```sh
//! cargo run --release --example service_loadgen -- \
//!     [--sessions M] [--queries Q] [--vars V] [--shards S] [--workers W] \
//!     [--reactors R] [--connections C] [--nodes N] [--budget BYTES] [--smoke] \
//!     [--chaos-seed SEED] [--chaos-mode kill,drop,duplicate,delay] \
//!     [--metrics-addr HOST:PORT] [--trace-out PATH]
//! ```
//!
//! An argument not listed above exits with status 2.
//!
//! `--reactors` fans every in-process daemon (the single server of
//! phases 4–5 and every cluster node) across R `SO_REUSEPORT` epoll
//! reactors; `--connections` sizes the fan-out sub-phase — C pipelined
//! connections sharing the session load — after which the single
//! server's per-reactor accept/completion/queue-depth/copy counters
//! are printed, the observable proof that the kernel actually sharded
//! the connection load.
//!
//! `--budget` bounds resident snapshot bytes per shard in every remote
//! phase (TCP, cluster, chaos), so the daemons churn through byte-budget
//! eviction and constraint-path replay while the verdict streams are
//! cross-checked — eviction under chaos, not just under calm.
//!
//! Observability hooks: `--metrics-addr` serves the plaintext scrape
//! for the run's lifetime and self-scrapes it at the end, asserting the
//! solve histogram actually counted (the CI smoke leg); `--trace-out`
//! writes every event drained from the cluster phases as
//! chrome://tracing JSON. Under `kill` mode the phase-8 merged trace is
//! additionally reduced to a printed **failover timeline** — last
//! heartbeat pong, missed probes, the death verdict, replica
//! promotions, reroutes — and the phase asserts the timeline is
//! reconstructable (a death verdict and a promotion are present).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lwsnap_bench::service_workload::{RunOutcome, Workload};
use lwsnap_service::{ChaosPlan, Cluster, PipelinedClient, Server, ServiceConfig, SolverBackend};
use lwsnap_trace::{export, Event, Kind, Registry};

/// Every flag that takes a value; `--smoke` is the only bare one.
const VALUE_FLAGS: [&str; 13] = [
    "--sessions",
    "--queries",
    "--vars",
    "--shards",
    "--workers",
    "--reactors",
    "--connections",
    "--nodes",
    "--budget",
    "--chaos-seed",
    "--chaos-mode",
    "--metrics-addr",
    "--trace-out",
];

/// Exits with status 2 on an argument this program does not take, so
/// a stale or misspelt flag fails loudly instead of being ignored.
fn reject_unknown_flags(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if arg != "--smoke" {
            eprintln!("service_loadgen: unknown argument {arg:?}");
            std::process::exit(2);
        }
    }
}

fn parse_flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_str_flag<'a>(args: &'a [String], name: &str, default: &'a str) -> &'a str {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map_or(default, String::as_str)
}

/// Prints the phase-8 failover story read back out of one merged trace
/// stream: the victim's last acknowledged probe, the missed-probe
/// build-up, the death verdict, every replica promotion, and the first
/// rerouted request. Returns `(saw_death, promotions)` so the caller
/// can assert the timeline was actually reconstructable.
fn print_failover_timeline(events: &[Event], victim: u16) -> (bool, usize) {
    let v = victim as u64;
    let ms = |from: u64, to: u64| (to.saturating_sub(from)) as f64 / 1e6;
    let first_miss = events
        .iter()
        .find(|e| e.kind == Kind::HbMiss && e.a == v)
        .map(|e| e.ts_ns);
    let last_pong = events
        .iter()
        .filter(|e| e.kind == Kind::HbPong && e.a == v)
        .filter(|e| first_miss.is_none_or(|t| e.ts_ns < t))
        .map(|e| e.ts_ns)
        .next_back();
    let t0 = last_pong
        .or(first_miss)
        .or_else(|| events.first().map(|e| e.ts_ns))
        .unwrap_or(0);
    println!(
        "    failover timeline (victim node {victim}, {} events merged):",
        events.len()
    );
    if let Some(t) = last_pong {
        println!(
            "      +{:>8.2}ms last heartbeat pong from node {victim}",
            ms(t0, t)
        );
    }
    let misses = events
        .iter()
        .filter(|e| e.kind == Kind::HbMiss && e.a == v)
        .count();
    if let Some(t) = first_miss {
        println!(
            "      +{:>8.2}ms first missed probe ({misses} misses total)",
            ms(t0, t)
        );
    }
    let mut saw_death = false;
    for e in events {
        match e.kind {
            Kind::NodeDead if e.a == v => {
                saw_death = true;
                println!(
                    "      +{:>8.2}ms peers declared node {victim} dead ({} sessions to promote)",
                    ms(t0, e.ts_ns),
                    e.b,
                );
            }
            Kind::Failover if e.a == v => {
                saw_death = true;
                println!(
                    "      +{:>8.2}ms client buried node {victim} ({} of its sessions homed there)",
                    ms(t0, e.ts_ns),
                    e.b,
                );
            }
            _ => {}
        }
    }
    let promotions: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == Kind::ReplPromote)
        .collect();
    for e in &promotions {
        println!(
            "      +{:>8.2}ms replica promoted session {:#x} ({} edges replayed)",
            ms(t0, e.ts_ns),
            e.a,
            e.b,
        );
    }
    if let Some(e) = events.iter().find(|e| e.kind == Kind::Rerouted && e.a == v) {
        println!(
            "      +{:>8.2}ms first request rerouted {victim} -> node {}",
            ms(t0, e.ts_ns),
            e.b,
        );
    }
    (saw_death, promotions.len())
}

fn report(label: &str, outcome: &RunOutcome) {
    println!(
        "  {label:<28} {:>8.0} q/s   p50 {:>9.2?}   p99 {:>9.2?}   wall {:>8.2?}   \
         {} models verified",
        outcome.throughput(),
        outcome.latency_quantile(0.5),
        outcome.latency_quantile(0.99),
        outcome.wall,
        outcome.verified_models,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(&args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let sessions = parse_flag(&args, "--sessions", 8);
    let queries = parse_flag(&args, "--queries", if smoke { 6 } else { 24 });
    let vars = parse_flag(&args, "--vars", if smoke { 40 } else { 70 });
    let shards = parse_flag(&args, "--shards", 8);
    let workers = parse_flag(
        &args,
        "--workers",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    let reactors = parse_flag(
        &args,
        "--reactors",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let connections = parse_flag(&args, "--connections", if smoke { 16 } else { 64 });
    let nodes = parse_flag(&args, "--nodes", 3);
    let budget: Option<usize> = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let chaos_seed = parse_flag(&args, "--chaos-seed", 0xc4a0) as u64;
    let chaos_mode = parse_str_flag(&args, "--chaos-mode", "kill,drop,duplicate");
    let metrics_addr = args
        .iter()
        .position(|a| a == "--metrics-addr")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    assert!(sessions >= 1 && queries >= 1 && nodes >= 1 && reactors >= 1 && connections >= 1);
    let scrape_addr = metrics_addr.map(|addr| {
        // This process hosts many short-lived nodes, each reporting its
        // own counters in its phase below; the scrape carries what they
        // share, the process's latency histograms.
        let bound =
            export::serve(&addr, || Registry::global().snapshot()).expect("bind metrics exporter");
        println!("metrics exporter on http://{bound}/metrics\n");
        bound
    });
    // Every cluster phase drains its nodes' event rings into this one
    // stream; `--trace-out` writes it as chrome://tracing JSON at exit.
    let mut trace_events: Vec<Event> = Vec::new();
    // All remote phases share one daemon configuration; the byte budget
    // (when set) makes them run under continuous snapshot eviction.
    let remote_config = || {
        let mut config = ServiceConfig::new(shards);
        config.snapshot_budget_bytes = budget;
        config
    };

    println!(
        "workload: {sessions} sessions × {queries} queries, 3-SAT base over {vars} vars, \
         {shards} shards, {workers} workers, {reactors} reactor(s){}\n",
        budget.map_or(String::new(), |b| format!(", {b}-byte budget/shard")),
    );
    let workload = Workload::build(sessions, queries, vars, 0x10ad);

    // Phase 1: the single-threaded scaling baseline.
    let sequential = lwsnap_bench::service_workload::run_sequential(&workload);
    report("sequential SolverService", &sequential);

    // Phase 2: sharded + worker pool, no memory bound.
    let (sharded, service, worker_stats) =
        lwsnap_bench::service_workload::run_sharded(&workload, shards, workers, None);
    report("sharded (unbounded)", &sharded);
    let total = service.stats();
    let busiest_shard_live = service
        .shard_stats()
        .iter()
        .map(|s| s.live_problems as usize)
        .max()
        .unwrap_or(1);
    println!(
        "    {} live problems over {} shards (busiest {}), hit rate {:.1}%, jobs/worker {:?}",
        total.live_problems,
        total.shards,
        busiest_shard_live,
        total.hit_rate().unwrap_or(1.0) * 100.0,
        worker_stats.iter().map(|w| w.jobs).collect::<Vec<_>>(),
    );

    // Phase 3: cap resident snapshots at 25% of the busiest shard's
    // tree, forcing eviction + replay on the same workload.
    let capacity = (busiest_shard_live / 4).max(1);
    let (evicting, evicting_service, _) =
        lwsnap_bench::service_workload::run_sharded(&workload, shards, workers, Some(capacity));
    report(&format!("sharded (cap {capacity}/shard)"), &evicting);
    let etotal = evicting_service.stats();
    println!(
        "    {} evictions, {} rederivations ({} clauses, {} conflicts replayed), \
         hit rate {:.1}%",
        etotal.evictions,
        etotal.rederivations,
        etotal.replayed_clauses,
        etotal.rederive_conflicts,
        etotal.hit_rate().unwrap_or(1.0) * 100.0,
    );

    // Phases 4 & 5: the same closed loop over loopback TCP against the
    // epoll front end — blocking one-connection-per-session vs all
    // sessions pipelined on one connection.
    let server =
        Server::start_with("127.0.0.1:0", remote_config(), workers, reactors).expect("bind");
    let addr = server.local_addr();

    let blocking = {
        let clients: Vec<PipelinedClient> = (0..sessions)
            .map(|_| PipelinedClient::connect(addr).expect("connect"))
            .collect();
        // Each session gets a dedicated connection driven one call at
        // a time (submit + wait) — the per-query-round-trip baseline.
        lwsnap_bench::service_workload::run_backend(&workload, |i, plan| {
            let backend: &dyn SolverBackend = &clients[i];
            let root = backend.session_root(plan.session).expect("transport");
            let base = backend
                .solve(root, workload.base.clone())
                .expect("transport")
                .expect("root is live")
                .problem;
            (backend, base)
        })
    };
    report("TCP serial (conn/session)", &blocking);

    let pipelined = {
        let shared = PipelinedClient::connect(addr).expect("connect");
        lwsnap_bench::service_workload::run_remote(&workload, &shared)
    };
    report("TCP pipelined (one conn)", &pipelined);
    println!(
        "    pipelining gain over serial TCP: {:.2}×",
        pipelined.throughput() / blocking.throughput().max(1e-9),
    );

    // Phase 5b: the many-connection fan-out — C pipelined connections
    // (sessions round-robined across them when C < M, extra idle
    // connections when C > M) so the kernel's SO_REUSEPORT sharding
    // has a real load to spread over the reactors.
    let fanout = {
        let clients: Vec<PipelinedClient> = (0..connections)
            .map(|_| PipelinedClient::connect(addr).expect("connect"))
            .collect();
        lwsnap_bench::service_workload::run_backend(&workload, |i, plan| {
            let backend: &dyn SolverBackend = &clients[i % clients.len()];
            let root = backend.session_root(plan.session).expect("transport");
            let base = backend
                .solve(root, workload.base.clone())
                .expect("transport")
                .expect("root is live")
                .problem;
            (backend, base)
        })
    };
    report(&format!("TCP fan-out ({connections} conns)"), &fanout);
    // The accept/queue-depth distribution the reactor rework is about:
    // nonzero accepts on more than one reactor means the kernel really
    // sharded the connections; rx-copied bytes staying ~0 means the
    // pooled parse really was in place.
    for (i, r) in server.reactor_stats().iter().enumerate() {
        println!(
            "    reactor {i}: {} conns accepted, {} completions (queue peak {}), \
             {} rx bytes copied, {} pool blocks recycled ({} leased, {} free)",
            r.accepted,
            r.completions,
            r.queue_peak,
            r.rx_copy_bytes,
            r.pool_recycled,
            r.pool_outstanding,
            r.pool_free,
        );
    }
    PipelinedClient::connect(addr)
        .and_then(|c| c.shutdown_server())
        .expect("shutdown");
    server.wait();

    // Phase 6: the same closed loop over an in-process CLUSTER — one
    // lwsnapd-equivalent node per node id, sessions partitioned by the
    // consistent-hash ring, one pipelined connection per node.
    let cluster = Cluster::start_local_with(nodes, remote_config(), workers, reactors)
        .expect("start cluster");
    let cluster_backend = cluster.connect().expect("connect cluster");
    let clustered = lwsnap_bench::service_workload::run_remote(&workload, &cluster_backend);
    report(&format!("cluster ({nodes} nodes, 1 ring)"), &clustered);
    // Per-node accounting: the node dimension is kept, not summed away.
    let fleet = cluster_backend.node_stats().expect("node stats");
    for (node, s) in &fleet.nodes {
        println!(
            "    node {node}: {} queries, {} hits, {} rederivations, {} evictions, \
             {} live problems over {} shards",
            s.queries, s.snapshot_hits, s.rederivations, s.evictions, s.live_problems, s.shards,
        );
        println!(
            "    node {node} mem: {} CoW page copies, {} zero fills, {} bytes written",
            s.cow_page_copies, s.zero_fills, s.bytes_written,
        );
    }
    trace_events.extend(cluster_backend.fleet_trace().expect("trace dump"));
    for (node, result) in cluster_backend.shutdown() {
        result.unwrap_or_else(|e| panic!("node {node} failed to drain: {e}"));
    }
    cluster.shutdown();

    // Phase 7: the same cluster workload under CHAOS — at the halfway
    // barrier (no request in flight), kill the node homing session 0
    // and join a brand-new node; the resumed sessions discover the
    // change on their next solves and fail over transparently.
    let mut chaos_cluster = Cluster::start_local_with(nodes, remote_config(), workers, reactors)
        .expect("start cluster");
    let chaos_backend = chaos_cluster.connect().expect("connect cluster");
    let victim = chaos_backend
        .ring()
        .node_for(workload.sessions[0].session)
        .expect("ring places session 0");
    let chaos = {
        let cluster = &mut chaos_cluster;
        let backend = &chaos_backend;
        lwsnap_bench::service_workload::run_remote_with_midpoint(
            &workload,
            &chaos_backend,
            queries / 2,
            move || {
                cluster.kill_node(victim);
                let (id, addr) = cluster
                    .add_node(remote_config(), workers)
                    .expect("join node");
                backend.add_node(id, addr).expect("connect joined node");
            },
        )
    };
    report(&format!("cluster chaos (kill {victim}, +1)"), &chaos);
    let fleet = chaos_backend.node_stats().expect("node stats");
    let chaos_total = fleet.total();
    for (node, s) in &fleet.nodes {
        println!(
            "    node {node}: {} queries, {} failovers, {} promotions, {} replica bytes",
            s.queries, s.failovers, s.replica_promotions, s.replica_bytes,
        );
    }
    assert!(
        chaos_total.failovers > 0,
        "chaos phase must actually exercise failover (victim {victim} homed no session?)"
    );
    // Drain phase 7's events so the phase-8 timeline below starts from
    // a clean stream (one kill per reconstruction).
    trace_events.extend(chaos_backend.fleet_trace().expect("trace dump"));
    for (node, result) in chaos_backend.shutdown() {
        result.unwrap_or_else(|e| panic!("node {node} failed to drain: {e}"));
    }
    chaos_cluster.shutdown();

    // Phase 8: the seeded fault-injection harness. A fresh 3-node
    // cluster runs a FIXED workload shape (many small incremental
    // steps over a small base, so path logs are long) under the chaos
    // plan derived from --chaos-seed × --chaos-mode: the home nodes'
    // replication frames are dropped / duplicated / delayed
    // content-keyed (a client's re-ship of its own log before a
    // promotion is the healing path and is exempt), and in `kill` mode
    // the seeded victim dies at the midpoint barrier while every
    // session is parked — no request is in flight,
    // so only the survivors' heartbeat can notice, and the sessions
    // resume once every survivor has declared the victim dead.
    // Verdicts and witnesses are checked against this workload's own
    // in-process sequential baseline.
    let plan = ChaosPlan::parse(chaos_seed, chaos_mode).unwrap_or_else(|| {
        eprintln!("unknown --chaos-mode in {chaos_mode:?} (kill, drop, duplicate, delay)");
        std::process::exit(2);
    });
    let harness_workload = Workload::build(8, 48, 24, 0x5eed);
    let harness_baseline = lwsnap_bench::service_workload::run_sequential(&harness_workload);
    let mut harness_cluster =
        Cluster::start_local_with(3, remote_config(), workers, reactors).expect("start");
    let harness_backend = harness_cluster.connect().expect("connect cluster");
    let policy = plan.policy();
    if policy.is_active() {
        harness_cluster.set_chaos(Some(Arc::new(policy)));
    }
    let victim = harness_backend
        .ring()
        .node_for(harness_workload.sessions[plan.victim_index(8)].session)
        .expect("ring places the victim session");
    let harness = {
        let cluster = &mut harness_cluster;
        lwsnap_bench::service_workload::run_remote_with_midpoint(
            &harness_workload,
            &harness_backend,
            24,
            move || {
                if !plan.kill {
                    return;
                }
                cluster.kill_node(victim);
                // Wait for the DETECTOR, not for a request error: the
                // sessions are all parked at the barrier, so only the
                // survivors' heartbeat can notice the kill. Every one
                // of them must have declared the victim dead — and
                // re-picked the replica of the sessions it held —
                // before any session resumes.
                let deadline = Instant::now() + Duration::from_secs(10);
                let buried = |cluster: &Cluster| {
                    (0..3u16)
                        .filter(|&n| n != victim)
                        .all(|n| cluster.server(n).is_some_and(|s| s.stats().dead_peers >= 1))
                };
                while !buried(cluster) {
                    assert!(
                        Instant::now() < deadline,
                        "the survivors' heartbeat never declared node {victim} dead"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            },
        )
    };
    report(&format!("chaos harness (seed {chaos_seed:#x})"), &harness);
    let fleet = harness_backend.node_stats().expect("node stats");
    let harness_total = fleet.total();
    for (node, s) in &fleet.nodes {
        println!(
            "    node {node}: {} queries, {} failovers, {} promotions, {} replica bytes, \
             {} heartbeat misses, {} dead peers",
            s.queries,
            s.failovers,
            s.replica_promotions,
            s.replica_bytes,
            s.heartbeat_misses,
            s.dead_peers,
        );
    }
    println!(
        "    plan [{}{}{}{}] · victim node {victim} · {} failover retries",
        if plan.kill { "kill " } else { "" },
        if plan.drop { "drop " } else { "" },
        if plan.duplicate { "duplicate " } else { "" },
        if plan.delay { "delay" } else { "" },
        harness_backend.failover_retries(),
    );
    // The harness assertions from the acceptance bar: bit-identical
    // verdicts against this workload's own in-process baseline, and
    // the kill detected by every survivor's heartbeat — not by a
    // client request error.
    let mut harness_mismatches = 0usize;
    for (s, base_session) in harness_baseline.verdicts.iter().enumerate() {
        if harness.verdicts[s] != *base_session {
            eprintln!("VERDICT MISMATCH: harness session {s} vs its sequential baseline");
            harness_mismatches += 1;
        }
    }
    assert!(
        harness_mismatches == 0,
        "{harness_mismatches} chaos-harness verdict mismatches — the service is WRONG"
    );
    if plan.kill {
        assert!(
            harness_total.failovers > 0,
            "kill mode must exercise failover (victim {victim} homed no session?)"
        );
        for (node, s) in &fleet.nodes {
            assert!(
                s.dead_peers >= 1,
                "survivor {node} never declared the victim {victim} dead"
            );
        }
    }
    // One merged trace export of the whole phase; under kill, the
    // failover timeline must be reconstructable from it alone.
    let harness_events = harness_backend.fleet_trace().expect("trace dump");
    if plan.kill {
        let (saw_death, promotions) = print_failover_timeline(&harness_events, victim);
        assert!(
            saw_death,
            "no death verdict for victim {victim} in the merged trace"
        );
        assert!(
            promotions > 0,
            "no replica promotion in the merged trace despite a kill"
        );
    }
    trace_events.extend(harness_events);
    for (node, result) in harness_backend.shutdown() {
        result.unwrap_or_else(|e| panic!("node {node} failed to drain: {e}"));
    }
    harness_cluster.shutdown();

    // Cross-phase verification: identical verdict streams everywhere.
    let mut mismatches = 0usize;
    for (s, seq_session) in sequential.verdicts.iter().enumerate() {
        for (phase, outcome) in [
            ("sharded", &sharded),
            ("evicting", &evicting),
            ("tcp-serial", &blocking),
            ("tcp-pipelined", &pipelined),
            ("tcp-fanout", &fanout),
            ("cluster", &clustered),
            ("cluster-chaos", &chaos),
        ] {
            if outcome.verdicts[s] != *seq_session {
                eprintln!("VERDICT MISMATCH: session {s}, {phase} vs sequential");
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("\n{mismatches} verdict mismatches — the service is WRONG");
        std::process::exit(1);
    }
    if let Some(path) = &trace_out {
        trace_events.sort_by_key(|e| (e.ts_ns, e.tid));
        std::fs::write(path, export::chrome_trace_json(&trace_events)).expect("write trace");
        println!(
            "wrote {} trace events to {path} (load at chrome://tracing or ui.perfetto.dev)",
            trace_events.len(),
        );
    }
    if let Some(bound) = scrape_addr {
        // The smoke contract CI relies on: the exporter answers, and
        // this process's solve histogram actually counted the run.
        let body = export::fetch(bound, "/metrics").expect("self-scrape");
        let solve_count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix("lwsnap_solve_ns_count "))
            .and_then(|v| v.trim().parse().ok())
            .expect("scrape lists lwsnap_solve_ns_count");
        assert!(
            solve_count > 0,
            "metrics scrape shows an empty solve histogram:\n{body}"
        );
        println!("metrics self-scrape OK: lwsnap_solve_ns_count = {solve_count}");
    }
    let speedup = evicting.throughput().max(sharded.throughput()) / sequential.throughput();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nall {} queries × 8 phases verified (+ the seeded chaos harness against \
         its own baseline): identical verdicts (failover included), \
         every model re-checked \
         against its constraint path ({:.2}× best sharded speedup over sequential on \
         {cores} core{})",
        workload.total_queries(),
        speedup,
        if cores == 1 {
            " — expect <1× here"
        } else {
            "s"
        },
    );
}
