//! `lwsnapd` — the sharded multi-path incremental solver daemon.
//!
//! ```sh
//! lwsnapd [--addr 127.0.0.1:7557] [--shards N] [--workers M] \
//!         [--reactors R] [--capacity K] [--budget BYTES] \
//!         [--node-id ID] \
//!         [--peer ID=HOST:PORT ...] [--ring-seed SEED] \
//!         [--replica-budget BYTES] [--metrics-addr HOST:PORT]
//! ```
//!
//! Serves the `lwsnap-service` wire protocol (pipelined tagged frames,
//! multiplexed by `--reactors` epoll reactor threads — one per core by
//! default, each with its own `SO_REUSEPORT` listener so the kernel
//! shards accepted connections across them) until a client sends a
//! `Shutdown` request,
//! then prints the final service and worker statistics. `--capacity`
//! bounds the resident solver snapshots *per shard* by count,
//! `--budget` by byte cost (clause + assignment footprint); evicted
//! problems are re-derived transparently by constraint replay.
//!
//! ## Cluster mode
//!
//! `--node-id ID` makes this daemon node `ID` of a cluster: every
//! problem id it mints carries the node id, and ids routed to it that
//! name a *different* node are rejected at decode time with a typed
//! `WrongNode` error instead of aliasing into a dead reference. Stand
//! up one daemon per node (distinct `--node-id`s, any addresses) and
//! point a `ClusterBackend` at the full `(id, addr)` map — the
//! client-side consistent-hash ring routes sessions.
//!
//! With `--peer` flags (one per other node) the daemons also talk to
//! *each other*: every tracked session's derivation edges are forwarded
//! by the home node to the session's replica (its first ring-ranked
//! peer — a session stays replicated however many clients drive it),
//! and a heartbeat thread probes the peers, promoting a dead node's
//! sessions from their replicas before clients notice. `--ring-seed` must match the
//! clients' seed; `--replica-budget` bounds the replica store, above
//! which linear path-log chains are compacted in place.
//!
//! ## Observability
//!
//! `--metrics-addr HOST:PORT` starts the scrape exporter: `GET
//! /metrics` serves the plaintext counter/gauge/histogram snapshot and
//! `GET /trace` drains the event rings as chrome://tracing JSON. The
//! same data is available in-band via the `Stats2` and `TraceDump`
//! wire requests, so clusters can be scraped through a
//! `ClusterBackend` without any HTTP exposure.

use lwsnap_service::{NodeId, Server, ServiceConfig};

use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage: lwsnapd [--addr HOST:PORT] [--shards N] [--workers M] \
         [--reactors R] [--capacity K] [--budget BYTES] [--node-id ID] \
         [--peer ID=HOST:PORT ...] [--ring-seed SEED] [--replica-budget BYTES] \
         [--metrics-addr HOST:PORT]\n\
         \n\
         --addr      listen address (default 127.0.0.1:7557)\n\
         --shards    independently locked problem-tree shards (default 8)\n\
         --workers   solver worker threads (default: available parallelism)\n\
         --reactors  epoll reactor threads, each with its own SO_REUSEPORT\n\
         \u{20}           listener (default: available parallelism; falls back\n\
         \u{20}           to 1 where SO_REUSEPORT is unavailable)\n\
         --capacity  max resident snapshots per shard (default: unbounded)\n\
         --budget    max resident snapshot bytes per shard (default: unbounded)\n\
         --node-id   cluster node id stamped into problem ids (default 0);\n\
         \u{20}           run one daemon per id and give a ClusterBackend the map\n\
         --peer      another node of the cluster, as ID=HOST:PORT (repeat per\n\
         \u{20}           peer); turns on server-side edge forwarding + heartbeats\n\
         --ring-seed consistent-hash ring seed (default 0) — must match every\n\
         \u{20}           client and peer of this cluster\n\
         --replica-budget  replica-store byte budget; past it, linear path-log\n\
         \u{20}           chains are compacted (default: unbounded)\n\
         --metrics-addr  serve GET /metrics (plaintext scrape) and GET /trace\n\
         \u{20}           (chrome://tracing JSON) on this address (default: off)"
    );
    std::process::exit(2);
}

/// Parses one `--peer` value: `ID=HOST:PORT`.
fn parse_peer(value: &str) -> Option<(NodeId, SocketAddr)> {
    let (id, addr) = value.split_once('=')?;
    Some((id.trim().parse().ok()?, addr.trim().parse().ok()?))
}

fn main() {
    let mut addr = "127.0.0.1:7557".to_owned();
    let mut shards = 8usize;
    let mut workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut reactors = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut capacity: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut node_id: u16 = 0;
    let mut peers: Vec<(NodeId, SocketAddr)> = Vec::new();
    let mut ring_seed: u64 = 0;
    let mut replica_budget: Option<usize> = None;
    let mut metrics_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--shards" => shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--reactors" => reactors = value("--reactors").parse().unwrap_or_else(|_| usage()),
            "--capacity" => {
                capacity = Some(value("--capacity").parse().unwrap_or_else(|_| usage()))
            }
            "--budget" => budget = Some(value("--budget").parse().unwrap_or_else(|_| usage())),
            "--node-id" => node_id = value("--node-id").parse().unwrap_or_else(|_| usage()),
            "--peer" => peers.push(parse_peer(&value("--peer")).unwrap_or_else(|| usage())),
            "--ring-seed" => ring_seed = value("--ring-seed").parse().unwrap_or_else(|_| usage()),
            "--replica-budget" => {
                replica_budget = Some(
                    value("--replica-budget")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let mut config = ServiceConfig::new(shards).with_node_id(node_id);
    config.snapshot_capacity = capacity;
    config.snapshot_budget_bytes = budget;
    config.replica_budget_bytes = replica_budget;
    let server = match Server::start_with(&addr, config, workers, reactors) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lwsnapd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(scrape) = &metrics_addr {
        match lwsnap_trace::export::serve(scrape) {
            Ok(bound) => println!("lwsnapd node {node_id}: metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("lwsnapd: cannot bind metrics exporter {scrape}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !peers.is_empty() {
        server.set_peers(&peers, ring_seed);
        println!(
            "lwsnapd node {node_id}: forwarding + heartbeats to {} peer(s), ring seed {ring_seed}",
            peers.len(),
        );
    }
    println!(
        "lwsnapd node {} listening on {} ({} shards, {} workers, {} reactor(s), \
         capacity {})",
        node_id,
        server.local_addr(),
        shards,
        workers,
        server.reactors(),
        capacity.map_or("unbounded".to_owned(), |c| c.to_string()),
    );

    let service = server.service().clone();
    let replicas = server.replicas().clone();
    let heartbeat_misses = server.heartbeat_miss_handle();
    let worker_stats = server.wait();
    let (replica_bytes, replica_promotions, failovers) = replicas.counters();

    let total = service.stats().total();
    println!(
        "served {} queries ({} conflicts): {} snapshot hits, {} rederivations \
         ({} clauses replayed, {} conflicts), {} evictions, {} live problems",
        total.queries,
        total.total_conflicts,
        total.snapshot_hits,
        total.rederivations,
        total.replayed_clauses,
        total.rederive_conflicts,
        total.evictions,
        total.live_problems,
    );
    println!(
        "snapshot store: {} resident bytes, {} shared / {} private pages",
        total.resident_bytes, total.shared_pages, total.private_pages,
    );
    println!(
        "replication: {replica_bytes} replica bytes held, {replica_promotions} promotions \
         across {failovers} failovers served, {} compactions, {} heartbeat misses",
        replicas.compactions(),
        heartbeat_misses.load(std::sync::atomic::Ordering::Relaxed),
    );
    for (i, w) in worker_stats.iter().enumerate() {
        println!("worker {i}: {} jobs, {:.3?} busy", w.jobs, w.busy);
    }
}
