//! `lwsnapd` — the sharded multi-path incremental solver daemon.
//!
//! ```sh
//! lwsnapd [--addr 127.0.0.1:7557] [--shards N] [--workers M] \
//!         [--reactors R] [--budget BYTES] [--node-id ID] \
//!         [--peer ID=HOST:PORT ...] [--metrics-addr HOST:PORT]
//! ```
//!
//! Serves the `lwsnap-service` wire protocol (pipelined tagged frames,
//! multiplexed by `--reactors` epoll reactor threads — one per core by
//! default, each with its own `SO_REUSEPORT` listener so the kernel
//! shards accepted connections across them) until a client sends a
//! `Shutdown` request, then prints the node's final counters (one
//! `lwsnap_*` line each, as the scrape shows them) and the worker
//! statistics. `--budget` bounds the resident solver snapshots *per
//! shard* by byte cost (clause + assignment footprint); evicted
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
//! sessions from their replicas before clients notice. Daemons and
//! clients rank nodes on the same fixed ring. A replica holds one
//! path-log edge per solve of each session it replicates; an edge goes
//! once the home has relayed the release of its problem and of every
//! problem derived from it. A relay the network loses leaks its edge,
//! and `lwsnap_replica_bytes` counts it.
//!
//! ## Observability
//!
//! `--metrics-addr HOST:PORT` starts the scrape exporter: `GET
//! /metrics` serves this node's counters and latency histograms as
//! plaintext and `GET /trace` drains the event rings as
//! chrome://tracing JSON. The same data is available in-band via the
//! `Stats` and `TraceDump` wire requests, so clusters can be scraped
//! through a `ClusterBackend` without any HTTP exposure.

use lwsnap_service::{MetricsSnapshot, NodeId, Server, ServiceConfig};

use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage: lwsnapd [--addr HOST:PORT] [--shards N] [--workers M] \
         [--reactors R] [--budget BYTES] [--node-id ID] \
         [--peer ID=HOST:PORT ...] [--metrics-addr HOST:PORT]\n\
         \n\
         --addr      listen address (default 127.0.0.1:7557)\n\
         --shards    independently locked problem-tree shards (default 8)\n\
         --workers   solver worker threads (default: available parallelism)\n\
         --reactors  epoll reactor threads, each with its own SO_REUSEPORT\n\
         \u{20}           listener (default: available parallelism; falls back\n\
         \u{20}           to 1 where SO_REUSEPORT is unavailable)\n\
         --budget    max resident snapshot bytes per shard (default: unbounded)\n\
         --node-id   cluster node id stamped into problem ids (default 0);\n\
         \u{20}           run one daemon per id and give a ClusterBackend the map\n\
         --peer      another node of the cluster, as ID=HOST:PORT (repeat per\n\
         \u{20}           peer); turns on server-side edge forwarding + heartbeats\n\
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
    let mut budget: Option<usize> = None;
    let mut node_id: u16 = 0;
    let mut peers: Vec<(NodeId, SocketAddr)> = Vec::new();
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
            "--budget" => budget = Some(value("--budget").parse().unwrap_or_else(|_| usage())),
            "--node-id" => node_id = value("--node-id").parse().unwrap_or_else(|_| usage()),
            "--peer" => peers.push(parse_peer(&value("--peer")).unwrap_or_else(|| usage())),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let mut config = ServiceConfig::new(shards).with_node_id(node_id);
    config.snapshot_budget_bytes = budget;
    let server = match Server::start_with(&addr, config, workers, reactors) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lwsnapd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let counters = server.counters();
    if let Some(scrape) = &metrics_addr {
        let counters = counters.clone();
        match lwsnap_trace::export::serve(scrape, move || counters.metrics()) {
            Ok(bound) => println!("lwsnapd node {node_id}: metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("lwsnapd: cannot bind metrics exporter {scrape}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !peers.is_empty() {
        server.set_peers(&peers);
        println!(
            "lwsnapd node {node_id}: forwarding + heartbeats to {} peer(s)",
            peers.len(),
        );
    }
    println!(
        "lwsnapd node {} listening on {} ({} shards, {} workers, {} reactor(s), \
         budget {})",
        node_id,
        server.local_addr(),
        shards,
        workers,
        server.reactors(),
        budget.map_or("unbounded".to_owned(), |b| format!("{b} B/shard")),
    );

    let worker_stats = server.wait();
    let final_counters = MetricsSnapshot {
        counters: counters.snapshot(),
        histograms: Vec::new(),
    };
    print!("{}", final_counters.render());
    for (i, w) in worker_stats.iter().enumerate() {
        println!("worker {i}: {} jobs, {:.3?} busy", w.jobs, w.busy);
    }
}
