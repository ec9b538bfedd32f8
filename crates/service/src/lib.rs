//! # lwsnap-service — the sharded, concurrent multi-path solver service
//!
//! The paper's §3.2 vision scaled out: clients hand in an opaque
//! reference to a solved problem plus an incremental constraint and get
//! back a solution and a new reference — except here the service is
//! **concurrent** (a worker pool executes solve requests in parallel),
//! **sharded** (problem trees are hashed across N independently locked
//! shards, so unrelated client sessions never contend) and
//! **memory-bounded** (each shard runs the LRU snapshot-eviction policy
//! of [`lwsnap_solver::SolverService`], transparently re-deriving evicted
//! problems by replaying their constraint path from the nearest resident
//! ancestor).
//!
//! The layering, bottom up:
//!
//! * [`lwsnap_solver::SolverService`] — the single-shard building block:
//!   one problem tree, snapshots, eviction (by count and/or byte
//!   budget), replay.
//! * [`sharded::ShardedService`] — N shards behind one façade;
//!   [`sharded::ProblemId`] routes a reference to its node and shard
//!   (the id is placement-aware: node ⋅ shard ⋅ local).
//! * [`router`] — cluster placement: the consistent-hash [`Ring`]
//!   (seeded rendezvous) mapping session roots to nodes, with exact
//!   minimal-disruption rebalancing.
//! * [`pool::WorkerPool`] — M worker threads pulling solve jobs from a
//!   shared [`lwsnap_core::workqueue::Injector`]; clients submit one job
//!   or a whole batch under one lock acquisition.
//! * [`backend`] — the **unified API**: the completion-based
//!   [`SolverBackend`] trait (`submit → Ticket`, `wait → reply`) that
//!   every layer above implements, so exploration drivers, load
//!   generators and tests are written once and run against any of
//!   them.
//! * [`protocol`] — length-prefixed tagged frames, whose correlation
//!   tags let one connection pipeline many in-flight solves with
//!   out-of-order completions.
//! * [`replica`] — the passive replica store: path logs forwarded by a
//!   session's home node to the session's replica, reaped as the home's
//!   problems are released, promoted by bit-identical replay when the
//!   home node dies or drains out.
//! * [`bufpool`] — pooled 64 KiB receive blocks and the zero-copy
//!   [`bufpool::FrameAssembler`] that parses frames in place, spilling
//!   (and counting) only the rare block-boundary bytes.
//! * [`net`] — the non-blocking front end: one epoll reactor **per
//!   core** (vendored [`polling`] shim), each with its own
//!   `SO_REUSEPORT` listener, connection table, buffer pool and
//!   completion queue, with per-connection write backpressure,
//!   scatter-gather (`writev`) response flushing, graceful shutdown,
//!   server-side edge forwarding and a peer heartbeat thread; the
//!   `lwsnapd` binary serves it.
//! * [`chaos`] — deterministic fault injection at the protocol
//!   boundary: seeded, content-keyed drops/duplications/delays of
//!   the home nodes' replication frames, plus the loadgen kill schedule.
//! * [`client`] — [`PipelinedClient`] (send-many/await-many; a blocking
//!   exchange is its depth-1 `call`) and [`ClusterBackend`] (N
//!   pipelined connections behind the ring) — the remote
//!   [`SolverBackend`]s, for one node and for a whole cluster.
//! * [`stats`] — the fleet view of the stats plane: every counter is a
//!   field of [`StatsSummary`], kept by its owner (a shard, the replica
//!   store, the forwarder, a buffer pool) and folded per node
//!   ([`Server::stats`]) and per fleet ([`FleetStats::total`]).
//!
//! ```
//! use lwsnap_service::{ServiceConfig, ShardedService};
//! use lwsnap_solver::{Lit, SolveResult};
//!
//! let service = ShardedService::new(ServiceConfig::new(4));
//! let root = service.session_root(42);
//! let p = service
//!     .solve(root, &[vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]])
//!     .unwrap();
//! assert_eq!(p.result, SolveResult::Sat);
//! // Two divergent continuations of the same solved problem.
//! let q1 = service.solve(p.problem, &[vec![Lit::from_dimacs(-1)]]).unwrap();
//! let q2 = service.solve(p.problem, &[vec![Lit::from_dimacs(1)]]).unwrap();
//! assert_eq!(q1.result, SolveResult::Sat);
//! assert_eq!(q2.result, SolveResult::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bufpool;
pub mod chaos;
pub mod client;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod replica;
pub mod router;
pub mod sharded;
pub mod stats;

pub use backend::{SolverBackend, Ticket};
pub use bufpool::{BufferPool, FrameAssembler, Lease};
pub use chaos::{ChaosAction, ChaosPlan, ChaosPolicy};
pub use client::{ClusterBackend, Disconnected, NodeError, PipelinedClient};
pub use lwsnap_trace::{MetricsSnapshot, StatsSummary};
pub use net::{Cluster, NodeCounters, ReactorStatsView, Server};
pub use pool::{PoolClient, WorkerPool};
pub use protocol::{Request, Response};
pub use replica::ReplicaStore;
pub use router::{NodeId, Placement, Ring};
pub use sharded::{ProblemId, ServiceConfig, ShardedService, SolveReply};
pub use stats::{FleetStats, WorkerStats};
