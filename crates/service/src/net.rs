//! The non-blocking TCP front end: **one reactor per core**, each an
//! independent epoll readiness loop (the vendored [`polling`] shim)
//! over its own `SO_REUSEPORT` listener, dispatching solve work into
//! the shared [`WorkerPool`].
//!
//! ## The reactor fan-out
//!
//! [`Server::start`] binds N listeners on one port with `SO_REUSEPORT`
//! set before bind ([`polling::bind_reuseport`]) and spawns N reactor
//! threads, each owning its own [`polling::Poller`] (epoll instance),
//! its own connection table, its own [`BufferPool`] of receive
//! blocks and its own [`CompletionQueue`]. The kernel shards incoming
//! connections across the accept queues by 4-tuple hash; a connection
//! is **pinned for life** to the reactor that accepted it, so no
//! cross-reactor locking ever touches per-connection state. The worker
//! pool stays shared — completions route back through the owning
//! reactor's queue and wake exactly that reactor's poller. (When
//! `SO_REUSEPORT` is unavailable — IPv6, exotic kernels — the front
//! end falls back to one reactor on a plain listener.)
//!
//! ## The zero-copy wire path
//!
//! * **Read side** — socket bytes land directly in a pooled 64 KiB
//!   block leased by the connection; frames are parsed **in place**
//!   ([`crate::protocol::parse_frame_ref`]) and the request is decoded
//!   straight out of the block — the old `inbuf` staging copy is gone.
//!   Only a frame that straddles a block boundary is copied (into a
//!   spill buffer), and those bytes are counted (`rx_copy_bytes`) so
//!   the benches can assert the copies stayed gone. Blocks recycle to
//!   the reactor's freelist when a connection closes
//!   (`pool_recycles`).
//! * **Write side** — responses queue as (header, payload) pairs and go
//!   out through corked scatter-gather writes
//!   ([`std::io::Write::write_vectored`], i.e. `writev`): the encoded
//!   payload `Vec` is handed to the kernel where it lies instead of
//!   being restaged through a flat `outbuf`.
//! * **Ordering** — requests complete out of order, each reply written
//!   the moment it finishes and matched to its request by the echoed
//!   correlation tag.
//! * **Backpressure** — a connection whose unflushed output or
//!   in-flight count crosses the high-water mark stops being read (its
//!   read interest is not re-armed) until it drains, so one slow
//!   client can neither balloon server memory nor starve the pool.
//! * **Shutdown** — a client `Shutdown` request drains gracefully on
//!   every reactor: stop accepting, stop reading, finish in-flight
//!   solves, flush every output queue, then exit. Host-initiated
//!   shutdown (`Server::drop`) exits promptly without the flush
//!   guarantee.
//!
//! ## The server-to-server plane
//!
//! When [`Server::set_peers`] gives a node its cluster map, two things
//! start happening beside the client traffic:
//!
//! * **Edge forwarding** — every successful solve of a tracked session
//!   is forwarded by the home node ([`Request::Replicate`]) to the
//!   session's replica: the first ring-ranked node that is not the
//!   home, chosen when the session's root is registered, inherited by
//!   every problem derived from it and re-chosen only when that node
//!   leaves the membership — a join neither moves nor stops an existing
//!   session's forwarding. The home is the only steady-state
//!   replicator, so a session stays replicated however many clients
//!   drive it; clients keep their own copy of the log and re-ship it
//!   before asking for a promotion.
//! * **Heartbeats** — the cluster's one failure detector. A detached
//!   thread pings every peer on a jittered timer
//!   ([`Request::Ping`]/[`Response::Pong`]). Three consecutive misses
//!   declare a peer dead: the survivor promotes the edges the dead node
//!   minted that it holds as replica — often *before* any client
//!   request trips over the corpse. Clients run no detector; they learn
//!   of a death when a request of their own fails or times out.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lwsnap_trace::{self as trace, MetricsSnapshot, StatsSummary};
use polling::{Event, Poller};

use crate::bufpool::{BufferPool, FrameAssembler};
use crate::chaos::{root_key, stable_key, ChaosAction, ChaosPolicy};
use crate::client::PipelinedClient;
use crate::pool::{CompletionQueue, PoolClient, WorkerPool};
use crate::protocol::{clauses_to_lits, Request, Response, CONNECTION_TAG, TAGGED};
use crate::replica::ReplicaStore;
use crate::router::{mix64, NodeId, Ring};
use crate::sharded::{ProblemId, ServiceConfig, ShardedService, SolveReply};
use crate::stats::WorkerStats;

/// Stop reading a connection whose unflushed output exceeds this. Also
/// the flush window for client-side corked batch writes
/// ([`crate::PipelinedClient::submit_batch`]), so both directions of
/// the wire share one backpressure bound.
pub(crate) const HIGH_WATER: usize = 1 << 20;
/// Resume reading once the unflushed output falls below this.
const LOW_WATER: usize = HIGH_WATER / 4;
/// Stop reading a connection with this many unanswered solves.
const MAX_INFLIGHT: usize = 1024;
/// Cork at most this many response frames into one `writev` (two
/// iovecs per frame — comfortably under every libc's `IOV_MAX`).
const MAX_WRITE_FRAMES: usize = 32;
/// Poller key of a reactor's listening socket; connections use
/// `idx + 1` (keys are per-poller, so every reactor reuses the range).
const KEY_LISTENER: usize = 0;
/// How long a graceful drain waits for peers to read their last
/// responses before giving up and exiting anyway.
const DRAIN_GRACE: std::time::Duration = std::time::Duration::from_secs(5);
/// Base interval between server-side heartbeat rounds (each round adds
/// seeded jitter so a fleet's probes do not synchronize).
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// Read timeout on server-to-server connections: a peer that cannot
/// answer a `Ping` within this is counted as a miss.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(1);
/// Consecutive heartbeat misses before a peer is declared dead. The
/// hysteresis: a flapping peer that answers at least one ping in every
/// window of three never trips a failover.
const SUSPICION_THRESHOLD: u32 = 3;

// ---------------------------------------------------------------------
// The server-to-server replication/heartbeat plane.
// ---------------------------------------------------------------------

/// Consecutive-miss failure accrual with ack-reset hysteresis: a peer
/// is condemned only after [`SUSPICION_THRESHOLD`] misses *in a row* —
/// any answered ping zeroes its counter, so a flapping peer (slow, but
/// alive) never trips a spurious failover, while a truly dead one is
/// condemned in exactly that many heartbeat rounds.
#[derive(Default)]
struct SuspicionTable {
    counts: HashMap<NodeId, u32>,
}

impl SuspicionTable {
    /// An answered ping: resets the peer's consecutive-miss count.
    fn ack(&mut self, node: NodeId) {
        self.counts.insert(node, 0);
    }

    /// A missed ping; `true` when the peer just crossed the threshold
    /// and should be condemned.
    fn miss(&mut self, node: NodeId) -> bool {
        let count = self.counts.entry(node).or_insert(0);
        *count += 1;
        *count >= SUSPICION_THRESHOLD
    }

    /// The peer's consecutive unanswered pings.
    fn misses(&self, node: NodeId) -> u32 {
        self.counts.get(&node).copied().unwrap_or(0)
    }

    /// Drops a condemned (or departed) peer's counter.
    fn forget(&mut self, node: NodeId) {
        self.counts.remove(&node);
    }
}

/// One heartbeat interval plus up to +50% jitter seeded by `salt` (no
/// wall-clock randomness, so a fleet's probes never phase-lock),
/// slept in 10 ms chunks so a raised `stop` flag is noticed promptly.
/// `false` when the flag cut the nap short.
fn jittered_nap(interval: Duration, salt: u64, stop: &AtomicBool) -> bool {
    let half = (interval.as_micros() as u64 / 2).max(1);
    let nap = interval + Duration::from_micros(mix64(salt) % half);
    let mut slept = Duration::ZERO;
    while slept < nap {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let chunk = Duration::from_millis(10).min(nap - slept);
        std::thread::sleep(chunk);
        slept += chunk;
    }
    true
}

/// Peer-facing state of one node: the cluster map, lazy pipelined
/// connections to each peer, the session registry that attributes this
/// node's problems to their sessions, and the suspicion counters the
/// heartbeat thread maintains. Owned by [`Server`], shared with every
/// reactor (dispatch hooks) and the heartbeat thread.
///
/// Reactor-affinity note: this node keeps exactly ONE pipelined
/// connection per peer (`conns`), shared by the forward plane (worker
/// threads) and the heartbeat thread. On the receiving node that
/// connection is pinned to whichever reactor accepted it, so all
/// `Replicate`/`Ping` traffic from one peer rides one reactor — the
/// peer plane never straddles the front-end fan-out — and one
/// session's edges reach its replica in the order they were written.
pub(crate) struct Forwarder {
    node: NodeId,
    inner: Mutex<ForwardInner>,
    /// Whether the heartbeat thread has been spawned.
    hb_started: AtomicBool,
}

struct ForwardInner {
    /// The same seeded rendezvous ring every client uses, including
    /// this node — successor targets must agree across the fleet.
    ring: Ring,
    /// Peer id → address (this node excluded).
    peers: HashMap<NodeId, SocketAddr>,
    /// Lazily opened server-to-server connections.
    conns: HashMap<NodeId, Arc<PipelinedClient>>,
    /// Problem wire id (minted here) → its session attribution. Roots
    /// register at `Root` dispatch, children at solve completion.
    sessions: HashMap<u64, Tracked>,
    /// Consecutive missed heartbeats per peer; reset by any `Pong`.
    suspicion: SuspicionTable,
    /// Fault-injection policy for outgoing replication frames.
    chaos: Option<Arc<ChaosPolicy>>,
    /// The counters the forwarder owns: `forwards`,
    /// `chaos_injections`, `heartbeat_misses` and `dead_peers`.
    stats: StatsSummary,
}

impl ForwardInner {
    /// Decides, and counts, what chaos does to the outgoing
    /// replication frame whose content key is `key`.
    fn chaos_action(&mut self, key: u64) -> ChaosAction {
        let action = self
            .chaos
            .as_ref()
            .map_or(ChaosAction::Deliver, |p| p.decide(key));
        if action != ChaosAction::Deliver {
            trace::instant(trace::Kind::ChaosInject, key, 0);
            self.stats.chaos_injections += 1;
        }
        action
    }
}

/// What the home node knows about one problem it minted.
#[derive(Clone, Copy)]
struct Tracked {
    /// The owning session.
    session: u64,
    /// Content-stable chaos key: hashes the problem's clause lineage
    /// ([`stable_key`]) so chaos decisions replay identically
    /// regardless of wire-id allocation order.
    key: u64,
    /// Where the session's edges are forwarded (`None`: no peer to
    /// replicate to). Picked by [`Ring::replica_for`] for a root, inherited
    /// by everything derived from it, so the whole session keeps one
    /// replica — the one its clients name — until that node leaves.
    replica: Option<NodeId>,
}

/// Re-picks the replica of every problem whose replica is no longer a
/// peer (it died, or a new cluster map dropped it). Sessions whose
/// replica is still a member are left exactly where they are.
fn rehome_replicas(inner: &mut ForwardInner, home: NodeId) {
    let ForwardInner {
        ring,
        peers,
        sessions,
        ..
    } = inner;
    for tracked in sessions.values_mut() {
        if tracked.replica.is_some_and(|r| !peers.contains_key(&r)) {
            tracked.replica = ring.replica_for(tracked.session, home);
        }
    }
}

/// Opens (or reuses) the pipelined connection to `peer`.
fn peer_conn(inner: &mut ForwardInner, peer: NodeId) -> Option<Arc<PipelinedClient>> {
    if let Some(conn) = inner.conns.get(&peer) {
        return Some(Arc::clone(conn));
    }
    let addr = *inner.peers.get(&peer)?;
    let client = PipelinedClient::connect(addr).ok()?;
    let _ = client.set_read_timeout(Some(HEARTBEAT_TIMEOUT));
    let client = Arc::new(client);
    inner.conns.insert(peer, Arc::clone(&client));
    Some(client)
}

/// Sends one fire-and-forget replication frame as chaos decided
/// ([`ForwardInner::chaos_action`], keyed on the frame's *content* —
/// the [`stable_key`] of its clause lineage — so the decision is
/// replayable across runs): drops swallow it, duplicates send it twice
/// (the receiver dedupes), delays sleep briefly first.
fn chaos_send(conn: &PipelinedClient, action: ChaosAction, request: &Request) -> io::Result<()> {
    match action {
        ChaosAction::Drop => Ok(()),
        ChaosAction::Deliver => conn.submit_forgotten(request),
        ChaosAction::Duplicate => {
            conn.submit_forgotten(request)?;
            conn.submit_forgotten(request)
        }
        ChaosAction::Delay(pause) => {
            std::thread::sleep(pause);
            conn.submit_forgotten(request)
        }
    }
}

impl Forwarder {
    fn new(node: NodeId) -> Forwarder {
        Forwarder {
            node,
            inner: Mutex::new(ForwardInner {
                ring: Ring::new([node], 0),
                peers: HashMap::new(),
                conns: HashMap::new(),
                sessions: HashMap::new(),
                suspicion: SuspicionTable::default(),
                chaos: None,
                stats: StatsSummary::default(),
            }),
            hb_started: AtomicBool::new(false),
        }
    }

    /// Installs the cluster map (this node may or may not be listed;
    /// the ring always includes it). Safe to call again on membership
    /// changes — connections to vanished peers are dropped and the
    /// sessions replicated on them pick a new replica; a joined peer
    /// moves nobody.
    fn set_peers(&self, peers: &[(NodeId, SocketAddr)], seed: u64) {
        let mut ids: Vec<NodeId> = peers.iter().map(|&(id, _)| id).collect();
        if !ids.contains(&self.node) {
            ids.push(self.node);
        }
        let peer_map: HashMap<NodeId, SocketAddr> = peers
            .iter()
            .filter(|&&(id, _)| id != self.node)
            .map(|&(id, addr)| (id, addr))
            .collect();
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.ring = Ring::new(ids, seed);
        inner.conns.retain(|id, _| peer_map.contains_key(id));
        let before = std::mem::replace(&mut inner.peers, peer_map);
        for id in before.keys().filter(|id| !inner.peers.contains_key(id)) {
            inner.suspicion.forget(*id);
        }
        rehome_replicas(inner, self.node);
    }

    fn set_chaos(&self, chaos: Option<Arc<ChaosPolicy>>) {
        self.inner.lock().unwrap().chaos = chaos;
    }

    fn has_peers(&self) -> bool {
        !self.inner.lock().unwrap().peers.is_empty()
    }

    /// Attributes a session root to its session and fixes the session's
    /// replica. Registering the same session again (a second client, a
    /// reconnect) keeps the replica already chosen.
    fn register_root(&self, problem: u64, session: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner
            .sessions
            .get(&problem)
            .is_some_and(|t| t.session == session)
        {
            return;
        }
        let tracked = Tracked {
            session,
            key: root_key(session),
            replica: inner.ring.replica_for(session, self.node),
        };
        inner.sessions.insert(problem, tracked);
    }

    /// Forwards one derivation edge to the session's replica (and
    /// registers the child for future attribution). No-op for
    /// untracked parents and sessions with nowhere to replicate.
    fn forward_edge(&self, parent: u64, problem: u64, clauses: Vec<Vec<i64>>) {
        let (conn, action, replica, session) = {
            let mut inner = self.inner.lock().unwrap();
            let Some(&from) = inner.sessions.get(&parent) else {
                return;
            };
            let key = stable_key(from.key, &clauses);
            inner.sessions.insert(problem, Tracked { key, ..from });
            let Some(replica) = from.replica else {
                return;
            };
            let Some(conn) = peer_conn(&mut inner, replica) else {
                return;
            };
            inner.stats.forwards += 1;
            (conn, inner.chaos_action(key), replica, from.session)
        };
        trace::instant(trace::Kind::ReplForward, session, problem);
        let request = Request::Replicate {
            session,
            problem,
            parent,
            clauses,
        };
        if chaos_send(&conn, action, &request).is_err() {
            // The replica's connection died; drop it so the next
            // forward reconnects (its liveness is the heartbeat's job).
            self.inner.lock().unwrap().conns.remove(&replica);
        }
    }

    /// Mirrors a client `Release` onto the replication plane: drops the
    /// problem from the session registry and tells the session's
    /// replica to GC its copy of the edge.
    fn forget(&self, problem: u64) {
        let (conn, action, replica, session) = {
            let mut inner = self.inner.lock().unwrap();
            let Some(gone) = inner.sessions.remove(&problem) else {
                return;
            };
            let Some(replica) = gone.replica else {
                return;
            };
            let Some(conn) = peer_conn(&mut inner, replica) else {
                return;
            };
            (conn, inner.chaos_action(gone.key), replica, gone.session)
        };
        let request = Request::Unreplicate {
            session,
            problems: vec![problem],
        };
        if chaos_send(&conn, action, &request).is_err() {
            self.inner.lock().unwrap().conns.remove(&replica);
        }
    }

    /// Promotes `session`'s replica log on this node and attributes the
    /// promoted problems to the session, so their future derivations
    /// forward to its new replica. The one promotion path: a client's
    /// `Promote` and this node's own heartbeat both come through here.
    fn promote(
        &self,
        service: &ShardedService,
        replicas: &ReplicaStore,
        session: u64,
        problems: &[u64],
    ) -> Vec<(u64, u64)> {
        let mapping = replicas.promote(service, session, problems);
        for &(_, new) in &mapping {
            self.register_root(new, session);
        }
        mapping
    }

    /// The counters the forwarder owns.
    fn stats(&self) -> StatsSummary {
        self.inner.lock().unwrap().stats
    }

    /// One heartbeat round: ping every peer, track suspicion, and
    /// declare dead any peer that missed [`SUSPICION_THRESHOLD`]
    /// consecutive probes.
    fn heartbeat_round(&self, service: &Arc<ShardedService>, replicas: &Arc<ReplicaStore>) {
        let peers: Vec<NodeId> = {
            let inner = self.inner.lock().unwrap();
            let mut ids: Vec<NodeId> = inner.peers.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        for peer in peers {
            let conn = {
                let mut inner = self.inner.lock().unwrap();
                peer_conn(&mut inner, peer)
            };
            match conn.and_then(|c| c.call(&Request::Ping).ok()) {
                Some(Response::Pong { .. }) => {
                    trace::instant(trace::Kind::HbPong, peer as u64, 0);
                    self.inner.lock().unwrap().suspicion.ack(peer);
                }
                _ => {
                    let (dead, count) = {
                        let mut inner = self.inner.lock().unwrap();
                        inner.stats.heartbeat_misses += 1;
                        inner.conns.remove(&peer);
                        let dead = inner.suspicion.miss(peer);
                        (dead, inner.suspicion.misses(peer))
                    };
                    trace::instant(trace::Kind::HbMiss, peer as u64, count as u64);
                    if dead {
                        self.declare_dead(peer, service, replicas);
                    }
                }
            }
        }
    }

    /// Removes a dead peer from the membership, re-picks the replica of
    /// the sessions that were replicated on it, and promotes, by path
    /// replay, the recorded edges the dead node minted. Victims go by
    /// who minted the edges, not by where the ring placed the session:
    /// a session another survivor already promoted forwards edges its
    /// new home minted, and replaying it here too would give it a
    /// second, orphaned home.
    fn declare_dead(
        &self,
        dead: NodeId,
        service: &Arc<ShardedService>,
        replicas: &Arc<ReplicaStore>,
    ) {
        {
            let mut inner = self.inner.lock().unwrap();
            if !inner.ring.remove_node(dead) {
                return; // already handled
            }
            inner.peers.remove(&dead);
            inner.conns.remove(&dead);
            inner.suspicion.forget(dead);
            rehome_replicas(&mut inner, self.node);
            inner.stats.dead_peers += 1;
        }
        let victims: Vec<(u64, Vec<u64>)> = replicas
            .sessions()
            .into_iter()
            .map(|session| {
                let mut minted = replicas.session_problems(session);
                minted.retain(|&p| ProblemId::from_wire(p).node() == dead);
                (session, minted)
            })
            .filter(|(_, minted)| !minted.is_empty())
            .collect();
        trace::instant(trace::Kind::NodeDead, dead as u64, victims.len() as u64);
        for (session, problems) in victims {
            self.promote(service, replicas, session, &problems);
        }
    }
}

/// The detached heartbeat loop: jittered naps (seeded by node id and
/// tick, so a fleet never phase-locks) punctuated by
/// [`Forwarder::heartbeat_round`]s. Exits when `hard_stop` is set.
fn heartbeat_loop(
    forwarder: Arc<Forwarder>,
    service: Arc<ShardedService>,
    replicas: Arc<ReplicaStore>,
    hard_stop: Arc<AtomicBool>,
) {
    let node = forwarder.node as u64;
    let mut tick = 0u64;
    while jittered_nap(HEARTBEAT_INTERVAL, node << 32 ^ tick, &hard_stop) {
        tick += 1;
        forwarder.heartbeat_round(&service, &replicas);
    }
}

/// Default reactor count: one per core, capped so test harnesses that
/// stand up many in-process servers on big machines stay reasonable.
fn default_reactors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Binds the front end's listener(s). With `reactors > 1` on an IPv4
/// address this is N `SO_REUSEPORT` sockets sharing one port (the
/// first resolves an ephemeral port, the rest bind it); anywhere that
/// cannot work — IPv6, kernels without the option — it degrades to a
/// single plain listener, i.e. a one-reactor front end.
fn bind_front_end(addr: &str, reactors: usize) -> io::Result<(SocketAddr, Vec<TcpListener>)> {
    use std::net::ToSocketAddrs;
    let mut last_err = None;
    for sa in addr.to_socket_addrs()? {
        if reactors > 1 && sa.is_ipv4() {
            if let Ok(first) = polling::bind_reuseport(sa) {
                let bound = first.local_addr()?;
                let mut listeners = vec![first];
                while listeners.len() < reactors {
                    match polling::bind_reuseport(bound) {
                        Ok(l) => listeners.push(l),
                        Err(_) => break,
                    }
                }
                if listeners.len() == reactors {
                    return Ok((bound, listeners));
                }
                // Partial success is a config smell; drop the sockets
                // (freeing the port) and fall back to one listener.
                drop(listeners);
            }
        }
        match TcpListener::bind(sa) {
            Ok(l) => {
                let bound = l.local_addr()?;
                return Ok((bound, vec![l]));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no usable address")))
}

/// Counters one reactor maintains about itself, shared with the
/// [`Server`] handle for scraping.
#[derive(Default)]
struct ReactorStats {
    accepted: AtomicU64,
    completions: AtomicU64,
}

/// A point-in-time snapshot of one reactor's front-end counters
/// ([`Server::reactor_stats`]).
#[derive(Debug, Clone, Default)]
pub struct ReactorStatsView {
    /// Connections this reactor has accepted since start.
    pub accepted: u64,
    /// Solve completions routed through this reactor's queue.
    pub completions: u64,
    /// Deepest the completion queue has ever been (batching depth).
    pub queue_peak: usize,
    /// Receive bytes this reactor copied (block-spanning frames only;
    /// ~0 per request on the zero-copy fast path).
    pub rx_copy_bytes: u64,
    /// Read blocks recycled through this reactor's freelist.
    pub pool_recycled: u64,
    /// Read blocks currently leased out to connections (zero once
    /// every connection has closed — the leak-audit number).
    pub pool_outstanding: usize,
    /// Read blocks parked on the freelist.
    pub pool_free: usize,
}

/// The server-side handle onto one running reactor: its waker plus the
/// shared pieces its stats snapshot reads from.
struct ReactorHandle {
    poller: Arc<Poller>,
    stats: Arc<ReactorStats>,
    bufpool: Arc<BufferPool>,
    completions: Arc<CompletionQueue<Completion>>,
    thread: Option<JoinHandle<()>>,
}

/// The owners of one node's counters — its shards, replica store,
/// forwarder and reactors' buffer pools — read on demand. Folding them
/// is the node's one [`StatsSummary`]: the stats reply, the scrape and
/// [`Server::stats`] all read it here. Cheap to clone, and it outlives
/// the [`Server`] it came from ([`Server::counters`]).
#[derive(Clone)]
pub struct NodeCounters {
    service: Arc<ShardedService>,
    replicas: Arc<ReplicaStore>,
    forwarder: Arc<Forwarder>,
    bufpools: Arc<[Arc<BufferPool>]>,
}

impl NodeCounters {
    /// The node's counters now.
    pub fn snapshot(&self) -> StatsSummary {
        let mut total = self.service.stats();
        total.absorb(&self.replicas.stats());
        total.absorb(&self.forwarder.stats());
        for pool in self.bufpools.iter() {
            total.absorb(&pool.stats());
        }
        total
    }

    /// The node's counters beside the process's latency histograms:
    /// what the stats reply carries and the scrape renders.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.snapshot(),
            ..trace::Registry::global().snapshot()
        }
    }
}

/// A running `lwsnapd` server: reactor threads + worker pool.
pub struct Server {
    addr: SocketAddr,
    service: Arc<ShardedService>,
    replicas: Arc<ReplicaStore>,
    forwarder: Arc<Forwarder>,
    counters: NodeCounters,
    hard_stop: Arc<AtomicBool>,
    reactors: Vec<ReactorHandle>,
    pool: Option<WorkerPool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving a fresh [`ShardedService`] built from `config`
    /// with a `workers`-thread pool and one reactor per core.
    pub fn start(addr: &str, config: ServiceConfig, workers: usize) -> io::Result<Server> {
        Server::start_with(addr, config, workers, default_reactors())
    }

    /// Like [`Server::start`] with an explicit reactor count.
    /// `reactors > 1` needs `SO_REUSEPORT` on an IPv4 address;
    /// anywhere that cannot work, the front end falls back to one
    /// reactor on a plain listener.
    pub fn start_with(
        addr: &str,
        config: ServiceConfig,
        workers: usize,
        reactors: usize,
    ) -> io::Result<Server> {
        let service = Arc::new(ShardedService::new(config));
        Server::serve_inner(addr, service, workers, reactors)
    }

    /// Like [`Server::start`] but over an existing service instance.
    pub fn serve(addr: &str, service: Arc<ShardedService>, workers: usize) -> io::Result<Server> {
        Server::serve_inner(addr, service, workers, default_reactors())
    }

    fn serve_inner(
        addr: &str,
        service: Arc<ShardedService>,
        workers: usize,
        reactors: usize,
    ) -> io::Result<Server> {
        let (addr, listeners) = bind_front_end(addr, reactors.max(1))?;
        let pool = WorkerPool::new(Arc::clone(&service), workers);
        let hard_stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let replicas = Arc::new(ReplicaStore::new());
        let forwarder = Arc::new(Forwarder::new(service.node_id()));
        // Pollers come first so every reactor can wake all its siblings
        // on a drain.
        let mut armed = Vec::with_capacity(listeners.len());
        for listener in listeners {
            listener.set_nonblocking(true)?;
            let poller = Arc::new(Poller::new()?);
            poller.add(&listener, Event::readable(KEY_LISTENER))?;
            armed.push((listener, poller));
        }
        let all_pollers: Arc<Vec<Arc<Poller>>> =
            Arc::new(armed.iter().map(|(_, p)| Arc::clone(p)).collect());
        let counters = NodeCounters {
            service: Arc::clone(&service),
            replicas: Arc::clone(&replicas),
            forwarder: Arc::clone(&forwarder),
            bufpools: armed.iter().map(|_| BufferPool::new()).collect(),
        };
        let mut handles = Vec::with_capacity(armed.len());
        for (index, (listener, poller)) in armed.into_iter().enumerate() {
            let stats = Arc::new(ReactorStats::default());
            let bufpool = Arc::clone(&counters.bufpools[index]);
            let completions = Arc::new(CompletionQueue::new());
            let mut reactor = Reactor {
                listener,
                poller: Arc::clone(&poller),
                all_pollers: Arc::clone(&all_pollers),
                service: Arc::clone(&service),
                replicas: Arc::clone(&replicas),
                forwarder: Arc::clone(&forwarder),
                counters: counters.clone(),
                pool: pool.client(),
                completions: Arc::clone(&completions),
                hard_stop: Arc::clone(&hard_stop),
                draining: Arc::clone(&draining),
                bufpool: Arc::clone(&bufpool),
                stats: Arc::clone(&stats),
                conns: Vec::new(),
                free: Vec::new(),
                gens: Vec::new(),
                total_inflight: 0,
                drain_deadline: None,
            };
            let thread = std::thread::Builder::new()
                .name(format!("lwsnap-reactor-{index}"))
                .spawn(move || reactor.run())?;
            handles.push(ReactorHandle {
                poller,
                stats,
                bufpool,
                completions,
                thread: Some(thread),
            });
        }
        Ok(Server {
            addr,
            service,
            replicas,
            forwarder,
            counters,
            hard_stop,
            reactors: handles,
            pool: Some(pool),
        })
    }

    /// Gives this node its cluster map — `(node id, address)` pairs,
    /// this node included or not — and the shared ring seed. Turns on
    /// the server-to-server plane: derivation edges of sessions homed
    /// here start streaming to their ring successors, and (once there
    /// is at least one peer) the heartbeat thread starts probing.
    /// Callable again on membership changes.
    pub fn set_peers(&self, peers: &[(NodeId, SocketAddr)], seed: u64) {
        self.forwarder.set_peers(peers, seed);
        if self.forwarder.has_peers() && !self.forwarder.hb_started.swap(true, Ordering::AcqRel) {
            let forwarder = Arc::clone(&self.forwarder);
            let service = Arc::clone(&self.service);
            let replicas = Arc::clone(&self.replicas);
            let hard_stop = Arc::clone(&self.hard_stop);
            // Detached on purpose: joining it would make kill_node wait
            // out an in-flight probe. It exits on hard_stop.
            std::thread::spawn(move || heartbeat_loop(forwarder, service, replicas, hard_stop));
        }
    }

    /// Installs (or clears) the fault-injection policy for this node's
    /// outgoing replication-plane frames.
    pub fn set_chaos(&self, chaos: Option<Arc<ChaosPolicy>>) {
        self.forwarder.set_chaos(chaos);
    }

    /// This node's counters now — what a `Stats` request answers.
    pub fn stats(&self) -> StatsSummary {
        self.counters.snapshot()
    }

    /// A handle onto this node's counters that stays readable after
    /// [`Server::wait`] has consumed the server (the daemon's scrape
    /// exporter and exit report).
    pub fn counters(&self) -> NodeCounters {
        self.counters.clone()
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.service
    }

    /// The passive replica store behind the server (path logs shipped
    /// here by sessions homed on other nodes).
    pub fn replicas(&self) -> &Arc<ReplicaStore> {
        &self.replicas
    }

    /// Number of reactor threads serving this node's front end.
    pub fn reactors(&self) -> usize {
        self.reactors.len()
    }

    /// Per-reactor front-end counters, index-aligned with the reactor
    /// threads (`accepted` summed across entries is the node total).
    pub fn reactor_stats(&self) -> Vec<ReactorStatsView> {
        self.reactors
            .iter()
            .map(|r| ReactorStatsView {
                accepted: r.stats.accepted.load(Ordering::Relaxed),
                completions: r.stats.completions.load(Ordering::Relaxed),
                queue_peak: r.completions.peak_depth(),
                rx_copy_bytes: r.bufpool.stats().rx_copy_bytes,
                pool_recycled: r.bufpool.stats().pool_recycles,
                pool_outstanding: r.bufpool.outstanding(),
                pool_free: r.bufpool.free_blocks(),
            })
            .collect()
    }

    fn notify_all(&self) {
        for r in &self.reactors {
            let _ = r.poller.notify();
        }
    }

    /// Blocks until a client sends [`Request::Shutdown`] and the
    /// graceful drain completes on every reactor, then returns the
    /// worker counters.
    pub fn wait(mut self) -> Vec<WorkerStats> {
        for r in &mut self.reactors {
            if let Some(thread) = r.thread.take() {
                let _ = thread.join();
            }
        }
        match self.pool.take() {
            Some(pool) => pool.shutdown(),
            None => Vec::new(),
        }
    }

    /// Initiates prompt shutdown from the hosting process and waits for
    /// it (in-flight solves finish; unflushed responses may be lost).
    pub fn shutdown(self) -> Vec<WorkerStats> {
        self.hard_stop.store(true, Ordering::Release);
        self.notify_all();
        self.wait()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.hard_stop.store(true, Ordering::Release);
        self.notify_all();
        for r in &mut self.reactors {
            if let Some(thread) = r.thread.take() {
                let _ = thread.join();
            }
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

/// A finished solve travelling from a worker back to the reactor.
struct Completion {
    idx: usize,
    gen: u64,
    /// The request's correlation tag, echoed on the reply.
    tag: u64,
    response: Response,
}

/// One encoded response frame awaiting the socket: the 12-byte
/// length/tag header and the payload it frames, written as separate
/// [`IoSlice`]s so the encoded payload is handed to the kernel where
/// it lies instead of being restaged through a flat output buffer.
struct OutFrame {
    header: [u8; 12],
    payload: Vec<u8>,
}

impl OutFrame {
    fn new(tag: u64, payload: Vec<u8>) -> OutFrame {
        let mut header = [0u8; 12];
        let len = (payload.len() + 8) as u32 | TAGGED;
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&tag.to_le_bytes());
        OutFrame { header, payload }
    }

    fn total_len(&self) -> usize {
        self.header.len() + self.payload.len()
    }
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// In-place frame assembly over pooled read blocks.
    rx: FrameAssembler,
    /// Encoded frames awaiting the socket.
    out: VecDeque<OutFrame>,
    /// Bytes of the front frame already written.
    out_written: usize,
    /// Total unwritten bytes across the queue.
    out_bytes: usize,
    /// Solves submitted to the pool, not yet completed.
    inflight: usize,
    /// Peer half-closed its send side: stop reading, flush what
    /// remains (the peer may still be reading), then close.
    peer_closed: bool,
    /// Transport hard-failed: discard everything and close.
    broken: bool,
    /// Fatal framing error: close as soon as the output buffer drains.
    close_after_flush: bool,
    /// Read interest withheld because of backpressure.
    paused: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out_bytes
    }

    /// Queues one response frame, echoing the request's `tag`, for
    /// scatter-gather writeout.
    fn complete(&mut self, tag: u64, response: &Response) {
        let frame = OutFrame::new(tag, response.encode());
        self.out_bytes += frame.total_len();
        self.out.push_back(frame);
    }

    /// Consumes `n` freshly written bytes off the front of the queue.
    fn advance_out(&mut self, n: usize) {
        self.out_bytes -= n;
        self.out_written += n;
        while let Some(front) = self.out.front() {
            let total = front.total_len();
            if self.out_written < total {
                break;
            }
            self.out_written -= total;
            self.out.pop_front();
        }
    }
}

struct Reactor {
    listener: TcpListener,
    poller: Arc<Poller>,
    /// Every reactor's poller, for fanning a drain wakeup out to the
    /// siblings (a client `Shutdown` lands on exactly one reactor).
    all_pollers: Arc<Vec<Arc<Poller>>>,
    service: Arc<ShardedService>,
    replicas: Arc<ReplicaStore>,
    forwarder: Arc<Forwarder>,
    /// The node's counters, for the stats reply.
    counters: NodeCounters,
    pool: PoolClient,
    completions: Arc<CompletionQueue<Completion>>,
    hard_stop: Arc<AtomicBool>,
    /// Shared graceful-drain flag; any reactor's client `Shutdown`
    /// sets it for all of them.
    draining: Arc<AtomicBool>,
    /// This reactor's receive-block pool.
    bufpool: Arc<BufferPool>,
    stats: Arc<ReactorStats>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Generation per slot: completions for a recycled slot are
    /// discarded instead of answering the wrong connection.
    gens: Vec<u64>,
    total_inflight: usize,
    /// Set when draining starts: after this instant the reactor exits
    /// even if some peer never drains its output buffer.
    drain_deadline: Option<std::time::Instant>,
}

impl Reactor {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Infinite wait normally; during a drain, tick so the
            // deadline fires even if no peer produces another event.
            let timeout = self
                .is_draining()
                .then(|| std::time::Duration::from_millis(100));
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.hard_stop.load(Ordering::Acquire) {
                break;
            }
            // Only connections whose state changed need an epoll re-arm
            // (oneshot interests persist untouched otherwise), keeping
            // per-wakeup syscall cost proportional to the batch, not to
            // the total connection count.
            let mut touched: Vec<usize> = self.drain_completions();
            let mut accept_ready = false;
            for ev in events.drain(..) {
                if ev.key == KEY_LISTENER {
                    accept_ready = true;
                    self.accept_burst();
                } else {
                    self.service_conn(ev.key - 1, ev);
                    touched.push(ev.key - 1);
                }
            }
            // Backpressure release: a connection throttled mid-burst may
            // hold parsed-but-undispatched bytes in its receive block;
            // once completions freed capacity, resume from there (no
            // readable event will fire for bytes already in userspace).
            for idx in 0..self.conns.len() {
                let resume = self.conns[idx].as_ref().is_some_and(|c| {
                    c.rx.pending() > 0 && !c.close_after_flush && !Self::at_capacity(c)
                });
                if resume {
                    self.parse_and_dispatch(idx);
                    touched.push(idx);
                }
            }
            self.rearm(&touched);
            if accept_ready && !self.is_draining() {
                let _ = self
                    .poller
                    .modify(&self.listener, Event::readable(KEY_LISTENER));
            }
            if self.is_draining() {
                let deadline = *self
                    .drain_deadline
                    .get_or_insert_with(|| std::time::Instant::now() + DRAIN_GRACE);
                if self.total_inflight == 0
                    && (self.all_flushed() || std::time::Instant::now() >= deadline)
                {
                    break;
                }
            }
        }
    }

    /// Whether backpressure should stop reading/dispatching for now.
    fn at_capacity(conn: &Conn) -> bool {
        conn.inflight >= MAX_INFLIGHT || conn.pending_out() > HIGH_WATER
    }

    fn all_flushed(&self) -> bool {
        self.conns.iter().flatten().all(|c| c.pending_out() == 0)
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.is_draining() {
                        continue; // accept+drop: no new sessions
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let conn = Conn {
                        stream,
                        rx: FrameAssembler::new(Arc::clone(&self.bufpool)),
                        out: VecDeque::new(),
                        out_written: 0,
                        out_bytes: 0,
                        inflight: 0,
                        peer_closed: false,
                        broken: false,
                        close_after_flush: false,
                        paused: false,
                    };
                    let idx = match self.free.pop() {
                        Some(idx) => {
                            self.conns[idx] = Some(conn);
                            idx
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    let stream = &self.conns[idx].as_ref().unwrap().stream;
                    if self.poller.add(stream, Event::readable(idx + 1)).is_err() {
                        self.conns[idx] = None;
                        self.free.push(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn drain_completions(&mut self) -> Vec<usize> {
        let batch: Vec<Completion> = self.completions.drain();
        self.stats
            .completions
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut touched = Vec::with_capacity(batch.len());
        for c in batch {
            self.total_inflight -= 1;
            if self.gens.get(c.idx).copied() != Some(c.gen) {
                continue; // connection gone; the reply has no reader
            }
            touched.push(c.idx);
            let finished = match self.conns[c.idx].as_mut() {
                Some(conn) => {
                    conn.inflight -= 1;
                    conn.complete(c.tag, &c.response);
                    Self::flush_conn(conn);
                    Self::should_drop(conn)
                }
                None => false,
            };
            if finished {
                self.drop_conn(c.idx);
            }
        }
        touched
    }

    /// A connection is finished when nothing can ever flow again.
    fn should_drop(conn: &Conn) -> bool {
        conn.broken
            || ((conn.peer_closed || conn.close_after_flush)
                && conn.inflight == 0
                && conn.pending_out() == 0)
    }

    fn drop_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.delete(&conn.stream);
            self.gens[idx] += 1;
            self.free.push(idx);
        }
    }

    fn service_conn(&mut self, idx: usize, ev: Event) {
        let want_read = match self.conns.get_mut(idx).and_then(Option::as_mut) {
            Some(conn) => {
                if ev.writable {
                    Self::flush_conn(conn);
                }
                ev.readable && !conn.peer_closed && !conn.broken && !conn.close_after_flush
            }
            None => return,
        };
        if want_read {
            self.read_conn(idx);
        }
        let finished = self
            .conns
            .get(idx)
            .and_then(Option::as_ref)
            .map(Self::should_drop);
        if finished == Some(true) {
            self.drop_conn(idx);
        }
    }

    /// Writes the output queue until done or the socket fills: up to
    /// [`MAX_WRITE_FRAMES`] frames are corked into one `writev`
    /// ([`Write::write_vectored`]), header and payload as separate
    /// slices — the scatter-gather path that replaced `outbuf` staging.
    fn flush_conn(conn: &mut Conn) {
        while !conn.out.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(2 * conn.out.len().min(MAX_WRITE_FRAMES));
            let mut skip = conn.out_written;
            for frame in conn.out.iter().take(MAX_WRITE_FRAMES) {
                let header = &frame.header;
                if skip < header.len() {
                    slices.push(IoSlice::new(&header[skip..]));
                    if !frame.payload.is_empty() {
                        slices.push(IoSlice::new(&frame.payload));
                    }
                } else if skip - header.len() < frame.payload.len() {
                    slices.push(IoSlice::new(&frame.payload[skip - header.len()..]));
                }
                skip = 0; // only the front frame can be partially sent
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    conn.broken = true;
                    break;
                }
                Ok(n) => conn.advance_out(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
    }

    /// Reads until the socket would block — bytes land directly in the
    /// connection's pooled receive block — then parses and dispatches
    /// every complete frame in place.
    fn read_conn(&mut self, idx: usize) {
        loop {
            {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                let filled = {
                    let Conn { rx, stream, .. } = &mut *conn;
                    rx.fill(stream)
                };
                match filled {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
            self.parse_and_dispatch(idx);
            // Stop the burst once backpressure bites or framing died;
            // unread bytes stay in the kernel buffer (or in the block)
            // and resume when capacity frees.
            let stop = self
                .conns
                .get(idx)
                .and_then(Option::as_ref)
                .is_none_or(|c| c.close_after_flush || c.broken || Self::at_capacity(c));
            if stop {
                break;
            }
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            Self::flush_conn(conn);
        }
    }

    fn parse_and_dispatch(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            // A connection that hit a framing error answers nothing
            // more; one at capacity keeps its remaining bytes buffered
            // until completions free a slot.
            if conn.close_after_flush || Self::at_capacity(conn) {
                break;
            }
            // Decode while the frame still borrows the pool block — the
            // payload bytes never leave it on the fast path.
            let step = conn
                .rx
                .next(|frame| (frame.tag, Request::decode(frame.payload)));
            match step {
                Ok(Some((tag, Ok(request)))) => self.dispatch(idx, tag, request),
                Ok(Some((tag, Err(e)))) => conn.complete(tag, &Response::Error(e.to_string())),
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable (an oversized length, an
                    // untagged header): answer, then close once the
                    // error frame and anything before it flushes.
                    conn.complete(CONNECTION_TAG, &Response::Error(e.to_string()));
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
    }

    /// Executes one decoded request: cheap ones inline, solves via
    /// the pool with a reactor-bound completion callback.
    fn dispatch(&mut self, idx: usize, tag: u64, request: Request) {
        let num_shards = self.service.num_shards();
        let node = self.service.node_id();
        match request {
            Request::Root { session } => {
                let problem = self.service.session_root(session).to_wire();
                // The home node is its own replication fan-out point:
                // attributing the root here is what lets solve
                // completions forward their edges however many clients
                // drive the session.
                self.forwarder.register_root(problem, session);
                self.complete_inline(idx, tag, Response::Root { problem });
            }
            Request::Release { problem } => {
                let response = match ProblemId::from_wire_checked(problem, node, num_shards) {
                    Ok(id) => {
                        self.service.release(id);
                        self.forwarder.forget(problem);
                        Response::Released
                    }
                    Err(e) => Response::Error(e.to_string()),
                };
                self.complete_inline(idx, tag, response);
            }
            Request::Stats => {
                let response = self.stats_reply();
                self.complete_inline(idx, tag, response);
            }
            Request::TraceDump => {
                self.complete_inline(idx, tag, Response::Trace(trace::drain()));
            }
            Request::Shutdown => {
                // Ack with the final stats, then drain gracefully. The
                // flag is shared: wake every sibling reactor so each
                // starts its own drain tick.
                let response = self.stats_reply();
                self.complete_inline(idx, tag, response);
                self.draining.store(true, Ordering::Release);
                for poller in self.all_pollers.iter() {
                    let _ = poller.notify();
                }
            }
            Request::Replicate {
                session,
                problem,
                parent,
                clauses,
            } => {
                // Passive: record the edge, solve nothing. The home node
                // (and a client healing before a promotion) sends these
                // fire-and-forget; the ack is discarded on arrival but
                // keeps the sender's tag bookkeeping clean.
                self.replicas.record(session, problem, parent, clauses);
                self.complete_inline(idx, tag, Response::Released);
            }
            Request::Unreplicate { session, problems } => {
                // Replica GC: a client released these problems on their
                // home node, which tells us; drop the dead edges (child-aware —
                // see [`crate::ReplicaStore::forget`]). Fire-and-forget
                // like Replicate, acked the same way.
                self.replicas.forget(session, &problems);
                self.complete_inline(idx, tag, Response::Released);
            }
            Request::Promote { session, problems } => {
                // Failover/drain replay: rare and latency-insensitive
                // next to a node death, so it runs inline on the
                // reactor rather than complicating the pool path.
                let mapping =
                    self.forwarder
                        .promote(&self.service, &self.replicas, session, &problems);
                self.complete_inline(idx, tag, Response::Promoted { mapping });
            }
            Request::Ping => {
                self.complete_inline(idx, tag, Response::Pong { node: node as u64 });
            }
            Request::Solve { parent, clauses } => {
                let parent_wire = parent;
                let parent = match ProblemId::from_wire_checked(parent, node, num_shards) {
                    Ok(id) => id,
                    Err(e) => {
                        self.complete_inline(idx, tag, Response::Error(e.to_string()));
                        return;
                    }
                };
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                conn.inflight += 1;
                self.total_inflight += 1;
                let completions = Arc::clone(&self.completions);
                let poller = Arc::clone(&self.poller);
                let forwarder = Arc::clone(&self.forwarder);
                let lits = clauses_to_lits(&clauses);
                let gen = self.gens[idx];
                let req_t0 = trace::now_ns();
                self.pool.submit_with(parent, lits, move |reply| {
                    // Forward the freshly derived edge BEFORE the reply
                    // is released to the client: by the time a caller
                    // can act on the new id, its replica copy is at
                    // least in flight to the successor.
                    if let Some(r) = &reply {
                        forwarder.forward_edge(parent_wire, r.problem.to_wire(), clauses);
                    }
                    let child = reply.as_ref().map_or(0, |r| r.problem.to_wire());
                    trace::span(trace::Kind::ReqSolve, req_t0, parent_wire, child);
                    trace::Registry::global()
                        .request_ns
                        .record(trace::now_ns().saturating_sub(req_t0));
                    let depth = completions.push(Completion {
                        idx,
                        gen,
                        tag,
                        response: solve_response(reply),
                    });
                    // Wake coalescing: a deeper queue means an earlier
                    // push already notified and the reactor has not
                    // drained yet — its eventfd read will see both.
                    if depth == 1 {
                        let _ = poller.notify();
                    }
                });
            }
        }
    }

    /// The stats reply: this node's id, counters and histograms.
    fn stats_reply(&self) -> Response {
        Response::Metrics {
            node: self.service.node_id() as u64,
            metrics: Box::new(self.counters.metrics()),
        }
    }

    fn complete_inline(&mut self, idx: usize, tag: u64, response: Response) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.complete(tag, &response);
        }
    }

    /// Recomputes the (oneshot) interest of the connections touched
    /// this wakeup. Untouched connections keep whatever interest they
    /// had armed — their state cannot have changed.
    fn rearm(&mut self, touched: &[usize]) {
        let mut seen = std::collections::HashSet::with_capacity(touched.len());
        for &idx in touched {
            if !seen.insert(idx) {
                continue;
            }
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            conn.paused = if conn.paused {
                conn.pending_out() > LOW_WATER || conn.inflight >= MAX_INFLIGHT
            } else {
                conn.pending_out() > HIGH_WATER || conn.inflight >= MAX_INFLIGHT
            };
            let readable = !conn.paused
                && !conn.peer_closed
                && !conn.close_after_flush
                && !self.draining.load(Ordering::Acquire);
            let writable = conn.pending_out() > 0;
            let interest = Event {
                key: idx + 1,
                readable,
                writable,
            };
            if self.poller.modify(&conn.stream, interest).is_err() {
                self.drop_conn(idx);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The in-process cluster harness.
// ---------------------------------------------------------------------

/// N `lwsnapd`-equivalent [`Server`]s in one process — the cluster-mode
/// test/bench harness. Each node is a full stack (own
/// [`ShardedService`] stamped with its node id, own worker pool, own
/// epoll reactor, own loopback port); only the process is shared, so a
/// [`crate::ClusterBackend`] connected to it exercises exactly the
/// cross-node paths a real deployment would, minus the speed of light.
///
/// ```no_run
/// # use lwsnap_service::{Cluster, ServiceConfig, SolverBackend};
/// # fn main() -> std::io::Result<()> {
/// let cluster = Cluster::start_local(3, ServiceConfig::new(4), 2)?;
/// let backend = cluster.connect()?;
/// let root = backend.session_root(42)?; // lands on ring-chosen node
/// # Ok(()) }
/// ```
pub struct Cluster {
    /// `None` marks a killed node (its slot keeps later indices stable).
    servers: Vec<Option<Server>>,
}

impl Cluster {
    /// Stands up `nodes` single-node servers on ephemeral loopback
    /// ports, node ids `0..nodes`, each a fresh [`ShardedService`] from
    /// `config` (the `node_id` field is overwritten per node) with a
    /// `workers`-thread pool.
    pub fn start_local(nodes: usize, config: ServiceConfig, workers: usize) -> io::Result<Cluster> {
        Cluster::start_local_with(nodes, config, workers, default_reactors())
    }

    /// Like [`Cluster::start_local`] with an explicit per-node reactor
    /// count (benches pin 1 vs N to measure the front-end fan-out).
    pub fn start_local_with(
        nodes: usize,
        config: ServiceConfig,
        workers: usize,
        reactors: usize,
    ) -> io::Result<Cluster> {
        let servers = (0..nodes.max(1) as u16)
            .map(|node| {
                let config = config.clone().with_node_id(node);
                Server::start_with("127.0.0.1:0", config, workers, reactors).map(Some)
            })
            .collect::<io::Result<_>>()?;
        let cluster = Cluster { servers };
        cluster.wire_peers();
        Ok(cluster)
    }

    /// (Re)installs the cluster map on every live node — ring seed 0,
    /// matching [`crate::ClusterBackend::connect`] — which turns on
    /// server-side edge forwarding and the peer heartbeat threads.
    fn wire_peers(&self) {
        let addrs = self.addrs();
        for server in self.servers.iter().flatten() {
            server.set_peers(&addrs, 0);
        }
    }

    /// The live nodes' `(node id, address)` pairs — the cluster map a
    /// [`crate::ClusterBackend`] connects from.
    pub fn addrs(&self) -> Vec<(u16, SocketAddr)> {
        self.servers
            .iter()
            .enumerate()
            .filter_map(|(node, s)| Some((node as u16, s.as_ref()?.local_addr())))
            .collect()
    }

    /// Connects a [`crate::ClusterBackend`] to every live node, with a
    /// generous default read timeout so a test or bench waiting on a
    /// node that dies silently (no FIN — a partition, a hung reactor)
    /// fails in bounded time instead of hanging the build forever.
    pub fn connect(&self) -> io::Result<crate::ClusterBackend> {
        let backend = crate::ClusterBackend::connect(&self.addrs())?;
        backend.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(backend)
    }

    /// Starts a NEW node mid-run — the membership-growth hook — on the
    /// next free node id, with its own fresh service. Returns the `(node
    /// id, address)` pair to hand to
    /// [`crate::ClusterBackend::add_node`].
    pub fn add_node(
        &mut self,
        config: ServiceConfig,
        workers: usize,
    ) -> io::Result<(u16, SocketAddr)> {
        let node = self.servers.len() as u16;
        let server = Server::start("127.0.0.1:0", config.with_node_id(node), workers)?;
        let addr = server.local_addr();
        self.servers.push(Some(server));
        self.wire_peers();
        Ok((node, addr))
    }

    /// The service instance behind node `node` (for stats assertions).
    pub fn service(&self, node: u16) -> Option<&Arc<ShardedService>> {
        self.servers
            .get(node as usize)?
            .as_ref()
            .map(Server::service)
    }

    /// The [`Server`] behind node `node` (replica and heartbeat
    /// counters for tests and the chaos harness).
    pub fn server(&self, node: u16) -> Option<&Server> {
        self.servers.get(node as usize)?.as_ref()
    }

    /// Installs one fault-injection policy on every live node's
    /// outgoing replication plane.
    pub fn set_chaos(&self, chaos: Option<Arc<ChaosPolicy>>) {
        for server in self.servers.iter().flatten() {
            server.set_chaos(chaos.clone());
        }
    }

    /// Number of live (unkilled) nodes.
    pub fn live_nodes(&self) -> usize {
        self.servers.iter().flatten().count()
    }

    /// Hard-kills one node (prompt reactor exit, connections dropped) —
    /// the failure-injection hook: clients with requests in flight on
    /// that node observe a connection error, other nodes are untouched.
    pub fn kill_node(&mut self, node: u16) {
        if let Some(server) = self.servers.get_mut(node as usize).and_then(Option::take) {
            server.shutdown();
        }
    }

    /// Shuts every remaining node down (prompt, in-flight solves
    /// finish).
    pub fn shutdown(mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
    }
}

fn solve_response(reply: Option<SolveReply>) -> Response {
    match reply {
        Some(reply) => Response::Solved {
            problem: reply.problem.to_wire(),
            sat: reply.result == lwsnap_solver::SolveResult::Sat,
            rederived: reply.rederived,
            conflicts: reply.conflicts,
            model: reply.model,
        },
        None => Response::Error("dead or unknown problem reference".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Addresses nothing listens on: a forward finds no connection and
    /// only registers the child.
    fn cluster_map(ids: &[NodeId]) -> Vec<(NodeId, SocketAddr)> {
        ids.iter()
            .map(|&id| (id, SocketAddr::from(([127, 0, 0, 1], 1))))
            .collect()
    }

    fn replica_of(forwarder: &Forwarder, problem: u64) -> Option<NodeId> {
        forwarder.inner.lock().unwrap().sessions[&problem].replica
    }

    /// A session whose ring ranking over nodes {0, 1, 2} is `ranking`.
    fn session_ranked(ranking: [NodeId; 3]) -> u64 {
        let ring = Ring::new([0, 1, 2], 0);
        (0..4096u64)
            .find(|&s| ring.ranked(s) == ranking)
            .expect("every ranking of three nodes occurs")
    }

    /// Root wire ids of two shards of node 0, and a child of the first.
    const ROOT_A: u64 = 0;
    const ROOT_B: u64 = 1 << 32;
    const CHILD_A: u64 = 1;

    #[test]
    fn a_session_keeps_its_replica_across_a_join_and_a_second_root() {
        // Node 0 homes the session; node 2 outranks it once it joins.
        let session = session_ranked([2, 0, 1]);
        let home = Forwarder::new(0);
        home.set_peers(&cluster_map(&[0, 1]), 0);
        home.register_root(ROOT_A, session);
        assert_eq!(replica_of(&home, ROOT_A), Some(1));

        home.set_peers(&cluster_map(&[0, 1, 2]), 0);
        assert_eq!(replica_of(&home, ROOT_A), Some(1), "a join moves nobody");
        // A second client asking for the same root changes nothing, and
        // a problem derived after the join inherits the old choice.
        home.register_root(ROOT_A, session);
        home.forward_edge(ROOT_A, CHILD_A, vec![vec![1]]);
        assert_eq!(replica_of(&home, ROOT_A), Some(1));
        assert_eq!(replica_of(&home, CHILD_A), Some(1));
        // A session that STARTS after the join uses the grown ring.
        home.register_root(ROOT_B, session_ranked([0, 2, 1]));
        assert_eq!(replica_of(&home, ROOT_B), Some(2));
    }

    #[test]
    fn a_cluster_map_without_the_replica_rehomes_only_its_sessions() {
        let home = Forwarder::new(0);
        home.set_peers(&cluster_map(&[0, 1, 2]), 0);
        home.register_root(ROOT_A, session_ranked([0, 1, 2]));
        home.register_root(ROOT_B, session_ranked([0, 2, 1]));
        assert_eq!(replica_of(&home, ROOT_A), Some(1));
        assert_eq!(replica_of(&home, ROOT_B), Some(2));

        home.set_peers(&cluster_map(&[0, 2]), 0);
        assert_eq!(replica_of(&home, ROOT_A), Some(2), "its replica left");
        assert_eq!(replica_of(&home, ROOT_B), Some(2), "untouched");
        home.set_peers(&cluster_map(&[0]), 0);
        assert_eq!(replica_of(&home, ROOT_A), None, "nobody left to hold it");
    }

    #[test]
    fn a_dead_replica_is_replaced_when_the_peer_is_declared_dead() {
        let home = Forwarder::new(0);
        home.set_peers(&cluster_map(&[0, 1, 2]), 0);
        home.register_root(ROOT_A, session_ranked([0, 1, 2]));
        assert_eq!(replica_of(&home, ROOT_A), Some(1));

        let service = Arc::new(ShardedService::new(ServiceConfig::new(1)));
        let replicas = Arc::new(ReplicaStore::new());
        home.declare_dead(1, &service, &replicas);
        assert_eq!(replica_of(&home, ROOT_A), Some(2));
        assert_eq!(home.stats().dead_peers, 1);
    }

    #[test]
    fn a_late_survivor_leaves_a_session_another_survivor_promoted() {
        // Node 0 homed the session and node 1 replicated it. Node 1 has
        // already promoted it and now forwards edges it minted to node
        // 2; only then does node 2 declare node 0 dead.
        let session = session_ranked([0, 1, 2]);
        let late = Forwarder::new(2);
        late.set_peers(&cluster_map(&[0, 1, 2]), 0);
        let service = Arc::new(ShardedService::new(ServiceConfig::new(1).with_node_id(2)));
        let replicas = Arc::new(ReplicaStore::new());
        replicas.record(session, 1 << 48 | 1, 1 << 48, vec![vec![1]]);

        late.declare_dead(0, &service, &replicas);
        assert_eq!(
            replicas.stats().replica_promotions,
            0,
            "re-promoted a live session"
        );
        assert_eq!(
            service.stats().live_problems,
            1,
            "re-promoted a live session"
        );
        assert_eq!(late.stats().dead_peers, 1);
    }

    #[test]
    fn suspicion_trips_after_consecutive_misses_only() {
        let mut table = SuspicionTable::default();
        for _ in 1..SUSPICION_THRESHOLD {
            assert!(!table.miss(7));
        }
        assert!(table.miss(7), "the threshold-th consecutive miss condemns");
    }

    #[test]
    fn a_flapping_node_never_trips() {
        // Miss, ack, miss, ack ... — the ack-reset hysteresis means a
        // node that answers at least one probe per window is never
        // condemned, no matter how long the flapping goes on.
        let mut table = SuspicionTable::default();
        for _ in 0..100 {
            for _ in 1..SUSPICION_THRESHOLD {
                assert!(!table.miss(7));
            }
            table.ack(7);
        }
        assert_eq!(table.misses(7), 0);
    }

    #[test]
    fn suspicion_is_per_node() {
        let mut table = SuspicionTable::default();
        for _ in 1..SUSPICION_THRESHOLD {
            assert!(!table.miss(1));
        }
        assert!(!table.miss(2));
        assert!(table.miss(1), "node 1 is condemned on ITS own misses");
        assert_eq!(table.misses(2), 1);
        table.forget(1);
        assert_eq!(table.misses(1), 0);
    }
}
