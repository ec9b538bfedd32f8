//! Wire-protocol clients: the [`PipelinedClient`] that keeps many
//! tagged requests in flight on one connection (a blocking exchange is
//! its depth-1 [`PipelinedClient::call`]), and the [`ClusterBackend`]
//! that spreads sessions over N pipelined connections — one per
//! cluster node — through the consistent-hash [`crate::router::Ring`].
//!
//! Both speak the same `lwsnapd` protocol — tagged frames
//! ([`crate::protocol::TAGGED`]), so the server may complete requests
//! out of order — and both implement [`crate::SolverBackend`], so
//! drivers written against the trait can run remotely — on one node or
//! on a whole cluster — unchanged.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, TryLockError};
use std::time::Duration;

use lwsnap_solver::{Lit, SolveResult};
use lwsnap_trace::{self as trace, Event, MetricsSnapshot, StatsSummary};

use crate::backend::{foreign_ticket, SolverBackend, Ticket, TicketInner};
use crate::protocol::{
    lits_to_clauses, put_tagged_frame, read_any_frame, write_tagged_frame, ProtoError, Request,
    Response,
};
use crate::replica::PathLog;
use crate::router::{mix64, NodeId, Ring};
use crate::sharded::{ProblemId, SolveReply};
use crate::stats::FleetStats;

/// Typed payload of the error a client call returns when the server
/// closed the connection **cleanly between frames** (daemon shutdown,
/// idle reap). Distinct from `UnexpectedEof`, which means the stream
/// died *mid-frame* — a truncation, never a clean goodbye.
///
/// ```
/// # use lwsnap_service::Disconnected;
/// fn is_clean_shutdown(e: &std::io::Error) -> bool {
///     e.get_ref().is_some_and(|inner| inner.is::<Disconnected>())
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server closed the connection")
    }
}

impl std::error::Error for Disconnected {}

/// Why a connection stopped delivering; kept so that every later wait
/// fails the same way (`io::Error` is not `Clone`).
enum Dead {
    /// The server closed cleanly between frames.
    Closed,
    /// Anything else, rendered.
    Failed(io::ErrorKind, String),
}

impl Dead {
    fn error(&self) -> io::Error {
        match self {
            Dead::Closed => io::Error::new(io::ErrorKind::ConnectionAborted, Disconnected),
            Dead::Failed(kind, msg) => io::Error::new(*kind, msg.clone()),
        }
    }
}

fn unexpected(response: Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        ProtoError::BadTag(match response {
            Response::Root { .. } => 1,
            Response::Solved { .. } => 2,
            Response::Released => 3,
            Response::Error(_) => 5,
            Response::Promoted { .. } => 6,
            Response::Pong { .. } => 7,
            Response::Metrics { .. } => 8,
            Response::Trace(_) => 9,
        }),
    )
}

// ---------------------------------------------------------------------
// The pipelined client.
// ---------------------------------------------------------------------

/// Shared completion state between waiting threads.
struct PipeState {
    /// Responses that arrived for tags nobody has claimed yet.
    done: HashMap<u64, Response>,
    /// Tags whose responses should be dropped on arrival
    /// (fire-and-forget requests like release).
    forgotten: HashSet<u64>,
    /// A terminal transport error: once set, every wait fails with it.
    dead: Option<Dead>,
}

/// A pipelined client: many tagged requests in flight on one
/// connection, completions redeemed in any order.
///
/// `send`-many/`await`-many is the intended shape —
///
/// ```no_run
/// # use lwsnap_service::{PipelinedClient, SolverBackend};
/// # fn main() -> std::io::Result<()> {
/// let client = PipelinedClient::connect("127.0.0.1:7557")?;
/// let root = client.session_root(1)?;
/// let tickets: Vec<_> = (1..=8i64)
///     .map(|v| client.submit(root, vec![vec![lwsnap_solver::Lit::from_dimacs(v)]]))
///     .collect::<std::io::Result<_>>()?;
/// for t in tickets {
///     let reply = client.wait(t)?.expect("live root");
/// }
/// # Ok(()) }
/// ```
///
/// — eight solves cost one round trip plus the slowest solve, not
/// eight round trips. All methods take `&self`; the client may be
/// shared across threads (waits coordinate through a condvar, with one
/// thread at a time elected to read the socket).
pub struct PipelinedClient {
    stream: TcpStream,
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
    state: Mutex<PipeState>,
    arrived: Condvar,
    next_tag: AtomicU64,
}

impl PipelinedClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PipelinedClient {
            reader: Mutex::new(BufReader::new(stream.try_clone()?)),
            // The writer buffer IS the cork window: sized to the
            // server's backpressure high-water mark so a corked batch
            // ([`PipelinedClient::submit_batch`]) really does reach the
            // socket in HIGH_WATER-sized writes — a default 8 KiB
            // BufWriter would spill long before the window closed.
            writer: Mutex::new(BufWriter::with_capacity(
                crate::net::HIGH_WATER,
                stream.try_clone()?,
            )),
            stream,
            state: Mutex::new(PipeState {
                done: HashMap::new(),
                forgotten: HashSet::new(),
                dead: None,
            }),
            arrived: Condvar::new(),
            next_tag: AtomicU64::new(1),
        })
    }

    /// Bounds how long a blocked wait may sit on the socket before
    /// failing (`None` = wait forever). On expiry the wait fails with a
    /// `WouldBlock`/`TimedOut` error; the connection may then hold a
    /// half-read frame, so treat a timed-out client as dead and
    /// reconnect — the timeout is for *detecting* a hung server, not
    /// for retrying on a live connection.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Writes one tagged request and returns its correlation tag.
    pub fn submit_request(&self, request: &Request) -> io::Result<u64> {
        // Encode before taking the writer lock: threads sharing this
        // client serialize only on the socket write, not on each
        // other's request serialization.
        let payload = request.encode();
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let mut writer = self.writer.lock().unwrap();
        write_tagged_frame(&mut *writer, tag, &payload)?;
        Ok(tag)
    }

    /// Writes a whole window of tagged requests **corked**: frames
    /// accumulate in the buffered writer and the socket is flushed once
    /// per window (or whenever the buffered bytes cross the server's
    /// backpressure high-water mark, 1 MiB —
    /// matching the bound the reactor applies on its side) instead of
    /// once per submit. Returns the correlation tags in request order.
    ///
    /// This is what makes [`SolverBackend::solve_batch`] on a pipelined
    /// connection cost one syscall per window: submitting k requests
    /// uncorked is k `write(2)`s; corked it is ⌈bytes / high-water⌉.
    pub fn submit_batch(&self, requests: &[Request]) -> io::Result<Vec<u64>> {
        // Encode the whole window before taking the writer lock, so a
        // concurrent submitter waits on socket writes only.
        let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let mut writer = self.writer.lock().unwrap();
        let mut tags = Vec::with_capacity(requests.len());
        let mut since_flush = 0usize;
        for payload in &payloads {
            let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
            put_tagged_frame(&mut *writer, tag, payload)?;
            tags.push(tag);
            since_flush += payload.len() + 12;
            if since_flush >= crate::net::HIGH_WATER {
                writer.flush()?;
                since_flush = 0;
            }
        }
        writer.flush()?;
        Ok(tags)
    }

    /// Submits a request whose response should be discarded on arrival
    /// (fire-and-forget). Crate-visible: the server's forwarding plane
    /// ([`crate::net`]) ships its `Replicate` frames through it too.
    pub(crate) fn submit_forgotten(&self, request: &Request) -> io::Result<()> {
        let tag = self.submit_request(request)?;
        let mut st = self.state.lock().unwrap();
        // The response may have raced in already.
        if st.done.remove(&tag).is_none() {
            st.forgotten.insert(tag);
        }
        Ok(())
    }

    /// Blocks until the response for `tag` arrives, reading the socket
    /// if no other thread currently is.
    pub fn wait_response(&self, tag: u64) -> io::Result<Response> {
        loop {
            {
                let mut st = self.state.lock().unwrap();
                if let Some(resp) = st.done.remove(&tag) {
                    return Ok(resp);
                }
                if let Some(dead) = &st.dead {
                    return Err(dead.error());
                }
            }
            match self.reader.try_lock() {
                Ok(mut reader) => {
                    let read = read_any_frame(&mut *reader);
                    let mut st = self.state.lock().unwrap();
                    match read {
                        Ok(Some(frame)) => {
                            if st.forgotten.remove(&frame.tag) {
                                continue;
                            }
                            match Response::decode(&frame.payload) {
                                Ok(resp) => {
                                    st.done.insert(frame.tag, resp);
                                }
                                Err(e) => {
                                    st.dead = Some(Dead::Failed(
                                        io::ErrorKind::InvalidData,
                                        e.to_string(),
                                    ));
                                }
                            }
                            self.arrived.notify_all();
                        }
                        Ok(None) => {
                            st.dead = Some(Dead::Closed);
                            self.arrived.notify_all();
                        }
                        Err(e) => {
                            st.dead = Some(Dead::Failed(e.kind(), e.to_string()));
                            self.arrived.notify_all();
                        }
                    }
                }
                Err(TryLockError::WouldBlock) => {
                    // Someone else is reading; wait for them to deliver.
                    // The timeout re-checks for a reader that bailed out
                    // between our try_lock and their notify.
                    let st = self.state.lock().unwrap();
                    if st.done.contains_key(&tag) || st.dead.is_some() {
                        continue;
                    }
                    let _ = self
                        .arrived
                        .wait_timeout(st, Duration::from_millis(50))
                        .unwrap();
                }
                Err(TryLockError::Poisoned(e)) => panic!("reader lock poisoned: {e}"),
            }
        }
    }

    /// Submit + wait for one request (no overlap).
    ///
    /// Error taxonomy: a clean server close between frames is
    /// `ConnectionAborted` carrying [`Disconnected`]; a stream that
    /// dies mid-frame is `UnexpectedEof` (truncation); a configured
    /// read timeout surfaces as `WouldBlock`/`TimedOut`.
    pub fn call(&self, request: &Request) -> io::Result<Response> {
        let tag = self.submit_request(request)?;
        self.wait_response(tag)
    }

    /// Sends `request` (`Stats` or `Shutdown`) and returns the stats
    /// reply: the answering node's id and its metrics.
    fn stats_reply(&self, request: &Request) -> io::Result<(NodeId, MetricsSnapshot)> {
        match self.call(request)? {
            Response::Metrics { node, metrics } => NodeId::try_from(node)
                .map(|node| (node, *metrics))
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "node id out of range")),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to shut down; returns its final counters.
    pub fn shutdown_server(&self) -> io::Result<StatsSummary> {
        Ok(self.stats_reply(&Request::Shutdown)?.1.counters)
    }

    /// Fetches the node's counters and latency histograms — the
    /// mergeable scrape-plane view.
    pub fn metrics(&self) -> io::Result<MetricsSnapshot> {
        Ok(self.stats_reply(&Request::Stats)?.1)
    }

    /// Drains the node's trace rings and returns the merged,
    /// time-ordered event stream. Consuming: each event is exported to
    /// exactly one caller.
    pub fn trace_dump(&self) -> io::Result<Vec<Event>> {
        match self.call(&Request::TraceDump)? {
            Response::Trace(events) => Ok(events),
            other => Err(unexpected(other)),
        }
    }
}

impl SolverBackend for PipelinedClient {
    fn session_root(&self, session: u64) -> io::Result<ProblemId> {
        match self.call(&Request::Root { session })? {
            Response::Root { problem } => Ok(ProblemId::from_wire(problem)),
            other => Err(unexpected(other)),
        }
    }

    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket> {
        let tag = self.submit_request(&Request::Solve {
            parent: parent.to_wire(),
            clauses: lits_to_clauses(&clauses),
        })?;
        Ok(Ticket(TicketInner::Tagged(tag)))
    }

    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>> {
        let TicketInner::Tagged(tag) = ticket.0 else {
            return Err(foreign_ticket());
        };
        solved_reply(self.wait_response(tag)?)
    }

    fn release(&self, id: ProblemId) -> io::Result<()> {
        self.submit_forgotten(&Request::Release {
            problem: id.to_wire(),
        })
    }

    fn stats(&self) -> io::Result<StatsSummary> {
        Ok(self.metrics()?.counters)
    }

    /// One `Stats` request: the reply names the node that answered, so
    /// a `--node-id 2` daemon's counters are labelled 2.
    fn node_stats(&self) -> io::Result<FleetStats> {
        let (node, metrics) = self.stats_reply(&Request::Stats)?;
        Ok(FleetStats {
            nodes: vec![(node, metrics.counters)],
        })
    }

    /// One corked window: all frames written under one writer lock,
    /// the socket flushed once (see [`PipelinedClient::submit_batch`]),
    /// replies redeemed in request order.
    fn solve_batch(
        &self,
        requests: Vec<(ProblemId, Vec<Vec<Lit>>)>,
    ) -> io::Result<Vec<Option<SolveReply>>> {
        let window: Vec<Request> = requests
            .into_iter()
            .map(|(parent, clauses)| Request::Solve {
                parent: parent.to_wire(),
                clauses: lits_to_clauses(&clauses),
            })
            .collect();
        self.submit_batch(&window)?
            .into_iter()
            .map(|tag| solved_reply(self.wait_response(tag)?))
            .collect()
    }
}

/// Maps a solve response to the trait's reply contract: `Solved`
/// decodes, a server-side `Error` (dead/unknown reference) is the
/// `Ok(None)` answer in-process backends give, anything else is a
/// protocol violation.
fn solved_reply(response: Response) -> io::Result<Option<SolveReply>> {
    match response {
        Response::Solved {
            problem,
            sat,
            rederived,
            conflicts,
            model,
        } => Ok(Some(SolveReply {
            problem: ProblemId::from_wire(problem),
            result: if sat {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            },
            model,
            conflicts,
            rederived,
        })),
        Response::Error(_) => Ok(None),
        other => Err(unexpected(other)),
    }
}

// ---------------------------------------------------------------------
// The cluster backend.
// ---------------------------------------------------------------------

/// Typed payload identifying *which cluster node* an error came from.
/// Every transport failure a [`ClusterBackend`] surfaces wraps the
/// underlying error in one of these, so a caller can tell "node 2
/// died" from "the cluster is misconfigured" without string matching:
///
/// ```
/// # use lwsnap_service::NodeError;
/// fn failed_node(e: &std::io::Error) -> Option<u16> {
///     e.get_ref()?.downcast_ref::<NodeError>().map(|n| n.node)
/// }
/// ```
#[derive(Debug)]
pub struct NodeError {
    /// The node the failed operation was routed to.
    pub node: NodeId,
    /// The underlying failure, rendered (io::Error is not Clone).
    pub message: String,
    /// How many attempts (initial try + failover retries, each against
    /// a different surviving home) the operation burned before giving
    /// up. `1` means the very first try failed unrecoverably.
    pub attempts: u32,
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster node {}: {}", self.node, self.message)?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl std::error::Error for NodeError {}

/// Wraps a node-local failure, preserving its `ErrorKind`.
fn node_error(node: NodeId, e: io::Error) -> io::Error {
    node_error_after(node, e, 1)
}

/// [`node_error`] carrying the retry-loop attempt count.
fn node_error_after(node: NodeId, e: io::Error, attempts: u32) -> io::Error {
    io::Error::new(
        e.kind(),
        NodeError {
            node,
            message: e.to_string(),
            attempts,
        },
    )
}

/// "The id names a node this cluster does not have."
fn unknown_node(node: NodeId) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        NodeError {
            node,
            message: "not a member of this cluster".into(),
            attempts: 1,
        },
    )
}

/// One member node: its id and the pipelined connection to it.
struct ClusterNode {
    id: NodeId,
    client: PipelinedClient,
}

/// Bounded exponential backoff between failover retries: 1 ms doubling
/// to a 32 ms cap, plus up to +50% seeded jitter ([`mix64`] of the
/// attempt and the node it just buried) so a herd of clients that
/// watched the same node die does not stampede the successor in
/// lockstep.
fn failover_backoff(attempt: usize, buried: NodeId) {
    let base_ms = 1u64 << (attempt.saturating_sub(1)).min(5);
    let jitter_us = mix64(0xb0ff ^ ((buried as u64) << 32) ^ attempt as u64) % (base_ms * 500 + 1);
    std::thread::sleep(Duration::from_millis(base_ms) + Duration::from_micros(jitter_us));
}

/// Whether an error means the node itself is gone (dead, partitioned,
/// or hung past its read timeout) — the failover trigger — as opposed
/// to a protocol-level complaint from a live node.
fn is_node_death(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Where one tracked session lives.
struct SessionState {
    /// The node serving the session right now.
    home: NodeId,
    /// The node the session's home forwards its edges to (`None`:
    /// nowhere to replicate — a 1-node cluster, or every candidate
    /// died). Picked with [`Ring::replica_for`], like the home node
    /// does: fixed when the session starts, re-picked only when that
    /// node leaves.
    replica: Option<NodeId>,
    /// The session root's wire id, in current coordinates.
    root: u64,
    /// The session's path log, in current coordinates: the copy of
    /// last resort, re-shipped to the replica before a promotion and
    /// after membership changes.
    log: PathLog,
}

/// The mutable routing state behind a [`ClusterBackend`].
struct ClusterState {
    ring: Ring,
    /// Tracked sessions by session id.
    sessions: HashMap<u64, SessionState>,
    /// Non-root problem wire id → owning session.
    owner: HashMap<u64, u64>,
    /// Root wire id → the session registered for it (sessions sharing
    /// a `(node, shard)` placement share a root; the last registrant
    /// owns attribution — their trees are interchangeable for replay).
    roots: HashMap<u64, u64>,
    /// Old wire id → promoted wire id, accumulated across failovers;
    /// chase with [`resolve`] (chains form when a promoted node dies).
    remap: HashMap<u64, u64>,
    /// Read timeout applied to every connection (including ones added
    /// later by [`ClusterBackend::add_node`]).
    timeout: Option<Duration>,
}

/// Chases `id` through the failover remap (bounded — chains are as
/// long as the failover count, cycles impossible by construction but
/// cheap to guard).
fn resolve(remap: &HashMap<u64, u64>, mut id: u64) -> u64 {
    for _ in 0..64 {
        match remap.get(&id) {
            Some(&next) if next != id => id = next,
            _ => break,
        }
    }
    id
}

/// The multi-node [`SolverBackend`]: N [`PipelinedClient`]s — one per
/// `lwsnapd` node — behind the consistent-hash [`Ring`].
///
/// * **Routing** — session roots go to the ring-chosen node
///   ([`Ring::node_for`]); every subsequent request self-routes by the
///   node id stamped inside its [`ProblemId`], so a session's whole
///   problem tree stays on one node (snapshots never cross the wire).
/// * **Tag spaces** — correlation tags are per-connection, so the N
///   nodes' tag spaces are disjoint by construction; a ticket carries
///   `(node, tag)` and completions merge through the same
///   ticket/wait machinery as a single connection.
/// * **Replication** — the session's home node is the only
///   steady-state replicator: it forwards every derivation edge to the
///   session's replica (the first ring-ranked node that is not the
///   home), which records it passively ([`crate::ReplicaStore`]), so a
///   session stays fully replicated even when several clients drive it
///   and each sees only a slice of the solve stream. The backend sends
///   no per-solve replication frame; it keeps its own copy of each
///   tracked session's path log and names the same replica.
/// * **Failover** — when a node dies mid-session, the backend re-ships
///   its copy of each affected session's log to the replica (healing
///   whatever a lossy network ate), promotes the session there (the
///   replica replays the path log — bit-identical verdicts and models,
///   because the solver is deterministic in the clause path), installs
///   an id remap, picks a fresh replica, re-ships the log, and
///   **transparently retries**
///   the interrupted solve, backing off exponentially (with seeded
///   jitter) between attempts. A replica found dead at promotion time
///   is buried in turn and the session promoted on the next survivor.
///   Only sessions with no survivor left (1-node clusters, every other
///   node dead) still surface the typed [`NodeError`], which carries
///   the attempt count.
/// * **Failure detection** — the backend runs no detector of its own
///   and opens no connection beyond one per member. It learns of a
///   death when a request to the node fails or outlives the read
///   timeout ([`ClusterBackend::set_read_timeout`]) — the only signal
///   that can unblock a request already waiting on that node. The
///   servers' peer heartbeat is the cluster's one failure detector: it
///   self-promotes a dead node's sessions on their replicas, often
///   before any client asks ([`crate::Server::set_peers`]).
/// * **Membership** — [`ClusterBackend::add_node`] joins a node
///   mid-run; [`ClusterBackend::remove_node`] drains one gracefully
///   (sessions promoted onto their replicas — which the rendezvous
///   successor property guarantees are the ring's own post-removal
///   owners — before the daemon is shut down).
/// * **Stats** — [`SolverBackend::stats`] sums the nodes;
///   [`SolverBackend::node_stats`] keeps the per-node split, including
///   the `failovers` / `replica_promotions` / `replica_bytes` counters.
pub struct ClusterBackend {
    /// Member nodes, sorted by id (binary-searchable). `Arc` so a
    /// connection can be used after the lock is dropped — waits must
    /// not serialize behind membership changes.
    nodes: RwLock<Vec<Arc<ClusterNode>>>,
    state: Mutex<ClusterState>,
    /// Failover retries burned by request paths.
    retries: AtomicU64,
}

impl ClusterBackend {
    /// Connects to every node of the cluster map `addrs` (`(node id,
    /// address)` pairs; duplicate ids are an error), ring seed 0.
    pub fn connect<A: ToSocketAddrs>(addrs: &[(NodeId, A)]) -> io::Result<ClusterBackend> {
        ClusterBackend::connect_seeded(addrs, 0)
    }

    /// [`ClusterBackend::connect`] with an explicit ring seed — every
    /// client of one cluster must use the same seed, or their session
    /// placements disagree.
    pub fn connect_seeded<A: ToSocketAddrs>(
        addrs: &[(NodeId, A)],
        seed: u64,
    ) -> io::Result<ClusterBackend> {
        let mut nodes = Vec::with_capacity(addrs.len());
        for (id, addr) in addrs {
            let client = PipelinedClient::connect(addr).map_err(|e| node_error(*id, e))?;
            nodes.push(Arc::new(ClusterNode { id: *id, client }));
        }
        nodes.sort_by_key(|n| n.id);
        if nodes.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "duplicate node id in cluster map",
            ));
        }
        let ring = Ring::new(nodes.iter().map(|n| n.id), seed);
        Ok(ClusterBackend {
            nodes: RwLock::new(nodes),
            state: Mutex::new(ClusterState {
                ring,
                sessions: HashMap::new(),
                owner: HashMap::new(),
                roots: HashMap::new(),
                remap: HashMap::new(),
                timeout: None,
            }),
            retries: AtomicU64::new(0),
        })
    }

    /// Number of member nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.read().unwrap().len()
    }

    /// The member node ids, sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.read().unwrap().iter().map(|n| n.id).collect()
    }

    /// A snapshot of the routing ring (e.g. to predict placements in
    /// tests). A *copy* — the live ring shrinks and grows with
    /// failovers and membership changes.
    pub fn ring(&self) -> Ring {
        self.state.lock().unwrap().ring.clone()
    }

    /// Bounds how long any wait on any node connection may block
    /// (`None` = forever), now and for nodes added later. A node that
    /// exceeds it is treated as DEAD — its sessions fail over — so set
    /// it comfortably above the slowest expected solve.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.state.lock().unwrap().timeout = timeout;
        for n in self.nodes.read().unwrap().iter() {
            n.client.set_read_timeout(timeout)?;
        }
        Ok(())
    }

    /// Failover retries burned by request paths so far (each one is a
    /// solve or root call re-issued against a surviving node).
    pub fn failover_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Joins a NEW node to the cluster map and the ring mid-run.
    /// Existing sessions stay where they are — home AND replica
    /// (rendezvous addition only *steals* keys, and tracked sessions
    /// route by their recorded placement); new sessions and future
    /// replica picks may land on it.
    pub fn add_node<A: ToSocketAddrs>(&self, id: NodeId, addr: A) -> io::Result<()> {
        let client = PipelinedClient::connect(addr).map_err(|e| node_error(id, e))?;
        let mut st = self.state.lock().unwrap();
        client
            .set_read_timeout(st.timeout)
            .map_err(|e| node_error(id, e))?;
        let mut nodes = self.nodes.write().unwrap();
        match nodes.binary_search_by_key(&id, |n| n.id) {
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "duplicate node id in cluster map",
            )),
            Err(at) => {
                nodes.insert(at, Arc::new(ClusterNode { id, client }));
                st.ring.add_node(id);
                Ok(())
            }
        }
    }

    /// Planned membership change: drains `node` out of the cluster.
    /// Its sessions are promoted onto their replicas first (path-log
    /// replay — and the rendezvous successor property means the replica
    /// IS the shrunk ring's owner for each key), then the daemon is
    /// sent a graceful `Shutdown` and its final stats are returned.
    /// Callers should quiesce their own in-flight solves on the node
    /// first; later requests against old ids are remapped transparently.
    pub fn remove_node(&self, node: NodeId) -> io::Result<StatsSummary> {
        let member = self.node(node)?;
        {
            let mut st = self.state.lock().unwrap();
            if st.ring.remove_node(node) {
                self.migrate_locked(&mut st, node);
            }
        }
        let stats = member
            .client
            .shutdown_server()
            .map_err(|e| node_error(node, e))?;
        let mut nodes = self.nodes.write().unwrap();
        if let Ok(at) = nodes.binary_search_by_key(&node, |n| n.id) {
            nodes.remove(at);
        }
        Ok(stats)
    }

    /// Gracefully drains the whole cluster: each node is sent a
    /// `Shutdown` (the daemon finishes in-flight solves and flushes
    /// every reply before exiting) and its final stats snapshot is
    /// collected. Per-node results, so one dead node never masks the
    /// survivors' clean drain. Nodes already failed over are not
    /// listed — they are no longer members.
    pub fn shutdown(&self) -> Vec<(NodeId, io::Result<StatsSummary>)> {
        let nodes: Vec<Arc<ClusterNode>> = self.nodes.read().unwrap().to_vec();
        nodes
            .iter()
            .map(|n| {
                let result = n.client.shutdown_server().map_err(|e| node_error(n.id, e));
                (n.id, result)
            })
            .collect()
    }

    /// One merged metrics snapshot for the whole fleet: every member's
    /// stats reply absorbed (counters field-wise, histograms by name).
    /// The counters are exact anywhere. Caveat for the histograms: in
    /// an *in-process* test cluster every node shares one
    /// process-global histogram registry, so each node reports the same
    /// latencies and the merge counts them N×; across real daemon
    /// processes each node records its own.
    pub fn fleet_metrics(&self) -> io::Result<MetricsSnapshot> {
        let members: Vec<Arc<ClusterNode>> = self.nodes.read().unwrap().to_vec();
        let mut fleet = MetricsSnapshot::default();
        for n in &members {
            fleet.absorb(&n.client.metrics().map_err(|e| node_error(n.id, e))?);
        }
        Ok(fleet)
    }

    /// Drains every member's trace ring and merges the events into one
    /// globally ordered stream (by timestamp, ties broken by recording
    /// thread) — the single timeline a failover reconstruction reads.
    /// Draining consumes: a second dump returns only newer events. The
    /// in-process-cluster caveat of [`ClusterBackend::fleet_metrics`]
    /// applies here too — shared rings mean the first node drains all.
    pub fn fleet_trace(&self) -> io::Result<Vec<Event>> {
        let members: Vec<Arc<ClusterNode>> = self.nodes.read().unwrap().to_vec();
        let mut events: Vec<Event> = Vec::new();
        for n in &members {
            events.extend(n.client.trace_dump().map_err(|e| node_error(n.id, e))?);
        }
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        Ok(events)
    }

    /// The connection that owns `node`, or the typed unknown-node error.
    fn node(&self, node: NodeId) -> io::Result<Arc<ClusterNode>> {
        self.node_opt(node).ok_or_else(|| unknown_node(node))
    }

    fn node_opt(&self, node: NodeId) -> Option<Arc<ClusterNode>> {
        let nodes = self.nodes.read().unwrap();
        nodes
            .binary_search_by_key(&node, |n| n.id)
            .ok()
            .map(|at| Arc::clone(&nodes[at]))
    }

    /// Unplanned membership change: `dead` stopped answering. Removes
    /// it from the map and the ring, then migrates its sessions onto
    /// their replicas. Idempotent — concurrent failures of the same
    /// node collapse into one migration; `true` only for the call that
    /// actually buried it.
    fn failover(&self, dead: NodeId) -> bool {
        let mut st = self.state.lock().unwrap();
        self.bury_locked(&mut st, dead)
    }

    /// [`ClusterBackend::failover`] under an already-held state lock.
    fn bury_locked(&self, st: &mut ClusterState, dead: NodeId) -> bool {
        if !st.ring.remove_node(dead) {
            return false; // already handled (or never a member)
        }
        let homed = st.sessions.values().filter(|s| s.home == dead).count();
        trace::instant(trace::Kind::Failover, dead as u64, homed as u64);
        {
            let mut nodes = self.nodes.write().unwrap();
            if let Ok(at) = nodes.binary_search_by_key(&dead, |n| n.id) {
                nodes.remove(at);
            }
        }
        self.migrate_locked(st, dead);
        true
    }

    /// Moves every session touching `leaving` (as home: promote on the
    /// replica; as replica: pick a new one) — `leaving` is already out
    /// of `st.ring`. Sessions that cannot be saved (no surviving node
    /// to promote on) keep their dead home and surface typed
    /// [`NodeError`]s on use.
    fn migrate_locked(&self, st: &mut ClusterState, leaving: NodeId) {
        let session_ids: Vec<u64> = st.sessions.keys().copied().collect();
        for session in session_ids {
            let (home, replica) = {
                let s = &st.sessions[&session];
                (s.home, s.replica)
            };
            if home == leaving {
                self.promote_session(st, session);
            } else if replica == Some(leaving) {
                // Home is fine; the replica died. Re-pick and re-ship.
                let new_replica = st.ring.replica_for(session, home);
                let sess = st.sessions.get_mut(&session).unwrap();
                sess.replica = new_replica;
                self.ship_log(st, session);
            }
        }
    }

    /// Fails one session over onto its replica: promote by path replay,
    /// install the id remap, rewrite the log into new coordinates,
    /// re-pick a replica and re-ship the log to it.
    fn promote_session(&self, st: &mut ClusterState, session: u64) {
        let (problems, old_root) = {
            let s = &st.sessions[&session];
            (s.log.problems(), s.root)
        };
        let (new_home, mapping) = loop {
            let replica = st.sessions[&session].replica;
            let Some(member) = replica.and_then(|r| self.node_opt(r)) else {
                // Unrecoverable: no survivor left to promote on.
                st.sessions.get_mut(&session).unwrap().replica = None;
                return;
            };
            // Heal before promoting: re-ship this client's whole log to
            // the replica first (fire-and-forget, on the SAME connection
            // as the `Promote` call — the frames land in order). A lossy
            // network may have eaten an edge the home forwarded; the
            // local log is the copy of last resort, and the store
            // dedupes re-sends by problem id.
            self.ship_log(st, session);
            // Always ask — even with an empty local log. The server may
            // hold edges this client never saw (another client drove
            // the session); `Promote` returns the FULL session mapping,
            // so those edges' promoted ids land in our remap too.
            let request = Request::Promote {
                session,
                problems: problems.clone(),
            };
            match member.client.call(&request) {
                Ok(Response::Promoted { mapping }) => break (member.id, mapping),
                // The replica is dead too. This client sends it nothing
                // in steady state, so this is where it finds out. Bury
                // it: that re-picks this session's replica among the
                // survivors, and the next round heals and promotes
                // there.
                Err(e) if is_node_death(&e) && self.bury_locked(st, member.id) => {}
                _ => {
                    // The replica answered garbage: unrecoverable.
                    st.sessions.get_mut(&session).unwrap().replica = None;
                    return;
                }
            }
        };
        for &(old, new) in &mapping {
            st.remap.insert(old, new);
            if let Some(owning) = st.owner.remove(&old) {
                st.owner.insert(new, owning);
            }
        }
        // The session root re-roots at the same shard on the new home
        // (roots are local index 0 — every node's fresh root solver is
        // identical, which is what makes replay exact). Only the
        // attribution owner of a shared root installs its remap.
        let new_root = (new_home as u64) << 48 | (old_root & 0x0000_ffff_ffff_ffff);
        if st.roots.get(&old_root) == Some(&session) {
            st.remap.insert(old_root, new_root);
        }
        st.roots.insert(new_root, session);
        {
            let sess = st.sessions.get_mut(&session).unwrap();
            sess.home = new_home;
            sess.root = new_root;
            sess.log.rename(|p| resolve(&st.remap, p));
            sess.replica = st.ring.replica_for(session, new_home);
        }
        self.ship_log(st, session);
    }

    /// Re-ships a session's whole path log to its current replica
    /// (fire-and-forget; a send failure means the replica is dying —
    /// the next promotion that needs it buries it and re-picks).
    fn ship_log(&self, st: &ClusterState, session: u64) {
        let sess = &st.sessions[&session];
        let Some(member) = sess.replica.and_then(|r| self.node_opt(r)) else {
            return;
        };
        for (problem, parent, clauses) in sess.log.edges() {
            let _ = member.client.submit_forgotten(&Request::Replicate {
                session,
                problem,
                parent,
                clauses: clauses.to_vec(),
            });
        }
    }

    /// Records a successful solve of a tracked session into the path
    /// log. Nothing is sent: the home node forwarded the edge to the
    /// replica before it released the reply.
    fn record(&self, session: u64, problem: u64, parent: u64, clauses: &[Vec<i64>]) {
        let mut st = self.state.lock().unwrap();
        let Some(sess) = st.sessions.get_mut(&session) else {
            return;
        };
        // A reply that raced a failover carries stale (dead-node)
        // coordinates; logging it would poison the replayable log.
        if ProblemId::from_wire(problem).node() != sess.home {
            return;
        }
        sess.log.record(problem, parent, clauses.to_vec());
        st.owner.insert(problem, session);
    }

    /// Resolves a parent id through the failover remap and attributes
    /// it to its session (`None`: an untracked id — no replica, no
    /// failover retry).
    fn locate(&self, parent: u64) -> (u64, Option<u64>) {
        let st = self.state.lock().unwrap();
        let resolved = resolve(&st.remap, parent);
        let session = st.owner.get(&resolved).copied().or_else(|| {
            // Roots have local index 0; attribution goes through the
            // shared-root registry.
            (resolved as u32 == 0)
                .then(|| st.roots.get(&resolved).copied())
                .flatten()
        });
        (resolved, session)
    }

    /// Submits `parent ∧ clauses` to the parent's current home,
    /// failing over (and re-resolving) if that home is dead; retries
    /// are bounded and separated by [`failover_backoff`].
    fn cluster_submit(&self, parent: u64, clauses: Vec<Vec<i64>>) -> io::Result<Ticket> {
        let budget = self.num_nodes() + 2;
        let mut attempt = 0usize;
        loop {
            let (resolved, session) = self.locate(parent);
            let home = ProblemId::from_wire(resolved).node();
            let member = self.node(home)?;
            let request = Request::Solve {
                parent: resolved,
                clauses: clauses.clone(),
            };
            match member.client.submit_request(&request) {
                Ok(tag) => {
                    return Ok(Ticket(TicketInner::Cluster {
                        node: home,
                        tag,
                        session,
                        parent: resolved,
                        clauses,
                    }))
                }
                Err(e) if is_node_death(&e) && session.is_some() && attempt < budget => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.failover(home);
                    failover_backoff(attempt, home);
                }
                Err(e) => return Err(node_error_after(home, e, attempt as u32 + 1)),
            }
        }
    }
}

impl SolverBackend for ClusterBackend {
    /// The ring places the session on a node; that node's Fibonacci
    /// shard hash places it inside the node. The returned id must carry
    /// the node id the ring chose — a mismatch means the server was
    /// started with the wrong `--node-id` and is caught here, not after
    /// a session's tree has landed on the wrong node. The session's
    /// replica is fixed here too, by the rule the home node applies
    /// when it registers the root.
    fn session_root(&self, session: u64) -> io::Result<ProblemId> {
        let budget = self.num_nodes() + 2;
        let mut attempt = 0usize;
        loop {
            let home = {
                let st = self.state.lock().unwrap();
                match st.sessions.get(&session) {
                    Some(s) => s.home,
                    None => st.ring.node_for(session).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotConnected, "cluster has no nodes")
                    })?,
                }
            };
            let member = self.node(home)?;
            match member.client.session_root(session) {
                Ok(root) => {
                    if root.node() != home {
                        return Err(node_error(
                            home,
                            ProtoError::WrongNode {
                                got: root.node() as u64,
                                expected: home as u64,
                            }
                            .into(),
                        ));
                    }
                    let mut st = self.state.lock().unwrap();
                    let replica = st.ring.replica_for(session, home);
                    st.sessions.entry(session).or_insert(SessionState {
                        home,
                        replica,
                        root: root.to_wire(),
                        log: PathLog::default(),
                    });
                    st.roots.insert(root.to_wire(), session);
                    return Ok(root);
                }
                Err(e) if is_node_death(&e) && attempt < budget => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.failover(home);
                    failover_backoff(attempt, home);
                }
                Err(e) => return Err(node_error_after(home, e, attempt as u32 + 1)),
            }
        }
    }

    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket> {
        self.cluster_submit(parent.to_wire(), lits_to_clauses(&clauses))
    }

    /// Redeems a cluster ticket. If the ticket's node died before
    /// answering, the session is failed over (replica promoted by path
    /// replay) and the solve is **re-issued transparently** on the new
    /// home — the caller sees the same deterministic reply it would
    /// have gotten, minus one node.
    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>> {
        let TicketInner::Cluster {
            node,
            tag,
            session,
            parent,
            clauses,
        } = ticket.0
        else {
            return Err(foreign_ticket());
        };
        let outcome = match self.node_opt(node) {
            Some(member) => member.client.wait_response(tag),
            // A concurrent failover already removed the node; treat the
            // ticket as lost in the crash and go straight to the retry.
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "node failed over while the request was in flight",
            )),
        };
        match outcome {
            Ok(response) => {
                let reply = solved_reply(response).map_err(|e| node_error(node, e))?;
                if let (Some(session), Some(r)) = (session, reply.as_ref()) {
                    self.record(session, r.problem.to_wire(), parent, &clauses);
                }
                Ok(reply)
            }
            Err(e) if is_node_death(&e) => {
                self.failover(node);
                // The remap now covers the parent iff the session was
                // recoverable; an unrecoverable one fails typed below.
                let retry = self.cluster_submit(parent, clauses)?;
                if let TicketInner::Cluster { node: new_node, .. } = &retry.0 {
                    trace::instant(trace::Kind::Rerouted, node as u64, *new_node as u64);
                }
                self.wait(retry)
            }
            Err(e) => Err(node_error(node, e)),
        }
    }

    fn release(&self, id: ProblemId) -> io::Result<()> {
        let (resolved, session) = self.locate(id.to_wire());
        // A released problem will never be promoted: reap it from the
        // client-side path log (child-aware — edges a live descendant
        // still replays through are kept). The home node tells the
        // session's replica to reap its copy when the `Release` below
        // reaches it.
        if let Some(session) = session {
            let mut st = self.state.lock().unwrap();
            st.owner.remove(&resolved);
            if let Some(sess) = st.sessions.get_mut(&session) {
                sess.log.release(resolved);
            }
        }
        // Releasing something whose home is gone is a no-op, not an
        // error: the snapshot died with the node.
        let Some(member) = self.node_opt(ProblemId::from_wire(resolved).node()) else {
            return Ok(());
        };
        match member.client.release(ProblemId::from_wire(resolved)) {
            Err(e) if is_node_death(&e) => {
                self.failover(member.id);
                Ok(())
            }
            other => other.map_err(|e| node_error(member.id, e)),
        }
    }

    fn stats(&self) -> io::Result<StatsSummary> {
        Ok(self.node_stats()?.total())
    }

    fn node_stats(&self) -> io::Result<FleetStats> {
        let members: Vec<Arc<ClusterNode>> = self.nodes.read().unwrap().to_vec();
        let nodes = members
            .iter()
            .map(|n| {
                let summary = n.client.stats().map_err(|e| node_error(n.id, e))?;
                Ok((n.id, summary))
            })
            .collect::<io::Result<_>>()?;
        Ok(FleetStats { nodes })
    }

    /// Corked per node: the batch is split by owning node (order
    /// preserved within each node's window), each node's window is
    /// written with one flush ([`PipelinedClient::submit_batch`]), and
    /// replies are redeemed in the original request order. A window
    /// whose node dies falls back to per-request submission through
    /// the failover path.
    fn solve_batch(
        &self,
        requests: Vec<(ProblemId, Vec<Vec<Lit>>)>,
    ) -> io::Result<Vec<Option<SolveReply>>> {
        // Resolve and attribute every request, then split into
        // per-node windows remembering original positions.
        let resolved: Vec<(u64, Option<u64>, Vec<Vec<i64>>)> = requests
            .iter()
            .map(|(parent, clauses)| {
                let (wire, session) = self.locate(parent.to_wire());
                (wire, session, lits_to_clauses(clauses))
            })
            .collect();
        let mut windows: Vec<(NodeId, Vec<usize>, Vec<Request>)> = Vec::new();
        for (pos, (wire, _, clauses)) in resolved.iter().enumerate() {
            let node = ProblemId::from_wire(*wire).node();
            self.node(node)?; // unknown nodes fail before any write
            let request = Request::Solve {
                parent: *wire,
                clauses: clauses.clone(),
            };
            match windows.iter_mut().find(|(n, ..)| *n == node) {
                Some((_, positions, window)) => {
                    positions.push(pos);
                    window.push(request);
                }
                None => windows.push((node, vec![pos], vec![request])),
            }
        }
        // Submit every node's window corked, then wait in request order.
        let mut tickets: Vec<Option<Ticket>> = Vec::with_capacity(resolved.len());
        tickets.resize_with(resolved.len(), || None);
        for (node, positions, window) in windows {
            let member = self.node(node)?;
            match member.client.submit_batch(&window) {
                Ok(tags) => {
                    for (&pos, tag) in positions.iter().zip(tags) {
                        let (wire, session, clauses) = &resolved[pos];
                        tickets[pos] = Some(Ticket(TicketInner::Cluster {
                            node,
                            tag,
                            session: *session,
                            parent: *wire,
                            clauses: clauses.clone(),
                        }));
                    }
                }
                Err(e) if is_node_death(&e) => {
                    // The whole window is lost; re-route each request
                    // individually through the failover machinery.
                    self.failover(node);
                    for &pos in &positions {
                        let (wire, _, clauses) = &resolved[pos];
                        tickets[pos] = Some(self.cluster_submit(*wire, clauses.clone())?);
                    }
                }
                Err(e) => return Err(node_error(node, e)),
            }
        }
        tickets
            .into_iter()
            .map(|slot| self.wait(slot.expect("every request was submitted")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_errors_surface_the_attempt_count() {
        let e = node_error_after(2, io::Error::new(io::ErrorKind::TimedOut, "slow"), 4);
        let inner = e.get_ref().unwrap().downcast_ref::<NodeError>().unwrap();
        assert_eq!(inner.attempts, 4);
        assert!(inner.to_string().contains("after 4 attempts"));
        let first = node_error(2, io::Error::new(io::ErrorKind::TimedOut, "slow"));
        let inner = first
            .get_ref()
            .unwrap()
            .downcast_ref::<NodeError>()
            .unwrap();
        assert_eq!(inner.attempts, 1);
        assert!(!inner.to_string().contains("attempts"));
    }
}
