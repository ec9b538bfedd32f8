//! Heartbeat failure detection, end to end: servers detect a dead peer
//! and self-promote its sessions before any client request trips over
//! the corpse; client-side heartbeats fail over proactively; and a
//! half-dead node (answers pings, stalls solves) is caught by the
//! per-request deadline instead — the two detectors cover each other's
//! blind spots.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lwsnap_service::protocol::{read_any_frame, write_tagged_frame, Request, Response};
use lwsnap_service::{
    Cluster, ClusterBackend, ProblemId, ServiceConfig, ShardedService, SolverBackend,
};
use lwsnap_solver::Lit;

fn lits(c: &[i64]) -> Vec<Vec<Lit>> {
    vec![c.iter().map(|&v| Lit::from_dimacs(v)).collect()]
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let started = Instant::now();
    while !probe() {
        assert!(
            started.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole's proactive path: kill a node and issue NO client
/// request at all — the surviving servers' heartbeat threads detect the
/// death on their own, bump the membership epoch, and self-promote the
/// victim's sessions from their replica logs. The counters move while
/// every client is silent; when a client finally does ask, the answers
/// are bit-identical to a mirror that never saw a failure.
#[test]
fn servers_self_promote_a_dead_nodes_sessions() {
    let mut cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    // Sessions on every node, a few steps deep.
    let sessions: Vec<u64> = (0..6).collect();
    let mut remote: Vec<ProblemId> = Vec::new();
    let mut local: Vec<ProblemId> = Vec::new();
    for &s in &sessions {
        let mut r = backend.session_root(s).unwrap();
        let mut l = mirror.session_root(s);
        for step in 0..3i64 {
            let v = (s as i64 + step) % 5 + 1;
            r = backend.solve(r, lits(&[v])).unwrap().unwrap().problem;
            l = mirror.solve(l, &lits(&[v])).unwrap().problem;
        }
        remote.push(r);
        local.push(l);
    }

    let victim = backend.ring().node_for(sessions[0]).unwrap();
    cluster.kill_node(victim);

    // No client request from here until the servers have acted. The
    // survivors' heartbeat threads (50ms jittered interval, 3-miss
    // suspicion) must notice on their own: epoch bumped, the victim's
    // sessions promoted out of the replica logs.
    wait_for(
        "server-side heartbeat promotion",
        Duration::from_secs(10),
        || {
            (0..3u16).filter(|&n| n != victim).any(|n| {
                let server = cluster.server(n).expect("survivor is running");
                let (_, promotions, failovers) = server.replicas().counters();
                server.epoch() >= 1 && promotions > 0 && failovers > 0
            })
        },
    );

    // Only now does a client speak again — and every session continues
    // bit-identically, through its old ids.
    for (i, &s) in sessions.iter().enumerate() {
        let v = (s as i64) % 5 + 1;
        let r = backend.solve(remote[i], lits(&[-v])).unwrap().unwrap();
        let l = mirror.solve(local[i], &lits(&[-v])).unwrap();
        assert_eq!(r.result, l.result, "session {s} verdict split after kill");
        assert_eq!(r.model, l.model, "session {s} witness split after kill");
        assert_ne!(r.problem.node(), victim, "session {s} left the victim");
    }
    backend.shutdown();
    cluster.shutdown();
}

/// The client-side detector: with heartbeats started, a killed node is
/// failed over while the client issues no requests — the failover
/// counter attributes the rescue to the heartbeat thread, the ring
/// drops the victim, and the epoch moves.
#[test]
fn client_heartbeats_fail_over_before_any_request() {
    let mut cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    let session = 4u64;
    let mut r = backend.session_root(session).unwrap();
    let mut l = mirror.session_root(session);
    for v in 1..=3i64 {
        r = backend.solve(r, lits(&[v])).unwrap().unwrap().problem;
        l = mirror.solve(l, &lits(&[v])).unwrap().problem;
    }
    let victim = backend.ring().node_for(session).unwrap();
    let epoch_before = backend.epoch();

    backend.start_heartbeat(Duration::from_millis(25), 3);
    cluster.kill_node(victim);

    // The probe loop — not a request error — must retire the victim.
    wait_for("client heartbeat failover", Duration::from_secs(10), || {
        backend.heartbeat_failovers() >= 1
    });
    assert!(backend.heartbeat_misses() >= 3, "suspicion needs misses");
    assert!(backend.epoch() > epoch_before, "failover bumps the epoch");
    assert_ne!(
        backend.ring().node_for(session).unwrap(),
        victim,
        "the ring healed before any request"
    );

    // The next request rides the already-healed ring.
    let reply = backend.solve(r, lits(&[-1])).unwrap().unwrap();
    let expect = mirror.solve(l, &lits(&[-1])).unwrap();
    assert_eq!(reply.result, expect.result, "verdict split after failover");
    assert_eq!(reply.model, expect.model, "witness split after failover");
    backend.shutdown();
    cluster.shutdown();
}

/// Reactor-affinity regression (satellite): with two reactors per
/// node, each peer's pipelined connection — shared by the forward
/// plane and the heartbeat prober — is accepted by exactly one reactor
/// and stays there, so peer `Ping`/`Replicate` frames never interleave
/// across event loops. Steady-state traffic on a healthy 2-reactor
/// cluster must therefore record zero heartbeat misses and zero epoch
/// movement, while answers stay bit-identical to a local mirror.
#[test]
fn peer_traffic_rides_one_reactor_without_heartbeat_misses() {
    use std::sync::atomic::Ordering;

    let cluster = Cluster::start_local_with(3, ServiceConfig::new(2), 1, 2).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    for s in 0..6u64 {
        let mut r = backend.session_root(s).unwrap();
        let mut l = mirror.session_root(s);
        for step in 0..4i64 {
            let v = (s as i64 + step) % 5 + 1;
            let reply = backend.solve(r, lits(&[v])).unwrap().unwrap();
            let expect = mirror.solve(l, &lits(&[v])).unwrap();
            assert_eq!(reply.result, expect.result, "session {s} verdict split");
            assert_eq!(reply.model, expect.model, "session {s} witness split");
            r = reply.problem;
            l = expect.problem;
        }
    }

    // Long enough for many 50ms-interval heartbeat rounds to land on
    // whichever reactor owns each peer connection.
    std::thread::sleep(Duration::from_millis(400));
    for n in 0..3u16 {
        let server = cluster.server(n).expect("node is running");
        assert_eq!(server.reactors(), 2, "node {n} runs two reactors");
        assert_eq!(
            server.heartbeat_miss_handle().load(Ordering::Relaxed),
            0,
            "node {n} missed heartbeats under multi-reactor peering"
        );
        assert_eq!(server.epoch(), 0, "node {n} saw a spurious failure");
        let accepted: u64 = server.reactor_stats().iter().map(|s| s.accepted).sum();
        assert!(accepted >= 1, "node {n} accepted its peer connections");
    }
    backend.shutdown();
    cluster.shutdown();
}

/// A half-dead node answers every `Ping` but sits on everything else
/// forever.
fn spawn_half_dead_node() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || half_dead_connection(stream));
        }
    });
    addr
}

fn half_dead_connection(stream: TcpStream) {
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = std::io::BufWriter::new(stream);
    while let Ok(Some(frame)) = read_any_frame(&mut reader) {
        let Ok(request) = Request::decode(&frame.payload) else {
            return;
        };
        if let Request::Ping { epoch, .. } = request {
            let pong = Response::Pong { node: 0, epoch }.encode();
            if write_tagged_frame(&mut writer, frame.tag, &pong).is_err() {
                return;
            }
        }
        // Anything else: swallow it and say nothing, forever.
    }
}

/// The heartbeat blind spot (satellite): a node whose reactor still
/// answers pings but whose solves never complete looks healthy to the
/// failure detector — liveness there must come from the per-request
/// read deadline instead. The client times out, fails the node over,
/// and the heartbeat counters stay clean (zero heartbeat-attributed
/// failovers: this rescue belongs to the request path).
#[test]
fn a_half_dead_node_fails_over_via_the_request_deadline() {
    let addr = spawn_half_dead_node();
    let backend = ClusterBackend::connect(&[(0u16, addr)]).unwrap();
    backend
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    backend.start_heartbeat(Duration::from_millis(50), 2);

    // Long enough for several heartbeat rounds: the pings are answered,
    // so suspicion never accumulates and the node stays a member.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        backend.heartbeat_failovers(),
        0,
        "answered pings must not trip the detector"
    );
    assert_eq!(backend.num_nodes(), 1, "the half-dead node looks alive");

    // A real request hits the stall and the deadline converts it into a
    // fast, typed failover.
    let started = Instant::now();
    let err = backend.session_root(5).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "bounded clients do not hang: took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(
            err.kind(),
            ErrorKind::NotConnected | ErrorKind::TimedOut | ErrorKind::WouldBlock
        ),
        "unexpected error: {err}"
    );
    assert_eq!(backend.num_nodes(), 0, "the stalled node was failed over");
    assert_eq!(
        backend.heartbeat_failovers(),
        0,
        "the rescue came from the request deadline, not the heartbeat"
    );
}
