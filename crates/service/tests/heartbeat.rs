//! Heartbeat failure detection, end to end. The servers' peer heartbeat
//! is the cluster's one failure detector: survivors detect a dead peer
//! and self-promote its sessions before any client request trips over
//! the corpse, and a healthy multi-reactor cluster never trips it. A
//! half-dead node (answers pings, stalls solves) fools any prober; the
//! client's per-request deadline is what fails it over.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lwsnap_service::protocol::{read_any_frame, write_tagged_frame, Request, Response};
use lwsnap_service::{
    Cluster, ClusterBackend, PipelinedClient, ProblemId, ServiceConfig, ShardedService,
    SolverBackend,
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
/// death on their own, count the dead peer, and self-promote the
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
    // suspicion) must notice on their own: the victim declared dead, its
    // sessions promoted out of the replica logs.
    let survivors: Vec<u16> = (0..3u16).filter(|&n| n != victim).collect();
    let mut promoter = None;
    wait_for(
        "server-side heartbeat promotion",
        Duration::from_secs(10),
        || {
            promoter = survivors.iter().copied().find(|&n| {
                let stats = cluster.server(n).expect("survivor is running").stats();
                stats.dead_peers >= 1 && stats.replica_promotions > 0 && stats.failovers > 0
            });
            promoter.is_some()
        },
    );

    // The two counters that once shared the name "failovers": the
    // promoter declared exactly one peer dead, and served at least one
    // promotion of that peer's sessions. What it reports over the wire
    // is its own snapshot (read until the heartbeat thread is done
    // promoting, so both reads see one instant).
    let promoter = cluster.server(promoter.unwrap()).unwrap();
    let client = PipelinedClient::connect(promoter.local_addr()).unwrap();
    wait_for("a settled stats snapshot", Duration::from_secs(10), || {
        let before = promoter.stats();
        let wire = client.stats().unwrap();
        before == wire && wire == promoter.stats()
    });
    let stats = promoter.stats();
    assert_eq!(stats.dead_peers, 1, "one peer declared dead");
    assert!(stats.failovers >= 1, "its sessions were promoted here");
    assert!(stats.heartbeat_misses >= 3, "suspicion needs misses");

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

/// Reactor-affinity regression (satellite): with two reactors per
/// node, each peer's pipelined connection — shared by the forward
/// plane and the heartbeat prober — is accepted by exactly one reactor
/// and stays there, so peer `Ping`/`Replicate` frames never interleave
/// across event loops. Steady-state traffic on a healthy 2-reactor
/// cluster must therefore record zero heartbeat misses and no peer
/// declared dead, while answers stay bit-identical to a local mirror.
#[test]
fn peer_traffic_rides_one_reactor_without_heartbeat_misses() {
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
        let stats = server.stats();
        assert_eq!(
            stats.heartbeat_misses, 0,
            "node {n} missed heartbeats under multi-reactor peering"
        );
        assert_eq!(stats.dead_peers, 0, "node {n} saw a spurious failure");
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
        if request == Request::Ping {
            let pong = Response::Pong { node: 0 }.encode();
            if write_tagged_frame(&mut writer, frame.tag, &pong).is_err() {
                return;
            }
        }
        // Anything else: swallow it and say nothing, forever.
    }
}

/// The heartbeat blind spot: a node whose reactor still answers pings
/// but whose solves never complete looks healthy to any prober — so a
/// client-side prober could not rescue a request blocked on it either.
/// Liveness there comes from the per-request read deadline: the client
/// times out and fails the node over.
#[test]
fn a_half_dead_node_fails_over_via_the_request_deadline() {
    let addr = spawn_half_dead_node();
    let backend = ClusterBackend::connect(&[(0u16, addr)]).unwrap();
    backend
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    // It answers a probe like a healthy node would.
    let probe = PipelinedClient::connect(addr).unwrap();
    assert_eq!(
        probe.call(&Request::Ping).unwrap(),
        Response::Pong { node: 0 }
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
}
