//! Replication and self-healing membership, end to end: path logs
//! stream to the ring successor, promotion by replay is lossless
//! (proptested — bit-identical verdicts AND witnesses), planned drains
//! migrate sessions before the node exits, joins serve new sessions,
//! and a silent node can never hang a bounded client.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use lwsnap_service::protocol::clauses_to_lits;
use lwsnap_service::{
    Cluster, ClusterBackend, PipelinedClient, ProblemId, ReplicaStore, Ring, ServiceConfig,
    ShardedService, SolverBackend,
};
use lwsnap_solver::Lit;

fn lits(c: &[i64]) -> Vec<Vec<Lit>> {
    vec![c.iter().map(|&v| Lit::from_dimacs(v)).collect()]
}

/// Polls until `node`'s replica store holds `edges` edges of `session`.
/// The home wrote each edge to the replica's socket before it released
/// the reply, but the replica's reactor reads them in its own time —
/// and a `Promote` arriving on another connection does not wait for it.
fn await_replica_edges(cluster: &Cluster, node: u16, session: u64, edges: usize) {
    let held = || {
        let server = cluster.server(node).expect("node is running");
        server.replicas().session_edges(session)
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while held() != edges && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(held(), edges, "node {node} holds session {session}'s log");
}

/// One generated derivation step: which earlier problem to extend
/// (index modulo the problems so far) and the incremental constraint.
fn steps_strategy() -> impl Strategy<Value = Vec<(usize, Vec<Vec<i64>>)>> {
    let lit = (1i64..=6, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clause = proptest::collection::vec(lit, 1..4);
    let clauses = proptest::collection::vec(clause, 1..3);
    proptest::collection::vec((0usize..32, clauses), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole's correctness core, as a property: for ARBITRARY
    /// path logs, promoting a replica by replay yields problems whose
    /// verdicts and witness models are bit-identical to the originals
    /// — including under further probe extensions on both sides.
    #[test]
    fn replica_promotion_is_lossless(
        session in any::<u64>(),
        steps in steps_strategy(),
    ) {
        let origin = ShardedService::new(ServiceConfig::new(2));
        let replica = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let store = ReplicaStore::new();

        // Grow an arbitrary derivation tree on the origin, recording
        // every edge into the replica store — exactly what the home
        // node streams to the session's replica.
        let root = origin.session_root(session);
        let mut problems = vec![root];
        for (pick, clauses) in &steps {
            let parent = problems[pick % problems.len()];
            let reply = origin
                .solve(parent, &clauses_to_lits(clauses))
                .expect("origin chain stays live");
            store.record(
                session,
                reply.problem.to_wire(),
                parent.to_wire(),
                clauses.clone(),
            );
            problems.push(reply.problem);
        }

        // Promote EVERY derived problem onto the replica node.
        let wires: Vec<u64> = problems[1..].iter().map(|p| p.to_wire()).collect();
        let mapping = store.promote(&replica, session, &wires);
        prop_assert_eq!(mapping.len(), wires.len(), "complete logs promote completely");

        for &(old, new) in &mapping {
            let old_id = ProblemId::from_wire(old);
            let new_id = ProblemId::from_wire(new);
            prop_assert_eq!(new_id.node(), 1, "promoted ids live on the replica");
            prop_assert_eq!(
                origin.result_of(old_id),
                replica.result_of(new_id),
                "verdicts split after promotion"
            );
            // Witnesses: probe both sides with the same extension; the
            // solver is deterministic in the clause path, so models
            // must agree bit for bit.
            let probe = lits(&[7, -7]);
            let lhs = origin.solve(old_id, &probe).expect("origin probe");
            let rhs = replica.solve(new_id, &probe).expect("replica probe");
            prop_assert_eq!(lhs.result, rhs.result, "probe verdicts split");
            prop_assert_eq!(&lhs.model, &rhs.model, "probe witnesses split");
        }
    }
}

/// The two-client under-replication regression: a session driven by
/// two `ClusterBackend`s in alternation leaves each client holding only
/// HALF the path log (a client does not track edges it did not drive),
/// so no client could replay the whole session from its own copy. The
/// home node forwards every edge regardless of who drove it: kill the
/// home, and BOTH clients
/// fail over to bit-identical verdicts and witnesses — through ids the
/// other client minted.
#[test]
fn two_clients_driving_one_session_survive_the_home_nodes_death() {
    two_clients_one_session(true);
}

/// The executable witness of a KNOWN race (ROADMAP, simulator item):
/// kill the home the moment the last reply is back, without waiting for
/// the replica's reactor to have read the home's last `Replicate`
/// frames. A client's `Promote` (its own connection, maybe another
/// reactor) can then overtake them, and the client that never logged
/// those edges gets a remap without them. Rare: 1 of 400 rounds failed
/// with eight copies of this binary running side by side, none alone;
/// run with `-- --ignored`.
#[test]
#[ignore = "known race: Promote can overtake the dead home's unread Replicate frames"]
fn two_clients_survive_a_kill_that_does_not_wait_for_the_replica() {
    for _ in 0..50 {
        two_clients_one_session(false);
    }
}

fn two_clients_one_session(await_replica: bool) {
    let mut cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let a = cluster.connect().unwrap();
    let b = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    let session = 11u64;
    let home = a.ring().node_for(session).unwrap();
    let root_a = a.session_root(session).unwrap();
    let root_b = b.session_root(session).unwrap();
    assert_eq!(root_a, root_b, "one session, one root, two clients");

    let mut cur = root_a;
    let mut l = mirror.session_root(session);
    for step in 0..6i64 {
        let v = step % 5 + 1;
        let driver: &lwsnap_service::ClusterBackend = if step % 2 == 0 { &a } else { &b };
        cur = driver.solve(cur, lits(&[v])).unwrap().unwrap().problem;
        l = mirror.solve(l, &lits(&[v])).unwrap().problem;
    }

    if await_replica {
        let replica = a.ring().successor_for(session).unwrap();
        await_replica_edges(&cluster, replica, session, 6);
    }
    cluster.kill_node(home);

    // Both clients continue from the SAME tip — minted by client B, so
    // client A never logged it — and each fails over independently.
    for (client, name) in [(&a, "a"), (&b, "b")] {
        let r = client.solve(cur, lits(&[-2])).unwrap().unwrap();
        let e = mirror.solve(l, &lits(&[-2])).unwrap();
        assert_eq!(r.result, e.result, "client {name} verdict split after kill");
        assert_eq!(r.model, e.model, "client {name} witness split after kill");
        assert_ne!(r.problem.node(), home, "client {name} left the dead home");
    }

    drop(b);
    a.shutdown();
    cluster.shutdown();
}

/// A one-shard, two-node cluster and a direct connection to node 0:
/// every session asked of that connection is homed on node 0's only
/// shard, under one root wire id, and replicated on node 1.
fn one_shard_pair() -> (Cluster, PipelinedClient) {
    let cluster = Cluster::start_local(2, ServiceConfig::new(1), 1).unwrap();
    let (home, addr) = cluster.addrs()[0];
    assert_eq!(home, 0);
    let client = PipelinedClient::connect(addr).unwrap();
    (cluster, client)
}

/// Regression: a stats read is read-only. A direct connection's
/// `node_stats` used to learn its node id by asking for session 0's
/// root, which re-attributed that root wire id to session 0 on the home
/// node — and the next solve from session A's root was replicated as
/// session 0's.
#[test]
fn a_stats_read_leaves_replication_attribution_alone() {
    let (cluster, client) = one_shard_pair();
    let session = 5u64;
    let root = client.session_root(session).unwrap();
    assert_eq!(
        client.node_stats().unwrap().nodes,
        vec![(0, client.stats().unwrap())]
    );
    client.solve(root, lits(&[1])).unwrap().unwrap();

    await_replica_edges(&cluster, 1, session, 1);
    let replicas = cluster.server(1).unwrap().replicas();
    assert_eq!(
        replicas.session_edges(0),
        0,
        "nothing credited to session 0"
    );
    cluster.shutdown();
}

/// The executable witness of a KNOWN bug (ROADMAP, simulator item):
/// sessions homed on one node and shard share the root wire id, and the
/// home attributes a root to the LAST session that asked for it — so
/// session A's subtree is replicated as session B's, and the home's
/// death can be self-promoted for B but not for A. Only a client that
/// re-ships A's log before `Promote` saves it. The fix needs the
/// session on the solve path, or per-session roots: a wire decision.
#[test]
#[ignore = "known bug: sessions sharing a root wire id share its replication attribution"]
fn sessions_sharing_a_root_are_replicated_as_themselves() {
    let (cluster, client) = one_shard_pair();
    let (a, b) = (5u64, 6u64);
    let root_a = client.session_root(a).unwrap();
    let root_b = client.session_root(b).unwrap();
    assert_eq!(root_a, root_b, "one shard, one root wire id");
    client.solve(root_a, lits(&[1])).unwrap().unwrap();

    await_replica_edges(&cluster, 1, a, 1);
    let replicas = cluster.server(1).unwrap().replicas();
    assert_eq!(
        replicas.session_edges(b),
        0,
        "nothing credited to session B"
    );
    cluster.shutdown();
}

/// Every successful solve of a tracked session streams its derivation
/// edge to the session's ring successor, where it sits as passive
/// bytes (`replica_bytes`) — no failover, no promotions.
#[test]
fn path_logs_stream_to_the_ring_successor() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let session = 7u64;
    let home = backend.ring().node_for(session).unwrap();
    let successor = backend.ring().successor_for(session).unwrap();
    assert_ne!(home, successor);

    let mut cur = backend.session_root(session).unwrap();
    for v in 1..=4i64 {
        cur = backend.solve(cur, lits(&[v])).unwrap().unwrap().problem;
    }

    await_replica_edges(&cluster, successor, session, 4);
    let fleet = backend.node_stats().unwrap();
    let at_successor = fleet.node(successor).unwrap();
    assert!(at_successor.replica_bytes > 0, "successor holds the log");
    assert_eq!(fleet.total().failovers, 0, "nothing failed over");
    assert_eq!(fleet.total().replica_promotions, 0, "nothing replayed");
    for (node, summary) in &fleet.nodes {
        if *node != successor {
            assert_eq!(summary.replica_bytes, 0, "only the successor records");
        }
    }
    backend.shutdown();
    cluster.shutdown();
}

/// Replica GC: the home node passes releases on to the session's
/// replica, which drops the dead path-log edges and their
/// bytes — child-aware, so releasing a whole chain leaf-first empties
/// the replica completely, while releasing an interior problem with
/// live descendants keeps its edge until the descendants go too.
#[test]
fn release_garbage_collects_the_replica() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let session = 7u64;
    let successor = backend.ring().successor_for(session).unwrap();

    // A chain root → p1 → p2 → p3.
    let root = backend.session_root(session).unwrap();
    let mut chain = vec![root];
    for v in 1..=3i64 {
        let cur = *chain.last().unwrap();
        chain.push(backend.solve(cur, lits(&[v])).unwrap().unwrap().problem);
    }
    await_replica_edges(&cluster, successor, session, 3);
    let full = backend
        .node_stats()
        .unwrap()
        .node(successor)
        .unwrap()
        .replica_bytes;
    assert!(full > 0, "successor holds the chain's log");

    // Releasing the interior p1 keeps its edge: p2/p3 replay through
    // it. (Nodes answer stats in id order and the home's answer is
    // behind the `Release` on its connection, so the unreplicate frame
    // is on the replica's socket before the replica is asked — and if
    // the replica has not read it yet, nothing has changed either.)
    backend.release(chain[1]).unwrap();
    let after_interior = backend
        .node_stats()
        .unwrap()
        .node(successor)
        .unwrap()
        .replica_bytes;
    assert_eq!(after_interior, full, "interior edge retained for replay");

    // Releasing the leaves cascades the whole released chain out.
    backend.release(chain[3]).unwrap();
    backend.release(chain[2]).unwrap();
    await_replica_edges(&cluster, successor, session, 0);
    let after_all = backend
        .node_stats()
        .unwrap()
        .node(successor)
        .unwrap()
        .replica_bytes;
    assert_eq!(
        after_all, 0,
        "released chain fully collected: {full} → {after_all}"
    );

    backend.shutdown();
    cluster.shutdown();
}

/// Planned membership change: draining a node promotes its sessions
/// onto their replicas FIRST (the rendezvous successor property makes
/// the replica the shrunk ring's owner), then shuts the daemon down —
/// and the continued chains answer bit-identically to an in-process
/// mirror that never saw a membership change.
#[test]
fn planned_drain_replays_sessions_onto_survivors() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    // A handful of sessions across all nodes, a few steps deep.
    let sessions: Vec<u64> = (0..8).collect();
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

    // Drain the node that owns session 0.
    let victim = backend.ring().node_for(sessions[0]).unwrap();
    let final_stats = backend.remove_node(victim).unwrap();
    assert_eq!(
        final_stats.shards, 2,
        "the drained daemon answered its stats"
    );
    assert_eq!(backend.num_nodes(), 2);
    assert!(backend.ring().node_for(sessions[0]).unwrap() != victim);

    // Every chain continues — via its OLD ids — and answers exactly
    // what the mirror answers.
    for (i, &s) in sessions.iter().enumerate() {
        let v = (s as i64) % 5 + 1;
        let r = backend.solve(remote[i], lits(&[-v])).unwrap().unwrap();
        let l = mirror.solve(local[i], &lits(&[-v])).unwrap();
        assert_eq!(r.result, l.result, "session {s} verdict split after drain");
        assert_eq!(r.model, l.model, "session {s} witness split after drain");
        assert_ne!(r.problem.node(), victim, "session {s} left the victim");
    }

    // The survivors' counters show the promotions happened.
    let fleet = backend.node_stats().unwrap();
    assert!(
        fleet.total().failovers > 0,
        "drain promoted via the replicas"
    );
    backend.shutdown();
    cluster.shutdown();
}

/// Mid-run join: a node added to a live cluster starts serving new
/// sessions the ring hands it, and existing sessions are undisturbed.
#[test]
fn mid_run_join_serves_new_sessions() {
    let mut cluster = Cluster::start_local(2, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();

    let old_session = 1u64;
    let mut chain = backend.session_root(old_session).unwrap();
    chain = backend.solve(chain, lits(&[1])).unwrap().unwrap().problem;

    let (id, addr) = cluster.add_node(ServiceConfig::new(2), 1).unwrap();
    assert_eq!(id, 2);
    backend.add_node(id, addr).unwrap();
    assert_eq!(backend.num_nodes(), 3);

    // Some new session lands on the joined node and solves there.
    let newcomer = (0..256u64)
        .find(|&s| backend.ring().node_for(s) == Some(id))
        .expect("the ring hands the new node some sessions");
    let root = backend.session_root(newcomer).unwrap();
    assert_eq!(root.node(), id);
    let reply = backend.solve(root, lits(&[2])).unwrap().unwrap();
    assert_eq!(reply.problem.node(), id);

    // The pre-join session keeps extending where it was.
    let more = backend.solve(chain, lits(&[2])).unwrap().unwrap();
    assert_ne!(
        more.problem.node(),
        id,
        "tracked sessions do not move on join"
    );

    backend.shutdown();
    cluster.shutdown();
}

/// Join regression: a node that joins and outranks a session's home on
/// the ring must neither move nor stop the session's replication. The
/// home keeps forwarding to the replica it chose when the session
/// started — the one its clients name — so all six edges sit there and
/// nowhere else, and killing the home promotes the whole session.
/// (Re-deriving the target from the grown ring on every edge made the
/// home its own "successor" and it stopped forwarding: 3 edges, not 6.)
#[test]
fn a_join_that_outranks_the_home_keeps_the_session_replicated() {
    let mut cluster = Cluster::start_local(2, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    let grown = Ring::new([0u16, 1, 2], 0);
    let session = (0..4096u64)
        .find(|&s| grown.ranked(s)[0] == 2)
        .expect("node 2 wins some session");
    let home = backend.ring().node_for(session).unwrap();
    let replica = 1 - home;
    assert_eq!(grown.ranked(session), vec![2, home, replica]);

    let mut cur = backend.session_root(session).unwrap();
    assert_eq!(cur.node(), home);
    let mut l = mirror.session_root(session);
    let step = |cur: &mut ProblemId, l: &mut ProblemId, v: i64| {
        *cur = backend.solve(*cur, lits(&[v])).unwrap().unwrap().problem;
        *l = mirror.solve(*l, &lits(&[v])).unwrap().problem;
    };
    for v in 1..=3 {
        step(&mut cur, &mut l, v);
    }
    let (id, addr) = cluster.add_node(ServiceConfig::new(2), 1).unwrap();
    assert_eq!(id, 2);
    backend.add_node(id, addr).unwrap();
    for v in 4..=6 {
        step(&mut cur, &mut l, v);
    }
    assert_eq!(cur.node(), home, "the session did not move");

    await_replica_edges(&cluster, replica, session, 6);
    await_replica_edges(&cluster, home, session, 0);
    await_replica_edges(&cluster, id, session, 0);

    cluster.kill_node(home);
    let r = backend.solve(cur, lits(&[-2])).unwrap().unwrap();
    let e = mirror.solve(l, &lits(&[-2])).unwrap();
    assert_eq!(r.problem.node(), replica, "promoted where the log was");
    assert_eq!(r.result, e.result, "verdict split after kill");
    assert_eq!(r.model, e.model, "witness split after kill");

    backend.shutdown();
    cluster.shutdown();
}

/// Replica death, then home death, seen by a client with no heartbeat
/// thread. The client sends the replica nothing in steady state, so it
/// still names the dead replica when the home dies; the home moved its
/// forwarding to the third node, which therefore holds only the edges
/// solved after the first death. The failover has to notice the dead
/// replica at `Promote`, bury it, re-pick the survivor and heal it from
/// the client's own log — which is complete — before promoting there.
#[test]
fn a_dead_replica_then_a_dead_home_promotes_on_the_survivor() {
    let mut cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let mirror = ShardedService::new(ServiceConfig::new(2));

    let session = 7u64;
    let ranked = backend.ring().ranked(session);
    let (home, replica, third) = (ranked[0], ranked[1], ranked[2]);

    let mut cur = backend.session_root(session).unwrap();
    let mut l = mirror.session_root(session);
    let step = |cur: &mut ProblemId, l: &mut ProblemId, v: i64| {
        *cur = backend.solve(*cur, lits(&[v])).unwrap().unwrap().problem;
        *l = mirror.solve(*l, &lits(&[v])).unwrap().problem;
    };
    for v in 1..=3 {
        step(&mut cur, &mut l, v);
    }
    await_replica_edges(&cluster, replica, session, 3);
    cluster.kill_node(replica);
    for v in 4..=9 {
        step(&mut cur, &mut l, v % 6 + 1);
    }
    assert_eq!(
        cur.node(),
        home,
        "a replica's death does not move the session"
    );
    assert_eq!(backend.num_nodes(), 3, "nothing told the client yet");
    cluster.kill_node(home);

    let r = backend.solve(cur, lits(&[-2])).unwrap().unwrap();
    let e = mirror.solve(l, &lits(&[-2])).unwrap();
    assert_eq!(r.problem.node(), third, "promoted on the last survivor");
    assert_eq!(r.result, e.result, "verdict split after both deaths");
    assert_eq!(r.model, e.model, "witness split after both deaths");
    assert_eq!(backend.num_nodes(), 1, "both dead nodes are buried");

    backend.shutdown();
    cluster.shutdown();
}

/// Regression (satellite d): a node that accepts connections but never
/// answers must not hang a bounded client forever. With a read
/// timeout, the wait times out, the node is treated as dead, and the
/// error is fast and typed — never a hang.
#[test]
fn waiting_on_a_silent_node_times_out() {
    // A listener that accepts and then says nothing, ever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let backend = ClusterBackend::connect(&[(0u16, addr)]).unwrap();
    backend
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();

    let started = Instant::now();
    let err = backend.session_root(5).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "bounded clients do not hang: took {:?}",
        started.elapsed()
    );
    // The silent node was failed over out; with no members left the
    // placement itself reports the empty ring.
    assert!(
        matches!(
            err.kind(),
            ErrorKind::NotConnected | ErrorKind::TimedOut | ErrorKind::WouldBlock
        ),
        "unexpected error: {err}"
    );
    assert_eq!(backend.num_nodes(), 0);
    drop(listener);
}
