//! End-to-end tests of cluster mode: a 3-node in-process cluster
//! behind a [`ClusterBackend`], exercising ring routing, corked batch
//! windows, per-node stats, misrouted-id rejection, node failure and
//! graceful drain.

use std::collections::HashSet;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

use lwsnap_service::{
    protocol, Cluster, NodeError, ProblemId, Request, Response, Ring, ServiceConfig, SolverBackend,
    StatsSummary,
};
use lwsnap_solver::{Lit, SolveResult};

fn lits(c: &[i64]) -> Vec<Vec<Lit>> {
    vec![c.iter().map(|&v| Lit::from_dimacs(v)).collect()]
}

/// Which node an error names, via the typed [`NodeError`] payload.
fn failed_node(e: &std::io::Error) -> Option<u16> {
    e.get_ref()?.downcast_ref::<NodeError>().map(|n| n.node)
}

#[test]
fn three_node_cluster_serves_spread_sessions() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(4), 2).unwrap();
    let backend = cluster.connect().unwrap();
    assert_eq!(backend.num_nodes(), 3);
    assert_eq!(backend.node_ids(), vec![0, 1, 2]);

    // Sessions land on ring-chosen nodes; with 64 sessions all three
    // nodes serve some, and every minted id carries its home node.
    let mut nodes_hit = HashSet::new();
    for session in 0..64u64 {
        let root = backend.session_root(session).unwrap();
        assert_eq!(
            Some(root.node()),
            backend.ring().node_for(session),
            "server placement agrees with the client-side ring"
        );
        nodes_hit.insert(root.node());
    }
    assert_eq!(nodes_hit.len(), 3, "64 sessions hit all 3 nodes");

    // A full chain session: children stay on the session's node.
    let root = backend.session_root(7).unwrap();
    let p = backend.solve(root, lits(&[1, 2])).unwrap().unwrap();
    assert_eq!(p.result, SolveResult::Sat);
    assert_eq!(p.problem.node(), root.node(), "children inherit the node");
    let t1 = backend.submit(p.problem, lits(&[-1])).unwrap();
    let t2 = backend.submit(p.problem, lits(&[1])).unwrap();
    let r1 = backend.wait(t1).unwrap().unwrap();
    let r2 = backend.wait(t2).unwrap().unwrap();
    assert!(!r1.model.as_ref().unwrap()[0]);
    assert!(r2.model.as_ref().unwrap()[0]);
    backend.release(r1.problem).unwrap();
    assert!(backend.solve(r1.problem, lits(&[2])).unwrap().is_none());

    // Per-node stats keep the node dimension; the aggregate sums it.
    let fleet = backend.node_stats().unwrap();
    assert_eq!(fleet.nodes.len(), 3);
    let total = fleet.total();
    assert_eq!(total.shards, 12, "3 nodes × 4 shards");
    assert!(total.queries >= 3);
    let home = fleet.node(root.node()).unwrap();
    assert!(home.queries >= 3, "the chain's node served its queries");

    // Graceful drain: every node answers its final stats.
    for (node, result) in backend.shutdown() {
        let summary = result.unwrap_or_else(|e| panic!("node {node} failed to drain: {e}"));
        assert_eq!(summary.shards, 4);
    }
    cluster.shutdown();
}

/// One stats plane: each node's counters, read over the wire, are
/// exactly that node's own in-process snapshot, and the fleet total is
/// their sum — including through `fleet_metrics`, whose counters once
/// came from one process-wide registry and read N× too high here.
#[test]
fn wire_stats_are_each_nodes_own_counters() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let sessions = 0..12u64;
    for session in sessions.clone() {
        let mut cur = backend.session_root(session).unwrap();
        for v in 1..=3i64 {
            cur = backend.solve(cur, lits(&[v])).unwrap().unwrap().problem;
        }
    }
    // Quiesce: every forwarded edge has been recorded by its replica.
    let deadline = Instant::now() + Duration::from_secs(5);
    for session in sessions {
        let replica = backend.ring().successor_for(session).unwrap();
        let held = || {
            cluster
                .server(replica)
                .unwrap()
                .replicas()
                .session_edges(session)
        };
        while held() != 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(held(), 3, "session {session}'s log reached node {replica}");
    }

    let fleet = backend.node_stats().unwrap();
    assert_eq!(fleet.nodes.len(), 3);
    let mut sum = StatsSummary::default();
    for (node, wire) in &fleet.nodes {
        let own = cluster.server(*node).unwrap().stats();
        assert_eq!(*wire, own, "node {node} answers its own counters");
        assert_eq!(own.shards, 2, "node {node} counts its own shards only");
        sum.absorb(&own);
    }
    assert_eq!(fleet.total(), sum);
    assert_eq!(sum.queries, 36);
    assert_eq!(sum.forwards, 36, "every edge forwarded once");
    assert_eq!(backend.fleet_metrics().unwrap().counters, sum);
    backend.shutdown();
    cluster.shutdown();
}

/// The cross-backend conformance bar: the same deterministic chain on a
/// 3-node cluster and on a plain in-process service yields bit-identical
/// verdicts AND models (the solver is deterministic in the constraint
/// path, wherever the snapshot lives).
#[test]
fn cluster_verdicts_are_bit_identical_to_in_process() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(4), 2).unwrap();
    let backend = cluster.connect().unwrap();
    let local = lwsnap_service::ShardedService::new(ServiceConfig::new(4));

    for session in 0..6u64 {
        let mut remote_cur = backend.session_root(session).unwrap();
        let mut local_cur = local.session_root(session);
        for step in 0..5i64 {
            let v = (session as i64 * 5 + step) % 9 + 1;
            let clauses = vec![
                vec![Lit::from_dimacs(v), Lit::from_dimacs(v + 1)],
                vec![Lit::from_dimacs(-v), Lit::from_dimacs(v + 2)],
            ];
            let remote = backend
                .solve(remote_cur, clauses.clone())
                .unwrap()
                .expect("live remote chain");
            let local_reply = local.solve(local_cur, &clauses).expect("live local chain");
            assert_eq!(remote.result, local_reply.result, "verdicts split");
            assert_eq!(remote.model, local_reply.model, "models split bit-wise");
            remote_cur = remote.problem;
            local_cur = local_reply.problem;
        }
    }
    cluster.shutdown();
}

#[test]
fn corked_batches_span_nodes_and_answer_in_order() {
    let cluster = Cluster::start_local(3, ServiceConfig::new(2), 2).unwrap();
    let backend = cluster.connect().unwrap();

    // Roots across all three nodes, interleaved in one batch window.
    let roots: Vec<ProblemId> = (0..12u64)
        .map(|s| backend.session_root(s).unwrap())
        .collect();
    assert!(
        roots.iter().map(|r| r.node()).collect::<HashSet<_>>().len() >= 2,
        "batch spans multiple nodes"
    );
    let requests: Vec<_> = roots
        .iter()
        .enumerate()
        .map(|(i, &root)| (root, lits(&[i as i64 % 7 + 1])))
        .collect();
    let replies = backend.solve_batch(requests).unwrap();
    assert_eq!(replies.len(), 12);
    for (i, (reply, root)) in replies.iter().zip(&roots).enumerate() {
        let reply = reply.as_ref().expect("live root");
        assert_eq!(reply.result, SolveResult::Sat);
        assert_eq!(
            reply.problem.node(),
            root.node(),
            "reply {i} answers its own node's request"
        );
        assert!(reply.model.as_ref().unwrap()[i % 7], "reply {i} in order");
    }
    backend.shutdown();
    cluster.shutdown();
}

/// Tentpole: killing one node mid-session is **transparent**. The
/// session fails over onto its replica (the ring successor, which held
/// its path log), the interrupted solve is retried there, and the
/// answers — verdicts AND models — are the ones the dead node would
/// have given. The survivor's stats show the promotion happened.
#[test]
fn node_failure_fails_over_transparently() {
    let mut cluster = Cluster::start_local(3, ServiceConfig::new(2), 2).unwrap();
    let backend = cluster.connect().unwrap();

    // Find sessions homed on node 1 (the victim) and elsewhere.
    let on_victim = (0..64u64)
        .find(|&s| backend.ring().node_for(s) == Some(1))
        .expect("some session lands on node 1");
    let survivor_session = (0..64u64)
        .find(|&s| backend.ring().node_for(s) != Some(1))
        .expect("some session avoids node 1");
    let replica = backend
        .ring()
        .successor_for(on_victim)
        .expect("3-node ring has a successor");

    let victim_root = backend.session_root(on_victim).unwrap();
    let survivor_root = backend.session_root(survivor_session).unwrap();
    let p = backend.solve(victim_root, lits(&[1])).unwrap().unwrap();
    assert_eq!(p.problem.node(), 1);

    // Kill node 1 with a request in flight *afterwards*: the submit may
    // land in a dead socket or the wait may see the FIN — either way
    // the session must fail over and the solve must still answer.
    cluster.kill_node(1);
    assert_eq!(cluster.live_nodes(), 2);
    let reply = backend
        .submit(p.problem, lits(&[2]))
        .and_then(|t| backend.wait(t))
        .expect("failover is transparent")
        .expect("live chain after failover");
    assert_eq!(reply.result, SolveResult::Sat);
    assert_eq!(
        reply.problem.node(),
        replica,
        "the session moved to its ring successor"
    );
    let model = reply.model.as_ref().expect("sat model");
    assert!(
        model[0] && model[1],
        "replayed chain x1∧x2 answers its model"
    );

    // The chain keeps extending on the new home, and OLD ids keep
    // working — the remap follows the whole subtree.
    let deeper = backend.solve(reply.problem, lits(&[3])).unwrap().unwrap();
    assert_eq!(deeper.problem.node(), replica);
    let via_old_id = backend.solve(p.problem, lits(&[-3])).unwrap().unwrap();
    assert_eq!(via_old_id.problem.node(), replica, "old ids remap");
    assert!(!via_old_id.model.as_ref().unwrap()[2]);

    // Sessions on surviving nodes are untouched.
    let ok = backend.solve(survivor_root, lits(&[3])).unwrap().unwrap();
    assert_eq!(ok.result, SolveResult::Sat);

    // The promotion is visible in the new home's counters.
    let fleet = backend.node_stats().unwrap();
    let at_replica = fleet.node(replica).unwrap();
    assert!(at_replica.failovers >= 1, "promote served");
    assert!(at_replica.replica_promotions >= 1, "path replayed");
    assert!(at_replica.replica_bytes > 0, "edges were recorded");

    // Per-node drain: the dead node is no longer a member; the two
    // survivors drain clean.
    let drained = backend.shutdown();
    assert_eq!(drained.len(), 2, "failed node left the member list");
    for (node, result) in drained {
        assert_ne!(node, 1);
        result.unwrap_or_else(|e| panic!("survivor {node} failed to drain: {e}"));
    }
    cluster.shutdown();
}

/// With nowhere to replicate (a 1-node cluster), node death still
/// surfaces the typed per-node error — fast, no hang (the failed_node
/// helper proves the NodeError payload survives the failover path).
#[test]
fn failover_without_a_replica_stays_a_typed_error() {
    let mut cluster = Cluster::start_local(1, ServiceConfig::new(2), 1).unwrap();
    let backend = cluster.connect().unwrap();
    let root = backend.session_root(3).unwrap();
    let p = backend.solve(root, lits(&[1])).unwrap().unwrap();

    cluster.kill_node(0);
    let err = backend
        .submit(p.problem, lits(&[2]))
        .and_then(|t| backend.wait(t))
        .expect_err("no replica to fail over to");
    assert_eq!(failed_node(&err), Some(0), "typed per-node error: {err}");
    // And new sessions cannot be placed on an empty ring.
    let err = backend.session_root(99).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NotConnected);
    cluster.shutdown();
}

/// A request routed to the wrong node is rejected by the SERVER with
/// the typed `WrongNode` protocol error — the id never aliases into a
/// dead reference on the wrong node's tree.
#[test]
fn misrouted_ids_are_rejected_by_the_server() {
    let cluster = Cluster::start_local(2, ServiceConfig::new(2), 1).unwrap();
    let addrs = cluster.addrs();
    let node1 = addrs.iter().find(|(id, _)| *id == 1).unwrap().1;
    let direct = lwsnap_service::PipelinedClient::connect(node1).unwrap();

    // A direct client labels its stats with the daemon's REAL node id,
    // not a hardcoded 0.
    let fleet = direct.node_stats().unwrap();
    assert_eq!(fleet.nodes.len(), 1);
    assert_eq!(fleet.nodes[0].0, 1, "stats attributed to node 1");

    // An id stamped node 0, sent straight to node 1.
    let foreign = ProblemId::from_wire(0).to_wire(); // node 0, shard 0, root
    let response = direct
        .call(&Request::Solve {
            parent: foreign,
            clauses: vec![vec![1]],
        })
        .unwrap();
    let Response::Error(msg) = response else {
        panic!("expected a WrongNode error, got {response:?}");
    };
    assert!(
        msg.contains("routed to node 0") && msg.contains("this is node 1"),
        "typed routing diagnosis: {msg}"
    );
    // Releases are checked the same way.
    let response = direct.call(&Request::Release { problem: foreign }).unwrap();
    assert!(matches!(response, Response::Error(m) if m.contains("node")));

    // The ClusterBackend itself refuses ids for nodes it has no
    // connection to, before anything touches a socket.
    let backend = cluster.connect().unwrap();
    let unknown = ProblemId::from_wire(9u64 << 48).to_wire();
    let err = backend
        .submit(ProblemId::from_wire(unknown), lits(&[1]))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    assert_eq!(failed_node(&err), Some(9));

    cluster.shutdown();
}

/// The ISSUE's rebalance acceptance bound, at the public-API level:
/// removing 1 of N nodes from the ring moves ≤ 2/N of 4096 session
/// keys, and no surviving node's keys move at all.
#[test]
fn ring_rebalance_bound_holds_at_the_public_api() {
    for n in 2..=6u16 {
        let ring = Ring::new(0..n, 0x5eed);
        let mut shrunk = ring.clone();
        shrunk.remove_node(n - 1);
        let mut moved = 0u64;
        for key in 0..4096u64 {
            let before = ring.node_for(key).unwrap();
            let after = shrunk.node_for(key).unwrap();
            if before == n - 1 {
                moved += 1;
            } else {
                assert_eq!(before, after, "key {key} moved off a survivor");
            }
        }
        assert!(
            moved <= 2 * 4096 / n as u64,
            "{moved}/4096 keys moved at N={n}"
        );
    }
}

/// Protocol-level check that the placement-aware id keeps its
/// pre-cluster wire compatibility (node 0 ids are the old packing).
#[test]
fn wire_ids_stay_backward_compatible() {
    let id = ProblemId::from_wire(3u64 << 32 | 17);
    assert_eq!(id.node(), 0);
    assert_eq!(id.shard(), 3);
    assert_eq!(id.to_wire(), 3u64 << 32 | 17);
    assert_eq!(
        ProblemId::from_wire_checked(id.to_wire(), 0, 4),
        Ok(id),
        "old ids decode on a node-0 (single-node) service"
    );
    assert_eq!(
        ProblemId::from_wire_checked(id.to_wire(), 2, 4),
        Err(protocol::ProtoError::WrongNode {
            got: 0,
            expected: 2
        })
    );
}
