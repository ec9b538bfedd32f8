//! One test suite, four backends: the same session script runs against
//! the in-process [`ShardedService`], the [`WorkerPool`], a
//! [`PoolClient`] handle, and a remote [`PipelinedClient`] over real
//! sockets — all through the [`SolverBackend`] trait, with the verdict
//! streams required to be identical.

use std::sync::Arc;

use lwsnap_service::{
    PipelinedClient, Server, ServiceConfig, ShardedService, SolverBackend, WorkerPool,
};
use lwsnap_solver::{model_satisfies, Lit, SolveResult};

fn lits(cs: &[&[i64]]) -> Vec<Vec<Lit>> {
    cs.iter()
        .map(|c| c.iter().map(|&v| Lit::from_dimacs(v)).collect())
        .collect()
}

/// A deterministic session script: chains, branches, a contradiction,
/// overlapped submissions, release, and a dead-reference probe.
/// Returns the verdict stream.
fn run_script(backend: &dyn SolverBackend, session: u64) -> Vec<Option<SolveResult>> {
    let mut verdicts = Vec::new();
    let root = backend.session_root(session).unwrap();

    // Chain: (1∨2) then (¬1) — SAT both times, model verified.
    let p = backend.solve(root, lits(&[&[1, 2]])).unwrap().unwrap();
    verdicts.push(Some(p.result));
    assert!(model_satisfies(
        &lits(&[&[1, 2]]),
        p.model.as_ref().unwrap()
    ));
    let q = backend.solve(p.problem, lits(&[&[-1]])).unwrap().unwrap();
    verdicts.push(Some(q.result));
    assert!(model_satisfies(
        &lits(&[&[1, 2], &[-1]]),
        q.model.as_ref().unwrap()
    ));

    // Branch the SAME parent divergently — multi-path isolation.
    let a = backend.solve(p.problem, lits(&[&[1]])).unwrap().unwrap();
    let b = backend
        .solve(p.problem, lits(&[&[-1], &[2]]))
        .unwrap()
        .unwrap();
    verdicts.push(Some(a.result));
    verdicts.push(Some(b.result));
    assert!(a.model.as_ref().unwrap()[0]);
    assert!(!b.model.as_ref().unwrap()[0]);

    // A contradiction is UNSAT with no model.
    let u = backend
        .solve(q.problem, lits(&[&[1], &[2], &[-2]]))
        .unwrap()
        .unwrap();
    verdicts.push(Some(u.result));
    assert!(u.model.is_none());

    // Overlapped submissions redeemed out of order.
    let t1 = backend.submit(a.problem, lits(&[&[3]])).unwrap();
    let t2 = backend.submit(b.problem, lits(&[&[4]])).unwrap();
    let r2 = backend.wait(t2).unwrap().unwrap();
    let r1 = backend.wait(t1).unwrap().unwrap();
    verdicts.push(Some(r1.result));
    verdicts.push(Some(r2.result));

    // Batch through the provided wrapper, in request order.
    let batch = backend
        .solve_batch(vec![
            (r1.problem, lits(&[&[5]])),
            (r2.problem, lits(&[&[-5]])),
        ])
        .unwrap();
    for reply in &batch {
        verdicts.push(reply.as_ref().map(|r| r.result));
    }

    // Release kills the reference; solving it answers None, not Err.
    backend.release(r1.problem).unwrap();
    let dead = backend.solve(r1.problem, lits(&[&[6]])).unwrap();
    verdicts.push(dead.map(|r| r.result));
    assert!(verdicts.last().unwrap().is_none());

    verdicts
}

#[test]
fn all_backends_agree_on_the_script() {
    // Reference: the in-process sharded service.
    let reference = {
        let service = ShardedService::new(ServiceConfig::new(4));
        run_script(&service, 11)
    };
    assert_eq!(reference.len(), 10);

    // Worker pool (and its cloneable client handle).
    {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), 3);
        assert_eq!(run_script(&pool, 11), reference, "WorkerPool diverged");
        assert_eq!(
            run_script(&pool.client(), 12),
            reference,
            "PoolClient diverged"
        );
        pool.shutdown();
    }

    // Remote: the pipelined client against a real epoll server.
    {
        let server = Server::start("127.0.0.1:0", ServiceConfig::new(4), 2).unwrap();
        let client = PipelinedClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            run_script(&client, 11),
            reference,
            "PipelinedClient diverged"
        );
        // The trait surface also exposes stats uniformly.
        assert!(client.stats().unwrap().queries >= 9);
        server.shutdown();
    }
}

#[test]
fn trait_objects_are_shareable_across_threads() {
    // Arc<dyn SolverBackend> + concurrent sessions: the shape every
    // driver (par_explore, loadgen) uses.
    let service = Arc::new(ShardedService::new(ServiceConfig::new(8)));
    let pool = WorkerPool::new(Arc::clone(&service), 4);
    let backend: Arc<dyn SolverBackend> = Arc::new(pool.client());
    let handles: Vec<_> = (0..8u64)
        .map(|session| {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || {
                let root = backend.session_root(session).unwrap();
                let mut cur = root;
                for step in 0..4i64 {
                    let v = (session as i64 * 4 + step) % 30 + 1;
                    let reply = backend
                        .solve(cur, lits(&[&[v]]))
                        .unwrap()
                        .expect("live chain");
                    assert_eq!(reply.result, SolveResult::Sat);
                    cur = reply.problem;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(service.stats().queries, 32);
    pool.shutdown();
}
