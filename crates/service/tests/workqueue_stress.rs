//! Stress and property tests for the worker pool's job queue, driven
//! through the public pool API:
//! * submitters × workers with a close mid-stream deliver every
//!   accepted job exactly once;
//! * a close racing the submitters strands nothing: every job either
//!   runs or is refused (its callback dropped), and once a submitter
//!   sees a refusal it sees only refusals;
//! * jobs are claimed in submission order: each worker's stream rises,
//!   and a batch runs in request order.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use lwsnap_service::{ServiceConfig, ShardedService, SolverBackend, WorkerPool};
use lwsnap_solver::Lit;
use proptest::prelude::*;

/// How long any one reply may take before a test calls it a hang.
const REPLY_BOUND: Duration = Duration::from_secs(5);

/// One unit clause over variable `v`.
fn unit(v: i64) -> Vec<Vec<Lit>> {
    vec![vec![Lit::from_dimacs(v)]]
}

/// Collects every message until all senders are gone, failing instead
/// of hanging if one is never sent nor dropped.
fn collect_all<T>(rx: &mpsc::Receiver<T>) -> Vec<T> {
    let mut all = Vec::new();
    loop {
        match rx.recv_timeout(REPLY_BOUND) {
            Ok(item) => all.push(item),
            Err(RecvTimeoutError::Disconnected) => return all,
            Err(RecvTimeoutError::Timeout) => panic!("a job was neither run nor dropped"),
        }
    }
}

/// Runs `f` on a thread of its own, failing instead of hanging if it
/// has not returned within [`REPLY_BOUND`].
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(REPLY_BOUND)
        .unwrap_or_else(|e| panic!("no answer within the bound: {e}"))
}

/// N submitters × M workers; the pool shuts down while the workers are
/// (almost surely) still draining a non-empty queue. Every accepted
/// job must run exactly once — no loss through a missed wake-up, no
/// duplication through a double claim.
#[test]
fn producers_consumers_close_midstream_no_loss_no_duplication() {
    for (submitters, workers) in [(1usize, 4usize), (4, 1), (4, 4), (8, 3)] {
        const JOBS: u64 = 150;
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), workers);
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..submitters as u64)
            .map(|session| {
                let client = pool.client();
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let root = client.service().session_root(session);
                    for i in 0..JOBS {
                        let tx = tx.clone();
                        let tag = session * 1_000_000 + i;
                        client.submit_with(root, unit(i as i64 % 16 + 1), move |reply| {
                            let _ = tx.send((tag, reply.is_some()));
                        });
                        if i % 16 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let jobs: u64 = pool.shutdown().iter().map(|w| w.jobs).sum();

        let mut seen: HashMap<u64, u64> = HashMap::new();
        for (tag, answered) in collect_all(&rx) {
            assert!(answered, "live roots answer");
            *seen.entry(tag).or_default() += 1;
        }
        let total = submitters as u64 * JOBS;
        let label = format!("{submitters}x{workers}");
        assert_eq!(seen.len() as u64, total, "{label}: every job delivered");
        assert!(
            seen.values().all(|&n| n == 1),
            "{label}: none delivered twice"
        );
        assert_eq!(jobs, total, "{label}: workers ran each job once");
        assert_eq!(service.stats().queries, total, "{label}: one solve per job");
    }
}

/// Shutdown racing the submitters strands nothing: every submission
/// either answers or is refused at once, the workers ran exactly the
/// answered ones, and a submitter refused once is refused from then on
/// — the close is exact, so a client can never hang on a job nobody
/// will run.
#[test]
fn close_quiesce_drain_strands_nothing() {
    for round in 0..100u64 {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), 2);
        let submitters: Vec<_> = (0..3u64)
            .map(|session| {
                let client = pool.client();
                std::thread::spawn(move || {
                    let root = client.service().session_root(session);
                    (1..=40i64)
                        .map(|v| client.submit(root, unit(v % 16 + 1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Vary where the close lands among the pushes.
        for _ in 0..round % 8 * 40 {
            std::thread::yield_now();
        }
        let client = pool.client();
        let jobs: u64 = pool.shutdown().iter().map(|w| w.jobs).sum();
        let late = client
            .submit(service.session_root(0), unit(1))
            .recv_timeout(REPLY_BOUND);
        assert!(
            matches!(late, Err(RecvTimeoutError::Disconnected)),
            "round {round}: a push after shutdown is refused, not stranded"
        );
        let mut answered = 0u64;
        for submitter in submitters {
            let mut refused = false;
            for rx in submitter.join().unwrap() {
                match rx.recv_timeout(REPLY_BOUND) {
                    Ok(reply) => {
                        assert!(reply.is_some(), "round {round}: live roots answer");
                        assert!(!refused, "round {round}: a job ran after a refusal");
                        answered += 1;
                    }
                    Err(RecvTimeoutError::Disconnected) => refused = true,
                    Err(RecvTimeoutError::Timeout) => panic!("round {round}: job stranded"),
                }
            }
        }
        assert_eq!(jobs, answered, "round {round}: every accepted job ran once");
        assert_eq!(service.stats().queries, answered, "round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch ordering: on a one-worker pool over one fresh shard, whose
    /// problem slots are handed out in the order its solves run, the
    /// replies' ids rise across the concatenation of the batches
    /// exactly when every batch ran in request order.
    #[test]
    fn batch_push_preserves_fifo_order(batches in proptest::collection::vec(
        proptest::collection::vec(0i64..1000, 0..12), 0..12)) {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(1)));
        let pool = WorkerPool::new(Arc::clone(&service), 1);
        let client = pool.client();
        let root = service.session_root(0);
        let mut ids = Vec::new();
        for batch in &batches {
            let requests = batch.iter().map(|&v| (root, unit(v + 1))).collect();
            let client = client.clone();
            let replies = bounded(move || SolverBackend::solve_batch(&client, requests).unwrap());
            prop_assert_eq!(replies.len(), batch.len());
            for reply in replies {
                ids.push(reply.expect("live root").problem.to_wire());
            }
        }
        pool.shutdown();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "run order: {:?}", ids);
    }

    /// Bursts of jobs drained by several workers: every job runs
    /// exactly once, and each worker claims its jobs in submission
    /// order, so the jobs one worker ran rise strictly.
    #[test]
    fn concurrent_drain_delivers_exact_multiset(
        burst_sizes in proptest::collection::vec(1usize..20, 1..10),
        workers in 1usize..4,
    ) {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), workers);
        let client = pool.client();
        let root = service.session_root(0);
        let (tx, rx) = mpsc::channel();
        let mut next = 0usize;
        for size in &burst_sizes {
            for index in next..next + size {
                let tx = tx.clone();
                client.submit_with(root, unit(index as i64 % 16 + 1), move |reply| {
                    let _ = tx.send((std::thread::current().id(), index, reply.is_some()));
                });
            }
            next += size;
            // Lets idle workers park between bursts.
            std::thread::yield_now();
        }
        drop(tx);
        pool.shutdown();
        let mut streams: HashMap<_, Vec<usize>> = HashMap::new();
        for (worker, index, answered) in collect_all(&rx) {
            prop_assert!(answered);
            streams.entry(worker).or_default().push(index);
        }
        prop_assert!(streams.len() <= workers);
        let mut all = Vec::new();
        for stream in streams.into_values() {
            prop_assert!(stream.windows(2).all(|w| w[0] < w[1]), "claims: {:?}", stream);
            all.extend(stream);
        }
        all.sort_unstable();
        prop_assert_eq!(all, (0..next).collect::<Vec<_>>());
    }
}
