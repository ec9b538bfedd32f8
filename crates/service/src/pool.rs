//! The worker pool: M threads executing solve requests concurrently.
//!
//! Requests flow through one shared [`Injector`] — the lock-free
//! segment-list queue from `lwsnap_core::workqueue` — so a client can
//! inject a whole batch of independent queries with a single atomic
//! tail swap and the pool fans them out across workers, each pop one
//! `fetch_add` on the head segment's claim cursor. True parallelism
//! comes from sharding: two jobs on different shards solve
//! concurrently; two jobs on the same shard serialise on that shard's
//! lock (and nothing else).

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use lwsnap_core::workqueue::Injector;
use lwsnap_solver::Lit;
use lwsnap_trace as trace;

use crate::sharded::{ProblemId, ShardedService, SolveReply};
use crate::stats::WorkerStats;

/// A completion callback: invoked exactly once with the reply (or
/// dropped uninvoked if the pool shuts down before serving the job —
/// the drop is the cancellation signal, e.g. an `mpsc::Sender` going
/// away).
type Complete = Box<dyn FnOnce(Option<SolveReply>) + Send>;

struct Job {
    parent: ProblemId,
    clauses: Vec<Vec<Lit>>,
    complete: Complete,
    /// Submission instant (trace clock) — queue-wait attribution.
    queued_at: u64,
}

/// A fixed pool of worker threads serving a [`ShardedService`].
pub struct WorkerPool {
    service: Arc<ShardedService>,
    injector: Arc<Injector<Job>>,
    workers: Vec<JoinHandle<WorkerStats>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) over `service`.
    pub fn new(service: Arc<ShardedService>, workers: usize) -> Self {
        let injector: Arc<Injector<Job>> = Arc::new(Injector::new());
        let handles = (0..workers.max(1))
            .map(|index| {
                let service = Arc::clone(&service);
                let injector = Arc::clone(&injector);
                std::thread::spawn(move || worker_loop(&service, &injector, index))
            })
            .collect();
        WorkerPool {
            service,
            injector,
            workers: handles,
        }
    }

    /// A cloneable handle for submitting requests.
    pub fn client(&self) -> PoolClient {
        PoolClient {
            service: Arc::clone(&self.service),
            injector: Arc::clone(&self.injector),
        }
    }

    /// The service this pool executes against.
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.service
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (not yet claimed by a worker) — a racy but
    /// bounded backpressure signal for admission control.
    pub fn queue_depth(&self) -> usize {
        self.injector.len()
    }

    /// Drains the queue, stops the workers and returns their counters.
    /// In-flight and already-queued jobs complete; new submissions are
    /// rejected (clients observe `None` replies).
    pub fn shutdown(self) -> Vec<WorkerStats> {
        self.injector.close();
        let stats: Vec<WorkerStats> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        // The lock-free injector's close is advisory under races: a
        // submit that passed the closed check concurrently with close()
        // may be accepted after the workers' final drain. Quiesce those
        // in-flight producers, then drop whatever jobs remain — their
        // reply senders close, so blocked clients observe `None`
        // instead of hanging on a job nobody will ever execute.
        self.injector.quiesce();
        while self.injector.try_pop().is_some() {}
        stats
    }
}

fn worker_loop(service: &ShardedService, injector: &Injector<Job>, index: usize) -> WorkerStats {
    let mut stats = WorkerStats::default();
    while let Some(Job {
        parent,
        clauses,
        complete,
        queued_at,
    }) = injector.pop()
    {
        let started = Instant::now();
        trace::span(trace::Kind::QueueWait, queued_at, index as u64, 0);
        trace::Registry::global()
            .queue_wait_ns
            .record(trace::now_ns().saturating_sub(queued_at));
        complete(service.solve(parent, &clauses));
        stats.jobs += 1;
        stats.busy += started.elapsed();
    }
    stats
}

/// A reactor-owned completion mailbox: workers [`push`] finished
/// results from their threads, the reactor [`drain`]s the whole batch
/// under one lock acquisition per wakeup. Each reactor of the
/// multi-reactor front end owns exactly one, so completions never
/// funnel through a shared queue — the worker→reactor path scales
/// with the reactor count.
///
/// [`push`]: CompletionQueue::push
/// [`drain`]: CompletionQueue::drain
pub struct CompletionQueue<T> {
    items: Mutex<Vec<T>>,
    /// Deepest batch ever drained — the queue-depth stat the loadgen
    /// prints per reactor.
    peak: AtomicUsize,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue {
            items: Mutex::new(Vec::new()),
            peak: AtomicUsize::new(0),
        }
    }
}

impl<T> CompletionQueue<T> {
    /// An empty queue.
    pub fn new() -> CompletionQueue<T> {
        CompletionQueue::default()
    }

    /// Enqueues one completion; returns the queue depth after the push
    /// (callers typically follow with a poller notify).
    pub fn push(&self, item: T) -> usize {
        let mut items = self.items.lock().unwrap();
        items.push(item);
        let depth = items.len();
        drop(items);
        self.peak.fetch_max(depth, AtomicOrdering::Relaxed);
        depth
    }

    /// Takes the whole pending batch (oldest first).
    pub fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock().unwrap())
    }

    /// Deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        self.peak.load(AtomicOrdering::Relaxed)
    }
}

/// Client handle onto a [`WorkerPool`]'s injector. Cloneable and
/// shareable across session threads.
#[derive(Clone)]
pub struct PoolClient {
    service: Arc<ShardedService>,
    injector: Arc<Injector<Job>>,
}

impl PoolClient {
    /// The service the pool executes against.
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.service
    }

    /// Submits one solve request with an explicit completion callback,
    /// invoked on the worker thread that executes the job. This is the
    /// primitive the readiness-loop front end uses to route completions
    /// back to its reactor; most callers want [`PoolClient::submit`] or
    /// the [`crate::SolverBackend`] impl instead. If the pool shuts
    /// down before the job runs, the callback is dropped unexecuted.
    pub fn submit_with(
        &self,
        parent: ProblemId,
        clauses: Vec<Vec<Lit>>,
        complete: impl FnOnce(Option<SolveReply>) + Send + 'static,
    ) {
        self.injector.push(Job {
            parent,
            clauses,
            complete: Box::new(complete),
            queued_at: trace::now_ns(),
        });
    }

    /// Submits one solve request; the receiver yields the reply when a
    /// worker gets to it (`None` reply for dead references, `Err` on
    /// recv if the pool shut down first).
    pub fn submit(
        &self,
        parent: ProblemId,
        clauses: Vec<Vec<Lit>>,
    ) -> mpsc::Receiver<Option<SolveReply>> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(parent, clauses, move |reply| {
            // A dropped receiver (client gave up) is not an error.
            let _ = tx.send(reply);
        });
        rx
    }

    /// Synchronous solve: submit and wait.
    pub fn solve(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> Option<SolveReply> {
        self.submit(parent, clauses).recv().unwrap_or(None)
    }

    /// Submits a batch of independent queries under **one** injector
    /// lock acquisition and waits for all replies, in request order.
    pub fn solve_batch(
        &self,
        requests: Vec<(ProblemId, Vec<Vec<Lit>>)>,
    ) -> Vec<Option<SolveReply>> {
        let mut receivers = Vec::with_capacity(requests.len());
        let jobs: Vec<Job> = requests
            .into_iter()
            .map(|(parent, clauses)| {
                let (tx, rx) = mpsc::channel();
                receivers.push(rx);
                Job {
                    parent,
                    clauses,
                    complete: Box::new(move |reply| {
                        let _ = tx.send(reply);
                    }),
                    queued_at: trace::now_ns(),
                }
            })
            .collect();
        self.injector.push_batch(jobs);
        receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(None))
            .collect()
    }

    /// Releases on the calling thread (one shard lock), so any request
    /// submitted afterwards sees the reference dead. A queued release
    /// could lose that race to a later solve popped by another worker.
    pub fn release(&self, id: ProblemId) {
        self.service.release(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ServiceConfig;
    use lwsnap_solver::SolveResult;

    fn lits(c: &[i64]) -> Vec<Vec<Lit>> {
        vec![c.iter().map(|&v| Lit::from_dimacs(v)).collect()]
    }

    #[test]
    fn pool_solves_and_shuts_down() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), 3);
        let client = pool.client();
        let root = service.session_root(1);
        let p = client.solve(root, lits(&[1, 2])).unwrap();
        assert_eq!(p.result, SolveResult::Sat);
        let q = client.solve(p.problem, lits(&[-1])).unwrap();
        assert_eq!(q.result, SolveResult::Sat);
        assert_eq!(pool.queue_depth(), 0, "idle pool has an empty queue");
        let stats = pool.shutdown();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 2);
        // After shutdown, submissions resolve to None instead of hanging.
        assert!(client.solve(root, lits(&[3])).is_none());
    }

    #[test]
    fn batch_replies_in_request_order() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), 4);
        let client = pool.client();
        // One independent query per shard, plus one dead reference.
        let mut requests: Vec<(ProblemId, Vec<Vec<Lit>>)> = (0..4)
            .map(|s| {
                let root = service.root(s).unwrap();
                (root, lits(&[s as i64 + 1]))
            })
            .collect();
        requests.push((ProblemId::from_wire(77u64 << 32), lits(&[1])));
        let replies = client.solve_batch(requests);
        assert_eq!(replies.len(), 5);
        for (s, reply) in replies.iter().take(4).enumerate() {
            let reply = reply.as_ref().expect("live shard root");
            assert_eq!(reply.result, SolveResult::Sat);
            assert_eq!(reply.problem.shard(), s, "reply order matches");
        }
        assert!(replies[4].is_none(), "dead reference answers None");
        pool.shutdown();
    }

    #[test]
    fn completion_queue_batches_and_tracks_peak() {
        let q = CompletionQueue::new();
        assert_eq!(q.push(1), 1);
        assert_eq!(q.push(2), 2);
        assert_eq!(q.push(3), 3);
        assert_eq!(q.drain(), vec![1, 2, 3]);
        assert!(q.drain().is_empty());
        assert_eq!(q.push(4), 1, "depth resets after a drain");
        assert_eq!(q.peak_depth(), 3, "peak survives the drain");
    }

    #[test]
    fn concurrent_sessions_make_progress() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), 4);
        let sessions: Vec<_> = (0..8u64)
            .map(|session| {
                let client = pool.client();
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let mut cur = service.session_root(session);
                    for step in 0..4i64 {
                        let v = 1 + (session as i64 * 4 + step) % 8;
                        let reply = client.solve(cur, lits(&[v])).expect("live chain");
                        assert_eq!(reply.result, SolveResult::Sat);
                        cur = reply.problem;
                    }
                })
            })
            .collect();
        for s in sessions {
            s.join().unwrap();
        }
        assert_eq!(service.stats().queries, 32);
        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 32);
    }
}
