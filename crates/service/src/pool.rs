//! The worker pool: M threads executing solve requests concurrently.
//!
//! Requests flow through one FIFO job queue — a `VecDeque` under the
//! one `Parking` monitor, private to this crate — that the pool fans out
//! across workers. A push wakes only while a worker is parked, so a busy
//! pool makes no wake-up syscalls; a close always wakes them. A
//! reactor's [`CompletionQueue`] push asks for a notify only when empty.
//! True parallelism comes from sharding: two jobs on different shards
//! solve concurrently; two jobs on the same shard serialise on that
//! shard's lock (and nothing else).

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use lwsnap_core::parking::Parking;
use lwsnap_solver::Lit;
use lwsnap_trace as trace;

use crate::sharded::{ProblemId, ShardedService, SolveReply};
use crate::stats::WorkerStats;
use crate::workqueue::JobQueue;

/// A completion callback: invoked exactly once with the reply (or
/// dropped uninvoked if the pool shuts down before accepting the job —
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
    queue: Arc<Parking<JobQueue<Job>>>,
    workers: Vec<JoinHandle<WorkerStats>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) over `service`.
    pub fn new(service: Arc<ShardedService>, workers: usize) -> Self {
        let queue = Arc::new(Parking::new(JobQueue::default()));
        let handles = (0..workers.max(1))
            .map(|index| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || worker_loop(&service, &queue, index))
            })
            .collect();
        WorkerPool {
            service,
            queue,
            workers: handles,
        }
    }

    /// A cloneable handle for submitting requests.
    pub fn client(&self) -> PoolClient {
        PoolClient {
            service: Arc::clone(&self.service),
            queue: Arc::clone(&self.queue),
        }
    }

    /// The service this pool executes against.
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.service
    }

    /// Closes the queue, lets the workers drain it and returns their
    /// counters. Every job accepted before the close completes; a
    /// submission after it is refused (its client observes `None`).
    pub fn shutdown(self) -> Vec<WorkerStats> {
        self.queue.update(JobQueue::close);
        self.workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    }
}

fn worker_loop(
    service: &ShardedService,
    queue: &Parking<JobQueue<Job>>,
    index: usize,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    while let Some(Job {
        parent,
        clauses,
        complete,
        queued_at,
    }) = queue.wait_for(JobQueue::pop)
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

    /// Enqueues one completion; returns whether the caller must notify
    /// the reactor's poller. Only a push onto an empty queue does: a
    /// deeper queue means an earlier push already notified and the
    /// reactor has not drained yet — its eventfd read will see both.
    pub fn push(&self, item: T) -> bool {
        let mut items = self.items.lock().unwrap();
        items.push(item);
        let depth = items.len();
        drop(items);
        self.peak.fetch_max(depth, AtomicOrdering::Relaxed);
        depth == 1
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

/// Client handle onto a [`WorkerPool`]'s job queue. Cloneable and
/// shareable across session threads.
#[derive(Clone)]
pub struct PoolClient {
    service: Arc<ShardedService>,
    queue: Arc<Parking<JobQueue<Job>>>,
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
    /// the [`crate::SolverBackend`] impl instead. If the pool has shut
    /// down, the callback is dropped unexecuted.
    pub fn submit_with(
        &self,
        parent: ProblemId,
        clauses: Vec<Vec<Lit>>,
        complete: impl FnOnce(Option<SolveReply>) + Send + 'static,
    ) {
        let job = Job {
            parent,
            clauses,
            complete: Box::new(complete),
            queued_at: trace::now_ns(),
        };
        self.queue.update(|jobs| jobs.push(job));
    }

    /// Submits one solve request; the receiver yields the reply when a
    /// worker gets to it (`None` reply for dead references, `Err` on
    /// recv if the pool had shut down).
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
    use crate::SolverBackend;
    use lwsnap_core::schedule::{self, Model};
    use lwsnap_solver::SolveResult;
    use std::hash::{Hash, Hasher};
    use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    /// How long any one reply may take before the test calls it a hang.
    const REPLY_BOUND: Duration = Duration::from_secs(5);

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
        let replies = SolverBackend::solve_batch(&client, requests).unwrap();
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
    fn shutdown_racing_submitters_strands_nothing() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), 2);
        let submitted = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..4u64)
            .map(|session| {
                let client = pool.client();
                let submitted = Arc::clone(&submitted);
                std::thread::spawn(move || {
                    let root = client.service().session_root(session);
                    let (mut answered, mut pending) = (Vec::new(), Vec::new());
                    // Capped so a pool that never refuses still ends
                    // the test, by stranding jobs the checks below catch.
                    for v in 1i64..=5000 {
                        let rx = client.submit(root, lits(&[v % 16 + 1]));
                        submitted.fetch_add(1, AtomicOrdering::Relaxed);
                        match rx.try_recv() {
                            Ok(reply) => answered.push(reply),
                            Err(TryRecvError::Empty) => pending.push(rx),
                            // A refused job drops its sender inside
                            // `submit`: the pool has closed.
                            Err(TryRecvError::Disconnected) => break,
                        }
                    }
                    (answered, pending)
                })
            })
            .collect();
        while submitted.load(AtomicOrdering::Relaxed) < 200 {
            std::thread::yield_now();
        }
        let client = pool.client();
        let jobs: u64 = pool.shutdown().iter().map(|w| w.jobs).sum();
        let mut replies = 0u64;
        for submitter in submitters {
            let (mut answered, pending) = submitter.join().unwrap();
            for rx in pending {
                let reply = rx.recv_timeout(REPLY_BOUND);
                answered.push(reply.unwrap_or_else(|e| panic!("accepted job lost: {e}")));
            }
            assert!(answered.iter().all(Option::is_some), "live roots answer");
            replies += answered.len() as u64;
        }
        assert!(replies > 0);
        assert_eq!(jobs, replies, "every accepted job ran exactly once");
        assert_eq!(service.stats().queries, replies);
        let root = service.session_root(0);
        // Refused, not stranded: `solve` reads this as `None` at once.
        let late = client.submit(root, lits(&[1])).recv_timeout(REPLY_BOUND);
        assert!(matches!(late, Err(RecvTimeoutError::Disconnected)));
        assert_eq!(service.stats().queries, replies, "a refused job never runs");
    }

    #[test]
    fn jobs_run_in_submission_order() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(1)));
        let pool = WorkerPool::new(Arc::clone(&service), 1);
        let client = pool.client();
        let root = service.session_root(0);
        let ran = Arc::new(Mutex::new(Vec::new()));
        for index in 0..200usize {
            let ran = Arc::clone(&ran);
            client.submit_with(root, lits(&[index as i64 % 8 + 1]), move |reply| {
                assert!(reply.is_some());
                ran.lock().unwrap().push(index);
            });
        }
        // One batch on the one shard: a fresh shard hands out problem
        // slots in the order its solves run, so the replies' ids rise
        // exactly when the jobs ran in request order.
        let batch: Vec<_> = (1..=16).map(|v| (root, lits(&[v]))).collect();
        let ids: Vec<u64> = SolverBackend::solve_batch(&client, batch)
            .unwrap()
            .into_iter()
            .map(|reply| reply.expect("live root").problem.to_wire())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "batch order: {ids:?}");
        pool.shutdown();
        assert_eq!(*ran.lock().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn idle_pool_wakes_for_every_job() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), 2);
        let client = pool.client();
        let root = service.session_root(0);
        for v in 0..2000i64 {
            let reply = client
                .submit(root, lits(&[v % 16 + 1]))
                .recv_timeout(REPLY_BOUND)
                .unwrap_or_else(|e| panic!("solve {v} was not answered: {e}"))
                .expect("live root");
            client.release(reply.problem);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 2000);
    }

    #[test]
    fn completion_queue_batches_and_tracks_peak() {
        let q = CompletionQueue::new();
        assert!(q.push(1), "the first push notifies");
        assert!(!q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.drain(), vec![1, 2, 3]);
        assert!(q.drain().is_empty());
        assert!(q.push(4), "a push after a drain notifies again");
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

    impl<T: Clone> Clone for CompletionQueue<T> {
        fn clone(&self) -> Self {
            CompletionQueue {
                items: Mutex::new(self.items.lock().unwrap().clone()),
                peak: AtomicUsize::new(self.peak_depth()),
            }
        }
    }

    impl<T: Hash> Hash for CompletionQueue<T> {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.items.lock().unwrap().hash(state);
        }
    }

    /// Where a model worker stands.
    #[derive(Clone, Copy, Hash, PartialEq)]
    enum Worker {
        /// Completions still to push.
        Pushing(u32),
        /// Its push asked for a poller notify it has not sent yet.
        Notifying(u32),
    }

    /// Workers pushing completions onto a real `CompletionQueue` and
    /// notifying as its push asks, and the reactor: asleep until the
    /// eventfd is set, then it consumes it and drains the queue.
    #[derive(Clone, Hash)]
    struct Mailbox {
        queue: CompletionQueue<u32>,
        workers: Vec<Worker>,
        /// The poller's eventfd is set.
        eventfd: bool,
        /// The reactor consumed the eventfd and has yet to drain.
        draining: bool,
        drained: u32,
        pushed: u32,
    }

    impl Model for Mailbox {
        fn threads(&self) -> usize {
            self.workers.len() + 1
        }

        fn runnable(&self, thread: usize) -> bool {
            match self.workers.get(thread) {
                Some(&worker) => worker != Worker::Pushing(0),
                None => self.draining || self.eventfd,
            }
        }

        fn step(&mut self, me: usize) -> String {
            match self.workers.get(me).copied() {
                Some(Worker::Pushing(left)) => {
                    let notify = self.queue.push(self.pushed);
                    self.pushed += 1;
                    self.workers[me] = if notify {
                        Worker::Notifying(left - 1)
                    } else {
                        Worker::Pushing(left - 1)
                    };
                    format!("push {}", self.pushed - 1)
                }
                Some(Worker::Notifying(left)) => {
                    self.eventfd = true;
                    self.workers[me] = Worker::Pushing(left);
                    "notify".into()
                }
                None if self.draining => {
                    self.drained += self.queue.drain().len() as u32;
                    self.draining = false;
                    "drain".into()
                }
                None => {
                    self.eventfd = false;
                    self.draining = true;
                    "wake".into()
                }
            }
        }

        fn check(&self, quiescent: bool) -> Result<(), String> {
            let queued = self.pushed - self.drained;
            let notifying = self
                .workers
                .iter()
                .any(|w| matches!(w, Worker::Notifying(_)));
            if queued > 0 && !self.draining && !self.eventfd && !notifying {
                return Err(
                    "a completion is queued while the reactor sleeps with no notify pending".into(),
                );
            }
            if quiescent && queued > 0 {
                return Err("a completion was never drained".into());
            }
            Ok(())
        }
    }

    #[test]
    fn completion_mailbox_holds_on_every_schedule() {
        for (workers, completions) in [(2, 3), (3, 3)] {
            let started = std::time::Instant::now();
            let checked = schedule::check(&Mailbox {
                queue: CompletionQueue::new(),
                workers: vec![Worker::Pushing(completions); workers],
                eventfd: false,
                draining: false,
                drained: 0,
                pushed: 0,
            });
            eprintln!(
                "mailbox: {workers} workers x {completions} completions: {checked:?} in {:?}",
                started.elapsed()
            );
        }
    }
}
