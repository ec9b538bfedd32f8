//! The worker pool's job queue: FIFO, closable, blocking pop. The pool
//! keeps a [`JobQueue`] under the one [`lwsnap_core::parking::Parking`]
//! monitor and calls its transitions there. A push wakes parked
//! consumers and the monitor notifies only while one is parked, so a
//! saturated pool never pays for a wake-up; a close always wakes them.

use std::collections::VecDeque;

use lwsnap_core::parking::Wake;

/// A FIFO queue that hands items to the consumers parked on its
/// monitor until it is closed and drained.
#[derive(Clone, Hash)]
pub(crate) struct JobQueue<T> {
    items: VecDeque<T>,
    /// Set by [`JobQueue::close`]; later pushes are refused.
    closed: bool,
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue {
            items: VecDeque::new(),
            closed: false,
        }
    }
}

impl<T> JobQueue<T> {
    /// Appends `item`, or hands it back once the queue is closed, to be
    /// dropped after the lock is released: a job's completion callback
    /// goes away and its client observes `None`.
    pub(crate) fn push(&mut self, item: T) -> (Option<T>, Wake) {
        if self.closed {
            return (Some(item), Wake::Nobody);
        }
        self.items.push_back(item);
        // Wakes every parked consumer, not one: on a 2-vCPU Xeon, one
        // `notify_one` per job measured up to 6 % higher p50 on the
        // ledger's svc.tree and svc.hard workloads.
        (None, Wake::Parked)
    }

    /// A consumer's wait: the oldest item, `Some(None)` once the queue
    /// is closed and drained, `None` while it must park.
    pub(crate) fn pop(&mut self) -> Option<Option<T>> {
        match self.items.pop_front() {
            Some(item) => Some(Some(item)),
            None => self.closed.then_some(None),
        }
    }

    /// Refuses every later push; items already queued are still handed
    /// out.
    pub(crate) fn close(&mut self) -> ((), Wake) {
        self.closed = true;
        ((), Wake::Parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwsnap_core::parking::Parking;
    use lwsnap_core::schedule::{self, Model, Monitor};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A queue under its monitor, as the pool keeps it.
    type Queue<T> = Parking<JobQueue<T>>;

    fn queue<T>() -> Queue<T> {
        Parking::new(JobQueue::default())
    }

    fn push<T>(q: &Queue<T>, item: T) {
        q.update(|jobs| jobs.push(item));
    }

    fn pop<T>(q: &Queue<T>) -> Option<T> {
        q.wait_for(JobQueue::pop)
    }

    fn close<T>(q: &Queue<T>) {
        q.update(JobQueue::close);
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = queue();
        for i in 1..=5 {
            push(&q, i);
        }
        close(&q);
        let drained: Vec<i32> = std::iter::from_fn(|| pop(&q)).collect();
        assert_eq!(drained, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn close_drains_then_none() {
        let probe = Arc::new(());
        let q = queue();
        push(&q, Arc::clone(&probe));
        push(&q, Arc::clone(&probe));
        close(&q);
        push(&q, Arc::clone(&probe));
        assert_eq!(Arc::strong_count(&probe), 3, "closed queue drops a push");
        assert!(pop(&q).is_some());
        assert!(pop(&q).is_some());
        assert!(pop(&q).is_none());
        assert!(pop(&q).is_none(), "stays drained");
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        let probe = Arc::new(());
        {
            let q = queue();
            for _ in 0..10 {
                push(&q, Arc::clone(&probe));
            }
            drop(pop(&q));
            drop(pop(&q));
            assert_eq!(Arc::strong_count(&probe), 9);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop frees the rest once");
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q = Arc::new(queue());
        // Consumers start first, so most pushes find one parked. Each
        // sends what it drained, so one the close never wakes fails
        // the test below instead of hanging it.
        let (done, drained) = mpsc::channel();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            let done = done.clone();
            std::thread::spawn(move || {
                let _ = done.send(std::iter::from_fn(|| pop(&q)).collect::<Vec<u64>>());
            });
        }
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        push(&q, p * 1000 + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Close once every consumer has drained the queue and parked,
        // so the close's wake-up is what ends them.
        while q.parked() < 3 {
            std::thread::yield_now();
        }
        close(&q);
        let mut all: Vec<u64> = (0..3)
            .flat_map(|_| {
                drained
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a consumer was never woken by the close")
            })
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    /// Producers pushing numbered items, consumers popping until the
    /// queue is drained, and one thread closing it, over the real
    /// `Jobs` transitions. Each accepted item is numbered by the count
    /// accepted before it, so FIFO order means items pop as 0, 1, 2, ….
    #[derive(Clone, Hash)]
    struct Run {
        monitor: Monitor<JobQueue<u32>>,
        /// Pushes still to make, per producer.
        to_push: Vec<u32>,
        consumers: usize,
        accepted: u32,
        popped: u32,
        fault: Option<&'static str>,
    }

    impl Run {
        fn new(producers: usize, items: u32, consumers: usize) -> Self {
            Run {
                monitor: Monitor::new(JobQueue::default(), producers + consumers + 1),
                to_push: vec![items; producers],
                consumers,
                accepted: 0,
                popped: 0,
                fault: None,
            }
        }
    }

    impl Model for Run {
        fn threads(&self) -> usize {
            self.to_push.len() + self.consumers + 1
        }

        fn runnable(&self, thread: usize) -> bool {
            self.monitor.runnable(thread)
        }

        fn step(&mut self, me: usize) -> String {
            let producers = self.to_push.len();
            if me < producers {
                let closed = self.monitor.state().closed;
                let refused = self.monitor.update(|jobs| jobs.push(self.accepted));
                if refused.is_some() != closed {
                    self.fault = Some("a push was refused before the close or taken after it");
                }
                let label = match refused {
                    Some(_) => "push refused".into(),
                    None => format!("push {}", self.accepted),
                };
                self.accepted += u32::from(refused.is_none());
                self.to_push[me] -= 1;
                if self.to_push[me] == 0 {
                    self.monitor.end(me);
                }
                label
            } else if me < producers + self.consumers {
                match self.monitor.wait_for(me, JobQueue::pop) {
                    None => "park".into(),
                    Some(None) => {
                        self.monitor.end(me);
                        "end".into()
                    }
                    Some(Some(item)) => {
                        if item != self.popped {
                            self.fault = Some("an item popped out of FIFO order");
                        }
                        self.popped += 1;
                        format!("pop {item}")
                    }
                }
            } else {
                self.monitor.update(JobQueue::close);
                self.monitor.end(me);
                "close".into()
            }
        }

        fn check(&self, quiescent: bool) -> Result<(), String> {
            let jobs = self.monitor.state();
            if self.monitor.stranded().next().is_some() && (jobs.closed || !jobs.items.is_empty()) {
                return Err(
                    "a consumer is parked while an item is queued or the queue is closed".into(),
                );
            }
            if let Some(fault) = self.fault {
                return Err(fault.into());
            }
            if quiescent
                && (self.monitor.stranded().next().is_some() || self.popped != self.accepted)
            {
                return Err("an accepted item was never popped".into());
            }
            Ok(())
        }
    }

    #[test]
    fn job_queue_holds_on_every_schedule() {
        for (producers, items, consumers) in [(2, 3, 2), (1, 3, 3)] {
            let started = std::time::Instant::now();
            let checked = schedule::check(&Run::new(producers, items, consumers));
            eprintln!(
                "job queue: {producers} producers x {items}, {consumers} consumers, a close: \
                 {checked:?} in {:?}",
                started.elapsed()
            );
        }
    }
}
