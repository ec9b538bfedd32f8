//! One park/notify monitor for every blocking hand-off: the parallel
//! engine's frontier, the service pool's job queue and the pipelined
//! client's reply wait. Each is a plain state whose transitions return
//! a [`Wake`]; `notify_all` is called only when a transition asks for it
//! while a thread is parked, counted under the same lock, so no wake-up
//! is lost or wasted. `Guarded` makes these decisions without a lock:
//! [`Parking`] locks, calls it, waits and notifies, and
//! [`crate::schedule`] drives it through every interleaving.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a transition asks of the threads parked on its monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Nothing a parked thread waits for changed.
    Nobody,
    /// Every parked thread re-checks the state.
    Parked,
}

/// A monitor's state, as its lock holder sees it, and its parked count.
#[derive(Debug, Clone, Hash)]
pub(crate) struct Guarded<S> {
    /// The caller's state.
    pub(crate) state: S,
    pub(crate) parked: usize,
}

impl<S> Guarded<S> {
    /// Runs `transition`; returns its result and whether to notify.
    pub(crate) fn update<R>(&mut self, transition: impl FnOnce(&mut S) -> (R, Wake)) -> (R, bool) {
        let (result, wake) = transition(&mut self.state);
        (result, wake == Wake::Parked && self.parked > 0)
    }

    /// One check of a wait: `ready`'s answer, or `None` and the caller
    /// counted as parked.
    pub(crate) fn poll<R>(&mut self, ready: impl FnOnce(&mut S) -> Option<R>) -> Option<R> {
        let result = ready(&mut self.state);
        self.parked += usize::from(result.is_none());
        result
    }

    /// Uncounts a parked thread that woke and holds the lock again.
    pub(crate) fn unpark(&mut self) {
        self.parked -= 1;
    }
}

/// The monitor: a `Guarded` state behind a `Mutex`, and one `Condvar`.
/// A poisoned lock is recovered: transitions leave the state valid at
/// every step, and a retire runs in a `Drop`, where a panic would abort.
pub struct Parking<S> {
    guarded: Mutex<Guarded<S>>,
    ready: Condvar,
}

impl<S> Parking<S> {
    /// A monitor over `state`.
    pub fn new(state: S) -> Self {
        Parking {
            guarded: Mutex::new(Guarded { state, parked: 0 }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Guarded<S>> {
        self.guarded.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks while `ready` returns `None`; returns its first answer.
    pub fn wait_for<R>(&self, mut ready: impl FnMut(&mut S) -> Option<R>) -> R {
        let mut guarded = self.lock();
        loop {
            if let Some(result) = guarded.poll(&mut ready) {
                return result;
            }
            guarded = self
                .ready
                .wait(guarded)
                .unwrap_or_else(PoisonError::into_inner);
            guarded.unpark();
        }
    }

    /// Runs `transition` under the lock; notifies as `Guarded` says.
    pub fn update<R>(&self, transition: impl FnOnce(&mut S) -> (R, Wake)) -> R {
        let mut guarded = self.lock();
        let (result, notify) = guarded.update(transition);
        if notify {
            self.ready.notify_all();
        }
        result
    }

    /// Threads parked now; tests wait on it to know a thread has parked.
    pub fn parked(&self) -> usize {
        self.lock().parked
    }

    /// The state, once no thread shares the monitor.
    pub fn into_inner(self) -> S {
        self.guarded
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .state
    }
}
