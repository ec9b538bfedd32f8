//! Schedule checking: every interleaving of a few model threads, by
//! `sys_guess`-style backtracking.
//!
//! A [`Model`] is a handful of threads over shared state, each step one
//! lock acquisition's worth of work. [`check`] runs the model under
//! [`replay_dfs`]: at every step a `guess` picks which runnable thread
//! takes the lock next, so the enumeration covers every schedule. A
//! state seen before is not explored again — the seen-set is keyed by
//! the state's hash and keeps the choice prefix that first reached it,
//! because `replay_dfs` re-executes that prefix to reach its siblings.
//!
//! Threads parked on a [`crate::parking::Parking`] monitor are modelled
//! by [`Monitor`], which drives the monitor's own `Guarded` decisions:
//! a thread whose wait is not ready parks, a transition that wakes makes
//! every parked thread runnable again, and a woken thread re-checks its
//! wait when it next takes the lock.
//!
//! A violating schedule is shrunk — removing runs of steps, longest
//! first, down to single steps, while the same violation remains — and
//! the check panics with it printed one step per line (`t1 push`,
//! `t0 park`, `t2 retire`, …).

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::parking::{Guarded, Wake};
use crate::replay::{replay_dfs, Outcome};

/// A system of threads whose every interleaving [`check`] explores.
pub trait Model: Clone + Hash {
    /// How many threads the model runs.
    fn threads(&self) -> usize;
    /// Whether `thread` can take a step now.
    fn runnable(&self, thread: usize) -> bool;
    /// Runs one step of `thread`, which is runnable; returns what it
    /// did, for a printed schedule.
    fn step(&mut self, thread: usize) -> String;
    /// The properties, checked after every step; `quiescent` when no
    /// thread can run any more.
    fn check(&self, quiescent: bool) -> Result<(), String>;
}

/// The size of a finished check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Schedules executed, pruned ones included.
    pub schedules: u64,
    /// Distinct states reached.
    pub states: usize,
}

/// Explores every schedule of `model`; panics with a shrunk, printed
/// schedule at the first one that violates [`Model::check`].
pub fn check<M: Model>(model: &M) -> Checked {
    let mut seen: HashMap<u64, Box<[u8]>> = HashMap::new();
    let mut found = None;
    let result = replay_dfs(
        |ctx| {
            let mut run = model.clone();
            let (mut choices, mut schedule) = (Vec::new(), Vec::new());
            loop {
                let runnable = runnable(&run);
                if runnable.is_empty() {
                    return Outcome::Failed;
                }
                let choice = ctx.guess(runnable.len() as u64) as usize;
                choices.push(u8::try_from(choice).expect("at most 256 threads"));
                schedule.push(runnable[choice]);
                run.step(runnable[choice]);
                if let Err(violation) = run.check(quiescent(&run)) {
                    found = Some((schedule, violation));
                    return Outcome::Solution;
                }
                let mut hasher = DefaultHasher::new();
                run.hash(&mut hasher);
                match seen.entry(hasher.finish()) {
                    Entry::Occupied(first) if **first.get() != choices[..] => {
                        return Outcome::Failed;
                    }
                    Entry::Occupied(_) => {}
                    Entry::Vacant(slot) => {
                        slot.insert(choices.clone().into());
                    }
                }
            }
        },
        Some(1),
    );
    if let Some((schedule, violation)) = found {
        panic!("{}", shrink(model, schedule, violation));
    }
    Checked {
        schedules: result.stats.executions,
        states: seen.len(),
    }
}

fn runnable<M: Model>(model: &M) -> Vec<usize> {
    (0..model.threads())
        .filter(|&thread| model.runnable(thread))
        .collect()
}

fn quiescent<M: Model>(model: &M) -> bool {
    (0..model.threads()).all(|thread| !model.runnable(thread))
}

/// Replays `schedule`, skipping steps of threads that cannot run; the
/// steps taken and the violation, if it ends in one.
fn replay<M: Model>(model: &M, schedule: &[usize]) -> (Vec<(usize, String)>, Option<String>) {
    let mut run = model.clone();
    let mut steps = Vec::new();
    for &thread in schedule {
        if run.runnable(thread) {
            steps.push((thread, run.step(thread)));
            if let Err(violation) = run.check(quiescent(&run)) {
                return (steps, Some(violation));
            }
        }
    }
    (steps, None)
}

/// Shrinks a schedule that ends in `violation` — removing runs of
/// steps, longest first, at every offset, while the same violation
/// remains — and prints it.
fn shrink<M: Model>(model: &M, mut schedule: Vec<usize>, violation: String) -> String {
    let found = schedule.len();
    let mut chunk = schedule.len();
    while chunk > 0 {
        let mut at = 0;
        while at + chunk <= schedule.len() {
            let mut candidate = schedule.clone();
            candidate.drain(at..at + chunk);
            match replay(model, &candidate) {
                (steps, Some(v)) if v == violation => {
                    schedule = steps.into_iter().map(|(thread, _)| thread).collect();
                    chunk = chunk.min(schedule.len());
                    at = 0;
                }
                _ => at += 1,
            }
        }
        chunk -= 1;
    }
    let (steps, _) = replay(model, &schedule);
    let mut out = format!(
        "{violation}\nafter this schedule ({} steps, shrunk from {found}):\n",
        steps.len()
    );
    for (thread, label) in steps {
        out += &format!("  t{thread} {label}\n");
    }
    out
}

/// Where a model thread stands with its monitor.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
enum Status {
    Running,
    Parked,
    Woken,
    Done,
}

/// Model threads sharing one [`crate::parking::Parking`] monitor: the
/// monitor's `Guarded` state plus each thread's park status, with the
/// shell's `wait_for` and `update` taken one lock acquisition at a time.
#[derive(Debug, Clone, Hash)]
pub struct Monitor<S> {
    guarded: Guarded<S>,
    status: Vec<Status>,
}

impl<S> Monitor<S> {
    /// `threads` running threads over `state`.
    pub fn new(state: S, threads: usize) -> Self {
        Monitor {
            guarded: Guarded { state, parked: 0 },
            status: vec![Status::Running; threads],
        }
    }

    /// The state under the monitor.
    pub fn state(&self) -> &S {
        &self.guarded.state
    }

    /// Whether `thread` has neither ended nor parked un-woken.
    pub fn runnable(&self, thread: usize) -> bool {
        matches!(self.status[thread], Status::Running | Status::Woken)
    }

    /// One pass of `thread`'s `wait_for`: a woken thread first uncounts
    /// its park; `None` means the thread parked.
    pub fn wait_for<R>(
        &mut self,
        thread: usize,
        ready: impl FnOnce(&mut S) -> Option<R>,
    ) -> Option<R> {
        if self.status[thread] == Status::Woken {
            self.guarded.unpark();
        }
        let result = self.guarded.poll(ready);
        self.status[thread] = match result {
            Some(_) => Status::Running,
            None => Status::Parked,
        };
        result
    }

    /// `thread`'s `update`: a notify makes every parked thread runnable.
    pub fn update<R>(&mut self, transition: impl FnOnce(&mut S) -> (R, Wake)) -> R {
        let (result, notify) = self.guarded.update(transition);
        if notify {
            for status in &mut self.status {
                if *status == Status::Parked {
                    *status = Status::Woken;
                }
            }
        }
        result
    }

    /// Marks `thread` finished.
    pub fn end(&mut self, thread: usize) {
        self.status[thread] = Status::Done;
    }

    /// The threads parked with no wake-up on its way.
    pub fn stranded(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.status.len()).filter(|&thread| self.status[thread] == Status::Parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thread 0 waits for a flag that thread 1 sets, waking as told.
    #[derive(Clone, Hash)]
    struct Flag {
        monitor: Monitor<bool>,
        wake: bool,
    }

    impl Model for Flag {
        fn threads(&self) -> usize {
            2
        }

        fn runnable(&self, thread: usize) -> bool {
            self.monitor.runnable(thread)
        }

        fn step(&mut self, thread: usize) -> String {
            if thread == 0 {
                match self.monitor.wait_for(0, |set| set.then_some(())) {
                    Some(()) => {
                        self.monitor.end(0);
                        "see the flag".into()
                    }
                    None => "park".into(),
                }
            } else {
                let wake = if self.wake {
                    Wake::Parked
                } else {
                    Wake::Nobody
                };
                self.monitor.update(|set| {
                    *set = true;
                    ((), wake)
                });
                self.monitor.end(1);
                "set the flag".into()
            }
        }

        fn check(&self, quiescent: bool) -> Result<(), String> {
            if quiescent && self.monitor.stranded().next().is_some() {
                return Err("a thread is parked when nothing can run".into());
            }
            Ok(())
        }
    }

    #[test]
    fn a_waking_set_passes_on_every_schedule() {
        let flag = Flag {
            monitor: Monitor::new(false, 2),
            wake: true,
        };
        // Set, then see; or park, set and wake, then see.
        assert_eq!(check(&flag).schedules, 2);
    }

    #[test]
    fn a_lost_wake_up_fails_with_the_shrunk_schedule() {
        let flag = Flag {
            monitor: Monitor::new(false, 2),
            wake: false,
        };
        let failure = std::panic::catch_unwind(|| check(&flag)).expect_err("the lost wake-up");
        let printed = failure
            .downcast_ref::<String>()
            .expect("a printed schedule");
        assert!(
            printed.starts_with("a thread is parked when nothing can run\n"),
            "{printed}"
        );
        assert!(
            printed.ends_with("  t0 park\n  t1 set the flag\n"),
            "{printed}"
        );
    }
}
