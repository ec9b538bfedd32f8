//! Fine-grained work-distribution throughput: locked vs lock-free.
//!
//! The acceptance bench for the lock-free work-distribution PR. Two
//! backends run the *same* workloads:
//!
//! * **locked** — the PR-2 design: one `Mutex<VecDeque>` per worker,
//!   LIFO owner pops at the back, FIFO steals at the front, every
//!   operation under the lock (batch pushes amortise to one acquisition,
//!   exactly as the old engine did);
//! * **lockfree** — the Chase–Lev [`lwsnap_core::deque`]: owner pushes
//!   are a store + `Release` publish, owner pops a fence + load, steals
//!   one CAS.
//!
//! Workloads:
//!
//! * `churn/*` — single-owner push/pop bursts (the engine's depth-first
//!   fast path): the pure per-operation cost, no contention at all. This
//!   is the "fine-grained items" regime the ISSUE names: when an item
//!   costs nanoseconds, the distribution layer *is* the run time.
//! * `tree/*/{W}` — W workers cooperatively consuming a synthetic task
//!   tree (every item fans out into two children up to a fixed total),
//!   popping locally and stealing when dry — the parallel engine's
//!   access pattern with the guest work stripped out.
//!
//! Throughput is reported in items/s (criterion `Elements`), so the
//! locked/lock-free ratio reads directly off the report. The shim's
//! `BENCH_JSON_DIR` hook additionally records min/median/mean for the
//! perf trajectory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lwsnap_core::deque::{Deque, Steal};

// ---------------------------------------------------------------------
// The locked baseline: PR 2's work-distribution layer, verbatim shape.
// ---------------------------------------------------------------------

/// One `Mutex<VecDeque>` per worker: push/extend at the back under the
/// lock, owner pops the back, thieves pop the front.
struct LockedDeques {
    deques: Vec<Mutex<VecDeque<u64>>>,
}

impl LockedDeques {
    fn new(workers: usize) -> Self {
        LockedDeques {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    fn push_batch(&self, me: usize, items: impl IntoIterator<Item = u64>) {
        let mut deque = self.deques[me].lock().unwrap();
        deque.extend(items);
    }

    fn find_work(&self, me: usize) -> Option<u64> {
        if let Some(item) = self.deques[me].lock().unwrap().pop_back() {
            return Some(item);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(item) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(item);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Workload: cooperative task-tree consumption.
// ---------------------------------------------------------------------

/// Every popped item < `fanout_below` pushes two children; the run ends
/// when `total` items have been processed. Returns items processed.
fn tree_locked(workers: usize, total: usize) -> usize {
    let shared = LockedDeques::new(workers);
    let processed = AtomicUsize::new(0);
    shared.push_batch(0, [1u64]);
    std::thread::scope(|scope| {
        for me in 0..workers {
            let shared = &shared;
            let processed = &processed;
            scope.spawn(move || loop {
                let done = processed.load(Ordering::Relaxed) >= total;
                if done {
                    break;
                }
                match shared.find_work(me) {
                    Some(v) => {
                        processed.fetch_add(1, Ordering::Relaxed);
                        shared.push_batch(me, [v.wrapping_mul(3) + 1, v.wrapping_mul(3) + 2]);
                    }
                    None => std::thread::yield_now(),
                }
            });
        }
    });
    processed.load(Ordering::Relaxed)
}

fn tree_lockfree(workers: usize, total: usize) -> usize {
    let mut deques: Vec<Deque<u64>> = (0..workers).map(|_| Deque::new()).collect();
    let stealers: Vec<_> = deques.iter().map(Deque::stealer).collect();
    let processed = AtomicUsize::new(0);
    deques[0].push(1);
    std::thread::scope(|scope| {
        for (me, mut own) in deques.into_iter().enumerate() {
            let stealers = &stealers;
            let processed = &processed;
            scope.spawn(move || loop {
                if processed.load(Ordering::Relaxed) >= total {
                    break;
                }
                let item = own.pop().or_else(|| {
                    let n = stealers.len();
                    for offset in 1..n {
                        loop {
                            match stealers[(me + offset) % n].steal() {
                                Steal::Success(v) => return Some(v),
                                Steal::Empty => break,
                                Steal::Retry => std::hint::spin_loop(),
                            }
                        }
                    }
                    None
                });
                match item {
                    Some(v) => {
                        processed.fetch_add(1, Ordering::Relaxed);
                        own.push(v.wrapping_mul(3) + 1);
                        own.push(v.wrapping_mul(3) + 2);
                    }
                    None => std::thread::yield_now(),
                }
            });
        }
    });
    processed.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Benches.
// ---------------------------------------------------------------------

/// Single-owner push/pop churn: the engine's inline fast path.
fn bench_churn(c: &mut Criterion) {
    const OPS: usize = 4096; // push+pop pairs per iteration
    let mut group = c.benchmark_group("deque_scaling/churn");
    group.throughput(Throughput::Elements(OPS as u64 * 2));

    group.bench_function("locked", |b| {
        let shared = LockedDeques::new(1);
        b.iter(|| {
            // Sibling batches of 8, like a fan-out-8 guess, then drain.
            for base in 0..(OPS as u64 / 8) {
                shared.push_batch(0, (0..8).map(|i| base * 8 + i));
                for _ in 0..8 {
                    criterion::black_box(shared.find_work(0));
                }
            }
        })
    });

    group.bench_function("lockfree", |b| {
        let mut deque: Deque<u64> = Deque::new();
        b.iter(|| {
            for base in 0..(OPS as u64 / 8) {
                for i in 0..8 {
                    deque.push(base * 8 + i);
                }
                for _ in 0..8 {
                    criterion::black_box(deque.pop());
                }
            }
        })
    });
    group.finish();
}

/// W workers consuming a shared task tree of fine-grained items.
fn bench_tree(c: &mut Criterion) {
    const TOTAL: usize = 50_000;
    let mut group = c.benchmark_group("deque_scaling/tree");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TOTAL as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("locked", workers),
            &workers,
            |b, &workers| b.iter(|| criterion::black_box(tree_locked(workers, TOTAL))),
        );
        group.bench_with_input(
            BenchmarkId::new("lockfree", workers),
            &workers,
            |b, &workers| b.iter(|| criterion::black_box(tree_lockfree(workers, TOTAL))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_churn, bench_tree);
criterion_main!(benches);
