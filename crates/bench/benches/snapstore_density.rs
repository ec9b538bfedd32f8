//! Snapshot density — how many resident snapshots one byte budget
//! holds (the tentpole claim of the CoW snapshot store).
//!
//! The service prices its `snapshot_budget_bytes` against the store's
//! `resident_bytes`. The deep-clone baseline pays a full solver image
//! per snapshot; the page-granular CoW store pays one image for the
//! base plus a few dirtied pages per descendant (snapshot normal form
//! keeps the delta small). Under the *same* budget — three full images
//! at ~1500 vars — the CoW store must therefore keep **at least 5×**
//! more snapshots resident on a loadgen-style derivation tree. The
//! claim is asserted in the bench body, so the CI smoke run
//! (`-- --test`) enforces it, not just the full run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lwsnap_snapstore::CowStore;
use lwsnap_solver::{random_ksat, DeepCloneStore, Lit, ProblemRef, SnapshotStore, SolverService};

const VARS: usize = 1500;
const TREE: usize = 64;

/// Service over `store`, seeded with one solved ratio-2.0 3-SAT base —
/// big enough (dozens of pages) that a full image dwarfs a delta.
fn seeded(store: Box<dyn SnapshotStore>) -> (SolverService, Vec<ProblemRef>) {
    let mut svc = SolverService::with_store(store);
    let root = svc.root();
    let base = svc
        .solve(root, &random_ksat(VARS, VARS * 2, 3, 9).clauses)
        .expect("base problem solves");
    (svc, vec![base.problem])
}

/// Grows a loadgen-style tree: each step derives from a pseudo-random
/// earlier problem with one small extra constraint.
fn grow_tree(svc: &mut SolverService, probs: &mut Vec<ProblemRef>, steps: usize) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..steps {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let parent = probs[(state >> 33) as usize % probs.len()];
        let v = (1 + i % (VARS - 2)) as i64;
        let clause = vec![vec![Lit::from_dimacs(v), Lit::from_dimacs(-(v + 1))]];
        if let Some(reply) = svc.solve(parent, &clause) {
            probs.push(reply.problem);
        }
    }
}

type MakeStore = fn() -> Box<dyn SnapshotStore>;

fn resident_after_tree(make: MakeStore, budget: usize) -> u64 {
    let (mut svc, mut probs) = seeded(make());
    svc.set_snapshot_budget(Some(budget));
    grow_tree(&mut svc, &mut probs, TREE);
    svc.stats().resident_snapshots
}

fn bench_snapstore_density(c: &mut Criterion) {
    // The budget: three full images, under whichever store's cost
    // model is dearer (they price a lone snapshot differently).
    let (deep_seed, _) = seeded(Box::new(DeepCloneStore::new()));
    let (cow_seed, _) = seeded(Box::new(CowStore::new()));
    let one_full = deep_seed
        .stats()
        .resident_bytes
        .max(cow_seed.stats().resident_bytes);
    drop((deep_seed, cow_seed));
    let budget = 3 * one_full as usize;

    let stores: [(&str, MakeStore); 2] = [
        ("cow-page", || Box::new(CowStore::new())),
        ("deep-clone", || Box::new(DeepCloneStore::new())),
    ];

    let mut group = c.benchmark_group("snapstore_density");
    group.sample_size(10);
    for (name, make) in stores {
        group.bench_with_input(
            BenchmarkId::new("grow_tree_under_budget", name),
            &make,
            |b, &make| b.iter(|| std::hint::black_box(resident_after_tree(make, budget))),
        );
    }
    group.finish();

    // The density claim itself, measured once outside the timing loop.
    let cow = resident_after_tree(stores[0].1, budget);
    let deep = resident_after_tree(stores[1].1, budget);
    assert!(deep >= 1, "baseline holds at least the protected snapshot");
    assert!(
        cow >= 5 * deep,
        "density claim: cow-page holds {cow} snapshots vs deep-clone {deep} \
         under the same {budget}-byte budget (need >= 5x)"
    );
    println!(
        "snapstore_density: budget {budget} bytes -> cow-page {cow} resident, \
         deep-clone {deep} resident ({:.1}x)",
        cow as f64 / deep as f64
    );
}

criterion_group!(benches, bench_snapstore_density);
criterion_main!(benches);
