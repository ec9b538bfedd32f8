//! What restoring a snapshot allocates.
//!
//! The solver service restores every query's parent snapshot from the
//! page store into the one solver it keeps, so once that solver's
//! buffers have grown to fit, a restore should not ask the allocator for
//! anything. This binary
//! installs a counting global allocator (which is why it is a test of
//! its own) and counts the bytes requested on the calling thread only,
//! so the test harness's own threads cannot disturb the count.
//!
//! Debug builds check every decoded image for snapshot normal form by
//! canonicalizing a clone of it, so a restore allocates there by
//! design: the zero is asserted in release builds only
//! (`cargo test --release -p lwsnap-snapstore --test restore_budget`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lwsnap_snapstore::CowStore;
use lwsnap_solver::generators::random_ksat;
use lwsnap_solver::snapshot::{encode, SnapshotStore};
use lwsnap_solver::{SolveResult, Solver};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only touches const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`; the caller's guarantees are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` asks the allocator for on this thread.
fn allocated_by(f: impl FnOnce()) -> usize {
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    BYTES.with(Cell::get)
}

/// A solved 3-SAT instance over `vars` variables, with learnt clauses.
fn solved(vars: usize, clauses: usize, seed: u64) -> Solver {
    let mut s = Solver::new();
    for c in &random_ksat(vars, clauses, 3, seed).clauses {
        s.add_clause(c);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.stats().learnt_clauses > 0, "a state with search history");
    s
}

/// Restores `a`, then `b`, then `a` again into one kept solver, and
/// returns what the second restore of `a` allocated.
fn second_restore_bytes(a: &Solver, b: &Solver) -> usize {
    let mut store = CowStore::new();
    let (ia, ib) = (store.put(None, a), store.put(None, b));
    let mut work = Solver::new();
    assert!(store.get_into(ia, &mut work));
    assert!(store.get_into(ib, &mut work));
    assert_eq!(encode(&work), encode(b));
    let bytes = allocated_by(|| assert!(store.get_into(ia, &mut work)));
    assert_eq!(encode(&work), encode(a));
    bytes
}

#[test]
fn a_second_restore_of_a_snapshot_allocates_nothing() {
    // Different variable counts, clause databases and learnt sets, so
    // every buffer changes length both ways.
    let small = solved(40, 160, 1);
    let big = solved(90, 370, 2);
    assert!(small.num_vars() < big.num_vars());
    for (order, a, b) in [("small, big", &small, &big), ("big, small", &big, &small)] {
        let bytes = second_restore_bytes(a, b);
        eprintln!("{order}: the second restore allocated {bytes} bytes");
        #[cfg(not(debug_assertions))]
        assert_eq!(bytes, 0, "{order}");
    }
}
