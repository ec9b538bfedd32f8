//! What one copy-on-write fault allocates.
//!
//! The paper's cost model is that the first write after a snapshot copies
//! one 4 KiB page. The page table's path copy rides along, so its nodes
//! must cost what they map, not their fan-out. This binary installs a
//! counting global allocator (which is why it is a test of its own) and
//! counts the bytes requested on the calling thread only, so the test
//! harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lwsnap_mem::radix::LEVELS;
use lwsnap_mem::{AddressSpace, Prot, RegionKind, PAGE_SIZE};

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

#[test]
fn a_fault_allocates_its_page_and_the_entries_its_path_maps() {
    const DATA: u64 = 0x40_0000;
    let page = PAGE_SIZE as u64;
    let mut space = AddressSpace::new();
    space
        .map_fixed(DATA, 4 * page, Prot::RW, RegionKind::Data, "data")
        .unwrap();
    let sp = space.map_stack().unwrap();
    for i in 0..4 {
        space.write_u8(DATA + i * page, 1).unwrap();
    }
    space.write_u8(sp - 1, 1).unwrap();

    let snapshot = space.snapshot();
    let before = *space.stats();
    let bytes = allocated_by(|| space.write_u8(DATA + 2 * page, 2).unwrap());
    let d = space.stats().delta(&before);

    assert_eq!(d.cow_page_copies, 1);
    assert_eq!(d.node_copies, u64::from(LEVELS), "one node copy per level");
    assert!(
        bytes <= PAGE_SIZE + 1024,
        "one fault allocated {bytes} B; the page is {PAGE_SIZE} B"
    );
    assert_eq!(snapshot.clone().read_u8(DATA + 2 * page).unwrap(), 1);
}
