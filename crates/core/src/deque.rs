//! A lock-free work-stealing deque (Chase–Lev).
//!
//! The parallel engine's work-distribution primitive for
//! **fine-grained** items, where a `Mutex<VecDeque>`'s lock/unlock pair
//! costs more than the work item itself. The design is the classic
//! Chase–Lev circular-buffer deque ("Dynamic Circular Work-Stealing
//! Deque", SPAA '05) with the memory orderings of Lê, Pop, Cohen &
//! Nardelli ("Correct and Efficient Work-Stealing for Weak Memory
//! Models", PPoPP '13) — the same algorithm crossbeam and rayon ship.
//! The build is offline, so it is implemented in-tree.
//!
//! ## Shape
//!
//! * One **owner** ([`Deque`]) pushes and pops at the *bottom* — LIFO,
//!   no atomic read-modify-write on `push` at all (a plain indexed store
//!   plus a `Release` publish of `bottom`).
//! * Any number of **thieves** ([`Stealer`], `Clone + Send + Sync`)
//!   steal from the *top* — FIFO, one `compare_exchange` per steal.
//! * The buffer grows geometrically; retired buffers are kept alive
//!   until the deque drops (doubling means the retired generations sum
//!   to less than the final buffer, so this "leak" is bounded by 2× and
//!   buys complete freedom from use-after-free during concurrent
//!   steals — no epoch machinery needed).
//!
//! The owner handle is `Send` but deliberately neither `Clone` nor
//! `Sync`: Rust's ownership rules *are* the single-owner invariant the
//! algorithm requires.
//!
//! ```
//! use lwsnap_core::deque::{Deque, Steal};
//!
//! let mut d = Deque::new();
//! let stealer = d.stealer();
//! d.push(1);
//! d.push(2);
//! assert_eq!(d.pop(), Some(2)); // owner pops LIFO…
//! assert_eq!(stealer.steal(), Steal::Success(1)); // …thieves steal FIFO
//! assert_eq!(d.pop(), None);
//! ```
#![allow(unsafe_code)] // the one module that needs it; see SAFETY comments

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// Smallest buffer allocated. Power of two; big enough that typical
/// search frontiers never grow, small enough to be cheap when thousands
/// of deques exist.
const MIN_CAP: usize = 64;

/// The circular buffer: a power-of-two array indexed by the low bits of
/// the unbounded `top`/`bottom` counters. Slots are `MaybeUninit` — the
/// `top..bottom` window tracks which slots logically hold a value.
struct Buffer<T> {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::into_raw(Box::new(Buffer {
            mask: cap - 1,
            slots,
        }))
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Raw pointer to the slot for logical index `i`.
    fn slot(&self, i: isize) -> *mut MaybeUninit<T> {
        self.slots[i as usize & self.mask].get()
    }

    /// Writes `v` into logical slot `i`.
    ///
    /// SAFETY: caller must be the owner and `i` must be outside every
    /// concurrent reader's claimed window (`i == bottom`, unpublished).
    unsafe fn write(&self, i: isize, v: T) {
        (*self.slot(i)).write(v);
    }

    /// Copies the raw bits of logical slot `i` **without** asserting
    /// initialisation — the result is still `MaybeUninit`, so a
    /// speculative copy of a torn or stale slot never materialises an
    /// invalid `T`. Callers `assume_init` only once unique logical
    /// ownership of index `i` is certain (the owner by construction,
    /// a thief after its `top` CAS succeeds).
    ///
    /// SAFETY: `i`'s physical slot must be in bounds (always true — the
    /// index is masked); the *bits* may be anything.
    unsafe fn read(&self, i: isize) -> MaybeUninit<T> {
        std::ptr::read(self.slot(i))
    }
}

/// Shared state behind one deque: the Chase–Lev triple plus the retired
/// buffer list.
struct Inner<T> {
    /// Steal index. Monotonically increasing; mutated only by
    /// `compare_exchange` (thieves and the owner's last-element pop).
    top: AtomicIsize,
    /// Push/pop index. Written only by the owner.
    bottom: AtomicIsize,
    /// Current circular buffer. Replaced only by the owner (on grow).
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers retired by `grow`, freed at drop. Locked only by the
    /// owner during a grow and by drop — never on push/pop/steal fast
    /// paths, so the deque's lock-freedom claim is about the operations
    /// that matter.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the raw buffer pointers are owned by `Inner` (freed exactly
// once, at drop); values of `T` are moved across threads but never
// aliased (each logical index is read by exactly one winner), so `T:
// Send` suffices — `T: Sync` is not required.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: all handles are gone. Drop the live window,
        // then free the current and retired buffers. Retired buffers
        // hold only stale bitwise copies (moved out during `grow`), so
        // their slots must NOT be dropped.
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf_ptr = *self.buffer.get_mut();
        unsafe {
            let buf = &*buf_ptr;
            let mut i = t;
            while i < b {
                (*buf.slot(i)).assume_init_drop();
                i += 1;
            }
            drop(Box::from_raw(buf_ptr));
        }
        for old in self.retired.get_mut().unwrap().drain(..) {
            unsafe { drop(Box::from_raw(old)) };
        }
    }
}

/// The owner handle: LIFO push/pop at the bottom. `Send`, not `Clone`.
pub struct Deque<T> {
    inner: Arc<Inner<T>>,
}

/// A thief handle: FIFO steals from the top. Cheap to clone and share.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole a value.
    Success(T),
}

impl<T> Default for Deque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Deque<T> {
    /// An empty deque with the minimum buffer capacity.
    pub fn new() -> Self {
        Deque {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buffer: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
                retired: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A new thief handle onto this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of items currently in the deque (owner's exact view).
    pub fn len(&self) -> usize {
        let inner = &*self.inner;
        // Relaxed: the owner wrote `bottom`; `top` only races upward, so
        // the result is a momentary-but-never-negative snapshot.
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a value at the bottom (the LIFO end).
    ///
    /// The fast path is entirely wait-free for the owner: two loads, an
    /// indexed store and one `Release` store — no read-modify-write.
    pub fn push(&mut self, value: T) {
        let inner = &*self.inner;
        // Relaxed: only the owner writes `bottom` and `buffer`, so it
        // reads its own latest values by program order.
        let b = inner.bottom.load(Ordering::Relaxed);
        // Acquire: pairs with the Release/SeqCst CAS on `top` so that a
        // slot freed by a completed steal is observed free before the
        // owner recycles it (otherwise a wrapped write could overwrite a
        // value the thief has not finished claiming).
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = unsafe { &*inner.buffer.load(Ordering::Relaxed) };
        if b - t >= buf.cap() as isize {
            self.grow(b, t);
            buf = unsafe { &*inner.buffer.load(Ordering::Relaxed) };
        }
        // SAFETY: index `b` is outside the published window [t, b), and
        // after the capacity check it does not alias any live slot.
        unsafe { buf.write(b, value) };
        // Release: publishes the slot write — a thief that Acquires a
        // `bottom` value > b observes the slot's contents.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops a value from the bottom (the LIFO end).
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = unsafe { &*inner.buffer.load(Ordering::Relaxed) };
        // Reserve index b before examining `top`. Relaxed is enough for
        // the store itself: the SeqCst fence below globally orders it.
        inner.bottom.store(b, Ordering::Relaxed);
        // SeqCst fence: the heart of the algorithm. The owner's
        // (store bottom → load top) must not be reordered, and must form
        // a total order with every thief's (load top → fence → load
        // bottom). Either the thief sees the decremented bottom (and
        // backs off) or the owner sees the thief's incremented top (and
        // concedes the element) — both losing the same element is
        // impossible.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            if t == b {
                // Last element: race thieves for it with a CAS on `top`.
                // Success: SeqCst keeps the CAS inside the fence-ordered
                // protocol. Failure: Relaxed — we only learn we lost.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                // Either way the deque is now empty at bottom = b + 1.
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if !won {
                    return None;
                }
                // SAFETY: the CAS advanced `top` past b, so no thief can
                // claim index b; slot b holds the initialised value we
                // pushed and is uniquely ours.
                return Some(unsafe { buf.read(b).assume_init() });
            }
            // More than one element left: index b is unreachable by
            // thieves (they claim from top < b), no CAS needed.
            // SAFETY: unique logical ownership of index b as argued,
            // and the owner's own push initialised it.
            Some(unsafe { buf.read(b).assume_init() })
        } else {
            // Deque was empty; restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Doubles the buffer, copying the live window. Owner-only (called
    /// from `push`, which holds `&mut self`).
    fn grow(&self, b: isize, t: isize) {
        let inner = &*self.inner;
        let old_ptr = inner.buffer.load(Ordering::Relaxed);
        let old = unsafe { &*old_ptr };
        let new_ptr = Buffer::alloc(old.cap() * 2);
        let new = unsafe { &*new_ptr };
        for i in t..b {
            // Bitwise copy; the old buffer keeps a stale copy that is
            // never dropped (it is retired below, and `Inner::drop`
            // frees retired buffers without touching their slots). A
            // thief that still holds the old buffer pointer reads the
            // same bits; whichever copy's index wins the `top` CAS is
            // the unique logical owner.
            unsafe { std::ptr::copy_nonoverlapping(old.slot(i), new.slot(i), 1) };
        }
        // Release: a thief that Acquires the new buffer pointer — or any
        // later `bottom` value published after this store — observes the
        // copied slots.
        inner.buffer.store(new_ptr, Ordering::Release);
        // The old buffer stays allocated until drop: thieves may hold
        // the stale pointer indefinitely. Doubling bounds the total
        // retired memory below one current-buffer's worth.
        inner.retired.lock().unwrap().push(old_ptr);
    }
}

impl<T> Stealer<T> {
    /// Steals a value from the top (the FIFO end).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        // Acquire: see every slot release that a previously completed
        // steal's CAS published (and keep this load before the fence).
        let t = inner.top.load(Ordering::Acquire);
        // SeqCst fence: pairs with the owner's fence in `pop` — see the
        // commentary there.
        fence(Ordering::SeqCst);
        // Acquire: synchronises with the owner's Release store in
        // `push`, making the pushed slot contents visible, and — because
        // the owner stores `buffer` *before* `bottom` on the grow path —
        // guarantees that if we read a bottom published after a grow, a
        // subsequent `buffer` load returns the grown buffer. Hence: if
        // the buffer we load below is stale, then `b` predates the grow,
        // so index `t` (< b ≤ bottom-at-grow) was copied and its old
        // slot still holds valid bits.
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Acquire: pairs with the Release store of the buffer pointer in
        // `grow`, so a fresh pointer comes with fully copied slots.
        let buf = unsafe { &*inner.buffer.load(Ordering::Acquire) };
        // Speculative bitwise copy, kept as `MaybeUninit`: we may be
        // racing the owner writing a *different* logical index into
        // this physical slot after a wrap, so the bits may be torn or
        // stale. No `T` is materialised here — `assume_init` happens
        // only after the CAS below confirms we own index `t`; on
        // failure the copy is simply abandoned (a `MaybeUninit` never
        // drops). This read-then-confirm shape is the standard
        // Chase–Lev technique, matching crossbeam's implementation.
        let value = unsafe { buf.read(t) };
        // SeqCst success: the CAS is the linearisation point of the
        // steal and must stay inside the fence-ordered protocol with the
        // owner's pop. Relaxed failure: we learn nothing but "retry".
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        // SAFETY: winning the CAS from value `t` proves index t was
        // still unclaimed when we copied it — the owner cannot have
        // popped it (it would have moved `top`) nor recycled its slot
        // (a wrapping push requires `top` to have advanced) — so the
        // bits are the initialised value and exclusively ours.
        Steal::Success(unsafe { value.assume_init() })
    }

    /// Approximate number of queued items (racy snapshot).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// `true` when the racy snapshot sees no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for Deque<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deque").field("len", &self.len()).finish()
    }
}

impl<T> std::fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stealer").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn single_owner_lifo_semantics() {
        let mut d = Deque::new();
        assert!(d.is_empty());
        assert_eq!(d.pop(), None);
        for i in 0..100 {
            d.push(i);
        }
        assert_eq!(d.len(), 100);
        for i in (0..100).rev() {
            assert_eq!(d.pop(), Some(i), "LIFO order");
        }
        assert_eq!(d.pop(), None);
        // Interleaved push/pop behaves like a stack.
        d.push(1);
        d.push(2);
        assert_eq!(d.pop(), Some(2));
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn stealer_takes_fifo_from_the_front() {
        let mut d = Deque::new();
        let s = d.stealer();
        assert_eq!(s.steal(), Steal::Empty);
        for i in 0..10 {
            d.push(i);
        }
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(d.pop(), Some(9), "owner still pops the back");
        assert_eq!(s.clone().steal(), Steal::Success(2), "clones share state");
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn buffer_growth_under_one_million_item_burst() {
        let mut d = Deque::new();
        const N: u64 = 1_000_000;
        for i in 0..N {
            d.push(i);
        }
        assert_eq!(d.len(), N as usize);
        // Steal a prefix, pop the rest; every item accounted for once.
        let s = d.stealer();
        let mut seen = 0u64;
        for expect in 0..1000 {
            assert_eq!(s.steal(), Steal::Success(expect));
            seen += 1;
        }
        while let Some(_v) = d.pop() {
            seen += 1;
        }
        assert_eq!(seen, N);
        assert!(d.is_empty());
    }

    #[test]
    fn drop_releases_queued_items_exactly_once() {
        // Arc strong counts prove no leak and no double-drop, across a
        // grow (stale copies in retired buffers must not be dropped).
        let probe = Arc::new(());
        {
            let mut d = Deque::new();
            for _ in 0..(MIN_CAP * 4) {
                d.push(Arc::clone(&probe));
            }
            assert_eq!(Arc::strong_count(&probe), MIN_CAP * 4 + 1);
            for _ in 0..3 {
                drop(d.pop().unwrap());
            }
            let s = d.stealer();
            match s.steal() {
                Steal::Success(v) => drop(v),
                other => panic!("expected steal success, got {other:?}"),
            }
            assert_eq!(Arc::strong_count(&probe), MIN_CAP * 4 + 1 - 4);
            // Remaining items dropped with the deque.
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    /// The satellite-task hammer: one owner churning push/pop while 1–7
    /// thieves steal, asserting every item is delivered exactly once
    /// (the observable face of steal linearizability).
    #[test]
    fn concurrent_steal_hammer_no_loss_no_duplication() {
        for thieves in [1usize, 2, 3, 7] {
            const ITEMS: u64 = 20_000;
            let mut d: Deque<u64> = Deque::new();
            let done = AtomicBool::new(false);
            let mut owner_got: Vec<u64> = Vec::new();
            let mut stolen: Vec<Vec<u64>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..thieves)
                    .map(|_| {
                        let s = d.stealer();
                        let done = &done;
                        scope.spawn(move || {
                            let mut got = Vec::new();
                            loop {
                                match s.steal() {
                                    Steal::Success(v) => got.push(v),
                                    Steal::Retry => std::hint::spin_loop(),
                                    Steal::Empty => {
                                        if done.load(Ordering::Acquire) && s.is_empty() {
                                            break;
                                        }
                                        std::thread::yield_now();
                                    }
                                }
                            }
                            got
                        })
                    })
                    .collect();
                // Owner: bursts of pushes with interleaved pops, so the
                // contended last-element CAS path gets exercised.
                let mut next = 0u64;
                while next < ITEMS {
                    for _ in 0..7 {
                        if next < ITEMS {
                            d.push(next);
                            next += 1;
                        }
                    }
                    for _ in 0..3 {
                        if let Some(v) = d.pop() {
                            owner_got.push(v);
                        }
                    }
                }
                while let Some(v) = d.pop() {
                    owner_got.push(v);
                }
                done.store(true, Ordering::Release);
                for h in handles {
                    stolen.push(h.join().unwrap());
                }
            });
            let mut all: Vec<u64> = owner_got;
            for s in stolen {
                all.extend(s);
            }
            assert_eq!(all.len(), ITEMS as usize, "{thieves} thieves: count");
            let set: HashSet<u64> = all.iter().copied().collect();
            assert_eq!(set.len(), ITEMS as usize, "{thieves} thieves: no dups");
            assert!(
                (0..ITEMS).all(|i| set.contains(&i)),
                "{thieves} thieves: no loss"
            );
        }
    }

    /// Steals observe FIFO order *among themselves*: a single thief's
    /// stolen sequence is strictly increasing when the owner only
    /// pushes (top only moves forward).
    #[test]
    fn single_thief_sees_monotone_sequence() {
        let mut d = Deque::new();
        for i in 0..10_000u64 {
            d.push(i);
        }
        let s = d.stealer();
        let thief = std::thread::spawn(move || {
            let mut prev = None;
            let mut n = 0;
            loop {
                match s.steal() {
                    Steal::Success(v) => {
                        if let Some(p) = prev {
                            assert!(v > p, "steals must be FIFO: {v} after {p}");
                        }
                        prev = Some(v);
                        n += 1;
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => break,
                }
            }
            n
        });
        let mut popped = 0;
        while d.pop().is_some() {
            popped += 1;
        }
        let stolen = thief.join().unwrap();
        assert_eq!(stolen + popped, 10_000);
    }
}
