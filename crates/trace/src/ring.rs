//! Per-thread lock-free event rings.
//!
//! Each recording thread owns one fixed-capacity ring of event slots.
//! A slot is a seqlock: one sequence word plus five payload words, all
//! `AtomicU64`, so the whole recorder is safe Rust. The owning thread
//! is the only writer; any thread may drain. Overflow drops the oldest
//! events (the writer simply laps the ring); a drain that races a lap
//! skips the torn slot instead of blocking the hot path.
//!
//! The global registry of rings is mutex-guarded and touched twice
//! per thread (claiming a ring on the first event, handing it back at
//! thread exit) and on drain — never on the record path. A new thread
//! takes over the ring of an exited one before a fresh ring is made, so
//! the rings held are as many as threads ever recorded *at once*: a
//! program that keeps spawning short-lived workers (one parallel
//! exploration after another) does not grow by a ring per worker.

use crate::{thread_id, Kind};

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread. Power of two keeps the modulo cheap.
pub const RING_CAPACITY: usize = 4096;

/// Payload words per slot: ts, dur, kind|tid, a, b.
const WORDS: usize = 5;
const STRIDE: usize = 1 + WORDS; // plus the seq word

/// One recorded event, as drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch. For spans this is
    /// the *start* instant.
    pub ts_ns: u64,
    /// Span duration; 0 for instant events.
    pub dur_ns: u64,
    /// What happened.
    pub kind: Kind,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

struct Ring {
    /// Total events ever pushed; slot = head % capacity.
    head: AtomicU64,
    /// High-water mark of drained indices (consume-on-drain).
    drained: AtomicU64,
    /// `RING_CAPACITY * STRIDE` words.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new() -> Ring {
        let mut slots = Vec::with_capacity(RING_CAPACITY * STRIDE);
        slots.resize_with(RING_CAPACITY * STRIDE, || AtomicU64::new(0));
        Ring {
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Owner-thread-only write. Seqlock protocol: seq goes odd, payload
    /// lands, seq goes even-and-index-stamped. `2*(idx+1)` is unique
    /// per ring index, so a reader can tell which lap it observed.
    fn push(&self, tid: u32, ts_ns: u64, dur_ns: u64, kind: Kind, a: u64, b: u64) {
        let idx = self.head.load(Ordering::Relaxed);
        let base = (idx as usize % RING_CAPACITY) * STRIDE;
        let s = &self.slots;
        s[base].store(2 * idx + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        s[base + 1].store(ts_ns, Ordering::Relaxed);
        s[base + 2].store(dur_ns, Ordering::Relaxed);
        s[base + 3].store((kind.code() as u64) << 32 | tid as u64, Ordering::Relaxed);
        s[base + 4].store(a, Ordering::Relaxed);
        s[base + 5].store(b, Ordering::Relaxed);
        s[base].store(2 * (idx + 1), Ordering::Release);
        self.head.store(idx + 1, Ordering::Release);
    }

    /// Drains undrained events into `out`, oldest first. Lap-torn slots
    /// are skipped; the drained watermark advances to the observed head
    /// so repeated drains don't duplicate events.
    fn drain_into(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let lo = self
            .drained
            .load(Ordering::Relaxed)
            .max(head.saturating_sub(RING_CAPACITY as u64));
        for idx in lo..head {
            let base = (idx as usize % RING_CAPACITY) * STRIDE;
            let s = &self.slots;
            if s[base].load(Ordering::Acquire) != 2 * (idx + 1) {
                continue;
            }
            let ts_ns = s[base + 1].load(Ordering::Relaxed);
            let dur_ns = s[base + 2].load(Ordering::Relaxed);
            let kind_tid = s[base + 3].load(Ordering::Relaxed);
            let a = s[base + 4].load(Ordering::Relaxed);
            let b = s[base + 5].load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if s[base].load(Ordering::Relaxed) != 2 * (idx + 1) {
                continue; // lapped mid-read
            }
            let Some(kind) = Kind::from_code((kind_tid >> 32) as u16) else {
                continue;
            };
            out.push(Event {
                ts_ns,
                dur_ns,
                kind,
                tid: kind_tid as u32,
                a,
                b,
            });
        }
        self.drained.fetch_max(head, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    /// Every ring ever made: what [`drain`] walks.
    all: Vec<Arc<Ring>>,
    /// Rings whose thread has exited, undrained events and all: what
    /// the next new thread writes on from.
    idle: Vec<Arc<Ring>>,
}

fn registry() -> &'static Mutex<Registry> {
    static RINGS: OnceLock<Mutex<Registry>> = OnceLock::new();
    RINGS.get_or_init(Mutex::default)
}

/// One thread's claim on a ring, from its first event to its exit. The
/// hand-over goes through the registry mutex, so a ring has one writer
/// at a time and the next one sees the last one's `head`.
struct Lease {
    tid: u32,
    ring: Arc<Ring>,
}

impl Lease {
    fn claim() -> Lease {
        let mut registry = registry().lock().unwrap();
        let ring = registry.idle.pop().unwrap_or_else(|| {
            let ring = Arc::new(Ring::new());
            registry.all.push(Arc::clone(&ring));
            ring
        });
        Lease {
            tid: thread_id(),
            ring,
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // A poisoned registry only costs the reuse of this ring.
        if let Ok(mut registry) = registry().lock() {
            registry.idle.push(Arc::clone(&self.ring));
        }
    }
}

/// Records one event into the calling thread's ring, claiming a ring
/// on first use. Steady-state cost: a thread-local read plus six
/// relaxed/release stores.
#[inline]
pub(crate) fn record(ts_ns: u64, dur_ns: u64, kind: Kind, a: u64, b: u64) {
    thread_local! {
        static LOCAL: Lease = Lease::claim();
    }
    // Threads can record during TLS teardown (destructor order is
    // unspecified); dropping those events is fine.
    let _ = LOCAL.try_with(|lease| lease.ring.push(lease.tid, ts_ns, dur_ns, kind, a, b));
}

/// Drains every thread's ring and merges the events into one stream
/// ordered by `(ts_ns, tid)`. Consuming: events are returned once.
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for ring in registry().lock().unwrap().all.iter() {
        ring.drain_into(&mut out);
    }
    out.sort_by_key(|e| (e.ts_ns, e.tid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process-global registry (and the consuming `drain`) is
    // shared across tests in this binary: tests that record globally
    // serialize on `test_drain_lock` and tag their events with a
    // unique `a` namespace.
    use crate::test_drain_lock as drain_lock;

    fn mine(ns: u64, events: &[Event]) -> Vec<Event> {
        events.iter().copied().filter(|e| e.a >> 32 == ns).collect()
    }

    #[test]
    fn overflow_drops_oldest_keeps_newest() {
        let ns = 0x0dd0;
        let ring = Ring::new();
        let total = RING_CAPACITY as u64 + 100;
        for i in 0..total {
            ring.push(7, i, 0, Kind::SnapHit, ns << 32 | i, i * 2);
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        // The oldest 100 were lapped; the survivors are exactly the
        // last RING_CAPACITY pushes, in order.
        for (j, e) in out.iter().enumerate() {
            let i = 100 + j as u64;
            assert_eq!(e.ts_ns, i);
            assert_eq!(e.a & 0xffff_ffff, i);
            assert_eq!(e.b, i * 2);
            assert_eq!(e.tid, 7);
        }
        // Drain consumed: a second drain yields nothing new.
        let mut again = Vec::new();
        ring.drain_into(&mut again);
        assert!(again.is_empty());
        ring.push(7, 9999, 0, Kind::SnapHit, ns << 32, 0);
        ring.drain_into(&mut again);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].ts_ns, 9999);
    }

    #[test]
    fn cross_thread_drain_merges_in_timestamp_order() {
        let _guard = drain_lock();
        crate::set_enabled(true);
        let ns: u64 = 0xc0de;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        // Manufactured interleaved timestamps so the
                        // merged order is checkable: thread t owns
                        // ts ≡ t (mod 4).
                        record(i * 4 + t, 0, Kind::SnapHit, ns << 32 | t, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = mine(ns, &drain());
        assert_eq!(events.len(), 200);
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "merged stream is globally time-ordered");
        // All four producer threads are represented and each thread's
        // own events kept their program order.
        for t in 0..4u64 {
            let own: Vec<u64> = events
                .iter()
                .filter(|e| e.a & 0xffff_ffff == t)
                .map(|e| e.b)
                .collect();
            assert_eq!(own, (0..50).collect::<Vec<_>>());
        }
    }

    /// Threads that come and go share rings: the registry grows with
    /// the threads alive at once, not with the threads ever spawned,
    /// and an exited thread's undrained events survive the hand-over.
    #[test]
    fn an_exited_threads_ring_is_taken_over() {
        let _guard = drain_lock();
        crate::set_enabled(true);
        let ns: u64 = 0x1ea5e;
        let rings_before = registry().lock().unwrap().all.len();
        for t in 0..8u64 {
            std::thread::spawn(move || record(t, 0, Kind::SnapHit, ns << 32 | t, 0))
                .join()
                .unwrap();
        }
        let rings_after = registry().lock().unwrap().all.len();
        assert!(rings_after <= rings_before + 1, "one ring served all eight");
        let events = mine(ns, &drain());
        assert_eq!(events.len(), 8);
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 8, "each event keeps its own thread's id");
    }

    #[test]
    fn spans_record_start_and_duration() {
        let _guard = drain_lock();
        crate::set_enabled(true);
        let ns: u64 = 0x59a0;
        let t0 = crate::start();
        assert_ne!(t0, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        crate::span(Kind::SolverRun, t0, ns << 32 | 1, 42);
        let events = mine(ns, &drain());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, Kind::SolverRun);
        assert_eq!(events[0].ts_ns, t0);
        assert!(events[0].dur_ns >= 1_000_000, "slept ≥ 1 ms");
        assert_eq!(events[0].b, 42);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _guard = drain_lock();
        let ns: u64 = 0xdead;
        crate::set_enabled(false);
        crate::instant(Kind::SnapHit, ns << 32, 0);
        let t = crate::start();
        assert_eq!(t, 0);
        crate::span(Kind::SolverRun, t, ns << 32, 0);
        crate::set_enabled(true);
        assert!(mine(ns, &drain()).is_empty());
    }
}
