//! `lwsnap-trace` — fleet observability for the lwsnap service stack.
//!
//! Three planes, all dependency-free and offline-safe:
//!
//! * **Event recorder** ([`ring`]): per-thread lock-free ring buffers of
//!   fixed capacity holding timestamped spans and instant events.
//!   Recording allocates nothing, takes no locks, and drops the oldest
//!   events on overflow. [`drain`] merges every thread's ring into one
//!   globally time-ordered stream. The whole recorder compiles out when
//!   the `trace` feature is disabled, and can be switched off at runtime
//!   with [`set_enabled`] (so one binary can measure its own overhead).
//! * **Stats plane** ([`metrics`]): the counter table
//!   ([`StatsSummary`], one plain field per counter, kept by whichever
//!   component owns the event) and the process's log-linear latency
//!   histograms ([`Registry`]). Both merge exactly
//!   ([`StatsSummary::absorb`], [`metrics::HistogramSnapshot::absorb`]),
//!   so per-node snapshots aggregate into fleet totals without losing
//!   quantile fidelity.
//! * **Export plane** ([`export`]): a plaintext scrape rendering of a
//!   node's [`MetricsSnapshot`], a chrome://tracing-compatible JSON
//!   rendering of drained events, and a minimal HTTP exporter thread
//!   serving both.
//!
//! Timestamps are nanoseconds since a process-wide monotonic epoch
//! (first use), so events from every thread of a process — including
//! all nodes of an in-process `Cluster::start_local` fleet — order on
//! one axis. The rings and the histograms are process-wide; counters
//! are not, so an in-process fleet's counters stay per node.

pub mod export;
pub mod metrics;
pub mod ring;

pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry, StatsSummary};
pub use ring::{drain, Event};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Serializes tests that record into or drain the process-global ring
/// registry (drain is consuming, so concurrent tests would steal each
/// other's events).
#[cfg(test)]
pub(crate) fn test_drain_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Nanoseconds since the process-wide monotonic epoch (first call).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense id for the calling thread (allocation order). Used to
/// tag events; stable for the thread's life.
#[inline]
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(feature = "trace")]
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is the event recorder live? Always `false` when the `trace` feature
/// is compiled out. The stats plane is unaffected by this switch.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Runtime on/off switch for the event recorder (default: on). A no-op
/// without the `trace` feature.
#[inline]
pub fn set_enabled(on: bool) {
    #[cfg(feature = "trace")]
    ENABLED.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = on;
}

/// Event taxonomy. Payload word meanings (`a`, `b`) per kind are part
/// of the contract and documented in the README's Observability table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Kind {
    /// Span: a `Solve` request from dispatch to reply. a = parent id,
    /// b = child problem id (0 if the request errored).
    ReqSolve = 1,
    /// Span: a submitted job waiting in the pool queue. a = worker
    /// index that picked it up.
    QueueWait = 2,
    /// Span: one solver run. a = problem id, b = conflicts.
    SolverRun = 3,
    /// Span: snapshot encode + store put. a = problem id, b = pages
    /// dirtied (CoW copies + zero fills billed by this put).
    SnapPut = 4,
    /// Instant: materialize served from a resident snapshot. a =
    /// problem id.
    SnapHit = 5,
    /// Instant: snapshot evicted by capacity/budget. a = problem id,
    /// b = bytes freed.
    SnapEvict = 6,
    /// Span: evicted snapshot re-derived by constraint replay. a =
    /// problem id, b = edges replayed.
    SnapRederive = 7,
    /// Instant: a derivation edge forwarded to the session's replica.
    /// a = session, b = the derived problem's wire id.
    ReplForward = 8,
    /// Span: a session promoted from its replica log. a = session,
    /// b = problems promoted.
    ReplPromote = 9,
    /// Instant: heartbeat pong received. a = peer that answered,
    /// b = membership epoch the probe carried.
    HbPong = 10,
    /// Instant: heartbeat probe missed. a = peer, b = consecutive
    /// misses (suspicion level).
    HbMiss = 11,
    /// Instant: suspicion crossed the threshold; peer declared dead.
    /// a = peer, b = sessions owed replica promotion.
    NodeDead = 12,
    /// Instant: client-side failover began for a dead node. a = dead
    /// node id, b = ring epoch.
    Failover = 13,
    /// Instant: a request was re-issued after failover. a = dead node
    /// id, b = the new home node.
    Rerouted = 14,
    /// Instant: chaos fault injected into a home node's replication
    /// frame. a = content-stable chaos key, b = 0.
    ChaosInject = 15,
}

impl Kind {
    /// Wire code (stable across versions of this crate).
    #[inline]
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Inverse of [`Kind::code`].
    pub fn from_code(code: u16) -> Option<Kind> {
        Some(match code {
            1 => Kind::ReqSolve,
            2 => Kind::QueueWait,
            3 => Kind::SolverRun,
            4 => Kind::SnapPut,
            5 => Kind::SnapHit,
            6 => Kind::SnapEvict,
            7 => Kind::SnapRederive,
            8 => Kind::ReplForward,
            9 => Kind::ReplPromote,
            10 => Kind::HbPong,
            11 => Kind::HbMiss,
            12 => Kind::NodeDead,
            13 => Kind::Failover,
            14 => Kind::Rerouted,
            15 => Kind::ChaosInject,
            _ => return None,
        })
    }

    /// Human/scrape name, also used for chrome trace span names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReqSolve => "req.solve",
            Kind::QueueWait => "pool.queue_wait",
            Kind::SolverRun => "solver.run",
            Kind::SnapPut => "snap.put",
            Kind::SnapHit => "snap.hit",
            Kind::SnapEvict => "snap.evict",
            Kind::SnapRederive => "snap.rederive",
            Kind::ReplForward => "repl.forward",
            Kind::ReplPromote => "repl.promote",
            Kind::HbPong => "hb.pong",
            Kind::HbMiss => "hb.miss",
            Kind::NodeDead => "hb.node_dead",
            Kind::Failover => "client.failover",
            Kind::Rerouted => "client.rerouted",
            Kind::ChaosInject => "chaos.inject",
        }
    }
}

/// Records an instant event. Zero-allocation; no-op when disabled.
#[inline]
pub fn instant(kind: Kind, a: u64, b: u64) {
    if enabled() {
        ring::record(now_ns(), 0, kind, a, b);
    }
}

/// Starts a span clock. Returns 0 when tracing is disabled, which makes
/// the matching [`span`] a no-op — callers never branch themselves.
#[inline]
pub fn start() -> u64 {
    if enabled() {
        now_ns()
    } else {
        0
    }
}

/// Closes a span opened by [`start`]. The event's timestamp is the
/// start instant; duration is `now - start` (clamped to ≥ 1 ns so
/// spans and instants stay distinguishable).
#[inline]
pub fn span(kind: Kind, start_ns: u64, a: u64, b: u64) {
    if start_ns != 0 && enabled() {
        let dur = now_ns().saturating_sub(start_ns).max(1);
        ring::record(start_ns, dur, kind, a, b);
    }
}
