//! Mergeable metrics: sharded counters, gauges, and log-linear
//! latency histograms.
//!
//! Histograms use a log-linear bucket layout (4 linear sub-buckets per
//! power of two), so relative quantile error is bounded by 25% at any
//! magnitude while the whole histogram is 256 fixed buckets — cheap to
//! record into (three relaxed atomic adds), cheap to snapshot, and
//! mergeable bucket-wise the way `StatsSummary::absorb` merges
//! counters. Fleet aggregation is `MetricsSnapshot::absorb`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

const COUNTER_SHARDS: usize = 16;

/// A cache-line-padded atomic so counter shards don't false-share.
#[repr(align(64))]
struct Pad(AtomicU64);

/// Monotonic counter, sharded per thread to keep hot-path increments
/// off a single contended line.
pub struct Counter {
    shards: [Pad; COUNTER_SHARDS],
}

impl Counter {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Counter {
        Counter {
            shards: [const { Pad(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        let shard = crate::thread_id() as usize % COUNTER_SHARDS;
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-writer-wins signed gauge.
pub struct Gauge(AtomicI64);

impl Gauge {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-linear bucket geometry: values 0..SUB are exact, above that each
/// power of two splits into SUB linear sub-buckets.
const SUB_BITS: u32 = 2;
const SUB: u64 = 1 << SUB_BITS;
/// 252 buckets cover the full u64 range at this geometry, with every
/// index reachable (so bucket bounds are strictly increasing).
pub const BUCKETS: usize = 252;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = shift as usize;
    let sub = ((v >> shift) - SUB) as usize;
    ((octave + 1) << SUB_BITS) + sub
}

/// Inclusive upper bound of bucket `b` (the value quantiles report).
pub fn bucket_bound(b: usize) -> u64 {
    if b < SUB as usize {
        return b as u64;
    }
    let octave = (b >> SUB_BITS) - 1;
    let sub = (b & (SUB as usize - 1)) as u64;
    // The last bucket's bound is 2^64, which wraps to 0; subtracting 1
    // lands exactly on u64::MAX.
    (SUB + sub + 1).wrapping_shl(octave as u32).wrapping_sub(1)
}

/// Fixed-bucket log-linear histogram. Recording is three relaxed
/// atomic adds; no locks, no allocation.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy, suitable for merging and the wire.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Convenience quantile straight off the live histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A frozen histogram: sparse `(bucket index, count)` pairs plus the
/// exact count and sum. Mergeable and wire-friendly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Sorted by bucket index; zero-count buckets omitted.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Merges `other` in, bucket-wise — the histogram analogue of
    /// `StatsSummary::absorb`. Absorbing two snapshots is equivalent
    /// to having recorded the two value streams interleaved.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        // The live histogram's atomic sum wraps on overflow; match it.
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(bi, ni)), Some(&(bj, nj))) if bi == bj => {
                    merged.push((bi, ni + nj));
                    i += 1;
                    j += 1;
                }
                (Some(&(bi, ni)), Some(&(bj, _))) if bi < bj => {
                    merged.push((bi, ni));
                    i += 1;
                }
                (Some(_), Some(&(bj, nj))) => {
                    merged.push((bj, nj));
                    j += 1;
                }
                (Some(&(bi, ni)), None) => {
                    merged.push((bi, ni));
                    i += 1;
                }
                (None, Some(&(bj, nj))) => {
                    merged.push((bj, nj));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_bound(b as usize);
            }
        }
        bucket_bound(self.buckets.last().map_or(0, |&(b, _)| b as usize))
    }

    /// Exact arithmetic mean (sum is tracked exactly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The fixed metric set every lwsnap node exposes. One process-global
/// instance lives behind [`Registry::global`]; tests construct their
/// own.
pub struct Registry {
    /// Solve requests dispatched (any outcome).
    pub requests: Counter,
    /// Whole-request latency: dispatch → reply enqueued, ns.
    pub request_ns: Histogram,
    /// Time a job waited in the worker pool queue, ns.
    pub queue_wait_ns: Histogram,
    /// Single solver run latency, ns.
    pub solve_ns: Histogram,
    /// Snapshot encode + store put latency, ns.
    pub snap_put_ns: Histogram,
    /// Re-derivation (replay) latency, ns.
    pub rederive_ns: Histogram,
    /// Materializations served by a resident snapshot.
    pub snapshot_hits: Counter,
    /// Snapshots evicted by capacity/budget pressure.
    pub evictions: Counter,
    /// CoW pages dirtied (page copies + zero fills) by snapshot puts.
    pub pages_dirtied: Counter,
    /// Page-table nodes path-copied by snapshot puts: 4 KiB each that
    /// `resident_bytes` does not price.
    pub node_copies: Counter,
    /// Bytes written into snapshot page frames.
    pub bytes_written: Counter,
    /// Derivation edges forwarded to replicas (both planes).
    pub forwards: Counter,
    /// Sessions promoted from replica logs.
    pub promotions: Counter,
    /// Heartbeat probes that went unanswered.
    pub heartbeat_misses: Counter,
    /// Failovers initiated (client or server side).
    pub failovers: Counter,
    /// Chaos faults injected (drop + duplicate + delay).
    pub chaos_injections: Counter,
    /// Received payload bytes the front end had to copy out of a pooled
    /// read block (frames spanning a block boundary). The zero-copy
    /// path parses in place, so this stays near zero per request —
    /// the observable proof the `inbuf` staging copy is gone.
    pub rx_copy_bytes: Counter,
    /// Pooled read blocks returned to their reactor's freelist.
    pub pool_recycles: Counter,
    /// Resident snapshot bytes (latest observation).
    pub resident_bytes: Gauge,
    /// Live problems (latest observation).
    pub live_problems: Gauge,
}

impl Registry {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Registry {
        Registry {
            requests: Counter::new(),
            request_ns: Histogram::new(),
            queue_wait_ns: Histogram::new(),
            solve_ns: Histogram::new(),
            snap_put_ns: Histogram::new(),
            rederive_ns: Histogram::new(),
            snapshot_hits: Counter::new(),
            evictions: Counter::new(),
            pages_dirtied: Counter::new(),
            node_copies: Counter::new(),
            bytes_written: Counter::new(),
            forwards: Counter::new(),
            promotions: Counter::new(),
            heartbeat_misses: Counter::new(),
            failovers: Counter::new(),
            chaos_injections: Counter::new(),
            rx_copy_bytes: Counter::new(),
            pool_recycles: Counter::new(),
            resident_bytes: Gauge::new(),
            live_problems: Gauge::new(),
        }
    }

    /// The process-global registry all lwsnap instrumentation records
    /// into.
    pub fn global() -> &'static Registry {
        static GLOBAL: Registry = Registry::new();
        &GLOBAL
    }

    /// Point-in-time copy of every metric, named for the wire/scrape.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("requests_total".into(), self.requests.value()),
                ("snapshot_hits_total".into(), self.snapshot_hits.value()),
                ("evictions_total".into(), self.evictions.value()),
                ("pages_dirtied_total".into(), self.pages_dirtied.value()),
                ("snap_node_copies_total".into(), self.node_copies.value()),
                ("bytes_written_total".into(), self.bytes_written.value()),
                ("forwards_total".into(), self.forwards.value()),
                ("promotions_total".into(), self.promotions.value()),
                (
                    "heartbeat_misses_total".into(),
                    self.heartbeat_misses.value(),
                ),
                ("failovers_total".into(), self.failovers.value()),
                (
                    "chaos_injections_total".into(),
                    self.chaos_injections.value(),
                ),
                ("net_rx_copy_bytes_total".into(), self.rx_copy_bytes.value()),
                ("net_pool_recycle_total".into(), self.pool_recycles.value()),
            ],
            gauges: vec![
                ("resident_bytes".into(), self.resident_bytes.value()),
                ("live_problems".into(), self.live_problems.value()),
            ],
            histograms: vec![
                ("request_ns".into(), self.request_ns.snapshot()),
                ("queue_wait_ns".into(), self.queue_wait_ns.snapshot()),
                ("solve_ns".into(), self.solve_ns.snapshot()),
                ("snap_put_ns".into(), self.snap_put_ns.snapshot()),
                ("rederive_ns".into(), self.rederive_ns.snapshot()),
            ],
        }
    }
}

/// A named bundle of frozen metrics — one node's worth, or, after
/// [`MetricsSnapshot::absorb`], a fleet's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Merges `other` in by metric name: counters and gauges sum,
    /// histograms absorb bucket-wise. Names only one side knows are
    /// kept.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.absorb(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the plaintext scrape: `lwsnap_`-prefixed counter and
    /// gauge lines, then per-histogram count/sum/bucket/quantile
    /// lines. Deterministic — goldens can assert on it byte-for-byte.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "lwsnap_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "lwsnap_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "lwsnap_{name}_count {}", h.count);
            let _ = writeln!(out, "lwsnap_{name}_sum {}", h.sum);
            let mut cumulative = 0;
            for &(b, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "lwsnap_{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_bound(b as usize)
                );
            }
            let _ = writeln!(out, "lwsnap_{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(out, "lwsnap_{name}{{quantile=\"{q}\"}} {}", h.quantile(q));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_geometry_is_monotone_and_tight() {
        let mut prev_bound = None;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            let bound = bucket_bound(b);
            assert!(bound >= v, "bound {bound} below value {v}");
            // Relative error of reporting the bound instead of the
            // value is ≤ 25% at this geometry.
            assert!(bound - v <= v / 4 + 1, "bucket too wide at {v}");
            let _ = prev_bound.insert(bound);
        }
        // Bounds are strictly increasing across bucket indices.
        let mut last = None;
        for b in 0..BUCKETS {
            let bound = bucket_bound(b);
            if let Some(l) = last {
                assert!(bound > l, "bucket {b} bound not increasing");
            }
            last = Some(bound);
        }
    }

    #[test]
    fn counter_sums_across_shards_and_threads() {
        static C: Counter = Counter::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.value(), 8000);
    }

    #[test]
    fn quantiles_track_recorded_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket bounds over-approximate by ≤ 25%.
        assert!((500..=640).contains(&p50), "p50 = {p50}");
        assert!((990..=1280).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.0) >= 1);
        assert!(h.quantile(1.0) >= 1000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// absorb(a, b) must equal recording the two streams
        /// interleaved into one histogram — exactly, bucket for
        /// bucket, so quantiles of fleet merges are trustworthy.
        #[test]
        fn absorb_equals_interleaved_recording(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            ys in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let ha = Histogram::new();
            let hb = Histogram::new();
            let hboth = Histogram::new();
            // Interleave to prove order can't matter.
            let mut xi = xs.iter();
            let mut yi = ys.iter();
            loop {
                match (xi.next(), yi.next()) {
                    (None, None) => break,
                    (x, y) => {
                        if let Some(&x) = x { ha.record(x); hboth.record(x); }
                        if let Some(&y) = y { hb.record(y); hboth.record(y); }
                    }
                }
            }
            let mut merged = ha.snapshot();
            merged.absorb(&hb.snapshot());
            prop_assert_eq!(&merged, &hboth.snapshot());
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), hboth.snapshot().quantile(q));
            }
        }

        #[test]
        fn quantile_bound_always_covers_value(v in any::<u64>()) {
            let h = Histogram::new();
            h.record(v);
            prop_assert!(h.quantile(1.0) >= v);
            prop_assert!(h.quantile(1.0) <= v.saturating_add(v / 4 + 1));
        }
    }

    #[test]
    fn snapshot_absorb_merges_by_name() {
        let a = Registry::new();
        let b = Registry::new();
        a.requests.add(3);
        b.requests.add(4);
        a.resident_bytes.set(100);
        b.resident_bytes.set(200);
        a.solve_ns.record(10);
        b.solve_ns.record(20);
        let mut fleet = a.snapshot();
        fleet.absorb(&b.snapshot());
        assert_eq!(fleet.counter("requests_total"), Some(7));
        assert_eq!(
            fleet.gauges.iter().find(|(n, _)| n == "resident_bytes"),
            Some(&("resident_bytes".to_string(), 300))
        );
        assert_eq!(fleet.histogram("solve_ns").unwrap().count, 2);
    }

    #[test]
    fn scrape_render_golden() {
        let reg = Registry::new();
        reg.requests.add(2);
        reg.snapshot_hits.inc();
        reg.resident_bytes.set(4096);
        reg.solve_ns.record(0);
        reg.solve_ns.record(5);
        reg.solve_ns.record(5);
        reg.solve_ns.record(1000);
        let golden = "\
lwsnap_requests_total 2
lwsnap_snapshot_hits_total 1
lwsnap_evictions_total 0
lwsnap_pages_dirtied_total 0
lwsnap_snap_node_copies_total 0
lwsnap_bytes_written_total 0
lwsnap_forwards_total 0
lwsnap_promotions_total 0
lwsnap_heartbeat_misses_total 0
lwsnap_failovers_total 0
lwsnap_chaos_injections_total 0
lwsnap_net_rx_copy_bytes_total 0
lwsnap_net_pool_recycle_total 0
lwsnap_resident_bytes 4096
lwsnap_live_problems 0
lwsnap_request_ns_count 0
lwsnap_request_ns_sum 0
lwsnap_request_ns_bucket{le=\"+Inf\"} 0
lwsnap_request_ns{quantile=\"0.5\"} 0
lwsnap_request_ns{quantile=\"0.9\"} 0
lwsnap_request_ns{quantile=\"0.99\"} 0
lwsnap_queue_wait_ns_count 0
lwsnap_queue_wait_ns_sum 0
lwsnap_queue_wait_ns_bucket{le=\"+Inf\"} 0
lwsnap_queue_wait_ns{quantile=\"0.5\"} 0
lwsnap_queue_wait_ns{quantile=\"0.9\"} 0
lwsnap_queue_wait_ns{quantile=\"0.99\"} 0
lwsnap_solve_ns_count 4
lwsnap_solve_ns_sum 1010
lwsnap_solve_ns_bucket{le=\"0\"} 1
lwsnap_solve_ns_bucket{le=\"5\"} 3
lwsnap_solve_ns_bucket{le=\"1023\"} 4
lwsnap_solve_ns_bucket{le=\"+Inf\"} 4
lwsnap_solve_ns{quantile=\"0.5\"} 5
lwsnap_solve_ns{quantile=\"0.9\"} 1023
lwsnap_solve_ns{quantile=\"0.99\"} 1023
lwsnap_snap_put_ns_count 0
lwsnap_snap_put_ns_sum 0
lwsnap_snap_put_ns_bucket{le=\"+Inf\"} 0
lwsnap_snap_put_ns{quantile=\"0.5\"} 0
lwsnap_snap_put_ns{quantile=\"0.9\"} 0
lwsnap_snap_put_ns{quantile=\"0.99\"} 0
lwsnap_rederive_ns_count 0
lwsnap_rederive_ns_sum 0
lwsnap_rederive_ns_bucket{le=\"+Inf\"} 0
lwsnap_rederive_ns{quantile=\"0.5\"} 0
lwsnap_rederive_ns{quantile=\"0.9\"} 0
lwsnap_rederive_ns{quantile=\"0.99\"} 0
";
        assert_eq!(reg.snapshot().render(), golden);
    }
}
