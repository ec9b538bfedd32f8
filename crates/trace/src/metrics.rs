//! The stats plane: the counter table ([`StatsSummary`]) and the
//! log-linear latency histograms.
//!
//! Every counter lives in exactly one place: a plain `Copy` field of
//! [`StatsSummary`], kept by the component that owns the event it
//! counts (a solver shard, the replica store, the forwarder, a
//! reactor's spill counter). A node folds its owners into one summary and
//! a fleet folds its nodes, both with the one generated
//! [`StatsSummary::absorb`]. The struct, its scrape/wire names and its
//! summer all come from one table below — a new counter costs one line.
//!
//! Latency histograms are the exception: a latency is recorded where it
//! is measured, so they live in a process-global [`Registry`]. They use
//! a log-linear bucket layout (4 linear sub-buckets per power of two),
//! so relative quantile error is bounded by 25% at any magnitude while
//! the whole histogram is 252 fixed buckets — cheap to record into
//! (three relaxed atomic adds), cheap to snapshot, and mergeable
//! bucket-wise. [`MetricsSnapshot`] pairs a node's counters with the
//! histograms; it is the stats reply on the wire and the scrape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Declares [`StatsSummary`] from the table: one `field, "scrape name",
/// "doc";` line per counter.
macro_rules! stats_table {
    ($($field:ident, $name:literal, $doc:literal;)*) => {
        /// Every counter one lwsnap node keeps, and the fold of any number
        /// of them: one shard's, one node's (its shards plus its replica
        /// store, forwarder and spill counters) or a whole fleet's.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSummary {
            $(#[doc = $doc] pub $field: u64,)*
        }

        /// Number of counters in [`StatsSummary`].
        pub const COUNTERS: usize = [$($name),*].len();

        impl StatsSummary {
            /// The scrape and wire names, in table order.
            pub const NAMES: [&'static str; COUNTERS] = [$($name),*];

            /// The values, in table order.
            pub fn values(&self) -> [u64; COUNTERS] {
                [$(self.$field),*]
            }

            /// The summary holding `values`, given in table order.
            pub fn from_values(values: [u64; COUNTERS]) -> StatsSummary {
                let [$($field),*] = values;
                StatsSummary { $($field),* }
            }

            /// Folds `other` in: a field-wise sum (wrapping, like a
            /// histogram's sum), so levels such as `resident_bytes` add
            /// up to the fleet's and `shards` to its shard count.
            pub fn absorb(&mut self, other: &StatsSummary) {
                $(self.$field = self.$field.wrapping_add(other.$field);)*
            }
        }
    };
}

stats_table! {
    shards, "shards", "Solver shards folded in (a shard reports 1).";
    queries, "queries_total", "Solve queries served.";
    total_conflicts, "conflicts_total", "Solver conflicts across all queries.";
    total_propagations, "propagations_total", "Solver propagations across all queries.";
    live_problems, "live_problems", "Live (unreleased) problems.";
    resident_snapshots, "resident_snapshots", "Resident (unevicted) solver snapshots.";
    snapshot_hits, "snapshot_hits_total", "Queries served straight from a resident snapshot.";
    rederivations, "rederivations_total", "Queries that re-derived an evicted parent by replay.";
    replayed_clauses, "replayed_clauses_total", "Clauses re-added during re-derivations.";
    rederive_conflicts, "rederive_conflicts_total", "Conflicts spent inside re-derivations.";
    evictions, "evictions_total", "Snapshots evicted by the count or byte-budget LRU.";
    resident_bytes, "resident_bytes", "Snapshot store bytes, shared storage counted once.";
    shared_pages, "shared_pages", "Physical pages mapped by two or more resident snapshots.";
    private_pages, "private_pages", "Physical pages private to one resident snapshot.";
    cow_page_copies, "cow_page_copies_total", "Shared pages copied on a snapshot put's first write.";
    zero_fills, "zero_fills_total", "Fresh pages materialized from the zero page by puts.";
    bytes_written, "bytes_written_total", "Bytes written into page frames by snapshot puts.";
    node_copies, "snap_node_copies_total", "Page-table nodes path-copied by puts (unpriced memory).";
    replica_bytes, "replica_bytes", "Path-log bytes held in the passive replica store.";
    replica_promotions, "replica_promotions_total", "Problems re-solved by promotion replay.";
    promoted_problems, "promoted_problems_total", "Problems remapped by `Promote` replies, memo hits too.";
    failovers, "failovers_total", "`Promote` requests served: sessions failed over onto this node.";
    forwards, "forwards_total", "Derivation edges forwarded to session replicas.";
    heartbeat_misses, "heartbeat_misses_total", "Heartbeat probes to peers that went unanswered.";
    dead_peers, "peers_declared_dead_total", "Peers declared dead after consecutive missed probes.";
    chaos_injections, "chaos_injections_total", "Chaos faults injected into replication frames.";
    rx_copy_bytes, "net_rx_copy_bytes_total", "Receive bytes copied out of receive blocks (spills).";
}

impl StatsSummary {
    /// Fraction of parent lookups served straight from a resident
    /// snapshot (1.0 when nothing was ever evicted). `None` before any
    /// query.
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.snapshot_hits + self.rederivations;
        (lookups > 0).then(|| self.snapshot_hits as f64 / lookups as f64)
    }
}

/// A no-op copy, so `(&service.stats()).into()` reads the same whether
/// the service answers one summary or something that folds into one.
impl From<&StatsSummary> for StatsSummary {
    fn from(summary: &StatsSummary) -> StatsSummary {
        *summary
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
    /// [`StatsSummary::absorb`]. Absorbing two snapshots is equivalent
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

/// The latency histograms every lwsnap process records into. One
/// process-global instance lives behind [`Registry::global`]; tests
/// construct their own.
pub struct Registry {
    /// Whole-request latency: dispatch → reply enqueued, ns.
    pub request_ns: Histogram,
    /// Time a job waited in the worker pool queue, ns.
    pub queue_wait_ns: Histogram,
    /// Single solver run latency, ns.
    pub solve_ns: Histogram,
    /// Snapshot encode + store put latency, ns.
    pub snap_put_ns: Histogram,
    /// Snapshot restore (store get + decode) latency, ns.
    pub snap_get_ns: Histogram,
    /// Re-derivation (replay) latency, ns.
    pub rederive_ns: Histogram,
}

impl Registry {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Registry {
        Registry {
            request_ns: Histogram::new(),
            queue_wait_ns: Histogram::new(),
            solve_ns: Histogram::new(),
            snap_put_ns: Histogram::new(),
            snap_get_ns: Histogram::new(),
            rederive_ns: Histogram::new(),
        }
    }

    /// The process-global registry all lwsnap latencies record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: Registry = Registry::new();
        &GLOBAL
    }

    /// Point-in-time copy of every histogram, named for the wire and
    /// the scrape, beside zero counters: counters belong to their
    /// owners, which fill them in (`MetricsSnapshot { counters,
    /// ..registry.snapshot() }`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: StatsSummary::default(),
            histograms: vec![
                ("request_ns".into(), self.request_ns.snapshot()),
                ("queue_wait_ns".into(), self.queue_wait_ns.snapshot()),
                ("solve_ns".into(), self.solve_ns.snapshot()),
                ("snap_put_ns".into(), self.snap_put_ns.snapshot()),
                ("snap_get_ns".into(), self.snap_get_ns.snapshot()),
                ("rederive_ns".into(), self.rederive_ns.snapshot()),
            ],
        }
    }
}

/// A node's counters with the latency histograms — one node's worth,
/// or, after [`MetricsSnapshot::absorb`], a fleet's. The stats reply
/// on the wire and the plaintext scrape are both this.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: StatsSummary,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Merges `other` in: counters field-wise, histograms bucket-wise
    /// by name. Histograms only one side knows are kept.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.counters.absorb(&other.counters);
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

    /// Renders the plaintext scrape: one `lwsnap_`-prefixed line per
    /// counter in table order, then per-histogram count/sum/bucket/
    /// quantile lines. Deterministic — goldens can assert on it
    /// byte-for-byte.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in StatsSummary::NAMES.iter().zip(self.counters.values()) {
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
        a.solve_ns.record(10);
        b.solve_ns.record(20);
        let mut fleet = MetricsSnapshot {
            counters: StatsSummary {
                queries: 3,
                resident_bytes: 100,
                ..Default::default()
            },
            ..a.snapshot()
        };
        let mut other = MetricsSnapshot {
            counters: StatsSummary {
                queries: 4,
                resident_bytes: 200,
                ..Default::default()
            },
            ..b.snapshot()
        };
        other
            .histograms
            .push(("only_here_ns".into(), HistogramSnapshot::default()));
        fleet.absorb(&other);
        assert_eq!(fleet.counters.queries, 7);
        assert_eq!(fleet.counters.resident_bytes, 300);
        assert_eq!(fleet.histogram("solve_ns").unwrap().count, 2);
        assert!(fleet.histogram("only_here_ns").is_some());
    }

    #[test]
    fn scrape_render_golden() {
        let reg = Registry::new();
        reg.solve_ns.record(0);
        reg.solve_ns.record(5);
        reg.solve_ns.record(5);
        reg.solve_ns.record(1000);
        let snapshot = MetricsSnapshot {
            counters: StatsSummary {
                shards: 2,
                queries: 2,
                snapshot_hits: 1,
                resident_bytes: 4096,
                ..Default::default()
            },
            ..reg.snapshot()
        };
        let golden = "\
lwsnap_shards 2
lwsnap_queries_total 2
lwsnap_conflicts_total 0
lwsnap_propagations_total 0
lwsnap_live_problems 0
lwsnap_resident_snapshots 0
lwsnap_snapshot_hits_total 1
lwsnap_rederivations_total 0
lwsnap_replayed_clauses_total 0
lwsnap_rederive_conflicts_total 0
lwsnap_evictions_total 0
lwsnap_resident_bytes 4096
lwsnap_shared_pages 0
lwsnap_private_pages 0
lwsnap_cow_page_copies_total 0
lwsnap_zero_fills_total 0
lwsnap_bytes_written_total 0
lwsnap_snap_node_copies_total 0
lwsnap_replica_bytes 0
lwsnap_replica_promotions_total 0
lwsnap_promoted_problems_total 0
lwsnap_failovers_total 0
lwsnap_forwards_total 0
lwsnap_heartbeat_misses_total 0
lwsnap_peers_declared_dead_total 0
lwsnap_chaos_injections_total 0
lwsnap_net_rx_copy_bytes_total 0
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
lwsnap_snap_get_ns_count 0
lwsnap_snap_get_ns_sum 0
lwsnap_snap_get_ns_bucket{le=\"+Inf\"} 0
lwsnap_snap_get_ns{quantile=\"0.5\"} 0
lwsnap_snap_get_ns{quantile=\"0.9\"} 0
lwsnap_snap_get_ns{quantile=\"0.99\"} 0
lwsnap_rederive_ns_count 0
lwsnap_rederive_ns_sum 0
lwsnap_rederive_ns_bucket{le=\"+Inf\"} 0
lwsnap_rederive_ns{quantile=\"0.5\"} 0
lwsnap_rederive_ns{quantile=\"0.9\"} 0
lwsnap_rederive_ns{quantile=\"0.99\"} 0
";
        assert_eq!(snapshot.render(), golden);
    }
}
