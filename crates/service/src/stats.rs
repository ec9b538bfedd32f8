//! Per-worker counters and the fleet view of the stats plane.
//!
//! Every service counter is a field of [`StatsSummary`], counted by
//! its owner: a solver shard, the [`crate::ReplicaStore`], the
//! server's forwarder or a reactor's [`crate::BufferPool`]. A node
//! folds its owners ([`crate::ShardedService::stats`],
//! [`crate::Server::stats`]) and a fleet folds its nodes
//! ([`FleetStats::total`]), every level with [`StatsSummary::absorb`].

use std::time::Duration;

use lwsnap_trace::StatsSummary;

use crate::router::NodeId;

/// Counters for one worker thread of a [`crate::pool::WorkerPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs executed by this worker.
    pub jobs: u64,
    /// Wall-clock time spent executing jobs (excludes queue waits).
    pub busy: Duration,
}

/// Cross-node statistics with the node dimension kept: one
/// [`StatsSummary`] per cluster node, in node-id order. Summing happens
/// only on demand, in [`total`], so per-node hit/rederive/evict
/// attribution is never silently lost.
///
/// [`total`]: FleetStats::total
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Per-node summaries: `(node id, that node's counters)`.
    pub nodes: Vec<(NodeId, StatsSummary)>,
}

impl FleetStats {
    /// Sums the per-node summaries into one cluster-wide aggregate
    /// (`shards` becomes the cluster-total shard count).
    pub fn total(&self) -> StatsSummary {
        let mut total = StatsSummary::default();
        for (_, summary) in &self.nodes {
            total.absorb(summary);
        }
        total
    }

    /// The summary of one node, if it is a member.
    pub fn node(&self, node: NodeId) -> Option<&StatsSummary> {
        self.nodes.iter().find(|(n, _)| *n == node).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ServiceConfig, ShardedService};
    use lwsnap_solver::Lit;

    #[test]
    fn totals_sum_across_shards() {
        let svc = ShardedService::new(ServiceConfig::new(2).with_snapshot_capacity(1));
        let root = svc.root(0).unwrap();
        let p = svc.solve(root, &[vec![Lit::from_dimacs(1)]]).unwrap();
        svc.solve(root, &[vec![Lit::from_dimacs(2)]]).unwrap();
        svc.solve(p.problem, &[vec![Lit::from_dimacs(3)]]).unwrap();
        svc.solve(svc.root(1).unwrap(), &[vec![Lit::from_dimacs(-1)]])
            .unwrap();

        let shards = svc.shard_stats();
        let mut sum = StatsSummary::default();
        for shard in &shards {
            sum.absorb(shard);
        }
        let total = svc.stats();
        assert_eq!(total, sum, "the node is the field-wise sum of its shards");
        assert_eq!(total.shards, 2);
        assert_eq!(total.queries, 4);
        assert_eq!(total.live_problems, 6, "2 roots + 4 children");
        assert_eq!(shards[0].queries, 3);
        assert!(shards[0].evictions > 0 && shards[0].rederivations > 0);
        let hit_rate = total.hit_rate().unwrap();
        assert!(0.0 < hit_rate && hit_rate < 1.0, "hit rate {hit_rate}");
    }

    #[test]
    fn fleet_totals_keep_and_sum_the_node_dimension() {
        let a = StatsSummary {
            shards: 4,
            queries: 10,
            snapshot_hits: 9,
            rederivations: 1,
            evictions: 2,
            ..Default::default()
        };
        let b = StatsSummary {
            shards: 4,
            queries: 6,
            snapshot_hits: 6,
            ..Default::default()
        };
        let fleet = FleetStats {
            nodes: vec![(0, a), (2, b)],
        };
        let total = fleet.total();
        assert_eq!(total.shards, 8, "cluster-total shard count");
        assert_eq!(total.queries, 16);
        assert_eq!(total.snapshot_hits, 15);
        // Per-node attribution survives: node 0 owns all the evictions.
        assert_eq!(fleet.node(0).unwrap().evictions, 2);
        assert_eq!(fleet.node(2).unwrap().evictions, 0);
        assert_eq!(fleet.node(1), None);
    }

    #[test]
    fn hit_rate_undefined_before_traffic() {
        let svc = ShardedService::new(ServiceConfig::new(1));
        assert_eq!(svc.stats().hit_rate(), None);
    }
}
