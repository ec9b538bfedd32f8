//! Cluster routing: the consistent-hash ring mapping session roots to
//! `(node, shard)` placements.
//!
//! The [`Ring`] is implemented with **seeded rendezvous hashing**
//! (highest-random-weight): every key scores each node with a seeded
//! 64-bit mix and lands on the argmax. Rendezvous is the limiting case
//! of a vnode ring with infinitely many virtual nodes per physical
//! node, which buys two exact properties a finite-vnode ring only
//! approximates:
//!
//! * **Minimal disruption** — removing a node reassigns *exactly* the
//!   keys that lived on it (every other key keeps its argmax); adding a
//!   node only *steals* keys (no key moves between surviving nodes).
//! * **Tight balance** — each key picks its node independently and
//!   uniformly, so node shares concentrate at `1/N` with multinomial
//!   (not vnode-arc) tails; the "removing 1 of N nodes moves ≲ 1/N of
//!   keys" bound is property-tested in this module and in
//!   `tests/cluster.rs`.
//!
//! Lookups are `O(N)` in the node count — the right trade for solver
//! clusters of a few to a few dozen `lwsnapd` instances, where the
//! per-key scoring cost is noise next to a single SAT query.
//!
//! Placement composes with the in-node story: the ring picks the
//! **node**, then [`session_shard`] (the same Fibonacci hash
//! [`crate::ShardedService::session_root`] uses) picks the **shard**
//! inside it, so a [`Placement`] computed client-side agrees bit-for-bit
//! with what the chosen node itself would answer.

/// A cluster node identifier (stamped into [`crate::ProblemId`]s).
pub type NodeId = u16;

/// Where a session's problem tree lives: which node, which shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// The owning node.
    pub node: NodeId,
    /// The shard inside that node.
    pub shard: usize,
}

/// SplitMix64: a full-avalanche 64-bit mixer (public-domain constants).
/// Public because every seeded decision in the cluster derives from it:
/// ring scoring here, retry jitter in the client, and the deterministic
/// fault-injection policy in [`crate::chaos`].
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The shard a session hashes onto inside one node (Fibonacci hashing;
/// must match [`crate::ShardedService::session_root`]).
#[inline]
pub fn session_shard(session: u64, num_shards: usize) -> usize {
    let hash = session.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (hash >> 32) as usize % num_shards.max(1)
}

/// The seed of every deployed [`Ring`]: daemons and clients share it,
/// so they all rank a session's nodes alike.
pub(crate) const RING_SEED: u64 = 0;

/// The consistent-hash ring over a cluster's node ids; see the module
/// docs for the hashing scheme and its rebalance guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Member node ids, sorted and deduplicated.
    nodes: Vec<NodeId>,
    /// Seed folded into every score, so disjoint clusters sharing node
    /// ids still shuffle keys independently.
    seed: u64,
}

impl Ring {
    /// Builds a ring over `nodes` (duplicates collapsed) with `seed`
    /// folded into every placement score.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>, seed: u64) -> Ring {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        Ring { nodes, seed }
    }

    /// The member node ids, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members (every lookup answers `None`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node; placements of keys it does not win are unchanged.
    pub fn add_node(&mut self, node: NodeId) {
        if let Err(at) = self.nodes.binary_search(&node) {
            self.nodes.insert(at, node);
        }
    }

    /// Removes a node; only the keys it owned are reassigned. Returns
    /// whether the node was a member.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        match self.nodes.binary_search(&node) {
            Ok(at) => {
                self.nodes.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The rendezvous score of `key` on `node`.
    #[inline]
    fn score(&self, node: NodeId, key: u64) -> u64 {
        mix64(mix64(self.seed ^ key) ^ (node as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
    }

    /// The node owning `key` (`None` on an empty ring). Ties — already
    /// a 2⁻⁶⁴ event — break toward the smaller node id, keeping the
    /// answer independent of insertion order.
    pub fn node_for(&self, key: u64) -> Option<NodeId> {
        self.nodes
            .iter()
            .copied()
            .map(|n| (self.score(n, key), n))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, n)| n)
    }

    /// Every member node ranked by descending rendezvous score for
    /// `key`: `ranked(key)[0]` is [`Ring::node_for`], `ranked(key)[1]`
    /// the successor, and so on — the node's full failover order.
    pub fn ranked(&self, key: u64) -> Vec<NodeId> {
        let mut scored: Vec<(u64, NodeId)> = self
            .nodes
            .iter()
            .copied()
            .map(|n| (self.score(n, key), n))
            .collect();
        // Descending score; ties (a 2⁻⁶⁴ event) toward the smaller id,
        // matching `node_for`.
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, n)| n).collect()
    }

    /// The ring successor of `key`: the second-highest-scoring node —
    /// which, by the rendezvous minimal-disruption property, is exactly
    /// the node `key` would land on if its owner were removed. That
    /// identity is what makes the successor the right replica target:
    /// after a failover OR a planned drain of the owner, the ring's new
    /// answer for `key` is the node already holding its replica.
    pub fn successor_for(&self, key: u64) -> Option<NodeId> {
        self.ranked(key).get(1).copied()
    }

    /// Where the session `key` homed on `home` is replicated: the
    /// first-ranked node that is not `home` — for a session on its ring
    /// home, the successor. The home node and its clients both pick
    /// with this, once per session, and keep the answer until that
    /// node leaves (a join never moves an existing session's replica),
    /// which is how they name the same node.
    pub fn replica_for(&self, key: u64, home: NodeId) -> Option<NodeId> {
        self.ranked(key).into_iter().find(|&n| n != home)
    }

    /// Full placement of a session root: ring-chosen node, then the
    /// node-local Fibonacci shard over `shards_per_node`.
    pub fn place(&self, session: u64, shards_per_node: usize) -> Option<Placement> {
        self.node_for(session).map(|node| Placement {
            node,
            shard: session_shard(session, shards_per_node),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn empty_and_singleton_rings() {
        let empty = Ring::new([], 7);
        assert!(empty.is_empty());
        assert_eq!(empty.node_for(123), None);
        assert_eq!(empty.place(123, 4), None);
        let one = Ring::new([9], 7);
        for key in 0..64 {
            assert_eq!(one.node_for(key), Some(9));
        }
    }

    #[test]
    fn placement_shard_matches_sharded_service() {
        use crate::sharded::{ServiceConfig, ShardedService};
        let svc = ShardedService::new(ServiceConfig::new(8));
        let ring = Ring::new([0], 0);
        for session in 0..256u64 {
            let place = ring.place(session, 8).unwrap();
            assert_eq!(place.shard, svc.session_root(session).shard());
        }
    }

    #[test]
    fn duplicates_collapse_and_membership_updates() {
        let mut ring = Ring::new([3, 1, 3, 2, 1], 0);
        assert_eq!(ring.nodes(), &[1, 2, 3]);
        ring.add_node(2);
        assert_eq!(ring.len(), 3);
        assert!(ring.remove_node(2));
        assert!(!ring.remove_node(2));
        assert_eq!(ring.nodes(), &[1, 3]);
    }

    #[test]
    fn keys_spread_over_nodes() {
        let ring = Ring::new(0..4, 0xbeef);
        let mut counts = HashMap::new();
        for key in 0..4096u64 {
            *counts.entry(ring.node_for(key).unwrap()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "every node owns keys");
        for (&node, &count) in &counts {
            assert!(
                count > 4096 / 8 && count < 4096 / 2,
                "node {node} owns a wildly unbalanced {count}/4096"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The ISSUE's rebalance bound: removing 1 of N nodes moves at
        /// most ~2/N of the keys — and the keys that do move are
        /// EXACTLY the removed node's (every survivor's key is pinned).
        #[test]
        fn single_node_removal_moves_at_most_2_over_n(
            nodes in proptest::collection::vec(any::<u16>(), 2..9),
            seed in any::<u64>(),
            victim_selector in any::<usize>(),
        ) {
            let ring = Ring::new(nodes.iter().copied(), seed);
            if ring.len() < 2 {
                return; // duplicates collapsed below 2 nodes
            }
            let n = ring.len();
            let victim = ring.nodes()[victim_selector % n];
            let mut shrunk = ring.clone();
            shrunk.remove_node(victim);

            const KEYS: u64 = 4096;
            let mut moved = 0u64;
            for key in 0..KEYS {
                let before = ring.node_for(key).unwrap();
                let after = shrunk.node_for(key).unwrap();
                if before == victim {
                    moved += 1;
                } else {
                    prop_assert_eq!(
                        before, after,
                        "key {} moved off a surviving node", key
                    );
                }
            }
            // The moved set is exactly the victim's ownership share,
            // which concentrates at KEYS/n; 2/n is a ≥ 6σ ceiling at
            // 4096 keys.
            prop_assert!(
                moved <= 2 * KEYS / n as u64,
                "removal moved {}/{} keys with {} nodes (bound {})",
                moved, KEYS, n, 2 * KEYS / n as u64
            );
        }

        /// Adding a node only steals keys for itself: no key moves
        /// between pre-existing nodes.
        #[test]
        fn node_addition_only_steals(
            nodes in proptest::collection::vec(any::<u16>(), 1..8),
            newcomer in any::<u16>(),
            seed in any::<u64>(),
        ) {
            let ring = Ring::new(nodes.iter().copied(), seed);
            if ring.nodes().contains(&newcomer) {
                return; // already a member: addition is a no-op
            }
            let mut grown = ring.clone();
            grown.add_node(newcomer);
            for key in 0..2048u64 {
                let before = ring.node_for(key).unwrap();
                let after = grown.node_for(key).unwrap();
                prop_assert!(
                    after == before || after == newcomer,
                    "key {} hopped between old nodes", key
                );
            }
        }

        /// The successor IS the post-removal owner: for every key, the
        /// second-ranked node equals `node_for` on the ring with the
        /// owner removed. This identity is what lets failover promote
        /// a session on its replica and have the shrunk ring agree.
        #[test]
        fn successor_equals_owner_after_removal(
            nodes in proptest::collection::vec(any::<u16>(), 2..9),
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let ring = Ring::new(nodes.iter().copied(), seed);
            if ring.len() < 2 {
                return;
            }
            for &key in &keys {
                let owner = ring.node_for(key).unwrap();
                let ranked = ring.ranked(key);
                prop_assert_eq!(ranked[0], owner);
                prop_assert_eq!(ranked.len(), ring.len());
                let mut shrunk = ring.clone();
                shrunk.remove_node(owner);
                prop_assert_eq!(
                    ring.successor_for(key),
                    shrunk.node_for(key),
                    "successor disagrees with the shrunk ring for key {}", key
                );
            }
        }

        /// Placement is a pure function of (ring membership, seed, key):
        /// rebuilding the ring in any order answers identically.
        #[test]
        fn placement_is_membership_deterministic(
            nodes in proptest::collection::vec(any::<u16>(), 1..8),
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let ring = Ring::new(nodes.iter().copied(), seed);
            let mut reversed = nodes.clone();
            reversed.reverse();
            let rebuilt = Ring::new(reversed, seed);
            for &key in &keys {
                prop_assert_eq!(ring.node_for(key), rebuilt.node_for(key));
            }
        }
    }
}
