//! The sharded problem-tree store.
//!
//! [`ProblemId`]s are hashed across N shards; each shard is one
//! [`SolverService`] behind its own mutex, so sessions working on
//! unrelated problem trees never contend. A problem's children live in
//! its shard by construction (a child forks its parent's snapshot), so
//! routing is a pure function of the id — no cross-shard coordination,
//! no global lock.
//!
//! Since the cluster refactor the id is **placement-aware**: it names
//! the owning *node* (a `lwsnapd` instance, [`crate::router::NodeId`])
//! as well as the shard inside it, so a reference minted anywhere in a
//! cluster routes back to its home node without any lookup table — the
//! id *is* the route. A single-process deployment is simply the
//! degenerate node-0 cluster; every pre-cluster wire id decodes
//! unchanged (node 0).

use std::sync::Mutex;

use lwsnap_snapstore::CowStore;
use lwsnap_solver::{Lit, ProblemRef, SolveResult, SolverService};
use lwsnap_trace::StatsSummary;

use crate::router::NodeId;

/// Configuration for a [`ShardedService`]: its shards, their snapshot
/// bounds and its node id. A server's [`crate::ReplicaStore`] takes no
/// setting: the releases of the sessions it replicates bound it.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (independently locked problem trees).
    pub shards: usize,
    /// Per-shard resident-snapshot bound (`None` = unbounded). The
    /// whole-service memory budget is `shards × snapshot_capacity`
    /// solver snapshots.
    pub snapshot_capacity: Option<usize>,
    /// Per-shard resident-snapshot **byte budget** (`None` =
    /// unbounded): bounds the summed clause-database + assignment
    /// footprint ([`lwsnap_solver::Solver::footprint_bytes`]) of the
    /// resident snapshots, so the LRU evicts a few huge snapshots
    /// before many tiny ones. Composes with `snapshot_capacity`;
    /// whichever limit is exceeded first triggers eviction.
    pub snapshot_budget_bytes: Option<usize>,
    /// This instance's cluster node id (stamped into every
    /// [`ProblemId`] it mints; `0` for single-node deployments). Ids
    /// carrying a different node id are foreign — the wire front end
    /// rejects them with a typed error, the in-process API answers
    /// `None`.
    pub node_id: NodeId,
}

impl ServiceConfig {
    /// A config with `shards` shards (clamped to `1..=u16::MAX`), no
    /// memory bound, node id 0.
    pub fn new(shards: usize) -> Self {
        ServiceConfig {
            shards: shards.clamp(1, u16::MAX as usize),
            snapshot_capacity: None,
            snapshot_budget_bytes: None,
            node_id: 0,
        }
    }

    /// Sets the cluster node id.
    pub fn with_node_id(mut self, node: NodeId) -> Self {
        self.node_id = node;
        self
    }

    /// Sets the per-shard resident-snapshot bound.
    pub fn with_snapshot_capacity(mut self, capacity: usize) -> Self {
        self.snapshot_capacity = Some(capacity);
        self
    }

    /// Sets the per-shard resident-snapshot byte budget.
    pub fn with_snapshot_budget(mut self, bytes: usize) -> Self {
        self.snapshot_budget_bytes = Some(bytes);
        self
    }
}

/// A cluster-wide problem reference — the **placement-aware id**: the
/// owning node, the shard inside it, and the in-shard [`ProblemRef`].
/// Packs into a `u64` for the wire protocol (node ⋅ shard ⋅ local as
/// 16 ⋅ 16 ⋅ 32 bits), so a reference is its own route: no directory
/// lookup ever stands between an id and the snapshot it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemId {
    node: NodeId,
    shard: u16,
    local: u32,
}

impl ProblemId {
    pub(crate) fn new(node: NodeId, shard: usize, local: u32) -> ProblemId {
        ProblemId {
            node,
            shard: shard as u16,
            local,
        }
    }

    /// The cluster node this problem lives on (0 for single-node
    /// deployments).
    #[inline]
    pub fn node(self) -> NodeId {
        self.node
    }

    /// The shard this problem lives in (within its node).
    #[inline]
    pub fn shard(self) -> usize {
        self.shard as usize
    }

    /// The in-shard reference.
    #[inline]
    pub fn local(self) -> ProblemRef {
        ProblemRef::from_index(self.local)
    }

    /// Packs the id for the wire: `node` in bits 48..64, `shard` in
    /// bits 32..48, `local` in the low 32. Node-0 ids are bit-identical
    /// to the pre-cluster `(shard << 32) | local` packing.
    #[inline]
    pub fn to_wire(self) -> u64 {
        (self.node as u64) << 48 | (self.shard as u64) << 32 | self.local as u64
    }

    /// Unpacks a wire id **without validation** — the node or shard may
    /// name a home the service does not have (such ids answer `None`
    /// on use). Transport front ends should prefer
    /// [`ProblemId::from_wire_checked`], which rejects malformed ids at
    /// decode time with a typed error.
    #[inline]
    pub fn from_wire(wire: u64) -> ProblemId {
        ProblemId {
            node: (wire >> 48) as u16,
            shard: (wire >> 32) as u16,
            local: wire as u32,
        }
    }

    /// Unpacks a wire id, validating the placement against the serving
    /// node: an id routed to the wrong node is a decode error
    /// ([`crate::protocol::ProtoError::WrongNode`] — the consistent-hash
    /// router sent it to the wrong place, or the cluster map is stale),
    /// and a shard index at or beyond `num_shards` is
    /// [`crate::protocol::ProtoError::BadShard`]. Neither aliases into a
    /// silently-dead reference: corrupt or misrouted ids surface to the
    /// client as typed errors.
    #[inline]
    pub fn from_wire_checked(
        wire: u64,
        node: NodeId,
        num_shards: usize,
    ) -> Result<ProblemId, crate::protocol::ProtoError> {
        let id = ProblemId::from_wire(wire);
        if id.node() != node {
            return Err(crate::protocol::ProtoError::WrongNode {
                got: id.node() as u64,
                expected: node as u64,
            });
        }
        if id.shard() >= num_shards {
            return Err(crate::protocol::ProtoError::BadShard(id.shard() as u64));
        }
        Ok(id)
    }
}

/// Reply to a [`ShardedService::solve`] request.
#[derive(Debug, Clone)]
pub struct SolveReply {
    /// Reference to the new problem `p∧q`.
    pub problem: ProblemId,
    /// SAT/UNSAT.
    pub result: SolveResult,
    /// The model, if SAT.
    pub model: Option<Vec<bool>>,
    /// Conflicts this query cost.
    pub conflicts: u64,
    /// Whether the parent snapshot had to be re-derived (eviction miss).
    pub rederived: bool,
}

/// N independently locked [`SolverService`] shards behind one façade.
///
/// All methods take `&self`: the type is `Sync` and any number of
/// threads (the worker pool, TCP connection handlers, in-process
/// clients) may call into it concurrently. Only the target shard is
/// locked, for exactly the duration of one request.
pub struct ShardedService {
    node: NodeId,
    shards: Vec<Mutex<SolverService>>,
}

impl ShardedService {
    /// Builds the service: `config.shards` empty shards on the
    /// page-granular copy-on-write snapshot store ([`CowStore`]: a child
    /// holds only the pages it dirtied since its parent), each
    /// containing its root problem, each bounded by
    /// `config.snapshot_capacity`.
    /// The shard count is clamped to `1..=u16::MAX` — the id's shard
    /// field is 16 bits, and an unclamped count (the `shards` field is
    /// public) would silently alias ids across shards on truncation.
    pub fn new(config: ServiceConfig) -> Self {
        let shards = (0..config.shards.clamp(1, u16::MAX as usize))
            .map(|_| {
                let mut svc = SolverService::with_store(Box::new(CowStore::new()));
                svc.set_snapshot_capacity(config.snapshot_capacity);
                svc.set_snapshot_budget(config.snapshot_budget_bytes);
                Mutex::new(svc)
            })
            .collect();
        ShardedService {
            node: config.node_id,
            shards,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// This instance's cluster node id (stamped into every id it mints).
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The root problem of shard `shard` (empty, trivially SAT).
    pub fn root(&self, shard: usize) -> Option<ProblemId> {
        (shard < self.shards.len()).then_some(ProblemId::new(self.node, shard, 0))
    }

    /// The root a new client session should branch from: sessions are
    /// hashed across shards (Fibonacci hashing, shared with
    /// [`crate::router::session_shard`] so client-side placement
    /// agrees) — concurrent sessions spread out and unrelated trees
    /// never share a lock.
    pub fn session_root(&self, session: u64) -> ProblemId {
        let shard = crate::router::session_shard(session, self.shards.len());
        ProblemId::new(self.node, shard, 0)
    }

    /// Resolves an id to its shard: `None` for a foreign node's id or
    /// an out-of-range shard (dead-reference semantics — the wire front
    /// end rejects both *before* this point, with typed errors).
    fn shard(&self, id: ProblemId) -> Option<&Mutex<SolverService>> {
        if id.node() != self.node {
            return None;
        }
        self.shards.get(id.shard())
    }

    /// Solves `parent ∧ added`; see [`SolverService::solve`]. Locks only
    /// the parent's shard. `None` for dead or malformed references.
    pub fn solve(&self, parent: ProblemId, added: &[Vec<Lit>]) -> Option<SolveReply> {
        let mut shard = self.shard(parent)?.lock().unwrap();
        let reply = shard.solve(parent.local(), added)?;
        Some(SolveReply {
            problem: ProblemId::new(self.node, parent.shard(), reply.problem.index()),
            result: reply.result,
            model: reply.model,
            conflicts: reply.conflicts,
            rederived: reply.rederived,
        })
    }

    /// Releases a problem snapshot in its shard.
    pub fn release(&self, id: ProblemId) {
        if let Some(shard) = self.shard(id) {
            shard.lock().unwrap().release(id.local());
        }
    }

    /// Pins a problem against eviction.
    pub fn pin(&self, id: ProblemId) {
        if let Some(shard) = self.shard(id) {
            shard.lock().unwrap().pin(id.local());
        }
    }

    /// The cached result of an already-solved problem.
    pub fn result_of(&self, id: ProblemId) -> Option<SolveResult> {
        self.shard(id)?.lock().unwrap().result_of(id.local())
    }

    /// Depth of a problem in its shard's derivation tree.
    pub fn depth_of(&self, id: ProblemId) -> Option<u32> {
        self.shard(id)?.lock().unwrap().depth_of(id.local())
    }

    /// Whether the problem's snapshot is resident (not evicted).
    pub fn is_resident(&self, id: ProblemId) -> Option<bool> {
        self.shard(id)?.lock().unwrap().is_resident(id.local())
    }

    /// The node's solver counters: every shard's, folded.
    pub fn stats(&self) -> StatsSummary {
        let mut total = StatsSummary::default();
        for shard in self.shard_stats() {
            total.absorb(&shard);
        }
        total
    }

    /// Each shard's counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<StatsSummary> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(c: &[i64]) -> Vec<Lit> {
        c.iter().map(|&v| Lit::from_dimacs(v)).collect()
    }

    #[test]
    fn wire_roundtrip() {
        let id = ProblemId::new(0, 7, 123);
        assert_eq!(ProblemId::from_wire(id.to_wire()), id);
        assert_eq!(id.node(), 0);
        assert_eq!(id.shard(), 7);
        assert_eq!(id.local(), ProblemRef::from_index(123));
        // Node-0 packing is bit-identical to the pre-cluster format.
        assert_eq!(id.to_wire(), 7u64 << 32 | 123);
        // A cluster-placed id round-trips all three coordinates.
        let placed = ProblemId::new(5, 3, 9);
        assert_eq!(placed.to_wire(), 5u64 << 48 | 3u64 << 32 | 9);
        assert_eq!(ProblemId::from_wire(placed.to_wire()), placed);
        assert_eq!(placed.node(), 5);
    }

    #[test]
    fn service_stamps_its_node_id() {
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(3));
        assert_eq!(svc.node_id(), 3);
        let root = svc.session_root(11);
        assert_eq!(root.node(), 3);
        let reply = svc.solve(root, &[lits(&[1])]).unwrap();
        assert_eq!(reply.problem.node(), 3, "children inherit the node");
        // A foreign node's id is a dead reference in-process.
        let foreign = ProblemId::new(4, root.shard(), 0);
        assert!(svc.solve(foreign, &[lits(&[1])]).is_none());
        assert_eq!(svc.result_of(foreign), None);
    }

    #[test]
    fn sessions_spread_over_shards() {
        let svc = ShardedService::new(ServiceConfig::new(4));
        let mut seen = std::collections::HashSet::new();
        for session in 0..64u64 {
            seen.insert(svc.session_root(session).shard());
        }
        assert!(seen.len() >= 3, "64 sessions hit ≥3 of 4 shards: {seen:?}");
    }

    #[test]
    fn shards_are_independent_trees() {
        let svc = ShardedService::new(ServiceConfig::new(2));
        let a = svc.solve(svc.root(0).unwrap(), &[lits(&[1])]).unwrap();
        let b = svc.solve(svc.root(1).unwrap(), &[lits(&[-1])]).unwrap();
        assert_eq!(a.result, SolveResult::Sat);
        assert_eq!(b.result, SolveResult::Sat);
        assert_ne!(a.problem.shard(), b.problem.shard());
        // Contradictory facts coexist because the trees are disjoint.
        assert!(a.model.unwrap()[0]);
        assert!(!b.model.unwrap()[0]);
        let total = svc.stats();
        assert_eq!(total.queries, 2);
        assert_eq!(total.live_problems, 4, "2 roots + 2 children");
    }

    #[test]
    fn malformed_ids_fail_gracefully() {
        let svc = ShardedService::new(ServiceConfig::new(2));
        let bogus_shard = ProblemId::from_wire(99u64 << 32);
        assert!(svc.solve(bogus_shard, &[lits(&[1])]).is_none());
        assert_eq!(svc.result_of(bogus_shard), None);
        let bogus_local = ProblemId::from_wire(500);
        assert!(svc.solve(bogus_local, &[lits(&[1])]).is_none());
        assert!(svc.root(5).is_none());
    }

    #[test]
    fn checked_wire_decode_rejects_bad_shards_and_wrong_nodes() {
        use crate::protocol::ProtoError;
        let svc = ShardedService::new(ServiceConfig::new(4));
        // In-range ids decode to themselves.
        let good = ProblemId::new(0, 3, 9);
        assert_eq!(
            ProblemId::from_wire_checked(good.to_wire(), svc.node_id(), svc.num_shards()),
            Ok(good)
        );
        // Out-of-range shard indices are decode errors, not silently
        // dead references.
        let bad = (4u64 << 32) | 1;
        assert_eq!(
            ProblemId::from_wire_checked(bad, 0, svc.num_shards()),
            Err(ProtoError::BadShard(4))
        );
        // An id routed to the wrong node is the typed routing error —
        // checked BEFORE the shard, since a foreign node's shard layout
        // is unknowable here.
        let foreign = ProblemId::new(2, 1, 5).to_wire();
        assert_eq!(
            ProblemId::from_wire_checked(foreign, 0, svc.num_shards()),
            Err(ProtoError::WrongNode {
                got: 2,
                expected: 0
            })
        );
        assert_eq!(
            ProblemId::from_wire_checked(u64::MAX, 0, svc.num_shards()),
            Err(ProtoError::WrongNode {
                got: u16::MAX as u64,
                expected: 0
            })
        );
        // The same garbage id is a shard error on the node it names.
        assert_eq!(
            ProblemId::from_wire_checked(u64::MAX, u16::MAX, svc.num_shards()),
            Err(ProtoError::BadShard(u16::MAX as u64))
        );
    }

    #[test]
    fn cow_store_shares_pages_across_shard_snapshots() {
        // A multi-page base snapshot, then small derivations: the
        // children dirty a few delta pages and share the rest.
        let svc = ShardedService::new(ServiceConfig::new(1));
        let base = lwsnap_solver::random_ksat(600, 1200, 3, 7);
        let mut cur = svc
            .solve(svc.root(0).unwrap(), &base.clauses)
            .unwrap()
            .problem;
        for v in 1..=3 {
            cur = svc.solve(cur, &[lits(&[v])]).unwrap().problem;
        }
        let total = svc.stats();
        assert!(
            total.shared_pages > 0,
            "derivation chain shares pages: {total:?}"
        );
        assert!(total.resident_bytes > 0);
    }

    #[test]
    fn byte_budget_applies_per_shard() {
        // A tight per-shard byte budget forces evictions on the loaded
        // shard only; stats surface the resident footprint.
        let svc = ShardedService::new(ServiceConfig::new(2).with_snapshot_budget(1));
        let root = svc.root(0).unwrap();
        let mut cur = root;
        for v in 1..=4 {
            cur = svc.solve(cur, &[lits(&[v])]).unwrap().problem;
        }
        let stats = svc.shard_stats();
        assert!(stats[0].evictions > 0, "budget forced evictions");
        assert_eq!(stats[1].evictions, 0, "other shard untouched");
        assert!(svc.stats().resident_bytes > 0);
        // Evicted ancestors still answer via replay.
        let reply = svc.solve(root, &[lits(&[5])]).unwrap();
        assert_eq!(reply.result, SolveResult::Sat);
    }

    #[test]
    fn eviction_applies_per_shard() {
        let svc = ShardedService::new(ServiceConfig::new(2).with_snapshot_capacity(2));
        let root = svc.root(0).unwrap();
        let mut cur = root;
        for v in 1..=5 {
            cur = svc.solve(cur, &[lits(&[v])]).unwrap().problem;
        }
        let stats = svc.shard_stats();
        assert!(stats[0].evictions > 0, "chain exceeded capacity");
        assert_eq!(stats[1].evictions, 0, "other shard untouched");
        // Evicted ancestors still answer via replay.
        let reply = svc.solve(root, &[lits(&[6])]).unwrap();
        assert_eq!(reply.result, SolveResult::Sat);
    }
}
