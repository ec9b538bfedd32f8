//! The passive replica store: each node's copy of the constraint path
//! logs shipped to it by the home nodes of sessions placed elsewhere on
//! the ring.
//!
//! Replication rides on the same observation that powers in-node
//! eviction: a solver snapshot is a **pure function of the clause path
//! from its root**. So the replica of a session is not a snapshot copy
//! — it is the session's path log, a set of `(problem, parent,
//! clauses)` edges, recorded here as bytes and solved by nobody until
//! the moment it is needed. Recording an edge costs a hash-map insert;
//! the solving cost of replication is deferred entirely to failover,
//! which is the rare path.
//!
//! Edges arrive as [`crate::Request::Replicate`] frames: one from the
//! session's home node after every solve, and — before a promotion —
//! a client's whole copy of the log again, in case the network ate
//! some. A record is idempotent by the derived problem's wire id, so
//! re-sent and chaos-duplicated frames never double-count.
//!
//! On failover (or a planned drain) the client sends
//! [`crate::Request::Promote`]; [`ReplicaStore::promote`] then walks
//! each requested problem's parent chain back to a session root (local
//! index 0 — every node's fresh root solver is identical) or to an
//! already-promoted ancestor, and replays the edges downward through
//! the node's own [`ShardedService`]. Because the solver is
//! deterministic in the clause path, the promoted problems answer
//! **bit-identical verdicts and models** to the originals — the
//! property `tests/replication.rs` proptests.
//!
//! ## Bounded `replica_bytes`: compaction
//!
//! A long-lived session's path log grows without bound. When a byte
//! budget is configured ([`ReplicaStore::set_budget`]) and the store
//! exceeds it, linear parent chains are collapsed into single
//! **composite edges**: an edge whose sole child extends its tail is
//! merged into that child, concatenating their segment lists. Each
//! segment keeps its original wire id and its original clause batch, so
//! replay still issues **one solve per original solve** — the exact
//! trajectory — and promotion stays bit-identical for verdicts AND
//! witness models (proptested). What compaction reclaims is the
//! per-edge bookkeeping overhead; the clause bytes themselves are the
//! irreducible replay input.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use lwsnap_trace::{self as trace, StatsSummary};

use crate::protocol::clauses_to_lits;
use crate::sharded::{ProblemId, ShardedService};

/// Accounted bookkeeping overhead per stored edge (hash-map slots,
/// parent pointer, segment vector) — what compaction reclaims.
const EDGE_OVERHEAD: u64 = 64;

/// Accounted bookkeeping overhead per segment inside an edge (wire id,
/// index entry, clause vector header) — irreducible, like the clauses.
const SEGMENT_OVERHEAD: u64 = 32;

/// One original derivation step: `problem` was derived from the
/// previous segment (or the edge's parent) by adding `clauses`.
struct Segment {
    /// Wire id (home-node coordinates) of the derived problem.
    problem: u64,
    /// The incremental constraint, DIMACS literals.
    clauses: Vec<Vec<i64>>,
}

impl Segment {
    fn bytes(&self) -> u64 {
        SEGMENT_OVERHEAD
            + self
                .clauses
                .iter()
                .map(|c| 4 + 8 * c.len() as u64)
                .sum::<u64>()
    }
}

/// One stored path-log edge: possibly composite (several original
/// derivation steps chained tail-to-head by compaction).
struct Edge {
    /// Wire id of the problem the FIRST segment was derived from.
    parent: u64,
    /// The derivation steps, oldest first; never empty.
    segments: Vec<Segment>,
}

impl Edge {
    /// Accounted footprint, for the `replica_bytes` counter.
    fn bytes(&self) -> u64 {
        EDGE_OVERHEAD + self.segments.iter().map(Segment::bytes).sum::<u64>()
    }

    /// The last segment's problem id — the edge's key in the log.
    fn tail(&self) -> u64 {
        self.segments.last().expect("edges are never empty").problem
    }
}

/// One replicated session's path log.
#[derive(Default)]
struct SessionLog {
    /// Stored edges, keyed by their tail segment's wire id.
    edges: HashMap<u64, Edge>,
    /// Every recorded segment's wire id → the key of the edge holding
    /// it. Survives compaction, so parent pointers and promotions keep
    /// resolving interior ids of composite edges.
    index: HashMap<u64, u64>,
    /// Released problems whose segments are *retained* because a live
    /// descendant's replay path still runs through them. When the
    /// descendants are forgotten too, their edges cascade out
    /// ([`ReplicaStore::forget`]).
    tombstones: HashSet<u64>,
}

#[derive(Default)]
struct StoreInner {
    /// Path logs per replicated session.
    sessions: HashMap<u64, SessionLog>,
    /// Memo of already-replayed problems: old wire id → promoted wire
    /// id on THIS node. Shared across sessions (home-node wire ids are
    /// globally unique: the node id is packed into them), so chains
    /// promoted piecemeal replay each edge once.
    promoted: HashMap<u64, u64>,
    /// Byte budget; exceeding it triggers compaction.
    budget: Option<u64>,
    /// The counters this store owns: `replica_bytes`,
    /// `replica_promotions`, `promoted_problems`, `failovers` and
    /// `compactions`.
    stats: StatsSummary,
}

/// Per-node passive replica store; see the module docs. All methods
/// take `&self` (one internal mutex) — the reactor records and promotes
/// inline, while tests may poke at it from the host thread.
#[derive(Default)]
pub struct ReplicaStore {
    inner: Mutex<StoreInner>,
}

/// Replication counters: `(replica_bytes, replica_promotions,
/// failovers)`.
pub type ReplicaCounters = (u64, u64, u64);

impl ReplicaStore {
    /// An empty store with no byte budget.
    pub fn new() -> ReplicaStore {
        ReplicaStore::default()
    }

    /// An empty store that compacts whenever its accounted bytes exceed
    /// `budget`.
    pub fn with_budget(budget: Option<u64>) -> ReplicaStore {
        let store = ReplicaStore::default();
        store.inner.lock().unwrap().budget = budget;
        store
    }

    /// Sets (or clears) the compaction byte budget.
    pub fn set_budget(&self, budget: Option<u64>) {
        self.inner.lock().unwrap().budget = budget;
    }

    /// Records one path-log edge: on `session`'s home node, `problem`
    /// was derived from `parent` by adding `clauses`. Idempotent per
    /// problem id — a problem already recorded (even inside a composite
    /// edge) is left untouched, so a re-sent or duplicated frame never
    /// double-counts.
    pub fn record(&self, session: u64, problem: u64, parent: u64, clauses: Vec<Vec<i64>>) {
        let mut inner = self.inner.lock().unwrap();
        let st = &mut *inner;
        let log = st.sessions.entry(session).or_default();
        if log.index.contains_key(&problem) {
            return;
        }
        let edge = Edge {
            parent,
            segments: vec![Segment { problem, clauses }],
        };
        st.stats.replica_bytes += edge.bytes();
        log.index.insert(problem, problem);
        log.edges.insert(problem, edge);
        if st.budget.is_some_and(|b| st.stats.replica_bytes > b) {
            compact_locked(st);
        }
    }

    /// Number of stored edges for `session` (composite edges count
    /// once).
    pub fn session_edges(&self, session: u64) -> usize {
        self.inner
            .lock()
            .unwrap()
            .sessions
            .get(&session)
            .map_or(0, |log| log.edges.len())
    }

    /// Session ids with at least one stored edge — what a surviving
    /// peer iterates when it self-promotes after detecting a death.
    pub fn sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .inner
            .lock()
            .unwrap()
            .sessions
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Every recorded problem id of `session`, interior segments of
    /// composite edges included.
    pub fn session_problems(&self, session: u64) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        let mut ids: Vec<u64> = inner
            .sessions
            .get(&session)
            .map_or_else(Vec::new, |log| log.index.keys().copied().collect());
        ids.sort_unstable();
        ids
    }

    /// Replica GC: the client released `problems` on the session's
    /// home node, so their recorded edges will never be promoted —
    /// drop them and reclaim their bytes. **Child-aware**: an edge
    /// some *live* problem's replay path still runs through is kept
    /// (tombstoned) and cascades out when its last descendant is
    /// forgotten, so a release deep in a chain never breaks replay of
    /// the problems derived from it. Returns the number of edges
    /// dropped (now, including cascades from earlier tombstones).
    pub fn forget(&self, session: u64, problems: &[u64]) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let st = &mut *inner;
        let Some(log) = st.sessions.get_mut(&session) else {
            return 0;
        };
        let SessionLog {
            edges,
            index,
            tombstones,
        } = log;
        tombstones.extend(problems.iter().copied());
        let mut removed = 0usize;
        let mut freed = 0u64;
        loop {
            // An edge is removable once every segment in it is released
            // AND no stored edge's parent pointer resolves into it.
            let live_parent_keys: HashSet<u64> = edges
                .values()
                .filter_map(|e| index.get(&e.parent).copied())
                .collect();
            let victim = edges
                .iter()
                .find(|(key, e)| {
                    !live_parent_keys.contains(*key)
                        && e.segments.iter().all(|s| tombstones.contains(&s.problem))
                })
                .map(|(&key, _)| key);
            let Some(victim) = victim else { break };
            if let Some(edge) = edges.remove(&victim) {
                freed += edge.bytes();
                removed += 1;
                for seg in &edge.segments {
                    index.remove(&seg.problem);
                    tombstones.remove(&seg.problem);
                }
            }
        }
        // Tombstones for ids with no recorded segment are dead weight.
        tombstones.retain(|p| index.contains_key(p));
        if log.edges.is_empty() {
            st.sessions.remove(&session);
        }
        st.stats.replica_bytes -= freed;
        removed
    }

    /// The counters this store owns (every other field zero).
    pub fn stats(&self) -> StatsSummary {
        self.inner.lock().unwrap().stats
    }

    /// Current `(replica_bytes, replica_promotions, failovers)`: three
    /// fields of [`ReplicaStore::stats`].
    pub fn counters(&self) -> ReplicaCounters {
        let s = self.stats();
        (s.replica_bytes, s.replica_promotions, s.failovers)
    }

    /// Promotes `session`'s replica onto `service` (this node's own
    /// tree): every problem in `problems` — **plus every other problem
    /// recorded for the session**, so a client that never saw an edge
    /// (another client drove it) still receives its remap — whose
    /// recorded path can be walked back to a session root or an
    /// already-promoted ancestor is replayed, and `(old wire id,
    /// promoted wire id)` pairs are returned, request order first.
    /// Problems with no recorded path (or a broken chain) are silently
    /// omitted — the client treats them as unrecoverable.
    pub fn promote(
        &self,
        service: &ShardedService,
        session: u64,
        problems: &[u64],
    ) -> Vec<(u64, u64)> {
        let promote_t0 = trace::now_ns();
        let mut inner = self.inner.lock().unwrap();
        inner.stats.failovers += 1;
        let mut requested: Vec<u64> = problems.to_vec();
        let mut seen: HashSet<u64> = problems.iter().copied().collect();
        if let Some(log) = inner.sessions.get(&session) {
            let mut extras: Vec<u64> = log
                .index
                .keys()
                .filter(|p| seen.insert(**p))
                .copied()
                .collect();
            extras.sort_unstable();
            requested.extend(extras);
        }
        let mut mapping = Vec::with_capacity(requested.len());
        for &problem in &requested {
            if let Some(new) = promote_one(&mut inner, service, session, problem) {
                mapping.push((problem, new));
            }
        }
        trace::span(
            trace::Kind::ReplPromote,
            promote_t0,
            session,
            mapping.len() as u64,
        );
        inner.stats.promoted_problems += mapping.len() as u64;
        mapping
    }
}

/// Collapses every mergeable linear link in every session: an edge
/// whose SOLE child extends its tail is merged into that child
/// (segments concatenated, the child inheriting the merged-away edge's
/// parent). The segment index keeps resolving interior ids, so replay
/// and GC semantics are unchanged — only the per-edge overhead is
/// reclaimed.
fn compact_locked(st: &mut StoreInner) {
    let mut saved = 0u64;
    let mut merges = 0u64;
    for log in st.sessions.values_mut() {
        loop {
            // Child census: how many stored edges hang off each edge
            // key, and (when unique) which one.
            let mut children: HashMap<u64, (usize, u64)> = HashMap::new();
            for (&ck, e) in &log.edges {
                if let Some(&pk) = log.index.get(&e.parent) {
                    let slot = children.entry(pk).or_insert((0, ck));
                    slot.0 += 1;
                    slot.1 = ck;
                }
            }
            let target = children.iter().find_map(|(&pk, &(n, ck))| {
                (n == 1 && log.edges[&ck].parent == log.edges[&pk].tail()).then_some((pk, ck))
            });
            let Some((pk, ck)) = target else { break };
            let parent_edge = log.edges.remove(&pk).expect("census key is stored");
            for seg in &parent_edge.segments {
                log.index.insert(seg.problem, ck);
            }
            let child = log.edges.get_mut(&ck).expect("census child is stored");
            child.parent = parent_edge.parent;
            let mut segments = parent_edge.segments;
            segments.append(&mut child.segments);
            child.segments = segments;
            saved += EDGE_OVERHEAD;
            merges += 1;
        }
    }
    st.stats.replica_bytes -= saved;
    st.stats.compactions += merges;
}

/// Replays one problem's path onto `service`, memoizing every segment.
fn promote_one(
    st: &mut StoreInner,
    service: &ShardedService,
    session: u64,
    problem: u64,
) -> Option<u64> {
    // Walk up to a promoted ancestor or a root, collecting the edge
    // keys of the unreplayed suffix (child-most first).
    let mut chain: Vec<u64> = Vec::new();
    {
        let StoreInner {
            sessions, promoted, ..
        } = st;
        let mut cur = problem;
        loop {
            if promoted.contains_key(&cur) {
                break;
            }
            if cur as u32 == 0 {
                // A session root: local index 0. Every node's fresh
                // root solver is identical, so this node's root at the
                // same shard index is the bit-identical replay base.
                let shard = (cur >> 32) as u16 as usize % service.num_shards();
                let root = service.root(shard)?.to_wire();
                promoted.insert(cur, root);
                break;
            }
            let log = sessions.get(&session)?;
            let &key = log.index.get(&cur)?;
            chain.push(key);
            cur = log.edges.get(&key)?.parent;
        }
    }
    // Replay downward, oldest edge first, one solve PER SEGMENT — the
    // witness model depends on the exact solve trajectory, so composite
    // edges must replay their original step boundaries, never a merged
    // clause batch.
    for &key in chain.iter().rev() {
        let StoreInner {
            sessions,
            promoted,
            stats,
            ..
        } = st;
        let edge = sessions.get(&session)?.edges.get(&key)?;
        let mut parent = *promoted.get(&edge.parent)?;
        for seg in &edge.segments {
            if let Some(&done) = promoted.get(&seg.problem) {
                parent = done;
                continue;
            }
            let lits = clauses_to_lits(&seg.clauses);
            let reply = service.solve(ProblemId::from_wire(parent), &lits)?;
            let new = reply.problem.to_wire();
            promoted.insert(seg.problem, new);
            stats.replica_promotions += 1;
            parent = new;
        }
    }
    st.promoted.get(&problem).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ServiceConfig;
    use lwsnap_solver::SolveResult;

    fn wire(node: u16, shard: u16, local: u32) -> u64 {
        (node as u64) << 48 | (shard as u64) << 32 | local as u64
    }

    #[test]
    fn unknown_problems_are_omitted_not_errors() {
        let store = ReplicaStore::new();
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        assert_eq!(store.promote(&svc, 7, &[wire(0, 0, 5)]), vec![]);
        let (_, promotions, failovers) = store.counters();
        assert_eq!((promotions, failovers), (0, 1));
    }

    #[test]
    fn shared_prefixes_replay_once() {
        let store = ReplicaStore::new();
        // Home node 0's tree: root → a (x1) → {b (x2), c (¬x2)}.
        let (root, a, b, c) = (wire(0, 1, 0), wire(0, 1, 1), wire(0, 1, 2), wire(0, 1, 3));
        store.record(9, a, root, vec![vec![1]]);
        store.record(9, b, a, vec![vec![2]]);
        store.record(9, c, a, vec![vec![-2]]);
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let mapping = store.promote(&svc, 9, &[a, b, c]);
        assert_eq!(mapping.len(), 3);
        let (_, promotions, _) = store.counters();
        assert_eq!(promotions, 3, "edge `a` replayed once, not three times");
        for (old, new) in &mapping {
            assert_eq!(ProblemId::from_wire(*new).node(), 1);
            assert_ne!(old, new);
            assert_eq!(
                svc.result_of(ProblemId::from_wire(*new)),
                Some(SolveResult::Sat)
            );
        }
        // A second promotion answers from the memo: three more remaps,
        // no more replays.
        assert_eq!(store.promote(&svc, 9, &[a, b, c]), mapping);
        let stats = store.stats();
        assert_eq!(stats.replica_promotions, 3);
        assert_eq!(stats.promoted_problems, 6);
        assert_eq!(stats.failovers, 2);
        // b and c really diverge on the replica too.
        let (_, b2) = mapping[1];
        let sat = svc
            .solve(ProblemId::from_wire(b2), &clauses_to_lits(&[vec![2]]))
            .unwrap();
        assert_eq!(sat.result, SolveResult::Sat);
    }

    #[test]
    fn forget_drops_released_edges_and_their_bytes() {
        let store = ReplicaStore::new();
        let (root, a, b) = (wire(0, 0, 0), wire(0, 0, 1), wire(0, 0, 2));
        store.record(5, a, root, vec![vec![1, 2, 3]]);
        store.record(5, b, root, vec![vec![-1]]);
        let (full, ..) = store.counters();
        assert_eq!(store.forget(5, &[a]), 1);
        assert_eq!(store.session_edges(5), 1);
        assert!(store.counters().0 < full);
        assert_eq!(store.forget(5, &[b]), 1);
        assert_eq!(store.session_edges(5), 0);
        assert_eq!(store.counters().0, 0, "all replica bytes reclaimed");
        // Forgetting unknown problems or sessions is a no-op.
        assert_eq!(store.forget(5, &[a]), 0);
        assert_eq!(store.forget(99, &[a]), 0);
    }

    #[test]
    fn forget_keeps_edges_live_descendants_replay_through() {
        let store = ReplicaStore::new();
        // root → a → b → c; release a and b while c stays live.
        let (root, a, b, c) = (wire(0, 1, 0), wire(0, 1, 1), wire(0, 1, 2), wire(0, 1, 3));
        store.record(9, a, root, vec![vec![1]]);
        store.record(9, b, a, vec![vec![2]]);
        store.record(9, c, b, vec![vec![3]]);
        assert_eq!(store.forget(9, &[a, b]), 0, "c still replays through them");
        assert_eq!(store.session_edges(9), 3);
        // c must still be promotable — the whole chain replays.
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let mapping = store.promote(&svc, 9, &[c]);
        assert!(mapping.iter().any(|&(old, _)| old == c));
        let promoted_c = mapping.iter().find(|&&(old, _)| old == c).unwrap().1;
        assert_eq!(
            svc.result_of(ProblemId::from_wire(promoted_c)),
            Some(SolveResult::Sat)
        );
        // Releasing c cascades the whole tombstoned chain out.
        assert_eq!(store.forget(9, &[c]), 3);
        assert_eq!(store.session_edges(9), 0);
        assert_eq!(store.counters().0, 0);
    }

    #[test]
    fn byte_counter_tracks_recorded_payload_size() {
        let store = ReplicaStore::new();
        store.record(1, wire(0, 0, 1), wire(0, 0, 0), vec![vec![1, -2]]);
        let (bytes, ..) = store.counters();
        assert!(bytes > 0);
        // Re-recording the same problem replaces, not accumulates.
        store.record(1, wire(0, 0, 1), wire(0, 0, 0), vec![vec![1, -2]]);
        assert_eq!(store.counters().0, bytes);
        assert_eq!(store.session_edges(1), 1);
    }

    #[test]
    fn budget_compaction_collapses_linear_chains() {
        let store = ReplicaStore::with_budget(Some(1));
        let session = 11u64;
        let chain: Vec<u64> = (0..=16).map(|i| wire(0, 1, i)).collect();
        for i in 1..chain.len() {
            store.record(session, chain[i], chain[i - 1], vec![vec![i as i64]]);
        }
        // The whole linear chain lives in ONE composite edge, and the
        // byte counter reflects only per-segment + clause costs plus a
        // single edge overhead.
        assert_eq!(store.session_edges(session), 1);
        assert!(store.stats().compactions > 0);
        let (bytes, ..) = store.counters();
        let floor = EDGE_OVERHEAD + 16 * (SEGMENT_OVERHEAD + 4 + 8);
        assert_eq!(bytes, floor, "compacted to the accounting floor");
        // Promotion still replays per ORIGINAL step: 16 promotions, and
        // every interior id resolves.
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let mapping = store.promote(&svc, session, &[chain[8], *chain.last().unwrap()]);
        assert_eq!(store.counters().1, 16, "one solve per original step");
        for (_, new) in &mapping {
            assert_eq!(
                svc.result_of(ProblemId::from_wire(*new)),
                Some(SolveResult::Sat)
            );
        }
        assert_eq!(mapping.len(), 16, "full session mapping returned");
    }

    #[test]
    fn late_children_replay_through_compacted_interiors() {
        let store = ReplicaStore::with_budget(Some(1));
        let (root, a, b, c) = (wire(0, 1, 0), wire(0, 1, 1), wire(0, 1, 2), wire(0, 1, 3));
        store.record(9, a, root, vec![vec![1]]);
        // `a` and `b` form a linear link and compact into one composite
        // edge before `c` (a second child of `a`) ever arrives.
        store.record(9, b, a, vec![vec![2]]);
        assert_eq!(store.session_edges(9), 1);
        store.record(9, c, a, vec![vec![-2]]);
        // `c` parents on an INTERIOR segment of the composite; the
        // segment index resolves it, so the fork is representable and
        // no further merge happens across it.
        assert_eq!(store.session_edges(9), 2);
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let mapping = store.promote(&svc, 9, &[b, c]);
        assert_eq!(mapping.len(), 3, "a, b and c all promoted");
        for (_, new) in &mapping {
            assert_eq!(
                svc.result_of(ProblemId::from_wire(*new)),
                Some(SolveResult::Sat)
            );
        }
    }

    #[test]
    fn promote_returns_the_full_session_mapping() {
        // A client that never logged an edge still gets the remaps it
        // needs: promote with an EMPTY request returns everything the
        // store knows about the session.
        let store = ReplicaStore::new();
        let (root, a, b) = (wire(0, 1, 0), wire(0, 1, 1), wire(0, 1, 2));
        store.record(9, a, root, vec![vec![1]]);
        store.record(9, b, a, vec![vec![2]]);
        let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
        let mapping = store.promote(&svc, 9, &[]);
        assert_eq!(mapping.len(), 2);
        assert!(mapping.iter().any(|&(old, _)| old == a));
        assert!(mapping.iter().any(|&(old, _)| old == b));
    }
}
