//! The passive replica store: each node's copy of the constraint path
//! logs shipped to it by the home nodes of sessions placed elsewhere on
//! the ring — and `PathLog`, the one path-log type the store and the
//! cluster client both keep.
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
//! the node's own [`ShardedService`], one solve per recorded edge.
//! Because the solver is deterministic in the clause path, the
//! promoted problems answer **bit-identical verdicts and models** to
//! the originals — the property `tests/replication.rs` proptests.
//!
//! ## What bounds a replica: its home's releases
//!
//! Every `Release` a home node serves is mirrored to the session's
//! replica as [`crate::Request::Unreplicate`], and the store reaps the
//! released edges **child-aware** (`PathLog::release`): an edge some
//! live problem's replay path still runs through stays until its last
//! descendant is released too. So a replica holds exactly the edges of
//! the problems its home still holds — live, or a released ancestor of
//! a live one. An `Unreplicate` the network loses (or a home that dies
//! before sending it) leaks its edge for the session's lifetime, and a
//! node keeps the log of a session it promoted; `replica_bytes` counts
//! both.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use lwsnap_trace::{self as trace, StatsSummary};

use crate::protocol::clauses_to_lits;
use crate::sharded::{ProblemId, ShardedService};

/// Accounted bookkeeping per stored edge (map slots, parent pointer,
/// release flag, clause vector headers), on top of 4 B per clause and
/// 8 B per literal.
const EDGE_OVERHEAD: u64 = 96;

/// The accounted footprint of one edge adding `clauses`.
fn price(clauses: &[Vec<i64>]) -> u64 {
    EDGE_OVERHEAD + clauses.iter().map(|c| 4 + 8 * c.len() as u64).sum::<u64>()
}

/// One derivation step of a [`PathLog`].
struct Edge {
    /// Wire id of the problem this one was derived from.
    parent: u64,
    /// The incremental constraint, DIMACS literals.
    clauses: Vec<Vec<i64>>,
    /// The problem was released: the edge stays only while a stored
    /// edge names it as parent.
    released: bool,
}

/// One session's path log: derived problem → `(parent, clauses,
/// released)`, plus its one garbage collector. The replica store keeps
/// one per replicated session, the cluster client one per tracked
/// session. Edges may arrive in any order — a child before its parent
/// when a lossy network ate the parent's frame and a re-ship brings it
/// later — and the GC does not depend on that order.
#[derive(Default)]
pub(crate) struct PathLog {
    edges: HashMap<u64, Edge>,
    /// How many stored edges name each id as parent, counted whether
    /// or not that parent is stored yet.
    children: HashMap<u64, usize>,
    /// Sum of the stored edges' prices.
    bytes: u64,
}

impl PathLog {
    /// Records that `problem` was derived from `parent` by adding
    /// `clauses`. Idempotent per problem id: an edge already stored
    /// (released or not) is left untouched.
    pub(crate) fn record(&mut self, problem: u64, parent: u64, clauses: Vec<Vec<i64>>) {
        if self.edges.contains_key(&problem) {
            return;
        }
        self.bytes += price(&clauses);
        *self.children.entry(parent).or_default() += 1;
        self.edges.insert(
            problem,
            Edge {
                parent,
                clauses,
                released: false,
            },
        );
    }

    /// Marks `problem` released and reaps: walking up from it, an edge
    /// is dropped once it is released and no stored edge names it as
    /// parent, and then its parent is tried. An unknown id is a no-op.
    /// Returns the number of edges dropped.
    pub(crate) fn release(&mut self, problem: u64) -> usize {
        let Some(edge) = self.edges.get_mut(&problem) else {
            return 0;
        };
        edge.released = true;
        let mut dropped = 0;
        let mut cur = problem;
        while self
            .edges
            .get(&cur)
            .is_some_and(|e| e.released && !self.children.contains_key(&cur))
        {
            let edge = self.edges.remove(&cur).expect("checked above");
            self.bytes -= price(&edge.clauses);
            let siblings = self.children.get_mut(&edge.parent).expect("counted");
            *siblings -= 1;
            if *siblings == 0 {
                self.children.remove(&edge.parent);
            }
            dropped += 1;
            cur = edge.parent;
        }
        dropped
    }

    /// `problem`'s parent and clauses, if its edge is stored.
    fn get(&self, problem: u64) -> Option<(u64, &[Vec<i64>])> {
        self.edges.get(&problem).map(|e| (e.parent, &e.clauses[..]))
    }

    /// Number of stored edges.
    pub(crate) fn len(&self) -> usize {
        self.edges.len()
    }

    /// Sum of the stored edges' accounted prices.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Every stored problem id, sorted — so promotion requests and
    /// replay order repeat run to run.
    pub(crate) fn problems(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.edges.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The stored edges as `(problem, parent, clauses)`, by problem id.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (u64, u64, &[Vec<i64>])> + '_ {
        self.problems().into_iter().map(|p| {
            let e = &self.edges[&p];
            (p, e.parent, &e.clauses[..])
        })
    }

    /// Rewrites every problem and parent id through `new_id` — the
    /// client's move into a promoted home's coordinates.
    pub(crate) fn rename(&mut self, new_id: impl Fn(u64) -> u64) {
        self.edges = self
            .edges
            .drain()
            .map(|(p, mut e)| {
                e.parent = new_id(e.parent);
                (new_id(p), e)
            })
            .collect();
        self.children = self.children.drain().map(|(p, n)| (new_id(p), n)).collect();
    }
}

#[derive(Default)]
struct StoreInner {
    /// Path logs per replicated session.
    sessions: HashMap<u64, PathLog>,
    /// Memo of already-replayed problems: old wire id → promoted wire
    /// id on THIS node. Shared across sessions (home-node wire ids are
    /// globally unique: the node id is packed into them), so chains
    /// promoted piecemeal replay each edge once.
    promoted: HashMap<u64, u64>,
    /// The counters this store owns but does not derive from its logs:
    /// `replica_promotions`, `promoted_problems` and `failovers`.
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
    /// An empty store.
    pub fn new() -> ReplicaStore {
        ReplicaStore::default()
    }

    /// Records one path-log edge: on `session`'s home node, `problem`
    /// was derived from `parent` by adding `clauses`. Idempotent per
    /// problem id, so a re-sent or duplicated frame never
    /// double-counts.
    pub fn record(&self, session: u64, problem: u64, parent: u64, clauses: Vec<Vec<i64>>) {
        let mut inner = self.inner.lock().unwrap();
        let log = inner.sessions.entry(session).or_default();
        log.record(problem, parent, clauses);
    }

    /// Number of stored edges for `session`.
    pub fn session_edges(&self, session: u64) -> usize {
        self.inner
            .lock()
            .unwrap()
            .sessions
            .get(&session)
            .map_or(0, PathLog::len)
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

    /// Every stored problem id of `session`, sorted.
    pub fn session_problems(&self, session: u64) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        inner
            .sessions
            .get(&session)
            .map_or_else(Vec::new, PathLog::problems)
    }

    /// Replica GC: the client released `problems` on the session's
    /// home node, so their edges will never be promoted — reap them
    /// child-aware (`PathLog::release`): an edge some live problem's
    /// replay path still runs through stays until that problem goes
    /// too. Returns the number of edges dropped.
    pub fn forget(&self, session: u64, problems: &[u64]) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let Some(log) = inner.sessions.get_mut(&session) else {
            return 0;
        };
        let dropped = problems.iter().map(|&p| log.release(p)).sum();
        if log.len() == 0 {
            inner.sessions.remove(&session);
        }
        dropped
    }

    /// The counters this store owns (every other field zero).
    pub fn stats(&self) -> StatsSummary {
        let inner = self.inner.lock().unwrap();
        StatsSummary {
            replica_bytes: inner.sessions.values().map(PathLog::bytes).sum(),
            ..inner.stats
        }
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
            requested.extend(log.problems().into_iter().filter(|p| seen.insert(*p)));
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

/// Replays one problem's path onto `service`, memoizing every edge.
fn promote_one(
    st: &mut StoreInner,
    service: &ShardedService,
    session: u64,
    problem: u64,
) -> Option<u64> {
    let StoreInner {
        sessions,
        promoted,
        stats,
    } = st;
    let log = sessions.get(&session);
    // Walk up to a promoted ancestor or a root, collecting the
    // unreplayed suffix (child-most first).
    let mut chain: Vec<(u64, &[Vec<i64>])> = Vec::new();
    let mut cur = problem;
    while !promoted.contains_key(&cur) {
        if cur as u32 == 0 {
            // A session root: local index 0. Every node's fresh root
            // solver is identical, so this node's root at the same
            // shard index is the bit-identical replay base.
            let shard = (cur >> 32) as u16 as usize % service.num_shards();
            let root = service.root(shard)?.to_wire();
            promoted.insert(cur, root);
            break;
        }
        let (parent, clauses) = log?.get(cur)?;
        chain.push((cur, clauses));
        cur = parent;
    }
    // Replay downward, oldest edge first: one solve per original solve,
    // since the witness model depends on the exact solve trajectory.
    let mut base = promoted[&cur];
    for &(old, clauses) in chain.iter().rev() {
        let reply = service.solve(ProblemId::from_wire(base), &clauses_to_lits(clauses))?;
        base = reply.problem.to_wire();
        promoted.insert(old, base);
        stats.replica_promotions += 1;
    }
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ServiceConfig;
    use lwsnap_solver::SolveResult;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        // Releasing c cascades the whole released chain out.
        assert_eq!(store.forget(9, &[c]), 3);
        assert_eq!(store.session_edges(9), 0);
        assert_eq!(store.counters().0, 0);
    }

    #[test]
    fn byte_counter_tracks_recorded_payload_size() {
        let store = ReplicaStore::new();
        store.record(1, wire(0, 0, 1), wire(0, 0, 0), vec![vec![1, -2]]);
        let (bytes, ..) = store.counters();
        assert_eq!(
            bytes,
            96 + 4 + 2 * 8,
            "96 B + 4 B per clause + 8 B per literal"
        );
        // Re-recording the same problem replaces, not accumulates.
        store.record(1, wire(0, 0, 1), wire(0, 0, 0), vec![vec![1, -2]]);
        assert_eq!(store.counters().0, bytes);
        assert_eq!(store.session_edges(1), 1);
    }

    #[test]
    fn late_children_replay_through_their_parent() {
        let store = ReplicaStore::new();
        let (root, a, b, c) = (wire(0, 1, 0), wire(0, 1, 1), wire(0, 1, 2), wire(0, 1, 3));
        store.record(9, a, root, vec![vec![1]]);
        store.record(9, b, a, vec![vec![2]]);
        // `c`, a second child of `a`, arrives after `a` already has one.
        store.record(9, c, a, vec![vec![-2]]);
        assert_eq!(store.session_edges(9), 3);
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

    /// Problems in the GC model's tree: local ids `1..=TREE` on home
    /// node 0, shard 1; a problem's parent has a smaller id (0 = root).
    const TREE: u32 = 12;

    /// Problem `i`'s clauses: `k` clauses over variables no other
    /// problem uses, so every path stays satisfiable.
    fn clauses_of(i: u32, k: u32) -> Vec<Vec<i64>> {
        (0..k)
            .map(|j| (0..=j).map(|t| ((i * 4 + j) * 4 + t + 1) as i64).collect())
            .collect()
    }

    /// One step of the GC model: `kind` picks record (0–4), release
    /// (5–7), release of an id never recorded (8) or a leaf-first
    /// release of a problem's whole chain (9); `pick` names the problem.
    fn steps() -> impl Strategy<Value = Vec<(u8, u32)>> {
        proptest::collection::vec((0u8..10, 1u32..=TREE), 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The child-aware GC against a brute-force model: after every
        /// record or release, in any arrival order, the store keeps
        /// exactly the unreleased edges and their ancestors, prices
        /// them at 96 B + 4 B per clause + 8 B per literal, and still
        /// promotes every unreleased problem whose chain it holds.
        #[test]
        fn path_log_gc_matches_its_model(
            parents in proptest::collection::vec(any::<u32>(), TREE as usize),
            widths in proptest::collection::vec(1u32..4, TREE as usize),
            steps in steps(),
        ) {
            let session = 3;
            let id = |i: u32| wire(0, 1, i);
            let parent = |i: u32| parents[i as usize - 1] % i;
            let clauses = |i: u32| clauses_of(i, widths[i as usize - 1]);
            let store = ReplicaStore::new();
            // The model: every recorded problem → (parent, released),
            // reaped by recomputing the kept set from scratch.
            let mut model: BTreeMap<u32, (u32, bool)> = BTreeMap::new();
            for &(kind, pick) in &steps {
                let mut releases = Vec::new();
                match kind {
                    0..=4 => {
                        store.record(session, id(pick), id(parent(pick)), clauses(pick));
                        model.entry(pick).or_insert((parent(pick), false));
                    }
                    5..=7 => releases.push(pick),
                    8 => releases.push(TREE + pick),
                    _ => {
                        let mut cur = pick;
                        while cur != 0 {
                            releases.push(cur);
                            cur = parent(cur);
                        }
                    }
                }
                for p in releases {
                    store.forget(session, &[id(p)]);
                    if let Some(edge) = model.get_mut(&p) {
                        edge.1 = true;
                    }
                    let mut kept = BTreeMap::new();
                    for (&p, &(_, released)) in &model {
                        let mut cur = p;
                        while !released && cur != 0 && !kept.contains_key(&cur) {
                            let Some(&(up, _)) = model.get(&cur) else { break };
                            kept.insert(cur, ());
                            cur = up;
                        }
                    }
                    model.retain(|p, _| kept.contains_key(p));
                }

                let want: Vec<u64> = model.keys().map(|&p| id(p)).collect();
                prop_assert_eq!(store.session_problems(session), want);
                let bytes: u64 = model
                    .keys()
                    .map(|&p| {
                        let c = clauses(p);
                        96 + 4 * c.len() as u64 + 8 * c.iter().map(Vec::len).sum::<usize>() as u64
                    })
                    .sum();
                prop_assert_eq!(store.counters().0, bytes);

                // Promote a copy of the log on a fresh node: every
                // unreleased problem whose chain the model holds.
                let promotable: Vec<u64> = model
                    .iter()
                    .filter(|&(&p, &(_, released))| {
                        let mut cur = p;
                        while let Some(&(up, _)) = model.get(&cur) {
                            cur = up;
                        }
                        !released && cur == 0
                    })
                    .map(|(&p, _)| id(p))
                    .collect();
                let copy = ReplicaStore::new();
                if let Some(log) = store.inner.lock().unwrap().sessions.get(&session) {
                    for (p, up, c) in log.edges() {
                        copy.record(session, p, up, c.to_vec());
                    }
                }
                let svc = ShardedService::new(ServiceConfig::new(2).with_node_id(1));
                let promoted: HashSet<u64> = copy
                    .promote(&svc, session, &promotable)
                    .into_iter()
                    .map(|(old, _)| old)
                    .collect();
                for p in &promotable {
                    prop_assert!(promoted.contains(p), "{:#x} did not promote", p);
                }
            }
        }
    }
}
