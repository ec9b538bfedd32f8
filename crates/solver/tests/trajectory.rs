//! The golden search trajectory of the solver service.
//!
//! Fixed planted sessions run through [`SolverService`] on both snapshot
//! stores, and the whole run is pinned: the conflicts and propagations
//! every query's search cost, summed, and an FNV-1a digest of every
//! reply's verdict and model. A change to the solver's inner loop or to
//! how a query reaches its parent state must keep all three: the search
//! is part of the answer (the witness model depends on it), so a faster
//! kernel is only the same solver if it takes the same steps.
//!
//! The sessions are shaped like the ledger's `svc.hard` (150 variables,
//! 4 clauses per variable, 16 steps of 3 clauses) and `svc.tree` (70,
//! 3.5, 24 of 2): mostly deepening the newest node, sometimes branching
//! an older one. One session of each shape runs alone; two more run
//! interleaved in runs of two steps, so a query whose parent is the
//! service's previous answer and one whose parent is not alternate.
//!
//! The pinned values were recorded by running this test on the solver as
//! it stood before the working solver kept its last answer between
//! queries and before the propagate/analyze rewrite; both changes had to
//! leave them as they are.

use lwsnap_snapstore::CowStore;
use lwsnap_solver::{DeepCloneStore, Lit, ProblemRef, SnapshotStore, SolveResult, SolverService};

/// SplitMix64: a small seeded generator, so the sessions are the same
/// on every platform and need no other crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Session shape: variables, base clauses per variable, steps, clauses
/// per step.
type Shape = (u32, f64, usize, usize);
const HARD: Shape = (150, 4.0, 16, 3);
const TREE: Shape = (70, 3.5, 24, 2);

/// One planted session: a base problem and its steps, each naming the
/// session node it extends (node 0 is the base, node `k + 1` step `k`).
struct Session {
    base: Vec<Vec<Lit>>,
    steps: Vec<(usize, Vec<Vec<Lit>>)>,
}

/// A 3-literal clause over distinct variables, made true under `hidden`
/// by flipping one literal if it was not.
fn planted_clause(rng: &mut Rng, hidden: &[bool]) -> Vec<Lit> {
    let mut vars: Vec<u32> = Vec::new();
    while vars.len() < 3 {
        let v = rng.below(hidden.len() as u64) as u32;
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let mut clause: Vec<Lit> = vars
        .iter()
        .map(|&v| lwsnap_solver::Var(v).lit(rng.below(2) == 1))
        .collect();
    if !clause.iter().any(|l| hidden[l.var().index()] != l.sign()) {
        let flip = rng.below(3) as usize;
        clause[flip] = !clause[flip];
    }
    clause
}

fn session((vars, ratio, steps, per_step): Shape, seed: u64) -> Session {
    let mut rng = Rng(seed);
    let hidden: Vec<bool> = (0..vars).map(|_| rng.below(2) == 1).collect();
    let base = (0..(vars as f64 * ratio).round() as usize)
        .map(|_| planted_clause(&mut rng, &hidden))
        .collect();
    let steps = (0..steps)
        .map(|k| {
            // 3 in 4 deepen the newest node, the rest branch an older one.
            let parent = if k == 0 || rng.below(4) != 0 {
                k
            } else {
                rng.below(k as u64) as usize
            };
            let clauses = (0..per_step)
                .map(|_| planted_clause(&mut rng, &hidden))
                .collect();
            (parent, clauses)
        })
        .collect();
    Session { base, steps }
}

/// What a run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Trajectory {
    conflicts: u64,
    propagations: u64,
    rederive_conflicts: u64,
    digest: u64,
}

/// FNV-1a over bytes.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A session being driven: its nodes' references so far.
struct Live<'a> {
    plan: &'a Session,
    nodes: Vec<ProblemRef>,
}

impl Live<'_> {
    /// Runs the session's next query (the base first), folding the reply
    /// into `digest`. `false` once the session is done.
    fn step(&mut self, svc: &mut SolverService, digest: &mut u64) -> bool {
        let (parent, clauses) = match self.nodes.len() {
            0 => (svc.root(), &self.plan.base),
            n if n <= self.plan.steps.len() => {
                let (parent, clauses) = &self.plan.steps[n - 1];
                (self.nodes[*parent], clauses)
            }
            _ => return false,
        };
        let reply = svc.solve(parent, clauses).expect("a live parent");
        assert_eq!(reply.result, SolveResult::Sat, "planted sessions are SAT");
        fnv(digest, &[(reply.result == SolveResult::Sat) as u8]);
        let model = reply.model.unwrap_or_default();
        fnv(digest, &(model.len() as u64).to_le_bytes());
        fnv(digest, &model.iter().map(|&b| b as u8).collect::<Vec<u8>>());
        self.nodes.push(reply.problem);
        true
    }
}

/// Drives one session of each shape alone, then two more of each shape
/// interleaved two steps at a time, on a service over `store`.
fn run(store: Box<dyn SnapshotStore>, budget: Option<usize>) -> Trajectory {
    let mut svc = SolverService::with_store(store);
    svc.set_snapshot_budget(budget);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    // Hard seeds with a few thousand conflicts between them, so learnt
    // clause reduction runs too.
    for (shape, [alone, first, second]) in [(HARD, [8, 13, 23]), (TREE, [2, 12, 22])] {
        let solo = session(shape, alone);
        let mut live = Live {
            plan: &solo,
            nodes: Vec::new(),
        };
        while live.step(&mut svc, &mut digest) {}
        let pair = [session(shape, first), session(shape, second)];
        let mut lives = pair.each_ref().map(|plan| Live {
            plan,
            nodes: Vec::new(),
        });
        let mut more = true;
        while more {
            more = false;
            for live in &mut lives {
                more |= live.step(&mut svc, &mut digest);
                more |= live.step(&mut svc, &mut digest);
            }
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.queries, 3 * 17 + 3 * 25);
    Trajectory {
        conflicts: stats.total_conflicts,
        propagations: stats.total_propagations,
        rederive_conflicts: stats.rederive_conflicts,
        digest,
    }
}

/// The unbudgeted run: every parent stays resident, and both stores
/// must answer it identically.
const GOLDEN: Trajectory = Trajectory {
    conflicts: 7372,
    propagations: 256_572,
    rederive_conflicts: 0,
    digest: 11_829_214_294_543_515_008,
};

/// The same sessions under a byte budget that keeps evicting, so
/// parents are re-derived by replay (page store): the replies and their
/// searches are the unbudgeted run's, and the replays cost this much.
const GOLDEN_BUDGETED: Trajectory = Trajectory {
    rederive_conflicts: 28_333,
    ..GOLDEN
};

/// Bytes of resident snapshots the budgeted run keeps.
const BUDGET: usize = 96 * 1024;

#[test]
fn the_search_trajectory_is_pinned_on_both_stores() {
    assert_eq!(run(Box::new(DeepCloneStore::new()), None), GOLDEN);
    assert_eq!(run(Box::new(CowStore::new()), None), GOLDEN);
}

#[test]
fn the_search_trajectory_is_pinned_under_eviction() {
    assert_eq!(
        run(Box::new(CowStore::new()), Some(BUDGET)),
        GOLDEN_BUDGETED
    );
}
