//! The ledger's own input generators: planted 3-SAT session plans.
//!
//! A `(workload, seed)` pair fixes every byte the program under test
//! receives. Instances are **planted**: a hidden assignment is drawn
//! first and every clause is made consistent with it, so each node of
//! every session is satisfiable *by construction*. That gives the
//! verifier a reference verdict for any seed without solving anything —
//! an `Unsat` reply is a wrong verdict, and a `Sat` reply is checked by
//! evaluating its model against the node's whole constraint path — and
//! it keeps per-seed cost steady (no seed draws an unsatisfiable base
//! that turns its whole session into trivial replies).

use lwsnap_solver::Lit;

use crate::rng::Rng;

/// How a session's steps pick the node they extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentRule {
    /// 75 % deepen the newest node, 25 % branch a uniformly chosen older
    /// one (the §3.2 traffic shape: mostly chains, sometimes multi-path).
    MostlyDeepen,
    /// Uniform over every earlier node of the session, base included.
    Uniform,
}

/// Shape of one session's plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanShape {
    /// Variables of the base problem.
    pub vars: u32,
    /// Base clauses ÷ variables.
    pub ratio: f64,
    /// Incremental solves per session.
    pub steps: usize,
    /// Clauses added per step.
    pub clauses_per_step: usize,
    /// Parent selection.
    pub parents: ParentRule,
}

/// Literals per clause.
pub const K: usize = 3;

/// One session: a base problem and a fixed sequence of incremental
/// steps. Node 0 is the base; node `k > 0` is the result of step `k-1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Base clauses, `K` DIMACS literals each, flattened.
    pub base: Vec<i32>,
    /// Step clauses, `clauses_per_step × K` literals per step, flattened.
    pub step_lits: Vec<i32>,
    /// `parents[k]` is the node step `k` extends (`≤ k`).
    pub parents: Vec<u32>,
    /// Literals per step in `step_lits`.
    pub lits_per_step: usize,
}

impl SessionPlan {
    /// Number of incremental steps.
    pub fn steps(&self) -> usize {
        self.parents.len()
    }

    /// The flattened literals of step `k`.
    pub fn step(&self, k: usize) -> &[i32] {
        &self.step_lits[k * self.lits_per_step..(k + 1) * self.lits_per_step]
    }

    /// Every clause on the path from the base to node `node`, in the
    /// form the solver API takes (what a from-scratch solve is given).
    pub fn path_clauses(&self, node: usize) -> Vec<Vec<Lit>> {
        let mut clauses = to_clauses(&self.base);
        let mut at = node;
        while at > 0 {
            clauses.extend(to_clauses(self.step(at - 1)));
            at = self.parents[at - 1] as usize;
        }
        clauses
    }

    /// Whether `model` satisfies the base and every step on the path
    /// from the base to node `node` — the complete check of a `Sat`
    /// verdict for that node.
    pub fn path_satisfied(&self, node: usize, model: &[bool]) -> bool {
        let mut at = node;
        while at > 0 {
            if !satisfies(self.step(at - 1), model) {
                return false;
            }
            at = self.parents[at - 1] as usize;
        }
        satisfies(&self.base, model)
    }
}

/// Whether every `K`-literal clause of `flat` has a true literal.
pub fn satisfies(flat: &[i32], model: &[bool]) -> bool {
    flat.chunks_exact(K).all(|clause| {
        clause.iter().any(|&l| {
            model
                .get(l.unsigned_abs() as usize - 1)
                .is_some_and(|&v| v == (l > 0))
        })
    })
}

/// The flattened clauses in the form the solver API takes.
pub fn to_clauses(flat: &[i32]) -> Vec<Vec<Lit>> {
    flat.chunks_exact(K)
        .map(|c| c.iter().map(|&l| Lit::from_dimacs(l as i64)).collect())
        .collect()
}

/// One clause over `vars` variables, consistent with `hidden`: `K`
/// distinct variables, random signs, and if that falsifies the clause
/// under the hidden assignment, one random literal is flipped.
fn planted_clause(rng: &mut Rng, hidden: &[bool], out: &mut Vec<i32>) {
    let vars = hidden.len() as u64;
    let start = out.len();
    while out.len() - start < K {
        let var = rng.below(vars) as i32 + 1;
        if out[start..].iter().all(|l| l.abs() != var) {
            out.push(if rng.chance(1, 2) { var } else { -var });
        }
    }
    let clause = &mut out[start..];
    if !clause
        .iter()
        .any(|&l| hidden[l.unsigned_abs() as usize - 1] == (l > 0))
    {
        let flip = rng.below(K as u64) as usize;
        clause[flip] = -clause[flip];
    }
}

/// Generates session `index` of stream `(seed, conn)`. Each session
/// draws from its own sub-stream, so the pool is the same whichever
/// order (or subset) it is generated in.
pub fn session_plan(shape: &PlanShape, seed: u64, conn: u64, index: u64) -> SessionPlan {
    assert!(shape.vars as usize >= K, "need at least K variables");
    let mut rng = Rng::for_stream(seed, conn << 32 | index);
    let hidden: Vec<bool> = (0..shape.vars).map(|_| rng.chance(1, 2)).collect();
    let base_clauses = (shape.vars as f64 * shape.ratio).round() as usize;
    let mut base = Vec::with_capacity(base_clauses * K);
    for _ in 0..base_clauses {
        planted_clause(&mut rng, &hidden, &mut base);
    }
    let lits_per_step = shape.clauses_per_step * K;
    let mut step_lits = Vec::with_capacity(shape.steps * lits_per_step);
    let mut parents = Vec::with_capacity(shape.steps);
    for k in 0..shape.steps as u64 {
        let parent = match shape.parents {
            ParentRule::MostlyDeepen if k == 0 || rng.chance(3, 4) => k,
            ParentRule::MostlyDeepen => rng.below(k),
            ParentRule::Uniform => rng.below(k + 1),
        };
        parents.push(parent as u32);
        for _ in 0..shape.clauses_per_step {
            planted_clause(&mut rng, &hidden, &mut step_lits);
        }
    }
    SessionPlan {
        base,
        step_lits,
        parents,
        lits_per_step,
    }
}

/// A connection's whole pool of `sessions` plans.
pub fn pool(shape: &PlanShape, seed: u64, conn: u64, sessions: usize) -> Vec<SessionPlan> {
    (0..sessions as u64)
        .map(|i| session_plan(shape, seed, conn, i))
        .collect()
}

/// FNV-1a over a byte stream: the digest pinned for committed seeds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one plan: exactly the values the program will be sent.
    pub fn plan(&mut self, plan: &SessionPlan) {
        for lits in [&plan.base, &plan.step_lits] {
            self.bytes(&(lits.len() as u64).to_le_bytes());
            for l in lits {
                self.bytes(&l.to_le_bytes());
            }
        }
        for p in &plan.parents {
            self.bytes(&p.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: PlanShape = PlanShape {
        vars: 20,
        ratio: 3.5,
        steps: 12,
        clauses_per_step: 2,
        parents: ParentRule::MostlyDeepen,
    };

    #[test]
    fn plans_are_a_function_of_seed_conn_and_index() {
        assert_eq!(session_plan(&SHAPE, 1, 0, 5), session_plan(&SHAPE, 1, 0, 5));
        assert_ne!(session_plan(&SHAPE, 1, 0, 5), session_plan(&SHAPE, 2, 0, 5));
        assert_ne!(session_plan(&SHAPE, 1, 0, 5), session_plan(&SHAPE, 1, 1, 5));
        assert_ne!(session_plan(&SHAPE, 1, 0, 5), session_plan(&SHAPE, 1, 0, 6));
        // Pool order does not matter: each session has its own stream.
        assert_eq!(pool(&SHAPE, 9, 1, 4)[3], session_plan(&SHAPE, 9, 1, 3));
    }

    #[test]
    fn plans_have_the_requested_shape() {
        let plan = session_plan(&SHAPE, 3, 0, 0);
        assert_eq!(plan.base.len(), 70 * K);
        assert_eq!(plan.steps(), 12);
        assert_eq!(plan.step(11).len(), 2 * K);
        for (k, &p) in plan.parents.iter().enumerate() {
            assert!(p as usize <= k, "step {k} extends a later node {p}");
        }
        for clause in plan.base.chunks_exact(K) {
            assert!(clause.iter().all(|&l| l != 0 && l.unsigned_abs() <= 20));
            assert_ne!(clause[0].abs(), clause[1].abs());
            assert_ne!(clause[0].abs(), clause[2].abs());
            assert_ne!(clause[1].abs(), clause[2].abs());
        }
    }

    /// Every node is satisfiable, as the from-scratch solver confirms —
    /// the reference verdict the verifier relies on.
    #[test]
    fn every_node_is_satisfiable_from_scratch() {
        for rule in [ParentRule::MostlyDeepen, ParentRule::Uniform] {
            let shape = PlanShape {
                parents: rule,
                ..SHAPE
            };
            let plan = session_plan(&shape, 11, 0, 2);
            for node in 0..=plan.steps() {
                let clauses = plan.path_clauses(node);
                let (verdict, _) = lwsnap_solver::SolverService::solve_scratch(&clauses);
                assert_eq!(verdict, lwsnap_solver::SolveResult::Sat, "node {node}");
            }
        }
    }

    #[test]
    fn path_check_accepts_models_and_rejects_non_models() {
        let plan = session_plan(&SHAPE, 4, 0, 0);
        let node = plan.steps();
        let mut solver = lwsnap_solver::Solver::new();
        for c in plan.path_clauses(node) {
            solver.add_clause(&c);
        }
        assert_eq!(solver.solve(), lwsnap_solver::SolveResult::Sat);
        let model = solver.model();
        assert!(plan.path_satisfied(node, &model));
        // Flipping the variables of the first base clause breaks it.
        let mut bad = model.clone();
        for &l in &plan.base[..K] {
            bad[l.unsigned_abs() as usize - 1] = l < 0;
        }
        assert!(!plan.path_satisfied(node, &bad));
        assert!(
            !plan.path_satisfied(0, &[]),
            "a short model satisfies nothing"
        );
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = Digest::default();
        a.plan(&session_plan(&SHAPE, 1, 0, 0));
        let mut b = Digest::default();
        b.plan(&session_plan(&SHAPE, 1, 0, 0));
        let mut c = Digest::default();
        c.plan(&session_plan(&SHAPE, 1, 0, 1));
        assert_eq!(a.hex(), b.hex());
        assert_ne!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
