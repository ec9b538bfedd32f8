//! Bit-blasting: expression DAG → Tseitin circuit → SAT.
//!
//! Path feasibility and test-case generation both reduce to one
//! question — "is this conjunction of 1-bit expressions satisfiable, and
//! if so, what are the input bytes?". There are two ways to ask it:
//!
//! * [`check_path`] blasts the whole conjunction and solves it from
//!   scratch on a local `lwsnap-solver` instance. It is the reference
//!   the tests (and every debug build of the executor) compare against.
//! * The symbolic executor asks **incrementally**: a path keeps the
//!   [`BlastState`] of the last problem it solved, blasts only the
//!   constraints accepted since ([`Blaster::resume`]), and submits the
//!   clauses those appended ([`Blaster::take_delta`]) as
//!   `solve(parent problem, Δ)` on a [`lwsnap_service::SolverBackend`]
//!   — the paper's §3.2 solver service used the way it was meant.
//!
//! ## The determinism contract
//!
//! 1. **Numbering is a function of the constraint sequence.** A
//!    [`Blaster`] allocates variables and emits clauses in the order it
//!    is fed constraints, and memoises sub-expressions across calls.
//!    Blasting `c₁ … cₙ` one at a time, in arbitrary batches, or all at
//!    once therefore yields the same clauses, the same `num_vars` and
//!    the same input→variable map; a state resumed on another worker
//!    continues with the numbering it was stolen with.
//! 2. **Verdicts equal [`check_path`].** The clauses a path has shipped
//!    along its problem chain are, concatenated, exactly what
//!    [`check_path`] would have built for the same constraints.
//! 3. **Witnesses satisfy their path.** Every witness evaluates every
//!    constraint of its path to the recorded polarity under
//!    [`ExprPool::eval`]. Witness *bytes* are a function of the problem
//!    chain — identical across backends, worker counts and snapshot
//!    eviction, because a service reply is a function of the chain — but
//!    they are not the bytes a from-scratch solve of the same condition
//!    would pick, and nothing promises that.

use std::collections::HashMap;

use lwsnap_solver::{Bv, CLit, Circuit, Cnf, Lit, SolveResult, Solver};

use crate::expr::{BinOp, CmpOp, Expr, ExprId, ExprPool};

/// What a bit-blasting session has built so far, detached from the
/// pool borrow: the variable numbering, the memo of blasted
/// sub-expressions, the input→variable map and the clauses not yet
/// taken. Cloning it forks the session — the solver-side half of a
/// symbolic state, carried next to the problem it belongs to.
#[derive(Debug, Clone, Default)]
pub struct BlastState {
    circuit: Circuit,
    memo: HashMap<ExprId, Bv>,
    inputs: HashMap<u32, Bv>,
}

impl BlastState {
    /// Concrete input bytes under a solver model. Inputs the session
    /// never blasted are absent (they are unconstrained; readers such
    /// as [`ExprPool::eval`] take them as 0).
    pub fn witness(&self, model: &[bool]) -> HashMap<u32, u8> {
        self.inputs
            .iter()
            .map(|(&id, bv)| (id, Circuit::bv_value(bv, model) as u8))
            .collect()
    }
}

/// A bit-blasting session over one expression pool.
pub struct Blaster<'p> {
    pool: &'p ExprPool,
    state: BlastState,
}

/// Outcome of a feasibility query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// Satisfiable, with one concrete assignment of the input bytes.
    Sat(HashMap<u32, u8>),
    /// Unsatisfiable.
    Unsat,
}

impl<'p> Blaster<'p> {
    /// Creates a blaster for `pool`.
    pub fn new(pool: &'p ExprPool) -> Self {
        Self::resume(pool, BlastState::default())
    }

    /// Continues the session `state` was taken from: sub-expressions it
    /// already blasted are reused, new gates number on from where it
    /// stopped.
    pub fn resume(pool: &'p ExprPool, state: BlastState) -> Self {
        Blaster { pool, state }
    }

    /// Ends the borrow of the pool, keeping what was built.
    pub fn into_state(self) -> BlastState {
        self.state
    }

    /// Drains the clauses emitted since the last call (or since the
    /// session began): the Δ an incremental solve ships on top of what
    /// its parent problem already holds.
    pub fn take_delta(&mut self) -> Vec<Vec<Lit>> {
        self.state.circuit.take_clauses()
    }

    /// Bit-vector for an expression (width per node kind).
    fn blast(&mut self, id: ExprId) -> Bv {
        if let Some(bv) = self.state.memo.get(&id) {
            return bv.clone();
        }
        let bv = match self.pool.node(id) {
            Expr::Input { id: input } => {
                let BlastState {
                    circuit, inputs, ..
                } = &mut self.state;
                inputs
                    .entry(input)
                    .or_insert_with(|| circuit.fresh_bv(8))
                    .clone()
            }
            Expr::Const { v } => self.state.circuit.const_bv(v, 64),
            Expr::Bin { op, a, b } => {
                let av = self.blast(a);
                let bv = self.blast(b);
                match op {
                    BinOp::Add => self.state.circuit.bv_add(&av, &bv),
                    BinOp::Sub => self.state.circuit.bv_sub(&av, &bv),
                    BinOp::Mul => self.state.circuit.bv_mul(&av, &bv),
                    BinOp::And => self.state.circuit.bv_and(&av, &bv),
                    BinOp::Or => self.state.circuit.bv_or(&av, &bv),
                    BinOp::Xor => self.state.circuit.bv_xor(&av, &bv),
                    BinOp::Shl => self.shift(&av, &bv, false),
                    BinOp::Shr => self.shift(&av, &bv, true),
                }
            }
            Expr::Extract8 { e, byte } => {
                let ev = self.blast(e);
                ev[8 * byte as usize..8 * (byte as usize + 1)].to_vec()
            }
            Expr::ZExt8 { e } => {
                let mut ev = self.blast(e);
                ev.resize(64, CLit::False);
                ev
            }
            Expr::Cmp { op, a, b } => {
                let av = self.blast(a);
                let bv = self.blast(b);
                let bit = match op {
                    CmpOp::Eq => self.state.circuit.bv_eq(&av, &bv),
                    CmpOp::Ult => self.state.circuit.bv_ult(&av, &bv),
                    CmpOp::Ule => self.state.circuit.bv_ule(&av, &bv),
                    CmpOp::Slt => self.state.circuit.bv_slt(&av, &bv),
                    CmpOp::Sle => {
                        let gt = self.state.circuit.bv_slt(&bv, &av);
                        gt.not()
                    }
                };
                vec![bit]
            }
            Expr::Not1 { e } => {
                let ev = self.blast(e);
                vec![ev[0].not()]
            }
        };
        self.state.memo.insert(id, bv.clone());
        bv
    }

    /// Barrel shifter for variable shift amounts (6 mux stages).
    #[allow(clippy::needless_range_loop)] // index math is the algorithm here
    fn shift(&mut self, value: &Bv, amount: &Bv, right: bool) -> Bv {
        let mut cur = value.clone();
        for stage in 0..6 {
            let dist = 1usize << stage;
            let sel = amount[stage];
            let mut shifted = vec![CLit::False; 64];
            for i in 0..64 {
                let src = if right {
                    i + dist
                } else {
                    i.wrapping_sub(dist)
                };
                if src < 64 {
                    shifted[i] = cur[src];
                }
            }
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(&keep, &shift)| self.state.circuit.mux(sel, shift, keep))
                .collect();
        }
        cur
    }

    /// Asserts a 1-bit expression with the given polarity.
    pub fn assert_cond(&mut self, cond: ExprId, polarity: bool) {
        let bv = self.blast(cond);
        debug_assert_eq!(bv.len(), 1, "condition must be 1-bit");
        let lit = if polarity { bv[0] } else { bv[0].not() };
        self.state.circuit.assert_true(lit);
    }

    /// The assertions accumulated and not yet taken, as a CNF formula.
    pub fn cnf(&self) -> Cnf {
        self.state.circuit.to_cnf()
    }

    /// Solves the accumulated assertions from scratch on a local solver.
    pub fn solve(&self) -> Feasibility {
        let mut solver: Solver = self.cnf().to_solver();
        match solver.solve() {
            SolveResult::Unsat => Feasibility::Unsat,
            SolveResult::Sat => Feasibility::Sat(self.state.witness(&solver.model())),
        }
    }
}

/// The from-scratch reference: checks whether `constraints` (cond,
/// polarity) are jointly satisfiable on a fresh local solver, returning
/// a witness input assignment.
pub fn check_path(pool: &ExprPool, constraints: &[(ExprId, bool)]) -> Feasibility {
    let mut blaster = Blaster::new(pool);
    for &(cond, polarity) in constraints {
        blaster.assert_cond(cond, polarity);
    }
    blaster.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

    #[test]
    fn solve_linear_equation() {
        // x*3 + 7 == 52  → x = 15.
        let mut p = ExprPool::new();
        let x0 = p.input(0);
        let x = p.zext8(x0);
        let three = p.constant(3);
        let seven = p.constant(7);
        let target = p.constant(52);
        let mul = p.bin(BinOp::Mul, x, three);
        let add = p.bin(BinOp::Add, mul, seven);
        let cond = p.cmp(CmpOp::Eq, add, target);
        match check_path(&p, &[(cond, true)]) {
            Feasibility::Sat(inputs) => assert_eq!(inputs[&0], 15),
            Feasibility::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn contradictory_path_unsat() {
        let mut p = ExprPool::new();
        let x0 = p.input(0);
        let x = p.zext8(x0);
        let five = p.constant(5);
        let eq5 = p.cmp(CmpOp::Eq, x, five);
        assert_eq!(
            check_path(&p, &[(eq5, true), (eq5, false)]),
            Feasibility::Unsat
        );
    }

    #[test]
    fn multi_byte_constraint() {
        // Two input bytes forming a 16-bit LE word w == 0xbeef.
        let mut p = ExprPool::new();
        let b0 = p.input(0);
        let b1 = p.input(1);
        let z0 = p.zext8(b0);
        let z1 = p.zext8(b1);
        let eight = p.constant(8);
        let hi = p.bin(BinOp::Shl, z1, eight);
        let word = p.bin(BinOp::Or, z0, hi);
        let target = p.constant(0xbeef);
        let cond = p.cmp(CmpOp::Eq, word, target);
        match check_path(&p, &[(cond, true)]) {
            Feasibility::Sat(inputs) => {
                assert_eq!(inputs[&0], 0xef);
                assert_eq!(inputs[&1], 0xbe);
            }
            Feasibility::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn witness_validates_by_evaluation() {
        // Mixed conditions; verify the witness through ExprPool::eval.
        let mut p = ExprPool::new();
        let a0 = p.input(0);
        let b0 = p.input(1);
        let a = p.zext8(a0);
        let b = p.zext8(b0);
        let sum = p.bin(BinOp::Add, a, b);
        let hundred = p.constant(100);
        let c1 = p.cmp(CmpOp::Ult, hundred, sum); // a+b > 100
        let c2 = p.cmp(CmpOp::Ult, a, b); // a < b
        match check_path(&p, &[(c1, true), (c2, true)]) {
            Feasibility::Sat(inputs) => {
                assert_eq!(p.eval(c1, &inputs), 1);
                assert_eq!(p.eval(c2, &inputs), 1);
            }
            Feasibility::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn variable_shift_blasts() {
        // (1 << x) == 16 → x = 4 (x is a symbolic byte).
        let mut p = ExprPool::new();
        let x0 = p.input(0);
        let x = p.zext8(x0);
        let one = p.constant(1);
        let sixteen = p.constant(16);
        let shl = p.bin(BinOp::Shl, one, x);
        let cond = p.cmp(CmpOp::Eq, shl, sixteen);
        match check_path(&p, &[(cond, true)]) {
            Feasibility::Sat(inputs) => {
                assert_eq!(1u64 << (inputs[&0] & 63), 16);
            }
            Feasibility::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn signed_comparison() {
        // x <s 0 with x a zero-extended byte is UNSAT (always >= 0).
        let mut p = ExprPool::new();
        let x0 = p.input(0);
        let x = p.zext8(x0);
        let zero = p.constant(0);
        let cond = p.cmp(CmpOp::Slt, x, zero);
        assert_eq!(check_path(&p, &[(cond, true)]), Feasibility::Unsat);
    }

    /// xorshift64*: enough randomness to vary expression shapes.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng >> 12;
        *rng ^= *rng << 25;
        *rng ^= *rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// `n` random 1-bit conditions over four input bytes; operands are
    /// drawn from everything built so far, so later conditions share
    /// sub-expressions with earlier ones.
    fn random_constraints(seed: u64, n: usize, p: &mut ExprPool) -> Vec<(ExprId, bool)> {
        let mut rng = seed | 1;
        let mut words: Vec<ExprId> = (0..4)
            .map(|i| {
                let byte = p.input(i);
                p.zext8(byte)
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < n {
            let a = words[next(&mut rng) as usize % words.len()];
            let b = if next(&mut rng) & 1 == 0 {
                words[next(&mut rng) as usize % words.len()]
            } else {
                p.constant(next(&mut rng) % 300)
            };
            const BIN: [BinOp; 6] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
            ];
            words.push(p.bin(BIN[next(&mut rng) as usize % BIN.len()], a, b));
            const CMP: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
            let lhs = words[next(&mut rng) as usize % words.len()];
            let rhs = words[next(&mut rng) as usize % words.len()];
            let cond = p.cmp(CMP[next(&mut rng) as usize % CMP.len()], lhs, rhs);
            if !p.is_const(cond) {
                out.push((cond, next(&mut rng) & 1 == 0));
            }
        }
        out
    }

    /// The numbering claim of the module docs: however a constraint
    /// sequence is cut into batches — each batch blasted by a new
    /// `Blaster` resumed from a clone of the previous state, as the
    /// executor does across forks — the concatenated Δs, the variable
    /// count and the input→variable map are those of one `Blaster` fed
    /// the whole sequence.
    #[test]
    fn deltas_concatenate_to_the_whole_sequence() {
        for seed in 1..=12u64 {
            let mut p = ExprPool::new();
            let constraints = random_constraints(seed, 10, &mut p);
            let mut whole = Blaster::new(&p);
            for &(cond, polarity) in &constraints {
                whole.assert_cond(cond, polarity);
            }
            let whole = whole.into_state();

            // Batch sizes: all ones, then random cuts.
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for round in 0..4 {
                let mut state = BlastState::default();
                let mut clauses = Vec::new();
                let mut rest = &constraints[..];
                while !rest.is_empty() {
                    let take = if round == 0 {
                        1
                    } else {
                        1 + next(&mut rng) as usize % rest.len()
                    };
                    let (batch, tail) = rest.split_at(take);
                    rest = tail;
                    let mut blaster = Blaster::resume(&p, state.clone());
                    for &(cond, polarity) in batch {
                        blaster.assert_cond(cond, polarity);
                    }
                    clauses.extend(blaster.take_delta());
                    state = blaster.into_state();
                    assert!(state.circuit.clauses().is_empty(), "Δ was taken");
                }
                assert_eq!(clauses, whole.circuit.clauses(), "seed {seed}");
                assert_eq!(state.circuit.num_vars(), whole.circuit.num_vars());
                assert_eq!(state.inputs, whole.inputs, "seed {seed}");
            }
        }
    }
}
