//! Tseitin-encoded boolean circuits and bit-vectors.
//!
//! The bridge between symbolic execution and SAT: `lwsnap-symex`
//! bit-blasts its expression DAG through this builder. Each gate adds the
//! standard Tseitin clauses; bit-vectors are little-endian literal
//! vectors with ripple-carry arithmetic.

use crate::dimacs::Cnf;
use crate::lit::{Lit, Var};

/// A literal that is constant-true or constant-false, or a real literal.
///
/// Constants are folded eagerly so trivial circuits produce no clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CLit {
    /// Constant false.
    False,
    /// Constant true.
    True,
    /// A solver literal.
    Lit(Lit),
}

impl CLit {
    /// Negation (constant-folding).
    #[allow(clippy::should_implement_trait)] // used as a plain method everywhere
    pub fn not(self) -> CLit {
        match self {
            CLit::False => CLit::True,
            CLit::True => CLit::False,
            CLit::Lit(l) => CLit::Lit(!l),
        }
    }

    /// From a boolean constant.
    pub fn constant(b: bool) -> CLit {
        if b {
            CLit::True
        } else {
            CLit::False
        }
    }
}

/// A little-endian bit-vector of circuit literals.
pub type Bv = Vec<CLit>;

/// A Tseitin circuit builder accumulating CNF clauses.
#[derive(Debug, Default, Clone)]
pub struct Circuit {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Circuit {
        Circuit::default()
    }

    /// Allocates a fresh variable, returning its positive literal.
    pub fn fresh(&mut self) -> CLit {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        CLit::Lit(v.pos())
    }

    /// Allocates an input bit-vector of `width` fresh bits.
    pub fn fresh_bv(&mut self, width: usize) -> Bv {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// A constant bit-vector of `width` bits holding `value`.
    pub fn const_bv(&self, value: u64, width: usize) -> Bv {
        (0..width)
            .map(|i| CLit::constant(value >> i & 1 != 0))
            .collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The accumulated clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Drains the accumulated clauses, keeping the variable numbering:
    /// gates built afterwards allocate fresh variables above the ones
    /// already handed out, so what the next call returns is exactly the
    /// increment an incremental solver needs on top of what it was
    /// given before.
    pub fn take_clauses(&mut self) -> Vec<Vec<Lit>> {
        std::mem::take(&mut self.clauses)
    }

    /// Converts into a [`Cnf`].
    pub fn to_cnf(&self) -> Cnf {
        Cnf {
            num_vars: self.num_vars,
            clauses: self.clauses.clone(),
        }
    }

    fn emit(&mut self, clause: &[CLit]) {
        // Drop clauses containing True; drop False literals.
        let mut out = Vec::with_capacity(clause.len());
        for &c in clause {
            match c {
                CLit::True => return,
                CLit::False => {}
                CLit::Lit(l) => out.push(l),
            }
        }
        self.clauses.push(out);
    }

    /// Asserts that `lit` holds.
    pub fn assert_true(&mut self, lit: CLit) {
        self.emit(&[lit]);
    }

    /// `out = a ∧ b`.
    pub fn and(&mut self, a: CLit, b: CLit) -> CLit {
        match (a, b) {
            (CLit::False, _) | (_, CLit::False) => CLit::False,
            (CLit::True, x) | (x, CLit::True) => x,
            _ => {
                let out = self.fresh();
                self.emit(&[out.not(), a]);
                self.emit(&[out.not(), b]);
                self.emit(&[out, a.not(), b.not()]);
                out
            }
        }
    }

    /// `out = a ∨ b`.
    pub fn or(&mut self, a: CLit, b: CLit) -> CLit {
        self.and(a.not(), b.not()).not()
    }

    /// `out = a ⊕ b`.
    pub fn xor(&mut self, a: CLit, b: CLit) -> CLit {
        match (a, b) {
            (CLit::False, x) | (x, CLit::False) => x,
            (CLit::True, x) | (x, CLit::True) => x.not(),
            _ => {
                let out = self.fresh();
                self.emit(&[out.not(), a, b]);
                self.emit(&[out.not(), a.not(), b.not()]);
                self.emit(&[out, a, b.not()]);
                self.emit(&[out, a.not(), b]);
                out
            }
        }
    }

    /// `out = if sel { t } else { e }`.
    pub fn mux(&mut self, sel: CLit, t: CLit, e: CLit) -> CLit {
        let a = self.and(sel, t);
        let b = self.and(sel.not(), e);
        self.or(a, b)
    }

    /// `out = (a == b)` for single bits.
    pub fn bit_eq(&mut self, a: CLit, b: CLit) -> CLit {
        self.xor(a, b).not()
    }

    // -- bit-vector operations -------------------------------------------

    /// Bitwise and.
    pub fn bv_and(&mut self, a: &Bv, b: &Bv) -> Bv {
        a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect()
    }

    /// Bitwise or.
    pub fn bv_or(&mut self, a: &Bv, b: &Bv) -> Bv {
        a.iter().zip(b).map(|(&x, &y)| self.or(x, y)).collect()
    }

    /// Bitwise xor.
    pub fn bv_xor(&mut self, a: &Bv, b: &Bv) -> Bv {
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Bitwise not.
    pub fn bv_not(&self, a: &Bv) -> Bv {
        a.iter().map(|&x| x.not()).collect()
    }

    /// Ripple-carry addition (truncating, two's complement).
    pub fn bv_add(&mut self, a: &Bv, b: &Bv) -> Bv {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = CLit::False;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            let sum = self.xor(xy, carry);
            let c1 = self.and(x, y);
            let c2 = self.and(xy, carry);
            carry = self.or(c1, c2);
            out.push(sum);
        }
        out
    }

    /// Two's-complement subtraction.
    pub fn bv_sub(&mut self, a: &Bv, b: &Bv) -> Bv {
        // a - b = a + ~b + 1.
        let nb = self.bv_not(b);
        let one = self.const_bv(1, a.len());
        let t = self.bv_add(&nb, &one);
        self.bv_add(a, &t)
    }

    /// Shift-and-add multiplication (truncating).
    pub fn bv_mul(&mut self, a: &Bv, b: &Bv) -> Bv {
        let width = a.len();
        let mut acc = self.const_bv(0, width);
        for (i, &bit) in b.iter().enumerate() {
            // partial = (a << i) AND-ed with bit.
            let mut partial = vec![CLit::False; width];
            for j in 0..width - i {
                partial[i + j] = self.and(a[j], bit);
            }
            acc = self.bv_add(&acc, &partial);
        }
        acc
    }

    /// Equality of two bit-vectors.
    pub fn bv_eq(&mut self, a: &Bv, b: &Bv) -> CLit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = CLit::True;
        for (&x, &y) in a.iter().zip(b) {
            let eq = self.bit_eq(x, y);
            acc = self.and(acc, eq);
        }
        acc
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: &Bv, b: &Bv) -> CLit {
        debug_assert_eq!(a.len(), b.len());
        // From the MSB down: a < b iff at the first differing bit, a=0,b=1.
        let mut result = CLit::False;
        let mut equal_so_far = CLit::True;
        for (&x, &y) in a.iter().zip(b).rev() {
            let lt_here = self.and(x.not(), y);
            let contrib = self.and(equal_so_far, lt_here);
            result = self.or(result, contrib);
            let eq = self.bit_eq(x, y);
            equal_so_far = self.and(equal_so_far, eq);
        }
        result
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: &Bv, b: &Bv) -> CLit {
        let gt = self.bv_ult(b, a);
        gt.not()
    }

    /// Signed less-than (two's complement).
    pub fn bv_slt(&mut self, a: &Bv, b: &Bv) -> CLit {
        let w = a.len();
        debug_assert!(w >= 1);
        let (sa, sb) = (a[w - 1], b[w - 1]);
        // Different signs: a<b iff a negative. Same signs: unsigned compare.
        let diff = self.xor(sa, sb);
        let ult = self.bv_ult(a, b);
        self.mux(diff, sa, ult)
    }

    /// Extracts a concrete value for `bv` from a solver model.
    pub fn bv_value(bv: &Bv, model: &[bool]) -> u64 {
        let mut out = 0u64;
        for (i, &bit) in bv.iter().enumerate() {
            let set = match bit {
                CLit::True => true,
                CLit::False => false,
                CLit::Lit(l) => {
                    let v = model.get(l.var().index()).copied().unwrap_or(false);
                    v != l.sign()
                }
            };
            if set {
                out |= 1 << i;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    /// Checks a binary op circuit against a concrete oracle over 4-bit
    /// inputs by constraining inputs to constants and solving.
    fn check_binop(
        op: impl Fn(&mut Circuit, &Bv, &Bv) -> Bv,
        oracle: impl Fn(u64, u64) -> u64,
        width: usize,
    ) {
        let mask = (1u64 << width) - 1;
        for a in 0..1u64 << width {
            for b in 0..1u64 << width {
                let mut c = Circuit::new();
                let av = c.const_bv(a, width);
                let bv = c.const_bv(b, width);
                let out = op(&mut c, &av, &bv);
                // Constant inputs fold: the result must already be constant.
                let got = Circuit::bv_value(&out, &[]);
                assert_eq!(got, oracle(a, b) & mask, "op({a},{b}) width {width}");
            }
        }
    }

    #[test]
    fn constant_folding_add_sub_mul() {
        check_binop(|c, a, b| c.bv_add(a, b), |a, b| a.wrapping_add(b), 4);
        check_binop(|c, a, b| c.bv_sub(a, b), |a, b| a.wrapping_sub(b), 4);
        check_binop(|c, a, b| c.bv_mul(a, b), |a, b| a.wrapping_mul(b), 3);
        check_binop(|c, a, b| c.bv_and(a, b), |a, b| a & b, 4);
        check_binop(|c, a, b| c.bv_or(a, b), |a, b| a | b, 4);
        check_binop(|c, a, b| c.bv_xor(a, b), |a, b| a ^ b, 4);
    }

    #[test]
    fn symbolic_addition_solves() {
        // Find x such that x + 3 == 10 (8-bit).
        let mut c = Circuit::new();
        let x = c.fresh_bv(8);
        let three = c.const_bv(3, 8);
        let ten = c.const_bv(10, 8);
        let sum = c.bv_add(&x, &three);
        let eq = c.bv_eq(&sum, &ten);
        c.assert_true(eq);
        let mut s = c.to_cnf().to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(Circuit::bv_value(&x, &s.model()), 7);
    }

    #[test]
    fn symbolic_multiplication_factors() {
        // Find x,y > 1 with x*y == 35 (8-bit): {5,7}.
        let mut c = Circuit::new();
        let x = c.fresh_bv(8);
        let y = c.fresh_bv(8);
        let prod = c.bv_mul(&x, &y);
        let target = c.const_bv(35, 8);
        let eq = c.bv_eq(&prod, &target);
        c.assert_true(eq);
        let one = c.const_bv(1, 8);
        let xgt = c.bv_ult(&one, &x);
        let ygt = c.bv_ult(&one, &y);
        c.assert_true(xgt);
        c.assert_true(ygt);
        // Also bound inputs below 16 to exclude wrap-around factorisations.
        let sixteen = c.const_bv(16, 8);
        let xlt = c.bv_ult(&x, &sixteen);
        let ylt = c.bv_ult(&y, &sixteen);
        c.assert_true(xlt);
        c.assert_true(ylt);
        let mut s = c.to_cnf().to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model();
        let (xv, yv) = (Circuit::bv_value(&x, &m), Circuit::bv_value(&y, &m));
        assert_eq!(xv * yv, 35, "got {xv} * {yv}");
    }

    #[test]
    fn comparisons_exhaustive_4bit() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut c = Circuit::new();
                let av = c.const_bv(a, 4);
                let bv = c.const_bv(b, 4);
                assert_eq!(c.bv_ult(&av, &bv), CLit::constant(a < b), "{a} <u {b}");
                assert_eq!(c.bv_ule(&av, &bv), CLit::constant(a <= b));
                assert_eq!(c.bv_eq(&av, &bv), CLit::constant(a == b));
                let sa = (a as i64) << 60 >> 60; // sign-extend 4-bit
                let sb = (b as i64) << 60 >> 60;
                assert_eq!(c.bv_slt(&av, &bv), CLit::constant(sa < sb), "{sa} <s {sb}");
            }
        }
    }

    #[test]
    fn unsat_circuit() {
        // x < x is unsatisfiable.
        let mut c = Circuit::new();
        let x = c.fresh_bv(6);
        let lt = c.bv_ult(&x, &x);
        c.assert_true(lt);
        let mut s = c.to_cnf().to_solver();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn mux_selects() {
        let mut c = Circuit::new();
        let s = c.fresh();
        let out = c.mux(s, CLit::True, CLit::False);
        // out == s.
        let eq = c.bit_eq(out, s);
        let ne = eq.not();
        c.assert_true(ne);
        let mut solver = c.to_cnf().to_solver();
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }
}
