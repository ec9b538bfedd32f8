//! Variables, literals, and three-valued assignments.
//!
//! MiniSat-style encodings: a variable is a dense index, a literal packs
//! the variable and its sign into one `u32` (`var << 1 | sign`), and an
//! assignment is a three-valued [`Lbool`].

use core::fmt;

/// A propositional variable (0-based dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The variable's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    #[allow(clippy::should_implement_trait)] // pairs with `pos`, not an operator
    pub fn neg(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal with an explicit sign (`true` = negated).
    #[inline]
    pub fn lit(self, negated: bool) -> Lit {
        Lit(self.0 << 1 | negated as u32)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the negated literal.
    #[inline]
    pub fn sign(self) -> bool {
        self.0 & 1 != 0
    }

    /// Dense index (for watch lists etc.).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal from a DIMACS integer (non-zero).
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn from_dimacs(value: i64) -> Lit {
        assert!(value != 0, "DIMACS literal cannot be 0");
        let var = Var((value.unsigned_abs() - 1) as u32);
        var.lit(value < 0)
    }

    /// Converts back to DIMACS convention (1-based, sign = negation).
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().0 as i64 + 1;
        if self.sign() {
            -v
        } else {
            v
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Three-valued assignment.
///
/// One byte each, so a solver's assignment array stays dense, and the
/// discriminants index [`Lbool::of_lit`]'s table. The snapshot codec
/// maps values to bytes explicitly, so these numbers never reach an
/// image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Lbool {
    /// Assigned true.
    True = 0,
    /// Assigned false.
    False = 1,
    /// Unassigned.
    #[default]
    Undef = 2,
}

/// [`Lbool::of_lit`] for every `(value, sign)`, at `value << 1 | sign`.
const OF_LIT: [Lbool; 6] = [
    Lbool::True,
    Lbool::False,
    Lbool::False,
    Lbool::True,
    Lbool::Undef,
    Lbool::Undef,
];

impl Lbool {
    /// Truth value of a literal under this variable assignment: a table
    /// load, with no branch, since propagation asks it for every watcher
    /// it visits.
    #[inline]
    pub fn of_lit(self, lit: Lit) -> Lbool {
        OF_LIT[(self as usize) << 1 | lit.sign() as usize]
    }

    /// From a boolean.
    #[inline]
    pub fn from_bool(b: bool) -> Lbool {
        if b {
            Lbool::True
        } else {
            Lbool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding() {
        let v = Var(3);
        assert_eq!(v.pos().index(), 6);
        assert_eq!(v.neg().index(), 7);
        assert_eq!(v.pos().var(), v);
        assert!(!v.pos().sign());
        assert!(v.neg().sign());
        assert_eq!(!v.pos(), v.neg());
        assert_eq!(!!v.pos(), v.pos());
        assert_eq!(v.lit(true), v.neg());
    }

    #[test]
    fn dimacs_roundtrip() {
        for val in [1i64, -1, 5, -42] {
            assert_eq!(Lit::from_dimacs(val).to_dimacs(), val);
        }
        assert_eq!(Lit::from_dimacs(1).var(), Var(0));
        assert_eq!(format!("{}", Lit::from_dimacs(-3)), "-3");
    }

    #[test]
    #[should_panic(expected = "cannot be 0")]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn lbool_of_lit() {
        let v = Var(0);
        assert_eq!(Lbool::True.of_lit(v.pos()), Lbool::True);
        assert_eq!(Lbool::True.of_lit(v.neg()), Lbool::False);
        assert_eq!(Lbool::False.of_lit(v.pos()), Lbool::False);
        assert_eq!(Lbool::False.of_lit(v.neg()), Lbool::True);
        assert_eq!(Lbool::Undef.of_lit(v.pos()), Lbool::Undef);
        assert_eq!(Lbool::Undef.of_lit(v.neg()), Lbool::Undef);
    }
}
