//! Hash-consed symbolic expression DAG.
//!
//! Three widths exist: 1-bit (branch conditions), 8-bit (symbolic input
//! bytes and extracted bytes), and 64-bit (everything the guest computes).
//! Construction constant-folds, so fully-concrete subtrees never allocate
//! nodes. The pool is append-only: expression ids stay valid across every
//! forked path, which is what lets path constraints ride inside engine
//! snapshots as plain data.
//!
//! [`SharedPool`] extends that property across *threads*: the parallel
//! symex driver hands stolen paths (and their `ExprId`-bearing shadows)
//! between workers, so every worker must intern into — and resolve ids
//! against — one pool. `SharedPool` is the `Arc<RwLock<_>>`-backed
//! handle that makes the ids globally meaningful: interning takes the
//! write lock (short, append-only); a feasibility check reads the pool
//! under [`SharedPool::with`] only for the microseconds it takes to
//! blast the constraints a branch added, and the SAT solve itself runs
//! with no lock held, so solving never blocks interning.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Index of an expression in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// 64-bit binary operators: the SVM-64 ALU's, so an expression and the
/// interpreter's concrete result are computed by one definition.
pub use lwsnap_vm::BinOp;

/// Comparison operators (produce 1-bit values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

/// One DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A symbolic input byte (width 8).
    Input {
        /// Dense input identifier.
        id: u32,
    },
    /// A 64-bit constant.
    Const {
        /// The value.
        v: u64,
    },
    /// 64-bit binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand (width 64).
        a: ExprId,
        /// Right operand (width 64).
        b: ExprId,
    },
    /// Byte `byte` of a 64-bit expression (width 8).
    Extract8 {
        /// Source (width 64).
        e: ExprId,
        /// Byte index 0..8 (little-endian).
        byte: u8,
    },
    /// Zero-extend a byte-width expression to 64 bits.
    ZExt8 {
        /// Source (width 8).
        e: ExprId,
    },
    /// Comparison of two 64-bit expressions (width 1).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// Boolean negation (width 1).
    Not1 {
        /// Source (width 1).
        e: ExprId,
    },
}

/// Expression width classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Boolean.
    W1,
    /// Byte.
    W8,
    /// Word.
    W64,
}

/// Append-only hash-consing expression pool.
#[derive(Debug, Default, Clone)]
pub struct ExprPool {
    nodes: Vec<Expr>,
    dedup: HashMap<Expr, ExprId>,
}

impl ExprPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ExprPool::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reads a node.
    pub fn node(&self, id: ExprId) -> Expr {
        self.nodes[id.0 as usize]
    }

    fn intern(&mut self, node: Expr) -> ExprId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.dedup.insert(node, id);
        id
    }

    /// Width of an expression.
    pub fn width(&self, id: ExprId) -> Width {
        match self.node(id) {
            Expr::Input { .. } | Expr::Extract8 { .. } => Width::W8,
            Expr::Cmp { .. } | Expr::Not1 { .. } => Width::W1,
            Expr::Const { .. } | Expr::Bin { .. } | Expr::ZExt8 { .. } => Width::W64,
        }
    }

    /// A fresh symbolic input byte.
    pub fn input(&mut self, id: u32) -> ExprId {
        self.intern(Expr::Input { id })
    }

    /// A 64-bit constant.
    pub fn constant(&mut self, v: u64) -> ExprId {
        self.intern(Expr::Const { v })
    }

    fn const_of(&self, id: ExprId) -> Option<u64> {
        match self.node(id) {
            Expr::Const { v } => Some(v),
            _ => None,
        }
    }

    /// Binary operation with constant folding.
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        debug_assert_eq!(self.width(a), Width::W64, "bin lhs must be 64-bit");
        debug_assert_eq!(self.width(b), Width::W64, "bin rhs must be 64-bit");
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.constant(op.apply(x, y));
        }
        // Identity folds.
        match (op, self.const_of(a), self.const_of(b)) {
            (BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr, _, Some(0)) => {
                return a
            }
            (BinOp::Add | BinOp::Or | BinOp::Xor, Some(0), _) => return b,
            (BinOp::Mul, _, Some(1)) => return a,
            (BinOp::Mul, Some(1), _) => return b,
            (BinOp::And | BinOp::Mul, _, Some(0)) | (BinOp::And | BinOp::Mul, Some(0), _) => {
                return self.constant(0)
            }
            _ => {}
        }
        self.intern(Expr::Bin { op, a, b })
    }

    /// Extracts byte `byte` of `e` (width 8).
    pub fn extract8(&mut self, e: ExprId, byte: u8) -> ExprId {
        debug_assert!(byte < 8);
        debug_assert_eq!(self.width(e), Width::W64);
        if let Some(v) = self.const_of(e) {
            return self.constant(v >> (8 * byte) & 0xff);
        }
        // extract(zext(x), 0) == x.
        if byte == 0 {
            if let Expr::ZExt8 { e: inner } = self.node(e) {
                return inner;
            }
        }
        self.intern(Expr::Extract8 { e, byte })
    }

    /// Zero-extends a byte expression to 64 bits.
    pub fn zext8(&mut self, e: ExprId) -> ExprId {
        match self.width(e) {
            Width::W64 => e, // constants are already 64-bit
            Width::W8 => self.intern(Expr::ZExt8 { e }),
            Width::W1 => panic!("zext8 of boolean"),
        }
    }

    /// Comparison with constant folding.
    pub fn cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.constant(eval_cmp(op, x, y) as u64);
        }
        self.intern(Expr::Cmp { op, a, b })
    }

    /// Boolean negation with folding.
    pub fn not1(&mut self, e: ExprId) -> ExprId {
        if let Some(v) = self.const_of(e) {
            return self.constant((v == 0) as u64);
        }
        if let Expr::Not1 { e: inner } = self.node(e) {
            return inner;
        }
        self.intern(Expr::Not1 { e })
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_const(&self, id: ExprId) -> bool {
        self.const_of(id).is_some()
    }

    /// Evaluates an expression under a concrete input assignment
    /// (inputs the assignment does not mention read as 0).
    pub fn eval(&self, id: ExprId, inputs: &HashMap<u32, u8>) -> u64 {
        self.eval_memo(id, inputs, &mut HashMap::new())
    }

    /// [`ExprPool::eval`] visiting each interior node once: the pool is
    /// a hash-consed DAG, so a value such as `x = x * x` repeated `k`
    /// times has `k` nodes but `2^k` root-to-leaf walks.
    fn eval_memo(
        &self,
        id: ExprId,
        inputs: &HashMap<u32, u8>,
        memo: &mut HashMap<ExprId, u64>,
    ) -> u64 {
        if let Some(&v) = memo.get(&id) {
            return v;
        }
        let mut eval = |e| self.eval_memo(e, inputs, memo);
        let v = match self.node(id) {
            // Leaves are cheaper to read than to remember.
            Expr::Input { id } => return *inputs.get(&id).unwrap_or(&0) as u64,
            Expr::Const { v } => return v,
            Expr::Bin { op, a, b } => op.apply(eval(a), eval(b)),
            Expr::Extract8 { e, byte } => eval(e) >> (8 * byte) & 0xff,
            Expr::ZExt8 { e } => eval(e),
            Expr::Cmp { op, a, b } => eval_cmp(op, eval(a), eval(b)) as u64,
            Expr::Not1 { e } => (eval(e) == 0) as u64,
        };
        memo.insert(id, v);
        v
    }
}

/// A cloneable, thread-safe handle onto one [`ExprPool`].
///
/// Every clone interns into the same pool, so an [`ExprId`] minted by
/// one thread resolves identically on every other — the invariant the
/// parallel symex driver relies on when a worker steals a path whose
/// [`crate::Shadow`] carries constraints built elsewhere. Mutating
/// constructors take the write lock briefly; readers that need several
/// nodes at once (blasting a branch condition, checking a witness) use
/// [`SharedPool::with`] and must leave before doing anything long — a
/// SAT solve runs on the clauses, never inside the pool.
#[derive(Debug, Default, Clone)]
pub struct SharedPool(Arc<RwLock<ExprPool>>);

impl SharedPool {
    /// A new handle onto a fresh, empty pool.
    pub fn new() -> Self {
        SharedPool::default()
    }

    /// Runs `f` with shared (read) access to the underlying pool. Keep
    /// `f` short: while any reader is inside, writers (interning
    /// workers) block. Blast inside, solve outside.
    pub fn with<R>(&self, f: impl FnOnce(&ExprPool) -> R) -> R {
        f(&self.0.read().unwrap())
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.0.read().unwrap().len()
    }

    /// Returns `true` if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.0.read().unwrap().is_empty()
    }

    /// Reads a node.
    pub fn node(&self, id: ExprId) -> Expr {
        self.0.read().unwrap().node(id)
    }

    /// Width of an expression.
    pub fn width(&self, id: ExprId) -> Width {
        self.0.read().unwrap().width(id)
    }

    /// A fresh symbolic input byte.
    pub fn input(&self, id: u32) -> ExprId {
        self.0.write().unwrap().input(id)
    }

    /// A 64-bit constant.
    pub fn constant(&self, v: u64) -> ExprId {
        self.0.write().unwrap().constant(v)
    }

    /// Binary operation with constant folding.
    pub fn bin(&self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        self.0.write().unwrap().bin(op, a, b)
    }

    /// Extracts byte `byte` of `e` (width 8).
    pub fn extract8(&self, e: ExprId, byte: u8) -> ExprId {
        self.0.write().unwrap().extract8(e, byte)
    }

    /// Zero-extends a byte expression to 64 bits.
    pub fn zext8(&self, e: ExprId) -> ExprId {
        self.0.write().unwrap().zext8(e)
    }

    /// Comparison with constant folding.
    pub fn cmp(&self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        self.0.write().unwrap().cmp(op, a, b)
    }

    /// Boolean negation with folding.
    pub fn not1(&self, e: ExprId) -> ExprId {
        self.0.write().unwrap().not1(e)
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_const(&self, id: ExprId) -> bool {
        self.0.read().unwrap().is_const(id)
    }

    /// Evaluates an expression under a concrete input assignment.
    pub fn eval(&self, id: ExprId, inputs: &HashMap<u32, u8>) -> u64 {
        self.0.read().unwrap().eval(id, inputs)
    }
}

fn eval_cmp(op: CmpOp, x: u64, y: u64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ult => x < y,
        CmpOp::Ule => x <= y,
        CmpOp::Slt => (x as i64) < (y as i64),
        CmpOp::Sle => (x as i64) <= (y as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = ExprPool::new();
        let a = p.input(0);
        let b = p.input(0);
        assert_eq!(a, b);
        let za = p.zext8(a);
        let five = p.constant(5);
        let e1 = p.bin(BinOp::Add, za, five);
        let e2 = p.bin(BinOp::Add, za, five);
        assert_eq!(e1, e2);
        assert_eq!(p.len(), 4, "input, zext, const, add");
    }

    #[test]
    fn constant_folding() {
        let mut p = ExprPool::new();
        let a = p.constant(10);
        let b = p.constant(3);
        let add = p.bin(BinOp::Add, a, b);
        assert_eq!(p.node(add), Expr::Const { v: 13 });
        let mul = p.bin(BinOp::Mul, a, b);
        assert_eq!(p.node(mul), Expr::Const { v: 30 });
        let lt = p.cmp(CmpOp::Ult, b, a);
        assert_eq!(p.node(lt), Expr::Const { v: 1 });
        let t = p.constant(1);
        let nt = p.not1(t);
        assert_eq!(p.node(nt), Expr::Const { v: 0 });
    }

    #[test]
    fn identity_folds() {
        let mut p = ExprPool::new();
        let x0 = p.input(0);
        let x = p.zext8(x0);
        let zero = p.constant(0);
        let one = p.constant(1);
        assert_eq!(p.bin(BinOp::Add, x, zero), x);
        assert_eq!(p.bin(BinOp::Add, zero, x), x);
        assert_eq!(p.bin(BinOp::Mul, x, one), x);
        assert_eq!(p.bin(BinOp::Mul, x, zero), zero);
        assert_eq!(p.bin(BinOp::And, zero, x), zero);
        assert_eq!(p.bin(BinOp::Shl, x, zero), x);
        let eq = p.cmp(CmpOp::Eq, x, one);
        let nn = p.not1(eq);
        assert_eq!(p.not1(nn), eq, "double negation folds");
    }

    #[test]
    fn extract_of_zext_folds() {
        let mut p = ExprPool::new();
        let byte = p.input(3);
        let word = p.zext8(byte);
        assert_eq!(p.extract8(word, 0), byte);
        assert_ne!(p.extract8(word, 1), byte);
    }

    #[test]
    fn widths() {
        let mut p = ExprPool::new();
        let i = p.input(0);
        assert_eq!(p.width(i), Width::W8);
        let z = p.zext8(i);
        assert_eq!(p.width(z), Width::W64);
        let c = p.cmp(CmpOp::Eq, z, z);
        assert_eq!(p.width(c), Width::W1);
        let x = p.extract8(z, 3);
        assert_eq!(p.width(x), Width::W8);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut p = ExprPool::new();
        // expr = (in0 * 3 + in1) ^ 0xff
        let in0 = p.input(0);
        let in1 = p.input(1);
        let z0 = p.zext8(in0);
        let z1 = p.zext8(in1);
        let three = p.constant(3);
        let mul = p.bin(BinOp::Mul, z0, three);
        let add = p.bin(BinOp::Add, mul, z1);
        let ff = p.constant(0xff);
        let expr = p.bin(BinOp::Xor, add, ff);
        let mut inputs = HashMap::new();
        inputs.insert(0, 7u8);
        inputs.insert(1, 5u8);
        assert_eq!(p.eval(expr, &inputs), (7u64 * 3 + 5) ^ 0xff);
        // Missing inputs default to 0.
        assert_eq!(p.eval(expr, &HashMap::new()), 0xff);
    }

    /// `x = x * x` 48 times is 48 nodes and 2^48 walks: evaluation must
    /// visit nodes, not walks.
    #[test]
    fn eval_visits_a_shared_node_once() {
        let mut p = ExprPool::new();
        let byte = p.input(0);
        let mut x = p.zext8(byte);
        let mut expected = 3u64;
        for _ in 0..48 {
            x = p.bin(BinOp::Mul, x, x);
            expected = expected.wrapping_mul(expected);
        }
        let started = std::time::Instant::now();
        assert_eq!(p.eval(x, &HashMap::from([(0, 3u8)])), expected);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }
}
