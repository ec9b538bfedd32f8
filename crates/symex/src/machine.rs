//! The symbolic SVM-64 interpreter: an engine [`Guest`] that forks at
//! symbolic branches. It is [`lwsnap_vm::Cpu::run`], the one SVM-64
//! fetch/decode/execute loop, over a symbolic value domain.
//!
//! This is the reproduction of the paper's S2E use case (§3.2): "each
//! partial candidate corresponds to a different state of the VM
//! (consisting of the concrete state augmented with symbolic data and
//! symbolic constraints), executed up to the point where a symbolic
//! branch condition is encountered. The evaluation of an extension is the
//! \[execution\] until it terminates or reaches the next symbolic branch."
//!
//! Mechanically: concrete state lives in the ordinary [`GuestState`]
//! (registers + snapshottable address space); symbolic data rides along
//! as a [`Shadow`] stored in the snapshot's `ext` slot. A value is its
//! concrete part plus, when it depends on input, an expression; the loop
//! computes flags and concrete results exactly as it does for
//! [`lwsnap_vm::Interp`], so a path with no symbolic input runs as it
//! would there. At a branch whose condition is symbolic the interpreter
//! issues the equivalent of `sys_guess(2)`; the backtracking engine
//! snapshots the whole VM state and schedules both outcomes. Infeasible
//! directions are pruned with the SAT solver; completed paths yield
//! concrete test inputs (KLEE-style).
//!
//! ## Solver state is just more snapshotted state
//!
//! The [`Shadow`] also carries the path's *solver context*, so a fork
//! forks it with everything else:
//!
//! * a **witness** — concrete input bytes satisfying the whole path
//!   condition. At a fork, evaluating the branch condition under the
//!   parent's witness says which child it still satisfies; that child
//!   keeps the witness and costs no solver call. A completed path
//!   reports its witness as the test case, again without solving.
//! * the **nearest solved ancestor**: the [`ProblemId`] of the last
//!   problem solved on this path together with the
//!   [`BlastState`] that produced it, behind one
//!   reference-counted handle that releases the problem when the last
//!   state naming it is dropped. The other child of a fork blasts only
//!   the constraints accepted since that problem and submits the
//!   resulting clauses as `solve(ancestor, Δ)` — one backend solve per
//!   fork, each from the snapshot of its parent problem. The engine
//!   dropping a guest snapshot is what releases solver state; once an
//!   exploration drains, the backend holds what it held before.
//!
//! Which problem a state names depends only on its path (the witness
//! that decides hit or solve is itself a function of the chain), so the
//! generated test cases are a function of the program alone; see
//! [`crate::blast`] for the full contract.
//!
//! Supported symbolic data flow: integer arithmetic/logic, shifts,
//! byte-granular memory, comparisons (`cmp` and `test`) and all
//! conditional branches. Deliberately unsupported (the path faults
//! `symbolic … unsupported`, soundly): a symbolic load or store address,
//! a symbolic stack pointer under `push`, `pop`, `call` or `ret`, a
//! symbolic return address, symbolic division or `sar` operands, and
//! sign-extending loads of symbolic bytes.

use std::collections::HashMap;
use std::sync::Arc;

use lwsnap_core::{Exit, Guest, GuestFault, GuestState, Reg};
use lwsnap_vm::{BinOp, Branch, Cpu, Domain, Opcode};

use crate::blast::{check_path, BlastState, Blaster, Feasibility};
use crate::expr::{CmpOp, Expr, ExprId, SharedPool};
use lwsnap_service::{ProblemId, ServiceConfig, ShardedService, SolverBackend};

/// Syscall number for `make_symbolic(addr, len)`.
pub const SYS_MAKE_SYMBOLIC: u64 = 1100;

/// Per-path symbolic state, carried inside snapshots via `ext`.
#[derive(Clone, Default)]
pub struct Shadow {
    /// Symbolic register values (64-bit exprs), `None` = concrete.
    regs: [Option<ExprId>; 16],
    /// Symbolic memory bytes (8-bit exprs).
    mem: HashMap<u64, ExprId>,
    /// Operands of the last `cmp` if at least one was symbolic.
    last_cmp: Option<(ExprId, ExprId)>,
    /// A symbolic branch waiting for the engine's guess outcome.
    pending: Option<Pending>,
    /// The path condition: (condition, polarity) pairs.
    constraints: Vec<(ExprId, bool)>,
    /// Number of symbolic input bytes created so far.
    n_inputs: u32,
    /// The nearest ancestor whose condition a backend has solved;
    /// `None` until the first solve on this path. The constraints past
    /// [`Solved::constraints`] are accepted but not yet shipped.
    solved: Option<Arc<Solved>>,
    /// Input bytes satisfying every constraint (absent inputs read 0).
    witness: Arc<HashMap<u32, u8>>,
}

/// A problem on the backend that answers a prefix of some path's
/// condition, with the blast session that built it. Shared by every
/// state forked below it; the problem is released when the last of
/// them goes.
struct Solved {
    backend: Arc<dyn SolverBackend>,
    problem: ProblemId,
    /// The session after blasting the prefix, clauses all shipped.
    blast: BlastState,
    /// Length of the prefix of the path's constraints `problem` holds.
    constraints: usize,
}

impl Drop for Solved {
    fn drop(&mut self) {
        // The backend may already be gone (a remote one shut down);
        // there is nothing left to leak into then.
        let _ = self.backend.release(self.problem);
    }
}

#[derive(Clone, Copy)]
struct Pending {
    cond: ExprId,
    target: u64,
}

impl Shadow {
    /// The path constraints accumulated on this path.
    pub fn constraints(&self) -> &[(ExprId, bool)] {
        &self.constraints
    }
}

/// How a completed path ended.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathEnd {
    /// Normal `exit(code)`.
    Exit(i64),
    /// A fault (the bug-finding case), as it displays: the fault
    /// `Interp` reports on the same inputs, or `symbolic … unsupported`
    /// where the executor cannot follow the path.
    Fault(String),
}

/// A generated test case: concrete inputs driving one explored path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// How the path ended.
    pub end: PathEnd,
    /// Concrete input bytes, dense by symbolic-input id.
    pub inputs: Vec<u8>,
    /// Number of branch constraints on the path.
    pub constraints: usize,
    /// Guess depth of the path.
    pub depth: u64,
}

impl TestCase {
    /// The canonical ordering for verdict comparison: by concrete
    /// inputs, then depth, constraint count and path end. Scheduling-
    /// independent, so sorting with it makes a parallel exploration's
    /// verdicts directly `==`-comparable to a sequential run's.
    pub fn canonical_cmp(&self, other: &TestCase) -> std::cmp::Ordering {
        self.inputs
            .cmp(&other.inputs)
            .then(self.depth.cmp(&other.depth))
            .then(self.constraints.cmp(&other.constraints))
            .then(self.end.cmp(&other.end))
    }

    /// Sorts `cases` into [`TestCase::canonical_cmp`] order.
    pub fn canonical_sort(cases: &mut [TestCase]) {
        cases.sort_by(TestCase::canonical_cmp);
    }
}

/// Counters for a symbolic execution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymStats {
    /// Symbolic branches forked.
    pub forks: u64,
    /// Feasibility checks a backend solved.
    pub solver_checks: u64,
    /// Feasibility checks the inherited witness answered instead: fork
    /// children it still satisfies, and every completed path.
    pub witness_hits: u64,
    /// Clauses shipped to the backend, summed over solves.
    pub delta_clauses: u64,
    /// Paths pruned as infeasible.
    pub infeasible_pruned: u64,
    /// Test cases generated.
    pub tests_generated: u64,
    /// Instructions interpreted.
    pub instructions: u64,
}

impl std::ops::AddAssign for SymStats {
    fn add_assign(&mut self, rhs: SymStats) {
        // Destructured so that a new counter cannot be left out.
        let SymStats {
            forks,
            solver_checks,
            witness_hits,
            delta_clauses,
            infeasible_pruned,
            tests_generated,
            instructions,
        } = rhs;
        self.forks += forks;
        self.solver_checks += solver_checks;
        self.witness_hits += witness_hits;
        self.delta_clauses += delta_clauses;
        self.infeasible_pruned += infeasible_pruned;
        self.tests_generated += tests_generated;
        self.instructions += instructions;
    }
}

/// The symbolic executor (implements [`Guest`]).
pub struct SymExec {
    /// The (append-only, shared) expression pool. A [`SharedPool`]
    /// handle: executors built over clones of one handle intern into
    /// the same pool, which is what lets the parallel driver move
    /// `ExprId`-bearing shadows between worker threads.
    pub pool: SharedPool,
    /// The interpreter loop, its syscall policy and its step budget.
    pub cpu: Cpu,
    /// Run counters.
    pub stats: SymStats,
    /// Test cases generated from completed paths.
    pub cases: Vec<TestCase>,
    /// Where feasibility queries are solved.
    backend: Arc<dyn SolverBackend>,
    /// This executor's session root on `backend`: the parent problem of
    /// a state with no solved ancestor. Every root is the same empty
    /// solver, so which executor's root a path starts from cannot show
    /// in a verdict or a witness.
    root: ProblemId,
}

impl Default for SymExec {
    fn default() -> Self {
        Self::new()
    }
}

impl SymExec {
    /// Creates a symbolic executor with default policy and budget.
    pub fn new() -> Self {
        Self::with_pool(SharedPool::new())
    }

    /// Creates a symbolic executor interning into an existing shared
    /// pool, so that it resolves expression ids minted by the pool's
    /// other users. Feasibility queries are solved on a private
    /// one-shard in-process service.
    pub fn with_pool(pool: SharedPool) -> Self {
        let service = ShardedService::new(ServiceConfig::new(1));
        Self::with_backend(pool, Arc::new(service), 0)
    }

    /// Like [`SymExec::with_pool`], but feasibility queries are solved
    /// by `backend` under the given session id — a shared in-process
    /// service, a worker pool, or a remote daemon. The generated test
    /// cases are the same whichever it is (see [`crate::blast`]); what
    /// changes is *where* the solving happens.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot resolve the session root (remote
    /// transport failure). In-process backends are infallible.
    pub fn with_backend(pool: SharedPool, backend: Arc<dyn SolverBackend>, session: u64) -> Self {
        let root = backend
            .session_root(session)
            .expect("solver backend transport failure resolving session root");
        SymExec {
            pool,
            cpu: Cpu::new(50_000_000),
            stats: SymStats::default(),
            cases: Vec::new(),
            backend,
            root,
        }
    }

    /// Decides the newest constraint of `shadow` — the outcome the
    /// engine picked for a pending branch. If the inherited witness
    /// already satisfies it the path keeps the witness and no solver
    /// runs; otherwise the constraints not yet shipped are blasted on
    /// top of the nearest solved ancestor and solved as its child.
    /// Returns whether the path is still feasible.
    ///
    /// # Panics
    ///
    /// Panics on a backend transport failure (loudly, rather than
    /// silently mispruning a path). In-process backends never fail.
    fn accept_constraint(&mut self, shadow: &mut Shadow) -> bool {
        let &(cond, polarity) = shadow.constraints.last().expect("just pushed");
        if (self.pool.eval(cond, &shadow.witness) == 1) == polarity {
            self.stats.witness_hits += 1;
            return true;
        }
        let (parent, shipped, blast) = match &shadow.solved {
            Some(solved) => (solved.problem, solved.constraints, solved.blast.clone()),
            None => (self.root, 0, BlastState::default()),
        };
        // Blasting a branch condition takes microseconds; the solve
        // runs with the pool unlocked.
        let (delta, blast) = self.pool.with(|pool| {
            let mut blaster = Blaster::resume(pool, blast);
            for &(cond, polarity) in &shadow.constraints[shipped..] {
                blaster.assert_cond(cond, polarity);
            }
            (blaster.take_delta(), blaster.into_state())
        });
        self.stats.solver_checks += 1;
        self.stats.delta_clauses += delta.len() as u64;
        let reply = self
            .backend
            .solve(parent, delta)
            .unwrap_or_else(|e| panic!("solver backend transport failure: {e}"))
            .expect("a state keeps its parent problem alive");
        // Owns the reply's problem from here: an infeasible child
        // releases it by dropping this.
        let solved = Solved {
            backend: Arc::clone(&self.backend),
            problem: reply.problem,
            blast,
            constraints: shadow.constraints.len(),
        };
        let feasible = reply.model.is_some();
        debug_assert_eq!(
            feasible,
            self.pool
                .with(|pool| check_path(pool, &shadow.constraints) != Feasibility::Unsat),
            "incremental verdict differs from the from-scratch reference"
        );
        if let Some(model) = reply.model {
            shadow.witness = Arc::new(solved.blast.witness(&model));
            shadow.solved = Some(Arc::new(solved));
        }
        feasible
    }

    /// Debug builds re-check the invariant the witness shortcut rests
    /// on: the witness satisfies every constraint of the path.
    fn debug_check_witness(&self, shadow: &Shadow) {
        if cfg!(debug_assertions) {
            self.pool.with(|pool| {
                for &(cond, polarity) in &shadow.constraints {
                    assert_eq!(
                        pool.eval(cond, &shadow.witness) == 1,
                        polarity,
                        "witness violates a constraint of its own path"
                    );
                }
            });
        }
    }

    /// Finishes a path: its witness is the test case.
    fn finish_path(&mut self, st: &GuestState, shadow: &Shadow, end: PathEnd) {
        self.stats.witness_hits += 1;
        self.debug_check_witness(shadow);
        let mut inputs = vec![0u8; shadow.n_inputs as usize];
        for (&id, &byte) in shadow.witness.iter() {
            if let Some(slot) = inputs.get_mut(id as usize) {
                *slot = byte;
            }
        }
        self.cases.push(TestCase {
            end,
            inputs,
            constraints: shadow.constraints.len(),
            depth: st.depth,
        });
        self.stats.tests_generated += 1;
    }

    fn take_shadow(st: &GuestState) -> Shadow {
        st.ext
            .as_ref()
            .and_then(|e| e.clone().downcast::<Shadow>().ok())
            .map(|arc| (*arc).clone())
            .unwrap_or_default()
    }
}

impl Guest for SymExec {
    fn resume(&mut self, st: &mut GuestState) -> Exit {
        let mut shadow = Self::take_shadow(st);

        // Apply the engine's decision for a pending symbolic branch.
        if let Some(p) = shadow.pending.take() {
            let taken = st.regs.get(Reg::Rax) == 1;
            shadow.constraints.push((p.cond, taken));
            if !self.accept_constraint(&mut shadow) {
                self.stats.infeasible_pruned += 1;
                return Exit::Fail;
            }
            self.debug_check_witness(&shadow);
            if taken {
                st.regs.rip = p.target;
            }
        }

        let before = st.steps;
        let mut domain = Symbolic {
            pool: &self.pool,
            shadow: &mut shadow,
        };
        let exit = self.cpu.run(&mut domain, st);
        self.stats.instructions += st.steps - before;
        match &exit {
            Exit::Exit { code } => self.finish_path(st, &shadow, PathEnd::Exit(*code)),
            Exit::Fault(fault) => self.finish_path(st, &shadow, PathEnd::Fault(fault.to_string())),
            Exit::Guess { .. } if shadow.pending.is_some() => self.stats.forks += 1,
            _ => {}
        }
        st.ext = Some(Arc::new(shadow));
        exit
    }
}

/// A register value: always-present concrete part + optional expr.
#[derive(Clone, Copy)]
struct Val {
    c: u64,
    e: Option<ExprId>,
}

/// The symbolic value domain over one path's [`Shadow`], for one resume.
struct Symbolic<'a> {
    pool: &'a SharedPool,
    shadow: &'a mut Shadow,
}

impl Symbolic<'_> {
    fn expr_of(&self, v: Val) -> ExprId {
        match v.e {
            Some(e) => e,
            None => self.pool.constant(v.c),
        }
    }
}

impl Domain for Symbolic<'_> {
    type Val = Val;

    fn constant(&mut self, c: u64) -> Val {
        Val { c, e: None }
    }

    fn concrete(&self, v: Val) -> u64 {
        v.c
    }

    fn require_concrete(&self, v: Val, what: &str) -> Result<u64, GuestFault> {
        match v.e {
            None => Ok(v.c),
            Some(_) => Err(GuestFault::Other(format!("symbolic {what} unsupported"))),
        }
    }

    fn reg(&self, st: &GuestState, r: Reg) -> Val {
        Val {
            c: st.regs.get(r),
            e: self.shadow.regs[r.index()],
        }
    }

    fn set_reg(&mut self, st: &mut GuestState, r: Reg, v: Val) {
        st.regs.set(r, v.c);
        self.shadow.regs[r.index()] = v.e.filter(|&e| !self.pool.is_const(e));
    }

    /// Reads `len` bytes at `addr`, composing symbolic bytes if present.
    fn load(&mut self, st: &mut GuestState, addr: u64, len: u64) -> Result<Val, GuestFault> {
        let mut buf = [0u8; 8];
        st.mem
            .read_bytes(addr, &mut buf[..len as usize])
            .map_err(GuestFault::Memory)?;
        let c = u64::from_le_bytes(buf);
        let mem = &self.shadow.mem;
        if !(0..len).any(|i| mem.contains_key(&(addr + i))) {
            return Ok(Val { c, e: None });
        }
        let mut expr = self.pool.constant(0);
        for i in 0..len {
            let byte = match mem.get(&(addr + i)) {
                Some(&e) => self.pool.zext8(e),
                None => self.pool.constant(buf[i as usize] as u64),
            };
            let sh = self.pool.constant(8 * i);
            let shifted = self.pool.bin(BinOp::Shl, byte, sh);
            expr = self.pool.bin(BinOp::Or, expr, shifted);
        }
        Ok(Val {
            c,
            e: Some(expr).filter(|&e| !self.pool.is_const(e)),
        })
    }

    /// Writes `len` bytes at `addr`, tracking symbolic bytes.
    fn store(
        &mut self,
        st: &mut GuestState,
        addr: u64,
        len: u64,
        v: Val,
    ) -> Result<(), GuestFault> {
        st.mem
            .write_bytes(addr, &v.c.to_le_bytes()[..len as usize])
            .map_err(GuestFault::Memory)?;
        for i in 0..len {
            let byte = v.e.map(|e| self.pool.extract8(e, i as u8));
            match byte.filter(|&b| !self.pool.is_const(b)) {
                Some(b) => self.shadow.mem.insert(addr + i, b),
                None => self.shadow.mem.remove(&(addr + i)),
            };
        }
        Ok(())
    }

    fn alu(&mut self, op: BinOp, a: Val, b: Val) -> Val {
        let e = (a.e.is_some() || b.e.is_some())
            .then(|| self.pool.bin(op, self.expr_of(a), self.expr_of(b)));
        Val {
            c: op.apply(a.c, b.c),
            e,
        }
    }

    /// Remembers the operands of a comparison that involves input.
    fn compared(&mut self, a: Val, b: Val) {
        self.shadow.last_cmp =
            (a.e.is_some() || b.e.is_some()).then(|| (self.expr_of(a), self.expr_of(b)));
    }

    /// Forks at a branch whose condition depends on input.
    fn branch(&mut self, op: Opcode, holds: bool, target: u64) -> Branch {
        let Some((a, b)) = self.shadow.last_cmp else {
            return if holds {
                Branch::Taken
            } else {
                Branch::NotTaken
            };
        };
        // The condition, and the polarity for which the branch is taken.
        let (cmp, taken_polarity) = match op {
            Opcode::Jz => (CmpOp::Eq, true),
            Opcode::Jnz => (CmpOp::Eq, false),
            Opcode::Jl => (CmpOp::Slt, true),
            Opcode::Jge => (CmpOp::Slt, false),
            Opcode::Jle => (CmpOp::Sle, true),
            Opcode::Jg => (CmpOp::Sle, false),
            Opcode::Jb => (CmpOp::Ult, true),
            Opcode::Jae => (CmpOp::Ult, false),
            Opcode::Jbe => (CmpOp::Ule, true),
            Opcode::Ja => (CmpOp::Ule, false),
            _ => unreachable!("not a conditional branch"),
        };
        let cond = self.pool.cmp(cmp, a, b);
        if let Expr::Const { v } = self.pool.node(cond) {
            // Condition folded to a constant: concrete branch.
            return if (v == 1) == taken_polarity {
                Branch::Taken
            } else {
                Branch::NotTaken
            };
        }
        // Extension 1 always means "the stored cond is true", so the
        // condition is inverted for negative-polarity jumps.
        let cond = if taken_polarity {
            cond
        } else {
            self.pool.not1(cond)
        };
        self.shadow.pending = Some(Pending { cond, target });
        Branch::Fork
    }

    /// `make_symbolic(addr, len)`: the bytes become fresh inputs.
    fn syscall(&mut self, st: &mut GuestState) -> Result<bool, GuestFault> {
        if st.regs.get(Reg::Rax) != SYS_MAKE_SYMBOLIC {
            return Ok(false);
        }
        let addr = st.regs.get(Reg::Rdi);
        let len = st.regs.get(Reg::Rsi).min(4096);
        // Bytes must be mapped; contents become inputs.
        let mut probe = vec![0u8; len as usize];
        st.mem
            .read_bytes(addr, &mut probe)
            .map_err(GuestFault::Memory)?;
        for i in 0..len {
            let id = self.shadow.n_inputs;
            self.shadow.n_inputs += 1;
            self.shadow.mem.insert(addr + i, self.pool.input(id));
        }
        st.regs.set_return(0);
        Ok(true)
    }
}
