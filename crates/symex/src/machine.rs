//! The symbolic SVM-64 interpreter: an engine [`Guest`] that forks at
//! symbolic branches.
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
//! as a [`Shadow`] stored in the snapshot's `ext` slot. At a branch whose
//! condition is symbolic the interpreter issues the equivalent of
//! `sys_guess(2)`; the backtracking engine snapshots the whole VM state
//! and schedules both outcomes. Infeasible directions are pruned with the
//! SAT solver; completed paths yield concrete test inputs (KLEE-style).
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
//! byte-granular memory, comparisons and all conditional branches.
//! Deliberately unsupported (the path faults, soundly): symbolic
//! addresses, symbolic divisors, symbolic `sar`/`test`, sign-extending
//! loads of symbolic bytes.

use std::collections::HashMap;
use std::sync::Arc;

use lwsnap_core::{
    handle_syscall, Exit, Guest, GuestFault, GuestState, InterposePolicy, Reg, SyscallEffect,
};
use lwsnap_vm::{Instr, Opcode, INSTR_SIZE};

use crate::blast::{check_path, BlastState, Blaster, Feasibility};
use crate::expr::{BinOp, CmpOp, ExprId, SharedPool};
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

    /// Number of symbolic input bytes.
    pub fn num_inputs(&self) -> u32 {
        self.n_inputs
    }
}

/// How a completed path ended.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathEnd {
    /// Normal `exit(code)`.
    Exit(i64),
    /// A guest fault (the bug-finding case).
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
    /// Encapsulation policy for ordinary syscalls.
    pub policy: InterposePolicy,
    /// Per-resume instruction budget.
    pub max_steps: u64,
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

/// A register value: always-present concrete part + optional expr.
#[derive(Clone, Copy)]
struct Val {
    c: u64,
    e: Option<ExprId>,
}

impl Val {
    fn concrete(c: u64) -> Val {
        Val { c, e: None }
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
            policy: InterposePolicy::default(),
            max_steps: 50_000_000,
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

    fn expr_of(&mut self, v: Val) -> ExprId {
        match v.e {
            Some(e) => e,
            None => self.pool.constant(v.c),
        }
    }

    fn get_reg(&self, st: &GuestState, shadow: &Shadow, r: Reg) -> Val {
        Val {
            c: st.regs.get(r),
            e: shadow.regs[r.index()],
        }
    }

    fn set_reg(&mut self, st: &mut GuestState, shadow: &mut Shadow, r: Reg, v: Val) {
        st.regs.set(r, v.c);
        shadow.regs[r.index()] = v.e.filter(|&e| !self.pool.is_const(e));
    }

    /// Reads `size` bytes at `addr`, composing symbolic bytes if present.
    fn load(
        &mut self,
        st: &mut GuestState,
        shadow: &Shadow,
        addr: u64,
        size: usize,
    ) -> Result<Val, GuestFault> {
        let mut buf = [0u8; 8];
        st.mem
            .read_bytes(addr, &mut buf[..size])
            .map_err(GuestFault::Memory)?;
        let concrete = u64::from_le_bytes(buf);
        let any_symbolic = (0..size).any(|i| shadow.mem.contains_key(&(addr + i as u64)));
        if !any_symbolic {
            return Ok(Val::concrete(concrete));
        }
        let mut expr = self.pool.constant(0);
        #[allow(clippy::needless_range_loop)] // i is an address offset, not just an index
        for i in 0..size {
            let byte = match shadow.mem.get(&(addr + i as u64)) {
                Some(&e) => self.pool.zext8(e),
                None => self.pool.constant(buf[i] as u64),
            };
            let sh = self.pool.constant(8 * i as u64);
            let shifted = self.pool.bin(BinOp::Shl, byte, sh);
            expr = self.pool.bin(BinOp::Or, expr, shifted);
        }
        Ok(Val {
            c: concrete,
            e: Some(expr).filter(|&e| !self.pool.is_const(e)),
        })
    }

    /// Writes `size` bytes at `addr`, tracking symbolic bytes.
    fn store(
        &mut self,
        st: &mut GuestState,
        shadow: &mut Shadow,
        addr: u64,
        size: usize,
        v: Val,
    ) -> Result<(), GuestFault> {
        let bytes = v.c.to_le_bytes();
        st.mem
            .write_bytes(addr, &bytes[..size])
            .map_err(GuestFault::Memory)?;
        match v.e {
            Some(e) => {
                for i in 0..size {
                    let byte = self.pool.extract8(e, i as u8);
                    if self.pool.is_const(byte) {
                        shadow.mem.remove(&(addr + i as u64));
                    } else {
                        shadow.mem.insert(addr + i as u64, byte);
                    }
                }
            }
            None => {
                for i in 0..size {
                    shadow.mem.remove(&(addr + i as u64));
                }
            }
        }
        Ok(())
    }

    /// Requires a concrete value (symbolic → sound fault).
    fn require_concrete(v: Val, what: &str) -> Result<u64, GuestFault> {
        match v.e {
            None => Ok(v.c),
            Some(_) => Err(GuestFault::Other(format!("symbolic {what} unsupported"))),
        }
    }

    fn branch_cond(&mut self, op: Opcode, a: ExprId, b: ExprId) -> (ExprId, bool) {
        // Returns (condition, polarity-for-taken).
        match op {
            Opcode::Jz => (self.pool.cmp(CmpOp::Eq, a, b), true),
            Opcode::Jnz => (self.pool.cmp(CmpOp::Eq, a, b), false),
            Opcode::Jl => (self.pool.cmp(CmpOp::Slt, a, b), true),
            Opcode::Jge => (self.pool.cmp(CmpOp::Slt, a, b), false),
            Opcode::Jle => (self.pool.cmp(CmpOp::Sle, a, b), true),
            Opcode::Jg => (self.pool.cmp(CmpOp::Sle, a, b), false),
            Opcode::Jb => (self.pool.cmp(CmpOp::Ult, a, b), true),
            Opcode::Jae => (self.pool.cmp(CmpOp::Ult, a, b), false),
            Opcode::Jbe => (self.pool.cmp(CmpOp::Ule, a, b), true),
            Opcode::Ja => (self.pool.cmp(CmpOp::Ule, a, b), false),
            _ => unreachable!("not a conditional branch"),
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

    fn save_shadow(st: &mut GuestState, shadow: Shadow) {
        st.ext = Some(Arc::new(shadow));
    }

    fn take_shadow(st: &GuestState) -> Shadow {
        st.ext
            .as_ref()
            .and_then(|e| e.clone().downcast::<Shadow>().ok())
            .map(|arc| (*arc).clone())
            .unwrap_or_default()
    }
}

/// Sets concrete flags exactly like the concrete interpreter.
fn set_cmp_flags(st: &mut GuestState, a: u64, b: u64) {
    let (res, borrow) = a.overflowing_sub(b);
    st.regs.flags.zf = res == 0;
    st.regs.flags.sf = (res as i64) < 0;
    st.regs.flags.cf = borrow;
    st.regs.flags.of = ((a ^ b) & (a ^ res)) >> 63 != 0;
}

fn cond_holds(op: Opcode, st: &GuestState) -> bool {
    let f = st.regs.flags;
    match op {
        Opcode::Jmp => true,
        Opcode::Jz => f.zf,
        Opcode::Jnz => !f.zf,
        Opcode::Jl => f.sf != f.of,
        Opcode::Jle => f.zf || f.sf != f.of,
        Opcode::Jg => !f.zf && f.sf == f.of,
        Opcode::Jge => f.sf == f.of,
        Opcode::Jb => f.cf,
        Opcode::Jbe => f.cf || f.zf,
        Opcode::Ja => !f.cf && !f.zf,
        Opcode::Jae => !f.cf,
        _ => unreachable!(),
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

        let mut buf = [0u8; 16];
        loop {
            if st.steps >= self.max_steps {
                Self::save_shadow(st, shadow);
                return Exit::Fault(GuestFault::StepBudget);
            }
            st.steps += 1;
            self.stats.instructions += 1;
            let rip = st.regs.rip;
            if let Err(fault) = st.mem.fetch_bytes(rip, &mut buf) {
                let end = PathEnd::Fault(format!("fetch fault: {fault}"));
                self.finish_path(st, &shadow, end);
                Self::save_shadow(st, shadow);
                return Exit::Fault(GuestFault::Memory(fault));
            }
            let Some(ins) = Instr::decode(&buf) else {
                self.finish_path(st, &shadow, PathEnd::Fault(format!("illegal at {rip:#x}")));
                Self::save_shadow(st, shadow);
                return Exit::Fault(GuestFault::IllegalInstruction { rip });
            };
            st.regs.rip = rip.wrapping_add(INSTR_SIZE);

            match self.exec(st, &mut shadow, ins) {
                Ok(None) => {}
                Ok(Some(exit)) => {
                    if let Exit::Exit { code } = exit {
                        self.finish_path(st, &shadow, PathEnd::Exit(code));
                    }
                    Self::save_shadow(st, shadow);
                    return exit;
                }
                Err(fault) => {
                    self.finish_path(st, &shadow, PathEnd::Fault(fault.to_string()));
                    Self::save_shadow(st, shadow);
                    return Exit::Fault(fault);
                }
            }
        }
    }
}

impl SymExec {
    /// Executes one instruction; `Ok(Some(exit))` traps to the engine.
    fn exec(
        &mut self,
        st: &mut GuestState,
        shadow: &mut Shadow,
        ins: Instr,
    ) -> Result<Option<Exit>, GuestFault> {
        let immu = ins.imm as u64;
        match ins.op {
            Opcode::MovRI => self.set_reg(st, shadow, ins.dst, Val::concrete(immu)),
            Opcode::MovRR => {
                let v = self.get_reg(st, shadow, ins.src);
                self.set_reg(st, shadow, ins.dst, v);
            }

            Opcode::Ld1 | Opcode::Ld2 | Opcode::Ld4 | Opcode::Ld8 => {
                let base = self.get_reg(st, shadow, ins.src);
                let addr = Self::require_concrete(base, "load address")?.wrapping_add(immu);
                let size = match ins.op {
                    Opcode::Ld1 => 1,
                    Opcode::Ld2 => 2,
                    Opcode::Ld4 => 4,
                    _ => 8,
                };
                let v = self.load(st, shadow, addr, size)?;
                self.set_reg(st, shadow, ins.dst, v);
            }
            Opcode::Lds1 | Opcode::Lds2 | Opcode::Lds4 => {
                let base = self.get_reg(st, shadow, ins.src);
                let addr = Self::require_concrete(base, "load address")?.wrapping_add(immu);
                let size = match ins.op {
                    Opcode::Lds1 => 1,
                    Opcode::Lds2 => 2,
                    _ => 4,
                };
                let v = self.load(st, shadow, addr, size)?;
                if v.e.is_some() {
                    return Err(GuestFault::Other(
                        "sign-extending load of symbolic data unsupported".into(),
                    ));
                }
                let c = match size {
                    1 => v.c as u8 as i8 as i64 as u64,
                    2 => v.c as u16 as i16 as i64 as u64,
                    _ => v.c as u32 as i32 as i64 as u64,
                };
                self.set_reg(st, shadow, ins.dst, Val::concrete(c));
            }
            Opcode::St1 | Opcode::St2 | Opcode::St4 | Opcode::St8 => {
                let base = self.get_reg(st, shadow, ins.dst);
                let addr = Self::require_concrete(base, "store address")?.wrapping_add(immu);
                let size = match ins.op {
                    Opcode::St1 => 1,
                    Opcode::St2 => 2,
                    Opcode::St4 => 4,
                    _ => 8,
                };
                let v = self.get_reg(st, shadow, ins.src);
                self.store(st, shadow, addr, size, v)?;
            }

            Opcode::Add
            | Opcode::AddI
            | Opcode::Sub
            | Opcode::SubI
            | Opcode::Mul
            | Opcode::MulI
            | Opcode::And
            | Opcode::AndI
            | Opcode::Or
            | Opcode::OrI
            | Opcode::Xor
            | Opcode::XorI
            | Opcode::Shl
            | Opcode::ShlI
            | Opcode::Shr
            | Opcode::ShrI => {
                let a = self.get_reg(st, shadow, ins.dst);
                let (b, is_imm) = match ins.op {
                    Opcode::Add
                    | Opcode::Sub
                    | Opcode::Mul
                    | Opcode::And
                    | Opcode::Or
                    | Opcode::Xor
                    | Opcode::Shl
                    | Opcode::Shr => (self.get_reg(st, shadow, ins.src), false),
                    _ => (Val::concrete(immu), true),
                };
                let _ = is_imm;
                let op = match ins.op {
                    Opcode::Add | Opcode::AddI => BinOp::Add,
                    Opcode::Sub | Opcode::SubI => BinOp::Sub,
                    Opcode::Mul | Opcode::MulI => BinOp::Mul,
                    Opcode::And | Opcode::AndI => BinOp::And,
                    Opcode::Or | Opcode::OrI => BinOp::Or,
                    Opcode::Xor | Opcode::XorI => BinOp::Xor,
                    Opcode::Shl | Opcode::ShlI => BinOp::Shl,
                    _ => BinOp::Shr,
                };
                let c = match op {
                    BinOp::Add => a.c.wrapping_add(b.c),
                    BinOp::Sub => a.c.wrapping_sub(b.c),
                    BinOp::Mul => a.c.wrapping_mul(b.c),
                    BinOp::And => a.c & b.c,
                    BinOp::Or => a.c | b.c,
                    BinOp::Xor => a.c ^ b.c,
                    BinOp::Shl => a.c.wrapping_shl(b.c as u32 & 63),
                    BinOp::Shr => a.c.wrapping_shr(b.c as u32 & 63),
                };
                let e = if a.e.is_some() || b.e.is_some() {
                    let ae = self.expr_of(a);
                    let be = self.expr_of(b);
                    Some(self.pool.bin(op, ae, be))
                } else {
                    None
                };
                self.set_reg(st, shadow, ins.dst, Val { c, e });
            }
            Opcode::Udiv | Opcode::UdivI | Opcode::Urem | Opcode::UremI => {
                let a = self.get_reg(st, shadow, ins.dst);
                let b = match ins.op {
                    Opcode::Udiv | Opcode::Urem => self.get_reg(st, shadow, ins.src),
                    _ => Val::concrete(immu),
                };
                let av = Self::require_concrete(a, "division operand")?;
                let bv = Self::require_concrete(b, "division operand")?;
                if bv == 0 {
                    return Err(GuestFault::Other("division by zero".into()));
                }
                let c = if matches!(ins.op, Opcode::Udiv | Opcode::UdivI) {
                    av / bv
                } else {
                    av % bv
                };
                self.set_reg(st, shadow, ins.dst, Val::concrete(c));
            }
            Opcode::Sar | Opcode::SarI => {
                let a = self.get_reg(st, shadow, ins.dst);
                let b = match ins.op {
                    Opcode::Sar => self.get_reg(st, shadow, ins.src),
                    _ => Val::concrete(immu),
                };
                let av = Self::require_concrete(a, "sar operand")?;
                let bv = Self::require_concrete(b, "sar operand")?;
                let c = ((av as i64).wrapping_shr(bv as u32 & 63)) as u64;
                self.set_reg(st, shadow, ins.dst, Val::concrete(c));
            }
            Opcode::Neg => {
                let a = self.get_reg(st, shadow, ins.dst);
                let c = a.c.wrapping_neg();
                let e = a.e.map(|e| {
                    let zero = self.pool.constant(0);
                    self.pool.bin(BinOp::Sub, zero, e)
                });
                self.set_reg(st, shadow, ins.dst, Val { c, e });
            }
            Opcode::Not => {
                let a = self.get_reg(st, shadow, ins.dst);
                let c = !a.c;
                let e = a.e.map(|e| {
                    let ones = self.pool.constant(u64::MAX);
                    self.pool.bin(BinOp::Xor, e, ones)
                });
                self.set_reg(st, shadow, ins.dst, Val { c, e });
            }

            Opcode::Cmp | Opcode::CmpI => {
                let a = self.get_reg(st, shadow, ins.dst);
                let b = match ins.op {
                    Opcode::Cmp => self.get_reg(st, shadow, ins.src),
                    _ => Val::concrete(immu),
                };
                set_cmp_flags(st, a.c, b.c);
                shadow.last_cmp = if a.e.is_some() || b.e.is_some() {
                    let ae = self.expr_of(a);
                    let be = self.expr_of(b);
                    Some((ae, be))
                } else {
                    None
                };
            }
            Opcode::Test => {
                let a = self.get_reg(st, shadow, ins.dst);
                let b = self.get_reg(st, shadow, ins.src);
                if a.e.is_some() || b.e.is_some() {
                    return Err(GuestFault::Other("symbolic test unsupported".into()));
                }
                let res = a.c & b.c;
                st.regs.flags.zf = res == 0;
                st.regs.flags.sf = (res as i64) < 0;
                st.regs.flags.cf = false;
                st.regs.flags.of = false;
                shadow.last_cmp = None;
            }

            Opcode::Jmp => st.regs.rip = immu,
            Opcode::Jz
            | Opcode::Jnz
            | Opcode::Jl
            | Opcode::Jle
            | Opcode::Jg
            | Opcode::Jge
            | Opcode::Jb
            | Opcode::Jbe
            | Opcode::Ja
            | Opcode::Jae => {
                if let Some((a, b)) = shadow.last_cmp {
                    let (cond, taken_polarity) = self.branch_cond(ins.op, a, b);
                    if !self.pool.is_const(cond) {
                        // Symbolic branch: fork via the engine. Extension
                        // 1 = condition holds with `taken_polarity`.
                        let (cond, target) = if taken_polarity {
                            (cond, immu)
                        } else {
                            // Normalise: extension 1 always means "the
                            // stored cond is true", so invert for
                            // negative-polarity jumps.
                            (self.pool.not1(cond), immu)
                        };
                        shadow.pending = Some(Pending { cond, target });
                        self.stats.forks += 1;
                        return Ok(Some(Exit::Guess { n: 2, hint: None }));
                    }
                    // Condition folded to a constant: concrete branch.
                    let holds =
                        matches!(self.pool.node(cond), crate::expr::Expr::Const { v } if v == 1);
                    let jump = if taken_polarity { holds } else { !holds };
                    if jump {
                        st.regs.rip = immu;
                    }
                } else if cond_holds(ins.op, st) {
                    st.regs.rip = immu;
                }
            }

            Opcode::Call => {
                let ret = st.regs.rip;
                let sp = st.regs.get(Reg::Rsp).wrapping_sub(8);
                self.store(st, shadow, sp, 8, Val::concrete(ret))?;
                st.regs.set(Reg::Rsp, sp);
                shadow.regs[Reg::Rsp.index()] = None;
                st.regs.rip = immu;
            }
            Opcode::Ret => {
                let sp = st.regs.get(Reg::Rsp);
                let v = self.load(st, shadow, sp, 8)?;
                let ret = Self::require_concrete(v, "return address")?;
                st.regs.set(Reg::Rsp, sp.wrapping_add(8));
                st.regs.rip = ret;
            }
            Opcode::Push => {
                let v = self.get_reg(st, shadow, ins.src);
                let sp = st.regs.get(Reg::Rsp).wrapping_sub(8);
                self.store(st, shadow, sp, 8, v)?;
                st.regs.set(Reg::Rsp, sp);
            }
            Opcode::Pop => {
                let sp = st.regs.get(Reg::Rsp);
                let v = self.load(st, shadow, sp, 8)?;
                st.regs.set(Reg::Rsp, sp.wrapping_add(8));
                self.set_reg(st, shadow, ins.dst, v);
            }

            Opcode::Syscall => {
                let nr = st.regs.get(Reg::Rax);
                if nr == SYS_MAKE_SYMBOLIC {
                    let addr = st.regs.get(Reg::Rdi);
                    let len = st.regs.get(Reg::Rsi).min(4096);
                    // Bytes must be mapped; contents become inputs.
                    let mut probe = vec![0u8; len as usize];
                    st.mem
                        .read_bytes(addr, &mut probe)
                        .map_err(GuestFault::Memory)?;
                    for i in 0..len {
                        let id = shadow.n_inputs;
                        shadow.n_inputs += 1;
                        let e = self.pool.input(id);
                        shadow.mem.insert(addr + i, e);
                    }
                    st.regs.set_return(0);
                } else {
                    match handle_syscall(st, &self.policy) {
                        SyscallEffect::Continue => {}
                        SyscallEffect::Trap(exit) => return Ok(Some(exit)),
                    }
                }
            }
            Opcode::Nop => {}
        }
        Ok(None)
    }
}
