//! The SVM-64 interpreter: one fetch/decode/execute loop over a value
//! [`Domain`], and the concrete domain that makes it a [`Guest`] for the
//! backtracking engine.
//!
//! Every instruction is fetched from the guest's (snapshotted) address
//! space, so the register file plus the [`lwsnap_mem::AddressSpace`]
//! really is the complete machine state — precisely the property the
//! paper's lightweight snapshots rely on. Syscalls are routed through
//! [`lwsnap_core::interpose`], which turns `sys_guess` and friends into
//! engine traps.
//!
//! [`Cpu::run`] owns every opcode's semantics: flags, branch conditions,
//! division checks and the stack, together with the step budget, the
//! decoded-page memo and the syscall trap. A [`Domain`] says only what a
//! value is and how it moves through registers and memory. [`Interp`]
//! runs the loop on plain `u64`s; `lwsnap-symex` runs it on values that
//! carry a symbolic expression alongside.

use std::collections::HashMap;
use std::sync::Arc;

use lwsnap_core::{
    handle_syscall, Exit, Flags, Guest, GuestFault, GuestState, InterposePolicy, Reg, SyscallEffect,
};
use lwsnap_mem::{Fault, Frame, PAGE_SIZE};

use crate::isa::{Instr, Opcode, INSTR_SIZE};

/// Default per-resume step budget (guards against runaway extensions).
pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

/// A code page decoded once and reused across every extension step.
///
/// Holding a clone of the frame pins it: any guest write to the page
/// (even after an `mprotect` to writable) is forced through CoW onto a
/// *new* frame with a new address, so a decoded page can never go stale.
struct DecodedPage {
    /// Pins the frame so its address stays unique to this content.
    _frame: Frame,
    /// One slot per 16-byte instruction; `None` = undecodable.
    instrs: Box<[Option<Instr>]>,
}

const SLOTS_PER_PAGE: usize = PAGE_SIZE / INSTR_SIZE as usize;

/// Decoded code pages keyed by frame address (content-stable).
#[derive(Default)]
struct CodePages {
    decoded: HashMap<usize, Arc<DecodedPage>>,
    /// The last page [`CodePages::decode`] returned, with its key,
    /// checked before `decoded`: a search restarts every path on the
    /// page it left, so most resumes find their page here and touch no
    /// reference count.
    last: Option<(usize, Arc<DecodedPage>)>,
}

impl CodePages {
    /// Returns the decoded form of the code page behind `frame`.
    ///
    /// The key is the frame's address, which a decoded page keeps for its
    /// content by pinning the frame — in the memo as in the map.
    fn decode(&mut self, frame: Frame) -> &DecodedPage {
        let key = Arc::as_ptr(&frame) as usize;
        if !matches!(&self.last, Some((last, _)) if *last == key) {
            if self.decoded.len() > 4096 {
                // Backstop against pathological code-patching guests.
                self.decoded.clear();
            }
            let page = self.decoded.entry(key).or_insert_with(|| {
                let bytes = frame.bytes();
                let instrs = (0..SLOTS_PER_PAGE)
                    .map(|slot| {
                        let chunk: &[u8; 16] = bytes[slot * 16..slot * 16 + 16]
                            .try_into()
                            .expect("page-bounded chunk");
                        Instr::decode(chunk)
                    })
                    .collect();
                Arc::new(DecodedPage {
                    _frame: frame,
                    instrs,
                })
            });
            self.last = Some((key, Arc::clone(page)));
        }
        &self.last.as_ref().expect("set above").1
    }
}

/// The two-operand ALU operations every value domain computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (count masked to 63).
    Shl,
    /// Logical right shift (count masked to 63).
    Shr,
}

impl BinOp {
    /// `a op b` on concrete 64-bit words.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        }
    }
}

/// Which way a conditional branch goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// Jump to the target.
    Taken,
    /// Fall through.
    NotTaken,
    /// Both ways: the loop traps with `Exit::Guess { n: 2 }`, and the
    /// domain applies the engine's pick when it is resumed.
    Fork,
}

/// What an SVM-64 value is, for [`Cpu::run`].
///
/// The loop decides what every instruction means; a domain supplies its
/// value type, register and memory access, the ALU, and the points where
/// a value must be concrete. The hooks with default bodies are where a
/// domain that tracks more than concrete values (symbolic execution)
/// takes part in a `cmp`, a conditional branch or a syscall.
pub trait Domain {
    /// A register-sized value.
    type Val: Copy;

    /// The value of the constant `c`.
    fn constant(&mut self, c: u64) -> Self::Val;
    /// The concrete value `v` takes on this path; the flags are computed
    /// from it.
    fn concrete(&self, v: Self::Val) -> u64;
    /// `v` where the machine needs a concrete number (an address, a
    /// divisor), or the fault for a `what` this domain cannot follow.
    fn require_concrete(&self, v: Self::Val, what: &str) -> Result<u64, GuestFault>;
    /// Register `r`.
    fn reg(&self, st: &GuestState, r: Reg) -> Self::Val;
    /// Sets register `r` to `v`.
    fn set_reg(&mut self, st: &mut GuestState, r: Reg, v: Self::Val);
    /// Loads `len` (1, 2, 4 or 8) little-endian bytes at `addr`,
    /// zero-extended.
    fn load(&mut self, st: &mut GuestState, addr: u64, len: u64) -> Result<Self::Val, GuestFault>;
    /// Stores the low `len` (1, 2, 4 or 8) bytes of `v` at `addr`.
    fn store(
        &mut self,
        st: &mut GuestState,
        addr: u64,
        len: u64,
        v: Self::Val,
    ) -> Result<(), GuestFault>;
    /// `a op b`.
    fn alu(&mut self, op: BinOp, a: Self::Val, b: Self::Val) -> Self::Val;

    /// The flags were just set from `a - b`.
    fn compared(&mut self, _a: Self::Val, _b: Self::Val) {}
    /// Decides the conditional branch `op` to `target`; `holds` is its
    /// condition on the concrete flags.
    fn branch(&mut self, _op: Opcode, holds: bool, _target: u64) -> Branch {
        if holds {
            Branch::Taken
        } else {
            Branch::NotTaken
        }
    }
    /// Sees a syscall before the encapsulation policy does; returns
    /// whether it handled it.
    fn syscall(&mut self, _st: &mut GuestState) -> Result<bool, GuestFault> {
        Ok(false)
    }
}

/// What every SVM-64 interpreter keeps across resumes, whatever its
/// domain: the syscall policy, the step budget and the decoded code
/// pages. [`Cpu::run`] is the fetch/decode/execute loop.
pub struct Cpu {
    /// Encapsulation policy applied to guest syscalls.
    pub policy: InterposePolicy,
    /// Per-resume instruction budget.
    pub max_steps: u64,
    pages: CodePages,
}

impl Cpu {
    /// A CPU with the default policy and a budget of `max_steps`.
    pub fn new(max_steps: u64) -> Cpu {
        Cpu {
            policy: InterposePolicy::default(),
            max_steps,
            pages: CodePages::default(),
        }
    }

    /// Runs the guest in `st` over `dom` until it traps, faults or runs
    /// out of budget. Each retired instruction adds one to `st.steps`.
    pub fn run<D: Domain>(&mut self, dom: &mut D, st: &mut GuestState) -> Exit {
        let Cpu {
            policy,
            max_steps,
            pages,
        } = self;
        let max_steps = *max_steps;
        // Instruction cache: the decoded form of the current code page.
        // Sound because decoded pages pin their frame (content-stable
        // addresses); the mapping itself can only change across a guest
        // syscall, so the per-resume mapping cache is dropped there, and
        // a store into the cached page (made writable by `mprotect`)
        // lands on a CoW copy of its frame, so it is dropped there too.
        let mut icache: Option<(u64, &DecodedPage)> = None;
        loop {
            if st.steps >= max_steps {
                return Exit::Fault(GuestFault::StepBudget);
            }
            st.steps += 1;
            let rip = st.regs.rip;
            let page_base = rip & !(PAGE_SIZE as u64 - 1);
            let page = match icache {
                Some((base, page)) if base == page_base => page,
                _ => {
                    let frame = match st.mem.exec_frame(rip) {
                        Ok(frame) => frame,
                        Err(fault) => return Exit::Fault(GuestFault::Memory(fault)),
                    };
                    let page = pages.decode(frame);
                    icache = Some((page_base, page));
                    page
                }
            };
            // Unaligned rip lands between decode slots: treat the slot
            // containing it as the instruction (its low bits are data
            // offsets SVM-64 cannot produce; entry/branch targets are
            // always 16-byte aligned by construction).
            let slot = (rip & (PAGE_SIZE as u64 - 1)) as usize / INSTR_SIZE as usize;
            let Some(ins) = page.instrs[slot] else {
                return Exit::Fault(GuestFault::IllegalInstruction { rip });
            };
            // Advance before executing so syscall snapshots resume *after*
            // the trapping instruction and branches can overwrite freely.
            st.regs.rip = rip.wrapping_add(INSTR_SIZE);
            if ins.op == Opcode::Syscall {
                icache = None;
            }
            match exec(dom, policy, st, ins) {
                Ok(Step::Continue) => {}
                Ok(Step::Stored { va, len }) => {
                    let hit = |addr: u64| addr & !(PAGE_SIZE as u64 - 1) == page_base;
                    if hit(va) || hit(va.wrapping_add(len - 1)) {
                        icache = None;
                    }
                }
                Ok(Step::Trap(exit)) => return exit,
                Err(fault) => return Exit::Fault(fault),
            }
        }
    }
}

#[inline]
fn set_cmp_flags(flags: &mut Flags, a: u64, b: u64) {
    let (res, borrow) = a.overflowing_sub(b);
    flags.zf = res == 0;
    flags.sf = (res as i64) < 0;
    flags.cf = borrow;
    // Signed overflow of a - b: operands differ in sign and the result's
    // sign differs from a's.
    flags.of = ((a ^ b) & (a ^ res)) >> 63 != 0;
}

#[inline]
fn cond_holds(op: Opcode, f: Flags) -> bool {
    match op {
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
        _ => unreachable!("not a conditional branch"),
    }
}

/// Sets the flags from `a - b` and tells the domain.
#[inline]
fn compare<D: Domain>(dom: &mut D, st: &mut GuestState, a: D::Val, b: D::Val) {
    set_cmp_flags(&mut st.regs.flags, dom.concrete(a), dom.concrete(b));
    dom.compared(a, b);
}

/// `ld{len} dst, [src+imm]`, or `lds{len}` when `signed`.
#[inline(always)]
fn load<D: Domain>(
    dom: &mut D,
    st: &mut GuestState,
    ins: Instr,
    len: u64,
    signed: bool,
) -> Result<(), GuestFault> {
    let base = dom.require_concrete(dom.reg(st, ins.src), "load address")?;
    let mut v = dom.load(st, base.wrapping_add(ins.imm as u64), len)?;
    if signed {
        let shift = 64 - 8 * len;
        let c = dom.require_concrete(v, "sign-extending load")?;
        v = dom.constant((((c << shift) as i64) >> shift) as u64);
    }
    dom.set_reg(st, ins.dst, v);
    Ok(())
}

/// `st{len} [dst+imm], src`.
#[inline(always)]
fn store<D: Domain>(
    dom: &mut D,
    st: &mut GuestState,
    ins: Instr,
    len: u64,
) -> Result<Step, GuestFault> {
    let base = dom.require_concrete(dom.reg(st, ins.dst), "store address")?;
    let va = base.wrapping_add(ins.imm as u64);
    let v = dom.reg(st, ins.src);
    dom.store(st, va, len, v)?;
    Ok(Step::Stored { va, len })
}

/// `op dst, src` or `op dst, imm`.
#[inline(always)]
fn alu<D: Domain>(dom: &mut D, st: &mut GuestState, ins: Instr, op: BinOp) {
    let a = dom.reg(st, ins.dst);
    let b = operand_b(dom, st, ins);
    let v = dom.alu(op, a, b);
    dom.set_reg(st, ins.dst, v);
}

/// The second operand of a two-operand ALU opcode: the immediate for the
/// `…I` forms, else `src`.
#[inline]
fn operand_b<D: Domain>(dom: &mut D, st: &GuestState, ins: Instr) -> D::Val {
    match ins.op {
        Opcode::AddI
        | Opcode::SubI
        | Opcode::MulI
        | Opcode::UdivI
        | Opcode::UremI
        | Opcode::AndI
        | Opcode::OrI
        | Opcode::XorI
        | Opcode::ShlI
        | Opcode::ShrI
        | Opcode::SarI
        | Opcode::CmpI => dom.constant(ins.imm as u64),
        _ => dom.reg(st, ins.src),
    }
}

/// The stack pointer, which must be concrete.
#[inline]
fn stack_pointer<D: Domain>(dom: &D, st: &GuestState) -> Result<u64, GuestFault> {
    dom.require_concrete(dom.reg(st, Reg::Rsp), "stack pointer")
}

#[inline]
fn set_stack_pointer<D: Domain>(dom: &mut D, st: &mut GuestState, sp: u64) {
    let v = dom.constant(sp);
    dom.set_reg(st, Reg::Rsp, v);
}

enum Step {
    Continue,
    /// Continue; the instruction stored `len` bytes at `va`.
    Stored {
        va: u64,
        len: u64,
    },
    Trap(Exit),
}

/// Executes one instruction; `st.regs.rip` already points past it.
#[inline(always)]
fn exec<D: Domain>(
    dom: &mut D,
    policy: &InterposePolicy,
    st: &mut GuestState,
    ins: Instr,
) -> Result<Step, GuestFault> {
    let immu = ins.imm as u64;
    match ins.op {
        Opcode::MovRI => {
            let v = dom.constant(immu);
            dom.set_reg(st, ins.dst, v);
        }
        Opcode::MovRR => {
            let v = dom.reg(st, ins.src);
            dom.set_reg(st, ins.dst, v);
        }

        Opcode::Ld1 => load(dom, st, ins, 1, false)?,
        Opcode::Ld2 => load(dom, st, ins, 2, false)?,
        Opcode::Ld4 => load(dom, st, ins, 4, false)?,
        Opcode::Ld8 => load(dom, st, ins, 8, false)?,
        Opcode::Lds1 => load(dom, st, ins, 1, true)?,
        Opcode::Lds2 => load(dom, st, ins, 2, true)?,
        Opcode::Lds4 => load(dom, st, ins, 4, true)?,
        Opcode::St1 => return store(dom, st, ins, 1),
        Opcode::St2 => return store(dom, st, ins, 2),
        Opcode::St4 => return store(dom, st, ins, 4),
        Opcode::St8 => return store(dom, st, ins, 8),

        Opcode::Add | Opcode::AddI => alu(dom, st, ins, BinOp::Add),
        Opcode::Sub | Opcode::SubI => alu(dom, st, ins, BinOp::Sub),
        Opcode::Mul | Opcode::MulI => alu(dom, st, ins, BinOp::Mul),
        Opcode::And | Opcode::AndI => alu(dom, st, ins, BinOp::And),
        Opcode::Or | Opcode::OrI => alu(dom, st, ins, BinOp::Or),
        Opcode::Xor | Opcode::XorI => alu(dom, st, ins, BinOp::Xor),
        Opcode::Shl | Opcode::ShlI => alu(dom, st, ins, BinOp::Shl),
        Opcode::Shr | Opcode::ShrI => alu(dom, st, ins, BinOp::Shr),
        Opcode::Udiv
        | Opcode::UdivI
        | Opcode::Urem
        | Opcode::UremI
        | Opcode::Sar
        | Opcode::SarI => {
            let what = match ins.op {
                Opcode::Sar | Opcode::SarI => "sar operand",
                _ => "division operand",
            };
            let a = dom.require_concrete(dom.reg(st, ins.dst), what)?;
            let b = operand_b(dom, st, ins);
            let b = dom.require_concrete(b, what)?;
            let by_zero = |quotient: &str| {
                let rip = st.regs.rip.wrapping_sub(INSTR_SIZE);
                GuestFault::Other(format!("{quotient} by zero at rip {rip:#x}"))
            };
            let c = match ins.op {
                Opcode::Udiv | Opcode::UdivI => {
                    a.checked_div(b).ok_or_else(|| by_zero("division"))?
                }
                Opcode::Urem | Opcode::UremI => {
                    a.checked_rem(b).ok_or_else(|| by_zero("remainder"))?
                }
                _ => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            };
            let v = dom.constant(c);
            dom.set_reg(st, ins.dst, v);
        }
        Opcode::Neg => {
            let zero = dom.constant(0);
            let a = dom.reg(st, ins.dst);
            let v = dom.alu(BinOp::Sub, zero, a);
            dom.set_reg(st, ins.dst, v);
        }
        Opcode::Not => {
            let a = dom.reg(st, ins.dst);
            let ones = dom.constant(u64::MAX);
            let v = dom.alu(BinOp::Xor, a, ones);
            dom.set_reg(st, ins.dst, v);
        }

        Opcode::Cmp | Opcode::CmpI => {
            let a = dom.reg(st, ins.dst);
            let b = operand_b(dom, st, ins);
            compare(dom, st, a, b);
        }
        Opcode::Test => {
            // `test a, b` sets exactly the flags of `cmp a & b, 0`.
            let (a, b) = (dom.reg(st, ins.dst), dom.reg(st, ins.src));
            let and = dom.alu(BinOp::And, a, b);
            let zero = dom.constant(0);
            compare(dom, st, and, zero);
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
        | Opcode::Jae => match dom.branch(ins.op, cond_holds(ins.op, st.regs.flags), immu) {
            Branch::Taken => st.regs.rip = immu,
            Branch::NotTaken => {}
            Branch::Fork => return Ok(Step::Trap(Exit::Guess { n: 2, hint: None })),
        },

        Opcode::Call => {
            let sp = stack_pointer(dom, st)?.wrapping_sub(8);
            let ret = dom.constant(st.regs.rip); // already past the call
            dom.store(st, sp, 8, ret)?;
            set_stack_pointer(dom, st, sp);
            st.regs.rip = immu;
            return Ok(Step::Stored { va: sp, len: 8 });
        }
        Opcode::Ret => {
            let sp = stack_pointer(dom, st)?;
            let v = dom.load(st, sp, 8)?;
            let ret = dom.require_concrete(v, "return address")?;
            set_stack_pointer(dom, st, sp.wrapping_add(8));
            st.regs.rip = ret;
        }
        Opcode::Push => {
            let sp = stack_pointer(dom, st)?.wrapping_sub(8);
            let v = dom.reg(st, ins.src);
            dom.store(st, sp, 8, v)?;
            set_stack_pointer(dom, st, sp);
            return Ok(Step::Stored { va: sp, len: 8 });
        }
        Opcode::Pop => {
            let sp = stack_pointer(dom, st)?;
            let v = dom.load(st, sp, 8)?;
            set_stack_pointer(dom, st, sp.wrapping_add(8));
            dom.set_reg(st, ins.dst, v);
        }

        Opcode::Syscall => {
            if !dom.syscall(st)? {
                if let SyscallEffect::Trap(exit) = handle_syscall(st, policy) {
                    return Ok(Step::Trap(exit));
                }
            }
        }
        Opcode::Nop => {}
    }
    Ok(Step::Continue)
}

/// The concrete domain: a value is its `u64`.
struct Concrete;

impl Domain for Concrete {
    type Val = u64;

    #[inline]
    fn constant(&mut self, c: u64) -> u64 {
        c
    }

    #[inline]
    fn concrete(&self, v: u64) -> u64 {
        v
    }

    #[inline]
    fn require_concrete(&self, v: u64, _what: &str) -> Result<u64, GuestFault> {
        Ok(v)
    }

    #[inline]
    fn reg(&self, st: &GuestState, r: Reg) -> u64 {
        st.regs.get(r)
    }

    #[inline]
    fn set_reg(&mut self, st: &mut GuestState, r: Reg, v: u64) {
        st.regs.set(r, v);
    }

    #[inline]
    fn load(&mut self, st: &mut GuestState, addr: u64, len: u64) -> Result<u64, GuestFault> {
        match len {
            1 => st.mem.read_u8(addr).map(u64::from),
            2 => st.mem.read_u16(addr).map(u64::from),
            4 => st.mem.read_u32(addr).map(u64::from),
            _ => st.mem.read_u64(addr),
        }
        .map_err(GuestFault::Memory)
    }

    #[inline]
    fn store(
        &mut self,
        st: &mut GuestState,
        addr: u64,
        len: u64,
        v: u64,
    ) -> Result<(), GuestFault> {
        match len {
            1 => st.mem.write_u8(addr, v as u8),
            2 => st.mem.write_u16(addr, v as u16),
            4 => st.mem.write_u32(addr, v as u32),
            _ => st.mem.write_u64(addr, v),
        }
        .map_err(GuestFault::Memory)
    }

    #[inline]
    fn alu(&mut self, op: BinOp, a: u64, b: u64) -> u64 {
        op.apply(a, b)
    }
}

/// The SVM-64 interpreter: [`Cpu::run`] over concrete `u64` values.
pub struct Interp {
    /// The loop, its policy and its step budget.
    pub cpu: Cpu,
    /// Total instructions retired across all resumes (diagnostics).
    pub total_steps: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Creates an interpreter with the default policy and step budget.
    pub fn new() -> Self {
        Interp {
            cpu: Cpu::new(DEFAULT_MAX_STEPS),
            total_steps: 0,
        }
    }

    /// Creates an interpreter with an explicit policy.
    pub fn with_policy(policy: InterposePolicy) -> Self {
        let mut interp = Interp::new();
        interp.cpu.policy = policy;
        interp
    }

    /// Sets the per-resume step budget.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.cpu.max_steps = steps;
        self
    }
}

impl Guest for Interp {
    fn resume(&mut self, st: &mut GuestState) -> Exit {
        let before = st.steps;
        let exit = self.cpu.run(&mut Concrete, st);
        self.total_steps += st.steps - before;
        exit
    }
}

/// Runs a standalone program (no backtracking) until it exits.
///
/// Convenience for tests and simple guests: returns the exit code and the
/// bytes the program wrote to stdout.
pub fn run_to_exit(program: &crate::prog::Program, max_steps: u64) -> Result<(i64, Vec<u8>), Exit> {
    let mut interp = Interp::new().max_steps(max_steps);
    let mut st = program
        .boot()
        .map_err(|e| Exit::Fault(GuestFault::Other(format!("boot failed: {e}"))))?;
    let mut stdout = Vec::new();
    loop {
        match interp.resume(&mut st) {
            Exit::Output { fd: 1, data } => stdout.extend_from_slice(&data),
            Exit::Output { .. } => {}
            Exit::Exit { code } => return Ok((code, stdout)),
            other => return Err(other),
        }
    }
}

/// Re-exported for convenience in fault matching.
pub fn is_unmapped_fault(exit: &Exit, va: u64) -> bool {
    matches!(exit, Exit::Fault(GuestFault::Memory(Fault::Unmapped { va: v })) if *v == va)
}

#[cfg(test)]
#[path = "../tests/common/guests.rs"]
mod guests;

#[cfg(test)]
mod tests {
    use super::guests::*;
    use super::*;
    use crate::parse::assemble_source;

    fn run(src: &str) -> (i64, String) {
        let prog = assemble_source(src).unwrap();
        let (code, out) = run_to_exit(&prog, 10_000_000).unwrap();
        (code, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn exit_code_propagates() {
        let (code, _) = run(EXIT_42);
        assert_eq!(code, 42);
    }

    #[test]
    fn arithmetic_loop_sums() {
        let (code, out) = run(SUM_LOOP);
        assert_eq!(code, 0);
        assert_eq!(out, "55");
    }

    #[test]
    fn memory_and_data_section() {
        let (_, out) = run(HELLO);
        assert_eq!(out, "hello\n");
    }

    #[test]
    fn loads_stores_all_sizes() {
        let (code, _) = run(LOADS_STORES);
        assert_eq!(code, 0);
    }

    #[test]
    fn signed_and_unsigned_branches() {
        let (code, _) = run(SIGNED_UNSIGNED);
        assert_eq!(code, 0);
    }

    #[test]
    fn call_ret_and_stack() {
        let (_, out) = run(CALL_RET);
        assert_eq!(out, "14");
    }

    #[test]
    fn push_pop() {
        let (code, _) = run(PUSH_POP);
        assert_eq!(code, 0);
    }

    #[test]
    fn division_and_remainder() {
        let (_, out) = run(DIV_REM);
        assert_eq!(out, "32");
    }

    #[test]
    fn divide_by_zero_faults() {
        let prog = assemble_source(DIV_BY_ZERO).unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert!(matches!(err, Exit::Fault(GuestFault::Other(ref m)) if m.contains("division")));
    }

    #[test]
    fn illegal_instruction_faults() {
        // Jump into the data section (zero bytes decode to nothing).
        let prog = assemble_source(JUMP_INTO_DATA).unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        // Data pages are not executable: fetch faults first.
        assert!(matches!(err, Exit::Fault(GuestFault::Memory(_))), "{err:?}");
    }

    #[test]
    fn falling_off_text_faults() {
        let prog = assemble_source(FALL_OFF_TEXT).unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        // After the last instruction rip hits zero-filled text page: the
        // encoding there (all zeroes) is illegal.
        assert!(
            matches!(err, Exit::Fault(GuestFault::IllegalInstruction { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn unmapped_access_faults() {
        let prog = assemble_source(UNMAPPED_LOAD).unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert!(is_unmapped_fault(&err, 0xdead_0000), "{err:?}");
    }

    #[test]
    fn step_budget_enforced() {
        let prog = assemble_source(SPIN).unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert_eq!(err, Exit::Fault(GuestFault::StepBudget));
    }

    #[test]
    fn shifts_mask_counts() {
        let (code, _) = run(SHIFTS);
        assert_eq!(code, 0);
    }

    #[test]
    fn patched_code_runs_and_siblings_run_the_original() {
        use lwsnap_core::{strategy::Dfs, Engine, ParallelEngine, StopReason};
        let prog = assemble_source(SELF_PATCHING).unwrap();
        // The patching branch prints the site before and after the patch;
        // its sibling, restored from before it, prints the original.
        let sequential = Engine::new(Dfs::new()).run(&mut Interp::new(), prog.boot().unwrap());
        assert_eq!(sequential.stop, StopReason::Exhausted);
        assert_eq!(sequential.transcript_str(), "121");
        let parallel = ParallelEngine::new(2).run(Interp::new, prog.boot().unwrap());
        assert_eq!(parallel.transcript_str(), "121");
    }

    #[test]
    fn brk_heap_from_guest() {
        let (code, _) = run(BRK_HEAP);
        assert_eq!(code, 0);
    }
}
