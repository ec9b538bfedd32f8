//! The SVM-64 interpreter: a [`Guest`] for the backtracking engine.
//!
//! Every instruction is fetched from the guest's (snapshotted) address
//! space, so the register file plus the [`lwsnap_mem::AddressSpace`]
//! really is the complete machine state — precisely the property the
//! paper's lightweight snapshots rely on. Syscalls are routed through
//! [`lwsnap_core::interpose`], which turns `sys_guess` and friends into
//! engine traps.

use std::collections::HashMap;
use std::rc::Rc;

use lwsnap_core::{
    handle_syscall, Exit, Guest, GuestFault, GuestState, InterposePolicy, Reg, SyscallEffect,
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

/// The SVM-64 interpreter.
pub struct Interp {
    /// Encapsulation policy applied to guest syscalls.
    pub policy: InterposePolicy,
    /// Per-resume instruction budget.
    pub max_steps: u64,
    /// Total instructions retired across all resumes (diagnostics).
    pub total_steps: u64,
    /// Decoded code pages keyed by frame address (content-stable).
    decoded: HashMap<usize, Rc<DecodedPage>>,
    /// The last page [`Interp::decode_page`] returned, with its key,
    /// checked before `decoded`: a search restarts every path on the
    /// page it left, so most resumes find their page here.
    last: Option<(usize, Rc<DecodedPage>)>,
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
            policy: InterposePolicy::default(),
            max_steps: DEFAULT_MAX_STEPS,
            total_steps: 0,
            decoded: HashMap::new(),
            last: None,
        }
    }

    /// Returns the decoded form of the code page behind `frame`.
    ///
    /// The key is the frame's address, which a decoded page keeps for its
    /// content by pinning the frame — in the memo as in the map.
    fn decode_page(&mut self, frame: Frame) -> Rc<DecodedPage> {
        let key = std::sync::Arc::as_ptr(&frame) as usize;
        if let Some((last, page)) = &self.last {
            if *last == key {
                return Rc::clone(page);
            }
        }
        if self.decoded.len() > 4096 {
            // Backstop against pathological code-patching guests.
            self.decoded.clear();
        }
        let page = self
            .decoded
            .entry(key)
            .or_insert_with(|| {
                let bytes = frame.bytes();
                let instrs = (0..SLOTS_PER_PAGE)
                    .map(|slot| {
                        let chunk: &[u8; 16] = bytes[slot * 16..slot * 16 + 16]
                            .try_into()
                            .expect("page-bounded chunk");
                        Instr::decode(chunk)
                    })
                    .collect();
                Rc::new(DecodedPage {
                    _frame: frame,
                    instrs,
                })
            })
            .clone();
        self.last = Some((key, Rc::clone(&page)));
        page
    }

    /// Creates an interpreter with an explicit policy.
    pub fn with_policy(policy: InterposePolicy) -> Self {
        Interp {
            policy,
            ..Interp::new()
        }
    }

    /// Sets the per-resume step budget.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }
}

#[inline]
fn set_cmp_flags(st: &mut GuestState, a: u64, b: u64) {
    let (res, borrow) = a.overflowing_sub(b);
    st.regs.flags.zf = res == 0;
    st.regs.flags.sf = (res as i64) < 0;
    st.regs.flags.cf = borrow;
    // Signed overflow of a - b: operands differ in sign and the result's
    // sign differs from a's.
    st.regs.flags.of = ((a ^ b) & (a ^ res)) >> 63 != 0;
}

#[inline]
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
        _ => unreachable!("not a branch"),
    }
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

impl Interp {
    fn exec(&self, st: &mut GuestState, ins: Instr) -> Result<Step, GuestFault> {
        let mem_fault = GuestFault::Memory;
        let immu = ins.imm as u64;
        match ins.op {
            Opcode::MovRI => st.regs.set(ins.dst, immu),
            Opcode::MovRR => {
                let v = st.regs.get(ins.src);
                st.regs.set(ins.dst, v);
            }

            Opcode::Ld1
            | Opcode::Ld2
            | Opcode::Ld4
            | Opcode::Ld8
            | Opcode::Lds1
            | Opcode::Lds2
            | Opcode::Lds4 => {
                let addr = st.regs.get(ins.src).wrapping_add(immu);
                let value = match ins.op {
                    Opcode::Ld1 => st.mem.read_u8(addr).map(u64::from),
                    Opcode::Ld2 => st.mem.read_u16(addr).map(u64::from),
                    Opcode::Ld4 => st.mem.read_u32(addr).map(u64::from),
                    Opcode::Ld8 => st.mem.read_u64(addr),
                    Opcode::Lds1 => st.mem.read_u8(addr).map(|v| v as i8 as i64 as u64),
                    Opcode::Lds2 => st.mem.read_u16(addr).map(|v| v as i16 as i64 as u64),
                    _ => st.mem.read_u32(addr).map(|v| v as i32 as i64 as u64),
                }
                .map_err(mem_fault)?;
                st.regs.set(ins.dst, value);
            }
            Opcode::St1 | Opcode::St2 | Opcode::St4 | Opcode::St8 => {
                let addr = st.regs.get(ins.dst).wrapping_add(immu);
                let v = st.regs.get(ins.src);
                let len = match ins.op {
                    Opcode::St1 => st.mem.write_u8(addr, v as u8).map(|()| 1),
                    Opcode::St2 => st.mem.write_u16(addr, v as u16).map(|()| 2),
                    Opcode::St4 => st.mem.write_u32(addr, v as u32).map(|()| 4),
                    _ => st.mem.write_u64(addr, v).map(|()| 8),
                }
                .map_err(mem_fault)?;
                return Ok(Step::Stored { va: addr, len });
            }

            Opcode::Add
            | Opcode::AddI
            | Opcode::Sub
            | Opcode::SubI
            | Opcode::Mul
            | Opcode::MulI
            | Opcode::Udiv
            | Opcode::UdivI
            | Opcode::Urem
            | Opcode::UremI
            | Opcode::And
            | Opcode::AndI
            | Opcode::Or
            | Opcode::OrI
            | Opcode::Xor
            | Opcode::XorI
            | Opcode::Shl
            | Opcode::ShlI
            | Opcode::Shr
            | Opcode::ShrI
            | Opcode::Sar
            | Opcode::SarI => {
                let a = st.regs.get(ins.dst);
                let b = if matches!(
                    ins.op,
                    Opcode::Add
                        | Opcode::Sub
                        | Opcode::Mul
                        | Opcode::Udiv
                        | Opcode::Urem
                        | Opcode::And
                        | Opcode::Or
                        | Opcode::Xor
                        | Opcode::Shl
                        | Opcode::Shr
                        | Opcode::Sar
                ) {
                    st.regs.get(ins.src)
                } else {
                    immu
                };
                let result = match ins.op {
                    Opcode::Add | Opcode::AddI => a.wrapping_add(b),
                    Opcode::Sub | Opcode::SubI => a.wrapping_sub(b),
                    Opcode::Mul | Opcode::MulI => a.wrapping_mul(b),
                    Opcode::Udiv | Opcode::UdivI => {
                        if b == 0 {
                            return Err(GuestFault::Other(format!(
                                "division by zero at rip {:#x}",
                                st.regs.rip.wrapping_sub(INSTR_SIZE)
                            )));
                        }
                        a / b
                    }
                    Opcode::Urem | Opcode::UremI => {
                        if b == 0 {
                            return Err(GuestFault::Other(format!(
                                "remainder by zero at rip {:#x}",
                                st.regs.rip.wrapping_sub(INSTR_SIZE)
                            )));
                        }
                        a % b
                    }
                    Opcode::And | Opcode::AndI => a & b,
                    Opcode::Or | Opcode::OrI => a | b,
                    Opcode::Xor | Opcode::XorI => a ^ b,
                    Opcode::Shl | Opcode::ShlI => a.wrapping_shl(b as u32 & 63),
                    Opcode::Shr | Opcode::ShrI => a.wrapping_shr(b as u32 & 63),
                    _ => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                };
                st.regs.set(ins.dst, result);
            }
            Opcode::Neg => {
                let v = st.regs.get(ins.dst);
                st.regs.set(ins.dst, v.wrapping_neg());
            }
            Opcode::Not => {
                let v = st.regs.get(ins.dst);
                st.regs.set(ins.dst, !v);
            }

            Opcode::Cmp => {
                let (a, b) = (st.regs.get(ins.dst), st.regs.get(ins.src));
                set_cmp_flags(st, a, b);
            }
            Opcode::CmpI => {
                let a = st.regs.get(ins.dst);
                set_cmp_flags(st, a, immu);
            }
            Opcode::Test => {
                let res = st.regs.get(ins.dst) & st.regs.get(ins.src);
                st.regs.flags.zf = res == 0;
                st.regs.flags.sf = (res as i64) < 0;
                st.regs.flags.cf = false;
                st.regs.flags.of = false;
            }

            Opcode::Jmp
            | Opcode::Jz
            | Opcode::Jnz
            | Opcode::Jl
            | Opcode::Jle
            | Opcode::Jg
            | Opcode::Jge
            | Opcode::Jb
            | Opcode::Jbe
            | Opcode::Ja
            | Opcode::Jae => {
                if cond_holds(ins.op, st) {
                    st.regs.rip = immu;
                }
            }

            Opcode::Call => {
                let ret = st.regs.rip; // already past the call
                let sp = st.regs.get(Reg::Rsp).wrapping_sub(8);
                st.mem.write_u64(sp, ret).map_err(mem_fault)?;
                st.regs.set(Reg::Rsp, sp);
                st.regs.rip = immu;
                return Ok(Step::Stored { va: sp, len: 8 });
            }
            Opcode::Ret => {
                let sp = st.regs.get(Reg::Rsp);
                let ret = st.mem.read_u64(sp).map_err(mem_fault)?;
                st.regs.set(Reg::Rsp, sp.wrapping_add(8));
                st.regs.rip = ret;
            }
            Opcode::Push => {
                let sp = st.regs.get(Reg::Rsp).wrapping_sub(8);
                let v = st.regs.get(ins.src);
                st.mem.write_u64(sp, v).map_err(mem_fault)?;
                st.regs.set(Reg::Rsp, sp);
                return Ok(Step::Stored { va: sp, len: 8 });
            }
            Opcode::Pop => {
                let sp = st.regs.get(Reg::Rsp);
                let v = st.mem.read_u64(sp).map_err(mem_fault)?;
                st.regs.set(Reg::Rsp, sp.wrapping_add(8));
                st.regs.set(ins.dst, v);
            }

            Opcode::Syscall => match handle_syscall(st, &self.policy) {
                SyscallEffect::Continue => {}
                SyscallEffect::Trap(exit) => return Ok(Step::Trap(exit)),
            },
            Opcode::Nop => {}
        }
        Ok(Step::Continue)
    }
}

impl Guest for Interp {
    fn resume(&mut self, st: &mut GuestState) -> Exit {
        // Instruction cache: the decoded form of the current code page.
        // Sound because decoded pages pin their frame (content-stable
        // addresses); the mapping itself can only change across a guest
        // syscall, so the per-resume mapping cache is dropped there, and
        // a store into the cached page (made writable by `mprotect`)
        // lands on a CoW copy of its frame, so it is dropped there too.
        let mut icache: Option<(u64, Rc<DecodedPage>)> = None;
        loop {
            if st.steps >= self.max_steps {
                return Exit::Fault(GuestFault::StepBudget);
            }
            st.steps += 1;
            self.total_steps += 1;
            let rip = st.regs.rip;
            let page_base = rip & !(PAGE_SIZE as u64 - 1);
            let page = match &icache {
                Some((base, page)) if *base == page_base => page,
                _ => {
                    let frame = match st.mem.exec_frame(rip) {
                        Ok(frame) => frame,
                        Err(fault) => return Exit::Fault(GuestFault::Memory(fault)),
                    };
                    let decoded = self.decode_page(frame);
                    &icache.insert((page_base, decoded)).1
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
            match self.exec(st, ins) {
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
mod tests {
    use super::*;
    use crate::parse::assemble_source;

    fn run(src: &str) -> (i64, String) {
        let prog = assemble_source(src).unwrap();
        let (code, out) = run_to_exit(&prog, 10_000_000).unwrap();
        (code, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn exit_code_propagates() {
        let (code, _) = run("mov rdi, 42\nmov rax, 60\nsyscall\n");
        assert_eq!(code, 42);
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10 via a loop, print with putint.
        let (code, out) = run(r#"
            _start:
                mov rbx, 0      ; sum
                mov rcx, 10     ; i
            loop:
                add rbx, rcx
                sub rcx, 1
                cmp rcx, 0
                jnz loop
                mov rdi, rbx
                mov rax, 1005   ; putint
                syscall
                mov rdi, 0
                mov rax, 60
                syscall
            "#);
        assert_eq!(code, 0);
        assert_eq!(out, "55");
    }

    #[test]
    fn memory_and_data_section() {
        let (_, out) = run(r#"
            _start:
                mov  rsi, msg
                mov  rdx, 6
                mov  rdi, 1
                mov  rax, 1       ; write(1, msg, 6)
                syscall
                mov  rax, 60
                mov  rdi, 0
                syscall
            .data
            msg: .asciz "hello\n"
            "#);
        assert_eq!(out, "hello\n");
    }

    #[test]
    fn loads_stores_all_sizes() {
        let (code, _) = run(r#"
            _start:
                mov  r12, buf
                mov  rbx, 0x1122334455667788
                st8  [r12], rbx
                ld1  rax, [r12]         ; 0x88
                cmp  rax, 0x88
                jnz  bad
                ld2  rax, [r12]         ; 0x7788
                cmp  rax, 0x7788
                jnz  bad
                ld4  rax, [r12]         ; 0x55667788
                cmp  rax, 0x55667788
                jnz  bad
                ld8  rax, [r12]
                cmp  rax, rbx
                jnz  bad
                ; sign extension
                mov  rbx, 0xff
                st1  [r12+9], rbx
                lds1 rax, [r12+9]
                cmp  rax, -1
                jnz  bad
                mov  rdi, 0
                mov  rax, 60
                syscall
            bad:
                mov  rdi, 1
                mov  rax, 60
                syscall
            .data
            buf: .space 16
            "#);
        assert_eq!(code, 0);
    }

    #[test]
    fn signed_and_unsigned_branches() {
        let (code, _) = run(r#"
            _start:
                mov rax, -5
                cmp rax, 3
                jl  signed_ok          ; -5 < 3 signed
                jmp bad
            signed_ok:
                cmp rax, 3
                jb  bad                ; but huge unsigned, not below
                ja  unsigned_ok
                jmp bad
            unsigned_ok:
                mov rdi, 0
                mov rax, 60
                syscall
            bad:
                mov rdi, 1
                mov rax, 60
                syscall
            "#);
        assert_eq!(code, 0);
    }

    #[test]
    fn call_ret_and_stack() {
        let (_, out) = run(r#"
            _start:
                mov  rdi, 7
                call double
                mov  rdi, rax
                mov  rax, 1005
                syscall
                mov  rdi, 0
                mov  rax, 60
                syscall
            double:
                mov  rax, rdi
                add  rax, rax
                ret
            "#);
        assert_eq!(out, "14");
    }

    #[test]
    fn push_pop() {
        let (code, _) = run(r#"
            _start:
                mov  rbx, 123
                push rbx
                mov  rbx, 0
                pop  rcx
                cmp  rcx, 123
                jnz  bad
                mov  rdi, 0
                mov  rax, 60
                syscall
            bad:
                mov  rdi, 1
                mov  rax, 60
                syscall
            "#);
        assert_eq!(code, 0);
    }

    #[test]
    fn division_and_remainder() {
        let (_, out) = run(r#"
            _start:
                mov  rbx, 17
                udiv rbx, 5
                mov  rdi, rbx
                mov  rax, 1005
                syscall
                mov  rbx, 17
                urem rbx, 5
                mov  rdi, rbx
                mov  rax, 1005
                syscall
                mov  rdi, 0
                mov  rax, 60
                syscall
            "#);
        assert_eq!(out, "32");
    }

    #[test]
    fn divide_by_zero_faults() {
        let prog = assemble_source("mov rbx, 1\nudiv rbx, 0\n").unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert!(matches!(err, Exit::Fault(GuestFault::Other(ref m)) if m.contains("division")));
    }

    #[test]
    fn illegal_instruction_faults() {
        // Jump into the data section (zero bytes decode to nothing).
        let prog = assemble_source(".text\n_start: jmp buf\n.data\nbuf: .space 16\n").unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        // Data pages are not executable: fetch faults first.
        assert!(matches!(err, Exit::Fault(GuestFault::Memory(_))), "{err:?}");
    }

    #[test]
    fn falling_off_text_faults() {
        let prog = assemble_source("nop\n").unwrap();
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
        let prog = assemble_source("mov rbx, 0xdead0000\nld8 rax, [rbx]\n").unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert!(is_unmapped_fault(&err, 0xdead_0000), "{err:?}");
    }

    #[test]
    fn step_budget_enforced() {
        let prog = assemble_source("spin: jmp spin\n").unwrap();
        let err = run_to_exit(&prog, 1000).unwrap_err();
        assert_eq!(err, Exit::Fault(GuestFault::StepBudget));
    }

    #[test]
    fn shifts_mask_counts() {
        let (code, _) = run(r#"
            _start:
                mov rbx, 1
                shl rbx, 65       ; masked to 1
                cmp rbx, 2
                jnz bad
                mov rbx, -8
                sar rbx, 1
                cmp rbx, -4
                jnz bad
                mov rbx, 8
                shr rbx, 2
                cmp rbx, 2
                jnz bad
                mov rdi, 0
                mov rax, 60
                syscall
            bad:
                mov rdi, 1
                mov rax, 60
                syscall
            "#);
        assert_eq!(code, 0);
    }

    /// Branch 0 runs `site`, makes its text page writable, copies the
    /// instruction at `patch` over `site` and jumps back; branch 1 is
    /// restored from the snapshot taken at the guess, before the patch.
    const SELF_PATCHING: &str = r#"
        _start:
            mov  rdi, 2
            mov  rax, 1000        ; which = sys_guess(2)
            syscall
            mov  r15, rax
            mov  r12, 0           ; patched yet?
        site:
            mov  rbx, 1           ; branch 0 turns this into `mov rbx, 2`
            mov  rdi, rbx
            mov  rax, 1005        ; putint(rbx)
            syscall
            cmp  r15, 0
            jnz  done
            cmp  r12, 0
            jnz  done
            mov  r12, 1
            mov  rdi, _start
            mov  rsi, 4096
            mov  rdx, 7           ; mprotect(text, 4096, R|W|X)
            mov  rax, 10
            syscall
            mov  r13, patch
            mov  r14, site
            ld8  rcx, [r13]
            st8  [r14], rcx
            ld8  rcx, [r13+8]
            st8  [r14+8], rcx
            jmp  site
        done:
            mov  rax, 1001        ; sys_guess_fail
            syscall
        patch:
            mov  rbx, 2
        "#;

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
        let (code, _) = run(r#"
            _start:
                mov rdi, 0
                mov rax, 12      ; brk(0) -> current
                syscall
                mov rbx, rax     ; heap base
                mov rdi, rax
                add rdi, 4096
                mov rax, 12      ; brk(base+4096)
                syscall
                st8 [rbx], rbx   ; heap is writable now
                ld8 rcx, [rbx]
                cmp rcx, rbx
                jnz bad
                mov rdi, 0
                mov rax, 60
                syscall
            bad:
                mov rdi, 1
                mov rax, 60
                syscall
            "#);
        assert_eq!(code, 0);
    }
}
