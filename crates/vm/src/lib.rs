//! # lwsnap-vm — the SVM-64 guest machine
//!
//! The paper's extension steps are "arbitrary x86 code" run at ring 3
//! under a Dune libOS. This crate supplies the equivalent execution
//! substrate for the reproduction: **SVM-64**, a 64-bit, 16-register,
//! x86-64-flavoured ISA whose complete machine state is the architected
//! register file plus paged guest memory. Code is fetched from the
//! snapshotted address space itself, so a lightweight snapshot captures a
//! running program exactly.
//!
//! Pieces:
//!
//! * [`isa`] — fixed 16-byte instruction encoding;
//! * [`mod@parse`] — the two-pass text assembler ([`parse::assemble_source`]);
//! * [`prog`] — program images, layout, and booting into a
//!   [`lwsnap_core::GuestState`];
//! * [`interp`] — the interpreter: one loop over a value [`Domain`], and
//!   [`Interp`], its concrete [`lwsnap_core::Guest`];
//! * [`disasm`] — the disassembler;
//! * [`programs`] — canned guests (Figure-1 n-queens, workload
//!   generators) used by examples, tests and the benchmark harness.
//!
//! ## Running Figure 1
//!
//! ```
//! use lwsnap_core::{Engine, strategy::Dfs};
//! use lwsnap_vm::{assemble_source, Interp, programs::nqueens_source};
//!
//! let program = assemble_source(&nqueens_source(6, true, true)).unwrap();
//! let mut engine = Engine::new(Dfs::new());
//! let result = engine.run(&mut Interp::new(), program.boot().unwrap());
//! assert_eq!(result.stats.solutions, 4); // 6-queens has 4 answers
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disasm;
pub mod interp;
pub mod isa;
pub mod parse;
pub mod prog;
pub mod programs;

pub use disasm::{disassemble, format_instr};
pub use interp::{run_to_exit, BinOp, Branch, Cpu, Domain, Interp, DEFAULT_MAX_STEPS};
pub use isa::{Instr, Opcode, INSTR_SIZE};
pub use parse::{assemble_source, parse};
pub use prog::{assemble, AsmError, Item, Program, Section, SymExpr};
