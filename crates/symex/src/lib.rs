//! # lwsnap-symex — symbolic execution with snapshot-based state forking
//!
//! The paper's first motivating application (§2) is S2E: multi-path
//! analysis of binaries where "at the core of S2E exploration is a
//! conceptual fork of the entire state of the VM". This crate is that
//! application, rebuilt on lightweight snapshots:
//!
//! * concrete VM state = the ordinary snapshottable
//!   [`lwsnap_core::GuestState`] (SVM-64 registers + paged memory);
//! * symbolic data = an expression [`expr::ExprPool`] shadow riding in
//!   the snapshot's `ext` slot;
//! * execution = the vm's one interpreter loop, [`lwsnap_vm::Cpu::run`],
//!   over a symbolic value domain ([`machine`]);
//! * state forking = `sys_guess(2)` at every branch whose condition is
//!   symbolic — the engine's snapshot tree *is* the execution tree;
//! * feasibility & test generation = bit-blasting ([`blast`]) only what
//!   a branch added and solving it as a child of the path's last solved
//!   problem on the §3.2 solver service — the solver context forks with
//!   the state, and a witness carried along answers two checks in three
//!   without a solver.
//!
//! Where S2E modifies "about 2 KLOC spread in QEMU's code base" to
//! intercept writes, here containment is free: the MMU's copy-on-write
//! does it.
//!
//! ```
//! use lwsnap_core::{Engine, strategy::Dfs};
//! use lwsnap_symex::{SymExec, PathEnd, programs::linear_crash_source};
//! use lwsnap_vm::assemble_source;
//!
//! let prog = assemble_source(&linear_crash_source()).unwrap();
//! let mut exec = SymExec::new();
//! Engine::new(Dfs::new()).run(&mut exec, prog.boot().unwrap());
//! // The crashing input (x = 15, since 3x+7 == 52) was synthesised:
//! assert!(exec.cases.iter().any(|c| matches!(c.end, PathEnd::Fault(_)) && c.inputs == [15]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blast;
pub mod expr;
pub mod machine;
pub mod par;
pub mod programs;

pub use blast::{check_path, BlastState, Blaster, Feasibility};
pub use expr::{BinOp, CmpOp, Expr, ExprId, ExprPool, SharedPool, Width};
pub use machine::{PathEnd, Shadow, SymExec, SymStats, TestCase, SYS_MAKE_SYMBOLIC};
pub use par::{par_explore, par_explore_on, par_explore_with, ParExploreResult};
