//! # lwsnap-core — lightweight snapshots and system-level backtracking
//!
//! A faithful reimplementation of the abstractions proposed in
//! *"Lightweight Snapshots and System-level Backtracking"* (Bugnion,
//! Chipounov, Candea — HotOS 2013), on a software MMU instead of Dune's
//! hardware virtualisation (see `DESIGN.md` for the substitution argument).
//!
//! The paper's vocabulary maps onto this crate directly:
//!
//! | Paper concept | Here |
//! |---|---|
//! | partial candidate (immutable registers + address space + files) | [`Snapshot`] |
//! | candidate extension step | [`strategy::ExtensionRef`] + a [`Guest`] resume |
//! | `sys_guess` / `sys_guess_fail` / `sys_guess_strategy` | [`interpose::Sysno::Guess`] family |
//! | search strategy (DFS, BFS, A*, SM-A*, external) | [`strategy::Strategy`] implementations |
//! | the libOS scheduler loop | [`Engine::run`] |
//! | syscall interposition (§5) | [`interpose::handle_syscall`] |
//!
//! ## Quick taste (host-closure guest)
//!
//! Guests are usually SVM-64 programs executed by the `lwsnap-vm` crate,
//! but anything implementing [`Guest`] works — including a scripted state
//! machine:
//!
//! ```
//! use lwsnap_core::{Engine, Exit, GuestState, Reg, strategy::Dfs};
//!
//! // Enumerate 2-bit strings; emit "ab" for each (a,b) pair.
//! let mut guest = |st: &mut GuestState| -> Exit {
//!     match st.regs.get(Reg::Rbx) {
//!         0 => { st.regs.set(Reg::Rbx, 1); Exit::Guess { n: 2, hint: None } }
//!         1 => {
//!             st.regs.set(Reg::R12, st.regs.get(Reg::Rax)); // first guess
//!             st.regs.set(Reg::Rbx, 2);
//!             Exit::Guess { n: 2, hint: None }
//!         }
//!         2 => {
//!             let (a, b) = (st.regs.get(Reg::R12), st.regs.get(Reg::Rax));
//!             st.regs.set(Reg::Rbx, 3);
//!             Exit::Output { fd: 1, data: format!("{a}{b} ").into_bytes() }
//!         }
//!         _ => Exit::Fail,
//!     }
//! };
//!
//! let mut engine = Engine::new(Dfs::new());
//! let result = engine.run(&mut guest, GuestState::new());
//! assert_eq!(result.transcript_str(), "00 01 10 11 ");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod guest;
pub mod interpose;
pub mod parallel;
pub mod parking;
pub mod registers;
pub mod replay;
pub mod schedule;
pub mod snapshot;
pub mod strategy;

pub use engine::{Engine, EngineConfig, EngineStats, FaultPolicy, RunResult, Solution, StopReason};
pub use guest::{Exit, GuessHint, Guest, GuestFault, GuestState};
pub use interpose::{handle_syscall, InterposePolicy, SyscallEffect, Sysno};
pub use parallel::{ParallelConfig, ParallelEngine, ParallelRunResult};
pub use registers::{Flags, Reg, RegisterFile};
pub use replay::{replay_dfs, Outcome, ReplayCtx, ReplayResult, ReplayStats};
pub use snapshot::{ExtData, Snapshot, SnapshotId, SnapshotTree};
