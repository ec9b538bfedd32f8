//! The guest abstraction: mutable execution state and the resume contract.
//!
//! The engine is generic over *what* executes an extension step. The paper
//! runs arbitrary x86 ring-3 code; this workspace's `lwsnap-vm` crate plays
//! that role with the SVM-64 interpreter. Unit tests (and simple host-side
//! search problems) implement [`Guest`] with scripted state machines.
//!
//! The contract: [`Guest::resume`] runs the guest forward *mutating the
//! given state in place* until the guest traps back into the libOS — by
//! guessing, failing, emitting output, exiting, or faulting.

use lwsnap_fs::FsView;
use lwsnap_mem::{AddressSpace, Fault};

use crate::registers::RegisterFile;
use crate::snapshot::ExtData;

/// The complete mutable state of one executing extension step.
pub struct GuestState {
    /// Architected registers.
    pub regs: RegisterFile,
    /// The guest address space (snapshottable).
    pub mem: AddressSpace,
    /// The guest file view (snapshottable).
    pub fs: FsView,
    /// Opaque application data riding along with snapshots.
    pub ext: Option<ExtData>,
    /// Number of guesses on the path from the root.
    pub depth: u64,
    /// Accumulated path cost reported via guess hints (informed search).
    pub gcost: u64,
    /// Steps executed since the last restore (budget accounting).
    pub steps: u64,
}

impl Default for GuestState {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestState {
    /// Creates a blank state: zero registers, empty memory, empty volume.
    pub fn new() -> Self {
        GuestState {
            regs: RegisterFile::new(),
            mem: AddressSpace::new(),
            fs: FsView::default(),
            ext: None,
            depth: 0,
            gcost: 0,
            steps: 0,
        }
    }

    /// Creates a state over an existing address space and file view.
    pub fn with_parts(regs: RegisterFile, mem: AddressSpace, fs: FsView) -> Self {
        GuestState {
            regs,
            mem,
            fs,
            ext: None,
            depth: 0,
            gcost: 0,
            steps: 0,
        }
    }
}

/// Heuristic information supplied with an extended guess (paper §3.1:
/// "search strategies that rely on goal-distance heuristics such as A* and
/// SM-A* require that the distance vector of the extension steps be
/// communicated via an extended guess system call").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuessHint {
    /// Path cost accumulated so far (`g` in A* terms).
    pub g: u64,
    /// Estimated remaining cost per extension (`h(i)` for extension `i`).
    /// May be shorter than the fan-out; missing entries default to 0.
    pub h: Vec<u64>,
}

/// Why the guest stopped executing and trapped into the libOS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// `sys_guess(n)`: create a partial candidate with `n` extensions.
    Guess {
        /// Number of alternative extensions (the guess domain size).
        n: u64,
        /// Optional heuristic vector for informed strategies.
        hint: Option<GuessHint>,
    },
    /// `sys_guess_fail()`: discard this extension step; never returns.
    Fail,
    /// `sys_emit()`: declare the current path a solution and continue.
    Emit,
    /// Normal termination with an exit code.
    Exit {
        /// Guest-provided exit code.
        code: i64,
    },
    /// Console output that escapes containment (fd 1/2 write-through).
    Output {
        /// Destination (1 = stdout, 2 = stderr).
        fd: u32,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// An unrecoverable guest fault (bad memory access, illegal
    /// instruction, denied syscall in strict mode, step-budget overrun).
    Fault(GuestFault),
}

/// Faults a guest can raise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GuestFault {
    /// Memory access fault from the MMU.
    Memory(Fault),
    /// Undefined or malformed instruction at `rip`.
    IllegalInstruction {
        /// Address of the offending instruction.
        rip: u64,
    },
    /// A syscall rejected by the encapsulation policy in strict mode.
    DeniedSyscall {
        /// The syscall number.
        nr: u64,
    },
    /// The per-resume step budget was exhausted (runaway extension).
    StepBudget,
    /// Guest-specific fault description.
    Other(String),
}

impl std::fmt::Display for GuestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestFault::Memory(fault) => write!(f, "memory fault: {fault}"),
            GuestFault::IllegalInstruction { rip } => {
                write!(f, "illegal instruction at {rip:#x}")
            }
            GuestFault::DeniedSyscall { nr } => write!(f, "denied syscall {nr}"),
            GuestFault::StepBudget => write!(f, "step budget exhausted"),
            GuestFault::Other(msg) => write!(f, "{msg}"),
        }
    }
}

/// Something that can execute guest code against a [`GuestState`].
pub trait Guest {
    /// Runs the guest forward from `state` until it traps.
    ///
    /// On [`Exit::Guess`] the engine will capture a snapshot of `state`
    /// exactly as left by this call, inject the chosen extension number
    /// into `%rax`, and call `resume` again — so the guest must leave
    /// `state.regs.rip` pointing *after* the guessing instruction.
    fn resume(&mut self, state: &mut GuestState) -> Exit;
}

impl<F: FnMut(&mut GuestState) -> Exit> Guest for F {
    fn resume(&mut self, state: &mut GuestState) -> Exit {
        self(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::Reg;

    #[test]
    fn closure_is_a_guest() {
        let mut g = |state: &mut GuestState| -> Exit {
            state.regs.set(Reg::Rbx, state.regs.get(Reg::Rbx) + 1);
            Exit::Exit { code: 0 }
        };
        let mut st = GuestState::new();
        assert_eq!(g.resume(&mut st), Exit::Exit { code: 0 });
        assert_eq!(st.regs.get(Reg::Rbx), 1);
    }

    #[test]
    fn fault_display() {
        let f = GuestFault::IllegalInstruction { rip: 0x400000 };
        assert!(f.to_string().contains("0x400000"));
        assert!(GuestFault::StepBudget.to_string().contains("budget"));
    }
}
