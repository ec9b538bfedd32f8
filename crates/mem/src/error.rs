//! Error types for the software virtual-memory subsystem.
//!
//! Two distinct failure families exist, mirroring a real kernel:
//!
//! * [`Fault`] — a *guest-visible* memory fault raised while an execution
//!   step accesses memory (the analogue of a page-fault that cannot be
//!   resolved, e.g. a protection violation). The backtracking engine
//!   typically turns these into a failed extension step.
//! * [`MemError`] — an *API usage* error raised by address-space management
//!   calls (`map`, `unmap`, `protect`, `brk`), the analogue of an `errno`
//!   returned by `mmap(2)` and friends.

use core::fmt;

use crate::region::Access;

/// A guest-visible memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The address is not covered by any mapped region.
    Unmapped {
        /// Faulting guest-virtual address.
        va: u64,
    },
    /// The address is mapped but the region's protection forbids the access.
    Protection {
        /// Faulting guest-virtual address.
        va: u64,
        /// The kind of access that was attempted.
        access: Access,
    },
    /// The address lies outside the architected virtual-address width.
    NonCanonical {
        /// Faulting guest-virtual address.
        va: u64,
    },
}

impl Fault {
    /// Returns the faulting guest-virtual address.
    pub fn va(&self) -> u64 {
        match *self {
            Fault::Unmapped { va } | Fault::NonCanonical { va } => va,
            Fault::Protection { va, .. } => va,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::Unmapped { va } => write!(f, "unmapped address {va:#x}"),
            Fault::Protection { va, access } => {
                write!(f, "protection violation at {va:#x} ({access:?} access)")
            }
            Fault::NonCanonical { va } => write!(f, "non-canonical address {va:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// An address-space management error (the `errno` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Start address or length is not page-aligned.
    BadAlign {
        /// Offending value.
        value: u64,
    },
    /// The requested range overlaps an existing mapping.
    Overlap {
        /// Start of the requested range.
        start: u64,
        /// End (exclusive) of the requested range.
        end: u64,
    },
    /// The requested range is empty or wraps around the address space.
    BadRange {
        /// Start of the requested range.
        start: u64,
        /// End (exclusive) of the requested range.
        end: u64,
    },
    /// No free gap large enough for an anonymous mapping was found.
    NoSpace {
        /// Requested length in bytes.
        len: u64,
    },
    /// The range is not fully covered by existing mappings.
    NotMapped {
        /// Start of the requested range.
        start: u64,
        /// End (exclusive) of the requested range.
        end: u64,
    },
    /// A `brk` request moved below the heap base.
    BadBrk {
        /// Requested program break.
        requested: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemError::BadAlign { value } => write!(f, "value {value:#x} is not page-aligned"),
            MemError::Overlap { start, end } => {
                write!(f, "range {start:#x}..{end:#x} overlaps an existing mapping")
            }
            MemError::BadRange { start, end } => {
                write!(f, "invalid range {start:#x}..{end:#x}")
            }
            MemError::NoSpace { len } => {
                write!(f, "no free gap of {len:#x} bytes for anonymous mapping")
            }
            MemError::NotMapped { start, end } => {
                write!(f, "range {start:#x}..{end:#x} is not fully mapped")
            }
            MemError::BadBrk { requested } => {
                write!(f, "brk request {requested:#x} below heap base")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_display_mentions_address() {
        let f = Fault::Unmapped { va: 0xdead_b000 };
        assert!(f.to_string().contains("0xdeadb000"));
        assert_eq!(f.va(), 0xdead_b000);
    }

    #[test]
    fn protection_fault_reports_access_kind() {
        let f = Fault::Protection {
            va: 0x1000,
            access: Access::Write,
        };
        assert!(f.to_string().contains("Write"));
        assert_eq!(f.va(), 0x1000);
    }

    #[test]
    fn mem_error_display() {
        assert!(MemError::BadAlign { value: 3 }.to_string().contains("0x3"));
        assert!(MemError::NoSpace { len: 4096 }
            .to_string()
            .contains("0x1000"));
    }
}
