//! # lwsnap-mem — the software virtual-memory subsystem
//!
//! This crate is the memory substrate for *lightweight immutable execution
//! snapshots* (Bugnion, Chipounov, Candea — HotOS 2013). The paper builds
//! its snapshots on hardware nested paging via the Dune libOS; this crate
//! reproduces the same cost model in portable safe Rust:
//!
//! * a 48-bit guest-virtual address space managed as x86-64-shaped 4 KiB
//!   pages ([`page`]);
//! * a 4-level, 512-way **persistent** radix page table ([`radix`]) where
//!   interior nodes and frames are structurally shared between snapshots;
//! * VMAs with `mmap`/`munmap`/`mprotect`/`brk` semantics ([`region`]);
//! * a snapshottable [`AddressSpace`] with protection-checked guest
//!   accessors and supervisor (`peek`/`poke`) accessors ([`addrspace`]);
//! * observable MMU work counters ([`stats`]) so experiments can assert on
//!   *what was copied, when*.
//!
//! ## The one-line idea
//!
//! ```
//! use lwsnap_mem::{AddressSpace, Prot, RegionKind, PAGE_SIZE};
//!
//! let mut space = AddressSpace::new();
//! space.map_fixed(0x1_0000, 16 * PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "ram").unwrap();
//! space.write_u64(0x1_0000, 42).unwrap();
//!
//! let snapshot = space.snapshot();          // O(1), immutable
//! space.write_u64(0x1_0000, 99).unwrap();   // CoW: copies one page
//!
//! assert_eq!(space.read_u64(0x1_0000).unwrap(), 99);
//! assert_eq!(snapshot.clone().read_u64(0x1_0000).unwrap(), 42);
//! ```
//!
//! Snapshot cost is O(1); divergence cost is O(pages actually touched) —
//! the property every workload of the perf ledger (`ledger/README.md`)
//! builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrspace;
pub mod error;
pub mod page;
pub mod radix;
pub mod region;
pub mod stats;

pub use addrspace::{AddressSpace, AsLayout, VA_LIMIT};
pub use error::{Fault, MemError};
pub use page::{page_base, page_offset, round_up_pages, vpn_of, Frame, PageBuf, PAGE_SIZE};
pub use radix::PageTable;
pub use region::{Access, Prot, Region, RegionKind, RegionMap};
pub use stats::MemStats;
