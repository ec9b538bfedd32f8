//! # lwsnap-solver — CDCL SAT with incremental, multi-path solving
//!
//! The solver substrate for the paper's second motivating application
//! (§2): incremental SAT/SMT. A MiniSat-family CDCL core
//! ([`solver::Solver`]) provides assumption-based incremental solving;
//! [`service::SolverService`] wraps it into the paper's §3.2 *multi-path
//! incremental solver service*, where solved problems are immutable
//! snapshots that any number of divergent increments can fork from.
//!
//! Also here: DIMACS I/O ([`dimacs`]), deterministic workload generators
//! ([`generators`]) and a Tseitin circuit/bit-vector layer ([`circuit`])
//! used by the symbolic-execution crate for bit-blasting.
//!
//! ```
//! use lwsnap_solver::{SolverService, Lit, SolveResult};
//!
//! let mut service = SolverService::new();
//! let p = service
//!     .solve(service.root(), &[vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]])
//!     .unwrap();
//! assert_eq!(p.result, SolveResult::Sat);
//!
//! // Fork two incompatible continuations from the same solved problem.
//! let q1 = service.solve(p.problem, &[vec![Lit::from_dimacs(-1)]]).unwrap();
//! let q2 = service.solve(p.problem, &[vec![Lit::from_dimacs(1)]]).unwrap();
//! assert_eq!(q1.result, SolveResult::Sat);
//! assert_eq!(q2.result, SolveResult::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod dimacs;
pub mod generators;
pub mod heap;
pub mod lit;
pub mod service;
pub mod snapshot;
pub mod solver;

pub use circuit::{Bv, CLit, Circuit};
pub use dimacs::{parse_dimacs, write_dimacs, Cnf, DimacsError};
pub use generators::{graph_coloring, pigeonhole, random_ksat, IncrementalFamily};
pub use lit::{Lbool, Lit, Var};
pub use service::{ProblemRef, Reply, SolverService};
pub use snapshot::{DeepCloneStore, SnapId, SnapshotStore, StorePageStats};
pub use solver::{luby, model_satisfies, SolveResult, Solver, SolverStats};
