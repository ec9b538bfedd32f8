//! Parallel symbolic execution: S2E-style multi-path analysis on the
//! parallel engine.
//!
//! Explores a branch-tree program (`2^DEPTH` feasible paths, one SAT
//! feasibility solve per fork) and a password cracker, first
//! sequentially, then with [`lwsnap_symex::par_explore`] forking
//! path-constraint snapshots — solver context included — across N
//! workers. Per-path verdicts — the synthesised test inputs — are
//! merged canonically and must match the sequential run exactly.
//!
//! ```sh
//! cargo run --release --example par_symex [DEPTH] [WORKERS]
//! ```

use lwsnap_core::{strategy::Dfs, Engine};
use lwsnap_symex::{
    par_explore,
    programs::{branch_tree_source, password_source},
    PathEnd, SymExec,
};
use lwsnap_vm::assemble_source;

fn canonical(mut cases: Vec<lwsnap_symex::TestCase>) -> Vec<lwsnap_symex::TestCase> {
    lwsnap_symex::TestCase::canonical_sort(&mut cases);
    cases
}

fn main() {
    let depth: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        });

    // ---- branch tree: 2^depth feasible paths --------------------------
    let src = branch_tree_source(depth);
    let prog = assemble_source(&src).expect("branch tree assembles");

    let start = std::time::Instant::now();
    let mut exec = SymExec::new();
    Engine::new(Dfs::new()).run(&mut exec, prog.boot().unwrap());
    let seq_time = start.elapsed();
    let seq_cases = canonical(exec.cases);

    let start = std::time::Instant::now();
    let report = par_explore(prog.boot().unwrap(), workers);
    let par_time = start.elapsed();

    assert_eq!(
        report.cases, seq_cases,
        "parallel verdicts must match sequential"
    );
    println!(
        "branch_tree({depth}): {} paths, {} forks, {} solver checks ({} clauses shipped), {} witness hits",
        report.cases.len(),
        report.stats.forks,
        report.stats.solver_checks,
        report.stats.delta_clauses,
        report.stats.witness_hits
    );
    println!(
        "  sequential {seq_time:?} | {workers} workers {par_time:?} | speedup {:.2}x | verdicts identical: yes",
        seq_time.as_secs_f64() / par_time.as_secs_f64()
    );
    println!(
        "  shared pool: {} interned nodes | snapshots: {} created, peak {} live",
        report.pool.len(),
        report.run.stats.snapshots_created,
        report.run.stats.snapshots_peak
    );

    // ---- password cracker: one accepting path among many ---------------
    let password = b"s3cr3t";
    let prog = assemble_source(&password_source(password)).expect("password assembles");
    let start = std::time::Instant::now();
    let report = par_explore(prog.boot().unwrap(), workers);
    let crack_time = start.elapsed();
    let accepted: Vec<_> = report
        .cases
        .iter()
        .filter(|c| c.end == PathEnd::Exit(42))
        .collect();
    assert_eq!(accepted.len(), 1, "exactly one accepting path");
    assert_eq!(accepted[0].inputs, password);
    println!(
        "password: cracked {:?} in {crack_time:?} on {workers} workers ({} paths, {} pruned)",
        String::from_utf8_lossy(&accepted[0].inputs),
        report.cases.len(),
        report.stats.infeasible_pruned
    );
}
