//! S2E-style bug finding with snapshot-forked symbolic execution (§2).
//!
//! Marks a guest buffer symbolic, explores every feasible path (each
//! symbolic branch = one `sys_guess(2)` fork in the snapshot tree), and
//! prints a concrete crashing input for every bug plus a test input for
//! every clean path. The target is
//! [`buggy_parser_source`](lwsnap_symex::programs::buggy_parser_source);
//! the example exits non-zero unless it finds exactly the paths that
//! target has.
//!
//! ```sh
//! cargo run --release --example symex_bugfinder
//! ```

use lwsnap_core::{strategy::Dfs, Engine};
use lwsnap_symex::{programs::buggy_parser_source, PathEnd, SymExec, TestCase};
use lwsnap_vm::assemble_source;

fn main() {
    let program = assemble_source(&buggy_parser_source()).expect("target assembles");
    let mut exec = SymExec::new();
    let mut engine = Engine::new(Dfs::new());
    let start = std::time::Instant::now();
    let result = engine.run(&mut exec, program.boot().expect("boots"));
    let elapsed = start.elapsed();

    println!("explored the target binary symbolically in {elapsed:?}");
    println!(
        "paths: {} | forks: {} | solver checks: {} ({} clauses shipped) | witness hits: {} | \
         infeasible pruned: {}\n",
        exec.cases.len(),
        exec.stats.forks,
        exec.stats.solver_checks,
        exec.stats.delta_clauses,
        exec.stats.witness_hits,
        exec.stats.infeasible_pruned
    );

    let mut bugs = 0;
    for case in &exec.cases {
        match &case.end {
            PathEnd::Fault(msg) => {
                bugs += 1;
                println!(
                    "BUG   input={:<20} {:>2} constraints  ({msg})",
                    format!("{:?}", case.inputs),
                    case.constraints
                );
            }
            PathEnd::Exit(code) => {
                println!(
                    "exit({code}) input={:<20} {:>2} constraints",
                    format!("{:?}", case.inputs),
                    case.constraints
                );
            }
        }
    }
    println!(
        "\n{bugs} crashing inputs synthesised (2 distinct bugs x 2 accepted versions: \
         div-by-zero when in[2]==10, wild read when in[3]>250)"
    );
    println!(
        "engine: {} snapshots, {} restores — every fork was a lightweight snapshot",
        result.stats.snapshots_created, result.stats.restores
    );

    // Two header rejections, and for each accepted version one clean
    // exit and each bug once.
    assert_eq!(exec.cases.len(), 8, "paths");
    assert_eq!(exec.stats.forks, 7, "forks");
    assert_eq!(exec.stats.infeasible_pruned, 0, "pruned");
    fn faulted(case: &TestCase, prefix: &str) -> bool {
        matches!(&case.end, PathEnd::Fault(msg) if msg.starts_with(prefix))
    }
    let count = |keep: fn(&TestCase) -> bool| exec.cases.iter().filter(|&c| keep(c)).count();
    assert_eq!(
        count(|c| faulted(c, "division by zero") && c.inputs[2] == 10),
        2,
        "division by zero with in[2] == 10"
    );
    assert_eq!(
        count(|c| faulted(c, "memory fault: unmapped address 0xdead0000") && c.inputs[3] > 250),
        2,
        "wild read with in[3] > 250"
    );
    assert_eq!(count(|c| c.end == PathEnd::Exit(0)), 2, "exit(0)");
    assert_eq!(count(|c| c.end == PathEnd::Exit(1)), 2, "exit(1)");
    println!("all ok");
}
