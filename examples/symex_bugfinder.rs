//! S2E-style bug finding with snapshot-forked symbolic execution (§2).
//!
//! Marks a guest buffer symbolic, explores every feasible path (each
//! symbolic branch = one `sys_guess(2)` fork in the snapshot tree), and
//! prints a concrete crashing input for every bug plus a test input for
//! every clean path.
//!
//! ```sh
//! cargo run --release --example symex_bugfinder
//! ```

use lwsnap_core::{strategy::Dfs, Engine};
use lwsnap_symex::{PathEnd, SymExec};
use lwsnap_vm::assemble_source;

/// A small "parser" with two buried bugs: a division that can be driven
/// to zero and a checksum branch hiding an illegal memory access.
const TARGET: &str = r#"
.text
_start:
    mov  rdi, input
    mov  rsi, 4
    mov  rax, 1100      ; make_symbolic(input, 4)
    syscall
    mov  r12, input

    ; header check: in[0] must be 'L'
    ld1  rbx, [r12]
    cmp  rbx, 76
    jnz  reject

    ; version: in[1] in {1, 2}
    ld1  rbx, [r12+1]
    cmp  rbx, 1
    jz   versioned
    cmp  rbx, 2
    jnz  reject
versioned:

    ; BUG 1: when in[2] == 10 a divisor of zero is used.
    ld1  rbx, [r12+2]
    cmp  rbx, 10
    jnz  no_div_bug
    mov  rcx, 1000
    mov  rbx, 0
    udiv rcx, rbx
no_div_bug:

    ; BUG 2: if in[3] > 250, read through a wild pointer.
    ld1  rbx, [r12+3]
    cmp  rbx, 250
    jbe  accept
    mov  rbx, 0xdead0000
    ld8  rcx, [rbx]

accept:
    mov  rdi, 0
    mov  rax, 60
    syscall
reject:
    mov  rdi, 1
    mov  rax, 60
    syscall
.data
input: .space 4
"#;

fn main() {
    let program = assemble_source(TARGET).expect("target assembles");
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
}
