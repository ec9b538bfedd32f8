//! Canned guest programs for symbolic execution tests and benches.

/// A guest with a "bug" guarded by a linear condition on one symbolic
/// byte: `if (x*3 + 7 == 52) crash; else exit(0)`. The crash input is
/// `x = 15`.
pub fn linear_crash_source() -> String {
    r#"
.text
_start:
    mov  rdi, buf
    mov  rsi, 1
    mov  rax, 1100     ; make_symbolic(buf, 1)
    syscall
    mov  r12, buf
    ld1  rbx, [r12]
    mul  rbx, 3
    add  rbx, 7
    cmp  rbx, 52
    jnz  ok
    mov  rcx, 1
    udiv rcx, 0        ; the bug: reached only when x*3+7 == 52
ok:
    mov  rdi, 0
    mov  rax, 60
    syscall
.data
buf: .space 1
"#
    .to_owned()
}

/// A small "parser" over 4 symbolic input bytes with two buried bugs.
///
/// `in[0]` must be `'L'` and `in[1]` 1 or 2, else it exits 1. Past that
/// header, `in[2] == 10` divides by zero and `in[3] > 250` reads through
/// the wild pointer `0xdead0000`; an input that avoids both exits 0.
pub fn buggy_parser_source() -> String {
    r#"
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
"#
    .to_owned()
}

/// A byte-by-byte password check over `password.len()` symbolic bytes.
///
/// Any mismatch exits with code 1; a full match exits with code 42.
/// Symbolic execution must reconstruct the password from the branches.
pub fn password_source(password: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut checks = String::new();
    for (i, &b) in password.iter().enumerate() {
        let _ = write!(
            checks,
            r#"
    ld1  rbx, [r12+{i}]
    cmp  rbx, {b}
    jnz  wrong
"#
        );
    }
    format!(
        r#"
.text
_start:
    mov  rdi, buf
    mov  rsi, {len}
    mov  rax, 1100     ; make_symbolic(buf, len)
    syscall
    mov  r12, buf
{checks}
    mov  rdi, 42       ; correct password
    mov  rax, 60
    syscall
wrong:
    mov  rdi, 1
    mov  rax, 60
    syscall
.data
buf: .space {len}
"#,
        len = password.len(),
        checks = checks,
    )
}

/// A guest that branches `depth` times on independent symbolic bytes
/// (each byte compared against 128), producing `2^depth` feasible paths.
/// Used to measure paths/second under different forking backends.
pub fn branch_tree_source(depth: u64) -> String {
    branch_tree_with_state_source(depth, 0)
}

/// Like [`branch_tree_source`], but the guest first dirties
/// `state_pages` pages of private state — modelling the paper's S2E
/// scenario where "address spaces \[are\] measured in GB": the cost of
/// *copying* the VM state at each fork grows with `state_pages`, while
/// CoW snapshot forking stays flat.
pub fn branch_tree_with_state_source(depth: u64, state_pages: u64) -> String {
    let state_bytes = (state_pages.max(1)) * 4096;
    format!(
        r#"
.text
_start:
    ; materialise the big VM state the paths will share
    mov  rcx, 0
fill:
    cmp  rcx, {state_pages}
    jae  filled
    mov  rbx, rcx
    mul  rbx, 4096
    add  rbx, state
    st8  [rbx], rcx
    add  rcx, 1
    jmp  fill
filled:
    mov  rdi, buf
    mov  rsi, {depth}
    mov  rax, 1100
    syscall
    mov  r12, buf
    mov  r13, 0         ; level
    mov  r14, 0         ; accumulated bits
loop:
    cmp  r13, {depth}
    jae  done
    mov  rbx, r12
    add  rbx, r13
    ld1  rcx, [rbx]
    cmp  rcx, 128
    jb   low
    or   r14, 1
low:
    shl  r14, 1
    add  r13, 1
    jmp  loop
done:
    mov  rdi, 0
    mov  rax, 60
    syscall
.data
buf: .space {depth}
.align 4096
state: .space {state_bytes}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{PathEnd, SymExec};
    use lwsnap_core::strategy::Dfs;
    use lwsnap_core::{Engine, EngineConfig, FaultPolicy, StopReason};
    use lwsnap_vm::assemble_source;

    fn explore(src: &str) -> (SymExec, lwsnap_core::RunResult) {
        let prog = assemble_source(src).unwrap();
        let mut exec = SymExec::new();
        let config = EngineConfig {
            fault_policy: FaultPolicy::FailPath,
            ..Default::default()
        };
        let mut engine = Engine::with_config(Dfs::new(), config);
        let result = engine.run(&mut exec, prog.boot().unwrap());
        (exec, result)
    }

    #[test]
    fn linear_crash_finds_magic_input() {
        let (exec, result) = explore(&linear_crash_source());
        assert_eq!(result.stop, StopReason::Exhausted);
        assert_eq!(exec.stats.forks, 1, "one symbolic branch");
        // Two feasible paths: crash and clean exit.
        let crash: Vec<_> = exec
            .cases
            .iter()
            .filter(|c| matches!(c.end, PathEnd::Fault(_)))
            .collect();
        assert_eq!(crash.len(), 1);
        assert_eq!(crash[0].inputs, vec![15], "3*15+7 == 52");
        let clean: Vec<_> = exec
            .cases
            .iter()
            .filter(|c| c.end == PathEnd::Exit(0))
            .collect();
        assert_eq!(clean.len(), 1);
        assert_ne!(clean[0].inputs[0], 15);
    }

    #[test]
    fn password_recovered_from_branches() {
        let password = b"bomb";
        let (exec, _) = explore(&password_source(password));
        // Paths: one failure per prefix length + one success = len+1.
        assert_eq!(exec.cases.len(), password.len() + 1);
        let success: Vec<_> = exec
            .cases
            .iter()
            .filter(|c| c.end == PathEnd::Exit(42))
            .collect();
        assert_eq!(success.len(), 1);
        assert_eq!(
            success[0].inputs,
            password.to_vec(),
            "password reconstructed"
        );
        // Every failing test case genuinely differs from the password at
        // its first divergence.
        for case in &exec.cases {
            if case.end == PathEnd::Exit(1) {
                assert_ne!(case.inputs, password.to_vec());
            }
        }
    }

    #[test]
    fn branch_tree_explores_all_paths() {
        let depth = 4;
        let (exec, result) = explore(&branch_tree_source(depth));
        assert_eq!(result.stop, StopReason::Exhausted);
        assert_eq!(exec.stats.forks, (1 << depth) - 1, "forks = internal nodes");
        assert_eq!(exec.cases.len(), 1 << depth, "2^depth feasible leaves");
        // All generated inputs are distinct paths: dedupe by the branch
        // pattern (byte >= 128).
        let mut patterns: Vec<Vec<bool>> = exec
            .cases
            .iter()
            .map(|c| c.inputs.iter().map(|&b| b >= 128).collect())
            .collect();
        patterns.sort();
        patterns.dedup();
        assert_eq!(
            patterns.len(),
            1 << depth,
            "every path has a distinct witness"
        );
    }

    #[test]
    fn infeasible_paths_pruned() {
        // if (x < 10) { if (x > 200) unreachable; } — inner true-branch
        // is infeasible and must be pruned by the solver.
        let src = r#"
.text
_start:
    mov  rdi, buf
    mov  rsi, 1
    mov  rax, 1100
    syscall
    mov  r12, buf
    ld1  rbx, [r12]
    cmp  rbx, 10
    jae  done
    cmp  rbx, 200
    jbe  done
    mov  rcx, 1
    udiv rcx, 0        ; unreachable bug
done:
    mov  rdi, 0
    mov  rax, 60
    syscall
.data
buf: .space 1
"#;
        let (exec, _) = explore(src);
        assert!(
            exec.stats.infeasible_pruned >= 1,
            "solver pruned the contradiction"
        );
        assert!(
            exec.cases
                .iter()
                .all(|c| !matches!(c.end, PathEnd::Fault(_))),
            "the unreachable bug must not be reported"
        );
    }
}
