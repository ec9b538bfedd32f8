//! Cross-crate integration: the full stack working together.

use std::sync::Arc;

use lwsnap_core::strategy::Dfs;
use lwsnap_core::{
    replay_dfs, Engine, EngineConfig, Exit, FaultPolicy, Guest, GuestFault, GuestState,
    InterposePolicy, Outcome, ParallelConfig, ParallelEngine, RunResult, StopReason,
};
use lwsnap_fs::{FsView, Volume};
use lwsnap_prolog::{Machine, NQUEENS_PROGRAM};
use lwsnap_service::{ServiceConfig, ShardedService};
use lwsnap_symex::programs::{
    branch_tree_source, branch_tree_with_state_source, buggy_parser_source, linear_crash_source,
    password_source,
};
use lwsnap_symex::{par_explore_on, PathEnd, SymExec};
use lwsnap_vm::programs::{
    bitstrings_source, guess_fail_source, nqueens_source, search_workload_source,
};
use lwsnap_vm::{assemble_source, Interp, Program};

#[path = "../crates/vm/tests/common/guests.rs"]
mod guests;

/// The three backtracking implementations agree on solution counts.
#[test]
fn engines_agree_on_nqueens_counts() {
    for (n, expected) in [(4u64, 2u64), (5, 10), (6, 4)] {
        // 1. Snapshot engine on the SVM-64 guest.
        let program =
            assemble_source(&lwsnap_vm::programs::nqueens_source(n, false, true)).unwrap();
        let mut engine = Engine::new(Dfs::new());
        let result = engine.run(&mut Interp::new(), program.boot().unwrap());
        assert_eq!(result.stats.solutions, expected, "snapshot engine N={n}");

        // 2. Replay oracle on a host closure.
        let replay = replay_dfs(
            |ctx| {
                let size = n as usize;
                let mut col = vec![false; size];
                let mut d1 = vec![false; 2 * size];
                let mut d2 = vec![false; 2 * size];
                for c in 0..size {
                    let r = ctx.guess(n) as usize;
                    if col[r] || d1[r + c] || d2[size + r - c] {
                        return Outcome::Failed;
                    }
                    col[r] = true;
                    d1[r + c] = true;
                    d2[size + r - c] = true;
                }
                Outcome::Solution
            },
            None,
        );
        assert_eq!(replay.stats.solutions, expected, "replay N={n}");

        // 3. Prolog.
        let mut m = Machine::new();
        m.consult(NQUEENS_PROGRAM).unwrap();
        assert_eq!(
            m.count_solutions(&format!("queens({n}, Qs)")).unwrap(),
            expected
        );
    }
}

/// A guest that reads input from a file, writes results to another, and
/// backtracks: file side effects stay branch-private, console output
/// streams through, and the input file is shared read-only by all
/// branches.
#[test]
fn file_io_is_contained_per_branch() {
    let source = r#"
.text
_start:
    mov  rdi, 3
    mov  rax, 1000        ; which = sys_guess(3)
    syscall
    mov  r15, rax
    ; a sibling's /out.txt must not show through: echo '!' if it does
    mov  rdi, outpath
    mov  rsi, 0           ; O_RDONLY
    mov  rax, 2
    syscall
    cmp  rax, 0
    jl   fresh            ; negative errno: no such file here
    mov  rdi, 1
    mov  rsi, leak
    mov  rdx, 1
    mov  rax, 1
    syscall
fresh:
    ; read the 1-byte input file
    mov  rdi, inpath
    mov  rsi, 0           ; O_RDONLY
    mov  rax, 2
    syscall
    mov  r14, rax
    mov  rdi, r14
    mov  rsi, buf
    mov  rdx, 1
    mov  rax, 0           ; read
    syscall
    ; out = input + which; write it to a per-branch result file
    mov  rbx, buf
    ld1  rcx, [rbx]
    add  rcx, r15
    st1  [rbx], rcx
    mov  rdi, outpath
    mov  rsi, 577         ; O_WRONLY|O_CREAT|O_TRUNC (0o1101)
    mov  rax, 2
    syscall
    mov  r13, rax
    mov  rdi, r13
    mov  rsi, buf
    mov  rdx, 1
    mov  rax, 1           ; write
    syscall
    ; echo to console (escapes containment)
    mov  rdi, 1
    mov  rsi, buf
    mov  rdx, 1
    mov  rax, 1
    syscall
    mov  rax, 1001        ; fail: discard this branch's files
    syscall
.data
inpath:  .asciz "/in.txt"
outpath: .asciz "/out.txt"
leak:    .asciz "!"
buf:     .space 1
"#;
    let program = assemble_source(source).unwrap();
    let mut volume = Volume::new();
    volume.write_file("/in.txt", b"A").unwrap();
    let root = program.boot_with_fs(FsView::new(volume)).unwrap();
    let mut engine = Engine::new(Dfs::new());
    let result = engine.run(&mut Interp::new(), root);
    assert_eq!(result.stop, StopReason::Exhausted);
    // Console shows each branch's computed byte: 'A'+0, 'A'+1, 'A'+2.
    assert_eq!(result.transcript_str(), "ABC");
    // All three branches failed; their /out.txt never escaped.
    assert_eq!(result.stats.failures, 3);
}

/// Symbolic execution drives the whole stack: vm decodes, core forks
/// snapshots, symex tracks constraints, solver answers feasibility.
#[test]
fn symex_full_stack_password() {
    let password = b"k9!";
    let program = assemble_source(&lwsnap_symex::programs::password_source(password)).unwrap();
    let mut exec = SymExec::new();
    let mut engine = Engine::new(Dfs::new());
    engine.run(&mut exec, program.boot().unwrap());
    let success: Vec<_> = exec
        .cases
        .iter()
        .filter(|c| c.end == PathEnd::Exit(42))
        .collect();
    assert_eq!(success.len(), 1);
    assert_eq!(success[0].inputs, password);
}

/// Strict interposition policy turns unsupported syscalls into faults
/// that kill only the offending path.
#[test]
fn strict_policy_fails_paths_not_the_search() {
    let source = r#"
.text
_start:
    mov  rdi, 2
    mov  rax, 1000        ; guess(2)
    syscall
    cmp  rax, 0
    jz   misbehave
    mov  rax, 1003        ; emit: the good path succeeds
    syscall
    mov  rax, 1001
    syscall
misbehave:
    mov  rax, 9999        ; unsupported syscall
    syscall
    mov  rax, 1001
    syscall
"#;
    let program = assemble_source(source).unwrap();
    let policy = InterposePolicy {
        strict: true,
        ..Default::default()
    };
    let mut engine = Engine::new(Dfs::new());
    let mut interp = Interp::with_policy(policy);
    let result = engine.run(&mut interp, program.boot().unwrap());
    assert_eq!(result.stop, StopReason::Exhausted);
    assert_eq!(result.stats.faults, 1, "the misbehaving path faulted");
    assert_eq!(result.stats.solutions, 1, "the other path still completed");
}

/// The Prolog machine and the snapshot engine agree on a non-queens
/// problem too (map colouring as a cross-check).
#[test]
fn prolog_vs_engine_map_coloring() {
    // Four regions in a row, 3 colours, adjacent must differ:
    // 3 * 2 * 2 * 2 = 24 colourings.
    let mut m = Machine::new();
    m.consult(
        "color(r). color(g). color(b).
         diff(X, Y) :- color(X), color(Y), X \\= Y.
         row(A, B, C, D) :- color(A), diff(A, B), diff(B, C), diff(C, D).",
    )
    .unwrap();
    let prolog_count = m.count_solutions("row(A, B, C, D)").unwrap();
    assert_eq!(prolog_count, 24);

    // Same problem through replay backtracking.
    let replay = replay_dfs(
        |ctx| {
            let mut prev = u64::MAX;
            for _ in 0..4 {
                let c = ctx.guess(3);
                if c == prev {
                    return Outcome::Failed;
                }
                prev = c;
            }
            Outcome::Solution
        },
        None,
    );
    assert_eq!(replay.stats.solutions, 24);
}

/// Boots `program` with every page of its data image given a frame,
/// zeros included: the eager reference the demand-zero loader must be
/// indistinguishable from.
fn eager_boot(program: &Program) -> GuestState {
    let mut state = program.boot().unwrap();
    state
        .mem
        .poke_bytes(program.data_base, &program.data)
        .unwrap();
    state
}

/// A demand-zero boot and an eager one run every engine to the same
/// transcripts, solutions, step counts and symbolic verdicts; only the
/// root's resident page count differs.
#[test]
fn demand_zero_boot_matches_eager_boot() {
    // Figure 1's n-queens, sequential and parallel.
    let program = assemble_source(&nqueens_source(6, true, true)).unwrap();
    let seq = |root| Engine::new(Dfs::new()).run(&mut Interp::new(), root);
    let (demand, eager) = (seq(program.boot().unwrap()), seq(eager_boot(&program)));
    assert_eq!(demand.stats.solutions, 4);
    assert_eq!(demand.stats.solutions, eager.stats.solutions);
    assert_eq!(demand.transcript, eager.transcript);
    assert_eq!(demand.solutions, eager.solutions);
    let par = |root| ParallelEngine::new(2).run(Interp::new, root);
    let (demand, eager) = (par(program.boot().unwrap()), par(eager_boot(&program)));
    assert_eq!(demand.stats.solutions, 4);
    assert_eq!(demand.stats.solutions, eager.stats.solutions);
    assert_eq!(demand.transcript, eager.transcript);
    assert_eq!(demand.solutions, eager.solutions);

    // The locality workload: a 64-page zero buffer, 8 pages dirtied per
    // step.
    let program = assemble_source(&search_workload_source(3, 3, 0, 8, 64)).unwrap();
    let (demand_root, eager_root) = (program.boot().unwrap(), eager_boot(&program));
    assert!(demand_root.mem.resident_pages() + 64 <= eager_root.mem.resident_pages());
    let (demand, eager) = (seq(demand_root), seq(eager_root));
    assert!(demand.stats.extensions_evaluated > 0);
    assert_eq!(
        demand.stats.extensions_evaluated,
        eager.stats.extensions_evaluated
    );
    assert_eq!(demand.transcript, eager.transcript);

    // The parallel symbolic executor over 8 pages of zero-initialised
    // state.
    let program = assemble_source(&branch_tree_with_state_source(4, 8)).unwrap();
    let explore = |root| {
        let backend = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        par_explore_on(ParallelConfig::new(2), root, backend).cases
    };
    let (demand, eager) = (
        explore(program.boot().unwrap()),
        explore(eager_boot(&program)),
    );
    assert_eq!(demand.len(), 16, "2^4 paths");
    assert_eq!(demand, eager);
}

/// The step budget both interpreters get in [`run_concrete_and_symbolic`]:
/// ample for every guest there but the one that spins.
const PINNED_STEPS: u64 = 100_000;

/// Runs `source` under `Engine<Dfs>` aborting on the first fault, once
/// with `Interp` and once with `SymExec`, asserts that the two runs are
/// the same run, and returns `Interp`'s.
fn run_concrete_and_symbolic(name: &str, source: &str) -> RunResult {
    let program = assemble_source(source).unwrap();
    let config = EngineConfig {
        fault_policy: FaultPolicy::Abort,
        ..EngineConfig::default()
    };
    let mut interp = Interp::new().max_steps(PINNED_STEPS);
    let concrete =
        Engine::with_config(Dfs::new(), config.clone()).run(&mut interp, program.boot().unwrap());
    let mut exec = SymExec::new();
    exec.cpu.max_steps = PINNED_STEPS;
    let symbolic = Engine::with_config(Dfs::new(), config).run(&mut exec, program.boot().unwrap());
    assert_eq!(concrete.stop, symbolic.stop, "{name}: stop");
    assert_eq!(
        concrete.transcript, symbolic.transcript,
        "{name}: transcript"
    );
    assert_eq!(
        concrete.exit_codes, symbolic.exit_codes,
        "{name}: exit codes"
    );
    assert_eq!(concrete.solutions, symbolic.solutions, "{name}: solutions");
    assert_eq!(concrete.stats, symbolic.stats, "{name}: engine stats");
    assert_eq!(
        interp.total_steps, exec.stats.instructions,
        "{name}: instructions retired"
    );
    concrete
}

/// On guests with no symbolic input the symbolic executor is the
/// concrete interpreter: same output, exits, faults, engine counts and
/// instructions, on every canned generator and every interpreter
/// unit-test guest.
#[test]
fn symex_runs_concrete_guests_like_interp() {
    let generators = [
        ("nqueens", nqueens_source(6, true, true)),
        ("bitstrings", bitstrings_source(5)),
        ("guess_fail", guess_fail_source(3, 3)),
        ("search_workload", search_workload_source(3, 2, 5, 2, 4)),
    ];
    for (name, source) in &generators {
        let run = run_concrete_and_symbolic(name, source);
        assert_eq!(run.stop, StopReason::Exhausted, "{name}");
        assert!(run.stats.extensions_evaluated > 1, "{name} searched");
    }
    for (name, source) in [
        ("EXIT_42", guests::EXIT_42),
        ("SUM_LOOP", guests::SUM_LOOP),
        ("HELLO", guests::HELLO),
        ("LOADS_STORES", guests::LOADS_STORES),
        ("SIGNED_UNSIGNED", guests::SIGNED_UNSIGNED),
        ("CALL_RET", guests::CALL_RET),
        ("PUSH_POP", guests::PUSH_POP),
        ("DIV_REM", guests::DIV_REM),
        ("DIV_BY_ZERO", guests::DIV_BY_ZERO),
        ("JUMP_INTO_DATA", guests::JUMP_INTO_DATA),
        ("FALL_OFF_TEXT", guests::FALL_OFF_TEXT),
        ("UNMAPPED_LOAD", guests::UNMAPPED_LOAD),
        ("SPIN", guests::SPIN),
        ("SHIFTS", guests::SHIFTS),
        ("SELF_PATCHING", guests::SELF_PATCHING),
        ("BRK_HEAP", guests::BRK_HEAP),
    ] {
        run_concrete_and_symbolic(name, source);
    }
}

/// A `ret` to an address 8 bytes into an instruction runs the 16-byte
/// slot holding it, under both interpreters.
#[test]
fn unaligned_return_runs_the_slot_holding_it() {
    let source = r#"
_start:
    mov  rbx, target
    add  rbx, 8
    push rbx
    ret
target:
    mov  rdi, 3
    mov  rax, 60
    syscall
"#;
    let run = run_concrete_and_symbolic("unaligned ret", source);
    assert_eq!(run.exit_codes, [3]);
}

/// `urem` by zero faults with the same message under both interpreters.
#[test]
fn remainder_by_zero_faults_alike() {
    let run = run_concrete_and_symbolic("urem by zero", "mov rbx, 7\nurem rbx, 0\n");
    let StopReason::Aborted(GuestFault::Other(message)) = run.stop else {
        panic!("expected a guest-specific fault, got {:?}", run.stop);
    };
    assert!(
        message.starts_with("remainder by zero at rip 0x"),
        "{message}"
    );
}

/// Code patched after `mprotect(RWX)` runs in the same resume, and the
/// sibling restored from before the patch runs the original, under the
/// symbolic executor too: sequential and on two workers.
#[test]
fn symex_runs_patched_code_and_siblings_run_the_original() {
    let program = assemble_source(guests::SELF_PATCHING).unwrap();
    let sequential = Engine::new(Dfs::new()).run(&mut SymExec::new(), program.boot().unwrap());
    assert_eq!(sequential.stop, StopReason::Exhausted);
    assert_eq!(sequential.transcript_str(), "121");
    let parallel = ParallelEngine::new(2).run(SymExec::new, program.boot().unwrap());
    assert_eq!(parallel.transcript_str(), "121");
}

/// Marks one byte `x` of `buf` symbolic, sets `rsp` to `stk + 32 + x`
/// and pushes: exits 1 if `rsp` is then `stk + 32` (`x == 8`), else 2.
const SYMBOLIC_RSP: &str = r#"
.text
_start:
    mov  rdi, buf
    mov  rsi, 1
    mov  rax, 1100        ; make_symbolic(buf, 1)
    syscall
    mov  rbx, buf
    ld1  rcx, [rbx]
    mov  rsp, stk
    add  rsp, 32
    add  rsp, rcx
    push rcx
    mov  rdx, rsp
    mov  rbx, stk
    add  rbx, 32
    cmp  rdx, rbx
    jnz  differ
    mov  rdi, 1
    mov  rax, 60
    syscall
differ:
    mov  rdi, 2
    mov  rax, 60
    syscall
.data
buf: .space 1
stk: .space 64
"#;

/// Whether `end` is a path the symbolic executor gave up on, rather than
/// one the guest itself ended.
fn symex_gave_up(end: &PathEnd) -> bool {
    matches!(end, PathEnd::Fault(msg) if msg.starts_with("symbolic ") && msg.ends_with(" unsupported"))
}

/// `push` with a symbolic stack pointer faults the path rather than
/// pushing at a concrete guess of it.
#[test]
fn symbolic_stack_pointer_faults() {
    let program = assemble_source(SYMBOLIC_RSP).unwrap();
    let mut exec = SymExec::new();
    Engine::new(Dfs::new()).run(&mut exec, program.boot().unwrap());
    let ends: Vec<_> = exec.cases.iter().map(|case| &case.end).collect();
    assert_eq!(
        ends,
        [&PathEnd::Fault("symbolic stack pointer unsupported".into())]
    );
}

/// Every test case the symbolic executor reports replays under `Interp`:
/// with the case's inputs written into the buffer the guest marks
/// symbolic (`Interp` answers `make_symbolic` with `ENOSYS` and leaves
/// the buffer alone), the concrete run ends as the case says. Paths the
/// executor gave up on stand for no concrete run and are skipped.
#[test]
fn symex_witnesses_replay_under_interp() {
    let guests = [
        ("linear_crash", linear_crash_source(), "buf"),
        ("password", password_source(b"lw"), "buf"),
        ("branch_tree", branch_tree_source(4), "buf"),
        ("symbolic rsp", SYMBOLIC_RSP.to_owned(), "buf"),
        ("buggy_parser", buggy_parser_source(), "input"),
    ];
    for (name, source, buffer) in guests {
        let program = assemble_source(&source).unwrap();
        let mut exec = SymExec::new();
        Engine::new(Dfs::new()).run(&mut exec, program.boot().unwrap());
        assert!(!exec.cases.is_empty(), "{name}: no test cases");
        for case in exec.cases.iter().filter(|case| !symex_gave_up(&case.end)) {
            let mut state = program.boot().unwrap();
            state
                .mem
                .poke_bytes(program.symbols[buffer], &case.inputs)
                .unwrap();
            let mut interp = Interp::new();
            let end = loop {
                match interp.resume(&mut state) {
                    Exit::Output { .. } => {}
                    Exit::Exit { code } => break PathEnd::Exit(code),
                    Exit::Fault(fault) => break PathEnd::Fault(fault.to_string()),
                    other => panic!("{name}: unexpected {other:?}"),
                }
            };
            assert_eq!(end, case.end, "{name}: inputs {:?}", case.inputs);
        }
    }
}
