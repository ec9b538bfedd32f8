//! Interposition demo (§3.1/§5): file side effects stay inside a branch.
//!
//! A guest program explores three extensions; each opens the same file,
//! scribbles its own content, and prints what it reads back. Because
//! every extension runs against a CoW file view captured in the
//! snapshot, the branches never see each other's writes — no cleanup
//! code, no temp files, no locking. The example asserts the transcript,
//! so it exits non-zero unless each branch reads back exactly its own
//! write.
//!
//! ```sh
//! cargo run --release --example contained_sideeffects
//! ```

use lwsnap_core::{strategy::Dfs, Engine};
use lwsnap_fs::{FsView, Volume};
use lwsnap_vm::{assemble_source, Interp};

const GUEST: &str = r#"
.text
_start:
    ; which = sys_guess(3)
    mov  rdi, 3
    mov  rax, 1000
    syscall
    mov  r15, rax          ; branch number

    ; fd = open("/scratch.txt", O_RDWR)
    mov  rdi, path
    mov  rsi, 2            ; O_RDWR
    mov  rax, 2
    syscall
    mov  r14, rax          ; fd

    ; overwrite byte 7 of the shared file with '0'+branch
    mov  rbx, r15
    add  rbx, 48
    mov  rcx, scratch
    st1  [rcx], rbx
    mov  rdi, r14
    mov  rsi, 0
    mov  rdx, 0            ; lseek(fd, 7, SEEK_SET)
    mov  rsi, 7
    mov  rax, 8
    syscall
    mov  rdi, r14
    mov  rsi, scratch
    mov  rdx, 1
    mov  rax, 1            ; write(fd, scratch, 1)
    syscall

    ; read the whole file back and print it
    mov  rdi, r14
    mov  rsi, 0
    mov  rdx, 0
    mov  rax, 8            ; lseek(fd, 0, SEEK_SET)
    syscall
    mov  rdi, r14
    mov  rsi, buf
    mov  rdx, 9
    mov  rax, 0            ; read(fd, buf, 9)
    syscall
    mov  rdi, 1
    mov  rsi, buf
    mov  rdx, 9
    mov  rax, 1            ; write(1, buf, 9) -> console passthrough
    syscall
    mov  rdi, 1
    mov  rsi, nlbuf
    mov  rdx, 1
    mov  rax, 1
    syscall

    mov  rax, 1001         ; backtrack: this branch's file state vanishes
    syscall

.data
path:    .asciz "/scratch.txt"
scratch: .space 1
buf:     .space 9
nlbuf:   .asciz "\n"
"#;

fn main() {
    let program = assemble_source(GUEST).expect("guest assembles");

    // Pre-populate the volume the snapshot will capture.
    let mut volume = Volume::new();
    volume.write_file("/scratch.txt", b"branch-?\n").unwrap();
    let fs = FsView::new(volume);

    let root = program.boot_with_fs(fs).expect("boots");
    let mut engine = Engine::new(Dfs::new());
    let result = engine.run(&mut Interp::new(), root);

    println!("each branch saw its own private copy of /scratch.txt:\n");
    print!("{}", result.transcript_str());
    let expected: String = (0..3)
        .map(|branch| format!("branch-{branch}\n\n"))
        .collect();
    assert_eq!(
        result.transcript_str(),
        expected,
        "each branch must read back exactly its own write"
    );
    assert_eq!(result.stats.failures, 3, "every branch backtracks");
    println!(
        "\n3 branches, {} snapshots, {} failures — and zero cross-branch interference.",
        result.stats.snapshots_created, result.stats.failures
    );
    println!("(every write above hit the SAME offset of the SAME file)");
}
