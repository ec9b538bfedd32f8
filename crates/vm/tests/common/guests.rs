//! Small SVM-64 guests, one per interpreter feature.
//!
//! `lwsnap-vm`'s interpreter unit tests check what each one does under
//! `Interp`; the workspace's `tests/cross_crate.rs` runs every one of
//! them under `Interp` and under the symbolic executor and checks that
//! the two runs agree.

/// Exits with code 42.
pub const EXIT_42: &str = "mov rdi, 42\nmov rax, 60\nsyscall\n";

/// Sums 1..=10 in a loop and prints `55` with `putint`.
pub const SUM_LOOP: &str = r#"
    _start:
        mov rbx, 0      ; sum
        mov rcx, 10     ; i
    loop:
        add rbx, rcx
        sub rcx, 1
        cmp rcx, 0
        jnz loop
        mov rdi, rbx
        mov rax, 1005   ; putint
        syscall
        mov rdi, 0
        mov rax, 60
        syscall
    "#;

/// Writes `hello\n` from the data section.
pub const HELLO: &str = r#"
    _start:
        mov  rsi, msg
        mov  rdx, 6
        mov  rdi, 1
        mov  rax, 1       ; write(1, msg, 6)
        syscall
        mov  rax, 60
        mov  rdi, 0
        syscall
    .data
    msg: .asciz "hello\n"
    "#;

/// Loads and stores of every width, zero- and sign-extending; exits 0
/// when every value reads back as expected.
pub const LOADS_STORES: &str = r#"
    _start:
        mov  r12, buf
        mov  rbx, 0x1122334455667788
        st8  [r12], rbx
        ld1  rax, [r12]         ; 0x88
        cmp  rax, 0x88
        jnz  bad
        ld2  rax, [r12]         ; 0x7788
        cmp  rax, 0x7788
        jnz  bad
        ld4  rax, [r12]         ; 0x55667788
        cmp  rax, 0x55667788
        jnz  bad
        ld8  rax, [r12]
        cmp  rax, rbx
        jnz  bad
        ; sign extension
        mov  rbx, 0xff
        st1  [r12+9], rbx
        lds1 rax, [r12+9]
        cmp  rax, -1
        jnz  bad
        mov  rdi, 0
        mov  rax, 60
        syscall
    bad:
        mov  rdi, 1
        mov  rax, 60
        syscall
    .data
    buf: .space 16
    "#;

/// Signed and unsigned conditional branches on `-5` against `3`; exits
/// 0 when each goes the right way.
pub const SIGNED_UNSIGNED: &str = r#"
    _start:
        mov rax, -5
        cmp rax, 3
        jl  signed_ok          ; -5 < 3 signed
        jmp bad
    signed_ok:
        cmp rax, 3
        jb  bad                ; but huge unsigned, not below
        ja  unsigned_ok
        jmp bad
    unsigned_ok:
        mov rdi, 0
        mov rax, 60
        syscall
    bad:
        mov rdi, 1
        mov rax, 60
        syscall
    "#;

/// Calls a function that doubles 7 and prints the result, `14`.
pub const CALL_RET: &str = r#"
    _start:
        mov  rdi, 7
        call double
        mov  rdi, rax
        mov  rax, 1005
        syscall
        mov  rdi, 0
        mov  rax, 60
        syscall
    double:
        mov  rax, rdi
        add  rax, rax
        ret
    "#;

/// Pushes 123 and pops it into another register; exits 0 when it
/// arrives.
pub const PUSH_POP: &str = r#"
    _start:
        mov  rbx, 123
        push rbx
        mov  rbx, 0
        pop  rcx
        cmp  rcx, 123
        jnz  bad
        mov  rdi, 0
        mov  rax, 60
        syscall
    bad:
        mov  rdi, 1
        mov  rax, 60
        syscall
    "#;

/// Prints 17 / 5 and 17 % 5: `32`.
pub const DIV_REM: &str = r#"
    _start:
        mov  rbx, 17
        udiv rbx, 5
        mov  rdi, rbx
        mov  rax, 1005
        syscall
        mov  rbx, 17
        urem rbx, 5
        mov  rdi, rbx
        mov  rax, 1005
        syscall
        mov  rdi, 0
        mov  rax, 60
        syscall
    "#;

/// Divides by zero.
pub const DIV_BY_ZERO: &str = "mov rbx, 1\nudiv rbx, 0\n";

/// Jumps into the (non-executable) data section.
pub const JUMP_INTO_DATA: &str = ".text\n_start: jmp buf\n.data\nbuf: .space 16\n";

/// Runs off the end of its text into zero bytes.
pub const FALL_OFF_TEXT: &str = "nop\n";

/// Loads from the unmapped address `0xdead0000`.
pub const UNMAPPED_LOAD: &str = "mov rbx, 0xdead0000\nld8 rax, [rbx]\n";

/// Spins forever.
pub const SPIN: &str = "spin: jmp spin\n";

/// Shift counts are masked to 6 bits; `sar` keeps the sign. Exits 0
/// when every shift gives the expected value.
pub const SHIFTS: &str = r#"
    _start:
        mov rbx, 1
        shl rbx, 65       ; masked to 1
        cmp rbx, 2
        jnz bad
        mov rbx, -8
        sar rbx, 1
        cmp rbx, -4
        jnz bad
        mov rbx, 8
        shr rbx, 2
        cmp rbx, 2
        jnz bad
        mov rdi, 0
        mov rax, 60
        syscall
    bad:
        mov rdi, 1
        mov rax, 60
        syscall
    "#;

/// Branch 0 runs `site`, makes its text page writable, copies the
/// instruction at `patch` over `site` and jumps back; branch 1 is
/// restored from the snapshot taken at the guess, before the patch. The
/// transcript is `121`.
pub const SELF_PATCHING: &str = r#"
    _start:
        mov  rdi, 2
        mov  rax, 1000        ; which = sys_guess(2)
        syscall
        mov  r15, rax
        mov  r12, 0           ; patched yet?
    site:
        mov  rbx, 1           ; branch 0 turns this into `mov rbx, 2`
        mov  rdi, rbx
        mov  rax, 1005        ; putint(rbx)
        syscall
        cmp  r15, 0
        jnz  done
        cmp  r12, 0
        jnz  done
        mov  r12, 1
        mov  rdi, _start
        mov  rsi, 4096
        mov  rdx, 7           ; mprotect(text, 4096, R|W|X)
        mov  rax, 10
        syscall
        mov  r13, patch
        mov  r14, site
        ld8  rcx, [r13]
        st8  [r14], rcx
        ld8  rcx, [r13+8]
        st8  [r14+8], rcx
        jmp  site
    done:
        mov  rax, 1001        ; sys_guess_fail
        syscall
    patch:
        mov  rbx, 2
    "#;

/// Grows the heap by a page with `brk` and stores into it; exits 0 when
/// the store reads back.
pub const BRK_HEAP: &str = r#"
    _start:
        mov rdi, 0
        mov rax, 12      ; brk(0) -> current
        syscall
        mov rbx, rax     ; heap base
        mov rdi, rax
        add rdi, 4096
        mov rax, 12      ; brk(base+4096)
        syscall
        st8 [rbx], rbx   ; heap is writable now
        ld8 rcx, [rbx]
        cmp rcx, rbx
        jnz bad
        mov rdi, 0
        mov rax, 60
        syscall
    bad:
        mov rdi, 1
        mov rax, 60
        syscall
    "#;
