//! `svm` — command-line driver for SVM-64 guests.
//!
//! ```text
//! svm asm <file.s>                assemble; print symbols and stats
//! svm disasm <file.s>             assemble, then disassemble the text
//! svm run <file.s>                run to exit (no backtracking)
//! svm explore <file.s> [opts]     run under the backtracking engine
//!     --strategy dfs|bfs|astar|sma   (default dfs)
//!     --max-solutions N
//!     --max-extensions N
//!     --quiet                        suppress guest output
//! ```

use std::process::ExitCode;

use lwsnap_core::strategy::{BestFirst, Bfs, Dfs, SmaStar, Strategy};
use lwsnap_core::{Engine, EngineConfig, StopReason};
use lwsnap_mem::{round_up_pages, PAGE_SIZE};
use lwsnap_vm::{assemble_source, disassemble, run_to_exit, Interp, Program};

fn usage() -> ExitCode {
    eprintln!(
        "usage: svm <asm|disasm|run|explore> <file.s> \
         [--strategy dfs|bfs|astar|sma] [--max-solutions N] \
         [--max-extensions N] [--quiet]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    assemble_source(&source).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) => (c.as_str(), f.as_str()),
        _ => return usage(),
    };
    let program = match load(file) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("svm: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "asm" => cmd_asm(&program),
        "disasm" => cmd_disasm(&program),
        "run" => cmd_run(&program),
        "explore" => cmd_explore(&program, &args[2..]),
        _ => usage(),
    }
}

fn cmd_asm(program: &Program) -> ExitCode {
    println!(
        "text: {} instructions ({} bytes) at {:#x}",
        program.instr_count(),
        program.text.len(),
        program.text_base
    );
    println!(
        "data: {} bytes ({} of {} pages resident) at {:#x}",
        program.data.len(),
        program.resident_data_pages(),
        round_up_pages(program.data.len() as u64) / PAGE_SIZE as u64,
        program.data_base
    );
    println!("entry: {:#x}", program.entry);
    println!("symbols:");
    for (name, addr) in &program.symbols {
        println!("  {addr:#014x}  {name}");
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(program: &Program) -> ExitCode {
    for (addr, line) in disassemble(&program.text, program.text_base) {
        // Annotate addresses that carry symbols.
        let label: Vec<&str> = program
            .symbols
            .iter()
            .filter(|(_, &a)| a == addr)
            .map(|(n, _)| n.as_str())
            .collect();
        if !label.is_empty() {
            println!("{}:", label.join(", "));
        }
        println!("  {addr:#010x}  {line}");
    }
    ExitCode::SUCCESS
}

fn cmd_run(program: &Program) -> ExitCode {
    match run_to_exit(program, lwsnap_vm::DEFAULT_MAX_STEPS) {
        Ok((code, stdout)) => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&stdout);
            eprintln!("[exit {code}]");
            ExitCode::from(code.clamp(0, 255) as u8)
        }
        Err(exit) => {
            eprintln!("svm: guest stopped: {exit:?}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_explore(program: &Program, opts: &[String]) -> ExitCode {
    let mut strategy: Box<dyn Strategy> = Box::new(Dfs::new());
    let mut config = EngineConfig {
        echo_output: true,
        ..Default::default()
    };
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--strategy" => match it.next().map(String::as_str) {
                Some("dfs") => strategy = Box::new(Dfs::new()),
                Some("bfs") => strategy = Box::new(Bfs::new()),
                Some("astar") => strategy = Box::new(BestFirst::new()),
                Some("sma") => strategy = Box::new(SmaStar::new(1024)),
                other => {
                    eprintln!("svm: unknown strategy {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--max-solutions" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_solutions = Some(n),
                None => return usage(),
            },
            "--max-extensions" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_extensions = Some(n),
                None => return usage(),
            },
            "--quiet" => config.echo_output = false,
            _ => return usage(),
        }
    }

    let name = strategy.name();
    let mut engine = Engine::with_config(strategy, config);
    let mut interp = Interp::new();
    let root = match program.boot() {
        Ok(state) => state,
        Err(e) => {
            eprintln!("svm: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = std::time::Instant::now();
    let result = engine.run(&mut interp, root);
    let elapsed = start.elapsed();

    eprintln!("\n[{name}] {:?} in {elapsed:?}", result.stop);
    eprintln!(
        "[{name}] solutions {} | extensions {} | snapshots {} (peak {}) | restores {} | inline {} | failures {} | faults {}",
        result.stats.solutions,
        result.stats.extensions_evaluated,
        result.stats.snapshots_created,
        result.stats.snapshots_peak,
        result.stats.restores,
        result.stats.inline_continues,
        result.stats.failures,
        result.stats.faults,
    );
    match result.stop {
        StopReason::Aborted(_) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}
