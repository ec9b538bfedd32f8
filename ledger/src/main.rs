//! `ledger` — the lwsnap perf ledger: one repeatable benchmark from
//! socket to SAT and from `sys_guess` to page fault.
//!
//! ```text
//! ledger [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!        [--json PATH] [--spans PATH]
//! ledger compare BASELINE.jsonl CANDIDATE.jsonl [--bench BENCHMARK.json]
//! ledger summarize RUNS.jsonl
//! ledger --record-reference
//! ```
//!
//! One invocation runs one workload in this process (so `peak_rss_mib`
//! is attributable); `--workload all` runs each in a child process. The
//! last line of standard output is the result as one JSON object. See
//! `README.md` beside this crate for every metric and workload.

mod bt;
mod compare;
mod gen;
mod json;
mod ladder;
mod quantile;
mod reference;
mod rng;
mod spans;
mod spec;
mod svc;
mod sysinfo;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use spans::Spans;
use spec::{Kind, MetricDef, Workload, END_TO_END, PER_LAYER, UNBOUNDED};
use svc::Tally;

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: "all".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            json: None,
            spans: None,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--json" => args.json = Some(value("--json")?.into()),
            "--spans" => args.spans = Some(value("--spans")?.into()),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One finished run, ready to print.
struct Report {
    correct: bool,
    tally: Tally,
    /// `(definition, value)` for every metric of the run's kind.
    metrics: Vec<(MetricDef, f64)>,
    /// Metrics reported without a bound (`spec::UNBOUNDED`).
    unbounded: Vec<(MetricDef, f64)>,
    /// Lines for the human-readable part of the output.
    notes: Vec<String>,
    spans: Option<Spans>,
}

fn median_secs(durations: &[Duration]) -> f64 {
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    quantile::median(&secs)
}

/// The `q`-quantile of the latency samples (in completion order), µs.
fn latency_us(latencies: &[u64], q: f64) -> f64 {
    quantile::slice_median(latencies, q).unwrap_or(0.0) / 1e3
}

/// The end-to-end metrics from the throughput and the latency samples.
fn end_to_end(ops_per_s: f64, latencies: &[u64], setups: &[Duration]) -> Vec<(MetricDef, f64)> {
    let values = [
        ops_per_s,
        latency_us(latencies, 0.5),
        sysinfo::peak_rss_mib().unwrap_or(0.0),
        median_secs(setups),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

fn unbounded(latencies: &[u64]) -> Vec<(MetricDef, f64)> {
    let values = [latency_us(latencies, 0.99)];
    UNBOUNDED.iter().copied().zip(values).collect()
}

fn sample_note(samples: usize) -> String {
    let supported = quantile::highest_supported(samples);
    let warn = if supported.is_some_and(|q| q >= 0.99) {
        ""
    } else {
        " — WARNING: fewer than ten samples lie beyond p99 in a slice; read p99_us as a lower percentile"
    };
    format!(
        "latency samples: {samples}; highest percentile with ten samples beyond it in every slice: {}{warn}",
        supported.map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
    )
}

fn run_svc_untraced(
    workload: &Workload,
    spec: &svc::SvcSpec,
    args: &Args,
) -> std::io::Result<Report> {
    // The reference pre-pass runs first (and drops its pools), so it is
    // in neither the timings nor the peak RSS of the run proper.
    let mut notes = Vec::new();
    let correct = check_reference(workload, args.seed, &mut notes);
    let window = Duration::from_secs_f64(args.seconds);
    let run = svc::run_untraced(spec, args.seed, window, svc::SETUP_REPS, &|s| s.connect())?;
    let window_ns = window.as_nanos() as u64;
    let mut samples: Vec<(u64, u64)> = run
        .logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .filter(|&(done, _)| done < window_ns)
        .collect();
    samples.sort_unstable();
    // Throughput per tenth of the window; the median tenth is reported,
    // so a burst of interference spoils one slice, not the metric.
    let slice_ns = window_ns / quantile::SLICES as u64;
    let mut counts = [0u64; quantile::SLICES];
    for &(done, _) in &samples {
        counts[((done / slice_ns.max(1)) as usize).min(quantile::SLICES - 1)] += 1;
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / (slice_ns as f64 / 1e9))
        .collect();
    let latencies: Vec<u64> = samples.iter().map(|&(_, latency)| latency).collect();
    let mut tally = Tally::default();
    for log in run.logs {
        tally.absorb(log.tally);
    }
    notes.push(sample_note(latencies.len()));
    notes.push(format!(
        "service: {} queries, {} snapshot hits, {} rederivations, {} evictions",
        run.stats.queries, run.stats.snapshot_hits, run.stats.rederivations, run.stats.evictions
    ));
    Ok(Report {
        correct,
        tally,
        metrics: end_to_end(quantile::median(&rates), &latencies, &run.setups),
        unbounded: unbounded(&latencies),
        notes,
        spans: None,
    })
}

fn run_bt_untraced(workload: &Workload, args: &Args) -> std::io::Result<Report> {
    let mut notes = Vec::new();
    let correct = check_reference(workload, args.seed, &mut notes);
    let window = Duration::from_secs_f64(args.seconds);
    let run = bt::run_untraced(&workload.kind, window, bt::SETUP_REPS)?;
    let gaps: Vec<u64> = run.gaps.iter().map(|&(_, gap)| gap).collect();
    notes.push(sample_note(gaps.len()));
    notes.push(format!(
        "passes: {} (each verified by its result count)",
        run.passes
    ));
    Ok(Report {
        correct,
        tally: run.tally,
        metrics: end_to_end(run.ops_per_s, &gaps, &run.setups),
        unbounded: unbounded(&gaps),
        notes,
        spans: None,
    })
}

/// The untimed reference pre-pass; `false` if the inputs drifted from
/// the committed digests or a node's from-scratch verdict is wrong.
fn check_reference(workload: &Workload, seed: u64, notes: &mut Vec<String>) -> bool {
    let checked = reference::of(workload, seed)
        .and_then(|found| Ok((reference::check_pinned(workload.name, seed, &found)?, found)));
    match checked {
        Ok((pinned, found)) => {
            notes.push(format!(
                "inputs: stream {} reference {} ({})",
                found.stream,
                found.verdicts,
                if pinned {
                    "match reference.json"
                } else {
                    "seed not pinned; reference computed in the pre-pass"
                }
            ));
            true
        }
        Err(why) => {
            notes.push(format!("REFERENCE MISMATCH: {why}"));
            false
        }
    }
}

/// Every per-layer metric, in order; layers off the workload's path did
/// no work and report 0.
fn per_layer(found: &std::collections::BTreeMap<&'static str, f64>) -> Vec<(MetricDef, f64)> {
    PER_LAYER
        .iter()
        .map(|def| (*def, found.get(def.name).copied().unwrap_or(0.0)))
        .collect()
}

fn run_traced(workload: &Workload, args: &Args) -> std::io::Result<Report> {
    let mut notes = Vec::new();
    let (metrics, spans, tally) = match &workload.kind {
        Kind::Svc(spec) => {
            let report = ladder::run_traced(spec, args.seed, args.seconds)?;
            notes.push(format!(
                "{:<26}{:>12}{:>12}",
                "ladder rung", "span us", "self us"
            ));
            for (rung, span, own) in &report.rows {
                notes.push(format!("{rung:<26}{span:>12.2}{own:>12.2}"));
            }
            notes.push(format!(
                "self times sum to ladder.top_us; reference p50_us from {} samples on 2 connections",
                report.reference_samples
            ));
            (report.metrics, report.spans, report.tally)
        }
        kind => {
            let trace = bt::run_traced(kind, args.seconds)?;
            (trace.metrics, trace.spans, trace.tally)
        }
    };
    Ok(Report {
        correct: true,
        tally,
        metrics: per_layer(&metrics),
        unbounded: Vec::new(),
        notes,
        spans: Some(spans),
    })
}

fn spans_path(args: &Args) -> PathBuf {
    args.spans.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("ledger/target"));
        target
            .join("ledger-spans")
            .join(format!("{}-seed{}.json", args.workload, args.seed))
    })
}

/// Runs one workload in this process and prints its report. The last
/// line printed is the result object the contract asks for.
fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let nproc = sysinfo::nproc();
    let load = sysinfo::loadavg_1m();
    println!(
        "ledger {} seed {} — {} for {} s, {} load-generating threads on {} cpus, loadavg {}",
        workload.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds,
        svc::CONNS,
        nproc,
        load.map_or("?".to_string(), |l| format!("{l:.2}")),
    );
    if load.is_some_and(|l| l > nproc as f64) {
        println!("WARNING: 1-minute loadavg exceeds the cpu count; numbers will be noisy");
    }
    let report = match (&workload.kind, args.trace) {
        (_, true) => run_traced(workload, args),
        (Kind::Svc(spec), false) => run_svc_untraced(workload, spec, args),
        (_, false) => run_bt_untraced(workload, args),
    };
    let mut report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ledger: {}: {e}", workload.name);
            return ExitCode::from(2);
        }
    };
    for (def, value) in report.metrics.iter().chain(&report.unbounded) {
        println!(
            "  {:<42}{:>16.4} {:<6} ({} is better{})",
            def.name,
            value,
            def.unit,
            def.better.as_str(),
            if UNBOUNDED.iter().any(|u| u.name == def.name) {
                "; reported, not bounded"
            } else {
                ""
            }
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    if let Some(spans) = report.spans.take() {
        let path = spans_path(args);
        match spans.write_file(&path, workload.name, args.seed) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("ledger: cannot write spans to {}: {e}", path.display());
                report.correct = false;
            }
        }
    }
    let tally = &report.tally;
    let attempted = tally.attempted.max(1);
    let correct = report.correct && tally.failed == 0;
    println!(
        "  attempted {} succeeded {} failed {} (fail_share {:.6})",
        attempted,
        attempted - tally.failed.min(attempted),
        tally.failed,
        tally.failed as f64 / attempted as f64
    );
    for cause in &tally.causes {
        println!("  failure: {cause}");
    }
    let as_json = |metrics: &[(MetricDef, f64)]| {
        Json::obj(metrics.iter().map(|(def, value)| {
            let entry = Json::obj([
                ("value", Json::from(*value)),
                ("unit", Json::from(def.unit)),
            ]);
            (def.name, entry)
        }))
    };
    let result = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", as_json(&report.metrics)),
    ];
    if let Some(path) = &args.json {
        let line = Json::obj(result.iter().cloned().chain([
            ("unbounded", as_json(&report.unbounded)),
            ("workload", Json::from(workload.name)),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("trace", Json::from(args.trace as u64)),
            ("nproc", Json::from(nproc as u64)),
            ("threads", Json::from(svc::CONNS as u64)),
            ("loadavg_1m", load.map_or(Json::Null, Json::from)),
        ]));
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", line.render()));
        if let Err(e) = appended {
            eprintln!("ledger: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", Json::obj(result).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in its own child process, so each
/// one's peak RSS is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for workload in spec::workloads() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.json {
            child.arg("--json").arg(path);
        }
        // `status` waits for the child to end before the next starts.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{}: {status}", workload.name)),
            Err(e) => failed.push(format!("{}: {e}", workload.name)),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: workloads failed: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn compare_command(argv: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [baseline, candidate] = files.as_slice() else {
        return Err("usage: ledger compare BASELINE.jsonl CANDIDATE.jsonl [--bench FILE]".into());
    };
    let rules = compare::bounds(&Json::parse(&read(&bench)?)?)?;
    let rows = compare::compare(
        &rules,
        &compare::parse_runs(&read(baseline)?)?,
        &compare::parse_runs(&read(candidate)?)?,
    );
    let (table, worse, unresolved) = compare::render(&rules, &rows);
    print!("{table}");
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn summarize_command(argv: &[String]) -> Result<ExitCode, String> {
    let [file] = argv else {
        return Err("usage: ledger summarize RUNS.jsonl".into());
    };
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let text = |s: Option<String>| s.map_or(Json::Null, |s| Json::from(s.as_str()));
    let doc = Json::obj([
        (
            "workloads",
            compare::summarize(&compare::parse_runs(&read(file)?)?),
        ),
        ("nproc", Json::from(sysinfo::nproc() as u64)),
        ("threads", Json::from(svc::CONNS as u64)),
        ("cpu_model", text(sysinfo::cpu_model())),
        (
            "loadavg_1m",
            sysinfo::loadavg_1m().map_or(Json::Null, Json::from),
        ),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
    ]);
    println!("{}", doc.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_command(&argv[1..]),
        Some("summarize") => summarize_command(&argv[1..]),
        Some("--record-reference") => reference::record(&spec::workloads()).map(|doc| {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }),
        _ => parse_args(&argv).and_then(|args| {
            if args.workload == "all" {
                return Ok(run_all(&args));
            }
            let workload = Workload::by_name(&args.workload).ok_or_else(|| {
                let names: Vec<_> = spec::workloads().iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {:?}; one of: all, {}",
                    args.workload,
                    names.join(", ")
                )
            })?;
            Ok(run_one(&workload, &args))
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
