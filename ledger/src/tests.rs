//! Harness tests: every workload end to end at ~1 % scale, failure
//! injection, and the contract between `BENCHMARK.json` and the code.

use std::io;
use std::time::Instant;

use lwsnap_solver::Lit;

use super::*;
use crate::svc::{drive, Outcome, Stop, Target, Walk};

/// A seed that `reference.json` does not pin (miniature pools digest
/// differently from the full-size ones the file records).
const SEED: u64 = 77;

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: SEED,
        seconds: 0.3,
        trace,
        ..Args::default()
    }
}

fn assert_reports_every(report: &Report, defs: &[MetricDef], name: &str) {
    let got: Vec<_> = report.metrics.iter().map(|(d, _)| d.name).collect();
    let want: Vec<_> = defs.iter().map(|d| d.name).collect();
    assert_eq!(got, want, "{name}");
    for (def, value) in &report.metrics {
        assert!(
            !def.unit.is_empty() && value.is_finite(),
            "{name}: {}",
            def.name
        );
    }
}

#[test]
fn every_workload_runs_untraced_at_miniature_scale() {
    for workload in spec::workloads() {
        let mini = workload.miniature();
        let report = match &mini.kind {
            Kind::Svc(spec) => run_svc_untraced(&mini, spec, &args(mini.name, false)),
            _ => run_bt_untraced(&mini, &args(mini.name, false)),
        }
        .unwrap();
        assert_reports_every(&report, END_TO_END, mini.name);
        let unbounded: Vec<_> = report.unbounded.iter().map(|(d, _)| d.name).collect();
        assert_eq!(unbounded, ["p99_us"], "{}", mini.name);
        assert!(report.tally.attempted >= 1, "{}", mini.name);
        assert_eq!(
            report.tally.failed, 0,
            "{}: {:?}",
            mini.name, report.tally.causes
        );
        assert!(report.correct, "{}: {:?}", mini.name, report.notes);
        for (def, value) in &report.metrics {
            assert!(*value > 0.0, "{}: {} must never be 0", mini.name, def.name);
        }
    }
}

#[test]
fn every_workload_runs_traced_at_miniature_scale() {
    for workload in spec::workloads() {
        let mini = workload.miniature();
        let mut report = run_traced(&mini, &args(mini.name, true)).unwrap();
        assert_reports_every(&report, PER_LAYER, mini.name);
        assert_eq!(
            report.tally.failed, 0,
            "{}: {:?}",
            mini.name, report.tally.causes
        );
        let mut file = Vec::new();
        report
            .spans
            .take()
            .expect("a traced run records spans")
            .write_json(&mut file, mini.name, SEED)
            .unwrap();
        let doc = Json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let layers = doc.get("layers").unwrap().as_arr().unwrap();
        assert!(!layers.is_empty(), "{}", mini.name);
        assert!(
            layers
                .iter()
                .any(|l| l.get("count").unwrap().as_f64() > Some(0.0)),
            "{}: no spans recorded",
            mini.name
        );
    }
}

/// Answers like the service underneath, except that every third verdict
/// is flipped to UNSAT.
struct Liar<'a> {
    inner: svc::BackendTarget<'a>,
    solves: u64,
}

impl Target for Liar<'_> {
    fn root(&mut self, session: u64) -> io::Result<u64> {
        self.inner.root(session)
    }

    fn solve(&mut self, parent: u64, clauses: Vec<Vec<Lit>>) -> io::Result<Option<Outcome>> {
        self.solves += 1;
        let lie = self.solves.is_multiple_of(3);
        Ok(self.inner.solve(parent, clauses)?.map(|o| Outcome {
            sat: o.sat && !lie,
            ..o
        }))
    }

    fn release(&mut self, handle: u64) -> io::Result<()> {
        self.inner.release(handle)
    }
}

#[test]
fn an_injected_wrong_verdict_is_counted_not_panicked_on() {
    let Kind::Svc(spec) = Workload::by_name("svc.tree").unwrap().miniature().kind else {
        unreachable!("svc.tree is a service workload")
    };
    let service = lwsnap_service::ShardedService::new(spec.config(1.0));
    let mut liar = Liar {
        inner: svc::BackendTarget(&service),
        solves: 0,
    };
    let pool = gen::pool(&spec.shape, SEED, 0, 4);
    let walk = Walk {
        live: 1,
        batched: false,
        id_base: 0,
        id_stride: 1,
    };
    let stop = Stop {
        deadline: None,
        sessions: Some(4),
    };
    let mut tally = Tally::default();
    let (mut ok, mut bad) = (0, 0);
    drive(
        &mut liar,
        &pool,
        walk,
        stop,
        Instant::now(),
        &mut tally,
        &mut |op| {
            if op.ok {
                ok += 1
            } else {
                bad += 1
            }
        },
    );
    assert!(ok > 0 && bad > 0, "the loop kept going after a failure");
    assert!(tally.failed >= bad && tally.failed < tally.attempted);
    assert!(
        tally.causes[0].contains("wrong verdict"),
        "{:?}",
        tally.causes
    );
}

#[test]
fn a_refused_connection_is_counted_not_panicked_on() {
    let Kind::Svc(spec) = Workload::by_name("svc.tree").unwrap().miniature().kind else {
        unreachable!("svc.tree is a service workload")
    };
    // A port nothing listens on: bind, note the address, close.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let run = svc::run_untraced(&spec, SEED, Duration::from_millis(50), 1, &|_| {
        svc::connect_single(closed)
    })
    .unwrap();
    let mut tally = Tally::default();
    for log in run.logs {
        assert!(log.samples.is_empty());
        tally.absorb(log.tally);
    }
    assert!(tally.failed >= svc::CONNS as u64);
    assert_eq!(tally.failed, tally.attempted);
    assert!(tally.causes[0].contains("refused"), "{:?}", tally.causes);
}

#[test]
fn trace_flag_takes_an_optional_value() {
    let parse = |line: &str| {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    };
    let driver = parse("--workload svc.tree --seed 9 --seconds 10 --trace 1").unwrap();
    assert_eq!(
        (
            driver.workload.as_str(),
            driver.seed,
            driver.seconds,
            driver.trace
        ),
        ("svc.tree", 9, 10.0, true)
    );
    assert!(!parse("--trace 0 --seed 2").unwrap().trace);
    assert!(parse("--trace --seed 2").unwrap().trace);
    assert_eq!(parse("").unwrap(), Args::default());
    assert!(parse("--seed x").is_err());
    assert!(parse("--seconds 0").is_err());
    assert!(parse("--frobnicate").is_err());
}

/// `BENCHMARK.json` is written by hand to the driver's contract; this
/// keeps it in step with what the code actually runs and prints.
#[test]
fn benchmark_json_matches_the_code() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let Json::Obj(keys) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<_> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    let listed = spec::workloads();
    assert_eq!(
        names("workloads"),
        listed.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (entry, workload) in doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&listed)
    {
        assert_eq!(entry.get("why").unwrap().as_str(), Some(workload.why));
    }
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        assert_eq!(names(key), defs.iter().map(|d| d.name).collect::<Vec<_>>());
        for (entry, def) in doc.get(key).unwrap().as_arr().unwrap().iter().zip(defs) {
            assert_eq!(
                entry.get("unit").unwrap().as_str(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            let bound = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(bound.is_some(), key == "end_to_end", "{}", def.name);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
        }
    }
    let bounds = compare::bounds(&doc).unwrap();
    let widest = bounds.iter().map(|b| b.bound).fold(0.0, f64::max);
    let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    let paths = doc.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths, [Json::from("ledger")]);
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
