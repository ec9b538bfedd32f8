//! The frozen workload table and the metric lists.
//!
//! Names are permanent. Parameters were calibrated once on a 2-core box
//! and are never scaled by machine speed: a faster machine completes
//! more operations in the same window, it does not get a bigger problem.

use crate::gen::{ParentRule, PlanShape};
use crate::svc::SvcSpec;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the ledger reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Permanent name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the engine or of `lwsnapd` pays.
/// Every workload reports every one of them, untraced.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", Better::Higher),
    m("p50_us", "us", Better::Lower),
    m("peak_rss_mib", "MiB", Better::Lower),
    m("setup_s", "s", Better::Lower),
];

/// Reported by every untraced run (printed, and recorded by `--json`)
/// but **not bounded**: on the calibration box the run-to-run spread of
/// `p99_us` reached 24 % — whole minutes in which the machine is slower
/// stretch the tail far more than the median — and a bound cannot be
/// wider than 25 %. A bound as wide as the noise is a coin flip.
pub const UNBOUNDED: &[MetricDef] = &[m("p99_us", "us", Better::Lower)];

/// Per-layer metrics, from the traced run. Every workload reports every
/// one; a layer that is not on a workload's path reports 0 (it did no
/// work there).
pub const PER_LAYER: &[MetricDef] = &[
    m("solver.run_us", "us", Better::Lower),
    m("solver.conflicts_per_op", "count", Better::Lower),
    m("solver.encode_us", "us", Better::Lower),
    m("solver.decode_us", "us", Better::Lower),
    m("snapstore.self_us", "us", Better::Lower),
    m("snapstore.get_us", "us", Better::Lower),
    m("snapstore.put_us", "us", Better::Lower),
    m("snapstore.pages_dirtied_per_put", "count", Better::Lower),
    m(
        "snapstore.bytes_scanned_per_byte_dirtied",
        "B/B",
        Better::Lower,
    ),
    m("snapstore.resident_bytes_per_snapshot", "B", Better::Lower),
    m("solver.service_self_us", "us", Better::Lower),
    m("solver.service_hit_rate", "%", Better::Higher),
    m("solver.service_rederive_us", "us", Better::Lower),
    m("solver.service_evictions_per_op", "count", Better::Lower),
    m("service.sharded_self_us", "us", Better::Lower),
    m("service.pool_self_us", "us", Better::Lower),
    m("service.protocol_codec_us", "us", Better::Lower),
    m("service.net_self_us", "us", Better::Lower),
    m("service.rx_copy_bytes_per_op", "B", Better::Lower),
    m("service.cluster_self_us", "us", Better::Lower),
    m("service.repl_edges_per_op", "count", Better::Lower),
    m("service.replica_bytes", "B", Better::Lower),
    m("ladder.top_us", "us", Better::Lower),
    m("ladder.top_median_us", "us", Better::Lower),
    m("ladder.coverage", "%", Better::Higher),
    m("ladder.queueing_us", "us", Better::Lower),
    m("vm.resume_us_per_step", "us", Better::Lower),
    m("vm.insns_per_step", "count", Better::Lower),
    m("core.engine_self_us_per_step", "us", Better::Lower),
    m("core.snapshots_per_step", "count", Better::Lower),
    m("core.restores_per_step", "count", Better::Lower),
    m("core.capture_ns", "ns", Better::Lower),
    m("core.materialize_ns", "ns", Better::Lower),
    m("mem.cow_copies_per_step", "count", Better::Lower),
    m("mem.fault_ns", "ns", Better::Lower),
    m("mem.snapshot_ns", "ns", Better::Lower),
    m("fs.fork_ns", "ns", Better::Lower),
    m("symex.feasibility_us_per_path", "us", Better::Lower),
    m("symex.checks_per_path", "count", Better::Lower),
    m("trace.overhead_share", "%", Better::Lower),
];

/// What a workload runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Closed-loop sessions against the solver service.
    Svc(SvcSpec),
    /// Figure 1: n-queens under `Engine<Dfs>` + `Interp`.
    Queens {
        /// Board size.
        n: u64,
        /// Solutions one pass must find.
        solutions: u64,
    },
    /// §5's locality knob: `search_workload_source` under `Engine<Dfs>`.
    Cow {
        /// Guesses per path.
        depth: u32,
        /// Extensions per guess.
        fanout: u64,
        /// Pages dirtied per node.
        touch_pages: u64,
        /// Pages of the guest buffer.
        buffer_pages: u64,
    },
    /// S2E-style symbolic execution on the parallel engine.
    Symex {
        /// Symbolic branches per path (`2^depth` paths).
        depth: u32,
        /// Pages of private guest state every path shares.
        state_pages: u64,
    },
}

/// One workload: a permanent name, the reason it exists, its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Permanent name.
    pub name: &'static str,
    /// Why it exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

fn svc_tree() -> SvcSpec {
    SvcSpec {
        shape: PlanShape {
            vars: 70,
            ratio: 3.5,
            steps: 24,
            clauses_per_step: 2,
            parents: ParentRule::MostlyDeepen,
        },
        pool_sessions: 1536,
        warm_sessions: 32,
        live: 1,
        batched: false,
        budget_bytes: None,
        cluster: false,
        trace_sessions: 16,
    }
}

/// The eight workloads, in report order.
pub fn workloads() -> Vec<Workload> {
    let tree = svc_tree();
    vec![
        Workload {
            name: "svc.tree",
            why: "reference latency workload: every service layer is on the path and snapstore get/put outweigh the solve",
            kind: Kind::Svc(tree.clone()),
        },
        Workload {
            name: "svc.hard",
            why: "Solver::solve dominates, so it shows a CDCL gain and is the no-change control for store and wire work",
            kind: Kind::Svc(SvcSpec {
                shape: PlanShape {
                    vars: 150,
                    ratio: 4.0,
                    steps: 16,
                    clauses_per_step: 3,
                    parents: ParentRule::MostlyDeepen,
                },
                pool_sessions: 768,
                warm_sessions: 12,
                // Heavy-tailed solves: 16 sessions would let one hard
                // instance decide the traced shares.
                trace_sessions: 48,
                ..tree.clone()
            }),
        },
        Workload {
            name: "svc.wire",
            why: "solver near zero and 8 sessions batched per connection, so reactor, protocol and pool dominate and batching gains show",
            kind: Kind::Svc(SvcSpec {
                shape: PlanShape {
                    vars: 12,
                    ratio: 2.0,
                    steps: 24,
                    clauses_per_step: 1,
                    parents: ParentRule::MostlyDeepen,
                },
                pool_sessions: 4096,
                warm_sessions: 64,
                live: 8,
                batched: true,
                trace_sessions: 32,
                ..tree.clone()
            }),
        },
        Workload {
            name: "svc.evict",
            why: "working set several times the snapshot budget: the same store used for misses, eviction and path replay instead of hits",
            kind: Kind::Svc(SvcSpec {
                shape: PlanShape {
                    steps: 64,
                    parents: ParentRule::Uniform,
                    ..tree.shape
                },
                pool_sessions: 512,
                warm_sessions: 4,
                live: 4,
                budget_bytes: Some(EVICT_BUDGET_BYTES),
                ..tree.clone()
            }),
        },
        Workload {
            name: "svc.repl",
            why: "svc.tree traffic through a 2-node cluster with both replication planes: svc.repl / svc.tree is the replication tax",
            kind: Kind::Svc(SvcSpec {
                cluster: true,
                ..tree
            }),
        },
        Workload {
            name: "bt.queens",
            why: "Figure 1 at the finest granularity: snapshot capture/restore, strategy and interpreter dispatch are the whole cost",
            kind: Kind::Queens {
                n: 11,
                solutions: 2_680,
            },
        },
        Workload {
            name: "bt.cow",
            why: "section 5's locality knob turned up: mem CoW faults dominate while core and vm do what they do in bt.queens",
            kind: Kind::Cow {
                depth: 8,
                fanout: 4,
                touch_pages: 64,
                buffer_pages: 4096,
            },
        },
        Workload {
            name: "bt.symex",
            why: "the paper's S2E application on 2 workers: the only workload crossing engine, deques, shared pool and feasibility solves",
            kind: Kind::Symex {
                depth: 11,
                state_pages: 256,
            },
        },
    ]
}

/// `svc.evict`'s per-shard snapshot budget, calibrated once to a 30–60 %
/// hit rate and then frozen.
pub const EVICT_BUDGET_BYTES: usize = 500_000;

/// Workers of `bt.symex`'s parallel engine.
pub const SYMEX_WORKERS: usize = 2;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        workloads().into_iter().find(|w| w.name == name)
    }

    /// The same workload at roughly 1 % of its size, for the harness
    /// tests: same code path, seconds of work cut to milliseconds.
    #[cfg(test)]
    pub fn miniature(&self) -> Workload {
        let kind = match &self.kind {
            Kind::Svc(spec) => Kind::Svc(SvcSpec {
                pool_sessions: 4 * spec.live,
                warm_sessions: spec.live,
                trace_sessions: spec.live,
                shape: PlanShape {
                    steps: spec.shape.steps.min(6),
                    vars: spec.shape.vars.min(40),
                    ..spec.shape
                },
                budget_bytes: spec.budget_bytes.map(|b| b / 20),
                ..spec.clone()
            }),
            Kind::Queens { .. } => Kind::Queens { n: 6, solutions: 4 },
            Kind::Cow {
                fanout,
                touch_pages,
                buffer_pages,
                ..
            } => Kind::Cow {
                depth: 3,
                fanout: *fanout,
                touch_pages: *touch_pages,
                buffer_pages: *buffer_pages,
            },
            Kind::Symex { state_pages, .. } => Kind::Symex {
                depth: 4,
                state_pages: *state_pages,
            },
        };
        Workload {
            kind,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all = workloads();
        assert_eq!(all.len(), 8);
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.extend(
            END_TO_END
                .iter()
                .chain(UNBOUNDED)
                .chain(PER_LAYER)
                .map(|m| m.name),
        );
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &all {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
