//! Frozen inputs and reference verdicts.
//!
//! For every workload the ledger can state, before running anything,
//! what bytes it will send and what the right answers are:
//!
//! * `svc.*` — the **stream digest** folds every generated plan of both
//!   connections; the **reference verdicts** come from solving every
//!   node of the first [`REF_SESSIONS`] sessions per connection *from
//!   scratch* (`SolverService::solve_scratch`, no snapshots, no service).
//!   Planted instances make every node satisfiable by construction; the
//!   pre-pass confirms that on the actual seed, untimed, on every run.
//! * `bt.*` — the stream digest folds the guest program's source; the
//!   reference is the result count one full pass must produce.
//!
//! Seeds 1, 2 and 3 are committed: `reference.json` pins their digests
//! (`ledger --record-reference` prints the file), and a run on a pinned
//! seed fails if what it generated no longer matches.

use lwsnap_solver::{SolveResult, SolverService};

use crate::bt;
use crate::gen::{self, Digest, SessionPlan};
use crate::json::Json;
use crate::spec::{Kind, Workload};
use crate::svc::CONNS;

/// Sessions per connection whose nodes the pre-pass solves from scratch.
pub const REF_SESSIONS: usize = 4;

/// The seeds whose digests are committed.
pub const PINNED_SEEDS: [u64; 3] = [1, 2, 3];

const PINNED: &str = include_str!("../reference.json");

/// What a workload's inputs and right answers digest to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Digest of the generated request stream (or guest program).
    pub stream: String,
    /// Digest of the from-scratch verdicts (or the expected result count).
    pub verdicts: String,
}

/// The from-scratch pre-pass over the head of each pool. `Err` names a
/// node the reference solver does not find satisfiable.
pub fn svc_reference(pools: &[Vec<SessionPlan>]) -> Result<Reference, String> {
    let mut stream = Digest::default();
    let mut verdicts = Digest::default();
    for (conn, pool) in pools.iter().enumerate() {
        for plan in pool {
            stream.plan(plan);
        }
        for (index, plan) in pool.iter().take(REF_SESSIONS).enumerate() {
            for node in 0..=plan.steps() {
                let (verdict, _) = SolverService::solve_scratch(&plan.path_clauses(node));
                if verdict != SolveResult::Sat {
                    return Err(format!(
                        "connection {conn} session {index} node {node} is {verdict:?} from scratch"
                    ));
                }
                verdicts.bytes(b"S");
            }
        }
    }
    Ok(Reference {
        stream: stream.hex(),
        verdicts: verdicts.hex(),
    })
}

/// The reference of a `bt.*` workload: its program and result count.
pub fn bt_reference(kind: &Kind) -> Reference {
    let mut stream = Digest::default();
    stream.bytes(bt::source(kind).as_bytes());
    Reference {
        stream: stream.hex(),
        verdicts: bt::expected_results(kind).to_string(),
    }
}

/// The reference of any workload for `seed`.
pub fn of(workload: &Workload, seed: u64) -> Result<Reference, String> {
    match &workload.kind {
        Kind::Svc(spec) => {
            let pools: Vec<_> = (0..CONNS as u64)
                .map(|c| gen::pool(&spec.shape, seed, c, spec.pool_sessions))
                .collect();
            svc_reference(&pools)
        }
        kind => Ok(bt_reference(kind)),
    }
}

/// Checks `found` against the committed file. `Ok(true)` if the seed is
/// pinned and matches, `Ok(false)` if it is not pinned, `Err` on drift.
pub fn check_pinned(workload: &str, seed: u64, found: &Reference) -> Result<bool, String> {
    let pinned = Json::parse(PINNED).map_err(|e| format!("reference.json: {e}"))?;
    let Some(entry) = pinned.get(workload).and_then(|w| w.get(&seed.to_string())) else {
        return Ok(false);
    };
    for (key, got) in [("stream", &found.stream), ("verdicts", &found.verdicts)] {
        let want = entry.get(key).and_then(Json::as_str).unwrap_or("");
        if want != got {
            return Err(format!(
                "{workload} seed {seed}: {key} digest is {got}, reference.json pins {want}"
            ));
        }
    }
    Ok(true)
}

/// Builds the content of `reference.json` for the committed seeds. The
/// `bt.*` entries are confirmed by running one real pass each.
pub fn record(workloads: &[Workload]) -> Result<Json, String> {
    let mut doc = Vec::new();
    for workload in workloads {
        if !matches!(workload.kind, Kind::Svc(_)) {
            let bench = bt::Bench::set_up(&workload.kind, std::time::Instant::now())
                .map_err(|e| e.to_string())?;
            let pass = bench
                .pass(false, 0, None, None)
                .map_err(|e| e.to_string())?;
            if let Some(why) = pass.wrong {
                return Err(format!("{}: {why}", workload.name));
            }
        }
        let mut seeds = Vec::new();
        for seed in PINNED_SEEDS {
            let reference = of(workload, seed)?;
            seeds.push((
                seed.to_string(),
                Json::obj([
                    ("stream", Json::from(reference.stream.as_str())),
                    ("verdicts", Json::from(reference.verdicts.as_str())),
                ]),
            ));
        }
        doc.push((workload.name, Json::obj(seeds)));
    }
    Ok(Json::obj(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_seeds_still_generate_the_pinned_streams() {
        for workload in crate::spec::workloads() {
            // The pre-pass of the two largest pools is seconds in a
            // debug build; one seed of each is enough to catch drift.
            let seeds: &[u64] = if workload.name == "svc.hard" || workload.name == "svc.evict" {
                &[1]
            } else {
                &PINNED_SEEDS
            };
            for &seed in seeds {
                let found = of(&workload, seed).unwrap();
                assert_eq!(
                    check_pinned(workload.name, seed, &found),
                    Ok(true),
                    "{} seed {seed}",
                    workload.name
                );
            }
        }
    }

    #[test]
    fn unpinned_seeds_pass_and_drift_is_caught() {
        let workload = Workload::by_name("bt.queens").unwrap();
        let found = of(&workload, 99).unwrap();
        assert_eq!(check_pinned("bt.queens", 99, &found), Ok(false));
        let drifted = Reference {
            stream: "0000000000000000".into(),
            ..found
        };
        assert!(check_pinned("bt.queens", 1, &drifted)
            .unwrap_err()
            .contains("stream digest"));
    }

    #[test]
    fn an_unsatisfiable_node_fails_the_pre_pass() {
        let mut plan = gen::session_plan(
            &gen::PlanShape {
                vars: 5,
                ratio: 2.0,
                steps: 1,
                clauses_per_step: 1,
                parents: gen::ParentRule::Uniform,
            },
            1,
            0,
            0,
        );
        // x ∧ ¬x, padded to three literals each.
        plan.base = vec![1, 1, 1, -1, -1, -1];
        let err = svc_reference(&[vec![plan]]).unwrap_err();
        assert!(err.contains("node 0 is Unsat"), "{err}");
    }
}
