//! Store conformance: the page-granular CoW store and the deep-clone
//! baseline must be **behaviourally indistinguishable** — bit-identical
//! verdicts and witness models across arbitrary interleavings of
//! derivation, release, eviction (count capacity and byte budget) and
//! re-probing of evicted problems. The stores may disagree about
//! *cost* (that is the point of the CoW store) but never about
//! *answers*: an evicted snapshot re-derives by constraint-path
//! replay, and the solver is deterministic in the clause path.

use proptest::prelude::*;

use lwsnap_snapstore::CowStore;
use lwsnap_solver::{DeepCloneStore, Lit, SolverService};

/// One step of a random service interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Solve `problems[parent % len] ∧ clauses` on both services.
    Derive {
        parent: usize,
        clauses: Vec<Vec<i64>>,
    },
    /// Release `problems[pick % len]` on both services.
    Release { pick: usize },
    /// Clamp the resident set to `budget` *bytes*, then lift it. The
    /// two stores evict different snapshot sets here (CoW pages are
    /// cheaper), which is exactly why the answers must still agree.
    Squeeze { budget: usize },
    /// Re-solve `problems[pick % len]` with no new clauses — forces a
    /// re-derivation when the pick was evicted.
    Probe { pick: usize },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let lit = (1i64..=8, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clause = proptest::collection::vec(lit, 1..4);
    let clauses = proptest::collection::vec(clause, 1..3);
    let op = prop_oneof![
        4 => (any::<usize>(), clauses)
            .prop_map(|(parent, clauses)| Op::Derive { parent, clauses }),
        1 => any::<usize>().prop_map(|pick| Op::Release { pick }),
        1 => (1usize..8192).prop_map(|budget| Op::Squeeze { budget }),
        2 => any::<usize>().prop_map(|pick| Op::Probe { pick }),
    ];
    proptest::collection::vec(op, 1..32)
}

fn to_lits(clauses: &[Vec<i64>]) -> Vec<Vec<Lit>> {
    clauses
        .iter()
        .map(|c| c.iter().map(|&v| Lit::from_dimacs(v)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cow_and_deep_clone_stores_answer_bit_identically(ops in ops_strategy()) {
        let mut cow = SolverService::with_store(Box::new(CowStore::new()));
        let mut deep = SolverService::with_store(Box::new(DeepCloneStore::new()));
        let mut cow_probs = vec![cow.root()];
        let mut deep_probs = vec![deep.root()];
        for op in &ops {
            match op {
                Op::Derive { parent, clauses } => {
                    let i = parent % cow_probs.len();
                    let lits = to_lits(clauses);
                    let rc = cow.solve(cow_probs[i], &lits);
                    let rd = deep.solve(deep_probs[i], &lits);
                    match (rc, rd) {
                        (Some(rc), Some(rd)) => {
                            prop_assert_eq!(rc.result, rd.result, "verdict split");
                            prop_assert_eq!(&rc.model, &rd.model, "witness split");
                            cow_probs.push(rc.problem);
                            deep_probs.push(rd.problem);
                        }
                        (None, None) => {}
                        (rc, rd) => prop_assert!(
                            false,
                            "liveness split: cow={} deep={}",
                            rc.is_some(),
                            rd.is_some()
                        ),
                    }
                }
                Op::Release { pick } => {
                    let i = pick % cow_probs.len();
                    cow.release(cow_probs[i]);
                    deep.release(deep_probs[i]);
                }
                Op::Squeeze { budget } => {
                    cow.set_snapshot_budget(Some(*budget));
                    deep.set_snapshot_budget(Some(*budget));
                    cow.set_snapshot_budget(None);
                    deep.set_snapshot_budget(None);
                }
                Op::Probe { pick } => {
                    let i = pick % cow_probs.len();
                    let rc = cow.solve(cow_probs[i], &[]);
                    let rd = deep.solve(deep_probs[i], &[]);
                    match (rc, rd) {
                        (Some(rc), Some(rd)) => {
                            prop_assert_eq!(rc.result, rd.result, "probe verdict split");
                            prop_assert_eq!(&rc.model, &rd.model, "probe witness split");
                            cow_probs.push(rc.problem);
                            deep_probs.push(rd.problem);
                        }
                        (None, None) => {}
                        (rc, rd) => prop_assert!(
                            false,
                            "probe liveness split: cow={} deep={}",
                            rc.is_some(),
                            rd.is_some()
                        ),
                    }
                }
            }
        }
        // Every problem either service still remembers answers the
        // same cached verdict on both.
        for (c, d) in cow_probs.iter().zip(&deep_probs) {
            prop_assert_eq!(cow.result_of(*c), deep.result_of(*d), "cached verdict split");
        }
        // And the byte accounting stayed consistent with the page
        // accounting on the CoW side: shared + private = total.
        let ps = cow.page_stats();
        prop_assert_eq!(ps.shared_pages + ps.private_pages, ps.total_pages);
    }
}
