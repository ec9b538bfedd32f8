//! The store's incremental bookkeeping against its own full walk.
//!
//! `CowStore` prices itself from a running distinct-frame count that
//! `put` and `remove` maintain, and discards a section's tail only
//! where the parent's header says the section used to be longer. Both
//! are shortcuts around a walk of every resident table; this drives
//! random put / derive / shrink / remove interleavings and checks after
//! **every** step that the shortcut and the walk agree and that every
//! resident snapshot still reads back bit-identically.

use proptest::prelude::*;

use lwsnap_mem::PAGE_SIZE;
use lwsnap_snapstore::CowStore;
use lwsnap_solver::generators::random_ksat;
use lwsnap_solver::snapshot::{encode, SnapId, SnapshotStore};
use lwsnap_solver::{Lit, Solver};

#[derive(Debug, Clone)]
enum Op {
    /// Put an unrelated solver of `size` variables with no parent.
    Root { size: usize, seed: u64 },
    /// Read `pick` back, add `clauses`, solve, put as its child.
    Derive { pick: usize, clauses: Vec<Vec<i64>> },
    /// Put an unrelated solver of `size` variables as a *child* of
    /// `pick` — the parent is only a sharing hint, so sections shrink
    /// (to nothing, for size 0) or grow by whole pages.
    Graft { pick: usize, size: usize, seed: u64 },
    /// Remove `pick`.
    Remove { pick: usize },
}

/// Sizes chosen so that sections span zero, one or several pages.
const SIZES: [usize; 5] = [0, 8, 150, 600, 1100];

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let lit = (1i64..=8, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clauses = proptest::collection::vec(proptest::collection::vec(lit, 1..4), 1..3);
    let size = || (0..SIZES.len()).prop_map(|i| SIZES[i]);
    let op = prop_oneof![
        1 => (size(), any::<u64>()).prop_map(|(size, seed)| Op::Root { size, seed }),
        4 => (any::<usize>(), clauses).prop_map(|(pick, clauses)| Op::Derive { pick, clauses }),
        3 => (any::<usize>(), size(), any::<u64>())
            .prop_map(|(pick, size, seed)| Op::Graft { pick, size, seed }),
        3 => any::<usize>().prop_map(|pick| Op::Remove { pick }),
    ];
    proptest::collection::vec(op, 1..24)
}

/// A solved under-constrained 3-SAT instance over `size` variables
/// (the empty solver for size 0).
fn solved(size: usize, seed: u64) -> Solver {
    let mut s = Solver::new();
    if size > 0 {
        for c in &random_ksat(size, size * 2, 3, seed).clauses {
            s.add_clause(c);
        }
        s.solve();
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn running_frame_count_matches_the_walk_and_reads_stay_exact(ops in ops_strategy()) {
        let mut store = CowStore::new();
        // Every resident snapshot with the encoding it must read back as.
        let mut live: Vec<(SnapId, Vec<Vec<u8>>)> = Vec::new();
        // Derives restore into one kept solver, as the service does.
        let mut work = Solver::new();
        for op in &ops {
            match op {
                Op::Root { size, seed } => {
                    let s = solved(*size, *seed);
                    live.push((store.put(None, &s), encode(&s)));
                }
                Op::Derive { pick, clauses } if !live.is_empty() => {
                    let parent = live[pick % live.len()].0;
                    prop_assert!(store.get_into(parent, &mut work), "resident");
                    prop_assert_eq!(encode(&work), encode(&store.get(parent).unwrap()));
                    for clause in clauses {
                        let lits: Vec<Lit> = clause.iter().map(|&v| Lit::from_dimacs(v)).collect();
                        work.add_clause(&lits);
                    }
                    work.solve();
                    live.push((store.put(Some(parent), &work), encode(&work)));
                }
                Op::Graft { pick, size, seed } if !live.is_empty() => {
                    let parent = live[pick % live.len()].0;
                    let s = solved(*size, *seed);
                    live.push((store.put(Some(parent), &s), encode(&s)));
                }
                Op::Remove { pick } if !live.is_empty() => {
                    let (id, _) = live.swap_remove(pick % live.len());
                    prop_assert!(store.remove(id));
                    prop_assert!(store.get(id).is_none());
                }
                _ => {}
            }
            prop_assert_eq!(store.len(), live.len());
            prop_assert_eq!(
                store.resident_bytes(),
                store.page_stats().total_pages as usize * PAGE_SIZE,
                "running count drifted from the walk after {:?}", op
            );
            for (id, expected) in &live {
                let back = store.get(*id).expect("resident snapshot reads back");
                prop_assert_eq!(&encode(&back), expected, "after {:?}", op);
            }
        }
        for (id, _) in live {
            prop_assert!(store.remove(id));
        }
        prop_assert_eq!(store.resident_bytes(), 0);
    }
}
