//! Property test: for random constraint trees, the sharded, concurrent,
//! eviction-bounded service answers exactly like the sequential
//! single-shard `SolverService` and like from-scratch solving.
//!
//! This is the reproducibility-under-concurrency guarantee: worker
//! scheduling, shard placement and LRU eviction may vary freely, but
//! SAT/UNSAT verdicts are pinned and every returned model must satisfy
//! the node's full constraint stack.

use std::sync::Arc;

use lwsnap_service::{ProblemId, ServiceConfig, ShardedService, WorkerPool};
use lwsnap_solver::{model_satisfies, Lit, SolveResult, SolverService};
use proptest::prelude::*;

/// One node of a random constraint tree: which earlier node to extend
/// (`selector % candidates` picks the parent; 0 is the root) plus the
/// incremental clauses, DIMACS-encoded over ≤ 6 variables.
type TreeNode = (usize, Vec<Vec<i64>>);

fn tree_strategy() -> impl Strategy<Value = Vec<TreeNode>> {
    let lit = (1i64..=6, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clause = proptest::collection::vec(lit, 1..4);
    let node = (0usize..64, proptest::collection::vec(clause, 0..4));
    proptest::collection::vec(node, 1..8)
}

fn to_lits(clauses: &[Vec<i64>]) -> Vec<Vec<Lit>> {
    clauses
        .iter()
        .map(|c| c.iter().map(|&v| Lit::from_dimacs(v)).collect())
        .collect()
}

fn stack_satisfied(stack: &[Vec<i64>], model: &[bool]) -> bool {
    model_satisfies(&to_lits(stack), model)
}

/// Parent index (into the node list, or `None` = root) for each node.
fn parents(tree: &[TreeNode]) -> Vec<Option<usize>> {
    tree.iter()
        .enumerate()
        .map(|(i, (selector, _))| {
            // Node i may extend the root or any of nodes 0..i.
            let pick = selector % (i + 1);
            if pick == 0 {
                None
            } else {
                Some(pick - 1)
            }
        })
        .collect()
}

/// Nodes grouped by tree depth (every node's parent is in an earlier
/// group, so each group is an independently solvable batch).
fn levels(parents: &[Option<usize>]) -> Vec<Vec<usize>> {
    let mut depth = vec![0usize; parents.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, parent) in parents.iter().enumerate() {
        depth[i] = parent.map_or(0, |p| depth[p] + 1);
        if groups.len() <= depth[i] {
            groups.resize_with(depth[i] + 1, Vec::new);
        }
        groups[depth[i]].push(i);
    }
    groups
}

/// Full clause stack of node `i` (its constraint path from the root).
fn stack_of(tree: &[TreeNode], parents: &[Option<usize>], i: usize) -> Vec<Vec<i64>> {
    let mut stack = match parents[i] {
        Some(p) => stack_of(tree, parents, p),
        None => Vec::new(),
    };
    stack.extend(tree[i].1.iter().cloned());
    stack
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_concurrent_equals_sequential_equals_scratch(tree in tree_strategy()) {
        let parents = parents(&tree);
        let levels = levels(&parents);

        // Reference 1: the sequential single-shard service.
        let mut sequential = SolverService::new();
        let mut seq_refs = Vec::with_capacity(tree.len());
        let mut seq_results = Vec::with_capacity(tree.len());
        for (i, (_, clauses)) in tree.iter().enumerate() {
            let parent = match parents[i] {
                Some(p) => seq_refs[p],
                None => sequential.root(),
            };
            let reply = sequential.solve(parent, &to_lits(clauses)).unwrap();
            if let Some(model) = &reply.model {
                let stack = stack_of(&tree, &parents, i);
                prop_assert!(
                    stack_satisfied(&stack, model),
                    "sequential model violates node {i}'s stack"
                );
            }
            seq_refs.push(reply.problem);
            seq_results.push(reply.result);
        }

        // Reference 2: from-scratch solving of every node's full stack.
        for (i, result) in seq_results.iter().enumerate() {
            let stack = stack_of(&tree, &parents, i);
            let (scratch, _) = SolverService::solve_scratch(&to_lits(&stack));
            prop_assert_eq!(scratch, *result, "scratch disagrees at node {}", i);
        }

        // Subject: two concurrent copies of the tree on the sharded
        // service (tight eviction budget), driven level-by-level through
        // the worker pool in cross-session batches.
        let config = ServiceConfig::new(2).with_snapshot_capacity(2);
        let service = Arc::new(ShardedService::new(config));
        let pool = WorkerPool::new(Arc::clone(&service), 4);
        let client = pool.client();
        let sessions: Vec<u64> = vec![0, 1];
        let mut ids: Vec<Vec<Option<ProblemId>>> =
            vec![vec![None; tree.len()]; sessions.len()];
        for level in &levels {
            let mut batch = Vec::new();
            let mut slots = Vec::new();
            for (s, &session) in sessions.iter().enumerate() {
                for &i in level {
                    let parent = match parents[i] {
                        Some(p) => ids[s][p].unwrap(),
                        None => service.session_root(session),
                    };
                    batch.push((parent, to_lits(&tree[i].1)));
                    slots.push((s, i));
                }
            }
            let replies = client.solve_batch(batch);
            for ((s, i), reply) in slots.into_iter().zip(replies) {
                let reply = reply.expect("live parent reference");
                prop_assert_eq!(
                    reply.result,
                    seq_results[i],
                    "sharded session {} disagrees at node {}", s, i
                );
                if let Some(model) = &reply.model {
                    prop_assert!(reply.result == SolveResult::Sat);
                    let stack = stack_of(&tree, &parents, i);
                    prop_assert!(
                        stack_satisfied(&stack, model),
                        "sharded model violates node {i}'s stack"
                    );
                }
                ids[s][i] = Some(reply.problem);
            }
        }
        pool.shutdown();

        // The eviction budget must actually bound residency.
        for shard in &service.shard_stats() {
            prop_assert!(
                shard.resident_snapshots <= 3,
                "root + capacity 2 exceeded: {}",
                shard.resident_snapshots
            );
        }
    }
}
