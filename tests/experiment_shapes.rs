//! Fast, deterministic assertions of every experiment's *shape*.
//!
//! The perf ledger (`ledger/README.md`) and the Criterion benches report
//! wall-clock measurements; these tests pin the underlying invariants so
//! a regression that would flip an experiment's conclusion fails CI
//! immediately.

use lwsnap_core::strategy::{BestFirst, Bfs, Dfs, SmaStar};
use lwsnap_core::{Engine, EngineStats};
use lwsnap_mem::{AddressSpace, Prot, RegionKind, PAGE_SIZE};
use lwsnap_solver::{IncrementalFamily, SolveResult, Solver, SolverService};
use lwsnap_vm::{assemble_source, programs, Interp};

const BASE: u64 = 0x10_0000;

fn space_with(pages: u64) -> AddressSpace {
    let mut asp = AddressSpace::new();
    asp.map_fixed(
        BASE,
        pages * PAGE_SIZE as u64,
        Prot::RW,
        RegionKind::Anon,
        "ram",
    )
    .unwrap();
    for p in 0..pages {
        asp.write_u64(BASE + p * PAGE_SIZE as u64, p).unwrap();
    }
    asp
}

// --------------------------------------------------------------------
// E2: snapshots are O(1); copies are O(space).
// --------------------------------------------------------------------

#[test]
fn e2_snapshot_work_is_constant_in_space_size() {
    // Counter-based (not timing-based): a snapshot must copy zero pages
    // and zero nodes regardless of how big the space is.
    for pages in [16u64, 1024, 16384] {
        let asp = space_with(pages);
        let before = *asp.stats();
        let snap = asp.snapshot();
        assert_eq!(
            *snap.stats(),
            before,
            "snapshot performed no MMU work for {pages} pages"
        );
        assert!(snap.same_table_root(&asp));
    }
}

#[test]
fn e2_divergence_work_is_constant_in_space_size() {
    for pages in [16u64, 1024, 16384] {
        let mut asp = space_with(pages);
        let _snap = asp.snapshot();
        let before = *asp.stats();
        asp.write_u64(BASE, 1).unwrap();
        let d = asp.stats().delta(&before);
        assert_eq!(
            d.cow_page_copies, 1,
            "one page copied for {pages}-page space"
        );
        assert!(d.node_copies <= 4, "at most one node per radix level");
    }
}

// --------------------------------------------------------------------
// E3: copied bytes ≈ k * PAGE_SIZE, independent of M.
// --------------------------------------------------------------------

#[test]
fn e3_copied_bytes_track_pages_touched() {
    for m in [64u64, 4096] {
        for k in [1u64, 8, 32] {
            let parent = space_with(m);
            let mut child = parent.snapshot();
            let before = *child.stats();
            for p in 0..k {
                child.write_u64(BASE + p * PAGE_SIZE as u64, 0xff).unwrap();
            }
            let d = child.stats().delta(&before);
            assert_eq!(d.bytes_copied(), k * PAGE_SIZE as u64, "m={m} k={k}");
        }
    }
}

#[test]
fn e3_guest_workload_dirty_pages_bounded_by_touch_count() {
    // The VM workload touches `touch` pages per step; after a snapshot
    // the child's CoW copies must be ≤ touch + bookkeeping pages
    // (stack), never the whole buffer.
    let touch = 4u64;
    let buffer_pages = 256u64;
    let program = assemble_source(&programs::search_workload_source(
        1,
        2,
        0,
        touch,
        buffer_pages,
    ))
    .unwrap();
    let mut engine = Engine::new(Dfs::new());
    let mut interp = Interp::new();
    let result = engine.run(&mut interp, program.boot().unwrap());
    assert_eq!(result.stats.solutions, 2);
    // Sanity on the run itself (detailed counters live in lwsnap-mem).
    assert_eq!(result.stats.snapshots_created, 1);
}

// --------------------------------------------------------------------
// E4: incremental solving does not redo inherited inference.
// --------------------------------------------------------------------

#[test]
fn e4_incremental_conflicts_do_not_exceed_scratch_rework() {
    let fam = IncrementalFamily::new(100, 10, 42);
    // Incremental: one solver accumulates clauses and inference.
    let mut solver = Solver::new();
    for clause in &fam.base().clauses {
        solver.add_clause(clause);
    }
    solver.solve();
    for i in 0..4 {
        for clause in fam.increment(i) {
            solver.add_clause(&clause);
        }
        solver.solve();
    }
    let incremental_conflicts = solver.stats().conflicts;

    // Scratch: re-solve every prefix.
    let mut scratch_conflicts = 0;
    for upto in 0..=4 {
        let (_, stats) = SolverService::solve_scratch(&fam.combined(upto).clauses);
        scratch_conflicts += stats.conflicts;
    }
    assert!(
        incremental_conflicts <= scratch_conflicts,
        "incremental {incremental_conflicts} must not exceed scratch {scratch_conflicts}"
    );
}

// --------------------------------------------------------------------
// E5: the service answers from parent snapshots.
// --------------------------------------------------------------------

#[test]
fn e5_service_final_answers_match_scratch() {
    let fam = IncrementalFamily::new(60, 6, 99);
    let mut service = SolverService::new();
    let mut cur = service.solve(service.root(), &fam.base().clauses).unwrap();
    for i in 0..3 {
        cur = service.solve(cur.problem, &fam.increment(i)).unwrap();
    }
    let (scratch, _) = SolverService::solve_scratch(&fam.combined(3).clauses);
    assert_eq!(cur.result, scratch, "same verdict through either route");
    if cur.result == SolveResult::Sat {
        let model = cur.model.unwrap();
        for clause in &fam.combined(3).clauses {
            assert!(clause
                .iter()
                .any(|l| { model.get(l.var().index()).copied().unwrap_or(false) != l.sign() }));
        }
    }
}

// --------------------------------------------------------------------
// E8: strategy memory shapes.
// --------------------------------------------------------------------

fn run_bits(depth: u64, strategy: impl lwsnap_core::strategy::Strategy) -> EngineStats {
    let program = assemble_source(&programs::bitstrings_source(depth)).unwrap();
    let mut engine = Engine::new(strategy);
    let mut interp = Interp::new();
    engine.run(&mut interp, program.boot().unwrap()).stats
}

#[test]
fn e8_dfs_memory_logarithmic_bfs_linear() {
    let depth = 9;
    let dfs = run_bits(depth, Dfs::new());
    let bfs = run_bits(depth, Bfs::new());
    assert_eq!(dfs.solutions, 1 << depth);
    assert_eq!(bfs.solutions, 1 << depth);
    assert!(
        dfs.frontier_peak as u64 <= depth * 2,
        "DFS frontier O(depth): {}",
        dfs.frontier_peak
    );
    assert!(
        bfs.frontier_peak as u64 >= 1 << (depth - 1),
        "BFS frontier holds a level: {}",
        bfs.frontier_peak
    );
    assert!(dfs.snapshots_peak < bfs.snapshots_peak);
    // DFS does one restore per queued sibling; BFS restores every step.
    assert!(dfs.inline_continues > 0);
    assert_eq!(bfs.inline_continues, 0);
}

#[test]
fn e8_sma_star_caps_memory_at_the_configured_bound() {
    let depth = 9;
    let unbounded = run_bits(depth, BestFirst::new());
    let bounded = run_bits(depth, SmaStar::new(32));
    assert!(unbounded.frontier_peak > 32);
    assert!(bounded.frontier_peak <= 32);
    assert!(bounded.dropped_extensions > 0);
    assert!(
        bounded.snapshots_peak <= unbounded.snapshots_peak,
        "bounding the frontier bounds live snapshots"
    );
}

// --------------------------------------------------------------------
// E7: fork-engine decision cost is measured in the native crate; here we
// pin the snapshot engine's side of the comparison.
// --------------------------------------------------------------------

#[test]
fn e7_snapshot_engine_per_decision_bookkeeping() {
    let depth = 10;
    let program = assemble_source(&programs::guess_fail_source(depth, 2)).unwrap();
    let mut engine = Engine::new(Dfs::new());
    let mut interp = Interp::new();
    let result = engine.run(&mut interp, program.boot().unwrap());
    let internal = (1u64 << depth) - 1;
    assert_eq!(result.stats.snapshots_created, internal);
    assert_eq!(result.stats.failures, 1 << depth);
    // Every snapshot was reclaimed (peak stays at tree depth).
    assert!(result.stats.snapshots_peak as u64 <= depth + 1);
}

// --------------------------------------------------------------------
// Ablation shapes (see the `ablations` bench for timings).
// --------------------------------------------------------------------

#[test]
fn ablation_no_inline_is_equivalent_but_restores_everything() {
    let program = assemble_source(&programs::nqueens_source(6, true, true)).unwrap();
    let mut fast = Engine::new(Dfs::new());
    let fast_result = fast.run(&mut Interp::new(), program.boot().unwrap());
    let mut slow = Engine::new(Dfs::without_inline());
    let slow_result = slow.run(&mut Interp::new(), program.boot().unwrap());
    // Identical semantics...
    assert_eq!(fast_result.stats.solutions, slow_result.stats.solutions);
    assert_eq!(
        fast_result.transcript, slow_result.transcript,
        "same DFS order"
    );
    // ...different mechanics.
    assert!(fast_result.stats.inline_continues > 0);
    assert_eq!(slow_result.stats.inline_continues, 0);
    assert_eq!(
        slow_result.stats.restores,
        fast_result.stats.restores + fast_result.stats.inline_continues,
        "every fast-path continue became a restore"
    );
}

#[test]
fn ablation_keep_all_snapshots_grows_with_tree() {
    let program = assemble_source(&programs::nqueens_source(6, false, true)).unwrap();
    let config = lwsnap_core::EngineConfig {
        keep_all_snapshots: true,
        ..Default::default()
    };
    let mut engine = Engine::with_config(Dfs::new(), config);
    let result = engine.run(&mut Interp::new(), program.boot().unwrap());
    assert_eq!(
        result.stats.snapshots_peak as u64, result.stats.snapshots_created,
        "nothing reclaimed"
    );
    let mut reclaiming = Engine::new(Dfs::new());
    let base = reclaiming.run(&mut Interp::new(), program.boot().unwrap());
    assert_eq!(
        base.stats.solutions, result.stats.solutions,
        "semantics unchanged"
    );
    assert!(
        base.stats.snapshots_peak <= 7,
        "reclaiming keeps O(depth) alive"
    );
}
