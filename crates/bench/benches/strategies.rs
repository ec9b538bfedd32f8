//! E8 — flexible search strategies over one unchanged guest (§3.1).
//!
//! Claim: the search strategy "is implemented separately from the
//! extensions or the partial candidates", so DFS, BFS, A* and SM-A* all
//! schedule the same program. This bench measures the time cost of each
//! scheduler on a fixed exploration (full bit-string tree); the *memory*
//! shapes (frontier and live-snapshot peaks) are asserted in the
//! integration tests and printed by `examples/puzzle_strategies.rs`.
//!
//! Expected shape: DFS fastest (inline fast path, O(depth) memory); BFS
//! and A* pay a restore per extension; SM-A* pays bounding overhead but
//! caps memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lwsnap_core::strategy::{BestFirst, Bfs, Dfs, SmaStar, Strategy};
use lwsnap_core::{Engine, EngineStats};
use lwsnap_vm::{assemble_source, programs::bitstrings_source, Interp, Program};

fn run(program: &Program, strategy: Box<dyn Strategy>) -> EngineStats {
    let mut engine = Engine::new(strategy);
    let mut interp = Interp::new();
    engine
        .run(&mut interp, program.boot().expect("boots"))
        .stats
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_strategies");
    group.sample_size(10);
    let depth = 8u64;
    let program = assemble_source(&bitstrings_source(depth)).expect("assembles");
    let solutions = 1u64 << depth;

    group.bench_function(BenchmarkId::new("dfs", depth), |b| {
        b.iter(|| assert_eq!(run(&program, Box::new(Dfs::new())).solutions, solutions))
    });
    group.bench_function(BenchmarkId::new("bfs", depth), |b| {
        b.iter(|| assert_eq!(run(&program, Box::new(Bfs::new())).solutions, solutions))
    });
    group.bench_function(BenchmarkId::new("astar", depth), |b| {
        b.iter(|| {
            assert_eq!(
                run(&program, Box::new(BestFirst::new())).solutions,
                solutions
            )
        })
    });
    group.bench_function(BenchmarkId::new("sma_star_64", depth), |b| {
        b.iter(|| {
            // Bounded memory drops subtrees: fewer solutions, capped
            // frontier — both asserted.
            let stats = run(&program, Box::new(SmaStar::new(64)));
            assert!(stats.frontier_peak <= 64);
            assert!(stats.solutions <= solutions);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
