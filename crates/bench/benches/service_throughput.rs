//! Service throughput: the sequential `SolverService` vs the sharded,
//! worker-pooled `ShardedService` on the same multi-session closed-loop
//! workload (see `lwsnap_bench::service_workload`).
//!
//! Expected shape: throughput grows with the worker count until the
//! session/shard parallelism is exhausted; the byte-budgeted variant
//! trades a little throughput for a 4× smaller resident set. The shim's
//! min/median/stddev report is what makes the comparison meaningful.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lwsnap_bench::service_workload::{run_sequential, run_sharded, Workload};

fn bench_service_throughput(c: &mut Criterion) {
    let sessions = 8;
    let queries = 6;
    let workload = Workload::build(sessions, queries, 50, 0xbe9c);
    let total = workload.total_queries() as u64;

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));

    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(run_sequential(&workload).verdicts))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", workers),
            &workers,
            |b, &workers| {
                b.iter(|| std::hint::black_box(run_sharded(&workload, 8, workers, None).0.verdicts))
            },
        );
    }
    // The memory-bounded flavour: a quarter of the unbounded run's mean
    // resident bytes per shard forces eviction + replay.
    let (_, unbounded, _) = run_sharded(&workload, 8, 4, None);
    let budget = Some((unbounded.stats().resident_bytes / (8 * 4)).max(1) as usize);
    group.bench_with_input(BenchmarkId::new("sharded_budget", 4), &4, |b, &workers| {
        b.iter(|| std::hint::black_box(run_sharded(&workload, 8, workers, budget).0.verdicts))
    });
    // Tracing overhead at fixed parallelism: the identical workload
    // with the event recorder on vs off (metrics histograms stay live
    // either way — that is the deal the hot paths make). CI's ≤5% gate
    // runs `examples/trace_overhead.rs`; this pair is the Criterion
    // view of the same question.
    for (label, on) in [("sharded4_traced", true), ("sharded4_untraced", false)] {
        group.bench_function(label, |b| {
            lwsnap_trace::set_enabled(on);
            b.iter(|| std::hint::black_box(run_sharded(&workload, 8, 4, None).0.verdicts));
            lwsnap_trace::set_enabled(true);
            lwsnap_trace::drain();
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
