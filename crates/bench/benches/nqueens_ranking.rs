//! E1 — n-queens ranking (paper §5).
//!
//! Claim: "substantially worse than a hand-coded implementation, but
//! better than a Prolog implementation running on XSB."
//!
//! Reproduce with: `cargo bench --bench nqueens_ranking`
//! Expected shape: hand-coded ≪ snapshot engine < Prolog; the
//! snapshot/Prolog gap widens with N (see `ledger/README.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lwsnap_core::{replay_dfs, strategy::Dfs, Engine, Outcome};
use lwsnap_prolog::{Machine, NQUEENS_PROGRAM};
use lwsnap_vm::{assemble_source, programs::nqueens_source, Interp};

fn handcoded(n: u32) -> u64 {
    fn go(n: u32, cols: u32, ld: u32, rd: u32) -> u64 {
        if cols == (1 << n) - 1 {
            return 1;
        }
        let mut free = !(cols | ld | rd) & ((1 << n) - 1);
        let mut count = 0;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free -= bit;
            count += go(n, cols | bit, (ld | bit) << 1, (rd | bit) >> 1);
        }
        count
    }
    go(n, 0, 0, 0)
}

fn expected(n: u64) -> u64 {
    match n {
        6 => 4,
        7 => 40,
        8 => 92,
        _ => unreachable!(),
    }
}

fn bench_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_nqueens_ranking");
    group.sample_size(10);
    for n in [6u64, 7, 8] {
        group.bench_with_input(BenchmarkId::new("hand_coded", n), &n, |b, &n| {
            b.iter(|| {
                assert_eq!(handcoded(n as u32), expected(n));
            })
        });

        let program = assemble_source(&nqueens_source(n, false, true)).expect("assembles");
        group.bench_with_input(BenchmarkId::new("snapshot_engine", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = Engine::new(Dfs::new());
                let mut interp = Interp::new();
                let result = engine.run(&mut interp, program.boot().expect("boots"));
                assert_eq!(result.stats.solutions, expected(n));
            })
        });

        group.bench_with_input(BenchmarkId::new("replay_oracle", n), &n, |b, &n| {
            b.iter(|| {
                let result = replay_dfs(
                    |ctx| {
                        let size = n as usize;
                        let mut col = vec![false; size];
                        let mut d1 = vec![false; 2 * size];
                        let mut d2 = vec![false; 2 * size];
                        for c in 0..size {
                            let r = ctx.guess(n) as usize;
                            if col[r] || d1[r + c] || d2[size + r - c] {
                                return Outcome::Failed;
                            }
                            col[r] = true;
                            d1[r + c] = true;
                            d2[size + r - c] = true;
                        }
                        Outcome::Solution
                    },
                    None,
                );
                assert_eq!(result.stats.solutions, expected(n));
            })
        });

        group.bench_with_input(BenchmarkId::new("prolog", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = Machine::new();
                m.consult(NQUEENS_PROGRAM).expect("loads");
                assert_eq!(
                    m.count_solutions(&format!("queens({n}, Qs)"))
                        .expect("runs"),
                    expected(n)
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ranking);
criterion_main!(benches);
