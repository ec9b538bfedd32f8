//! Experiment E8 demo — flexible search strategies over one guest (§3.1).
//!
//! The same weighted-search guest runs under DFS, BFS, A* (driven by
//! `sys_guess_hint` distance vectors), memory-bounded SM-A*, and an
//! externally-controlled scheduler. The program never changes — only the
//! strategy object handed to the engine does, which is the paper's point:
//! scheduling policy is separated from the partial candidates.
//!
//! The problem: route-finding on an implicit weighted grid. The guest
//! walks from (0,0) to (size-1,size-1); each step guesses one of two
//! moves (right = cost of the destination column, down = cost of the
//! destination row), reports g (cost so far) and h (Manhattan distance)
//! through the extended guess call, and emits on arrival.
//!
//! ```sh
//! cargo run --release --example puzzle_strategies [size]
//! ```

use lwsnap_core::strategy::{BestFirst, Bfs, Dfs, External, SmaStar, Strategy};
use lwsnap_core::{Engine, EngineConfig, EngineStats, Exit, GuessHint, Guest, GuestState, Reg};

/// Grid-walk guest as a host state machine (registers carry the walk).
struct GridWalk {
    size: u64,
}

// Register roles: r12 = x, r13 = y, r14 = g (path cost), rbx = phase.
impl Guest for GridWalk {
    fn resume(&mut self, st: &mut GuestState) -> Exit {
        loop {
            let (x, y) = (st.regs.get(Reg::R12), st.regs.get(Reg::R13));
            let g = st.regs.get(Reg::R14);
            match st.regs.get(Reg::Rbx) {
                // Apply the move chosen by the engine.
                1 => {
                    let (nx, ny) = if st.regs.get(Reg::Rax) == 0 {
                        (x + 1, y)
                    } else {
                        (x, y + 1)
                    };
                    // Cost: moving right pays the destination column
                    // parity, moving down pays double row parity + 1.
                    let cost = if st.regs.get(Reg::Rax) == 0 {
                        1 + (nx % 3)
                    } else {
                        2 + (ny % 2)
                    };
                    st.regs.set(Reg::R12, nx);
                    st.regs.set(Reg::R13, ny);
                    st.regs.set(Reg::R14, g + cost);
                    st.regs.set(Reg::Rbx, 0);
                }
                2 => {
                    st.regs.set(Reg::Rbx, 3);
                    return Exit::Emit;
                }
                3 => return Exit::Fail,
                _ => {
                    let goal = self.size - 1;
                    if x == goal && y == goal {
                        st.regs.set(Reg::Rbx, 2);
                        return Exit::Output {
                            fd: 1,
                            data: format!("reached goal, cost {g}\n").into_bytes(),
                        };
                    }
                    // Off-grid walks fail.
                    if x > goal || y > goal {
                        return Exit::Fail;
                    }
                    st.regs.set(Reg::Rbx, 1);
                    // h = Manhattan distance (admissible: every move costs >= 1).
                    let h = (goal - x) + (goal - y);
                    return Exit::Guess {
                        n: 2,
                        hint: Some(GuessHint { g, h: vec![h, h] }),
                    };
                }
            }
        }
    }
}

/// Runs one strategy to its first route; returns the route's cost and
/// the run's counters.
fn run(name: &str, strategy: Box<dyn Strategy>, size: u64) -> (u64, EngineStats) {
    let config = EngineConfig {
        max_solutions: Some(1),
        ..Default::default()
    };
    let mut engine = Engine::with_config(strategy, config);
    let start = std::time::Instant::now();
    let result = engine.run(&mut GridWalk { size }, GuestState::new());
    let elapsed = start.elapsed();
    let cost = result
        .transcript_str()
        .lines()
        .next()
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    println!(
        "{:<22} first-solution cost {:>4} | {:>8} steps | frontier peak {:>6} | snapshots peak {:>6} | dropped {:>5} | {elapsed:?}",
        name,
        cost,
        result.stats.extensions_evaluated,
        result.stats.frontier_peak,
        result.stats.snapshots_peak,
        result.stats.dropped_extensions,
    );
    (cost, result.stats)
}

fn main() {
    let size: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    println!(
        "weighted grid walk to ({0},{0}); one engine, five schedulers\n",
        size - 1
    );
    let dfs = run("dfs", Box::new(Dfs::new()), size);
    let bfs = run("bfs", Box::new(Bfs::new()), size);
    let astar = run("a* (guess hints)", Box::new(BestFirst::new()), size);
    let sma = run("sm-a* (cap 64)", Box::new(SmaStar::new(64)), size);
    // External scheduler: an "external entity" that always picks the
    // most recently created extension (a LIFO imposed from outside).
    let external = run(
        "external (newest-first)",
        Box::new(External::new(|pool| Some(pool.len() - 1))),
        size,
    );
    for (_, stats) in [dfs, bfs, astar, sma, external] {
        assert_eq!(stats.solutions, 1, "every strategy finds a route");
    }
    assert!(sma.1.frontier_peak <= 64, "SM-A* stays under its cap");
    assert!(
        sma.1.dropped_extensions > 0,
        "SM-A* drops work to stay there"
    );
    // A* with an admissible h finds a cheapest route. (On this grid
    // every monotone route costs the same, so DFS's first is one too.)
    assert!(astar.0 <= dfs.0, "A* finds no dearer a route than DFS");
    println!("\nA* finds the cheapest route; SM-A* bounds the frontier; DFS commits fast.");
}
