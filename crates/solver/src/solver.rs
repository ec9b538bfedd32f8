//! The CDCL SAT solver core.
//!
//! A MiniSat-family solver: two-watched-literal propagation, first-UIP
//! conflict analysis with one-step clause minimisation, VSIDS decision
//! order with phase saving, Luby restarts, activity-based learnt-clause
//! reduction, and assumption-based incremental solving.
//!
//! Incrementality is the paper's §2 motivation: "an incremental solver
//! given formula p immediately followed by formula p∧q can solve both in
//! less time than solving p and then solving p∧q from scratch". Here that
//! reuse comes from (a) the retained learnt clauses and variable
//! activities across [`Solver::solve`] calls, and (b) cloning the whole
//! solver as a state snapshot (see `service.rs`).

use crate::heap::VarHeap;
use crate::lit::{Lbool, Lit, Var};

/// Sentinel for "no clause".
const CREF_NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: u32,
    pub(crate) blocker: Lit,
}

/// Solver run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Learnt clauses removed by database reduction.
    pub removed_clauses: u64,
}

/// Result of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

/// A CDCL SAT solver.
///
/// `Clone` is intentional and cheap relative to solving: a clone is a
/// *solver-state snapshot* carrying the clause database, learnt clauses
/// and heuristic state — the building block of the multi-path incremental
/// service.
#[derive(Clone)]
pub struct Solver {
    // Clause storage: [header][lit...]* where header = len << 1 | learnt.
    // Fields are pub(crate) for the snapshot codec (`crate::snapshot`):
    // essential state is serialized verbatim, already canonical, while
    // derived state (watches, decision heap, `seen`) is rebuilt by
    // [`Solver::rebuild_derived`] — the derived half of the
    // normalization every solve ends with — so a restored snapshot
    // cannot diverge from the original.
    pub(crate) arena: Vec<u32>,
    pub(crate) clauses: Vec<u32>,
    pub(crate) learnts: Vec<u32>,
    pub(crate) learnt_act: Vec<f64>,
    /// One list per literal of the `num_vars()` variables. Lists past
    /// them are empty spares: a snapshot restored over a solver with
    /// more variables keeps their capacity for the next one that needs
    /// them.
    pub(crate) watches: Vec<Vec<Watcher>>,
    pub(crate) assigns: Vec<Lbool>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<u32>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    pub(crate) cla_inc: f64,
    pub(crate) order: VarHeap,
    pub(crate) polarity: Vec<bool>,
    pub(crate) seen: Vec<bool>,
    pub(crate) ok: bool,
    pub(crate) model: Vec<Lbool>,
    pub(crate) max_learnts: f64,
    pub(crate) stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            learnt_act: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Lbool::Undef);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        let lits = 2 * self.assigns.len();
        if self.watches.len() < lits {
            self.watches.resize_with(lits, Vec::new);
        }
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            self.new_var();
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Approximate heap footprint of this solver snapshot, in bytes:
    /// the clause arena (problem + learnt clauses) plus the per-variable
    /// assignment/heuristic state and per-literal watch lists. Used by
    /// the service's byte-cost eviction budget; it deliberately counts
    /// capacity-independent payload (`len`, not `capacity`) so the
    /// estimate is stable across allocator behaviour.
    pub fn footprint_bytes(&self) -> usize {
        let arena = self.arena.len() * std::mem::size_of::<u32>();
        let clause_index = (self.clauses.len() + self.learnts.len()) * std::mem::size_of::<u32>()
            + self.learnt_act.len() * std::mem::size_of::<f64>();
        // Per variable: assigns + level + reason + activity + polarity +
        // seen + model + two watch-list headers + heap slot.
        let per_var = std::mem::size_of::<Lbool>()
            + std::mem::size_of::<u32>() * 2
            + std::mem::size_of::<f64>()
            + 2
            + std::mem::size_of::<Lbool>()
            + 2 * std::mem::size_of::<Vec<Watcher>>()
            + std::mem::size_of::<u32>();
        let vars = self.assigns.len() * per_var;
        let watchers: usize = self
            .watches
            .iter()
            .map(|w| w.len() * std::mem::size_of::<Watcher>())
            .sum();
        let trail = self.trail.len() * std::mem::size_of::<Lit>();
        std::mem::size_of::<Solver>() + arena + clause_index + vars + watchers + trail
    }

    /// Run counters.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.learnts.len() as u64;
        s
    }

    /// `false` if the formula is already known unsatisfiable at level 0.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // -- clause arena ---------------------------------------------------

    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let cref = self.arena.len() as u32;
        self.arena.push((lits.len() as u32) << 1 | learnt as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        cref
    }

    #[inline]
    fn clause_len(&self, cref: u32) -> usize {
        (self.arena[cref as usize] >> 1) as usize
    }

    #[inline]
    fn is_learnt(&self, cref: u32) -> bool {
        self.arena[cref as usize] & 1 != 0
    }

    #[inline]
    fn lit_at(&self, cref: u32, i: usize) -> Lit {
        Lit(self.arena[cref as usize + 1 + i])
    }

    #[inline]
    fn set_lit(&mut self, cref: u32, i: usize, lit: Lit) {
        self.arena[cref as usize + 1 + i] = lit.0;
    }

    // -- assignment -----------------------------------------------------

    /// Truth value of a literal under the current assignment.
    #[inline]
    pub fn value(&self, lit: Lit) -> Lbool {
        self.assigns[lit.var().index()].of_lit(lit)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, lit: Lit, from: u32) {
        debug_assert_eq!(self.value(lit), Lbool::Undef);
        let v = lit.var().index();
        self.assigns[v] = Lbool::from_bool(!lit.sign());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(lit);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            self.polarity[v] = lit.sign();
            self.assigns[v] = Lbool::Undef;
            self.reason[v] = CREF_NONE;
            self.order.insert(lit.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    // -- clause addition ------------------------------------------------

    /// Adds a problem clause; returns `false` if the formula became
    /// trivially unsatisfiable.
    ///
    /// Must be called at decision level 0 (i.e. not mid-solve).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause mid-solve");
        if !self.ok {
            return false;
        }
        for l in lits {
            self.ensure_vars(l.var().index() + 1);
        }
        // Normalise: sort, dedupe, drop false@0, detect tautology/sat@0.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut prev: Option<Lit> = None;
        for &l in &ls {
            if prev == Some(!l) {
                return true; // tautology: x ∨ ¬x
            }
            match self.value(l) {
                Lbool::True => return true, // already satisfied at level 0
                Lbool::False => {}          // drop falsified literal
                Lbool::Undef => out.push(l),
            }
            prev = Some(l);
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], CREF_NONE);
                self.ok = self.propagate() == CREF_NONE;
                self.ok
            }
            _ => {
                let cref = self.alloc(&out, false);
                self.clauses.push(cref);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: u32) {
        let l0 = self.lit_at(cref, 0);
        let l1 = self.lit_at(cref, 1);
        self.watches[l0.index()].push(Watcher { cref, blocker: l1 });
        self.watches[l1.index()].push(Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: u32) {
        // Swap-remove at the found index: `retain` would keep scanning
        // (and shifting) the whole watch list after the hit, an O(n)
        // compaction per removal that dominates bulk clause deletion.
        // Watcher order within a list carries no meaning, so the swap
        // is semantics-preserving.
        for lit in [self.lit_at(cref, 0), self.lit_at(cref, 1)] {
            let ws = &mut self.watches[lit.index()];
            if let Some(at) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(at);
            }
        }
    }

    // -- propagation ----------------------------------------------------

    /// Unit propagation; returns the conflicting clause or `CREF_NONE`.
    fn propagate(&mut self) -> u32 {
        let mut conflict = CREF_NONE;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Visit clauses watching ¬p (now false).
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == Lbool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalise: the false literal goes to slot 1.
                if self.lit_at(cref, 0) == false_lit {
                    let other = self.lit_at(cref, 1);
                    self.set_lit(cref, 0, other);
                    self.set_lit(cref, 1, false_lit);
                }
                let first = self.lit_at(cref, 0);
                if self.value(first) == Lbool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clause_len(cref) {
                    let lk = self.lit_at(cref, k);
                    if self.value(lk) != Lbool::False {
                        self.set_lit(cref, 1, lk);
                        self.set_lit(cref, k, false_lit);
                        self.watches[lk.index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[i].blocker = first;
                if self.value(first) == Lbool::False {
                    conflict = cref;
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, cref);
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
            if conflict != CREF_NONE {
                break;
            }
        }
        conflict
    }

    // -- activities -----------------------------------------------------

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, learnt_idx: usize) {
        self.learnt_act[learnt_idx] += self.cla_inc;
        if self.learnt_act[learnt_idx] > 1e20 {
            for a in &mut self.learnt_act {
                *a *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    // -- conflict analysis ----------------------------------------------

    /// First-UIP learning; returns (learnt clause, backtrack level).
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0: asserting literal
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();

        loop {
            debug_assert_ne!(confl, CREF_NONE);
            if self.is_learnt(confl) {
                if let Some(idx) = self.learnts.iter().position(|&c| c == confl) {
                    self.cla_bump(idx);
                }
            }
            let start = if p.is_none() { 0 } else { 1 };
            for j in start..self.clause_len(confl) {
                let q = self.lit_at(confl, j);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            confl = self.reason[lit.var().index()];
            self.seen[lit.var().index()] = false;
            path -= 1;
            if path == 0 {
                break;
            }
        }
        learnt[0] = !p.expect("asserting literal");

        // One-step self-subsumption minimisation: a literal is redundant
        // if every other literal of its reason clause is already seen (or
        // at level 0).
        let mut keep = vec![true; learnt.len()];
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let r = self.reason[l.var().index()];
            if r == CREF_NONE {
                continue;
            }
            let mut redundant = true;
            for j in 0..self.clause_len(r) {
                let q = self.lit_at(r, j);
                if q.var() == l.var() {
                    continue;
                }
                if !self.seen[q.var().index()] && self.level[q.var().index()] > 0 {
                    redundant = false;
                    break;
                }
            }
            keep[i] = !redundant;
        }
        let mut filtered: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&l, _)| l)
            .collect();

        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Backtrack level = second-highest level in the clause.
        let bt = if filtered.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..filtered.len() {
                if self.level[filtered[i].var().index()] > self.level[filtered[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            filtered.swap(1, max_i);
            self.level[filtered[1].var().index()]
        };
        (filtered, bt)
    }

    // -- learnt DB reduction ---------------------------------------------

    fn locked(&self, cref: u32) -> bool {
        let l0 = self.lit_at(cref, 0);
        self.value(l0) == Lbool::True && self.reason[l0.var().index()] == cref
    }

    fn reduce_db(&mut self) {
        // Sort learnt indices by activity ascending; drop the lazier half
        // (unless locked or binary).
        let mut idx: Vec<usize> = (0..self.learnts.len()).collect();
        idx.sort_by(|&a, &b| {
            self.learnt_act[a]
                .partial_cmp(&self.learnt_act[b])
                .expect("no NaN activity")
        });
        let target = self.learnts.len() / 2;
        let mut removed = Vec::new();
        for &i in idx.iter().take(target) {
            let cref = self.learnts[i];
            if self.clause_len(cref) > 2 && !self.locked(cref) {
                removed.push(i);
            }
        }
        removed.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back
        for i in removed {
            let cref = self.learnts[i];
            self.detach(cref);
            self.learnts.swap_remove(i);
            self.learnt_act.swap_remove(i);
            self.stats.removed_clauses += 1;
        }
    }

    // -- snapshot normal form -------------------------------------------

    /// Canonicalizes the solver's derived state at quiescence (decision
    /// level 0, propagation complete) into the *snapshot normal form*:
    /// a layout that is a pure function of the essential state (clause
    /// database, assignment, activities), independent of the search path
    /// that produced it.
    ///
    /// Why this exists: two solvers in semantically identical states can
    /// differ wildly in byte layout — propagation permutes clause
    /// literals and watcher lists, `cancel_until` leaves stale `level`
    /// values for unassigned variables, and the decision heap records an
    /// arbitrary permutation. For the page-granular CoW snapshot store
    /// that byte noise is pure cost: a child snapshot would dirty almost
    /// every page even when it only added a handful of clauses. Running
    /// this pass after every solve makes encodings of equal states
    /// bit-equal, so a child's delta is proportional to what actually
    /// changed.
    ///
    /// The pass has two halves: [`Solver::canonicalize`] rewrites the
    /// essential state, [`Solver::rebuild_derived`] recomputes what
    /// follows from it. Every stored snapshot image is the output of
    /// this pass, so the codec's decode runs only the second half.
    pub(crate) fn normalize(&mut self) {
        self.canonicalize();
        self.rebuild_derived();
    }

    /// The essential half of [`Solver::normalize`]: stale per-variable
    /// fields zeroed, and each clause's literals in canonical order.
    fn canonicalize(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "normalize mid-solve");
        debug_assert_eq!(self.qhead, self.trail.len(), "normalize mid-propagation");
        // Stale per-variable fields: `cancel_until` resets assignment and
        // reason but leaves `level` at its last value for unassigned vars.
        for v in 0..self.assigns.len() {
            if self.assigns[v] == Lbool::Undef {
                self.level[v] = 0;
                self.reason[v] = CREF_NONE;
            }
        }
        // Canonical literal order and watch choice per clause, problem
        // clauses first. `canonicalize_clause` touches only the arena.
        for i in 0..self.clauses.len() {
            self.canonicalize_clause(self.clauses[i]);
        }
        for i in 0..self.learnts.len() {
            self.canonicalize_clause(self.learnts[i]);
        }
    }

    /// The derived half of [`Solver::normalize`]: `seen` cleared, watch
    /// lists rebuilt in clause-database order, and the decision heap
    /// rebuilt from the activities. A pure function of the essential
    /// state, so a decoded snapshot gets exactly the live solver's.
    pub(crate) fn rebuild_derived(&mut self) {
        self.seen.iter_mut().for_each(|s| *s = false);
        for ws in &mut self.watches {
            ws.clear();
        }
        for i in 0..self.clauses.len() {
            let cref = self.clauses[i];
            self.attach(cref);
        }
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            self.attach(cref);
        }
        // Decision heap: pure function of the activity array.
        self.order.rebuild(self.assigns.len(), &self.activity);
    }

    /// Whether the essential state is already canonical, i.e. whether
    /// [`Solver::canonicalize`] would leave it as it is. What the codec
    /// asserts of every image it decodes (debug builds).
    pub(crate) fn is_canonical(&self) -> bool {
        let mut canonical = self.clone();
        canonical.canonicalize();
        canonical.arena == self.arena
            && canonical.level == self.level
            && canonical.reason == self.reason
    }

    /// Sorts a clause's literals ascending and moves the canonical watch
    /// pair into slots 0 and 1: the two smallest literals not false at
    /// level 0. Sound at quiescence because level-0 propagation is
    /// complete — if exactly one literal is non-false it is necessarily
    /// true (the clause is satisfied and the second watch is inert), and
    /// if none is, the solver is in a conflicting state (`ok == false`)
    /// where watches are never consulted again.
    fn canonicalize_clause(&mut self, cref: u32) {
        let len = self.clause_len(cref);
        let base = cref as usize + 1;
        self.arena[base..base + len].sort_unstable();
        let (mut w0, mut w1) = (None, None);
        for i in 0..len {
            if self.value(Lit(self.arena[base + i])) != Lbool::False {
                if w0.is_none() {
                    w0 = Some(i);
                } else {
                    w1 = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = w0 {
            self.arena.swap(base, base + i);
            if let Some(j) = w1 {
                // j > i always, so the first swap cannot move slot j.
                self.arena.swap(base + 1, base + j);
            }
        }
    }

    // -- search ---------------------------------------------------------

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()] == Lbool::Undef {
                // Phase saving: repeat the last polarity.
                return Some(v.lit(self.polarity[v.index()]));
            }
        }
        None
    }

    /// One restart-bounded search episode. `Some(result)` or `None` for
    /// "restart budget exhausted".
    fn search(&mut self, max_conflicts: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            let confl = self.propagate();
            if confl != CREF_NONE {
                conflicts += 1;
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                // Never backtrack into the assumption prefix's middle:
                // cancel to max(bt, assumption levels already implied)?
                // Assumption levels re-establish themselves on re-descent,
                // so plain bt is sound here.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], CREF_NONE);
                } else {
                    let cref = self.alloc(&learnt, true);
                    self.learnts.push(cref);
                    self.learnt_act.push(self.cla_inc);
                    self.attach(cref);
                    self.unchecked_enqueue(learnt[0], cref);
                }
                self.var_decay();
                self.cla_decay();
            } else {
                if conflicts >= max_conflicts {
                    self.cancel_until(0);
                    return None; // restart
                }
                if self.learnts.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                // Extend with assumptions first.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        Lbool::True => self.new_decision_level(),
                        Lbool::False => return Some(SolveResult::Unsat),
                        Lbool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(a) => a,
                    None => match self.pick_branch() {
                        Some(l) => l,
                        None => {
                            // Complete assignment: SAT.
                            self.model = self.assigns.clone();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.unchecked_enqueue(decision, CREF_NONE);
            }
        }
    }

    /// Solves the formula (no assumptions).
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Learnt clauses and heuristic state persist across calls — this is
    /// the incremental interface.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.cancel_until(0);
        if !self.ok {
            // `add_clause` can leave a level-0 conflict behind: every
            // solve ends in normal form, this one too.
            self.normalize();
            return SolveResult::Unsat;
        }
        for a in assumptions {
            self.ensure_vars(a.var().index() + 1);
        }
        if self.max_learnts < 1.0 {
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(1000.0);
        }
        let mut episode = 0u64;
        loop {
            let budget = 100 * luby(2, episode);
            match self.search(budget, assumptions) {
                Some(result) => {
                    self.cancel_until(0);
                    self.normalize();
                    return result;
                }
                None => {
                    self.stats.restarts += 1;
                    episode += 1;
                }
            }
        }
    }

    /// The model value of a variable after a SAT result.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index())? {
            Lbool::True => Some(true),
            Lbool::False => Some(false),
            Lbool::Undef => None,
        }
    }

    /// The full model as booleans (unassigned variables default `false`).
    pub fn model(&self) -> Vec<bool> {
        self.model.iter().map(|&b| b == Lbool::True).collect()
    }
}

/// `true` iff `model` satisfies every clause (variables beyond the
/// model's length read as false).
///
/// The one canonical implementation of the check every harness in the
/// workspace uses to validate returned models against a constraint
/// stack — keep verification logic here, next to the encoding it must
/// agree with ([`crate::lit::Lit::sign`] is `true` for negation).
pub fn model_satisfies(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
    clauses.iter().all(|clause| {
        clause
            .iter()
            .any(|l| model.get(l.var().index()).copied().unwrap_or(false) != l.sign())
    })
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
pub fn luby(y: u64, mut x: u64) -> u64 {
    // Find the finite subsequence containing x and its position.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.pow(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v)
    }

    fn solver_with(clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&v| lit(v)).collect();
            s.add_clause(&ls);
        }
        s
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(|i| luby(2, i)).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_clauses() {
        let mut s = solver_with(&[&[1], &[-2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(Var(0)), Some(true));
        assert_eq!(s.model_value(Var(1)), Some(false));
    }

    #[test]
    fn direct_contradiction() {
        let mut s = solver_with(&[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn simple_implication_chain() {
        // x1 ∧ (x1→x2) ∧ (x2→x3) ∧ ¬x3 : UNSAT.
        let mut s = solver_with(&[&[1], &[-1, 2], &[-2, 3], &[-3]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn satisfiable_3sat() {
        let mut s = solver_with(&[&[1, 2, 3], &[-1, -2], &[-1, -3], &[-2, -3], &[1, -2, 3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Exactly one of x1..x3 true (given the pairwise exclusions).
        let m = s.model();
        let count = m.iter().take(3).filter(|&&b| b).count();
        assert_eq!(count, 1, "model: {m:?}");
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i64>> = vec![
            vec![1, 2, -3],
            vec![-1, 3, 4],
            vec![2, -4, 5],
            vec![-2, -5, 1],
            vec![3, -1, -5],
            vec![-3, 4, 2],
        ];
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(&refs);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model();
        for c in &clauses {
            assert!(
                c.iter().any(|&v| {
                    let val = m[(v.unsigned_abs() - 1) as usize];
                    if v > 0 {
                        val
                    } else {
                        !val
                    }
                }),
                "clause {c:?} unsatisfied by {m:?}"
            );
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeon i in {0,1,2} occupies hole j in {0,1}; vars p(i,j).
        let var = |i: i64, j: i64| i * 2 + j + 1;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![var(i, 0), var(i, 1)]); // each pigeon somewhere
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in a + 1..3 {
                    clauses.push(vec![-var(a, j), -var(b, j)]); // no sharing
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(&refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0, "required real search");
    }

    #[test]
    fn tautology_and_duplicates_handled() {
        let mut s = Solver::new();
        assert!(
            s.add_clause(&[lit(1), lit(-1)]),
            "tautology is trivially true"
        );
        assert!(s.add_clause(&[lit(2), lit(2), lit(3)]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_basic() {
        // (x1 ∨ x2) with assumption ¬x1 forces x2.
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve_under(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(Var(1)), Some(true));
        // Conflicting assumptions: UNSAT under, SAT without.
        assert_eq!(s.solve_under(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.is_ok(), "assumption-UNSAT must not poison the solver");
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(-1)]);
        s.add_clause(&[lit(-2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn learnt_clauses_accumulate() {
        // A formula that forces some conflicts: XOR-like chains.
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        let n = 12i64;
        for i in 1..n {
            clauses.push(vec![i, i + 1]);
            clauses.push(vec![-i, -(i + 1)]);
        }
        clauses.push(vec![1]);
        let refs: Vec<&[i64]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(&refs);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Alternating chain: x1, ¬x2, x3, ...
        assert_eq!(s.model_value(Var(0)), Some(true));
        assert_eq!(s.model_value(Var(1)), Some(false));
        assert_eq!(s.model_value(Var(2)), Some(true));
    }

    #[test]
    fn stats_populated() {
        let mut s = solver_with(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2, 3]]);
        s.solve();
        let st = s.stats();
        assert!(st.decisions > 0 || st.propagations > 0);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = solver_with(&[&[1, 2]]);
        let mut b = a.clone();
        b.add_clause(&[lit(-1)]);
        b.add_clause(&[lit(-2)]);
        assert_eq!(b.solve(), SolveResult::Unsat);
        assert_eq!(
            a.solve(),
            SolveResult::Sat,
            "original unaffected by clone's clauses"
        );
    }
}
