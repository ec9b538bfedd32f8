//! Deterministic fault injection at the protocol boundary.
//!
//! Chaos that cannot be replayed is noise; chaos that changes verdicts
//! is a broken harness. This module threads both needles:
//!
//! * **Determinism** — every decision is a pure function of a seed and
//!   the *content* of the frame it applies to ([`ChaosPolicy::decide`]
//!   hashes `seed ⊕ key` through [`mix64`]). Nothing depends on
//!   wall-clock time, thread interleaving, or how many frames happened
//!   to come before — so a seeded run injects the same faults no matter
//!   how the scheduler slices it, and a failure reproduces from its
//!   seed alone.
//! * **Verdict safety** — faults apply ONLY to the home node's
//!   fire-and-forget replication frames (`Replicate`, `Unreplicate`),
//!   whose loss the system is *designed* to absorb: a client re-ships
//!   its own copy of the path log to the replica before it asks for a
//!   promotion, and that healing path is exempt. Data-plane `Solve`
//!   frames are never touched: dropping one would change the verdict
//!   stream, which is the invariant the harness exists to check.
//!
//! Node kills are scheduled by [`ChaosPlan`], the loadgen-facing
//! wrapper that parses a `--chaos-mode` list and derives the victim
//! from the seed.

use std::time::Duration;

use crate::router::mix64;

/// Content-stable chaos key of a session root. Wire problem ids are
/// allocation-order artifacts — two runs can mint different ids for
/// the same logical problem — so chaos decisions key on a hash of what
/// the problem *is* instead:
/// the session for a root, and the clause path for every derivation
/// ([`stable_key`]).
pub fn root_key(session: u64) -> u64 {
    mix64(session ^ 0x726f_6f74) // "root"
}

/// Folds one derivation edge's content into its parent's stable key:
/// the child's key hashes the parent's key with the added clauses, so
/// the same logical edge gets the same fate on every run, no matter
/// what wire ids were allocated for it.
pub fn stable_key(parent_key: u64, clauses: &[Vec<i64>]) -> u64 {
    let mut h = mix64(parent_key ^ 0x6564_6765); // "edge"
    for clause in clauses {
        h = mix64(h ^ clause.len() as u64);
        for &lit in clause {
            h = mix64(h ^ lit as u64);
        }
    }
    h
}

/// What to do with one replication-plane frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Send it, once, now.
    Deliver,
    /// Pretend the network ate it.
    Drop,
    /// Send it twice (the receiver must deduplicate).
    Duplicate,
    /// Hold it for the given pause, then send it.
    Delay(Duration),
}

/// A seeded, content-keyed fault-injection policy; see the module docs.
#[derive(Debug, Clone)]
pub struct ChaosPolicy {
    seed: u64,
    /// Per-256 probability weights for each fault; the remainder of
    /// the roll space delivers cleanly.
    drop_w: u32,
    duplicate_w: u32,
    delay_w: u32,
    max_delay: Duration,
}

impl ChaosPolicy {
    /// A policy that injects nothing (every decision is `Deliver`).
    pub fn quiet(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            drop_w: 0,
            duplicate_w: 0,
            delay_w: 0,
            max_delay: Duration::from_millis(2),
        }
    }

    /// Enables frame drops at `w`/256 probability.
    pub fn with_drops(mut self, w: u32) -> ChaosPolicy {
        self.drop_w = w;
        self
    }

    /// Enables frame duplication at `w`/256 probability.
    pub fn with_duplicates(mut self, w: u32) -> ChaosPolicy {
        self.duplicate_w = w;
        self
    }

    /// Enables frame delays at `w`/256 probability, each at most
    /// `max_delay` long.
    pub fn with_delays(mut self, w: u32, max_delay: Duration) -> ChaosPolicy {
        self.delay_w = w;
        self.max_delay = max_delay;
        self
    }

    /// The fate of the frame identified by `key`. Pure: the same
    /// `(seed, key)` always decides the same fate.
    pub fn decide(&self, key: u64) -> ChaosAction {
        let h = mix64(self.seed ^ key);
        let roll = (h & 0xff) as u32;
        if roll < self.drop_w {
            ChaosAction::Drop
        } else if roll < self.drop_w + self.duplicate_w {
            ChaosAction::Duplicate
        } else if roll < self.drop_w + self.duplicate_w + self.delay_w {
            let span = self.max_delay.as_micros().max(1) as u64;
            ChaosAction::Delay(Duration::from_micros((h >> 8) % span))
        } else {
            ChaosAction::Deliver
        }
    }

    /// Whether any fault has nonzero weight.
    pub fn is_active(&self) -> bool {
        self.drop_w + self.duplicate_w + self.delay_w > 0
    }
}

/// A loadgen/CI-facing chaos schedule: which fault classes a run
/// enables and (seeded) which node dies at the midpoint barrier.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The schedule seed every decision derives from.
    pub seed: u64,
    /// Kill one node at the midpoint barrier.
    pub kill: bool,
    /// Drop replication-plane frames.
    pub drop: bool,
    /// Duplicate replication-plane frames.
    pub duplicate: bool,
    /// Delay replication-plane frames.
    pub delay: bool,
}

impl ChaosPlan {
    /// Parses a comma-separated `--chaos-mode` list (`kill`, `drop`,
    /// `duplicate`, `delay`; e.g. `"kill,drop"`). `None` on an unknown
    /// mode name.
    pub fn parse(seed: u64, modes: &str) -> Option<ChaosPlan> {
        let mut plan = ChaosPlan {
            seed,
            kill: false,
            drop: false,
            duplicate: false,
            delay: false,
        };
        for mode in modes.split(',').map(str::trim).filter(|m| !m.is_empty()) {
            match mode {
                "kill" => plan.kill = true,
                "drop" => plan.drop = true,
                "duplicate" => plan.duplicate = true,
                "delay" => plan.delay = true,
                _ => return None,
            }
        }
        Some(plan)
    }

    /// The frame-level policy this plan implies (inactive if only
    /// `kill` is enabled — kills are scheduled, not rolled per frame).
    pub fn policy(&self) -> ChaosPolicy {
        let mut policy = ChaosPolicy::quiet(self.seed);
        if self.drop {
            policy = policy.with_drops(32);
        }
        if self.duplicate {
            policy = policy.with_duplicates(32);
        }
        if self.delay {
            policy = policy.with_delays(32, Duration::from_millis(2));
        }
        policy
    }

    /// The seeded victim choice: which of `candidates` sessions' home
    /// nodes dies at the midpoint (the caller maps it onto the ring).
    pub fn victim_index(&self, candidates: usize) -> usize {
        (mix64(self.seed ^ 0x6b69_6c6c) % candidates.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_and_key() {
        let policy = ChaosPolicy::quiet(42)
            .with_drops(32)
            .with_duplicates(32)
            .with_delays(32, Duration::from_millis(2));
        for key in 0..512u64 {
            assert_eq!(
                policy.decide(key),
                policy.decide(key),
                "chaos must be deterministic"
            );
        }
        // A different seed decides differently somewhere.
        let other = ChaosPolicy::quiet(43)
            .with_drops(32)
            .with_duplicates(32)
            .with_delays(32, Duration::from_millis(2));
        assert!(
            (0..512u64).any(|k| policy.decide(k) != other.decide(k)),
            "seeds must matter"
        );
    }

    #[test]
    fn rolls_hit_every_enabled_fault_class() {
        let policy = ChaosPolicy::quiet(1)
            .with_drops(32)
            .with_duplicates(32)
            .with_delays(32, Duration::from_millis(2));
        let decisions: Vec<ChaosAction> = (0..2048u64).map(|k| policy.decide(k)).collect();
        assert!(decisions.contains(&ChaosAction::Drop));
        assert!(decisions.contains(&ChaosAction::Duplicate));
        assert!(decisions.iter().any(|d| matches!(d, ChaosAction::Delay(_))));
        assert!(decisions.contains(&ChaosAction::Deliver));
        // And every delay respects the cap.
        for d in &decisions {
            if let ChaosAction::Delay(pause) = d {
                assert!(*pause <= Duration::from_millis(2));
            }
        }
    }

    #[test]
    fn stable_keys_depend_on_content_not_allocation_order() {
        let root = root_key(42);
        assert_eq!(root, root_key(42), "pure in the session");
        assert_ne!(root, root_key(43));
        let a = stable_key(root, &[vec![1, -2]]);
        // Recomputing the same edge from the same parent is stable —
        // no wire id, counter, or ordering feeds the key.
        assert_eq!(a, stable_key(root, &[vec![1, -2]]));
        // Content matters: different clauses, different key.
        assert_ne!(a, stable_key(root, &[vec![1, 2]]));
        assert_ne!(a, stable_key(root, &[vec![1], vec![-2]]));
        // Lineage matters: the same clauses under another parent.
        assert_ne!(a, stable_key(stable_key(root, &[vec![3]]), &[vec![1, -2]]));
    }

    #[test]
    fn plans_parse_and_reject_unknown_modes() {
        let plan = ChaosPlan::parse(9, "kill,drop").unwrap();
        assert!(plan.kill && plan.drop && !plan.duplicate && !plan.delay);
        assert!(plan.policy().is_active());
        let quiet = ChaosPlan::parse(9, "kill").unwrap();
        assert!(!quiet.policy().is_active(), "kill alone rolls no frames");
        assert!(ChaosPlan::parse(9, "explode").is_none());
        let all = ChaosPlan::parse(9, "kill, drop, duplicate, delay").unwrap();
        assert!(all.kill && all.drop && all.duplicate && all.delay);
    }
}
