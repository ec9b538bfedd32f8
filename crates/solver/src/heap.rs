//! Indexed max-heap over variable activities (the VSIDS order).
//!
//! A binary heap with an inverse index so that `decrease`/`increase`-key
//! and membership tests are O(log n)/O(1) — the structure MiniSat calls
//! `Heap<VarOrderLt>`.

use crate::lit::Var;

/// Max-heap of variables ordered by an external activity array.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    index: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        VarHeap::default()
    }

    /// Number of queued variables.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no variables are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns `true` if `var` is in the heap.
    pub fn contains(&self, var: Var) -> bool {
        self.index.get(var.index()).copied().unwrap_or(ABSENT) != ABSENT
    }

    fn ensure(&mut self, var: Var) {
        if self.index.len() <= var.index() {
            self.index.resize(var.index() + 1, ABSENT);
        }
    }

    /// Inserts `var` (no-op if present).
    pub fn insert(&mut self, var: Var, activity: &[f64]) {
        self.ensure(var);
        if self.contains(var) {
            return;
        }
        self.heap.push(var);
        self.index[var.index()] = self.heap.len() - 1;
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the most active variable.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.index[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Discards the current heap and re-inserts variables `0..nvars` in
    /// ascending order. The resulting layout is a pure function of
    /// `(nvars, activity)` — the *snapshot normal form* of the decision
    /// order, reproduced identically by every solver that rebuilds from
    /// the same activities (ties resolved by insertion order).
    pub fn rebuild(&mut self, nvars: usize, activity: &[f64]) {
        self.heap.clear();
        self.index.clear();
        self.index.resize(nvars, ABSENT);
        for v in 0..nvars {
            let var = Var(v as u32);
            self.heap.push(var);
            self.index[v] = self.heap.len() - 1;
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the heap property after `var`'s activity increased.
    pub fn bumped(&mut self, var: Var, activity: &[f64]) {
        if let Some(&pos) = self.index.get(var.index()) {
            if pos != ABSENT {
                self.sift_up(pos, activity);
            }
        }
    }

    fn less(&self, a: usize, b: usize, activity: &[f64]) -> bool {
        // Max-heap: parent must have the *larger* activity.
        activity[self.heap[a].index()] > activity[self.heap[b].index()]
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = a;
        self.index[self.heap[b].index()] = b;
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent, activity) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.less(l, best, activity) {
                best = l;
            }
            if r < self.heap.len() && self.less(r, best, activity) {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self, activity: &[f64]) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                activity[self.heap[parent].index()] >= activity[self.heap[i].index()],
                "heap property violated at {i}"
            );
        }
        for (i, &v) in self.heap.iter().enumerate() {
            assert_eq!(self.index[v.index()], i, "inverse index broken");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut heap = VarHeap::new();
        for i in 0..4 {
            heap.insert(Var(i), &activity);
        }
        heap.check_invariants(&activity);
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop(&activity))
            .map(|v| v.0)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut heap = VarHeap::new();
        heap.insert(Var(0), &activity);
        heap.insert(Var(0), &activity);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn bumped_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = VarHeap::new();
        for i in 0..3 {
            heap.insert(Var(i), &activity);
        }
        // Var 0 becomes the most active.
        activity[0] = 10.0;
        heap.bumped(Var(0), &activity);
        heap.check_invariants(&activity);
        assert_eq!(heap.pop(&activity), Some(Var(0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0; 4];
        let mut heap = VarHeap::new();
        heap.insert(Var(2), &activity);
        assert!(heap.contains(Var(2)));
        assert!(!heap.contains(Var(1)));
        assert!(!heap.contains(Var(3)));
        heap.pop(&activity);
        assert!(!heap.contains(Var(2)));
        assert!(heap.is_empty());
    }

    #[test]
    fn random_ops_keep_invariants() {
        // Deterministic pseudo-random workout.
        let n = 64usize;
        let mut activity: Vec<f64> = (0..n).map(|i| (i * 7919 % 97) as f64).collect();
        let mut heap = VarHeap::new();
        let mut rng = 0x12345u64;
        for step in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let v = Var((rng % n as u64) as u32);
            match step % 3 {
                0 => heap.insert(v, &activity),
                1 => {
                    activity[v.index()] += 5.0;
                    heap.bumped(v, &activity);
                }
                _ => {
                    heap.pop(&activity);
                }
            }
            if step % 100 == 0 {
                heap.check_invariants(&activity);
            }
        }
        heap.check_invariants(&activity);
    }
}
