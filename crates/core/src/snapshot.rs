//! Lightweight immutable execution snapshots and the snapshot tree.
//!
//! A [`Snapshot`] is the paper's *partial candidate*: an immutable register
//! file, an immutable logical copy of the entire address space, and an
//! immutable view of the files — plus an optional application extension
//! (used e.g. by the symbolic-execution crate to attach path constraints).
//!
//! Snapshots live in a [`SnapshotTree`]. Every unevaluated extension step
//! holds one *pending reference* on its parent snapshot; when the last
//! pending reference is consumed the snapshot's storage is reclaimed. This
//! is how the engine sustains the paper's "rapid creation (and destruction)
//! of snapshot trees".

use std::any::Any;
use std::sync::Arc;

use lwsnap_fs::FsView;
use lwsnap_mem::AddressSpace;

use crate::guest::GuestState;
use crate::registers::RegisterFile;

/// Opaque application data carried along with a snapshot (e.g. symbolic
/// path constraints). Shared immutably via `Arc`.
pub type ExtData = Arc<dyn Any + Send + Sync>;

/// Identifier of a snapshot within one [`SnapshotTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u32);

/// An immutable partial candidate.
///
/// All fields are private: a snapshot can only be *restored* into a
/// mutable [`GuestState`] — a fresh one ([`Snapshot::materialize`]) or an
/// existing one, in place ([`Snapshot::restore_into`]) — never mutated.
#[derive(Clone)]
pub struct Snapshot {
    regs: RegisterFile,
    mem: AddressSpace,
    fs: FsView,
    ext: Option<ExtData>,
    depth: u64,
    gcost: u64,
    parent: Option<SnapshotId>,
}

impl Snapshot {
    /// Captures the current guest state as an immutable snapshot.
    ///
    /// Capture is O(1): the address space and file view are structurally
    /// shared, and divergence is paid lazily via copy-on-write. The
    /// address space's read caches are not captured, since no restore
    /// reads them.
    pub fn capture(state: &GuestState, parent: Option<SnapshotId>) -> Snapshot {
        Snapshot {
            regs: state.regs,
            mem: state.mem.snapshot(),
            fs: state.fs.clone(),
            ext: state.ext.clone(),
            depth: state.depth,
            gcost: state.gcost,
            parent,
        }
    }

    /// Produces a fresh mutable guest state starting from this snapshot.
    ///
    /// This is the constructor for a first restore; once a state exists,
    /// [`Snapshot::restore_into`] reuses it.
    pub fn materialize(&self) -> GuestState {
        GuestState {
            regs: self.regs,
            mem: self.mem.clone(),
            fs: self.fs.clone(),
            ext: self.ext.clone(),
            depth: self.depth,
            gcost: self.gcost,
            steps: 0,
        }
    }

    /// Makes `state` what [`Snapshot::materialize`] would return, in place.
    ///
    /// Every shared part — table root, region map, volume, descriptors,
    /// console buffers, extension — is re-pointed only if `state` does not
    /// already share it with this snapshot, and the address space keeps
    /// whichever read caches are still valid. Restoring a sibling of a
    /// read-only path therefore moves no reference count at all.
    pub fn restore_into(&self, state: &mut GuestState) {
        state.regs = self.regs;
        state.mem.restore_from(&self.mem);
        state.fs.restore_from(&self.fs);
        match (&state.ext, &self.ext) {
            (Some(have), Some(want)) if Arc::ptr_eq(have, want) => {}
            _ => state.ext = self.ext.clone(),
        }
        state.depth = self.depth;
        state.gcost = self.gcost;
        state.steps = 0;
    }

    /// The captured register file.
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// The captured (immutable) address space.
    pub fn mem(&self) -> &AddressSpace {
        &self.mem
    }

    /// The captured (immutable) file view.
    pub fn fs(&self) -> &FsView {
        &self.fs
    }

    /// The application extension data, if any.
    pub fn ext(&self) -> Option<&ExtData> {
        self.ext.as_ref()
    }

    /// Distance (in guesses) from the root state.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Accumulated path cost (for informed search strategies).
    pub fn gcost(&self) -> u64 {
        self.gcost
    }

    /// The parent snapshot, if it has not been reclaimed.
    pub fn parent(&self) -> Option<SnapshotId> {
        self.parent
    }
}

struct SnapNode {
    snap: Snapshot,
    /// Unevaluated extension steps still referencing this snapshot.
    pending: u32,
    /// Pinned snapshots are exempt from reclamation (external strategies,
    /// solver-service handles).
    pinned: bool,
}

/// Arena of live snapshots with pending-reference reclamation.
pub struct SnapshotTree {
    nodes: Vec<Option<SnapNode>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    total_created: u64,
    total_reclaimed: u64,
}

impl Default for SnapshotTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        SnapshotTree {
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            total_created: 0,
            total_reclaimed: 0,
        }
    }

    /// Inserts a snapshot with `pending` unevaluated extension references.
    ///
    /// A snapshot inserted with `pending == 0` is reclaimed immediately
    /// unless pinned, so callers normally pass the extension fan-out.
    pub fn insert(&mut self, snap: Snapshot, pending: u32) -> SnapshotId {
        let node = SnapNode {
            snap,
            pending,
            pinned: false,
        };
        self.total_created += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        let id = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Some(node);
            SnapshotId(idx)
        } else {
            self.nodes.push(Some(node));
            SnapshotId((self.nodes.len() - 1) as u32)
        };
        if pending == 0 {
            self.maybe_reclaim(id);
        }
        id
    }

    /// Looks up a live snapshot.
    pub fn get(&self, id: SnapshotId) -> Option<&Snapshot> {
        self.nodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(|n| &n.snap)
    }

    /// Consumes one pending reference; reclaims the snapshot when the last
    /// reference is gone (and it is not pinned).
    pub fn release(&mut self, id: SnapshotId) {
        if let Some(node) = self.nodes.get_mut(id.0 as usize).and_then(Option::as_mut) {
            node.pending = node.pending.saturating_sub(1);
            if node.pending == 0 {
                self.maybe_reclaim(id);
            }
        }
    }

    /// Adds `n` pending references (e.g. an external strategy scheduling
    /// more extensions of an existing partial candidate).
    pub fn retain(&mut self, id: SnapshotId, n: u32) -> bool {
        match self.nodes.get_mut(id.0 as usize).and_then(Option::as_mut) {
            Some(node) => {
                node.pending += n;
                true
            }
            None => false,
        }
    }

    /// Pins a snapshot so it survives even with zero pending references.
    pub fn pin(&mut self, id: SnapshotId) -> bool {
        match self.nodes.get_mut(id.0 as usize).and_then(Option::as_mut) {
            Some(node) => {
                node.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Unpins a snapshot, reclaiming it if no references remain.
    pub fn unpin(&mut self, id: SnapshotId) {
        if let Some(node) = self.nodes.get_mut(id.0 as usize).and_then(Option::as_mut) {
            node.pinned = false;
            if node.pending == 0 {
                self.maybe_reclaim(id);
            }
        }
    }

    fn maybe_reclaim(&mut self, id: SnapshotId) {
        let slot = &mut self.nodes[id.0 as usize];
        if let Some(node) = slot {
            if node.pending == 0 && !node.pinned {
                *slot = None;
                self.free.push(id.0);
                self.live -= 1;
                self.total_reclaimed += 1;
            }
        }
    }

    /// Number of live snapshots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live snapshots.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total snapshots ever created.
    pub fn total_created(&self) -> u64 {
        self.total_created
    }

    /// Total snapshots reclaimed.
    pub fn total_reclaimed(&self) -> u64 {
        self.total_reclaimed
    }

    /// Depth-first ancestry chain of `id` (nearest first), following
    /// parents that are still live.
    pub fn ancestry(&self, id: SnapshotId) -> Vec<SnapshotId> {
        let mut out = Vec::new();
        let mut cur = self.get(id).and_then(Snapshot::parent);
        while let Some(p) = cur {
            out.push(p);
            cur = self.get(p).and_then(Snapshot::parent);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwsnap_mem::{Prot, RegionKind, PAGE_SIZE};

    fn state() -> GuestState {
        let mut st = GuestState::new();
        st.mem
            .map_fixed(0x1000, PAGE_SIZE as u64, Prot::RW, RegionKind::Anon, "t")
            .unwrap();
        st.mem.write_u64(0x1000, 7).unwrap();
        st
    }

    #[test]
    fn capture_materialize_roundtrip() {
        let mut st = state();
        st.regs.set(crate::registers::Reg::Rbx, 99);
        st.depth = 3;
        let snap = Snapshot::capture(&st, None);
        let mut st2 = snap.materialize();
        assert_eq!(st2.regs.get(crate::registers::Reg::Rbx), 99);
        assert_eq!(st2.mem.read_u64(0x1000).unwrap(), 7);
        assert_eq!(st2.depth, 3);
        assert_eq!(st2.steps, 0, "step budget resets per materialisation");
    }

    #[test]
    fn restore_into_matches_materialize() {
        let mut st = state();
        st.regs.set(crate::registers::Reg::Rbx, 99);
        st.depth = 3;
        st.gcost = 8;
        st.ext = Some(Arc::new(5u32));
        let snap = Snapshot::capture(&st, None);
        // Diverge everywhere the snapshot shares structure.
        st.mem.write_u64(0x1000, 999).unwrap();
        st.fs.write(1, b"later").unwrap();
        st.ext = None;
        st.regs.set(crate::registers::Reg::Rbx, 1);
        st.depth = 9;
        st.steps = 77;

        snap.restore_into(&mut st);
        let fresh = snap.materialize();
        assert_eq!(st.regs, fresh.regs);
        assert_eq!(st.mem.read_u64(0x1000).unwrap(), 7);
        assert!(st.mem.same_table_root(snap.mem()));
        assert_eq!(st.fs.stdout_bytes(), b"");
        assert!(Arc::ptr_eq(st.ext.as_ref().unwrap(), snap.ext().unwrap()));
        assert_eq!((st.depth, st.gcost, st.steps), (3, 8, 0));
    }

    #[test]
    fn snapshot_immune_to_later_writes() {
        let mut st = state();
        let snap = Snapshot::capture(&st, None);
        st.mem.write_u64(0x1000, 999).unwrap();
        st.regs.set(crate::registers::Reg::Rax, 5);
        assert_eq!(snap.materialize().mem.read_u64(0x1000).unwrap(), 7);
        assert_eq!(snap.regs().get(crate::registers::Reg::Rax), 0);
    }

    #[test]
    fn tree_reclaims_on_last_release() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let id = tree.insert(Snapshot::capture(&st, None), 2);
        assert!(tree.get(id).is_some());
        assert_eq!(tree.live(), 1);
        tree.release(id);
        assert!(tree.get(id).is_some(), "one reference remains");
        tree.release(id);
        assert!(tree.get(id).is_none(), "reclaimed");
        assert_eq!(tree.live(), 0);
        assert_eq!(tree.total_reclaimed(), 1);
    }

    #[test]
    fn tree_reuses_slots() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let a = tree.insert(Snapshot::capture(&st, None), 1);
        tree.release(a);
        let b = tree.insert(Snapshot::capture(&st, None), 1);
        assert_eq!(a, b, "slot reused after reclamation");
        assert_eq!(tree.total_created(), 2);
    }

    #[test]
    fn pin_blocks_reclamation() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let id = tree.insert(Snapshot::capture(&st, None), 1);
        tree.pin(id);
        tree.release(id);
        assert!(tree.get(id).is_some(), "pinned snapshots survive");
        tree.unpin(id);
        assert!(tree.get(id).is_none());
    }

    #[test]
    fn insert_with_zero_pending_reclaims_unless_pinned() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let id = tree.insert(Snapshot::capture(&st, None), 0);
        assert!(tree.get(id).is_none());
    }

    #[test]
    fn retain_adds_references() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let id = tree.insert(Snapshot::capture(&st, None), 1);
        assert!(tree.retain(id, 2));
        tree.release(id);
        tree.release(id);
        assert!(tree.get(id).is_some());
        tree.release(id);
        assert!(tree.get(id).is_none());
        assert!(!tree.retain(id, 1), "retain on dead id fails");
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let ids: Vec<_> = (0..5)
            .map(|_| tree.insert(Snapshot::capture(&st, None), 1))
            .collect();
        assert_eq!(tree.peak_live(), 5);
        for id in ids {
            tree.release(id);
        }
        assert_eq!(tree.live(), 0);
        assert_eq!(tree.peak_live(), 5);
    }

    #[test]
    fn ancestry_chain() {
        let mut tree = SnapshotTree::new();
        let st = state();
        let a = tree.insert(Snapshot::capture(&st, None), 1);
        let b = tree.insert(Snapshot::capture(&st, Some(a)), 1);
        let c = tree.insert(Snapshot::capture(&st, Some(b)), 1);
        assert_eq!(tree.ancestry(c), vec![b, a]);
        assert_eq!(tree.ancestry(a), vec![]);
    }

    #[test]
    fn snapshots_share_memory_structurally() {
        let st = state();
        let s1 = Snapshot::capture(&st, None);
        let s2 = Snapshot::capture(&st, None);
        // Both snapshots share the full page table with the live state.
        assert!(s1.mem().same_table_root(s2.mem()));
        assert_eq!(s1.mem().shared_frames_with(s2.mem()), 1);
    }
}
