//! The guest address space: regions + persistent page table + accessors.
//!
//! [`AddressSpace`] is the mutable working view a running extension step
//! sees. Taking a lightweight snapshot is [`AddressSpace::snapshot`] (an
//! O(1) structural clone); the snapshot is immutable simply because nobody
//! writes through its handle, and CoW in the page table guarantees writes
//! through *other* handles never reach it. This is the paper's "immutable
//! logical copy of the entire address space" realised in safe Rust.

use std::sync::Arc;

use crate::error::{Fault, MemError};
use crate::page::{is_page_aligned, page_offset, round_up_pages, vpn_of, Frame, PAGE_SIZE};
use crate::radix::{Node, PageTable, FANOUT_SHIFT, MAX_VPN};
use crate::region::{Access, Prot, Region, RegionKind, RegionMap};
use crate::stats::MemStats;

/// One past the highest valid guest-virtual address (48-bit space).
pub const VA_LIMIT: u64 = (MAX_VPN + 1) << crate::page::PAGE_SHIFT;

/// Canonical placement of the standard guest regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsLayout {
    /// Base of the program text mapping.
    pub code_base: u64,
    /// Base of the `brk`-managed heap.
    pub heap_base: u64,
    /// Top of the main stack (exclusive; the stack grows down from here).
    pub stack_top: u64,
    /// Default stack reservation in bytes.
    pub stack_size: u64,
    /// Lowest address handed out by `map_anon`.
    pub mmap_base: u64,
    /// Highest address usable by `map_anon` (exclusive).
    pub mmap_limit: u64,
}

impl Default for AsLayout {
    fn default() -> Self {
        AsLayout {
            code_base: 0x40_0000,
            heap_base: 0x1000_0000,
            stack_top: 0x7fff_ffff_f000,
            stack_size: 1 << 20,
            mmap_base: 0x2000_0000_0000,
            mmap_limit: 0x7000_0000_0000,
        }
    }
}

/// A snapshottable guest address space.
///
/// Cloning (or calling [`AddressSpace::snapshot`]) is O(1): the region map
/// and the page-table root are reference-shared, and copy-on-write keeps
/// every clone's view independent from that point on. A clone starts with
/// cold read caches: only a handle that reads fills them, and
/// [`AddressSpace::restore_from`] keeps a handle's own caches where they
/// still hold.
pub struct AddressSpace {
    table: PageTable,
    regions: Arc<RegionMap>,
    layout: AsLayout,
    heap_base: u64,
    brk: u64,
    stats: MemStats,
    /// Two-entry read-side cache of recently used leaf nodes (code/data
    /// vs stack live in different leaves; two slots stop the thrash).
    ///
    /// Invalidated (dropped) before every mutation: holding the extra `Arc`
    /// would otherwise force a spurious CoW copy of the leaf and let the
    /// cache go stale.
    leaf_cache: [Option<(u64, Arc<Node>)>; 2],
    /// Per-access-kind cache of the last region hit (`[read, write,
    /// exec]`), skipping the `BTreeMap` walk on the hot path.
    region_cache: [Option<(u64, u64)>; 3],
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for AddressSpace {
    fn clone(&self) -> Self {
        AddressSpace {
            table: self.table.clone(),
            regions: Arc::clone(&self.regions),
            layout: self.layout,
            heap_base: self.heap_base,
            brk: self.brk,
            stats: self.stats,
            leaf_cache: [None, None],
            region_cache: [None; 3],
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space with the default layout.
    pub fn new() -> Self {
        Self::with_layout(AsLayout::default())
    }

    /// Creates an empty address space with a custom layout.
    pub fn with_layout(layout: AsLayout) -> Self {
        AddressSpace {
            table: PageTable::new(),
            regions: Arc::new(RegionMap::new()),
            layout,
            heap_base: layout.heap_base,
            brk: layout.heap_base,
            stats: MemStats::new(),
            leaf_cache: [None, None],
            region_cache: [None; 3],
        }
    }

    /// Takes a lightweight immutable snapshot: an O(1) structural clone
    /// that captures no read cache, since no restore reads one.
    pub fn snapshot(&self) -> AddressSpace {
        self.clone()
    }

    /// Makes this handle read exactly what `snap` reads, in place.
    ///
    /// Only a field whose `Arc` differs from `snap`'s is re-pointed, so
    /// restoring a handle that still shares `snap`'s table root and
    /// region map moves no reference count. The leaf cache survives only
    /// a shared root and the region cache only a shared region map: a
    /// node held by two owners is copied before any write, so the same
    /// root means the same immutable tree the cache was filled from.
    pub fn restore_from(&mut self, snap: &AddressSpace) {
        if !self.table.same_root(&snap.table) {
            self.table = snap.table.clone();
            self.invalidate_leaf();
        }
        if !Arc::ptr_eq(&self.regions, &snap.regions) {
            self.regions = Arc::clone(&snap.regions);
            self.region_cache = [None; 3];
        }
        self.layout = snap.layout;
        self.heap_base = snap.heap_base;
        self.brk = snap.brk;
        self.stats = snap.stats;
    }

    /// The layout this space was created with.
    pub fn layout(&self) -> &AsLayout {
        &self.layout
    }

    /// Cumulative MMU counters for this handle.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The current program break.
    pub fn current_brk(&self) -> u64 {
        self.brk
    }

    /// The region map (read-only).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    fn regions_mut(&mut self) -> &mut RegionMap {
        Arc::make_mut(&mut self.regions)
    }

    fn check_va_limit(start: u64, len: u64) -> Result<u64, MemError> {
        let end = start
            .checked_add(len)
            .ok_or(MemError::BadRange { start, end: 0 })?;
        if end > VA_LIMIT {
            return Err(MemError::BadRange { start, end });
        }
        Ok(end)
    }

    // ---------------------------------------------------------------
    // Mapping management (the mmap/munmap/mprotect/brk family).
    // ---------------------------------------------------------------

    /// Maps `[start, start+len)` at a fixed address.
    pub fn map_fixed(
        &mut self,
        start: u64,
        len: u64,
        prot: Prot,
        kind: RegionKind,
        name: &str,
    ) -> Result<(), MemError> {
        Self::check_va_limit(start, len)?;
        self.invalidate_caches();
        self.regions_mut().insert(Region {
            start,
            end: start + len,
            prot,
            kind,
            name: Arc::from(name),
        })
    }

    /// Maps `len` bytes of anonymous memory at a kernel-chosen address.
    pub fn map_anon(&mut self, len: u64, prot: Prot, name: &str) -> Result<u64, MemError> {
        if len == 0 || !is_page_aligned(len) {
            return Err(MemError::BadAlign { value: len });
        }
        let start = self
            .regions
            .find_gap(self.layout.mmap_base, len, self.layout.mmap_limit)
            .ok_or(MemError::NoSpace { len })?;
        self.map_fixed(start, len, prot, RegionKind::Anon, name)?;
        Ok(start)
    }

    /// Unmaps `[start, start+len)`, discarding any materialised frames.
    pub fn unmap(&mut self, start: u64, len: u64) -> Result<(), MemError> {
        Self::check_va_limit(start, len)?;
        self.invalidate_caches();
        let removed = self.regions_mut().remove_range(start, len)?;
        for (lo, hi) in removed {
            let (table, stats) = (&mut self.table, &mut self.stats);
            table.discard_range(vpn_of(lo), vpn_of(hi), stats);
        }
        Ok(())
    }

    /// Changes the protection of `[start, start+len)`.
    pub fn protect(&mut self, start: u64, len: u64, prot: Prot) -> Result<(), MemError> {
        Self::check_va_limit(start, len)?;
        self.invalidate_caches();
        self.regions_mut().set_prot(start, len, prot)
    }

    /// Maps the default stack region and returns the initial stack pointer.
    pub fn map_stack(&mut self) -> Result<u64, MemError> {
        let top = self.layout.stack_top;
        let size = self.layout.stack_size;
        self.map_fixed(top - size, size, Prot::RW, RegionKind::Stack, "[stack]")?;
        Ok(top)
    }

    /// Adjusts the program break, like `brk(2)`.
    ///
    /// `new_brk == 0` queries the current break. Growth maps pages up to the
    /// new break; shrinking discards the newly unreachable pages.
    pub fn brk(&mut self, new_brk: u64) -> Result<u64, MemError> {
        if new_brk == 0 {
            return Ok(self.brk);
        }
        if new_brk < self.heap_base {
            return Err(MemError::BadBrk { requested: new_brk });
        }
        Self::check_va_limit(new_brk, 0)?;
        self.invalidate_caches();
        let old_end = self.heap_base + round_up_pages(self.brk - self.heap_base);
        let new_end = self.heap_base + round_up_pages(new_brk - self.heap_base);
        if new_end > old_end {
            if old_end == self.heap_base {
                let heap_base = self.heap_base;
                self.regions_mut().insert(Region {
                    start: heap_base,
                    end: new_end,
                    prot: Prot::RW,
                    kind: RegionKind::Heap,
                    name: Arc::from("[heap]"),
                })?;
            } else {
                let heap_base = self.heap_base;
                self.regions_mut().resize(heap_base, new_end)?;
            }
        } else if new_end < old_end {
            let heap_base = self.heap_base;
            self.regions_mut().resize(heap_base, new_end)?;
            let (table, stats) = (&mut self.table, &mut self.stats);
            table.discard_range(vpn_of(new_end), vpn_of(old_end), stats);
        }
        self.brk = new_brk;
        Ok(self.brk)
    }

    // ---------------------------------------------------------------
    // Checked accessors (guest-visible semantics).
    // ---------------------------------------------------------------

    /// Reads `buf.len()` bytes from `va`, enforcing read protection.
    pub fn read_bytes(&mut self, va: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.check_fast(va, buf.len() as u64, Access::Read)?;
        self.copy_out(va, buf);
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Writes `data` starting at `va`, enforcing write protection.
    pub fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), Fault> {
        self.check_fast(va, data.len() as u64, Access::Write)?;
        self.copy_in(va, data);
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Reads instruction bytes from `va`, enforcing execute protection.
    pub fn fetch_bytes(&mut self, va: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.check_fast(va, buf.len() as u64, Access::Exec)?;
        self.copy_out(va, buf);
        Ok(())
    }

    /// Resolves the executable frame containing `va` for an instruction
    /// cache: one protection check and one table walk buy direct access
    /// to the whole 4 KiB code page.
    ///
    /// Regions are page-granular, so execute permission for `va` implies
    /// it for the entire page. Demand-zero code pages return the shared
    /// zero frame (which decodes as illegal instructions). The returned
    /// frame is a stable snapshot: interpreters must drop it across any
    /// call that can remap or reprotect memory (i.e. guest syscalls).
    pub fn exec_frame(&mut self, va: u64) -> Result<Frame, Fault> {
        self.check_fast(va, 1, Access::Exec)?;
        Ok(self
            .cached_frame(vpn_of(va))
            .cloned()
            .unwrap_or_else(crate::page::zero_frame))
    }

    /// Fills `[va, va+len)` with `byte`, enforcing write protection.
    pub fn fill(&mut self, va: u64, byte: u8, len: u64) -> Result<(), Fault> {
        self.check_fast(va, len, Access::Write)?;
        self.invalidate_leaf();
        let mut off = 0u64;
        while off < len {
            let cur = va + off;
            let poff = page_offset(cur);
            let n = ((PAGE_SIZE - poff) as u64).min(len - off);
            let (table, stats) = (&mut self.table, &mut self.stats);
            table.with_frame_mut(vpn_of(cur), stats, |page| {
                page.bytes_mut()[poff..poff + n as usize].fill(byte);
            });
            off += n;
        }
        self.stats.bytes_written += len;
        Ok(())
    }

    /// Reads a NUL-terminated string of at most `max` bytes from `va`.
    ///
    /// Returns the bytes excluding the terminator. Faults if the string
    /// (including its terminator) is not readable or no terminator is found
    /// within `max` bytes.
    pub fn read_cstr(&mut self, va: u64, max: usize) -> Result<Vec<u8>, Fault> {
        let mut out = Vec::new();
        let mut cur = va;
        while out.len() < max {
            let mut byte = [0u8; 1];
            self.read_bytes(cur, &mut byte)?;
            if byte[0] == 0 {
                return Ok(out);
            }
            out.push(byte[0]);
            cur = cur.checked_add(1).ok_or(Fault::NonCanonical { va: cur })?;
        }
        Err(Fault::Unmapped { va: cur })
    }

    // Typed little-endian accessors (single-page fast paths; accesses
    // that straddle a page boundary fall back to the generic engine).

    /// Reads `N` bytes at `va` without crossing a page boundary.
    #[inline]
    fn read_small<const N: usize>(&mut self, va: u64) -> Result<[u8; N], Fault> {
        let poff = page_offset(va);
        if poff + N <= PAGE_SIZE {
            self.check_fast(va, N as u64, Access::Read)?;
            self.stats.bytes_read += N as u64;
            return Ok(match self.cached_frame(vpn_of(va)) {
                Some(frame) => frame.bytes()[poff..poff + N]
                    .try_into()
                    .expect("bounded slice"),
                None => [0u8; N],
            });
        }
        let mut b = [0u8; N];
        self.read_bytes(va, &mut b)?;
        Ok(b)
    }

    /// Writes `N` bytes at `va` without crossing a page boundary.
    #[inline]
    fn write_small<const N: usize>(&mut self, va: u64, bytes: [u8; N]) -> Result<(), Fault> {
        let poff = page_offset(va);
        if poff + N <= PAGE_SIZE {
            self.check_fast(va, N as u64, Access::Write)?;
            self.invalidate_leaf();
            self.stats.bytes_written += N as u64;
            let (table, stats) = (&mut self.table, &mut self.stats);
            table.with_frame_mut(vpn_of(va), stats, |page| {
                page.bytes_mut()[poff..poff + N].copy_from_slice(&bytes);
            });
            return Ok(());
        }
        self.write_bytes(va, &bytes)
    }

    /// Reads a `u8` at `va`.
    pub fn read_u8(&mut self, va: u64) -> Result<u8, Fault> {
        Ok(self.read_small::<1>(va)?[0])
    }

    /// Reads a little-endian `u16` at `va`.
    pub fn read_u16(&mut self, va: u64) -> Result<u16, Fault> {
        Ok(u16::from_le_bytes(self.read_small(va)?))
    }

    /// Reads a little-endian `u32` at `va`.
    pub fn read_u32(&mut self, va: u64) -> Result<u32, Fault> {
        Ok(u32::from_le_bytes(self.read_small(va)?))
    }

    /// Reads a little-endian `u64` at `va`.
    pub fn read_u64(&mut self, va: u64) -> Result<u64, Fault> {
        Ok(u64::from_le_bytes(self.read_small(va)?))
    }

    /// Writes a `u8` at `va`.
    pub fn write_u8(&mut self, va: u64, v: u8) -> Result<(), Fault> {
        self.write_small(va, [v])
    }

    /// Writes a little-endian `u16` at `va`.
    pub fn write_u16(&mut self, va: u64, v: u16) -> Result<(), Fault> {
        self.write_small(va, v.to_le_bytes())
    }

    /// Writes a little-endian `u32` at `va`.
    pub fn write_u32(&mut self, va: u64, v: u32) -> Result<(), Fault> {
        self.write_small(va, v.to_le_bytes())
    }

    /// Writes a little-endian `u64` at `va`.
    pub fn write_u64(&mut self, va: u64, v: u64) -> Result<(), Fault> {
        self.write_small(va, v.to_le_bytes())
    }

    // ---------------------------------------------------------------
    // Supervisor accessors (loader / libOS: mapping required, protection
    // ignored — the libOS owns the page tables).
    // ---------------------------------------------------------------

    /// Writes `data` at `va` ignoring page protections (mapping required).
    pub fn poke_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), Fault> {
        self.check_mapped(va, data.len() as u64)?;
        self.copy_in(va, data);
        Ok(())
    }

    /// Reads into `buf` from `va` ignoring page protections (mapping
    /// required). Does not touch stats or the read cache.
    pub fn peek_bytes(&self, va: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.check_mapped(va, buf.len() as u64)?;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = va + off as u64;
            let poff = page_offset(cur);
            let n = (PAGE_SIZE - poff).min(buf.len() - off);
            match self.table.frame(vpn_of(cur)) {
                Some(frame) => buf[off..off + n].copy_from_slice(&frame.bytes()[poff..poff + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
        Ok(())
    }

    fn check_mapped(&self, va: u64, len: u64) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let end = va.checked_add(len).ok_or(Fault::NonCanonical { va })?;
        let mut cursor = va;
        while cursor < end {
            let region = self
                .regions
                .find(cursor)
                .ok_or(Fault::Unmapped { va: cursor })?;
            cursor = region.end;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Raw copy engine (no protection checks; caller has checked).
    // ---------------------------------------------------------------

    fn copy_out(&mut self, va: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = va + off as u64;
            let poff = page_offset(cur);
            let n = (PAGE_SIZE - poff).min(buf.len() - off);
            match self.cached_frame(vpn_of(cur)) {
                Some(frame) => buf[off..off + n].copy_from_slice(&frame.bytes()[poff..poff + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    fn copy_in(&mut self, va: u64, data: &[u8]) {
        self.invalidate_leaf();
        let mut off = 0usize;
        while off < data.len() {
            let cur = va + off as u64;
            let poff = page_offset(cur);
            let n = (PAGE_SIZE - poff).min(data.len() - off);
            let (table, stats) = (&mut self.table, &mut self.stats);
            table.with_frame_mut(vpn_of(cur), stats, |page| {
                page.bytes_mut()[poff..poff + n].copy_from_slice(&data[off..off + n]);
            });
            off += n;
        }
    }

    /// Drops the leaf cache (before any write) so held `Arc`s cannot
    /// force spurious CoW copies or go stale.
    fn invalidate_leaf(&mut self) {
        self.leaf_cache = [None, None];
    }

    /// Drops every cache (on any region-map mutation).
    fn invalidate_caches(&mut self) {
        self.invalidate_leaf();
        self.region_cache = [None; 3];
    }

    /// Region check through the per-access-kind one-entry cache.
    fn check_fast(&mut self, va: u64, len: u64, access: Access) -> Result<(), Fault> {
        let slot = match access {
            Access::Read => 0,
            Access::Write => 1,
            Access::Exec => 2,
        };
        if let Some((start, end)) = self.region_cache[slot] {
            if va >= start && va < end && len <= end - va {
                return Ok(());
            }
        }
        self.regions.check(va, len, access)?;
        // Cache only single-region hits (the overwhelmingly common case).
        if let Some(region) = self.regions.find(va) {
            if va + len <= region.end {
                self.region_cache[slot] = Some((region.start, region.end));
            }
        }
        Ok(())
    }

    /// Resolves `vpn` to its frame through the two-entry leaf cache,
    /// lending it: a read copies bytes out of the borrow and moves no
    /// reference count.
    fn cached_frame(&mut self, vpn: u64) -> Option<&Frame> {
        let key = vpn >> FANOUT_SHIFT;
        let idx = (vpn & (crate::radix::FANOUT as u64 - 1)) as usize;
        let hit = self
            .leaf_cache
            .iter()
            .position(|entry| matches!(entry, Some((cached, _)) if *cached == key));
        let slot = match hit {
            Some(slot) => {
                self.stats.read_cache_hits += 1;
                slot
            }
            None => {
                self.stats.read_cache_misses += 1;
                let leaf = self.table.leaf_for(vpn)?;
                // Insert in slot 0, demoting the previous occupant (LRU of two).
                self.leaf_cache[1] = self.leaf_cache[0].take();
                self.leaf_cache[0] = Some((key, leaf));
                0
            }
        };
        let (_, leaf) = self.leaf_cache[slot].as_ref()?;
        leaf.frame(idx)
    }

    // ---------------------------------------------------------------
    // Diagnostics and baselines.
    // ---------------------------------------------------------------

    /// Number of materialised (resident) pages.
    pub fn resident_pages(&self) -> u64 {
        self.table.count_frames()
    }

    /// Resident bytes (pages × page size).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages() * PAGE_SIZE as u64
    }

    /// Number of frames physically shared with `other` at identical vpns.
    pub fn shared_frames_with(&self, other: &AddressSpace) -> u64 {
        self.table.shared_frames_with(&other.table)
    }

    /// Returns `true` if no CoW divergence has happened since `other` was
    /// cloned from this space (identical root).
    pub fn same_table_root(&self, other: &AddressSpace) -> bool {
        self.table.same_root(&other.table)
    }

    /// Full-copy checkpoint baseline: duplicates every resident frame.
    ///
    /// Cost is O(resident bytes); used by the granularity-crossover
    /// experiment as the non-CoW comparison point.
    pub fn deep_copy(&self) -> AddressSpace {
        AddressSpace {
            table: self.table.deep_copy(),
            regions: Arc::new((*self.regions).clone()),
            layout: self.layout,
            heap_base: self.heap_base,
            brk: self.brk,
            stats: self.stats,
            leaf_cache: [None, None],
            region_cache: [None; 3],
        }
    }

    /// Renders a `/proc/<pid>/maps`-style listing of the regions.
    pub fn render_maps(&self) -> String {
        self.regions.render_maps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_ram(pages: u64) -> AddressSpace {
        let mut asp = AddressSpace::new();
        asp.map_fixed(
            0x1_0000,
            pages * PAGE_SIZE as u64,
            Prot::RW,
            RegionKind::Anon,
            "ram",
        )
        .unwrap();
        asp
    }

    #[test]
    fn rw_roundtrip_within_page() {
        let mut asp = space_with_ram(4);
        asp.write_u64(0x1_0008, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(asp.read_u64(0x1_0008).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(asp.read_u8(0x1_0008).unwrap(), 0x0d);
        assert_eq!(asp.read_u16(0x1_0008).unwrap(), 0xf00d);
        assert_eq!(asp.read_u32(0x1_0008).unwrap(), 0xcafe_f00d);
    }

    #[test]
    fn rw_across_page_boundary() {
        let mut asp = space_with_ram(4);
        let va = 0x1_0000 + PAGE_SIZE as u64 - 3;
        asp.write_u64(va, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(asp.read_u64(va).unwrap(), 0x1122_3344_5566_7788);
        // Bytes landed on both pages.
        assert_eq!(asp.read_u8(va).unwrap(), 0x88);
        assert_eq!(asp.read_u8(va + 7).unwrap(), 0x11);
    }

    #[test]
    fn unmapped_read_faults() {
        let mut asp = space_with_ram(1);
        assert_eq!(asp.read_u8(0x5_0000), Err(Fault::Unmapped { va: 0x5_0000 }));
        // Read straddling the end of the mapping faults at the boundary.
        let end = 0x1_0000 + PAGE_SIZE as u64;
        assert_eq!(asp.read_u64(end - 4), Err(Fault::Unmapped { va: end }));
    }

    #[test]
    fn protection_enforced() {
        let mut asp = AddressSpace::new();
        asp.map_fixed(0x1_0000, 0x1000, Prot::R, RegionKind::Data, "ro")
            .unwrap();
        assert_eq!(asp.read_u8(0x1_0000).unwrap(), 0);
        assert_eq!(
            asp.write_u8(0x1_0000, 1),
            Err(Fault::Protection {
                va: 0x1_0000,
                access: Access::Write
            })
        );
        let mut b = [0u8; 4];
        assert_eq!(
            asp.fetch_bytes(0x1_0000, &mut b),
            Err(Fault::Protection {
                va: 0x1_0000,
                access: Access::Exec
            })
        );
    }

    #[test]
    fn poke_ignores_protection_peek_reads() {
        let mut asp = AddressSpace::new();
        asp.map_fixed(0x1_0000, 0x1000, Prot::RX, RegionKind::Code, "text")
            .unwrap();
        asp.poke_bytes(0x1_0000, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        asp.peek_bytes(0x1_0000, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);
        // But poke still requires a mapping.
        assert!(asp.poke_bytes(0x9_0000, &[0]).is_err());
    }

    #[test]
    fn demand_zero_reads_do_not_materialise() {
        let mut asp = space_with_ram(64);
        let mut buf = vec![0xffu8; 64 * PAGE_SIZE];
        asp.read_bytes(0x1_0000, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(asp.resident_pages(), 0, "reads must not allocate frames");
    }

    #[test]
    fn snapshot_isolation() {
        let mut asp = space_with_ram(8);
        asp.write_u64(0x1_0000, 111).unwrap();
        let mut snap = asp.snapshot();
        asp.write_u64(0x1_0000, 222).unwrap();
        assert_eq!(asp.read_u64(0x1_0000).unwrap(), 222);
        assert_eq!(snap.read_u64(0x1_0000).unwrap(), 111);
        // Writing through the snapshot handle also leaves the parent alone.
        snap.write_u64(0x1_0000, 333).unwrap();
        assert_eq!(asp.read_u64(0x1_0000).unwrap(), 222);
    }

    #[test]
    fn snapshot_cow_copies_only_touched_pages() {
        let mut asp = space_with_ram(100);
        for i in 0..100u64 {
            asp.write_u64(0x1_0000 + i * PAGE_SIZE as u64, i).unwrap();
        }
        let snap = asp.snapshot();
        let before = *asp.stats();
        for i in 0..5u64 {
            asp.write_u64(0x1_0000 + i * PAGE_SIZE as u64, 999).unwrap();
        }
        let d = asp.stats().delta(&before);
        assert_eq!(d.cow_page_copies, 5, "exactly the touched pages are copied");
        assert_eq!(asp.shared_frames_with(&snap), 95);
    }

    #[test]
    fn snapshot_then_region_change_is_isolated() {
        let mut asp = space_with_ram(4);
        let snap = asp.snapshot();
        asp.unmap(0x1_0000, PAGE_SIZE as u64).unwrap();
        assert!(asp.regions().find(0x1_0000).is_none());
        assert!(
            snap.regions().find(0x1_0000).is_some(),
            "snapshot keeps its regions"
        );
    }

    #[test]
    fn map_anon_finds_gaps() {
        let mut asp = AddressSpace::new();
        let a = asp.map_anon(0x2000, Prot::RW, "a").unwrap();
        let b = asp.map_anon(0x1000, Prot::RW, "b").unwrap();
        assert_ne!(a, b);
        assert!(b >= a + 0x2000 || a >= b + 0x1000);
        asp.write_u8(a, 1).unwrap();
        asp.write_u8(b, 2).unwrap();
    }

    #[test]
    fn map_anon_rejects_unaligned_and_zero() {
        let mut asp = AddressSpace::new();
        assert!(matches!(
            asp.map_anon(0, Prot::RW, "z"),
            Err(MemError::BadAlign { .. })
        ));
        assert!(matches!(
            asp.map_anon(123, Prot::RW, "u"),
            Err(MemError::BadAlign { .. })
        ));
    }

    #[test]
    fn unmap_discards_frames() {
        let mut asp = space_with_ram(4);
        asp.write_u64(0x1_0000, 7).unwrap();
        asp.write_u64(0x1_0000 + PAGE_SIZE as u64, 8).unwrap();
        assert_eq!(asp.resident_pages(), 2);
        asp.unmap(0x1_0000, PAGE_SIZE as u64).unwrap();
        assert_eq!(asp.resident_pages(), 1);
        assert_eq!(asp.read_u8(0x1_0000), Err(Fault::Unmapped { va: 0x1_0000 }));
    }

    #[test]
    fn remap_after_unmap_reads_zero() {
        let mut asp = space_with_ram(1);
        asp.write_u64(0x1_0000, 7).unwrap();
        asp.unmap(0x1_0000, PAGE_SIZE as u64).unwrap();
        asp.map_fixed(
            0x1_0000,
            PAGE_SIZE as u64,
            Prot::RW,
            RegionKind::Anon,
            "again",
        )
        .unwrap();
        assert_eq!(
            asp.read_u64(0x1_0000).unwrap(),
            0,
            "old contents must not leak"
        );
    }

    #[test]
    fn protect_then_fault() {
        let mut asp = space_with_ram(2);
        asp.write_u8(0x1_0000, 1).unwrap();
        asp.protect(0x1_0000, PAGE_SIZE as u64, Prot::R).unwrap();
        assert!(asp.write_u8(0x1_0000, 2).is_err());
        assert_eq!(asp.read_u8(0x1_0000).unwrap(), 1);
        // Second page unaffected.
        asp.write_u8(0x1_0000 + PAGE_SIZE as u64, 3).unwrap();
    }

    #[test]
    fn brk_grow_and_shrink() {
        let mut asp = AddressSpace::new();
        let base = asp.layout().heap_base;
        assert_eq!(asp.brk(0).unwrap(), base);
        asp.brk(base + 100).unwrap();
        asp.write_u8(base + 50, 9).unwrap();
        // Beyond the page containing brk faults.
        assert!(asp.write_u8(base + PAGE_SIZE as u64, 1).is_err());
        asp.brk(base + 3 * PAGE_SIZE as u64).unwrap();
        asp.write_u8(base + 2 * PAGE_SIZE as u64, 1).unwrap();
        assert_eq!(asp.resident_pages(), 2);
        // Shrink discards pages.
        asp.brk(base + 100).unwrap();
        assert_eq!(asp.resident_pages(), 1);
        assert!(asp.write_u8(base + 2 * PAGE_SIZE as u64, 1).is_err());
        // Below heap base is an error.
        assert!(matches!(asp.brk(base - 1), Err(MemError::BadBrk { .. })));
    }

    #[test]
    fn brk_shrink_then_grow_zeroes() {
        let mut asp = AddressSpace::new();
        let base = asp.layout().heap_base;
        asp.brk(base + PAGE_SIZE as u64).unwrap();
        asp.write_u64(base, 42).unwrap();
        asp.brk(base).unwrap();
        asp.brk(base + PAGE_SIZE as u64).unwrap();
        assert_eq!(asp.read_u64(base).unwrap(), 0);
    }

    #[test]
    fn map_stack_gives_writable_top() {
        let mut asp = AddressSpace::new();
        let sp = asp.map_stack().unwrap();
        asp.write_u64(sp - 8, 0x1234).unwrap();
        assert_eq!(asp.read_u64(sp - 8).unwrap(), 0x1234);
    }

    #[test]
    fn fill_spans_pages() {
        let mut asp = space_with_ram(3);
        asp.fill(0x1_0000 + 100, 0xaa, 2 * PAGE_SIZE as u64)
            .unwrap();
        assert_eq!(asp.read_u8(0x1_0000 + 100).unwrap(), 0xaa);
        assert_eq!(
            asp.read_u8(0x1_0000 + 100 + 2 * PAGE_SIZE as u64 - 1)
                .unwrap(),
            0xaa
        );
        assert_eq!(asp.read_u8(0x1_0000 + 99).unwrap(), 0);
        assert_eq!(
            asp.read_u8(0x1_0000 + 100 + 2 * PAGE_SIZE as u64).unwrap(),
            0
        );
    }

    #[test]
    fn cstr_roundtrip() {
        let mut asp = space_with_ram(1);
        asp.write_bytes(0x1_0000, b"hello\0world").unwrap();
        assert_eq!(asp.read_cstr(0x1_0000, 64).unwrap(), b"hello");
        // Missing terminator within budget is an error.
        asp.fill(0x1_0000, b'x', 16).unwrap();
        assert!(asp.read_cstr(0x1_0000, 8).is_err());
    }

    #[test]
    fn deep_copy_is_fully_unshared() {
        let mut asp = space_with_ram(10);
        for i in 0..10u64 {
            asp.write_u64(0x1_0000 + i * PAGE_SIZE as u64, i).unwrap();
        }
        let mut copy = asp.deep_copy();
        assert_eq!(copy.shared_frames_with(&asp), 0);
        copy.write_u64(0x1_0000, 999).unwrap();
        assert_eq!(asp.read_u64(0x1_0000).unwrap(), 0);
    }

    #[test]
    fn read_cache_hits_on_sequential_access() {
        let mut asp = space_with_ram(1);
        asp.write_u64(0x1_0000, 1).unwrap();
        let before = *asp.stats();
        for i in 0..64 {
            asp.read_u64(0x1_0000 + i * 8).unwrap();
        }
        let d = asp.stats().delta(&before);
        assert!(
            d.read_cache_hits >= 63,
            "sequential reads should hit the leaf cache"
        );
    }

    #[test]
    fn reads_borrow_the_frame() {
        let mut asp = space_with_ram(1);
        asp.write_u64(0x1_0000, 7).unwrap();
        let vpn = vpn_of(0x1_0000);
        let before = Arc::strong_count(asp.table.frame(vpn).unwrap());
        assert_eq!(asp.read_u64(0x1_0000).unwrap(), 7);
        let mut buf = [0u8; 16];
        asp.read_bytes(0x1_0000, &mut buf).unwrap();
        assert_eq!(Arc::strong_count(asp.table.frame(vpn).unwrap()), before);
        // The lookup behind both lends the table's own frame.
        let lent = asp.cached_frame(vpn).unwrap();
        assert_eq!(Arc::strong_count(lent), 1, "only the table holds the frame");
    }

    #[test]
    fn restore_from_keeps_caches_only_while_shared() {
        let mut asp = space_with_ram(2);
        asp.write_u64(0x1_0000, 1).unwrap();
        let snap = asp.snapshot();
        asp.read_u64(0x1_0000).unwrap();
        asp.restore_from(&snap);
        let before = *asp.stats();
        asp.read_u64(0x1_0000).unwrap();
        let d = asp.stats().delta(&before);
        assert_eq!(
            (d.read_cache_hits, d.read_cache_misses),
            (1, 0),
            "same root: the warm leaf is still valid"
        );

        asp.write_u64(0x1_0000, 2).unwrap();
        asp.read_u64(0x1_0000).unwrap();
        asp.restore_from(&snap);
        let before = *asp.stats();
        assert!(asp.same_table_root(&snap));
        assert_eq!(asp.read_u64(0x1_0000).unwrap(), 1, "the stale leaf is gone");
        assert_eq!(asp.stats().delta(&before).read_cache_misses, 1);
    }

    #[test]
    fn va_limit_enforced() {
        let mut asp = AddressSpace::new();
        assert!(matches!(
            asp.map_fixed(
                VA_LIMIT - 0x1000,
                0x2000,
                Prot::RW,
                RegionKind::Anon,
                "high"
            ),
            Err(MemError::BadRange { .. })
        ));
        // Exactly at the limit is fine.
        asp.map_fixed(VA_LIMIT - 0x1000, 0x1000, Prot::RW, RegionKind::Anon, "top")
            .unwrap();
        asp.write_u8(VA_LIMIT - 1, 1).unwrap();
    }

    #[test]
    fn snapshot_preserves_brk() {
        let mut asp = AddressSpace::new();
        let base = asp.layout().heap_base;
        asp.brk(base + 0x1000).unwrap();
        let snap = asp.snapshot();
        asp.brk(base + 0x10000).unwrap();
        assert_eq!(snap.current_brk(), base + 0x1000);
    }
}
