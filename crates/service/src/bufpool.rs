//! Pooled receive buffers and the zero-copy frame assembler.
//!
//! Every reactor owns a [`BufferPool`]: a freelist of fixed-size
//! 64 KiB blocks. Each connection leases one block ([`Lease`]) and
//! reads socket bytes straight into it; [`FrameAssembler::next`] then
//! parses frames **in place** ([`protocol::parse_frame_ref`]) and hands
//! the caller a payload that borrows the block — no
//! `extend_from_slice` staging copy on the hot path. When the
//! connection closes, its lease drops and the block returns to the
//! freelist (counted as `pool_recycles`), so a reactor's steady-state
//! allocation rate for receive buffers is zero.
//!
//! The one place bytes still move is a frame that straddles a block
//! boundary: the partial tail is copied into a per-connection spill
//! buffer and completed from the next block fill, copying *exactly*
//! the bytes the frame still needs ([`protocol::frame_len`]). Those
//! copies — and only those — are counted as `rx_copy_bytes`, which is
//! how the benches assert the zero-copy path really is one: on
//! small-frame traffic the counter stays at a few bytes per thousand
//! requests, not a few hundred per request.

use std::io::Read;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lwsnap_trace::StatsSummary;

use crate::protocol::{self, FrameRef, ProtoError};

/// Size of one pooled receive block. Large enough that typical solve
/// frames (tens to hundreds of bytes) cross a boundary rarely; small
/// enough that a thousand idle connections hold 64 MiB, not gigabytes.
pub const BLOCK_SIZE: usize = 64 * 1024;

/// Blocks kept on the freelist past which returned blocks are freed
/// outright (bounds a reactor's memory after a connection burst).
const FREELIST_CAP: usize = 64;

/// A freelist of fixed-size receive blocks, one pool per reactor.
pub struct BufferPool {
    free: Mutex<Vec<Box<[u8]>>>,
    outstanding: AtomicUsize,
    recycled: AtomicU64,
    copied: AtomicU64,
}

impl BufferPool {
    /// An empty pool; blocks are allocated on first lease and recycled
    /// thereafter.
    pub fn new() -> Arc<BufferPool> {
        Arc::new(BufferPool {
            free: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(0),
            recycled: AtomicU64::new(0),
            copied: AtomicU64::new(0),
        })
    }

    /// Takes a block from the freelist (or allocates a fresh one).
    pub fn lease(self: &Arc<BufferPool>) -> Lease {
        let block = self
            .free
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| vec![0u8; BLOCK_SIZE].into_boxed_slice());
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        Lease {
            block: Some(block),
            pool: Arc::clone(self),
        }
    }

    /// Blocks currently leased out (the leak-audit number: zero once
    /// every connection has drained and closed).
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Blocks sitting on the freelist.
    pub fn free_blocks(&self) -> usize {
        self.free.lock().unwrap().len()
    }

    /// The counters this pool owns: blocks returned to the freelist
    /// (`pool_recycles`) and receive bytes its assemblers copied, block
    /// boundary spills only (`rx_copy_bytes`).
    pub fn stats(&self) -> StatsSummary {
        StatsSummary {
            pool_recycles: self.recycled.load(Ordering::Relaxed),
            rx_copy_bytes: self.copied.load(Ordering::Relaxed),
            ..Default::default()
        }
    }
}

/// An exclusive lease on one pool block; returns it on drop.
pub struct Lease {
    block: Option<Box<[u8]>>,
    pool: Arc<BufferPool>,
}

impl Deref for Lease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.block.as_deref().expect("lease holds its block")
    }
}

impl DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.block.as_deref_mut().expect("lease holds its block")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let block = self.block.take().expect("lease dropped once");
        self.pool.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut free = self.pool.free.lock().unwrap();
        if free.len() < FREELIST_CAP {
            free.push(block);
            drop(free);
            self.pool.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-connection receive state: one leased block being filled and
/// parsed in place, plus the spill buffer for block-spanning frames.
pub struct FrameAssembler {
    pool: Arc<BufferPool>,
    lease: Option<Lease>,
    /// Bytes of the block holding socket data (`pos..filled` unparsed).
    filled: usize,
    /// Parse cursor into the block.
    pos: usize,
    /// A partial frame carried across a block boundary (the only
    /// copied bytes on the receive path).
    spill: Vec<u8>,
    copied: u64,
}

impl FrameAssembler {
    /// A fresh assembler over `pool`; the first [`fill`](Self::fill)
    /// takes its block lease.
    pub fn new(pool: Arc<BufferPool>) -> FrameAssembler {
        FrameAssembler {
            pool,
            lease: None,
            filled: 0,
            pos: 0,
            spill: Vec::new(),
            copied: 0,
        }
    }

    /// Performs **one** read from `r` into the block's free space
    /// (spilling an unparsed tail first if the block is full), exactly
    /// like reading into a stack buffer — same return contract as
    /// [`Read::read`]. `Ok(0)` means EOF.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.lease.is_none() {
            self.lease = Some(self.pool.lease());
        }
        if self.filled == BLOCK_SIZE {
            self.spill_tail();
        }
        let lease = self.lease.as_mut().expect("leased above");
        let n = r.read(&mut lease[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Moves the unparsed block tail into the spill buffer and resets
    /// the block (the boundary-crossing copy, counted).
    fn spill_tail(&mut self) {
        let lease = self.lease.as_ref().expect("spill_tail under a lease");
        let tail = &lease[self.pos..self.filled];
        if !tail.is_empty() {
            self.spill.extend_from_slice(tail);
            self.count_copy(tail.len());
        }
        self.pos = 0;
        self.filled = 0;
    }

    fn count_copy(&mut self, n: usize) {
        self.copied += n as u64;
        self.pool.copied.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Extracts the next complete frame, if any, invoking `f` on a
    /// payload that borrows this assembler's buffers (zero-copy for
    /// frames that sit wholly inside the block — the common case).
    /// `Ok(None)` means more socket bytes are needed; errors are
    /// unrecoverable framing faults. `f` runs at most once per call.
    pub fn next<R>(
        &mut self,
        mut f: impl FnMut(FrameRef<'_>) -> R,
    ) -> Result<Option<R>, ProtoError> {
        loop {
            if !self.spill.is_empty() {
                // A block-spanning frame: top the spill up with exactly
                // the bytes it still needs, then parse it from there.
                let need = match protocol::frame_len(&self.spill)? {
                    Some(total) => total.saturating_sub(self.spill.len()),
                    None => 4 - self.spill.len(),
                };
                if need > 0 {
                    let avail = self.filled - self.pos;
                    if avail == 0 {
                        return Ok(None);
                    }
                    let take = need.min(avail);
                    let lease = self.lease.as_ref().expect("bytes imply a lease");
                    let chunk = &lease[self.pos..self.pos + take];
                    self.spill.extend_from_slice(chunk);
                    self.pos += take;
                    self.count_copy(take);
                    if self.pos == self.filled {
                        self.pos = 0;
                        self.filled = 0;
                    }
                    continue; // 4 header bytes may now reveal the length
                }
                let (frame, used) = protocol::parse_frame_ref(&self.spill)?
                    .expect("spill topped up to a whole frame");
                debug_assert_eq!(used, self.spill.len());
                let out = f(frame);
                self.spill.clear();
                return Ok(Some(out));
            }
            // The zero-copy path: parse straight off the block.
            let Some(lease) = self.lease.as_ref() else {
                return Ok(None);
            };
            let buf = &lease[self.pos..self.filled];
            if buf.is_empty() {
                return Ok(None);
            }
            match protocol::parse_frame_ref(buf)? {
                Some((frame, used)) => {
                    let out = f(frame);
                    self.pos += used;
                    if self.pos == self.filled {
                        self.pos = 0;
                        self.filled = 0;
                    }
                    return Ok(Some(out));
                }
                None => {
                    if self.filled == BLOCK_SIZE {
                        // Mid-frame with no room to read more: carry the
                        // tail over so the block can take fresh bytes.
                        self.spill_tail();
                    }
                    return Ok(None);
                }
            }
        }
    }

    /// Unparsed bytes currently buffered (block tail + spill). Nonzero
    /// means a partial frame is waiting on more socket bytes, or —
    /// when dispatch stopped early under backpressure — whole frames
    /// are waiting for capacity.
    pub fn pending(&self) -> usize {
        (self.filled - self.pos) + self.spill.len()
    }

    /// Bytes this assembler has copied (block-boundary spills only).
    pub fn copied_bytes(&self) -> u64 {
        self.copied
    }

    /// Returns the leased block to the pool early (e.g. a long-idle
    /// connection); the next [`fill`](Self::fill) re-leases.
    pub fn release_block(&mut self) {
        debug_assert_eq!(self.filled, self.pos, "releasing unparsed bytes");
        self.pos = 0;
        self.filled = 0;
        self.lease = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::put_tagged_frame;

    fn drain(asm: &mut FrameAssembler) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(frame) = asm
            .next(|f| (f.tag, f.payload.to_vec()))
            .expect("well-formed stream")
        {
            out.push(frame);
        }
        out
    }

    #[test]
    fn whole_frames_parse_in_place_without_copies() {
        let pool = BufferPool::new();
        let mut wire = Vec::new();
        put_tagged_frame(&mut wire, 3, b"hello").unwrap();
        put_tagged_frame(&mut wire, 7, b"world").unwrap();
        let mut asm = FrameAssembler::new(Arc::clone(&pool));
        let mut r = wire.as_slice();
        while asm.fill(&mut r).unwrap() > 0 {}
        let frames = drain(&mut asm);
        assert_eq!(frames, vec![(3, b"hello".to_vec()), (7, b"world".to_vec())]);
        assert_eq!(asm.copied_bytes(), 0, "in-block frames copy nothing");
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn block_spanning_frame_reassembles_and_counts_copies() {
        let pool = BufferPool::new();
        // One frame bigger than a block: every byte must spill, and the
        // result must still be bit-identical.
        let payload: Vec<u8> = (0..BLOCK_SIZE + 1234).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        put_tagged_frame(&mut wire, 42, &payload).unwrap();
        put_tagged_frame(&mut wire, 43, b"after").unwrap();
        let mut asm = FrameAssembler::new(Arc::clone(&pool));
        let mut r = wire.as_slice();
        let mut frames = Vec::new();
        loop {
            let n = asm.fill(&mut r).unwrap();
            frames.extend(drain(&mut asm));
            if n == 0 {
                break;
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (42, payload));
        assert_eq!(frames[1], (43, b"after".to_vec()));
        assert!(asm.copied_bytes() > 0, "spanning frames are counted");
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn leases_return_to_the_freelist() {
        let pool = BufferPool::new();
        {
            let _a = pool.lease();
            let _b = pool.lease();
            assert_eq!(pool.outstanding(), 2);
            assert_eq!(pool.free_blocks(), 0);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_blocks(), 2);
        assert_eq!(pool.stats().pool_recycles, 2);
        // Reuse: a fresh lease comes off the freelist.
        let _c = pool.lease();
        assert_eq!(pool.free_blocks(), 1);
    }

    #[test]
    fn assembler_drop_recycles_its_block() {
        let pool = BufferPool::new();
        let mut asm = FrameAssembler::new(Arc::clone(&pool));
        let mut r = &b"\x01\x00\x00\x00"[..3]; // partial header
        asm.fill(&mut r).unwrap();
        assert_eq!(pool.outstanding(), 1);
        drop(asm);
        assert_eq!(pool.outstanding(), 0, "drop returns the block");
        assert_eq!(pool.free_blocks(), 1);
    }
}
