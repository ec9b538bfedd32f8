//! The per-connection receive block and the zero-copy frame assembler.
//!
//! Each reactor connection owns one fixed-size 64 KiB block, allocated
//! when the connection is accepted and freed when it closes. Socket
//! bytes are read straight into it; [`FrameAssembler::next`] then
//! parses frames **in place** ([`protocol::parse_frame_ref`]) and hands
//! the caller a payload that borrows the block — no `extend_from_slice`
//! staging copy on the hot path, and no allocation per read.
//!
//! The one place bytes still move is a frame that straddles a block
//! boundary: the partial tail is copied into a per-connection spill
//! buffer and completed from the next block fill, copying *exactly*
//! the bytes the frame still needs ([`protocol::frame_len`]). Those
//! copies — and only those — are added to the reactor's spill counter
//! (`rx_copy_bytes`), which is how the benches assert the zero-copy
//! path really is one: on small-frame traffic the counter stays at a
//! few bytes per thousand requests, not a few hundred per request.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::protocol::{self, FrameRef, ProtoError};

/// Size of one connection's receive block. Large enough that typical
/// solve frames (tens to hundreds of bytes) cross a boundary rarely;
/// small enough that a thousand idle connections hold 64 MiB, not
/// gigabytes.
pub const BLOCK_SIZE: usize = 64 * 1024;

/// Per-connection receive state: one owned block being filled and
/// parsed in place, plus the spill buffer for block-spanning frames.
pub struct FrameAssembler {
    block: Box<[u8]>,
    /// Bytes of the block holding socket data (`pos..filled` unparsed).
    filled: usize,
    /// Parse cursor into the block.
    pos: usize,
    /// A partial frame carried across a block boundary (the only
    /// copied bytes on the receive path).
    spill: Vec<u8>,
    /// The reactor's spill counter (`rx_copy_bytes`), shared by every
    /// connection it serves.
    copied: Arc<AtomicU64>,
}

impl FrameAssembler {
    /// A fresh assembler with its own block; spill copies are added
    /// to `copied`.
    pub fn new(copied: Arc<AtomicU64>) -> FrameAssembler {
        FrameAssembler {
            block: vec![0u8; BLOCK_SIZE].into_boxed_slice(),
            filled: 0,
            pos: 0,
            spill: Vec::new(),
            copied,
        }
    }

    /// Performs **one** read from `r` into the block's free space
    /// (spilling an unparsed tail first if the block is full), exactly
    /// like reading into a stack buffer — same return contract as
    /// [`Read::read`]. `Ok(0)` means EOF.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.filled == BLOCK_SIZE {
            self.spill_tail();
        }
        let n = r.read(&mut self.block[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Moves the unparsed block tail into the spill buffer and resets
    /// the block (the boundary-crossing copy, counted).
    fn spill_tail(&mut self) {
        let tail = &self.block[self.pos..self.filled];
        if !tail.is_empty() {
            self.spill.extend_from_slice(tail);
            self.copied.fetch_add(tail.len() as u64, Ordering::Relaxed);
        }
        self.pos = 0;
        self.filled = 0;
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
                    let chunk = &self.block[self.pos..self.pos + take];
                    self.spill.extend_from_slice(chunk);
                    self.pos += take;
                    self.copied.fetch_add(take as u64, Ordering::Relaxed);
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
            let buf = &self.block[self.pos..self.filled];
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
        let copied = Arc::new(AtomicU64::new(0));
        let mut wire = Vec::new();
        put_tagged_frame(&mut wire, 3, b"hello").unwrap();
        put_tagged_frame(&mut wire, 7, b"world").unwrap();
        let mut asm = FrameAssembler::new(Arc::clone(&copied));
        let mut r = wire.as_slice();
        while asm.fill(&mut r).unwrap() > 0 {}
        let frames = drain(&mut asm);
        assert_eq!(frames, vec![(3, b"hello".to_vec()), (7, b"world".to_vec())]);
        assert_eq!(
            copied.load(Ordering::Relaxed),
            0,
            "in-block frames copy nothing"
        );
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn block_spanning_frame_reassembles_and_counts_copies() {
        let copied = Arc::new(AtomicU64::new(0));
        // One frame bigger than a block: every byte must spill, and the
        // result must still be bit-identical.
        let payload: Vec<u8> = (0..BLOCK_SIZE + 1234).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        put_tagged_frame(&mut wire, 42, &payload).unwrap();
        put_tagged_frame(&mut wire, 43, b"after").unwrap();
        let mut asm = FrameAssembler::new(Arc::clone(&copied));
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
        assert!(
            copied.load(Ordering::Relaxed) > 0,
            "spanning frames are counted"
        );
        assert_eq!(asm.pending(), 0);
    }
}
