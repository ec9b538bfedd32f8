//! Protocol robustness: property-based round-trips of tagged frames,
//! decode hardening against truncated, oversized, untagged and garbage
//! input, and the zero-copy
//! borrowed-payload assembler: arbitrarily split reads — mid-header,
//! mid-payload, across receive-block boundaries — must reassemble
//! bit-identically to a whole-buffer parse.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwsnap_service::bufpool::{FrameAssembler, BLOCK_SIZE};
use lwsnap_service::protocol::{
    parse_frame, read_any_frame, write_tagged_frame, Frame, ProtoError, Request, Response,
    MAX_FRAME, TAGGED,
};
use lwsnap_service::{MetricsSnapshot, StatsSummary};
use lwsnap_trace::metrics::COUNTERS;
use lwsnap_trace::HistogramSnapshot;
use proptest::prelude::*;

// -------------------------------------------------------------------
// The zero-copy assembler under adversarial read splits.
// -------------------------------------------------------------------

/// A reader that hands out the wire bytes in a caller-chosen cycle of
/// chunk sizes — the socket-fragmentation simulator.
struct ChunkedReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunks: &'a [usize],
    next: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let chunk = self.chunks.get(self.next).copied().unwrap_or(97).max(1);
        self.next = (self.next + 1) % self.chunks.len().max(1);
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A decoded frame: its tag and an owned copy of its payload.
type DecodedFrame = (u64, Vec<u8>);

/// Runs `wire` through a [`FrameAssembler`] fed by chunked reads;
/// returns the decoded frames and the byte count the assembler copied.
fn assemble_chunked(wire: &[u8], chunks: &[usize]) -> (Vec<DecodedFrame>, u64) {
    let copied = Arc::new(AtomicU64::new(0));
    let mut asm = FrameAssembler::new(Arc::clone(&copied));
    let mut reader = ChunkedReader {
        data: wire,
        pos: 0,
        chunks,
        next: 0,
    };
    let mut out = Vec::new();
    loop {
        while let Some(frame) = asm
            .next(|f| (f.tag, f.payload.to_vec()))
            .expect("well-formed stream")
        {
            out.push(frame);
        }
        if asm.fill(&mut reader).expect("in-memory read") == 0 {
            break;
        }
    }
    while let Some(frame) = asm
        .next(|f| (f.tag, f.payload.to_vec()))
        .expect("well-formed stream")
    {
        out.push(frame);
    }
    assert_eq!(asm.pending(), 0, "no bytes left behind");
    (out, copied.load(Ordering::Relaxed))
}

/// The whole-buffer reference parse the assembler must match.
fn parse_whole(wire: &[u8]) -> Vec<DecodedFrame> {
    let mut expect = Vec::new();
    let mut pos = 0usize;
    while let Some((frame, used)) = parse_frame(&wire[pos..]).unwrap() {
        expect.push((frame.tag, frame.payload));
        pos += used;
    }
    assert_eq!(pos, wire.len());
    expect
}

// -------------------------------------------------------------------
// Strategies for random protocol values.
// -------------------------------------------------------------------

fn clauses_strategy() -> impl Strategy<Value = Vec<Vec<i64>>> {
    let lit = (1i64..=40, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    proptest::collection::vec(proptest::collection::vec(lit, 0..6), 0..5)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|session| Request::Root { session }),
        (any::<u64>(), clauses_strategy())
            .prop_map(|(parent, clauses)| Request::Solve { parent, clauses }),
        any::<u64>().prop_map(|problem| Request::Release { problem }),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

fn model_strategy() -> impl Strategy<Value = Option<Vec<bool>>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(any::<bool>(), 0..40).prop_map(Some),
    ]
}

fn histogram_strategy() -> impl Strategy<Value = (String, HistogramSnapshot)> {
    let name = proptest::collection::vec(0u8..26, 1..12)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect());
    let buckets = proptest::collection::vec((any::<u8>(), any::<u64>()), 0..6);
    (name, any::<u64>(), any::<u64>(), buckets).prop_map(|(name, count, sum, buckets)| {
        (
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        )
    })
}

/// The stats reply: any node, any counter values, a few histograms.
fn metrics_strategy() -> impl Strategy<Value = Response> {
    (
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), COUNTERS),
        proptest::collection::vec(histogram_strategy(), 0..4),
    )
        .prop_map(|(node, values, histograms)| Response::Metrics {
            node,
            metrics: Box::new(MetricsSnapshot {
                counters: StatsSummary::from_values(values.try_into().unwrap()),
                histograms,
            }),
        })
}

/// Byte offsets of every `u32` element count in an encoded stats reply:
/// the counters', the histograms', and each histogram's buckets'.
fn count_offsets(metrics: &MetricsSnapshot) -> Vec<usize> {
    let mut at = 1 + 8; // tag, node id
    let mut offsets = vec![at];
    at += 4 + StatsSummary::NAMES
        .iter()
        .map(|name| 4 + name.len() + 8)
        .sum::<usize>();
    offsets.push(at);
    at += 4;
    for (name, h) in &metrics.histograms {
        at += 4 + name.len() + 8 + 8;
        offsets.push(at);
        at += 4 + 9 * h.buckets.len();
    }
    offsets
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|problem| Response::Root { problem }),
        (
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
            model_strategy()
        )
            .prop_map(
                |(problem, sat, rederived, conflicts, model)| Response::Solved {
                    problem,
                    sat,
                    rederived,
                    conflicts,
                    model,
                }
            ),
        Just(Response::Released),
        metrics_strategy(),
        proptest::collection::vec(0u8..128, 0..24)
            .prop_map(|bytes| Response::Error(String::from_utf8(bytes).unwrap())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request frames round-trip through both the blocking reader and
    /// the incremental parser, tag preserved exactly.
    #[test]
    fn tagged_request_frames_roundtrip(req in request_strategy(), tag in any::<u64>()) {
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, tag, &req.encode()).unwrap();

        let mut r = wire.as_slice();
        let frame = read_any_frame(&mut r).unwrap().unwrap();
        prop_assert_eq!(frame.tag, tag);
        prop_assert_eq!(Request::decode(&frame.payload), Ok(req.clone()));

        let (frame, used) = parse_frame(&wire).unwrap().unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(frame.tag, tag);
        prop_assert_eq!(Request::decode(&frame.payload), Ok(req));
    }

    /// Response frames round-trip, tag and payload preserved exactly.
    #[test]
    fn response_frames_roundtrip(resp in response_strategy(), tag in any::<u64>()) {
        let payload = resp.encode();
        prop_assert_eq!(Response::decode(&payload), Ok(resp.clone()));

        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, tag, &payload).unwrap();
        let mut r = wire.as_slice();
        let frame = read_any_frame(&mut r).unwrap().unwrap();
        prop_assert_eq!(frame, Frame { tag, payload });
    }

    /// A frame sequence over one buffer parses back in order, each
    /// frame keeping its tag.
    #[test]
    fn frame_streams_parse_in_order(
        frames in proptest::collection::vec((request_strategy(), any::<u64>()), 1..6)
    ) {
        let mut wire = Vec::new();
        for (req, tag) in &frames {
            write_tagged_frame(&mut wire, *tag, &req.encode()).unwrap();
        }
        let mut pos = 0usize;
        for (req, tag) in &frames {
            let (frame, used) = parse_frame(&wire[pos..]).unwrap().unwrap();
            pos += used;
            prop_assert_eq!(frame.tag, *tag);
            prop_assert_eq!(Request::decode(&frame.payload), Ok(req.clone()));
        }
        prop_assert_eq!(pos, wire.len());
    }

    /// Truncating a frame at ANY byte boundary must never decode as a
    /// complete frame: the incremental parser asks for more bytes and
    /// the blocking reader reports UnexpectedEof (clean EOF only at
    /// offset zero).
    #[test]
    fn truncation_never_yields_a_frame(req in request_strategy(), tag in any::<u64>()) {
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, tag, &req.encode()).unwrap();
        for cut in 0..wire.len() {
            prop_assert_eq!(parse_frame(&wire[..cut]).unwrap(), None, "cut at {}", cut);
            let mut r = &wire[..cut];
            match read_any_frame(&mut r) {
                Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
                Ok(Some(_)) => prop_assert!(false, "truncated frame decoded at {}", cut),
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            }
        }
    }

    /// Oversized length words are rejected up front, before any
    /// payload allocation happens.
    #[test]
    fn oversized_headers_are_rejected(extra in 1u32..1024) {
        let len = MAX_FRAME + extra;
        let mut wire = (len | TAGGED).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        prop_assert_eq!(parse_frame(&wire), Err(ProtoError::BadLength(len as u64)));
        let mut r = wire.as_slice();
        prop_assert!(read_any_frame(&mut r).is_err());
    }

    /// A header without the tagged bit is a framing error whatever
    /// length it declares and whatever follows it.
    #[test]
    fn untagged_headers_are_rejected(
        len in 0u32..(1 << 31),
        body in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        prop_assert_eq!(parse_frame(&wire), Err(ProtoError::Untagged));
        let mut r = wire.as_slice();
        let err = read_any_frame(&mut r).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A stats reply whose element counts lie — the counter count, the
    /// histogram count, a bucket count — is refused (or, by luck,
    /// re-encodes to exactly itself), never half-decoded; a counter
    /// count that is not the table's is always refused.
    #[test]
    fn stats_replies_with_hostile_counts_are_refused(
        resp in metrics_strategy(),
        pick in any::<usize>(),
        lie in any::<u32>(),
    ) {
        let Response::Metrics { metrics, .. } = &resp else { unreachable!() };
        let offsets = count_offsets(metrics);
        let at = offsets[pick % offsets.len()];
        let mut hostile = resp.encode();
        let truth = u32::from_le_bytes(hostile[at..at + 4].try_into().unwrap());
        hostile[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        match Response::decode(&hostile) {
            Ok(decoded) => {
                prop_assert_eq!(decoded.encode(), hostile, "decode is exact or an error");
                prop_assert!(at != offsets[0] || lie == truth, "foreign counter table accepted");
            }
            Err(_) => prop_assert!(lie != truth, "an honest reply was refused"),
        }
    }

    /// Garbage payloads never decode successfully into a request or
    /// response unless they happen to re-encode to exactly themselves
    /// (i.e. decode is the inverse of encode, never a lossy guess).
    #[test]
    fn garbage_decode_is_exact_or_error(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Ok(req) = Request::decode(&payload) {
            prop_assert_eq!(req.encode(), payload.clone());
        }
        if let Ok(resp) = Response::decode(&payload) {
            prop_assert_eq!(resp.encode(), payload);
        }
    }

    /// Any chunking of a frame stream — cuts mid-header, mid-tag,
    /// mid-payload, wherever the cycle lands — reassembles through the
    /// block assembler bit-identically to a whole-buffer parse.
    #[test]
    fn split_reads_reassemble_bit_identically(
        frames in proptest::collection::vec((request_strategy(), any::<u64>()), 1..8),
        chunks in proptest::collection::vec(1usize..4096, 1..12),
    ) {
        let mut wire = Vec::new();
        for (req, tag) in &frames {
            write_tagged_frame(&mut wire, *tag, &req.encode()).unwrap();
        }
        let expect = parse_whole(&wire);
        let (got, _copied) = assemble_chunked(&wire, &chunks);
        prop_assert_eq!(got, expect);
    }

    /// A stream that fits in one receive block is parsed fully in place:
    /// zero bytes copied, regardless of how the reads were split.
    #[test]
    fn single_block_streams_copy_nothing(
        frames in proptest::collection::vec((request_strategy(), any::<u64>()), 1..6),
        chunks in proptest::collection::vec(1usize..512, 1..8),
    ) {
        let mut wire = Vec::new();
        for (req, tag) in &frames {
            write_tagged_frame(&mut wire, *tag, &req.encode()).unwrap();
        }
        prop_assert!(wire.len() <= BLOCK_SIZE, "strategy stays well under a block");
        let (got, copied) = assemble_chunked(&wire, &chunks);
        prop_assert_eq!(got.len(), frames.len());
        prop_assert_eq!(copied, 0, "in-block frames must not copy");
    }

    /// Frames sized around the 64 KiB receive-block boundary force the
    /// spill path — the header itself can straddle two blocks — and
    /// the payload still comes back byte-exact, with every copied byte
    /// accounted (each wire byte spills at most once).
    #[test]
    fn block_boundary_frames_reassemble(
        delta in -40i64..24,
        tag in any::<u64>(),
        chunk in 512usize..8192,
        lead in 0usize..64,
    ) {
        let len = (BLOCK_SIZE as i64 + delta).max(1) as usize;
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        // A small leading frame shifts the big frame's header off the
        // block origin, so the length word itself can straddle blocks.
        write_tagged_frame(&mut wire, !tag, &vec![0xab; lead]).unwrap();
        write_tagged_frame(&mut wire, tag, &payload).unwrap();
        let (got, copied) = assemble_chunked(&wire, &[chunk]);
        prop_assert_eq!(got.len(), 2);
        prop_assert_eq!(got[0].1.len(), lead);
        prop_assert_eq!(got[1].0, tag);
        prop_assert_eq!(&got[1].1, &payload);
        if wire.len() > BLOCK_SIZE {
            prop_assert!(copied > 0, "a block-spanning frame must spill");
        } else {
            prop_assert_eq!(copied, 0, "an in-block wire must not spill");
        }
        prop_assert!(copied as usize <= wire.len(), "each byte copies at most once");
    }
}
