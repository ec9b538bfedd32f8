//! The wire protocol: length-prefixed binary frames over any
//! `Read`/`Write` transport.
//!
//! Every message is one frame: a little-endian `u32` header word
//! followed by the payload; messages start with a one-byte tag. The
//! encoding is hand-rolled (the workspace builds offline, without serde)
//! and deliberately boring: LE fixed-width integers, `u32`-prefixed
//! sequences, bit-packed models.
//!
//! ## Framing
//!
//! The header word has bit 31 ([`TAGGED`]) set and the payload length
//! in the low 31 bits; the payload starts with a little-endian `u64`
//! *correlation tag* chosen by the client, followed by the message. The
//! server echoes the tag on the reply and may complete requests **out
//! of order**, which is what lets one connection pipeline many
//! in-flight solves. A header with bit 31 clear is a framing error
//! ([`ProtoError::Untagged`]): the server answers it with an error
//! frame tagged [`CONNECTION_TAG`] and closes the connection, like any
//! other framing garbage.
//!
//! Clause literals travel in DIMACS convention (non-zero `i64`, sign =
//! negation) so the protocol stays independent of the solver's internal
//! literal encoding.

use std::io::{self, Read, Write};

use lwsnap_solver::Lit;
use lwsnap_trace::metrics::COUNTERS;
use lwsnap_trace::{Event, HistogramSnapshot, Kind, MetricsSnapshot, StatsSummary};

/// Upper bound on a frame payload (guards against hostile or corrupt
/// length prefixes before any allocation happens).
pub const MAX_FRAME: u32 = 64 << 20;

/// Header bit every frame carries: the payload opens with a `u64`
/// correlation tag.
pub const TAGGED: u32 = 1 << 31;

/// The tag of a server frame that answers no request: the error sent
/// before closing a connection whose framing broke. Clients allocate
/// request tags from 1.
pub const CONNECTION_TAG: u64 = 0;

/// Protocol-level decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FRAME`] or its container.
    BadLength(u64),
    /// A frame header without the [`TAGGED`] bit.
    Untagged,
    /// A string field was not UTF-8.
    BadUtf8,
    /// A clause literal was zero (forbidden in DIMACS convention).
    ZeroLiteral,
    /// A stats reply named a counter out of table order: the two ends
    /// were built from different counter tables.
    BadCounter(String),
    /// A wire problem id named a shard the service does not have.
    BadShard(u64),
    /// A wire problem id was routed to the wrong cluster node (stale
    /// cluster map, or a router bug).
    WrongNode {
        /// The node id the problem id names.
        got: u64,
        /// The node id of the service that received it.
        expected: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::BadLength(n) => write!(f, "implausible length {n}"),
            ProtoError::Untagged => write!(f, "untagged frame header"),
            ProtoError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            ProtoError::ZeroLiteral => write!(f, "zero literal in clause"),
            ProtoError::BadCounter(name) => write!(f, "counter {name:?} out of table order"),
            ProtoError::BadShard(s) => write!(f, "shard index {s} out of range"),
            ProtoError::WrongNode { got, expected } => {
                write!(
                    f,
                    "problem id routed to node {got}, this is node {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The root problem for a client session (the service hashes the
    /// session id onto a shard).
    Root {
        /// Client-chosen session identifier.
        session: u64,
    },
    /// Solve `parent ∧ clauses`.
    Solve {
        /// Wire id of the parent problem ([`crate::ProblemId::to_wire`]).
        parent: u64,
        /// Incremental constraint, DIMACS literals.
        clauses: Vec<Vec<i64>>,
    },
    /// Release a problem snapshot.
    Release {
        /// Wire id of the problem to release.
        problem: u64,
    },
    /// Fetch the node's stats, answered with [`Response::Metrics`].
    Stats,
    /// Ask the daemon to shut down: answered with its final
    /// [`Response::Metrics`], then the connection closes.
    Shutdown,
    /// Ship one edge of a session's constraint path log to the
    /// session's replica: "on the session's home node, `problem` was
    /// derived from `parent` by adding `clauses`". The receiving node
    /// records the edge in its passive replica store
    /// ([`crate::ReplicaStore`]) without solving anything, idempotent
    /// by `problem`. The home node sends one fire-and-forget after each
    /// successful solve of a tracked session; a client re-sends its
    /// copy of the log before a promotion. Acked with
    /// [`Response::Released`].
    Replicate {
        /// The session whose path log this edge extends.
        session: u64,
        /// Wire id of the derived problem (on its HOME node).
        problem: u64,
        /// Wire id of the parent it was derived from.
        parent: u64,
        /// The incremental constraint, DIMACS literals.
        clauses: Vec<Vec<i64>>,
    },
    /// Promote the replica of `session`: replay the recorded constraint
    /// paths of `problems` onto this node's own problem tree (the home
    /// node died, or is draining out). Answered with
    /// [`Response::Promoted`] mapping each old wire id to its promoted
    /// local id.
    Promote {
        /// The session being failed over onto this node.
        session: u64,
        /// The home-node wire ids to materialize here, oldest first.
        problems: Vec<u64>,
    },
    /// Drop replicated path-log edges for released problems: a client
    /// released `problems` on the session's home node, so their edges
    /// in this node's passive replica store are dead weight — they
    /// will never be promoted. The replica GC counterpart of
    /// [`Request::Replicate`], sent fire-and-forget by the home node on
    /// release; acked with [`Response::Released`]. Edges that still
    /// have recorded children are kept (the child's replay path runs
    /// through them).
    Unreplicate {
        /// The session whose replicated edges are being pruned.
        session: u64,
        /// Home-node wire ids of the released problems.
        problems: Vec<u64>,
    },
    /// Liveness probe of the server-to-server heartbeat, sent on a
    /// jittered timer over the same per-peer connection that carries
    /// [`Request::Replicate`]. The reactor answers it inline with
    /// [`Response::Pong`], so a busy worker pool does not delay it — and
    /// a node that answers pings while its solves stall still looks
    /// alive (clients catch that with their read deadline).
    Ping,
    /// Drain the node's trace rings and ship the merged event stream,
    /// answered with [`Response::Trace`]. Draining is consuming: each
    /// event is exported once, to one caller.
    TraceDump,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Root`].
    Root {
        /// Wire id of the session's root problem.
        problem: u64,
    },
    /// Reply to [`Request::Solve`].
    Solved {
        /// Wire id of the new problem `p∧q`.
        problem: u64,
        /// `true` = SAT (then `model` is `Some`), `false` = UNSAT.
        sat: bool,
        /// Whether the parent was re-derived from an evicted snapshot.
        rederived: bool,
        /// Conflicts the query cost.
        conflicts: u64,
        /// The model, if SAT.
        model: Option<Vec<bool>>,
    },
    /// Reply to [`Request::Release`] (idempotent).
    Released,
    /// The request could not be served (dead reference, bad shard, ...).
    Error(String),
    /// Reply to [`Request::Promote`]: `(old home-node wire id, promoted
    /// wire id on this node)` for every problem whose path could be
    /// replayed (problems with no recorded path are omitted).
    Promoted {
        /// Old-to-new wire id pairs, in the request's problem order.
        mapping: Vec<(u64, u64)>,
    },
    /// Reply to [`Request::Ping`]: the responder is alive.
    Pong {
        /// Responder identity (its cluster node id).
        node: u64,
    },
    /// Reply to [`Request::Stats`] and [`Request::Shutdown`]: the
    /// answering node's id, its counters and the process's latency
    /// histograms. Counters travel as `(name, value)` pairs in table
    /// order ([`StatsSummary::NAMES`]), histograms with their buckets,
    /// so replies from many nodes merge exactly.
    Metrics {
        /// The answering node's cluster id.
        node: u64,
        /// Its counters and histograms (boxed: every other response is
        /// a few words, and solve replies are moved between threads).
        metrics: Box<MetricsSnapshot>,
    },
    /// Reply to [`Request::TraceDump`]: the node's merged,
    /// time-ordered trace events drained so far.
    Trace(Vec<Event>),
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

/// One decoded frame: the correlation tag plus the message payload
/// (tag bytes already stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The correlation tag.
    pub tag: u64,
    /// The message payload.
    pub payload: Vec<u8>,
}

fn check_len(len: usize) -> Result<u32, ProtoError> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or(ProtoError::BadLength(len as u64))
}

/// Writes one frame: header bit 31 set, payload prefixed with the
/// little-endian correlation tag.
pub fn write_tagged_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    put_tagged_frame(w, tag, payload)?;
    w.flush()
}

/// Writes one frame **without flushing** — the corked form a
/// [`crate::PipelinedClient`] uses for every submit, so the frames a
/// caller submits before it waits reach the socket in one write.
pub fn put_tagged_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    let len = check_len(payload.len().saturating_add(8))?;
    w.write_all(&(len | TAGGED).to_le_bytes())?;
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` if the stream ended
/// cleanly *before the first byte*; an EOF after a partial read is an
/// `UnexpectedEof` error (truncation is never silently a clean close).
fn read_exact_or_clean_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Validates a header word and returns the payload length it declares
/// (correlation tag included).
fn body_len(word: u32) -> Result<usize, ProtoError> {
    if word & TAGGED == 0 {
        return Err(ProtoError::Untagged);
    }
    let len = word & !TAGGED;
    if !(8..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::BadLength(len as u64));
    }
    Ok(len as usize)
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary; an
/// EOF inside a frame (even inside the 4-byte header) is an
/// `UnexpectedEof` error.
pub fn read_any_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 4];
    if !read_exact_or_clean_eof(r, &mut header)? {
        return Ok(None);
    }
    let len = body_len(u32::from_le_bytes(header))?;
    let mut tag = [0u8; 8];
    r.read_exact(&mut tag)?;
    let mut payload = vec![0u8; len - 8];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame {
        tag: u64::from_le_bytes(tag),
        payload,
    }))
}

/// One decoded frame whose payload **borrows** the receive buffer it
/// was parsed from — the zero-copy twin of [`Frame`]. The reactor's
/// pooled read path parses frames in place off its block and decodes
/// the [`Request`] straight out of the borrow, so payload bytes are
/// never staged through an intermediate `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The correlation tag.
    pub tag: u64,
    /// The message payload, borrowed from the receive buffer.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// An owning copy (the compatibility bridge to [`Frame`]).
    pub fn to_owned(self) -> Frame {
        Frame {
            tag: self.tag,
            payload: self.payload.to_vec(),
        }
    }
}

/// Total size (header + body) of the frame starting at the front of
/// `buf`, or `Ok(None)` if fewer than 4 header bytes are present yet.
/// The spill path of the pooled reader uses this to copy *exactly* the
/// bytes a block-spanning frame still needs, and not one more.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let word = u32::from_le_bytes(buf[..4].try_into().unwrap());
    Ok(Some(4 + body_len(word)?))
}

/// Incremental (non-blocking) frame extraction for readiness-loop
/// servers: examines the front of `buf` and returns the first complete
/// frame plus the number of bytes it consumed, `Ok(None)` if more bytes
/// are needed, or a [`ProtoError`] for a malformed header. Never blocks
/// and never consumes a partial frame. The payload borrows `buf`; see
/// [`parse_frame`] for the owning form.
pub fn parse_frame_ref(buf: &[u8]) -> Result<Option<(FrameRef<'_>, usize)>, ProtoError> {
    let Some(total) = frame_len(buf)? else {
        return Ok(None);
    };
    if buf.len() < total {
        return Ok(None);
    }
    let frame = FrameRef {
        tag: u64::from_le_bytes(buf[4..12].try_into().unwrap()),
        payload: &buf[12..total],
    };
    Ok(Some((frame, total)))
}

/// [`parse_frame_ref`] with an owning payload, for callers that keep
/// the frame past the buffer's lifetime.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
    Ok(parse_frame_ref(buf)?.map(|(f, used)| (f.to_owned(), used)))
}

// ---------------------------------------------------------------------
// Payload encoding.
// ---------------------------------------------------------------------

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A `u32` used as an element count: bounded by what the remaining
    /// payload could possibly hold (`min_elem_size` bytes per element).
    fn count(&mut self, min_elem_size: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_size.max(1)) > remaining {
            return Err(ProtoError::BadLength(n as u64));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::BadLength((self.buf.len() - self.pos) as u64))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_clauses(out: &mut Vec<u8>, clauses: &[Vec<i64>]) {
    put_u32(out, clauses.len() as u32);
    for clause in clauses {
        put_u32(out, clause.len() as u32);
        for &lit in clause {
            out.extend_from_slice(&lit.to_le_bytes());
        }
    }
}

fn decode_clauses(d: &mut Decoder<'_>) -> Result<Vec<Vec<i64>>, ProtoError> {
    let nclauses = d.count(4)?;
    let mut clauses = Vec::with_capacity(nclauses);
    for _ in 0..nclauses {
        let nlits = d.count(8)?;
        let mut clause = Vec::with_capacity(nlits);
        for _ in 0..nlits {
            let lit = d.i64()?;
            if lit == 0 {
                return Err(ProtoError::ZeroLiteral);
            }
            clause.push(lit);
        }
        clauses.push(clause);
    }
    Ok(clauses)
}

fn encode_model(out: &mut Vec<u8>, model: &Option<Vec<bool>>) {
    match model {
        None => out.push(0),
        Some(bits) => {
            out.push(1);
            put_u32(out, bits.len() as u32);
            let mut byte = 0u8;
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if bits.len() % 8 != 0 {
                out.push(byte);
            }
        }
    }
}

fn decode_model(d: &mut Decoder<'_>) -> Result<Option<Vec<bool>>, ProtoError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let nbits = d.u32()? as usize;
            let nbytes = nbits.div_ceil(8);
            let packed = d.bytes(nbytes)?;
            Ok(Some(
                (0..nbits)
                    .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
                    .collect(),
            ))
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

impl Request {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Root { session } => {
                out.push(1);
                put_u64(&mut out, *session);
            }
            Request::Solve { parent, clauses } => {
                out.push(2);
                put_u64(&mut out, *parent);
                encode_clauses(&mut out, clauses);
            }
            Request::Release { problem } => {
                out.push(3);
                put_u64(&mut out, *problem);
            }
            Request::Stats => out.push(4),
            Request::Shutdown => out.push(5),
            Request::Replicate {
                session,
                problem,
                parent,
                clauses,
            } => {
                out.push(6);
                put_u64(&mut out, *session);
                put_u64(&mut out, *problem);
                put_u64(&mut out, *parent);
                encode_clauses(&mut out, clauses);
            }
            Request::Promote { session, problems } => {
                out.push(7);
                put_u64(&mut out, *session);
                put_u32(&mut out, problems.len() as u32);
                for &p in problems {
                    put_u64(&mut out, p);
                }
            }
            Request::Unreplicate { session, problems } => {
                out.push(8);
                put_u64(&mut out, *session);
                put_u32(&mut out, problems.len() as u32);
                for &p in problems {
                    put_u64(&mut out, p);
                }
            }
            Request::Ping => out.push(10),
            Request::TraceDump => out.push(12),
        }
        out
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Decoder::new(payload);
        let req = match d.u8()? {
            1 => Request::Root { session: d.u64()? },
            2 => Request::Solve {
                parent: d.u64()?,
                clauses: decode_clauses(&mut d)?,
            },
            3 => Request::Release { problem: d.u64()? },
            4 => Request::Stats,
            5 => Request::Shutdown,
            6 => Request::Replicate {
                session: d.u64()?,
                problem: d.u64()?,
                parent: d.u64()?,
                clauses: decode_clauses(&mut d)?,
            },
            7 => Request::Promote {
                session: d.u64()?,
                problems: {
                    let n = d.count(8)?;
                    (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?
                },
            },
            8 => Request::Unreplicate {
                session: d.u64()?,
                problems: {
                    let n = d.count(8)?;
                    (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?
                },
            },
            10 => Request::Ping,
            12 => Request::TraceDump,
            t => return Err(ProtoError::BadTag(t)),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Root { problem } => {
                out.push(1);
                put_u64(&mut out, *problem);
            }
            Response::Solved {
                problem,
                sat,
                rederived,
                conflicts,
                model,
            } => {
                out.push(2);
                put_u64(&mut out, *problem);
                out.push(*sat as u8);
                out.push(*rederived as u8);
                put_u64(&mut out, *conflicts);
                encode_model(&mut out, model);
            }
            Response::Released => out.push(3),
            Response::Error(msg) => {
                out.push(5);
                put_u32(&mut out, msg.len() as u32);
                out.extend_from_slice(msg.as_bytes());
            }
            Response::Promoted { mapping } => {
                out.push(6);
                put_u32(&mut out, mapping.len() as u32);
                for &(old, new) in mapping {
                    put_u64(&mut out, old);
                    put_u64(&mut out, new);
                }
            }
            Response::Pong { node } => {
                out.push(7);
                put_u64(&mut out, *node);
            }
            Response::Metrics { node, metrics } => {
                out.push(8);
                put_u64(&mut out, *node);
                encode_metrics(&mut out, metrics);
            }
            Response::Trace(events) => {
                out.push(9);
                encode_events(&mut out, events);
            }
        }
        out
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Decoder::new(payload);
        let resp = match d.u8()? {
            1 => Response::Root { problem: d.u64()? },
            2 => Response::Solved {
                problem: d.u64()?,
                sat: d.u8()? != 0,
                rederived: d.u8()? != 0,
                conflicts: d.u64()?,
                model: decode_model(&mut d)?,
            },
            3 => Response::Released,
            5 => {
                let len = d.count(1)?;
                let bytes = d.bytes(len)?;
                Response::Error(
                    std::str::from_utf8(bytes)
                        .map_err(|_| ProtoError::BadUtf8)?
                        .to_owned(),
                )
            }
            6 => Response::Promoted {
                mapping: {
                    let n = d.count(16)?;
                    (0..n)
                        .map(|_| Ok((d.u64()?, d.u64()?)))
                        .collect::<Result<_, ProtoError>>()?
                },
            },
            7 => Response::Pong { node: d.u64()? },
            8 => Response::Metrics {
                node: d.u64()?,
                metrics: Box::new(decode_metrics(&mut d)?),
            },
            9 => Response::Trace(decode_events(&mut d)?),
            t => return Err(ProtoError::BadTag(t)),
        };
        d.finish()?;
        Ok(resp)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(d: &mut Decoder<'_>) -> Result<String, ProtoError> {
    let len = d.count(1)?;
    let bytes = d.bytes(len)?;
    Ok(std::str::from_utf8(bytes)
        .map_err(|_| ProtoError::BadUtf8)?
        .to_owned())
}

fn encode_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    put_u32(out, COUNTERS as u32);
    for (name, v) in StatsSummary::NAMES.iter().zip(m.counters.values()) {
        put_str(out, name);
        put_u64(out, v);
    }
    put_u32(out, m.histograms.len() as u32);
    for (name, h) in &m.histograms {
        put_str(out, name);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u32(out, h.buckets.len() as u32);
        for &(idx, n) in &h.buckets {
            out.push(idx);
            put_u64(out, n);
        }
    }
}

fn decode_metrics(d: &mut Decoder<'_>) -> Result<MetricsSnapshot, ProtoError> {
    // The counters are the whole table in table order: a peer built from
    // another table is refused, not half understood. Every entry carries
    // at least a name length (4) plus a value (8).
    let ncounters = d.count(12)?;
    if ncounters != COUNTERS {
        return Err(ProtoError::BadLength(ncounters as u64));
    }
    let mut values = [0; COUNTERS];
    for (value, expected) in values.iter_mut().zip(StatsSummary::NAMES) {
        let name = decode_str(d)?;
        if name != expected {
            return Err(ProtoError::BadCounter(name));
        }
        *value = d.u64()?;
    }
    let nhists = d.count(24)?;
    let histograms = (0..nhists)
        .map(|_| {
            let name = decode_str(d)?;
            let count = d.u64()?;
            let sum = d.u64()?;
            let nbuckets = d.count(9)?;
            let buckets = (0..nbuckets)
                .map(|_| Ok((d.u8()?, d.u64()?)))
                .collect::<Result<_, ProtoError>>()?;
            Ok((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            ))
        })
        .collect::<Result<_, ProtoError>>()?;
    Ok(MetricsSnapshot {
        counters: StatsSummary::from_values(values),
        histograms,
    })
}

/// Fixed wire size of one trace event: ts + dur + kind + tid + a + b.
const EVENT_WIRE_SIZE: usize = 8 + 8 + 2 + 4 + 8 + 8;

fn encode_events(out: &mut Vec<u8>, events: &[Event]) {
    put_u32(out, events.len() as u32);
    for e in events {
        put_u64(out, e.ts_ns);
        put_u64(out, e.dur_ns);
        out.extend_from_slice(&e.kind.code().to_le_bytes());
        put_u32(out, e.tid);
        put_u64(out, e.a);
        put_u64(out, e.b);
    }
}

fn decode_events(d: &mut Decoder<'_>) -> Result<Vec<Event>, ProtoError> {
    let n = d.count(EVENT_WIRE_SIZE)?;
    (0..n)
        .map(|_| {
            let ts_ns = d.u64()?;
            let dur_ns = d.u64()?;
            let code = u16::from_le_bytes(d.bytes(2)?.try_into().unwrap());
            let kind = Kind::from_code(code).ok_or(ProtoError::BadTag(code as u8))?;
            Ok(Event {
                ts_ns,
                dur_ns,
                kind,
                tid: d.u32()?,
                a: d.u64()?,
                b: d.u64()?,
            })
        })
        .collect()
}

/// Converts wire clauses (DIMACS `i64`) to solver literals.
pub fn clauses_to_lits(clauses: &[Vec<i64>]) -> Vec<Vec<Lit>> {
    clauses
        .iter()
        .map(|c| c.iter().map(|&v| Lit::from_dimacs(v)).collect())
        .collect()
}

/// Converts solver literals to wire clauses.
pub fn lits_to_clauses(clauses: &[Vec<Lit>]) -> Vec<Vec<i64>> {
    clauses
        .iter()
        .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload), Ok(req));
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload), Ok(resp));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Root { session: 99 });
        roundtrip_request(Request::Solve {
            parent: 7 << 32 | 3,
            clauses: vec![vec![1, -2, 3], vec![-4], vec![]],
        });
        roundtrip_request(Request::Release { problem: 12 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Replicate {
            session: 42,
            problem: 1 << 48 | 7 << 32 | 3,
            parent: 1 << 48 | 7 << 32,
            clauses: vec![vec![1, -2], vec![3]],
        });
        roundtrip_request(Request::Promote {
            session: 42,
            problems: vec![1 << 48 | 3, 1 << 48 | 4, u64::MAX],
        });
        roundtrip_request(Request::Promote {
            session: 0,
            problems: vec![],
        });
        roundtrip_request(Request::Unreplicate {
            session: 42,
            problems: vec![1 << 48 | 7 << 32 | 3, 9],
        });
        roundtrip_request(Request::Unreplicate {
            session: 1,
            problems: vec![],
        });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::TraceDump);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Root { problem: 1 << 32 });
        roundtrip_response(Response::Solved {
            problem: 5,
            sat: true,
            rederived: true,
            conflicts: 42,
            model: Some(vec![
                true, false, true, true, false, false, true, true, true,
            ]),
        });
        roundtrip_response(Response::Solved {
            problem: 6,
            sat: false,
            rederived: false,
            conflicts: 17,
            model: None,
        });
        roundtrip_response(Response::Released);
        roundtrip_response(Response::Error("dead reference".into()));
        roundtrip_response(Response::Promoted {
            mapping: vec![(1 << 48 | 3, 2 << 48 | 11), (7, 8)],
        });
        roundtrip_response(Response::Promoted { mapping: vec![] });
        roundtrip_response(Response::Pong { node: 2 });
        roundtrip_response(Response::Pong { node: u64::MAX });
        roundtrip_response(Response::Metrics {
            node: 3,
            metrics: Box::new(MetricsSnapshot {
                counters: StatsSummary {
                    shards: 4,
                    queries: 100,
                    dead_peers: 1,
                    ..Default::default()
                },
                histograms: vec![(
                    "solve_ns".into(),
                    HistogramSnapshot {
                        count: 4,
                        sum: 900,
                        buckets: vec![(0, 1), (17, 3)],
                    },
                )],
            }),
        });
        roundtrip_response(Response::Metrics {
            node: 0,
            metrics: Box::default(),
        });
        roundtrip_response(Response::Trace(vec![
            Event {
                ts_ns: 1_000,
                dur_ns: 250,
                kind: Kind::ReqSolve,
                tid: 3,
                a: 42,
                b: 0,
            },
            Event {
                ts_ns: 2_000,
                dur_ns: 0,
                kind: Kind::ChaosInject,
                tid: 1,
                a: u64::MAX,
                b: 7,
            },
        ]));
        roundtrip_response(Response::Trace(vec![]));
    }

    #[test]
    fn trace_events_with_unknown_kinds_are_rejected() {
        let mut payload = vec![9u8];
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 1); // ts
        put_u64(&mut payload, 0); // dur
        payload.extend_from_slice(&999u16.to_le_bytes()); // bad kind
        put_u32(&mut payload, 0); // tid
        put_u64(&mut payload, 0); // a
        put_u64(&mut payload, 0); // b
        assert!(Response::decode(&payload).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counter table, as a property: every field survives
        /// struct → named wire form → struct, `absorb` is a field-wise
        /// sum, and no two counters share a name.
        #[test]
        fn stats_table_survives_the_wire_and_sums_fieldwise(
            a in proptest::collection::vec(any::<u64>(), COUNTERS),
            b in proptest::collection::vec(any::<u64>(), COUNTERS),
            node in any::<u64>(),
        ) {
            let a = StatsSummary::from_values(a.try_into().unwrap());
            let b = StatsSummary::from_values(b.try_into().unwrap());
            let reply = Response::Metrics {
                node,
                metrics: Box::new(MetricsSnapshot { counters: a, histograms: vec![] }),
            };
            prop_assert_eq!(Response::decode(&reply.encode()), Ok(reply));

            let mut sum = a;
            sum.absorb(&b);
            for ((s, x), y) in sum.values().into_iter().zip(a.values()).zip(b.values()) {
                prop_assert_eq!(s, x.wrapping_add(y));
            }

            let mut names = StatsSummary::NAMES.to_vec();
            names.sort_unstable();
            names.dedup();
            prop_assert_eq!(names.len(), COUNTERS);
        }
    }

    #[test]
    fn stats_absorb_sums_replication_counters() {
        let mut a = StatsSummary {
            shards: 2,
            failovers: 1,
            replica_promotions: 3,
            replica_bytes: 100,
            resident_bytes: 4096,
            shared_pages: 5,
            private_pages: 7,
            heartbeat_misses: 4,
            dead_peers: 2,
            ..Default::default()
        };
        let b = StatsSummary {
            shards: 2,
            failovers: 2,
            replica_promotions: 5,
            replica_bytes: 50,
            resident_bytes: 8192,
            shared_pages: 1,
            private_pages: 2,
            heartbeat_misses: 1,
            dead_peers: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.shards, 4);
        assert_eq!(a.failovers, 3);
        assert_eq!(a.replica_promotions, 8);
        assert_eq!(a.replica_bytes, 150);
        assert_eq!(a.resident_bytes, 12288);
        assert_eq!(a.shared_pages, 6);
        assert_eq!(a.private_pages, 9);
        assert_eq!(a.heartbeat_misses, 5);
        assert_eq!(a.dead_peers, 5);
    }

    #[test]
    fn stats_absorb_sums_mem_counters() {
        let mut a = StatsSummary {
            cow_page_copies: 10,
            zero_fills: 3,
            bytes_written: 4096,
            ..Default::default()
        };
        let b = StatsSummary {
            cow_page_copies: 5,
            zero_fills: 1,
            bytes_written: 512,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.cow_page_copies, 15);
        assert_eq!(a.zero_fills, 4);
        assert_eq!(a.bytes_written, 4608);
    }

    #[test]
    fn stats_replies_from_another_counter_table_are_refused() {
        let reply = Response::Metrics {
            node: 1,
            metrics: Box::default(),
        }
        .encode();
        // The counter count sits after the tag and the node id.
        let count_at = 1 + 8;
        for count in [0, COUNTERS as u32 - 1, COUNTERS as u32 + 1, u32::MAX] {
            let mut hostile = reply.clone();
            hostile[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            assert!(Response::decode(&hostile).is_err(), "count {count}");
        }
        // Same count, but the first counter renamed.
        let mut renamed = reply.clone();
        let first = count_at + 4 + 4;
        renamed[first] = b'x';
        assert!(matches!(
            Response::decode(&renamed),
            Err(ProtoError::BadCounter(_))
        ));
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let payload = Request::Solve {
            parent: 3,
            clauses: vec![vec![1, -2]],
        }
        .encode();
        for cut in 1..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        assert_eq!(Request::decode(&[99]), Err(ProtoError::BadTag(99)));
        // Trailing junk is rejected too.
        let mut long = Request::Stats.encode();
        long.push(0);
        assert!(Request::decode(&long).is_err());
        // Zero literals never cross the boundary.
        let mut zero = Vec::new();
        zero.push(2);
        put_u64(&mut zero, 0);
        put_u32(&mut zero, 1);
        put_u32(&mut zero, 1);
        zero.extend_from_slice(&0i64.to_le_bytes());
        assert_eq!(Request::decode(&zero), Err(ProtoError::ZeroLiteral));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let frames = [
            (42, Request::Stats),
            (
                1,
                Request::Solve {
                    parent: 0,
                    clauses: vec![vec![1, 2]],
                },
            ),
            (u64::MAX, Request::Root { session: 9 }),
        ];
        let mut wire = Vec::new();
        for (tag, req) in &frames {
            write_tagged_frame(&mut wire, *tag, &req.encode()).unwrap();
        }
        let mut r = wire.as_slice();
        for (tag, req) in &frames {
            let frame = read_any_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(frame.tag, *tag);
            assert_eq!(Request::decode(&frame.payload).unwrap(), *req);
        }
        assert_eq!(read_any_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_header_is_an_error_not_clean_eof() {
        // 2 of 4 header bytes then EOF must be an error.
        let wire = [7u8, 0];
        let mut r = wire.as_slice();
        let err = read_any_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncated payload mid-frame too.
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, 1, &Request::Stats.encode()).unwrap();
        wire.pop();
        let mut r = wire.as_slice();
        let err = read_any_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn incremental_parser_matches_blocking_reader() {
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, 7, &Request::Stats.encode()).unwrap();
        write_tagged_frame(&mut wire, 8, &Request::Shutdown.encode()).unwrap();
        // Every prefix short of the first full frame yields None.
        let first_len = 4 + 8 + Request::Stats.encode().len();
        for cut in 0..first_len {
            assert_eq!(
                parse_frame(&wire[..cut]).unwrap(),
                None,
                "prefix {cut} is incomplete"
            );
        }
        let (f1, used1) = parse_frame(&wire).unwrap().unwrap();
        assert_eq!(f1.tag, 7);
        assert_eq!(used1, first_len);
        let (f2, used2) = parse_frame(&wire[used1..]).unwrap().unwrap();
        assert_eq!(f2.tag, 8);
        assert_eq!(Request::decode(&f2.payload), Ok(Request::Shutdown));
        assert_eq!(used1 + used2, wire.len());
    }

    #[test]
    fn header_shorter_than_its_tag_is_rejected() {
        // A header whose length can't even hold the 8-byte tag.
        let word = TAGGED | 3;
        let mut wire = word.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0, 0, 0]);
        assert_eq!(parse_frame(&wire), Err(ProtoError::BadLength(3)));
        let mut r = wire.as_slice();
        assert!(read_any_frame(&mut r).is_err());
    }

    #[test]
    fn untagged_header_is_rejected() {
        // Bit 31 clear: what a pre-tagging client would send.
        let payload = Request::Stats.encode();
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert_eq!(parse_frame(&wire), Err(ProtoError::Untagged));
        assert_eq!(frame_len(&wire), Err(ProtoError::Untagged));
        let mut r = wire.as_slice();
        let err = read_any_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME + 1) | TAGGED).to_le_bytes());
        let mut r = wire.as_slice();
        assert!(read_any_frame(&mut r).is_err());
        // An absurd element count inside a tiny payload is caught too.
        let mut payload = vec![2u8];
        put_u64(&mut payload, 0);
        put_u32(&mut payload, u32::MAX);
        assert!(Request::decode(&payload).is_err());
    }
}
