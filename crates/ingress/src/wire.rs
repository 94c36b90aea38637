//! The ingress wire protocol: length-prefixed frames carrying a tiny
//! binary request/response encoding.
//!
//! Everything is hand-rolled on `std` — no serde, no async runtime —
//! in the same spirit as the vendored crates.io stand-ins elsewhere in
//! this workspace. The protocol is deliberately minimal:
//!
//! ```text
//! frame    := len:u32le payload[len]          (len <= MAX_FRAME_LEN)
//! payload  := request | response | reject | cancel
//! request  := 0x01 id:u64le seed:u64le n:u16le tensor*n
//! response := 0x02 id:u64le queued_ticks:u64le n:u16le tensor*n
//! reject   := 0x03 id:u64le code:u8 a:u64le b:u64le mlen:u32le msg[mlen]
//! cancel   := 0x06 id:u64le
//! tensor   := dtype:u8 rank:u16le dim:u64le*rank elems
//! ```
//!
//! Tensor elements are little-endian: `f64` as IEEE-754 bit patterns,
//! `i64` two's-complement, `bool` one byte (`0`/`1`). Dtype tags are
//! `0 = f64`, `1 = i64`, `2 = bool`. For a reject, `a`/`b` are
//! code-specific operands (queue depth and budget for
//! [`RejectCode::Overloaded`], zero otherwise).
//!
//! Exact bit patterns on the wire are what make the golden digests of
//! the in-process path (`crates/serve/tests/golden_outputs.rs`) carry
//! over to the TCP route unchanged: encode/decode is a bijection on
//! tensor bits, so serving over ingress cannot perturb a single bit.

use std::fmt;
use std::io::{self, Read, Write};

use autobatch_tensor::{DType, Data, Tensor};

/// Hard cap on a single frame's payload, to bound what a malformed or
/// hostile length prefix can make the server allocate.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const MSG_REQUEST: u8 = 0x01;
const MSG_RESPONSE: u8 = 0x02;
const MSG_REJECT: u8 = 0x03;
const MSG_CANCEL: u8 = 0x06;

const DT_F64: u8 = 0;
const DT_I64: u8 = 1;
const DT_BOOL: u8 = 2;

/// A malformed payload: bad tag, truncated field, oversized count, or
/// a tensor that fails shape validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// Why the server refused a request (the `code` byte of a reject
/// frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Load shed: the ingress queue is at its budget. `a`/`b` carry the
    /// observed depth and the configured budget.
    Overloaded = 1,
    /// The request cannot be served (arity mismatch, undecodable
    /// payload, unexpected message type).
    BadRequest = 2,
    /// The request was accepted but lost to a server-side execution
    /// error.
    Internal = 3,
    /// The server is shutting down and will not serve this request.
    Shutdown = 4,
    /// The request decoded fine but violates the served program's
    /// statically inferred signature (wrong dtype or element shape):
    /// it could never execute, so it is refused before touching any
    /// machine state. Distinct from [`RejectCode::BadRequest`], which
    /// covers undecodable or structurally malformed traffic.
    Invalid = 5,
    /// The served program's quarantine breaker is open: its requests
    /// repeatedly blew their resource budgets, so the server
    /// fast-rejects at admission until the cooldown elapses and a
    /// half-open probe succeeds.
    Quarantined = 6,
    /// The request ran but exceeded a per-request resource ceiling
    /// (supersteps, deadline, or peak memory): its lane was evicted at
    /// a superstep boundary. `a`/`b` carry the spend and the limit.
    OverBudget = 7,
    /// The request was cancelled — by a `0x06` cancel frame or by its
    /// connection disconnecting — before it completed.
    Cancelled = 8,
}

impl RejectCode {
    fn from_u8(x: u8) -> Result<RejectCode, ProtocolError> {
        match x {
            1 => Ok(RejectCode::Overloaded),
            2 => Ok(RejectCode::BadRequest),
            3 => Ok(RejectCode::Internal),
            4 => Ok(RejectCode::Shutdown),
            5 => Ok(RejectCode::Invalid),
            6 => Ok(RejectCode::Quarantined),
            7 => Ok(RejectCode::OverBudget),
            8 => Ok(RejectCode::Cancelled),
            other => Err(ProtocolError(format!("unknown reject code {other}"))),
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Caller-chosen request id, echoed on the response.
    pub id: u64,
    /// RNG seed for the request's lane (see `autobatch_serve::Request`).
    pub seed: u64,
    /// Program inputs.
    pub inputs: Vec<Tensor>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The id of the request this answers.
    pub id: u64,
    /// Wall-clock nanoseconds the request spent queued at the ingress:
    /// from its arrival at the server to the moment its batch was
    /// handed to the execution fleet.
    pub queued_ticks: u64,
    /// Program outputs, bit-exact as computed.
    pub outputs: Vec<Tensor>,
}

/// A decoded reject frame: the typed refusal for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReject {
    /// The id of the refused request (0 when no request was decodable).
    pub id: u64,
    /// Why it was refused.
    pub code: RejectCode,
    /// Queue depth at rejection ([`RejectCode::Overloaded`] only).
    pub depth: u64,
    /// Configured queue budget ([`RejectCode::Overloaded`] only).
    pub budget: u64,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for WireReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            RejectCode::Overloaded => write!(
                f,
                "request {} overloaded: queue depth {} at budget {}",
                self.id, self.depth, self.budget
            ),
            RejectCode::BadRequest => {
                write!(f, "request {} rejected: {}", self.id, self.message)
            }
            RejectCode::Internal => {
                write!(
                    f,
                    "request {} failed server-side: {}",
                    self.id, self.message
                )
            }
            RejectCode::Shutdown => {
                write!(
                    f,
                    "request {} refused: server shutting down ({})",
                    self.id, self.message
                )
            }
            RejectCode::Invalid => {
                write!(
                    f,
                    "request {} statically invalid: {}",
                    self.id, self.message
                )
            }
            RejectCode::Quarantined => {
                write!(f, "request {} quarantined: {}", self.id, self.message)
            }
            RejectCode::OverBudget => {
                write!(
                    f,
                    "request {} over budget ({} against limit {}): {}",
                    self.id, self.depth, self.budget, self.message
                )
            }
            RejectCode::Cancelled => {
                write!(f, "request {} cancelled: {}", self.id, self.message)
            }
        }
    }
}

/// Any message the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server.
    Request(WireRequest),
    /// Server → client, success.
    Response(WireResponse),
    /// Server → client, typed refusal.
    Reject(WireReject),
    /// Client → server: cooperatively cancel the named in-flight
    /// request. Acknowledged with a [`RejectCode::Cancelled`] reject
    /// once the lane is evicted (or ignored if the id already
    /// completed — the response wins the race).
    Cancel(u64),
}

/// Append one frame to `out`: a `u32` little-endian length prefix, then
/// the payload. Every frame this crate puts on a socket is assembled
/// here, so that prefix and payload (and, for a flush's replies, a whole
/// connection's burst) leave in one `write`.
///
/// # Errors
///
/// `InvalidInput` if the payload exceeds [`MAX_FRAME_LEN`].
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
            )
        })?;
    out.reserve(4 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Write one frame ([`put_frame`]) in a single `write`, then flush. Two
/// writes per frame would put the prefix in a segment of its own, and
/// the payload behind it would wait out Nagle and the peer's delayed
/// ACK (40 ms on Linux) on a socket without `TCP_NODELAY`.
///
/// # Errors
///
/// As [`put_frame`]; otherwise whatever the underlying writer reports.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    put_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// The size of a reader's staging buffer. A page holds a burst of some
/// ninety echo-sized frames; a frame that cannot fit is read straight
/// into its own allocation instead. Every connection keeps one of these
/// for its lifetime, so it counts against the server's resident size.
const READ_CHUNK: usize = 4 * 1024;

/// Incremental frame reassembly over a byte stream.
///
/// TCP delivers bytes, not frames; a read can also time out mid-frame
/// when the socket has a read timeout (the ingress connection threads
/// use one to poll their stop flag). `FrameReader` buffers partial
/// input across calls so neither split writes nor timeouts lose bytes.
///
/// Input is read straight into the staging buffer's spare room and
/// frames are consumed by moving a cursor: a frame's bytes are copied
/// once, into the `Vec` handed to the caller, and the only other copy is
/// of the partial frame behind the last whole one (less than the 4 KiB
/// buffer, once per read). A frame longer than the staging buffer is not
/// staged at all: the reader allocates the caller's `Vec` and reads the
/// rest of the frame into it directly.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// `buf[start..end]` is input not yet returned; `buf[end..]` is
    /// spare room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// A frame too long for `buf`, and how much of it has arrived.
    wide: Option<(Vec<u8>, usize)>,
}

impl FrameReader {
    /// A reader with no buffered input.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Block until one full frame is available and return its payload.
    ///
    /// Returns `Ok(None)` on clean EOF at a frame boundary. Timeouts
    /// (`WouldBlock` / `TimedOut`) propagate as errors with any partial
    /// input retained — call again to resume.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the stream ends mid-frame, `InvalidData` on
    /// an oversized length prefix, and any underlying I/O error.
    pub fn next_frame(&mut self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some((frame, filled)) = &mut self.wide {
                if *filled == frame.len() {
                    return Ok(self.wide.take().map(|(frame, _)| frame));
                }
                match r.read(&mut frame[*filled..])? {
                    0 => return Err(mid_frame_eof()),
                    n => *filled += n,
                }
                continue;
            }
            let unread = &self.buf[self.start..self.end];
            if let Some(prefix) = unread.first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix);
                if len > MAX_FRAME_LEN {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds MAX_FRAME_LEN"),
                    ));
                }
                let (body, len) = (&unread[4..], len as usize);
                if body.len() >= len {
                    self.start += 4 + len;
                    return Ok(Some(body[..len].to_vec()));
                }
                if 4 + len > READ_CHUNK {
                    // Zeroed, so pages of a length the peer only claimed
                    // are not resident until its bytes arrive.
                    let mut frame = vec![0; len];
                    frame[..body.len()].copy_from_slice(body);
                    self.wide = Some((frame, body.len()));
                    self.start = self.end;
                    continue;
                }
            }
            // What is left is less than one frame that fits: to the front.
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            self.buf.resize(READ_CHUNK, 0);
            match r.read(&mut self.buf[self.end..])? {
                0 if self.end == 0 => return Ok(None),
                0 => return Err(mid_frame_eof()),
                n => self.end += n,
            }
        }
    }
}

fn mid_frame_eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame")
}

/// Encode a request payload (no frame prefix; pair with
/// [`write_frame`]).
///
/// # Errors
///
/// If the request has more than `u16::MAX` inputs or a tensor is not
/// encodable (rank over `u16::MAX`).
pub fn encode_request(id: u64, seed: u64, inputs: &[Tensor]) -> Result<Vec<u8>, ProtocolError> {
    let mut out = vec![MSG_REQUEST];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    put_tensor_list(&mut out, inputs)?;
    Ok(out)
}

/// Encode a response payload.
///
/// # Errors
///
/// As [`encode_request`].
pub fn encode_response(
    id: u64,
    queued_ticks: u64,
    outputs: &[Tensor],
) -> Result<Vec<u8>, ProtocolError> {
    let mut out = vec![MSG_RESPONSE];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&queued_ticks.to_le_bytes());
    put_tensor_list(&mut out, outputs)?;
    Ok(out)
}

/// Encode a cancel payload: the client-side request to stop an
/// in-flight request's lane.
pub fn encode_cancel(id: u64) -> Vec<u8> {
    let mut out = vec![MSG_CANCEL];
    out.extend_from_slice(&id.to_le_bytes());
    out
}

/// Encode a reject payload. Always succeeds: the message is truncated
/// to `u32::MAX` bytes (in practice a sentence).
pub fn encode_reject(reject: &WireReject) -> Vec<u8> {
    let mut out = vec![MSG_REJECT];
    out.extend_from_slice(&reject.id.to_le_bytes());
    out.push(reject.code as u8);
    out.extend_from_slice(&reject.depth.to_le_bytes());
    out.extend_from_slice(&reject.budget.to_le_bytes());
    let msg = reject.message.as_bytes();
    let mlen = u32::try_from(msg.len()).unwrap_or(u32::MAX) as usize;
    out.extend_from_slice(&(mlen as u32).to_le_bytes());
    out.extend_from_slice(&msg[..mlen]);
    out
}

/// Decode one payload into a typed [`Message`].
///
/// # Errors
///
/// [`ProtocolError`] on any malformed input: unknown tag, truncated
/// field, trailing garbage, or an undecodable tensor.
pub fn decode(payload: &[u8]) -> Result<Message, ProtocolError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let msg = match tag {
        MSG_REQUEST => {
            let id = c.u64()?;
            let seed = c.u64()?;
            let inputs = c.tensor_list()?;
            Message::Request(WireRequest { id, seed, inputs })
        }
        MSG_RESPONSE => {
            let id = c.u64()?;
            let queued_ticks = c.u64()?;
            let outputs = c.tensor_list()?;
            Message::Response(WireResponse {
                id,
                queued_ticks,
                outputs,
            })
        }
        MSG_REJECT => {
            let id = c.u64()?;
            let code = RejectCode::from_u8(c.u8()?)?;
            let depth = c.u64()?;
            let budget = c.u64()?;
            let mlen = c.u32()? as usize;
            let message = String::from_utf8(c.bytes(mlen)?.to_vec())
                .map_err(|_| ProtocolError("reject message is not UTF-8".into()))?;
            Message::Reject(WireReject {
                id,
                code,
                depth,
                budget,
                message,
            })
        }
        MSG_CANCEL => Message::Cancel(c.u64()?),
        other => return Err(ProtocolError(format!("unknown message tag {other:#04x}"))),
    };
    c.finish()?;
    Ok(msg)
}

fn put_tensor_list(out: &mut Vec<u8>, tensors: &[Tensor]) -> Result<(), ProtocolError> {
    let n = u16::try_from(tensors.len())
        .map_err(|_| ProtocolError(format!("{} tensors exceed the u16 count", tensors.len())))?;
    out.extend_from_slice(&n.to_le_bytes());
    for t in tensors {
        put_tensor(out, t)?;
    }
    Ok(())
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) -> Result<(), ProtocolError> {
    out.push(match t.dtype() {
        DType::F64 => DT_F64,
        DType::I64 => DT_I64,
        DType::Bool => DT_BOOL,
    });
    let rank = u16::try_from(t.shape().len())
        .map_err(|_| ProtocolError(format!("rank {} exceeds u16", t.shape().len())))?;
    out.extend_from_slice(&rank.to_le_bytes());
    for &d in t.shape() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    match t.data() {
        Data::F64(v) => v
            .iter()
            .for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes())),
        Data::I64(v) => v
            .iter()
            .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Data::Bool(v) => v.iter().for_each(|&x| out.push(u8::from(x))),
    }
    Ok(())
}

/// A bounds-checked reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtocolError("payload truncated".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn tensor_list(&mut self) -> Result<Vec<Tensor>, ProtocolError> {
        let n = self.u16()? as usize;
        (0..n).map(|_| self.tensor()).collect()
    }

    fn tensor(&mut self) -> Result<Tensor, ProtocolError> {
        let dtype = match self.u8()? {
            DT_F64 => DType::F64,
            DT_I64 => DType::I64,
            DT_BOOL => DType::Bool,
            other => return Err(ProtocolError(format!("unknown dtype tag {other}"))),
        };
        let rank = self.u16()? as usize;
        let mut shape = Vec::with_capacity(rank);
        let mut volume: usize = 1;
        for _ in 0..rank {
            let d = usize::try_from(self.u64()?)
                .map_err(|_| ProtocolError("dimension exceeds usize".into()))?;
            volume = volume
                .checked_mul(d)
                .ok_or_else(|| ProtocolError("tensor volume overflows".into()))?;
            shape.push(d);
        }
        // The element payload must actually be present before any
        // allocation of `volume` elements is attempted.
        let elem = dtype.size_bytes();
        let need = volume
            .checked_mul(elem)
            .filter(|&n| n <= self.buf.len() - self.pos)
            .ok_or_else(|| ProtocolError("tensor data truncated".into()))?;
        let raw = self.bytes(need)?;
        let data = match dtype {
            DType::F64 => Data::F64(
                raw.chunks_exact(8)
                    .map(|b| {
                        f64::from_bits(u64::from_le_bytes([
                            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                        ]))
                    })
                    .collect(),
            ),
            DType::I64 => Data::I64(
                raw.chunks_exact(8)
                    .map(|b| i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
                    .collect(),
            ),
            DType::Bool => Data::Bool(raw.iter().map(|&b| b != 0).collect()),
        };
        Tensor::new(data, &shape).map_err(|e| ProtocolError(format!("bad tensor: {e}")))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_tensors() -> Vec<Tensor> {
        vec![
            Tensor::from_f64(&[1.5, -0.0, f64::INFINITY, 3.25e-300], &[2, 2]).unwrap(),
            Tensor::from_i64(&[i64::MIN, -1, 0, 7], &[4]).unwrap(),
            Tensor::from_bool(&[true, false, true], &[3]).unwrap(),
        ]
    }

    #[test]
    fn request_roundtrips_bit_exact() {
        let payload = encode_request(42, 0xdead_beef, &sample_tensors()).unwrap();
        match decode(&payload).unwrap() {
            Message::Request(r) => {
                assert_eq!(r.id, 42);
                assert_eq!(r.seed, 0xdead_beef);
                assert_eq!(r.inputs, sample_tensors());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips_including_nan_bits() {
        // A quiet NaN with a nonstandard payload must survive: the
        // encoding is on bit patterns, not float values.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let t = Tensor::from_f64(&[nan], &[1]).unwrap();
        let payload = encode_response(7, 1234, std::slice::from_ref(&t)).unwrap();
        match decode(&payload).unwrap() {
            Message::Response(r) => {
                assert_eq!(r.id, 7);
                assert_eq!(r.queued_ticks, 1234);
                let got = r.outputs[0].as_f64().unwrap();
                assert_eq!(got[0].to_bits(), nan.to_bits());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn reject_roundtrips() {
        let rej = WireReject {
            id: 9,
            code: RejectCode::Overloaded,
            depth: 12,
            budget: 8,
            message: "overloaded: queue depth 12 at budget 8".into(),
        };
        let payload = encode_reject(&rej);
        assert_eq!(decode(&payload).unwrap(), Message::Reject(rej));
    }

    #[test]
    fn cancel_roundtrips() {
        let payload = encode_cancel(0xfeed_f00d);
        assert_eq!(decode(&payload).unwrap(), Message::Cancel(0xfeed_f00d));
        // Truncated id and trailing garbage are typed errors.
        assert!(decode(&payload[..5]).is_err());
        let mut extended = payload;
        extended.push(0);
        assert!(decode(&extended).is_err());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Unknown tag.
        assert!(decode(&[0x7f]).is_err());
        // Truncated request.
        let payload = encode_request(1, 2, &sample_tensors()).unwrap();
        assert!(decode(&payload[..payload.len() - 1]).is_err());
        // Trailing garbage.
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
        // Bad dtype tag inside a tensor.
        let mut bad = payload;
        // tag(1) + id(8) + seed(8) + count(2) = 19 → first dtype byte.
        bad[19] = 0x44;
        assert!(decode(&bad).is_err());
        // A huge claimed volume with no data behind it must not
        // allocate or panic.
        let mut huge = vec![MSG_REQUEST];
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&1u16.to_le_bytes());
        huge.push(DT_F64);
        huge.extend_from_slice(&1u16.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&huge).is_err());
    }

    /// Tensors of every dtype, rank 0 to 2 and up to four elements,
    /// one per drawn word, their shape and values spelled by its bits.
    fn drawn_tensors(words: &[u64]) -> Vec<Tensor> {
        words
            .iter()
            .map(|&w| {
                let shape: Vec<usize> = (0..w % 3)
                    .map(|k| 1 + (w >> (2 + k)) as usize % 2)
                    .collect();
                let values =
                    (1..=shape.iter().product::<usize>() as u64).map(|i| w.wrapping_mul(i));
                match (w >> 8) % 3 {
                    0 => Tensor::from_f64(&values.map(f64::from_bits).collect::<Vec<_>>(), &shape),
                    1 => Tensor::from_i64(&values.map(|v| v as i64).collect::<Vec<_>>(), &shape),
                    _ => Tensor::from_bool(&values.map(|v| v & 1 == 1).collect::<Vec<_>>(), &shape),
                }
                .unwrap()
            })
            .collect()
    }

    /// A decoded message's payload, encoded again.
    fn encode(m: &Message) -> Vec<u8> {
        match m {
            Message::Request(r) => encode_request(r.id, r.seed, &r.inputs).unwrap(),
            Message::Response(r) => encode_response(r.id, r.queued_ticks, &r.outputs).unwrap(),
            Message::Reject(r) => encode_reject(r),
            Message::Cancel(id) => encode_cancel(*id),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever a damaged payload holds, decoding it is a value, never
        /// a panic: every strict prefix of a valid request, response,
        /// reject and cancel payload is a `ProtocolError`, and every
        /// single-byte change of one (a drawn byte, `0x00`, `0xff` and the
        /// top bit flipped, at every position) decodes to a message that
        /// spans the whole payload or to a `ProtocolError`.
        #[test]
        fn damaged_payloads_decode_to_a_message_or_a_typed_error(
            id in any::<u64>(),
            seed in any::<u64>(),
            words in proptest::collection::vec(any::<u64>(), 0..4),
            code in 1u8..=8,
            text in proptest::collection::vec(0u32..4, 0..12),
            bytes in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let tensors = drawn_tensors(&words);
            let message: String = text.iter().map(|&c| ['a', ' ', 'é', '✓'][c as usize]).collect();
            let reject = WireReject {
                id,
                code: RejectCode::from_u8(code).unwrap(),
                depth: seed,
                budget: id ^ seed,
                message,
            };
            let payloads = [
                encode_request(id, seed, &tensors).unwrap(),
                encode_response(id, seed, &tensors).unwrap(),
                encode_reject(&reject),
                encode_cancel(id),
            ];
            for payload in &payloads {
                let whole = decode(payload).expect("a valid payload decodes");
                prop_assert_eq!(&encode(&whole), payload);
                for end in 0..payload.len() {
                    prop_assert!(decode(&payload[..end]).is_err(), "a {}-byte prefix decoded", end);
                }
                for at in 0..payload.len() {
                    let was = payload[at];
                    for now in [bytes[at % bytes.len()], 0x00, 0xff, was ^ 0x80] {
                        let mut changed = payload.clone();
                        changed[at] = now;
                        if let Ok(m) = decode(&changed) {
                            prop_assert_eq!(encode(&m).len(), changed.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frames_reassemble_across_split_reads() {
        let payload = encode_request(3, 4, &sample_tensors()).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        write_frame(&mut framed, &payload).unwrap();
        // Deliver the byte stream one byte at a time.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = FrameReader::new();
        let mut src = Trickle(&framed);
        assert_eq!(r.next_frame(&mut src).unwrap(), Some(payload.clone()));
        assert_eq!(r.next_frame(&mut src).unwrap(), Some(payload));
        assert_eq!(r.next_frame(&mut src).unwrap(), None);
    }

    /// Counts `write` calls; takes whatever it is given.
    #[derive(Default)]
    pub(crate) struct CountingWrite {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for len in [12, 64 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWrite::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload");
            let mut r = FrameReader::new();
            assert_eq!(
                r.next_frame(&mut w.bytes.as_slice()).unwrap(),
                Some(payload)
            );
        }
    }

    /// A byte stream handed out in scripted pieces, with scripted
    /// timeouts in between.
    struct Script<'a> {
        data: &'a [u8],
        /// Size of each successive read, cycled.
        cuts: &'a [usize],
        /// Before each read: 1 = `WouldBlock` first, 2 = `TimedOut`
        /// first, anything else = no stall. Used up, then no stalls.
        stalls: &'a [u8],
        reads: usize,
    }

    impl Read for Script<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if let Some((&stall, rest)) = self.stalls.split_first() {
                self.stalls = rest;
                match stall {
                    1 => return Err(io::ErrorKind::WouldBlock.into()),
                    2 => return Err(io::ErrorKind::TimedOut.into()),
                    _ => {}
                }
            }
            let cut = self.cuts[self.reads % self.cuts.len()];
            self.reads += 1;
            let n = cut.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// However the stream is cut into reads and wherever timeouts
        /// fall, the reader yields exactly the frames written, in order,
        /// and then the stream's end: clean EOF, `UnexpectedEof` inside a
        /// frame, or `InvalidData` at an oversized length prefix.
        #[test]
        fn frames_survive_any_split_and_any_timeouts(
            lens in proptest::collection::vec(0usize..40_000, 0..10),
            small in any::<bool>(),
            cuts in proptest::collection::vec(1usize..70_000, 1..8),
            stalls in proptest::collection::vec(0u8..4, 0..64),
            tail in 0u8..3,
            torn in 1usize..5_000,
        ) {
            // Half the cases are bursts of small frames (many per read),
            // half are frames that outgrow the reader's first buffer.
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let len = if small { len % 64 } else { len };
                    (0..len).map(|j| (i * 31 + j) as u8).collect()
                })
                .collect();
            let mut stream = Vec::new();
            for p in &payloads {
                write_frame(&mut stream, p).unwrap();
            }
            let want_end = match tail {
                1 => {
                    write_frame(&mut stream, &[7u8; 5_000]).unwrap();
                    stream.truncate(stream.len() - torn);
                    Some(io::ErrorKind::UnexpectedEof)
                }
                2 => {
                    stream.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
                    Some(io::ErrorKind::InvalidData)
                }
                _ => None,
            };
            let mut src = Script { data: &stream, cuts: &cuts, stalls: &stalls, reads: 0 };
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            let end = loop {
                match reader.next_frame(&mut src) {
                    Ok(Some(frame)) => got.push(frame),
                    Ok(None) => break None,
                    Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                    Err(e) => break Some(e.kind()),
                }
            };
            prop_assert_eq!(got, payloads);
            prop_assert_eq!(end, want_end);
        }
    }

    #[test]
    fn frames_at_the_staging_boundary_take_either_route_intact() {
        // Prefix and payload together fit the staging buffer up to
        // `READ_CHUNK - 4` payload bytes and go wide beyond.
        for len in READ_CHUNK - 6..=READ_CHUNK {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut stream = Vec::new();
            for _ in 0..3 {
                write_frame(&mut stream, &payload).unwrap();
            }
            let mut src = Script {
                data: &stream,
                cuts: &[1_000, 7, 4_096],
                stalls: &[1, 0, 2],
                reads: 0,
            };
            let mut r = FrameReader::new();
            let mut got = 0;
            loop {
                match r.next_frame(&mut src) {
                    Ok(Some(frame)) => {
                        assert_eq!(frame, payload, "frame {got} of {len} bytes");
                        got += 1;
                    }
                    Ok(None) => break,
                    Err(e) => assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ),
                        "{len}-byte frames: {e}"
                    ),
                }
            }
            assert_eq!(got, 3, "{len}-byte frames");
        }
    }

    #[test]
    fn a_wide_frame_bypasses_the_staging_buffer() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[1u8; 64 * 1024]).unwrap();
        write_frame(&mut stream, &[2u8; 8]).unwrap();
        let mut src = stream.as_slice();
        let mut r = FrameReader::new();
        assert_eq!(r.next_frame(&mut src).unwrap(), Some(vec![1u8; 64 * 1024]));
        assert_eq!(r.next_frame(&mut src).unwrap(), Some(vec![2u8; 8]));
        assert_eq!(r.next_frame(&mut src).unwrap(), None);
        assert_eq!(r.buf.len(), READ_CHUNK);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = FrameReader::new();
        let err = r.next_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let payload = encode_request(1, 1, &[]).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        framed.truncate(framed.len() - 1);
        let mut r = FrameReader::new();
        let err = r.next_frame(&mut framed.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
