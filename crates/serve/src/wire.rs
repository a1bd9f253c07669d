//! The EDDIE wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! [ u32 LE length ][ u8 tag ][ payload ... ]
//! ```
//!
//! where `length` counts the tag byte plus the payload. All integers
//! are little-endian; `f32`/`f64` travel as their IEEE-754 bit
//! patterns, so a sample round-trips bit-exactly (including NaNs) and
//! the server-side monitor sees *exactly* the bytes the capture device
//! produced — the property the loopback equivalence gate relies on.
//!
//! The decoder is written to face the open network: frames above
//! [`MAX_FRAME_LEN`], truncated payloads, unknown tags, trailing
//! garbage, non-UTF-8 model ids, and length/count mismatches are all
//! rejected with a typed [`WireError`] — never a panic and never an
//! allocation proportional to an attacker-chosen length beyond the
//! frame cap. `tests` include a random-bytes fuzz smoke, and the
//! server replies [`ErrCode::BadFrame`] instead of dying.
//!
//! No dependencies beyond `std`: the protocol must stay usable from
//! capture-device firmware with no serialization library.
//!
//! Tag `0x03` and error code `6` are retired and must not be reused: an
//! older client that still sends a `0x03` frame is then refused with
//! [`ErrCode::BadFrame`], like any unknown tag, and never has it read
//! as some other frame.

use std::fmt;
use std::io::{self, Read, Write};

use eddie_core::MonitorEvent;
use eddie_isa::RegionId;
use eddie_stream::StreamEvent;

/// Hard cap on the encoded size of one frame (tag + payload), in
/// bytes. Large enough for a 256 KiSample chunk (1 MiB of `f32`),
/// small enough that a hostile length prefix cannot make the server
/// allocate unbounded memory.
pub const MAX_FRAME_LEN: usize = (1 << 20) + 64;

/// Maximum samples in one [`Frame::Chunk`] — the largest count that
/// fits under [`MAX_FRAME_LEN`].
pub const MAX_CHUNK_SAMPLES: usize = 1 << 18;

const TAG_HELLO: u8 = 0x01;
const TAG_CHUNK: u8 = 0x02;
const TAG_CLOSE: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_HELLO_RESUMABLE: u8 = 0x06;
const TAG_RESUME: u8 = 0x07;
const TAG_FINISH: u8 = 0x08;
const TAG_ACK: u8 = 0x81;
const TAG_BUSY: u8 = 0x82;
const TAG_EVENT: u8 = 0x83;
const TAG_ERR: u8 = 0x84;
const TAG_STATS_REPLY: u8 = 0x85;
const TAG_SESSION: u8 = 0x86;
const TAG_FINISHED: u8 = 0x87;
const TAG_MOVED: u8 = 0x88;

/// Why the server is refusing a frame or a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// The frame could not be decoded (malformed, oversized,
    /// truncated, unknown tag). The connection is closed afterwards:
    /// once framing is lost there is no way to resynchronise.
    BadFrame = 1,
    /// A frame arrived out of protocol order (e.g. `Chunk` before
    /// `Hello`, or a second `Hello`).
    ProtocolViolation = 2,
    /// The `Hello` named a model id the server does not host.
    UnknownModel = 3,
    /// The `Hello`'s sample rate was rejected by the session (NaN,
    /// non-positive, or invalid for the model's STFT configuration).
    BadHello = 4,
    /// The server is shutting down and no longer accepts work.
    Shutdown = 5,
    /// A `Resume` asked for events older than the server's retained
    /// event tail; the client cannot recover the gap and must start a
    /// fresh session.
    ResumeGap = 7,
    /// A `Resume` carried a token the server does not recognise
    /// (expired, evicted after the linger window, or never issued).
    UnknownToken = 8,
}

impl ErrCode {
    /// Decodes a wire error code; unknown values map to `None`.
    pub fn from_u16(code: u16) -> Option<ErrCode> {
        match code {
            1 => Some(ErrCode::BadFrame),
            2 => Some(ErrCode::ProtocolViolation),
            3 => Some(ErrCode::UnknownModel),
            4 => Some(ErrCode::BadHello),
            5 => Some(ErrCode::Shutdown),
            7 => Some(ErrCode::ResumeGap),
            8 => Some(ErrCode::UnknownToken),
            _ => None,
        }
    }

    /// The workspace-wide [`ErrorKind`](eddie_core::ErrorKind) this
    /// refusal maps to — what recovery code branches on.
    pub fn kind(self) -> eddie_core::ErrorKind {
        match self {
            ErrCode::BadFrame => eddie_core::ErrorKind::MalformedFrame,
            ErrCode::ProtocolViolation => eddie_core::ErrorKind::ProtocolViolation,
            ErrCode::UnknownModel => eddie_core::ErrorKind::UnknownModel,
            ErrCode::BadHello => eddie_core::ErrorKind::InvalidConfig,
            ErrCode::Shutdown => eddie_core::ErrorKind::ProtocolViolation,
            ErrCode::ResumeGap => eddie_core::ErrorKind::ResumeGap,
            ErrCode::UnknownToken => eddie_core::ErrorKind::UnknownToken,
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrCode::BadFrame => "malformed frame",
            ErrCode::ProtocolViolation => "frame out of protocol order",
            ErrCode::UnknownModel => "unknown model id",
            ErrCode::BadHello => "invalid hello parameters",
            ErrCode::Shutdown => "server shutting down",
            ErrCode::ResumeGap => "resume asks for events beyond the retained tail",
            ErrCode::UnknownToken => "unknown resume token",
        };
        f.write_str(s)
    }
}

/// The kind of a monitoring decision on the wire — a flat mirror of
/// [`eddie_core::MonitorEvent`] with the region change's target carried
/// in the event frame's `region` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Window matched the tracked region.
    Normal,
    /// Tracking moved to the region in the frame's `region` field.
    RegionChange,
    /// A tolerated rejection (below the report threshold).
    Suspicious,
    /// Report threshold exceeded: anomaly reported.
    Anomaly,
}

/// One frame of the protocol, client→server (`Hello`,
/// `HelloResumable`, `Resume`, `Chunk`, `Finish`, `Close`)
/// or server→client (`Ack`, `Busy`, `Event`, `Err`, `Session`,
/// `Finished`).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: which trained model to monitor against and
    /// the capture device's sample rate in hertz.
    Hello {
        /// Server-side id of the trained model.
        model_id: String,
        /// Device sample rate, hertz.
        sample_rate: f64,
    },
    /// A signal chunk. `seq` numbers chunks densely from 0 per
    /// connection; the server accepts only the next expected sequence
    /// number, which makes [`Frame::Busy`] retries unambiguous.
    Chunk {
        /// Dense per-connection chunk sequence number.
        seq: u64,
        /// Raw signal samples (bit-exact on the wire).
        samples: Vec<f32>,
    },
    /// Graceful end of stream: the server finishes queued work, sends
    /// the remaining events, and closes.
    Close,
    /// Asks the server for its current metrics. Allowed in any
    /// protocol state, including before `Hello`, so an operator can
    /// scrape a server without starting a monitoring session.
    Stats,
    /// Like [`Frame::Hello`], but asks for a *resumable* session: the
    /// server replies [`Frame::Session`] with a resume token, keeps a
    /// bounded tail of sent events, and parks (instead of evicting) the
    /// session when the connection dies, so a reconnecting client can
    /// [`Frame::Resume`] where it left off.
    HelloResumable {
        /// Server-side id of the trained model.
        model_id: String,
        /// Device sample rate, hertz.
        sample_rate: f64,
    },
    /// Re-attaches to a parked resumable session after a reconnect.
    /// The server replies [`Frame::Session`] (carrying the next chunk
    /// seq it expects) and replays every retained event from
    /// `have_windows` on, or refuses with [`ErrCode::UnknownToken`] /
    /// [`ErrCode::ResumeGap`].
    Resume {
        /// The token issued by the session's [`Frame::Session`] reply.
        token: u64,
        /// Number of event windows the client has already received
        /// (i.e. the next window index it still needs).
        have_windows: u64,
    },
    /// Asks the server to finish all queued work for this session and
    /// report the total window count — the resumable replacement for
    /// the implicit flush of [`Frame::Close`]. The server sends every
    /// remaining [`Frame::Event`], then [`Frame::Finished`]; the
    /// connection stays open.
    Finish,
    /// The chunk with this sequence number was queued.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Explicit backpressure: the chunk with this sequence number was
    /// NOT queued ([`Fleet::push_chunk`](eddie_stream::Fleet::push_chunk)
    /// reported `Full`, or the chunk arrived out of order behind a
    /// rejected one). Resend it, in order, after a pause.
    Busy {
        /// Sequence number that must be resent.
        seq: u64,
    },
    /// One monitoring decision for one completed STS window.
    Event {
        /// STS window index (same index as the batch pipeline).
        window: u64,
        /// What the monitor concluded.
        kind: EventKind,
        /// Target region of a `RegionChange`; the tracked region
        /// otherwise.
        region: u32,
        /// Alarm state latched after the window.
        alarm: bool,
        /// Region tracked after the window.
        tracked: u32,
    },
    /// The server refuses the previous frame or the connection.
    Err {
        /// Why.
        code: ErrCode,
    },
    /// Reply to [`Frame::Stats`]: the server's metrics in the
    /// Prometheus text exposition format (UTF-8). The server's own
    /// books are there whether or not an observer is installed.
    StatsReply {
        /// Prometheus-text rendering of the server's metrics.
        text: String,
    },
    /// Reply to [`Frame::HelloResumable`] and [`Frame::Resume`]: the
    /// session is attached.
    Session {
        /// Token identifying the session across reconnects.
        token: u64,
        /// The next chunk sequence number the server expects — after a
        /// resume, the client rewinds its send cursor here.
        next_seq: u64,
    },
    /// Reply to [`Frame::Finish`], after every queued chunk has been
    /// drained and every event sent.
    Finished {
        /// Total STS windows the session has observed.
        windows: u64,
    },
    /// Redirect: this endpoint does not (or no longer does) own the
    /// session — reconnect to `shard_addr`. Sent by a cluster router
    /// answering a misrouted `Hello`/`HelloResumable`/`Resume`, and by
    /// a shard whose session has been migrated away. A nonzero `token`
    /// means "a resumable session awaits you there: `Resume` with this
    /// token"; `token == 0` means "no session exists yet — start fresh
    /// with `HelloResumable` at the new address".
    Moved {
        /// Address (`host:port`) of the shard that owns the session.
        shard_addr: String,
        /// Resume token valid at `shard_addr`, or 0 for none.
        token: u64,
    },
}

/// Decode-side failure. The variants deliberately carry enough to log,
/// and nothing sized by attacker input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    BadLength {
        /// The offending length prefix.
        len: u32,
    },
    /// The stream ended inside a frame.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// The payload does not match the tag's layout.
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLength { len } => write!(f, "frame length {len} out of bounds"),
            WireError::Truncated => f.write_str("stream truncated inside a frame"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadPayload(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The workspace-wide [`ErrorKind`](eddie_core::ErrorKind) this
    /// decode failure maps to.
    pub fn kind(&self) -> eddie_core::ErrorKind {
        match self {
            WireError::Truncated => eddie_core::ErrorKind::TruncatedStream,
            WireError::BadLength { .. } | WireError::BadTag(_) | WireError::BadPayload(_) => {
                eddie_core::ErrorKind::MalformedFrame
            }
        }
    }
}

impl From<WireError> for eddie_core::Error {
    fn from(e: WireError) -> eddie_core::Error {
        eddie_core::Error::with_source(e.kind(), "eddie-serve", e.to_string(), e)
    }
}

/// A [`WireError`] or the I/O error that interrupted framing.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes arrived but do not form a valid frame.
    Wire(WireError),
    /// The transport failed.
    Io(io::Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Wire(e) => write!(f, "wire error: {e}"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl ReadError {
    /// The workspace-wide [`ErrorKind`](eddie_core::ErrorKind) this
    /// read failure maps to.
    pub fn kind(&self) -> eddie_core::ErrorKind {
        match self {
            ReadError::Wire(e) => e.kind(),
            ReadError::Io(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    eddie_core::ErrorKind::Timeout
                }
                io::ErrorKind::UnexpectedEof => eddie_core::ErrorKind::TruncatedStream,
                _ => eddie_core::ErrorKind::Io,
            },
        }
    }
}

impl From<ReadError> for eddie_core::Error {
    fn from(e: ReadError) -> eddie_core::Error {
        eddie_core::Error::with_source(e.kind(), "eddie-serve", e.to_string(), e)
    }
}

impl From<WireError> for ReadError {
    fn from(e: WireError) -> ReadError {
        ReadError::Wire(e)
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

impl Frame {
    /// Builds an [`Frame::Event`] from a session's [`StreamEvent`].
    pub fn from_stream_event(ev: &StreamEvent) -> Frame {
        let (kind, region) = match ev.event {
            MonitorEvent::Normal => (EventKind::Normal, ev.tracked.index()),
            MonitorEvent::RegionChange(r) => (EventKind::RegionChange, r.index()),
            MonitorEvent::Suspicious => (EventKind::Suspicious, ev.tracked.index()),
            MonitorEvent::Anomaly => (EventKind::Anomaly, ev.tracked.index()),
        };
        Frame::Event {
            window: ev.window as u64,
            kind,
            region,
            alarm: ev.alarm,
            tracked: ev.tracked.index(),
        }
    }

    /// Reconstructs the [`StreamEvent`] an [`Frame::Event`] carries;
    /// `None` for other frame kinds.
    pub fn to_stream_event(&self) -> Option<StreamEvent> {
        let Frame::Event {
            window,
            kind,
            region,
            alarm,
            tracked,
        } = self
        else {
            return None;
        };
        let event = match kind {
            EventKind::Normal => MonitorEvent::Normal,
            EventKind::RegionChange => MonitorEvent::RegionChange(RegionId::new(*region)),
            EventKind::Suspicious => MonitorEvent::Suspicious,
            EventKind::Anomaly => MonitorEvent::Anomaly,
        };
        Some(StreamEvent {
            window: *window as usize,
            event,
            alarm: *alarm,
            tracked: RegionId::new(*tracked),
        })
    }

    /// Appends the encoded frame (length prefix included) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]); // length patched below
        match self {
            Frame::Hello {
                model_id,
                sample_rate,
            } => {
                buf.push(TAG_HELLO);
                let id = model_id.as_bytes();
                buf.extend_from_slice(&(id.len() as u32).to_le_bytes());
                buf.extend_from_slice(id);
                buf.extend_from_slice(&sample_rate.to_bits().to_le_bytes());
            }
            Frame::Chunk { seq, samples } => {
                buf.push(TAG_CHUNK);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
                for s in samples {
                    buf.extend_from_slice(&s.to_bits().to_le_bytes());
                }
            }
            Frame::Close => buf.push(TAG_CLOSE),
            Frame::Stats => buf.push(TAG_STATS),
            Frame::HelloResumable {
                model_id,
                sample_rate,
            } => {
                buf.push(TAG_HELLO_RESUMABLE);
                let id = model_id.as_bytes();
                buf.extend_from_slice(&(id.len() as u32).to_le_bytes());
                buf.extend_from_slice(id);
                buf.extend_from_slice(&sample_rate.to_bits().to_le_bytes());
            }
            Frame::Resume {
                token,
                have_windows,
            } => {
                buf.push(TAG_RESUME);
                buf.extend_from_slice(&token.to_le_bytes());
                buf.extend_from_slice(&have_windows.to_le_bytes());
            }
            Frame::Finish => buf.push(TAG_FINISH),
            Frame::Ack { seq } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Busy { seq } => {
                buf.push(TAG_BUSY);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Event {
                window,
                kind,
                region,
                alarm,
                tracked,
            } => {
                buf.push(TAG_EVENT);
                buf.extend_from_slice(&window.to_le_bytes());
                buf.push(match kind {
                    EventKind::Normal => 0,
                    EventKind::RegionChange => 1,
                    EventKind::Suspicious => 2,
                    EventKind::Anomaly => 3,
                });
                buf.extend_from_slice(&region.to_le_bytes());
                buf.push(u8::from(*alarm));
                buf.extend_from_slice(&tracked.to_le_bytes());
            }
            Frame::Err { code } => {
                buf.push(TAG_ERR);
                buf.extend_from_slice(&(*code as u16).to_le_bytes());
            }
            Frame::StatsReply { text } => {
                buf.push(TAG_STATS_REPLY);
                buf.extend_from_slice(text.as_bytes());
            }
            Frame::Session { token, next_seq } => {
                buf.push(TAG_SESSION);
                buf.extend_from_slice(&token.to_le_bytes());
                buf.extend_from_slice(&next_seq.to_le_bytes());
            }
            Frame::Finished { windows } => {
                buf.push(TAG_FINISHED);
                buf.extend_from_slice(&windows.to_le_bytes());
            }
            Frame::Moved { shard_addr, token } => {
                buf.push(TAG_MOVED);
                let addr = shard_addr.as_bytes();
                buf.extend_from_slice(&(addr.len() as u32).to_le_bytes());
                buf.extend_from_slice(addr);
                buf.extend_from_slice(&token.to_le_bytes());
            }
        }
        let len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Encodes the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes one frame body (`tag` byte plus payload, *without* the
    /// length prefix). Strict: the payload must match the tag's layout
    /// exactly, with no trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let (&tag, payload) = body.split_first().ok_or(WireError::Truncated)?;
        let mut r = PayloadReader::new(payload);
        let frame = match tag {
            TAG_HELLO | TAG_HELLO_RESUMABLE => {
                let id_len = r.u32()? as usize;
                if id_len > r.remaining() {
                    return Err(WireError::BadPayload("model id length exceeds payload"));
                }
                let id = r.bytes(id_len)?;
                let model_id = std::str::from_utf8(id)
                    .map_err(|_| WireError::BadPayload("model id is not UTF-8"))?
                    .to_owned();
                let sample_rate = f64::from_bits(r.u64()?);
                if tag == TAG_HELLO {
                    Frame::Hello {
                        model_id,
                        sample_rate,
                    }
                } else {
                    Frame::HelloResumable {
                        model_id,
                        sample_rate,
                    }
                }
            }
            TAG_RESUME => Frame::Resume {
                token: r.u64()?,
                have_windows: r.u64()?,
            },
            TAG_FINISH => Frame::Finish,
            TAG_CHUNK => {
                let seq = r.u64()?;
                let n = r.u32()? as usize;
                if n > MAX_CHUNK_SAMPLES {
                    return Err(WireError::BadPayload("chunk sample count exceeds cap"));
                }
                if n * 4 != r.remaining() {
                    return Err(WireError::BadPayload("sample count disagrees with payload"));
                }
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    samples.push(f32::from_bits(r.u32()?));
                }
                Frame::Chunk { seq, samples }
            }
            TAG_CLOSE => Frame::Close,
            TAG_STATS => Frame::Stats,
            TAG_ACK => Frame::Ack { seq: r.u64()? },
            TAG_BUSY => Frame::Busy { seq: r.u64()? },
            TAG_EVENT => {
                let window = r.u64()?;
                let kind = match r.u8()? {
                    0 => EventKind::Normal,
                    1 => EventKind::RegionChange,
                    2 => EventKind::Suspicious,
                    3 => EventKind::Anomaly,
                    _ => return Err(WireError::BadPayload("unknown event kind")),
                };
                let region = r.u32()?;
                let alarm = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("alarm flag not 0/1")),
                };
                let tracked = r.u32()?;
                Frame::Event {
                    window,
                    kind,
                    region,
                    alarm,
                    tracked,
                }
            }
            TAG_ERR => {
                let code = ErrCode::from_u16(r.u16()?)
                    .ok_or(WireError::BadPayload("unknown error code"))?;
                Frame::Err { code }
            }
            TAG_STATS_REPLY => {
                let text = std::str::from_utf8(r.bytes(r.remaining())?)
                    .map_err(|_| WireError::BadPayload("stats text is not UTF-8"))?
                    .to_owned();
                Frame::StatsReply { text }
            }
            TAG_SESSION => Frame::Session {
                token: r.u64()?,
                next_seq: r.u64()?,
            },
            TAG_FINISHED => Frame::Finished { windows: r.u64()? },
            TAG_MOVED => {
                let addr_len = r.u32()? as usize;
                if addr_len > r.remaining() {
                    return Err(WireError::BadPayload("shard addr length exceeds payload"));
                }
                let addr = r.bytes(addr_len)?;
                let shard_addr = std::str::from_utf8(addr)
                    .map_err(|_| WireError::BadPayload("shard addr is not UTF-8"))?
                    .to_owned();
                let token = r.u64()?;
                Frame::Moved { shard_addr, token }
            }
            other => return Err(WireError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(WireError::BadPayload("trailing bytes after payload"));
        }
        Ok(frame)
    }
}

/// Cursor over a frame payload with bounds-checked reads.
struct PayloadReader<'a> {
    buf: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

/// Writes one frame to `w` (no internal buffering — wrap the stream in
/// a [`io::BufWriter`] for batched writes).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; EOF inside a
/// frame is [`WireError::Truncated`]. A length prefix outside
/// `1..=MAX_FRAME_LEN` fails *before* any allocation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ReadError> {
    let mut len_buf = [0u8; 4];
    // First byte decides clean-EOF vs truncation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(ReadError::Io(e)),
    }
    read_exact_or_truncated(r, &mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len as usize > MAX_FRAME_LEN {
        return Err(WireError::BadLength { len }.into());
    }
    let mut body = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut body)?;
    Ok(Some(Frame::decode(&body)?))
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ReadError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ReadError::Wire(WireError::Truncated)
        } else {
            ReadError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let encoded = frame.encode();
        let mut cursor = &encoded[..];
        let decoded = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decoded, frame);
        assert!(cursor.is_empty(), "decoder must consume the whole frame");
    }

    #[test]
    fn all_frames_round_trip() {
        round_trip(Frame::Hello {
            model_id: "bitcount".into(),
            sample_rate: 1.25e8,
        });
        round_trip(Frame::Hello {
            model_id: String::new(),
            sample_rate: f64::MIN_POSITIVE,
        });
        round_trip(Frame::Chunk {
            seq: 0,
            samples: vec![],
        });
        round_trip(Frame::Chunk {
            seq: u64::MAX,
            samples: vec![1.0, -0.0, f32::MIN_POSITIVE, 3.25e7],
        });
        round_trip(Frame::Close);
        round_trip(Frame::Ack { seq: 7 });
        round_trip(Frame::Busy { seq: 9 });
        round_trip(Frame::Event {
            window: 123,
            kind: EventKind::RegionChange,
            region: 4,
            alarm: true,
            tracked: 4,
        });
        round_trip(Frame::Err {
            code: ErrCode::UnknownModel,
        });
        round_trip(Frame::Stats);
        round_trip(Frame::StatsReply {
            text: String::new(),
        });
        round_trip(Frame::StatsReply {
            text: "# TYPE x counter\nx 5\n".into(),
        });
        round_trip(Frame::HelloResumable {
            model_id: "bitcount".into(),
            sample_rate: 1.25e8,
        });
        round_trip(Frame::Resume {
            token: u64::MAX,
            have_windows: 0,
        });
        round_trip(Frame::Finish);
        round_trip(Frame::Session {
            token: 0xdead_beef_cafe_f00d,
            next_seq: 42,
        });
        round_trip(Frame::Finished { windows: 1 << 40 });
        round_trip(Frame::Err {
            code: ErrCode::ResumeGap,
        });
        round_trip(Frame::Err {
            code: ErrCode::UnknownToken,
        });
        round_trip(Frame::Moved {
            shard_addr: "127.0.0.1:9001".into(),
            token: 0xfeed_f00d_dead_beef,
        });
        round_trip(Frame::Moved {
            shard_addr: String::new(),
            token: 0,
        });
    }

    #[test]
    fn moved_payload_is_validated() {
        // Lying address length.
        let mut lying = vec![TAG_MOVED];
        lying.extend_from_slice(&100u32.to_le_bytes());
        lying.extend_from_slice(b"short");
        assert_eq!(
            Frame::decode(&lying),
            Err(WireError::BadPayload("shard addr length exceeds payload"))
        );
        // Non-UTF-8 address.
        let mut bad_utf8 = vec![TAG_MOVED];
        bad_utf8.extend_from_slice(&2u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        bad_utf8.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            Frame::decode(&bad_utf8),
            Err(WireError::BadPayload("shard addr is not UTF-8"))
        );
        // Missing token.
        let mut truncated = vec![TAG_MOVED];
        truncated.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Frame::decode(&truncated), Err(WireError::Truncated));
    }

    #[test]
    fn resumable_hello_is_distinct_from_hello_on_the_wire() {
        let hello = Frame::Hello {
            model_id: "m".into(),
            sample_rate: 1e6,
        };
        let resumable = Frame::HelloResumable {
            model_id: "m".into(),
            sample_rate: 1e6,
        };
        let (a, b) = (hello.encode(), resumable.encode());
        assert_ne!(a, b, "the tag byte distinguishes them");
        assert_eq!(a.len(), b.len(), "payload layout is shared");
        assert_eq!(read_frame(&mut &b[..]).unwrap().unwrap(), resumable);
    }

    #[test]
    fn err_codes_round_trip_and_map_to_error_kinds() {
        use eddie_core::ErrorKind;
        for (code, kind) in [
            (ErrCode::BadFrame, ErrorKind::MalformedFrame),
            (ErrCode::ProtocolViolation, ErrorKind::ProtocolViolation),
            (ErrCode::UnknownModel, ErrorKind::UnknownModel),
            (ErrCode::BadHello, ErrorKind::InvalidConfig),
            (ErrCode::Shutdown, ErrorKind::ProtocolViolation),
            (ErrCode::ResumeGap, ErrorKind::ResumeGap),
            (ErrCode::UnknownToken, ErrorKind::UnknownToken),
        ] {
            assert_eq!(ErrCode::from_u16(code as u16), Some(code));
            assert_eq!(code.kind(), kind);
        }
        // Code 6 is retired: it decodes to no code at all.
        assert_eq!(ErrCode::from_u16(6), None);
        assert_eq!(ErrCode::from_u16(9), None);
    }

    #[test]
    fn wire_errors_convert_to_typed_workspace_errors() {
        use eddie_core::ErrorKind;
        let e: eddie_core::Error = WireError::Truncated.into();
        assert_eq!(e.kind(), ErrorKind::TruncatedStream);
        let e: eddie_core::Error = WireError::BadTag(0x7f).into();
        assert_eq!(e.kind(), ErrorKind::MalformedFrame);
        let e: eddie_core::Error =
            ReadError::Io(io::Error::new(io::ErrorKind::TimedOut, "t")).into();
        assert_eq!(e.kind(), ErrorKind::Timeout);
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn stats_reply_rejects_invalid_utf8() {
        assert_eq!(
            Frame::decode(&[TAG_STATS_REPLY, 0xff, 0xfe]),
            Err(WireError::BadPayload("stats text is not UTF-8"))
        );
        // Stats itself carries no payload; trailing bytes are garbage.
        assert_eq!(
            Frame::decode(&[TAG_STATS, 0x01]),
            Err(WireError::BadPayload("trailing bytes after payload"))
        );
    }

    #[test]
    fn nan_samples_round_trip_bit_exactly() {
        let weird = f32::from_bits(0x7fc0_dead);
        let frame = Frame::Chunk {
            seq: 1,
            samples: vec![weird, f32::INFINITY, -f32::NAN],
        };
        let encoded = frame.encode();
        let decoded = read_frame(&mut &encoded[..]).unwrap().unwrap();
        let Frame::Chunk { samples, .. } = decoded else {
            panic!("wrong frame kind");
        };
        let Frame::Chunk {
            samples: original, ..
        } = frame
        else {
            unreachable!()
        };
        let bits: Vec<u32> = samples.iter().map(|s| s.to_bits()).collect();
        let expected: Vec<u32> = original.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn stream_event_conversion_round_trips() {
        for event in [
            MonitorEvent::Normal,
            MonitorEvent::RegionChange(RegionId::new(3)),
            MonitorEvent::Suspicious,
            MonitorEvent::Anomaly,
        ] {
            let ev = StreamEvent {
                window: 17,
                event,
                alarm: event == MonitorEvent::Anomaly,
                tracked: RegionId::new(5),
            };
            let frame = Frame::from_stream_event(&ev);
            assert_eq!(frame.to_stream_event(), Some(ev));
            round_trip(frame);
        }
        assert_eq!(Frame::Close.to_stream_event(), None);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(TAG_CLOSE);
        match read_frame(&mut &bytes[..]) {
            Err(ReadError::Wire(WireError::BadLength { len })) => assert_eq!(len, u32::MAX),
            other => panic!("expected BadLength, got {other:?}"),
        }
        // Zero length too.
        let zeros = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zeros[..]),
            Err(ReadError::Wire(WireError::BadLength { len: 0 }))
        ));
    }

    /// One instance of each of the 15 frame types, with every
    /// variable-length field non-empty so its length can be mutated.
    fn one_of_each() -> Vec<Frame> {
        let frames = vec![
            Frame::Hello {
                model_id: "bitcount".into(),
                sample_rate: 1.25e8,
            },
            Frame::Chunk {
                seq: 3,
                samples: vec![1.0, -0.0, f32::MIN_POSITIVE, 3.25e7],
            },
            Frame::Close,
            Frame::Stats,
            Frame::HelloResumable {
                model_id: "bitcount".into(),
                sample_rate: 1.25e8,
            },
            Frame::Resume {
                token: u64::MAX,
                have_windows: 9,
            },
            Frame::Finish,
            Frame::Ack { seq: 7 },
            Frame::Busy { seq: 9 },
            Frame::Event {
                window: 123,
                kind: EventKind::RegionChange,
                region: 4,
                alarm: true,
                tracked: 4,
            },
            Frame::Err {
                code: ErrCode::UnknownModel,
            },
            Frame::StatsReply {
                text: "# TYPE x counter\nx 5\n".into(),
            },
            Frame::Session {
                token: 0xdead_beef_cafe_f00d,
                next_seq: 42,
            },
            Frame::Finished { windows: 1 << 40 },
            Frame::Moved {
                shard_addr: "127.0.0.1:9001".into(),
                token: 0xfeed_f00d_dead_beef,
            },
        ];
        let mut tags: Vec<u8> = frames.iter().map(|f| f.encode()[4]).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 15, "one instance per frame type");
        frames
    }

    /// Byte offsets of the u32 length fields in an encoded frame: the
    /// outer frame length, plus the model-id length of a hello, the
    /// sample count of a chunk and the address length of a redirect
    /// (each right after the tag, past a chunk's u64 seq).
    fn length_fields(encoded: &[u8]) -> Vec<usize> {
        match encoded[4] {
            TAG_HELLO | TAG_HELLO_RESUMABLE | TAG_MOVED => vec![0, 5],
            TAG_CHUNK => vec![0, 13],
            _ => vec![0],
        }
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        for frame in one_of_each() {
            let encoded = frame.encode();
            // Clean EOF only at offset 0; every proper prefix must error.
            assert!(matches!(read_frame(&mut &encoded[..0]), Ok(None)));
            for cut in 1..encoded.len() {
                let r = read_frame(&mut &encoded[..cut]);
                assert!(
                    matches!(r, Err(ReadError::Wire(WireError::Truncated))),
                    "{frame:?}: prefix of {cut} bytes should be Truncated, got {r:?}"
                );
            }
        }
    }

    /// Every u32 length field of every frame type, set to 0, one less,
    /// one more and `u32::MAX`, must decode to a typed error — never a
    /// panic, never a frame. The one layout that still parses is a
    /// `StatsReply` whose text lost its last byte.
    #[test]
    fn length_field_mutations_are_typed_errors() {
        for frame in one_of_each() {
            let encoded = frame.encode();
            for at in length_fields(&encoded) {
                let value = u32::from_le_bytes(encoded[at..at + 4].try_into().unwrap());
                for mutated in [0, value - 1, value + 1, u32::MAX] {
                    let mut bytes = encoded.clone();
                    bytes[at..at + 4].copy_from_slice(&mutated.to_le_bytes());
                    let what = format!("{frame:?} with the u32 at byte {at} set to {mutated}");
                    match read_frame(&mut &bytes[..]) {
                        Err(ReadError::Wire(_)) => {}
                        Ok(Some(Frame::StatsReply { text })) if at == 0 && mutated == value - 1 => {
                            let Frame::StatsReply { text: full } = &frame else {
                                unreachable!("only a StatsReply decodes to one")
                            };
                            assert_eq!(text, full[..full.len() - 1], "{what}");
                        }
                        other => panic!("{what}: expected a WireError, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn bad_payloads_are_rejected() {
        // Unknown tag, and the retired `Snapshot` tag.
        assert_eq!(Frame::decode(&[0x7f]), Err(WireError::BadTag(0x7f)));
        assert_eq!(Frame::decode(&[0x03]), Err(WireError::BadTag(0x03)));
        // Empty body.
        assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
        // Trailing garbage after a Close.
        assert_eq!(
            Frame::decode(&[TAG_CLOSE, 0xaa]),
            Err(WireError::BadPayload("trailing bytes after payload"))
        );
        // Chunk whose sample count disagrees with the payload length.
        let mut chunk = vec![TAG_CHUNK];
        chunk.extend_from_slice(&0u64.to_le_bytes());
        chunk.extend_from_slice(&5u32.to_le_bytes()); // claims 5 samples
        chunk.extend_from_slice(&[0; 8]); // provides 2
        assert_eq!(
            Frame::decode(&chunk),
            Err(WireError::BadPayload("sample count disagrees with payload"))
        );
        // Chunk claiming more samples than the cap.
        let mut huge = vec![TAG_CHUNK];
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&(MAX_CHUNK_SAMPLES as u32 + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&huge),
            Err(WireError::BadPayload("chunk sample count exceeds cap"))
        );
        // Hello with a lying id length.
        let mut hello = vec![TAG_HELLO];
        hello.extend_from_slice(&100u32.to_le_bytes());
        hello.extend_from_slice(b"short");
        assert_eq!(
            Frame::decode(&hello),
            Err(WireError::BadPayload("model id length exceeds payload"))
        );
        // Hello with invalid UTF-8.
        let mut bad_utf8 = vec![TAG_HELLO];
        bad_utf8.extend_from_slice(&2u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        bad_utf8.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(
            Frame::decode(&bad_utf8),
            Err(WireError::BadPayload("model id is not UTF-8"))
        );
        // Event with an unknown kind.
        let mut event = vec![TAG_EVENT];
        event.extend_from_slice(&0u64.to_le_bytes());
        event.push(9);
        event.extend_from_slice(&[0; 9]);
        assert_eq!(
            Frame::decode(&event),
            Err(WireError::BadPayload("unknown event kind"))
        );
        // Err frame with an unknown code.
        let mut err = vec![TAG_ERR];
        err.extend_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            Frame::decode(&err),
            Err(WireError::BadPayload("unknown error code"))
        );
    }

    #[test]
    fn random_bytes_never_panic_the_decoder() {
        // Deterministic LCG fuzz smoke: whatever the bytes, decode and
        // read_frame either produce a frame or a typed error.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..2000 {
            let len = (round % 97) as usize;
            let body: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = Frame::decode(&body); // must not panic
            let mut stream: Vec<u8> = Vec::with_capacity(len + 4);
            // Half the rounds get a plausible length prefix, half raw noise.
            if round % 2 == 0 {
                stream.extend_from_slice(&(len as u32).to_le_bytes());
            } else {
                stream.extend_from_slice(&[next(), next(), next(), next()]);
            }
            stream.extend_from_slice(&body);
            let mut cursor = &stream[..];
            while let Ok(Some(_)) = read_frame(&mut cursor) {}
        }
    }

    #[test]
    fn multiple_frames_stream_back_to_back() {
        let frames = vec![
            Frame::Hello {
                model_id: "m".into(),
                sample_rate: 1e6,
            },
            Frame::Chunk {
                seq: 0,
                samples: vec![0.5; 3],
            },
            Frame::Ack { seq: 0 },
            Frame::Close,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut cursor = &bytes[..];
        let mut decoded = Vec::new();
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            decoded.push(f);
        }
        assert_eq!(decoded, frames);
    }
}
