//! A blocking replay client for the EDDIE wire protocol.
//!
//! [`ReplayClient`] models a capture device: it connects, announces
//! itself with `Hello`, streams a signal in fixed-size chunks with a
//! small pipeline window, and collects the event stream the server
//! sends back. Backpressure is handled with **go-back-N**: when the
//! server answers [`Frame::Busy`] (its fleet queue for this device is
//! full), the client rewinds to the refused sequence number and
//! resends from there, so chunks always enter the fleet in order —
//! which is what keeps the received event stream byte-identical to the
//! batch pipeline.
//!
//! The client is single-threaded: after filling its pipeline window it
//! blocks reading replies, and the server guarantees exactly one
//! `Ack`/`Busy` reply per `Chunk` (with `Event` frames interleaved at
//! arbitrary points), so progress accounting needs no timeouts.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use eddie_chaos::ChaosRng;
use eddie_core::{Error as CoreError, ErrorKind};
use eddie_stream::StreamEvent;

use crate::wire::{read_frame, write_frame, ErrCode, Frame, ReadError, WireError};

/// How many unacknowledged chunks the client keeps in flight. Small
/// enough that the bytes in flight stay far below socket buffer sizes
/// (so a single-threaded client can't deadlock against the server),
/// large enough to hide round-trip latency.
pub const PIPELINE_WINDOW: usize = 8;

/// How long a client pauses after a `Busy` reply before resending,
/// giving the server a moment to drain and make queue room.
const BUSY_PAUSE: Duration = Duration::from_micros(200);

/// Errors a replay can hit.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent bytes that are not a valid frame.
    Wire(WireError),
    /// The server refused us with an [`Frame::Err`] frame.
    Server(ErrCode),
    /// The server violated the protocol (e.g. a client-only frame, or
    /// EOF while replies were still owed).
    Protocol(&'static str),
    /// Every handshake kept answering [`Frame::Moved`]: the client
    /// followed more consecutive redirects than its bound (8) allows
    /// without ever reaching a shard that owned the session — a
    /// redirect loop or a cluster whose ownership never settles. Not
    /// recoverable: retrying would just walk the same loop again.
    TooManyRedirects,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "malformed server frame: {e}"),
            ClientError::Server(code) => write!(f, "server error: {code}"),
            ClientError::Protocol(what) => write!(f, "server protocol violation: {what}"),
            ClientError::TooManyRedirects => f.write_str("redirect loop: Moved hop bound exceeded"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The workspace-wide [`ErrorKind`] this error maps to.
    pub fn kind(&self) -> ErrorKind {
        match self {
            ClientError::Io(e) => CoreError::from_io_kind(e.kind()),
            ClientError::Wire(w) => w.kind(),
            ClientError::Server(code) => code.kind(),
            ClientError::Protocol(_) => ErrorKind::ProtocolViolation,
            ClientError::TooManyRedirects => ErrorKind::ProtocolViolation,
        }
    }

    /// Whether reconnecting and resuming can plausibly get past this
    /// error. Transport failures, torn frames, and per-frame server
    /// errors are recoverable; the server telling us the session or
    /// model cannot exist ([`ErrCode::UnknownModel`],
    /// [`ErrCode::BadHello`], [`ErrCode::UnknownToken`],
    /// [`ErrCode::ResumeGap`], [`ErrCode::Shutdown`]) is not.
    pub fn is_recoverable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Wire(_) | ClientError::Protocol(_) => true,
            ClientError::Server(code) => {
                matches!(code, ErrCode::BadFrame | ErrCode::ProtocolViolation)
            }
            ClientError::TooManyRedirects => false,
        }
    }
}

impl From<ClientError> for CoreError {
    fn from(e: ClientError) -> CoreError {
        let kind = e.kind();
        match e {
            ClientError::Io(io) => CoreError::from(io).with_layer("eddie-serve"),
            other => CoreError::new(kind, "eddie-serve", other.to_string()),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> ClientError {
        match e {
            ReadError::Wire(w) => ClientError::Wire(w),
            ReadError::Io(io) => ClientError::Io(io),
        }
    }
}

/// What a completed replay observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Every event the server streamed back, in order. For a correct
    /// server this equals the batch pipeline's events for the same
    /// signal and model.
    pub events: Vec<StreamEvent>,
    /// Chunks the server accepted (equals the chunk count on success).
    pub acked_chunks: u64,
    /// `Busy` replies received — each one is a go-back-N rewind caused
    /// by fleet backpressure or an in-flight chunk behind a refusal.
    pub busy_replies: u64,
    /// `Chunk` frames written to the wire, including go-back-N
    /// resends. The server replies exactly once per chunk frame, so
    /// `sent_chunks == acked_chunks + busy_replies + duplicate_acks`.
    pub sent_chunks: u64,
    /// `Ack` replies for a sequence number that was already
    /// acknowledged — the server's answer to a resend of a chunk it
    /// had in fact accepted.
    pub duplicate_acks: u64,
}

/// A connected capture-device endpoint.
pub struct ReplayClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ReplayClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ReplayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ReplayClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Announces this device: which hosted model to monitor against
    /// and the capture sample rate. Must precede [`replay`](Self::replay).
    ///
    /// The server only replies to `Hello` on failure, so this returns
    /// once the frame is flushed; a bad model id surfaces as
    /// [`ClientError::Server`] from the first reply read in `replay`.
    pub fn hello(&mut self, model_id: &str, sample_rate_hz: f64) -> Result<(), ClientError> {
        write_frame(
            &mut self.writer,
            &Frame::Hello {
                model_id: model_id.to_string(),
                sample_rate: sample_rate_hz,
            },
        )?;
        self.writer.flush()?;
        Ok(())
    }

    /// Streams `signal` in `chunk_len`-sample chunks, handling
    /// backpressure with go-back-N, then closes gracefully and drains
    /// the remaining event stream until the server hangs up.
    pub fn replay(
        mut self,
        signal: &[f32],
        chunk_len: usize,
    ) -> Result<ReplayOutcome, ClientError> {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let chunks: Vec<&[f32]> = signal.chunks(chunk_len).collect();
        let mut events: Vec<StreamEvent> = Vec::new();
        let mut sender = GoBackN::default();
        let streamed = sender.stream(&mut self.reader, &mut self.writer, &chunks, 0, |ev| {
            events.push(ev);
            Ok(())
        })?;
        if let Streamed::Moved { .. } = streamed {
            // Redirects are for resumable sessions only.
            return Err(ClientError::Protocol("unexpected client-side frame"));
        }

        // Graceful close: the server flushes this device's queue (all
        // remaining events land in our receive stream) and hangs up.
        write_frame(&mut self.writer, &Frame::Close)?;
        self.writer.flush()?;
        loop {
            match read_frame(&mut self.reader)? {
                None => break,
                Some(f @ Frame::Event { .. }) => {
                    events.push(to_event(f));
                }
                Some(Frame::Err { code }) => return Err(ClientError::Server(code)),
                Some(Frame::Ack { .. }) => {
                    // Stale reply to a chunk resent just before Close;
                    // everything is already acked, so it's a duplicate.
                    sender.duplicate_acks += 1;
                }
                Some(Frame::Busy { .. }) => {
                    sender.busy_replies += 1;
                }
                Some(_) => return Err(ClientError::Protocol("unexpected client-side frame")),
            }
        }

        Ok(ReplayOutcome {
            events,
            acked_chunks: chunks.len() as u64,
            busy_replies: sender.busy_replies,
            sent_chunks: sender.sent_chunks,
            duplicate_acks: sender.duplicate_acks,
        })
    }

    /// Requests the server's metrics and returns the Prometheus text
    /// exposition. Valid at any point in the session, including before
    /// [`hello`](Self::hello). `Event` frames that arrive while the
    /// reply is in flight are discarded, so on a session that is still
    /// streaming prefer a dedicated connection (see [`fetch_stats`]).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        write_frame(&mut self.writer, &Frame::Stats)?;
        self.writer.flush()?;
        loop {
            match read_frame(&mut self.reader)? {
                None => return Err(ClientError::Protocol("EOF while a stats reply was owed")),
                Some(Frame::StatsReply { text }) => return Ok(text),
                Some(Frame::Err { code }) => return Err(ClientError::Server(code)),
                Some(Frame::Ack { .. } | Frame::Busy { .. } | Frame::Event { .. }) => {
                    // Replies to earlier traffic on this session.
                }
                Some(_) => return Err(ClientError::Protocol("unexpected client-side frame")),
            }
        }
    }
}

/// Scrapes a server's metrics over a fresh connection: connect, send
/// [`Frame::Stats`], return the Prometheus text. No `Hello` is sent —
/// the stats path works without a session.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<String, ClientError> {
    let mut client = ReplayClient::connect(addr)?;
    client.stats()
}

/// The stream event an [`Frame::Event`] carries.
fn to_event(frame: Frame) -> StreamEvent {
    frame.to_stream_event().expect("event frame converts")
}

/// The go-back-N sender both clients stream through, with its tallies
/// (kept across the connections of one replay).
#[derive(Debug, Default)]
struct GoBackN {
    /// `Busy` replies received.
    busy_replies: u64,
    /// `Chunk` frames written, including resends.
    sent_chunks: u64,
    /// `Ack` replies for an already-acknowledged sequence number.
    duplicate_acks: u64,
}

/// How a [`GoBackN::stream`] pass ended.
enum Streamed {
    /// Every chunk is acknowledged.
    Acked,
    /// The server answered [`Frame::Moved`]: the session lives at
    /// `shard_addr` now.
    Moved { shard_addr: String, token: u64 },
}

impl GoBackN {
    /// Sends `chunks[from..]` with up to [`PIPELINE_WINDOW`] in flight
    /// until every one is acknowledged, handing each event that
    /// arrives meanwhile to `on_event`. A `Busy` rewinds the send
    /// cursor to the refused sequence number (go-back-N: chunks still
    /// in flight past it are refused too and drain the in-flight count
    /// as their replies arrive) and pauses for [`BUSY_PAUSE`].
    fn stream(
        &mut self,
        reader: &mut impl Read,
        writer: &mut impl Write,
        chunks: &[&[f32]],
        from: u64,
        mut on_event: impl FnMut(StreamEvent) -> Result<(), ClientError>,
    ) -> Result<Streamed, ClientError> {
        let total = chunks.len() as u64;
        let mut acked = from; // every seq < acked is accepted
        let mut next_to_send = from;
        let mut in_flight = 0u64; // sent, reply not yet read
        while acked < total {
            while next_to_send < total && in_flight < PIPELINE_WINDOW as u64 {
                write_frame(
                    writer,
                    &Frame::Chunk {
                        seq: next_to_send,
                        samples: chunks[next_to_send as usize].to_vec(),
                    },
                )?;
                next_to_send += 1;
                in_flight += 1;
                self.sent_chunks += 1;
            }
            writer.flush()?;

            match read_frame(reader)? {
                None => return Err(ClientError::Protocol("EOF while replies were owed")),
                Some(Frame::Ack { seq }) => {
                    in_flight = in_flight.saturating_sub(1);
                    if seq + 1 > acked {
                        acked = seq + 1;
                    } else {
                        self.duplicate_acks += 1;
                    }
                }
                Some(Frame::Busy { seq }) => {
                    in_flight = in_flight.saturating_sub(1);
                    self.busy_replies += 1;
                    if seq < next_to_send {
                        next_to_send = seq.max(acked);
                    }
                    std::thread::sleep(BUSY_PAUSE);
                }
                Some(f @ Frame::Event { .. }) => {
                    on_event(to_event(f))?;
                }
                Some(Frame::Moved { shard_addr, token }) => {
                    return Ok(Streamed::Moved { shard_addr, token })
                }
                Some(Frame::Err { code }) => return Err(ClientError::Server(code)),
                Some(_) => return Err(ClientError::Protocol("unexpected client-side frame")),
            }
        }
        Ok(Streamed::Acked)
    }
}

/// Socket read timeout of a [`ResilientClient`]. A dropped frame means
/// a reply that never comes, and only a read timeout turns that silence
/// into a reconnect.
const READ_TIMEOUT: Duration = Duration::from_millis(150);
/// First reconnect delay.
const BACKOFF_BASE: Duration = Duration::from_millis(2);
/// Multiplier applied per consecutive failed attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the un-jittered delay.
const BACKOFF_MAX: Duration = Duration::from_millis(50);
/// Jitter fraction: each delay is scaled by a uniform factor in
/// `[1 − JITTER, 1 + JITTER]`.
const JITTER: f64 = 0.1;
/// Consecutive failed reconnect attempts tolerated before a replay
/// gives up with the underlying error.
const MAX_RECONNECTS: u32 = 12;
/// Consecutive [`Frame::Moved`] redirects followed without an
/// intervening successful handshake before refusing with
/// [`ClientError::TooManyRedirects`]. A successful `Session` handshake
/// resets the hop count.
const MAX_REDIRECTS: u32 = 8;

/// Deterministic exponential backoff with seeded jitter:
/// `min(2 ms · 2^attempt, 50 ms)` scaled by a uniform factor in
/// `[0.9, 1.1]` drawn from a [`ChaosRng`]. Equal seeds produce equal
/// schedules, so a chaos run's recovery timing replays exactly.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: ChaosRng,
    attempt: u32,
}

impl Backoff {
    /// A backoff whose jitter stream starts from `seed`, at attempt 0.
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            rng: ChaosRng::new(seed),
            attempt: 0,
        }
    }

    /// The next delay; each call advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let raw = BACKOFF_BASE.as_secs_f64() * BACKOFF_FACTOR.powi(self.attempt as i32);
        self.attempt = self.attempt.saturating_add(1);
        let capped = raw.min(BACKOFF_MAX.as_secs_f64());
        let scale = 1.0 + JITTER * (2.0 * self.rng.next_f64() - 1.0);
        Duration::from_secs_f64(capped * scale)
    }

    /// Back to the first-attempt delay (call after a success). The
    /// jitter stream deliberately keeps advancing — resetting it would
    /// make two recoveries in one run collide on the same delays.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Consecutive failures since the last [`reset`](Backoff::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

/// What a completed resilient replay observed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ResilientOutcome {
    /// Every event the server produced, in order, exactly once — for a
    /// correct server this equals the batch pipeline's events even
    /// when the transport dropped, duplicated, reordered, corrupted,
    /// or severed frames along the way.
    pub events: Vec<StreamEvent>,
    /// Total windows the server reported in `Finished`; equals
    /// `events.len()` (verified before returning).
    pub windows: u64,
    /// Reconnect attempts made (0 on an undisturbed run).
    pub reconnects: u64,
    /// Successful resume handshakes.
    pub resumes: u64,
    /// Duplicate event frames discarded (replay overlap after resume).
    pub replayed_events: u64,
    /// `Busy` replies absorbed by go-back-N.
    pub busy_replies: u64,
    /// `Chunk` frames written, including resends.
    pub sent_chunks: u64,
    /// Idempotent acks for already-accepted chunks.
    pub duplicate_acks: u64,
    /// [`Frame::Moved`] redirects followed — cluster routing hops plus
    /// mid-stream migrations chased to a new shard.
    pub redirects: u64,
}

/// Running tallies and the stream position shared across attempts.
struct ResumableReplay<'a> {
    chunks: Vec<&'a [f32]>,
    log: EventLog,
    token: Option<u64>,
    resumes: u64,
    sender: GoBackN,
    redirects: u64,
}

/// The events received so far, exactly once each across resumes.
struct EventLog {
    events: Vec<StreamEvent>,
    /// Replay duplicates discarded.
    replayed: u64,
}

impl EventLog {
    /// Appends an incoming event, discarding replay duplicates. Events
    /// arrive one per window with dense indices, so the next new event
    /// is always `events.len()`; anything earlier is a replay overlap
    /// and anything later is a hole the server must not produce.
    fn accept(&mut self, ev: StreamEvent) -> Result<(), ClientError> {
        match (ev.window as u64).cmp(&(self.events.len() as u64)) {
            std::cmp::Ordering::Less => {
                self.replayed += 1;
                Ok(())
            }
            std::cmp::Ordering::Equal => {
                self.events.push(ev);
                Ok(())
            }
            // A gap: reconnect and let the resume replay fill it.
            std::cmp::Ordering::Greater => {
                Err(ClientError::Protocol("event stream skipped a window"))
            }
        }
    }
}

/// A self-healing replay client: [`ReplayClient`]'s streaming loop
/// wrapped in a reconnect-and-resume harness.
///
/// The first connection opens the session with `HelloResumable` and
/// keeps the returned token. On any recoverable failure — transport
/// error, read timeout, torn frame, server-reported frame corruption —
/// the client backs off (deterministic [`Backoff`]), reconnects, and
/// sends `Resume` with the number of events it already holds; the
/// server replays what was missed and the chunk cursor picks up at the
/// server's `next_seq`. The final `Finish` handshake verifies the
/// client holds every window the server produced, so a completed
/// [`replay`](ResilientClient::replay) is *known* complete, not
/// assumed.
///
/// The client is also cluster-aware: a [`Frame::Moved`] reply at any
/// point — a router bouncing a fresh `Hello`, or a shard whose session
/// has been migrated away mid-stream — makes it reconnect to the named
/// shard (adopting the carried resume token when nonzero) and continue
/// there. Consecutive redirects without a successful handshake are
/// bounded (8), so a redirect loop is refused instead of walked
/// forever.
///
/// The reconnect policy is fixed: a 150 ms read timeout, [`Backoff`]
/// delays, and up to 12 consecutive failed reconnects per replay.
pub struct ResilientClient {
    addr: SocketAddr,
    seed: u64,
}

impl ResilientClient {
    /// A client that will connect (and reconnect) to `addr`, with its
    /// backoff jitter seeded by `seed`.
    pub fn new(addr: SocketAddr, seed: u64) -> ResilientClient {
        ResilientClient { addr, seed }
    }

    /// Streams `signal` to the server, surviving transport faults, and
    /// returns the verified-complete event stream.
    ///
    /// # Errors
    ///
    /// Returns the last error once 12 consecutive recoverable failures
    /// have exhausted the reconnect budget, or immediately on an
    /// unrecoverable one (see [`ClientError::is_recoverable`]).
    pub fn replay(
        &self,
        model_id: &str,
        sample_rate_hz: f64,
        signal: &[f32],
        chunk_len: usize,
    ) -> Result<ResilientOutcome, ClientError> {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let mut replay = ResumableReplay {
            chunks: signal.chunks(chunk_len).collect(),
            log: EventLog {
                events: Vec::new(),
                replayed: 0,
            },
            token: None,
            resumes: 0,
            sender: GoBackN::default(),
            redirects: 0,
        };
        let mut backoff = Backoff::new(self.seed);
        let mut reconnects = 0u64;
        let mut addr = self.addr;
        let mut hops = 0u32;
        loop {
            match self.attempt(
                model_id,
                sample_rate_hz,
                &mut replay,
                &mut backoff,
                &mut addr,
                &mut hops,
            ) {
                Ok(Some(windows)) => {
                    return Ok(ResilientOutcome {
                        windows,
                        reconnects,
                        resumes: replay.resumes,
                        replayed_events: replay.log.replayed,
                        busy_replies: replay.sender.busy_replies,
                        sent_chunks: replay.sender.sent_chunks,
                        duplicate_acks: replay.sender.duplicate_acks,
                        redirects: replay.redirects,
                        events: replay.log.events,
                    });
                }
                // Redirected: reconnect at the new address right away —
                // a `Moved` is routing, not a failure, so it costs
                // neither a backoff delay nor a reconnect budget slot.
                Ok(None) => {}
                Err(e) if e.is_recoverable() && backoff.attempt() < MAX_RECONNECTS => {
                    reconnects += 1;
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Applies a [`Frame::Moved`] redirect: bound the hop count, adopt
    /// the advertised shard address (and resume token, when nonzero),
    /// and count the hop in the outcome.
    fn follow_moved(
        &self,
        replay: &mut ResumableReplay<'_>,
        addr: &mut SocketAddr,
        hops: &mut u32,
        shard_addr: &str,
        token: u64,
    ) -> Result<(), ClientError> {
        *hops += 1;
        if *hops > MAX_REDIRECTS {
            return Err(ClientError::TooManyRedirects);
        }
        *addr = shard_addr
            .parse()
            .map_err(|_| ClientError::Protocol("unparseable shard address in Moved"))?;
        if token != 0 {
            replay.token = Some(token);
        }
        replay.redirects += 1;
        Ok(())
    }

    /// One connection's worth of progress: handshake (hello or
    /// resume), stream remaining chunks, then the `Finish`
    /// verification. Returns `Some(windows)` (the server's total
    /// window count) on completion, or `None` when a [`Frame::Moved`]
    /// redirect asks for an immediate reconnect at the updated `addr`.
    fn attempt(
        &self,
        model_id: &str,
        sample_rate_hz: f64,
        replay: &mut ResumableReplay<'_>,
        backoff: &mut Backoff,
        addr: &mut SocketAddr,
        hops: &mut u32,
    ) -> Result<Option<u64>, ClientError> {
        let stream = TcpStream::connect(*addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);

        // Handshake: open or reclaim the session.
        let resuming = replay.token.is_some();
        let handshake = match replay.token {
            Some(token) => Frame::Resume {
                token,
                have_windows: replay.log.events.len() as u64,
            },
            None => Frame::HelloResumable {
                model_id: model_id.to_string(),
                sample_rate: sample_rate_hz,
            },
        };
        write_frame(&mut writer, &handshake)?;
        writer.flush()?;

        // The server answers `Session` (possibly after replayed
        // events, which we fold in as they come).
        let acked0 = loop {
            match read_frame(&mut reader)? {
                None => return Err(ClientError::Protocol("EOF during handshake")),
                Some(Frame::Session { token, next_seq }) => {
                    replay.token = Some(token);
                    break next_seq;
                }
                Some(f @ Frame::Event { .. }) => replay.log.accept(to_event(f))?,
                Some(Frame::Moved { shard_addr, token }) => {
                    self.follow_moved(replay, addr, hops, &shard_addr, token)?;
                    return Ok(None);
                }
                Some(Frame::Err { code }) => return Err(ClientError::Server(code)),
                Some(_) => return Err(ClientError::Protocol("unexpected frame in handshake")),
            }
        };
        if resuming {
            replay.resumes += 1;
        }
        // The session is live again: future failures restart the
        // backoff schedule from the base delay, and the redirect hop
        // count starts over (only *consecutive* unresolved redirects
        // indicate a loop).
        backoff.reset();
        *hops = 0;

        // Stream the remaining chunks, go-back-N on Busy.
        let streamed =
            replay
                .sender
                .stream(&mut reader, &mut writer, &replay.chunks, acked0, |ev| {
                    replay.log.accept(ev)
                })?;
        if let Streamed::Moved { shard_addr, token } = streamed {
            // The session was migrated away mid-stream; chase it. The
            // new shard's `Session` reply rewinds the chunk cursor to
            // wherever the migrated session actually is.
            self.follow_moved(replay, addr, hops, &shard_addr, token)?;
            return Ok(None);
        }

        // Finish: the server flushes the device queue and reports the
        // total window count, which verifies our event stream is
        // complete (no silent tail loss).
        write_frame(&mut writer, &Frame::Finish)?;
        writer.flush()?;
        let windows = loop {
            match read_frame(&mut reader)? {
                None => return Err(ClientError::Protocol("EOF while finish reply was owed")),
                Some(Frame::Finished { windows }) => break windows,
                Some(f @ Frame::Event { .. }) => replay.log.accept(to_event(f))?,
                Some(Frame::Ack { .. }) => replay.sender.duplicate_acks += 1,
                Some(Frame::Busy { .. }) => replay.sender.busy_replies += 1,
                Some(Frame::Moved { shard_addr, token }) => {
                    self.follow_moved(replay, addr, hops, &shard_addr, token)?;
                    return Ok(None);
                }
                Some(Frame::Err { code }) => return Err(ClientError::Server(code)),
                Some(_) => return Err(ClientError::Protocol("unexpected client-side frame")),
            }
        };
        if (replay.log.events.len() as u64) != windows {
            // Missing tail events: recoverable — the resume handshake
            // replays them from the server's buffer.
            return Err(ClientError::Protocol("event stream incomplete at finish"));
        }

        // Best-effort goodbye so the server evicts instead of parking
        // until the linger expires; the outcome is already verified,
        // so failures here are not failures of the replay.
        let _ = write_frame(&mut writer, &Frame::Close);
        let _ = writer.flush();
        Ok(Some(windows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos-gate prerequisite: the whole recovery schedule must
    /// replay exactly from the seed.
    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let schedule = |seed: u64| {
            let mut b = Backoff::new(seed);
            (0..12).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7), "equal seeds, equal schedules");
        assert_ne!(schedule(7), schedule(8), "different seed, different jitter");
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_and_caps() {
        let mut b = Backoff::new(3);
        let mut prev = Duration::ZERO;
        for attempt in 0..10u32 {
            let d = b.next_delay();
            let nominal = BACKOFF_BASE
                .mul_f64(BACKOFF_FACTOR.powi(attempt as i32))
                .min(BACKOFF_MAX);
            let lo = nominal.mul_f64(1.0 - JITTER);
            let hi = nominal.mul_f64(1.0 + JITTER);
            assert!(
                (lo..=hi).contains(&d),
                "attempt {attempt}: {d:?} outside [{lo:?}, {hi:?}]"
            );
            if nominal < BACKOFF_MAX {
                assert!(d > prev.mul_f64(1.5), "attempt {attempt} grew");
            }
            prev = d;
        }

        b.reset();
        let after_reset = b.next_delay();
        assert!(
            after_reset <= BACKOFF_BASE.mul_f64(1.0 + JITTER),
            "reset returns to the base delay, got {after_reset:?}"
        );
    }

    #[test]
    fn recoverability_separates_transport_from_verdicts() {
        assert!(ClientError::Io(io::Error::from(io::ErrorKind::TimedOut)).is_recoverable());
        assert!(ClientError::Protocol("eof").is_recoverable());
        assert!(ClientError::Server(ErrCode::BadFrame).is_recoverable());
        assert!(ClientError::Server(ErrCode::ProtocolViolation).is_recoverable());
        for code in [
            ErrCode::UnknownModel,
            ErrCode::BadHello,
            ErrCode::UnknownToken,
            ErrCode::ResumeGap,
            ErrCode::Shutdown,
        ] {
            assert!(
                !ClientError::Server(code).is_recoverable(),
                "{code} must be fatal"
            );
        }
        assert!(
            !ClientError::TooManyRedirects.is_recoverable(),
            "a redirect loop must not be retried"
        );
    }

    /// A "cluster" whose only answer is `Moved` back to itself: the
    /// client must refuse the loop after `MAX_REDIRECTS` hops instead
    /// of bouncing forever.
    #[test]
    fn redirect_loops_are_refused_after_the_hop_bound() {
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU32::new(0));
        let acc = accepted.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                acc.fetch_add(1, Ordering::SeqCst);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                // Whatever the handshake is, bounce it back at us.
                let _ = read_frame(&mut reader);
                let _ = write_frame(
                    &mut writer,
                    &Frame::Moved {
                        shard_addr: addr.to_string(),
                        token: 0,
                    },
                );
                let _ = writer.flush();
            }
        });

        let client = ResilientClient::new(addr, 0);
        let err = client
            .replay("m", 1e6, &[0.0; 64], 8)
            .expect_err("a redirect loop must be refused");
        assert!(
            matches!(err, ClientError::TooManyRedirects),
            "got {err:?} instead of TooManyRedirects"
        );
        // One initial connection plus the allowed hops.
        assert_eq!(accepted.load(Ordering::SeqCst), MAX_REDIRECTS + 1);
    }

    #[test]
    fn client_errors_convert_to_typed_core_errors() {
        let e: CoreError = ClientError::Server(ErrCode::ResumeGap).into();
        assert_eq!(e.kind(), ErrorKind::ResumeGap);
        assert_eq!(e.layer(), "eddie-serve");
        let t: CoreError = ClientError::Io(io::Error::from(io::ErrorKind::TimedOut)).into();
        assert_eq!(t.kind(), ErrorKind::Timeout);
        assert_eq!(t.layer(), "eddie-serve");
    }
}
