//! The serving loop: every socket and the fleet drain on one thread.
//!
//! Connection count is decoupled from thread count: the serving thread
//! owns an [`eddie_net::Reactor`] (epoll on Linux, `poll(2)` fallback)
//! plus a map of connection state machines, each driving the protocol
//! core in [`handle_frame`], and it runs the fleet drain itself. Every
//! frame the server sends is written on this thread.
//!
//! Each connection has one id, drawn from a counter that never
//! repeats: it is the connection's poller data word, its session's
//! route and its journal id. A route or event naming a closed
//! connection finds nothing.
//!
//! ## One pass
//!
//! 1. **Poll** — wait up to [`POLL_INTERVAL`] for readiness, or not at
//!    all while chunks are queued.
//! 2. **Accept and read** — the listener sits in the same poller; each
//!    pass accepts until it would block. Readable connections decode
//!    frames, push chunks and queue replies, and the replies are
//!    flushed before any DSP runs, so an `Ack` never waits on a drain.
//! 3. **Drain** — [`serve_fleet`] processes every queued chunk on the
//!    worker pool (this thread takes a share) and writes each device's
//!    events into its connection's outbound buffer: the route is the
//!    connection's id.
//! 4. **Tick** — per connection: idle timeouts, `Finish`/`Close`
//!    completion and closing deadlines; then flush what is owed,
//!    resuming partial writes on writable readiness.
//!
//! * **Backpressure** — a real `PushResult::Full` is a `Busy` reply
//!   like every other refusal: the client resends from that chunk
//!   (go-back-N). [`MAX_READ_BUFFER`] bounds the bytes buffered per
//!   connection, so past it TCP pushes back on the capture device.
//! * **Flush** — `Finish`/`Close` become a `Flushing` mode: stop
//!   consuming frames until the tick that follows the pass's drain,
//!   then run [`after_flush`]. The drain empties every device's queue
//!   and writes its events in the same pass, so by then every event
//!   already sits in this connection's outbound buffer ahead of the
//!   reply — none can be lost, and the stream a client sees stays
//!   byte-identical to the batch pipeline's.
//! * **Goodbye** — a finished connection enters `Closing`: flush what
//!   is owed, courteously drain inbound bytes (bounded) so the close
//!   is a FIN rather than a RST destroying the final reply, then close
//!   after a quiet period of one poll interval.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use eddie_net::{BufferedConn, Event, FrameDefect, Interest, Reactor};
use eddie_obs::JournalEvent;

use crate::server::{
    after_flush, chunks_queued, finish_connection, handle_frame, send, send_err, serve_fleet,
    ConnState, ExitReason, ServerConfig, Shared, Step,
};
use crate::wire::{ErrCode, Frame, MAX_FRAME_LEN};

/// Poller user-data word for the listener, distinct from
/// [`eddie_net::WAKE_DATA`]. Connection ids count up from 0 and never
/// reach it.
const LISTENER_DATA: u64 = u64::MAX - 1;

/// Per-connection inbound accumulator bound: one maximum frame plus
/// a read burst. `fill` stops there, so a flooding peer costs bounded
/// memory and TCP pushes back.
const MAX_READ_BUFFER: usize = MAX_FRAME_LEN + 64 * 1024;

/// Poll timeout with nothing queued: the longest the serving thread
/// sleeps between ticks (idle-timeout checks, the expiry schedule). It
/// is also the quiet period a closing connection waits for the peer to
/// hang up before the server closes it.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Where a connection is in its lifecycle. `Open` is the only mode
/// that consumes inbound frames.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnMode {
    /// Reading and handling frames.
    Open,
    /// `Finish`/`Close` in progress: frames stay buffered until the
    /// next tick, after the pass's drain, runs [`after_flush`].
    Flushing(crate::server::FlushThen),
    /// Exit bookkeeping done; flushing final frames and courteously
    /// draining inbound bytes, then close.
    Closing,
}

/// One reactor-owned connection.
struct RConn {
    conn: BufferedConn,
    state: ConnState,
    mode: ConnMode,
    /// Interest set currently installed in the poller.
    interest: Interest,
    /// Last inbound progress, for the frame-boundary idle timeout.
    last_activity: Instant,
    saw_eof: bool,
    /// Whether [`finish_connection`] ran (exactly once per connection).
    finished: bool,
    /// Closing-mode quiet deadline, armed once everything owed is
    /// flushed and re-armed while courtesy bytes keep arriving.
    close_deadline: Option<Instant>,
    /// Courtesy-drain byte budget consumed.
    drained: usize,
}

/// The serving thread's connections, by id. Ascending ids follow
/// accept order, so a sweep over them is deterministic.
type Conns = BTreeMap<u64, RConn>;

/// Runs the server on the calling thread, one pass at a time (see the
/// module docs) — until shutdown has been observed, every connection is
/// gone and nothing is left queued. A fatal listener error initiates a
/// server-wide shutdown and surfaces here once the connections are
/// closed; a fatal poller error parks or evicts every session and
/// surfaces at once.
pub(crate) fn run_reactor(
    mut reactor: Reactor,
    listener: TcpListener,
    shared: &Shared,
    config: &ServerConfig,
) -> io::Result<()> {
    // High-fanout headroom: a stock 1024-descriptor soft limit dies at
    // ~1k connections. Best effort — the hard limit still rules.
    let _ = eddie_net::sys::raise_nofile_limit(16_384);

    let mut conns = Conns::new();
    let mut next_id: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut shutdown_seen = false;
    let mut served: io::Result<()> = Ok(());
    let mut queued = false;

    reactor.register_untracked(listener.as_raw_fd(), LISTENER_DATA, Interest::READABLE)?;

    loop {
        if shared.shutdown.load(Ordering::SeqCst) && !shutdown_seen {
            shutdown_seen = true;
            begin_shutdown(&mut conns, shared);
        }
        if shutdown_seen && conns.is_empty() && !queued {
            break;
        }

        // Queued chunks are work waiting: look for readiness without
        // blocking.
        let timeout = if queued {
            Duration::ZERO
        } else {
            POLL_INTERVAL
        };
        if let Err(e) = reactor.poll(&mut events, Some(timeout)) {
            // A broken poller strands every connection: take the whole
            // server down and park what we can.
            shared.shutdown.store(true, Ordering::SeqCst);
            abort_connections(&mut conns, &reactor, shared);
            return Err(e);
        }

        if !shutdown_seen {
            if let Some(e) = accept_burst(&listener, &mut conns, &mut next_id, &reactor, shared) {
                // Fatal listener error: shut down, drain (the next
                // iteration observes the flag), then report it.
                served = Err(e);
                shared.shutdown.store(true, Ordering::SeqCst);
            }
        }

        // Readiness: frames in, replies out.
        let batch = std::mem::take(&mut events);
        for ev in &batch {
            if ev.data == LISTENER_DATA {
                continue; // the accept burst above runs every pass
            }
            let id = ev.data;
            let keep = match conns.get_mut(&id) {
                Some(rc) => drive_event(rc, *ev, shared, config),
                None => continue, // closed earlier this pass
            };
            finish_pass(&mut conns, &reactor, id, keep, shared);
        }
        events = batch;

        // The drain: every queued chunk, its events onto their routes.
        serve_fleet(shared, config, |route, frame| {
            if let Some(rc) = conns.get_mut(&route) {
                send(&mut rc.conn, frame);
            }
        });

        // Tick: flush completion, idle timeouts, closing deadlines, and
        // the events just routed.
        tick(&mut conns, &reactor, shared, config);

        queued = chunks_queued(shared);
    }

    let _ = reactor.deregister_untracked(listener.as_raw_fd());
    served
}

/// Accepts until the listener would block, registering each socket
/// under the next id. Returns a fatal listener error, if any.
fn accept_burst(
    listener: &TcpListener,
    conns: &mut Conns,
    next_id: &mut u64,
    reactor: &Reactor,
    shared: &Shared,
) -> Option<io::Error> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.connections.inc();
                let id = *next_id;
                *next_id += 1;
                add_conn(stream, id, conns, reactor, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Some(e),
        }
    }
}

/// Registers one fresh socket in the reactor under `id`: lifecycle
/// counters and journal, nonblocking conversion, map entry, poller
/// registration.
fn add_conn(stream: TcpStream, id: u64, conns: &mut Conns, reactor: &Reactor, shared: &Shared) {
    shared.counters.open_connections.add(1);
    if let Some(o) = eddie_obs::global() {
        o.journal().record(JournalEvent::ConnectionOpened { id });
    }
    let close_books = |shared: &Shared| {
        shared.counters.open_connections.sub(1);
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::ConnectionClosed { id });
        }
    };
    let _ = stream.set_nodelay(true);
    let conn = match BufferedConn::new(stream) {
        Ok(c) => c,
        Err(_) => {
            close_books(shared);
            return;
        }
    };
    if reactor
        .register(conn.raw_fd(), id, Interest::READABLE)
        .is_err()
    {
        // The poller refused the descriptor (fd exhaustion): balance
        // the books and drop the socket.
        close_books(shared);
        return;
    }
    conns.insert(
        id,
        RConn {
            conn,
            state: ConnState::new(id),
            mode: ConnMode::Open,
            interest: Interest::READABLE,
            last_activity: Instant::now(),
            saw_eof: false,
            finished: false,
            close_deadline: None,
            drained: 0,
        },
    );
}

/// Applies the outcome of driving a connection: check the closing drop
/// condition, tear down when the connection is done, and otherwise
/// keep writable interest exactly while bytes are owed.
fn finish_pass(conns: &mut Conns, reactor: &Reactor, id: u64, keep: bool, shared: &Shared) {
    let Some(rc) = conns.get_mut(&id) else {
        return;
    };
    arm_close_deadline(rc);
    if !keep || closing_complete(rc) {
        teardown(conns, reactor, id, shared);
        return;
    }
    // Always readable: `Open` consumes frames, `Closing` drains
    // courtesy bytes, and the next tick releases a `Flushing` one.
    let want = if rc.conn.wants_write() {
        Interest::READABLE.or(Interest::WRITABLE)
    } else {
        Interest::READABLE
    };
    if want != rc.interest && reactor.reregister(rc.conn.raw_fd(), id, want).is_ok() {
        rc.interest = want;
    }
}

/// Handles one readiness event, then flushes what the connection owes.
/// Returns whether the connection stays.
fn drive_event(rc: &mut RConn, ev: Event, shared: &Shared, config: &ServerConfig) -> bool {
    if ev.readable || ev.error {
        if rc.mode == ConnMode::Closing {
            drain_courtesy(rc);
        } else {
            match rc.conn.fill(MAX_READ_BUFFER) {
                Ok(pass) => {
                    if pass.bytes > 0 {
                        rc.last_activity = Instant::now();
                    }
                    if pass.eof {
                        rc.saw_eof = true;
                    }
                    pump_frames(rc, shared, config);
                    if rc.saw_eof && rc.mode == ConnMode::Open {
                        if rc.conn.mid_frame() {
                            // EOF inside a frame: the peer died
                            // mid-send. Same books as a malformed
                            // frame.
                            shared.counters.bad_frames.inc();
                            send_err(&mut rc.conn, ErrCode::BadFrame);
                        }
                        begin_close(rc, ExitReason::Abrupt, shared);
                    }
                }
                Err(_) => {
                    // Transport error: nothing left to flush to.
                    salvage(rc, shared, config);
                    return false;
                }
            }
        }
    }
    flush_owed(rc, shared, config)
}

/// Flushes the connection's outbound buffer as far as the socket
/// allows. Returns whether the connection survived; a transport error
/// salvages its buffered frames first.
fn flush_owed(rc: &mut RConn, shared: &Shared, config: &ServerConfig) -> bool {
    if rc.conn.wants_write() && rc.conn.flush().is_err() {
        salvage(rc, shared, config);
        return false;
    }
    true
}

/// Answers every frame the peer got into our socket before a transport
/// error ends the connection. The typical error is a reset from a peer
/// that closed with our replies unread; the kernel delivers the reset
/// after the data the peer sent, and those chunks were sent, so the
/// chunk ledger must count them.
fn salvage(rc: &mut RConn, shared: &Shared, config: &ServerConfig) {
    while rc.mode == ConnMode::Open {
        pump_frames(rc, shared, config);
        match rc.conn.fill(MAX_READ_BUFFER) {
            Ok(pass) if pass.bytes > 0 => {}
            // The error, EOF or an empty socket: answer the last bytes.
            _ => {
                pump_frames(rc, shared, config);
                return;
            }
        }
    }
}

/// Extracts and handles every complete frame while the connection is
/// `Open`. Mode transitions out of `Open` stop consumption with the
/// remainder left buffered.
fn pump_frames(rc: &mut RConn, shared: &Shared, config: &ServerConfig) {
    while rc.mode == ConnMode::Open {
        match rc.conn.next_frame(MAX_FRAME_LEN) {
            Ok(Some(body)) => {
                rc.last_activity = Instant::now();
                match Frame::decode(&body) {
                    Ok(frame) => {
                        shared.counters.frames_decoded.inc();
                        let step = handle_frame(frame, &mut rc.conn, &mut rc.state, shared, config);
                        apply_step(rc, step, shared);
                    }
                    Err(_) => {
                        shared.counters.bad_frames.inc();
                        send_err(&mut rc.conn, ErrCode::BadFrame);
                        // Corruption is a transport fault, not a
                        // goodbye: park a resumable session so the
                        // client can reconnect.
                        begin_close(rc, ExitReason::Abrupt, shared);
                    }
                }
            }
            Ok(None) => return,
            Err(FrameDefect::BadLength(_)) => {
                shared.counters.bad_frames.inc();
                send_err(&mut rc.conn, ErrCode::BadFrame);
                begin_close(rc, ExitReason::Abrupt, shared);
            }
        }
    }
}

/// Applies a [`Step`] from the shared protocol core to reactor state.
fn apply_step(rc: &mut RConn, step: Step, shared: &Shared) {
    match step {
        Step::Continue => {}
        Step::Flush(then) => rc.mode = ConnMode::Flushing(then),
        Step::End(reason) => begin_close(rc, reason, shared),
    }
}

/// Runs the exit bookkeeping (once) and switches to `Closing`.
fn begin_close(rc: &mut RConn, reason: ExitReason, shared: &Shared) {
    if !rc.finished {
        finish_connection(&rc.state, reason, shared);
        rc.finished = true;
    }
    // The route is gone, so no new frames arrive; frames already
    // queued — the goodbye — still flush.
    if rc.mode != ConnMode::Closing {
        rc.mode = ConnMode::Closing;
        // Bytes already buffered count against the courtesy budget.
        rc.drained = rc.drained.saturating_add(rc.conn.buffered_len());
    }
}

/// Closing-mode courtesy drain: read and discard inbound bytes so the
/// close is a FIN, not a RST that could destroy the final reply.
/// Bounded by one maximum frame; arrival re-arms the quiet deadline.
fn drain_courtesy(rc: &mut RConn) {
    let mut buf = [0u8; 4096];
    while rc.drained < MAX_FRAME_LEN {
        let mut stream = rc.conn.stream();
        match stream.read(&mut buf) {
            Ok(0) => {
                rc.saw_eof = true;
                return;
            }
            Ok(n) => {
                rc.drained += n;
                if rc.close_deadline.is_some() {
                    rc.close_deadline = Some(Instant::now() + POLL_INTERVAL);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                rc.saw_eof = true;
                return;
            }
        }
    }
}

/// Arms the closing quiet deadline once everything owed has reached
/// the socket.
fn arm_close_deadline(rc: &mut RConn) {
    if rc.mode == ConnMode::Closing && rc.close_deadline.is_none() && !rc.conn.wants_write() {
        rc.close_deadline = Some(Instant::now() + POLL_INTERVAL);
    }
}

/// Whether a closing connection is done: everything flushed, and the
/// peer hung up, exhausted the courtesy budget, or went quiet.
fn closing_complete(rc: &RConn) -> bool {
    rc.mode == ConnMode::Closing
        && !rc.conn.wants_write()
        && (rc.saw_eof
            || rc.drained >= MAX_FRAME_LEN
            || rc.close_deadline.is_some_and(|d| Instant::now() >= d))
}

/// Once-per-pass maintenance across all connections, ending with a
/// flush of what each owes. It runs after the pass's drain, which left
/// no chunk queued, so a `Flushing` connection completes here.
fn tick(conns: &mut Conns, reactor: &Reactor, shared: &Shared, config: &ServerConfig) {
    let now = Instant::now();
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        let Some(rc) = conns.get_mut(&id) else {
            continue;
        };
        match rc.mode {
            ConnMode::Open => {
                // Idle budget applies only at a frame boundary: a
                // mid-frame stall is a slow sender.
                if let Some(limit) = config.idle_timeout {
                    if !rc.conn.mid_frame() && now.duration_since(rc.last_activity) >= limit {
                        shared.counters.idle_disconnects.inc();
                        begin_close(rc, ExitReason::Abrupt, shared);
                    }
                }
            }
            ConnMode::Flushing(then) => {
                // Back to `Open` unless the flush ends the connection.
                rc.mode = ConnMode::Open;
                let step = after_flush(then, &rc.state, &mut rc.conn, shared);
                apply_step(rc, step, shared);
                // Frames buffered behind the flush are live again; a
                // flush they begin completes in the next pass's tick.
                pump_frames(rc, shared, config);
            }
            ConnMode::Closing => {}
        }
        let keep = flush_owed(rc, shared, config);
        finish_pass(conns, reactor, id, keep, shared);
    }
}

/// Removes a connection: its id leaves the map (a route still naming
/// it drops frames), the descriptor leaves the poller, lifecycle books
/// balance, and — if the protocol never concluded — the session is
/// parked or evicted as an abrupt disconnect.
fn teardown(conns: &mut Conns, reactor: &Reactor, id: u64, shared: &Shared) {
    let Some(rc) = conns.remove(&id) else {
        return;
    };
    let _ = reactor.deregister(rc.conn.raw_fd());
    if !rc.finished {
        finish_connection(&rc.state, ExitReason::Abrupt, shared);
    }
    shared.counters.open_connections.sub(1);
    if let Some(o) = eddie_obs::global() {
        o.journal().record(JournalEvent::ConnectionClosed { id });
    }
    // Dropping `rc` closes the socket (FIN — the courtesy drain and
    // flush already happened for graceful exits).
}

/// Shutdown sweep: every connection still running gets the shutdown
/// error and a graceful close.
fn begin_shutdown(conns: &mut Conns, shared: &Shared) {
    for rc in conns.values_mut() {
        if rc.mode != ConnMode::Closing {
            send_err(&mut rc.conn, ErrCode::Shutdown);
            begin_close(rc, ExitReason::Clean, shared);
        }
    }
}

/// Fatal-poller bailout: run exit bookkeeping for every connection so
/// sessions are parked/evicted rather than leaked, then drop sockets.
fn abort_connections(conns: &mut Conns, reactor: &Reactor, shared: &Shared) {
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        teardown(conns, reactor, id, shared);
    }
}
