//! The EDDIE ingestion server: many capture-device connections in
//! front of one [`eddie_stream::Fleet`].
//!
//! # Threading model
//!
//! One **serving thread** (the caller of [`Server::run`]) produces
//! every frame the server sends. It owns the listener and every socket
//! (see the private `reactor` module) and runs each connection's
//! protocol state machine (`handle_frame`): `Hello` registers a
//! [`MonitorSession`] in the fleet, and `Chunk` frames are pushed
//! through [`Fleet::push_chunk`](eddie_stream::Fleet::push_chunk). A
//! `Full` result becomes an explicit [`Frame::Busy`] on the wire, which
//! is how fleet backpressure reaches the capture device: it resends
//! from the refused chunk (go-back-N).
//!
//! After each pass's frames are handled and their replies flushed, the
//! same thread drains the fleet ([`Fleet::drain`]: the devices with
//! queued chunks, sharded across the `eddie-exec` worker pool with the
//! serving thread taking a share) and writes each device's events into
//! the outbound buffer of the connection carrying its session; the
//! route is that connection's id, drawn from a counter that never
//! repeats. It also expires parked sessions and forwarding stubs. Slow
//! clients never stall it: unsent bytes wait in their connection's
//! buffer.
//!
//! # Sessions
//!
//! Every session has one key, a token drawn from the server's counter
//! (only a `HelloResumable` client is told its token). The token is
//! also the session's fleet key, so drains, journal records and spill
//! entries all name the session as its client does, on every server it
//! lives on. The session's record holds its model, its link (the
//! connection carrying it, or since when it has been parked), its chunk
//! cursor and, if resumable, its replay tail. A connection remembers
//! only its session's token and reaches the record only while the link
//! names it. A new session never draws a token that a session or
//! forwarding stub on this server holds.
//!
//! The fleet and the records live behind one mutex, which the serving
//! thread shares only with [`ServerHandle`] calls (stats, migrate).
//! With one thread producing frames, the two invariants that matter
//! hold by construction:
//!
//! 1. a drain empties every device's queue and writes its events in
//!    the pass that processes their chunks, so when a connection
//!    completes a `Finish` or a graceful `Close` after the drain, every
//!    event for its accepted chunks is already queued ahead of the
//!    reply — none are lost;
//! 2. eviction (record removal + [`Fleet::remove_session`]) never
//!    interleaves with a drain, so an abrupt disconnect can never leak
//!    a session or route events to a dead connection.
//!
//! [`ServerHandle::migrate`] moves a session to another server in one
//! step under both servers' locks, so no frame on either server ever
//! sees a half-moved session.
//!
//! Per-device event order is the fleet's determinism contract, so the
//! event stream a client receives is byte-identical to the batch
//! pipeline for every `EDDIE_THREADS` value and any drain timing.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use eddie_chaos::ServerFaults;
use eddie_core::{Error as CoreError, ErrorKind, TrainedModel};
use eddie_net::{BufferedConn, NetMetrics, Reactor, Waker};
use eddie_obs::{Counter, Gauge, Histogram, JournalEvent, Registry, Timer};
use eddie_store::{SessionStore, StoreConfig};
use eddie_stream::{DeviceId, Fleet, FleetConfig, FleetStats, MonitorSession, PushResult};

use crate::wire::{ErrCode, Frame, MAX_FRAME_LEN};

/// The trained models a server hosts, keyed by the id clients name in
/// their `Hello`.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<TrainedModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers `model` under `id`, replacing any previous model with
    /// that id.
    pub fn insert(&mut self, id: impl Into<String>, model: Arc<TrainedModel>) {
        self.models.insert(id.into(), model);
    }

    /// The model registered under `id`.
    pub fn get(&self, id: &str) -> Option<&Arc<TrainedModel>> {
        self.models.get(id)
    }

    /// Number of hosted models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no models are hosted.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// Tunables of a [`Server`]. Construct via [`ServerConfig::builder`];
/// the struct is `#[non_exhaustive]` so new tunables (as the chaos and
/// recovery work added) are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Ingress bounds of the shared fleet (per-device queue caps).
    pub fleet: FleetConfig,
    /// Disconnect a connection that sends nothing for this long;
    /// `None` keeps connections open indefinitely. A resumable session
    /// is *parked*, not evicted, by an idle disconnect.
    pub idle_timeout: Option<Duration>,
    /// How long a parked resumable session waits for its client to
    /// come back before it is evicted for good.
    pub resume_linger: Duration,
    /// Event frames buffered per resumable session for replay on
    /// reattach. A client further behind than this window gets
    /// [`ErrCode::ResumeGap`].
    pub resume_tail: usize,
    /// First session token this server draws (every session draws
    /// one; only a resumable session's client is told it). A cluster
    /// gives each shard a disjoint base (e.g. `(shard + 1) << 48`) so a
    /// token minted on one shard never collides with another's when a
    /// live migration carries it across. Must be nonzero — token `0` is
    /// the wire-level "no session" sentinel in [`Frame::Moved`].
    pub token_base: u64,
    /// Server-side failpoints (`Busy` storms, slow drains) for chaos
    /// testing; `None` in production.
    pub faults: Option<Arc<ServerFaults>>,
    /// Cold-storage tier for the fleet: when set, idle sessions beyond
    /// the store's resident budget are parked to its spill log between
    /// drains. `None` keeps every session resident.
    pub session_store: Option<StoreConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            fleet: FleetConfig::default(),
            idle_timeout: None,
            resume_linger: Duration::from_secs(30),
            resume_tail: 1024,
            token_base: 1,
            faults: None,
            session_store: None,
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`]: `with_*` setters, then a validated
/// [`build`](ServerConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Ingress bounds of the shared fleet.
    pub fn with_fleet(mut self, fleet: FleetConfig) -> ServerConfigBuilder {
        self.config.fleet = fleet;
        self
    }

    /// Disconnect (parking resumable sessions) after this much silence.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> ServerConfigBuilder {
        self.config.idle_timeout = Some(timeout);
        self
    }

    /// How long a parked session waits before eviction.
    pub fn with_resume_linger(mut self, linger: Duration) -> ServerConfigBuilder {
        self.config.resume_linger = linger;
        self
    }

    /// Event frames buffered per resumable session for reattach replay.
    pub fn with_resume_tail(mut self, tail: usize) -> ServerConfigBuilder {
        self.config.resume_tail = tail;
        self
    }

    /// First session token this server draws (cluster shards use
    /// disjoint bases so migrated tokens never collide).
    pub fn with_token_base(mut self, base: u64) -> ServerConfigBuilder {
        self.config.token_base = base;
        self
    }

    /// Wires chaos failpoints into the server (tests only).
    pub fn with_faults(mut self, faults: Arc<ServerFaults>) -> ServerConfigBuilder {
        self.config.faults = Some(faults);
        self
    }

    /// Attaches a cold-storage tier: budgeted parking of idle sessions.
    pub fn with_session_store(mut self, store: StoreConfig) -> ServerConfigBuilder {
        self.config.session_store = Some(store);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns an error of kind [`ErrorKind::InvalidConfig`] when the
    /// idle timeout is zero, the resume tail is empty or the token base
    /// is zero — values that would drop every connection at once, make
    /// every resume a gap or collide with the no-session token.
    pub fn build(self) -> Result<ServerConfig, CoreError> {
        let c = &self.config;
        let invalid =
            |msg: &str| CoreError::new(ErrorKind::InvalidConfig, "eddie-serve", msg.to_string());
        if c.resume_tail == 0 {
            return Err(invalid("resume_tail must be at least 1"));
        }
        if c.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(invalid("idle_timeout must be positive when set"));
        }
        if c.token_base == 0 {
            return Err(invalid(
                "token_base must be nonzero (0 is the wire's no-session sentinel)",
            ));
        }
        Ok(self.config)
    }
}

/// Counters the server accumulates over its lifetime, kept whether or
/// not observability is installed. The server owns them: they live in
/// its own [`Registry`], which a `Stats` reply renders, so the
/// Prometheus exposition and [`ServerReport`] are views of one set of
/// books, and two servers in one process never share a series.
#[derive(Debug)]
pub(crate) struct Counters {
    registry: Registry,
    pub(crate) connections: Arc<Counter>,
    pub(crate) bad_frames: Arc<Counter>,
    events_sent: Arc<Counter>,
    pub(crate) chunks_received: Arc<Counter>,
    pub(crate) chunks_accepted: Arc<Counter>,
    pub(crate) chunks_busy: Arc<Counter>,
    pub(crate) duplicate_acks: Arc<Counter>,
    pub(crate) frames_decoded: Arc<Counter>,
    sessions_parked: Arc<Counter>,
    pub(crate) sessions_resumed: Arc<Counter>,
    pub(crate) events_replayed: Arc<Counter>,
    sessions_migrated_out: Arc<Counter>,
    sessions_migrated_in: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) open_connections: Arc<Gauge>,
    /// `eddie_serve_ingest_lag_ns`: a chunk frame's wait for the core
    /// lock plus its sequence check and push. Every chunk frame is
    /// sampled, in order or not, since the chunk cursor lives in the
    /// session's record under that lock. The serving thread runs the
    /// drain itself, so only a [`ServerHandle`] call (stats, migrate)
    /// can hold the lock then.
    pub(crate) ingest_lag_ns: Arc<Histogram>,
}

impl Counters {
    fn new() -> Counters {
        let registry = Registry::new();
        Counters {
            connections: registry.counter("eddie_serve_connections_total"),
            bad_frames: registry.counter("eddie_serve_bad_frames_total"),
            events_sent: registry.counter("eddie_serve_events_sent_total"),
            chunks_received: registry.counter("eddie_serve_chunks_received_total"),
            chunks_accepted: registry.counter("eddie_serve_chunks_accepted_total"),
            chunks_busy: registry.counter("eddie_serve_chunks_busy_total"),
            duplicate_acks: registry.counter("eddie_serve_duplicate_acks_total"),
            frames_decoded: registry.counter("eddie_serve_frames_decoded_total"),
            sessions_parked: registry.counter("eddie_serve_sessions_parked_total"),
            sessions_resumed: registry.counter("eddie_serve_sessions_resumed_total"),
            events_replayed: registry.counter("eddie_serve_events_replayed_total"),
            sessions_migrated_out: registry.counter("eddie_serve_sessions_migrated_out_total"),
            sessions_migrated_in: registry.counter("eddie_serve_sessions_migrated_in_total"),
            idle_disconnects: registry.counter("eddie_serve_idle_disconnects_total"),
            open_connections: registry.gauge("eddie_serve_open_connections"),
            ingest_lag_ns: registry.histogram("eddie_serve_ingest_lag_ns"),
            registry,
        }
    }
}

/// Final report returned by [`Server::run`] after shutdown.
///
/// The chunk counters obey a conservation law that chaos tests check:
/// `chunks_received == chunks_accepted + chunks_busy + duplicate_acks`
/// — every chunk frame a client manages to deliver is accounted for
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Malformed frames answered with [`ErrCode::BadFrame`].
    pub bad_frames: u64,
    /// Event frames sent to clients.
    pub events_sent: u64,
    /// Chunk frames received (before any accept/refuse decision).
    pub chunks_received: u64,
    /// Chunks accepted into the fleet.
    pub chunks_accepted: u64,
    /// Chunks refused with [`Frame::Busy`] (fleet backpressure,
    /// out-of-order retries, or an injected busy storm).
    pub chunks_busy: u64,
    /// Re-delivered chunks answered with an idempotent ack.
    pub duplicate_acks: u64,
    /// Resumable sessions parked after an abrupt disconnect.
    pub sessions_parked: u64,
    /// Parked sessions reclaimed by a reconnecting client.
    pub sessions_resumed: u64,
    /// Buffered event frames replayed to reattaching clients.
    pub events_replayed: u64,
    /// Sessions migrated to another server.
    pub sessions_migrated_out: u64,
    /// Sessions migrated here from another server.
    pub sessions_migrated_in: u64,
    /// Connections dropped by the idle timeout.
    pub idle_disconnects: u64,
    /// Fleet statistics at shutdown (shed totals survive eviction).
    pub final_stats: FleetStats,
}

/// What the serving thread shares with [`ServerHandle`]s.
pub(crate) struct Shared {
    pub(crate) core: Mutex<Core>,
    pub(crate) registry: ModelRegistry,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: Counters,
    /// Lets [`ServerHandle::shutdown`] interrupt the serving thread's
    /// blocked poll instead of waiting out its timeout.
    pub(crate) waker: Waker,
}

/// The single-mutex heart of the server: the fleet plus one record per
/// session. Both are keyed by the session's token: the fleet holds the
/// session under `DeviceId(token)`.
pub(crate) struct Core {
    pub(crate) fleet: Fleet,
    /// Every session on this server, by token. A resumable session's
    /// record outlives the connections that carry it.
    sessions: HashMap<u64, Session>,
    /// Forwarding stubs for sessions migrated to another server: any
    /// frame arriving for one of these tokens is answered with
    /// [`Frame::Moved`] naming the new owner. Pruned after each drain
    /// on the same linger schedule as parked sessions. A token is in
    /// `sessions` or here, never both.
    moved: HashMap<u64, MovedStub>,
    /// Where [`Core::draw_token`] looks for the next token.
    next_token: u64,
}

/// Where a migrated-away session lives now, and since when (for
/// linger-based pruning).
struct MovedStub {
    addr: String,
    since: Instant,
}

/// One session: its model, who carries it and where its chunk cursor
/// stands. Its token keys both this record and its fleet session.
struct Session {
    /// The hosted model the session monitors against.
    model_id: String,
    link: Link,
    /// Next chunk seq the server expects.
    expected_seq: u64,
    /// `Some` only for a resumable (`HelloResumable`) session.
    tail: Option<Tail>,
}

/// Who carries a session.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Link {
    /// The connection with this id: the route its events take.
    Attached(u64),
    /// No connection since this instant. A resumable session waits for
    /// a `Resume` until the linger runs out.
    Parked(Instant),
}

/// The already-sent events a resumable session can replay when its
/// client reattaches. The token is a reconnection *capability*, not
/// authentication — it only lets a client continue the stream it
/// started.
#[derive(Default)]
struct Tail {
    /// Recently produced event frames; they keep coming while the
    /// session is parked.
    frames: VecDeque<Frame>,
    /// Window index of `frames.front()`.
    base: u64,
    /// Total event frames produced for this device (== next window).
    windows_sent: u64,
}

impl Core {
    /// Draws a token for a new session: the counter's next value that
    /// no session or forwarding stub here holds. A session migrated in
    /// keeps the token its first server drew, so the counter alone
    /// cannot promise that.
    fn draw_token(&mut self) -> u64 {
        while self.sessions.contains_key(&self.next_token)
            || self.moved.contains_key(&self.next_token)
        {
            self.next_token += 1;
        }
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Answers a frame for a session the connection no longer carries:
    /// [`Frame::Moved`] when it migrated away (the client resumes at
    /// the new owner with its token intact), `UnknownToken` otherwise.
    fn answer_gone(&self, token: Option<u64>, out: &mut BufferedConn) {
        match token.and_then(|t| self.moved.get(&t).map(|stub| (t, stub))) {
            Some((token, stub)) => send(
                out,
                &Frame::Moved {
                    shard_addr: stub.addr.clone(),
                    token,
                },
            ),
            None => send_err(out, ErrCode::UnknownToken),
        }
    }
}

/// Remote control for a running [`Server`]: request shutdown, read
/// load statistics and move sessions between servers from other
/// threads.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to shut down gracefully: stop accepting, notify
    /// connected clients with [`ErrCode::Shutdown`], drain, and return
    /// from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The serving thread may be parked in a poll; wake it so the
        // flag is observed immediately.
        self.shared.waker.wake();
    }

    /// A point-in-time snapshot of fleet load (queue depths, shed
    /// counts, live session count).
    pub fn fleet_stats(&self) -> FleetStats {
        self.shared.core.lock().expect("core lock").fleet.stats()
    }

    /// Tokens of the resumable sessions this server currently owns,
    /// sorted — what a rebalance planner enumerates to decide who
    /// moves.
    pub fn resumable_tokens(&self) -> Vec<u64> {
        let core = self.shared.core.lock().expect("core lock");
        let mut tokens: Vec<u64> = core
            .sessions
            .iter()
            .filter(|(_, s)| s.tail.is_some())
            .map(|(t, _)| *t)
            .collect();
        tokens.sort_unstable();
        tokens
    }

    /// Moves the resumable session `token` from this server to `to`,
    /// whose clients reach it at `to_addr`, in one step under both
    /// servers' core locks. The session keeps its token, chunk cursor
    /// and replay tail and lands parked on `to`; this server keeps a
    /// forwarding stub (aging out on the resume-linger schedule), so the
    /// client's next frame here is answered [`Frame::Moved`] and its
    /// `Resume` at `to_addr` reattaches the session as after a dropped
    /// connection. While the session has chunks queued, both locks are
    /// released and the move retries every 200 µs (the serving thread
    /// drains every queue each pass); chunks keep flowing meanwhile.
    ///
    /// # Errors
    ///
    /// Refused before anything changes: [`ErrorKind::UnknownToken`]
    /// when no resumable session carries `token` here;
    /// [`ErrorKind::UnknownModel`] when `to` does not host the
    /// session's model; [`ErrorKind::ProtocolViolation`] when `to` is
    /// this server or a session with `token` already lives there.
    /// Snapshot and restore errors (e.g.
    /// [`ErrorKind::CorruptSnapshot`]) pass through and leave both
    /// servers unchanged too.
    pub fn migrate(&self, token: u64, to: &ServerHandle, to_addr: &str) -> Result<(), CoreError> {
        let refuse = |kind, msg: String| Err(CoreError::new(kind, "eddie-serve", msg));
        if Arc::ptr_eq(&self.shared, &to.shared) {
            return refuse(
                ErrorKind::ProtocolViolation,
                "a session cannot migrate to the server it lives on".to_string(),
            );
        }
        loop {
            let (mut src_guard, mut dst_guard) = lock_pair(&self.shared, &to.shared);
            let (src, dst) = (&mut *src_guard, &mut *dst_guard);
            let Some(s) = src.sessions.get(&token).filter(|s| s.tail.is_some()) else {
                return refuse(
                    ErrorKind::UnknownToken,
                    "no resumable session for that token".to_string(),
                );
            };
            let Some(model) = to.shared.registry.get(&s.model_id) else {
                return refuse(
                    ErrorKind::UnknownModel,
                    format!("destination does not host model {:?}", s.model_id),
                );
            };
            if dst.sessions.contains_key(&token) {
                return refuse(
                    ErrorKind::ProtocolViolation,
                    format!("token {token} already lives on the destination"),
                );
            }
            let key = DeviceId(token);
            if src.fleet.pending_chunks(key) > 0 {
                drop((src_guard, dst_guard));
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let session = MonitorSession::restore(model.clone(), src.fleet.snapshot_session(key)?)?;
            let mut s = src.sessions.remove(&token).expect("looked up above");
            let _ = src.fleet.remove_session(key);
            src.moved.insert(
                token,
                MovedStub {
                    addr: to_addr.to_string(),
                    since: Instant::now(),
                },
            );
            dst.fleet.insert_session(key, session);
            s.link = Link::Parked(Instant::now());
            dst.moved.remove(&token);
            self.shared.counters.sessions_migrated_out.inc();
            to.shared.counters.sessions_migrated_in.inc();
            if let Some(o) = eddie_obs::global() {
                o.journal()
                    .record(JournalEvent::SessionMigratedOut { device: token });
                o.journal()
                    .record(JournalEvent::SessionMigratedIn { device: token });
            }
            dst.sessions.insert(token, s);
            return Ok(());
        }
    }
}

/// Locks two servers' cores, the lower address first, so two opposite
/// migrations cannot deadlock. Returns the guards in argument order.
fn lock_pair<'a>(a: &'a Shared, b: &'a Shared) -> (MutexGuard<'a, Core>, MutexGuard<'a, Core>) {
    let lock = |s: &'a Shared| s.core.lock().expect("core lock");
    if (a as *const Shared) < (b as *const Shared) {
        let first = lock(a);
        (first, lock(b))
    } else {
        let first = lock(b);
        (lock(a), first)
    }
}

/// A bound-but-not-yet-running ingestion server. Call
/// [`run`](Server::run) to serve; it blocks until
/// [`ServerHandle::shutdown`] is called.
pub struct Server {
    listener: TcpListener,
    reactor: Reactor,
    shared: Arc<Shared>,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) hosting the
    /// models in `registry`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let fleet = match config.session_store.clone() {
            Some(store_config) => {
                let store = SessionStore::open(store_config)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                Fleet::with_store(config.fleet, store)
            }
            None => Fleet::new(config.fleet),
        };
        let reactor = Reactor::new()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                core: Mutex::new(Core {
                    fleet,
                    sessions: HashMap::new(),
                    moved: HashMap::new(),
                    next_token: config.token_base,
                }),
                registry,
                shutdown: AtomicBool::new(false),
                counters: Counters::new(),
                waker: reactor.waker(),
            }),
            reactor,
            config,
            addr,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down and reading stats from
    /// other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
            addr: self.addr,
        }
    }

    /// Serves until [`ServerHandle::shutdown`] on the calling thread:
    /// it accepts and drives every connection, drains the fleet, and on
    /// shutdown closes every connection and drains what is still queued
    /// before returning the final report.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            reactor,
            shared,
            config,
            ..
        } = self;

        crate::reactor::run_reactor(reactor, listener, &shared, &config)?;
        Ok(build_report(&shared))
    }
}

/// Snapshots every counter (plus the fleet's own statistics) into the
/// final [`ServerReport`].
fn build_report(shared: &Shared) -> ServerReport {
    let final_stats = shared.core.lock().expect("core lock").fleet.stats();
    let c = &shared.counters;
    ServerReport {
        connections: c.connections.value(),
        bad_frames: c.bad_frames.value(),
        events_sent: c.events_sent.value(),
        chunks_received: c.chunks_received.value(),
        chunks_accepted: c.chunks_accepted.value(),
        chunks_busy: c.chunks_busy.value(),
        duplicate_acks: c.duplicate_acks.value(),
        sessions_parked: c.sessions_parked.value(),
        sessions_resumed: c.sessions_resumed.value(),
        events_replayed: c.events_replayed.value(),
        sessions_migrated_out: c.sessions_migrated_out.value(),
        sessions_migrated_in: c.sessions_migrated_in.value(),
        idle_disconnects: c.idle_disconnects.value(),
        final_stats,
    }
}

/// One drain on the serving thread: processes every queued chunk
/// (sharded across the worker pool), appends each resumable session's
/// events to its replay tail and hands them to `deliver` with the
/// route of the connection carrying the session, and expires parked
/// sessions and forwarding stubs whose linger ran out. The slow-drain
/// failpoint stalls the serving thread after a drain that processed
/// chunks.
pub(crate) fn serve_fleet(
    shared: &Shared,
    config: &ServerConfig,
    mut deliver: impl FnMut(u64, &Frame),
) {
    let drained = {
        let mut core = shared.core.lock().expect("core lock");
        let core = &mut *core;
        // An idle fleet skips the drain, and with it the store's
        // per-drain budget pass and the drain-latency sample.
        let drained = if core.fleet.total_pending_chunks() > 0 {
            core.fleet.drain()
        } else {
            Vec::new()
        };
        // The pass's flushes complete after this without checking a
        // queue: they rely on the drain leaving none.
        debug_assert_eq!(core.fleet.total_pending_chunks(), 0);
        for (key, evs) in &drained {
            let Some(s) = core.sessions.get_mut(&key.0) else {
                continue;
            };
            // Tail first, route second: the tail keeps filling while
            // the session is parked (no route), which is what makes
            // replay on reattach possible at all.
            if let Some(tail) = &mut s.tail {
                for ev in evs {
                    tail.frames.push_back(Frame::from_stream_event(ev));
                    tail.windows_sent += 1;
                    while tail.frames.len() > config.resume_tail {
                        tail.frames.pop_front();
                        tail.base += 1;
                    }
                }
            }
            if let Link::Attached(route) = s.link {
                for ev in evs {
                    // A route to a closed connection drops the frame;
                    // its exit bookkeeping evicts or parks.
                    deliver(route, &Frame::from_stream_event(ev));
                }
                shared.counters.events_sent.add(evs.len() as u64);
            }
        }
        // Park expiry: a parked session whose client never came back
        // is evicted for good once the linger runs out.
        let now = Instant::now();
        let fleet = &mut core.fleet;
        core.sessions.retain(|&token, s| {
            let expired = matches!(s.link,
                Link::Parked(since) if now.duration_since(since) >= config.resume_linger);
            if expired {
                let _ = fleet.remove_session(DeviceId(token));
            }
            !expired
        });
        // Forwarding stubs age out on the same linger schedule; a
        // straggler asking afterwards gets `UnknownToken`, exactly as an
        // expired parked session would.
        core.moved
            .retain(|_, stub| now.duration_since(stub.since) < config.resume_linger);
        drained
    };
    // Slow-drain failpoint: stall the serving thread between drains,
    // outside the core lock.
    if !drained.is_empty() {
        if let Some(pause) = config.faults.as_ref().and_then(|f| f.drain_pause()) {
            std::thread::sleep(pause);
        }
    }
}

/// Whether any device has chunks waiting for the next drain.
pub(crate) fn chunks_queued(shared: &Shared) -> bool {
    let core = shared.core.lock().expect("core lock");
    core.fleet.total_pending_chunks() > 0
}

/// Queues `frame` on a connection's outbound buffer; the serving
/// thread flushes it as the socket allows.
pub(crate) fn send(out: &mut BufferedConn, frame: &Frame) {
    out.queue_with(|buf| frame.encode_into(buf));
}

/// Queues an [`Frame::Err`] reply carrying `code`.
pub(crate) fn send_err(out: &mut BufferedConn, code: ErrCode) {
    send(out, &Frame::Err { code });
}

/// Per-connection protocol state.
pub(crate) struct ConnState {
    /// The connection's id: the route its session's events take.
    pub(crate) route: u64,
    /// The token of the session this connection opened (`Hello`,
    /// `HelloResumable`) or reclaimed (`Resume`).
    pub(crate) token: Option<u64>,
}

impl ConnState {
    /// A fresh connection with id `route`: no session yet.
    pub(crate) fn new(route: u64) -> ConnState {
        ConnState { route, token: None }
    }

    /// The session this connection carries, as its fleet key and its
    /// record: its token's record, while that record is attached to
    /// this connection.
    fn session<'a>(
        &self,
        sessions: &'a mut HashMap<u64, Session>,
    ) -> Option<(DeviceId, &'a mut Session)> {
        let token = self.token?;
        let s = sessions.get_mut(&token)?;
        (s.link == Link::Attached(self.route)).then_some((DeviceId(token), s))
    }
}

/// How a connection ended — decides eviction vs parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitReason {
    /// The client said goodbye (`Close`), never had a session, or the
    /// server is shutting down; evict.
    Clean,
    /// EOF, transport error, malformed frame, idle timeout, or a
    /// protocol error the client may recover from by reconnecting: a
    /// resumable session is parked, anything else is evicted.
    Abrupt,
}

/// What to run once a [`Step::Flush`] completes (the pass's drain has
/// emptied the device's queue and every event is queued on the
/// connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushThen {
    /// Report the total window count (`Finish`); the connection
    /// continues afterwards.
    Finished,
    /// Graceful goodbye (`Close`); the connection ends cleanly.
    Close,
}

/// What [`handle_frame`] asks the reactor to do next. The protocol
/// state machine never blocks: the reactor maps `Flush` to a
/// `Flushing` connection mode.
pub(crate) enum Step {
    /// Keep reading frames.
    Continue,
    /// Stop consuming frames until the pass's drain has emptied the
    /// device's queue, then apply [`after_flush`].
    Flush(FlushThen),
    /// The connection is over; run exit bookkeeping with this reason.
    End(ExitReason),
}

/// Completes a [`Step::Flush`] after the pass's drain: the queue is
/// empty, so every event for accepted chunks is already queued on the
/// connection (a drain writes its events in the pass that processes
/// their chunks).
pub(crate) fn after_flush(
    then: FlushThen,
    state: &ConnState,
    out: &mut BufferedConn,
    shared: &Shared,
) -> Step {
    match then {
        FlushThen::Finished => {
            let mut core = shared.core.lock().expect("core lock");
            let core = &mut *core;
            let Some((key, _)) = state.session(&mut core.sessions) else {
                // Migrated while the flush waited: the session
                // finishes on the server that owns it now.
                core.answer_gone(state.token, out);
                return Step::End(ExitReason::Clean);
            };
            // Parked-aware: a cold-parked session reports its progress
            // from resident metadata, no thaw needed.
            let windows = core.fleet.windows_observed(key).map_or(0, |n| n as u64);
            send(out, &Frame::Finished { windows });
            Step::Continue
        }
        FlushThen::Close => Step::End(ExitReason::Clean),
    }
}

/// Exit bookkeeping, atomic with routing so no events go to a dead
/// connection: an abrupt exit *parks* a resumable session (it stays
/// in the fleet, its tail keeps filling, and a `Resume` can reclaim
/// it until the linger expires); everything else evicts. A session
/// the connection no longer carries (migrated, or reclaimed by
/// another connection) is left alone.
pub(crate) fn finish_connection(state: &ConnState, reason: ExitReason, shared: &Shared) {
    let mut core = shared.core.lock().expect("core lock");
    let core = &mut *core;
    let Some((key, s)) = state.session(&mut core.sessions) else {
        return;
    };
    if reason == ExitReason::Abrupt && s.tail.is_some() {
        s.link = Link::Parked(Instant::now());
        shared.counters.sessions_parked.inc();
        if let Some(o) = eddie_obs::global() {
            o.journal()
                .record(JournalEvent::SessionParked { device: key.0 });
        }
    } else {
        core.sessions.remove(&key.0);
        let _ = core.fleet.remove_session(key);
    }
}

/// Drives the protocol state machine one frame forward, queueing reply
/// frames on `out`. A flush, the one thing that waits, is delegated
/// back to the reactor via [`Step`].
pub(crate) fn handle_frame(
    frame: Frame,
    out: &mut BufferedConn,
    state: &mut ConnState,
    shared: &Shared,
    config: &ServerConfig,
) -> Step {
    match frame {
        hello @ (Frame::Hello { .. } | Frame::HelloResumable { .. }) => {
            let resumable = matches!(hello, Frame::HelloResumable { .. });
            let (Frame::Hello {
                model_id,
                sample_rate,
            }
            | Frame::HelloResumable {
                model_id,
                sample_rate,
            }) = hello
            else {
                unreachable!("outer arm matched a hello variant")
            };
            if state.token.is_some() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            let Some(model) = shared.registry.get(&model_id) else {
                send_err(out, ErrCode::UnknownModel);
                return Step::End(ExitReason::Clean);
            };
            let session = match MonitorSession::new(model.clone(), sample_rate) {
                Ok(s) => s,
                Err(_) => {
                    send_err(out, ErrCode::BadHello);
                    return Step::End(ExitReason::Clean);
                }
            };
            let mut core = shared.core.lock().expect("core lock");
            let core = &mut *core;
            let token = core.draw_token();
            core.fleet.insert_session(DeviceId(token), session);
            core.sessions.insert(
                token,
                Session {
                    model_id,
                    link: Link::Attached(state.route),
                    expected_seq: 0,
                    tail: resumable.then(Tail::default),
                },
            );
            state.token = Some(token);
            if resumable {
                send(out, &Frame::Session { token, next_seq: 0 });
            }
            Step::Continue
        }
        Frame::Resume {
            token,
            have_windows,
        } => {
            if state.token.is_some() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            let mut core = shared.core.lock().expect("core lock");
            let core = &mut *core;
            // A plain `Hello` session's token is no resume capability.
            let Some(Session {
                link,
                expected_seq,
                tail: Some(tail),
                ..
            }) = core.sessions.get_mut(&token)
            else {
                core.answer_gone(Some(token), out);
                return Step::End(ExitReason::Clean);
            };
            if matches!(link, Link::Attached(_)) || have_windows > tail.windows_sent {
                // Another connection owns the session, or the
                // client claims events we never sent.
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Clean);
            }
            if have_windows < tail.base {
                // The replay window has already dropped events the
                // client is missing; a resume would leave a hole.
                send_err(out, ErrCode::ResumeGap);
                return Step::End(ExitReason::Clean);
            }
            // Attached before the replay: a later drain's events follow
            // the replayed ones in order.
            *link = Link::Attached(state.route);
            // The budget enforcer may have cold-parked the session
            // while the client was away; revive it now so the first
            // chunk after the resume is not taxed with the thaw. A
            // failure stays parked — push_chunk retries lazily and
            // answers Busy until the spill record is readable.
            let key = DeviceId(token);
            if core.fleet.is_parked(key) {
                let _ = core.fleet.thaw(key);
            }
            send(
                out,
                &Frame::Session {
                    token,
                    next_seq: *expected_seq,
                },
            );
            // Replay buffered events the client missed.
            let replay_from = (have_windows - tail.base) as usize;
            let mut replayed = 0u64;
            for f in tail.frames.iter().skip(replay_from) {
                send(out, f);
                replayed += 1;
            }
            state.token = Some(token);
            shared.counters.sessions_resumed.inc();
            shared.counters.events_replayed.add(replayed);
            if let Some(o) = eddie_obs::global() {
                o.journal().record(JournalEvent::SessionResumed {
                    device: token,
                    replayed,
                });
            }
            Step::Continue
        }
        Frame::Chunk { seq, samples } => {
            shared.counters.chunks_received.inc();
            if state.token.is_none() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            // Ingest lag: the core-lock wait plus the sequence check
            // and push.
            let _span =
                Timer::start(eddie_obs::enabled().then(|| shared.counters.ingest_lag_ns.as_ref()));
            let mut core = shared.core.lock().expect("core lock");
            let core = &mut *core;
            let Some((key, s)) = state.session(&mut core.sessions) else {
                // Gone, typically migrated: counted as busy so the
                // chunk ledger stays conserved. The connection stays
                // open so every pipelined chunk still in flight is read
                // (and answered) rather than lost to the close — the
                // client disconnects once it reads the first redirect.
                shared.counters.chunks_busy.inc();
                core.answer_gone(state.token, out);
                return Step::Continue;
            };
            if seq < s.expected_seq {
                // Duplicate of an accepted chunk: idempotent ack.
                shared.counters.duplicate_acks.inc();
                send(out, &Frame::Ack { seq });
            } else if seq > s.expected_seq {
                // A gap means an earlier chunk was refused; the
                // client must resend in order (go-back-N).
                shared.counters.chunks_busy.inc();
                send(out, &Frame::Busy { seq });
            } else if config.faults.as_ref().is_some_and(|f| f.busy_storm()) {
                // Injected busy storm: refuse a chunk the fleet
                // would have taken; go-back-N absorbs it.
                shared.counters.chunks_busy.inc();
                send(out, &Frame::Busy { seq });
            } else {
                match core.fleet.push_chunk(key, samples) {
                    PushResult::Accepted => {
                        s.expected_seq += 1;
                        shared.counters.chunks_accepted.inc();
                        send(out, &Frame::Ack { seq });
                    }
                    PushResult::Full => {
                        // Real fleet backpressure: refuse the chunk;
                        // the client resends from it (go-back-N).
                        shared.counters.chunks_busy.inc();
                        send(out, &Frame::Busy { seq });
                    }
                }
            }
            Step::Continue
        }
        Frame::Finish => {
            if state.token.is_none() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            let mut core = shared.core.lock().expect("core lock");
            if state.session(&mut core.sessions).is_none() {
                // A migrated session finishes on the server that owns
                // it now, not here.
                core.answer_gone(state.token, out);
                return Step::End(ExitReason::Clean);
            }
            // Flush, then tell the client the total window count
            // so it can verify it holds the complete stream.
            // Deliberately does not end the connection: Finish is
            // idempotent (a duplicated frame just reports the same
            // total again) and the client follows up with Close.
            Step::Flush(FlushThen::Finished)
        }
        Frame::Close => {
            if state.token.is_none() {
                return Step::End(ExitReason::Clean);
            }
            // Flush: complete after the pass's drain has consumed the
            // device's queue. A drain writes its events in the pass
            // that processes their chunks, so every event is then
            // already queued on this connection.
            Step::Flush(FlushThen::Close)
        }
        Frame::Stats => {
            // Allowed in any state, including before Hello, so an
            // operator can scrape a server without a session.
            send(
                out,
                &Frame::StatsReply {
                    text: clamp_stats_text(render_stats(shared)),
                },
            );
            Step::Continue
        }
        // Server-only frames from a client are protocol violations.
        Frame::Ack { .. }
        | Frame::Busy { .. }
        | Frame::Event { .. }
        | Frame::Err { .. }
        | Frame::StatsReply { .. }
        | Frame::Session { .. }
        | Frame::Finished { .. }
        | Frame::Moved { .. } => {
            send_err(out, ErrCode::ProtocolViolation);
            Step::End(ExitReason::Abrupt)
        }
    }
}

/// The `Stats` reply: this server's `eddie_serve_*` books, its fleet's
/// `eddie_stream_*` and its store's `eddie_store_*`, the process-wide
/// `eddie_net_*`, and then the installed observer's registry, if any.
fn render_stats(shared: &Shared) -> String {
    let mut text = shared.counters.registry.render_prometheus();
    {
        let core = shared.core.lock().expect("core lock");
        text.push_str(&core.fleet.render_metrics());
    }
    text.push_str(&NetMetrics::global().registry().render_prometheus());
    if let Some(o) = eddie_obs::global() {
        text.push_str(&o.registry().render_prometheus());
    }
    text
}

/// Bounds a Prometheus rendering to what fits in one wire frame,
/// truncating at a line boundary so the scrape stays parseable.
fn clamp_stats_text(text: String) -> String {
    const MAX_TEXT: usize = MAX_FRAME_LEN - 16;
    if text.len() <= MAX_TEXT {
        return text;
    }
    let cut = text[..MAX_TEXT].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let mut out = String::with_capacity(cut + 32);
    out.push_str(&text[..cut]);
    out.push_str("# truncated\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.get("missing").is_none());
        assert_eq!(registry.len(), 0);
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.idle_timeout.is_none());
        assert!(c.resume_tail > 0);
        assert_eq!(c.token_base, 1);
        assert!(c.faults.is_none());
        assert!(c.session_store.is_none());
    }

    #[test]
    fn config_builder_round_trips_and_validates() {
        let c = ServerConfig::builder()
            .with_idle_timeout(Duration::from_millis(200))
            .with_resume_linger(Duration::from_secs(2))
            .with_resume_tail(64)
            .with_session_store(
                StoreConfig::builder("/tmp/eddie-test-spill")
                    .resident_budget(16)
                    .build()
                    .expect("valid store config"),
            )
            .build()
            .expect("valid config");
        assert_eq!(c.resume_tail, 64);
        assert_eq!(c.idle_timeout, Some(Duration::from_millis(200)));
        assert_eq!(
            c.session_store.as_ref().map(|s| s.resident_budget),
            Some(16)
        );

        for (broken, what) in [
            (ServerConfig::builder().with_resume_tail(0), "tail"),
            (
                ServerConfig::builder().with_idle_timeout(Duration::ZERO),
                "idle",
            ),
            (ServerConfig::builder().with_token_base(0), "token"),
        ] {
            let err = broken.build().expect_err(what);
            assert_eq!(err.kind(), ErrorKind::InvalidConfig, "{what}");
        }
    }
}
