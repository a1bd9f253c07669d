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
//! `Full` result becomes an explicit [`Frame::Busy`] on the wire plus a
//! pause of the connection's read interest, which is how fleet
//! backpressure reaches the capture device.
//!
//! After each pass's frames are handled and their replies flushed, the
//! same thread drains the fleet ([`Fleet::drain`]: the devices with
//! queued chunks, sharded across the `eddie-exec` worker pool with the
//! serving thread taking a share) and writes each device's events into
//! its connection's outbound buffer; the route is the connection's slab
//! token. It also expires parked sessions and forwarding stubs and
//! writes the periodic snapshot. Slow clients never stall it: unsent
//! bytes wait in their connection's buffer.
//!
//! The fleet and its bookkeeping (event routes, model ids, resumable
//! sessions) live behind one mutex, which the serving thread shares only
//! with [`ServerHandle`] calls (stats, export, import). With one thread
//! producing frames, the two invariants that matter hold by
//! construction:
//!
//! 1. a drain writes its events in the pass that processes their
//!    chunks, so when a connection sees an empty queue for its device
//!    (during `Finish` or a graceful `Close`) every event for its
//!    accepted chunks is already queued ahead of the reply — none are
//!    lost;
//! 2. eviction (route removal + [`Fleet::remove_session`]) never
//!    interleaves with a drain, so an abrupt disconnect can never leak
//!    a session or route events to a dead connection.
//!
//! Per-device event order is the fleet's determinism contract, so the
//! event stream a client receives is byte-identical to the batch
//! pipeline for every `EDDIE_THREADS` value and any drain timing.
//!
//! # Snapshots
//!
//! With a snapshot path configured, the serving thread writes every
//! live session, cold-parked ones included, to one snapshot file
//! ([`crate::snapshot`]) every `snapshot_every`, when a client asks
//! with a `Snapshot` frame, and once more at shutdown.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eddie_chaos::{ServerFaults, SnapshotFate};
use eddie_core::{Error as CoreError, ErrorKind, TrainedModel};
use eddie_net::{BufferedConn, NetMetrics, Reactor, Token, Waker};
use eddie_obs::{Counter, Gauge, Histogram, JournalEvent, Registry, Timer};
use eddie_store::{SessionStore, StoreConfig};
use eddie_stream::{DeviceId, Fleet, FleetConfig, FleetStats, MonitorSession, PushResult};

use crate::snapshot::{self, PersistedSession};
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
    /// Where to persist periodic session snapshots; `None` disables
    /// persistence (client `Snapshot` frames then fail with
    /// [`ErrCode::SnapshotFailed`]).
    pub snapshot_path: Option<PathBuf>,
    /// How often the serving thread persists all live sessions (it
    /// writes the file itself, between drains).
    pub snapshot_every: Duration,
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
    /// First resume token this server issues. A cluster gives each
    /// shard a disjoint base (e.g. `(shard + 1) << 48`) so a token
    /// minted on one shard never collides with another's when a live
    /// migration carries it across. Must be nonzero — token `0` is the
    /// wire-level "no session" sentinel in [`Frame::Moved`].
    pub token_base: u64,
    /// Server-side failpoints (`Busy` storms, snapshot-write failures,
    /// slow drains) for chaos testing; `None` in production.
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
            snapshot_path: None,
            snapshot_every: Duration::from_secs(5),
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

    /// Enables periodic snapshot persistence to `path`.
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> ServerConfigBuilder {
        self.config.snapshot_path = Some(path.into());
        self
    }

    /// How often the serving thread persists all live sessions.
    pub fn with_snapshot_every(mut self, every: Duration) -> ServerConfigBuilder {
        self.config.snapshot_every = every;
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

    /// First resume token this server issues (cluster shards use
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
    /// snapshot interval or idle timeout is zero, the resume tail is
    /// empty or the token base is zero — values that would spin a loop,
    /// make every resume a gap or collide with the no-session token.
    pub fn build(self) -> Result<ServerConfig, CoreError> {
        let c = &self.config;
        let invalid =
            |msg: &str| CoreError::new(ErrorKind::InvalidConfig, "eddie-serve", msg.to_string());
        if c.snapshot_every.is_zero() {
            return Err(invalid("snapshot_every must be positive"));
        }
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

/// A live resumable session captured by [`ServerHandle::export_session`]
/// for restoration on another shard via
/// [`ServerHandle::import_session`] — the live-migration envelope. It
/// is handed over in-process; the model itself rides separately by
/// `model_id`, exactly as snapshots do.
#[derive(Debug, Clone)]
pub struct ExportedSession {
    /// The resume token the client holds; preserved across the
    /// migration so the client's `Resume` works unchanged on the
    /// destination shard.
    pub token: u64,
    /// Which hosted model the session monitors against.
    pub model_id: String,
    /// The session's complete runtime state.
    pub snapshot: eddie_stream::SessionSnapshot,
    /// Next chunk seq the server expects.
    pub expected_seq: u64,
    /// Total event frames produced for this device.
    pub windows_sent: u64,
    /// Window index of `tail[0]`.
    pub tail_base: u64,
    /// Replay tail: recently-produced events the client may not have
    /// received yet.
    pub tail: Vec<eddie_stream::StreamEvent>,
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
    snapshots_written: Arc<Counter>,
    snapshots_failed: Arc<Counter>,
    pub(crate) frames_decoded: Arc<Counter>,
    sessions_parked: Arc<Counter>,
    pub(crate) sessions_resumed: Arc<Counter>,
    pub(crate) events_replayed: Arc<Counter>,
    sessions_migrated_out: Arc<Counter>,
    sessions_migrated_in: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) backpressure_pauses: Arc<Counter>,
    pub(crate) open_connections: Arc<Gauge>,
    /// `eddie_serve_ingest_lag_ns`: a chunk's wait for the core lock
    /// plus its push. The serving thread runs the drain itself, so only
    /// a [`ServerHandle`] call (stats, export, import) can hold the lock
    /// then.
    pub(crate) ingest_lag_ns: Arc<Histogram>,
    pub(crate) next_conn_id: AtomicU64,
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
            snapshots_written: registry.counter("eddie_serve_snapshots_written_total"),
            snapshots_failed: registry.counter("eddie_serve_snapshots_failed_total"),
            frames_decoded: registry.counter("eddie_serve_frames_decoded_total"),
            sessions_parked: registry.counter("eddie_serve_sessions_parked_total"),
            sessions_resumed: registry.counter("eddie_serve_sessions_resumed_total"),
            events_replayed: registry.counter("eddie_serve_events_replayed_total"),
            sessions_migrated_out: registry.counter("eddie_serve_sessions_migrated_out_total"),
            sessions_migrated_in: registry.counter("eddie_serve_sessions_migrated_in_total"),
            idle_disconnects: registry.counter("eddie_serve_idle_disconnects_total"),
            backpressure_pauses: registry.counter("eddie_serve_backpressure_pauses_total"),
            open_connections: registry.gauge("eddie_serve_open_connections"),
            ingest_lag_ns: registry.histogram("eddie_serve_ingest_lag_ns"),
            next_conn_id: AtomicU64::new(0),
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
    /// Snapshot files written.
    pub snapshots_written: u64,
    /// Snapshot writes that failed (I/O errors or injected faults).
    pub snapshots_failed: u64,
    /// Resumable sessions parked after an abrupt disconnect.
    pub sessions_parked: u64,
    /// Parked sessions reclaimed by a reconnecting client.
    pub sessions_resumed: u64,
    /// Buffered event frames replayed to reattaching clients.
    pub events_replayed: u64,
    /// Live sessions exported to another shard.
    pub sessions_migrated_out: u64,
    /// Live sessions imported from another shard.
    pub sessions_migrated_in: u64,
    /// Connections dropped by the idle timeout.
    pub idle_disconnects: u64,
    /// Times a connection dropped read interest after a real `Full`
    /// refusal (backpressure as an interest-set flip).
    pub backpressure_pauses: u64,
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

/// The single-mutex heart of the server: the fleet plus the routing
/// table from device index to connection (its slab token), plus the
/// book of resumable sessions. A route to a connection torn down since
/// drops the frame, and the connection's exit bookkeeping evicts or
/// parks the session.
pub(crate) struct Core {
    pub(crate) fleet: Fleet,
    pub(crate) routes: HashMap<usize, Token>,
    model_ids: HashMap<usize, String>,
    /// Resumable sessions by token. Entries persist across the
    /// connections that carry them; the tail keeps filling while the
    /// session is parked.
    resumables: HashMap<u64, Resumable>,
    /// Device index → resume token, for the drain's tail append.
    device_tokens: HashMap<usize, u64>,
    /// Forwarding stubs for sessions migrated to another shard: any
    /// frame arriving for one of these tokens is answered with
    /// [`Frame::Moved`] naming the new owner. Pruned after each drain
    /// on the same linger schedule as parked sessions.
    moved_tokens: HashMap<u64, MovedStub>,
    next_token: u64,
}

/// Where a migrated-away session lives now, and since when (for
/// linger-based pruning).
struct MovedStub {
    addr: String,
    since: Instant,
}

/// The server-side half of a resumable session: where the chunk
/// cursor stands and which already-sent events can be replayed.
///
/// The token is a reconnection *capability*, not authentication — it
/// only lets a client continue the stream it started.
struct Resumable {
    device: DeviceId,
    /// Next chunk seq the server expects (mirrors the connection's
    /// cursor so a resumed connection picks up mid-stream).
    expected_seq: u64,
    /// Recently-produced event frames, for replay on reattach.
    tail: VecDeque<Frame>,
    /// Window index of `tail.front()`.
    tail_base: u64,
    /// Total event frames produced for this device (== next window).
    windows_sent: u64,
    /// Whether a live connection currently owns this session.
    attached: bool,
    /// When the session was parked (`None` while attached).
    parked_at: Option<Instant>,
    /// Set while [`ServerHandle::export_session`] is capturing this
    /// session: chunks are refused with `Busy` (go-back-N absorbs the
    /// stall) and resumes are deferred until the destination shard
    /// owns the session and the redirect stub is installed.
    migrating: bool,
}

/// Remote control for a running [`Server`]: request shutdown and read
/// load statistics from other threads.
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

    /// Tokens of the resumable sessions this server currently owns
    /// (exports in flight excluded), sorted — what a rebalance planner
    /// enumerates to decide who moves.
    pub fn resumable_tokens(&self) -> Vec<u64> {
        let core = self.shared.core.lock().expect("core lock");
        let mut tokens: Vec<u64> = core
            .resumables
            .iter()
            .filter(|(_, r)| !r.migrating)
            .map(|(t, _)| *t)
            .collect();
        tokens.sort_unstable();
        tokens
    }

    /// Captures a resumable session for live migration to another
    /// shard: freezes its ingest (further chunks get `Busy`, which the
    /// client's go-back-N absorbs), waits for the serving thread to
    /// drain what was already accepted, then snapshots the session and
    /// removes it from the fleet. A `migrating` tombstone keeps the
    /// token answerable until [`finish_export`](Self::finish_export)
    /// installs the redirect stub — call it once
    /// [`import_session`](Self::import_session) has succeeded on the
    /// destination, so a client is never redirected to a shard that
    /// does not own its session yet.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownToken`] when no resumable session carries
    /// `token` (or it expired while the export drained);
    /// [`ErrorKind::ProtocolViolation`] when an export of the same
    /// session is already in flight.
    pub fn export_session(&self, token: u64) -> Result<ExportedSession, CoreError> {
        let unknown =
            |msg: &str| CoreError::new(ErrorKind::UnknownToken, "eddie-serve", msg.to_string());
        // Phase 1: freeze ingest and unroute. Events drained from here
        // on land only in the replay tail, which travels with the
        // export; the client finds out via the redirect, not a
        // dangling route.
        let dev = {
            let mut core = self.shared.core.lock().expect("core lock");
            let core = &mut *core;
            let Some(r) = core.resumables.get_mut(&token) else {
                return Err(unknown("no resumable session for that token"));
            };
            if r.migrating {
                return Err(CoreError::new(
                    ErrorKind::ProtocolViolation,
                    "eddie-serve",
                    "an export of this session is already in flight".to_string(),
                ));
            }
            r.migrating = true;
            let dev = r.device;
            core.routes.remove(&dev.index());
            dev
        };
        // Phase 2: wait for the serving thread to drain every chunk that
        // was accepted before the freeze, so the snapshot covers them.
        loop {
            let pending = {
                let core = self.shared.core.lock().expect("core lock");
                if core.fleet.contains(dev) {
                    core.fleet.pending_chunks(dev)
                } else {
                    0
                }
            };
            if pending == 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Phase 3: capture and tombstone.
        let mut core = self.shared.core.lock().expect("core lock");
        let core = &mut *core;
        let Some(r) = core.resumables.get_mut(&token) else {
            return Err(unknown("session expired while the export drained"));
        };
        let Some(session) = core.fleet.remove_session(dev) else {
            return Err(unknown("session evicted while the export drained"));
        };
        let exported = ExportedSession {
            token,
            model_id: core.model_ids.remove(&dev.index()).unwrap_or_default(),
            snapshot: session.snapshot(),
            expected_seq: r.expected_seq,
            windows_sent: r.windows_sent,
            tail_base: r.tail_base,
            tail: r.tail.iter().filter_map(Frame::to_stream_event).collect(),
        };
        core.device_tokens.remove(&dev.index());
        // The migrating tombstone stays in `resumables` so a client
        // that reconnects before `finish_export` is told to retry
        // rather than refused with `UnknownToken`.
        r.attached = false;
        r.parked_at = Some(Instant::now());
        self.shared.counters.sessions_migrated_out.inc();
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionMigratedOut {
                device: dev.index() as u64,
            });
        }
        Ok(exported)
    }

    /// Completes a migration begun by
    /// [`export_session`](Self::export_session): drops the migrating
    /// tombstone and installs the forwarding stub, after which every
    /// frame arriving for `token` — from the still-attached connection
    /// or a later resume — is answered with [`Frame::Moved`] naming
    /// `new_addr`. The stub ages out on the resume-linger schedule.
    pub fn finish_export(&self, token: u64, new_addr: &str) {
        let mut core = self.shared.core.lock().expect("core lock");
        core.resumables.remove(&token);
        core.moved_tokens.insert(
            token,
            MovedStub {
                addr: new_addr.to_string(),
                since: Instant::now(),
            },
        );
    }

    /// Restores a session exported from another shard, keeping its
    /// token (shards use disjoint [`ServerConfig::token_base`]
    /// namespaces, so imports never collide with locally-minted
    /// tokens). The session lands parked; the client's `Resume`
    /// reattaches it exactly as after a disconnect.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownModel`] when this shard does not host the
    /// session's model; [`ErrorKind::ProtocolViolation`] when a *live*
    /// session with the same token already lives here (re-importing
    /// over this shard's own migrating tombstone is allowed — that is
    /// the rollback path when the destination refused the import);
    /// restore errors (e.g. [`ErrorKind::CorruptSnapshot`]) pass
    /// through.
    pub fn import_session(&self, exported: ExportedSession) -> Result<(), CoreError> {
        let Some(model) = self.shared.registry.get(&exported.model_id) else {
            return Err(CoreError::new(
                ErrorKind::UnknownModel,
                "eddie-serve",
                format!("shard does not host model {:?}", exported.model_id),
            ));
        };
        let session = MonitorSession::restore(model.clone(), exported.snapshot)?;
        let mut core = self.shared.core.lock().expect("core lock");
        let core = &mut *core;
        if core
            .resumables
            .get(&exported.token)
            .is_some_and(|r| !r.migrating)
        {
            return Err(CoreError::new(
                ErrorKind::ProtocolViolation,
                "eddie-serve",
                format!("token {} already lives on this shard", exported.token),
            ));
        }
        let dev = core.fleet.add_session(session);
        core.model_ids.insert(dev.index(), exported.model_id);
        core.device_tokens.insert(dev.index(), exported.token);
        core.moved_tokens.remove(&exported.token);
        core.resumables.insert(
            exported.token,
            Resumable {
                device: dev,
                expected_seq: exported.expected_seq,
                tail: exported.tail.iter().map(Frame::from_stream_event).collect(),
                tail_base: exported.tail_base,
                windows_sent: exported.windows_sent,
                attached: false,
                parked_at: Some(Instant::now()),
                migrating: false,
            },
        );
        self.shared.counters.sessions_migrated_in.inc();
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionMigratedIn {
                device: dev.index() as u64,
            });
        }
        Ok(())
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
                    routes: HashMap::new(),
                    model_ids: HashMap::new(),
                    resumables: HashMap::new(),
                    device_tokens: HashMap::new(),
                    moved_tokens: HashMap::new(),
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
    /// it accepts and drives every connection, drains the fleet,
    /// persists periodic snapshots, and on shutdown closes every
    /// connection and drains what is still queued before returning the
    /// final report.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            reactor,
            shared,
            config,
            ..
        } = self;

        crate::reactor::run_reactor(reactor, listener, &shared, &config)?;

        // Final snapshot generation (normally empty after clean
        // eviction, but crash-recovery readers expect the file).
        if config.snapshot_path.is_some() {
            persist_now(&shared, &config);
        }

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
        snapshots_written: c.snapshots_written.value(),
        snapshots_failed: c.snapshots_failed.value(),
        sessions_parked: c.sessions_parked.value(),
        sessions_resumed: c.sessions_resumed.value(),
        events_replayed: c.events_replayed.value(),
        sessions_migrated_out: c.sessions_migrated_out.value(),
        sessions_migrated_in: c.sessions_migrated_in.value(),
        idle_disconnects: c.idle_disconnects.value(),
        backpressure_pauses: c.backpressure_pauses.value(),
        final_stats,
    }
}

/// One drain on the serving thread: processes every queued chunk
/// (sharded across the worker pool), appends each resumable device's
/// events to its replay tail and hands them to `deliver` with the
/// device's route, expires parked sessions and forwarding stubs whose
/// linger ran out, and writes the periodic snapshot once
/// `snapshot_every` has passed since `last_snapshot`. The slow-drain
/// failpoint stalls the serving thread after a drain that processed
/// chunks.
pub(crate) fn serve_fleet(
    shared: &Shared,
    config: &ServerConfig,
    last_snapshot: &mut Instant,
    mut deliver: impl FnMut(Token, &Frame),
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
        for (dev, evs) in &drained {
            let idx = dev.index();
            // Resumable bookkeeping first, route second: the tail keeps
            // filling even while the session is parked (no route),
            // which is what makes replay on reattach possible at all.
            if let Some(r) = core
                .device_tokens
                .get(&idx)
                .and_then(|t| core.resumables.get_mut(t))
            {
                for ev in evs {
                    r.tail.push_back(Frame::from_stream_event(ev));
                    r.windows_sent += 1;
                    while r.tail.len() > config.resume_tail {
                        r.tail.pop_front();
                        r.tail_base += 1;
                    }
                }
            }
            if let Some(&route) = core.routes.get(&idx) {
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
        let (fleet, model_ids, device_tokens) = (
            &mut core.fleet,
            &mut core.model_ids,
            &mut core.device_tokens,
        );
        core.resumables.retain(|token, r| {
            let expired = !r.attached
                && r.parked_at
                    .is_some_and(|t| now.duration_since(t) >= config.resume_linger);
            if expired {
                // Only tear down fleet/bookkeeping this token still
                // owns: after a migration the device index may have
                // been re-admitted to a different session.
                let idx = r.device.index();
                if device_tokens.get(&idx) == Some(token) {
                    device_tokens.remove(&idx);
                    model_ids.remove(&idx);
                    if fleet.contains(r.device) {
                        let _ = fleet.remove_session(r.device);
                    }
                }
            }
            !expired
        });
        // Forwarding stubs age out on the same linger schedule; a
        // straggler asking afterwards gets `UnknownToken`, exactly as an
        // expired parked session would.
        core.moved_tokens
            .retain(|_, stub| now.duration_since(stub.since) < config.resume_linger);
        drained
    };
    if config.snapshot_path.is_some() && last_snapshot.elapsed() >= config.snapshot_every {
        persist_now(shared, config);
        *last_snapshot = Instant::now();
    }
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

/// Collects all live sessions' snapshots (briefly holding the core
/// lock) and writes them outside the lock. Iterates the sessions
/// directly — no per-device stats rows are allocated under the lock.
fn persist_now(shared: &Shared, config: &ServerConfig) {
    let Some(path) = config.snapshot_path.as_ref() else {
        return;
    };
    let sessions: Vec<PersistedSession> = {
        let mut core = shared.core.lock().expect("core lock");
        collect_persisted(&mut core)
    };
    write_snapshot_with_faults(path, &sessions, shared, config);
}

/// Collects every live session's snapshot, cold-parked ones included
/// (their spill payloads are parsed in place, without thawing).
fn collect_persisted(core: &mut Core) -> Vec<PersistedSession> {
    let devices = core.fleet.live_devices();
    let mut out = Vec::with_capacity(devices.len());
    for dev in devices {
        let model_id = core
            .model_ids
            .get(&dev.index())
            .cloned()
            .unwrap_or_default();
        // A parked session whose spill record cannot be read is
        // skipped rather than failing the whole generation; its store
        // ledger already counts the read failure.
        if let Ok(snapshot) = core.fleet.snapshot_session(dev) {
            out.push(PersistedSession {
                device: dev.index(),
                model_id,
                snapshot,
            });
        }
    }
    out
}

/// Writes a snapshot generation, first consulting the configured
/// failpoints. Returns whether a new generation landed on disk.
///
/// On an injected [`SnapshotFate::Truncate`] this mimics a crash mid
/// write: roughly half the file image is left in the sibling temp file and
/// the rename never happens — the previous good generation must
/// survive, which the chaos tests verify via
/// [`load_snapshot`](crate::load_snapshot).
fn write_snapshot_with_faults(
    path: &Path,
    sessions: &[PersistedSession],
    shared: &Shared,
    config: &ServerConfig,
) -> bool {
    let fate = config
        .faults
        .as_ref()
        .map_or(SnapshotFate::Write, |f| f.snapshot_fate());
    let ok = match fate {
        SnapshotFate::Fail => false,
        SnapshotFate::Truncate => {
            let bytes = snapshot::image(sessions);
            let _ = std::fs::write(path.with_extension("tmp"), &bytes[..bytes.len() / 2]);
            false
        }
        // `Write`, and any fate added later (`SnapshotFate` is
        // #[non_exhaustive]), writes.
        _ => snapshot::persist_sessions(path, sessions).is_ok(),
    };
    if ok {
        shared.counters.snapshots_written.inc();
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SnapshotPersisted {
                sessions: sessions.len() as u64,
            });
        }
    } else {
        shared.counters.snapshots_failed.inc();
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SnapshotWriteFailed {
                sessions: sessions.len() as u64,
            });
        }
    }
    ok
}

/// Per-connection protocol state.
pub(crate) struct ConnState {
    /// The connection's slab token: the route its device's events
    /// take.
    pub(crate) route: Token,
    pub(crate) device: Option<DeviceId>,
    /// Resume token when the session was opened with
    /// `HelloResumable` or reclaimed with `Resume`.
    pub(crate) token: Option<u64>,
    pub(crate) expected_seq: u64,
}

impl ConnState {
    /// A fresh connection on slab slot `route`: no session yet.
    pub(crate) fn new(route: Token) -> ConnState {
        ConnState {
            route,
            device: None,
            token: None,
            expected_seq: 0,
        }
    }
}

/// How a connection ended — decides eviction vs parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitReason {
    /// The client said goodbye (`Close`) or never had a session;
    /// evict.
    Clean,
    /// EOF, transport error, malformed frame, idle timeout, or a
    /// protocol error the client may recover from by reconnecting: a
    /// resumable session is parked, anything else is evicted.
    Abrupt,
    /// Server shutdown; evict.
    Shutdown,
}

/// What to run once a [`Step::Flush`] completes (the device's queue
/// has fully drained and every event is queued on the connection).
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
/// `Flushing` connection mode and `BackpressurePause` to dropping
/// readable interest until the device's queue has room.
pub(crate) enum Step {
    /// Keep reading frames.
    Continue,
    /// Keep the connection, but the fleet refused a chunk with a real
    /// `Full` (not an injected storm): stop reading until the device's
    /// queue has room again, converting go-back-N retry storms into
    /// TCP backpressure.
    BackpressurePause,
    /// Wait until the device's pending chunks hit zero, then apply
    /// [`after_flush`].
    Flush(FlushThen),
    /// The connection is over; run exit bookkeeping with this reason.
    End(ExitReason),
}

/// Completes a [`Step::Flush`]: the queue is empty, so every event for
/// accepted chunks is already queued on the connection (a drain writes
/// its events in the pass that processes their chunks).
pub(crate) fn after_flush(
    then: FlushThen,
    dev: DeviceId,
    out: &mut BufferedConn,
    shared: &Shared,
) -> Step {
    match then {
        FlushThen::Finished => {
            let windows = {
                let core = shared.core.lock().expect("core lock");
                // Parked-aware: a cold-parked session reports its
                // progress from resident metadata, no thaw needed.
                core.fleet.windows_observed(dev).map_or(0, |n| n as u64)
            };
            send(out, &Frame::Finished { windows });
            Step::Continue
        }
        FlushThen::Close => Step::End(ExitReason::Clean),
    }
}

/// Exit bookkeeping, atomic with routing so no events go to a dead
/// connection: an abrupt exit *parks* a resumable session (it stays
/// in the fleet, its tail keeps filling, and a `Resume` can reclaim
/// it until the linger expires); everything else evicts.
pub(crate) fn finish_connection(state: &ConnState, reason: ExitReason, shared: &Shared) {
    let Some(dev) = state.device else {
        return;
    };
    let park = reason == ExitReason::Abrupt && state.token.is_some();
    let mut core = shared.core.lock().expect("core lock");
    let core = &mut *core;
    // The connection only owns its slot while the device-token
    // bookkeeping still agrees with it: after a live migration the
    // export has already torn the session down, and the device
    // index may since have been re-admitted to a different
    // session whose route and token must not be touched here.
    let owns = core.device_tokens.get(&dev.index()).copied() == state.token;
    // An export in flight owns the teardown: parking or evicting
    // underneath it would destroy the session mid-capture.
    let migrating = state
        .token
        .and_then(|t| core.resumables.get(&t))
        .is_some_and(|r| r.migrating);
    if owns && !migrating {
        core.routes.remove(&dev.index());
        if park {
            if let Some(r) = state.token.and_then(|t| core.resumables.get_mut(&t)) {
                r.attached = false;
                r.parked_at = Some(Instant::now());
            }
            shared.counters.sessions_parked.inc();
            if let Some(o) = eddie_obs::global() {
                o.journal().record(JournalEvent::SessionParked {
                    device: dev.index() as u64,
                });
            }
        } else {
            core.model_ids.remove(&dev.index());
            if let Some(token) = core.device_tokens.remove(&dev.index()) {
                core.resumables.remove(&token);
            }
            if core.fleet.contains(dev) {
                let _ = core.fleet.remove_session(dev);
            }
        }
    }
}

/// Drives the protocol state machine one frame forward, queueing reply
/// frames on `out`. Everything that would wait (flushes, backpressure)
/// is delegated back to the reactor via [`Step`].
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
            if state.device.is_some() {
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
            let dev = core.fleet.add_session(session);
            core.routes.insert(dev.index(), state.route);
            core.model_ids.insert(dev.index(), model_id);
            state.device = Some(dev);
            if resumable {
                let token = core.next_token;
                core.next_token += 1;
                core.device_tokens.insert(dev.index(), token);
                core.resumables.insert(
                    token,
                    Resumable {
                        device: dev,
                        expected_seq: 0,
                        tail: VecDeque::new(),
                        tail_base: 0,
                        windows_sent: 0,
                        attached: true,
                        parked_at: None,
                        migrating: false,
                    },
                );
                state.token = Some(token);
                send(out, &Frame::Session { token, next_seq: 0 });
            }
            Step::Continue
        }
        Frame::Resume {
            token,
            have_windows,
        } => {
            if state.device.is_some() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            let mut core = shared.core.lock().expect("core lock");
            let core = &mut *core;
            if let Some(stub) = core.moved_tokens.get(&token) {
                // The session lives on another shard now; point the
                // client there with its token intact.
                send(
                    out,
                    &Frame::Moved {
                        shard_addr: stub.addr.clone(),
                        token,
                    },
                );
                return Step::End(ExitReason::Clean);
            }
            let Some(r) = core.resumables.get_mut(&token) else {
                send_err(out, ErrCode::UnknownToken);
                return Step::End(ExitReason::Clean);
            };
            if r.migrating {
                // Mid-export: the destination does not own the
                // session yet. A recoverable error makes the client
                // back off and retry, by which time the redirect
                // stub is installed.
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Clean);
            }
            if r.attached || have_windows > r.windows_sent {
                // Another connection owns the session, or the
                // client claims events we never sent.
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Clean);
            }
            if have_windows < r.tail_base {
                // The replay window has already dropped events the
                // client is missing; a resume would leave a hole.
                send_err(out, ErrCode::ResumeGap);
                return Step::End(ExitReason::Clean);
            }
            r.attached = true;
            r.parked_at = None;
            let dev = r.device;
            let next_seq = r.expected_seq;
            // The budget enforcer may have cold-parked the session
            // while the client was away; revive it now so the first
            // chunk after the resume is not taxed with the thaw. A
            // failure stays parked — push_chunk retries lazily and
            // answers Busy until the spill record is readable.
            if core.fleet.is_parked(dev) {
                let _ = core.fleet.thaw(dev);
            }
            send(out, &Frame::Session { token, next_seq });
            // Replay buffered events the client missed. The route is
            // installed after the replay, so a later drain's events
            // follow it in order.
            let replay_from = (have_windows - r.tail_base) as usize;
            let mut replayed = 0u64;
            for f in r.tail.iter().skip(replay_from) {
                send(out, f);
                replayed += 1;
            }
            core.routes.insert(dev.index(), state.route);
            state.device = Some(dev);
            state.token = Some(token);
            state.expected_seq = next_seq;
            shared.counters.sessions_resumed.inc();
            shared.counters.events_replayed.add(replayed);
            if let Some(o) = eddie_obs::global() {
                o.journal().record(JournalEvent::SessionResumed {
                    device: dev.index() as u64,
                    replayed,
                });
            }
            Step::Continue
        }
        Frame::Chunk { seq, samples } => {
            shared.counters.chunks_received.inc();
            let Some(dev) = state.device else {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            };
            if seq < state.expected_seq {
                // Duplicate of an accepted chunk: idempotent ack.
                shared.counters.duplicate_acks.inc();
                send(out, &Frame::Ack { seq });
            } else if seq > state.expected_seq {
                // A gap means an earlier chunk was refused; the
                // client must resend in order (go-back-N).
                shared.counters.chunks_busy.inc();
                send(out, &Frame::Busy { seq });
            } else if config.faults.as_ref().is_some_and(|f| f.busy_storm()) {
                // Injected busy storm: refuse a chunk the fleet
                // would have taken; go-back-N absorbs it. Not real
                // fleet pressure, so no backpressure pause: the
                // storm must not freeze the connection's reads.
                shared.counters.chunks_busy.inc();
                send(out, &Frame::Busy { seq });
            } else {
                // A session being exported (or already migrated)
                // must not accept chunks the destination shard will
                // never see; the gate below refuses or redirects
                // them instead of pushing.
                enum Ingest {
                    Push(PushResult),
                    Frozen,
                    Moved(String),
                }
                let outcome = {
                    // Ingest lag: the core-lock wait plus the push.
                    let _span = Timer::start(
                        eddie_obs::enabled().then(|| shared.counters.ingest_lag_ns.as_ref()),
                    );
                    let mut core = shared.core.lock().expect("core lock");
                    let core = &mut *core;
                    match state.token {
                        Some(t) if core.moved_tokens.contains_key(&t) => {
                            Ingest::Moved(core.moved_tokens[&t].addr.clone())
                        }
                        Some(t) if core.resumables.get(&t).is_none_or(|r| r.migrating) => {
                            Ingest::Frozen
                        }
                        _ => {
                            let result = core.fleet.push_chunk(dev, samples);
                            if matches!(result, PushResult::Accepted) {
                                // Keep the resumable cursor in sync
                                // under the same lock, so a resume
                                // always sees the post-push position.
                                if let Some(r) =
                                    state.token.and_then(|t| core.resumables.get_mut(&t))
                                {
                                    r.expected_seq = state.expected_seq + 1;
                                }
                            }
                            Ingest::Push(result)
                        }
                    }
                };
                match outcome {
                    Ingest::Push(PushResult::Accepted) => {
                        shared.counters.chunks_accepted.inc();
                        send(out, &Frame::Ack { seq });
                        state.expected_seq += 1;
                    }
                    Ingest::Push(PushResult::Full) => {
                        // Real fleet backpressure: refuse the chunk
                        // and ask the reactor to stop reading until
                        // the queue has room.
                        shared.counters.chunks_busy.inc();
                        send(out, &Frame::Busy { seq });
                        return Step::BackpressurePause;
                    }
                    Ingest::Frozen => {
                        shared.counters.chunks_busy.inc();
                        send(out, &Frame::Busy { seq });
                    }
                    Ingest::Moved(addr) => {
                        // Counted as busy so the chunk ledger stays
                        // conserved; the connection stays open so
                        // every pipelined chunk still in flight is
                        // read (and answered) rather than lost to
                        // the close — the client disconnects once
                        // it reads the first redirect.
                        shared.counters.chunks_busy.inc();
                        send(
                            out,
                            &Frame::Moved {
                                shard_addr: addr,
                                token: state.token.unwrap_or(0),
                            },
                        );
                    }
                }
            }
            Step::Continue
        }
        Frame::Snapshot => {
            let Some(dev) = state.device else {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            };
            let persisted =
                config.snapshot_path.is_some() && { persist_device(dev, shared, config) };
            let reply = if persisted {
                // Ack carries the count of accepted chunks: the
                // stream position the snapshot covers at most.
                Frame::Ack {
                    seq: state.expected_seq,
                }
            } else {
                Frame::Err {
                    code: ErrCode::SnapshotFailed,
                }
            };
            send(out, &reply);
            Step::Continue
        }
        Frame::Finish => {
            if state.device.is_none() {
                send_err(out, ErrCode::ProtocolViolation);
                return Step::End(ExitReason::Abrupt);
            }
            // A migrated (or mid-export) session finishes on the
            // shard that owns it now, not here.
            {
                let core = shared.core.lock().expect("core lock");
                if let Some(t) = state.token {
                    if let Some(stub) = core.moved_tokens.get(&t) {
                        send(
                            out,
                            &Frame::Moved {
                                shard_addr: stub.addr.clone(),
                                token: t,
                            },
                        );
                        return Step::End(ExitReason::Clean);
                    }
                    if core.resumables.get(&t).is_none_or(|r| r.migrating) {
                        send_err(out, ErrCode::ProtocolViolation);
                        return Step::End(ExitReason::Clean);
                    }
                }
            }
            // Flush, then tell the client the total window count
            // so it can verify it holds the complete stream.
            // Deliberately does not end the connection: Finish is
            // idempotent (a duplicated frame just reports the same
            // total again) and the client follows up with Close.
            Step::Flush(FlushThen::Finished)
        }
        Frame::Close => {
            if state.device.is_none() {
                return Step::End(ExitReason::Clean);
            }
            // Flush: wait until a drain has consumed the device's
            // queue. A drain writes its events in the pass that
            // processes their chunks, so an empty queue means every
            // event is already queued on this connection.
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

/// Writes one device's current snapshot into the snapshot file,
/// merging with the other live sessions. Iterates sessions directly —
/// no per-device stats rows are allocated under the core lock.
fn persist_device(dev: DeviceId, shared: &Shared, config: &ServerConfig) -> bool {
    let Some(path) = config.snapshot_path.as_ref() else {
        return false;
    };
    let sessions: Vec<PersistedSession> = {
        let mut core = shared.core.lock().expect("core lock");
        if !core.fleet.contains(dev) {
            return false;
        }
        collect_persisted(&mut core)
    };
    write_snapshot_with_faults(path, &sessions, shared, config)
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
    use crate::snapshot::tests::{persisted, tiny_model};
    use crate::snapshot::{load_snapshot, persist_sessions};

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
        assert!(c.snapshot_path.is_none());
        assert!(c.idle_timeout.is_none());
        assert!(c.resume_tail > 0);
        assert_eq!(c.token_base, 1);
        assert!(c.faults.is_none());
        assert!(c.session_store.is_none());
    }

    #[test]
    fn config_builder_round_trips_and_validates() {
        let c = ServerConfig::builder()
            .with_snapshot_path("/tmp/eddie-test-sessions.snap")
            .with_snapshot_every(Duration::from_millis(50))
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
            (
                ServerConfig::builder().with_snapshot_every(Duration::ZERO),
                "snapshot",
            ),
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

    /// The crash-safety contract of `persist_sessions`: a temp
    /// file truncated mid-write (as an injected `SnapshotFate::Truncate`
    /// leaves behind) must never clobber the previous good generation,
    /// and the next successful write must replace it cleanly.
    #[test]
    fn truncated_tmp_never_clobbers_previous_snapshot() {
        let dir = std::env::temp_dir().join(format!("eddie-snapcrash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("sessions.snap");

        let gen_a = persisted(&[3]);
        persist_sessions(&path, &gen_a).expect("write generation A");

        // Simulate a crash mid-write of the next generation: half the
        // file image lands in the sibling temp file, the rename never
        // runs.
        let gen_b = persisted(&[3, 5]);
        let image = snapshot::image(&gen_b);
        std::fs::write(path.with_extension("tmp"), &image[..image.len() / 2])
            .expect("write truncated tmp");

        let loaded = load_snapshot(&path).expect("previous generation intact");
        assert_eq!(
            loaded.sessions, gen_a,
            "truncated tmp must not replace the snapshot"
        );

        // A later successful write replaces it cleanly, stale tmp and all.
        persist_sessions(&path, &gen_b).expect("write generation B");
        assert_eq!(load_snapshot(&path).expect("load B").sessions, gen_b);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The snapshot file must round-trip a live session's state
    /// byte-for-byte through `persist_sessions`.
    #[test]
    fn spill_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("eddie-spillsnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("sessions.snap");

        let mut session = eddie_stream::MonitorSession::new(tiny_model(), 1000.0).unwrap();
        let _ = session.push(&vec![0.25; 600]);
        let snapshot = session.snapshot();
        let sessions = vec![PersistedSession {
            device: 3,
            model_id: "bitcount".to_string(),
            snapshot: snapshot.clone(),
        }];

        persist_sessions(&path, &sessions).expect("write snapshot");
        let loaded = load_snapshot(&path).expect("load snapshot");
        assert_eq!(loaded.sessions.len(), 1);
        assert_eq!(loaded.sessions[0].device, 3);
        assert_eq!(loaded.sessions[0].model_id, "bitcount");
        assert_eq!(
            loaded.sessions[0].snapshot.to_bytes(),
            snapshot.to_bytes(),
            "snapshot round trip must be byte-identical"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The wire carries any f32 bit pattern, so a device can stream
    /// NaN. Its session must persist and load like the rest — one such
    /// device must not make the whole snapshot file unloadable.
    #[test]
    fn nan_fed_session_survives_snapshot_file() {
        let dir = std::env::temp_dir().join(format!("eddie-nansnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("sessions.snap");

        let mut sessions = persisted(&[1, 4]);
        let mut session = eddie_stream::MonitorSession::new(tiny_model(), 1000.0).unwrap();
        let mut samples = vec![0.25f32; 600];
        samples[7] = f32::NAN;
        samples[599] = f32::NAN;
        let _ = session.push(&samples);
        sessions.insert(
            1,
            PersistedSession {
                device: 2,
                model_id: "bitcount".to_string(),
                snapshot: session.snapshot(),
            },
        );

        persist_sessions(&path, &sessions).expect("write snapshot");
        let loaded = load_snapshot(&path).expect("a NaN-fed session must not poison the file");
        assert_eq!(loaded.sessions.len(), sessions.len());
        for (got, want) in loaded.sessions.iter().zip(&sessions) {
            assert_eq!(got.device, want.device);
            assert_eq!(got.snapshot.to_bytes(), want.snapshot.to_bytes());
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
