//! The cluster front door: a TCP listener speaking the `eddie-serve`
//! wire protocol that owns **no sessions** — it only answers
//! placement questions with [`Frame::Moved`] redirects.
//!
//! A capture device connects here first. `Hello`/`HelloResumable` is
//! answered with `Moved { shard_addr, token: 0 }` — "start fresh over
//! there" — where the shard is picked off the consistent-hash ring. A
//! `Resume` is answered with `Moved { shard_addr, token }` naming the
//! shard currently holding that session (migrations keep the router's
//! forwarding table current). `Stats` returns a cluster-level
//! Prometheus-text scrape, so `eddie-experiments stats` pointed at a
//! router works exactly as against a single server. Everything else is
//! refused: there is no session here to feed chunks to.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use eddie_serve::{read_frame, write_frame, ErrCode, Frame, ServerHandle};

use crate::ring::{HashRing, Membership};

/// How many high bits of a resume token encode the minting shard.
/// Shard `i` gets [`token_base`](eddie_serve::ServerConfig::token_base)
/// `(i + 1) << TOKEN_SHARD_SHIFT`, leaving 48 bits of per-shard token
/// space — disjoint namespaces, so the router can recover the minting
/// shard of any token it has never seen a migration for.
pub const TOKEN_SHARD_SHIFT: u32 = 48;

/// The `token_base` shard `index` must run with for
/// [`minting_shard`] to invert it.
pub fn shard_token_base(index: usize) -> u64 {
    ((index as u64) + 1) << TOKEN_SHARD_SHIFT
}

/// The shard index that minted `token`, from its namespace bits —
/// `None` for tokens outside any shard namespace (e.g. 0).
pub fn minting_shard(token: u64, shards: usize) -> Option<usize> {
    let idx = (token >> TOKEN_SHARD_SHIFT).checked_sub(1)? as usize;
    (idx < shards).then_some(idx)
}

/// One shard as the router sees it: a name (its ring identity), the
/// address clients are redirected to, and — for in-process shards — a
/// handle for live stats.
#[derive(Clone)]
pub struct ShardLink {
    /// Ring member name (decides point positions, so renaming a shard
    /// moves its keys).
    pub name: String,
    /// `host:port` put into `Moved` frames. When the shard sits behind
    /// a chaos proxy this is the proxy's address, not the bind
    /// address.
    pub advertised_addr: String,
    /// Live handle when the shard runs in this process; `None` keeps
    /// the router honest about remote shards (stats rows show only
    /// what it can actually observe).
    pub handle: Option<ServerHandle>,
}

struct RouterState {
    shards: Vec<ShardLink>,
    ring: HashRing,
    generation: u64,
    /// Sessions whose owner differs from placement history — updated
    /// on every migration.
    token_owner: HashMap<u64, usize>,
    /// Fresh admissions handed out so far; hashing this counter onto
    /// the ring spreads new sessions deterministically in arrival
    /// order.
    admissions: u64,
    migrations_in: Vec<u64>,
    migrations_out: Vec<u64>,
}

struct RouterShared {
    state: Mutex<RouterState>,
    connections: AtomicU64,
    redirects: AtomicU64,
    shutdown: AtomicBool,
}

/// Clonable handle to a running [`Router`]: membership updates,
/// forwarding-table maintenance, stats, shutdown.
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
}

impl RouterHandle {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown; [`Router::run`] returns after its poll
    /// interval elapses.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Replaces the ring (same member list, new placement — e.g. after
    /// a reseed) and bumps the ring generation.
    pub fn set_ring(&self, membership: &Membership) {
        let mut st = self.shared.state.lock().expect("router state");
        st.ring = HashRing::build(membership);
        st.generation += 1;
    }

    /// Records that `token`'s session now lives on shard `owner`:
    /// future `Resume`s for it are redirected there.
    pub fn set_token_owner(&self, token: u64, owner: usize) {
        let mut st = self.shared.state.lock().expect("router state");
        let shards = st.shards.len();
        if owner < shards {
            st.token_owner.insert(token, owner);
        }
    }

    /// Counts one completed migration `from → to` in the per-shard
    /// stats rows.
    pub fn note_migration(&self, from: usize, to: usize) {
        let mut st = self.shared.state.lock().expect("router state");
        if let Some(c) = st.migrations_out.get_mut(from) {
            *c += 1;
        }
        if let Some(c) = st.migrations_in.get_mut(to) {
            *c += 1;
        }
    }

    /// Redirects answered so far.
    pub fn redirects(&self) -> u64 {
        self.shared.redirects.load(Ordering::SeqCst)
    }

    /// The current ring generation (starts at 1, bumped by
    /// [`set_ring`](Self::set_ring)).
    pub fn ring_generation(&self) -> u64 {
        self.shared.state.lock().expect("router state").generation
    }

    /// The cluster-level Prometheus-text scrape `Stats` is answered
    /// with: ring shape, router traffic, and one row per shard
    /// (sessions owned, migrations in/out) for shards the router holds
    /// a live handle to.
    pub fn stats_text(&self) -> String {
        render_stats(&self.shared)
    }
}

fn render_stats(shared: &RouterShared) -> String {
    use std::fmt::Write as _;
    let st = shared.state.lock().expect("router state");
    let mut s = String::with_capacity(512);
    s.push_str("# eddie-cluster router\n");
    let _ = writeln!(s, "eddie_cluster_members {}", st.shards.len());
    let _ = writeln!(s, "eddie_cluster_ring_generation {}", st.generation);
    let _ = writeln!(
        s,
        "eddie_cluster_router_connections_total {}",
        shared.connections.load(Ordering::SeqCst)
    );
    let _ = writeln!(
        s,
        "eddie_cluster_router_redirects_total {}",
        shared.redirects.load(Ordering::SeqCst)
    );
    for (i, link) in st.shards.iter().enumerate() {
        if let Some(handle) = &link.handle {
            let _ = writeln!(
                s,
                "eddie_cluster_sessions_owned{{shard=\"{}\"}} {}",
                link.name,
                handle.fleet_stats().active_sessions
            );
        }
        let _ = writeln!(
            s,
            "eddie_cluster_migrations_in_total{{shard=\"{}\"}} {}",
            link.name, st.migrations_in[i]
        );
        let _ = writeln!(
            s,
            "eddie_cluster_migrations_out_total{{shard=\"{}\"}} {}",
            link.name, st.migrations_out[i]
        );
    }
    s
}

/// Final tallies [`Router::run`] returns after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterReport {
    /// Connections accepted.
    pub connections: u64,
    /// `Moved` redirects answered.
    pub redirects: u64,
}

/// A bound-but-not-yet-running cluster router. Call
/// [`run`](Router::run) on its own thread; it blocks until
/// [`RouterHandle::shutdown`].
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
    addr: SocketAddr,
}

/// How long a router connection may sit idle before being dropped.
/// Redirect conversations are one round-trip; anything lingering is a
/// stuck client.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(2000);
const POLL_INTERVAL: Duration = Duration::from_millis(5);

impl Router {
    /// Binds the router to `addr` (port 0 for ephemeral) fronting
    /// `shards`, with initial placement from `membership`.
    ///
    /// `membership.members` must name `shards` one-to-one in order —
    /// the ring's member indices are indices into `shards`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        shards: Vec<ShardLink>,
        membership: &Membership,
    ) -> io::Result<Router> {
        if membership.members.len() != shards.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "membership and shard list must be the same length",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let n = shards.len();
        Ok(Router {
            listener,
            shared: Arc::new(RouterShared {
                state: Mutex::new(RouterState {
                    shards,
                    ring: HashRing::build(membership),
                    generation: 1,
                    token_owner: HashMap::new(),
                    admissions: 0,
                    migrations_in: vec![0; n],
                    migrations_out: vec![0; n],
                }),
                connections: AtomicU64::new(0),
                redirects: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for other threads.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shared: self.shared.clone(),
            addr: self.addr,
        }
    }

    /// Accepts and answers connections until shutdown.
    pub fn run(self) -> io::Result<RouterReport> {
        let Router {
            listener, shared, ..
        } = self;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    let shared = shared.clone();
                    conns.push(std::thread::spawn(move || {
                        serve_conn(stream, &shared);
                    }));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    for h in conns {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(RouterReport {
            connections: shared.connections.load(Ordering::SeqCst),
            redirects: shared.redirects.load(Ordering::SeqCst),
        })
    }
}

fn serve_conn(stream: TcpStream, shared: &RouterShared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    let send = |frame: &Frame| -> bool {
        write_frame(&mut &stream, frame)
            .and_then(|()| (&stream).flush())
            .is_ok()
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut &stream) {
            Ok(Some(f)) => f,
            Ok(None) => return, // client closed
            Err(_) => {
                let _ = send(&Frame::Err {
                    code: ErrCode::BadFrame,
                });
                return;
            }
        };
        match frame {
            Frame::Hello { .. } | Frame::HelloResumable { .. } => {
                let shard_addr = {
                    let mut st = shared.state.lock().expect("router state");
                    let k = st.admissions;
                    st.admissions += 1;
                    let idx = st.ring.lookup(k);
                    st.shards[idx].advertised_addr.clone()
                };
                shared.redirects.fetch_add(1, Ordering::SeqCst);
                if !send(&Frame::Moved {
                    shard_addr,
                    token: 0,
                }) {
                    return;
                }
            }
            Frame::Resume { token, .. } => {
                let owner_addr = {
                    let st = shared.state.lock().expect("router state");
                    st.token_owner
                        .get(&token)
                        .copied()
                        .or_else(|| minting_shard(token, st.shards.len()))
                        .map(|idx| st.shards[idx].advertised_addr.clone())
                };
                match owner_addr {
                    Some(shard_addr) => {
                        shared.redirects.fetch_add(1, Ordering::SeqCst);
                        if !send(&Frame::Moved { shard_addr, token }) {
                            return;
                        }
                    }
                    None => {
                        let _ = send(&Frame::Err {
                            code: ErrCode::UnknownToken,
                        });
                        return;
                    }
                }
            }
            Frame::Stats => {
                let text = render_stats(shared);
                if !send(&Frame::StatsReply { text }) {
                    return;
                }
            }
            Frame::Close => return,
            // Chunks, finishes: no session lives on the router, and
            // server→client frames are never valid here.
            _ => {
                let _ = send(&Frame::Err {
                    code: ErrCode::ProtocolViolation,
                });
                return;
            }
        }
    }
}
