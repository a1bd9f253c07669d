//! The in-process cluster harness: N [`eddie_serve::Server`] shards on
//! their own threads (optionally each behind a chaos proxy sharing one
//! fault schedule), a [`Router`] front, and the rebalance planner that
//! moves live sessions between shards over the resume protocol.
//!
//! # The migration sequence
//!
//! Moving a live session from shard A to shard B is four steps, each
//! already part of the PR-5 resume machinery:
//!
//! 1. **Park + freeze**: [`ServerHandle::export_session`] marks the
//!    session migrating on A — further chunks get `Busy` (the client's
//!    go-back-N absorbs this), queued chunks drain, and the session is
//!    snapshotted and removed from A's fleet, leaving a tombstone.
//! 2. **Restore**: [`ServerHandle::import_session`] rebuilds the
//!    session on B from the snapshot — same token, same expected
//!    sequence number, same replay tail.
//! 3. **Redirect**: [`ServerHandle::finish_export`] swaps A's
//!    tombstone for a forwarding stub; the client's next frame is
//!    answered `Moved { B, token }`. Ordering matters: the stub goes
//!    in only *after* B owns the session, so a client is never sent
//!    somewhere that would refuse its token.
//! 4. **Resume**: the client reconnects to B and `Resume`s with its
//!    token, exactly as it would after a dropped connection.
//!
//! If step 2 fails (e.g. B does not host the model), the export is
//! rolled back by re-importing the capture into A — allowed because
//! A still holds its own migrating tombstone.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;

use eddie_chaos::{ChaosProxy, FaultPlan};
use eddie_core::Error as CoreError;
use eddie_serve::{ModelRegistry, Server, ServerConfig, ServerHandle, ServerReport};

use crate::ring::{HashRing, Membership, RingConfig};
use crate::router::{shard_token_base, Router, RouterHandle, RouterReport, ShardLink};

/// How an in-process cluster is shaped. Build with
/// [`builder`](ClusterConfig::builder).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Number of shards (default 3).
    pub shards: usize,
    /// Ring shape shared by router and planner.
    pub ring: RingConfig,
    /// Template server config; each shard runs a copy with its own
    /// disjoint [`token_base`](ServerConfig::token_base).
    pub server: ServerConfig,
    /// When set, every shard sits behind its own chaos proxy and all
    /// proxies share one global frame schedule, so the fault plan
    /// describes cluster-wide traffic, not per-shard traffic.
    pub fault_plan: Option<FaultPlan>,
}

impl ClusterConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            shards: 3,
            ring: RingConfig::default(),
            server: ServerConfig::default(),
            fault_plan: None,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// Builder for [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    shards: usize,
    ring: RingConfig,
    server: ServerConfig,
    fault_plan: Option<FaultPlan>,
}

impl ClusterConfigBuilder {
    /// Number of shards.
    pub fn with_shards(mut self, shards: usize) -> ClusterConfigBuilder {
        self.shards = shards;
        self
    }

    /// Ring shape.
    pub fn with_ring(mut self, ring: RingConfig) -> ClusterConfigBuilder {
        self.ring = ring;
        self
    }

    /// Template server config (its `token_base` is overridden per
    /// shard).
    pub fn with_server(mut self, server: ServerConfig) -> ClusterConfigBuilder {
        self.server = server;
        self
    }

    /// Put every shard behind a chaos proxy running `plan` on a shared
    /// schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ClusterConfigBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// [`InvalidConfig`](eddie_core::ErrorKind::InvalidConfig) when
    /// `shards` is zero or exceeds the token-namespace capacity, or
    /// the ring has zero vnodes.
    pub fn build(self) -> Result<ClusterConfig, CoreError> {
        let invalid = |msg: &str| {
            CoreError::new(
                eddie_core::ErrorKind::InvalidConfig,
                "eddie-cluster",
                msg.to_string(),
            )
        };
        if self.shards == 0 {
            return Err(invalid("a cluster needs at least one shard"));
        }
        if self.shards >= (1 << 15) {
            return Err(invalid("shard count exceeds the token namespace"));
        }
        if self.ring.vnodes == 0 {
            return Err(invalid("ring.vnodes must be at least 1"));
        }
        Ok(ClusterConfig {
            shards: self.shards,
            ring: self.ring,
            server: self.server,
            fault_plan: self.fault_plan,
        })
    }
}

/// One shard of a running [`Cluster`].
pub struct Shard {
    /// Ring member name (`s0`, `s1`, …).
    pub name: String,
    /// Live handle (stats, shutdown, session export/import).
    pub handle: ServerHandle,
    /// The address clients reach this shard at — the chaos proxy when
    /// one is configured, the server itself otherwise.
    pub advertised_addr: String,
    join: JoinHandle<io::Result<ServerReport>>,
    proxy: Option<ChaosProxy>,
}

/// One planned session move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The session's resume token.
    pub token: u64,
    /// Shard index currently holding it.
    pub from: usize,
    /// Shard index the ring says should hold it.
    pub to: usize,
}

/// What a [`Cluster::rebalance`] did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Sessions moved.
    pub migrated: Vec<Migration>,
    /// Sessions that vanished mid-plan (finished or expired between
    /// enumeration and export) — skipped, not errors.
    pub skipped: usize,
}

/// Everything a shut-down [`Cluster`] observed.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-shard server reports, in shard order.
    pub shards: Vec<ServerReport>,
    /// The router's tallies.
    pub router: RouterReport,
}

/// The pure planning step of a rebalance: which `(token, shard)` pairs
/// disagree with ring placement. Separated from execution so the
/// property tests can drive it without sockets.
pub fn plan_rebalance(ring: &HashRing, owned: &[(u64, usize)]) -> Vec<Migration> {
    owned
        .iter()
        .filter_map(|&(token, from)| {
            let to = ring.lookup(token);
            (to != from).then_some(Migration { token, from, to })
        })
        .collect()
}

/// A running in-process cluster: shards, proxies and the router, whose
/// `Stats` reply renders per-shard placement and migration counts.
pub struct Cluster {
    shards: Vec<Shard>,
    membership: Membership,
    ring: HashRing,
    router_handle: RouterHandle,
    router_join: JoinHandle<io::Result<RouterReport>>,
}

impl Cluster {
    /// Boots the whole stack: binds every shard (ephemeral ports),
    /// starts their proxies and threads, computes the ring, and starts
    /// the router. All shards host the models in `registry`.
    pub fn start(config: ClusterConfig, registry: ModelRegistry) -> io::Result<Cluster> {
        let names: Vec<String> = (0..config.shards).map(|i| format!("s{i}")).collect();
        let membership = Membership::new(names.clone(), config.ring)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let ring = HashRing::build(&membership);

        let shared_schedule = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(config.shards);
        for (i, name) in names.iter().enumerate() {
            let mut server_config = config.server.clone();
            server_config.token_base = shard_token_base(i);
            let server = Server::bind("127.0.0.1:0", registry.clone(), server_config)?;
            let handle = server.handle();
            let server_addr = server.local_addr();
            let join = std::thread::spawn(move || server.run());
            let proxy = match &config.fault_plan {
                Some(plan) => Some(ChaosProxy::start_shared(
                    server_addr,
                    plan.clone(),
                    shared_schedule.clone(),
                )?),
                None => None,
            };
            let advertised_addr = proxy.as_ref().map_or(server_addr, |p| p.addr()).to_string();
            shards.push(Shard {
                name: name.clone(),
                handle,
                advertised_addr,
                join,
                proxy,
            });
        }

        let links: Vec<ShardLink> = shards
            .iter()
            .map(|s| ShardLink {
                name: s.name.clone(),
                advertised_addr: s.advertised_addr.clone(),
                handle: Some(s.handle.clone()),
            })
            .collect();
        let router = Router::bind("127.0.0.1:0", links, &membership)?;
        let router_handle = router.handle();
        let router_join = std::thread::spawn(move || router.run());

        Ok(Cluster {
            shards,
            membership,
            ring,
            router_handle,
            router_join,
        })
    }

    /// The router's address — what clients dial first.
    pub fn router_addr(&self) -> SocketAddr {
        self.router_handle.addr()
    }

    /// The running shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The router handle (stats text, redirect counts).
    pub fn router(&self) -> &RouterHandle {
        &self.router_handle
    }

    /// The current membership (serializable placement input).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Sessions each shard currently owns, as `(token, shard index)`
    /// pairs — the planner's input.
    pub fn owned_sessions(&self) -> Vec<(u64, usize)> {
        let mut owned = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for token in shard.handle.resumable_tokens() {
                owned.push((token, i));
            }
        }
        owned
    }

    /// Moves one live session between shards (export → import →
    /// redirect, with rollback on import failure).
    ///
    /// # Errors
    ///
    /// Whatever [`export_session`](ServerHandle::export_session) or
    /// [`import_session`](ServerHandle::import_session) refuse with;
    /// on import failure the session is restored to `from` first.
    pub fn migrate(&self, m: Migration) -> Result<(), CoreError> {
        let exported = self.shards[m.from].handle.export_session(m.token)?;
        if let Err(e) = self.shards[m.to].handle.import_session(exported.clone()) {
            // Roll back: the source still holds its migrating
            // tombstone, which re-import is allowed to replace.
            let _ = self.shards[m.from].handle.import_session(exported);
            return Err(e);
        }
        self.shards[m.from]
            .handle
            .finish_export(m.token, &self.shards[m.to].advertised_addr);
        self.router_handle.set_token_owner(m.token, m.to);
        self.router_handle.note_migration(m.from, m.to);
        Ok(())
    }

    /// Reconciles every live session to ring placement: plans against
    /// the current ring and executes each migration. Sessions that
    /// disappear mid-plan are skipped.
    pub fn rebalance(&self) -> Result<RebalanceReport, CoreError> {
        let mut report = RebalanceReport::default();
        for m in plan_rebalance(&self.ring, &self.owned_sessions()) {
            match self.migrate(m) {
                Ok(()) => report.migrated.push(m),
                Err(e) if e.kind() == eddie_core::ErrorKind::UnknownToken => {
                    report.skipped += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Reshuffles placement by changing the ring seed (membership
    /// unchanged), then rebalances live sessions onto the new ring —
    /// the lever the cluster gate pulls to force mid-replay
    /// migrations.
    pub fn rebalance_with_seed(&mut self, seed: u64) -> Result<RebalanceReport, CoreError> {
        self.membership.ring.seed = seed;
        self.ring = HashRing::build(&self.membership);
        self.router_handle.set_ring(&self.membership);
        self.rebalance()
    }

    /// Shuts everything down — router first, then shards and proxies —
    /// and returns the collected reports.
    pub fn shutdown(self) -> io::Result<ClusterReport> {
        self.router_handle.shutdown();
        let router = self
            .router_join
            .join()
            .map_err(|_| io::Error::other("router thread panicked"))??;
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            shard.handle.shutdown();
            let report = shard
                .join
                .join()
                .map_err(|_| io::Error::other("shard thread panicked"))??;
            if let Some(mut proxy) = shard.proxy {
                proxy.shutdown();
            }
            reports.push(report);
        }
        Ok(ClusterReport {
            shards: reports,
            router,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

    use eddie_serve::{fetch_stats, read_frame, write_frame, ErrCode, Frame};

    fn tiny_cluster() -> Cluster {
        let config = ClusterConfig::builder()
            .with_shards(2)
            .build()
            .expect("config");
        Cluster::start(config, ModelRegistry::new()).expect("cluster start")
    }

    #[test]
    fn config_rejects_zero_shards_and_zero_vnodes() {
        assert!(ClusterConfig::builder().with_shards(0).build().is_err());
        let ring = RingConfig { vnodes: 0, seed: 1 };
        assert!(ClusterConfig::builder().with_ring(ring).build().is_err());
    }

    #[test]
    fn plan_rebalance_moves_only_misplaced_sessions() {
        let m = Membership::new(["s0", "s1", "s2"], RingConfig::default()).expect("membership");
        let ring = HashRing::build(&m);
        // Place every token where the ring wants it, except one.
        let tokens = [10u64, 20, 30, 40];
        let mut owned: Vec<(u64, usize)> = tokens.iter().map(|&t| (t, ring.lookup(t))).collect();
        let home = owned[0].1;
        owned[0].1 = (home + 1) % 3;
        let plan = plan_rebalance(&ring, &owned);
        assert_eq!(plan.len(), 1, "only the misplaced session moves");
        assert_eq!(plan[0].token, tokens[0]);
        assert_eq!(plan[0].to, home);
    }

    #[test]
    fn stats_scrape_against_the_router_reports_cluster_metrics() {
        let cluster = tiny_cluster();
        let text = fetch_stats(cluster.router_addr()).expect("scrape router");
        assert!(text.contains("eddie_cluster_members 2"), "got:\n{text}");
        assert!(text.contains("eddie_cluster_ring_generation 1"));
        assert!(text.contains("eddie_cluster_sessions_owned{shard=\"s0\"} 0"));
        assert!(text.contains("eddie_cluster_migrations_in_total{shard=\"s1\"} 0"));
        cluster.shutdown().expect("shutdown");
    }

    #[test]
    fn hello_is_redirected_and_sessionful_frames_are_refused() {
        let cluster = tiny_cluster();
        let shard_addrs: Vec<String> = cluster
            .shards()
            .iter()
            .map(|s| s.advertised_addr.clone())
            .collect();

        let mut s = TcpStream::connect(cluster.router_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(
            &mut s,
            &Frame::HelloResumable {
                model_id: "m".to_string(),
                sample_rate: 1.0,
            },
        )
        .expect("hello");
        match read_frame(&mut s).expect("read").expect("eof") {
            Frame::Moved { shard_addr, token } => {
                assert_eq!(token, 0, "no session exists yet");
                assert!(
                    shard_addrs.contains(&shard_addr),
                    "redirect must name a member shard"
                );
            }
            other => panic!("expected Moved, got {other:?}"),
        }
        drop(s);

        // A chunk has no session to land in: the router refuses it.
        let mut s = TcpStream::connect(cluster.router_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(
            &mut s,
            &Frame::Chunk {
                seq: 0,
                samples: vec![0.0; 4],
            },
        )
        .expect("chunk");
        assert_eq!(
            read_frame(&mut s).expect("read").expect("eof"),
            Frame::Err {
                code: ErrCode::ProtocolViolation
            }
        );
        drop(s);

        // A resume token from a shard namespace is forwarded to its
        // minting shard even though the router never saw a migration.
        let token = crate::router::shard_token_base(1) + 7;
        let mut s = TcpStream::connect(cluster.router_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(
            &mut s,
            &Frame::Resume {
                token,
                have_windows: 0,
            },
        )
        .expect("resume");
        match read_frame(&mut s).expect("read").expect("eof") {
            Frame::Moved {
                shard_addr,
                token: t,
            } => {
                assert_eq!(t, token, "token travels with the redirect");
                assert_eq!(
                    shard_addr, shard_addrs[1],
                    "namespace names the minting shard"
                );
            }
            other => panic!("expected Moved, got {other:?}"),
        }

        cluster.shutdown().expect("shutdown");
    }

    #[test]
    fn token_namespace_round_trips() {
        for i in [0usize, 1, 2, 41] {
            let base = shard_token_base(i);
            assert_eq!(crate::router::minting_shard(base, 64), Some(i));
            assert_eq!(crate::router::minting_shard(base + 0xFFFF, 64), Some(i));
        }
        assert_eq!(crate::router::minting_shard(0, 64), None);
        assert_eq!(crate::router::minting_shard(shard_token_base(64), 64), None);
    }
}
