//! Horizontal scale-out for the EDDIE reproduction: many
//! [`eddie_serve`] shards behind one consistent-hash ring, with live
//! session migration between them.
//!
//! The paper's monitor watches one device; the serving stack already
//! multiplexes a fleet of devices onto one process. This crate is the
//! next tier up — a *cluster* of those processes:
//!
//! * [`ring`] — the consistent-hash ring. Placement is a pure function
//!   of `(member names, RingConfig)`: every process computes the same
//!   ring from the same serializable [`Membership`], and membership
//!   changes disturb only `~1/N` of the keyspace.
//! * [`router`] — the front door. It speaks the existing wire protocol
//!   but owns no sessions: `Hello`/`Resume` are answered with
//!   [`Moved`](eddie_serve::Frame::Moved) redirects to the owning
//!   shard, and `Stats` with a cluster-level scrape, so every existing
//!   client and tool points at a router unchanged.
//! * [`cluster`] — the in-process harness and rebalance planner. A
//!   rebalance moves each live session in one
//!   [`ServerHandle::migrate`](eddie_serve::ServerHandle::migrate)
//!   step; the client, redirected, `Resume`s on the destination with
//!   its token and loses or duplicates no event.
//!
//! The cluster CI gate replays devices through chaos proxies against a
//! 3-shard cluster, rebalances mid-replay, and requires the delivered
//! event stream to stay byte-identical to the single-process batch
//! pipeline, with the chunk ledger conserved across shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod ring;
pub mod router;

pub use cluster::{
    plan_rebalance, Cluster, ClusterConfig, ClusterConfigBuilder, ClusterReport, Migration,
    RebalanceReport, Shard,
};
pub use ring::{HashRing, Membership, RingConfig};
pub use router::{minting_shard, shard_token_base, Router, RouterHandle, RouterReport, ShardLink};
