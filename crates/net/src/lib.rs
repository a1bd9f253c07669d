//! eddie-net: a dependency-free nonblocking reactor for
//! million-connection EDDIE ingestion.
//!
//! A production EM-fingerprinting fleet monitors tens of thousands of
//! devices per collector, so connection count must be decoupled from
//! thread count. This crate provides the event-loop tier that
//! `eddie-serve` runs every socket on:
//!
//! * [`Poller`] — level-triggered readiness: `epoll(7)` on Linux,
//!   portable `poll(2)` elsewhere.
//! * [`Waker`] — self-pipe cross-thread wakeup with coalescing.
//! * [`BufferedConn`] — per-connection nonblocking read/write state
//!   machine: length-prefixed frame extraction and partial-write
//!   resumption.
//! * [`Reactor`] — the composition: poller + wakeup pipe + the
//!   `eddie_net_*` metric family (connection gauge, wakeup/readiness
//!   counters, per-tick dispatch-latency histogram).
//!
//! All `unsafe` lives in the private `sys` module behind safe
//! errno-translating wrappers; the rest of the workspace (including
//! `eddie-serve`, which keeps `forbid(unsafe_code)`) only sees safe
//! APIs. The crate deliberately has no knowledge of the EDDIE wire
//! protocol: it moves bytes and readiness, the serve tier owns
//! meaning.

#![warn(missing_docs)]

mod conn;
mod metrics;
mod poller;
mod reactor;
pub mod sys;
mod waker;

pub use conn::{BufferedConn, FlushPass, FrameDefect, ReadPass};
pub use metrics::NetMetrics;
pub use poller::{Event, Interest, Poller, MAX_EVENTS_PER_WAIT};
pub use reactor::{Reactor, WAKE_DATA};
pub use waker::{wake_pair, WakeReader, Waker};
