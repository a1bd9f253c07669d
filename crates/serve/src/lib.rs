//! Network ingestion edge for the EDDIE reproduction.
//!
//! The paper deploys EDDIE as an *external* monitor: the EM probe and
//! the analysis engine are physically separate from the monitored
//! device, so in any real deployment the samples cross a wire. This
//! crate is that wire and the service behind it:
//!
//! * [`wire`] — a dependency-free binary framing protocol. Capture
//!   devices send `Hello` / `Chunk` / `Close` / `Stats`; the server
//!   answers `Ack` / `Busy` / `Event` / `Err` / `StatsReply` (a
//!   Prometheus-text scrape: the server's own books, its fleet's and
//!   store's, the reactor's `eddie_net_*`, and the installed
//!   [`eddie_obs`] observer's registry, if any). `Busy` is
//!   [`eddie_stream::PushResult::Full`] made visible on the wire —
//!   fleet backpressure propagated to the device instead of silent
//!   sample loss. The decoder is fuzz-resistant: arbitrary bytes
//!   produce [`wire::WireError`], never a panic or an oversized
//!   allocation.
//! * [`server`] — a `std::net` TCP server multiplexing many capture
//!   connections onto one [`eddie_stream::Fleet`], with graceful
//!   shutdown. No async runtime and no thread hand-offs: one
//!   nonblocking [`eddie_net`] event-loop thread owns the listener and
//!   every socket, drains the fleet itself (sharding the devices with
//!   queued chunks across the `eddie-exec` worker pool, taking a share
//!   itself) and writes every reply and event. Each connection has one
//!   id, which routes its session's events and names it in the
//!   journal. Fleet backpressure is a `Busy` reply, never a blocked
//!   reader, and a bounded read buffer per connection lets TCP push
//!   back on a flooding peer.
//! * [`client`] — a blocking replay client with go-back-N
//!   retransmission on `Busy`, used by the `replay-client` experiment
//!   and the loopback CI gates; plus [`ResilientClient`], a
//!   self-healing variant that reconnects with deterministic seeded
//!   backoff and resumes its session (`HelloResumable` / `Resume`)
//!   across drops, corruption, and severed connections. Both stream
//!   through the same go-back-N loop and differ only in handshake and
//!   goodbye. The chaos CI gate drives the resilient client through an
//!   [`eddie_chaos::ChaosProxy`] and diffs the recovered event stream
//!   against the batch pipeline.
//!
//! # Determinism on the wire
//!
//! Chunks enter the fleet strictly in sequence order (the server only
//! accepts the exact next expected sequence number; anything else is
//! `Ack`ed as a duplicate or refused with `Busy`), and the fleet's
//! per-device event order is its determinism contract. So the event
//! stream a client receives is byte-identical to
//! `Pipeline::monitor_batch` on the same signal — at every
//! `EDDIE_THREADS` value, any chunk size, and under arbitrary `Busy`
//! retransmission storms. CI replays a clean and an injected run over
//! loopback TCP at 1 and 4 threads and diffs the events against the
//! batch path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod reactor;
pub mod server;
pub mod wire;

pub use client::{
    fetch_stats, Backoff, ClientError, ReplayClient, ReplayOutcome, ResilientClient,
    ResilientOutcome, PIPELINE_WINDOW,
};
pub use server::{
    ModelRegistry, Server, ServerConfig, ServerConfigBuilder, ServerHandle, ServerReport,
};
pub use wire::{
    read_frame, write_frame, ErrCode, EventKind, Frame, ReadError, WireError, MAX_CHUNK_SAMPLES,
    MAX_FRAME_LEN,
};
