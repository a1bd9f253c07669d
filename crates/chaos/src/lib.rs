//! Deterministic fault injection for the EDDIE serve/stream stack.
//!
//! A field deployment of EDDIE lives on flaky radio links, overloaded
//! gateways, and stalled servers. This crate makes those conditions
//! *reproducible*: every fault a test injects derives from a seeded
//! [`FaultPlan`], so a failing chaos run replays bit-for-bit from its
//! seed.
//!
//! Three injection surfaces:
//!
//! * [`ChaosProxy`] — a loopback TCP proxy that sits between a client
//!   and an `eddie-serve` server. It understands the wire protocol's
//!   length-prefixed framing (but deliberately not the payloads) and
//!   applies per-frame fates on the client→server direction: deliver,
//!   drop, duplicate, corrupt (the tag byte is clobbered so the fault
//!   is *detectable* — the protocol carries no payload checksum),
//!   reorder (swap with the next frame), stall, or sever the
//!   connection outright.
//! * [`ServerFaults`] — failpoints the server consults when a plan is
//!   wired into its config: `Busy` storms (refuse chunks that the
//!   fleet would have accepted) and slow-drain pauses.
//! * [`ChaosRng`] — the `eddie-rand` SplitMix64 generator behind every
//!   decision, also reused by the serve client's backoff jitter so
//!   reconnect schedules are reproducible under test.
//!
//! Determinism contract: a fate depends only on `(seed, frame index)`
//! — not on wall-clock time, thread interleaving, or map iteration
//! order — so a single-client run through the proxy sees the exact
//! same fault sequence on every execution and at every
//! `EDDIE_THREADS` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod proxy;

pub use eddie_rand::{mix, SplitMix64 as ChaosRng};
pub use plan::{Decision, FaultPlan, FaultPlanBuilder, FrameFate, ServerFaults};
pub use proxy::{ChaosProxy, ProxyStats};
