//! Online monitoring runtime for the EDDIE reproduction.
//!
//! The batch pipeline (`eddie-core`) needs a run's entire signal before
//! it can say anything: one full STFT, then a replay of every STS. The
//! paper, however, describes EDDIE as a *runtime* monitor (Algorithm 1,
//! §4.4) — samples arrive continuously from a monitored device and
//! verdicts must come out as execution proceeds. This crate closes that
//! gap and scales it to many devices:
//!
//! * [`MonitorSession`] — one monitored device. Accepts signal chunks of
//!   any size, runs the incremental STFT
//!   ([`eddie_dsp::StreamingStft`]), reduces each completed window to
//!   its STS, and feeds the bounded-memory monitor state
//!   ([`eddie_core::MonitorState`]). Emits [`StreamEvent`]s carrying the
//!   window index of every decision.
//! * [`SessionSnapshot`] — the whole of a session's runtime state, as
//!   `eddie-codec` bytes. [`MonitorSession::snapshot`] /
//!   [`MonitorSession::restore`] persist and migrate live sessions; the
//!   trained model itself rides separately via
//!   [`eddie_core::TrainedModel::to_bytes`].
//! * [`Fleet`] — many sessions behind one ingress API. Chunks land in
//!   bounded per-device queues ([`Fleet::push_chunk`] reports
//!   [`PushResult::Full`] instead of blocking — explicit backpressure),
//!   and [`Fleet::drain`] shards the devices with queued chunks across
//!   the [`eddie_exec`] worker pool, one device per worker at a time.
//!   [`Fleet::with_store`] attaches an [`eddie_store::SessionStore`]
//!   cold tier: idle sessions beyond the resident budget are parked to
//!   the spill log after each drain, thawing transparently on their
//!   next chunk. A fleet keeps its `eddie_stream_*` metrics in a
//!   registry of its own; [`Fleet::render_metrics`] renders them, and
//!   the store's, for a server's `Stats` scrape.
//!
//! # Equivalence guarantee
//!
//! For any chunking of a signal — including adversarial 1-sample
//! chunks — a session emits exactly the events the batch
//! `Pipeline::monitor_result` path computes for the whole signal, at
//! every `EDDIE_THREADS` value. Chunk boundaries, queue depths, and
//! worker scheduling are not observable in the output. The
//! workspace's `tests/equivalence.rs` suite (run twice by CI, at 1 and
//! 4 threads) and the `eddie-experiments stream` subcommand both assert
//! this event-for-event.
//!
//! # Examples
//!
//! This is a real (`no_run`) doctest — it compiles against the current
//! API on every `cargo test`, so drift in any signature below fails CI.
//!
//! ```no_run
//! use std::sync::Arc;
//! use eddie_stream::{Fleet, FleetConfig, MonitorSession, PushResult};
//!
//! # fn model() -> eddie_core::TrainedModel { unimplemented!() }
//! # fn main() -> Result<(), eddie_core::Error> {
//! let model = Arc::new(model());
//! let config = FleetConfig::builder()
//!     .with_max_pending_chunks(32)
//!     .build()?;
//! let mut fleet = Fleet::new(config);
//! let dev = fleet.add_session(MonitorSession::new(model, 1.0e6)?);
//!
//! // Ingress side: non-blocking, backpressure-aware.
//! let chunk: Vec<f32> = vec![0.0; 4096];
//! match fleet.push_chunk(dev, chunk) {
//!     PushResult::Accepted => {}
//!     PushResult::Full => { /* shed load or retry later */ }
//! }
//!
//! // Processing side: every device with queued chunks, sharded across
//! // the pool; each comes back with its events, in key order.
//! for (device, events) in fleet.drain() {
//!     for ev in events {
//!         println!("device {}, window {}: {:?}", device.0, ev.window, ev.event);
//!     }
//! }
//!
//! // Operator side: load report (every shed chunk leaves a trace) and
//! // eviction when a device disconnects.
//! let stats = fleet.stats();
//! println!("{} live sessions, {} chunks shed", stats.active_sessions, stats.shed_chunks);
//! let _last_state = fleet.remove_session(dev).map(|s| s.snapshot());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod session;

pub use fleet::{
    DeviceId, DeviceStats, Fleet, FleetConfig, FleetConfigBuilder, FleetStats, PushResult,
};
pub use session::{DenoiseSnapshot, MonitorSession, SessionSnapshot, StreamEvent};
