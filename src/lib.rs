//! Facade crate for the EDDIE reproduction.
//!
//! This crate re-exports every subsystem of the workspace under one name
//! so that examples, integration tests and downstream users can depend on
//! a single crate:
//!
//! * [`isa`] — the small RISC instruction set the simulated device runs.
//! * [`mod@cfg`] — control-flow analysis and the region-level state machine.
//! * [`sim`] — the cycle-level processor simulator with its power model.
//! * [`workloads`] — MiBench-style benchmark kernels.
//! * [`dsp`] — FFT, STFT and spectral-peak extraction.
//! * [`em`] — the electromagnetic side-channel model.
//! * [`stats`] — K-S / U tests, mixture fits and ANOVA.
//! * [`inject`] — code-injection attack models.
//! * [`core`] — EDDIE itself: training, monitoring, metrics.
//! * [`exec`] — the deterministic parallel execution layer
//!   (`EDDIE_THREADS`, `par_map`, scoped worker pools).
//! * [`stream`] — the online monitoring runtime: per-device
//!   [`MonitorSession`](stream::MonitorSession)s with snapshot/restore,
//!   sharded behind a backpressure-aware [`Fleet`](stream::Fleet).
//! * [`serve`] — the network ingestion edge: binary wire protocol,
//!   `std::net` TCP server in front of the fleet, and the go-back-N
//!   replay client.
//! * [`obs`] — zero-dependency observability: metric registry, log2
//!   latency histograms, bounded event journal, Prometheus-text
//!   exposition (scraped over the wire via the `Stats` frame).
//! * [`chaos`] — deterministic fault injection: seeded
//!   [`FaultPlan`](chaos::FaultPlan)s, a frame-aware
//!   [`ChaosProxy`](chaos::ChaosProxy), and server-side failpoints,
//!   used by the chaos CI gate to prove the serve layer self-heals.
//! * [`rand`] — the seeded SplitMix64 generator behind every stochastic
//!   input, plus seeded property tests.
//! * [`codec`] — the byte form of trained models and monitor state.
//!
//! The most common names are gathered in [`prelude`]:
//!
//! ```
//! use eddie::prelude::*;
//! ```
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

#![forbid(unsafe_code)]

pub use eddie_cfg as cfg;
pub use eddie_chaos as chaos;
pub use eddie_cluster as cluster;
pub use eddie_codec as codec;
pub use eddie_core as core;
pub use eddie_dsp as dsp;
pub use eddie_em as em;
pub use eddie_exec as exec;
pub use eddie_inject as inject;
pub use eddie_isa as isa;
pub use eddie_net as net;
pub use eddie_obs as obs;
pub use eddie_rand as rand;
pub use eddie_serve as serve;
pub use eddie_sim as sim;
pub use eddie_stats as stats;
pub use eddie_stream as stream;
pub use eddie_workloads as workloads;

/// The one-line import for typical deployments: train and monitor
/// ([`Pipeline`](crate::core::Pipeline)), run a fleet behind the TCP
/// edge ([`Server`](crate::serve::Server) /
/// [`ResilientClient`](crate::serve::ResilientClient)), and harden it
/// all with fault injection ([`FaultPlan`](crate::chaos::FaultPlan)).
///
/// Builders and their config types come along with the things they
/// configure; the workspace-wide [`Error`](crate::core::Error) /
/// [`ErrorKind`](crate::core::ErrorKind) pair is what every fallible
/// API here returns.
pub mod prelude {
    pub use eddie_chaos::{ChaosProxy, FaultPlan, FaultPlanBuilder, ServerFaults};
    pub use eddie_core::{
        EddieConfig, Error, ErrorKind, Instrumented, Monitor, MonitorEvent, MonitorOutcome,
        Pipeline, PipelineBuilder, SignalSource, Synthetic, SyntheticTrainConfig, TrainedModel,
        TrainingSource,
    };
    pub use eddie_dsp::{DspStage, SvdDenoiser, SvdDenoiserConfig};
    pub use eddie_serve::{
        ModelRegistry, ReplayClient, ResilientClient, ResilientOutcome, Server, ServerConfig,
        ServerConfigBuilder, ServerHandle,
    };
    pub use eddie_stream::{
        DeviceId, Fleet, FleetConfig, FleetConfigBuilder, MonitorSession, PushResult, StreamEvent,
    };
}
