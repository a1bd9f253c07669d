//! Reactor observability: `eddie_net_*` metrics.
//!
//! The handles are process-global (one [`NetMetrics`] per process via
//! `OnceLock`) so that multiple reactors — and multiple servers inside
//! one test binary — aggregate into a single set of counters instead
//! of shadowing each other. They live in a [`Registry`] this crate
//! owns and are always on, whether or not an `eddie-obs` observer is
//! installed; a server's `Stats` scrape renders
//! [`NetMetrics::registry`].

use std::sync::{Arc, OnceLock};

use eddie_obs::{Counter, Gauge, Histogram, Registry};

/// Shared handles for the `eddie_net_*` metric family.
pub struct NetMetrics {
    registry: Registry,
    /// `eddie_net_connections_registered` — descriptors currently
    /// registered across all reactors in the process (listener and
    /// wakeup pipes excluded).
    pub connections_registered: Arc<Gauge>,
    /// `eddie_net_poll_wakeups_total` — completed poller waits that
    /// returned at least one event or a wakeup-pipe byte.
    pub poll_wakeups: Arc<Counter>,
    /// `eddie_net_readiness_events_total` — readiness events
    /// dispatched to connection state machines.
    pub readiness_events: Arc<Counter>,
    /// `eddie_net_dispatch_ns` — wall time of one poll tick's dispatch
    /// phase (everything between two `Poller::wait` calls).
    pub dispatch_ns: Arc<Histogram>,
}

static GLOBAL: OnceLock<NetMetrics> = OnceLock::new();

impl NetMetrics {
    /// The process-wide handles.
    pub fn global() -> &'static NetMetrics {
        GLOBAL.get_or_init(|| {
            let registry = Registry::new();
            NetMetrics {
                connections_registered: registry.gauge("eddie_net_connections_registered"),
                poll_wakeups: registry.counter("eddie_net_poll_wakeups_total"),
                readiness_events: registry.counter("eddie_net_readiness_events_total"),
                dispatch_ns: registry.histogram("eddie_net_dispatch_ns"),
                registry,
            }
        })
    }

    /// The registry holding the `eddie_net_*` family.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}
