//! Observability for the EDDIE reproduction: metrics, latency
//! histograms, a structured event journal, and Prometheus-text
//! exposition — with **zero dependencies** beyond `std`, like the wire
//! protocol it is exposed through.
//!
//! EDDIE is itself a continuous monitor, so the reproduction's runtime
//! (the `eddie-stream` fleet behind the `eddie-serve` ingestion edge)
//! needs the same operational visibility any deployed monitor does:
//! STFT and K-S latency, per-stage throughput, queue pressure, shed and
//! anomaly rates. This crate is that telemetry spine:
//!
//! * [`Counter`] / [`Gauge`] — striped / atomic scalars with a
//!   lock-free record path;
//! * [`Histogram`] — fixed log2-bucketed latency histogram with
//!   deterministic bucket edges and mergeable, order-independent
//!   [`HistogramSnapshot`]s;
//! * [`Registry`] — a name → metric map behind one lock, rendering
//!   [Prometheus text](Registry::render_prometheus) straight from the
//!   map;
//! * [`Journal`] — a bounded ring buffer of typed [`JournalEvent`]s
//!   (decisions and lifecycle changes, not per-window records) with
//!   monotonic sequence numbers and JSON rendering;
//! * [`Timer`] — an RAII span helper recording elapsed nanoseconds
//!   into a histogram on drop.
//!
//! # The single-branch gate
//!
//! Instrumented hot paths (the per-frame FFT, the per-window K-S
//! battery, the fleet drain) call [`global()`] first. When no
//! observer has been [`install`]ed — the default — that is **one
//! relaxed atomic load and a branch**; no allocation, no lock, no
//! time-stamping. Metrics are observational only: nothing in the
//! pipeline ever reads them, so enabling instrumentation cannot change
//! any monitoring decision and the determinism gates pass with the
//! registry installed at every `EDDIE_THREADS` value.
//!
//! # Examples
//!
//! ```
//! use eddie_obs::{Registry, Timer};
//!
//! let registry = Registry::new();
//! let frames = registry.counter("frames_total");
//! let lat = registry.histogram("frame_ns");
//!
//! for _ in 0..3 {
//!     let _span = Timer::start(Some(&lat));
//!     frames.inc();
//! }
//! assert_eq!(frames.value(), 3);
//! assert_eq!(lat.snapshot().count, 3);
//! assert!(registry.render_prometheus().contains("frames_total 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod metrics;
mod registry;
mod timer;

pub use journal::{Journal, JournalEvent, JournalRecord};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{MetricValue, Registry};
pub use timer::Timer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Ring capacity of the globally installed [`Journal`]. Old records are
/// evicted (and counted) once the ring is full, so the journal's memory
/// is bounded for the life of the process.
pub const JOURNAL_CAPACITY: usize = 4096;

/// The process-wide observer [`install`] creates: one metric
/// [`Registry`] plus one event [`Journal`], shared by every
/// instrumented layer.
#[derive(Debug)]
pub struct Observer {
    registry: Registry,
    journal: Journal,
}

impl Observer {
    /// The metric registry instrumented code records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event journal instrumented code appends to.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

static INSTALLED: OnceLock<Observer> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Installs (or re-enables) the process-wide observer and returns it.
///
/// Idempotent: the first call creates the registry and journal, later
/// calls return the same instance. Installation also enables
/// recording; use [`set_enabled`] to pause it (e.g. to keep a
/// baseline computation out of the counters).
pub fn install() -> &'static Observer {
    let obs = INSTALLED.get_or_init(|| Observer {
        registry: Registry::new(),
        journal: Journal::new(JOURNAL_CAPACITY),
    });
    ENABLED.store(true, Ordering::SeqCst);
    obs
}

/// The installed observer, or `None` when not installed or currently
/// disabled. This is *the* gate instrumented hot paths go through:
/// when observability is off it costs a single relaxed load + branch.
#[inline]
pub fn global() -> Option<&'static Observer> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    INSTALLED.get()
}

/// Whether recording is currently enabled (installed and not paused).
#[inline]
pub fn enabled() -> bool {
    global().is_some()
}

/// Pauses or resumes recording on an installed observer. A no-op
/// before [`install`]: recording can never be enabled without a
/// registry to record into. Metric values survive a pause — the gate
/// only stops new records.
pub fn set_enabled(on: bool) {
    ENABLED.store(on && INSTALLED.get().is_some(), Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_off_until_install_and_toggles() {
        // Other tests in this binary may have installed already; the
        // toggle behaviour is still fully checkable.
        set_enabled(false);
        assert!(global().is_none());
        assert!(!enabled());

        let obs = install();
        assert!(enabled());
        let again = install();
        assert!(std::ptr::eq(obs, again), "install is idempotent");

        obs.registry().counter("lib_gate_test_total").inc();
        set_enabled(false);
        assert!(global().is_none());
        // Values survive the pause.
        assert_eq!(obs.registry().counter("lib_gate_test_total").value(), 1);
        set_enabled(true);
        assert!(global().is_some());
        set_enabled(false);
    }
}
