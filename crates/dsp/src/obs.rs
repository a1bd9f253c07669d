//! Cached handles into the globally installed `eddie-obs` registry.
//!
//! Resolved lazily through [`eddie_obs::global`], so an uninstrumented
//! process pays one relaxed load + branch per frame and never allocates
//! metric names.

use std::sync::{Arc, OnceLock};

use eddie_obs::{Counter, Histogram};

pub(crate) struct DspMetrics {
    /// `eddie_dsp_stft_frames_total` — STFT frames produced (real and
    /// complex paths).
    pub(crate) stft_frames: Arc<Counter>,
    /// `eddie_dsp_fft_ns` — forward-FFT latency per frame: the
    /// `n/2`-point transform of a real frame's packed samples, the
    /// `n`-point transform of a complex frame.
    pub(crate) fft_ns: Arc<Histogram>,
}

/// The crate's metric handles, or `None` when observability is off.
#[inline]
pub(crate) fn metrics() -> Option<&'static DspMetrics> {
    let obs = eddie_obs::global()?;
    static METRICS: OnceLock<DspMetrics> = OnceLock::new();
    Some(METRICS.get_or_init(|| DspMetrics {
        stft_frames: obs.registry().counter("eddie_dsp_stft_frames_total"),
        fft_ns: obs.registry().histogram("eddie_dsp_fft_ns"),
    }))
}
