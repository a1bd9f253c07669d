//! Signal processing for the EDDIE reproduction.
//!
//! EDDIE converts the received EM signal into a sequence of overlapping
//! Short-Term Spectra (STSs) via the Short-Term Fourier Transform and
//! then works exclusively on spectral *peaks*: frequencies holding at
//! least 1 % of a window's signal energy (§3, §4.1 of the paper). This
//! crate provides that pipeline, implemented from scratch so the
//! reproduction has no opaque dependencies:
//!
//! * [`Complex`] — minimal complex arithmetic;
//! * [`Fft`] — an iterative FFT (a fused radix-4 first pass, then
//!   radix-2 stages) with one contiguous twiddle table per stage;
//! * [`WindowKind`] — rectangular/Hann/Hamming/Blackman analysis windows;
//! * [`Stft`] — overlapping windowed transforms producing [`Spectrum`]s;
//!   a real signal's `n`-sample window is packed into an `n/2`-point
//!   complex transform and split back into its one-sided spectrum;
//! * [`StreamingStft`] — the same transform fed chunk-by-chunk, for the
//!   online monitoring runtime (`eddie-stream`); emits bit-identical
//!   spectra to the batch path and keeps only the overlap tail;
//! * [`find_peaks`] — the 1 %-energy spectral-peak rule;
//! * [`cache`] — process-wide FFT-planner and window-coefficient caches
//!   shared by the worker threads of the parallel execution layer.
//!
//! # Examples
//!
//! Recover the frequency of a synthetic tone:
//!
//! ```
//! use eddie_dsp::{find_peaks, PeakConfig, Stft, StftConfig, WindowKind};
//!
//! let fs = 1000.0;
//! let tone = 125.0;
//! let samples: Vec<f32> = (0..4096)
//!     .map(|n| (2.0 * std::f64::consts::PI * tone * n as f64 / fs).sin() as f32)
//!     .collect();
//! let stft = Stft::new(StftConfig {
//!     window_len: 1024,
//!     hop: 512,
//!     window: WindowKind::Hann,
//!     sample_rate_hz: fs,
//! })?;
//! let spectra = stft.process_real(&samples);
//! let peaks = find_peaks(&spectra[0], &PeakConfig::default());
//! assert!((peaks[0].freq_hz - tone).abs() < fs / 1024.0);
//! # Ok::<(), eddie_dsp::DspError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod complex;
mod error;
mod fft;
mod goertzel;
mod obs;
mod peaks;
mod spectrum;
mod stage;
mod stft;
mod stream;
mod svd;
mod window;

pub use cache::{fft_planner, window_coefficients};
pub use complex::Complex;
pub use error::DspError;
pub use fft::Fft;
pub use goertzel::{Goertzel, GoertzelBank};
pub use peaks::{find_peaks, Peak, PeakConfig};
pub use spectrum::Spectrum;
pub use stage::{DspStage, StreamingDenoiser, StreamingDenoiserState};
pub use stft::{Stft, StftConfig};
pub use stream::{StreamingStft, StreamingStftState};
pub use svd::{Svd, SvdDenoiser, SvdDenoiserConfig};
pub use window::WindowKind;
