//! Incremental STFT for online monitoring.
//!
//! [`StreamingStft`] accepts arbitrary-sized sample chunks and emits
//! exactly the spectra [`Stft::process_real`] would produce on the
//! concatenated signal — bit-identical, because both paths run every
//! window through the same [`Stft`] frame routine (same mean-removal
//! summation order, same window coefficients, same half-length
//! transform and split step). Only the
//! overlap tail that future windows still need is retained between
//! pushes, so memory stays bounded by one window regardless of how long
//! the stream runs.

use crate::{Complex, DspError, Spectrum, Stft, StftConfig};

/// The serializable part of a [`StreamingStft`]: the retained overlap
/// tail plus progress counters. Captured with
/// [`StreamingStft::state`] and revived with
/// [`StreamingStft::from_state`], which lets a monitoring session be
/// persisted mid-stream and resumed elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingStftState {
    /// Samples received but not yet consumed by an emitted window.
    pub pending: Vec<f32>,
    /// Absolute index (in the concatenated signal) of `pending[0]`.
    pub base: usize,
    /// Number of windows emitted so far.
    pub windows: usize,
}

eddie_codec::codec_struct!(StreamingStftState {
    pending,
    base,
    windows
});

/// An [`Stft`] that consumes a signal incrementally.
///
/// Feed chunks of any size with [`push`](StreamingStft::push); each call
/// returns the zero or more spectra that became complete. After any
/// sequence of pushes, the emitted spectra equal
/// `Stft::process_real(&concatenated)` — the equivalence the streaming
/// runtime's determinism gate asserts end-to-end.
///
/// # Examples
///
/// ```
/// use eddie_dsp::{Stft, StftConfig, StreamingStft};
///
/// let config = StftConfig::with_overlap_50(256, 1000.0);
/// let signal: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.1).sin()).collect();
///
/// let batch = Stft::new(config)?.process_real(&signal);
/// let mut streaming = StreamingStft::new(config)?;
/// let mut emitted = Vec::new();
/// for chunk in signal.chunks(100) {
///     emitted.extend(streaming.push(chunk));
/// }
/// assert_eq!(batch, emitted);
/// # Ok::<(), eddie_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingStft {
    stft: Stft,
    pending: Vec<f32>,
    base: usize,
    windows: usize,
    /// Scratch for a frame's packed half-length transform, reused
    /// across windows.
    buf: Vec<Complex>,
}

impl StreamingStft {
    /// Creates an incremental STFT processor.
    ///
    /// # Errors
    ///
    /// Returns [`DspError`] for the same invalid configurations as
    /// [`Stft::new`].
    pub fn new(config: StftConfig) -> Result<StreamingStft, DspError> {
        let stft = Stft::new(config)?;
        let buf = vec![Complex::ZERO; config.window_len / 2];
        Ok(StreamingStft {
            stft,
            pending: Vec::new(),
            base: 0,
            windows: 0,
            buf,
        })
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &StftConfig {
        self.stft.config()
    }

    /// Number of windows emitted so far.
    pub fn windows_emitted(&self) -> usize {
        self.windows
    }

    /// Total samples received so far (consumed plus retained tail).
    pub fn samples_seen(&self) -> usize {
        self.base + self.pending.len()
    }

    /// Samples currently buffered awaiting a complete window — the
    /// resident tail a session-byte estimate has to account for.
    pub fn pending_samples(&self) -> usize {
        self.pending.len()
    }

    /// Appends a chunk of samples and returns every window that became
    /// complete, in order. `start_sample` fields are absolute indices in
    /// the concatenated signal, exactly as the batch path reports them.
    pub fn push(&mut self, chunk: &[f32]) -> Vec<Spectrum> {
        self.pending.extend_from_slice(chunk);
        let window_len = self.config().window_len;
        let hop = self.config().hop;

        let mut out = Vec::new();
        loop {
            let next_start = self.windows * hop;
            // Invariant: base <= next_start (we never discard samples a
            // future window needs), so this offset cannot underflow.
            let off = next_start - self.base;
            if self.pending.len() < off + window_len {
                break;
            }
            let frame = &self.pending[off..off + window_len];
            out.push(self.stft.frame_real(frame, next_start, &mut self.buf));
            self.windows += 1;
        }

        // Drop samples no future window can touch: everything before the
        // next window's start.
        let dead = (self.windows * hop)
            .saturating_sub(self.base)
            .min(self.pending.len());
        if dead > 0 {
            self.pending.drain(..dead);
            self.base += dead;
        }
        out
    }

    /// Captures the resumable state: the retained tail and counters.
    pub fn state(&self) -> StreamingStftState {
        StreamingStftState {
            pending: self.pending.clone(),
            base: self.base,
            windows: self.windows,
        }
    }

    /// Revives a processor from a captured state.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadState`] when the counters are mutually
    /// inconsistent (a tail that future windows could not have), and
    /// the same configuration errors as [`Stft::new`].
    pub fn from_state(
        config: StftConfig,
        state: StreamingStftState,
    ) -> Result<StreamingStft, DspError> {
        let mut s = StreamingStft::new(config)?;
        let next_start = state.windows * config.hop;
        if state.base > next_start {
            return Err(DspError::BadState {
                reason: "tail starts after the next window",
            });
        }
        // The retained tail never needs to reach past the next window's
        // end: push() would have emitted that window already.
        if state.base + state.pending.len() >= next_start + config.window_len {
            return Err(DspError::BadState {
                reason: "tail already contains a complete unemitted window",
            });
        }
        s.pending = state.pending;
        s.base = state.base;
        s.windows = state.windows;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.013;
                (t.sin() + 0.5 * (3.1 * t).cos()) as f32
            })
            .collect()
    }

    fn config() -> StftConfig {
        StftConfig::with_overlap_50(256, 1000.0)
    }

    /// Deterministic pseudo-random chunk lengths in `1..=max`.
    fn chunk_lengths(seed: u64, max: usize) -> impl Iterator<Item = usize> {
        let mut x = seed | 1;
        std::iter::repeat_with(move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize % max) + 1
        })
    }

    fn feed_in_chunks(
        stream: &mut StreamingStft,
        sig: &[f32],
        seed: u64,
        max: usize,
    ) -> Vec<Spectrum> {
        let mut out = Vec::new();
        let mut pos = 0;
        let mut lens = chunk_lengths(seed, max);
        while pos < sig.len() {
            let len = lens.next().unwrap().min(sig.len() - pos);
            out.extend(stream.push(&sig[pos..pos + len]));
            pos += len;
        }
        out
    }

    #[test]
    fn chunked_equals_batch_for_many_chunkings() {
        let sig = signal(4000);
        let batch = Stft::new(config()).unwrap().process_real(&sig);
        assert!(!batch.is_empty());
        for seed in [1u64, 7, 42, 1234] {
            for max in [1usize, 3, 100, 8192] {
                let mut stream = StreamingStft::new(config()).unwrap();
                let emitted = feed_in_chunks(&mut stream, &sig, seed, max);
                assert_eq!(batch, emitted, "seed={seed} max={max}");
                assert_eq!(stream.windows_emitted(), batch.len());
                assert_eq!(stream.samples_seen(), sig.len());
            }
        }
    }

    #[test]
    fn single_push_equals_batch() {
        let sig = signal(2048);
        let batch = Stft::new(config()).unwrap().process_real(&sig);
        let mut stream = StreamingStft::new(config()).unwrap();
        assert_eq!(stream.push(&sig), batch);
    }

    #[test]
    fn tail_memory_is_bounded() {
        let cfg = config();
        let mut stream = StreamingStft::new(cfg).unwrap();
        for chunk in signal(100_000).chunks(97) {
            stream.push(chunk);
            assert!(
                stream.state().pending.len() < cfg.window_len + 97,
                "tail must stay within one window plus one chunk"
            );
        }
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let sig = signal(3000);
        let batch = Stft::new(config()).unwrap().process_real(&sig);

        let mut first = StreamingStft::new(config()).unwrap();
        let mut emitted = first.push(&sig[..1117]);
        let state = first.state();

        let mut resumed = StreamingStft::from_state(config(), state).unwrap();
        emitted.extend(resumed.push(&sig[1117..]));
        assert_eq!(batch, emitted);
    }

    #[test]
    fn from_state_rejects_inconsistent_counters() {
        let cfg = config();
        let bad = StreamingStftState {
            pending: Vec::new(),
            base: 10_000,
            windows: 0,
        };
        assert!(matches!(
            StreamingStft::from_state(cfg, bad),
            Err(DspError::BadState { .. })
        ));
        let overfull = StreamingStftState {
            pending: vec![0.0; cfg.window_len + 1],
            base: 0,
            windows: 0,
        };
        assert!(matches!(
            StreamingStft::from_state(cfg, overfull),
            Err(DspError::BadState { .. })
        ));
    }

    #[test]
    fn hop_larger_than_remaining_tail_is_handled() {
        // hop == window_len (no overlap): the tail is empty between
        // windows and pushes smaller than a window accumulate.
        let cfg = StftConfig {
            window_len: 128,
            hop: 128,
            window: crate::WindowKind::Hann,
            sample_rate_hz: 1000.0,
        };
        let sig = signal(1000);
        let batch = Stft::new(cfg).unwrap().process_real(&sig);
        let mut stream = StreamingStft::new(cfg).unwrap();
        let emitted = feed_in_chunks(&mut stream, &sig, 5, 50);
        assert_eq!(batch, emitted);
    }
}
