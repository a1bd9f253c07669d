use std::sync::Arc;

use crate::cache;
use crate::{Complex, DspError, Fft, Spectrum, WindowKind};

/// Configuration of a short-term Fourier transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StftConfig {
    /// Samples per window; must be a power of two.
    pub window_len: usize,
    /// Samples between consecutive window starts (the paper uses 50 %
    /// overlap, i.e. `hop = window_len / 2`).
    pub hop: usize,
    /// Analysis window shape.
    pub window: WindowKind,
    /// Sample rate of the input signal in hertz.
    pub sample_rate_hz: f64,
}

impl StftConfig {
    /// Convenience constructor with Hann window and 50 % overlap.
    pub fn with_overlap_50(window_len: usize, sample_rate_hz: f64) -> StftConfig {
        StftConfig {
            window_len,
            hop: window_len / 2,
            window: WindowKind::Hann,
            sample_rate_hz,
        }
    }
}

/// The short-term Fourier transform: overlapping windowed FFTs turning a
/// signal into a sequence of [`Spectrum`]s (the paper's STS stream).
///
/// # Examples
///
/// ```
/// use eddie_dsp::{Stft, StftConfig};
///
/// let stft = Stft::new(StftConfig::with_overlap_50(256, 1000.0))?;
/// let spectra = stft.process_real(&vec![0.5f32; 1024]);
/// assert_eq!(spectra.len(), 1 + (1024 - 256) / 128);
/// assert_eq!(spectra[0].len(), 129); // one-sided bins
/// # Ok::<(), eddie_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Stft {
    config: StftConfig,
    fft: Arc<Fft>,
    coeffs: Arc<[f64]>,
}

impl Stft {
    /// Creates an STFT processor.
    ///
    /// The FFT planner (twiddle factors, bit-reversal table) and the
    /// window coefficients come from the process-wide [`cache`], so
    /// repeated construction — one `Stft` per monitored run, across
    /// many worker threads — does not recompute them.
    ///
    /// # Errors
    ///
    /// Returns [`DspError`] when the window length is not a power of
    /// two, the hop is zero or larger than the window, or the sample
    /// rate is not positive and finite.
    pub fn new(config: StftConfig) -> Result<Stft, DspError> {
        let fft = cache::fft_planner(config.window_len)?;
        if config.hop == 0 || config.hop > config.window_len {
            return Err(DspError::BadHop {
                hop: config.hop,
                window_len: config.window_len,
            });
        }
        if !(config.sample_rate_hz.is_finite() && config.sample_rate_hz > 0.0) {
            return Err(DspError::BadSampleRate {
                rate: config.sample_rate_hz,
            });
        }
        let coeffs = cache::window_coefficients(config.window, config.window_len);
        Ok(Stft {
            config,
            fft,
            coeffs,
        })
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &StftConfig {
        &self.config
    }

    /// Frequency resolution of each produced spectrum, in hertz.
    pub fn bin_hz(&self) -> f64 {
        self.config.sample_rate_hz / self.config.window_len as f64
    }

    /// Duration of one window in seconds.
    pub fn window_duration_s(&self) -> f64 {
        self.config.window_len as f64 / self.config.sample_rate_hz
    }

    /// Duration of one hop in seconds — the time distance between
    /// consecutive STSs, which converts "number of STSs" into the
    /// detection latencies reported by the paper.
    pub fn hop_duration_s(&self) -> f64 {
        self.config.hop as f64 / self.config.sample_rate_hz
    }

    /// Number of windows produced for an input of `n` samples.
    pub fn num_windows(&self, n: usize) -> usize {
        if n < self.config.window_len {
            0
        } else {
            1 + (n - self.config.window_len) / self.config.hop
        }
    }

    /// Transforms a real-valued signal (e.g. a power trace) into its STS
    /// sequence. The signal mean is removed per window so the DC bin
    /// reflects only the window's share of slow drift.
    pub fn process_real(&self, signal: &[f32]) -> Vec<Spectrum> {
        let mut out = Vec::with_capacity(self.num_windows(signal.len()));
        let mut buf = vec![Complex::ZERO; self.config.window_len / 2];
        let mut start = 0;
        while start + self.config.window_len <= signal.len() {
            let frame = &signal[start..start + self.config.window_len];
            out.push(self.frame_real(frame, start, &mut buf));
            start += self.config.hop;
        }
        out
    }

    /// Transforms a complex baseband signal (e.g. the EM receiver
    /// output) into its STS sequence. Positive and negative frequencies
    /// are folded, so AM sidebands at ±f merge into one peak at `f`.
    pub fn process_complex(&self, signal: &[Complex]) -> Vec<Spectrum> {
        let mut out = Vec::with_capacity(self.num_windows(signal.len()));
        let mut buf = vec![Complex::ZERO; self.config.window_len];
        let mut start = 0;
        while start + self.config.window_len <= signal.len() {
            let frame = &signal[start..start + self.config.window_len];
            out.push(self.frame_complex(frame, start, &mut buf));
            start += self.config.hop;
        }
        out
    }

    /// Processes one real frame of exactly `window_len` samples, with a
    /// `window_len / 2` scratch buffer. Both
    /// [`process_real`](Stft::process_real) and the incremental
    /// [`StreamingStft`](crate::StreamingStft) go through this method,
    /// so batch and chunked analysis of the same signal are
    /// bit-identical by construction: same summation order for the mean,
    /// same windowing, same half-length transform and split step.
    ///
    /// The `n` windowed samples are packed as `n/2` complex values,
    /// `z[k] = x[2k] + i·x[2k+1]`, so a real frame costs one `n/2`-point
    /// FFT instead of an `n`-point one with an all-zero imaginary half.
    pub(crate) fn frame_real(
        &self,
        frame: &[f32],
        start_sample: usize,
        buf: &mut [Complex],
    ) -> Spectrum {
        let obs = crate::obs::metrics();
        let mean = frame.iter().map(|&x| x as f64).sum::<f64>() / self.config.window_len as f64;
        let pairs = frame.chunks_exact(2).zip(self.coeffs.chunks_exact(2));
        for (z, (x, w)) in buf.iter_mut().zip(pairs) {
            *z = Complex::new((x[0] as f64 - mean) * w[0], (x[1] as f64 - mean) * w[1]);
        }
        {
            let _span = eddie_obs::Timer::start(obs.map(|m| m.fft_ns.as_ref()));
            self.fft.forward_half(buf);
        }
        if let Some(m) = obs {
            m.stft_frames.inc();
        }
        self.split_one_sided(buf, start_sample)
    }

    /// Processes one complex frame of exactly `window_len` samples.
    pub(crate) fn frame_complex(
        &self,
        frame: &[Complex],
        start_sample: usize,
        buf: &mut [Complex],
    ) -> Spectrum {
        let obs = crate::obs::metrics();
        for (b, (&x, &w)) in buf.iter_mut().zip(frame.iter().zip(self.coeffs.iter())) {
            *b = x.scale(w);
        }
        {
            let _span = eddie_obs::Timer::start(obs.map(|m| m.fft_ns.as_ref()));
            self.fft.forward(buf);
        }
        if let Some(m) = obs {
            m.stft_frames.inc();
        }
        self.fold_one_sided(buf, start_sample)
    }

    /// The one-sided power of a real frame from the `n/2`-point
    /// transform `Z` of its packed samples. `E[k] = (Z[k] + conj
    /// Z[n/2−k]) / 2` and `O[k] = (Z[k] − conj Z[n/2−k]) / 2i` are the
    /// transforms of the even and odd samples, so `X[k] = E[k] +
    /// W^k·O[k]` with the `n`-point twiddles `W^k`. A real frame has
    /// `X[n−k] = conj X[k]`, so bin `0 < k < n/2` holds `2|X[k]|²`: what
    /// [`fold_one_sided`](Self::fold_one_sided) sums from a full
    /// transform.
    fn split_one_sided(&self, z: &[Complex], start_sample: usize) -> Spectrum {
        let half = z.len();
        let mut power = vec![0.0f64; half + 1];
        // X[0] = E[0] + O[0] and X[n/2] = E[0] − O[0]; at n = 2 these
        // are the only bins.
        let (dc, nyquist) = (z[0].re + z[0].im, z[0].re - z[0].im);
        power[0] = dc * dc;
        power[half] = nyquist * nyquist;
        // Each term is computed at twice its size, 2E[k] and 2O[k], and
        // 2|X[k]|² = |2X[k]|² / 2; the power-of-two scalings are exact.
        let mirrored = z[1..].iter().zip(z[1..].iter().rev());
        let twiddles = &self.fft.half_twiddles()[1..];
        for ((p, (&a, &b)), &w) in power[1..half].iter_mut().zip(mirrored).zip(twiddles) {
            let (e, d) = (a + b.conj(), a - b.conj());
            let o = Complex::new(d.im, -d.re);
            *p = 0.5 * (e + w * o).norm_sqr();
        }
        Spectrum {
            power,
            bin_hz: self.bin_hz(),
            start_sample,
        }
    }

    /// The one-sided power of a complex frame's full transform: bin `k`
    /// sums the `+k` and `−k` frequencies.
    fn fold_one_sided(&self, bins: &[Complex], start_sample: usize) -> Spectrum {
        let n = self.config.window_len;
        let half = n / 2;
        let mut power = vec![0.0f64; half + 1];
        power[0] = bins[0].norm_sqr();
        power[half] = bins[half].norm_sqr();
        // Manually unrolled ×4: each lane folds an independent
        // `+k`/`-k` bin pair, so the four `norm_sqr` chains overlap in
        // the FP pipes instead of serialising on the output push. The
        // per-bin expression is unchanged, so the folded spectrum is
        // bit-identical to the rolled loop's.
        let mut k = 1usize;
        let mut lanes = power[1..half].chunks_exact_mut(4);
        for lane in &mut lanes {
            lane[0] = bins[k].norm_sqr() + bins[n - k].norm_sqr();
            lane[1] = bins[k + 1].norm_sqr() + bins[n - k - 1].norm_sqr();
            lane[2] = bins[k + 2].norm_sqr() + bins[n - k - 2].norm_sqr();
            lane[3] = bins[k + 3].norm_sqr() + bins[n - k - 3].norm_sqr();
            k += 4;
        }
        for slot in lanes.into_remainder() {
            *slot = bins[k].norm_sqr() + bins[n - k].norm_sqr();
            k += 1;
        }
        Spectrum {
            power,
            bin_hz: self.bin_hz(),
            start_sample,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_peaks, PeakConfig};
    use eddie_rand::SplitMix64;

    fn tone(fs: f64, hz: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * hz * i as f64 / fs).sin() as f32)
            .collect()
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Stft::new(StftConfig {
            window_len: 100,
            hop: 50,
            window: WindowKind::Hann,
            sample_rate_hz: 1e3
        })
        .is_err());
        assert!(Stft::new(StftConfig {
            window_len: 128,
            hop: 0,
            window: WindowKind::Hann,
            sample_rate_hz: 1e3
        })
        .is_err());
        assert!(Stft::new(StftConfig {
            window_len: 128,
            hop: 64,
            window: WindowKind::Hann,
            sample_rate_hz: f64::NAN
        })
        .is_err());
    }

    #[test]
    fn window_count_matches_formula() {
        let stft = Stft::new(StftConfig::with_overlap_50(256, 1e3)).unwrap();
        assert_eq!(stft.num_windows(255), 0);
        assert_eq!(stft.num_windows(256), 1);
        assert_eq!(stft.num_windows(256 + 128), 2);
        assert_eq!(
            stft.process_real(&vec![0.0; 512]).len(),
            stft.num_windows(512)
        );
    }

    #[test]
    fn tone_frequency_recovered_in_every_window() {
        let fs = 2000.0;
        let hz = 250.0;
        let stft = Stft::new(StftConfig::with_overlap_50(512, fs)).unwrap();
        let spectra = stft.process_real(&tone(fs, hz, 4096));
        for s in &spectra {
            let strongest = (1..s.len())
                .max_by(|&a, &b| s.power[a].total_cmp(&s.power[b]))
                .unwrap();
            assert!((s.freq_of_bin(strongest) - hz).abs() <= s.bin_hz);
        }
    }

    #[test]
    fn dc_removed_from_real_windows() {
        let stft = Stft::new(StftConfig::with_overlap_50(256, 1e3)).unwrap();
        let spectra = stft.process_real(&vec![5.0f32; 512]);
        for s in &spectra {
            assert!(
                s.power[0] < 1e-12,
                "constant signal should have no residual DC"
            );
        }
    }

    #[test]
    fn complex_sidebands_fold_to_positive_frequency() {
        // AM at baseband: 1 + m*cos(2π f t) has components at ±f.
        let fs = 1000.0;
        let f = 125.0;
        let n = 1024;
        let sig: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                Complex::new(1.0 + 0.5 * (2.0 * std::f64::consts::PI * f * t).cos(), 0.0)
            })
            .collect();
        let stft = Stft::new(StftConfig::with_overlap_50(512, fs)).unwrap();
        let spectra = stft.process_complex(&sig);
        let s = &spectra[0];
        let strongest_ac = (2..s.len())
            .max_by(|&a, &b| s.power[a].total_cmp(&s.power[b]))
            .unwrap();
        assert!((s.freq_of_bin(strongest_ac) - f).abs() <= s.bin_hz);
    }

    #[test]
    fn start_samples_advance_by_hop() {
        let stft = Stft::new(StftConfig::with_overlap_50(256, 1e3)).unwrap();
        let spectra = stft.process_real(&vec![0.0; 1024]);
        for (i, s) in spectra.iter().enumerate() {
            assert_eq!(s.start_sample, i * 128);
        }
    }

    #[test]
    fn durations_are_consistent() {
        let stft = Stft::new(StftConfig::with_overlap_50(512, 1e6)).unwrap();
        assert!((stft.window_duration_s() - 512e-6).abs() < 1e-12);
        assert!((stft.hop_duration_s() - 256e-6).abs() < 1e-12);
        assert!((stft.bin_hz() - 1e6 / 512.0).abs() < 1e-9);
    }

    /// Seeded frames of `n` samples: uniform noise on an offset, and
    /// two off-grid tones (the second weaker) on an offset with a
    /// little noise.
    fn frames(r: &mut SplitMix64, n: usize) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for _ in 0..6 {
            let offset = r.range(-5.0..5.0);
            out.push(
                (0..n)
                    .map(|_| (offset + r.range(-1.0..1.0)) as f32)
                    .collect(),
            );
        }
        for _ in 0..6 {
            let offset = r.range(-5.0..5.0);
            let nyquist = (n / 2) as f64;
            let tones = [
                (r.range(0.5..4.0), r.range(0.0..nyquist), r.range(0.0..6.3)),
                (r.range(0.1..0.5), r.range(0.0..nyquist), r.range(0.0..6.3)),
            ];
            out.push(
                (0..n)
                    .map(|j| {
                        let t = j as f64 / n as f64;
                        let sines: f64 = tones
                            .iter()
                            .map(|&(a, bin, phase)| {
                                a * (2.0 * std::f64::consts::PI * bin * t + phase).sin()
                            })
                            .sum();
                        (offset + sines + r.range(-0.01..0.01)) as f32
                    })
                    .collect(),
            );
        }
        out
    }

    /// The real path against the full complex transform of the same
    /// mean-removed frame, at every power-of-two length from 2 (a
    /// one-point half transform) to 4096 under every window shape:
    /// every bin within 1e-12 of the window's energy, and the same
    /// peaks in the same order.
    #[test]
    fn real_frames_match_the_complex_reference_at_every_length() {
        use WindowKind::{Blackman, Hamming, Hann, Rect};
        let mut r = SplitMix64::new(0x5EED_F00D);
        let peaks = PeakConfig::default();
        for (bits, window) in (1..=12).flat_map(|b| [Rect, Hann, Hamming, Blackman].map(|w| (b, w)))
        {
            let n = 1usize << bits;
            let config = StftConfig {
                window,
                ..StftConfig::with_overlap_50(n, 1e3)
            };
            let stft = Stft::new(config).unwrap();
            let (mut half, mut full) = (vec![Complex::ZERO; n / 2], vec![Complex::ZERO; n]);
            for (f, frame) in frames(&mut r, n).iter().enumerate() {
                let mean = frame.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
                let promoted: Vec<Complex> = frame
                    .iter()
                    .map(|&x| Complex::new(x as f64 - mean, 0.0))
                    .collect();
                let real = stft.frame_real(frame, 0, &mut half);
                let reference = stft.frame_complex(&promoted, 0, &mut full);
                assert_eq!(real.len(), reference.len(), "n={n}");
                // Hann and Blackman are all zeros at n = 2, and so are
                // both spectra.
                let energy: f64 = reference.power.iter().sum();
                for (k, (a, b)) in real.power.iter().zip(&reference.power).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12 * energy,
                        "n={n} {window:?} frame {f} bin {k}: {a} vs {b} (energy {energy})"
                    );
                }
                let bins = |s: &Spectrum| -> Vec<usize> {
                    find_peaks(s, &peaks).iter().map(|p| p.bin).collect()
                };
                assert_eq!(
                    bins(&real),
                    bins(&reference),
                    "n={n} {window:?} frame {f} peaks"
                );
            }
        }
    }
}
