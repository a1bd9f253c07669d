use crate::{Complex, DspError};

/// An iterative decimation-in-time FFT: one radix-4 pass fusing the
/// first two radix-2 stages (whose twiddles are 1 and −i), then radix-2
/// stages, each walking its own contiguous twiddle table.
///
/// Twiddle factors and the bit-reversal permutation are precomputed at
/// construction, so one planner can be reused across the many windows of
/// an STFT without per-call allocation. A length-`n` planner also runs
/// the `n/2`-point transform behind the real-input STFT path, whose
/// stages and bit-reversal are a prefix of its own.
///
/// # Examples
///
/// ```
/// use eddie_dsp::{Complex, Fft};
///
/// let fft = Fft::new(8)?;
/// // A DC signal transforms to a single bin-0 component.
/// let mut buf = vec![Complex::ONE; 8];
/// fft.forward(&mut buf);
/// assert!((buf[0].re - 8.0).abs() < 1e-9);
/// assert!(buf[1..].iter().all(|c| c.abs() < 1e-9));
/// # Ok::<(), eddie_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    len: usize,
    /// Bit-reversed index for each position.
    rev: Vec<u32>,
    /// Per-stage twiddle tables, laid end to end: the stage combining
    /// blocks of `half` holds `e^{-2πik/(2·half)}` for `k` in
    /// `0..half`, starting at index `half - 1`. The last table
    /// (`half = len/2`) is `e^{-2πik/len}`.
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Creates a planner for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] unless `len` is a power of two
    /// and at least 2.
    pub fn new(len: usize) -> Result<Fft, DspError> {
        if len < 2 || !len.is_power_of_two() {
            return Err(DspError::BadLength { len });
        }
        let bits = len.trailing_zeros();
        let rev: Vec<u32> = (0..len as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let mut twiddles = Vec::with_capacity(len - 1);
        let mut half = 1;
        while half < len {
            twiddles.extend((0..half).map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / (2 * half) as f64;
                Complex::from_polar(1.0, angle)
            }));
            half *= 2;
        }
        Ok(Fft { len, rev, twiddles })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the transform length is zero (never; provided alongside
    /// [`len`](Self::len) for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward transform.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planner length.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.len, "buffer length must match planner");
        self.transform(buf);
    }

    /// In-place forward transform of length `len/2` — a one-point
    /// identity when `len` is 2.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not half the planner length.
    pub(crate) fn forward_half(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.len / 2,
            "buffer length must be half the planner's"
        );
        self.transform(buf);
    }

    /// `e^{-2πik/len}` for `k` in `0..len/2`: the twiddles of the last
    /// stage, and of the real-input split step.
    pub(crate) fn half_twiddles(&self) -> &[Complex] {
        &self.twiddles[self.len / 2 - 1..]
    }

    /// The forward transform of `buf.len()` points, `len` or `len/2`.
    fn transform(&self, buf: &mut [Complex]) {
        let n = buf.len();
        // A `len/2` transform's bit reversal is the planner's, one bit
        // shorter: for `i < len/2` the top bit of `i` is zero.
        let shift = (self.len / n).trailing_zeros();
        for (i, &r) in self.rev[..n].iter().enumerate() {
            let j = (r >> shift) as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        if n <= 2 {
            // One butterfly; a one-point transform (the half of a
            // two-point planner) is the identity.
            if n == 2 {
                let (a, b) = (buf[0], buf[1]);
                buf[0] = a + b;
                buf[1] = a - b;
            }
            return;
        }
        // The first two radix-2 stages as one radix-4 pass. Their
        // twiddles are 1 and −i, so no multiply is needed.
        for q in buf.chunks_exact_mut(4) {
            let (s0, d0) = (q[0] + q[1], q[0] - q[1]);
            let (s1, d1) = (q[2] + q[3], q[2] - q[3]);
            let d1 = Complex::new(d1.im, -d1.re);
            q[0] = s0 + s1;
            q[1] = d0 + d1;
            q[2] = s0 - s1;
            q[3] = d0 - d1;
        }
        let mut half = 4;
        while half < n {
            let twiddles = &self.twiddles[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let t = *b * w;
                    *b = *a - t;
                    *a += t;
                }
            }
            half *= 2;
        }
    }

    /// In-place inverse transform (including the `1/len` normalisation).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planner length.
    pub fn inverse(&self, buf: &mut [Complex]) {
        for c in buf.iter_mut() {
            *c = c.conj();
        }
        self.forward(buf);
        let k = 1.0 / self.len as f64;
        for c in buf.iter_mut() {
            *c = c.conj().scale(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference DFT.
    fn dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += x * Complex::from_polar(1.0, angle);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(Fft::new(0).is_err());
        assert!(Fft::new(1).is_err());
        assert!(Fft::new(12).is_err());
        assert!(Fft::new(16).is_ok());
    }

    #[test]
    fn matches_reference_dft() {
        // The radix-4 pass is skipped at n = 2 and covers the whole
        // transform at n = 4, so every length down to 2 is checked, and
        // the half transform down to its one-point identity.
        for bits in 1..=10 {
            let n = 1usize << bits;
            let fft = Fft::new(n).unwrap();
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new(((i * 37) % 11) as f64 - 5.0, ((i * 13) % 7) as f64))
                .collect();
            let mut full = input.clone();
            fft.forward(&mut full);
            let mut half = input[..n / 2].to_vec();
            fft.forward_half(&mut half);
            for (got, want) in [(full, dft(&input)), (half, dft(&input[..n / 2]))] {
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!((*a - *b).abs() < 1e-8, "n={n} bin {k}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let n = 128;
        let fft = Fft::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut buf = input.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&input) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 256;
        let fft = Fft::new(n).unwrap();
        let bin = 17;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::from_polar(
                    1.0,
                    2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64,
                )
            })
            .collect();
        fft.forward(&mut buf);
        let strongest = (0..n)
            .max_by(|&a, &b| buf[a].abs().total_cmp(&buf[b].abs()))
            .unwrap();
        assert_eq!(strongest, bin);
        assert!((buf[bin].abs() - n as f64).abs() < 1e-6);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let fft = Fft::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(((i % 5) as f64) - 2.0, 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|c| c.norm_sqr()).sum();
        let mut buf = input;
        fft.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        fft.forward(&mut buf);
    }
}
