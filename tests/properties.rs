//! Property-based tests on the core invariants of the reproduction's
//! substrates: FFT correctness, K-S test calibration, peak extraction,
//! CFG structure, and simulator determinism.

use eddie::cfg::{Cfg, LoopForest};
use eddie::dsp::{find_peaks, Complex, Fft, PeakConfig, Spectrum, Stft, StftConfig, WindowKind};
use eddie::isa::{BranchCond, Instr, Program, ProgramBuilder, Reg};
use eddie::rand::{check, vec_of, SplitMix64};
use eddie::sim::{SimConfig, Simulator};
use eddie::stats::descriptive::Edf;
use eddie::stats::ks::{ks_statistic, ks_test, KsOutcome};

/// Cases per property.
const CASES: usize = 64;

fn floats(r: &mut SplitMix64, len: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    vec_of(r, len, |r| r.range(lo..hi))
}

/// FFT followed by inverse FFT is the identity (up to rounding).
#[test]
fn fft_round_trips() {
    check(
        CASES,
        |r| floats(r, 64..65, -1e3, 1e3),
        |values| {
            let fft = Fft::new(64).unwrap();
            let mut buf: Vec<Complex> = values.iter().map(|&v| Complex::new(v, -v * 0.5)).collect();
            let original = buf.clone();
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&original) {
                assert!((a.re - b.re).abs() < 1e-6);
                assert!((a.im - b.im).abs() < 1e-6);
            }
        },
    );
}

/// The FFT equals the O(n²) DFT at every power-of-two length from 2
/// to 1024: below 4 there is no radix-4 pass, at 4 it is the whole
/// transform, and above it radix-2 stages follow.
#[test]
fn fft_matches_dft_at_every_length() {
    check(
        CASES,
        |r| floats(r, 2048..2049, -1e3, 1e3),
        |values| {
            for bits in 1..=10 {
                let n = 1usize << bits;
                let input: Vec<Complex> = values[..2 * n]
                    .chunks_exact(2)
                    .map(|c| Complex::new(c[0], c[1]))
                    .collect();
                let roots: Vec<Complex> = (0..n)
                    .map(|j| {
                        Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * j as f64 / n as f64)
                    })
                    .collect();
                let mut buf = input.clone();
                Fft::new(n).unwrap().forward(&mut buf);
                let scale: f64 = input.iter().map(|c| c.abs()).sum();
                for (k, got) in buf.iter().enumerate() {
                    let want = input
                        .iter()
                        .enumerate()
                        .fold(Complex::ZERO, |acc, (j, &x)| acc + x * roots[j * k % n]);
                    assert!(
                        (*got - want).abs() <= 1e-12 * scale,
                        "n={n} bin {k}: {got} vs {want}"
                    );
                }
            }
        },
    );
}

/// Parseval: time-domain and frequency-domain energies agree.
#[test]
fn fft_preserves_energy() {
    check(
        CASES,
        |r| floats(r, 128..129, -1e2, 1e2),
        |values| {
            let fft = Fft::new(128).unwrap();
            let mut buf: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let time_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum();
            fft.forward(&mut buf);
            let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / 128.0;
            assert!((time_energy - freq_energy).abs() <= 1e-6 * (1.0 + time_energy));
        },
    );
}

/// The K-S statistic is a pseudometric: symmetric, zero on self,
/// bounded by 1.
#[test]
fn ks_statistic_is_symmetric_and_bounded() {
    check(
        CASES,
        |r| (floats(r, 1..60, -1e6, 1e6), floats(r, 1..60, -1e6, 1e6)),
        |(a, b)| {
            let d_ab = ks_statistic(a, b);
            let d_ba = ks_statistic(b, a);
            assert!((d_ab - d_ba).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&d_ab));
            assert!(ks_statistic(a, a) == 0.0);
        },
    );
}

/// A sample drawn from the reference itself never has a larger K-S
/// distance than a sample shifted completely out of range.
#[test]
fn ks_orders_in_vs_out_of_distribution() {
    check(
        CASES,
        |r| (floats(r, 30..80, 0.0, 100.0), r.range(5usize..20)),
        |(base, take)| {
            let shifted: Vec<f64> = base.iter().take(*take).map(|x| x + 1e6).collect();
            let subset: Vec<f64> = base.iter().take(*take).copied().collect();
            assert!(ks_statistic(base, &shifted) >= ks_statistic(base, &subset));
            assert_eq!(ks_test(base, &shifted, 0.99).outcome, KsOutcome::Reject);
        },
    );
}

/// The EDF is a valid CDF: monotone, 0 below the minimum, 1 at the
/// maximum.
#[test]
fn edf_is_a_cdf() {
    check(
        CASES,
        |r| floats(r, 1..100, -1e3, 1e3),
        |sample| {
            let edf = Edf::new(sample);
            let min = sample.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(edf.eval(min - 1.0), 0.0);
            assert_eq!(edf.eval(max), 1.0);
            let mut prev = 0.0;
            for k in 0..20 {
                let x = min + (max - min) * k as f64 / 19.0;
                let v = edf.eval(x);
                assert!(v >= prev - 1e-12);
                prev = v;
            }
        },
    );
}

/// Every reported peak holds at least the configured energy share
/// and peaks arrive sorted strongest-first.
#[test]
fn peaks_satisfy_energy_rule() {
    check(
        CASES,
        |r| floats(r, 64..65, 0.0, 10.0),
        |power| {
            let spectrum = Spectrum {
                power: power.clone(),
                bin_hz: 1.0,
                start_sample: 0,
            };
            let cfg = PeakConfig::default();
            let peaks = find_peaks(&spectrum, &cfg);
            let total = spectrum.ac_energy(cfg.min_bin);
            for pair in peaks.windows(2) {
                assert!(pair[0].power >= pair[1].power);
            }
            for p in &peaks {
                assert!(p.power >= cfg.energy_fraction * total - 1e-12);
                assert!(p.bin >= cfg.min_bin);
            }
        },
    );
}

/// STFT window count matches the closed-form formula for any signal
/// length.
#[test]
fn stft_window_count() {
    check(
        CASES,
        |r| r.range(0usize..2000),
        |&extra| {
            let stft = Stft::new(StftConfig {
                window_len: 256,
                hop: 128,
                window: WindowKind::Hann,
                sample_rate_hz: 1e6,
            })
            .unwrap();
            let n = 256 + extra;
            let spectra = stft.process_real(&vec![0.5f32; n]);
            assert_eq!(spectra.len(), stft.num_windows(n));
            assert_eq!(spectra.len(), 1 + (n - 256) / 128);
        },
    );
}

/// CFG blocks partition the program: every instruction is in exactly
/// one block and block boundaries are contiguous.
#[test]
fn cfg_blocks_partition_program() {
    check(
        CASES,
        |r| (r.range(1usize..20), r.range(0usize..20)),
        |&(body_len, branch_at)| {
            let mut instrs = vec![Instr::Nop; body_len];
            let target = branch_at % body_len;
            instrs.push(Instr::Branch(BranchCond::Eq, Reg::R1, Reg::R2, target));
            instrs.push(Instr::Halt);
            let program = Program::new(instrs).unwrap();
            let cfg = Cfg::from_program(&program).unwrap();
            let mut covered = 0;
            let mut pos = 0;
            for b in cfg.blocks() {
                assert_eq!(b.start, pos);
                covered += b.len();
                pos = b.end;
            }
            assert_eq!(covered, program.len());
            // Loop discovery never panics and finds at most one loop here.
            let forest = LoopForest::compute(&cfg);
            assert!(forest.nests().len() <= 1);
        },
    );
}

/// The simulator is deterministic: identical programs and inputs
/// produce identical traces, and injected-span bounds are ordered.
#[test]
fn simulator_is_deterministic() {
    check(
        CASES,
        |r| (r.range(10i64..200), r.range(1usize..6)),
        |&(iters, body)| {
            let mut b = ProgramBuilder::new();
            let (i, n, acc) = (Reg::R1, Reg::R2, Reg::R3);
            b.li(n, iters).li(i, 0);
            let top = b.label_here("top");
            for _ in 0..body {
                b.add(acc, acc, i);
            }
            b.addi(i, i, 1).blt_label(i, n, top);
            b.halt();
            let program = b.build().unwrap();
            let mut cfg = SimConfig::iot_inorder();
            cfg.sample_interval = 4;
            let r1 = Simulator::new(cfg.clone(), program.clone()).run();
            let r2 = Simulator::new(cfg, program).run();
            assert_eq!(&r1, &r2);
            assert!(r1.stats.instrs >= iters as u64 * body as u64);
        },
    );
}
