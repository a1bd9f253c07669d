//! Kernel-equivalence gate: the quantized decide kernel must be an
//! *observationally invisible* optimisation. Every test drives the same
//! stream through `KernelMode::Reference` (the original float path) and
//! `KernelMode::Quantized` (tables + `u16` lanes) and demands identical
//! `MonitorEvent` streams — including the adversarial cases: injected
//! anomaly bursts, region transitions, re-synchronisation, off-grid
//! frequencies that force the per-dimension float fallback, and
//! state snapshot/resume in the middle of a stream.
//!
//! The reference kernel is reachable only through `with_kernel_mode`:
//! it exists as this suite's oracle. CI runs the suite at
//! `EDDIE_THREADS=1` and `EDDIE_THREADS=4`, so the worker-pool width
//! is crossed with the kernel dimension too.

use eddie::cfg::RegionGraph;
use eddie::core::{
    train_from_labeled, with_kernel_mode, EddieConfig, KernelMode, LabeledRun, Monitor,
    MonitorEvent, MonitorOutcome, Sts, TrainedModel,
};
use eddie::dsp::Peak;
use eddie::exec::with_threads;
use eddie::isa::{ProgramBuilder, Reg, RegionId};
use eddie_experiments::diff::Fixture;

fn sts(index: usize, freq: f64) -> Sts {
    Sts {
        index,
        start_sample: index,
        peaks: vec![Peak {
            bin: 1,
            freq_hz: freq,
            power: 1.0,
            fraction: 0.5,
        }],
        centroid_hz: freq,
        spread_hz: 1.0,
    }
}

fn two_loop_graph() -> RegionGraph {
    let mut b = ProgramBuilder::new();
    let (i, n) = (Reg::R1, Reg::R2);
    b.li(n, 8);
    for r in 0..2u32 {
        b.li(i, 0);
        b.region_enter(RegionId::new(r));
        let top = b.label_here("t");
        b.addi(i, i, 1).blt_label(i, n, top);
        b.region_exit(RegionId::new(r));
    }
    b.halt();
    RegionGraph::from_program(&b.build().unwrap()).unwrap()
}

/// Region 0 around 100 Hz, region 1 around 300 Hz, on a half-hertz grid.
fn synthetic_model() -> TrainedModel {
    let graph = two_loop_graph();
    let jitter = |i: usize| ((i * 7) % 5) as f64 * 0.5;
    let run0 = LabeledRun {
        stss: (0..80).map(|i| sts(i, 100.0 + jitter(i))).collect(),
        labels: vec![RegionId::new(0); 80],
    };
    let run1 = LabeledRun {
        stss: (0..80).map(|i| sts(i, 300.0 + jitter(i))).collect(),
        labels: vec![RegionId::new(1); 80],
    };
    train_from_labeled(&[run0, run1], &graph, &EddieConfig::quick()).unwrap()
}

fn events_under(model: &TrainedModel, freqs: &[f64], mode: KernelMode) -> Vec<MonitorEvent> {
    with_kernel_mode(mode, || {
        let mut mon = Monitor::new(model);
        freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| mon.observe(sts(i, f)))
            .collect()
    })
}

/// A stream exercising every monitor path: normal tracking, a legal
/// region change, an unexplained burst long enough to trip the alarm
/// *and* the `4x report_threshold` global re-synchronisation, recovery,
/// and values off the training grid (`+0.3` offsets are not on the
/// half-hertz lattice, so the quantized kernel must take its float
/// fallback for those windows).
fn adversarial_stream() -> Vec<f64> {
    let jitter = |i: usize| ((i * 7) % 5) as f64 * 0.5;
    (0..400)
        .map(|i| match i {
            0..=59 => 100.0 + jitter(i),
            60..=119 => 300.0 + jitter(i),
            120..=199 => 777.0 + jitter(i), // unexplained burst
            200..=259 => 100.0 + jitter(i), // re-sync target
            260..=299 => 100.3 + jitter(i), // off-grid: float fallback
            _ => 300.0 + jitter(i),
        })
        .collect()
}

#[test]
fn synthetic_stream_events_identical_across_kernels() {
    let model = synthetic_model();
    let stream = adversarial_stream();
    let reference = events_under(&model, &stream, KernelMode::Reference);
    let quantized = events_under(&model, &stream, KernelMode::Quantized);
    assert_eq!(reference, quantized);
    // The stream actually exercised the interesting transitions.
    assert!(reference
        .iter()
        .any(|e| matches!(e, MonitorEvent::RegionChange(_))));
    assert!(reference.contains(&MonitorEvent::Anomaly));
}

#[test]
fn spectral_moment_dims_fall_back_identically() {
    // Centroid/spread dimensions rarely sit on a uniform grid, so this
    // pins the per-dimension float-fallback path against the reference.
    let graph = two_loop_graph();
    let mut cfg = EddieConfig::quick();
    cfg.use_spectral_moments = true;
    let moment_sts = |i: usize, f: f64| {
        let mut s = sts(i, f);
        // Irregular moments: no exact uniform grid exists for these.
        s.centroid_hz = f + (i as f64 * 0.001).sin().abs();
        s.spread_hz = 1.0 + (i as f64 * 0.003).cos().abs();
        s
    };
    let run0 = LabeledRun {
        stss: (0..80)
            .map(|i| moment_sts(i, 100.0 + ((i * 7) % 5) as f64 * 0.5))
            .collect(),
        labels: vec![RegionId::new(0); 80],
    };
    let run1 = LabeledRun {
        stss: (0..80)
            .map(|i| moment_sts(i, 300.0 + ((i * 7) % 5) as f64 * 0.5))
            .collect(),
        labels: vec![RegionId::new(1); 80],
    };
    let model = train_from_labeled(&[run0, run1], &graph, &cfg).unwrap();

    let run = |mode| {
        with_kernel_mode(mode, || {
            let mut mon = Monitor::new(&model);
            (0..300)
                .map(|i| {
                    let f = if (100..140).contains(&i) {
                        777.0
                    } else {
                        100.0 + ((i * 7) % 5) as f64 * 0.5
                    };
                    mon.observe(moment_sts(i, f))
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(KernelMode::Reference), run(KernelMode::Quantized));
}

#[test]
fn state_round_trip_is_kernel_agnostic() {
    // Snapshot under one kernel, resume under the other: the cache is
    // rebuilt from history, so the continuation must not notice.
    let model = synthetic_model();
    let stream = adversarial_stream();
    let continuous = events_under(&model, &stream, KernelMode::Reference);

    for split in [17usize, 130, 210] {
        let mut events = with_kernel_mode(KernelMode::Quantized, || {
            let mut mon = Monitor::new(&model);
            stream[..split]
                .iter()
                .enumerate()
                .map(|(i, &f)| mon.observe(sts(i, f)))
                .collect::<Vec<_>>()
        });
        // Encode/decode the state between kernels.
        let state = with_kernel_mode(KernelMode::Quantized, || {
            let mut mon = Monitor::new(&model);
            for (i, &f) in stream[..split].iter().enumerate() {
                mon.observe(sts(i, f));
            }
            eddie::codec::to_bytes(mon.state())
        });
        let restored = eddie::codec::from_bytes(&state).unwrap();
        events.extend(with_kernel_mode(KernelMode::Reference, || {
            let mut mon = Monitor::from_state(&model, restored);
            stream[split..]
                .iter()
                .enumerate()
                .map(|(i, &f)| mon.observe(sts(split + i, f)))
                .collect::<Vec<_>>()
        }));
        assert_eq!(continuous, events, "split at {split}");
    }
}

#[test]
fn full_pipeline_outcomes_identical_across_kernels_and_threads() {
    // End to end: simulate, STFT, peaks, monitor — clean and injected
    // runs — under every (kernel, worker-pool width) combination.
    let fx = Fixture::gate();
    let batch = |mode: KernelMode, threads: usize| -> Vec<MonitorOutcome> {
        with_kernel_mode(mode, || {
            with_threads(threads, || fx.monitor_batch(&fx.model, 4))
        })
    };
    let baseline = batch(KernelMode::Reference, 1);
    assert_eq!(baseline, batch(KernelMode::Quantized, 1));
    assert_eq!(baseline, batch(KernelMode::Quantized, 4));
    assert_eq!(baseline, batch(KernelMode::Reference, 4));
}
