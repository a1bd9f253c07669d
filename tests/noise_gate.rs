//! Noise-robustness gate: SVD denoising must rescue detection at an
//! SNR where the vanilla pipeline provably misses.
//!
//! The operating point was chosen empirically (see EXPERIMENTS.md and
//! the `noise-sweep` subcommand): a custom-ASIC-grade receiver pushed
//! to −6 dB sideband SNR, monitoring a weak injection (50 % duty,
//! 2-op payload). At that point the vanilla EM pipeline raises no
//! anomaly on any attacked run, while the same pipeline with a rank-1
//! SVD denoising stage detects every one — and neither pipeline false
//! positives on clean runs.
//!
//! CI runs this suite at `EDDIE_THREADS=1` and `EDDIE_THREADS=4` on
//! the quantized decide kernel; the byte-reproducibility test
//! additionally forces both pool widths in-process.

use eddie::core::{MonitorOutcome, Pipeline, SignalSource, TrainedModel};
use eddie::dsp::SvdDenoiserConfig;
use eddie::em::EmChannelConfig;
use eddie::exec::with_threads;
use eddie_experiments::diff::{gate_builder, Fixture};

const CLEAN_SEEDS: [u64; 2] = [5001, 6001];
const ATTACK_RUNS: u64 = 3;

/// The gate's RF environment: the §5.1 custom-ASIC receiver degraded
/// far past its nominal 12 dB, to −6 dB sideband SNR.
fn harsh_channel() -> EmChannelConfig {
    let mut c = EmChannelConfig::custom_asic(1);
    c.snr_db = -6.0;
    c
}

fn denoise_config() -> SvdDenoiserConfig {
    SvdDenoiserConfig::new().with_block_windows(16).with_rank(1)
}

fn pipeline(denoised: bool) -> Pipeline {
    let mut b = gate_builder().source(SignalSource::Em(harsh_channel()));
    if denoised {
        b = b.denoise(denoise_config());
    }
    b.build().expect("valid pipeline")
}

struct GateOutcome {
    model: TrainedModel,
    clean: Vec<MonitorOutcome>,
    attacked: Vec<MonitorOutcome>,
}

/// Trains on `p` (training at negative SNR is part of what the gate
/// checks), then monitors the clean runs and the *weak* attacks: a
/// half-duty two-op payload inside the hottest loop. Strong injections
/// stay detectable without denoising even at this SNR; the gate is
/// about the margin denoising buys.
fn evaluate(p: &Pipeline) -> GateOutcome {
    let fx = Fixture::gate();
    let w = &fx.workload;
    let model = fx.train_on(p);
    let clean = CLEAN_SEEDS
        .iter()
        .map(|&s| p.monitor(&model, w.program(), |m| w.prepare(m, s), None))
        .collect();
    let attacked = (0..ATTACK_RUNS)
        .map(|k| {
            p.monitor(
                &model,
                w.program(),
                |m| w.prepare(m, 5002 + k),
                fx.loop_injection(0.5, 2, 1001 + 2 * k),
            )
        })
        .collect();
    GateOutcome {
        model,
        clean,
        attacked,
    }
}

#[test]
fn denoised_detects_where_vanilla_misses() {
    let vanilla = evaluate(&pipeline(false));
    for (i, run) in vanilla.clean.iter().enumerate() {
        assert_eq!(
            run.first_anomaly(),
            None,
            "vanilla pipeline false-positives on clean run {i}"
        );
    }
    for (i, run) in vanilla.attacked.iter().enumerate() {
        assert_eq!(
            run.first_anomaly(),
            None,
            "operating point too easy: vanilla detects attacked run {i}; \
             the gate requires an SNR where it provably cannot"
        );
    }

    let denoised = evaluate(&pipeline(true));
    for (i, run) in denoised.clean.iter().enumerate() {
        assert_eq!(
            run.first_anomaly(),
            None,
            "denoised pipeline false-positives on clean run {i}"
        );
    }
    for (i, run) in denoised.attacked.iter().enumerate() {
        assert!(
            run.first_anomaly().is_some(),
            "denoised pipeline misses attacked run {i} at the gate's SNR"
        );
    }
}

#[test]
fn gate_outcome_byte_identical_across_thread_counts() {
    // The whole gate evaluation — EM synthesis with per-run noise
    // seeds, SVD denoising, training, monitoring — must not observe
    // the worker-pool width. Models are compared encoded (every f64
    // travels as its bit pattern, so equal bytes mean equal bits);
    // outcomes via their full event streams, which hold no floats.
    let run_all = || {
        [false, true].map(|d| {
            let out = evaluate(&pipeline(d));
            let events: Vec<_> = out
                .clean
                .iter()
                .chain(out.attacked.iter())
                .map(|o| (o.events.clone(), o.alarms.clone(), o.tracked.clone()))
                .collect();
            (out.model.to_bytes(), events)
        })
    };
    let serial = with_threads(1, run_all);
    let parallel = with_threads(4, run_all);
    assert_eq!(serial, parallel, "thread count observable in gate outcome");
}
