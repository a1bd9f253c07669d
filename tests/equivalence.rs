//! Streaming-vs-batch equivalence suite.
//!
//! The contract under test: feeding a run's signal through a
//! [`MonitorSession`] in *arbitrary* chunk sizes yields byte-identical
//! monitor events — and the identical first-anomaly window — to the
//! batch `Pipeline::monitor_result` path on the whole signal, at every
//! worker-pool width. CI runs this suite under `EDDIE_THREADS=1` and
//! `EDDIE_THREADS=4`.

use std::sync::Arc;

use eddie::core::{MonitorEvent, Pipeline};
use eddie::dsp::{find_peaks, Complex, Spectrum, Stft, StftConfig, SvdDenoiserConfig};
use eddie::exec::with_threads;
use eddie::stream::{Fleet, FleetConfig, MonitorSession, PushResult, SessionSnapshot};
use eddie_experiments::diff::{self, chunked, gate_builder, Fixture};

const MONITOR_RUNS: usize = 4;

fn denoise_config() -> SvdDenoiserConfig {
    SvdDenoiserConfig::new().with_block_windows(8).with_rank(2)
}

fn denoised_pipeline() -> Pipeline {
    gate_builder()
        .power()
        .denoise(denoise_config())
        .build()
        .expect("valid pipeline")
}

#[test]
fn session_matches_batch_for_many_chunkings() {
    let fx = Fixture::gate();
    // Alternating clean / in-loop-injected runs, mirroring the batch
    // determinism suite.
    for run in fx.first_runs(MONITOR_RUNS) {
        let signal = &run.signal;
        for (seed, max_chunk) in [(7, 1usize), (11, 97), (13, 1024), (17, signal.len().max(1))] {
            let chunks = chunked(signal, seed, max_chunk);
            let streamed = diff::session(&fx.model, run.rate, &chunks, None, None);
            assert_eq!(streamed.session.samples_seen(), signal.len());
            run.check("session", &streamed.events).unwrap();
            let first = streamed
                .events
                .iter()
                .position(|e| e.event == MonitorEvent::Anomaly);
            assert_eq!(first, run.batch.first_anomaly(), "first anomaly differs");
            assert_eq!(
                streamed.session.alarm(),
                *run.batch.alarms.last().unwrap_or(&false),
                "run {}: final alarm state differs",
                run.k
            );
        }
    }
}

/// Every window of the gate runs' power signal goes through the
/// real-input STFT path. Each must have the same peak bins, in the same
/// rank order, as the per-window complex reference: the mean-removed
/// frame promoted to complex and transformed in full.
#[test]
fn real_stft_peaks_match_the_complex_reference_on_every_gate_window() {
    let fx = Fixture::gate();
    let cfg = fx.pipeline.eddie_config();
    let n = cfg.window_len;
    let mut peaks_compared = 0;
    for run in &fx.runs {
        let stft = Stft::new(StftConfig {
            window_len: n,
            hop: cfg.hop,
            window: cfg.window,
            sample_rate_hz: run.rate,
        })
        .expect("gate STFT config");
        let spectra = stft.process_real(&run.signal);
        assert_eq!(spectra.len(), run.expected.len(), "run {}", run.k);
        let ranked = |s: &Spectrum| -> Vec<usize> {
            find_peaks(s, &cfg.peaks).iter().map(|p| p.bin).collect()
        };
        for (w, real) in spectra.iter().enumerate() {
            let frame = &run.signal[real.start_sample..real.start_sample + n];
            let mean = frame.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
            let promoted: Vec<Complex> = frame
                .iter()
                .map(|&x| Complex::new(x as f64 - mean, 0.0))
                .collect();
            let reference = &stft.process_complex(&promoted)[0];
            let bins = ranked(real);
            assert_eq!(
                bins,
                ranked(reference),
                "run {} ({}) window {w}",
                run.k,
                run.label()
            );
            peaks_compared += bins.len();
        }
    }
    assert!(peaks_compared > 0, "the gate windows carry peaks");
}

#[test]
fn fleet_matches_batch_at_1_and_4_threads() {
    let fx = Fixture::gate();
    let runs = fx.first_runs(MONITOR_RUNS);
    let devices: Vec<_> = runs
        .iter()
        .map(|r| (r.rate, chunked(&r.signal, 100 + r.k as u64, 777)))
        .collect();
    // Small bounds so the feed loop actually exercises Full+drain.
    let config = FleetConfig::builder()
        .with_max_pending_chunks(8)
        .with_max_pending_samples(1 << 14)
        .build()
        .unwrap();
    let serial = with_threads(1, || diff::fleet(&fx.model, config, &devices));
    let parallel = with_threads(4, || diff::fleet(&fx.model, config, &devices));
    for (run, streamed) in runs.iter().zip(&serial) {
        run.check("fleet", streamed).unwrap();
    }
    // Events hold no floats, so PartialEq here is bit-exact.
    assert_eq!(serial, parallel, "thread count must be unobservable");
}

#[test]
fn snapshot_restore_mid_window_at_unaligned_boundary() {
    // A snapshot taken at a chunk boundary that is deliberately NOT a
    // multiple of the STFT hop: the streaming state holds a partial
    // window (overlap tail + a few fresh samples) that must survive the
    // byte round trip bit-exactly for the continuation to match.
    let fx = Fixture::gate();
    let model = &fx.model;
    let run = &fx.runs[1];
    let signal = &run.signal;
    let rate = run.rate;
    let hop = model.config.hop;

    // Cut points straddling window boundaries: mid-first-window, one
    // sample past a hop multiple, and deep into the stream off-grid.
    for cut in [hop / 2, 4 * hop + 1, 21 * hop + hop - 3] {
        let cut = cut.min(signal.len());
        assert_ne!(cut % hop, 0, "cut must be mid-window for this test");

        let mut uninterrupted = MonitorSession::new(model.clone(), rate).unwrap();
        let mut expected = uninterrupted.push(&signal[..cut]);
        expected.extend(uninterrupted.push(&signal[cut..]));

        let mut first_half = MonitorSession::new(model.clone(), rate).unwrap();
        let mut streamed = first_half.push(&signal[..cut]);
        let snap = first_half.snapshot();
        // The interesting case: the snapshot really is mid-window — it
        // carries pending samples and sits off the hop grid.
        assert!(!snap.stft.pending.is_empty());
        assert_ne!(
            (snap.stft.base + snap.stft.pending.len()) % hop,
            0,
            "snapshot at cut {cut} should sit mid-window"
        );
        let restored = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut second_half = MonitorSession::restore(model.clone(), restored).unwrap();
        streamed.extend(second_half.push(&signal[cut..]));

        assert_eq!(streamed, expected, "cut {cut}: events diverged");
        assert_eq!(second_half.samples_seen(), signal.len());
        assert_eq!(
            second_half.windows_observed(),
            uninterrupted.windows_observed()
        );
    }
}

#[test]
fn full_shed_path_counts_and_preserves_accepted_prefix() {
    // The PushResult::Full path: rejected chunks must leave the session
    // exactly as if the client had never sent them, and must be counted
    // in Fleet::stats so shed load is observable after the fact.
    let fx = Fixture::gate();
    let model = &fx.model;
    let run = &fx.runs[0];
    let rate = run.rate;

    let mut fleet = Fleet::new(
        FleetConfig::builder()
            .with_max_pending_chunks(4)
            .with_max_pending_samples(usize::MAX)
            .build()
            .unwrap(),
    );
    let dev = fleet.add_session(MonitorSession::new(model.clone(), rate).unwrap());

    // Offer chunks without ever draining: the first 4 are accepted,
    // everything after is shed.
    let offered: Vec<&[f32]> = run.signal.chunks(301).collect();
    let mut accepted: Vec<f32> = Vec::new();
    let mut shed_chunks = 0u64;
    let mut shed_samples = 0u64;
    for chunk in &offered {
        match fleet.push_chunk(dev, chunk.to_vec()) {
            PushResult::Accepted => accepted.extend(chunk.iter()),
            PushResult::Full => {
                shed_chunks += 1;
                shed_samples += chunk.len() as u64;
            }
        }
    }
    assert!(shed_chunks > 0, "test must exercise the shed path");

    let stats = fleet.stats();
    assert_eq!(stats.shed_chunks, shed_chunks);
    assert_eq!(stats.shed_samples, shed_samples);
    assert_eq!(stats.devices[0].queued_chunks, 4);
    assert_eq!(stats.devices[0].queued_samples, accepted.len());

    // Draining processes exactly the accepted prefix: same events as a
    // bare session fed only those samples.
    let [(drained, events)]: [_; 1] = fleet.drain().try_into().expect("only the fed device");
    assert_eq!(drained, dev);
    let mut reference = MonitorSession::new(model.clone(), rate).unwrap();
    let expected = reference.push(&accepted);
    assert_eq!(events, expected, "shed chunks must not affect the session");
    assert_eq!(fleet.session(dev).samples_seen(), accepted.len());

    // After draining, stats show an idle device but remember the shed.
    let stats = fleet.stats();
    assert_eq!(stats.queued_chunks, 0);
    assert_eq!(stats.shed_chunks, shed_chunks);
}

#[test]
fn denoised_session_matches_batch_at_1_and_4_threads() {
    // Same contract as the vanilla suite, but with the SVD denoising
    // stage in the path on both sides: a session created with
    // `with_denoiser` must emit — for any chunking, plus one `finish`
    // at end-of-stream — exactly the events of a batch pipeline built
    // with `PipelineBuilder::denoise`, at every worker-pool width.
    let fx = Fixture::gate();
    let pipeline = denoised_pipeline();
    let model = Arc::new(fx.train_on(&pipeline));

    let run_streams = || {
        (0..MONITOR_RUNS)
            .map(|k| {
                let run = fx.run_on(&pipeline, &model, k);
                let signal = &run.signal;
                for (seed, max_chunk) in [(7, 1usize), (11, 97), (13, signal.len().max(1))] {
                    let chunks = chunked(signal, seed, max_chunk);
                    let mut streamed =
                        diff::session(&model, run.rate, &chunks, Some(&denoise_config()), None);
                    // Without the final flush the stream is a strict
                    // prefix of the batch events.
                    assert!(streamed.events.len() <= run.expected.len(), "run {k}");
                    streamed.events.extend(streamed.session.finish());
                    assert_eq!(streamed.session.samples_seen(), signal.len());
                    run.check("denoised session", &streamed.events).unwrap();
                }
                (run.batch.events, run.batch.alarms, run.batch.tracked)
            })
            .collect::<Vec<_>>()
    };

    let serial = with_threads(1, run_streams);
    let parallel = with_threads(4, run_streams);
    // The batch outcomes themselves must also be thread-invariant
    // (events, alarms and regions hold no floats: PartialEq is exact).
    assert_eq!(
        serial, parallel,
        "thread count must be unobservable in denoised outcomes"
    );
}

#[test]
fn denoised_snapshot_restore_mid_block_continues_identically() {
    // Snapshot/restore with windows buffered inside the denoiser: the
    // buffered tail must survive the byte round trip for the resumed
    // session to stay event-identical.
    let fx = Fixture::gate();
    let pipeline = denoised_pipeline();
    let model = Arc::new(fx.train_on(&pipeline));
    let run = fx.run_on(&pipeline, &model, 1);

    let chunks = chunked(&run.signal, 29, 701);
    let mut streamed = diff::session(&model, run.rate, &chunks, Some(&denoise_config()), Some(3));
    streamed.events.extend(streamed.session.finish());
    assert!(
        streamed.buffered_snapshots > 0,
        "test must exercise a snapshot with a buffered partial block"
    );
    run.check("denoised snapshot/restore", &streamed.events)
        .unwrap();
}

#[test]
fn snapshot_restore_mid_stream_continues_identically() {
    let fx = Fixture::gate();
    // Use an injected run so the resumed half crosses anomaly territory.
    let run = &fx.runs[1];
    let chunks = chunked(&run.signal, 23, 501);
    let uninterrupted = diff::session(&fx.model, run.rate, &chunks, None, None);

    // Same chunking, but snapshot/restore through bytes at every third
    // chunk boundary — including boundaries that fall mid-window.
    let restored = diff::session(&fx.model, run.rate, &chunks, None, Some(3));
    assert_eq!(restored.events, uninterrupted.events);
    assert_eq!(
        restored.session.windows_observed(),
        uninterrupted.session.windows_observed()
    );
    assert_eq!(
        restored.session.samples_seen(),
        uninterrupted.session.samples_seen()
    );
}
