//! Determinism regression suite for the parallel execution layer.
//!
//! The headline guarantee of `eddie-exec` is that parallel execution is
//! an implementation detail: every run is fully determined by its seed,
//! and results are collected by index, so `Pipeline::train` and
//! `Pipeline::monitor_batch` must produce **byte-identical** output for
//! every worker-pool width.
//!
//! CI runs this suite twice — `EDDIE_THREADS=1` and `EDDIE_THREADS=4` —
//! so the ambient-environment path is proven as well as the
//! programmatic `with_threads` overrides exercised here.

use eddie::core::MonitorOutcome;
use eddie::em::EmChannelConfig;
use eddie::exec::with_threads;
use eddie_experiments::diff::{gate_builder, Fixture};

const MONITOR_RUNS: usize = 4;

#[test]
fn train_identical_at_1_and_4_threads() {
    let fx = Fixture::gate();
    let serial = with_threads(1, || fx.train_on(&fx.pipeline));
    let parallel = with_threads(4, || fx.train_on(&fx.pipeline));
    assert_eq!(serial, parallel);
    // Byte-identical, not merely PartialEq: the encoded models carry
    // every f64 as its bit pattern, so equal bytes mean equal bits.
    assert_eq!(serial.to_bytes(), parallel.to_bytes());
}

#[test]
fn train_identical_through_em_channel() {
    // The EM path derives a per-run noise seed from the run seed — the
    // derivation must not observe thread count or scheduling.
    let pipeline = gate_builder()
        .em(EmChannelConfig::oscilloscope(3))
        .build()
        .expect("valid pipeline");
    let fx = Fixture::gate();
    let serial = with_threads(1, || fx.train_on(&pipeline));
    let parallel = with_threads(4, || fx.train_on(&pipeline));
    assert_eq!(serial.to_bytes(), parallel.to_bytes());
}

#[test]
fn monitor_batch_identical_at_1_and_4_threads() {
    let fx = Fixture::gate();
    let serial = with_threads(1, || fx.monitor_batch(&fx.model, MONITOR_RUNS));
    let parallel = with_threads(4, || fx.monitor_batch(&fx.model, MONITOR_RUNS));
    assert_eq!(serial.len(), MONITOR_RUNS);
    assert_eq!(serial, parallel);
}

#[test]
fn monitor_batch_matches_serial_monitor_calls() {
    // The batch is not just self-consistent: it must equal what the
    // one-run-at-a-time API produces for the same seeds and hooks.
    let fx = Fixture::gate();
    let w = &fx.workload;
    let batch = with_threads(4, || fx.monitor_batch(&fx.model, MONITOR_RUNS));
    let loop_outcomes: Vec<MonitorOutcome> = (0..MONITOR_RUNS)
        .map(|k| {
            fx.pipeline.monitor(
                &fx.model,
                w.program(),
                |m| w.prepare(m, 1000 + k as u64),
                fx.hook(k),
            )
        })
        .collect();
    assert_eq!(batch, loop_outcomes);
}

#[test]
fn ambient_thread_count_matches_forced_serial() {
    // Run under whatever EDDIE_THREADS the environment sets (the CI
    // gate uses 1 and 4) and compare against forced-serial execution.
    let fx = Fixture::gate();
    let ambient_model = fx.train_on(&fx.pipeline);
    let serial_model = with_threads(1, || fx.train_on(&fx.pipeline));
    assert_eq!(ambient_model, serial_model);
    let ambient = fx.monitor_batch(&ambient_model, MONITOR_RUNS);
    let serial = with_threads(1, || fx.monitor_batch(&ambient_model, MONITOR_RUNS));
    assert_eq!(ambient, serial);
}
