//! Hostile-input sweep over the two persisted artifacts: a trained
//! model, and a session snapshot that carries an STFT tail, a monitor
//! history and a denoiser's buffered block.
//!
//! Exhaustive, not by example:
//!
//! * every strict prefix of each encoding fails to decode;
//! * every length prefix, set to `u64::MAX` and to the remaining
//!   length plus one, is refused at that prefix — without a panic and
//!   without any allocation larger than the clean decode makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

use eddie_cfg::RegionGraph;
use eddie_codec::Decode;
use eddie_core::{train_from_labeled, EddieConfig, LabeledRun, Sts, TrainedModel};
use eddie_dsp::{Peak, SvdDenoiserConfig};
use eddie_isa::{ProgramBuilder, Reg, RegionId};
use eddie_stream::{MonitorSession, SessionSnapshot};

/// The system allocator, recording the largest single request made on
/// the current thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`, returning its result and the largest allocation it made.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(0));
    let r = f();
    (r, PEAK.with(Cell::get))
}

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

/// Two sequential loop regions, each trained on its own frequency.
fn model() -> TrainedModel {
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
    let graph = RegionGraph::from_program(&b.build().unwrap()).unwrap();
    let jitter = |i: usize| ((i * 7) % 5) as f64 * 0.5;
    let runs: Vec<LabeledRun> = [100.0, 300.0]
        .iter()
        .enumerate()
        .map(|(r, base)| LabeledRun {
            stss: (0..80).map(|i| sts(i, base + jitter(i))).collect(),
            labels: vec![RegionId::new(r as u32); 80],
        })
        .collect();
    train_from_labeled(&runs, &graph, &EddieConfig::quick()).unwrap()
}

/// A denoised session stopped mid-window and mid-block.
fn snapshot(model: TrainedModel) -> SessionSnapshot {
    let config = SvdDenoiserConfig::new().with_block_windows(8).with_rank(1);
    let mut session = MonitorSession::with_denoiser(Arc::new(model), 1000.0, config).unwrap();
    let samples: Vec<f32> = (0..1714).map(|i| ((i * 37) % 17) as f32 / 17.0).collect();
    let _ = session.push(&samples);
    let snap = session.snapshot();
    assert!(!snap.stft.pending.is_empty());
    assert!(snap
        .denoise
        .as_ref()
        .is_some_and(|d| !d.state.buffered.is_empty()));
    assert!(snap.monitor.retained_windows() > 0);
    snap
}

fn assert_hostile_input_refused<T: Decode + Debug>(what: &str, bytes: &[u8]) {
    let (clean, clean_peak) = peak_during(|| eddie_codec::from_bytes::<T>(bytes));
    clean.unwrap_or_else(|e| panic!("{what}: clean bytes must decode: {e}"));

    for cut in 0..bytes.len() {
        assert!(
            eddie_codec::from_bytes::<T>(&bytes[..cut]).is_err(),
            "{what}: the {cut}-byte prefix decoded"
        );
    }

    let offsets = eddie_codec::length_prefix_offsets::<T>(bytes).unwrap();
    assert!(offsets.len() > 3, "{what}: too few length prefixes to test");
    for &at in &offsets {
        let remaining = (bytes.len() - at - 8) as u64;
        for hostile in [u64::MAX, remaining + 1] {
            let mut forged = bytes.to_vec();
            forged[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let (result, peak) = peak_during(|| eddie_codec::from_bytes::<T>(&forged));
            let err = result.expect_err("a forged length prefix must be refused");
            assert_eq!(
                err.offset(),
                at,
                "{what}: length {hostile} at byte {at} must be refused at the prefix"
            );
            assert!(
                peak <= clean_peak,
                "{what}: length {hostile} at byte {at} allocated {peak} bytes \
                 (clean decode peaks at {clean_peak})"
            );
        }
    }
}

#[test]
fn trained_model_refuses_truncation_and_forged_lengths() {
    let bytes = model().to_bytes();
    assert_hostile_input_refused::<TrainedModel>("model", &bytes);
}

#[test]
fn session_snapshot_refuses_truncation_and_forged_lengths() {
    let bytes = snapshot(model()).to_bytes();
    assert_hostile_input_refused::<SessionSnapshot>("snapshot", &bytes);
}
