//! Store-tier CI gate: park → thaw → replay byte-identity and ledger
//! conservation, at every worker-pool width and across decide kernels.
//!
//! The contract under test extends the streaming equivalence guarantee
//! through the cold tier: a session that crosses the spill log — parked
//! mid-stream, restored from its snapshot on the next chunk — must emit
//! exactly the events the batch path computes for the whole signal. CI
//! runs this suite under `EDDIE_THREADS=1` and `EDDIE_THREADS=4`; the
//! cross-kernel tests use `with_kernel_mode` to flip between the
//! quantized kernel and its reference oracle *between* park and thaw,
//! proving the spill snapshot is kernel-agnostic.

use eddie::core::KernelMode;
use eddie::stream::{Fleet, FleetConfig, MonitorSession, PushResult};
use eddie_experiments::diff::{self, Fixture, TempDir};

/// Park → thaw → replay equals batch: every chunk boundary crosses the
/// spill log, the final stream is still byte-identical.
#[test]
fn park_thaw_replay_is_byte_identical_to_batch() {
    let fx = Fixture::gate();
    let run = &fx.runs[0];
    let streamed = diff::park_thaw(&fx.model, run, 2048, None);
    assert!(!streamed.events.is_empty(), "fixture must produce events");
    run.check("park/thaw", &streamed.events).unwrap();

    let ledger = streamed.ledger;
    assert!(ledger.conserved(), "ledger must conserve: {ledger:?}");
    assert!(ledger.parks > 0 && ledger.thaws > 0);
    assert_eq!(ledger.park_failures + ledger.thaw_failures, 0);
}

/// The ledger's conservation law holds through add / park / thaw /
/// evict churn over many devices under a tight budget, and evicting a
/// parked device thaws nothing.
#[test]
fn ledger_conserves_through_churn() {
    let fx = Fixture::gate();
    let run = &fx.runs[0];
    let dir = TempDir::new("store-gate-churn");
    let mut fleet = Fleet::with_store(FleetConfig::default(), diff::store(&dir, 2));
    let devs: Vec<_> = (0..8)
        .map(|_| {
            fleet.add_session(MonitorSession::new(fx.model.clone(), run.rate).expect("session"))
        })
        .collect();
    for round in 0..3 {
        for &d in &devs {
            assert_eq!(
                fleet.push_chunk(d, run.signal[..1024].to_vec()),
                PushResult::Accepted,
                "round {round}"
            );
        }
        let _ = fleet.drain();
        let ledger = fleet.ledger_snapshot().expect("store attached");
        assert!(ledger.conserved(), "round {round}: {ledger:?}");
        assert_eq!(ledger.resident, 2, "round {round}: budget enforced");
    }
    // Eviction hands back exactly the two resident sessions; a parked
    // one's spill record is retired unread, so no thaw is counted.
    let before = fleet.ledger_snapshot().expect("store attached");
    for &d in &devs {
        let parked = fleet.is_parked(d);
        assert_eq!(fleet.remove_session(d).is_some(), !parked, "device {}", d.0);
    }
    let ledger = fleet.ledger_snapshot().expect("store attached");
    assert!(ledger.conserved(), "after eviction: {ledger:?}");
    assert_eq!(ledger.resident + ledger.parked, 0);
    assert_eq!(ledger.thaws, before.thaws, "an eviction thaws nothing");
}

/// Park under the quantized kernel, thaw under the reference kernel —
/// the spill snapshot carries no kernel-specific state, so the replayed
/// stream still matches the batch path bit for bit.
#[test]
fn park_quantized_thaw_reference_is_byte_identical() {
    let fx = Fixture::gate();
    let run = &fx.runs[0];
    let kernels = Some((KernelMode::Quantized, KernelMode::Reference));
    let streamed = diff::park_thaw(&fx.model, run, 2048, kernels);
    assert_eq!(
        streamed.ledger.thaw_failures, 0,
        "cross-kernel thaw must not fail"
    );
    run.check("park/thaw q2r", &streamed.events).unwrap();
}

/// The reverse direction: park under reference, thaw under quantized.
#[test]
fn park_reference_thaw_quantized_is_byte_identical() {
    let fx = Fixture::gate();
    let run = &fx.runs[0];
    let kernels = Some((KernelMode::Reference, KernelMode::Quantized));
    let streamed = diff::park_thaw(&fx.model, run, 2048, kernels);
    assert_eq!(
        streamed.ledger.thaw_failures, 0,
        "cross-kernel thaw must not fail"
    );
    run.check("park/thaw r2q", &streamed.events).unwrap();
}
