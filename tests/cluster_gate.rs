//! Cluster gate: a 3-shard cluster behind chaos proxies, rebalanced
//! mid-replay, audited for equivalence and conservation.
//!
//! Every run in the matrix drives a fleet of [`ResilientClient`]s
//! through the router and requires:
//!
//! * **byte-identical streams** — each client's delivered event stream
//!   equals `Pipeline::monitor_result` on the same signal, through
//!   admission redirects, chaos faults, and live migration of its
//!   session between shards mid-replay;
//! * **a conserved ledger across shards** — summed over the cluster,
//!   `chunks_received == chunks_accepted + chunks_busy +
//!   duplicate_acks`, and on a fault-free transport the received total
//!   equals exactly what the clients sent;
//! * **evidence** — the rebalance actually migrated live sessions, the
//!   router actually redirected every admission, and each shard's
//!   serve and stream layers agree on what was accepted.
//!
//! CI runs this at `EDDIE_THREADS=1` and `4`: migration must not
//! depend on worker-pool scheduling.

use eddie::chaos::FaultPlan;
use eddie_experiments::diff::{self, Fixture};

const CHUNK: usize = 499; // deliberately off the STFT hop grid
const CLIENTS: usize = 6;
const SHARDS: usize = 3;
/// Pacing appended to every run's fault plan: every second frame the
/// proxies carry is held 20 ms, so each replay spans ~40 stalls
/// (~0.8 s) while admission takes milliseconds. All six sessions are
/// then live together when the ring is reseeded — without it a whole
/// replay takes ~0.1 s and clients can finish before the last one is
/// admitted. Stalls delay frames but never drop, duplicate or reorder
/// them, so a run that adds nothing else is still a clean transport.
const PACING: &str = "stall=2x20";

/// Replays `CLIENTS` parallel devices of the injected run through a
/// 3-shard cluster behind chaos proxies running `faults` plus
/// [`PACING`], and reseeds the ring mid-replay (forcing live
/// migrations). The runner audits the streams, the cross-shard ledger
/// (exact on a fault-free transport), and the migration and redirect
/// evidence.
fn replay_through_cluster(name: &str, faults: &str) {
    let fx = Fixture::gate();
    let plan_text = format!("{faults},{PACING}");
    let plan = FaultPlan::parse(&plan_text).unwrap_or_else(|e| panic!("[{name}] plan: {e}"));
    let runs = vec![&fx.runs[1]; CLIENTS];
    diff::cluster(name, &fx.model, &runs, SHARDS, Some(&plan), CHUNK).unwrap();
}

#[test]
fn clean_cluster_rebalances_live_sessions_byte_identically() {
    replay_through_cluster("clean", "");
}

#[test]
fn chaotic_cluster_rebalances_through_dup_and_reorder() {
    // Duplication and reordering deliver every frame at least once:
    // equivalence and conservation must hold, though received can
    // exceed sent.
    replay_through_cluster("dup_reorder", "seed=23,dup=0.04,reorder=0.05");
}

#[test]
fn chaotic_cluster_rebalances_through_drops_and_severs() {
    replay_through_cluster("drops_sever", "seed=41,drop=0.03,sever=120;260");
}
