//! `cluster`: the sharded deployment mode, in one process.
//!
//! Boots an in-process [`eddie_cluster::Cluster`] — N `eddie-serve`
//! shards on disjoint token namespaces behind a consistent-hash
//! router, optionally each behind a chaos proxy — then replays a fleet
//! of devices through the router with the self-healing client. Halfway
//! through (once every session is admitted), the ring is reseeded and
//! the cluster rebalanced, so live sessions migrate between shards
//! *while their clients stream*. The command fails unless every
//! client's event stream is byte-identical to the batch pipeline and
//! the chunk ledger balances across shards.
//!
//! It runs the [`crate::diff::cluster`] runner the `cluster_gate` CI
//! test drives, sized for a human: it prints per-client, per-shard,
//! and router tables.

use std::fmt::Write as _;

use eddie_chaos::FaultPlan;

use crate::diff::{self, Fixture, Run};
use crate::format_table;
use crate::servecli::{flag_value, parse_scale, usize_flag};

/// Default device count replayed through the router.
pub const DEFAULT_CLIENTS: usize = 4;
/// Default shard count.
pub const DEFAULT_SHARDS: usize = 3;
/// Default chunk size (samples); off the STFT hop grid on purpose.
pub const DEFAULT_CHUNK: usize = 913;

/// `eddie-experiments cluster [--shards N] [--clients N] [--chunk N]
/// [--plan GRAMMAR] [--scale quick|full]`
///
/// Runs the sharded deployment end to end: admission redirects off the
/// consistent-hash ring, a mid-replay reseed + rebalance that migrates
/// live sessions between shards, and a final audit of event
/// equivalence, chunk-ledger conservation and migration evidence (the
/// [`diff::cluster`] runner). With `--plan`, every shard sits behind
/// its own chaos proxy and all proxies share one fault schedule.
pub fn cluster(args: &[String]) -> Result<String, String> {
    eddie_obs::install();
    let scale = parse_scale(args)?;
    let shards = usize_flag(args, "--shards", DEFAULT_SHARDS)?;
    let clients = usize_flag(args, "--clients", DEFAULT_CLIENTS)?;
    let chunk = usize_flag(args, "--chunk", DEFAULT_CHUNK)?;
    let fault_plan = match flag_value(args, "--plan") {
        None => None,
        Some(text) => Some(FaultPlan::parse(text).map_err(|e| e.to_string())?),
    };

    let fx = Fixture::cli(scale, clients);
    let runs: Vec<&Run> = fx.runs.iter().collect();
    let run = diff::cluster(
        "cluster",
        &fx.model,
        &runs,
        shards,
        fault_plan.as_ref(),
        chunk,
    )
    .map_err(|e| e.to_string())?;
    let rows: Vec<Vec<String>> = fx
        .runs
        .iter()
        .zip(&run.outcomes)
        .map(|(r, outcome)| {
            vec![
                r.k.to_string(),
                r.label().to_string(),
                outcome.events.len().to_string(),
                outcome.redirects.to_string(),
                outcome.reconnects.to_string(),
                outcome.resumes.to_string(),
                outcome.busy_replies.to_string(),
                "yes".to_string(),
            ]
        })
        .collect();

    let report = &run.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# cluster: {clients} devices through {shards} shards (chunk {chunk})"
    );
    let _ = writeln!(
        out,
        "# ring reseeded mid-replay: {} live sessions migrated, {} skipped (ring generation {})",
        run.rebalance.migrated.len(),
        run.rebalance.skipped,
        run.generation
    );
    if let Some(plan) = &fault_plan {
        let _ = writeln!(out, "# plan: {plan}");
    }
    out.push_str(&format_table(
        &[
            "client",
            "plan",
            "events",
            "redirects",
            "reconnects",
            "resumes",
            "busy_replies",
            "events_match",
        ],
        &rows,
    ));

    out.push_str("\n# per-shard ledger\n");
    let shard_rows: Vec<Vec<String>> = report
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                format!("s{i}"),
                s.connections.to_string(),
                s.chunks_received.to_string(),
                s.chunks_accepted.to_string(),
                s.chunks_busy.to_string(),
                s.duplicate_acks.to_string(),
                s.sessions_migrated_out.to_string(),
                s.sessions_migrated_in.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &[
            "shard",
            "conns",
            "received",
            "accepted",
            "busy",
            "dup_acks",
            "migrated_out",
            "migrated_in",
        ],
        &shard_rows,
    ));
    let _ = writeln!(
        out,
        "\n# router: {} connections, {} redirects",
        report.router.connections, report.router.redirects
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn bad_flags_are_reported() {
        assert!(super::cluster(&["--clients".into(), "zero".into()]).is_err());
        assert!(super::cluster(&["--plan".into(), "gibberish=".into()]).is_err());
        assert!(super::cluster(&["--scale".into(), "huge".into()]).is_err());
    }

    #[test]
    #[ignore = "slow; run with --ignored or via the binary"]
    fn cluster_loopback_matches_batch() {
        let out = super::cluster(&[]).expect("cluster replay succeeds");
        assert!(!out.contains("NO"));
    }
}
