//! `serve` / `replay-client`: the network deployment mode.
//!
//! Not paper artifacts — operational entry points for the
//! [`eddie_serve`] ingestion edge:
//!
//! * `serve` trains a model, binds the TCP server, and serves capture
//!   connections until stdin closes (or the process is killed).
//! * `replay-client` replays simulated loop- and burst-injected runs
//!   against a server over real TCP and diffs every received event
//!   against the batch `Pipeline::monitor_result` path. With no
//!   `--addr` it spins up an in-process server on an ephemeral
//!   loopback port first, so one command exercises the complete
//!   network path end to end — this is what the CI loopback gate runs
//!   at `EDDIE_THREADS=1` and `4`.
//! * `stats` scrapes a running server's metrics over the wire
//!   (`Frame::Stats` → `Frame::StatsReply`) and renders them as a
//!   human table, or as the raw Prometheus text with `--raw`.
//! * `chaos` is `replay-client` behind an [`eddie_chaos::ChaosProxy`]:
//!   it injects the faults described by a `--plan` grammar string and
//!   drives the self-healing [`eddie_serve::ResilientClient`] through
//!   them, still requiring byte-identical events.
//!
//! `replay-client` and `chaos` run on the [`crate::diff`] runners the
//! loopback and chaos gates drive, so each scenario has one
//! implementation.

use std::fmt::Write as _;

use eddie_chaos::FaultPlan;
use eddie_core::MonitorEvent;
use eddie_serve::{ModelRegistry, Server, ServerConfig, ServerReport};

use crate::diff::{self, Fixture, LocalServer};
use crate::{format_table, Scale};

/// Default chunk size (samples) for the replay client.
pub const DEFAULT_CHUNK: usize = 913;

pub(crate) fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match args
        .iter()
        .position(|a| a == "--scale")
        .map(|i| args.get(i + 1).map(String::as_str))
    {
        None => Ok(Scale::Quick),
        Some(Some("quick")) => Ok(Scale::Quick),
        Some(Some("full")) => Ok(Scale::Full),
        Some(other) => Err(format!("unknown scale {other:?}")),
    }
}

pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub(crate) fn usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad {flag} {v:?}")),
    }
}

/// `eddie-experiments serve [--addr HOST:PORT] [--scale quick|full]`
///
/// Trains the model, binds (default `127.0.0.1:0` — an ephemeral
/// port, printed on stdout), then serves until stdin reaches EOF.
pub fn serve(args: &[String]) -> Result<String, String> {
    eddie_obs::install();
    let scale = parse_scale(args)?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let mut registry = ModelRegistry::new();
    registry.insert(diff::MODEL_ID, Fixture::cli(scale, 0).model);
    let server = Server::bind(addr, registry, ServerConfig::default())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let handle = server.handle();
    println!("# eddie-serve listening on {}", handle.addr());
    println!("# hosted model: {}", diff::MODEL_ID);
    println!("# press ctrl-d (close stdin) to shut down");

    // Shutdown on stdin EOF: lets scripts drive the lifecycle without
    // signals.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
        handle.shutdown();
    });

    let report = server.run().map_err(|e| format!("server failed: {e}"))?;
    Ok(report_table(&report))
}

/// `eddie-experiments replay-client [--addr HOST:PORT] [--chunk N]
/// [--scale quick|full]`
///
/// Replays loop- and burst-injected simulated runs over TCP and
/// verifies the received event stream against the batch pipeline.
/// Without `--addr`, an in-process loopback server is started first.
pub fn replay_client(args: &[String]) -> Result<String, String> {
    eddie_obs::install();
    let scale = parse_scale(args)?;
    let chunk = usize_flag(args, "--chunk", DEFAULT_CHUNK)?;
    let runs = scale.monitor_runs_sim();
    let fx = Fixture::cli(scale, runs);

    // Local server unless pointed at a remote one.
    let remote = flag_value(args, "--addr");
    let local = match remote {
        Some(_) => None,
        None => Some(
            LocalServer::start(fx.model.clone(), ServerConfig::default())
                .map_err(|e| e.to_string())?,
        ),
    };
    let addr = remote.map_or_else(
        || local.as_ref().expect("local server").addr().to_string(),
        str::to_string,
    );

    // All devices replay concurrently — the fleet multiplexes them. The
    // runner refuses any stream that diverges from the batch pipeline.
    let outcomes = diff::loopback(&addr, &fx.runs, chunk, || {}).map_err(|e| e.to_string())?;
    let rows: Vec<Vec<String>> = fx
        .runs
        .iter()
        .zip(&outcomes)
        .map(|(run, outcome)| {
            vec![
                run.k.to_string(),
                run.label().to_string(),
                outcome.events.len().to_string(),
                outcome.acked_chunks.to_string(),
                outcome.busy_replies.to_string(),
                outcome
                    .events
                    .iter()
                    .filter(|e| e.event == MonitorEvent::Anomaly)
                    .count()
                    .to_string(),
                run.batch
                    .first_anomaly()
                    .map_or_else(|| "-".to_string(), |w| w.to_string()),
                "yes".to_string(),
            ]
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# replay-client: {runs} devices over TCP {addr} (chunk {chunk})"
    );
    let _ = writeln!(
        out,
        "# every event received over the wire compared against the batch pipeline"
    );
    out.push_str(&format_table(
        &[
            "run",
            "plan",
            "events",
            "acked_chunks",
            "busy_replies",
            "anomalies",
            "first_anomaly",
            "events_match",
        ],
        &rows,
    ));

    if let Some(server) = local {
        let report = server.stop().map_err(|e| e.to_string())?;
        out.push('\n');
        out.push_str(&report_table(&report));
        if report.final_stats.active_sessions != 0 {
            return Err("server leaked sessions after client close".to_string());
        }
        diff::audit_ledger("replay-client", &report).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// The fault plan `chaos` injects when `--plan` is not given: every
/// transport fault class at once, plus one severed connection.
pub const DEFAULT_PLAN: &str = "seed=7,drop=0.05,dup=0.03,corrupt=0.03,reorder=0.05,sever=97";

/// `eddie-experiments chaos [--plan GRAMMAR] [--chunk N]
/// [--scale quick|full]`
///
/// Replays the same simulated runs as `replay-client`, but through a
/// fault-injecting proxy, with the self-healing client doing the
/// recovering — the [`diff::chaos`] runner the chaos gate drives. The
/// command fails unless every received event stream is byte-identical
/// to the batch pipeline, the server's chunk ledger balances
/// (`received == accepted + busy + duplicate_acks`), and every fault
/// class the plan configures actually fired.
///
/// See the fault-plan grammar in `EXPERIMENTS.md` (or
/// [`FaultPlan::parse`]): e.g. `--plan
/// 'seed=11,drop=0.08,sever=17;53'`.
pub fn chaos(args: &[String]) -> Result<String, String> {
    eddie_obs::install();
    let scale = parse_scale(args)?;
    let chunk = usize_flag(args, "--chunk", DEFAULT_CHUNK)?;
    let plan_text = flag_value(args, "--plan").unwrap_or(DEFAULT_PLAN);
    let plan = FaultPlan::parse(plan_text).map_err(|e| e.to_string())?;

    let runs = scale.monitor_runs_sim();
    let fx = Fixture::cli(scale, runs);
    let run = diff::chaos("chaos", &fx.model, &fx.runs, &plan, chunk).map_err(|e| e.to_string())?;
    let rows: Vec<Vec<String>> = fx
        .runs
        .iter()
        .zip(&run.outcomes)
        .map(|(r, outcome)| {
            vec![
                r.k.to_string(),
                r.label().to_string(),
                outcome.events.len().to_string(),
                outcome.reconnects.to_string(),
                outcome.resumes.to_string(),
                outcome.replayed_events.to_string(),
                outcome.busy_replies.to_string(),
                outcome.duplicate_acks.to_string(),
                "yes".to_string(),
            ]
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "# chaos: {runs} sequential replays (chunk {chunk})");
    let _ = writeln!(out, "# plan: {plan}");
    out.push_str(&format_table(
        &[
            "run",
            "plan",
            "events",
            "reconnects",
            "resumes",
            "replayed",
            "busy_replies",
            "dup_acks",
            "events_match",
        ],
        &rows,
    ));
    let stats = &run.proxy;
    out.push_str("\n# proxy faults injected\n");
    out.push_str(&format_table(
        &[
            "seen",
            "dropped",
            "duplicated",
            "corrupted",
            "reordered",
            "severed",
        ],
        &[vec![
            stats.frames_seen.to_string(),
            stats.frames_dropped.to_string(),
            stats.frames_duplicated.to_string(),
            stats.frames_corrupted.to_string(),
            stats.frames_reordered.to_string(),
            stats.connections_severed.to_string(),
        ]],
    ));
    out.push('\n');
    out.push_str(&report_table(&run.report));
    Ok(out)
}

/// `eddie-experiments stats --addr HOST:PORT [--raw]`
///
/// Connects to a running `serve` instance, requests its metrics over
/// the wire, and renders them. The default view is a human table of
/// counters, gauges, and histogram summaries (`_sum`/`_count` series);
/// `--raw` dumps the Prometheus text exposition verbatim, suitable for
/// piping into monitoring tooling.
pub fn stats(args: &[String]) -> Result<String, String> {
    let addr =
        flag_value(args, "--addr").ok_or_else(|| "stats requires --addr HOST:PORT".to_string())?;
    let text = eddie_serve::fetch_stats(addr).map_err(|e| format!("stats scrape {addr}: {e}"))?;
    if args.iter().any(|a| a == "--raw") {
        return Ok(text);
    }
    Ok(stats_table(addr, &text))
}

/// Renders a Prometheus exposition as a two-column table, eliding the
/// per-bucket histogram series (the `_sum`/`_count` rollups stay).
fn stats_table(addr: &str, text: &str) -> String {
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if series.contains("_bucket") {
            continue;
        }
        rows.push(vec![series.to_string(), value.to_string()]);
    }
    let mut out = String::new();
    let _ = writeln!(out, "# metrics scraped from {addr}");
    let _ = writeln!(
        out,
        "# histogram buckets elided — use --raw for the full exposition"
    );
    out.push_str(&format_table(&["series", "value"], &rows));
    out
}

fn report_table(report: &ServerReport) -> String {
    let mut out = String::from("# server report\n");
    out.push_str(&format_table(
        &[
            "connections",
            "chunks_accepted",
            "chunks_busy",
            "events_sent",
            "bad_frames",
            "shed_chunks",
            "parked",
            "resumed",
        ],
        &[vec![
            report.connections.to_string(),
            report.chunks_accepted.to_string(),
            report.chunks_busy.to_string(),
            report.events_sent.to_string(),
            report.bad_frames.to_string(),
            report.final_stats.shed_chunks.to_string(),
            report.sessions_parked.to_string(),
            report.sessions_resumed.to_string(),
        ]],
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "slow; run with --ignored or via the binary"]
    fn replay_client_loopback_matches_batch() {
        let out = super::replay_client(&[]).expect("loopback replay succeeds");
        assert!(!out.contains("NO"));
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(super::replay_client(&["--chunk".into(), "zero".into()]).is_err());
        assert!(super::parse_scale(&["--scale".into(), "huge".into()]).is_err());
        assert!(super::stats(&[]).is_err());
    }

    #[test]
    fn stats_table_elides_buckets_and_comments() {
        let text = "# TYPE a counter\n\
                    a_total 3\n\
                    h_bucket{le=\"1\"} 2\n\
                    h_bucket{le=\"+Inf\"} 2\n\
                    h_sum 9\n\
                    h_count 2\n";
        let table = super::stats_table("127.0.0.1:9", text);
        assert!(table.contains("a_total"));
        assert!(table.contains("h_sum"));
        assert!(table.contains("h_count"));
        assert!(!table.contains("_bucket"));
        assert!(!table.contains("# TYPE"));
    }
}
