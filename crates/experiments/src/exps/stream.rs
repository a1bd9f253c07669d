//! `stream`: online-monitoring equivalence demonstration.
//!
//! Not a paper artifact — a deployment-mode check for the `eddie-stream`
//! runtime. Each monitored run's signal is replayed through a
//! [`eddie_stream::Fleet`] of per-device sessions in pseudo-random
//! chunk sizes by the [`diff::fleet`] runner, and every emitted event
//! is compared against the batch `Pipeline::monitor_result` path on the
//! same signal. The table reports, per run, the window count, the anomaly
//! counts of both paths, the first-anomaly window of both paths, and
//! whether the event streams matched exactly.

use std::fmt::Write as _;

use eddie_core::MonitorEvent;
use eddie_stream::{FleetConfig, StreamEvent};

use crate::diff::{self, chunked, Fixture};
use crate::{format_table, Scale};

fn first_anomaly(events: &[StreamEvent]) -> Option<usize> {
    events
        .iter()
        .find(|e| e.event == MonitorEvent::Anomaly)
        .map(|e| e.window)
}

fn fmt_opt(x: Option<usize>) -> String {
    x.map_or_else(|| "-".to_string(), |w| w.to_string())
}

/// Runs the experiment.
pub fn run(scale: Scale) -> String {
    let runs = scale.monitor_runs_sim();
    let fx = Fixture::cli(scale, runs);

    // Streaming path: one fleet device per run, chunked ingest with
    // drain-on-Full backpressure.
    let config = FleetConfig::builder()
        .with_max_pending_chunks(16)
        .with_max_pending_samples(1 << 16)
        .build()
        .expect("valid fleet bounds");
    let devices: Vec<_> = fx
        .runs
        .iter()
        .map(|r| (r.rate, chunked(&r.signal, 42 + r.k as u64, 997)))
        .collect();
    let streamed = diff::fleet(&fx.model, config, &devices);

    let mut rows = Vec::new();
    for (run, stream) in fx.runs.iter().zip(&streamed) {
        if let Err(d) = run.check("stream", stream) {
            panic!("streaming events diverged from the batch pipeline: {d}");
        }
        let stream_anoms = stream
            .iter()
            .filter(|e| e.event == MonitorEvent::Anomaly)
            .count();
        rows.push(vec![
            run.k.to_string(),
            run.label().to_string(),
            stream.len().to_string(),
            run.batch.anomaly_count().to_string(),
            stream_anoms.to_string(),
            fmt_opt(run.batch.first_anomaly()),
            fmt_opt(first_anomaly(stream)),
            "yes".to_string(),
        ]);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# stream: chunked online monitoring vs batch pipeline (Bitcount, {runs} runs)"
    );
    let _ = writeln!(
        out,
        "# every run replayed in pseudo-random chunk sizes through an eddie-stream Fleet"
    );
    out.push_str(&format_table(
        &[
            "run",
            "plan",
            "windows",
            "anomalies_batch",
            "anomalies_stream",
            "first_batch",
            "first_stream",
            "events_match",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "slow; run with --ignored or via the binary"]
    fn streamed_events_match_batch() {
        let out = super::run(crate::Scale::Quick);
        assert!(!out.contains("NO"));
    }
}
