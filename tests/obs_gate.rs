//! Observability gate: a full loopback deployment with `eddie-obs`
//! installed, scraped over the wire mid-replay and audited afterwards.
//!
//! The counters must balance like a ledger:
//!
//! * every `Chunk` frame the clients wrote got exactly one reply, so
//!   `sent == accepted + busy + duplicate_acks`;
//! * the serve layer and the stream layer agree on what was accepted,
//!   and the fleet never shed more than the wire refused;
//! * the core layer's anomaly counter equals the anomaly count of the
//!   batch pipeline (which ran *before* installation, so only the
//!   streamed path could have incremented it);
//! * the event stream stays byte-identical to the batch path with
//!   instrumentation on — CI runs this at `EDDIE_THREADS=1` and `4`;
//! * a scrape shows its own server's books: a second, idle server bound
//!   after the audited one reads 0 accepted chunks, and the audited
//!   server's scrape still balances;
//! * journal sequence numbers are strictly increasing, and a snapshot
//!   file carries the sequence forward (`resume_journal`);
//! * the journal keeps decisions: an anomaly record survives a ring's
//!   worth of further monitored windows.
//!
//! Everything lives in one `#[test]` because `eddie::obs::install()` is
//! process-global: a single body controls exactly what runs before and
//! after installation.

use std::time::Duration;

use eddie::core::MonitorEvent;
use eddie::obs::{JournalEvent, Observer, JOURNAL_CAPACITY};
use eddie::serve::{
    fetch_stats, load_snapshot, read_frame, resume_journal, write_frame, Frame, ServerConfig,
};
use eddie::stream::{Fleet, FleetConfig, MonitorSession, PushResult};
use eddie_experiments::diff::{self, metric, wait_for, Fixture, LocalServer, TempDir, MODEL_ID};

#[test]
fn instrumented_loopback_counters_balance() {
    // Batch outcomes BEFORE installation: the batch path runs through
    // the same instrumented monitor code, so computing it first keeps
    // the anomaly counter attributable to the streamed path alone.
    let fx = Fixture::gate();
    let runs = &fx.runs;

    eddie::obs::install();
    assert!(eddie::obs::enabled(), "install() arms the gate");
    let obs = eddie::obs::global().expect("installed");

    let dir = TempDir::new("obs-gate");
    let snap_path = dir.path().join("snapshot.snap");
    let config = ServerConfig::builder()
        .with_fleet(
            // Tiny queue bounds so backpressure (Busy, shed, go-back-N
            // resends) actually occurs and the conservation law is
            // exercised with non-zero terms on every side.
            FleetConfig::builder()
                .with_max_pending_chunks(2)
                .with_max_pending_samples(1 << 12)
                .build()
                .expect("fleet config"),
        )
        .with_snapshot_path(snap_path.clone())
        .with_snapshot_every(Duration::from_secs(3600))
        .build()
        .expect("server config");
    let server = LocalServer::start(fx.model.clone(), config).unwrap();
    let addr = server.addr();
    // A second server in the same process, bound after the audited one
    // and never fed: each scrape must show its own server's books.
    let idle = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();

    // Clean + injected replays, concurrently, with instrumentation on.
    // Determinism with instrumentation on: the runner checks both
    // streams byte-identical to batch.
    let outcomes = diff::loopback(&addr.to_string(), runs, 499, || {
        // Scrape mid-replay from a separate session-less connection:
        // the Stats frame must work while the fleet is under load.
        let mid = fetch_stats(addr).expect("mid-replay scrape");
        assert!(
            mid.contains("eddie_serve_connections_total"),
            "mid-replay scrape has serve counters:\n{mid}"
        );
        assert!(
            mid.contains("# TYPE eddie_serve_connections_total counter"),
            "exposition carries TYPE headers"
        );
    })
    .unwrap();

    // Snapshot via the wire so the file carries the live journal seq.
    {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut s,
            &Frame::Hello {
                model_id: MODEL_ID.to_string(),
                sample_rate: runs[0].rate,
            },
        )
        .unwrap();
        write_frame(&mut s, &Frame::Snapshot).unwrap();
        loop {
            match read_frame(&mut s).expect("reply").expect("no EOF yet") {
                Frame::Ack { .. } => break,
                Frame::Event { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        write_frame(&mut s, &Frame::Close).unwrap();
        while read_frame(&mut s).expect("read").is_some() {}
    }
    wait_for(
        || server.handle().fleet_stats().active_sessions == 0,
        "sessions evicted after close",
    );

    // Final scrapes, then audit the books.
    let text = fetch_stats(addr).expect("final scrape");
    let idle_text = fetch_stats(idle.addr()).expect("idle scrape");
    let report = server.stop().unwrap();
    idle.stop().unwrap();

    let accepted = metric(&text, "eddie_serve_chunks_accepted_total");
    let busy = metric(&text, "eddie_serve_chunks_busy_total");
    let stream_accepted = metric(&text, "eddie_stream_chunks_accepted_total");
    let stream_shed = metric(&text, "eddie_stream_chunks_shed_total");
    let anomalies = metric(&text, "eddie_core_anomaly_events_total");
    let windows = metric(&text, "eddie_core_windows_evaluated_total");
    let events_emitted = metric(&text, "eddie_stream_events_emitted_total");
    let frames_decoded = metric(&text, "eddie_serve_frames_decoded_total");

    let sent: u64 = outcomes.iter().map(|o| o.sent_chunks).sum();
    let acked: u64 = outcomes.iter().map(|o| o.acked_chunks).sum();
    let busy_seen: u64 = outcomes.iter().map(|o| o.busy_replies).sum();
    let dup_acks: u64 = outcomes.iter().map(|o| o.duplicate_acks).sum();

    // Every chunk frame written got exactly one reply, and the server
    // classified each as accepted, busy, or duplicate.
    assert_eq!(accepted, acked, "serve accepted == client fresh acks");
    assert_eq!(busy, busy_seen, "serve busy == client busy replies");
    assert_eq!(
        sent,
        accepted + busy + dup_acks,
        "chunk conservation: sent == accepted + busy + duplicate acks"
    );
    assert!(
        busy > 0,
        "tiny queue bounds must actually exercise backpressure"
    );

    // The serve and stream layers keep the same books.
    assert_eq!(
        stream_accepted, accepted,
        "stream accepted == serve accepted"
    );
    assert!(
        stream_shed <= busy,
        "fleet shed ({stream_shed}) cannot exceed wire refusals ({busy})"
    );

    // Core counters agree with the (pre-installation) batch truth.
    let batch_anomalies: u64 = runs
        .iter()
        .map(|r| {
            r.batch
                .events
                .iter()
                .filter(|e| **e == MonitorEvent::Anomaly)
                .count() as u64
        })
        .sum();
    assert_eq!(
        anomalies, batch_anomalies,
        "anomaly counter == batch anomalies"
    );
    let total_events: u64 = outcomes.iter().map(|o| o.events.len() as u64).sum();
    assert_eq!(events_emitted, total_events, "every event was counted");
    assert!(
        windows >= total_events,
        "windows evaluated covers every emitted event"
    );
    assert!(
        frames_decoded >= sent,
        "every chunk frame was decoded (plus hello/stats/close traffic)"
    );
    assert_eq!(
        report.chunks_accepted, accepted,
        "report reads the same counters"
    );
    assert_eq!(report.chunks_busy, busy);
    for name in [
        "eddie_serve_chunks_accepted_total",
        "eddie_stream_chunks_accepted_total",
    ] {
        assert_eq!(metric(&idle_text, name), 0, "the idle server's own {name}");
    }

    // Journal: sequence numbers strictly increase, in-order.
    let recent = obs.journal().recent();
    assert!(!recent.is_empty(), "journal saw the deployment");
    for pair in recent.windows(2) {
        assert!(
            pair[1].seq > pair[0].seq,
            "journal seqs must be strictly increasing"
        );
    }

    // Snapshot file carries the journal sequence forward: a restored
    // server continues numbering, never restarts it.
    let file = load_snapshot(&snap_path).expect("snapshot file readable");
    assert!(
        file.journal_seq > 0,
        "snapshot stamped with a live journal seq"
    );
    assert!(
        file.journal_seq <= obs.journal().next_seq(),
        "stamp cannot be from the future"
    );
    resume_journal(&file);
    let seq_after = obs
        .journal()
        .record(JournalEvent::SnapshotPersisted { sessions: 0 });
    assert!(
        seq_after >= file.journal_seq,
        "post-restore records continue past the persisted seq"
    );

    journal_keeps_decisions(fx, obs);
}

/// Monitors the injected run through an observed fleet and takes its
/// first journalled `AnomalyRaised`, then monitors at least
/// [`JOURNAL_CAPACITY`] more windows of the clean run. The anomaly
/// record must still be in the ring: the journal holds decisions and
/// lifecycle changes, so windows that decide nothing new must not
/// evict it.
fn journal_keeps_decisions(fx: &Fixture, obs: &Observer) {
    let mut fleet = Fleet::new(FleetConfig::default());
    let mut monitor = |k: usize| -> usize {
        let run = &fx.runs[k];
        let session = MonitorSession::new(fx.model.clone(), run.rate).expect("session");
        let dev = fleet.add_session(session);
        let mut windows = 0;
        for chunk in run.signal.chunks(4096) {
            assert_eq!(fleet.push_chunk(dev, chunk.to_vec()), PushResult::Accepted);
            windows += fleet.drain().iter().map(|(_, e)| e.len()).sum::<usize>();
        }
        let _ = fleet.remove_session(dev);
        windows
    };

    let from = obs.journal().next_seq();
    monitor(1);
    let anomaly = obs
        .journal()
        .recent()
        .into_iter()
        .find(|r| r.seq >= from && matches!(r.event, JournalEvent::AnomalyRaised { .. }))
        .expect("the injected run journals an anomaly");

    let mut windows = 0;
    while windows < JOURNAL_CAPACITY {
        windows += monitor(0);
    }
    assert!(
        obs.journal().recent().contains(&anomaly),
        "{anomaly:?} was evicted by {windows} clean windows ({} records since)",
        obs.journal().next_seq() - anomaly.seq - 1
    );
}
