//! End-to-end loopback suite: real TCP sockets on 127.0.0.1, a real
//! server draining its fleet on the worker pool, real replay clients.
//!
//! The headline contract: the event stream a client receives over the
//! wire is **byte-identical** to the batch `Pipeline::monitor_result`
//! path for the same signal — under concurrent clients, under fleet
//! backpressure (`Busy` storms with go-back-N retransmission), and at
//! every `EDDIE_THREADS` value (CI runs this suite at 1 and 4).
//! Alongside that: malformed-frame fuzzing over the socket, abrupt
//! disconnects, and snapshot persistence with restore-and-continue.

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use eddie::core::MonitorEvent;
use eddie::serve::{
    fetch_stats, load_snapshot, read_frame, write_frame, ErrCode, Frame, ServerConfig,
};
use eddie::stream::{FleetConfig, MonitorSession, StreamEvent};
use eddie_experiments::diff::{self, metric, wait_for, Fixture, LocalServer, MODEL_ID};

/// Clean + injected runs replayed concurrently over loopback TCP: each
/// client's event stream must equal the batch path exactly, and the
/// injected run must raise an anomaly through the wire. No observer is
/// installed in this binary, and the server's `Stats` scrape must still
/// carry its own books.
#[test]
fn loopback_replay_is_byte_identical_to_batch() {
    let fx = Fixture::gate();
    let server = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // The runner checks each client's stream against the batch path and
    // that every chunk was acknowledged.
    let outcomes = diff::loopback(&addr, &fx.runs, 913, || {}).unwrap();
    // The injected run must be caught — through the whole network path.
    assert!(
        outcomes[1]
            .events
            .iter()
            .any(|e| e.event == MonitorEvent::Anomaly),
        "injected run must report an anomaly over the wire"
    );

    // Clean disconnects must leave no sessions behind.
    wait_for(
        || server.handle().fleet_stats().active_sessions == 0,
        "sessions evicted after close",
    );
    let text = fetch_stats(server.addr()).expect("scrape");
    let acked: u64 = outcomes.iter().map(|o| o.acked_chunks).sum();
    for name in [
        "eddie_serve_chunks_accepted_total",
        "eddie_stream_chunks_accepted_total",
    ] {
        assert_eq!(metric(&text, name), acked, "{name} == client acks");
    }
    let report = server.stop().unwrap();
    assert_eq!(report.connections, 3, "two clients and the scrape");
    assert_eq!(report.final_stats.active_sessions, 0);
    assert_eq!(report.bad_frames, 0);
    let total_events: usize = outcomes.iter().map(|o| o.events.len()).sum();
    assert_eq!(report.events_sent, total_events as u64);
}

/// A one-slot fleet queue forces `Busy` replies. Each real `Full`
/// refusal must flip the connection's interest set (drop readable)
/// rather than block a thread — the `backpressure_pauses` counter
/// proves the flip happened — and go-back-N retransmission must still
/// deliver a byte-identical event stream.
#[test]
fn busy_backpressure_preserves_equivalence() {
    let fx = Fixture::gate();
    let config = ServerConfig::builder()
        .with_fleet(
            FleetConfig::builder()
                .with_max_pending_chunks(1)
                .with_max_pending_samples(1 << 12)
                .build()
                .expect("fleet config"),
        )
        .build()
        .expect("server config");
    let server = LocalServer::start(fx.model.clone(), config).unwrap();

    // The runner checks the retransmitted stream against batch.
    let addr = server.addr().to_string();
    let outcomes = diff::loopback(&addr, &fx.runs[1..], 733, || {}).unwrap();
    let outcome = &outcomes[0];
    assert!(
        outcome.busy_replies > 0,
        "a one-slot queue must refuse at least one chunk"
    );

    let report = server.stop().unwrap();
    assert!(report.chunks_busy >= outcome.busy_replies);
    // The fleet ledger records every ingress refusal as shed — but the
    // wire layer turned each one into a retransmission, not data loss
    // (the event equality above is the proof). The first Busy can only
    // come from a Full, so the shed ledger must be non-empty here.
    assert!(report.final_stats.shed_chunks >= 1);
    assert!(report.final_stats.shed_chunks <= report.chunks_busy);
    assert!(
        report.backpressure_pauses >= 1,
        "every real Full must pause reads via an interest-set flip \
         (busy={}, pauses={})",
        report.chunks_busy,
        report.backpressure_pauses
    );
    // Pauses come only from real Full refusals, each of which also
    // counted a Busy reply.
    assert!(report.backpressure_pauses <= report.chunks_busy);
    assert_eq!(report.final_stats.active_sessions, 0);
}

/// Random garbage, zero/oversized length prefixes, bad tags, truncated
/// payloads: the server must answer `Err` (or just hang up on valid-
/// by-chance frames) and keep serving — never panic, never leak a
/// session.
#[test]
fn malformed_frames_never_panic_the_server() {
    let fx = Fixture::gate();
    let server = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Deterministic malformed frames with known-required Err replies.
    let zero_len = 0u32.to_le_bytes().to_vec();
    let oversized = ((1u32 << 21) + 1).to_le_bytes().to_vec();
    let bad_tag = {
        let mut b = 1u32.to_le_bytes().to_vec();
        b.push(0xFF);
        b
    };
    let truncated_chunk = {
        // Claims tag 0x02 (Chunk) with a payload too short for its
        // header.
        let mut b = 5u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0x02, 0x01, 0x02, 0x03, 0x04]);
        b
    };
    for bytes in [&zero_len, &oversized, &bad_tag, &truncated_chunk] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(bytes).expect("write garbage");
        s.shutdown(Shutdown::Write).expect("half close");
        match read_frame(&mut s) {
            Ok(Some(Frame::Err { code })) => assert_eq!(code, ErrCode::BadFrame),
            other => panic!("expected Err(BadFrame) reply, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut s), Ok(None)), "then EOF");
    }

    // Random-byte fuzz storm: an LCG keeps it deterministic. Replies
    // may be Err (malformed) or nothing (bytes formed a valid frame by
    // chance, e.g. Close); the only hard requirements are no panic and
    // no leaked session.
    let mut state = 0x5EED_5EED_5EED_5EEDu64;
    for _ in 0..64 {
        let mut bytes = Vec::with_capacity(96);
        for _ in 0..96 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(&bytes);
        let _ = s.shutdown(Shutdown::Write);
        // Drain whatever comes back until EOF; every frame must parse.
        loop {
            match read_frame(&mut s) {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(e) => panic!("server sent malformed reply: {e:?}"),
            }
        }
    }

    // The server must still be fully functional for a real client.
    diff::loopback(&addr.to_string(), &fx.runs[..1], 1024, || {}).unwrap();

    assert_eq!(
        server.handle().fleet_stats().active_sessions,
        0,
        "no leaked sessions"
    );
    let report = server.stop().unwrap();
    assert!(
        report.bad_frames >= 4,
        "deterministic cases must be counted"
    );
}

/// Dropping the socket mid-stream (no `Close`) must evict the session:
/// `Fleet::stats` goes back to zero live sessions, while the shed/
/// registered totals remember the device existed.
#[test]
fn abrupt_disconnect_evicts_session() {
    let fx = Fixture::gate();
    let server = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let handle = server.handle();

    let r = &fx.runs[0];
    {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        write_frame(
            &mut s,
            &Frame::Hello {
                model_id: MODEL_ID.to_string(),
                sample_rate: r.rate,
            },
        )
        .unwrap();
        write_frame(
            &mut s,
            &Frame::Chunk {
                seq: 0,
                samples: r.signal[..2048].to_vec(),
            },
        )
        .unwrap();
        // Wait until the session provably exists server-side...
        wait_for(
            || handle.fleet_stats().active_sessions == 1,
            "session registered",
        );
        // ...then vanish without a Close.
    }
    wait_for(
        || handle.fleet_stats().active_sessions == 0,
        "abrupt disconnect evicted",
    );
    let stats = handle.fleet_stats();
    assert_eq!(stats.total_registered, 1, "eviction keeps the ledger");
    assert_eq!(stats.queued_chunks, 0);

    server.stop().unwrap();
}

/// `Hello` with an unregistered model id is refused with
/// `ErrCode::UnknownModel` and registers nothing.
#[test]
fn unknown_model_is_refused() {
    let fx = Fixture::gate();
    let server = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let handle = server.handle();

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(
        &mut s,
        &Frame::Hello {
            model_id: "no-such-model".to_string(),
            sample_rate: 1.0e6,
        },
    )
    .unwrap();
    match read_frame(&mut s).expect("reply") {
        Some(Frame::Err { code }) => assert_eq!(code, ErrCode::UnknownModel),
        other => panic!("expected Err(UnknownModel), got {other:?}"),
    }
    assert_eq!(handle.fleet_stats().active_sessions, 0);
    assert_eq!(handle.fleet_stats().total_registered, 0);

    server.stop().unwrap();
}

/// The `Snapshot` frame persists the session to disk; restoring it and
/// continuing locally must reproduce the batch path's remaining events
/// exactly — live state migrated over a file boundary.
#[test]
fn snapshot_persists_and_restores_mid_stream() {
    let fx = Fixture::gate();
    let model = &fx.model;
    let r = &fx.runs[1]; // injected: the restored half crosses the anomaly

    let dir = diff::TempDir::new("loopback-snapshot");
    let snap_path = dir.path().join("sessions.snap");
    let config = ServerConfig::builder()
        .with_snapshot_path(snap_path.clone())
        // Only the explicit Snapshot frame should write.
        .with_snapshot_every(Duration::from_secs(3600))
        .build()
        .expect("server config");
    let server = LocalServer::start(model.clone(), config).unwrap();
    let handle = server.handle();

    let signal = &r.signal;
    // Cut deliberately off the STFT hop grid so the persisted state
    // carries a partial window.
    let cut = (signal.len() / 2 / model.config.hop) * model.config.hop + model.config.hop / 2;

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(
        &mut s,
        &Frame::Hello {
            model_id: MODEL_ID.to_string(),
            sample_rate: r.rate,
        },
    )
    .unwrap();
    let mut served_events: Vec<StreamEvent> = Vec::new();
    for (seq, chunk) in signal[..cut].chunks(700).enumerate() {
        write_frame(
            &mut s,
            &Frame::Chunk {
                seq: seq as u64,
                samples: chunk.to_vec(),
            },
        )
        .unwrap();
        // Lock-step: wait for this chunk's Ack so the queue can't
        // overflow, collecting interleaved events.
        loop {
            match read_frame(&mut s).expect("reply").expect("no EOF yet") {
                Frame::Ack { seq: acked } => {
                    assert_eq!(acked, seq as u64);
                    break;
                }
                f @ Frame::Event { .. } => {
                    served_events.push(f.to_stream_event().unwrap());
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    // Let the server drain everything so the snapshot covers the exact
    // prefix we sent.
    wait_for(|| handle.fleet_stats().queued_chunks == 0, "queue drained");
    write_frame(&mut s, &Frame::Snapshot).unwrap();
    loop {
        match read_frame(&mut s).expect("reply").expect("no EOF yet") {
            Frame::Ack { .. } => break,
            f @ Frame::Event { .. } => served_events.push(f.to_stream_event().unwrap()),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    write_frame(&mut s, &Frame::Close).unwrap();
    loop {
        match read_frame(&mut s).expect("read") {
            None => break,
            Some(f @ Frame::Event { .. }) => served_events.push(f.to_stream_event().unwrap()),
            Some(other) => panic!("unexpected reply {other:?}"),
        }
    }

    // Restore from the persisted file and continue locally.
    let persisted = load_snapshot(&snap_path)
        .expect("snapshot file readable")
        .sessions;
    assert_eq!(persisted.len(), 1);
    assert_eq!(persisted[0].model_id, MODEL_ID);
    let mut resumed =
        MonitorSession::restore(model.clone(), persisted[0].snapshot.clone()).expect("restore");
    assert_eq!(resumed.samples_seen(), cut, "snapshot covers the prefix");
    let mut all_events = served_events;
    all_events.extend(resumed.push(&signal[cut..]));

    r.check("snapshot file", &all_events).unwrap();

    let report = server.stop().unwrap();
    assert!(report.snapshots_written >= 1);
}

/// A client that closes with replies unread makes its kernel reset the
/// connection, and the reset can reach the server while chunks the
/// client wrote are still unread in the server's socket. Those chunks
/// were sent: the server must read and answer them, so its ledger
/// counts every chunk written before the reset.
#[test]
fn chunks_written_before_a_reset_are_all_counted() {
    const CHUNKS: u64 = 16;
    let fx = Fixture::gate();
    let server = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let handle = server.handle();

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    write_frame(
        &mut s,
        &Frame::Hello {
            model_id: MODEL_ID.to_string(),
            sample_rate: 1000.0,
        },
    )
    .expect("write hello");
    // 16 KiB in all: small enough to sit whole in the server's receive
    // buffer.
    let chunk = |seq| Frame::Chunk {
        seq,
        samples: vec![0.5; 256],
    };
    write_frame(&mut s, &chunk(0)).expect("write chunk 0");
    // Wait for chunk 0's reply without consuming it: unread, it turns
    // the close below into a reset.
    s.peek(&mut [0u8; 1]).expect("reply to chunk 0");
    // The rest in one write, so they leave as one segment before the
    // close: a reset discards whatever the sender still holds.
    let mut burst = Vec::new();
    for seq in 1..CHUNKS {
        write_frame(&mut burst, &chunk(seq)).expect("encode chunk");
    }
    s.write_all(&burst).expect("write chunks");
    drop(s);

    wait_for(
        || handle.fleet_stats().active_sessions == 0,
        "session evicted after the reset",
    );
    let report = server.stop().unwrap();
    assert_eq!(
        report.chunks_received, CHUNKS,
        "every chunk written before the reset is counted"
    );
    assert_eq!(
        report.chunks_received,
        report.chunks_accepted + report.chunks_busy + report.duplicate_acks
    );
}
