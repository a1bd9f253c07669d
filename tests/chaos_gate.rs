//! Chaos gate: the full loopback deployment behind a fault-injecting
//! proxy, driven by the self-healing client, audited for equivalence.
//!
//! Every seed in the matrix runs the same contract:
//!
//! * the [`ResilientClient`] must deliver the complete event stream —
//!   byte-identical to `Pipeline::monitor_result` on the same signal —
//!   through dropped, duplicated, corrupted, reordered, and severed
//!   frames, server-side busy storms, and serving-thread stalls;
//! * the server's books must balance like a ledger even under chaos:
//!   `chunks_received == chunks_accepted + chunks_busy +
//!   duplicate_acks`, and the serve and stream layers agree on what
//!   was accepted;
//! * each seed must actually *exercise* its faults (a proxy that
//!   forwarded everything untouched would pass equivalence trivially),
//!   so per-seed evidence — dropped-frame counts, reconnects, bad
//!   frames, busy refusals — is asserted non-zero.
//!
//! CI runs this at `EDDIE_THREADS=1` and `4`: recovery must not
//! depend on worker-pool scheduling.

use std::net::TcpStream;
use std::time::Duration;

use eddie::chaos::FaultPlan;
use eddie::serve::{read_frame, write_frame, ErrCode, Frame, ServerConfig};
use eddie::stream::StreamEvent;
use eddie_experiments::diff::{self, Fixture, LocalServer, MODEL_ID};

const CHUNK: usize = 499; // deliberately off the STFT hop grid

#[test]
fn chaos_matrix_recovers_byte_identical_streams() {
    // The injected run: anomalies, transitions, and tracked/untracked
    // windows all appear in the stream, so equivalence checks more than
    // the happy path.
    let fx = Fixture::gate();
    let injected = &fx.runs[1..];

    // One fault class per seed, then everything at once. Probabilities
    // are low enough that go-back-N and resume converge, high enough
    // that every class demonstrably fires on this signal length.
    let matrix: [(&str, &str); 6] = [
        ("drops", "seed=11,drop=0.08"),
        ("dup_reorder", "seed=23,dup=0.06,reorder=0.08"),
        ("corrupt", "seed=37,corrupt=0.05"),
        ("sever", "seed=41,sever=17;53;131"),
        ("busy_storm", "seed=53,busy=6+24"),
        (
            "kitchen_sink",
            "seed=97,drop=0.04,dup=0.03,corrupt=0.03,reorder=0.04,sever=89,stall=40x30,drain=5x10",
        ),
    ];
    for (name, plan_text) in matrix {
        // The runner checks the recovered stream against batch, the
        // server's window total, the chunk ledger and the evidence that
        // each configured fault class fired.
        let plan = FaultPlan::parse(plan_text).unwrap_or_else(|e| panic!("[{name}] plan: {e}"));
        let run = diff::chaos(&format!("chaos/{name}"), &fx.model, injected, &plan, CHUNK).unwrap();
        let outcome = &run.outcomes[0];
        if outcome.resumes > 0 {
            assert_eq!(
                run.report.sessions_resumed, outcome.resumes,
                "[{name}] both sides count the same resumes"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Frame-level resume-protocol tests: drive the wire by hand to hit the
// exact transitions the matrix only exercises probabilistically.
// ---------------------------------------------------------------------

/// Sends one chunk stop-and-wait, absorbing `Busy` with a retry and
/// collecting any interleaved `Event` frames.
fn send_chunk_wait(s: &mut TcpStream, seq: u64, samples: &[f32], events: &mut Vec<StreamEvent>) {
    loop {
        write_frame(
            s,
            &Frame::Chunk {
                seq,
                samples: samples.to_vec(),
            },
        )
        .expect("write chunk");
        // Read replies until this chunk's Ack returns, or a Busy sends
        // it again.
        loop {
            match read_frame(s).expect("read").expect("server closed early") {
                Frame::Ack { seq: a } if a == seq => return,
                Frame::Ack { .. } => {}
                Frame::Busy { .. } => {
                    std::thread::sleep(Duration::from_millis(2));
                    break;
                }
                ev @ Frame::Event { .. } => events.push(ev.to_stream_event().unwrap()),
                other => panic!("unexpected reply to chunk {seq}: {other:?}"),
            }
        }
    }
}

/// Sends `Finish` and reads to `Finished`, collecting events.
fn finish_wait(s: &mut TcpStream, events: &mut Vec<StreamEvent>) -> u64 {
    write_frame(s, &Frame::Finish).expect("write finish");
    loop {
        match read_frame(s).expect("read").expect("server closed early") {
            Frame::Finished { windows } => return windows,
            ev @ Frame::Event { .. } => events.push(ev.to_stream_event().unwrap()),
            Frame::Ack { .. } => {}
            other => panic!("unexpected reply to finish: {other:?}"),
        }
    }
}

fn open_resumable(addr: std::net::SocketAddr, rate: f64) -> (TcpStream, u64) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(
        &mut s,
        &Frame::HelloResumable {
            model_id: MODEL_ID.to_string(),
            sample_rate: rate,
        },
    )
    .expect("hello");
    match read_frame(&mut s).expect("read").expect("eof") {
        Frame::Session { token, next_seq } => {
            assert_eq!(next_seq, 0, "fresh session starts at seq 0");
            (s, token)
        }
        other => panic!("expected Session, got {other:?}"),
    }
}

/// Polls `Resume` until the server has noticed the old connection is
/// gone (while it is still attached the server answers
/// `ProtocolViolation`); returns the terminal reply.
fn resume_once_parked(
    addr: std::net::SocketAddr,
    token: u64,
    have_windows: u64,
) -> (TcpStream, Frame) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_frame(
            &mut s,
            &Frame::Resume {
                token,
                have_windows,
            },
        )
        .expect("resume");
        match read_frame(&mut s).expect("read").expect("eof") {
            Frame::Err {
                code: ErrCode::ProtocolViolation,
            } if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            reply => return (s, reply),
        }
    }
}

#[test]
fn idle_park_then_resume_completes_the_stream() {
    let fx = Fixture::gate();
    let r = &fx.runs[1];
    let signal = &r.signal;

    let config = ServerConfig::builder()
        .with_idle_timeout(Duration::from_millis(40))
        .with_resume_tail(4096)
        .build()
        .expect("server config");
    let server = LocalServer::start(fx.model.clone(), config).unwrap();
    let handle = server.handle();

    let chunks: Vec<&[f32]> = signal.chunks(CHUNK).collect();
    assert!(chunks.len() >= 4, "signal long enough to split the replay");
    let mut events = Vec::new();

    // First connection: half the chunks, then go silent past the idle
    // timeout — the server must park the session, not evict it.
    let (mut s, token) = open_resumable(handle.addr(), r.rate);
    let half = chunks.len() / 2;
    for (seq, c) in chunks[..half].iter().enumerate() {
        send_chunk_wait(&mut s, seq as u64, c, &mut events);
    }
    std::thread::sleep(Duration::from_millis(120));
    // The parked server already closed its side; prove it while giving
    // late events a moment to drain out of the socket.
    loop {
        match read_frame(&mut s) {
            Ok(Some(ev @ Frame::Event { .. })) => events.push(ev.to_stream_event().unwrap()),
            Ok(Some(other)) => panic!("unexpected frame while parked: {other:?}"),
            Ok(None) => break,
            Err(e) => panic!("read while parked: {e}"),
        }
    }
    drop(s);

    // Resume and finish the stream on a second connection.
    let (mut s, reply) = resume_once_parked(handle.addr(), token, events.len() as u64);
    let next_seq = match reply {
        Frame::Session { token: t, next_seq } => {
            assert_eq!(t, token, "token survives the park");
            next_seq
        }
        other => panic!("expected Session on resume, got {other:?}"),
    };
    assert_eq!(
        next_seq, half as u64,
        "chunk cursor picks up where it left off"
    );
    for (seq, c) in chunks.iter().enumerate().skip(half) {
        send_chunk_wait(&mut s, seq as u64, c, &mut events);
    }
    let windows = finish_wait(&mut s, &mut events);
    write_frame(&mut s, &Frame::Close).expect("close");
    while read_frame(&mut s).expect("read").is_some() {}

    assert_eq!(events.len() as u64, windows, "stream complete at finish");
    r.check("idle_park", &events).unwrap();

    let report = server.stop().unwrap();
    assert!(report.idle_disconnects >= 1, "idle timeout fired");
    assert!(report.sessions_parked >= 1, "session was parked");
    assert_eq!(report.sessions_resumed, 1, "session was resumed once");
}

#[test]
fn resume_past_the_tail_is_refused_with_a_gap() {
    let fx = Fixture::gate();
    let r = &fx.runs[1];

    // A replay tail of one event: any client that missed more than the
    // single retained event has an unfillable hole.
    let config = ServerConfig::builder()
        .with_resume_tail(1)
        .build()
        .expect("server config");
    let server = LocalServer::start(fx.model.clone(), config).unwrap();
    let handle = server.handle();

    let mut events = Vec::new();
    let (mut s, token) = open_resumable(handle.addr(), r.rate);
    for (seq, c) in r.signal.chunks(CHUNK).enumerate() {
        send_chunk_wait(&mut s, seq as u64, c, &mut events);
    }
    let windows = finish_wait(&mut s, &mut events);
    assert!(
        windows >= 2,
        "need at least two windows to overflow a tail of one"
    );
    drop(s); // abrupt: parks the session with the tail already trimmed

    // A client claiming zero events needs the full history; the tail
    // holds only the last one. The server must refuse rather than
    // resume with a hole in the stream.
    let (_s, reply) = resume_once_parked(handle.addr(), token, 0);
    assert_eq!(
        reply,
        Frame::Err {
            code: ErrCode::ResumeGap
        },
        "resume past the tail must be refused"
    );

    server.stop().unwrap();
}

#[test]
fn unknown_and_stolen_tokens_are_refused() {
    let fx = Fixture::gate();
    let r = &fx.runs[1];

    let config = ServerConfig::builder().build().expect("server config");
    let server = LocalServer::start(fx.model.clone(), config).unwrap();
    let handle = server.handle();

    // A token the server never issued.
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(
        &mut s,
        &Frame::Resume {
            token: 0xdead_beef,
            have_windows: 0,
        },
    )
    .expect("resume");
    assert_eq!(
        read_frame(&mut s).expect("read").expect("eof"),
        Frame::Err {
            code: ErrCode::UnknownToken
        },
        "bogus token refused"
    );
    drop(s);

    // A live token whose session is still attached: a second
    // connection cannot steal it out from under the first.
    let (live, token) = open_resumable(handle.addr(), r.rate);
    let mut thief = TcpStream::connect(handle.addr()).expect("connect");
    thief
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut thief,
        &Frame::Resume {
            token,
            have_windows: 0,
        },
    )
    .expect("resume");
    assert_eq!(
        read_frame(&mut thief).expect("read").expect("eof"),
        Frame::Err {
            code: ErrCode::ProtocolViolation
        },
        "attached session cannot be stolen"
    );
    drop(thief);
    drop(live);

    server.stop().unwrap();
}
