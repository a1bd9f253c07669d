//! Live migration between two servers: `ServerHandle::migrate` moves a
//! resumable session in one step under both servers' core locks. A
//! refused move must change nothing, two opposite moves at once must
//! not deadlock, a moved session keeps its token against later
//! `Hello`s on its new server, and moving a cold-parked session thaws
//! nothing. CI runs this at `EDDIE_THREADS=1` and `4`.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use eddie::core::ErrorKind;
use eddie::serve::{
    fetch_stats, read_frame, write_frame, Frame, ModelRegistry, Server, ServerConfig,
};
use eddie::stream::StreamEvent;
use eddie_experiments::diff::{metric, wait_for, Fixture, LocalServer, TempDir, MODEL_ID};
use eddie_store::StoreConfig;

/// Chunk size of the runs that move mid-stream.
const CHUNK: usize = 999;

/// `signal` in `CHUNK`-sample chunks, and how many of them go before a
/// mid-stream move: half, which must end off the STFT hop grid so the
/// moved state carries a partial window.
fn halves(signal: &[f32], hop: usize) -> (Vec<&[f32]>, usize) {
    let chunks: Vec<&[f32]> = signal.chunks(CHUNK).collect();
    let half = chunks.len() / 2;
    assert_ne!(half * CHUNK % hop, 0, "the move must land off the hop grid");
    (chunks, half)
}

/// A raw lock-step client: one chunk in flight, every event kept.
struct Client {
    stream: TcpStream,
    token: u64,
    events: Vec<StreamEvent>,
}

/// A connection to `addr` whose reads give up after 10 s.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

impl Client {
    /// Opens a resumable session on `addr`.
    fn open(addr: SocketAddr, rate: f64) -> Client {
        let mut client = Client {
            stream: connect(addr),
            token: 0,
            events: Vec::new(),
        };
        let hello = Frame::HelloResumable {
            model_id: MODEL_ID.to_string(),
            sample_rate: rate,
        };
        match client.call(&hello) {
            Frame::Session { token, next_seq: 0 } => client.token = token,
            other => panic!("expected Session, got {other:?}"),
        }
        client
    }

    /// Reattaches the session at `addr` over a new connection, as after
    /// a dropped one, and returns the seq the server expects next. The
    /// events the client missed are replayed ahead of later replies.
    fn resume(&mut self, addr: SocketAddr) -> u64 {
        self.stream = connect(addr);
        let resume = Frame::Resume {
            token: self.token,
            have_windows: self.events.len() as u64,
        };
        match self.call(&resume) {
            Frame::Session { token, next_seq } if token == self.token => next_seq,
            other => panic!("expected Session for token {}, got {other:?}", self.token),
        }
    }

    /// Asks for the window count and returns it once every event is in.
    fn finish(&mut self) -> u64 {
        let Frame::Finished { windows } = self.call(&Frame::Finish) else {
            panic!("expected Finished");
        };
        windows
    }

    /// Sends `frame` and returns the first reply that is not an event.
    fn call(&mut self, frame: &Frame) -> Frame {
        write_frame(&mut self.stream, frame).expect("write frame");
        loop {
            let reply = read_frame(&mut self.stream).unwrap().expect("open");
            match reply.to_stream_event() {
                Some(ev) => self.events.push(ev),
                None => return reply,
            }
        }
    }

    /// Streams `chunks` as seqs `first..`, each waiting for its `Ack`.
    fn stream(&mut self, first: usize, chunks: &[&[f32]]) {
        for (i, samples) in chunks.iter().enumerate() {
            let seq = (first + i) as u64;
            let chunk = Frame::Chunk {
                seq,
                samples: samples.to_vec(),
            };
            assert_eq!(self.call(&chunk), Frame::Ack { seq });
        }
    }
}

/// The destination does not host the session's model, so the move is
/// refused halfway through the run: the session must stay where it
/// was, routed to its connection, and the client must receive every
/// event on that connection.
#[test]
fn refused_migration_leaves_the_client_streaming() {
    let fx = Fixture::gate();
    let run = &fx.runs[1];
    let a = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let b = Server::bind("127.0.0.1:0", ModelRegistry::new(), ServerConfig::default()).unwrap();
    let hb = b.handle();
    let b_thread = std::thread::spawn(move || b.run());

    let mut client = Client::open(a.addr(), run.rate);
    let chunks: Vec<&[f32]> = run.signal.chunks(1000).collect();
    let half = chunks.len() / 2;
    client.stream(0, &chunks[..half]);
    let refused = a
        .handle()
        .migrate(client.token, &hb, &hb.addr().to_string());
    assert_eq!(refused.unwrap_err().kind(), ErrorKind::UnknownModel);
    client.stream(half, &chunks[half..]);
    let windows = client.finish();

    assert_eq!(client.events.len() as u64, windows, "every event delivered");
    run.check("refused migration", &client.events).unwrap();
    assert_eq!(a.stop().unwrap().sessions_migrated_out, 0);
    hb.shutdown();
    b_thread.join().unwrap().unwrap();
}

/// Two threads at once each shuttle one idle resumable session between
/// two servers, in opposite directions. Locking the source first could
/// leave each thread holding one core while it waits for the other.
#[test]
fn opposite_migrations_do_not_deadlock() {
    const ROUNDS: u64 = 2_000;
    let fx = Fixture::gate();
    let rate = fx.runs[0].rate;
    let b_config = ServerConfig::builder().with_token_base(1 << 48).build();
    let a = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let b = LocalServer::start(fx.model.clone(), b_config.unwrap()).unwrap();
    let (ha, hb) = (a.handle().clone(), b.handle().clone());
    // One session born on each server; the clients hang up.
    let (on_a, on_b) = (
        Client::open(a.addr(), rate).token,
        Client::open(b.addr(), rate).token,
    );
    wait_for(
        || ha.resumable_tokens() == [on_a] && hb.resumable_tokens() == [on_b],
        "one session on each server",
    );

    let (done, finished) = mpsc::channel();
    let threads = [(on_a, &ha, &hb), (on_b, &hb, &ha)].map(|(token, home, away)| {
        let (home, away, done) = (home.clone(), away.clone(), done.clone());
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                home.migrate(token, &away, &away.addr().to_string())
                    .unwrap();
                away.migrate(token, &home, &home.addr().to_string())
                    .unwrap();
            }
            done.send(()).unwrap();
        })
    });
    for _ in &threads {
        let ended = finished.recv_timeout(Duration::from_secs(60));
        ended.expect("opposite migrations deadlocked");
    }
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(
        (ha.resumable_tokens(), hb.resumable_tokens()),
        (vec![on_a], vec![on_b])
    );
    for report in [a.stop().unwrap(), b.stop().unwrap()] {
        assert_eq!(report.sessions_migrated_out, 2 * ROUNDS);
        assert_eq!(report.sessions_migrated_in, 2 * ROUNDS);
    }
}

/// Two servers on the default config draw tokens from the same base.
/// Once a session has moved from A to B, a `Hello` on B must draw a
/// token no session there holds: the moved client then resumes on B
/// with its own token and gets every event of its run.
#[test]
fn hello_after_a_migration_in_draws_a_fresh_token() {
    let fx = Fixture::gate();
    let run = &fx.runs[1];
    let a = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let b = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();

    let mut moved = Client::open(a.addr(), run.rate);
    let (chunks, half) = halves(&run.signal, fx.model.config.hop);
    moved.stream(0, &chunks[..half]);
    a.handle()
        .migrate(moved.token, b.handle(), &b.addr().to_string())
        .unwrap();

    let fresh = Client::open(b.addr(), run.rate);
    assert_ne!(fresh.token, moved.token, "B drew a token it holds");
    assert_eq!(moved.resume(b.addr()), half as u64);
    moved.stream(half, &chunks[half..]);
    let windows = moved.finish();

    assert_eq!(moved.events.len() as u64, windows, "every event delivered");
    run.check("migrated then resumed", &moved.events).unwrap();
    drop(fresh);
    a.stop().unwrap();
    b.stop().unwrap();
}

/// Moving a cold-parked session reads its spill record once, for the
/// snapshot, and retires it on eviction without a thaw, so the source
/// counts no thaw. The client then resumes on the destination and its
/// stream still equals the batch path.
#[test]
fn migrating_a_cold_parked_session_thaws_nothing() {
    let fx = Fixture::gate();
    let run = &fx.runs[1];
    let dir = TempDir::new("migrate-cold");
    let store = StoreConfig::builder(dir.path())
        .resident_budget(1)
        .build()
        .unwrap();
    let a_config = ServerConfig::builder().with_session_store(store).build();
    let a = LocalServer::start(fx.model.clone(), a_config.unwrap()).unwrap();
    let b = LocalServer::start(fx.model.clone(), ServerConfig::default()).unwrap();
    let scrape = |series: &str| metric(&fetch_stats(a.addr()).unwrap(), series);

    // The second session's chunks make the first one, idle since, the
    // least recently active: the budget parks it.
    let (chunks, half) = halves(&run.signal, fx.model.config.hop);
    let mut cold = Client::open(a.addr(), run.rate);
    cold.stream(0, &chunks[..half]);
    let mut warm = Client::open(a.addr(), run.rate);
    warm.stream(0, &chunks[..1]);
    wait_for(
        || scrape("eddie_store_parked_sessions") == 1,
        "the first session cold-parked",
    );

    a.handle()
        .migrate(cold.token, b.handle(), &b.addr().to_string())
        .unwrap();
    assert_eq!(scrape("eddie_store_thaws_total"), 0, "the move thawed");

    assert_eq!(cold.resume(b.addr()), half as u64);
    cold.stream(half, &chunks[half..]);
    let windows = cold.finish();
    assert_eq!(cold.events.len() as u64, windows, "every event delivered");
    run.check("cold-parked then migrated", &cold.events)
        .unwrap();
    drop(warm);
    a.stop().unwrap();
    b.stop().unwrap();
}
