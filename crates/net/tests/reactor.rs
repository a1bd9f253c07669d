//! End-to-end reactor tests: a miniature echo server built on the
//! public `eddie-net` surface, exercised for connection retirement
//! under churn, wakeup-pipe self-events, partial-write resumption, and
//! a high-fanout connect/churn soak.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eddie_net::{sys, BufferedConn, Event, FlushPass, Interest, Reactor};

const MAX_FRAME: usize = 1 << 20;

/// The `eddie_net_*` metrics are process-global, so tests asserting on
/// the registered-connections gauge must not interleave. Every test in
/// this file serializes on this lock (panic poisoning is ignored — the
/// next test still runs).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Frames a body the way the EDDIE wire protocol does: u32-LE length
/// prefix, then the body.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

struct EchoConn {
    conn: BufferedConn,
    interest: Interest,
    closing: bool,
}

/// A single-threaded reactor echo server: every inbound frame is
/// echoed back verbatim; EOF at a frame boundary closes the
/// connection after the write buffer drains. Each connection is keyed
/// by an id from a counter that never repeats, which is also its
/// poller data word.
struct EchoServer {
    listener: TcpListener,
    reactor: Reactor,
    conns: BTreeMap<u64, EchoConn>,
    next_id: u64,
    stop: Arc<AtomicBool>,
}

const LISTENER_DATA: u64 = u64::MAX - 1;

impl EchoServer {
    fn bind(stop: Arc<AtomicBool>) -> (EchoServer, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::new().expect("reactor");
        reactor
            .register(listener.as_raw_fd(), LISTENER_DATA, Interest::READABLE)
            .expect("register listener");
        (
            EchoServer {
                listener,
                reactor,
                conns: BTreeMap::new(),
                next_id: 0,
                stop,
            },
            addr,
        )
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let _woken = self
                .reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.data == LISTENER_DATA {
                    self.accept_ready();
                } else {
                    self.drive(ev.data, *ev);
                }
            }
            events = batch;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn = BufferedConn::new(stream).expect("conn");
                    let fd = conn.raw_fd();
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(
                        id,
                        EchoConn {
                            conn,
                            interest: Interest::READABLE,
                            closing: false,
                        },
                    );
                    self.reactor
                        .register(fd, id, Interest::READABLE)
                        .expect("register conn");
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    fn drive(&mut self, id: u64, ev: Event) {
        let Some(ec) = self.conns.get_mut(&id) else {
            return; // an event for a connection closed earlier
        };
        let mut dead = false;
        if ev.readable && !ec.closing {
            match ec.conn.fill(4 * MAX_FRAME) {
                Ok(pass) => {
                    loop {
                        match ec.conn.next_frame(MAX_FRAME) {
                            Ok(Some(body)) => ec.conn.queue(&frame(&body)),
                            Ok(None) => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if pass.eof {
                        if ec.conn.mid_frame() {
                            dead = true; // truncated mid-frame
                        } else {
                            ec.closing = true;
                        }
                    }
                }
                Err(_) => dead = true,
            }
        }
        if !dead {
            match ec.conn.flush() {
                Ok(FlushPass::Flushed) if ec.closing => dead = true,
                Ok(_) => {}
                Err(_) => dead = true,
            }
        }
        if dead {
            let fd = ec.conn.raw_fd();
            self.reactor.deregister(fd).expect("deregister");
            self.conns.remove(&id);
            return;
        }
        // Interest follows buffer state: always readable (until
        // closing), writable only while bytes are pending.
        let ec = self.conns.get_mut(&id).expect("live conn");
        let mut want = if ec.closing {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        if ec.conn.wants_write() {
            want = want.or(Interest::WRITABLE);
        }
        if want != ec.interest {
            self.reactor
                .reregister(ec.conn.raw_fd(), id, want)
                .expect("reregister");
            ec.interest = want;
        }
    }
}

fn spawn_echo() -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let stop = Arc::new(AtomicBool::new(false));
    let (mut server, addr) = EchoServer::bind(stop.clone());
    let handle = std::thread::spawn(move || server.run());
    (addr, stop, handle)
}

fn echo_round_trip(addr: std::net::SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&frame(body)).expect("send");
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("len");
    let n = u32::from_le_bytes(len) as usize;
    assert_eq!(n, body.len());
    let mut got = vec![0u8; n];
    s.read_exact(&mut got).expect("body");
    got
}

#[test]
fn echo_server_round_trips_frames() {
    let _serial = serial();
    let (addr, stop, handle) = spawn_echo();
    for size in [1usize, 7, 1024, 100_000] {
        let body: Vec<u8> = (0..size).map(|i| i as u8).collect();
        assert_eq!(echo_round_trip(addr, &body), body);
    }
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server");
}

/// Sequential connect/close churn retires every connection: the
/// server's map is empty at the end and the registered-connections
/// gauge is back at its baseline.
#[test]
fn connection_churn_retires_every_connection() {
    let _serial = serial();
    let stop = Arc::new(AtomicBool::new(false));
    let (server, addr) = EchoServer::bind(stop.clone());
    let gauge = eddie_net::NetMetrics::global()
        .connections_registered
        .clone();
    let baseline = gauge.value();
    let server = Arc::new(std::sync::Mutex::new(server));
    let runner = {
        let server = server.clone();
        std::thread::spawn(move || server.lock().expect("server").run())
    };

    // Sequential connect/close churn: at most one live connection at a
    // time.
    for round in 0..50u32 {
        let body = round.to_le_bytes();
        assert_eq!(echo_round_trip(addr, &body), body);
    }
    // Wait for the reactor to observe the final EOF before stopping —
    // stop is checked between poll batches, so an immediate stop could
    // win the race against the last close.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while gauge.value() > baseline {
        assert!(
            Instant::now() < drain_deadline,
            "connections not retired: gauge still {}",
            gauge.value()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    runner.join().expect("server thread");
    let server = Arc::try_unwrap(server)
        .ok()
        .expect("sole owner")
        .into_inner()
        .expect("lock");
    assert!(server.conns.is_empty(), "all connections retired");
    assert_eq!(server.next_id, 50, "one fresh id per connection");
    assert_eq!(
        gauge.value(),
        baseline,
        "gauge returns to baseline after churn (listener excluded)"
    );
}

/// Satellite test: the wakeup pipe interrupts a reactor blocked in
/// poll() from another thread, and wakes coalesce.
#[test]
fn wakeup_self_event_reaches_a_parked_reactor() {
    let _serial = serial();
    let mut reactor = Reactor::new().expect("reactor");
    let waker = reactor.waker();
    let hits = Arc::new(AtomicBool::new(false));
    let hits2 = hits.clone();
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..10 {
            waker.wake(); // all ten coalesce into one readiness
        }
        hits2.store(true, Ordering::SeqCst);
    });
    let mut events = Vec::new();
    let woken = reactor
        .poll(&mut events, Some(Duration::from_secs(10)))
        .expect("poll");
    assert!(woken);
    assert!(events.is_empty());
    t.join().expect("waker thread");
    assert!(hits.load(Ordering::SeqCst));
}

/// Satellite test: a frame bigger than the socket buffer is flushed
/// across many writable events without corruption — the reactor-side
/// proof that `BufferedConn` resumes partial writes.
#[test]
fn partial_writes_resume_through_the_reactor() {
    let _serial = serial();
    let (addr, stop, handle) = spawn_echo();
    // Half a MiB — far beyond loopback socket buffers, so the echo
    // path must take multiple flush passes with writable interest on.
    let body: Vec<u8> = (0..512 * 1024u32).map(|i| (i * 31) as u8).collect();
    let got = echo_round_trip(addr, &body);
    assert_eq!(got.len(), body.len());
    assert_eq!(got, body, "byte-identical echo across partial writes");
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server");
}

/// Tentpole smoke: thousands of concurrent connections on one reactor
/// thread. Every connection stays open (idle fanout) while waves of
/// them exchange frames; total server-side threads stay O(reactors),
/// not O(connections).
#[test]
fn five_thousand_connection_loopback_churn() {
    let _serial = serial();
    // Raise the descriptor ceiling: 5k conns × 2 ends + slack.
    let limit = sys::raise_nofile_limit(16_384).expect("rlimit");
    let target: usize = if limit >= 12_000 { 5_000 } else { 1_000 };

    let (addr, stop, handle) = spawn_echo();
    let deadline = Instant::now() + Duration::from_secs(120);

    // Phase 1: open the whole fleet, keeping every socket alive.
    let mut socks: VecDeque<TcpStream> = VecDeque::with_capacity(target);
    while socks.len() < target {
        assert!(Instant::now() < deadline, "connect fanout timed out");
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                socks.push_back(s);
            }
            // Transient kernel backlog pressure: retry.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let gauge = eddie_net::NetMetrics::global()
        .connections_registered
        .clone();
    // The reactor may still be accepting the tail of the backlog.
    let accept_deadline = Instant::now() + Duration::from_secs(60);
    while (gauge.value() as usize) < target {
        assert!(
            Instant::now() < accept_deadline,
            "reactor accepted only {} of {target}",
            gauge.value()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Phase 2: while the rest of the fleet idles, waves of
    // connections do an echo round trip and are replaced by fresh
    // connections (churn).
    for wave in 0..4u32 {
        for i in 0..64usize {
            let mut s = socks.pop_front().expect("socket");
            let body = ((wave as usize) * 64 + i).to_le_bytes();
            s.write_all(&frame(&body)).expect("send");
            let mut len = [0u8; 4];
            s.read_exact(&mut len).expect("len");
            let mut got = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut got).expect("body");
            assert_eq!(got, body);
            drop(s); // close → the connection retires
            let fresh = TcpStream::connect(addr).expect("reconnect");
            socks.push_back(fresh);
        }
    }

    // O(reactors) threads: this process runs the test harness, one
    // reactor thread, and test-runner bookkeeping — nowhere near one
    // thread per connection.
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse::<usize>().ok())
        });
    if let Some(threads) = threads {
        assert!(
            threads < 64,
            "{target} connections must not cost {threads} threads"
        );
    }

    drop(socks);
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server");
}
