//! The reactor: one poller, one wakeup pipe, one owning thread.
//!
//! A [`Reactor`] bundles the pieces an event-loop thread needs: the
//! [`Poller`](crate::Poller), a self-pipe whose [`Waker`] other
//! threads clone to interrupt a blocked wait, and the `eddie_net_*`
//! metrics. The loop shape is:
//!
//! ```text
//! loop {
//!     let woken = reactor.poll(&mut events, timeout)?;
//!     if woken { /* drain cross-thread mailboxes */ }
//!     for ev in &events { /* drive the connection for ev.data */ }
//! }
//! ```
//!
//! The reactor does not own connection state — callers keep their own
//! [`Slab`](crate::Slab) keyed by [`Token`](crate::Token) and pass
//! `token.as_u64()` as the registration data. The wakeup pipe uses the
//! reserved data word [`WAKE_DATA`], which no slab token can collide
//! with in practice (it would take 2^32 generations on slot
//! `u32::MAX`).

use std::io;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

use crate::metrics::NetMetrics;
use crate::poller::{Event, Interest, Poller};
use crate::waker::{wake_pair, WakeReader, Waker};

/// Poller user-data word reserved for the wakeup pipe.
pub const WAKE_DATA: u64 = u64::MAX;

/// A single-threaded readiness reactor with cross-thread wakeup.
pub struct Reactor {
    poller: Poller,
    wake_reader: WakeReader,
    waker: Waker,
    metrics: &'static NetMetrics,
    /// End of the previous dispatch phase (the previous `poll` return);
    /// the next `poll` entry closes the interval for `dispatch_ns`.
    dispatch_started: Option<Instant>,
}

impl Reactor {
    /// Builds a reactor and registers the wakeup pipe. Every reactor
    /// records into the process-wide [`NetMetrics`].
    pub fn new() -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let (wake_reader, waker) = wake_pair()?;
        poller.register(wake_reader.raw_fd(), WAKE_DATA, Interest::READABLE)?;
        Ok(Reactor {
            poller,
            wake_reader,
            waker,
            metrics: NetMetrics::global(),
            dispatch_started: None,
        })
    }

    /// A cloneable handle that interrupts a blocked [`Reactor::poll`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Which poller backend is active (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Registers a connection descriptor under `data`
    /// (`Token::as_u64()`). Bumps the registered-connections gauge.
    pub fn register(&self, fd: RawFd, data: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(data, WAKE_DATA, "WAKE_DATA is reserved for the wakeup pipe");
        self.poller.register(fd, data, interest)?;
        self.metrics.connections_registered.add(1);
        Ok(())
    }

    /// Registers a non-connection descriptor (a listener, a control
    /// fd) under `data` without touching the registered-connections
    /// gauge.
    pub fn register_untracked(&self, fd: RawFd, data: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(data, WAKE_DATA, "WAKE_DATA is reserved for the wakeup pipe");
        self.poller.register(fd, data, interest)
    }

    /// Removes a descriptor added with
    /// [`register_untracked`](Self::register_untracked).
    pub fn deregister_untracked(&self, fd: RawFd) -> io::Result<()> {
        self.poller.deregister(fd)
    }

    /// Changes the interest set of a registered descriptor — the
    /// backpressure primitive (`Full` ingress queue ⇒ drop readable).
    pub fn reregister(&self, fd: RawFd, data: u64, interest: Interest) -> io::Result<()> {
        self.poller.reregister(fd, data, interest)
    }

    /// Removes a connection descriptor and drops the gauge. Call
    /// before closing the fd.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let res = self.poller.deregister(fd);
        self.metrics.connections_registered.sub(1);
        res
    }

    /// Waits for readiness. Connection events land in `out`; wakeup
    /// events are consumed internally and surface as the returned
    /// flag. Also closes the previous tick's dispatch-latency
    /// interval.
    pub fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        if let Some(started) = self.dispatch_started.take() {
            self.metrics.dispatch_ns.record_duration(started.elapsed());
        }
        self.poller.wait(out, timeout)?;
        let mut woken = false;
        out.retain(|ev| {
            if ev.data == WAKE_DATA {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            self.wake_reader.drain();
        }
        if woken || !out.is_empty() {
            self.metrics.poll_wakeups.inc();
            self.metrics.readiness_events.add(out.len() as u64);
        }
        self.dispatch_started = Some(Instant::now());
        Ok(woken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys;

    #[test]
    fn wakeup_pipe_self_event_interrupts_a_blocked_poll() {
        let mut reactor = Reactor::new().expect("reactor");
        let waker = reactor.waker();
        // Wake from another thread after the reactor is (very likely)
        // parked in wait().
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(10)))
            .expect("poll");
        t.join().expect("waker thread");
        assert!(woken, "wake byte surfaced as the woken flag");
        assert!(events.is_empty(), "wake event is not a connection event");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "poll returned on the wakeup, not the timeout"
        );
        // Coalesced / drained: an immediate re-poll is quiet.
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(0)))
            .expect("re-poll");
        assert!(!woken);
    }

    #[test]
    fn connection_events_and_gauge_flow_through() {
        let mut reactor = Reactor::new().expect("reactor");
        let gauge_before = NetMetrics::global().connections_registered.value();
        let (r, w) = sys::nonblocking_pipe().expect("pipe");
        reactor
            .register(r, 9, Interest::READABLE)
            .expect("register");
        assert_eq!(
            NetMetrics::global().connections_registered.value(),
            gauge_before + 1
        );
        assert_eq!(
            NetMetrics::global()
                .registry()
                .value("eddie_net_connections_registered"),
            Some(eddie_obs::MetricValue::Gauge(gauge_before + 1)),
            "the handle is the one eddie-net's registry renders"
        );
        sys::write_fd(w, b"go").expect("write");
        let mut events = Vec::new();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .expect("poll");
        assert!(!woken);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].data, 9);
        assert!(events[0].readable);
        reactor.deregister(r).expect("deregister");
        assert_eq!(
            NetMetrics::global().connections_registered.value(),
            gauge_before
        );
        sys::close_fd(r);
        sys::close_fd(w);
    }
}
