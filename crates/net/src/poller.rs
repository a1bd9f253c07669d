//! Readiness poller: `epoll(7)` on Linux, `poll(2)` everywhere.
//!
//! Both backends are level-triggered and expose the same surface:
//! register a descriptor with a `u64` of user data and an
//! [`Interest`] set, change the interest set with
//! [`Poller::reregister`] (how backpressure is expressed — a
//! connection whose ingress queue is full simply stops asking for
//! readable), and [`Poller::wait`] for batches of [`Event`]s.
//!
//! The platform picks the backend: epoll on Linux, `poll(2)` elsewhere.
//! [`Poller::with_poll_backend`] builds the portable one on any
//! platform, so the unit tests run both backends on Linux.

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Mutex;
use std::time::Duration;

use crate::sys;

/// What readiness a registration asks for. A closed/errored peer is
/// always reported, whatever the interest set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Ask for nothing (parked registration; errors still surface).
    pub const NONE: Interest = Interest(0);
    /// Ask for readable readiness.
    pub const READABLE: Interest = Interest(1);
    /// Ask for writable readiness.
    pub const WRITABLE: Interest = Interest(2);
    /// Ask for both.
    pub const BOTH: Interest = Interest(3);

    /// Union of two interest sets.
    pub fn or(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether the set includes readable.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether the set includes writable.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `data` word the descriptor was registered with.
    pub data: u64,
    /// Readable (or peer-closed/errored — a read will observe it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition reported by the OS.
    pub error: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(RawFd),
    Poll(Mutex<HashMap<RawFd, (u64, Interest)>>),
}

/// A level-triggered readiness poller.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller on the platform's backend: epoll on Linux,
    /// `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        let poller = Poller {
            backend: Backend::Epoll(sys::epoll::create()?),
        };
        #[cfg(not(target_os = "linux"))]
        let poller = Poller::with_poll_backend();
        Ok(poller)
    }

    /// A poller on the portable `poll(2)` backend, regardless of
    /// platform: what [`new`](Poller::new) builds off Linux.
    pub fn with_poll_backend() -> Poller {
        Poller {
            backend: Backend::Poll(Mutex::new(HashMap::new())),
        }
    }

    /// Which backend this poller runs (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Registers `fd` with the given interest set and user data.
    pub fn register(&self, fd: RawFd, data: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => sys::epoll::ctl(
                *ep,
                sys::epoll::EPOLL_CTL_ADD,
                fd,
                epoll_mask(interest),
                data,
            ),
            Backend::Poll(reg) => {
                reg.lock()
                    .expect("poller registry")
                    .insert(fd, (data, interest));
                Ok(())
            }
        }
    }

    /// Replaces the interest set (and data) of a registered `fd`.
    pub fn reregister(&self, fd: RawFd, data: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => sys::epoll::ctl(
                *ep,
                sys::epoll::EPOLL_CTL_MOD,
                fd,
                epoll_mask(interest),
                data,
            ),
            Backend::Poll(reg) => {
                reg.lock()
                    .expect("poller registry")
                    .insert(fd, (data, interest));
                Ok(())
            }
        }
    }

    /// Removes `fd` from the poller. Always call before closing the
    /// descriptor (required for the `poll(2)` backend, hygiene for
    /// epoll).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => sys::epoll::ctl(*ep, sys::epoll::EPOLL_CTL_DEL, fd, 0, 0),
            Backend::Poll(reg) => {
                reg.lock().expect("poller registry").remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until readiness or `timeout`, appending events to `out`
    /// (which is cleared first). Returns the number of events.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms = timeout.map_or(-1, |t| {
            // Round up so a 0 < t < 1ms timeout still sleeps.
            let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
            i32::try_from(ms).unwrap_or(i32::MAX)
        });
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => {
                let mut buf = [sys::epoll::epoll_event { events: 0, data: 0 }; MAX_EVENTS_PER_WAIT];
                let n = sys::epoll::wait(*ep, &mut buf, timeout_ms)?;
                for ev in &buf[..n] {
                    let bits = ev.events;
                    let error = bits & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0;
                    out.push(Event {
                        data: ev.data,
                        readable: bits
                            & (sys::epoll::EPOLLIN
                                | sys::epoll::EPOLLRDHUP
                                | sys::epoll::EPOLLERR
                                | sys::epoll::EPOLLHUP)
                            != 0,
                        writable: bits & (sys::epoll::EPOLLOUT | sys::epoll::EPOLLERR) != 0,
                        error,
                    });
                }
                Ok(n)
            }
            Backend::Poll(reg) => {
                let mut fds: Vec<sys::pollfd> = Vec::new();
                let mut datas: Vec<u64> = Vec::new();
                {
                    let reg = reg.lock().expect("poller registry");
                    fds.reserve(reg.len());
                    datas.reserve(reg.len());
                    for (&fd, &(data, interest)) in reg.iter() {
                        let mut events = 0i16;
                        if interest.is_readable() {
                            events |= sys::POLLIN;
                        }
                        if interest.is_writable() {
                            events |= sys::POLLOUT;
                        }
                        fds.push(sys::pollfd {
                            fd,
                            events,
                            revents: 0,
                        });
                        datas.push(data);
                    }
                }
                let n = sys::poll_fds(&mut fds, timeout_ms)?;
                if n > 0 {
                    for (pfd, &data) in fds.iter().zip(&datas) {
                        if pfd.revents == 0 {
                            continue;
                        }
                        let error =
                            pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                        out.push(Event {
                            data,
                            readable: pfd.revents
                                & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                                != 0,
                            writable: pfd.revents & (sys::POLLOUT | sys::POLLERR) != 0,
                            error,
                        });
                        if out.len() == n {
                            break;
                        }
                    }
                }
                Ok(out.len())
            }
        }
    }
}

/// Batch size of one `epoll_wait` call; `poll(2)` reports everything
/// ready regardless.
pub const MAX_EVENTS_PER_WAIT: usize = 1024;

#[cfg(target_os = "linux")]
fn epoll_mask(interest: Interest) -> u32 {
    let mut mask = sys::epoll::EPOLLRDHUP;
    if interest.is_readable() {
        mask |= sys::epoll::EPOLLIN;
    }
    if interest.is_writable() {
        mask |= sys::epoll::EPOLLOUT;
    }
    mask
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll(ep) = &self.backend {
            sys::close_fd(*ep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::with_poll_backend()];
        #[cfg(target_os = "linux")]
        v.push(Poller::new().expect("epoll poller"));
        v
    }

    #[test]
    fn interest_set_algebra() {
        assert!(Interest::READABLE.is_readable());
        assert!(!Interest::READABLE.is_writable());
        assert!(Interest::READABLE.or(Interest::WRITABLE).is_writable());
        assert_eq!(Interest::READABLE.or(Interest::WRITABLE), Interest::BOTH);
        assert!(!Interest::NONE.is_readable());
    }

    #[test]
    fn pipe_readability_on_every_backend() {
        for poller in backends() {
            let (r, w) = sys::nonblocking_pipe().expect("pipe");
            poller
                .register(r, 42, Interest::READABLE)
                .expect("register");
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .expect("wait");
            assert_eq!(n, 0, "{}: nothing ready yet", poller.backend_name());
            sys::write_fd(w, b"x").expect("write");
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .expect("wait");
            assert_eq!(n, 1, "{}", poller.backend_name());
            assert_eq!(events[0].data, 42);
            assert!(events[0].readable);
            poller.deregister(r).expect("deregister");
            sys::close_fd(r);
            sys::close_fd(w);
        }
    }

    /// The backpressure primitive: flipping readable interest off
    /// suppresses readiness for a descriptor with pending bytes, and
    /// flipping it back restores it.
    #[test]
    fn interest_flip_suppresses_and_restores_readiness() {
        for poller in backends() {
            let name = poller.backend_name();
            let (r, w) = sys::nonblocking_pipe().expect("pipe");
            poller.register(r, 7, Interest::READABLE).expect("register");
            sys::write_fd(w, b"pending").expect("write");
            let mut events = Vec::new();
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::from_secs(2)))
                    .unwrap(),
                1,
                "{name}: bytes pending"
            );
            // Flip readable off: the same pending bytes must no longer
            // produce an event.
            poller.reregister(r, 7, Interest::NONE).expect("flip off");
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::from_millis(20)))
                    .unwrap(),
                0,
                "{name}: paused registration must stay silent"
            );
            // Flip back on: readiness returns immediately.
            poller
                .reregister(r, 7, Interest::READABLE)
                .expect("flip on");
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::from_secs(2)))
                    .unwrap(),
                1,
                "{name}: resumed registration sees the bytes again"
            );
            poller.deregister(r).expect("deregister");
            sys::close_fd(r);
            sys::close_fd(w);
        }
    }
}
