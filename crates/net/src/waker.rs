//! Cross-thread reactor wakeup over a self-pipe.
//!
//! A reactor thread blocks in [`Poller::wait`](crate::Poller::wait);
//! other threads (a shutdown handle, an acceptor handing off a
//! connection) get its attention by writing one
//! byte into a nonblocking pipe whose read end is registered in the
//! poller. A full pipe means a wakeup is already pending, so
//! [`Waker::wake`] treats `WouldBlock` as success — wakeups coalesce
//! instead of blocking the producer.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;

use crate::sys;

struct WriteEnd(RawFd);

impl Drop for WriteEnd {
    fn drop(&mut self) {
        sys::close_fd(self.0);
    }
}

/// The cloneable, thread-safe wakeup handle (pipe write end).
#[derive(Clone)]
pub struct Waker {
    fd: Arc<WriteEnd>,
}

impl Waker {
    /// Wakes the owning reactor. Never blocks; coalesces with a
    /// wakeup already pending.
    pub fn wake(&self) {
        // A full pipe means a wakeup is already queued; a closed
        // reactor means nothing is left to wake. The contract holds
        // either way, so the result is deliberately ignored.
        let _ = sys::write_fd(self.fd.0, &[1u8]);
    }
}

/// The reactor-side read end of the wakeup pipe.
pub struct WakeReader {
    fd: RawFd,
}

impl WakeReader {
    /// The descriptor to register for readable readiness.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Consumes every pending wakeup byte. Returns whether any were
    /// pending.
    pub fn drain(&self) -> bool {
        let mut buf = [0u8; 64];
        let mut any = false;
        loop {
            match sys::read_fd(self.fd, &mut buf) {
                Ok(0) => return any, // writer gone
                Ok(_) => any = true,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return any,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return any,
            }
        }
    }
}

impl Drop for WakeReader {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Creates a connected `(reader, waker)` pair.
pub fn wake_pair() -> io::Result<(WakeReader, Waker)> {
    let (r, w) = sys::nonblocking_pipe()?;
    Ok((
        WakeReader { fd: r },
        Waker {
            fd: Arc::new(WriteEnd(w)),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_then_drain_round_trip() {
        let (reader, waker) = wake_pair().expect("wake pair");
        assert!(!reader.drain(), "fresh pair has no pending wakeup");
        waker.wake();
        waker.wake(); // coalesces
        assert!(reader.drain(), "wakeups observed");
        assert!(!reader.drain(), "drain consumed everything");
    }

    #[test]
    fn wake_survives_a_flooded_pipe() {
        let (reader, waker) = wake_pair().expect("wake pair");
        // Flood far past any pipe buffer; every wake must return.
        for _ in 0..200_000 {
            waker.wake();
        }
        assert!(reader.drain());
    }
}
