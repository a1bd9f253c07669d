//! Per-connection buffered read/write state machine.
//!
//! A [`BufferedConn`] wraps one nonblocking `TcpStream` and owns the
//! two buffers a reactor needs to drive a length-prefixed protocol
//! without ever blocking:
//!
//! * **Read side** — [`fill`](BufferedConn::fill) pulls whatever the
//!   socket has into an accumulator; [`next_frame`](BufferedConn::next_frame)
//!   extracts complete `u32-LE length + body` frames from it, leaving
//!   partial frames buffered until the rest arrives (a slow sender is
//!   never misread as malformed).
//! * **Write side** — [`queue`](BufferedConn::queue) appends encoded
//!   bytes; [`flush`](BufferedConn::flush) writes as much as the
//!   socket accepts and *resumes mid-frame* on the next writable
//!   event, so a half-flushed frame survives `WouldBlock` intact.
//!
//! The desired poller interest set falls out of the state:
//! [`wants_write`](BufferedConn::wants_write) is true exactly while
//! flushed bytes are pending.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};

/// How a nonblocking read pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPass {
    /// Bytes pulled into the accumulator this pass.
    pub bytes: usize,
    /// Whether the peer half-closed (EOF observed).
    pub eof: bool,
}

/// How a flush pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPass {
    /// Everything queued has reached the socket.
    Flushed,
    /// The socket stopped accepting bytes mid-buffer; re-arm writable
    /// interest and call [`BufferedConn::flush`] again on the next
    /// writable event.
    Partial,
}

/// A frame-level defect in the inbound byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// Length prefix of zero or beyond the caller's maximum.
    BadLength(u32),
}

/// One nonblocking connection with buffered framing state.
pub struct BufferedConn {
    stream: TcpStream,
    /// Inbound accumulator; `rpos..` is unconsumed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Outbound buffer; `wpos..` is unflushed.
    wbuf: Vec<u8>,
    wpos: usize,
}

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Compact thresholds: drop consumed prefixes once they dominate.
const COMPACT_MIN: usize = 4 * 1024;

impl BufferedConn {
    /// Takes ownership of `stream`, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<BufferedConn> {
        stream.set_nonblocking(true)?;
        Ok(BufferedConn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
        })
    }

    /// The underlying socket (for `setsockopt`-style tweaks).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The raw descriptor, for poller registration.
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Pulls available bytes from the socket into the accumulator
    /// until `WouldBlock`, EOF, or the accumulator holds `max_buffer`
    /// unconsumed bytes (DoS bound — at least one maximum frame must
    /// fit for progress).
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock`/`Interrupted`. Bytes
    /// read before the error stay buffered for `next_frame`: a peer's
    /// reset arrives after the data it sent.
    pub fn fill(&mut self, max_buffer: usize) -> io::Result<ReadPass> {
        let mut pass = ReadPass {
            bytes: 0,
            eof: false,
        };
        loop {
            if self.buffered_len() >= max_buffer {
                return Ok(pass);
            }
            let old_len = self.rbuf.len();
            self.rbuf.resize(old_len + READ_CHUNK, 0);
            match self.stream.read(&mut self.rbuf[old_len..]) {
                Ok(0) => {
                    self.rbuf.truncate(old_len);
                    pass.eof = true;
                    return Ok(pass);
                }
                Ok(n) => {
                    self.rbuf.truncate(old_len + n);
                    pass.bytes += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.rbuf.truncate(old_len);
                    return Ok(pass);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(old_len);
                }
                Err(e) => {
                    self.rbuf.truncate(old_len);
                    return Err(e);
                }
            }
        }
    }

    /// Unconsumed inbound bytes currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Extracts the next complete length-prefixed frame body, if one
    /// is fully buffered. `Ok(None)` means "incomplete — wait for more
    /// bytes"; a partial prefix or body stays buffered.
    ///
    /// # Errors
    ///
    /// [`FrameDefect::BadLength`] for a zero or over-`max_frame`
    /// prefix — the stream is unrecoverable past that point.
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<Vec<u8>>, FrameDefect> {
        let avail = &self.rbuf[self.rpos..];
        if avail.len() < 4 {
            self.maybe_compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len as usize > max_frame {
            return Err(FrameDefect::BadLength(len));
        }
        let need = 4 + len as usize;
        if avail.len() < need {
            self.maybe_compact();
            return Ok(None);
        }
        let body = avail[4..need].to_vec();
        self.rpos += need;
        self.maybe_compact();
        Ok(Some(body))
    }

    /// Whether at least a frame prefix is pending (possibly
    /// incomplete): used to distinguish "EOF at a frame boundary" from
    /// "EOF inside a frame".
    pub fn mid_frame(&self) -> bool {
        self.buffered_len() > 0
    }

    /// Appends encoded bytes to the outbound buffer. Call
    /// [`flush`](Self::flush) to move them to the socket.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Lets `encode` append straight to the outbound buffer, saving the
    /// copy through a scratch buffer that [`queue`](Self::queue) takes.
    pub fn queue_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.wbuf);
    }

    /// Outbound bytes not yet accepted by the socket.
    pub fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the connection needs writable readiness.
    pub fn wants_write(&self) -> bool {
        self.pending_write() > 0
    }

    /// Writes as much of the outbound buffer as the socket accepts.
    /// A partial write leaves the remainder (even mid-frame) buffered
    /// for the next call — partial-write resumption.
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock`/`Interrupted` (e.g. a
    /// broken pipe once the peer is gone).
    pub fn flush(&mut self) -> io::Result<FlushPass> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact_write();
                    return Ok(FlushPass::Partial);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(FlushPass::Flushed)
    }

    /// Drops the consumed read prefix once it dominates the buffer.
    fn maybe_compact(&mut self) {
        if self.rpos >= COMPACT_MIN && self.rpos * 2 >= self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Same for the flushed write prefix.
    fn compact_write(&mut self) {
        if self.wpos >= COMPACT_MIN && self.wpos * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn frames_reassemble_across_arbitrary_splits() {
        let (client, server) = loopback_pair();
        let mut conn = BufferedConn::new(server).expect("conn");
        let mut client = client;
        use std::io::Write as _;

        let wire: Vec<u8> = [frame(b"alpha"), frame(b"bee"), frame(b"c")].concat();
        // Dribble the bytes in pathological splits.
        for chunk in wire.chunks(3) {
            client.write_all(chunk).expect("write");
            client.flush().expect("flush");
            // Give the kernel a beat to make the bytes readable.
            std::thread::sleep(std::time::Duration::from_millis(1));
            conn.fill(1 << 20).expect("fill");
        }
        let mut got = Vec::new();
        while let Some(body) = conn.next_frame(1 << 16).expect("frame") {
            got.push(body);
        }
        assert_eq!(got, vec![b"alpha".to_vec(), b"bee".to_vec(), b"c".to_vec()]);
        assert!(!conn.mid_frame(), "no residue after whole frames");
    }

    #[test]
    fn zero_and_oversized_lengths_are_defects() {
        let (client, server) = loopback_pair();
        let mut conn = BufferedConn::new(server).expect("conn");
        let mut client = client;
        use std::io::Write as _;
        client.write_all(&0u32.to_le_bytes()).expect("write");
        client.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(5));
        conn.fill(1 << 20).expect("fill");
        assert_eq!(conn.next_frame(64), Err(FrameDefect::BadLength(0)));

        let (client2, server2) = loopback_pair();
        let mut conn2 = BufferedConn::new(server2).expect("conn");
        let mut client2 = client2;
        client2.write_all(&u32::MAX.to_le_bytes()).expect("write");
        client2.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(5));
        conn2.fill(1 << 20).expect("fill");
        assert_eq!(conn2.next_frame(64), Err(FrameDefect::BadLength(u32::MAX)));
    }

    /// The reactor's write-side contract: a frame split by a full
    /// socket buffer resumes exactly where it stopped, and the peer
    /// reassembles the byte stream intact.
    #[test]
    fn partial_write_resumes_a_half_flushed_frame() {
        let (client, server) = loopback_pair();
        let mut conn = BufferedConn::new(server).expect("conn");

        // One large frame, far beyond any default socket buffer, so
        // flush() must hit WouldBlock mid-frame.
        let body: Vec<u8> = (0..8 * 1024 * 1024u32).map(|i| i as u8).collect();
        conn.queue(&frame(&body));
        let first = conn.flush().expect("first flush");
        assert_eq!(first, FlushPass::Partial, "8 MiB cannot flush in one pass");
        assert!(
            conn.wants_write(),
            "half-flushed frame keeps writable interest"
        );

        // Reader thread consumes while we keep resuming the flush.
        let reader = std::thread::spawn(move || {
            let mut client = client;
            let mut all = Vec::new();
            let mut buf = [0u8; 65536];
            use std::io::Read as _;
            loop {
                match client.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => all.extend_from_slice(&buf[..n]),
                    Err(e) => panic!("reader: {e}"),
                }
                if all.len() >= 4 + body_len_of(&all) {
                    break;
                }
            }
            all
        });
        fn body_len_of(all: &[u8]) -> usize {
            if all.len() < 4 {
                return usize::MAX - 8;
            }
            u32::from_le_bytes([all[0], all[1], all[2], all[3]]) as usize
        }

        let mut passes = 1u32;
        while conn.wants_write() {
            match conn.flush().expect("resume flush") {
                FlushPass::Flushed => break,
                FlushPass::Partial => {
                    passes += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        assert!(passes > 1, "resumption exercised across {passes} passes");
        let got = reader.join().expect("reader");
        assert_eq!(&got[..4], &(body.len() as u32).to_le_bytes());
        assert_eq!(&got[4..], &body[..], "peer reassembled the split frame");
    }
}
