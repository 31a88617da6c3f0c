//! A thin, dependency-free Linux readiness reactor.
//!
//! The serving layer needs exactly four kernel facilities to replace its
//! thread-per-connection front end with event loops: `epoll` (readiness
//! notification), `eventfd` (cross-thread wakeups), `accept4` (accept
//! with `O_NONBLOCK` applied atomically), and `fcntl` (flipping existing
//! sockets nonblocking). The build environment has no registry access —
//! `mio`/`tokio`/`libc` are unavailable — so this crate binds those
//! calls directly (see [`sys`]) and wraps them in a safe API:
//!
//! * [`Poller`] — an epoll instance: register/modify/deregister file
//!   descriptors with an [`Interest`] mask and a caller token, then
//!   [`Poller::wait`] for [`Event`]s;
//! * [`Waker`] — an eventfd registered with a poller, for waking an
//!   event loop from another thread (new work, shutdown);
//! * [`accept_nonblocking`] — drains a listening socket via `accept4`,
//!   returning ready-made nonblocking [`TcpStream`]s;
//! * [`RecvBuf`] / [`SendBuf`] — nonblocking buffered line reading and
//!   backpressure-aware buffered writing over any `Read`/`Write`
//!   transport, the per-connection halves of a readiness-driven line
//!   protocol.
//!
//! Every `unsafe` block is a direct syscall wrapper confined to this
//! crate; the buffer helpers are pure safe code (and are unit-tested
//! over socketpairs, as is the poller).

#![warn(missing_docs)]

pub mod sys;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

/// Which readiness a registration asks for. Full hang-up and error
/// events are always delivered regardless of the mask (epoll
/// semantics); peer write-half closes (`EPOLLRDHUP`) are opt-out via
/// [`Interest::without_rdhup`] — a level-triggered poller would
/// otherwise re-report a half-closed peer forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer hangs up).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
    /// Report the peer closing its write half ([`Event::rdhup`]); on by
    /// default.
    pub rdhup: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        rdhup: true,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
        rdhup: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
        rdhup: true,
    };

    /// This interest with half-close reporting masked off (for a
    /// connection whose hang-up was already observed and handled).
    pub fn without_rdhup(self) -> Interest {
        Interest {
            rdhup: false,
            ..self
        }
    }

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.rdhup {
            m |= sys::EPOLLRDHUP;
        }
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness event: the registration's token plus what happened.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (data, or EOF, pending).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer closed its write half (`EPOLLRDHUP`): no more request
    /// bytes will ever arrive, but the peer may still be reading.
    pub rdhup: bool,
    /// The fd is fully hung up (`EPOLLHUP`): both directions are dead.
    pub hup: bool,
    /// The fd is in an error state (EPOLLERR).
    pub error: bool,
}

impl Event {
    /// Whether the peer is gone in at least the read direction (a read
    /// will observe EOF once buffered data is drained).
    pub fn closed(&self) -> bool {
        self.rdhup || self.hup
    }
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// An epoll instance. Dropping it closes the epoll fd; registered fds
/// are not affected (the kernel drops their registrations with the
/// instance).
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Option<(Interest, u64)>) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: interest.map(|(i, _)| i.mask()).unwrap_or(0),
            u64: interest.map(|(_, t)| t).unwrap_or(0),
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning (DEL ignores the pointer on modern kernels but a
        // valid one is passed anyway for portability).
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_err());
        }
        Ok(())
    }

    /// Registers `fd` for `interest`, delivering `token` with its events.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, Some((interest, token)))
    }

    /// Changes an existing registration's interest (and token).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, Some((interest, token)))
    }

    /// Removes `fd` from the instance. Closing the fd deregisters it
    /// implicitly; explicit deregistration is for fds that outlive their
    /// registration.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until at least one event is ready or `timeout` elapses
    /// (`None` waits indefinitely), appending up to `max` events into
    /// `out` (which is cleared first). Returns the number delivered;
    /// `0` means the timeout elapsed. A timeout of `Some(ZERO)` polls.
    /// EINTR is retried with the original timeout (close enough for an
    /// event loop that re-derives timeouts every turn).
    pub fn wait(
        &self,
        out: &mut Vec<Event>,
        max: usize,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        out.clear();
        let max = max.clamp(1, 4096) as i32;
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100 µs deadline does not spin at timeout 0.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(d.subsec_millis() as u128 * 1_000_000 != d.subsec_nanos() as u128)
            }
        };
        let mut buf: Vec<sys::epoll_event> =
            vec![sys::epoll_event { events: 0, u64: 0 }; max as usize];
        let n = loop {
            // SAFETY: `buf` holds `max` writable events for the call.
            let n = unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), max, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let e = last_err();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.u64,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                rdhup: bits & sys::EPOLLRDHUP != 0,
                hup: bits & sys::EPOLLHUP != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { sys::close(self.epfd) };
    }
}

/// Wakes a [`Poller`]'s event loop from another thread: an eventfd
/// registered like any other fd. `wake()` makes the poller's next (or
/// current) [`Poller::wait`] return an event carrying the waker's
/// token; the loop then calls [`Waker::drain`] and checks its inboxes.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_err());
        }
        let waker = Waker { fd };
        poller.register(fd, token, Interest::READ)?;
        Ok(waker)
    }

    /// Makes the owning poller's wait return now (idempotent until
    /// drained; eventfd writes accumulate into one readable event).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack value. An EAGAIN
        // (counter at max) still leaves the fd readable, which is all
        // a wakeup needs, so the result is deliberately ignored.
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Clears the pending wakeup counter (call when the waker's token
    /// fires, before checking work queues, so no wakeup is lost).
    pub fn drain(&self) {
        let mut v: u64 = 0;
        // SAFETY: reading 8 bytes into a live stack value; EAGAIN when
        // already drained is fine.
        unsafe { sys::read(self.fd, (&mut v as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// Flips an fd's `O_NONBLOCK` flag via `fcntl` (for sockets that were
/// created blocking, e.g. by `TcpListener::bind`).
pub fn set_nonblocking(fd: RawFd, nonblocking: bool) -> io::Result<()> {
    // SAFETY: F_GETFL/F_SETFL take/return plain integers.
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL) };
    if flags < 0 {
        return Err(last_err());
    }
    let flags = if nonblocking {
        flags | sys::O_NONBLOCK
    } else {
        flags & !sys::O_NONBLOCK
    };
    // SAFETY: as above.
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags) } < 0 {
        return Err(last_err());
    }
    Ok(())
}

/// Accepts one pending connection from a (nonblocking) listener via
/// `accept4`, returning it already `SOCK_NONBLOCK | SOCK_CLOEXEC`.
/// `Ok(None)` means no connection is pending right now; call again on
/// the next readable event. Transient per-connection errors
/// (`ECONNABORTED` et al.) surface as `Err` — callers should treat
/// non-`WouldBlock` errors on an otherwise healthy listener as "skip
/// this one and keep accepting".
pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    // SAFETY: null addr/addrlen is the documented "don't care" form.
    let fd = unsafe {
        sys::accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
        )
    };
    if fd < 0 {
        let e = last_err();
        return if e.kind() == io::ErrorKind::WouldBlock {
            Ok(None)
        } else {
            Err(e)
        };
    }
    // SAFETY: accept4 returned a fresh fd we exclusively own.
    Ok(Some(unsafe { TcpStream::from_raw_fd(fd) }))
}

/// What a nonblocking buffered read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// Appended at least one byte; the transport may have more.
    Progress(usize),
    /// No data available right now (`EWOULDBLOCK`).
    WouldBlock,
    /// The peer closed; no more data will ever arrive.
    Eof,
}

/// A per-connection receive buffer for a nonblocking line protocol:
/// append whatever the transport has ([`RecvBuf::fill_from`]), then
/// extract complete lines ([`RecvBuf::take_line`]) with an incremental
/// length cap — an over-long line is detected as soon as its bytes
/// exceed the cap, newline or not, so a client cannot make the server
/// buffer without limit by simply never finishing a line.
#[derive(Debug, Default)]
pub struct RecvBuf {
    data: Vec<u8>,
    /// Scan cursor: bytes before this index are known newline-free.
    scanned: usize,
}

/// One complete line extracted from a [`RecvBuf`], or the reason none
/// is available.
#[derive(Debug, PartialEq, Eq)]
pub enum TakeLine {
    /// A complete line, terminator stripped (both `\n` and `\r\n`).
    Line(Vec<u8>),
    /// No full line buffered yet; wait for more bytes.
    Partial,
    /// The (possibly still incomplete) first line already exceeds the
    /// cap; the buffered prefix length is reported. The buffer is left
    /// untouched — the connection is expected to be closed.
    TooLong(usize),
}

impl RecvBuf {
    /// An empty buffer.
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// Buffered-but-unconsumed byte count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads whatever `src` has ready, without blocking, up to
    /// `max_total` buffered bytes (a hard cap against hostile floods;
    /// pass `usize::MAX` for none). Returns the first of: EOF,
    /// would-block, the cap being reached, or one large chunk read.
    pub fn fill_from(&mut self, src: &mut impl Read, max_total: usize) -> io::Result<FillOutcome> {
        let mut total = 0usize;
        loop {
            if self.data.len() >= max_total {
                return Ok(FillOutcome::Progress(total.max(1)));
            }
            let chunk = (max_total - self.data.len()).min(16 * 1024);
            let old = self.data.len();
            self.data.resize(old + chunk, 0);
            match src.read(&mut self.data[old..]) {
                Ok(0) => {
                    self.data.truncate(old);
                    return Ok(FillOutcome::Eof);
                }
                Ok(n) => {
                    self.data.truncate(old + n);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.data.truncate(old);
                    return Ok(if total > 0 {
                        FillOutcome::Progress(total)
                    } else {
                        FillOutcome::WouldBlock
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.data.truncate(old);
                }
                Err(e) => {
                    self.data.truncate(old);
                    return Err(e);
                }
            }
        }
    }

    /// Extracts the next complete line if one is buffered. `max_line`
    /// is enforced incrementally: a first line whose bytes exceed it is
    /// reported [`TakeLine::TooLong`] even before its newline arrives.
    pub fn take_line(&mut self, max_line: usize) -> TakeLine {
        match self.data[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| self.scanned + p)
        {
            Some(nl) => {
                if nl > max_line {
                    return TakeLine::TooLong(nl);
                }
                let mut line: Vec<u8> = self.data.drain(..=nl).collect();
                self.scanned = 0;
                while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    line.pop();
                }
                TakeLine::Line(line)
            }
            None => {
                self.scanned = self.data.len();
                if self.data.len() > max_line {
                    TakeLine::TooLong(self.data.len())
                } else {
                    TakeLine::Partial
                }
            }
        }
    }
}

/// What a nonblocking buffered flush achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Everything queued has reached the transport.
    Done,
    /// The transport stopped accepting bytes; data remains queued —
    /// register write interest and flush again on the next writable
    /// event (backpressure).
    Pending,
    /// The peer is gone (broken pipe / reset); queued data is dropped.
    Closed,
}

/// A per-connection send buffer: queue response bytes, flush as much as
/// the socket accepts, keep the rest for the next writable event. The
/// consumed prefix is tracked by offset and compacted lazily so steady
/// small writes never reallocate.
#[derive(Debug, Default)]
pub struct SendBuf {
    data: Vec<u8>,
    sent: usize,
}

impl SendBuf {
    /// An empty buffer.
    pub fn new() -> SendBuf {
        SendBuf::default()
    }

    /// Bytes queued and not yet accepted by the transport.
    pub fn pending(&self) -> usize {
        self.data.len() - self.sent
    }

    /// Whether everything queued has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Queues `bytes` for sending.
    pub fn queue(&mut self, bytes: &[u8]) {
        if self.sent > 0 && self.sent == self.data.len() {
            self.data.clear();
            self.sent = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// Writes as much queued data as `dst` accepts without blocking.
    pub fn flush_to(&mut self, dst: &mut impl Write) -> FlushOutcome {
        while self.sent < self.data.len() {
            match dst.write(&self.data[self.sent..]) {
                Ok(0) => return FlushOutcome::Closed,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushOutcome::Closed,
            }
        }
        // Fully drained: reclaim the space.
        self.data.clear();
        self.sent = 0;
        FlushOutcome::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    #[test]
    fn poller_reports_readable_after_a_write() {
        let poller = Poller::new().expect("poller");
        let (a, mut b) = pair();
        poller
            .register(a.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        let mut events = Vec::new();

        // Nothing pending: a zero timeout polls and returns empty.
        let n = poller
            .wait(&mut events, 16, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(n, 0, "no events before any write");

        b.write_all(b"x").expect("write");
        let n = poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable && !events[0].closed());
    }

    #[test]
    fn poller_reports_hup_when_the_peer_closes() {
        let poller = Poller::new().expect("poller");
        let (a, b) = pair();
        poller
            .register(a.as_raw_fd(), 3, Interest::READ)
            .expect("register");
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert!(
            events[0].closed(),
            "peer close surfaces as hang-up: {:?}",
            events[0]
        );
    }

    #[test]
    fn modify_switches_interest_and_deregister_silences() {
        let poller = Poller::new().expect("poller");
        let (a, mut b) = pair();
        // Write interest on an empty socket buffer fires immediately.
        poller
            .register(a.as_raw_fd(), 1, Interest::WRITE)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events[0].writable);

        // Switch to read-only interest: no more writable events.
        poller
            .modify(a.as_raw_fd(), 2, Interest::READ)
            .expect("modify");
        let n = poller
            .wait(&mut events, 16, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(n, 0);
        b.write_all(b"y").expect("write");
        poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events[0].token, 2, "modified token is delivered");

        poller.deregister(a.as_raw_fd()).expect("deregister");
        b.write_all(b"z").expect("write");
        let n = poller
            .wait(&mut events, 16, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(n, 0, "deregistered fd is silent");
    }

    #[test]
    fn waker_wakes_across_threads_and_drains() {
        let poller = Poller::new().expect("poller");
        let waker = std::sync::Arc::new(Waker::new(&poller, 99).expect("waker"));
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake(); // coalesces
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events[0].token, 99);
        waker.drain();
        let n = poller
            .wait(&mut events, 16, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(n, 0, "drained waker is quiet");
        t.join().expect("waker thread");
    }

    #[test]
    fn recv_buf_extracts_lines_across_partial_reads() {
        let (mut a, mut b) = pair();
        let mut buf = RecvBuf::new();
        b.write_all(b"hel").expect("write");
        assert!(matches!(
            buf.fill_from(&mut a, usize::MAX).expect("fill"),
            FillOutcome::Progress(3)
        ));
        assert_eq!(buf.take_line(1024), TakeLine::Partial);
        b.write_all(b"lo\r\nworld\n!").expect("write");
        buf.fill_from(&mut a, usize::MAX).expect("fill");
        assert_eq!(buf.take_line(1024), TakeLine::Line(b"hello".to_vec()));
        assert_eq!(buf.take_line(1024), TakeLine::Line(b"world".to_vec()));
        assert_eq!(buf.take_line(1024), TakeLine::Partial, "trailing fragment");
        assert!(matches!(
            buf.fill_from(&mut a, usize::MAX).expect("fill"),
            FillOutcome::WouldBlock
        ));
        drop(b);
        assert_eq!(
            buf.fill_from(&mut a, usize::MAX).expect("fill"),
            FillOutcome::Eof
        );
    }

    #[test]
    fn recv_buf_flags_overlong_lines_before_their_newline() {
        let (mut a, mut b) = pair();
        let mut buf = RecvBuf::new();
        // 20 bytes, no newline, cap 16: flagged while still incomplete.
        b.write_all(&[b'a'; 20]).expect("write");
        buf.fill_from(&mut a, usize::MAX).expect("fill");
        assert_eq!(buf.take_line(16), TakeLine::TooLong(20));
        // A completed line over the cap is flagged too.
        b.write_all(b"\n").expect("write");
        buf.fill_from(&mut a, usize::MAX).expect("fill");
        assert_eq!(buf.take_line(16), TakeLine::TooLong(20));
    }

    /// An in-memory transport delivering `data` in scheduled chunks: each
    /// chunk arrives in reads of at most `read_cap` bytes, optionally
    /// after one `Interrupted`, and is followed by `WouldBlock`; the end
    /// of `data` reads as EOF.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        /// (end offset, interrupt first) per chunk, in delivery order.
        chunks: std::collections::VecDeque<(usize, bool)>,
        read_cap: usize,
    }

    impl Trickle {
        fn new(data: &[u8], sizes: &[(usize, bool)], read_cap: usize) -> Trickle {
            let mut end = 0;
            let mut chunks = std::collections::VecDeque::new();
            for &(size, interrupt) in sizes {
                if end == data.len() {
                    break;
                }
                end = (end + size).min(data.len());
                chunks.push_back((end, interrupt));
            }
            // Whatever the schedule left over arrives as one last chunk.
            if end < data.len() {
                chunks.push_back((data.len(), false));
            }
            Trickle {
                data: data.to_vec(),
                pos: 0,
                chunks,
                read_cap,
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(&mut (end, ref mut interrupt)) = self.chunks.front_mut() else {
                return Ok(0);
            };
            if std::mem::take(interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.pos == end {
                self.chunks.pop_front();
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = (end - self.pos).min(buf.len()).min(self.read_cap);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drives `src` the way the reactor does — fill, then take lines
    /// until none is complete — to EOF or the first over-long line.
    /// Returns the lines and whether `TooLong` fired.
    fn drain_lines(src: &mut impl Read, max_line: usize) -> (Vec<Vec<u8>>, bool) {
        let mut buf = RecvBuf::new();
        let mut lines = Vec::new();
        loop {
            let fill = buf.fill_from(src, usize::MAX).expect("in-memory read");
            loop {
                match buf.take_line(max_line) {
                    TakeLine::Line(line) => lines.push(line),
                    TakeLine::Partial => break,
                    TakeLine::TooLong(_) => return (lines, true),
                }
            }
            if fill == FillOutcome::Eof {
                return (lines, false);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// However the byte stream is split into reads, `fill_from` and
        /// `take_line` yield the lines one-shot delivery yields, and
        /// flag an over-long line in both cases or in neither.
        #[test]
        fn recv_buf_lines_survive_any_split_schedule(
            bytes in proptest::prelude::prop::collection::vec(0u8..6, 0..160),
            sizes in proptest::prelude::prop::collection::vec(
                (1usize..24, proptest::prelude::prop::bool::ANY), 0..40),
            read_cap in 1usize..8,
            max_line in 0usize..24,
        ) {
            // A small alphabet, so newlines and CRLF pairs are frequent.
            let data: Vec<u8> = bytes.iter().map(|&b| b"ab\r\nx\n"[usize::from(b)]).collect();
            let whole = drain_lines(&mut &data[..], max_line);
            let split = drain_lines(&mut Trickle::new(&data, &sizes, read_cap), max_line);
            proptest::prop_assert_eq!(split, whole);
        }
    }

    #[test]
    fn send_buf_backpressures_and_resumes() {
        let (mut a, b) = pair();
        let mut out = SendBuf::new();
        // Flood until the kernel buffer fills: flush reports Pending.
        let chunk = vec![7u8; 64 * 1024];
        let mut queued = 0usize;
        loop {
            out.queue(&chunk);
            queued += chunk.len();
            match out.flush_to(&mut a) {
                FlushOutcome::Done => continue,
                FlushOutcome::Pending => break,
                FlushOutcome::Closed => panic!("peer alive"),
            }
        }
        assert!(out.pending() > 0);
        // Drain the peer; the pending tail flushes through.
        let mut drained = 0usize;
        let mut sink = vec![0u8; 64 * 1024];
        let mut reader = &b;
        loop {
            match reader.read(&mut sink) {
                Ok(n) => drained += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => match out.flush_to(&mut a) {
                    FlushOutcome::Done if out.is_empty() => break,
                    FlushOutcome::Closed => panic!("peer alive"),
                    _ => {}
                },
                Err(e) => panic!("read: {e}"),
            }
        }
        // Whatever is left in flight is in the kernel buffers; drain it.
        loop {
            match reader.read(&mut sink) {
                Ok(n) => drained += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        assert_eq!(drained, queued, "every queued byte arrived exactly once");
    }

    #[test]
    fn send_buf_reports_a_closed_peer() {
        let (mut a, b) = pair();
        drop(b);
        let mut out = SendBuf::new();
        out.queue(b"into the void");
        // The first write may succeed into a doomed buffer; the second
        // observes EPIPE. Either way it settles on Closed.
        let mut last = out.flush_to(&mut a);
        if last == FlushOutcome::Done {
            out.queue(b"again");
            last = out.flush_to(&mut a);
        }
        assert_eq!(last, FlushOutcome::Closed);
    }

    #[test]
    fn accept_nonblocking_drains_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        assert!(accept_nonblocking(&listener).expect("empty").is_none());
        let addr = listener.local_addr().expect("addr");
        let _c1 = TcpStream::connect(addr).expect("connect");
        let _c2 = TcpStream::connect(addr).expect("connect");
        // Poll until both arrive (loopback accept is quick but async).
        let mut got = 0;
        for _ in 0..500 {
            match accept_nonblocking(&listener).expect("accept") {
                Some(s) => {
                    // accept4's SOCK_NONBLOCK applied: a read would block.
                    let mut probe = [0u8; 1];
                    let e = (&s).read(&mut probe).expect_err("no data yet");
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    got += 1;
                    if got == 2 {
                        break;
                    }
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        assert_eq!(got, 2, "both pending connections accepted");
    }

    #[test]
    fn set_nonblocking_flips_a_blocking_socket() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        set_nonblocking(a.as_raw_fd(), true).expect("set");
        let mut probe = [0u8; 1];
        let e = (&a).read(&mut probe).expect_err("would block");
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
    }
}
