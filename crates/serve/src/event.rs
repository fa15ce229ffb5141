//! OS readiness notification for the serve engine: raw `epoll` and
//! `eventfd` bindings on Linux.
//!
//! The container builds offline, so there is no `libc`/`mio` dependency —
//! the handful of syscall wrappers the event loop needs are declared
//! directly against the C library that `std` already links. Everything
//! unsafe lives in this module, wrapped in two small RAII types:
//!
//! * [`Epoll`] — an `epoll` instance. Interest is registered per fd with a
//!   caller-chosen `u64` token; [`Epoll::wait`] blocks **in the kernel**
//!   (no busy-wait, no park interval) until an fd is ready or the timeout
//!   elapses. Connections register **edge-triggered** (`EPOLLET`), which
//!   pairs with the serve loop's drain-until-`WouldBlock` discipline;
//!   the shared listener registers `EPOLLEXCLUSIVE` so one readiness
//!   event wakes one worker instead of the whole pool (no thundering
//!   herd).
//! * [`WakeFd`] — a level-triggered `eventfd` registered in every worker's
//!   epoll set. [`WakeFd::wake`] makes it readable and *leaves* it
//!   readable, so a single stop signal wakes every worker no matter how
//!   many are blocked, immediately — this is what lets `epoll_wait` run
//!   with an infinite timeout and still honour shutdown in microseconds.
//!
//! There is no fallback for other platforms: the crate refuses to compile
//! off Linux (see `lib.rs`).

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;

// Constants from the Linux UAPI headers (stable kernel ABI).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLEXCLUSIVE: u32 = 1 << 28;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event`, matching the C library's declaration (packed on
/// x86-64, where the kernel ABI differs from natural alignment).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (or a peer hangup/error is pending, which a read
    /// will surface).
    pub readable: bool,
    /// The fd accepts writes again.
    pub writable: bool,
}

/// Interest to (re-)register for an fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub read: bool,
    /// Wake on writability (armed only while output is backed up).
    pub write: bool,
    /// Edge-triggered: one wakeup per readiness *transition*; the consumer
    /// must drain until `WouldBlock`.
    pub edge: bool,
    /// Exclusive wakeup across epoll instances sharing the fd (listener).
    pub exclusive: bool,
}

impl Interest {
    fn bits(self) -> u32 {
        let mut e = 0;
        if self.read {
            e |= EPOLLIN;
        }
        if self.write {
            e |= EPOLLOUT;
        }
        if self.edge {
            e |= EPOLLET;
        }
        if self.exclusive {
            // EPOLLEXCLUSIVE permits only IN/OUT/ET/WAKEUP alongside it —
            // notably not EPOLLRDHUP, so hangup interest is reserved for
            // plain registrations.
            e |= EPOLLEXCLUSIVE;
        } else {
            e |= EPOLLRDHUP;
        }
        e
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with `interest` under `token`.
    pub fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the registered interest of `fd`.
    pub fn modify(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`. Errors are ignored: the common caller is teardown
    /// where the fd may already be gone.
    pub fn delete(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: same contract as `ctl`; kernels before 2.6.9 required a
        // non-null event pointer for DEL, so one is always passed.
        let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses (`timeout_ms < 0` blocks forever), or a signal interrupts —
    /// interruptions are retried internally. Appends ready events to
    /// `out` (cleared first) and returns how many arrived.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 64;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `raw` is a valid buffer of MAX_EVENTS entries for the
            // duration of the call.
            match cvt(unsafe {
                epoll_wait(self.fd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        out.clear();
        for ev in &raw[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                // Error/hangup conditions are folded into readability: the
                // next read returns 0 or the error, which the connection
                // logic already handles as a drop.
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// A clonable wake signal: a level-triggered `eventfd` shared by every
/// worker. One [`wake`](WakeFd::wake) makes it permanently readable, so
/// all epoll instances it is registered with wake — now and on every
/// subsequent `wait` — until the server exits. The fd closes when the last
/// clone drops.
#[derive(Debug, Clone)]
pub struct WakeFd {
    inner: std::sync::Arc<OwnedFd>,
}

#[derive(Debug)]
struct OwnedFd {
    fd: RawFd,
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // SAFETY: owned fd, closed exactly once.
        unsafe { close(self.fd) };
    }
}

impl WakeFd {
    /// Creates the eventfd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd {
            inner: std::sync::Arc::new(OwnedFd { fd }),
        })
    }

    /// The raw fd, for registration with [`Epoll::add`] (level-triggered
    /// read interest; never drain it).
    pub fn fd(&self) -> RawFd {
        self.inner.fd
    }

    /// Makes the fd readable (idempotent; an already-signalled counter at
    /// `u64::MAX - 1` would make the write block, which `EFD_NONBLOCK`
    /// turns into a harmless `EAGAIN`).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack value to an owned fd.
        let _ = unsafe { write(self.inner.fd, (&one as *const u64).cast(), 8) };
    }
}

/// Best-effort explicit socket buffer sizing (`SO_SNDBUF` / `SO_RCVBUF`,
/// 0 = leave the kernel default). Serving multi-hundred-KB responses over
/// loopback with kernel-default buffers hits a TCP corner: the loopback
/// MSS is ~64 KiB, and a receive buffer smaller than twice that can leave
/// a drained-then-reopened window below the 2×MSS window-update threshold
/// — the ACK is suppressed and the sender sits in zero-window persist
/// probes (200 ms, 400 ms, …). Explicit buffers sized above the largest
/// common response sidestep the whole regime; errors are ignored because
/// a clamped buffer (rmem_max/wmem_max) still helps.
pub fn set_socket_buffers(fd: RawFd, sndbuf: usize, rcvbuf: usize) {
    for (opt, bytes) in [(SO_SNDBUF, sndbuf), (SO_RCVBUF, rcvbuf)] {
        if bytes > 0 {
            let val = bytes.min(i32::MAX as usize) as c_int;
            // SAFETY: passes a valid pointer/length pair for one c_int.
            let _ = unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&val as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            };
        }
    }
}

/// Interest presets used by the serve loop.
pub mod interest {
    use super::Interest;

    /// Edge-triggered read interest for a connection.
    pub const CONN_READ: Interest = Interest {
        read: true,
        write: false,
        edge: true,
        exclusive: false,
    };

    /// Edge-triggered read+write interest for a connection with backed-up
    /// output.
    pub const CONN_READ_WRITE: Interest = Interest {
        read: true,
        write: true,
        edge: true,
        exclusive: false,
    };

    /// Exclusive level-triggered read interest for the shared listener.
    pub const LISTENER: Interest = Interest {
        read: true,
        write: false,
        edge: false,
        exclusive: true,
    };

    /// Level-triggered read interest for the wake eventfd.
    pub const WAKE: Interest = Interest {
        read: true,
        write: false,
        edge: false,
        exclusive: false,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn wait_times_out_when_nothing_is_ready() {
        let ep = Epoll::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = ep.wait(&mut events, 30).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn readiness_and_tokens_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), interest::LISTENER, 7).unwrap();

        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "idle listener");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(ep.wait(&mut events, 2000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        ep.add(conn.as_raw_fd(), interest::CONN_READ, 9).unwrap();
        client.write_all(b"ping").unwrap();
        assert!(ep.wait(&mut events, 2000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(conn.read(&mut buf).unwrap(), 4);

        // Edge-triggered: drained socket produces no further events.
        assert_eq!(ep.wait(&mut events, 30).unwrap(), 0);

        // Re-arming with write interest reports writability immediately on
        // an idle socket.
        ep.modify(conn.as_raw_fd(), interest::CONN_READ_WRITE, 9)
            .unwrap();
        assert!(ep.wait(&mut events, 2000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        ep.delete(conn.as_raw_fd());
        client.write_all(b"gone").unwrap();
        assert_eq!(ep.wait(&mut events, 30).unwrap(), 0, "deregistered fd");
    }

    #[test]
    fn wake_fd_wakes_every_instance_and_stays_readable() {
        let wake = WakeFd::new().unwrap();
        let eps: Vec<Epoll> = (0..3).map(|_| Epoll::new().unwrap()).collect();
        for ep in &eps {
            ep.add(wake.fd(), interest::WAKE, u64::MAX).unwrap();
        }
        let mut events = Vec::new();
        for ep in &eps {
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "not yet signalled");
        }
        wake.clone().wake();
        for ep in &eps {
            // Level-triggered and never drained: readable now...
            assert!(ep.wait(&mut events, 2000).unwrap() >= 1);
            assert!(events[0].token == u64::MAX && events[0].readable);
            // ...and still readable on the next wait.
            assert!(ep.wait(&mut events, 2000).unwrap() >= 1);
        }
    }
}
