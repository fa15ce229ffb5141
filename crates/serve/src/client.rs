//! A small blocking client for the `rlz-serve` protocol.
//!
//! One [`Client`] wraps one TCP connection. The convenience calls
//! ([`get`](Client::get), [`mget`](Client::mget), …) issue one request at
//! a time; the split `send_*` / `recv_*` pairs pipeline — write several
//! request frames before reading the responses back **in request order**,
//! which is how the `rlz-bench` load generator keeps a configurable number
//! of frames outstanding per connection. Response buffers are reused
//! across calls, so a warm `get_into` allocates only when a document
//! outgrows every previous one.

use crate::protocol::{
    self, MAX_RESPONSE_LEN, MGET_ENTRY_ERR, STATUS_BUSY, STATUS_OK, STAT_BODY_LEN,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rlz_store::{Integrity, StoreStats};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure (includes the server closing the connection).
    Io(io::Error),
    /// The byte stream violates the protocol.
    Protocol(&'static str),
    /// The server answered with an error frame.
    Server {
        /// The response status code (`STATUS_*`).
        status: u8,
        /// The server's UTF-8 message.
        message: String,
    },
    /// [`Client::connect_retry`] exhausted its deadline without reaching a
    /// server that would take the connection.
    ConnectTimedOut {
        /// The address that never answered.
        addr: SocketAddr,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The failure of the last attempt.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// True when the server answered `ERR_BUSY` — the request was shed
    /// (or the connection refused at the cap) and a backoff-retry is the
    /// right response.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                status: STATUS_BUSY,
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve client I/O error: {e}"),
            ClientError::Protocol(what) => write!(f, "serve protocol violation: {what}"),
            ClientError::Server { status, message } => {
                write!(f, "server error {status:#04x}: {message}")
            }
            ClientError::ConnectTimedOut {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "no server at {addr} after {attempts} connection attempts (last error: {last})"
            ),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::ConnectTimedOut { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The jittered exponential backoff behind [`Client::connect_retry`],
/// split out so tests can drive it deterministically from a seed.
///
/// Delay `n` (1-based) is drawn uniformly from `[d/2, d]` where
/// `d = min(cap, base · 2^(n-1))` — "equal jitter", which keeps a floor
/// under the delay (unlike full jitter) while still spreading a fleet of
/// retrying clients apart. The growth exponent saturates so long outages
/// cannot overflow the doubling.
#[derive(Debug)]
pub struct RetrySchedule {
    rng: StdRng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl RetrySchedule {
    /// The first delay is drawn around this. 10 ms rides out the common
    /// case of a server mid-startup without hammering it.
    pub const BASE: Duration = Duration::from_millis(10);
    /// Delays never exceed this.
    pub const CAP: Duration = Duration::from_millis(500);

    /// A schedule with the production bounds and an explicit seed.
    pub fn new(seed: u64) -> Self {
        Self::with_bounds(seed, Self::BASE, Self::CAP)
    }

    /// A schedule with custom bounds (`base` must not be zero).
    pub fn with_bounds(seed: u64, base: Duration, cap: Duration) -> Self {
        assert!(base > Duration::ZERO, "backoff base must be positive");
        RetrySchedule {
            rng: StdRng::seed_from_u64(seed),
            base,
            cap,
            attempt: 0,
        }
    }

    /// The uncapped-growth delay for the next draw — the upper jitter
    /// bound. Exposed so tests can assert the jitter window exactly.
    pub fn peek_raw_delay(&self) -> Duration {
        let exp = self.attempt.min(20);
        self.cap.min(self.base.saturating_mul(1u32 << exp))
    }

    /// Draws the next delay: uniform in `[raw/2, raw]`, then advances the
    /// exponential growth.
    pub fn next_delay(&mut self) -> Duration {
        let raw = self.peek_raw_delay();
        self.attempt = self.attempt.saturating_add(1);
        let nanos = raw.as_nanos() as u64;
        Duration::from_nanos(self.rng.random_range(nanos / 2..=nanos))
    }

    /// How many delays have been drawn so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// Everything the extended STAT response reports: the store statistics
/// plus the serving layer's hot-document cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// The store-level statistics (first 24 body bytes).
    pub store: StoreStats,
    /// Hot-document cache byte budget; 0 when the cache is disabled.
    pub cache_budget_bytes: u64,
    /// Cache lookups served from memory.
    pub cache_hits: u64,
    /// Cache lookups that fell through to the store.
    pub cache_misses: u64,
    /// Decoded payload bytes currently resident in the cache.
    pub cache_resident_bytes: u64,
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Reused request-encoding buffer.
    req: Vec<u8>,
    /// Reused response-body buffer.
    resp: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A receive buffer sized above the largest common response keeps
        // the TCP window ahead of multi-hundred-KB MGET bodies; with the
        // kernel default (~128 KiB) against loopback's ~64 KiB MSS, a
        // zero-window episode can suppress the reopening window update and
        // park the server in 200 ms persist probes (see
        // `event::set_socket_buffers`).
        crate::event::set_socket_buffers(
            std::os::unix::io::AsRawFd::as_raw_fd(&stream),
            0,
            4 << 20,
        );
        Ok(Client {
            stream,
            req: Vec::new(),
            resp: Vec::new(),
        })
    }

    /// Connects with jittered exponential backoff, retrying until
    /// `deadline` elapses — for driving a server that is still starting up
    /// (the CI smoke flow) or one that is momentarily overloaded.
    ///
    /// Each attempt that reaches a server is confirmed with a STAT probe,
    /// so an `ERR_BUSY` rejection (the server is at its connection cap)
    /// counts as a retryable failure instead of handing back a connection
    /// that is already closing. The backoff is a [`RetrySchedule`] seeded
    /// per-process (mixing the port keeps two clients racing for different
    /// servers out of phase) so a fleet of retrying clients does not
    /// stampede in lockstep. Gives up with
    /// [`ClientError::ConnectTimedOut`] once the deadline passes.
    pub fn connect_retry(addr: SocketAddr, deadline: Duration) -> Result<Self, ClientError> {
        let seed =
            0x9E37_79B9_7F4A_7C15u64 ^ ((addr.port() as u64) << 32) ^ std::process::id() as u64;
        Self::connect_retry_with_schedule(addr, deadline, RetrySchedule::new(seed))
    }

    /// [`connect_retry`](Client::connect_retry) with a caller-supplied
    /// schedule — the deterministic-backoff tests seed their own.
    pub fn connect_retry_with_schedule(
        addr: SocketAddr,
        deadline: Duration,
        mut schedule: RetrySchedule,
    ) -> Result<Self, ClientError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let failure = match Self::connect(addr) {
                Ok(mut client) => match client.server_stat() {
                    Ok(_) => return Ok(client),
                    Err(e) => e,
                },
                Err(e) => ClientError::Io(e),
            };
            if start.elapsed() >= deadline {
                return Err(ClientError::ConnectTimedOut {
                    addr,
                    attempts,
                    last: Box::new(failure),
                });
            }
            let jittered = schedule.next_delay();
            // Never sleep past the deadline itself: the last sleep is
            // clamped to what remains, so total wall time stays within
            // one failed-attempt latency of the deadline.
            let remaining = deadline.saturating_sub(start.elapsed());
            std::thread::sleep(jittered.min(remaining).max(Duration::from_millis(1)));
        }
    }

    /// Fetches document `id`.
    pub fn get(&mut self, id: u32) -> Result<Vec<u8>, ClientError> {
        let mut out = Vec::new();
        self.get_into(id, &mut out)?;
        Ok(out)
    }

    /// Fetches document `id`, appending its bytes to `out`.
    pub fn get_into(&mut self, id: u32, out: &mut Vec<u8>) -> Result<(), ClientError> {
        self.send_get(id)?;
        self.recv_get_into(out)
    }

    /// Writes a GET request frame without waiting for the response —
    /// pair with [`recv_get_into`](Client::recv_get_into). Responses come
    /// back in request order.
    pub fn send_get(&mut self, id: u32) -> Result<(), ClientError> {
        self.req.clear();
        protocol::write_get(&mut self.req, id);
        self.stream.write_all(&self.req)?;
        Ok(())
    }

    /// Reads one GET response, appending the document bytes to `out`.
    pub fn recv_get_into(&mut self, out: &mut Vec<u8>) -> Result<(), ClientError> {
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        out.extend_from_slice(body);
        Ok(())
    }

    /// Fetches a batch of documents, in request order. Any failed entry
    /// (a corrupt document, for instance) fails the whole call with that
    /// entry's error; use [`mget_results`](Client::mget_results) for
    /// per-entry containment.
    pub fn mget(&mut self, ids: &[u32]) -> Result<Vec<Vec<u8>>, ClientError> {
        self.send_mget(ids)?;
        self.recv_mget(ids.len())
    }

    /// Fetches a batch with **per-entry** error containment: each slot is
    /// either the document bytes or the server's `(status, message)` for
    /// that entry — one corrupt document does not cost the rest of the
    /// batch. The outer `Err` covers whole-response failures (transport,
    /// protocol, an error frame such as `ERR_BUSY` or a whole-batch
    /// out-of-range rejection).
    #[allow(clippy::type_complexity)]
    pub fn mget_results(
        &mut self,
        ids: &[u32],
    ) -> Result<Vec<Result<Vec<u8>, (u8, String)>>, ClientError> {
        self.send_mget(ids)?;
        self.recv_mget_results(ids.len())
    }

    /// Writes an MGET request frame without waiting for the response —
    /// pair with [`recv_mget`](Client::recv_mget).
    pub fn send_mget(&mut self, ids: &[u32]) -> Result<(), ClientError> {
        self.req.clear();
        protocol::write_mget(&mut self.req, ids);
        self.stream.write_all(&self.req)?;
        Ok(())
    }

    /// Reads one MGET response of `expected` documents, in request order.
    /// A failed entry fails the call with that entry's server error.
    pub fn recv_mget(&mut self, expected: usize) -> Result<Vec<Vec<u8>>, ClientError> {
        let entries = self.recv_mget_results(expected)?;
        let mut docs = Vec::with_capacity(entries.len());
        for entry in entries {
            match entry {
                Ok(doc) => docs.push(doc),
                Err((status, message)) => return Err(ClientError::Server { status, message }),
            }
        }
        Ok(docs)
    }

    /// Reads one MGET response of `expected` entries with per-entry error
    /// containment — pair with [`send_mget`](Client::send_mget).
    #[allow(clippy::type_complexity)]
    pub fn recv_mget_results(
        &mut self,
        expected: usize,
    ) -> Result<Vec<Result<Vec<u8>, (u8, String)>>, ClientError> {
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        let mut at = 0usize;
        let count = read_u32(body, &mut at)? as usize;
        if count != expected {
            return Err(ClientError::Protocol("MGET answered a different count"));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let elen = read_u32(body, &mut at)?;
            let failed = elen & MGET_ENTRY_ERR != 0;
            let len = (elen & !MGET_ENTRY_ERR) as usize;
            let payload = body
                .get(at..at + len)
                .ok_or(ClientError::Protocol("MGET entry overruns frame"))?;
            at += len;
            if failed {
                let (&entry_status, message) = payload
                    .split_first()
                    .ok_or(ClientError::Protocol("MGET error entry without a status"))?;
                entries.push(Err((
                    entry_status,
                    String::from_utf8_lossy(message).into_owned(),
                )));
            } else {
                entries.push(Ok(payload.to_vec()));
            }
        }
        if at != body.len() {
            return Err(ClientError::Protocol("trailing bytes after MGET body"));
        }
        Ok(entries)
    }

    /// Stores a new document, returning the id the server assigned. An
    /// `Ok` means the write is acked under the server's fsync policy (see
    /// the README durability matrix); `ERR_BUSY` / `ERR_WAL_FULL` mean
    /// nothing was written and the call is safe to retry after backoff.
    pub fn put(&mut self, doc: &[u8]) -> Result<u32, ClientError> {
        self.req.clear();
        protocol::write_put(&mut self.req, doc);
        self.stream.write_all(&self.req)?;
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        if body.len() != 4 {
            return Err(ClientError::Protocol("PUT answered without a document id"));
        }
        let mut at = 0usize;
        read_u32(body, &mut at)
    }

    /// Appends `bytes` to document `id`.
    pub fn append(&mut self, id: u32, bytes: &[u8]) -> Result<(), ClientError> {
        self.req.clear();
        protocol::write_append(&mut self.req, id, bytes);
        self.stream.write_all(&self.req)?;
        self.recv_empty_ok("APPEND")
    }

    /// Deletes document `id` (reads of it answer `ERR_RANGE` afterwards).
    pub fn delete(&mut self, id: u32) -> Result<(), ClientError> {
        self.req.clear();
        protocol::write_delete(&mut self.req, id);
        self.stream.write_all(&self.req)?;
        self.recv_empty_ok("DELETE")
    }

    /// Reads one response that must be an empty-bodied OK.
    fn recv_empty_ok(&mut self, _what: &'static str) -> Result<(), ClientError> {
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        if !body.is_empty() {
            return Err(ClientError::Protocol("write ack carries unexpected bytes"));
        }
        Ok(())
    }

    /// Fetches store statistics (the first 24 bytes of the STAT body; use
    /// [`server_stat`](Client::server_stat) for the serving-layer fields).
    pub fn stat(&mut self) -> Result<StoreStats, ClientError> {
        Ok(self.server_stat()?.store)
    }

    /// Fetches the full extended statistics: store accounting plus the
    /// hot-document cache counters.
    pub fn server_stat(&mut self) -> Result<ServeStats, ClientError> {
        self.req.clear();
        protocol::write_stat(&mut self.req);
        self.stream.write_all(&self.req)?;
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        if body.len() != STAT_BODY_LEN {
            return Err(ClientError::Protocol("STAT body has the wrong length"));
        }
        let word = |i: usize| u64::from_le_bytes(body[i..i + 8].try_into().expect("8 bytes"));
        if body[56] != protocol::BACKEND_EPOLL {
            return Err(ClientError::Protocol("STAT reports an unknown backend tag"));
        }
        let integrity = Integrity::from_tag(body[57]).ok_or(ClientError::Protocol(
            "STAT reports an unknown integrity tag",
        ))?;
        Ok(ServeStats {
            store: StoreStats {
                num_docs: word(0),
                payload_bytes: word(8),
                max_record_len: word(16),
                integrity,
            },
            cache_budget_bytes: word(24),
            cache_hits: word(32),
            cache_misses: word(40),
            cache_resident_bytes: word(48),
        })
    }

    /// Fetches the server's metrics in Prometheus text exposition format
    /// via the METRICS opcode. A server running with metrics disabled
    /// answers `ERR_BAD_OPCODE` (surfaced as [`ClientError::Server`]).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.req.clear();
        protocol::write_metrics(&mut self.req);
        self.stream.write_all(&self.req)?;
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)?;
        String::from_utf8(body.to_vec())
            .map_err(|_| ClientError::Protocol("METRICS body is not UTF-8"))
    }

    /// Asks the server to exit cleanly. `Ok` means the server acknowledged
    /// and is stopping.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.req.clear();
        protocol::write_shutdown(&mut self.req);
        self.stream.write_all(&self.req)?;
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        check_ok(status, body)
    }

    /// Sends raw bytes and reads one response frame — the robustness tests
    /// use this to deliver malformed frames. Returns `(status, body)`.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(u8, Vec<u8>), ClientError> {
        self.stream.write_all(frame)?;
        let (status, body) = read_response(&mut self.stream, &mut self.resp)?;
        Ok((status, body.to_vec()))
    }

    /// Sends raw bytes without waiting for any response — for tests that
    /// tear the connection down mid-frame.
    pub fn send_raw_no_response(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }
}

/// Reads one response frame into `buf`, returning `(status, body)`.
fn read_response<'a>(
    stream: &mut TcpStream,
    buf: &'a mut Vec<u8>,
) -> Result<(u8, &'a [u8]), ClientError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len == 0 {
        return Err(ClientError::Protocol("zero-length response frame"));
    }
    if len > MAX_RESPONSE_LEN {
        return Err(ClientError::Protocol("response frame exceeds sanity cap"));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    stream.read_exact(buf)?;
    Ok((buf[0], &buf[1..]))
}

fn check_ok(status: u8, body: &[u8]) -> Result<(), ClientError> {
    if status == STATUS_OK {
        return Ok(());
    }
    Err(ClientError::Server {
        status,
        message: String::from_utf8_lossy(body).into_owned(),
    })
}

fn read_u32(body: &[u8], at: &mut usize) -> Result<u32, ClientError> {
    let bytes = body
        .get(*at..*at + 4)
        .ok_or(ClientError::Protocol("truncated integer in response"))?;
    *at += 4;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn retry_schedule_delays_stay_inside_the_jitter_window() {
        let mut sched = RetrySchedule::new(7);
        let mut raws = Vec::new();
        for _ in 0..12 {
            let raw = sched.peek_raw_delay();
            let d = sched.next_delay();
            assert!(
                d >= raw / 2 && d <= raw,
                "delay {d:?} outside [{:?}, {raw:?}]",
                raw / 2
            );
            raws.push(raw);
        }
        // Exponential growth from BASE, clamped at CAP.
        assert_eq!(raws[0], RetrySchedule::BASE);
        assert_eq!(raws[1], RetrySchedule::BASE * 2);
        assert_eq!(raws[2], RetrySchedule::BASE * 4);
        assert!(raws.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*raws.last().unwrap(), RetrySchedule::CAP);
        assert_eq!(sched.attempts(), 12);
    }

    #[test]
    fn retry_schedule_is_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<Duration> {
            let mut s = RetrySchedule::new(seed);
            (0..16).map(|_| s.next_delay()).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn connect_retry_honors_the_total_deadline() {
        // Bind-then-drop yields a port that refuses connections fast.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("addr");
        let deadline = Duration::from_millis(80);
        let sched =
            RetrySchedule::with_bounds(9, Duration::from_millis(5), Duration::from_millis(20));
        let start = Instant::now();
        let err = Client::connect_retry_with_schedule(addr, deadline, sched)
            .expect_err("nothing listens there");
        let elapsed = start.elapsed();
        match err {
            ClientError::ConnectTimedOut {
                addr: a, attempts, ..
            } => {
                assert_eq!(a, addr);
                assert!(attempts >= 2, "only {attempts} attempts in {elapsed:?}");
            }
            other => panic!("expected ConnectTimedOut, got {other}"),
        }
        // The giving-up check runs right after a failed attempt, and no
        // sleep extends past the deadline — generous slack for CI jitter.
        assert!(elapsed >= deadline, "gave up early at {elapsed:?}");
        assert!(
            elapsed < deadline + Duration::from_millis(500),
            "overshot deadline: {elapsed:?}"
        );
    }
}
