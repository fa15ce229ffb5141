//! The `rlz-serve` wire protocol: length-prefixed binary frames.
//!
//! Every frame — request or response — is a little-endian `u32` length
//! followed by exactly that many bytes. The length counts everything after
//! itself: the opcode/status byte plus the body.
//!
//! ```text
//! request  := len:u32le  opcode:u8  body:[u8; len-1]
//! response := len:u32le  status:u8  body:[u8; len-1]
//! ```
//!
//! Request opcodes:
//!
//! | opcode | name     | body                               |
//! |-------:|----------|------------------------------------|
//! | `0x01` | GET      | `id:u32le`                         |
//! | `0x02` | MGET     | `count:u32le` then `count` × `id:u32le` |
//! | `0x03` | STAT     | empty                              |
//! | `0x04` | METRICS  | empty                              |
//! | `0x10` | PUT      | the document bytes, verbatim       |
//! | `0x11` | APPEND   | `id:u32le` then the bytes to append |
//! | `0x12` | DELETE   | `id:u32le`                         |
//! | `0x7F` | SHUTDOWN | empty                              |
//!
//! Response statuses:
//!
//! | status | name             | body                                    |
//! |-------:|------------------|-----------------------------------------|
//! | `0x00` | OK               | opcode-specific (below)                  |
//! | `0x01` | ERR_BAD_FRAME    | UTF-8 message; connection closes after   |
//! | `0x02` | ERR_BAD_OPCODE   | UTF-8 message; connection stays open     |
//! | `0x03` | ERR_OUT_OF_RANGE | UTF-8 message; connection stays open     |
//! | `0x04` | ERR_INTERNAL     | UTF-8 message; connection stays open     |
//! | `0x05` | ERR_BUSY         | UTF-8 message; see below                 |
//! | `0x06` | ERR_CORRUPT      | UTF-8 message; connection stays open     |
//! | `0x07` | ERR_READONLY     | UTF-8 message; connection stays open     |
//! | `0x08` | ERR_WAL_FULL     | UTF-8 message; connection stays open     |
//!
//! `ERR_BUSY` is the overload-shedding answer: a server past its queue
//! budget answers GET/MGET with it (connection stays open — back off and
//! retry), a server at its connection cap sends one unsolicited `ERR_BUSY`
//! frame right after accepting, then closes, and a server whose write-
//! ahead-log backlog passed its bound answers *writes* with it while reads
//! keep serving at full speed. `ERR_CORRUPT` reports a document the store
//! detected as corrupt (checksum mismatch, quarantined id) — the document
//! is unreadable but the server, the connection, and every other document
//! are fine. `ERR_READONLY` answers any write sent to a server without a
//! writable store; `ERR_WAL_FULL` means the write-ahead log hit its hard
//! bound *and* the automatic drain-seal could not reclaim space (the
//! normal case seals and accepts the write) — durable, the write did not
//! happen, retry with a longer backoff.
//!
//! Writes are acknowledged only after the store call returns: under the
//! `always` fsync policy an OK to PUT/APPEND/DELETE means the mutation is
//! on stable storage and will survive `kill -9` of the server.
//!
//! OK bodies: GET → the document bytes verbatim; METRICS → the server's
//! metric registry rendered as UTF-8 Prometheus text exposition format
//! (the same text the optional HTTP `GET /metrics` listener serves; a
//! server running without metrics answers `ERR_BAD_OPCODE`); PUT → the
//! assigned `id:u32le`; APPEND / DELETE → empty; MGET → `count:u32le` then
//! `count` entries, in request order; SHUTDOWN → empty. Each MGET entry is
//! `elen:u32le` followed by `elen & 0x7FFF_FFFF` payload bytes. With the
//! top bit of `elen` clear the payload is the document verbatim; with it
//! **set** ([`MGET_ENTRY_ERR`]) this entry failed and the payload is
//! `status:u8` + UTF-8 message instead — per-entry containment, so one
//! corrupt document fails its slot while the rest of the batch is served.
//! (Legal because document lengths are bounded by [`MAX_RESPONSE_LEN`],
//! which never sets bit 31.) STAT → the store statistics followed by
//! serving statistics:
//!
//! ```text
//! num_docs:u64le  payload_bytes:u64le  max_record_len:u64le      (store)
//! cache_budget_bytes:u64le  cache_hits:u64le  cache_misses:u64le
//! cache_resident_bytes:u64le  backend:u8  integrity:u8           (server)
//! ```
//!
//! `cache_budget_bytes` is 0 when the hot-document cache is disabled;
//! `backend` is always [`BACKEND_EPOLL`] (1); `integrity` is the store's
//! `rlz_store::Integrity` tag (0 = none, 1 = crc32c). Clients that only
//! care about the store may read the first 24 bytes and ignore the rest.
//!
//! # Hardening
//!
//! The parser never trusts a length field before bounding it:
//! request frames are capped at [`MAX_REQUEST_LEN`] (derived from the MGET
//! cap [`MAX_MGET`]), so a hostile or corrupt length prefix cannot drive a
//! large allocation — the frame is rejected as malformed before any buffer
//! grows, mirroring the header hardening of the store decode path. An MGET
//! whose count field disagrees with its body length is rejected without
//! reading a single id.

/// Fetch one document: body is `id:u32le`.
pub const OP_GET: u8 = 0x01;
/// Fetch a batch: body is `count:u32le` then `count` ids.
pub const OP_MGET: u8 = 0x02;
/// Store statistics: empty body.
pub const OP_STAT: u8 = 0x03;
/// Metrics scrape: empty body. OK body: the registry rendered in
/// Prometheus text exposition format (UTF-8).
pub const OP_METRICS: u8 = 0x04;
/// Store a new document: body is the document bytes. OK body: assigned
/// `id:u32le`.
pub const OP_PUT: u8 = 0x10;
/// Append to a document: body is `id:u32le` + the bytes. OK body: empty.
pub const OP_APPEND: u8 = 0x11;
/// Delete a document: body is `id:u32le`. OK body: empty.
pub const OP_DELETE: u8 = 0x12;
/// Ask the server to exit cleanly (when enabled): empty body.
pub const OP_SHUTDOWN: u8 = 0x7F;

/// Success.
pub const STATUS_OK: u8 = 0x00;
/// Unparseable or oversized frame; the server closes the connection after
/// sending this (the stream can no longer be framed).
pub const STATUS_BAD_FRAME: u8 = 0x01;
/// Well-framed request with an unknown or disabled opcode.
pub const STATUS_BAD_OPCODE: u8 = 0x02;
/// A requested document id is out of range.
pub const STATUS_OUT_OF_RANGE: u8 = 0x03;
/// The store failed to serve a valid request (I/O error).
pub const STATUS_INTERNAL: u8 = 0x04;
/// The server is shedding load (queue budget exceeded) or refusing the
/// connection (connection cap). Back off and retry.
pub const STATUS_BUSY: u8 = 0x05;
/// The requested document is corrupt (checksum mismatch or quarantined):
/// permanently unreadable until the store is repaired, but the connection
/// and every other document are unaffected.
pub const STATUS_CORRUPT: u8 = 0x06;
/// A write opcode reached a server that has no write path (every store
/// family except the live store).
pub const STATUS_READONLY: u8 = 0x07;
/// The write-ahead log hit its hard bound and the store's automatic
/// drain-seal could not reclaim space (normally it seals and the write
/// proceeds, so this signals a sealing problem — e.g. the disk is full).
/// Back off longer than for `ERR_BUSY`.
pub const STATUS_WAL_FULL: u8 = 0x08;

/// STAT backend tag: kernel readiness notification (epoll), the only event
/// loop. The byte keeps its place so the STAT layout stays unchanged.
pub const BACKEND_EPOLL: u8 = 1;

/// Length of the STAT OK body: 7 × `u64` + the backend tag byte + the
/// store integrity tag byte.
pub const STAT_BODY_LEN: usize = 7 * 8 + 2;

/// Top bit of an MGET entry's `elen` field: set when the entry is an
/// error record (`status:u8` + message) rather than document bytes.
pub const MGET_ENTRY_ERR: u32 = 1 << 31;

/// Maximum ids per MGET request.
pub const MAX_MGET: usize = 1 << 16;

/// Maximum document bytes in one PUT (or appended bytes in one APPEND).
/// Bounds the largest write frame a server must buffer.
pub const MAX_PUT_LEN: usize = 4 << 20;

/// Maximum legal value of a request frame's length field: opcode byte plus
/// the largest body (an MGET id list or an APPEND payload, whichever is
/// larger).
pub const MAX_REQUEST_LEN: u32 = {
    let mget = (1 + 4 + 4 * MAX_MGET) as u32;
    let append = (1 + 4 + MAX_PUT_LEN) as u32;
    if mget > append {
        mget
    } else {
        append
    }
};

/// Maximum response frame length (1 GiB), enforced on both sides: the
/// server answers an error frame instead of a GET/MGET response whose
/// body would exceed it (split the batch), and the client treats a longer
/// length prefix as stream corruption. Shared, so a legal server response
/// can never be rejected by a conforming client — and the length field
/// can never wrap `u32`.
pub const MAX_RESPONSE_LEN: u32 = 1 << 30;

/// The ids of a parsed MGET request, borrowed from the receive buffer
/// (decoded lazily so parsing allocates nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MGetIds<'a> {
    bytes: &'a [u8],
}

impl<'a> MGetIds<'a> {
    /// Number of ids requested.
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The requested ids, in request order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
    }
}

/// A parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Fetch one document.
    Get(u32),
    /// Fetch a batch of documents.
    MGet(MGetIds<'a>),
    /// Store statistics.
    Stat,
    /// Metrics scrape (Prometheus text rendering of the registry).
    Metrics,
    /// Store a new document (body borrowed from the receive buffer).
    Put(&'a [u8]),
    /// Append bytes to document `id`.
    Append(u32, &'a [u8]),
    /// Delete a document.
    Delete(u32),
    /// Clean server shutdown.
    Shutdown,
}

/// Outcome of [`parse_request`] over a receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// Not enough bytes buffered for a whole frame yet.
    Incomplete,
    /// The stream cannot be framed (insane length prefix). The server
    /// answers [`STATUS_BAD_FRAME`] and closes the connection.
    Malformed(&'static str),
    /// One complete frame occupying `consumed` buffer bytes. `request` is
    /// `Err((status, message))` when the frame is well-delimited but its
    /// content is invalid — the connection survives those.
    Frame {
        /// The decoded request, or the error frame to answer with.
        request: Result<Request<'a>, (u8, &'static str)>,
        /// Bytes this frame occupies at the head of the buffer.
        consumed: usize,
    },
}

/// Parses the frame at the head of `buf`, if complete. Never allocates and
/// never reads past the frame it delimits.
pub fn parse_request(buf: &[u8]) -> Parsed<'_> {
    let Some(len_bytes) = buf.get(..4) else {
        return Parsed::Incomplete;
    };
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
    if len == 0 {
        return Parsed::Malformed("zero-length request frame");
    }
    if len > MAX_REQUEST_LEN {
        return Parsed::Malformed("request frame exceeds protocol maximum");
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    let opcode = buf[4];
    let body = &buf[5..total];
    let request = match opcode {
        OP_GET => match body.try_into() {
            Ok(id) => Ok(Request::Get(u32::from_le_bytes(id))),
            Err(_) => Err((STATUS_BAD_FRAME, "GET body must be exactly 4 bytes")),
        },
        OP_MGET => parse_mget(body),
        OP_PUT if body.len() <= MAX_PUT_LEN => Ok(Request::Put(body)),
        OP_PUT => Err((STATUS_BAD_FRAME, "PUT body exceeds protocol maximum")),
        OP_APPEND => match body.split_first_chunk::<4>() {
            Some((id, bytes)) if bytes.len() <= MAX_PUT_LEN => {
                Ok(Request::Append(u32::from_le_bytes(*id), bytes))
            }
            Some(_) => Err((STATUS_BAD_FRAME, "APPEND body exceeds protocol maximum")),
            None => Err((STATUS_BAD_FRAME, "APPEND body shorter than its id field")),
        },
        OP_DELETE => match body.try_into() {
            Ok(id) => Ok(Request::Delete(u32::from_le_bytes(id))),
            Err(_) => Err((STATUS_BAD_FRAME, "DELETE body must be exactly 4 bytes")),
        },
        OP_STAT if body.is_empty() => Ok(Request::Stat),
        OP_STAT => Err((STATUS_BAD_FRAME, "STAT carries no body")),
        OP_METRICS if body.is_empty() => Ok(Request::Metrics),
        OP_METRICS => Err((STATUS_BAD_FRAME, "METRICS carries no body")),
        OP_SHUTDOWN if body.is_empty() => Ok(Request::Shutdown),
        OP_SHUTDOWN => Err((STATUS_BAD_FRAME, "SHUTDOWN carries no body")),
        _ => Err((STATUS_BAD_OPCODE, "unknown opcode")),
    };
    Parsed::Frame {
        request,
        consumed: total,
    }
}

fn parse_mget(body: &[u8]) -> Result<Request<'_>, (u8, &'static str)> {
    let Some(count_bytes) = body.get(..4) else {
        return Err((STATUS_BAD_FRAME, "MGET body shorter than its count field"));
    };
    let count = u32::from_le_bytes(count_bytes.try_into().expect("4 bytes")) as usize;
    if count > MAX_MGET {
        return Err((STATUS_BAD_FRAME, "MGET count exceeds protocol maximum"));
    }
    if body.len() - 4 != 4 * count {
        return Err((STATUS_BAD_FRAME, "MGET count disagrees with body length"));
    }
    Ok(Request::MGet(MGetIds { bytes: &body[4..] }))
}

/// Appends a GET request frame.
pub fn write_get(out: &mut Vec<u8>, id: u32) {
    out.extend_from_slice(&5u32.to_le_bytes());
    out.push(OP_GET);
    out.extend_from_slice(&id.to_le_bytes());
}

/// Appends an MGET request frame. Panics if `ids.len() > MAX_MGET` (the
/// frame would be rejected by any conforming server).
pub fn write_mget(out: &mut Vec<u8>, ids: &[u32]) {
    assert!(ids.len() <= MAX_MGET, "MGET of {} ids", ids.len());
    let len = (1 + 4 + 4 * ids.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(OP_MGET);
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

/// Appends a PUT request frame. Panics if the document exceeds
/// [`MAX_PUT_LEN`] (any conforming server would reject the frame).
pub fn write_put(out: &mut Vec<u8>, doc: &[u8]) {
    assert!(doc.len() <= MAX_PUT_LEN, "PUT of {} bytes", doc.len());
    out.extend_from_slice(&((1 + doc.len()) as u32).to_le_bytes());
    out.push(OP_PUT);
    out.extend_from_slice(doc);
}

/// Appends an APPEND request frame. Panics if the appended bytes exceed
/// [`MAX_PUT_LEN`].
pub fn write_append(out: &mut Vec<u8>, id: u32, bytes: &[u8]) {
    assert!(
        bytes.len() <= MAX_PUT_LEN,
        "APPEND of {} bytes",
        bytes.len()
    );
    out.extend_from_slice(&((1 + 4 + bytes.len()) as u32).to_le_bytes());
    out.push(OP_APPEND);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a DELETE request frame.
pub fn write_delete(out: &mut Vec<u8>, id: u32) {
    out.extend_from_slice(&5u32.to_le_bytes());
    out.push(OP_DELETE);
    out.extend_from_slice(&id.to_le_bytes());
}

/// Appends a STAT request frame.
pub fn write_stat(out: &mut Vec<u8>) {
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(OP_STAT);
}

/// Appends a METRICS request frame.
pub fn write_metrics(out: &mut Vec<u8>) {
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(OP_METRICS);
}

/// Appends a SHUTDOWN request frame.
pub fn write_shutdown(out: &mut Vec<u8>) {
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(OP_SHUTDOWN);
}

/// Reserves a response header at the end of `out` and returns the frame's
/// start offset; append the body, then call [`finish_response`]. This
/// two-step dance lets the server decode a document *directly* into the
/// output buffer and patch the length afterwards — the warm GET path stays
/// allocation-free.
pub fn begin_response(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 5]);
    start
}

/// Patches the header of the response begun at `start` with the final
/// length and `status`. Callers must keep bodies within
/// [`MAX_RESPONSE_LEN`] (the server enforces this per opcode); the
/// assertion makes a violation a loud failure instead of a silently
/// wrapped length field.
pub fn finish_response(out: &mut [u8], start: usize, status: u8) {
    assert!(
        out.len() - start - 4 <= MAX_RESPONSE_LEN as usize,
        "response frame exceeds MAX_RESPONSE_LEN"
    );
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = status;
}

/// Appends a complete error response frame.
pub fn write_error(out: &mut Vec<u8>, status: u8, message: &str) {
    debug_assert_ne!(status, STATUS_OK);
    let start = begin_response(out);
    out.extend_from_slice(message.as_bytes());
    finish_response(out, start, status);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_roundtrip() {
        let mut buf = Vec::new();
        write_get(&mut buf, 42);
        match parse_request(&buf) {
            Parsed::Frame {
                request: Ok(Request::Get(42)),
                consumed,
            } => assert_eq!(consumed, buf.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mget_roundtrip_and_pipelining() {
        let ids = [7u32, 7, 0, 999_999];
        let mut buf = Vec::new();
        write_mget(&mut buf, &ids);
        write_stat(&mut buf);
        let Parsed::Frame {
            request: Ok(Request::MGet(got)),
            consumed,
        } = parse_request(&buf)
        else {
            panic!("expected MGET frame")
        };
        assert_eq!(got.len(), 4);
        assert!(!got.is_empty());
        assert_eq!(got.iter().collect::<Vec<_>>(), ids);
        // The second pipelined frame parses from the remainder.
        match parse_request(&buf[consumed..]) {
            Parsed::Frame {
                request: Ok(Request::Stat),
                consumed: c2,
            } => assert_eq!(consumed + c2, buf.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_mget_is_valid() {
        let mut buf = Vec::new();
        write_mget(&mut buf, &[]);
        let Parsed::Frame {
            request: Ok(Request::MGet(ids)),
            ..
        } = parse_request(&buf)
        else {
            panic!("empty MGET must parse")
        };
        assert!(ids.is_empty());
    }

    #[test]
    fn truncated_frames_are_incomplete() {
        let mut buf = Vec::new();
        write_mget(&mut buf, &[1, 2, 3]);
        for cut in 0..buf.len() {
            assert_eq!(
                parse_request(&buf[..cut]),
                Parsed::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_malformed() {
        assert!(matches!(
            parse_request(&u32::MAX.to_le_bytes()),
            Parsed::Malformed(_)
        ));
        assert!(matches!(
            parse_request(&(MAX_REQUEST_LEN + 1).to_le_bytes()),
            Parsed::Malformed(_)
        ));
        assert!(matches!(
            parse_request(&0u32.to_le_bytes()),
            Parsed::Malformed(_)
        ));
        // The cap itself is not malformed, merely incomplete.
        assert_eq!(
            parse_request(&MAX_REQUEST_LEN.to_le_bytes()),
            Parsed::Incomplete
        );
    }

    #[test]
    fn invalid_content_keeps_the_frame_boundary() {
        // Unknown opcode: 2-byte frame, opcode 0x6E + 1 body byte.
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0x6E, 0xFF]);
        write_get(&mut buf, 3); // pipelined valid frame after it
        let Parsed::Frame {
            request: Err((status, _)),
            consumed,
        } = parse_request(&buf)
        else {
            panic!("expected content error")
        };
        assert_eq!(status, STATUS_BAD_OPCODE);
        assert!(matches!(
            parse_request(&buf[consumed..]),
            Parsed::Frame {
                request: Ok(Request::Get(3)),
                ..
            }
        ));
    }

    #[test]
    fn mget_count_must_match_body() {
        // Frame says 3 ids but carries 2.
        let body_len = 1 + 4 + 8;
        let mut buf = (body_len as u32).to_le_bytes().to_vec();
        buf.push(OP_MGET);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        let Parsed::Frame {
            request: Err((STATUS_BAD_FRAME, msg)),
            ..
        } = parse_request(&buf)
        else {
            panic!("count mismatch must be rejected")
        };
        assert!(msg.contains("count"));
        // A count field claiming the maximum plus one is rejected even
        // though the enclosing frame length is legal-looking.
        let mut buf = MAX_REQUEST_LEN.to_le_bytes().to_vec();
        buf.push(OP_MGET);
        buf.extend_from_slice(&((MAX_MGET + 1) as u32).to_le_bytes());
        buf.resize(4 + MAX_REQUEST_LEN as usize, 0);
        assert!(matches!(
            parse_request(&buf),
            Parsed::Frame {
                request: Err((STATUS_BAD_FRAME, _)),
                ..
            }
        ));
    }

    #[test]
    fn write_opcodes_roundtrip() {
        let mut buf = Vec::new();
        write_put(&mut buf, b"new document bytes");
        write_append(&mut buf, 7, b" more");
        write_delete(&mut buf, 9);
        let Parsed::Frame {
            request: Ok(Request::Put(doc)),
            consumed,
        } = parse_request(&buf)
        else {
            panic!("PUT must parse")
        };
        assert_eq!(doc, b"new document bytes");
        let Parsed::Frame {
            request: Ok(Request::Append(7, bytes)),
            consumed: c2,
        } = parse_request(&buf[consumed..])
        else {
            panic!("APPEND must parse")
        };
        assert_eq!(bytes, b" more");
        match parse_request(&buf[consumed + c2..]) {
            Parsed::Frame {
                request: Ok(Request::Delete(9)),
                consumed: c3,
            } => assert_eq!(consumed + c2 + c3, buf.len()),
            other => panic!("{other:?}"),
        }
        // Empty PUT bodies and APPEND payloads are legal frames.
        let mut buf = Vec::new();
        write_put(&mut buf, b"");
        assert!(matches!(
            parse_request(&buf),
            Parsed::Frame {
                request: Ok(Request::Put(b"")),
                ..
            }
        ));
        // APPEND shorter than its id field is a content error that keeps
        // the frame boundary.
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[OP_APPEND, 0, 0]);
        assert!(matches!(
            parse_request(&buf),
            Parsed::Frame {
                request: Err((STATUS_BAD_FRAME, _)),
                ..
            }
        ));
    }

    #[test]
    fn response_header_patching() {
        let mut out = b"prefix".to_vec();
        let start = begin_response(&mut out);
        out.extend_from_slice(b"abc");
        finish_response(&mut out, start, STATUS_OK);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(u32::from_le_bytes(out[6..10].try_into().unwrap()), 4);
        assert_eq!(out[10], STATUS_OK);
        assert_eq!(&out[11..], b"abc");
    }

    #[test]
    fn error_frames_carry_their_message() {
        let mut out = Vec::new();
        write_error(&mut out, STATUS_OUT_OF_RANGE, "doc 9 out of range");
        let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
        assert_eq!(len, out.len() - 4);
        assert_eq!(out[4], STATUS_OUT_OF_RANGE);
        assert_eq!(&out[5..], b"doc 9 out of range");
    }
}
