//! Write-ahead log for the live store: CRC32C-framed, torn-tail tolerant.
//!
//! Every mutation (PUT / APPEND / DELETE) is appended to `wal.bin` as one
//! self-checking frame *before* it touches any in-memory state, so a crash
//! at any instant loses at most the writes that were never acknowledged as
//! durable:
//!
//! ```text
//! frame := len:u32le  crc32c:u32le  payload:[u8; len]
//! payload := seq:u64le  op:u8  body…
//! ```
//!
//! `len` counts the payload only; `crc32c` covers the payload. Bodies:
//! PUT → the document bytes, APPEND → `id:u32le` + the appended bytes,
//! DELETE → `id:u32le`. Sequence numbers are assigned monotonically by the
//! writer and never reused; the segment manifest records the highest
//! sequence its sealed segments cover, so recovery replays exactly the
//! frames that are not yet in a sealed segment.
//!
//! **Recovery never panics.** [`Wal::open`] walks the file frame by frame;
//! the first frame that cannot be parsed — a short length prefix, a body
//! the file ends inside, a checksum mismatch — is treated as the torn tail
//! of an interrupted write: the file is truncated back to the last good
//! frame boundary and replay continues with what survived. A frame that
//! was acknowledged under [`FsyncPolicy::Always`] is durable and whole, so
//! it can never be the torn one.
//!
//! Durability is a policy, not an accident: [`FsyncPolicy::Always`] syncs
//! after every append (an ack implies durability), `Interval` bounds the
//! loss window to the configured duration, `Never` leaves syncing to the
//! OS (fastest, weakest — crash recovery still keeps the store readable,
//! it just may not contain recently acked writes).
//!
//! **A failed write poisons the log.** Once an append, sync or truncate on
//! the media fails, the on-disk tail is unknown: a frame whose fsync
//! failed may still be in the file, and retrying the fsync can report
//! success for pages the kernel already dropped (the "fsyncgate" lesson).
//! So the [`Wal`] never retries: every later append, sync and reset
//! answers [`StoreError::ReadOnly`] until the store is reopened, and
//! reopening recovers whatever the file really holds. Without this, the
//! next write would reuse the failed frame's sequence number and replay
//! would hand an acked document's id to the failed one.
//!
//! The byte device is abstracted behind [`WalMedia`] so the fault harness
//! ([`FaultMedia`](crate::fault::FaultMedia)) can inject crash points and
//! torn writes deterministically; production uses [`FileMedia`].

use crate::StoreError;
use rlz_codecs::hash::crc32c;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// WAL file name inside a live store directory.
pub const WAL_FILE: &str = "wal.bin";

/// Frame op tag: the body is a new document's bytes.
pub(crate) const WAL_OP_PUT: u8 = 1;
/// Frame op tag: the body is `id:u32le` + appended bytes.
pub(crate) const WAL_OP_APPEND: u8 = 2;
/// Frame op tag: the body is `id:u32le`.
pub(crate) const WAL_OP_DELETE: u8 = 3;

/// Frame header bytes: length prefix + checksum.
const FRAME_HEADER: usize = 8;
/// Payload bytes before the body: sequence number + op tag.
const PAYLOAD_HEADER: usize = 9;

/// When the WAL file is pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended frame: an acknowledged write is
    /// durable before the ack exists. The strongest (and slowest) policy.
    Always,
    /// Sync at most once per interval: bounds the crash-loss window to the
    /// interval without paying a sync per write. The `Wal` itself only
    /// syncs when an append lands past the interval (or [`Wal::sync`] is
    /// called); [`LiveStore`](crate::LiveStore) runs a background flusher
    /// so the bound holds even when writes stop arriving.
    Interval(Duration),
    /// Never sync explicitly; the OS flushes when it pleases. Recovery is
    /// still safe (torn tails truncate cleanly) but recently acknowledged
    /// writes may be lost on power failure.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `interval:<ms>`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => {
                let ms: u64 = other.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }

    /// Short label for logs and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Interval(_) => "interval",
            FsyncPolicy::Never => "never",
        }
    }
}

/// One recovered WAL mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A new document (ids are assigned by replay order, not stored).
    Put(Vec<u8>),
    /// Bytes appended to an existing document.
    Append(u32, Vec<u8>),
    /// A document tombstone.
    Delete(u32),
}

/// A recovered frame: the writer-assigned sequence number plus its op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone sequence number assigned when the frame was written.
    pub seq: u64,
    /// The mutation.
    pub op: WalOp,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact frame, in file (= sequence) order.
    pub records: Vec<WalRecord>,
    /// Byte offset the file was truncated back to when a torn or corrupt
    /// tail frame was found; `None` for a clean log.
    pub truncated_at: Option<u64>,
    /// Bytes discarded by the truncation.
    pub dropped_bytes: u64,
}

/// The append-only byte device under a [`Wal`]. Production uses
/// [`FileMedia`]; the fault harness wraps one to inject crash points and
/// torn writes.
#[allow(clippy::len_without_is_empty)] // a zero-length log is just `len() == 0`
pub trait WalMedia: Send {
    /// Appends `buf` at the end of the log.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Pushes appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Current log length in bytes.
    fn len(&self) -> u64;
    /// Discards everything past `len` (recovery truncating a torn tail,
    /// or a seal resetting the log).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// [`WalMedia`] over a real file.
#[derive(Debug)]
pub struct FileMedia {
    file: File,
    len: u64,
}

impl FileMedia {
    /// Opens (creating if absent) `path` for appending.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileMedia { file, len })
    }
}

impl WalMedia for FileMedia {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(self.len))?;
        self.file.write_all(buf)?;
        self.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// Encodes one frame (header + payload) into a fresh buffer.
fn encode_frame(seq: u64, op: u8, parts: &[&[u8]]) -> Vec<u8> {
    let body_len: usize = parts.iter().map(|p| p.len()).sum();
    let payload_len = PAYLOAD_HEADER + body_len;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]); // checksum patched below
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.push(op);
    for part in parts {
        frame.extend_from_slice(part);
    }
    let crc = crc32c(&frame[FRAME_HEADER..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Parses the frames in `data`, returning `(records, clean_bytes)` where
/// `clean_bytes` is the offset of the first byte that is not part of an
/// intact frame (== `data.len()` for a clean log). Never panics: any
/// malformed frame simply ends the walk.
pub(crate) fn parse_frames(data: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(header) = data.get(at..at + FRAME_HEADER) {
        let payload_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if payload_len < PAYLOAD_HEADER {
            break; // frame cannot even hold its own sequence + op
        }
        let Some(payload) = data.get(at + FRAME_HEADER..at + FRAME_HEADER + payload_len) else {
            break; // file ends inside the payload: torn tail
        };
        if crc32c(payload) != crc {
            break; // torn or bit-rotted frame
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let body = &payload[PAYLOAD_HEADER..];
        let op = match payload[8] {
            WAL_OP_PUT => WalOp::Put(body.to_vec()),
            WAL_OP_APPEND => match body.get(..4) {
                Some(id) => WalOp::Append(
                    u32::from_le_bytes(id.try_into().expect("4 bytes")),
                    body[4..].to_vec(),
                ),
                None => break,
            },
            WAL_OP_DELETE => match body.try_into() {
                Ok(id) => WalOp::Delete(u32::from_le_bytes(id)),
                Err(_) => break,
            },
            _ => break, // unknown op: treat as corruption, stop here
        };
        records.push(WalRecord { seq, op });
        at += FRAME_HEADER + payload_len;
    }
    (records, at as u64)
}

/// The write-ahead log: append-only frames over a [`WalMedia`].
pub struct Wal {
    media: Box<dyn WalMedia>,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Appended frames not yet covered by a sync (Interval/Never policies).
    unsynced: u64,
    /// A media operation failed; the log refuses further work until it is
    /// reopened.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("len", &self.media.len())
            .field("policy", &self.policy)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Opens the log on `media`, recovering every intact frame. A torn or
    /// corrupt tail is truncated away (never a panic, never an error): the
    /// returned [`WalRecovery`] says what was dropped.
    pub fn open(
        mut media: Box<dyn WalMedia>,
        policy: FsyncPolicy,
        read_back: &[u8],
    ) -> Result<(Self, WalRecovery), StoreError> {
        let (records, clean) = parse_frames(read_back);
        let total = media.len();
        let recovery = if clean < total {
            media.truncate(clean)?;
            media.sync()?;
            WalRecovery {
                records,
                truncated_at: Some(clean),
                dropped_bytes: total - clean,
            }
        } else {
            WalRecovery {
                records,
                truncated_at: None,
                dropped_bytes: 0,
            }
        };
        Ok((
            Wal {
                media,
                policy,
                last_sync: Instant::now(),
                unsynced: 0,
                poisoned: false,
            },
            recovery,
        ))
    }

    /// Opens the log file in `dir` (creating it if absent).
    pub fn open_dir(dir: &Path, policy: FsyncPolicy) -> Result<(Self, WalRecovery), StoreError> {
        let path = dir.join(WAL_FILE);
        let read_back = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let media = Box::new(FileMedia::open(&path)?);
        Self::open(media, policy, &read_back)
    }

    /// Appends one frame and applies the fsync policy. Returns `true` when
    /// the frame is on stable storage as the call returns (the "durable
    /// ack" bit surfaced to callers).
    fn append(&mut self, seq: u64, op: u8, parts: &[&[u8]]) -> Result<bool, StoreError> {
        self.check_writable()?;
        let frame = encode_frame(seq, op, parts);
        let appended = self.media.append(&frame);
        self.poison_on_err(appended)?;
        self.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(every) => self.last_sync.elapsed() >= every,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync_media()?;
        }
        Ok(due)
    }

    /// Fails with [`StoreError::ReadOnly`] once the log is poisoned.
    fn check_writable(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::ReadOnly);
        }
        Ok(())
    }

    /// Passes `result` through, poisoning the log if it is an error.
    fn poison_on_err(&mut self, result: io::Result<()>) -> Result<(), StoreError> {
        self.poisoned |= result.is_err();
        result.map_err(StoreError::Io)
    }

    /// Syncs the media; a failure poisons the log and is never retried.
    fn sync_media(&mut self) -> Result<(), StoreError> {
        let synced = self.media.sync();
        self.poison_on_err(synced)?;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Logs a PUT. Returns `true` when durable on return.
    pub fn log_put(&mut self, seq: u64, doc: &[u8]) -> Result<bool, StoreError> {
        self.append(seq, WAL_OP_PUT, &[doc])
    }

    /// Logs an APPEND of `bytes` to document `id`.
    pub fn log_append(&mut self, seq: u64, id: u32, bytes: &[u8]) -> Result<bool, StoreError> {
        self.append(seq, WAL_OP_APPEND, &[&id.to_le_bytes(), bytes])
    }

    /// Logs a DELETE of document `id`.
    pub fn log_delete(&mut self, seq: u64, id: u32) -> Result<bool, StoreError> {
        self.append(seq, WAL_OP_DELETE, &[&id.to_le_bytes()])
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        if self.unsynced > 0 {
            self.sync_media()?;
        }
        Ok(())
    }

    /// True once a media failure has poisoned the log: every append, sync
    /// and reset answers [`StoreError::ReadOnly`] until the store is
    /// reopened.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Current log length in bytes (the write backlog the shed bound acts
    /// on: everything here is durable work not yet folded into a sealed
    /// segment).
    pub fn len(&self) -> u64 {
        self.media.len()
    }

    /// True when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.media.len() == 0
    }

    /// Frames appended since the last sync (0 means everything appended
    /// so far is on stable storage).
    pub(crate) fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Discards every frame: called after a seal has published a manifest
    /// covering them. Synced, so a crash right after cannot resurrect
    /// already-sealed frames.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        let truncated = self.media.truncate(0);
        self.poison_on_err(truncated)?;
        self.sync_media()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    fn reopen(dir: &TestDir) -> (Wal, WalRecovery) {
        Wal::open_dir(dir.path(), FsyncPolicy::Always).unwrap()
    }

    #[test]
    fn roundtrip_all_ops() {
        let dir = TestDir::new("wal-roundtrip");
        let (mut wal, rec) = reopen(&dir);
        assert!(rec.records.is_empty());
        assert!(wal.log_put(1, b"doc one").unwrap(), "Always acks durable");
        wal.log_append(2, 0, b" more").unwrap();
        wal.log_delete(3, 0).unwrap();
        wal.log_put(4, b"").unwrap(); // empty documents are legal
        drop(wal);
        let (_, rec) = reopen(&dir);
        assert_eq!(rec.truncated_at, None);
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[0].seq, 1);
        assert_eq!(rec.records[0].op, WalOp::Put(b"doc one".to_vec()));
        assert_eq!(rec.records[1].op, WalOp::Append(0, b" more".to_vec()));
        assert_eq!(rec.records[2].op, WalOp::Delete(0));
        assert_eq!(rec.records[3].op, WalOp::Put(Vec::new()));
    }

    #[test]
    fn every_chop_point_recovers_the_intact_prefix() {
        let dir = TestDir::new("wal-chop");
        let (mut wal, _) = reopen(&dir);
        let docs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8 + 1; 5 + i * 3]).collect();
        let mut boundaries = vec![0u64];
        for (i, d) in docs.iter().enumerate() {
            wal.log_put(i as u64 + 1, d).unwrap();
            boundaries.push(wal.len());
        }
        drop(wal);
        let full = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(dir.path().join(WAL_FILE), &full[..cut]).unwrap();
            let (wal, rec) = reopen(&dir);
            // The recovered frames are exactly the whole frames before the
            // cut — never a partial document, never a panic.
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(rec.records.len(), whole, "cut at {cut}");
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(r.op, WalOp::Put(docs[i].clone()), "cut at {cut}");
            }
            // The file itself was truncated back to the frame boundary,
            // so appending resumes from a clean state.
            assert_eq!(wal.len(), boundaries[whole], "cut at {cut}");
            if cut as u64 > boundaries[whole] {
                assert_eq!(rec.truncated_at, Some(boundaries[whole]));
            } else {
                assert_eq!(rec.truncated_at, None);
            }
        }
    }

    #[test]
    fn corrupt_middle_frame_keeps_only_the_prefix() {
        let dir = TestDir::new("wal-midflip");
        let (mut wal, _) = reopen(&dir);
        for i in 0..4 {
            wal.log_put(i + 1, format!("document {i}").as_bytes())
                .unwrap();
        }
        let frame2_start = {
            // Recompute the second frame's start from a fresh parse.
            drop(wal);
            let data = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
            let (records, _) = parse_frames(&data);
            assert_eq!(records.len(), 4);
            let mut at = 0usize;
            for _ in 0..1 {
                let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
                at += FRAME_HEADER + len;
            }
            at
        };
        let mut data = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
        data[frame2_start + FRAME_HEADER + 9] ^= 0x10; // flip a body bit in frame 2
        std::fs::write(dir.path().join(WAL_FILE), &data).unwrap();
        let (_, rec) = reopen(&dir);
        // Only frame 1 survives: replay cannot trust anything past a bad
        // checksum (the documented truncate-and-continue semantics).
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated_at, Some(frame2_start as u64));
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn reset_clears_and_survives_reopen() {
        let dir = TestDir::new("wal-reset");
        let (mut wal, _) = reopen(&dir);
        wal.log_put(1, b"sealed away").unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.log_put(2, b"after the seal").unwrap();
        drop(wal);
        let (_, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].seq, 2);
    }

    #[test]
    fn a_failed_sync_poisons_the_log_until_reopen() {
        let dir = TestDir::new("wal-poison");
        let plan = crate::FaultPlan {
            fail_sync_at: Some(1),
            ..crate::FaultPlan::default()
        };
        let media = FileMedia::open(&dir.path().join(WAL_FILE)).unwrap();
        let media = Box::new(crate::FaultMedia::new(Box::new(media), &plan));
        let (mut wal, _) = Wal::open(media, FsyncPolicy::Always, &[]).unwrap();
        wal.log_put(1, b"acked").unwrap();
        assert!(matches!(wal.log_put(2, b"failed"), Err(StoreError::Io(_))));
        assert!(wal.is_poisoned());
        // No retry: the sync that failed is never reported as success.
        assert!(matches!(
            wal.log_put(3, b"later"),
            Err(StoreError::ReadOnly)
        ));
        assert!(matches!(wal.sync(), Err(StoreError::ReadOnly)));
        assert!(matches!(wal.reset(), Err(StoreError::ReadOnly)));
        drop(wal);
        // Reopening recovers what the file holds: the failed frame stayed.
        let (wal, rec) = reopen(&dir);
        assert!(!wal.is_poisoned());
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2]);
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:25"),
            Some(FsyncPolicy::Interval(Duration::from_millis(25)))
        );
        assert_eq!(FsyncPolicy::parse("interval:"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn interval_policy_syncs_lazily_never_not_at_all() {
        let dir = TestDir::new("wal-interval");
        let (mut wal, _) =
            Wal::open_dir(dir.path(), FsyncPolicy::Interval(Duration::from_secs(3600))).unwrap();
        // Interval far in the future: the first append inside the window
        // reports not-yet-durable.
        assert!(!wal.log_put(1, b"buffered").unwrap());
        wal.sync().unwrap();
        drop(wal);
        let (mut wal, _) = Wal::open_dir(dir.path(), FsyncPolicy::Never).unwrap();
        assert!(!wal.log_put(2, b"never synced").unwrap());
    }
}
