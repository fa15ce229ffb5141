//! Deterministic fault injection for the storage layer.
//!
//! [`FaultBackend`] wraps any [`StorageBackend`] and corrupts reads
//! according to a [`FaultPlan`]: seeded bit flips, a truncation point
//! (reads past it fail like a short read), and injected I/O errors over
//! byte ranges. Every fault is deterministic — the same plan produces the
//! same failures — so containment tests can assert exactly which documents
//! a fault takes down and that every other document still decodes
//! byte-identically.
//!
//! The plan is mutable after the store is opened (it sits behind a mutex
//! shared by all clones of the backend handle), so a test can open a clean
//! store, take a baseline, arm a fault, and diff the outcome.

use crate::backend::StorageBackend;
use crate::StoreError;
use std::io;
use std::sync::{Arc, Mutex};

/// What to break, applied to every read that overlaps it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(byte offset, xor mask)` pairs: any read covering `offset` sees the
    /// byte XORed with the mask (bit rot).
    pub bit_flips: Vec<(u64, u8)>,
    /// Effective end of the file: [`len`](StorageBackend::len) is clamped
    /// to this and reads past it fail with `UnexpectedEof` (a truncated
    /// file, or equivalently a persistent short read).
    pub truncate_at: Option<u64>,
    /// `[start, end)` byte ranges where reads fail with an injected I/O
    /// error (a bad sector returning EIO).
    pub eio_ranges: Vec<(u64, u64)>,
    /// Write-side crash point, honored by [`FaultMedia`]: the process
    /// "dies" on the Nth WAL append (0-based) — that append persists only
    /// its first [`torn_write_bytes`](FaultPlan::torn_write_bytes) bytes
    /// and every later append or sync fails without persisting anything,
    /// so the surviving file is exactly what a real `kill -9` would leave.
    pub crash_after_appends: Option<u64>,
    /// How many bytes of the crashing append reach the media before the
    /// simulated crash (a torn write). 0 = the frame vanishes whole.
    pub torn_write_bytes: usize,
    /// One-shot fsync failure, honored by [`FaultMedia`]: the Nth WAL sync
    /// (0-based) fails with EIO and syncs nothing. Bytes already appended
    /// stay in the file and every other call passes through, the way a
    /// real failed `fsync` leaves a frame behind.
    pub fail_sync_at: Option<u64>,
}

impl FaultPlan {
    /// `flips` single-bit faults spread deterministically over `[0, len)`
    /// by an xorshift stream seeded with `seed` — the classic bit-rot
    /// scenario, reproducible from the seed alone.
    pub fn seeded_bit_flips(seed: u64, flips: usize, len: u64) -> Self {
        // Scramble the seed first (adjacent seeds would otherwise collide
        // under the `| 1` zero-guard), then guard against the xorshift
        // zero fixed point.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bit_flips = (0..flips)
            .map(|_| {
                let offset = if len == 0 { 0 } else { next() % len };
                let mask = 1u8 << (next() % 8);
                (offset, mask)
            })
            .collect();
        FaultPlan {
            bit_flips,
            ..FaultPlan::default()
        }
    }
}

/// A [`StorageBackend`] decorator that injects the faults in its
/// [`FaultPlan`]. Open a store over it with the family's
/// `open_with_backend` constructor; keep a second [`Arc`] to re-arm the
/// plan mid-test via [`set_plan`](FaultBackend::set_plan) /
/// [`clear`](FaultBackend::clear).
#[derive(Debug)]
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    plan: Mutex<FaultPlan>,
}

impl FaultBackend {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Arc<Self> {
        Arc::new(FaultBackend {
            inner,
            plan: Mutex::new(FaultPlan::default()),
        })
    }

    /// Wraps `inner` with `plan` already armed.
    pub fn with_plan(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultBackend {
            inner,
            plan: Mutex::new(plan),
        })
    }

    /// Replaces the active plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().expect("no poisoning") = plan;
    }

    /// Disarms every fault: subsequent reads pass through unchanged.
    pub fn clear(&self) {
        self.set_plan(FaultPlan::default());
    }
}

/// A [`WalMedia`](crate::WalMedia) decorator injecting the write-side
/// faults of a [`FaultPlan`]: a crash point (by append count), a torn
/// final write, and a one-shot fsync failure (by sync count). After the
/// simulated crash the wrapped file holds exactly the bytes a `kill -9` at
/// that instant would have left, so a test reopens the directory normally
/// and exercises the true recovery path.
pub struct FaultMedia {
    inner: Box<dyn crate::WalMedia>,
    crash_after_appends: Option<u64>,
    torn_write_bytes: usize,
    fail_sync_at: Option<u64>,
    appends: u64,
    syncs: u64,
    crashed: bool,
}

impl FaultMedia {
    /// Wraps `inner`, taking the write-side faults from `plan` (the
    /// read-side fields are ignored here — arm those on a
    /// [`FaultBackend`]).
    pub fn new(inner: Box<dyn crate::WalMedia>, plan: &FaultPlan) -> Self {
        FaultMedia {
            inner,
            crash_after_appends: plan.crash_after_appends,
            torn_write_bytes: plan.torn_write_bytes,
            fail_sync_at: plan.fail_sync_at,
            appends: 0,
            syncs: 0,
            crashed: false,
        }
    }
}

impl crate::WalMedia for FaultMedia {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected crash: writer process is gone",
            ));
        }
        if self.crash_after_appends == Some(self.appends) {
            // The crashing write: only a prefix reaches the media.
            let torn = self.torn_write_bytes.min(buf.len());
            self.inner.append(&buf[..torn])?;
            self.crashed = true;
            self.appends += 1;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected crash mid-append (torn write)",
            ));
        }
        self.appends += 1;
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected crash: writer process is gone",
            ));
        }
        let n = self.syncs;
        self.syncs += 1;
        if self.fail_sync_at == Some(n) {
            return Err(io::Error::other("injected fsync failure (EIO)"));
        }
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected crash: writer process is gone",
            ));
        }
        self.inner.truncate(len)
    }
}

impl StorageBackend for FaultBackend {
    fn len(&self) -> u64 {
        let plan = self.plan.lock().expect("no poisoning");
        match plan.truncate_at {
            Some(t) => self.inner.len().min(t),
            None => self.inner.len(),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StoreError> {
        let plan = self.plan.lock().expect("no poisoning");
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or_else(|| StoreError::corrupt("read extent overflows"))?;
        for &(start, stop) in &plan.eio_ranges {
            if offset < stop && start < end {
                return Err(StoreError::Io(io::Error::other(
                    "injected I/O fault (simulated bad sector)",
                )));
            }
        }
        if let Some(t) = plan.truncate_at {
            if end > t {
                return Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read past injected truncation point",
                )));
            }
        }
        self.inner.read_exact_at(buf, offset)?;
        for &(at, mask) in &plan.bit_flips {
            if at >= offset && at < end {
                buf[(at - offset) as usize] ^= mask;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn backend() -> Arc<FaultBackend> {
        let data: Vec<u8> = (0..=255u8).collect();
        FaultBackend::new(Arc::new(MemBackend::new(data)))
    }

    #[test]
    fn no_faults_passes_through() {
        let b = backend();
        let mut buf = [0u8; 16];
        b.read_exact_at(&mut buf, 100).unwrap();
        assert_eq!(buf[0], 100);
        assert_eq!(b.len(), 256);
    }

    #[test]
    fn bit_flips_hit_only_their_offsets() {
        let b = backend();
        b.set_plan(FaultPlan {
            bit_flips: vec![(10, 0x01), (200, 0x80)],
            ..FaultPlan::default()
        });
        let mut buf = [0u8; 32];
        b.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf[10], 10 ^ 0x01);
        assert_eq!(buf[11], 11);
        // A read not covering any flip is untouched.
        b.read_exact_at(&mut buf, 32).unwrap();
        assert_eq!(buf, std::array::from_fn::<u8, 32, _>(|i| (32 + i) as u8));
        b.clear();
        b.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf[10], 10);
    }

    #[test]
    fn truncation_clamps_len_and_fails_reads_past_it() {
        let b = backend();
        b.set_plan(FaultPlan {
            truncate_at: Some(64),
            ..FaultPlan::default()
        });
        assert_eq!(b.len(), 64);
        let mut buf = [0u8; 16];
        b.read_exact_at(&mut buf, 48).unwrap();
        let err = b.read_exact_at(&mut buf, 56).unwrap_err();
        assert!(matches!(err, StoreError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn eio_ranges_fail_overlapping_reads_only() {
        let b = backend();
        b.set_plan(FaultPlan {
            eio_ranges: vec![(100, 110)],
            ..FaultPlan::default()
        });
        let mut buf = [0u8; 10];
        b.read_exact_at(&mut buf, 80).unwrap();
        assert!(b.read_exact_at(&mut buf, 95).is_err());
        assert!(b.read_exact_at(&mut buf, 105).is_err());
        b.read_exact_at(&mut buf, 110).unwrap();
    }

    #[test]
    fn seeded_flips_are_deterministic() {
        let a = FaultPlan::seeded_bit_flips(42, 8, 1 << 20);
        let b = FaultPlan::seeded_bit_flips(42, 8, 1 << 20);
        assert_eq!(a.bit_flips, b.bit_flips);
        let c = FaultPlan::seeded_bit_flips(43, 8, 1 << 20);
        assert_ne!(a.bit_flips, c.bit_flips);
        assert!(a
            .bit_flips
            .iter()
            .all(|&(o, m)| o < (1 << 20) && m.is_power_of_two()));
    }
}
