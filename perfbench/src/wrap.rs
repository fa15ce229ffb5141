//! Pass-through wrappers that time the program's public interfaces from
//! outside: a [`DocStore`] / [`WriteStore`] wrapper handed to the server in
//! place of the real store, a [`StorageBackend`] wrapper passed to
//! `RlzStore::open_with_backend`, and a build-input iterator that measures
//! how long the build pipeline's reader spends outside it.
//!
//! Every trait method is forwarded — including the ones with default
//! bodies — so the wrapped store keeps its own behaviour: the live store's
//! snapshot-pinned batches and the seek-ordered batch path are the inner
//! store's, untouched.

use crate::trace;
use rlz_store::{DocStore, StorageBackend, StoreError, StoreStats, WriteStats, WriteStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A store whose calls open `store.*` spans.
#[derive(Debug, Clone)]
pub struct Traced<S>(pub S);

impl<S: DocStore> DocStore for Traced<S> {
    fn num_docs(&self) -> usize {
        self.0.num_docs()
    }

    fn stats(&self) -> StoreStats {
        self.0.stats()
    }

    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let mut g = trace::span("store.get", id as u64);
        let before = out.len();
        let r = self.0.get_into(id, out);
        g.arg = (out.len() - before) as u64;
        r
    }

    fn get(&self, id: usize) -> Result<Vec<u8>, StoreError> {
        let _g = trace::span("store.get", id as u64);
        self.0.get(id)
    }

    fn record_offset(&self, id: usize) -> Option<u64> {
        self.0.record_offset(id)
    }

    fn get_batch(&self, ids: &[u32], threads: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut g = trace::span("store.batch", ids.first().map_or(0, |&i| i as u64));
        g.arg = ids.len() as u64;
        self.0.get_batch(ids, threads)
    }

    fn quarantined_docs(&self) -> u64 {
        self.0.quarantined_docs()
    }

    fn get_batch_results(&self, ids: &[u32], threads: usize) -> Vec<Result<Vec<u8>, StoreError>> {
        let mut g = trace::span("store.batch", ids.first().map_or(0, |&i| i as u64));
        g.arg = ids.len() as u64;
        self.0.get_batch_results(ids, threads)
    }
}

impl<S: WriteStore> WriteStore for Traced<S> {
    /// The span's `req` is the assigned id; its `arg` packs the seal count
    /// before the call (high bits) and whether a seal happened during it
    /// (low bit). Reading the seal count takes the store's writer lock, so
    /// it is done outside the span and only while tracing.
    fn put(&self, doc: &[u8]) -> Result<u32, StoreError> {
        let seals_before = trace::enabled().then(|| self.0.write_stats().seals);
        let mut g = trace::span("store.put", 0);
        let r = self.0.put(doc);
        if let Ok(id) = &r {
            g.req = *id as u64;
        }
        drop(g);
        if let Some(before) = seals_before {
            let after = self.0.write_stats().seals;
            trace::annotate_last(|s| s.arg = (before << 1) | u64::from(after > before));
        }
        r
    }

    fn append(&self, id: u32, bytes: &[u8]) -> Result<(), StoreError> {
        let _g = trace::span("store.append", id as u64);
        self.0.append(id, bytes)
    }

    fn delete(&self, id: u32) -> Result<(), StoreError> {
        let _g = trace::span("store.delete", id as u64);
        self.0.delete(id)
    }

    fn write_pressure(&self) -> bool {
        self.0.write_pressure()
    }

    fn write_stats(&self) -> WriteStats {
        self.0.write_stats()
    }
}

/// A payload backend whose reads open `store.pread` spans (arg = bytes).
#[derive(Debug)]
pub struct TracedBackend<B>(pub B);

impl<B: StorageBackend> StorageBackend for TracedBackend<B> {
    fn len(&self) -> u64 {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StoreError> {
        let mut g = trace::span("store.pread", 0);
        g.arg = buf.len() as u64;
        self.0.read_exact_at(buf, offset)
    }
}

/// Wraps the build's input iterator and accumulates, in ns, the time
/// between returning an item and the next call: the pipeline's reader
/// packing blocks and waiting on its bounded channel (backpressure).
pub struct TimedIter<I> {
    inner: I,
    last_return: Option<Instant>,
    pub outside_ns: Arc<AtomicU64>,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I) -> Self {
        TimedIter {
            inner,
            last_return: None,
            outside_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The unwrapped iterator, for untimed runs.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        if let Some(last) = self.last_return {
            self.outside_ns
                .fetch_add(last.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let item = self.inner.next();
        self.last_return = Some(Instant::now());
        item
    }
}

#[cfg(test)]
mod tests {
    //! The wrappers must be invisible: wrapped and unwrapped stores return
    //! identical bytes, offsets, batches, errors and write outcomes.

    use super::*;
    use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
    use rlz_store::{
        build_rlz_chunked, BuildConfig, FileBackend, FsyncPolicy, LiveConfig, LiveStore, RlzStore,
    };
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn corpus() -> rlz_corpus::Collection {
        crate::corpus::gov2(1, 7)
    }

    fn dict(c: &rlz_corpus::Collection) -> Dictionary {
        Dictionary::sample_streamed(
            c.iter_docs(),
            c.total_bytes(),
            16 << 10,
            1024,
            SampleStrategy::Evenly,
        )
    }

    /// Every read-side method of `a` and `b` agrees, for in-range ids, an
    /// out-of-range id, and batches with duplicates.
    fn same_reads(a: &dyn DocStore, b: &dyn DocStore) {
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.quarantined_docs(), b.quarantined_docs());
        let n = a.num_docs();
        for id in 0..=n {
            assert_eq!(a.record_offset(id), b.record_offset(id), "offset of {id}");
            assert_eq!(a.get(id).ok(), b.get(id).ok(), "get {id}");
            let (mut x, mut y) = (b"prefix".to_vec(), b"prefix".to_vec());
            assert_eq!(
                a.get_into(id, &mut x).is_ok(),
                b.get_into(id, &mut y).is_ok()
            );
            assert_eq!(x, y, "get_into {id}");
        }
        let ids: Vec<u32> = (0..n as u32).rev().chain([0, 0, 1]).collect();
        for threads in [1, 2] {
            assert_eq!(
                a.get_batch(&ids, threads).ok(),
                b.get_batch(&ids, threads).ok()
            );
            let ra: Vec<_> = a
                .get_batch_results(&ids, threads)
                .into_iter()
                .map(Result::ok)
                .collect();
            let rb: Vec<_> = b
                .get_batch_results(&ids, threads)
                .into_iter()
                .map(Result::ok)
                .collect();
            assert_eq!(ra, rb);
        }
        let bad = [0, n as u32 + 5];
        assert_eq!(a.get_batch(&bad, 1).is_err(), b.get_batch(&bad, 1).is_err());
    }

    #[test]
    fn wrapped_rlz_store_reads_identically() {
        let tmp = TempDir::new("rlz");
        let c = corpus();
        let comp = RlzCompressor::new(dict(&c), PairCoding::ZV);
        build_rlz_chunked(
            &tmp.0,
            &comp,
            c.iter_docs().map(<[u8]>::to_vec),
            &BuildConfig::default(),
        )
        .expect("build");
        let plain = RlzStore::open(&tmp.0).expect("open");
        let backend = FileBackend::open(&tmp.0.join("payload.bin")).expect("payload");
        let via_backend =
            RlzStore::open_with_backend(&tmp.0, Arc::new(TracedBackend(backend))).expect("open");
        same_reads(&plain, &Traced(plain.clone()));
        same_reads(&plain, &Traced(via_backend));
        for id in 0..c.num_docs() {
            assert_eq!(plain.get(id).expect("doc"), c.doc(id));
        }
    }

    #[test]
    fn wrapped_live_store_writes_and_reads_identically() {
        let (ta, tb) = (TempDir::new("live-a"), TempDir::new("live-b"));
        let c = corpus();
        let cfg = LiveConfig {
            fsync: FsyncPolicy::Never,
            seal_bytes: 64 << 10,
            ..LiveConfig::default()
        };
        let a = LiveStore::create(&ta.0, dict(&c), PairCoding::ZV, cfg).expect("create");
        let b = Traced(LiveStore::create(&tb.0, dict(&c), PairCoding::ZV, cfg).expect("create"));
        for (i, doc) in c.iter_docs().enumerate() {
            assert_eq!(a.put(doc).ok(), b.put(doc).ok());
            if i % 5 == 4 {
                let id = (i / 2) as u32;
                assert_eq!(a.append(id, b"tail").is_ok(), b.append(id, b"tail").is_ok());
            }
            if i % 7 == 6 {
                let id = (i / 3) as u32;
                assert_eq!(a.delete(id).is_ok(), b.delete(id).is_ok());
            }
        }
        assert_eq!(a.delete(u32::MAX).is_err(), b.delete(u32::MAX).is_err());
        assert_eq!(a.write_pressure(), b.write_pressure());
        let (sa, sb) = (a.write_stats(), b.write_stats());
        assert_eq!((sa.wal_frames, sa.seals), (sb.wal_frames, sb.seals));
        assert!(sa.seals > 0, "the test should cross a seal");
        same_reads(&a, &b);
    }

    #[test]
    fn timed_iter_passes_items_through() {
        let items: Vec<u32> = TimedIter::new(0..100u32).collect();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
