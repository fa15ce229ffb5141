//! Concurrency stress: every store family is opened ONCE and hammered from
//! many threads through `&self`, asserting that every document round-trips
//! byte-identical under contention. This is the contract the shared-reader
//! refactor introduces: one resident store, N parallel readers, no locks on
//! the RLZ/ascii read path.

use rlz_repro::corpus::{access, generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, SampleStrategy};
use rlz_repro::store::{AsciiStore, BlockCodec, BlockedStore, DocStore, RlzStore, RlzStoreBuilder};

struct TempDir(std::path::PathBuf);

impl TempDir {
    /// A fresh directory per call: tests run in parallel and several of
    /// them build stores under the same `name`, so the pid alone would let
    /// one test's `Drop` delete another test's live store.
    fn new(name: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let p = std::env::temp_dir().join(format!(
            "rlz-conc-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn crawl() -> &'static rlz_repro::corpus::Collection {
    use std::sync::OnceLock;
    static CRAWL: OnceLock<rlz_repro::corpus::Collection> = OnceLock::new();
    CRAWL.get_or_init(|| generate_web(&WebConfig::gov2(2 * 1024 * 1024, 0xC0C0)))
}

const THREADS: usize = 8;

/// Opens the store once, then replays a skewed query-log shard per thread
/// plus a full sweep, comparing every byte against the source documents.
fn hammer(store: &dyn DocStore, docs: &[&[u8]]) {
    assert_eq!(store.num_docs(), docs.len());
    let requests = access::query_log(docs.len(), THREADS * 400, 20, 0xBEEF);
    let shards = access::shards(&requests, THREADS);
    std::thread::scope(|scope| {
        for (t, shard) in shards.iter().enumerate() {
            scope.spawn(move || {
                let mut buf = Vec::new();
                // Skewed shard: contended hot documents.
                for &id in shard {
                    buf.clear();
                    store.get_into(id as usize, &mut buf).unwrap();
                    assert_eq!(&buf[..], docs[id as usize], "doc {id} (thread {t})");
                }
                // Full sweep from a different starting point per thread:
                // every document is read by every thread.
                for i in 0..docs.len() {
                    let id = (i + t * docs.len() / THREADS) % docs.len();
                    buf.clear();
                    store.get_into(id, &mut buf).unwrap();
                    assert_eq!(&buf[..], docs[id], "doc {id} (thread {t} sweep)");
                }
            });
        }
    });
}

#[test]
fn ascii_store_serves_concurrent_readers() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dir = TempDir::new("ascii");
    AsciiStore::build(dir.path(), docs.iter().copied()).unwrap();
    hammer(&AsciiStore::open(dir.path()).unwrap(), &docs);
    hammer(&AsciiStore::open_resident(dir.path()).unwrap(), &docs);
}

#[test]
fn blocked_store_serves_concurrent_readers() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dir = TempDir::new("blocked");
    BlockedStore::build(
        dir.path(),
        docs.iter().copied(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Fast),
        64 * 1024,
        THREADS,
    )
    .unwrap();
    // Without cache: every get decompresses privately.
    hammer(&BlockedStore::open(dir.path()).unwrap(), &docs);
    // With the shared sharded LRU: threads race on insert/evict.
    let mut cached = BlockedStore::open(dir.path()).unwrap();
    cached.set_block_cache_capacity(8);
    hammer(&cached, &docs);
}

#[test]
fn rlz_store_serves_concurrent_readers() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dict = Dictionary::sample(&c.data, c.data.len() / 100, 1024, SampleStrategy::Evenly);
    let dir = TempDir::new("rlz");
    RlzStoreBuilder::new(dict, PairCoding::ZV)
        .threads(THREADS)
        .build(dir.path(), &docs)
        .unwrap();
    hammer(&RlzStore::open(dir.path()).unwrap(), &docs);
    hammer(&RlzStore::open_resident(dir.path()).unwrap(), &docs);
}

#[test]
fn clones_are_cheap_per_thread_handles() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dict = Dictionary::sample(&c.data, c.data.len() / 100, 1024, SampleStrategy::Evenly);
    let dir = TempDir::new("rlz-clones");
    RlzStoreBuilder::new(dict, PairCoding::UV)
        .threads(THREADS)
        .build(dir.path(), &docs)
        .unwrap();
    let store = RlzStore::open(dir.path()).unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = store.clone(); // Arc bumps, no dictionary copy
            let docs = &docs;
            scope.spawn(move || {
                let mut buf = Vec::new();
                for i in (t..docs.len()).step_by(THREADS) {
                    buf.clear();
                    handle.get_into(i, &mut buf).unwrap();
                    assert_eq!(&buf[..], docs[i]);
                }
            });
        }
    });
}

#[test]
fn get_batch_round_trips_across_store_families() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let ids: Vec<u32> = access::query_log(docs.len(), 2000, 20, 0xF00D);

    let ascii_dir = TempDir::new("batch-ascii");
    AsciiStore::build(ascii_dir.path(), docs.iter().copied()).unwrap();
    let zl_dir = TempDir::new("batch-zl");
    BlockedStore::build(
        zl_dir.path(),
        docs.iter().copied(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Fast),
        32 * 1024,
        THREADS,
    )
    .unwrap();
    let rlz_dir = TempDir::new("batch-rlz");
    let dict = Dictionary::sample(&c.data, c.data.len() / 100, 1024, SampleStrategy::Evenly);
    RlzStoreBuilder::new(dict, PairCoding::ZZ)
        .threads(THREADS)
        .build(rlz_dir.path(), &docs)
        .unwrap();

    let stores: Vec<Box<dyn DocStore>> = vec![
        Box::new(AsciiStore::open(ascii_dir.path()).unwrap()),
        Box::new(BlockedStore::open(zl_dir.path()).unwrap()),
        Box::new(RlzStore::open(rlz_dir.path()).unwrap()),
    ];
    for store in &stores {
        for threads in [1, 3, THREADS] {
            let batch = store.get_batch(&ids, threads).unwrap();
            assert_eq!(batch.len(), ids.len());
            for (got, &id) in batch.iter().zip(&ids) {
                assert_eq!(got, docs[id as usize], "doc {id} at {threads} threads");
            }
        }
    }
}

/// Builds one store of each family over the shared crawl and runs `check`
/// on it (file-backed variants; the seek-aware batch path is aimed at
/// exactly these).
fn for_each_store_family(check: impl Fn(&str, &dyn DocStore)) {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();

    let ascii_dir = TempDir::new("fam-ascii");
    AsciiStore::build(ascii_dir.path(), docs.iter().copied()).unwrap();
    check("ascii", &AsciiStore::open(ascii_dir.path()).unwrap());

    let zl_dir = TempDir::new("fam-zl");
    BlockedStore::build(
        zl_dir.path(),
        docs.iter().copied(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Fast),
        16 * 1024,
        THREADS,
    )
    .unwrap();
    check("blocked", &BlockedStore::open(zl_dir.path()).unwrap());
    let mut cached = BlockedStore::open(zl_dir.path()).unwrap();
    cached.set_block_cache_capacity(4);
    check("blocked+cache", &cached);

    let rlz_dir = TempDir::new("fam-rlz");
    let dict = Dictionary::sample(&c.data, c.data.len() / 100, 1024, SampleStrategy::Evenly);
    RlzStoreBuilder::new(dict, PairCoding::UV)
        .threads(THREADS)
        .build(rlz_dir.path(), &docs)
        .unwrap();
    check("rlz", &RlzStore::open(rlz_dir.path()).unwrap());
}

/// Seek-ordered + coalesced batches must be byte-identical to sequential
/// gets — in request order — including heavy duplication and ids that hit
/// every corner of the block layout.
#[test]
fn get_batch_ordering_and_coalescing_match_sequential_gets() {
    let c = crawl();
    let n = c.num_docs();
    // Shuffled-ish ids with duplicates: reversed stride walk interleaved
    // with a hot id repeated throughout, plus boundary ids.
    let mut ids: Vec<u32> = Vec::new();
    for i in 0..(2 * n) {
        ids.push(((i * 7919) % n) as u32);
        if i % 3 == 0 {
            ids.push((n / 2) as u32); // duplicate hot document
        }
    }
    ids.push(0);
    ids.push((n - 1) as u32);

    for_each_store_family(|family, store| {
        let sequential: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| store.get(id as usize).unwrap())
            .collect();
        for threads in [1, 2, THREADS] {
            let batch = store.get_batch(&ids, threads).unwrap();
            assert_eq!(batch, sequential, "{family} at {threads} threads");
            let unordered = rlz_repro::store::get_batch_unordered(store, &ids, threads).unwrap();
            assert_eq!(
                unordered, sequential,
                "{family} unordered at {threads} threads"
            );
        }
    });
}

/// An out-of-range id anywhere in a batch fails the whole batch on every
/// store family and at every thread count.
#[test]
fn get_batch_rejects_out_of_range_ids() {
    let c = crawl();
    let n = c.num_docs() as u32;
    for_each_store_family(|family, store| {
        for threads in [1, THREADS] {
            for bad_ids in [
                vec![n],                 // lone out-of-range
                vec![0, 1, n, 2],        // mid-batch
                vec![n + 1000, 0],       // far out of range, first
                vec![0, 1, 2, u32::MAX], // extreme id
            ] {
                assert!(
                    store.get_batch(&bad_ids, threads).is_err(),
                    "{family} accepted {bad_ids:?} at {threads} threads"
                );
            }
        }
    });
}

/// Empty batches are valid and return nothing.
#[test]
fn get_batch_empty_is_ok() {
    for_each_store_family(|family, store| {
        assert!(
            store.get_batch(&[], THREADS).unwrap().is_empty(),
            "{family}"
        );
    });
}
