//! End-to-end guard on the serving path: a real `rlz-serve` server on a
//! loopback socket, driven by concurrent protocol clients, with every
//! response checked byte-for-byte against direct `DocStore::get`. Also
//! covers the protocol's failure surface (out-of-range, unknown opcode,
//! malformed and oversized frames), pipelined request bursts, the
//! hot-document cache, and clean shutdown semantics.

use rlz_repro::corpus::{access, generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, SampleStrategy};
use rlz_repro::serve::protocol::{
    self, STATUS_BAD_FRAME, STATUS_BAD_OPCODE, STATUS_CORRUPT, STATUS_OUT_OF_RANGE,
};
use rlz_repro::serve::{serve, Client, ClientError, ServeConfig};
use rlz_repro::store::{
    BlockCodec, BlockedStore, DocStore, FaultBackend, FaultPlan, FileBackend, RlzStore,
    RlzStoreBuilder, StorageBackend,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("rlz-serve-it-{name}-{}", std::process::id()));
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

fn corpus_docs() -> Vec<Vec<u8>> {
    let collection = generate_web(&WebConfig::gov2(512 * 1024, 0x5E17E));
    collection.iter_docs().map(|d| d.to_vec()).collect()
}

fn build_rlz(dir: &std::path::Path, docs: &[Vec<u8>]) {
    let all: Vec<u8> = docs.concat();
    let dict = Dictionary::sample(&all, all.len() / 64, 512, SampleStrategy::Evenly);
    let slices: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();
    RlzStoreBuilder::new(dict, PairCoding::ZV)
        .threads(2)
        .build(dir, &slices)
        .unwrap();
}

fn start_cfg(store: Arc<dyn DocStore>, cfg: ServeConfig) -> rlz_repro::serve::ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(store, listener, cfg).unwrap()
}

fn start_with(
    store: Arc<dyn DocStore>,
    threads: usize,
    cache_bytes: usize,
) -> rlz_repro::serve::ServerHandle {
    start_cfg(
        store,
        ServeConfig {
            threads,
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes,
            max_connections: 0,
            idle_timeout: None,
            shed_queue_depth: 0,
            writer: None,
            metrics: true,
            metrics_addr: None,
        },
    )
}

fn start(store: Arc<dyn DocStore>, threads: usize) -> rlz_repro::serve::ServerHandle {
    start_with(store, threads, 0)
}

#[test]
fn concurrent_clients_roundtrip_byte_identical() {
    let docs = corpus_docs();
    let dir = TempDir::new("roundtrip");
    build_rlz(dir.path(), &docs);
    let store = RlzStore::open(dir.path()).unwrap();
    let handle = start(Arc::new(store.clone()), 2);
    let addr = handle.addr();

    const CLIENTS: usize = 4;
    let requests = access::query_log(docs.len(), CLIENTS * 300, 20, 0xFACE);
    let shards = access::shards(&requests, CLIENTS);
    std::thread::scope(|scope| {
        for (t, shard) in shards.iter().enumerate() {
            let docs = &docs;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut buf = Vec::new();
                // Skewed single-GET stream, reusing the response buffer.
                for &id in shard {
                    buf.clear();
                    client.get_into(id, &mut buf).unwrap();
                    assert_eq!(&buf[..], docs[id as usize], "doc {id} (client {t})");
                }
                // The same stream as MGET batches through the seek-aware
                // batch path.
                for batch in shard.chunks(17) {
                    let got = client.mget(batch).unwrap();
                    for (doc, &id) in got.iter().zip(batch) {
                        assert_eq!(doc, &docs[id as usize], "batched doc {id} (client {t})");
                    }
                }
            });
        }
    });

    // STAT agrees with the store's own accounting and reports the epoll
    // event loop in its backend byte.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.server_stat().unwrap();
    assert_eq!(stats.store, store.stats());
    assert_eq!(stats.store.num_docs as usize, docs.len());
    assert!(stats.store.payload_bytes > 0);
    assert!(stats.store.max_record_len > 0);
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.push(protocol::OP_STAT);
    let (status, body) = client.send_raw(&frame).unwrap();
    assert_eq!(status, protocol::STATUS_OK);
    assert_eq!(body.len(), protocol::STAT_BODY_LEN);
    assert_eq!(body[56], protocol::BACKEND_EPOLL);
    assert_eq!(stats.cache_budget_bytes, 0, "cache disabled by default");

    client.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn pipelined_bursts_answer_in_order() {
    let docs = corpus_docs();
    let dir = TempDir::new("pipeline");
    build_rlz(dir.path(), &docs);
    let store = RlzStore::open(dir.path()).unwrap();
    let handle = start(Arc::new(store.clone()), 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    // A burst of pipelined GETs — with repeats, so the server's
    // deduplicated batch path serves several positions from one
    // decode — must answer in request order, byte-identical.
    let ids: Vec<u32> = access::query_log(docs.len(), 600, 20, 0xBEEF);
    for &id in &ids {
        client.send_get(id).unwrap();
    }
    let mut buf = Vec::new();
    for &id in &ids {
        buf.clear();
        client.recv_get_into(&mut buf).unwrap();
        assert_eq!(&buf[..], docs[id as usize], "pipelined doc {id}");
    }
    // Mixed pipelining: GET, MGET, STAT interleaved in one burst.
    client.send_get(3).unwrap();
    client.send_mget(&[5, 5, 1]).unwrap();
    client.send_get(2).unwrap();
    buf.clear();
    client.recv_get_into(&mut buf).unwrap();
    assert_eq!(&buf[..], docs[3]);
    let got = client.recv_mget(3).unwrap();
    assert_eq!(got[0], docs[5]);
    assert_eq!(got[1], docs[5]);
    assert_eq!(got[2], docs[1]);
    buf.clear();
    client.recv_get_into(&mut buf).unwrap();
    assert_eq!(&buf[..], docs[2]);
    handle.shutdown();
}

#[test]
fn hot_document_cache_is_byte_identical_and_counted() {
    let docs = corpus_docs();
    let dir = TempDir::new("hotcache");
    build_rlz(dir.path(), &docs);
    let store = RlzStore::open(dir.path()).unwrap();
    let handle = start_with(Arc::new(store.clone()), 2, 4 << 20);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Two passes over a skewed stream: pass 2 is served largely from
    // the cache and must stay byte-identical.
    let ids = access::query_log(docs.len(), 400, 20, 0xCAFE);
    let mut buf = Vec::new();
    for round in 0..2 {
        for &id in &ids {
            buf.clear();
            client.get_into(id, &mut buf).unwrap();
            assert_eq!(&buf[..], docs[id as usize], "doc {id} round {round}");
        }
    }
    let stats = client.server_stat().unwrap();
    assert_eq!(stats.cache_budget_bytes, 4 << 20);
    assert!(stats.cache_hits > 0, "repeated ids must hit the cache");
    assert!(stats.cache_misses > 0, "first touches must miss");
    assert!(stats.cache_resident_bytes > 0);
    assert!(stats.cache_resident_bytes <= stats.cache_budget_bytes);

    // An MGET with heavy duplication: the dedup path decodes each
    // unique id once. Lookups are counted per unique id, so the hit
    // delta across a fully-warm repeat equals the unique count.
    let unique: Vec<u32> = (0..8u32).collect();
    let mut dup = Vec::new();
    for _ in 0..5 {
        dup.extend_from_slice(&unique);
    }
    let _ = client.mget(&dup).unwrap(); // warm every unique id
    let before = client.server_stat().unwrap();
    let got = client.mget(&dup).unwrap();
    for (doc, &id) in got.iter().zip(&dup) {
        assert_eq!(doc, &docs[id as usize], "dup MGET doc {id}");
    }
    let after = client.server_stat().unwrap();
    assert_eq!(
        after.cache_hits - before.cache_hits,
        unique.len() as u64,
        "a warm 5x-duplicated MGET must look up each unique id exactly once"
    );
    assert_eq!(after.cache_misses, before.cache_misses);
    handle.shutdown();
}

#[test]
fn blocked_store_serves_identically() {
    let docs = corpus_docs();
    let dir = TempDir::new("blocked");
    BlockedStore::build(
        dir.path(),
        docs.iter().map(|d| d.as_slice()),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
        64 * 1024,
        2,
    )
    .unwrap();
    let store = BlockedStore::open(dir.path()).unwrap();
    let handle = start(Arc::new(store.clone()), 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Same-block ids in one MGET exercise the coalesced decode path.
    let ids: Vec<u32> = (0..docs.len().min(40) as u32).collect();
    let got = client.mget(&ids).unwrap();
    for (doc, &id) in got.iter().zip(&ids) {
        assert_eq!(doc, &docs[id as usize], "doc {id}");
    }
    assert_eq!(client.stat().unwrap().num_docs as usize, docs.len());
    handle.shutdown();
}

#[test]
fn error_frames_and_connection_policy() {
    let docs = corpus_docs();
    let dir = TempDir::new("errors");
    build_rlz(dir.path(), &docs);
    let store = Arc::new(RlzStore::open(dir.path()).unwrap());
    let handle = start(Arc::clone(&store) as Arc<dyn DocStore>, 1);
    let addr = handle.addr();
    let n = docs.len() as u32;

    // Out-of-range GET: error frame, connection stays usable.
    let mut client = Client::connect(addr).unwrap();
    match client.get(n) {
        Err(ClientError::Server { status, message }) => {
            assert_eq!(status, STATUS_OUT_OF_RANGE);
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("expected out-of-range error, got {other:?}"),
    }
    assert_eq!(client.get(0).unwrap(), docs[0], "connection must survive");

    // Out-of-range ids inside a pipelined GET burst answer per-request
    // error frames without disturbing neighbours.
    client.send_get(1).unwrap();
    client.send_get(n).unwrap();
    client.send_get(2).unwrap();
    let mut buf = Vec::new();
    client.recv_get_into(&mut buf).unwrap();
    assert_eq!(&buf[..], docs[1]);
    match client.recv_get_into(&mut Vec::new()) {
        Err(ClientError::Server { status, message }) => {
            assert_eq!(status, STATUS_OUT_OF_RANGE);
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("pipelined out-of-range must error, got {other:?}"),
    }
    buf.clear();
    client.recv_get_into(&mut buf).unwrap();
    assert_eq!(&buf[..], docs[2]);

    // Out-of-range id inside an MGET fails the whole batch.
    match client.mget(&[0, 1, n]) {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, STATUS_OUT_OF_RANGE),
        other => panic!("expected out-of-range error, got {other:?}"),
    }

    // Unknown opcode: error frame, connection stays open.
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.push(0x6E);
    let (status, _) = client.send_raw(&frame).unwrap();
    assert_eq!(status, STATUS_BAD_OPCODE);
    assert_eq!(client.get(1).unwrap(), docs[1]);

    // Oversized length prefix: BAD_FRAME answer, then the server closes
    // this connection.
    let mut client = Client::connect(addr).unwrap();
    let (status, _) = client.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    assert_eq!(status, STATUS_BAD_FRAME);
    assert!(
        client.get(0).is_err(),
        "connection must be closed after a malformed frame"
    );

    // An MGET whose count field lies about the body also earns BAD_FRAME.
    let mut client = Client::connect(addr).unwrap();
    let mut frame = 13u32.to_le_bytes().to_vec(); // opcode + count + 2 ids
    frame.push(protocol::OP_MGET);
    frame.extend_from_slice(&9u32.to_le_bytes()); // claims 9 ids
    frame.extend_from_slice(&[0u8; 8]); // carries 2
    let (status, _) = client.send_raw(&frame).unwrap();
    assert_eq!(status, STATUS_BAD_FRAME);

    // A client vanishing mid-frame must not wedge the server.
    {
        let mut client = Client::connect(addr).unwrap();
        let mut partial = 5u32.to_le_bytes().to_vec();
        partial.push(protocol::OP_GET);
        // Two of the four id bytes, then drop the socket.
        partial.extend_from_slice(&[0u8; 2]);
        let _ = client.send_raw_no_response(&partial);
    }
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.get(2).unwrap(),
        docs[2],
        "server survives torn frame"
    );

    handle.shutdown();
}

#[test]
fn corrupt_block_fails_only_its_mget_entries_over_the_wire() {
    let docs = corpus_docs();
    let dir = TempDir::new("corrupt-mget");
    BlockedStore::build(
        dir.path(),
        docs.iter().map(|d| d.as_slice()),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
        16 * 1024,
        2,
    )
    .unwrap();
    // A seeded single-byte flip in the middle of the compressed payload:
    // exactly one block's checksum breaks, and only that block's documents
    // may fail.
    let payload_len = std::fs::metadata(dir.path().join("blocks.bin"))
        .unwrap()
        .len();
    let fault = FaultBackend::new(Arc::new(
        FileBackend::open(&dir.path().join("blocks.bin")).unwrap(),
    ));
    let store =
        BlockedStore::open_with_backend(dir.path(), Arc::clone(&fault) as Arc<dyn StorageBackend>)
            .unwrap();
    fault.set_plan(FaultPlan {
        bit_flips: vec![(payload_len / 2, 0x10)],
        ..FaultPlan::default()
    });
    // Ground truth through the same faulted store: which ids must fail.
    let local = store.clone();
    let ids: Vec<u32> = (0..docs.len() as u32).collect();
    let expect: Vec<Result<Vec<u8>, _>> = ids.iter().map(|&id| local.get(id as usize)).collect();
    let corrupt: Vec<u32> = ids
        .iter()
        .zip(&expect)
        .filter_map(|(&id, r)| r.is_err().then_some(id))
        .collect();
    assert!(
        !corrupt.is_empty() && corrupt.len() < docs.len(),
        "the flip must break some but not all documents (broke {})",
        corrupt.len()
    );

    let handle = start(Arc::new(store.clone()), 1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // MGET across the whole store: per-entry containment. Corrupt ids
    // answer typed ERR_CORRUPT entries; every other entry is
    // byte-identical to the clean document.
    let got = client.mget_results(&ids).unwrap();
    assert_eq!(got.len(), ids.len());
    for ((&id, entry), want) in ids.iter().zip(&got).zip(&expect) {
        match (entry, want) {
            (Ok(doc), Ok(want)) => {
                assert_eq!(doc, want, "doc {id}");
                assert_eq!(doc, &docs[id as usize], "doc {id} vs source");
            }
            (Err((status, message)), Err(_)) => {
                assert_eq!(*status, STATUS_CORRUPT, "doc {id}: {message}");
            }
            other => panic!("doc {id}: wire and local outcomes disagree: {other:?}"),
        }
    }

    // A single GET of a corrupt id earns the same typed status, and the
    // connection survives to serve clean documents afterwards.
    match client.get(corrupt[0]) {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, STATUS_CORRUPT),
        other => panic!("GET of a corrupt doc must fail typed, got {other:?}"),
    }
    let clean = ids
        .iter()
        .find(|id| !corrupt.contains(id))
        .copied()
        .unwrap();
    assert_eq!(
        client.get(clean).unwrap(),
        docs[clean as usize],
        "connection must survive a corrupt response"
    );
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy_and_recovers() {
    let docs = corpus_docs();
    let dir = TempDir::new("conn-cap");
    build_rlz(dir.path(), &docs);
    let store = Arc::new(RlzStore::open(dir.path()).unwrap());
    let handle = start_cfg(
        Arc::clone(&store) as Arc<dyn DocStore>,
        ServeConfig {
            threads: 1,
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes: 0,
            max_connections: 1,
            idle_timeout: None,
            shed_queue_depth: 0,
            writer: None,
            metrics: true,
            metrics_addr: None,
        },
    );
    let addr = handle.addr();

    // First connection occupies the only slot.
    let mut first = Client::connect(addr).unwrap();
    assert_eq!(first.get(0).unwrap(), docs[0]);

    // The second is accepted just long enough to hear ERR_BUSY.
    let mut second = Client::connect(addr).unwrap();
    match second.get(0) {
        Err(e) if e.is_busy() => {}
        other => panic!("over-cap connection must get ERR_BUSY, got {other:?}"),
    }

    // Once the slot frees, a retrying connect gets in and is served.
    drop(first);
    let mut retried = Client::connect_retry(addr, Duration::from_secs(10))
        .expect("capacity must free after the first client disconnects");
    assert_eq!(retried.get(1).unwrap(), docs[1]);
    retried.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn connect_retry_times_out_with_typed_error() {
    // A port that was listening and no longer is: every attempt fails fast,
    // and the retry loop must give up with the typed timeout error.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    match Client::connect_retry(addr, Duration::from_millis(300)) {
        Err(ClientError::ConnectTimedOut { attempts, .. }) => {
            assert!(attempts >= 2, "must retry before timing out ({attempts})")
        }
        other => panic!("expected ConnectTimedOut, got {other:?}"),
    }
}

#[test]
fn idle_timeout_reaps_silent_connections() {
    let docs = corpus_docs();
    let dir = TempDir::new("idle");
    build_rlz(dir.path(), &docs);
    let store = Arc::new(RlzStore::open(dir.path()).unwrap());
    let handle = start_cfg(
        Arc::clone(&store) as Arc<dyn DocStore>,
        ServeConfig {
            threads: 1,
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes: 0,
            max_connections: 0,
            idle_timeout: Some(Duration::from_millis(150)),
            shed_queue_depth: 0,
            writer: None,
            metrics: true,
            metrics_addr: None,
        },
    );
    let addr = handle.addr();
    let mut idle = Client::connect(addr).unwrap();
    assert_eq!(idle.get(0).unwrap(), docs[0]);
    std::thread::sleep(Duration::from_millis(700));
    assert!(
        idle.get(0).is_err(),
        "a connection silent past the idle timeout must be dropped"
    );
    // The server itself is healthy: fresh connections are served.
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.get(0).unwrap(), docs[0]);
    fresh.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn overloaded_server_sheds_with_busy_instead_of_stalling() {
    let docs = corpus_docs();
    let dir = TempDir::new("shed");
    build_rlz(dir.path(), &docs);
    let store = RlzStore::open(dir.path()).unwrap();
    let handle = start_cfg(
        Arc::new(store.clone()),
        ServeConfig {
            threads: 1,
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes: 0,
            max_connections: 0,
            idle_timeout: None,
            shed_queue_depth: 1,
            writer: None,
            metrics: true,
            metrics_addr: None,
        },
    );
    let addr = handle.addr();
    // Six connections hammer one worker with pipelined bursts: with a
    // queue budget of 1 the server must shed. Every response is either
    // the byte-correct document or a typed ERR_BUSY — never a stall,
    // never a wrong document.
    let (ok, busy) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let docs = &docs;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let ids = access::query_log(docs.len(), 150, 20, 0xD00D + t);
                    for &id in &ids {
                        client.send_get(id).unwrap();
                    }
                    let (mut ok, mut busy) = (0u64, 0u64);
                    let mut buf = Vec::new();
                    for &id in &ids {
                        buf.clear();
                        match client.recv_get_into(&mut buf) {
                            Ok(()) => {
                                assert_eq!(&buf[..], docs[id as usize], "shed-run doc {id}");
                                ok += 1;
                            }
                            Err(e) if e.is_busy() => busy += 1,
                            Err(e) => panic!("overload must answer, not fail: {e}"),
                        }
                    }
                    (ok, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    assert!(
        busy > 0,
        "a 1-worker server under 6-way pipelined load must shed \
         (ok {ok}, busy {busy})"
    );
    handle.shutdown();
}

#[test]
fn shutdown_opcode_stops_every_worker() {
    let docs = corpus_docs();
    let dir = TempDir::new("shutdown");
    build_rlz(dir.path(), &docs);
    let store = Arc::new(RlzStore::open(dir.path()).unwrap());
    let handle = start(Arc::clone(&store) as Arc<dyn DocStore>, 3);
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    // join() returning proves all workers exited; afterwards fresh
    // connections must fail (nobody is accepting).
    handle.join();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let refused =
        Client::connect(addr).and_then(|mut c| c.get(0).map_err(|_| std::io::Error::other("dead")));
    assert!(refused.is_err(), "server must stop serving after SHUTDOWN");
}

// ---------------------------------------------------------------------------
// Write path: live stores over the wire.
// ---------------------------------------------------------------------------

use rlz_repro::serve::protocol::STATUS_READONLY;
use rlz_repro::store::{FsyncPolicy, LiveConfig, LiveStore};

fn create_live(dir: &std::path::Path, docs: &[Vec<u8>], cfg: LiveConfig) -> LiveStore {
    let all: Vec<u8> = docs.concat();
    let dict = Dictionary::sample(
        &all,
        (all.len() / 64).max(1024),
        256,
        SampleStrategy::Evenly,
    );
    LiveStore::create(dir, dict, PairCoding::ZV, cfg).unwrap()
}

fn start_live(live: &LiveStore) -> rlz_repro::serve::ServerHandle {
    start_live_cached(live, 0)
}

fn start_live_cached(live: &LiveStore, cache_bytes: usize) -> rlz_repro::serve::ServerHandle {
    start_cfg(
        Arc::new(live.clone()),
        ServeConfig {
            threads: 2,
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes,
            max_connections: 0,
            idle_timeout: None,
            shed_queue_depth: 0,
            writer: Some(Arc::new(live.clone())),
            metrics: true,
            metrics_addr: None,
        },
    )
}

#[test]
fn live_writes_roundtrip_and_persist_across_reopen() {
    let docs = corpus_docs();
    let dir = TempDir::new("live-write");
    let cfg = LiveConfig {
        fsync: FsyncPolicy::Never, // durability is the crash suite's job
        ..LiveConfig::default()
    };
    let live = create_live(dir.path(), &docs, cfg);
    let handle = start_live(&live);
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client.stat().unwrap().num_docs;
    let mut ids = Vec::new();
    for doc in docs.iter().take(24) {
        ids.push(client.put(doc).unwrap());
    }
    for (id, doc) in ids.iter().zip(&docs) {
        assert_eq!(&client.get(*id).unwrap(), doc, "doc {id} differs");
    }
    client.append(ids[0], b"--trailer--").unwrap();
    let mut want = docs[0].clone();
    want.extend_from_slice(b"--trailer--");
    assert_eq!(client.get(ids[0]).unwrap(), want);

    client.delete(ids[1]).unwrap();
    let err = client.get(ids[1]).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { status, .. } if status == STATUS_OUT_OF_RANGE),
        "deleted doc must answer ERR_RANGE, got {err}"
    );
    assert_eq!(client.stat().unwrap().num_docs, before + 24);
    handle.shutdown();
    // Everything acked over the wire must still be there after a clean
    // reopen.
    drop(live);
    let reopened = LiveStore::open(dir.path(), LiveConfig::default()).unwrap();
    let mut want = docs[0].clone();
    want.extend_from_slice(b"--trailer--");
    assert_eq!(reopened.get(0).unwrap(), want);
    assert!(reopened.get(1).is_err(), "delete must survive reopen");
    assert_eq!(reopened.get(2).unwrap(), docs[2]);
    assert_eq!(reopened.num_docs(), 24);
}

#[test]
fn cached_live_store_never_serves_pre_write_bytes() {
    let docs = corpus_docs();
    let dir = TempDir::new("live-cache");
    let cfg = LiveConfig {
        fsync: FsyncPolicy::Never,
        ..LiveConfig::default()
    };
    let live = create_live(dir.path(), &docs, cfg);
    let handle = start_live_cached(&live, 4 << 20);
    let mut client = Client::connect(handle.addr()).unwrap();
    let (a, b) = (client.put(&docs[0]).unwrap(), client.put(&docs[1]).unwrap());
    // Warm both ids through GET and MGET, then prove they are cached.
    assert_eq!(client.get(a).unwrap(), docs[0]);
    assert_eq!(client.mget(&[b]).unwrap()[0], docs[1]);
    let before = client.server_stat().unwrap().cache_hits;
    assert_eq!(client.get(a).unwrap(), docs[0]);
    assert_eq!(client.get(b).unwrap(), docs[1]);
    assert_eq!(client.server_stat().unwrap().cache_hits, before + 2);

    client.append(a, b"--trailer--").unwrap();
    let mut want = docs[0].clone();
    want.extend_from_slice(b"--trailer--");
    assert_eq!(client.get(a).unwrap(), want, "GET after APPEND");
    assert_eq!(client.mget(&[a, a]).unwrap(), [want.clone(), want]);

    client.delete(b).unwrap();
    for err in [
        client.get(b).unwrap_err(),
        client.mget(&[b]).map(|_| ()).unwrap_err(),
    ] {
        assert!(
            matches!(err, ClientError::Server { status, .. } if status == STATUS_OUT_OF_RANGE),
            "deleted doc must answer ERR_RANGE, got {err}"
        );
    }
    handle.shutdown();
}

#[test]
fn read_only_family_answers_writes_with_err_readonly() {
    let docs = corpus_docs();
    let dir = TempDir::new("readonly-writes");
    build_rlz(dir.path(), &docs);
    let store = Arc::new(RlzStore::open(dir.path()).unwrap());
    // `start` never sets a writer, so the server is read-only.
    let handle = start(Arc::clone(&store) as Arc<dyn DocStore>, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    for result in [
        client.put(b"new doc").map(|_| ()),
        client.append(0, b"tail"),
        client.delete(0),
    ] {
        let err = result.unwrap_err();
        assert!(
            matches!(err, ClientError::Server { status, .. } if status == STATUS_READONLY),
            "read-only server must answer ERR_READONLY, got {err}"
        );
    }
    // Reads are untouched.
    assert_eq!(client.get(0).unwrap(), docs[0]);
    handle.shutdown();
}

#[test]
fn wal_backlog_sheds_writes_while_reads_serve() {
    let docs = corpus_docs();
    let dir = TempDir::new("write-shed");
    let cfg = LiveConfig {
        fsync: FsyncPolicy::Never,
        seal_bytes: u64::MAX, // never seal: the backlog only grows
        wal_soft_bytes: 1,    // one put trips the pressure bound
        wal_max_bytes: 1 << 30,
    };
    let live = create_live(dir.path(), &docs, cfg);
    let handle = start_live(&live);
    let mut client = Client::connect(handle.addr()).unwrap();

    let id = client.put(&docs[0]).unwrap();
    let err = client.put(&docs[1]).unwrap_err();
    assert!(
        err.is_busy(),
        "writes past the soft WAL bound must shed with ERR_BUSY, got {err}"
    );
    // Reads keep flowing while the write path sheds.
    assert_eq!(client.get(id).unwrap(), docs[0]);
    assert_eq!(client.mget(&[id]).unwrap()[0], docs[0]);
    // Draining the backlog (seal) reopens the write path.
    live.seal().unwrap();
    let id2 = client.put(&docs[1]).unwrap();
    assert_eq!(client.get(id2).unwrap(), docs[1]);
    handle.shutdown();
}
