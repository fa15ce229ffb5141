//! Pipelining/segmentation guard: any split of N concatenated valid
//! request frames across arbitrary TCP segment boundaries must yield
//! byte-identical responses, in request order — no matter how the frames
//! land in the server's receive buffer (one read, many reads, cuts in the
//! middle of a length prefix or an id). The ground truth is a local
//! [`Responder`] executing the same frames one at a time; the server's
//! batched pipelined path must be indistinguishable from it on the wire.

use proptest::prelude::*;
use rlz_core::{Dictionary, PairCoding, SampleStrategy};
use rlz_serve::protocol::{self, parse_request, Parsed};
use rlz_serve::{serve, Responder, ServeConfig, ServerHandle};
use rlz_store::{RlzStore, RlzStoreBuilder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

const NUM_DOCS: usize = 48;

/// A tiny store shared by every case.
fn test_store() -> &'static RlzStore {
    static STORE: OnceLock<RlzStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let docs: Vec<Vec<u8>> = (0..NUM_DOCS)
            .map(|i| format!("<doc {i}>{}</doc>", "shared boilerplate ".repeat(i % 7)).into_bytes())
            .collect();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 512, 128, SampleStrategy::Evenly);
        let dir = std::env::temp_dir().join(format!("rlz-serve-pipe-{}", std::process::id()));
        let slices: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();
        RlzStoreBuilder::new(dict, PairCoding::UV)
            .build(&dir, &slices)
            .unwrap();
        let store = RlzStore::open_resident(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        store
    })
}

/// One long-lived server (handle parked for the process lifetime; the
/// socket closes when the test binary exits).
fn server() -> SocketAddr {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            serve(
                std::sync::Arc::new(test_store().clone()),
                listener,
                ServeConfig {
                    threads: 2,
                    batch_threads: 1,
                    allow_shutdown: false,
                    cache_bytes: 0,
                    max_connections: 0,
                    idle_timeout: None,
                    shed_queue_depth: 0,
                    writer: None,
                    metrics: true,
                    metrics_addr: None,
                },
            )
            .unwrap()
        })
        .addr()
}

/// The byte-exact responses the server must produce for `frames`: a local
/// responder executing each frame in isolation. The pipelined batched
/// path on the wire must be indistinguishable from this.
fn expected_responses(frames: &[u8]) -> Vec<u8> {
    let store = test_store();
    let mut responder = Responder::new(1, false);
    let mut out = Vec::new();
    let mut at = 0;
    while at < frames.len() {
        match parse_request(&frames[at..]) {
            Parsed::Frame { request, consumed } => {
                let req = request.expect("only well-formed frames are generated");
                responder.respond(store, &req, &mut out);
                at += consumed;
            }
            other => panic!("generated stream must parse: {other:?}"),
        }
    }
    out
}

/// Encodes one generated request into `frames`.
fn encode_frame(frames: &mut Vec<u8>, kind: u8, ids: &[u32]) {
    match kind {
        0 => protocol::write_get(frames, ids.first().copied().unwrap_or(0) % NUM_DOCS as u32),
        1 => {
            let ids: Vec<u32> = ids.iter().map(|&i| i % NUM_DOCS as u32).collect();
            protocol::write_mget(frames, &ids);
        }
        _ => protocol::write_stat(frames),
    }
}

/// Sends `frames` split at `cuts`, reads back exactly the expected number
/// of response bytes, and asserts byte identity.
fn roundtrip_segmented(
    addr: SocketAddr,
    frames: &[u8],
    expected: &[u8],
    cuts: &[usize],
    dally: bool,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut sorted: Vec<usize> = cuts.iter().map(|&c| c % (frames.len() + 1)).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut at = 0;
    let reader = {
        let mut stream = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let want = expected.len();
        std::thread::spawn(move || -> Result<Vec<u8>, String> {
            let mut got = vec![0u8; want];
            stream
                .read_exact(&mut got)
                .map_err(|e| format!("read responses: {e}"))?;
            Ok(got)
        })
    };
    for &cut in sorted.iter().chain([frames.len()].iter()) {
        if cut > at {
            stream
                .write_all(&frames[at..cut])
                .map_err(|e| format!("write segment: {e}"))?;
            at = cut;
            if dally {
                // Give the server time to observe this exact boundary.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    let got = reader.join().expect("reader thread")?;
    if got != expected {
        return Err(format!(
            "responses diverge: {} bytes vs {} expected",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn any_segmentation_of_valid_frames_is_byte_identical(
        kinds in proptest::collection::vec(0u8..3, 1..24),
        raw_ids in proptest::collection::vec(any::<u32>(), 0..64),
        cuts in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let mut frames = Vec::new();
        let mut id_at = 0usize;
        for &kind in &kinds {
            let take = match kind { 0 => 1, 1 => id_at % 7, _ => 0 };
            let ids: Vec<u32> = (0..take)
                .map(|k| raw_ids.get((id_at + k) % raw_ids.len().max(1)).copied().unwrap_or(3))
                .collect();
            id_at += take.max(1);
            encode_frame(&mut frames, kind, &ids);
        }
        let cuts: Vec<usize> = cuts.iter().map(|&c| c as usize).collect();
        let expected = expected_responses(&frames);
        let result = roundtrip_segmented(server(), &frames, &expected, &cuts, false);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// Deterministic worst case: every frame byte arrives in its own TCP
/// segment with a pause after each, so the server sees every possible
/// partial-frame state (mid-length-prefix, mid-opcode, mid-id).
#[test]
fn byte_at_a_time_segments_are_byte_identical() {
    let mut frames = Vec::new();
    protocol::write_get(&mut frames, 5);
    protocol::write_mget(&mut frames, &[1, 5, 5, 9]);
    protocol::write_stat(&mut frames);
    protocol::write_get(&mut frames, 0);
    let cuts: Vec<usize> = (0..frames.len()).collect();
    let expected = expected_responses(&frames);
    roundtrip_segmented(server(), &frames, &expected, &cuts, true)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// A large pipelined burst in one write exercises the batched GET-run
/// path (dedup + seek-aware get_batch) end to end.
#[test]
fn single_write_burst_matches_per_frame_responses() {
    let mut frames = Vec::new();
    for i in 0..700u32 {
        protocol::write_get(&mut frames, (i * 13) % NUM_DOCS as u32);
    }
    let expected = expected_responses(&frames);
    roundtrip_segmented(server(), &frames, &expected, &[], false).unwrap_or_else(|e| panic!("{e}"));
}
