//! `serve_load` — load generator and correctness driver for `rlz-serve`.
//!
//! ```text
//! # Build a small RLZ store from the synthetic GOV2-like corpus:
//! serve_load --store DIR --build-only [--size-mb N]
//!
//! # Drive an external server (CI smoke flow):
//! serve_load --addr 127.0.0.1:7641 --store DIR --smoke --verify \
//!            [--connections N] [--batch N] [--pipeline N] [--requests N] \
//!            [--append] [--shutdown]
//!
//! # Stop an external server without measuring anything:
//! serve_load --addr 127.0.0.1:7641 --store DIR --shutdown-only
//!
//! # Self-contained: build, serve in-process, and measure:
//! serve_load --store DIR --build [--connections N] [--rate R] \
//!            [--cache-bytes N] ...
//! ```
//!
//! `--store` names the store directory; it doubles as the ground truth for
//! `--verify`/`--smoke`, which compare every served byte against
//! `DocStore::get`. `--smoke` first runs a scripted mixed GET / MGET /
//! pipelined / malformed-frame protocol exercise (any deviation exits
//! nonzero), then the timed load. `--pipeline N` keeps N frames
//! outstanding per connection in closed-loop mode. `--cache-bytes`
//! configures the in-process server (external servers are configured by
//! their own flags; rows are labelled from the live STAT response either
//! way). Results land in `BENCH_serve.json` (`--out` to move, `--append`
//! to keep an existing artifact's rows — how CI collects the cache-on and
//! cache-off runs into one matrix).

use rlz_bench::serve::{self, Dist, LoadConfig, ServerLabels};
use rlz_bench::ScaledConfig;
use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_serve::protocol::{self, STATUS_BAD_FRAME, STATUS_BAD_OPCODE, STATUS_OUT_OF_RANGE};
use rlz_serve::{Client, ClientError};
use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: Option<SocketAddr>,
    store: Option<PathBuf>,
    build: bool,
    build_only: bool,
    smoke: bool,
    verify: bool,
    shutdown: bool,
    shutdown_only: bool,
    append: bool,
    connections: usize,
    batch: usize,
    pipeline: usize,
    requests: usize,
    dist: Dist,
    rate: Option<f64>,
    cache_bytes: usize,
    out: PathBuf,
    wait_secs: u64,
    scaled: ScaledConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--addr HOST:PORT] [--store DIR] [--build | --build-only]\n\
         \x20                 [--size-mb N] [--connections N] [--batch N] [--pipeline N]\n\
         \x20                 [--requests N] [--dist seq|zipf|querylog] [--rate R]\n\
         \x20                 [--cache-bytes N]\n\
         \x20                 [--smoke] [--verify] [--shutdown] [--shutdown-only]\n\
         \x20                 [--append] [--out FILE] [--wait-secs S] [--seed N]"
    );
    std::process::exit(2)
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        addr: None,
        store: None,
        build: false,
        build_only: false,
        smoke: false,
        verify: false,
        shutdown: false,
        shutdown_only: false,
        append: false,
        connections: 4,
        batch: 1,
        pipeline: 1,
        requests: 2000,
        dist: Dist::QueryLog,
        rate: None,
        cache_bytes: 0,
        out: PathBuf::from("BENCH_serve.json"),
        wait_secs: 15,
        scaled: ScaledConfig::from_args(raw),
    };
    // `--size-mb N` defaults the store build to a small corpus unless
    // overridden on the command line.
    if !raw.iter().any(|a| a == "--size-mb") {
        args.scaled.collection_bytes = 2 << 20;
    }
    let mut i = 0;
    while i < raw.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            raw.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match raw[i].as_str() {
            "--addr" => args.addr = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--store" => args.store = Some(PathBuf::from(value(&mut i))),
            "--build" => args.build = true,
            "--build-only" => {
                args.build = true;
                args.build_only = true;
            }
            "--smoke" => {
                args.smoke = true;
                args.verify = true;
            }
            "--verify" => args.verify = true,
            "--shutdown" => args.shutdown = true,
            "--shutdown-only" => args.shutdown_only = true,
            "--append" => args.append = true,
            "--connections" => args.connections = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--pipeline" => args.pipeline = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dist" => args.dist = Dist::parse(&value(&mut i)).unwrap_or_else(|| usage()),
            "--rate" => args.rate = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--cache-bytes" => args.cache_bytes = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = PathBuf::from(value(&mut i)),
            "--wait-secs" => args.wait_secs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            // ScaledConfig flags, already consumed by from_args above.
            "--size-mb" | "--seed" | "--threads" => {
                let _ = value(&mut i);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if args.pipeline < 1 {
        eprintln!("serve_load: --pipeline must be >= 1");
        usage()
    }
    args
}

/// Builds a small RLZ store (GOV2-like corpus at the scaled size) in `dir`
/// through the chunked pipeline — `--threads` arrives via [`BuildConfig`],
/// the shared construction knob surface, not an ad-hoc argument.
fn build_store(dir: &Path, cfg: &ScaledConfig) {
    let collection = rlz_bench::gov2_collection(cfg);
    let dict_size = cfg.dict_sizes()[0];
    let dict = Dictionary::sample(
        &collection.data,
        dict_size,
        cfg.sample_len,
        SampleStrategy::Evenly,
    );
    let compressor = RlzCompressor::new(dict, PairCoding::ZV);
    let build_cfg = BuildConfig {
        threads: cfg.threads,
        ..BuildConfig::default()
    };
    let report = build_rlz_chunked(
        dir,
        &compressor,
        collection.iter_docs().map(|d| d.to_vec()),
        &build_cfg,
    )
    .expect("build store");
    println!(
        "serve_load: built RLZ store at {} ({} docs, {} corpus bytes)",
        dir.display(),
        report.docs,
        collection.total_bytes()
    );
}

/// The scripted correctness mix: exercises every opcode, every error code,
/// pipelined frames, and the malformed-frame policy against ground truth.
/// Panics (nonzero exit) on any deviation.
fn smoke(addr: SocketAddr, truth: &dyn DocStore) {
    let n = truth.num_docs();
    assert!(n > 0, "smoke needs a non-empty store");
    let deadline = Duration::from_secs(5);

    // STAT matches the store's own accounting, and the extended fields are
    // self-consistent.
    let mut client = Client::connect_retry(addr, deadline).expect("connect for smoke");
    let stats = client.server_stat().expect("STAT");
    assert_eq!(
        stats.store,
        truth.stats(),
        "served STAT disagrees with the store"
    );
    if stats.cache_budget_bytes > 0 {
        assert!(
            stats.cache_resident_bytes <= stats.cache_budget_bytes,
            "cache resident bytes exceed the budget"
        );
    } else {
        assert_eq!(stats.cache_resident_bytes, 0);
    }

    // Single GETs: a sweep plus a skewed sample, byte-identical. The
    // second pass re-reads the same ids so a cache-enabled server serves
    // hits, which must be byte-identical too.
    let mut buf = Vec::new();
    for round in 0..2 {
        for id in (0..n).step_by((n / 256).max(1)).chain([0, n - 1]) {
            buf.clear();
            client.get_into(id as u32, &mut buf).expect("GET");
            assert_eq!(
                buf,
                truth.get(id).expect("truth get"),
                "GET {id} not byte-identical (round {round})"
            );
        }
    }

    // MGETs: forward, reversed, duplicated, empty.
    let sample: Vec<u32> = (0..n as u32).step_by((n / 64).max(1)).collect();
    let reversed: Vec<u32> = sample.iter().rev().copied().collect();
    let mut dup = sample.clone();
    dup.extend_from_slice(&sample[..sample.len().min(8)]);
    for ids in [&sample, &reversed, &dup, &Vec::new()] {
        let got = client.mget(ids).expect("MGET");
        assert_eq!(got.len(), ids.len());
        for (doc, &id) in got.iter().zip(ids.iter()) {
            assert_eq!(
                doc,
                &truth.get(id as usize).expect("truth get"),
                "MGET doc {id} not byte-identical"
            );
        }
    }

    // Pipelined GETs: a burst of frames written before any response is
    // read must come back in request order, byte-identical — including
    // repeated ids (the deduplicated batch path).
    let pipelined: Vec<u32> = (0..48u32).map(|i| (i * 7) % n as u32).collect();
    for &id in &pipelined {
        client.send_get(id).expect("pipelined send");
    }
    for &id in &pipelined {
        buf.clear();
        client.recv_get_into(&mut buf).expect("pipelined recv");
        assert_eq!(
            buf,
            truth.get(id as usize).expect("truth get"),
            "pipelined GET {id} not byte-identical"
        );
    }

    // Out-of-range: GET and MGET answer OUT_OF_RANGE error frames and the
    // connection survives.
    for result in [
        client.get(n as u32).map(|_| ()),
        client.mget(&[0, n as u32]).map(|_| ()),
    ] {
        match result {
            Err(ClientError::Server { status, .. }) => assert_eq!(
                status, STATUS_OUT_OF_RANGE,
                "out-of-range must answer OUT_OF_RANGE"
            ),
            other => panic!("out-of-range must fail with a server error, got {other:?}"),
        }
    }
    assert_eq!(
        client.get(0).expect("GET after error"),
        truth.get(0).unwrap()
    );

    // Unknown opcode: BAD_OPCODE, connection survives.
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.push(0x6E);
    let (status, _) = client.send_raw(&frame).expect("unknown opcode answer");
    assert_eq!(status, STATUS_BAD_OPCODE);
    assert_eq!(
        client.get(0).expect("GET after bad opcode"),
        truth.get(0).unwrap()
    );

    // Malformed frames: oversized length prefix and a lying MGET count.
    // Both answer BAD_FRAME and close the connection.
    let mut bad = Client::connect_retry(addr, deadline).expect("connect malformed");
    let (status, _) = bad
        .send_raw(&u32::MAX.to_le_bytes())
        .expect("oversized answer");
    assert_eq!(status, STATUS_BAD_FRAME);
    assert!(
        bad.get(0).is_err(),
        "connection must close after malformed frame"
    );
    let mut bad = Client::connect_retry(addr, deadline).expect("connect lying mget");
    let mut frame = 13u32.to_le_bytes().to_vec();
    frame.push(protocol::OP_MGET);
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]);
    let (status, _) = bad.send_raw(&frame).expect("lying MGET answer");
    assert_eq!(status, STATUS_BAD_FRAME);

    // A torn frame followed by a hangup must not take the server down.
    {
        let mut torn = Client::connect_retry(addr, deadline).expect("connect torn");
        let mut partial = 5u32.to_le_bytes().to_vec();
        partial.push(protocol::OP_GET);
        partial.push(0);
        let _ = torn.send_raw_no_response(&partial);
    }
    let mut again = Client::connect_retry(addr, deadline).expect("reconnect after torn");
    assert_eq!(
        again.get(0).expect("GET after torn frame"),
        truth.get(0).unwrap()
    );

    println!("serve_load: smoke ok (GET/MGET/STAT/pipelined byte-identical, error frames correct)");
}

/// Carries an existing artifact's rows into `report` so this run appends
/// instead of replacing (CI collects the cache on/off matrix this way).
fn carry_over_rows(report: &mut rlz_bench::report::Report, path: &Path) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // nothing to append to
    };
    let Ok(parsed) = rlz_bench::json::parse(&text) else {
        eprintln!(
            "serve_load: existing {} is not valid JSON; replacing it",
            path.display()
        );
        return;
    };
    if parsed.get("bench").and_then(rlz_bench::json::Value::as_str) != Some("serve") {
        eprintln!(
            "serve_load: existing {} is not a serve artifact; replacing it",
            path.display()
        );
        return;
    }
    let Some(rows) = parsed.get("rows").and_then(rlz_bench::json::Value::as_arr) else {
        return;
    };
    // Prepend in reverse so the carried rows keep their original order.
    for row in rows.iter().rev() {
        report.prepend_rendered(row.to_json());
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);

    let Some(store_dir) = args.store.clone() else {
        eprintln!("serve_load: --store DIR is required");
        usage()
    };
    if args.build {
        build_store(&store_dir, &args.scaled);
        if args.build_only {
            return ExitCode::SUCCESS;
        }
    }
    let truth: Arc<dyn DocStore> = match RlzStore::open(&store_dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!(
                "serve_load: open store {} failed ({e}); pass --build to create it",
                store_dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let num_docs = truth.num_docs();

    // Either drive an external server or spin one up in-process.
    let mut in_process = None;
    let addr = match args.addr {
        Some(addr) => {
            if Client::connect_retry(addr, Duration::from_secs(args.wait_secs)).is_err() {
                eprintln!(
                    "serve_load: no server reachable at {addr} within {}s",
                    args.wait_secs
                );
                return ExitCode::FAILURE;
            }
            addr
        }
        None => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let handle = rlz_serve::serve(
                Arc::clone(&truth),
                listener,
                rlz_serve::ServeConfig {
                    cache_bytes: args.cache_bytes,
                    ..rlz_serve::ServeConfig::default()
                },
            )
            .expect("start in-process server");
            let addr = handle.addr();
            println!(
                "serve_load: started in-process server on {addr} (cache {})",
                if args.cache_bytes > 0 { "on" } else { "off" }
            );
            in_process = Some(handle);
            addr
        }
    };

    if args.shutdown_only {
        let mut client = Client::connect(addr).expect("connect for shutdown");
        client
            .shutdown_server()
            .expect("SHUTDOWN must be acknowledged");
        println!("serve_load: server acknowledged shutdown");
        if let Some(handle) = in_process {
            handle.join();
        }
        return ExitCode::SUCCESS;
    }

    // Row labels come from the live server, so they are truthful for
    // external servers too.
    let labels = {
        let mut client = Client::connect(addr).expect("connect for STAT");
        let stats = client.server_stat().expect("server STAT");
        ServerLabels::from_stat(&stats)
    };

    if args.smoke {
        smoke(addr, truth.as_ref());
    }

    let load = LoadConfig {
        connections: args.connections,
        batch: args.batch,
        pipeline: args.pipeline,
        frames: (args.requests / args.batch.max(1)).max(1),
        dist: args.dist,
        rate: args.rate,
        seed: args.scaled.seed,
        verify: args.verify,
    };
    // run_load verifies only when the config's verify flag asks for it.
    let truth_ref: Option<&dyn DocStore> = Some(truth.as_ref());
    println!(
        "serve_load: {} load, {} connections, batch {}, pipeline {}, {} frames, {} ids",
        if load.rate.is_some() {
            "open-loop"
        } else {
            "closed-loop"
        },
        load.connections,
        load.batch,
        load.pipeline,
        load.frames,
        load.dist.name(),
    );
    let result = match serve::run_load(addr, truth_ref, num_docs, &load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_load: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    serve::print_serve_header();
    serve::print_serve_row(&load, &result, labels);
    println!(
        "serve_load: {} docs in {:.2}s = {:.0} docs/s, {:.1} MiB/s{}",
        result.docs,
        result.elapsed_s,
        result.docs_per_s,
        result.mb_per_s,
        if load.verify {
            " (every document verified against DocStore::get)"
        } else {
            ""
        }
    );

    let mut report = rlz_bench::report::Report::new("serve");
    report.push(serve::result_row(
        &load,
        &result,
        truth.stats().payload_bytes,
        labels,
    ));
    if args.append {
        carry_over_rows(&mut report, &args.out);
    }
    report.write(&args.out).expect("write BENCH_serve.json");

    if args.shutdown {
        let mut client = Client::connect(addr).expect("connect for shutdown");
        client
            .shutdown_server()
            .expect("SHUTDOWN must be acknowledged");
        println!("serve_load: server acknowledged shutdown");
    }
    if let Some(handle) = in_process {
        if args.shutdown {
            handle.join();
        } else {
            handle.shutdown();
        }
    }
    ExitCode::SUCCESS
}
