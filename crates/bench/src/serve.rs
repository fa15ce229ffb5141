//! Served-retrieval load generation: drive an `rlz-serve` endpoint with
//! open- or closed-loop load and measure throughput and latency
//! percentiles — the metric random-access stores are actually judged by
//! (served extract latency, not in-process microbenchmarks).
//!
//! The driver runs `connections` client threads over one request-id
//! stream. Closed-loop mode keeps `pipeline` request frames outstanding
//! per connection (1 = strict request/response ping-pong; >1 exercises
//! the server's pipelining-aware frame draining) and sends the next
//! request the moment a response lands (measures service capacity).
//! Open-loop mode paces requests against a wall-clock schedule at a
//! target rate and measures latency **from the scheduled send time**, so
//! server-side queueing is charged to the server rather than silently
//! absorbed (avoiding coordinated omission), with one outstanding request
//! per connection.
//!
//! With verification enabled, every returned document is byte-compared
//! against `DocStore::get`; ground truth is decoded **once per unique id
//! per connection** and cached, so verification cost does not scale with
//! the Zipf repeat factor of the stream.

use crate::report::{Report, Row};
use rlz_corpus::access;
use rlz_serve::Client;
use rlz_store::DocStore;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Request-id distribution for generated load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Ascending ids (the paper's batch-processing pattern).
    Sequential,
    /// Zipf-skewed single draws (popularity skew without query grouping).
    Zipf,
    /// The paper's query-log model: Zipf popularity in runs of 20
    /// results per query.
    QueryLog,
}

impl Dist {
    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Dist> {
        match name {
            "seq" | "sequential" => Some(Dist::Sequential),
            "zipf" => Some(Dist::Zipf),
            "querylog" | "query-log" => Some(Dist::QueryLog),
            _ => None,
        }
    }

    /// Short table name.
    pub fn name(&self) -> &'static str {
        match self {
            Dist::Sequential => "seq",
            Dist::Zipf => "zipf",
            Dist::QueryLog => "querylog",
        }
    }

    /// Generates `count` document ids over `num_docs`.
    pub fn ids(&self, num_docs: usize, count: usize, seed: u64) -> Vec<u32> {
        match self {
            Dist::Sequential => access::sequential(num_docs, count),
            Dist::Zipf => access::query_log(num_docs, count, 1, seed),
            Dist::QueryLog => access::query_log(num_docs, count, 20, seed),
        }
    }
}

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections (one thread each).
    pub connections: usize,
    /// Documents per request: 1 sends GET frames, >1 sends MGET frames of
    /// this size.
    pub batch: usize,
    /// Request frames kept outstanding per connection in closed-loop mode
    /// (1 = no pipelining). Open-loop runs always use depth 1.
    pub pipeline: usize,
    /// Total request frames across all connections.
    pub frames: usize,
    /// Request-id distribution.
    pub dist: Dist,
    /// `Some(rate)` = open-loop at `rate` requests/second total;
    /// `None` = closed-loop.
    pub rate: Option<f64>,
    /// Id-stream seed.
    pub seed: u64,
    /// Verify every returned document against a local ground-truth store.
    pub verify: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            batch: 1,
            pipeline: 1,
            frames: 2000,
            dist: Dist::QueryLog,
            rate: None,
            seed: 0x5E17E,
            verify: false,
        }
    }
}

/// Aggregated measurements of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    /// Request frames completed.
    pub frames: usize,
    /// Documents delivered (frames × batch).
    pub docs: u64,
    /// Document payload bytes delivered.
    pub bytes: u64,
    /// Wall-clock seconds across the whole run.
    pub elapsed_s: f64,
    /// Delivered documents per second.
    pub docs_per_s: f64,
    /// Delivered payload MiB per second.
    pub mb_per_s: f64,
    /// Latency percentiles in microseconds (per request frame, send to
    /// full response; open-loop latencies are measured from the scheduled
    /// send time, pipelined latencies from the frame's actual send).
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Request frames the server answered with ERR_BUSY (load shedding or
    /// the connection cap); these complete the protocol exchange but
    /// deliver no documents and are excluded from the latency percentiles.
    pub shed: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Compares `got` against ground truth for `id`, decoding each unique id
/// at most once per cache.
fn verify_doc(
    truth: &dyn DocStore,
    cache: &mut HashMap<u32, Vec<u8>>,
    id: u32,
    got: &[u8],
) -> Result<(), String> {
    let want = match cache.entry(id) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => e.insert(
            truth
                .get(id as usize)
                .map_err(|e| format!("truth get {id}: {e}"))?,
        ),
    };
    if got != want.as_slice() {
        return Err(format!("doc {id} mismatch"));
    }
    Ok(())
}

/// Drives `cfg` worth of load at `addr`. With `truth`, every returned
/// document is compared byte-for-byte against `DocStore::get` and any
/// mismatch is an error.
pub fn run_load(
    addr: SocketAddr,
    truth: Option<&dyn DocStore>,
    num_docs: usize,
    cfg: &LoadConfig,
) -> Result<LoadResult, String> {
    assert!(cfg.batch >= 1 && cfg.connections >= 1 && cfg.frames >= 1 && cfg.pipeline >= 1);
    // The verify flag is authoritative: asking for verification without a
    // ground-truth store is an error, not a silent no-op.
    let truth = match (cfg.verify, truth) {
        (true, None) => return Err("verify requested but no ground-truth store given".into()),
        (true, Some(t)) => Some(t),
        (false, _) => None,
    };
    let ids = cfg.dist.ids(num_docs, cfg.frames * cfg.batch, cfg.seed);
    let frames: Vec<&[u32]> = ids.chunks(cfg.batch).collect();
    // All connections rendezvous after connect + truth warm-up, then the
    // first one through publishes the shared start instant — the run's
    // wall clock and the open-loop schedule origin.
    let barrier = std::sync::Barrier::new(cfg.connections);
    let start_cell: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let per_frame = cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1e-6)));
    // Open-loop pacing keeps one outstanding request per connection so the
    // schedule, not the pipeline window, controls the send times.
    let depth = if per_frame.is_some() { 1 } else { cfg.pipeline };

    struct ConnStats {
        latencies: Vec<u64>,
        bytes: u64,
        shed: u64,
        end: Duration,
    }

    let results: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|conn_idx| {
                let frames = &frames;
                let barrier = &barrier;
                let start_cell = &start_cell;
                scope.spawn(move || -> Result<ConnStats, String> {
                    // Connect and decode this connection's ground truth
                    // before the measured window opens: verification inside
                    // the run is then a pure byte comparison, so the local
                    // decodes (bench bookkeeping, not client work) cannot
                    // contend with the server for CPU mid-measurement.
                    // Setup must NOT early-return before the barrier — a
                    // thread that never reaches the rendezvous would leave
                    // every sibling blocked in `wait()` forever — so its
                    // result is carried across and propagated after.
                    let mut truth_cache: HashMap<u32, Vec<u8>> = HashMap::new();
                    let setup = (|| -> Result<Client, String> {
                        let client =
                            Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                        if let Some(store) = truth {
                            let mut f = conn_idx;
                            while f < frames.len() {
                                for &id in frames[f] {
                                    if let std::collections::hash_map::Entry::Vacant(e) =
                                        truth_cache.entry(id)
                                    {
                                        e.insert(
                                            store
                                                .get(id as usize)
                                                .map_err(|e| format!("truth get {id}: {e}"))?,
                                        );
                                    }
                                }
                                f += cfg.connections;
                            }
                        }
                        Ok(client)
                    })();
                    // Both modes begin at the shared start instant, so
                    // `start.elapsed()` below is the run's true wall clock
                    // (threads starting early would otherwise overstate
                    // throughput).
                    barrier.wait();
                    let mut client = setup?;
                    let start = *start_cell.get_or_init(Instant::now);
                    let mut latencies = Vec::new();
                    let mut bytes = 0u64;
                    let mut shed = 0u64;
                    let mut buf = Vec::new();
                    // Frame f goes to connection f % connections; with a
                    // rate, frame f is due at start + f/rate globally.
                    // `sent` holds the send instants of in-flight frames.
                    let mut sent: VecDeque<Instant> = VecDeque::with_capacity(depth);
                    let mut next = conn_idx;
                    let mut recv = conn_idx;
                    while recv < frames.len() {
                        // Fill the pipeline window.
                        while sent.len() < depth && next < frames.len() {
                            let batch = frames[next];
                            let due = match per_frame {
                                Some(gap) => {
                                    let due = start + gap * (next as u32);
                                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                        std::thread::sleep(wait);
                                    }
                                    due
                                }
                                None => Instant::now(),
                            };
                            if batch.len() == 1 {
                                client
                                    .send_get(batch[0])
                                    .map_err(|e| format!("GET {}: {e}", batch[0]))?;
                            } else {
                                client
                                    .send_mget(batch)
                                    .map_err(|e| format!("MGET ({} ids): {e}", batch.len()))?;
                            }
                            sent.push_back(due);
                            next += cfg.connections;
                        }
                        // Latency is captured the moment the response is
                        // fully received; ground-truth verification (one
                        // local decode per unique document) happens outside
                        // the measured window so it cannot inflate the
                        // recorded percentiles.
                        let batch = frames[recv];
                        let due = sent.pop_front().expect("a sent frame per pending recv");
                        if batch.len() == 1 {
                            buf.clear();
                            match client.recv_get_into(&mut buf) {
                                Ok(()) => {
                                    latencies.push(due.elapsed().as_micros() as u64);
                                    bytes += buf.len() as u64;
                                    if let Some(store) = truth {
                                        verify_doc(store, &mut truth_cache, batch[0], &buf)?;
                                    }
                                }
                                // An ERR_BUSY answer is the server shedding
                                // load as designed, not a failed run: count
                                // it and keep going on the same connection.
                                Err(e) if e.is_busy() => shed += 1,
                                Err(e) => return Err(format!("GET {}: {e}", batch[0])),
                            }
                        } else {
                            match client.recv_mget(batch.len()) {
                                Ok(docs) => {
                                    latencies.push(due.elapsed().as_micros() as u64);
                                    for (doc, &id) in docs.iter().zip(batch) {
                                        bytes += doc.len() as u64;
                                        if let Some(store) = truth {
                                            verify_doc(store, &mut truth_cache, id, doc)?;
                                        }
                                    }
                                }
                                Err(e) if e.is_busy() => shed += 1,
                                Err(e) => return Err(format!("MGET ({} ids): {e}", batch.len())),
                            }
                        }
                        recv += cfg.connections;
                    }
                    Ok(ConnStats {
                        latencies,
                        bytes,
                        shed,
                        end: start.elapsed(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });

    let mut latencies = Vec::with_capacity(frames.len());
    let mut bytes = 0u64;
    let mut shed = 0u64;
    let mut elapsed = Duration::ZERO;
    for r in results {
        let stats = r?;
        latencies.extend_from_slice(&stats.latencies);
        bytes += stats.bytes;
        shed += stats.shed;
        elapsed = elapsed.max(stats.end);
    }
    latencies.sort_unstable();
    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    let docs = (latencies.len() * cfg.batch) as u64;
    Ok(LoadResult {
        frames: latencies.len(),
        docs,
        bytes,
        elapsed_s,
        docs_per_s: docs as f64 / elapsed_s,
        mb_per_s: bytes as f64 / (1024.0 * 1024.0) / elapsed_s,
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
        shed,
    })
}

/// Server-side properties a load row is labelled with (the load driver
/// reads them from the extended STAT response or the in-process handle).
#[derive(Debug, Clone, Copy)]
pub struct ServerLabels {
    /// `"on"` when the hot-document cache is enabled.
    pub cache: &'static str,
    /// `"on"` when the server collects metrics (the default); `"off"` is
    /// the instrumentation-cost ablation. Part of the row identity so the
    /// trend checker never compares across the ablation boundary.
    pub metrics: &'static str,
}

impl ServerLabels {
    /// Labels read from a live server's extended STAT response. STAT does
    /// not carry the metrics switch, so this assumes the default (`"on"`);
    /// a driver benchmarking the ablation sets the field itself.
    pub fn from_stat(stats: &rlz_serve::ServeStats) -> Self {
        ServerLabels {
            cache: if stats.cache_budget_bytes > 0 {
                "on"
            } else {
                "off"
            },
            metrics: "on",
        }
    }
}

/// Renders one result as a report row (the `BENCH_serve.json` schema).
pub fn result_row(
    cfg: &LoadConfig,
    result: &LoadResult,
    payload_bytes: u64,
    labels: ServerLabels,
) -> Row {
    Row::new()
        .str(
            "workload",
            if cfg.rate.is_some() { "open" } else { "closed" },
        )
        .str("dist", cfg.dist.name())
        // Part of the row identity: verified closed-loop runs spend client
        // CPU on ground-truth decodes, so their throughput must never be
        // trend-compared against unverified measurements.
        .str("verified", if cfg.verify { "yes" } else { "no" })
        .str("cache", labels.cache)
        .str("metrics", labels.metrics)
        .int("connections", cfg.connections as u64)
        .int("batch", cfg.batch as u64)
        .int("pipeline", cfg.pipeline as u64)
        .int("requests", result.frames as u64)
        .int("payload_bytes", payload_bytes)
        .num("docs_per_s", result.docs_per_s)
        .num("mb_per_s", result.mb_per_s)
        .int("p50_us", result.p50_us)
        .int("p95_us", result.p95_us)
        .int("p99_us", result.p99_us)
        .int("shed", result.shed)
}

const SERVE_WIDTHS: [usize; 12] = [8, 9, 6, 6, 5, 6, 8, 10, 9, 8, 8, 6];

/// Prints the serve-table header.
pub fn print_serve_header() {
    crate::print_row(
        &[
            "workload".into(),
            "dist".into(),
            "conns".into(),
            "batch".into(),
            "pipe".into(),
            "cache".into(),
            "frames".into(),
            "docs/s".into(),
            "p50(us)".into(),
            "p95(us)".into(),
            "p99(us)".into(),
            "shed".into(),
        ],
        &SERVE_WIDTHS,
    );
}

/// Prints one serve-table row.
pub fn print_serve_row(cfg: &LoadConfig, result: &LoadResult, labels: ServerLabels) {
    crate::print_row(
        &[
            if cfg.rate.is_some() { "open" } else { "closed" }.into(),
            cfg.dist.name().into(),
            cfg.connections.to_string(),
            cfg.batch.to_string(),
            cfg.pipeline.to_string(),
            labels.cache.into(),
            result.frames.to_string(),
            format!("{:.0}", result.docs_per_s),
            result.p50_us.to_string(),
            result.p95_us.to_string(),
            result.p99_us.to_string(),
            result.shed.to_string(),
        ],
        &SERVE_WIDTHS,
    );
}

/// The `run_all`/standalone served-retrieval table: builds an RLZ store
/// from `collection`, serves it in-process on a loopback socket, and
/// sweeps connections × pipelining depth × hot-document cache on/off
/// under closed-loop load, plus a Zipf cache-effectiveness pair and one
/// paced open-loop run. Returns the `BENCH_serve.json` report.
pub fn serve_table(
    title: &str,
    collection: &rlz_corpus::Collection,
    cfg: &crate::ScaledConfig,
) -> Report {
    use std::sync::Arc;

    println!("{title}");
    println!(
        "(in-process rlz-serve on loopback, file-backed RLZ store, ZV coding; \
         latency measured per request frame)\n"
    );
    let work = crate::WorkDir::new("serve-tbl");
    let dict_size = cfg.dict_sizes()[0];
    let (dir, pct) = crate::build_rlz_store(
        &work,
        "serve-rlz",
        collection,
        dict_size,
        rlz_core::PairCoding::ZV,
        cfg,
    );
    let store = rlz_store::RlzStore::open(&dir).expect("open rlz store");
    let store_stats = rlz_store::DocStore::stats(&store);
    let num_docs = store_stats.num_docs as usize;
    // Budget sized to hold the hot set but not the whole collection, so
    // the on/off comparison measures a working cache, not a full mirror.
    let cache_budget = (collection.total_bytes() / 4).max(1 << 20);
    let frames = (cfg.requests / 4).clamp(200, 20_000);
    let mut report = Report::new("serve");

    // The third sweep leg is the instrumentation-cost ablation: the same
    // cache-off workload with metrics collection disabled, so the trend
    // data carries a direct metrics-on vs metrics-off p99 comparison.
    for (cache_bytes, metrics) in [(0usize, true), (cache_budget, true), (0usize, false)] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let handle = rlz_serve::serve(
            Arc::new(store.clone()),
            listener,
            rlz_serve::ServeConfig {
                threads: cfg.threads.clamp(1, 4),
                batch_threads: 1,
                allow_shutdown: true,
                cache_bytes,
                max_connections: 0,
                idle_timeout: None,
                shed_queue_depth: 0,
                writer: None,
                metrics,
                metrics_addr: None,
            },
        )
        .expect("start in-process server");
        let addr = handle.addr();
        let labels = ServerLabels {
            cache: if cache_bytes > 0 { "on" } else { "off" },
            metrics: if metrics { "on" } else { "off" },
        };
        println!(
            "store: Enc {pct:.2}%, {num_docs} docs, serving on {addr} \
             (cache {}, metrics {})\n",
            labels.cache, labels.metrics
        );
        print_serve_header();

        let mut closed_1conn_rate = 0.0f64;
        for (connections, pipeline, batch) in
            [(1, 1, 1), (4, 1, 1), (1, 8, 1), (4, 8, 1), (4, 1, 16)]
        {
            let load = LoadConfig {
                connections,
                batch,
                pipeline,
                frames: frames / batch.max(1),
                dist: Dist::QueryLog,
                rate: None,
                seed: cfg.seed ^ 0x5E17E,
                verify: false,
            };
            let result = run_load(addr, None, num_docs, &load).expect("closed-loop load");
            if connections == 1 && pipeline == 1 && batch == 1 {
                closed_1conn_rate = result.docs_per_s;
            }
            print_serve_row(&load, &result, labels);
            report.push(result_row(
                &load,
                &result,
                store_stats.payload_bytes,
                labels,
            ));
        }
        // The ablation leg only needs the closed-loop sweep for the
        // instrumentation-cost comparison; skip the cache/pacing studies.
        if !metrics {
            println!();
            handle.shutdown();
            continue;
        }
        // Zipf single-GET pair: the cache-effectiveness comparison the
        // paper's skewed access patterns motivate.
        let zipf = LoadConfig {
            connections: 2,
            batch: 1,
            pipeline: 1,
            frames,
            dist: Dist::Zipf,
            rate: None,
            seed: cfg.seed ^ 0x21FF,
            verify: false,
        };
        let result = run_load(addr, None, num_docs, &zipf).expect("zipf load");
        print_serve_row(&zipf, &result, labels);
        report.push(result_row(
            &zipf,
            &result,
            store_stats.payload_bytes,
            labels,
        ));
        // Open-loop at ~60% of single-connection capacity: queueing delay
        // stays visible in the tail percentiles without saturating.
        let open = LoadConfig {
            connections: 2,
            batch: 1,
            pipeline: 1,
            frames,
            dist: Dist::QueryLog,
            rate: Some((closed_1conn_rate * 0.6).max(50.0)),
            seed: cfg.seed ^ 0x0BE4,
            verify: false,
        };
        let result = run_load(addr, None, num_docs, &open).expect("open-loop load");
        print_serve_row(&open, &result, labels);
        report.push(result_row(
            &open,
            &result,
            store_stats.payload_bytes,
            labels,
        ));
        println!();
        handle.shutdown();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 51);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn dist_parsing() {
        assert_eq!(Dist::parse("seq"), Some(Dist::Sequential));
        assert_eq!(Dist::parse("zipf"), Some(Dist::Zipf));
        assert_eq!(Dist::parse("querylog"), Some(Dist::QueryLog));
        assert_eq!(Dist::parse("wat"), None);
        assert_eq!(Dist::QueryLog.name(), "querylog");
    }

    #[test]
    fn dist_streams_are_in_range_and_sized() {
        for dist in [Dist::Sequential, Dist::Zipf, Dist::QueryLog] {
            let ids = dist.ids(50, 500, 9);
            assert_eq!(ids.len(), 500, "{}", dist.name());
            assert!(ids.iter().all(|&id| id < 50), "{}", dist.name());
        }
    }
}
